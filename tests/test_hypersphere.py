import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsim.hypersphere import to_spherical

from helpers import sph_to_vec, uniform_sphere, vec_to_sph


class TestFromSpherical:
    """The loop oracle ``sph_to_vec``, which inverts :func:`to_spherical` in its tests."""

    def test_two_dim_quarter_turn(self):
        np.testing.assert_allclose(sph_to_vec(np.array([math.pi / 2])), [0.0, 1.0], atol=1e-15)

    def test_all_zero_angles_give_first_axis(self):
        for d in (2, 3, 7):
            w = sph_to_vec(np.zeros(d - 1))
            expected = np.zeros(d)
            expected[0] = 1.0
            np.testing.assert_allclose(w, expected, atol=1e-15)

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_unit_norm(self, d, seed):
        rng = np.random.default_rng(seed)
        angles = np.concatenate([
            rng.uniform(0.0, math.pi, size=d - 2),
            rng.uniform(0.0, 2.0 * math.pi, size=1),
        ])
        w = sph_to_vec(angles)
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(3)
        angles = np.concatenate([rng.uniform(0, math.pi, 4), rng.uniform(0, 2 * math.pi, 1)])
        np.testing.assert_allclose(vec_to_sph(sph_to_vec(angles)), angles, atol=1e-14)


class TestToSpherical:
    def test_two_dim(self):
        np.testing.assert_allclose(to_spherical(np.array([[0.0, 1.0]])), [[math.pi / 2]],
                                   atol=1e-15)

    def test_first_axis_pole_convention(self):
        np.testing.assert_allclose(to_spherical(np.array([[1.0, 0.0, 0.0]])), [[0.0, 0.0]],
                                   atol=1e-15)

    def test_negative_pole(self):
        angles = to_spherical(np.array([[-1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(angles, [[math.pi, 0.0]], atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 10, 300])
    def test_round_trip(self, d):
        rows = uniform_sphere(np.random.default_rng(d), 20, d)
        rows[3] = 0.0
        rows[3, 0] = -1.0  # a pole: every later angle is 0
        angles = to_spherical(rows)
        assert angles.shape == (20, d - 1)
        for w, phi in zip(rows, angles):
            np.testing.assert_allclose(sph_to_vec(phi), w, atol=1e-9)

    def test_matches_loop_reference(self):
        rows = uniform_sphere(np.random.default_rng(11), 10, 6)
        for w, phi in zip(rows, to_spherical(rows)):
            np.testing.assert_allclose(phi, vec_to_sph(w), atol=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            to_spherical(np.array([[1.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(3,), (), (2, 3, 3), (4, 1)])
    def test_only_b_by_d_rows_are_taken(self, shape):
        w = np.zeros(shape)
        w[(0,) * len(shape)] = 1.0 if shape else 0.0
        with pytest.raises(ValueError, match=r"\(B, d\) rows of dimension >= 2"):
            to_spherical(w)

    @pytest.mark.parametrize("d", [2, 3, 10, 300])
    def test_rows_equal_per_row_calls(self, d):
        rows = uniform_sphere(np.random.default_rng(d + 5), 12, d)
        rows[3] = 0.0
        rows[3, 0] = -1.0  # a pole: every later angle is 0
        angles = to_spherical(rows)
        for w, phi in zip(rows, angles):
            np.testing.assert_array_equal(phi, to_spherical(w[np.newaxis])[0])

    def test_rows_reject_a_non_unit_row(self):
        rows = uniform_sphere(np.random.default_rng(1), 4, 3)
        rows[2] *= 1.01
        with pytest.raises(ValueError, match="unit-norm"):
            to_spherical(rows)
