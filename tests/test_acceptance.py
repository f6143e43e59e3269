"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
Criterion 8 needs external public data (see README) and skips when the
environment variables pointing at it are unset.
"""

import os
import time

import numpy as np
import pytest

from groupsim.comparison import (
    DIAG,
    SPHERICAL,
    VMF,
    NormalWishartPrior,
    bag_criteria,
    corpus_model_selection,
    nw_log_evidence,
    pair_scores,
    penalty_curve,
)
from groupsim.embeddings import load_embeddings
from groupsim.evaluation import EvalOptions, evaluate, load_pairs, spearman
from groupsim.vmf import fit_vmf

from helpers import (
    diag_closed_tic,
    gaussian_dense_tic,
    nw_log_evidence_quadrature,
    random_rotation,
    uniform_sphere,
    vmf_closed_tic,
    vmf_dense_tic_fd,
)


def _report(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_penalty_oracle_equivalence():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst_vmf = 0.0
    worst_gauss = 0.0
    for i in range(100):
        d = int(rng.choice([3, 5]))
        n = int(rng.choice([5, 20]))
        x = uniform_sphere(rng, n, d)
        fit = fit_vmf(x)  # the fit the scoring path makes of x, bit for bit
        closed = bag_criteria(VMF, "tic", [(x,)])[1][0]
        dense = vmf_dense_tic_fd(x, fit.mu_hat[0], fit.kappa_hat[0])
        worst_vmf = max(worst_vmf, abs(closed - dense) / abs(dense))

        y = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0, size=d)
        penalty = bag_criteria(DIAG, "tic", [(y,)])[1][0]
        worst_gauss = max(
            worst_gauss,
            abs(penalty - gaussian_dense_tic(y)) / abs(gaussian_dense_tic(y)),
        )
    elapsed = time.perf_counter() - start
    ok = worst_vmf < 1e-3 and worst_gauss < 1e-6 and elapsed < 60.0
    _report(
        1,
        f"dense-oracle penalties (vmf rel {worst_vmf:.2e} < 1e-3, "
        f"gaussian rel {worst_gauss:.2e} < 1e-6, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_2_closed_equals_generic():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        n, m = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        x1 = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0, size=d)
        x2 = rng.standard_normal((m, d)) * rng.uniform(0.5, 2.0, size=d)
        closed_g = diag_closed_tic(x1, x2)
        generic_g = pair_scores(DIAG, "tic", [x1], [x2])[0].value / 2.0
        worst = max(worst, abs(closed_g - generic_g) / max(1.0, abs(generic_g)))

        u1, u2 = uniform_sphere(rng, n, d), uniform_sphere(rng, m, d)
        closed_v = vmf_closed_tic(u1, u2)
        generic_v = pair_scores(VMF, "tic", [u1], [u2])[0].value / 2.0
        worst = max(worst, abs(closed_v - generic_v) / max(1.0, abs(generic_v)))
    _report(2, f"closed forms match generic composition (worst rel {worst:.2e} < 1e-9)",
            worst < 1e-9)


def test_criterion_3_large_sample_aic_limit():
    means = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        x = rng.standard_normal((10_000, 10))
        means.append(bag_criteria(DIAG, "tic", [(x,)])[1][0])
    mean = float(np.mean(means))
    ok = abs(mean - 20.0) / 20.0 < 0.05
    _report(3, f"large-sample penalty {mean:.3f} within 5% of parameter count 20", ok)


def test_criterion_4_bayes_factor_quadrature():
    rng = np.random.default_rng(4)
    prior = NormalWishartPrior(1, kappa0=1.0, nu0=3.0)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        x = rng.standard_normal((n, 1)) * rng.uniform(0.5, 2.0) + rng.uniform(-2.0, 2.0)
        closed = nw_log_evidence(x, prior)
        quad = nw_log_evidence_quadrature(x.ravel(), 0.0, 1.0, 3.0, 1.0)
        worst = max(worst, abs(closed - quad))
    _report(4, f"log evidence vs 2-D quadrature (worst abs {worst:.2e} < 1e-4)", worst < 1e-4)


def test_criterion_5_model_selection_direction():
    hetero_wins = 0
    iso_wins = 0
    trials = 20
    for seed in range(trials):
        rng = np.random.default_rng(2000 + seed)
        hetero = [
            rng.standard_normal((12, 6)) * rng.uniform(0.1, 10.0, size=6) ** 0.5
            for _ in range(60)
        ]
        rows = corpus_model_selection(hetero)
        by = {r.model: r.mean_ic for r in rows}
        if by[DIAG] < by[SPHERICAL]:
            hetero_wins += 1
        iso = [rng.standard_normal((40, 6)) for _ in range(60)]
        rows = corpus_model_selection(iso)
        by = {r.model: r.mean_ic for r in rows}
        if by[SPHERICAL] < by[DIAG]:
            iso_wins += 1
    ok = hetero_wins == trials and iso_wins == trials
    _report(
        5,
        f"heteroscedastic prefers diagonal {hetero_wins}/{trials}, "
        f"isotropic prefers spherical {iso_wins}/{trials}",
        ok,
    )


def test_criterion_6_invariance_suite():
    rng = np.random.default_rng(6)
    checks = []

    # symmetry of every score family
    x1 = rng.standard_normal((5, 4))
    x2 = rng.standard_normal((8, 4))
    checks.append(
        abs(pair_scores(DIAG, "tic", [x1], [x2])[0].value
            - pair_scores(DIAG, "tic", [x2], [x1])[0].value)
        < 1e-9
    )

    # permutation of rows within each bag
    p1, p2 = rng.permutation(5), rng.permutation(8)
    checks.append(
        abs(
            pair_scores(DIAG, "tic", [x1], [x2])[0].value
            - pair_scores(DIAG, "tic", [x1[p1]], [x2[p2]])[0].value
        )
        < 1e-9
    )

    # translation invariance of the Gaussian score
    shift = rng.uniform(-4.0, 4.0, size=4)
    checks.append(
        abs(
            pair_scores(DIAG, "tic", [x1], [x2])[0].value
            - pair_scores(DIAG, "tic", [x1 + shift], [x2 + shift])[0].value
        )
        < 1e-9
    )

    # rotation invariance of the sphere score
    u1, u2 = uniform_sphere(rng, 6, 5), uniform_sphere(rng, 9, 5)
    rot = random_rotation(rng, 5)
    checks.append(
        abs(
            pair_scores(VMF, "tic", [u1], [u2])[0].value
            - pair_scores(VMF, "tic", [u1 @ rot.T], [u2 @ rot.T])[0].value
        )
        < 1e-6
    )

    # rank correlation unchanged by strictly increasing transforms
    xs = rng.permutation(np.arange(20.0))
    ys = rng.standard_normal(20)
    base = spearman(xs, ys)
    checks.append(abs(spearman(np.exp(xs / 10.0), ys) - base) < 1e-12)
    checks.append(abs(spearman(5.0 * xs - 3.0, ys) - base) < 1e-12)

    _report(6, f"invariance suite ({sum(checks)}/{len(checks)} checks)", all(checks))


def test_criterion_7_linear_runtime_scaling():
    rng = np.random.default_rng(7)
    d = 300
    pairs_small = [
        (rng.standard_normal((12, d)), rng.standard_normal((12, d))) for _ in range(1000)
    ]
    pairs_large = [
        (rng.standard_normal((24, d)), rng.standard_normal((24, d))) for _ in range(1000)
    ]

    def clock(pairs):
        start = time.perf_counter()
        for a, b in pairs:
            pair_scores(DIAG, "aic", [a], [b])[0]
        return time.perf_counter() - start

    clock(pairs_small[:50])  # warm up
    t_small = t_large = float("inf")
    for _ in range(5):  # back to back, so a drift in host speed hits both sizes alike
        t_small = min(t_small, clock(pairs_small))
        t_large = min(t_large, clock(pairs_large))
    ratio = t_large / t_small
    _report(7, f"doubling words changes per-pair time by {ratio:.2f}x (<= 2.5)", ratio <= 2.5)


def test_criterion_8_external_sts_reproduction():
    sts_dir = os.environ.get("GROUPSIM_STS_DIR")
    emb_path = os.environ.get("GROUPSIM_EMBEDDINGS")
    if not sts_dir or not emb_path:
        print("criterion 8: SKIP - set GROUPSIM_STS_DIR and GROUPSIM_EMBEDDINGS to run")
        pytest.skip("external STS data not configured")
    paths = sorted(
        os.path.join(sts_dir, f) for f in os.listdir(sts_dir) if f.endswith(".tsv")
    )
    assert paths, f"no .tsv files under {sts_dir}"
    datasets = [load_pairs(p) for p in paths]
    store = load_embeddings(emb_path)
    options = EvalOptions()
    diag = evaluate("diag_aic", datasets, store, options).weighted_average
    mwv = evaluate("mwv", datasets, store, options).weighted_average
    ok = abs(diag - 0.6564) <= 0.02 and abs(mwv - 0.5784) <= 0.02
    _report(8, f"external reproduction (diag_aic {diag:.4f} ~ 0.6564, mwv {mwv:.4f} ~ 0.5784)", ok)


def test_criterion_9_penalty_curve_shape():
    vmf_rows = penalty_curve(VMF, 10, [1000], trials=20, seed=9)
    vmf_ok = vmf_rows[0].std_penalty < 0.10 * vmf_rows[0].mean_penalty

    gauss_rows = penalty_curve(DIAG, 10, [5, 20, 100, 1000, 10_000], trials=20, seed=10)
    means = [row.mean_penalty for row in gauss_rows]
    growing = all(b > a for a, b in zip(means, means[1:]))
    approaches = abs(means[-1] - 20.0) / 20.0 < 0.05
    ok = vmf_ok and growing and approaches
    _report(
        9,
        f"sphere-model penalty cv {vmf_rows[0].std_penalty / vmf_rows[0].mean_penalty:.2e} < 0.10; "
        f"gaussian means {['%.2f' % m for m in means]} grow to 2d",
        ok,
    )
