"""What importing and running groupsim loads: no scipy module, except
``scipy.linalg`` for the Normal-Wishart evidence of a bag with n + 1 >= d.

Each check runs in a fresh interpreter with only ``src`` on the import path,
so modules that the test suite itself has imported do not count.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from helpers import nw_log_evidence_dense

SRC = Path(__file__).resolve().parent.parent / "src"

REPORT_SCIPY = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def run_fresh(code: str, *args: str) -> list:
    """Run ``code`` in a new interpreter and return the JSON of its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert run_fresh("import groupsim, groupsim.cli\n" + REPORT_SCIPY) == []


def test_every_method_on_short_bags_loads_no_scipy(tmp_path):
    # d = 12, and every bag (joint bags included) holds at most 6 rows, so n + 1 < d
    rng = np.random.default_rng(3)
    words = [".", "the", "cat", "dog", "sat", "mat", "on"]
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("".join(f"{w} {' '.join(f'{v:.6f}' for v in rng.standard_normal(12))}\n"
                               for w in words))
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("the cat\tcat dog\t4.0\ncat\tdog\t2.0\ndog dog\tthe cat\t1.0\n"
                     "sat on\tthe mat\t3.0\nmat\tzzz\t0.5\n")
    rhos = run_fresh("""
        import json, math, sys
        from groupsim.embeddings import load_embeddings
        from groupsim.evaluation import SUPPORTED_METHODS, evaluate, load_pairs

        store = load_embeddings(sys.argv[1])
        datasets = [load_pairs(sys.argv[2])]
        rhos = {m: evaluate(m, datasets, store).rows[0].spearman for m in SUPPORTED_METHODS}
        assert all(math.isfinite(r) for r in rhos.values()), rhos
        assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        print(json.dumps(sorted(rhos)))
    """, str(vectors), str(pairs))
    from groupsim.evaluation import SUPPORTED_METHODS

    assert rhos == sorted(SUPPORTED_METHODS)


def test_tall_bag_scores_and_loads_scipy_linalg_on_demand():
    x = np.random.default_rng(5).standard_normal((6, 4)) + 3.0  # n + 1 >= d
    got = run_fresh(f"""
        import json, sys
        import numpy as np
        from groupsim.comparison import default_prior, nw_log_evidence

        before = "scipy.linalg" in sys.modules
        value = nw_log_evidence(np.array({x.tolist()!r}), default_prior(4))
        print(json.dumps([before, "scipy.linalg" in sys.modules, value]))
    """)
    from groupsim.comparison import default_prior

    before, after, value = got
    assert (before, after) == (False, True)
    assert value == pytest.approx(nw_log_evidence_dense(x, default_prior(4)), rel=1e-12)
