"""What importing and running groupsim loads: no scipy module, on either side
of the Normal-Wishart evidence (n + 1 < d and n + 1 >= d), and nothing fails
when scipy cannot be imported at all.

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


def write_inputs(tmp_path, d: int, seed: int, pairs: str):
    """A lexicon of d-dimensional random vectors and a pairs file over it."""
    rng = np.random.default_rng(seed)
    words = [".", "the", "cat", "dog", "sat", "mat", "on"]
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("".join(f"{w} {' '.join(f'{v:.6f}' for v in rng.standard_normal(d))}\n"
                               for w in words))
    pair_file = tmp_path / "pairs.tsv"
    pair_file.write_text(pairs)
    return str(vectors), str(pair_file)


def test_import_loads_no_scipy():
    assert run_fresh("import groupsim, groupsim.cli\n" + REPORT_SCIPY) == []


def test_every_method_on_short_bags_loads_no_scipy(tmp_path):
    # d = 12, and every bag (joint bags included) holds at most 6 rows, so n + 1 < d
    inputs = write_inputs(tmp_path, 12, 3, "the cat\tcat dog\t4.0\ncat\tdog\t2.0\n"
                          "dog dog\tthe cat\t1.0\nsat on\tthe mat\t3.0\nmat\tzzz\t0.5\n")
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
    """, *inputs)
    from groupsim.evaluation import SUPPORTED_METHODS

    assert rhos == sorted(SUPPORTED_METHODS)


def test_every_method_on_tall_bags_runs_with_scipy_blocked(tmp_path):
    # d = 4, and every bag holds at least 3 rows (two tokens and the pad row), so n + 1 >= d
    inputs = write_inputs(tmp_path, 4, 5, "the cat\tcat dog sat\t4.0\ncat sat\tdog on\t2.0\n"
                          "dog dog\tthe cat mat\t1.0\nsat on\tthe mat\t3.0\n"
                          "mat on the\tcat dog\t0.5\n")
    stack = np.random.default_rng(5).standard_normal((3, 6, 4)) + 3.0
    rhos, values = run_fresh("""
        import sys
        sys.modules["scipy"] = None  # from here on, importing scipy raises ImportError
        import json, math
        import numpy as np
        from groupsim.comparison import default_prior, nw_log_evidence
        from groupsim.embeddings import load_embeddings
        from groupsim.evaluation import SUPPORTED_METHODS, evaluate, load_pairs

        store = load_embeddings(sys.argv[1])
        datasets = [load_pairs(sys.argv[2])]
        rhos = {m: evaluate(m, datasets, store).rows[0].spearman for m in SUPPORTED_METHODS}
        assert all(math.isfinite(r) for r in rhos.values()), rhos
        values = nw_log_evidence(np.array(json.loads(sys.argv[3])), default_prior(4))
        print(json.dumps([sorted(rhos), values.tolist()]))
    """, *inputs, json.dumps(stack.tolist()))
    from groupsim.comparison import default_prior
    from groupsim.evaluation import SUPPORTED_METHODS

    assert rhos == sorted(SUPPORTED_METHODS)
    assert values == pytest.approx([nw_log_evidence_dense(x, default_prior(4)) for x in stack],
                                   rel=1e-12)
