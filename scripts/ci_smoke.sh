#!/usr/bin/env bash
# Smoke run of the scripts and of each groupsim subcommand on tiny inputs.
# Usage: PYTHONPATH=src [RUNNER_TEMP=<scratch dir>] scripts/ci_smoke.sh
# Without RUNNER_TEMP the files go to a new mktemp directory, removed on exit.
set -euo pipefail
# overflow and invalid-value warnings are errors here too, as in the tier-1 tests
export PYTHONWARNINGS=error::RuntimeWarning

if [ -n "${RUNNER_TEMP:-}" ]; then
    tmp="$RUNNER_TEMP"
else
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
fi
python scripts/model_selection_demo.py --sentences 20 --dim 4
python scripts/penalty_curves.py --sizes 5,10 --trials 2 --out-dir "$tmp/pc"
python -m groupsim.cli penalty-curve --model diag --dim 3 --sizes 5,10 --trials 2
printf '. 0.1 0.2 0.3\ncat 0.5 -0.2 0.1\ndog -0.3 0.4 0.2\n' > "$tmp/lexicon.txt"
printf 'the cat sat\nzzz qqq\n' > "$tmp/corpus.txt"
python -m groupsim.cli modelsel --embeddings "$tmp/lexicon.txt" --normalize \
    --out "$tmp/modelsel.jsonl" "$tmp/corpus.txt" > /dev/null
# one finite row per candidate, best (lowest mean criterion) first
python - "$tmp/modelsel.jsonl" <<'EOF'
import json
import math
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    rows = [json.loads(line) for line in handle]
candidates = sorted((row["model"], row["ic"]) for row in rows)
expected = [("diag", "aic"), ("spherical", "aic"), ("vmf", "aic"), ("vmf", "tic")]
if candidates != expected:
    sys.exit(f"expected one modelsel row for each of {expected}, got {candidates}")
values = [row["mean_ic"] for row in rows]
if not all(math.isfinite(v) for v in values) or values != sorted(values):
    sys.exit(f"modelsel mean_ic must be finite and ascending, got {values}")
EOF
python -m groupsim.cli score --embeddings "$tmp/lexicon.txt" --method mwv "the cat" "zzz qqq"
# every method through score_pair end to end: a finite value, and for each model method finite
# breakdown terms and a fallback line (a baseline prints no breakdown)
for method in $(python -c 'from groupsim.evaluation import SUPPORTED_METHODS; print(*SUPPORTED_METHODS)'); do
    python -m groupsim.cli score --embeddings "$tmp/lexicon.txt" --method "$method" --verbose \
        "the cat" "cat dog" > "$tmp/score-$method.txt"
    python - "$tmp/score-$method.txt" "$method" <<'EOF'
import math
import sys

from groupsim.evaluation import MODEL_METHODS

path, method = sys.argv[1:]
with open(path, encoding="utf-8") as handle:
    lines = handle.read().splitlines()
name, value = lines[0].split("\t")
if name != method or not math.isfinite(float(value)):
    sys.exit(f"expected a finite {method} score, got {lines[0]!r}")
fields = dict(line.strip().split(" = ") for line in lines[1:])
if method not in MODEL_METHODS:
    if fields:
        sys.exit(f"{method} is a baseline and prints no breakdown, got {fields}")
    sys.exit(0)
keys = ("loglik_joint", "loglik_1", "loglik_2", "penalty_joint", "penalty_1", "penalty_2", "alpha")
if not all(key in fields and math.isfinite(float(fields[key])) for key in keys):
    sys.exit(f"expected finite {method} breakdown terms, got {fields}")
if fields.get("fallback") not in ("True", "False"):
    sys.exit(f"expected a {method} fallback line, got {fields}")
EOF
done
# the vMF "tic" penalty end to end: a finite score, three finite penalties and no fallback
python -m groupsim.cli score --embeddings "$tmp/lexicon.txt" --normalize --method vmf_tic \
    --verbose "the cat" "cat dog" > "$tmp/vmf_tic.txt"
python - "$tmp/vmf_tic.txt" <<'EOF'
import math
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    lines = handle.read().splitlines()
method, value = lines[0].split("\t")
fields = dict(line.strip().split(" = ") for line in lines[1:])
penalties = [float(fields[f"penalty_{part}"]) for part in ("joint", "1", "2")]
if method != "vmf_tic" or not math.isfinite(float(value)):
    sys.exit(f"expected a finite vmf_tic score, got {lines[0]!r}")
if not all(math.isfinite(p) for p in penalties) or fields["fallback"] != "False":
    sys.exit(f"expected finite vmf penalties and no fallback, got {fields}")
EOF
# a UTF-8 byte-order mark and a count/dimension header in front of the lexicon change nothing
{ printf '\xef\xbb\xbf3 3\n'; cat "$tmp/lexicon.txt"; } > "$tmp/lexicon-bom.txt"
score_with() {
    python -m groupsim.cli score --embeddings "$1" --pad-token . --method mwv "the cat" "zzz qqq"
}
plain="$(score_with "$tmp/lexicon.txt")"
marked="$(score_with "$tmp/lexicon-bom.txt")"
if [ "$plain" != "$marked" ]; then
    echo "lexicon with a byte-order mark scored '$marked', the plain one '$plain'" >&2
    exit 1
fi
# nor does one in front of a --config file, a pairs file or a corpus; the pairs file and
# the corpus start with a blank line, which a kept mark would make a bad pair or a sentence
mkdir -p "$tmp/plain" "$tmp/marked"
printf '{"embeddings": "%s", "method": "mwv"}\n' "$tmp/lexicon.txt" > "$tmp/plain/config.json"
printf '\nthe cat\tcat dog\t4.0\ncat\tdog\t2.0\ndog dog\tthe cat\t1.0\n' > "$tmp/plain/pairs.tsv"
printf '\nthe cat sat\nzzz qqq\n' > "$tmp/plain/corpus.txt"
for name in config.json pairs.tsv corpus.txt; do
    { printf '\xef\xbb\xbf'; cat "$tmp/plain/$name"; } > "$tmp/marked/$name"
done
with_config() {
    python -m groupsim.cli eval --config "$tmp/$1/config.json" "$tmp/plain/pairs.tsv"
}
with_pairs() {
    python -m groupsim.cli eval --embeddings "$tmp/lexicon.txt" --method mwv \
        --out "$tmp/$1/eval.jsonl" "$tmp/$1/pairs.tsv" && cat "$tmp/$1/eval.jsonl"
}
with_corpus() {
    python -m groupsim.cli modelsel --embeddings "$tmp/lexicon.txt" --normalize \
        --out "$tmp/$1/modelsel.jsonl" "$tmp/$1/corpus.txt" && cat "$tmp/$1/modelsel.jsonl"
}
for run in with_config with_pairs with_corpus; do
    # both output streams and the exit status, of the plain input and of its marked twin
    plain="$("$run" plain 2>&1; echo "exit $?")"
    marked="$("$run" marked 2>&1; echo "exit $?")"
    if [ "${plain##*$'\n'}" != "exit 0" ] || [ "$plain" != "$marked" ]; then
        echo "$run: the marked input gave '$marked', the plain one '$plain'" >&2
        exit 1
    fi
done
printf 'the cat\tcat dog\t4.0\ncat\tdog\t2.0\ndog dog\tthe cat\t1.0\n' > "$tmp/pairs.tsv"
printf 'Dog, the CAT!\tzzz qqq\t0.5\nthe cat sat\tcat\t3.0\ndog\tdog cat\t2.5\n' > "$tmp/pairs2.tsv"
# each pair set is gathered once and its statistics taken once per model for every method: the
# table and the report of --method all ($1.txt and $1.jsonl) are, byte for byte, the ten
# one-method ones end to end in SUPPORTED_METHODS order, given the same eval arguments ($2 ...)
check_all_is_each() {
    local all="$1"
    shift
    : > "$all-each.txt"
    : > "$all-each.jsonl"
    for method in $(python -c 'from groupsim.evaluation import SUPPORTED_METHODS; print(*SUPPORTED_METHODS)'); do
        python -m groupsim.cli eval --method "$method" --out "$all-$method.jsonl" "$@" \
            >> "$all-each.txt"
        cat "$all-$method.jsonl" >> "$all-each.jsonl"
    done
    for kind in txt jsonl; do
        if ! cmp -s "$all.$kind" "$all-each.$kind"; then
            echo "eval --method all $*: its $kind is not the ten one-method ones end to end" >&2
            diff "$all.$kind" "$all-each.$kind" >&2 || true
            exit 1
        fi
    done
}
# every method with scipy made unimportable: at d = 3 each bag has n + 1 >= d rows, so the
# Bayes factor takes the d x d side of the Normal-Wishart evidence, on numpy alone
python -c 'import sys; sys.modules["scipy"] = None; from groupsim.cli import main; sys.exit(main(sys.argv[1:]))' \
    eval --embeddings "$tmp/lexicon.txt" --method all --out "$tmp/eval.jsonl" \
    "$tmp/pairs.tsv" "$tmp/pairs2.tsv" > "$tmp/eval.txt"
check_all_is_each "$tmp/eval" --embeddings "$tmp/lexicon.txt" "$tmp/pairs.tsv" "$tmp/pairs2.tsv"
# the report holds one summary row per supported method
python - "$tmp/eval.jsonl" <<'EOF'
import json
import sys

from groupsim.evaluation import SUPPORTED_METHODS

with open(sys.argv[1], encoding="utf-8") as handle:
    rows = [json.loads(line) for line in handle]
summary = [row["method"] for row in rows if "weighted_average" in row]
if sorted(summary) != sorted(SUPPORTED_METHODS):
    sys.exit(f"expected one summary row for each of {len(SUPPORTED_METHODS)} methods, got {summary}")
EOF

# the Bayes factor at d = 8, where every bag has n + 1 < d rows (a bag is its tokens plus the
# pad row): the pairs repeat sentence lengths, so each stack of equal-size bags holds two or more
cat > "$tmp/lexicon8.txt" <<'EOF'
. 0.1 0.2 0.3 -0.1 0.05 0.4 -0.2 0.15
the 0.5 -0.2 0.1 0.3 -0.4 0.2 0.1 0.05
cat -0.3 0.4 0.2 0.1 0.6 -0.1 0.3 -0.2
dog 0.2 0.1 -0.5 0.4 0.1 0.3 -0.3 0.6
sat -0.1 -0.3 0.4 0.2 0.2 -0.5 0.4 0.1
EOF
printf '%s\t%s\t%s\n' 'the cat' 'cat dog' 4.0 'cat sat' 'dog the' 3.0 the dog 1.0 sat cat 2.0 \
    dog 'the cat' 2.5 'cat dog' sat 3.5 > "$tmp/pairs8.tsv"
python -m groupsim.cli eval --embeddings "$tmp/lexicon8.txt" --method bayes_factor \
    --out "$tmp/eval8.jsonl" "$tmp/pairs8.tsv" > /dev/null
python -m groupsim.cli eval --embeddings "$tmp/lexicon8.txt" --method all \
    --out "$tmp/eval8-all.jsonl" "$tmp/pairs8.tsv" > "$tmp/eval8-all.txt"
check_all_is_each "$tmp/eval8-all" --embeddings "$tmp/lexicon8.txt" "$tmp/pairs8.tsv"
python - "$tmp/eval8.jsonl" <<'EOF'
import json
import math
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    rows = [json.loads(line) for line in handle]
summary = [row for row in rows if "weighted_average" in row]
if len(summary) != 1 or summary[0]["method"] != "bayes_factor":
    sys.exit(f"expected one bayes_factor summary row, got {summary}")
if not math.isfinite(summary[0]["weighted_average"]):
    sys.exit(f"bayes_factor weighted_average must be finite, got {summary[0]}")
EOF

# vmf_tic at d = 129, odd and above 98, so log C_d comes from the Debye sum: a seeded unit
# lexicon and pairs, one with a fully out-of-vocabulary sentence, whose double-padded bag is
# clamped and whose "tic" penalty falls back to the parameter count
python - "$tmp" <<'EOF'
import sys

import numpy as np

rng = np.random.default_rng(129)
words = [f"w{i}" for i in range(40)]
rows = rng.standard_normal((len(words) + 1, 129))
rows /= np.linalg.norm(rows, axis=1, keepdims=True)
with open(f"{sys.argv[1]}/lexicon129.txt", "w", encoding="utf-8") as handle:
    for token, row in zip(["."] + words, rows):
        handle.write(" ".join([token] + [repr(float(v)) for v in row]) + "\n")
with open(f"{sys.argv[1]}/pairs129.tsv", "w", encoding="utf-8") as handle:
    for p in range(12):
        a, b = (" ".join(rng.choice(words, size=int(rng.integers(2, 6)))) for _ in range(2))
        handle.write(f"{'zzz qqq' if p == 5 else a}\t{b}\t{rng.uniform(0.0, 5.0)!r}\n")
EOF
python -m groupsim.cli eval --embeddings "$tmp/lexicon129.txt" --method vmf_tic \
    --out "$tmp/eval129.jsonl" "$tmp/pairs129.tsv" > /dev/null
python - "$tmp/eval129.jsonl" <<'EOF'
import json
import math
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    rows = [json.loads(line) for line in handle]
summary = [row for row in rows if "weighted_average" in row]
if len(summary) != 1 or summary[0]["method"] != "vmf_tic":
    sys.exit(f"expected one vmf_tic summary row, got {summary}")
row = summary[0]
if row["weighted_average"] is None or not math.isfinite(row["weighted_average"]):
    sys.exit(f"vmf_tic at d = 129 must give a finite rho, got {row}")
if row["fallback_pairs"] < 1 or row["degenerate_fits"] < 1:
    sys.exit(f"the double-padded pair must be a fallback with a clamped fit, got {row}")
EOF
# both vMF methods at d = 129 count the same fallbacks and clamped fits whether the lexicon is
# unit-normalised on load or only when a dataset is scored; and a block of bags with one
# non-unit row, scored as one block, is refused by name
for method in vmf_tic vmf_aic; do
    for normalize in "" --normalize; do
        python -m groupsim.cli eval --embeddings "$tmp/lexicon129.txt" $normalize --method "$method" \
            --out "$tmp/eval129-$method$normalize.jsonl" "$tmp/pairs129.tsv" > /dev/null
    done
done
# and every method at once at d = 129, where there are vMF fallbacks and clamped fits, with and
# without --normalize
for normalize in "" --normalize; do
    python -m groupsim.cli eval --embeddings "$tmp/lexicon129.txt" $normalize --method all \
        --out "$tmp/eval129-all$normalize.jsonl" "$tmp/pairs129.tsv" > "$tmp/eval129-all$normalize.txt"
    check_all_is_each "$tmp/eval129-all$normalize" --embeddings "$tmp/lexicon129.txt" $normalize \
        "$tmp/pairs129.tsv"
done
python - "$tmp" <<'EOF'
import json
import sys

import numpy as np

from groupsim import comparison
from groupsim.embeddings import SentenceBlock


def counts(name):
    with open(f"{sys.argv[1]}/{name}.jsonl", encoding="utf-8") as handle:
        row = [json.loads(line) for line in handle][-1]
    return row["fallback_pairs"], row["degenerate_fits"]


for method in ("vmf_tic", "vmf_aic"):
    plain, normalized = counts(f"eval129-{method}"), counts(f"eval129-{method}--normalize")
    if plain != normalized:
        sys.exit(f"{method} at d = 129: (fallback_pairs, degenerate_fits) {plain} without "
                 f"--normalize, {normalized} with it")
rows = np.random.default_rng(129).standard_normal((10, 129))
rows /= np.linalg.norm(rows, axis=1, keepdims=True)
rows[6] *= 1.001  # in the first bag of the second block
sizes = np.array([2, 3], dtype=np.intp)
first, second = (SentenceBlock(half, sizes, ([], []), (0, 0)) for half in (rows[:5], rows[5:]))
try:
    comparison.pair_scores("vmf", "aic", first, second)
except ValueError as exc:
    if "unit-norm" not in str(exc):
        sys.exit(f"a block with a non-unit row raised {exc!r}, which does not name unit-norm")
else:
    sys.exit("a block with a non-unit row was scored")
EOF

# a flag the subcommand does not read is a usage error (exit status exactly 2)
expect_usage_error() {
    local status=0
    python -m groupsim.cli "$@" > /dev/null 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
        echo "expected exit status 2, got $status: groupsim $*" >&2
        exit 1
    fi
}
expect_usage_error score --embeddings "$tmp/lexicon.txt" --out "$tmp/x" cat dog
expect_usage_error penalty-curve --embeddings x --sizes 5 --trials 1

# a lexicon of 2,100 rows spans three 1,024-line chunks; its row 2,050, in the third, is read
# by Python's float when written 1_000, and a ragged row 2,050 fails naming its line (exit 1)
python - "$tmp" <<'EOF'
import sys

for name, row in (("plain", "1000 0.5 -0.25"), ("underscore", "1_000 0.5 -0.25"),
                  ("ragged", "0.5 -0.25")):
    with open(f"{sys.argv[1]}/chunks-{name}.txt", "w", encoding="utf-8") as handle:
        for i in range(1, 2101):
            values = row if i == 2050 else f"{i % 7 - 3} {i % 5 + 0.5} {i % 3 - 0.75}"
            handle.write(f"w{i} {values}\n")
EOF
score_chunks() {
    python -m groupsim.cli score --embeddings "$tmp/chunks-$1.txt" --method mwv "w2050 w7" "w12 w2050"
}
plain="$(score_chunks plain)"
underscore="$(score_chunks underscore)"
if [ "$plain" != "$underscore" ]; then
    echo "row 2,050 written 1_000 scored '$underscore', written 1000 '$plain'" >&2
    exit 1
fi
status=0
score_chunks ragged > /dev/null 2> "$tmp/ragged.err" || status=$?
if [ "$status" -ne 1 ] || ! grep -q ":2050: expected 3 components, found 2" "$tmp/ragged.err"; then
    echo "a ragged row 2,050 gave exit status $status and: $(cat "$tmp/ragged.err")" >&2
    exit 1
fi
# a lexicon above the loader's split size is parsed by two processes: eval --method all on it
# raises no overflow or deprecation warning (Python 3.12 warns on a fork in a process with
# threads), and its store is, vocabulary and matrix bytes, the one-range load's
python - "$tmp" <<'EOF'
import sys

import numpy as np

rng = np.random.default_rng(33)
words = ["."] + [f"w{i}" for i in range(2999)]
rows = rng.standard_normal((len(words), 100))
with open(f"{sys.argv[1]}/lexicon-split.txt", "w", encoding="utf-8") as handle:
    handle.write(f"{len(words)} 100\n")
    for i, (token, row) in enumerate(zip(words, rows)):
        token = "w7" if i == 2900 else token  # a first-half token again, in the second half
        handle.write(" ".join([token] + [f"{v:.6f}" for v in row]) + ("\r\n" if i % 3 else "\n"))
with open(f"{sys.argv[1]}/pairs-split.tsv", "w", encoding="utf-8") as handle:
    for p in range(20):
        a, b = (" ".join(rng.choice(words[1:], size=int(rng.integers(2, 6)))) for _ in range(2))
        handle.write(f"{a}\t{b}\t{rng.uniform(0.0, 5.0)!r}\n")
EOF
export PYTHONWARNINGS=error::RuntimeWarning,error::DeprecationWarning
python -m groupsim.cli eval --embeddings "$tmp/lexicon-split.txt" --method all \
    --out "$tmp/eval-split.jsonl" "$tmp/pairs-split.tsv" > /dev/null
python - "$tmp/lexicon-split.txt" <<'EOF'
import os
import sys

from groupsim import embeddings

path, split_bytes = sys.argv[1], embeddings._SPLIT_BYTES
if os.path.getsize(path) < split_bytes:
    sys.exit(f"{path} is below the split size, {split_bytes} bytes")
for normalize in (False, True):
    embeddings._SPLIT_BYTES = split_bytes
    split = embeddings.load_embeddings(path, normalize=normalize)
    embeddings._SPLIT_BYTES = float("inf")
    whole = embeddings.load_embeddings(path, normalize=normalize)
    if (list(split.vocab), split.matrix.tobytes(), split.duplicate_count) != (
            list(whole.vocab), whole.matrix.tobytes(), whole.duplicate_count):
        sys.exit(f"normalize={normalize}: the split load's store is not the one-range load's")
    if split.duplicate_count != 1:
        sys.exit(f"expected one duplicate token, got {split.duplicate_count}")
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    pass
else:
    sys.exit("a child process was left after the loads")
EOF
# a bad line in either half of that lexicon fails groupsim score (exit 1), named by its line in
# the whole file: line 1,000 is short, in the first half; line 2,800 holds a nan, in the second
python - "$tmp" <<'EOF'
import sys

with open(f"{sys.argv[1]}/lexicon-split.txt", encoding="utf-8", newline="") as handle:
    lines = handle.readlines()
for half, line in (("first", 1000), ("second", 2800)):
    fields = lines[line - 1].split()
    fields = fields[:-1] if half == "first" else fields[:1] + ["nan"] + fields[2:]
    with open(f"{sys.argv[1]}/lexicon-bad-{half}.txt", "w", encoding="utf-8", newline="") as handle:
        handle.writelines(lines[:line - 1] + [" ".join(fields) + "\n"] + lines[line:])
EOF
for bad in "first:1000: expected 100 components, found 99" "second:2800: non-finite component"; do
    half="${bad%%:*}"
    status=0
    python -m groupsim.cli score --embeddings "$tmp/lexicon-bad-$half.txt" --method mwv "w7 w8" "w9" \
        > /dev/null 2> "$tmp/bad-$half.err" || status=$?
    if [ "$status" -ne 1 ] || ! grep -q "lexicon-bad-$half.txt:${bad#*:}" "$tmp/bad-$half.err"; then
        echo "a bad line in the $half half gave exit status $status and: $(cat "$tmp/bad-$half.err")" >&2
        exit 1
    fi
done
export PYTHONWARNINGS=error::RuntimeWarning
# a value finite as float64 but beyond float32's range (line 3) fails naming its line (exit 1),
# with no overflow warning first
printf '. 0.1 0.2 0.3\ncat 0.5 -0.2 0.1\nbig 1e39 0.5 0.25\n' > "$tmp/lexicon-big.txt"
status=0
python -m groupsim.cli score --embeddings "$tmp/lexicon-big.txt" --method mwv "the cat" "big" \
    > /dev/null 2> "$tmp/big.err" || status=$?
if [ "$status" -ne 1 ] || ! grep -q "lexicon-big.txt:3: component beyond float32's range" "$tmp/big.err"; then
    echo "a lexicon value of 1e39 gave exit status $status and: $(cat "$tmp/big.err")" >&2
    exit 1
fi

# the README's library quick start (its first python block) runs as written, in a directory
# whose vectors.txt is the smoke lexicon
cp "$tmp/lexicon.txt" "$tmp/vectors.txt"
python - README.md "$tmp/quickstart.py" <<'EOF'
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    text = handle.read()
section = text[text.index("## Library quick start"):]
start = section.index("```python\n") + len("```python\n")
with open(sys.argv[2], "w", encoding="utf-8") as handle:
    handle.write(section[start:section.index("```", start)])
EOF
src="$(cd src && pwd)"
(cd "$tmp" && PYTHONPATH="$src${PYTHONPATH:+:$PYTHONPATH}" python quickstart.py)
