#!/usr/bin/env bash
# Smoke run of the scripts and of each groupsim subcommand on tiny inputs.
# Usage: PYTHONPATH=src [RUNNER_TEMP=<scratch dir>] scripts/ci_smoke.sh
# Without RUNNER_TEMP the files go to a new mktemp directory, removed on exit.
set -euo pipefail

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
# every method with scipy made unimportable: at d = 3 each bag has n + 1 >= d rows, so the
# Bayes factor takes the d x d side of the Normal-Wishart evidence, on numpy alone
python -c 'import sys; sys.modules["scipy"] = None; from groupsim.cli import main; sys.exit(main(sys.argv[1:]))' \
    eval --embeddings "$tmp/lexicon.txt" --method all --out "$tmp/eval.jsonl" "$tmp/pairs.tsv" \
    > /dev/null
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
