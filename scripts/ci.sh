#!/usr/bin/env bash
# Run the repository's checks in order and exit non-zero if any of them fails:
#   1. the Tier-1 test suite
#   2. the check battery on a3 at n = 4 against the GF(2) oracle
#   3. the check battery on a6 at n = 5
#   4. the golden DOT files, regenerated and compared with the committed ones
#
# Usage, from any directory:  scripts/ci.sh
set -u
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

failed=()
step() {
    echo "== $*"
    "$@" || failed+=("$*")
}

step python -m pytest -q --continue-on-collection-errors
step python -m cnproj check tests/fixtures/a3_relation.alg --n 4 --oracle gf2
step python -m cnproj check tests/fixtures/a6_relations.alg --n 5
step python scripts/regen_goldens.py
step git diff --exit-code tests/golden

if ((${#failed[@]})); then
    printf 'FAILED: %s\n' "${failed[@]}"
    exit 1
fi
echo "all steps passed"
