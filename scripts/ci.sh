#!/usr/bin/env bash
# Run the repository's checks in order and exit non-zero if any of them fails:
#   1. the Tier-1 test suite
#   2. the check battery on a3 at n = 4 against the GF(2) oracle
#   3. the check battery on a6 at n = 5
#   4. the check battery on d4 at n = 3 against the GF(2) oracle
#   5. the check battery on a4_abc (a length-3 relation) at n = 3 against the
#      GF(2) oracle
#   6. the check battery on e6 (a branching quiver, 104 classes) at n = 4
#   7. the check battery on d8 (the fixture with the most classes) at n = 4,
#      whose "split closure adds nothing" entry catches a lost class
#   8. sgldim on e7 (s.gl.dim 3, m0 5)
#   9. the golden DOT files, regenerated and compared with the committed ones
#  10. one short perfbench run per workload of BENCHMARK.json, which must answer
#      correctly (DOT sha256, sgldim table) with no failed sample, then one
#      traced run (--trace 1) of the same workload with the same requirement:
#      its two traced samples must agree on every count and every per-layer
#      metric of BENCHMARK.json must resolve to a traced function; then one
#      more untraced run at --seed 1, whose relabelled vertex ids put the
#      per-vertex blocks of phi (the trivial-path coefficients that the
#      indecomposability and isomorphism tests read) in another order
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

# the last line of a perfbench run, untraced and traced at seed 0 and untraced
# at seed 1, must read "correct": true and "failed": 0
perfbench_ok() {
    local out run
    for run in "--trace 0" "--trace 1" "--trace 0 --seed 1"; do
        # shellcheck disable=SC2086  # $run is split into its options on purpose
        out=$(python3 perfbench/run.py --workload "$1" --seconds 1 $run) || return 1
        python3 -c 'import json, sys; r = json.loads(sys.argv[1])
sys.exit(not (r["correct"] is True and r["failed"] == 0))' "${out##*$'\n'}" || return 1
    done
}

step python -m pytest -q --continue-on-collection-errors
step python -m cnproj check tests/fixtures/a3_relation.alg --n 4 --oracle gf2
step python -m cnproj check tests/fixtures/a6_relations.alg --n 5
step python -m cnproj check tests/fixtures/d4.alg --n 3 --oracle gf2
step python -m cnproj check tests/fixtures/a4_abc.alg --n 3 --oracle gf2
step python -m cnproj check tests/fixtures/e6.alg --n 4
step python -m cnproj check tests/fixtures/d8_linear.alg --n 4
step python -m cnproj sgldim tests/fixtures/e7.alg
step python scripts/regen_goldens.py
step git diff --exit-code tests/golden
for workload in $(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    step perfbench_ok "$workload"
done

if ((${#failed[@]})); then
    printf 'FAILED: %s\n' "${failed[@]}"
    exit 1
fi
echo "all steps passed"
