#!/usr/bin/env bash
# Checks the deterministic work counters of a benchmark smoke run.
#
# The evaluations, PV-DVS iterations, branch-and-bound prunes and best
# powers of the `--seconds 1 --trace 1` run depend neither on timing nor
# on the machine, so they gate on any runner: a difference means the
# search itself changed (a GA trajectory, a PV-DVS result, a pruning
# decision). A change that moves them on purpose updates them here.
#
# Usage: scripts/bench_counters.sh DIR
#
# where DIR is the output directory of
#   cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
#     --seconds 1 --trace 1 --out DIR

set -euo pipefail

DIR="${1:?usage: scripts/bench_counters.sh DIR}"

python3 - "$DIR" <<'PY'
import json
import os
import sys

EXPECTED = {
    "phone-dvs": {
        # 437956 while the genome cache existed: its hits skipped
        # re-pricing those genomes, and so their PV-DVS iterations.
        # 438225 until the memetic polish priced each single-gene move
        # against its current solution: the modes a move leaves
        # unchanged keep their voltage schedules and skip PV-DVS.
        # 383047 until each GA offspring was priced against the
        # population it was bred from: a mode whose gene slice and core
        # counts equal a parent's reuses the parent's Eq. 1 term and
        # skips PV-DVS.
        "dvs.iterations": 160343,
        "ga.evaluations": 3371,
        "ga.best_power_mw": 10.314120944510918,
    },
    "suite-fixed": {
        "dvs.iterations": 0,
        "ga.evaluations": 65870,
        "ga.bnb.pruned_by_bound": 134649,
        "ga.best_power_mw": 49.504864593634096,
        "ga.bnb.certified_gap": 5.133048750886282,
    },
    "many-modes": {
        "dvs.iterations": 0,
        "ga.evaluations": 4566,
        "ga.best_power_mw": 87.26288437106723,
    },
    "serve-small": {
        "dvs.iterations": 0,
        "ga.evaluations": 3041,
        "ga.best_power_mw": 61.66490319880358,
    },
}

failed = 0
for workload, counters in EXPECTED.items():
    path = os.path.join(sys.argv[1], f"{workload}.layers.json")
    metrics = json.load(open(path))["metrics"]
    for name, want in counters.items():
        got = metrics[name]["value"]
        ok = got == want
        failed += not ok
        print(f"{'ok' if ok else 'MISMATCH'}: {workload} {name} = {got!r}"
              + ("" if ok else f", expected {want!r}"))
if failed:
    sys.exit(f"error: {failed} work counter(s) differ from the expected values")
PY
