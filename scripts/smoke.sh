#!/usr/bin/env bash
# End-to-end smoke test of the `momsynth` binary.
#
# Builds the CLI once, then drives it through seven scenarios, each in its
# own directory under OUT_DIR (default `smoke-out`):
#
#   check      synth a solution report and re-verify it with `check`
#   analyze    static bounds on three systems; an infeasible spec must exit 2
#              and `info` must count its error; a cyclic spec and three
#              physically meaningless ones (a negative data volume, link
#              time per data unit and link transfer power) must fail to
#              load in `info`, `analyze` and `synth` (exit 1 with the
#              builder's reason, no panic)
#   telemetry  trace and run-summary outputs of `synth`: the trace's spans
#              (the run root and phase paths) are its only timing record,
#              and the run summary carries no phase timings
#   threads    one synth at 1, 2 and 3 threads, once at fixed voltage and
#              once with --dvs: identical results and counters, and the DVS
#              runs count PV-DVS iterations
#   serve      SIGKILL the job server mid-synthesis, restart, both jobs verified
#   metrics    metrics over the protocol and HTTP, journalled snapshots, profiler
#   prove      certificates for the smartphone, under an evaluation and under a
#              wall-clock budget (no evaluation cap: `max_evals` is null), and
#              for the redundant-GPP fixture
#
# Stops at the first failed command or assertion. Needs python3 and curl.
#
# Usage: scripts/smoke.sh [OUT_DIR]

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
OUT="$(mkdir -p "${1:-smoke-out}" && cd "${1:-smoke-out}" && pwd)"
MOMSYNTH="${CARGO_TARGET_DIR:-$ROOT/target}/release/momsynth"

SERVER_PID=""
stop_server() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -9 "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  SERVER_PID=""
}
trap stop_server EXIT

momsynth() { "$MOMSYNTH" "$@"; }

# Starts a job server in the background and waits until it answers. It
# runs the binary itself, not the `momsynth` function: `$!` must be the
# server's own PID, or the SIGKILL below would only hit a subshell.
start_server() {
  "$MOMSYNTH" serve "$@" &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    momsynth job ping --socket momsynth.sock >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "error: the job server did not come up" >&2
  return 1
}

# Enters a fresh scenario directory.
scenario() {
  echo "== $1"
  rm -rf "${OUT:?}/$1"
  mkdir -p "$OUT/$1"
  cd "$OUT/$1"
}

check_scenario() {
  scenario check
  momsynth synth "$OUT/smartphone.json" --quick --dvs --seed 1 --quiet \
    -o solution.json --metrics-out metrics.json
  python3 - <<'PY'
import json

metrics = json.load(open("metrics.json"))
assert "optimality_gap" in metrics, sorted(metrics)
assert metrics["optimality_gap"] >= 0.0, metrics["optimality_gap"]
assert metrics["power_lower_bound_mw"] > 0.0, metrics
assert metrics["average_power_mw"] >= metrics["power_lower_bound_mw"], metrics
print(f"ok: optimality gap {metrics['optimality_gap'] * 100:.1f}% over"
      f" p_LB = {metrics['power_lower_bound_mw']:.4f} mW")
PY
  momsynth check "$OUT/smartphone.json" solution.json --report-out check_report.json
  python3 - <<'PY'
import json

report = json.load(open("check_report.json"))
assert report["clean"] is True, report
assert report["violation_count"] == 0, report
assert report["violations"] == [], report
print("ok: solution re-verified with zero violations")
PY
}

analyze_scenario() {
  scenario analyze
  # `analyze` exits 0 when no Error-severity finding is proven.
  for name in smartphone automotive mul3; do
    momsynth analyze "$OUT/$name.json" --report-out "analysis_$name.json"
  done
  python3 - "$OUT/smartphone.json" <<'PY'
import json
import sys

spec = json.load(open(sys.argv[1]))
# A deadline below the task's critical-path floor is provably
# unschedulable; the analyzer must reject it before synthesis.
spec["omsm"]["modes"][0]["graph"]["tasks"][0]["deadline"] = 1e-9
json.dump(spec, open("broken.json", "w"))

# A comm that reverses an existing one closes a dependency cycle: the
# task-graph builder refuses the spec before anything else sees it.
spec = json.load(open(sys.argv[1]))
comms = spec["omsm"]["modes"][0]["graph"]["comms"]
comms.append({"src": comms[0]["dst"], "dst": comms[0]["src"], "data_units": 1.0})
json.dump(spec, open("cyclic.json", "w"))
PY
  python3 - "$OUT/mul3.json" <<'PY'
import json
import sys

# Negative numbers the builders refuse: a data volume, a link's time per
# data unit and its transfer power.
edits = {
    "negative_volume": lambda s: s["omsm"]["modes"][0]["graph"]["comms"][0].update(data_units=-1e6),
    "negative_link_time": lambda s: s["arch"]["cls"][0].update(time_per_data_unit=-1e-3),
    "negative_link_power": lambda s: s["arch"]["cls"][0].update(transfer_power=-5),
}
for name, edit in edits.items():
    spec = json.load(open(sys.argv[1]))
    edit(spec)
    json.dump(spec, open(f"{name}.json", "w"))
PY
  local code=0
  momsynth analyze broken.json --report-out analysis_broken.json || code=$?
  if [ "$code" -ne 2 ]; then
    echo "error: analyze exited with $code instead of 2 on a provably infeasible spec" >&2
    return 1
  fi
  momsynth info broken.json > info_broken.txt
  if ! grep -Eq "analysis: [1-9][0-9]* error\(s\)" info_broken.txt; then
    echo "error: info does not report the analysis error:" >&2
    cat info_broken.txt >&2
    return 1
  fi
  local refused reason name
  for refused in "cyclic:dependency cycle" "negative_volume:invalid data volume" \
    "negative_link_time:time per data unit must be non-negative" \
    "negative_link_power:transfer power must be non-negative"; do
    name="${refused%%:*}"
    reason="${refused#*:}"
    for cmd in info analyze synth; do
      code=0
      momsynth "$cmd" "$name.json" > /dev/null 2> "${name}_$cmd.err" || code=$?
      if [ "$code" -ne 1 ] || ! grep -q "$reason" "${name}_$cmd.err" \
        || grep -q "panicked" "${name}_$cmd.err"; then
        echo "error: $cmd exited with $code on $name.json instead of refusing it:" >&2
        cat "${name}_$cmd.err" >&2
        return 1
      fi
    done
    echo "ok: info, analyze and synth refuse $name.json with exit 1"
  done
  python3 - <<'PY'
import json

for name in ("smartphone", "automotive", "mul3"):
    report = json.load(open(f"analysis_{name}.json"))
    assert report["clean"] is True, report
    assert report["errors"] == 0, report
    assert report["power_lower_bound_mw"] > 0.0, report
    assert report["modes"], report
    for mode in report["modes"]:
        assert 0.0 < mode["critical_path_lb_s"] <= mode["period_s"], mode
    print(f"ok: {name} p_LB = {report['power_lower_bound_mw']:.4f} mW,"
          f" pruned {report['pruned_domain_ratio'] * 100:.1f}%")

broken = json.load(open("analysis_broken.json"))
assert broken["clean"] is False, broken
assert broken["errors"] >= 1, broken
codes = {f["code"] for f in broken["findings"]}
assert "deadline-below-critical-path" in codes, codes
print(f"ok: broken spec rejected with {broken['errors']} error finding(s)")
PY
}

telemetry_scenario() {
  scenario telemetry
  momsynth synth "$OUT/smartphone.json" --quick --seed 1 --quiet \
    --trace-out trace.jsonl --metrics-out metrics.json
  python3 - <<'PY'
import json

events = [json.loads(line) for line in open("trace.jsonl")]
assert events, "trace is empty"
assert "RunStart" in events[0], f"first event is {events[0]}"
assert "Summary" in events[-1], f"last event is {events[-1]}"
generations = [e for e in events if "Generation" in e]
assert generations, "no generation events in trace"
# The spans are the trace's only timing record: one at the run root and
# one per timed phase, each at a phase path.
assert not any("Phase" in e for e in events), "a Phase line is on the trace"
paths = [e["Span"]["path"] for e in events if "Span" in e]
assert "run" in paths and "run;fitness_eval" in paths, paths
phase_paths = {"run;fitness_eval"} | {
    f"run;fitness_eval;{p}"
    for p in ("core_allocation", "list_scheduling", "voltage_scaling", "power_pricing")
}
assert all(p == "run" or p in phase_paths for p in paths), paths

metrics = json.load(open("metrics.json"))
assert "phases" not in metrics, sorted(metrics)
assert metrics["system"] == "smartphone"
assert metrics["generations"] > 0
assert metrics["evaluations"] > 0
# Eq. 1: the average power is the probability-weighted mode sum.
weighted = sum(m["total_mw"] * m["probability"] for m in metrics["modes"])
assert abs(weighted - metrics["average_power_mw"]) < 1e-6 * max(1.0, weighted)
print(f"ok: {len(events)} events, {len(generations)} generations,"
      f" {len(paths)} spans, {metrics['average_power_mw']:.4f} mW")
PY
}

threads_scenario() {
  scenario threads
  # The search trajectory is bit-identical at every thread count: the
  # mapping, the power report, the evaluations and every work counter.
  # The DVS runs also hold the PV-DVS iteration count, which depends on
  # which offspring modes are priced against a parent's terms. Three
  # threads price each batch on two workers kept beside the synth's own
  # thread.
  momsynth generate --seed 1 --modes 10 -o big.json
  for n in 1 2 3; do
    momsynth synth big.json --quick --seed 3 --threads "$n" \
      --metrics-out "metrics_$n.json" > "report_$n.txt"
    momsynth synth big.json --quick --seed 3 --dvs --threads "$n" \
      --metrics-out "metrics_dvs_$n.json" > "report_dvs_$n.txt"
  done
  python3 - <<'PY'
import json
import re

def report(path):
    lines = open(path).read().splitlines()
    mapping = [l for l in lines if l.startswith("mapping:")]
    assert len(mapping) == 1, lines
    # The first line ends in the wall time, the only part that may differ.
    power = [re.sub(r", [0-9.]+ s\)$", ")", l) for l in lines if "mW" in l]
    assert power and "evaluations" in power[0], lines
    return mapping, power

for tag in ("", "dvs_"):
    serial = report(f"report_{tag}1.txt")
    m1 = json.load(open(f"metrics_{tag}1.json"))
    assert m1["threads"] == 1, m1["threads"]
    for n in (2, 3):
        parallel = report(f"report_{tag}{n}.txt")
        assert serial == parallel, (tag, n, serial, parallel)
        mn = json.load(open(f"metrics_{tag}{n}.json"))
        assert mn["threads"] == n, (n, mn["threads"])
        for key in ("average_power_mw", "evaluations", "generations", "counters"):
            assert m1[key] == mn[key], (tag, n, key, m1[key], mn[key])
    dvs = m1["counters"]["dvs_iterations"]
    assert (dvs > 0) == (tag == "dvs_"), (tag, dvs)
    label = "DVS" if tag else "fixed voltage"
    print(f"ok: {label}: {m1['evaluations']} evaluations, {dvs} PV-DVS iterations"
          " and counters identical at 1, 2 and 3 threads")
PY
}

serve_scenario() {
  scenario serve
  local flags=(--root jobs --socket momsynth.sock --workers 2 --checkpoint-every 1
    --checkpoint-every-seconds 0.2)
  start_server "${flags[@]}"
  momsynth job submit "$OUT/smartphone.json" --socket momsynth.sock \
    --quick --dvs --seed 1 --priority 5
  momsynth job submit "$OUT/automotive.json" --socket momsynth.sock \
    --quick --dvs --seed 1 --priority 3
  # SIGKILL the server mid-synthesis: the journal must survive the kill
  # with both records.
  sleep 1
  kill -9 "$SERVER_PID"
  wait "$SERVER_PID" || true
  SERVER_PID=""
  test "$(ls jobs/jobs/*.json | wc -l)" -eq 2
  # Restart on the same journal and wait both jobs out. `job wait` exits
  # 0 only when the job reaches `verified`, so a lost, duplicated or
  # stuck job fails here.
  start_server "${flags[@]}"
  momsynth job wait job-000001 --socket momsynth.sock --timeout-s 600
  momsynth job wait job-000002 --socket momsynth.sock --timeout-s 600
  momsynth job status job-000001 --socket momsynth.sock > status1.json
  momsynth job status job-000002 --socket momsynth.sock > status2.json
  momsynth job shutdown --socket momsynth.sock
  wait "$SERVER_PID"
  SERVER_PID=""
  python3 - <<'PY'
import json

for path, system in (("status1.json", "smartphone"), ("status2.json", "automotive_ecu")):
    job = json.load(open(path))["job"]
    assert job["state"] == "verified", job
    summary = job["summary"]
    assert summary["system"] == system, summary["system"]
    assert summary["optimality_gap"] >= 0.0, summary["optimality_gap"]
    recovered = [t for t in job["transitions"] if "recovered" in t]
    print(f"ok: {job['id']} {system} verified after {job['attempts']} attempt(s),"
          f" gap {summary['optimality_gap'] * 100:.1f}%,"
          f" {len(recovered)} recovery transition(s)")
PY
}

metrics_scenario() {
  scenario metrics
  start_server --root jobs --socket momsynth.sock --workers 2 \
    --metrics-listen 127.0.0.1:9464
  momsynth job submit "$OUT/smartphone.json" --socket momsynth.sock \
    --quick --dvs --seed 1 --wait
  # Collect metrics over every exposure.
  momsynth job metrics --socket momsynth.sock > metrics_reply.json
  momsynth job metrics --socket momsynth.sock --text > metrics.prom
  curl --fail --silent http://127.0.0.1:9464/metrics > scrape.prom
  # Fold the job trace with the self-profiler.
  momsynth profile jobs/traces/job-000001.jsonl > profile.txt
  momsynth profile jobs/traces/job-000001.jsonl --collapsed -o profile.collapsed
  momsynth job shutdown --socket momsynth.sock
  wait "$SERVER_PID"
  SERVER_PID=""
  python3 - <<'PY'
import json

reply = json.load(open("metrics_reply.json"))
assert reply["ok"] is True, reply
assert reply["server"]["uptime_s"] > 0.0, reply["server"]
counters = {}
for c in reply["metrics"]["counters"]:
    counters[c["name"]] = counters.get(c["name"], 0) + c["value"]
assert counters["momsynth_jobs_submitted_total"] == 1, counters
assert counters["momsynth_jobs_terminal_total"] == 1, counters
assert counters["momsynth_evaluations_total"] > 0, counters
histograms = {}
for h in reply["metrics"]["histograms"]:
    histograms[h["name"]] = histograms.get(h["name"], 0) + h["count"]
assert histograms["momsynth_run_phase_seconds"] > 0, histograms
assert histograms["momsynth_journal_write_seconds"] > 0, histograms
assert histograms["momsynth_job_duration_seconds"] == 1, histograms

# Both text exposures carry the full taxonomy, non-degenerate.
for path in ("metrics.prom", "scrape.prom"):
    text = open(path).read()
    for family in (
        "momsynth_jobs_submitted_total",
        "momsynth_jobs_terminal_total",
        "momsynth_queue_depth",
        "momsynth_server_uptime_seconds",
        "momsynth_run_phase_seconds",
        "momsynth_journal_write_seconds",
    ):
        assert f"# TYPE {family}" in text, (path, family)
    assert 'state="verified"' in text, path
    assert "momsynth_jobs_submitted_total 1" in text, path

# Going terminal journalled a per-job snapshot.
snapshot = json.load(open("jobs/metrics/job-000001.json"))
assert snapshot["counters"], "journalled snapshot is empty"

# The profiler folded the trace into per-phase self time.
collapsed = open("profile.collapsed").read().splitlines()
assert collapsed, "collapsed profile is empty"
for line in collapsed:
    path, nanos = line.rsplit(" ", 1)
    assert path.startswith("run"), line
    assert int(nanos) > 0, line
assert any(l.startswith("run;fitness_eval;") for l in collapsed), collapsed
assert "SELF" in open("profile.txt").read()
print(f"ok: {len(counters)} counter families,"
      f" {len(histograms)} histogram families,"
      f" {len(collapsed)} profile frames")
PY
}

prove_scenario() {
  scenario prove
  # A bounded budget must degrade to a sound gap bound with exit code 0:
  # `prove` may never hang.
  timeout 900 "$MOMSYNTH" prove "$OUT/smartphone.json" --quick \
    --budget 20000 --report-out cert_smartphone.json
  # The same under a wall-clock budget: the search stops on its deadline.
  timeout 900 "$MOMSYNTH" prove "$OUT/smartphone.json" --quick \
    --budget 2s --report-out cert_smartphone_wall.json
  # The checked-in dominance fixture has a 2-assignment pruned space: the
  # proof must be exact and attribute the reduction.
  timeout 300 "$MOMSYNTH" prove "$ROOT/specs/redundant_gpp.json" --quick \
    --report-out cert_redundant_gpp.json
  python3 - <<'PY'
import json

eps = 1e-9
for name in ("smartphone", "smartphone_wall", "redundant_gpp"):
    cert = json.load(open(f"cert_{name}.json"))
    assert cert["status"] in ("optimal", "gap-bound"), cert
    assert cert["certified_gap"] >= 0.0, cert
    if name == "smartphone_wall":
        # A wall-clock budget sets no evaluation cap.
        assert cert["max_evals"] is None, cert
    else:
        assert cert["explored"] <= cert["max_evals"], cert
    # The GA best must lie inside the certificate: at or above the
    # certified lower bound, with its own residual no tighter than the
    # certified one (the certified best is min(GA best, search best), so
    # its gap is the smaller).
    ga = cert["ga_best_fitness"]
    lb = cert["lower_bound"]
    assert ga >= lb - eps, (name, ga, lb)
    assert cert["certified_gap"] <= ga / lb - 1.0 + eps, (name, cert)
    print(f"ok: {name} {cert['status']},"
          f" gap {cert['certified_gap']:.4f},"
          f" explored {cert['explored']}")

smartphone = json.load(open("cert_smartphone.json"))
assert smartphone["status"] == "gap-bound", \
    "a 20000-eval budget cannot exhaust the smartphone space"

fixture = json.load(open("cert_redundant_gpp.json"))
assert fixture["status"] == "optimal", fixture
assert fixture["certified_gap"] == 0.0, fixture
assert fixture["pruned_by_dominance"] > 0, \
    "dominance must prune the redundant GPP"
assert fixture["search_space"] == 2, fixture
print("ok: dominance pruned"
      f" {fixture['pruned_by_dominance']}/{fixture['total_candidates']}"
      " candidates on the fixture")
PY
}

echo "== build"
cargo build --release -p momsynth-cli --manifest-path "$ROOT/Cargo.toml"
momsynth generate --preset smartphone -o "$OUT/smartphone.json"
momsynth generate --preset automotive -o "$OUT/automotive.json"
momsynth generate --preset mul3 -o "$OUT/mul3.json"

check_scenario
analyze_scenario
telemetry_scenario
threads_scenario
serve_scenario
metrics_scenario
prove_scenario
echo "== all smoke scenarios passed"
