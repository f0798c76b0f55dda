#!/usr/bin/env bash
# A/A gate: two interleaved sets of runs of the SAME build must agree.
#
#   benchmark/repeat.sh [RUNS_PER_SET] [WORKLOAD...]
#
# Runs A1 B1 A2 B2 ... (default 5 per set) for every workload and prints, per
# workload x end-to-end metric: both set medians, their relative difference,
# and each set's (q3-q1)/median, next to the bound BENCHMARK.json fixes.
# Exits non-zero when a difference or a spread exceeds its bound, when a run is
# incorrect, or when a precision value differs between runs (the scenario is
# pinned: precision must repeat exactly whatever the seed).
#
#   SEEDS=vary  (default) run i uses --seed i, as the PR driver does: spread
#               then contains the seed-to-seed difference of the scripts.
#   SEEDS=same  every run uses --seed 1: timing spread is the machine's alone.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=${1:-5}
shift || true
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(serve_hot serve_cold ingest_mixed batch_clean)

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/locater-benchmark"
mkdir -p benchmark/out
log=benchmark/out/repeat.log
: >"$log"

seed=0
for workload in "${workloads[@]}"; do
  for i in $(seq 1 "$runs"); do
    for set in A B; do
      seed=$((seed + 1))
      [ "${SEEDS:-vary}" = vary ] || seed=1
      echo "== $workload set $set run $i seed $seed" >&2
      if ! line=$("$bin" --workload "$workload" --seed "$seed" --trace 0 | tail -n 1); then
        echo "run failed: $workload seed $seed" >&2
      fi
      echo "$workload $set $line" >>"$log"
    done
  done
done

python3 - "$log" <<'PY'
import collections, json, statistics, sys

bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
runs = collections.defaultdict(lambda: collections.defaultdict(lambda: collections.defaultdict(list)))
bad = 0
for row in open(sys.argv[1]):
    workload, which, line = row.split(" ", 2)
    try:
        result = json.loads(line)
    except ValueError:
        print(f"FAIL {workload} set {which}: no result line")
        bad += 1
        continue
    if not result["correct"] or result["failed"]:
        print(f"FAIL {workload} set {which}: correct={result['correct']} failed={result['failed']}")
        bad += 1
    for name, metric in result["metrics"].items():
        runs[workload][name][which].append(metric["value"])

def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

print(f"{'workload':<13}{'metric':<18}{'median A':>13}{'median B':>13}{'diff':>8}{'iqr A':>8}{'iqr B':>8}{'bound':>7}")
for workload, metrics in runs.items():
    for name, sets in metrics.items():
        a, b = sets["A"], sets["B"]
        if not a or not b:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        diff = abs(ma - mb) / ma if ma else 0.0
        verdict = ""
        if diff > bounds[name]:
            verdict, bad = "  FAIL: sets differ by more than the bound", bad + 1
        elif name != "setup_s" and max(spread(a), spread(b)) > bounds[name]:
            verdict, bad = "  FAIL: spread above the bound", bad + 1
        elif max(spread(a), spread(b)) > bounds[name] / 3:
            verdict = "  (spread above a third of the bound)"
        if name.endswith("_precision") and len(set(a + b)) > 1:
            verdict, bad = "  FAIL: precision did not repeat exactly", bad + 1
        print(f"{workload:<13}{name:<18}{ma:>13.4f}{mb:>13.4f}{diff:>8.1%}{spread(a):>8.1%}{spread(b):>8.1%}{bounds[name]:>7.1%}{verdict}")
sys.exit(1 if bad else 0)
PY
