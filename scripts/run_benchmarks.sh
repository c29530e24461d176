#!/usr/bin/env bash
# Run the simulator-core micro-benchmark suite and write the result as
# BENCH_simcore.json, the perf baseline subsequent PRs compare against.
#
# Four binaries feed the file:
#   bench_micro_sim   event-core throughput, trace generation, replay
#   bench_recovery    power-up recovery vs dirty-state size, snapshot
#                     save/load throughput and image size
#   bench_ingest      trace ingestion: text parse vs emmctrace-bin
#                     decode records/s, binary encode, CSV import
#   bench_biotracer_overhead (via --bench-json): wall-clock overhead
#                     of the latency-attribution recorder, plus the
#                     bit-identical-MRT cross-check
# Their JSON outputs are merged (benchmark lists concatenated under
# the first binary's context block).
#
# The JSON carries, per benchmark:
#   - items_per_second   events/sec through the event core
#   - arena_high_water   peak live events (peak-RSS proxy: the arena's
#                        memory footprint tracks this, not lifetime
#                        events)
#   - sim_recovery_ms / scanned_pages / image_bytes for the recovery
#     and snapshot benches
#
#   - heap_mb              heap one fresh 32 GB device holds right
#                          after construction (BM_DeviceConstruction)
#
# After merging, the event-core benchmarks (BM_EventQueueScheduleRun
# and its Clustered variant) and BM_DeviceConstruction (devices/s)
# are gated against the committed baseline bench/BENCH_simcore.json:
# a drop of more than 25% in items_per_second fails the run. The wide
# tolerance absorbs machine-to-machine noise while still catching a
# real regression. BM_DeviceConstruction's heap_mb is gated the other
# way: more than 1.25x the baseline fails, so device state cannot
# quietly go back to being sized by capacity.
#
# Single runs of the same binary swing ~1.5x with host contention on a
# shared VM, so the gated benchmarks run a second time with
# GATE_REPS repetitions (kept in the output JSON), and the gate
# compares the best iteration of each on both sides: max items/s,
# min heap_mb. A baseline is regenerated the same way, by this script.
#
# Usage: scripts/run_benchmarks.sh [output.json]
#   BUILD_DIR=<dir>           build tree to use (default: build)
#   EMMCSIM_BENCH_ARGS=...    extra google-benchmark flags (e.g.
#                             --benchmark_repetitions=5)
#   EMMCSIM_BENCH_BASELINE=<file>  baseline to gate against
#                             (default: bench/BENCH_simcore.json)
#   EMMCSIM_BENCH_NO_GATE=1   skip the regression gate (e.g. when
#                             regenerating the baseline itself)

set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
OUT="${1:-BENCH_simcore.json}"
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
BASELINE="${EMMCSIM_BENCH_BASELINE:-$SCRIPT_DIR/../bench/BENCH_simcore.json}"
BENCHES=("$BUILD_DIR/bench/bench_micro_sim"
         "$BUILD_DIR/bench/bench_recovery"
         "$BUILD_DIR/bench/bench_ingest")
# Benchmarks the gate checks (GATED_PREFIXES below) and how many
# repetitions of them it takes the best of.
GATE_FILTER='^(BM_EventQueueScheduleRun|BM_DeviceConstruction)'
GATE_REPS=10

PARTS=()
for BENCH in "${BENCHES[@]}"; do
    if [ ! -x "$BENCH" ]; then
        echo "error: $BENCH not built (cmake --build $BUILD_DIR --target $(basename "$BENCH"))" >&2
        exit 1
    fi
    PART="$OUT.$(basename "$BENCH").part"
    # shellcheck disable=SC2086  # intentional word splitting of extra args
    "$BENCH" \
        --benchmark_out="$PART" \
        --benchmark_out_format=json \
        ${EMMCSIM_BENCH_ARGS:-}
    PARTS+=("$PART")
done

# Gate pass: the gated benchmarks again, GATE_REPS repetitions each.
PART="$OUT.gate.part"
"$BUILD_DIR/bench/bench_micro_sim" \
    --benchmark_filter="$GATE_FILTER" \
    --benchmark_repetitions="$GATE_REPS" \
    --benchmark_enable_random_interleaving=true \
    --benchmark_out="$PART" \
    --benchmark_out_format=json > /dev/null
PARTS+=("$PART")

# bench_biotracer_overhead is not a google-benchmark binary; its
# --bench-json flag emits a compatible part with the attribution
# overhead numbers (and fails the run if attribution perturbs the
# simulated MRT).
BIO="$BUILD_DIR/bench/bench_biotracer_overhead"
if [ ! -x "$BIO" ]; then
    echo "error: $BIO not built (cmake --build $BUILD_DIR --target bench_biotracer_overhead)" >&2
    exit 1
fi
PART="$OUT.bench_biotracer_overhead.part"
"$BIO" 0.2 --bench-json="$PART" > /dev/null
PARTS+=("$PART")

python3 - "$OUT" "${PARTS[@]}" <<'EOF'
import json
import sys

out, first, *rest = sys.argv[1:]
doc = json.load(open(first))
for part in rest:
    doc["benchmarks"].extend(json.load(open(part))["benchmarks"])
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
EOF
rm -f "${PARTS[@]}"

echo "wrote $OUT"

if [ "${EMMCSIM_BENCH_NO_GATE:-0}" = "1" ]; then
    echo "regression gate skipped (EMMCSIM_BENCH_NO_GATE=1)"
elif [ ! -f "$BASELINE" ]; then
    echo "regression gate skipped (no baseline at $BASELINE)"
else
    python3 - "$OUT" "$BASELINE" <<'EOF'
import json
import sys

# Gate on items_per_second: >25% below the committed baseline fails.
# Only pure CPU loops are gated (the event core, device construction);
# the replay/recovery benches touch the filesystem and are too noisy
# for a hard gate. Lower-is-better counters (heap_mb) fail above
# HEAP_TOLERANCE x the baseline. Each side contributes the best of
# its iterations of a benchmark (the suite pass plus the gate pass's
# repetitions); mean/median/stddev rows are skipped.
GATED_PREFIXES = ("BM_EventQueueScheduleRun", "BM_DeviceConstruction")
TOLERANCE = 0.75
LOWER_GATED = {"BM_DeviceConstruction": "heap_mb"}
HEAP_TOLERANCE = 1.25

out_path, base_path = sys.argv[1:]

def load(path):
    """Best iteration per benchmark: max items/s, min LOWER_GATED."""
    rates, lows = {}, {}
    for b in json.load(open(path))["benchmarks"]:
        if b.get("run_type", "iteration") != "iteration":
            continue
        name = b.get("run_name", b["name"])
        if "items_per_second" in b:
            rates[name] = max(rates.get(name, 0.0), b["items_per_second"])
        counter = LOWER_GATED.get(name)
        if counter in b:
            lows[name] = min(lows.get(name, float("inf")), b[counter])
    return rates, lows

cur_rates, cur_lows = load(out_path)
base_rates, base_lows = load(base_path)
failures = []
gated = 0
for name, base_rate in sorted(base_rates.items()):
    if not name.startswith(GATED_PREFIXES):
        continue
    gated += 1
    rate = cur_rates.get(name)
    if rate is None:
        failures.append(f"{name}: benchmark disappeared from {out_path}")
        continue
    ratio = rate / base_rate
    marker = "FAIL" if ratio < TOLERANCE else "ok"
    print(f"  gate {name}: best {rate:.4g}/s vs baseline best "
          f"{base_rate:.4g}/s ({ratio:.2f}x) {marker}")
    if ratio < TOLERANCE:
        failures.append(
            f"{name}: {rate:.4g} items/s is {ratio:.2f}x the baseline "
            f"{base_rate:.4g} (threshold {TOLERANCE}x)")
for name, counter in sorted(LOWER_GATED.items()):
    base = base_lows.get(name)
    if base is None:
        continue
    gated += 1
    cur = cur_lows.get(name)
    if cur is None:
        failures.append(f"{name}: {counter} missing from {out_path}")
        continue
    limit = base * HEAP_TOLERANCE
    marker = "FAIL" if cur > limit else "ok"
    print(f"  gate {name} {counter}: best {cur:.3f} vs baseline best "
          f"{base:.3f} (limit {limit:.3f}) {marker}")
    if cur > limit:
        failures.append(
            f"{name}: {counter} {cur:.3f} exceeds {HEAP_TOLERANCE}x "
            f"the baseline {base:.3f}")
if failures:
    print("benchmark regression:", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print(f"regression gate passed ({gated} gated metrics within bounds)")
EOF
fi
