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
# HEAP_TOLERANCE x the baseline.
GATED_PREFIXES = ("BM_EventQueueScheduleRun", "BM_DeviceConstruction")
TOLERANCE = 0.75
LOWER_GATED = {"BM_DeviceConstruction": "heap_mb"}
HEAP_TOLERANCE = 1.25

out_path, base_path = sys.argv[1:]

def load(path):
    return {b["name"]: b for b in json.load(open(path))["benchmarks"]}

current = load(out_path)
baseline = load(base_path)
failures = []
gated = 0
for name, base in sorted(baseline.items()):
    if not name.startswith(GATED_PREFIXES) or "items_per_second" not in base:
        continue
    gated += 1
    cur = current.get(name)
    if cur is None or "items_per_second" not in cur:
        failures.append(f"{name}: benchmark disappeared from {out_path}")
        continue
    base_rate = base["items_per_second"]
    ratio = cur["items_per_second"] / base_rate
    marker = "FAIL" if ratio < TOLERANCE else "ok"
    print(f"  gate {name}: {cur['items_per_second']:.4g}/s vs baseline "
          f"{base_rate:.4g}/s ({ratio:.2f}x) {marker}")
    if ratio < TOLERANCE:
        failures.append(
            f"{name}: {cur['items_per_second']:.4g} items/s is "
            f"{ratio:.2f}x the baseline {base_rate:.4g} "
            f"(threshold {TOLERANCE}x)")
for name, counter in sorted(LOWER_GATED.items()):
    base = baseline.get(name, {}).get(counter)
    if base is None:
        continue
    gated += 1
    cur = current.get(name, {}).get(counter)
    if cur is None:
        failures.append(f"{name}: {counter} missing from {out_path}")
        continue
    limit = base * HEAP_TOLERANCE
    marker = "FAIL" if cur > limit else "ok"
    print(f"  gate {name} {counter}: {cur:.3f} vs baseline {base:.3f} "
          f"(limit {limit:.3f}) {marker}")
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
