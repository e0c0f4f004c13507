#!/usr/bin/env bash
# Repo health gate: formatting, lints (deny warnings), full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (deny rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> paper all, cold then warm (nine export files; recall must equal recompute)"
ROOT="$(pwd)"
PAPER_DIR="$(mktemp -d "${TMPDIR:-/tmp}/isos-check-paper.XXXXXX")"
# The first run fills the cache; the second, in its own directory, reads
# every suite row back from it.
mkdir "$PAPER_DIR/cold" "$PAPER_DIR/warm"
for run in cold warm; do
  (cd "$PAPER_DIR/$run" && ISOS_CACHE_DIR="$PAPER_DIR/cache" cargo run --release -q \
    --manifest-path "$ROOT/Cargo.toml" -p isosceles-bench --bin paper -- all >/dev/null)
done
for f in fig14a_speedup.csv fig14b_cycles.csv fig14c_traffic.csv fig15_bandwidth.csv \
  fig16_mac_util.csv fig17_energy.csv layer_traffic.csv layer_traffic.md suite_summary.csv; do
  [ -s "$PAPER_DIR/cold/results/$f" ] || { echo "paper smoke: results/$f missing or empty" >&2; exit 1; }
  cmp "$PAPER_DIR/cold/results/$f" "$PAPER_DIR/warm/results/$f" \
    || { echo "paper smoke: warm results/$f differs from the cold run" >&2; exit 1; }
done
rm -rf "$PAPER_DIR"

echo "==> dse --smoke (design-space exploration fast path)"
ISOS_CACHE_DIR="${TMPDIR:-/tmp}/isos-check-dse-cache" cargo run --release -q -p isos-explore --bin dse -- \
  --smoke --net G58 --out "${TMPDIR:-/tmp}/isos-check-dse" >/dev/null

echo "==> dse --stream --smoke (streaming search over the batch axis)"
ISOS_CACHE_DIR="${TMPDIR:-/tmp}/isos-check-dse-cache" cargo run --release -q -p isos-explore --bin dse -- \
  --stream --smoke --net G58 --out "${TMPDIR:-/tmp}/isos-check-dse-stream" >/dev/null
[ -s "${TMPDIR:-/tmp}/isos-check-dse-stream/dse-stream-G58.csv" ] \
  || { echo "dse stream smoke: dse-stream-G58.csv missing or empty" >&2; exit 1; }

echo "==> dse --arch configs/arch --smoke (declarative descriptions)"
ISOS_CACHE_DIR="${TMPDIR:-/tmp}/isos-check-dse-cache" cargo run --release -q -p isos-explore --bin dse -- \
  --arch configs/arch --smoke --out "${TMPDIR:-/tmp}/isos-check-dse-arch" >/dev/null
[ -s "${TMPDIR:-/tmp}/isos-check-dse-arch/dse-G58.csv" ] \
  || { echo "dse arch smoke: dse-G58.csv missing or empty" >&2; exit 1; }

echo "==> trace_run smoke (G58 timeline export, every model)"
TRACE_OUT="${TMPDIR:-/tmp}/isos-check-traces"
for MODEL in isosceles isosceles-single sparten fused-layer; do
  cargo run --release -q -p isosceles-bench --bin trace_run -- \
    --net G58 --model "$MODEL" --out "$TRACE_OUT" >/dev/null
  TRACE_JSON="$TRACE_OUT/G58-$MODEL.trace.json"
  [ -s "$TRACE_JSON" ] || { echo "trace smoke: $TRACE_JSON missing or empty" >&2; exit 1; }
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$TRACE_JSON" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
assert events, sys.argv[1] + ": trace JSON has no events"
assert any(e["ph"] == "X" for e in events), sys.argv[1] + ": trace JSON has no slices"
PY
  else
    grep -q '"traceEvents"' "$TRACE_JSON" && grep -q '"ph":"X"' "$TRACE_JSON" \
      || { echo "trace smoke: $TRACE_JSON malformed" >&2; exit 1; }
  fi
done

echo "==> perf_report --smoke --baseline BENCH_10.json (schema + regression gate)"
PERF_JSON="${TMPDIR:-/tmp}/isos-check-perf/BENCH_smoke.json"
# Smoke-level perf gate: G58 only, compared against the committed report.
# The committed numbers are min-of-24 from a quiet machine while smoke is
# min-of-10, so the margin is wide (150%) — this catches order-of-magnitude
# kernel regressions, not noise. Full-matrix gating is a manual run, which
# writes its report to the gitignored results/perf_report.json:
#   perf_report --baseline BENCH_5.json
cargo run --release -q -p isosceles-bench --bin perf_report -- \
  --smoke --repeat 10 --baseline BENCH_10.json --regress-pct 150 \
  --out "$PERF_JSON"
[ -s "$PERF_JSON" ] || { echo "perf smoke: $PERF_JSON missing or empty" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$PERF_JSON" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema"].startswith("isosceles-perf-report/"), r["schema"]
assert r["timings"], "no timings recorded"
models = {"isosceles", "isosceles-single", "sparten", "fused-layer"}
suite = {"R81", "R90", "R95", "R96", "R98", "R99", "V68", "V90", "G58", "M75", "M89"}
for t in r["timings"]:
    assert t["workload"] in suite, f"unknown workload {t['workload']}"
    assert t["model"] in models, f"unknown model {t['model']}"
    assert t["millis"] > 0, f"non-positive timing {t}"
assert r["total_millis"] > 0
PY
else
  grep -q '"schema":"isosceles-perf-report/' "$PERF_JSON" \
    && grep -q '"millis"' "$PERF_JSON" \
    || { echo "perf smoke: $PERF_JSON malformed" >&2; exit 1; }
fi

echo "==> stream_run --smoke (streaming tail-latency schema check)"
STREAM_JSON="${TMPDIR:-/tmp}/isos-check-stream/stream_smoke.json"
ISOS_CACHE_DIR="${TMPDIR:-/tmp}/isos-check-stream-cache" cargo run --release -q -p isosceles-bench --bin stream_run -- \
  --smoke --out "$STREAM_JSON" 2>/dev/null
[ -s "$STREAM_JSON" ] || { echo "stream smoke: $STREAM_JSON missing or empty" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$STREAM_JSON" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema"].startswith("isosceles-stream-report/"), r["schema"]
assert r["rows"], "no stream rows"
models = {"isosceles", "isosceles-single", "sparten", "fused-layer"}
for row in r["rows"]:
    assert row["model"] in models, f"unknown model {row['model']}"
    assert row["p50_cycles"] <= row["p95_cycles"] <= row["p99_cycles"], row
    assert row["throughput_imgs_per_sec"] > 0, row
    busy = row["busy_cycles"] + row["idle_cycles"] + row["formation_cycles"]
    assert busy == row["cycles"], f"server-time conservation broken: {row}"
PY
else
  grep -q '"schema":"isosceles-stream-report/' "$STREAM_JSON" \
    && grep -q '"p99_cycles"' "$STREAM_JSON" \
    || { echo "stream smoke: $STREAM_JSON malformed" >&2; exit 1; }
fi

echo "==> serve --smoke (simulation service self-check)"
ISOS_CACHE_DIR="${TMPDIR:-/tmp}/isos-check-serve-cache" cargo run --release -q -p isos-serve --bin serve -- \
  --smoke

echo "==> perfbench tests (stats and pacer units, a 1 s run of every workload in both trace modes)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench suite smoke (every warm cache hit checked against a direct simulation)"
SUITE_RESULT="$(bash perfbench/run.sh --workload suite --seed 1 --seconds 2 --trace 1 2>/dev/null | tail -n 1)"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SUITE_RESULT" <<'PY'
import json, sys
r = json.loads(sys.argv[1])
assert r["correct"] is True, f"perfbench suite smoke incorrect: {r}"
assert r["failed"] == 0, f"perfbench suite smoke failed operations: {r}"
PY
else
  printf '%s\n' "$SUITE_RESULT" | grep -q '"correct":true' \
    && printf '%s\n' "$SUITE_RESULT" | grep -q '"failed":0,' \
    || { echo "perfbench suite smoke: $SUITE_RESULT" >&2; exit 1; }
fi

echo "==> perfbench dse-arch smoke (screened survivors' anchor checked against a direct simulation)"
# Untraced sweeps run search_arch, traced ones screen_arch step by step;
# --trace 1 alternates them, so both screening paths are checked.
DSE_RESULT="$(bash perfbench/run.sh --workload dse-arch --seed 1 --seconds 2 --trace 1 2>/dev/null | tail -n 1)"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$DSE_RESULT" <<'PY'
import json, sys
r = json.loads(sys.argv[1])
assert r["correct"] is True, f"perfbench dse-arch smoke incorrect: {r}"
assert r["failed"] == 0, f"perfbench dse-arch smoke failed operations: {r}"
PY
else
  printf '%s\n' "$DSE_RESULT" | grep -q '"correct":true' \
    && printf '%s\n' "$DSE_RESULT" | grep -q '"failed":0,' \
    || { echo "perfbench dse-arch smoke: $DSE_RESULT" >&2; exit 1; }
fi

echo "==> perfbench serve smoke (every row over the wire checked against a direct simulation)"
SERVE_RESULT="$(bash perfbench/run.sh --workload serve --seed 1 --seconds 2 --trace 1 2>/dev/null | tail -n 1)"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SERVE_RESULT" <<'PY'
import json, sys
r = json.loads(sys.argv[1])
assert r["correct"] is True, f"perfbench serve smoke incorrect: {r}"
assert r["failed"] == 0, f"perfbench serve smoke failed operations: {r}"
PY
else
  printf '%s\n' "$SERVE_RESULT" | grep -q '"correct":true' \
    && printf '%s\n' "$SERVE_RESULT" | grep -q '"failed":0,' \
    || { echo "perfbench serve smoke: $SERVE_RESULT" >&2; exit 1; }
fi

echo "All checks passed."
