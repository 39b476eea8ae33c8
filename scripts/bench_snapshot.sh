#!/usr/bin/env bash
# Benchmark snapshots, written as BENCH_*.json at the repo root. Every
# snapshot records host metadata (CPU model, core count, 1-minute load
# average, UTC timestamp) and the repetition count, and reports medians
# across repetitions so a single noisy run cannot skew the numbers.
#
# Parallel-speedup snapshot (default): runs the micro_skyline, micro_lgm
# and micro_ml suites at --threads=1 and --threads=N (default: all
# cores) and writes BENCH_parallel.json with per-benchmark median
# ops/sec plus the N-thread speedup over the serial run.
#
#   scripts/bench_snapshot.sh [build-dir] [threads] [reps]
#
# Speedup is hardware-dependent: on a single-core host the parallel run
# degenerates to the serial path and speedups hover around 1.0 — the
# recorded host_cpus field says which case a snapshot captured.
#
# Profiler snapshot: for each of [reps] repetitions boots a fresh
# skyex_serve per leg — sampler off and armed at 97 Hz, the legs taking
# turns to go first — warms it up and times one skyex_loadgen run, so
# every timed run starts from the same store size. Writes
# BENCH_prof.json with the median-throughput overhead of the always-on
# profiler plus a per-phase CPU-attribution table and the top-10
# functions by self samples, scraped from /debug/pprof/profile under
# load on a separate profiler-on server:
#
#   scripts/bench_snapshot.sh --prof [build-dir] [reps]
#
# Sharded-serving snapshot: boots skyex_serve twice — --shards=1, then
# --shards=4 — drives each with a region-skewed skyex_loadgen run for
# [reps] timed runs, and writes BENCH_shard.json with per-leg median
# req/s and p50/p95/p99 latency plus the 4-shard/1-shard throughput
# ratio (noise-clamped like the profiler overhead):
#
#   scripts/bench_snapshot.sh --shard [build-dir] [reps]
#
# Two-stage-extraction snapshot: boots skyex_serve twice — a "before"
# leg that disables every stage of the pipeline this snapshot measures
# (--prefilter-threshold=0 --text-cache=0 --reference-kernels) and an
# "after" leg on the serving defaults (threshold 0.1, 4096-entry text
# LRU, dispatched SIMD kernels) — drives each with skyex_loadgen for
# [reps] timed runs, and writes BENCH_extract.json with per-leg median
# candidate pairs/sec, the speedup, the measured drop rate and cache
# hit rate of the after leg, and the recall/drop-rate curve of the
# sketch pre-filter from `skyex prefilter-eval`:
#
#   scripts/bench_snapshot.sh --extract [build-dir] [reps]
#
# Overhead fractions are clamped at the measured noise floor (the
# cross-repetition spread): a delta indistinguishable from run-to-run
# noise is reported as 0, with the raw value kept alongside.

set -euo pipefail
cd "$(dirname "$0")/.."

# Shared host metadata, exported for the python aggregators below.
HOST_META="$(python3 - <<'EOF'
import json, os, time
model = ""
try:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
except OSError:
    pass
print(json.dumps({
    "cpu_model": model,
    "host_cpus": os.cpu_count(),
    "load_avg_1m": round(os.getloadavg()[0], 2),
    "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
}))
EOF
)"
export HOST_META

if [ "${1:-}" = "--prof" ]; then
  BUILD_DIR="${2:-build}"
  REPS="${3:-3}"
  if [ "$REPS" -lt 3 ]; then REPS=3; fi
  OUT="BENCH_prof.json"
  TMP_DIR="$(mktemp -d)"
  SERVER_PID=""
  LOAD_PID=""
  cleanup() {
    [ -n "$LOAD_PID" ] && kill -TERM "$LOAD_PID" 2>/dev/null || true
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    rm -rf "$TMP_DIR"
  }
  trap cleanup EXIT

  cmake --build "$BUILD_DIR" -j --target skyex_cli skyex_serve_bin \
    skyex_loadgen

  "$BUILD_DIR/tools/skyex" generate --dataset=northdk --entities=400 \
    --seed=29 --out="$TMP_DIR/entities.csv"
  "$BUILD_DIR/tools/skyex" train --in="$TMP_DIR/entities.csv" \
    --train-fraction=0.1 --seed=3 --model-out="$TMP_DIR/model.txt" \
    --log-level=warn

  # Boots skyex_serve on an ephemeral port; sets SERVER_PID and PORT.
  boot_server() {  # args: extra server flags
    local port_file="$TMP_DIR/port.txt"
    rm -f "$port_file"
    "$BUILD_DIR/tools/skyex_serve" --model="$TMP_DIR/model.txt" \
      --dataset="$TMP_DIR/entities.csv" --port=0 \
      --port-file="$port_file" --workers=4 --queue-depth=64 \
      --log-level=warn "$@" >"$TMP_DIR/serve.log" 2>&1 &
    SERVER_PID=$!
    PORT=""
    for _ in $(seq 150); do
      if [ -s "$port_file" ]; then PORT="$(cat "$port_file")"; break; fi
      kill -0 "$SERVER_PID" 2>/dev/null || {
        echo "server died during startup:" >&2
        cat "$TMP_DIR/serve.log" >&2
        exit 1
      }
      sleep 0.2
    done
    [ -n "$PORT" ] || { echo "server never bound a port" >&2; exit 1; }
  }

  stop_server() {
    kill -TERM "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=""
  }

  run_loadgen() {  # args: output file, connections
    "$BUILD_DIR/tools/skyex_loadgen" --port="$PORT" --requests=600 \
      --connections="${2:-4}" --entities=100 --seed=41 | tee "$1"
  }

  # A loadgen run links and appends its 600 records to the served
  # store, so a server reused across repetitions slows from one to the
  # next. Each timed run gets its own server instead: boot, warm up,
  # time one run, stop.
  timed_run() {  # args: leg (off|on), repetition
    if [ "$1" = "on" ]; then
      boot_server --profile-hz=97
    else
      boot_server --profile-hz=0
    fi
    run_loadgen "$TMP_DIR/warmup.txt" >/dev/null
    echo "=== loadgen (profiler $1, repetition $2, port $PORT) ==="
    run_loadgen "$TMP_DIR/loadgen_$1_$2.txt"
    stop_server
  }
  for rep in $(seq "$REPS"); do
    if [ $((rep % 2)) -eq 1 ]; then
      timed_run off "$rep"
      timed_run on "$rep"
    else
      timed_run on "$rep"
      timed_run off "$rep"
    fi
  done

  # Scrape the attribution profile on its own profiler-on server while a
  # background load runs, so the window sees the real
  # serve/extraction/skyline mix. The load uses one connection fewer
  # than the server has workers: each worker owns a connection, so a
  # saturating closed-loop load would starve the scrape connection until
  # the load ends — and the window would cover an idle server. One
  # loadgen run can end inside the first window, so the load repeats
  # until both windows and the heap fetch are done.
  boot_server --profile-hz=97
  run_loadgen "$TMP_DIR/warmup.txt" >/dev/null
  (
    RUN_PID=""
    trap 'kill "$RUN_PID" 2>/dev/null; exit 0' TERM
    while :; do
      "$BUILD_DIR/tools/skyex_loadgen" --port="$PORT" --requests=600 \
        --connections=3 --entities=100 --seed=41 >/dev/null &
      RUN_PID=$!
      wait "$RUN_PID" || true
    done
  ) &
  LOAD_PID=$!
  python3 - "$PORT" "$TMP_DIR" <<'EOF'
import sys, urllib.request
port, tmp = sys.argv[1], sys.argv[2]
base = f"http://127.0.0.1:{port}/debug/pprof"
for url, path in [
    (f"{base}/profile?seconds=3&format=json", f"{tmp}/profile.json"),
    (f"{base}/profile?seconds=3", f"{tmp}/profile.folded"),
    (f"{base}/heap", f"{tmp}/heap.json"),
]:
    with urllib.request.urlopen(url, timeout=60) as r:
        with open(path, "wb") as f:
            f.write(r.read())
EOF
  kill -TERM "$LOAD_PID"
  wait "$LOAD_PID" || true
  LOAD_PID=""
  stop_server

  python3 - "$TMP_DIR" "$REPS" "$OUT" <<'EOF'
import json, os, re, statistics, sys

tmp_dir, reps, out_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]

def req_per_sec(leg):
    rates = []
    for rep in range(1, reps + 1):
        with open(os.path.join(tmp_dir, f"loadgen_{leg}_{rep}.txt")) as f:
            m = re.search(r"\(([\d.]+) req/s\)", f.read())
        if not m:
            raise SystemExit(f"no req/s in loadgen_{leg}_{rep}.txt")
        rates.append(float(m.group(1)))
    return rates

off, on = req_per_sec("off"), req_per_sec("on")
off_med, on_med = statistics.median(off), statistics.median(on)
raw = (off_med - on_med) / off_med if off_med else 0.0
# Noise floor: the worse of the two legs' relative spread. An overhead
# smaller than the run-to-run spread is indistinguishable from noise.
def spread(rates, med):
    return (max(rates) - min(rates)) / med if med else 0.0
noise = max(spread(off, off_med), spread(on, on_med))
clamped = raw if abs(raw) > noise else 0.0

with open(os.path.join(tmp_dir, "profile.json")) as f:
    profile = json.load(f)
total = sum(profile["phases"].values()) or 1
attribution = {
    phase: {"samples": count, "fraction": round(count / total, 4)}
    for phase, count in sorted(profile["phases"].items(),
                               key=lambda kv: -kv[1])
}

# Top functions by self samples: the leaf frame of each collapsed line.
self_samples = {}
with open(os.path.join(tmp_dir, "profile.folded")) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        stack, count = line.rsplit(" ", 1)
        leaf = stack.rsplit(";", 1)[-1]
        self_samples[leaf] = self_samples.get(leaf, 0) + int(count)
top = [{"function": name, "self_samples": count,
        "self_fraction": round(count / total, 4)}
       for name, count in sorted(self_samples.items(),
                                 key=lambda kv: -kv[1])[:10]]

with open(os.path.join(tmp_dir, "heap.json")) as f:
    heap = json.load(f)

snapshot = {
    **json.loads(os.environ["HOST_META"]),
    "repetitions": reps,
    "profiler_hz": profile.get("hz", 97),
    "loadgen": {
        "req_per_sec_profiler_off": off,
        "req_per_sec_profiler_on": on,
        "median_req_per_sec_profiler_off": off_med,
        "median_req_per_sec_profiler_on": on_med,
        # raw can be negative (on leg faster) — that is pure noise,
        # which is exactly what the clamp reports.
        "profiler_overhead_fraction_raw": round(raw, 4),
        "profiler_overhead_fraction": round(clamped, 4),
        "noise_floor_fraction": round(noise, 4),
    },
    "cpu_attribution": attribution,
    "top_functions_by_self_samples": top,
    "heap_zones": heap.get("zones", {}),
    "profile_samples": profile.get("samples", 0),
    "profile_dropped": profile.get("dropped", 0),
}
with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")

print(f"wrote {out_path}")
print(f"  throughput: off={off_med:.1f} on={on_med:.1f} req/s  "
      f"overhead={100 * clamped:+.2f}% (raw {100 * raw:+.2f}%, "
      f"noise floor {100 * noise:.2f}%)")
for phase, row in attribution.items():
    print(f"  {phase:<12} {row['samples']:>7} samples "
          f"({100 * row['fraction']:.1f}%)")
EOF
  exit 0
fi

if [ "${1:-}" = "--extract" ]; then
  BUILD_DIR="${2:-build}"
  REPS="${3:-3}"
  if [ "$REPS" -lt 3 ]; then REPS=3; fi
  OUT="BENCH_extract.json"
  TMP_DIR="$(mktemp -d)"
  SERVER_PID=""
  LOAD_PID=""
  cleanup() {
    [ -n "$LOAD_PID" ] && kill -TERM "$LOAD_PID" 2>/dev/null || true
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    rm -rf "$TMP_DIR"
  }
  trap cleanup EXIT

  cmake --build "$BUILD_DIR" -j --target skyex_cli skyex_serve_bin \
    skyex_loadgen

  "$BUILD_DIR/tools/skyex" generate --dataset=northdk --entities=800 \
    --seed=29 --out="$TMP_DIR/entities.csv"
  "$BUILD_DIR/tools/skyex" train --in="$TMP_DIR/entities.csv" \
    --train-fraction=0.1 --seed=3 --model-out="$TMP_DIR/model.txt" \
    --log-level=warn

  # Recall/drop-rate curve of the sketch pre-filter on the same data
  # (batch path, exact accounting against the model's accepted pairs).
  "$BUILD_DIR/tools/skyex" prefilter-eval --in="$TMP_DIR/entities.csv" \
    --train-fraction=0.1 --seed=3 --out="$TMP_DIR/prefilter_eval.json"

  boot_server() {  # args: extra server flags
    local port_file="$TMP_DIR/port.txt"
    rm -f "$port_file"
    "$BUILD_DIR/tools/skyex_serve" --model="$TMP_DIR/model.txt" \
      --dataset="$TMP_DIR/entities.csv" --port=0 \
      --port-file="$port_file" --workers=4 --queue-depth=64 \
      --log-level=warn "$@" >"$TMP_DIR/serve.log" 2>&1 &
    SERVER_PID=$!
    PORT=""
    for _ in $(seq 150); do
      if [ -s "$port_file" ]; then PORT="$(cat "$port_file")"; break; fi
      kill -0 "$SERVER_PID" 2>/dev/null || {
        echo "server died during startup:" >&2
        cat "$TMP_DIR/serve.log" >&2
        exit 1
      }
      sleep 0.2
    done
    [ -n "$PORT" ] || { echo "server never bound a port" >&2; exit 1; }
  }

  stop_server() {
    kill -TERM "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=""
  }

  run_loadgen() {  # args: output file
    "$BUILD_DIR/tools/skyex_loadgen" --port="$PORT" --requests=600 \
      --connections=4 --entities=100 --seed=41 | tee "$1"
  }

  for leg in before after; do
    if [ "$leg" = "before" ]; then
      # Pre-PR configuration on the same binary: no sketch filter, no
      # per-entity text cache, straight-line reference kernels.
      boot_server --prefilter-threshold=0 --text-cache=0 \
        --reference-kernels
    else
      boot_server  # serving defaults: threshold 0.1, LRU 4096, SIMD
    fi
    echo "=== loadgen (extraction $leg, port $PORT) ==="
    run_loadgen "$TMP_DIR/warmup_${leg}.txt" >/dev/null  # warmup
    for rep in $(seq "$REPS"); do
      run_loadgen "$TMP_DIR/loadgen_${leg}_${rep}.txt"
    done
    stop_server
  done

  python3 - "$TMP_DIR" "$REPS" "$OUT" <<'EOF'
import json, os, re, statistics, sys

tmp_dir, reps, out_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]

def leg_rows(leg):
    """[(pairs_per_sec, req_per_sec, drop_pct, hit_pct)] per repetition."""
    rows = []
    for rep in range(1, reps + 1):
        with open(os.path.join(tmp_dir, f"loadgen_{leg}_{rep}.txt")) as f:
            text = f.read()
        pairs = re.search(r"([\d.]+) candidate pairs/s scored", text)
        reqs = re.search(r"\(([\d.]+) req/s\)", text)
        drop = re.search(r"candidates dropped \(([\d.]+)%\)", text)
        hits = re.search(r"text-cache hit rate ([\d.]+)%", text)
        if not pairs or not reqs:
            raise SystemExit(f"no throughput in loadgen_{leg}_{rep}.txt "
                             "(is /metrics reachable?)")
        rows.append((float(pairs.group(1)), float(reqs.group(1)),
                     float(drop.group(1)) if drop else 0.0,
                     float(hits.group(1)) if hits else 0.0))
    return rows

def summarize(leg):
    rows = leg_rows(leg)
    return rows, {
        "pairs_per_sec": [r[0] for r in rows],
        "median_pairs_per_sec": statistics.median(r[0] for r in rows),
        "median_req_per_sec": statistics.median(r[1] for r in rows),
        "median_prefilter_drop_pct": statistics.median(r[2] for r in rows),
        "median_text_cache_hit_pct": statistics.median(r[3] for r in rows),
    }

before_rows, before = summarize("before")
after_rows, after = summarize("after")
speedup = (after["median_pairs_per_sec"] / before["median_pairs_per_sec"]
           if before["median_pairs_per_sec"] else 0.0)

with open(os.path.join(tmp_dir, "prefilter_eval.json")) as f:
    curve = json.load(f)
# The serving default threshold: recall/drop the deployed filter pays.
at_default = next((row for row in curve["thresholds"]
                   if abs(row["threshold"] - 0.1) < 1e-9), None)

snapshot = {
    **json.loads(os.environ["HOST_META"]),
    "repetitions": reps,
    "loadgen": {"requests": 600, "connections": 4, "entities": 100},
    # Same binary, pipeline off: --prefilter-threshold=0 --text-cache=0
    # --reference-kernels.
    "before": before,
    # Serving defaults: --prefilter-threshold=0.1 --text-cache=4096,
    # runtime-dispatched SIMD kernels.
    "after": after,
    "pairs_per_sec_speedup": round(speedup, 2),
    "prefilter_recall_at_default_threshold":
        at_default["recall"] if at_default else None,
    "prefilter_drop_rate_at_default_threshold":
        at_default["drop_rate"] if at_default else None,
    "prefilter_curve": curve["thresholds"],
}
with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")

print(f"wrote {out_path}")
print(f"  pairs/sec: before={before['median_pairs_per_sec']:.0f} "
      f"after={after['median_pairs_per_sec']:.0f}  speedup x{speedup:.2f}")
print(f"  after leg: {after['median_prefilter_drop_pct']:.1f}% candidates "
      f"dropped, {after['median_text_cache_hit_pct']:.1f}% text-cache hits")
if at_default:
    print(f"  prefilter @0.1: drop_rate={at_default['drop_rate']:.4f} "
          f"recall={at_default['recall']:.4f}")
EOF
  exit 0
fi

if [ "${1:-}" = "--shard" ]; then
  BUILD_DIR="${2:-build}"
  REPS="${3:-3}"
  if [ "$REPS" -lt 3 ]; then REPS=3; fi
  OUT="BENCH_shard.json"
  TMP_DIR="$(mktemp -d)"
  SERVER_PID=""
  LOAD_PID=""
  cleanup() {
    [ -n "$LOAD_PID" ] && kill -TERM "$LOAD_PID" 2>/dev/null || true
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    rm -rf "$TMP_DIR"
  }
  trap cleanup EXIT

  cmake --build "$BUILD_DIR" -j --target skyex_cli skyex_serve_bin \
    skyex_loadgen

  "$BUILD_DIR/tools/skyex" generate --dataset=northdk --entities=400 \
    --seed=29 --out="$TMP_DIR/entities.csv"
  "$BUILD_DIR/tools/skyex" train --in="$TMP_DIR/entities.csv" \
    --train-fraction=0.1 --seed=3 --model-out="$TMP_DIR/model.txt" \
    --log-level=warn

  boot_server() {  # args: shard count
    local port_file="$TMP_DIR/port.txt"
    rm -f "$port_file"
    "$BUILD_DIR/tools/skyex_serve" --model="$TMP_DIR/model.txt" \
      --dataset="$TMP_DIR/entities.csv" --port=0 \
      --port-file="$port_file" --workers=4 --queue-depth=64 \
      --shards="$1" --log-level=warn >"$TMP_DIR/serve.log" 2>&1 &
    SERVER_PID=$!
    PORT=""
    for _ in $(seq 150); do
      if [ -s "$port_file" ]; then PORT="$(cat "$port_file")"; break; fi
      kill -0 "$SERVER_PID" 2>/dev/null || {
        echo "server died during startup:" >&2
        cat "$TMP_DIR/serve.log" >&2
        exit 1
      }
      sleep 0.2
    done
    [ -n "$PORT" ] || { echo "server never bound a port" >&2; exit 1; }
  }

  stop_server() {
    kill -TERM "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=""
  }

  # Region-skewed load: the scatter path is only interesting when some
  # shards see much more traffic than others.
  run_loadgen() {  # args: output file
    "$BUILD_DIR/tools/skyex_loadgen" --port="$PORT" --requests=600 \
      --connections=4 --entities=100 --seed=41 \
      --hotspot=0.6 --hotspot-share=0.15 | tee "$1"
  }

  for leg in 1 4; do
    boot_server "$leg"
    echo "=== loadgen (--shards=$leg, port $PORT) ==="
    run_loadgen "$TMP_DIR/warmup_s${leg}.txt" >/dev/null  # warmup
    for rep in $(seq "$REPS"); do
      run_loadgen "$TMP_DIR/loadgen_s${leg}_${rep}.txt"
    done
    stop_server
  done

  python3 - "$TMP_DIR" "$REPS" "$OUT" <<'EOF'
import json, os, re, statistics, sys

tmp_dir, reps, out_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]

def runs(leg):
    """[(req_per_sec, p50, p95, p99)] across repetitions."""
    rows = []
    for rep in range(1, reps + 1):
        with open(os.path.join(tmp_dir, f"loadgen_s{leg}_{rep}.txt")) as f:
            text = f.read()
        rate = re.search(r"\(([\d.]+) req/s\)", text)
        lat = re.search(r"p50=([\d.]+) p95=([\d.]+) p99=([\d.]+)", text)
        if not rate or not lat:
            raise SystemExit(f"no req/s or latency in loadgen_s{leg}_{rep}.txt")
        rows.append((float(rate.group(1)),
                     float(lat.group(1)), float(lat.group(2)),
                     float(lat.group(3))))
    return rows

def leg_summary(leg):
    rows = runs(leg)
    rates = [r[0] for r in rows]
    return rates, {
        "req_per_sec": rates,
        "median_req_per_sec": statistics.median(rates),
        "median_p50_us": statistics.median(r[1] for r in rows),
        "median_p95_us": statistics.median(r[2] for r in rows),
        "median_p99_us": statistics.median(r[3] for r in rows),
    }

one_rates, one = leg_summary(1)
four_rates, four = leg_summary(4)
one_med, four_med = one["median_req_per_sec"], four["median_req_per_sec"]
raw = (four_med - one_med) / one_med if one_med else 0.0
def spread(rates, med):
    return (max(rates) - min(rates)) / med if med else 0.0
noise = max(spread(one_rates, one_med), spread(four_rates, four_med))
clamped = raw if abs(raw) > noise else 0.0

snapshot = {
    **json.loads(os.environ["HOST_META"]),
    "repetitions": reps,
    "loadgen": {"requests": 600, "connections": 4,
                "hotspot": 0.6, "hotspot_share": 0.15},
    "shards_1": one,
    "shards_4": four,
    # > 0 means the 4-shard server out-throughputs single-shard; on a
    # small host the scatter fan-out usually costs a little instead.
    "shard_throughput_delta_fraction_raw": round(raw, 4),
    "shard_throughput_delta_fraction": round(clamped, 4),
    "noise_floor_fraction": round(noise, 4),
}
with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")

print(f"wrote {out_path}")
print(f"  throughput: shards=1 {one_med:.1f} req/s, "
      f"shards=4 {four_med:.1f} req/s  "
      f"delta={100 * clamped:+.2f}% (raw {100 * raw:+.2f}%, "
      f"noise floor {100 * noise:.2f}%)")
print(f"  latency p99: shards=1 {one['median_p99_us']:.0f}us, "
      f"shards=4 {four['median_p99_us']:.0f}us")
EOF
  exit 0
fi

BUILD_DIR="${1:-build}"
THREADS="${2:-$(nproc)}"
REPS="${3:-3}"
if [ "$REPS" -lt 3 ]; then REPS=3; fi
# The parallel leg must actually engage the pool; on a 1-core host
# compare against an (oversubscribed) 2-thread run rather than itself.
if [ "$THREADS" -le 1 ]; then THREADS=2; fi
OUT="BENCH_parallel.json"
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

# Filter to the suites with pool-backed parallel paths; the rest of the
# micro benches measure serial kernels and would only add noise here.
declare -A FILTERS=(
  [micro_skyline]='BM_PeelFirstSkyline|BM_FullLayering'
  [micro_lgm]='BM_LgmSimDamerau|BM_LgmIndividualScores'
  [micro_ml]='BM_FitRandomForest|BM_FitExtraTrees|BM_FitGradientBoosting'
)

cmake --build "$BUILD_DIR" -j --target micro_skyline micro_lgm micro_ml

for bench in micro_skyline micro_lgm micro_ml; do
  for t in 1 "$THREADS"; do
    echo "=== $bench --threads=$t ==="
    "$BUILD_DIR/bench/$bench" --threads="$t" \
      --benchmark_filter="${FILTERS[$bench]}" \
      --benchmark_repetitions="$REPS" \
      --benchmark_format=json \
      --benchmark_out="$TMP_DIR/${bench}_t${t}.json" \
      --benchmark_out_format=json >/dev/null
  done
done

python3 - "$TMP_DIR" "$THREADS" "$REPS" "$OUT" <<'EOF'
import json, os, sys

tmp_dir, threads = sys.argv[1], int(sys.argv[2])
reps, out_path = int(sys.argv[3]), sys.argv[4]

def load(bench, t):
    """name -> median real_time in ns from repetition aggregates."""
    with open(os.path.join(tmp_dir, f"{bench}_t{t}.json")) as f:
        report = json.load(f)
    out = {}
    for b in report["benchmarks"]:
        if b.get("aggregate_name") != "median":
            continue
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        out[b.get("run_name", b["name"])] = b["real_time"] * scale
    return out

snapshot = {**json.loads(os.environ["HOST_META"]),
            "threads": threads, "repetitions": reps, "benchmarks": []}
for bench in ("micro_skyline", "micro_lgm", "micro_ml"):
    serial, parallel = load(bench, 1), load(bench, threads)
    for name in serial:
        if name not in parallel:
            continue
        s_ns, p_ns = serial[name], parallel[name]
        snapshot["benchmarks"].append({
            "suite": bench,
            "name": name,
            "median_ops_per_sec_1_thread": 1e9 / s_ns if s_ns else 0.0,
            f"median_ops_per_sec_{threads}_threads":
                1e9 / p_ns if p_ns else 0.0,
            "speedup": s_ns / p_ns if p_ns else 0.0,
        })

with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")

print(f"wrote {out_path} ({len(snapshot['benchmarks'])} benchmarks, "
      f"threads={threads}, reps={reps}, "
      f"host_cpus={snapshot['host_cpus']})")
for b in snapshot["benchmarks"]:
    print(f"  {b['name']:<40} speedup x{b['speedup']:.2f}")
EOF
