#!/usr/bin/env python3
"""Benchmark of the SkyEx-T linker: three workloads against the shipped
binaries, plus a traced in-process replay for the per-layer split.

    python3 perfbench/run.py --workload stream-20k --seed 1 --trace 0
    python3 perfbench/run.py --steadiness

Run from the repository root. The first run builds `skyex`, `skyex_serve`
and the two benchmark tools from source into .bench_build/. Each
workload links one generated world; --seed draws the order the serving
workloads send its records in. Inputs are cached in .bench_cache/ per
state of the sources, and every run regenerates them and checks them
byte-identical to the cache by hash. --seconds defaults to BENCHMARK.json's
run_seconds. Per-run logs and a provenance record land in .bench_work/.

--trace 0 runs a workload untraced and prints every end-to-end metric.
--trace 1 runs it once more untraced (for the HTTP-side layer metrics),
then replays its inputs in-process through the library with spans and
prints every per-layer metric. Metric names and units come from
BENCHMARK.json. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A failed output check
prints correct=false and exits 1. perfbench/README.md defines every
metric and says why each workload exists.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CACHE = os.path.join(ROOT, ".bench_cache")
WORK = os.path.join(ROOT, ".bench_work")

SKYEX = os.path.join(BUILD, "skyex", "tools", "skyex")
SERVE = os.path.join(BUILD, "skyex", "tools", "skyex_serve")
CLIENT = os.path.join(BUILD, "perfbench_client")
REPLAY = os.path.join(BUILD, "perfbench_replay")
TARGETS = ["skyex_cli", "skyex_serve_bin", "perfbench_client",
           "perfbench_replay"]

# Pool size of every measured program, fixed rather than left to nproc:
# a 20k bootstrap takes twice as long on one thread as on four.
THREADS = 2
# Launches per run whose median is setup_s.
SETUPS = 3
# Runs per set of --steadiness: ten seeds, so each set's quartiles hold
# when two runs on either side are outliers.
STEADINESS_RUNS = 10
# Largest share of the guest's CPU time the hypervisor may steal while a
# serving slice runs for the slice to time the run. Quiet slices read
# 0.000-0.009; in a steal spell 0.016-0.15, with p99 up to 2.5x higher.
STEAL_CLEAN = 0.01
TRAIN_FRACTION = "0.04"

# Every workload links one fixed world (generator seed 7, the
# generator's default), so world-to-world variation does not masquerade
# as run-to-run noise; --seed draws the order the serving workloads send
# its records in.
# README.md says which ROADMAP items should move which workload.
# f1_floor fails the run when link quality drops below it.
WORLD_SEED = 7
WORKLOADS = {
    # Store: the first 20,000 records; requests: the other 12,000, each
    # sent once, so no entity repeats within a run.
    "stream-20k": {
        "kind": "serve", "world": 32000, "store": 20000, "cycle": False,
        "connections": 1, "warmup": 300, "f1_floor": 0.55,
    },
    # Store: the whole world; requests: its own records, cycled under
    # fresh ids as a re-crawl of the same sources would send them.
    "recrawl-2k": {
        "kind": "serve", "world": 2000, "store": 2000, "cycle": True,
        "connections": 3, "warmup": 150, "f1_floor": 0.55,
    },
    "batch-8k": {"kind": "batch", "world": 8000, "f1_floor": 0.55},
}


class BenchError(Exception):
    """The benchmark could not run (missing sources, a crashed program)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# Processes started through spawn() and not yet reaped; main() stops
# them on every way out, SIGTERM included.
LIVE = []


def spawn(argv, **kwargs):
    proc = subprocess.Popen(argv, cwd=ROOT, **kwargs)
    LIVE.append(proc)
    return proc


def stop_all():
    for proc in LIVE:
        if proc.returncode is None and proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def run_checked(argv, log_path, timeout=600):
    with open(log_path, "ab") as out:
        proc = subprocess.run(argv, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}; "
                         f"see {log_path}")


# --- build ------------------------------------------------------------------

def source_fingerprint():
    """Size and mtime of every source and build file of the repository."""
    digest = hashlib.sha256()
    for top, dirs, names in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs
                         if not d.startswith(".") and
                         not (top == ROOT and d.startswith("build")))
        for n in sorted(names):
            if not n.endswith((".cc", ".h", ".cmake", "CMakeLists.txt")):
                continue
            st = os.stat(os.path.join(top, n))
            digest.update(f"{top}/{n} {st.st_size} {st.st_mtime_ns}\n"
                          .encode())
    return digest.hexdigest()


def build():
    """Builds once per source state; later runs skip cmake entirely.
    Returns the state's fingerprint."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("the repository's sources are not next to "
                         "perfbench/; run from a full checkout")
    stamp = os.path.join(BUILD, "perfbench.stamp")
    fingerprint = source_fingerprint()
    if os.path.isfile(stamp) and open(stamp).read() == fingerprint:
        return fingerprint
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"], build_log, timeout=300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS,
                build_log, timeout=1500)
    with open(stamp, "w") as f:
        f.write(fingerprint)
    return fingerprint


# --- inputs -----------------------------------------------------------------

def read_rows(path):
    """Header and record lines of a generated CSV, as bytes."""
    with open(path, "rb") as f:
        lines = f.read().split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    if any(line.count(b'"') % 2 for line in lines):
        raise BenchError(f"a record of {path} spans lines")
    return lines[0], lines[1:]


def write_rows(path, header, rows):
    with open(path, "wb") as f:
        f.write(b"\n".join([header] + rows) + b"\n")


def cached(fresh, cache_dir, check_only=()):
    """Copies the freshly made files into cache_dir the first time; later
    the fresh bytes must hash like the cached ones. Files named in
    check_only are expensive to remake: only their cached hash is
    checked. Returns the cached paths."""
    manifest_path = os.path.join(cache_dir, "manifest.json")
    paths = {k: os.path.join(cache_dir, os.path.basename(v))
             for k, v in fresh.items()}
    if os.path.isfile(manifest_path):
        with open(manifest_path) as f:
            manifest = json.load(f)
        for key, path in paths.items():
            source = path if key in check_only else fresh[key]
            if sha256(source) != manifest.get(key):
                raise BenchError(f"{source} differs from the cached "
                                 f"{key} (manifest {manifest_path})")
        return paths
    os.makedirs(cache_dir, exist_ok=True)
    manifest = {}
    for key, path in paths.items():
        shutil.copyfile(fresh[key], path)
        manifest[key] = sha256(path)
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=1)
    return paths


def source_cache(fingerprint):
    """The input cache of one source state; caches of other states are
    stale (their model came from other code) and are removed."""
    key = fingerprint[:16]
    if os.path.isdir(CACHE):
        for entry in os.listdir(CACHE):
            if entry != key:
                shutil.rmtree(os.path.join(CACHE, entry), ignore_errors=True)
    return os.path.join(CACHE, key)


def prepare_inputs(name, spec, seed, work, cache_root):
    """The generated files one run needs. The world (and for serving its
    store, model and drift profile) is made once per workload and source
    state; the seeded order is made per seed. All are cached; every run
    regenerates the world, store and order and requires the cached bytes
    back. The model, 8 s to retrain on the 20k store, is trained when its
    cache is made and later only checked against its recorded hash."""
    log_path = os.path.join(work, "inputs.log")
    cache = os.path.join(cache_root, name)
    world = os.path.join(work, "world.csv")
    run_checked([SKYEX, "generate", "--dataset=northdk",
                 f"--entities={spec['world']}", f"--seed={WORLD_SEED}",
                 f"--out={world}"], log_path)
    header, rows = read_rows(world)
    if len(rows) != spec["world"]:
        raise BenchError(f"world has {len(rows)} records, not {spec['world']}")
    fresh = {"world": world}
    if spec["kind"] == "serve":
        fresh["store"] = os.path.join(work, "store.csv")
        write_rows(fresh["store"], header, rows[:spec["store"]])
        model = os.path.join(cache, "model.txt")
        if not os.path.isfile(os.path.join(cache, "manifest.json")):
            # Untimed: the model and its drift profile MODEL.profile,
            # which skyex_serve loads by default.
            fresh["model"] = os.path.join(work, "model.txt")
            fresh["profile"] = fresh["model"] + ".profile"
            run_checked([SKYEX, "train", f"--in={fresh['store']}",
                         f"--train-fraction={TRAIN_FRACTION}",
                         f"--model-out={fresh['model']}", "--threads=0"],
                        log_path)
        else:
            fresh["model"] = model
            fresh["profile"] = model + ".profile"
    files = cached(fresh, cache, check_only=("model", "profile"))

    if spec["kind"] == "batch":
        # The world in generator order for every seed: SkyEx-T trains on
        # 4% of the blocked pairs, and a reordered input would draw
        # another sample and move link_f1 by several percent per seed.
        files["input"] = files["world"]
        return files
    pool = rows[:spec["store"]] if spec["cycle"] else rows[spec["store"]:]
    order = list(range(len(pool)))
    random.Random(seed).shuffle(order)
    stream = os.path.join(work, "stream.csv")
    write_rows(stream, header, [pool[i] for i in order])
    files.update(cached({"stream": stream},
                        os.path.join(cache, f"seed-{seed}")))
    return files


# --- host and process readings ----------------------------------------------

def cpu_jiffies():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return sum(fields), fields[7]


def proc_status_mb(pid, key):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"/proc/{pid}/status has no {key}")


def provenance(extra):
    def version(binary):
        out = subprocess.run([binary, "--version"], capture_output=True,
                             text=True, timeout=30)
        return out.stdout.strip()
    cpu_model = platform.processor()
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    with open("/proc/loadavg") as f:
        load = f.read().split()[:3]
    record = {
        "versions": [version(b) for b in (SKYEX, SERVE, CLIENT, REPLAY)],
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": [float(x) for x in load],
        "python": platform.python_version(),
    }
    record.update(extra)
    return record


# --- serving ----------------------------------------------------------------

class Server:
    """One skyex_serve process; `setup_s` is launch until the port file
    (written right after the listen socket is up) can be read."""

    def __init__(self, files, work, tag):
        self.port_file = os.path.join(work, f"port-{tag}.txt")
        self.log_path = os.path.join(work, f"serve-{tag}.log")
        self.argv = [SERVE, f"--model={files['model']}",
                     f"--dataset={files['store']}", "--port=0",
                     f"--port-file={self.port_file}", "--profile-hz=0",
                     f"--threads={THREADS}"]
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        self.log = open(self.log_path, "wb")
        start = time.perf_counter()
        self.proc = spawn(self.argv, stdout=self.log,
                          stderr=subprocess.STDOUT)
        self.port = None
        while self.port is None:
            if self.proc.poll() is not None:
                raise BenchError(f"skyex_serve exited {self.proc.returncode} "
                                 f"during start-up; see {self.log_path}")
            if time.perf_counter() - start > 150:
                self.stop()
                raise BenchError("skyex_serve did not listen within 150 s")
            try:
                with open(self.port_file) as f:
                    self.port = int(f.read().strip())
            except (OSError, ValueError):
                time.sleep(0.002)
        self.setup_s = time.perf_counter() - start

    def stop(self):
        """SIGTERM, wait for the drain; the exit code must be 0."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


def registry_delta(client, section, name):
    """Change of one skyex_serve /metrics entry over the measured phase:
    a counter's value, or a histogram's (sum, count)."""
    if client["metrics_before"] is None or client["metrics_after"] is None:
        raise BenchError("GET /metrics failed around the measured phase")
    before = client["metrics_before"][section].get(name)
    after = client["metrics_after"][section].get(name)
    if section == "histograms":
        before = before or {"sum": 0.0, "count": 0}
        after = after or {"sum": 0.0, "count": 0}
        return after["sum"] - before["sum"], after["count"] - before["count"]
    return (after or 0) - (before or 0)


def run_client(spec, files, server, seconds, work, offset, tag):
    out = os.path.join(work, f"client-{tag}.json")
    argv = [CLIENT, f"--port={server.port}", f"--pid={server.proc.pid}",
            f"--store={files['store']}", f"--stream={files['stream']}",
            f"--offset={offset}", f"--connections={spec['connections']}",
            f"--warmup={spec['warmup']}",
            f"--seconds={seconds}", f"--out={out}"]
    if spec["cycle"]:
        argv.append("--cycle")
    run_checked(argv, os.path.join(work, f"client-{tag}.log"),
                timeout=seconds + 120)
    with open(out, encoding="utf-8", errors="replace") as f:
        return json.load(f)


def exact_percentiles(samples):
    ordered = sorted(samples)
    n = len(ordered)
    p99 = ordered[math.ceil(0.99 * n) - 1]  # nearest rank
    return statistics.median(ordered), p99, sum(1 for x in ordered if x > p99)


def link_f1(tp, fp, fn):
    return 2.0 * tp / (2 * tp + fp + fn) if tp else 0.0


def serving_run(name, spec, files, seconds, work, trace):
    """Launches skyex_serve SETUPS times. Each launch serves an equal
    slice of the measured phase, further along the request order, so the
    phase spans the whole run and a slow spell of the host weighs on one
    slice only. --trace 1 launches once, for one such slice.
    Returns (metrics, attempted, failed, checks, extra, slices)."""
    launches = 1 if trace else SETUPS
    pool = spec["store"] if spec["cycle"] else spec["world"] - spec["store"]
    setups, slices, checks = [], [], []
    measured_jiffies = steal = 0
    for i in range(launches):
        server = Server(files, work, i)
        setups.append(server.setup_s)
        try:
            total0, steal0 = cpu_jiffies()
            client = run_client(spec, files, server, seconds / SETUPS, work,
                                offset=i * (pool // SETUPS), tag=i)
            total1, steal1 = cpu_jiffies()
            client["peak_rss_mb"] = proc_status_mb(server.proc.pid, "VmHWM")
            client["rss_mb"] = proc_status_mb(server.proc.pid, "VmRSS")
        finally:
            code = server.stop()
        measured_jiffies += total1 - total0
        steal += steal1 - steal0
        client["cpu_steal_frac"] = (steal1 - steal0) / max(1, total1 - total0)
        if code != 0:
            checks.append(f"skyex_serve exited {code}; see {server.log_path}")
        if client["exhausted"]:
            log(f"{name}: the request order ran out within slice {i}")
        if client["warmup_ok"] != spec["warmup"]:
            checks.append(f"a warm-up request of slice {i} failed")
        checks += client["errors"]
        slices.append(client)

    # Timings are taken per slice, p50 and p99 exactly from its raw
    # samples, and the run reports their median over the clean slices
    # (steal share at most STEAL_CLEAN), or the least-stolen slice when
    # none is clean: the choice rests on the host's steal counter, never
    # on the timings, so a slower program reads slower in every slice.
    for c in slices:
        linked = c["ok_requests"]
        if not c["latencies_ms"] or linked == 0:
            raise BenchError(f"{name}: a slice linked no entity")
        c["p50_ms"], c["p99_ms"], c["beyond_p99"] = exact_percentiles(
            c["latencies_ms"])
        if c["beyond_p99"] < 10:
            log(f"{name}: only {c['beyond_p99']} samples of a slice lie "
                f"beyond its p99")
        c["entities_per_s"] = linked / c["wall_s"]
        c["cpu_ms_per_entity"] = (c["cpu_ticks"] * 1000.0 / c["clk_tck"]
                                  / linked)

    def total(key):
        return sum(c[key] for c in slices)

    stolen = [c["cpu_steal_frac"] for c in slices]
    timed_index = ([i for i, s in enumerate(stolen) if s <= STEAL_CLEAN]
                   or [stolen.index(min(stolen))])
    timed = [slices[i] for i in timed_index]

    def median(key):
        return statistics.median(c[key] for c in timed)
    requests, ok = total("requests"), total("ok_requests")
    entities = ok
    tp, fp, fn = total("tp"), total("fp"), total("fn")
    f1 = link_f1(tp, fp, fn)
    if f1 < spec["f1_floor"]:
        checks.append(f"link_f1 {f1:.4f} below the floor {spec['f1_floor']}")
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "entities_per_s": (median("entities_per_s"), entities),
        "p50_ms": (median("p50_ms"), sum(c["requests"] for c in timed)),
        "p99_ms": (median("p99_ms"), sum(c["requests"] for c in timed)),
        "cpu_ms_per_entity": (median("cpu_ms_per_entity"), entities),
        "peak_rss_mb": (max(c["peak_rss_mb"] for c in slices), launches),
        "rss_mb": (median("rss_mb"), launches),
        "ok_frac": (ok / requests, requests),
        "link_f1": (f1, tp + fp + fn),
    }
    extra = {
        "p99_beyond": "+".join(str(c["beyond_p99"]) for c in slices),
        "slice_requests": "+".join(str(c["requests"]) for c in slices),
        "timed_slices": "+".join(str(i) for i in timed_index),
        "setups_s": setups,
        "serve_argv": server.argv,
        "cpu_steal_frac": steal / max(1, measured_jiffies),
        "slices": [{k: v for k, v in c.items()
                    if k not in ("latencies_ms", "metrics_before",
                                 "metrics_after")} for c in slices],
    }
    return metrics, requests, requests - ok, checks, extra, slices


# --- batch ------------------------------------------------------------------

def timed_process(argv, stdout_path, sample_rss=False):
    """Runs argv; returns (wall_s, cpu_s, max_rss_mb, mean_rss_mb, rc).
    With sample_rss, VmRSS is read every 20 ms while it runs."""
    samples = []
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = spawn(argv, stdout=out, stderr=subprocess.STDOUT)
        while True:
            pid, status, usage = os.wait4(
                proc.pid, os.WNOHANG if sample_rss else 0)
            if pid != 0:
                break
            try:
                samples.append(proc_status_mb(proc.pid, "VmRSS"))
            except (OSError, BenchError):
                pass
            time.sleep(0.02)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    mean_rss = statistics.fmean(samples) if samples else 0.0
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            mean_rss, proc.returncode)


def count_components(input_csv, matches_csv):
    with open(input_csv, newline="", encoding="utf-8",
              errors="surrogateescape") as f:
        ids = [row["id"] for row in csv.DictReader(f)]
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x
    components = len(parent)
    with open(matches_csv, newline="", encoding="utf-8",
              errors="surrogateescape") as f:
        for row in csv.DictReader(f):
            a, b = find(row["id_a"]), find(row["id_b"])
            if a != b:
                parent[a] = b
                components -= 1
    return len(ids), components


def batch_run(name, spec, files, seconds, work):
    """Set-up is `skyex train` (SETUPS times; the models must agree),
    alternating with `skyex link` jobs; then `skyex apply` with the
    trained model checks the labelled pairs against the rule."""
    records = spec["world"]
    checks = []
    link_argv = [SKYEX, "link", f"--in={files['input']}",
                 f"--threads={THREADS}"]
    jobs = []

    def run_job():
        out_csv = os.path.join(work, "linked.csv")
        log_path = os.path.join(work, f"link-{len(jobs)}.log")
        wall, cpu, peak, mean_rss, rc = timed_process(
            link_argv + [f"--out={out_csv}"], log_path, sample_rss=True)
        ok = rc == 0
        with open(log_path, encoding="utf-8", errors="replace") as f:
            m = re.search(r"linked (\d+) records into (\d+) entities",
                          f.read())
        clusters = -1
        if not ok or m is None or int(m.group(1)) != records:
            checks.append(f"skyex link job {len(jobs)} failed (rc={rc})")
            ok = False
        else:
            clusters = int(m.group(2))
            with open(out_csv, newline="", encoding="utf-8",
                      errors="surrogateescape") as f:
                rows = list(csv.reader(f))
            if len(rows) != clusters + 1 or any(len(r) != len(rows[0])
                                                for r in rows):
                checks.append(f"linked.csv of job {len(jobs)} does not parse "
                              f"to {clusters} records")
                ok = False
        jobs.append({"wall": wall, "cpu": cpu, "peak": peak,
                     "rss": mean_rss, "ok": ok, "clusters": clusters})

    # Set-ups and jobs alternate so the jobs spread over the run; jobs
    # run until their wall times add up to --seconds.
    setups, models = [], []
    for i in range(SETUPS):
        model = os.path.join(work, f"model-{i}.txt")
        wall, _, _, _, rc = timed_process(
            [SKYEX, "train", f"--in={files['input']}",
             f"--train-fraction={TRAIN_FRACTION}", f"--model-out={model}",
             f"--threads={THREADS}"], os.path.join(work, f"train-{i}.log"))
        if rc != 0:
            raise BenchError(f"skyex train exited {rc}")
        setups.append(wall)
        models.append(sha256(model))
        if sum(j["wall"] for j in jobs) < seconds:
            run_job()
    while sum(j["wall"] for j in jobs) < seconds:
        run_job()
    if len(set(models)) != 1:
        checks.append("skyex train is not deterministic across set-ups")

    matches = os.path.join(work, "matches.csv")
    apply_log = os.path.join(work, "apply.log")
    run_checked([SKYEX, "apply", f"--in={files['input']}",
                 f"--model={os.path.join(work, 'model-0.txt')}",
                 f"--out={matches}", f"--threads={THREADS}"], apply_log)
    with open(apply_log, encoding="utf-8", errors="replace") as f:
        cm = re.search(r"tp=(\d+) fp=(\d+) tn=(\d+) fn=(\d+)", f.read())
    if cm is None:
        raise BenchError("skyex apply printed no confusion matrix")
    tp, fp, _, fn = (int(x) for x in cm.groups())
    f1 = link_f1(tp, fp, fn)
    if f1 < spec["f1_floor"]:
        checks.append(f"link_f1 {f1:.4f} below the floor {spec['f1_floor']}")
    n_records, components = count_components(files["input"], matches)
    for j, job in enumerate(jobs):
        if job["ok"] and job["clusters"] != components:
            checks.append(f"job {j} made {job['clusters']} entities; the "
                          f"labelled pairs form {components}")
            job["ok"] = False

    walls = [j["wall"] for j in jobs]
    done = sum(1 for j in jobs if j["ok"])
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "entities_per_s": (records * len(jobs) / sum(walls),
                           records * len(jobs)),
        "p50_ms": (statistics.median(walls) * 1000.0, len(jobs)),
        "p99_ms": (max(walls) * 1000.0, len(jobs)),
        "cpu_ms_per_entity": (sum(j["cpu"] for j in jobs) * 1000.0 /
                              (records * len(jobs)),
                              records * len(jobs)),
        "peak_rss_mb": (max(j["peak"] for j in jobs), len(jobs)),
        "rss_mb": (statistics.fmean(j["rss"] for j in jobs), len(jobs)),
        "ok_frac": (done / len(jobs), len(jobs)),
        "link_f1": (f1, tp + fp + fn),
    }
    extra = {"setups_s": setups, "job_walls_s": walls,
             "link_argv": link_argv, "records_checked": n_records,
             "p99_beyond": 0}
    return metrics, len(jobs), len(jobs) - done, checks, extra


# --- traced replay ----------------------------------------------------------

def run_replay(spec, files, work, requests):
    out = os.path.join(work, "replay.json")
    argv = [REPLAY, f"--threads={THREADS}", f"--out={out}",
            f"--spans-out={os.path.join(work, 'spans.json')}"]
    if spec["kind"] == "batch":
        argv += ["--mode=batch", f"--store={files['input']}",
                 f"--linked-out={os.path.join(work, 'replay-linked.csv')}"]
    else:
        argv += ["--mode=serve", f"--store={files['store']}",
                 f"--model={files['model']}",
                 f"--warmup={spec['warmup']}", f"--requests={requests}"]
        argv.append(f"--stream={files['stream']}")
        if spec["cycle"]:
            argv.append("--cycle")
    run_checked(argv, os.path.join(work, "replay.log"), timeout=900)
    with open(out) as f:
        return json.load(f)


# Largest share of the traced total that no call span may cover.
UNATTRIBUTED_MAX = 0.05


def span_checks(replay):
    """The span tree must account for the pass: self times (child
    intervals clipped to their parent) add up to the root spans only when
    children nest, the root spans match the pass wall time taken outside
    them, and the calls' spans cover all but UNATTRIBUTED_MAX of it."""
    checks = []
    total = replay["traced_total_s"]
    if abs(replay["self_sum_s"] - total) > 1e-6:
        checks.append(f"span self times sum to {replay['self_sum_s']} s, "
                      f"not the traced total {total} s")
    if abs(replay["pass_wall_s"] - total) > 1e-3:
        checks.append(f"the root span covers {total} s of a "
                      f"{replay['pass_wall_s']} s pass")
    if replay["unattributed_s"] > UNATTRIBUTED_MAX * total:
        checks.append(f"{replay['unattributed_s']:.3f} s of the traced "
                      f"{total:.3f} s lie outside every call span")
    return checks


def per_layer(spec, replay, client, layer_names):
    """Every per-layer metric; a layer a workload does not run reads 0."""
    spans = replay["spans"]

    def span_s(name):
        return spans.get(name, {}).get("total_s", 0.0)

    pc = replay["counters_pass"]
    m = {name: 0.0 for name in layer_names}
    m.update({
        "serve.bootstrap_s": span_s("serve::BootstrapLinkService"),
        "core.skyex_train_s": span_s("core::SkyExT::Train"),
        "core.link_entities_s": span_s("core::LinkEntities"),
        "features.corpus_s": span_s("features::LgmXExtractor::FromCorpus"),
        "features.extract_s": span_s("features::LgmXExtractor::Extract"),
        "geo.block_s": span_s("geo::QuadFlexBlock"),
        "data.read_s": span_s("data::ReadDatasetCsv"),
        "data.truth_s": span_s("data::LabelPairs"),
        "data.write_s": span_s("data::WriteDatasetCsv"),
        "skyline.dominance_tests": pc["skyline/dominance_tests"],
        "skyline.layers_peeled": pc["skyline/layers_peeled"],
        "par.tasks": pc["par/tasks_executed"],
        "par.steals": pc["par/steals"],
        "replay.total_s": replay["traced_total_s"],
        "replay.unattributed_frac":
            replay["unattributed_s"] / replay["traced_total_s"],
        "replay.span_overhead_frac":
            (replay["traced_wall_s"] - replay["untraced_wall_s"])
            / replay["untraced_wall_s"],
    })
    if spec["kind"] == "batch":
        extract_s = m["features.extract_s"]
        if extract_s > 0:
            m["features.rows_per_s"] = replay["pairs"] / extract_s
        m["geo.pairs_per_record"] = replay["pairs"] / replay["records"]
        return m

    ent = replay["entities"]
    if ent == 0:
        raise BenchError("the replay linked no entity after its warm-up")
    cl = replay["counters_link"]
    candidates = cl["core/incremental_candidates"]
    links = cl["serve/linked_records"]
    rows = candidates - replay["prefilter_dropped"]
    lookups = replay["lru_hits"] + replay["lru_misses"]
    m.update({
        "core.link_ms": replay["link_s"] * 1000.0 / ent,
        "core.scan_ms": (replay["extract_us"] - replay["prefilter_us"])
                        / 1000.0 / ent,
        "features.prefilter_ms": replay["prefilter_us"] / 1000.0 / ent,
        "features.score_ms": replay["rank_us"] / 1000.0 / ent,
        "core.candidates_per_entity": candidates / ent,
        "core.links_per_entity": links / ent,
        "features.text_cache_hit_frac":
            replay["lru_hits"] / lookups if lookups else 0.0,
        "features.prefilter_drop_frac":
            replay["prefilter_dropped"] / candidates if candidates else 0.0,
        "features.rows_per_entity": rows / ent,
        "features.accept_frac": links / rows if rows else 0.0,
    })
    m["core.merge_ms"] = (m["core.link_ms"] - m["core.scan_ms"]
                          - m["features.prefilter_ms"]
                          - m["features.score_ms"])
    # HTTP side, from the untraced run: /metrics deltas and client timings.
    http_entities = client["ok_requests"]
    qw_sum, qw_count = registry_delta(client, "histograms",
                                      "serve/queue_wait_us")
    bs_sum, bs_count = registry_delta(client, "histograms", "serve/batch_size")
    m["serve.queue_wait_ms"] = qw_sum / qw_count / 1000.0 if qw_count else 0.0
    m["serve.batch_entities"] = bs_sum / bs_count if bs_count else 0.0
    m["serve.rejected_frac"] = client["rejected"] / max(1, client["requests"])
    m["par.tasks_per_entity"] = (
        registry_delta(client, "counters", "par/tasks_executed")
        / max(1, http_entities))
    mean_latency = statistics.fmean(client["latencies_ms"])
    m["serve.overhead_ms"] = (mean_latency - m["serve.queue_wait_ms"]
                              - m["core.link_ms"] * m["serve.batch_entities"])
    return m


# --- one run ----------------------------------------------------------------

def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(name, seed, seconds, trace):
    spec = WORKLOADS[name]
    declared = load_benchmark()["per_layer" if trace else "end_to_end"]
    cache_root = source_cache(build())
    work = os.path.join(WORK, f"{name}-seed{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    files = prepare_inputs(name, spec, seed, work, cache_root)
    total0, steal0 = cpu_jiffies()
    client = None
    if spec["kind"] == "serve":
        values, attempted, failed, checks, extra, slices = serving_run(
            name, spec, files, seconds, work, trace)
        client = slices[0]
    elif not trace:
        values, attempted, failed, checks, extra = batch_run(
            name, spec, files, seconds, work)
    else:
        attempted, failed, checks, extra = 1, 0, [], {}

    if trace:
        requests = (spec["warmup"] + client["requests"]
                    if client is not None else 0)
        replay = run_replay(spec, files, work, requests)
        checks += span_checks(replay)
        layers = per_layer(spec, replay, client, [m["name"] for m in declared])
        values = {k: (v, None) for k, v in layers.items()}
        extra["replay_spans"] = replay["spans"]
    total1, steal1 = cpu_jiffies()
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    metrics = {m["name"]: (values[m["name"]][0], m["unit"],
                           values[m["name"]][1]) for m in declared}

    record = provenance({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "threads": THREADS,
        "cpu_steal_frac_run": (steal1 - steal0) / max(1, total1 - total0),
        "inputs_sha256": {k: sha256(v) for k, v in files.items()},
        "checks_failed": checks, **extra,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
    })
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    result_name = f"{stamp}-{name}-seed{seed}-trace{int(trace)}.json"
    with open(os.path.join(WORK, "results", result_name), "w") as f:
        json.dump(record, f, indent=1)
    shutil.rmtree(work, ignore_errors=True)

    for key, (value, unit, samples) in metrics.items():
        line = f"{name}/{key} {value:.6g} {unit}"
        if samples is not None:
            line += f" n={samples}"
        if key in ("p50_ms", "p99_ms") and "slice_requests" in extra:
            line += (f" per_slice={extra['slice_requests']}"
                     f" timed_slices={extra['timed_slices']}")
        if key == "p99_ms":
            line += f" beyond_p99={extra['p99_beyond']}"
        print(line)
    print("provenance " + json.dumps(
        {k: record[k] for k in ("versions", "cpu_model", "nproc",
                                "loadavg_start", "cpu_steal_frac_run",
                                "threads")}))
    for check in checks:
        log(f"{name}: check failed: {check}")
    result = {"correct": not checks, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u, _) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0 if not checks else 1


# --- steadiness report ------------------------------------------------------

def steadiness(seconds):
    """Two interleaved sets of every workload on the same seeds; per
    workload/metric each set's median and quartiles, the spread
    (quartile distance over median) and whether the two sets agree: their
    medians differ by at most the bound BENCHMARK.json fixes, in either
    direction, and every spread but setup_s's stays within it (setup_s's
    spread is not bounded, only its median: set-up runs a few times per
    run and follows the host's speed). Spreads over a
    third of the bound are flagged, setup_s's too."""
    benchmark = load_benchmark()
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    names = [w["name"] for w in benchmark["workloads"]]
    values = {s: {n: {} for n in names} for s in "AB"}
    for i in range(STEADINESS_RUNS):
        for set_name in ("AB" if i % 2 == 0 else "BA"):
            for name in names:
                proc = spawn([sys.executable, os.path.abspath(__file__),
                              "--workload", name, "--seed", str(i + 1),
                              "--seconds", str(seconds), "--trace", "0"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
                out, err = proc.communicate()
                last = out.strip().splitlines()[-1:]
                result = json.loads(last[0]) if last else None
                if proc.returncode != 0 or not result or not result["correct"]:
                    log(err[-2000:])
                    raise BenchError(f"{name} seed {i + 1} failed")
                for key, m in result["metrics"].items():
                    values[set_name][name].setdefault(key, []).append(
                        m["value"])
                log(f"set {set_name} run {i + 1} {name}: " + ", ".join(
                    f"{k}={m['value']:.4g}"
                    for k, m in result["metrics"].items()))
    report, ok = [], True
    print(f"{'workload/metric':34} {'set':3} {'q1':>10} {'median':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6} verdict")
    for name in names:
        for key in values["A"][name]:
            spec = bounds[key]
            row = {"metric": f"{name}/{key}", "bound": spec["bound"]}
            for s in "AB":
                q1, med, q3 = statistics.quantiles(values[s][name][key], n=4)
                spread = (q3 - q1) / med if med else 0.0
                row[s] = {"q1": q1, "median": med, "q3": q3,
                          "spread": spread,
                          "values": values[s][name][key]}
            a, b = row["A"]["median"], row["B"]["median"]
            row["difference"] = abs(b - a) / min(a, b) if min(a, b) else 0.0
            spreads_ok = key == "setup_s" or all(
                row[s]["spread"] <= spec["bound"] for s in "AB")
            row["agree"] = row["difference"] <= spec["bound"] and spreads_ok
            row["under_third"] = all(
                row[s]["spread"] <= spec["bound"] / 3 for s in "AB")
            ok = ok and row["agree"]
            report.append(row)
            for s in "AB":
                r = row[s]
                verdict = ""
                if s == "B":
                    verdict = ("agree" if row["agree"] else "DISAGREE")
                    verdict += f" (medians differ by {row['difference']:.3f}"
                    if not row["under_third"]:
                        verdict += ", spread over bound/3"
                    verdict += ")"
                print(f"{row['metric']:34} {s:3} {r['q1']:10.4g} "
                      f"{r['median']:10.4g} {r['q3']:10.4g} "
                      f"{r['spread']:7.3f} {spec['bound']:6.3f} {verdict}")
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"steadiness-{time.strftime('%Y%m%dT%H%M%S')}"
                              ".json")
    with open(path, "w") as f:
        json.dump({"runs": STEADINESS_RUNS, "seconds": seconds,
                   "rows": report}, f, indent=1)
    print(f"report written to {path}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured time; BENCHMARK.json's run_seconds "
                             "by default")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="two interleaved sets of ten runs of every "
                             "workload")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        seconds = args.seconds or load_benchmark()["run_seconds"]
        if args.steadiness:
            return steadiness(seconds)
        if args.workload is None:
            parser.error("--workload is required")
        return run_workload(args.workload, args.seed, seconds,
                            bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        stop_all()


if __name__ == "__main__":
    sys.exit(main())
