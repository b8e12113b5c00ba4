#!/usr/bin/env python3
"""MOSS serving benchmark, one workload per invocation.

    python3 servebench/run.py --workload hot_mix --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the serving binaries and
servebench_tool from this checkout (Release, under $CARGO_TARGET_DIR or
.bench_build), trains the served checkpoint once per build, drives the
workload and prints one JSON result as the last line of stdout: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1. Exits non-zero
when an output check or a sanity check fails. README.md explains the
workloads and the metrics.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib as bl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 7  # set-ups per run, each in fresh processes; setup_s is the fastest
SERVING = SETUPS // 2  # the set-up that serves the timed phases
TARGETS = ["servebench_tool", "moss_cli", "moss_serve_bin", "moss_cluster_bin"]
SHARDS = 2
SETTLE_S = 0.5  # idle gap between warm-up and timing, for boot transients
SEGMENTS = 3  # p50 and capacity are medians over this many segments
TAIL_SEGMENTS = 5  # p99 leaves out the worst of this many segments


class BenchError(Exception):
    pass


def log(msg):
    print(f"servebench: {msg}", file=sys.stderr, flush=True)


def now_ns():
    return time.perf_counter_ns()


# --- build and provenance -----------------------------------------------------

def build():
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bdir = (out if out.is_absolute() else ROOT / out) / "servebench"
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / "build.log", "w") as logf:
        if not (bdir / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                            "-DCMAKE_BUILD_TYPE=Release"], check=True,
                           stdout=logf, stderr=subprocess.STDOUT, timeout=600)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(bdir), "-j", jobs, "--target",
                        *TARGETS], check=True, stdout=logf,
                       stderr=subprocess.STDOUT, timeout=1200)
    cache = (bdir / "CMakeCache.txt").read_text()
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M).group(1)
    if build_type != "Release":
        raise BenchError(f"refusing to measure a {build_type or 'untyped'} build")
    compiler = "unknown"
    for f in bdir.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"):
        t = f.read_text()
        cid = re.search(r'CMAKE_CXX_COMPILER_ID "(\w*)"', t)
        ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([\w.]*)"', t)
        if cid and ver:
            compiler = f"{cid.group(1)} {ver.group(1)}"
    ex = bdir / "moss_examples"
    bins = dict(tool=bdir / "servebench_tool", cli=ex / "moss_cli",
                serve=ex / "moss_serve", cluster=ex / "moss_cluster")
    return bdir, bins, dict(build_type=build_type, compiler=compiler)


def source_provenance():
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else "none"
    except OSError:
        git_sha = "none"
    h = hashlib.sha256()
    for d in ("src", "examples", HERE.name):
        for p in sorted((ROOT / d).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return dict(git_sha=git_sha, source_sha256=h.hexdigest()[:16])


def checkpoint(bdir, bins):
    """Train the served checkpoint once per build (not timed)."""
    prep = bdir / "prep"
    prep.mkdir(exist_ok=True)
    stamp = hashlib.sha256(bins["cli"].read_bytes() +
                           " ".join(bl.POOL).encode()).hexdigest()
    ckpt, stamp_file = prep / "model.ckpt", prep / "model.stamp"
    if not (ckpt.exists() and stamp_file.exists()
            and stamp_file.read_text() == stamp):
        subprocess.run([str(bins["cli"]), "train", *bl.POOL, "--save",
                        str(ckpt)], check=True, stdout=subprocess.DEVNULL,
                       cwd=prep, timeout=600)
        stamp_file.write_text(stamp)
    return ckpt


# --- process helpers ----------------------------------------------------------

def pid_alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().split(") ")[-1][0] != "Z"
    except OSError:
        return False


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


class Fleet:
    """moss_cluster --shards 2 over the pool, driven through its stdin."""

    def __init__(self, bins, ckpt, work, k):
        self.work = work
        self.err_path = work / f"cluster{k}.err"
        self.err = open(self.err_path, "wb")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(bins["cluster"]), *bl.POOL, "--shards", str(SHARDS),
             "--ckpt", str(ckpt), "--run-dir", "."],
            cwd=work, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.err, start_new_session=True)
        self.infd = self.proc.stdin.fileno()

    def shard_pids(self):
        return [int(p) for p in re.findall(
            r"shard shard\d+ pid (\d+)", self.err_path.read_text())]

    def wait_ready(self, timeout=120):
        """Shards bind their sockets after the model is loaded."""
        socks = [self.work / f"moss_shard{i}_{self.proc.pid}.sock"
                 for i in range(SHARDS)]
        deadline = time.perf_counter() + timeout
        while not all(s.exists() for s in socks):
            if self.proc.poll() is not None:
                raise BenchError("moss_cluster exited during boot")
            if time.perf_counter() > deadline:
                raise BenchError("fleet did not come up")
            time.sleep(0.002)

    def send(self, line):
        os.write(self.infd, (line + "\n").encode())

    def recv(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("moss_cluster closed its output")
        return line.decode().rstrip("\n")

    def call(self, line):
        self.send(line)
        return self.recv()

    def router_metrics(self):
        lines = [self.call("METRICS")]
        while lines[-1] != ".":
            lines.append(self.recv())
        return {m.group(1): float(m.group(2)) for m in
                re.finditer(r"^router_(\w+) (\d+)$", "\n".join(lines), re.M)}

    def quit(self):
        """Graceful shutdown; returns the shards' final metrics dumps."""
        if self.call("QUIT") != "OK BYE":
            raise BenchError("QUIT was not acknowledged")
        self.proc.wait(timeout=60)
        self.close()
        return self.err_path.read_text()

    def close(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pid in self.shard_pids():  # shards live in their own groups
            if pid_alive(pid):
                os.kill(pid, signal.SIGKILL)
        deadline = time.perf_counter() + 15
        while any(pid_alive(p) for p in self.shard_pids()):
            if time.perf_counter() > deadline:
                raise BenchError("shard processes did not exit")
            time.sleep(0.01)
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.err.close()


def open_loop(fleet, reqs):
    """Send each request at its due time from a sender thread; this thread
    reads the in-order responses. Returns [due, sent, recv, line] per
    request, times in perf_counter ns."""
    recs = [[0, 0, 0, ""] for _ in reqs]
    t0 = now_ns() + 20_000_000
    failure = []

    def sender():
        try:
            for i, r in enumerate(reqs):
                due = t0 + r["due_us"] * 1000
                wait = due - now_ns()
                if wait > 0:
                    time.sleep(wait / 1e9)
                recs[i][0], recs[i][1] = due, now_ns()
                fleet.send(f"{r['kind']} {r['design']}")
        except OSError as e:
            failure.append(e)

    th = threading.Thread(target=sender)
    th.start()
    try:
        for rec in recs:
            rec[3] = fleet.recv()
            rec[2] = now_ns()
    finally:
        th.join()
    if failure:
        raise BenchError(f"sender failed: {failure[0]}")
    return recs


def saturate(send, recv, reqs, window):
    """Keep `window` requests outstanding; returns the records."""
    slots = threading.Semaphore(window)
    recs = [[0, 0, 0, ""] for _ in reqs]
    stop = []

    def sender():
        for i, r in enumerate(reqs):
            slots.acquire()
            if stop:
                return
            recs[i][0] = recs[i][1] = now_ns()
            send(f"{r['kind']} {r['design']}")

    th = threading.Thread(target=sender)
    th.start()
    try:
        for rec in recs:
            rec[3] = recv()
            rec[2] = now_ns()
            slots.release()
    finally:
        stop.append(True)
        for _ in range(window + len(reqs)):
            slots.release()
        th.join()
    return recs


# --- workloads ------------------------------------------------------------------

def by_phase(reqs):
    out = {}
    for r in reqs:
        out.setdefault(r["phase"], []).append(r)
    return out


def latency_us_of(line):
    m = re.search(r" latency_us=(\d+)", line)
    return float(m.group(1)) if m else math.nan


def cluster_run(workload, bins, ckpt, work, reqs):
    """Set up SETUPS fleets one after another, each answering the warm-up.
    Fleet SERVING then runs the open-loop and saturation phases; the others
    shut down after the warm-up and leave their metrics as the warm-up
    baseline. The fleets after SERVING boot once the timed phases are over.
    A set-up's speed varies with the host's moment and with the process
    (one process can run up to 60% slower than the next for its whole life),
    so setup_s takes the fastest of fresh processes spread over the run."""
    ph = by_phase(reqs)
    w = bl.WORKLOADS[workload]
    res = dict(setup_s=[], baselines=[], phases={}, outputs=[])
    fleets = []
    try:
        for k in range(SETUPS):
            fleet = Fleet(bins, ckpt, work, k)
            fleets.append(fleet)
            fleet.wait_ready()
            for i, r in enumerate(ph["warm"]):
                line = fleet.call(f"{r['kind']} {r['design']}")
                if i == 0:
                    res["setup_s"].append(time.perf_counter() - fleet.t0)
                res["outputs"].append((r["kind"], r["design"], line))
            if k != SERVING:
                res["baselines"].append(bl.parse_shard_dumps(fleet.quit()))
                continue
            time.sleep(SETTLE_S)
            res["phases"]["open"] = open_loop(fleet, ph["open"])
            res["phases"]["capacity"] = saturate(fleet.send, fleet.recv,
                                                 ph["capacity"], w["window"])
            res["router"] = fleet.router_metrics()
            res["rss_mb"] = sum(vm_hwm_mb(p) for p in [fleet.proc.pid] + fleet.shard_pids())
            res["final"] = bl.parse_shard_dumps(fleet.quit())
    finally:
        for f in fleets:
            f.close()
    with open(work / "records.tsv", "w") as f:
        for phase, recs in res["phases"].items():
            for i, (r, rec) in enumerate(zip(ph[phase], recs)):
                res["outputs"].append((r["kind"], r["design"], rec[3]))
                f.write(f"{phase}\t{i}\t{r['kind']}\t{r['design']}\t{rec[0]}\t"
                        f"{rec[1]}\t{rec[2]}\t{rec[3]}\n")
    return res


def serve_reference(bins, ckpt, work, keys):
    """Answers of a moss_serve process (stdin mode) for (kind, design) keys."""
    lines = "".join(f"{k} {d}\n" for k, d in keys) + "QUIT\n"
    out = subprocess.run([str(bins["serve"]), *bl.POOL, "--ckpt", str(ckpt)],
                         input=lines, capture_output=True, text=True,
                         cwd=work, timeout=120, check=True).stdout.splitlines()
    if len(out) != len(keys) + 1:
        raise BenchError("moss_serve answered a different number of lines")
    return {key: bl.strip_latency(line) for key, line in zip(keys, out)}


def tool_info(bins, ckpt, work):
    """One timed in-process set-up in a fresh process, and the model shape."""
    return json.loads(subprocess.run(
        [str(bins["tool"]), "info", str(ckpt), "pool.txt"], check=True,
        cwd=work, capture_output=True, text=True, timeout=120).stdout)


def inproc_run(bins, ckpt, work, reqs):
    """SETUPS set-ups, each in a fresh process like the fleets: SERVING
    before the run, the run's own (which serves) and the rest after it."""
    setups = [tool_info(bins, ckpt, work) for _ in range(SERVING)]
    subprocess.run([str(bins["tool"]), "inproc", str(ckpt), "pool.txt",
                    "requests.tsv", "."], check=True, cwd=work,
                   timeout=170)
    summary = json.loads((work / "summary.json").read_text())
    setups += [summary] + [tool_info(bins, ckpt, work)
                           for _ in range(SETUPS - SERVING - 1)]
    ph = by_phase(reqs)
    res = dict(setup_s=[u["setup_s"] for u in setups], setups=setups,
               phases={}, outputs=[], summary=summary)
    recs = {}
    for row in (work / "records.tsv").read_text().splitlines():
        phase, i, kind, design, due, sent, done, lat, ok, payload = row.split("\t", 9)
        if payload.startswith("OK "):
            payload += f" latency_us={float(lat):.0f}"
        recs.setdefault(phase, []).append(
            [int(due), int(sent), int(done), payload])
        res["outputs"].append((kind, design, payload))
    for phase in ("open", "capacity"):
        res["phases"][phase] = recs[phase]
    res["rss_mb"] = summary["rss_peak_mb"] - summary["rss_base_mb"]
    # The session must be the one the shards serve: compare against a
    # moss_serve process on every pool design and a spread of new ones.
    sample = [(r["kind"], r["design"]) for r in ph["warm"][::4]]
    sample += [(r["kind"], r["design"]) for r in ph["open"][::max(1, len(ph["open"]) // 24)]]
    res["reference"] = serve_reference(bins, ckpt, work, sample)
    return res


def replay(bins, ckpt, work, inproc):
    cmd = [str(bins["tool"]), "replay", str(ckpt), "pool.txt", "replay.tsv",
           "replay"]
    (work / "replay").mkdir()
    subprocess.run(cmd + (["--resolve-ahead"] if inproc else []), check=True,
                   cwd=work, timeout=170)
    rdir = work / "replay"
    spans = []
    for row in (rdir / "spans.tsv").read_text().splitlines():
        sid, parent, rid, phase, name, start, end = row.split("\t")
        spans.append(dict(id=int(sid), parent=int(parent), rid=int(rid),
                          phase=phase, name=name, start=int(start),
                          end=int(end)))
    payloads = {}
    for row in (rdir / "payloads.tsv").read_text().splitlines():
        kind, design, payload = row.split("\t")
        payloads[(kind, design)] = bl.strip_latency(payload)
    gnn = [row.split("\t") for row in (rdir / "gnn.tsv").read_text().splitlines()]
    return dict(spans=spans, payloads=payloads, gnn=gnn,
                summary=json.loads((rdir / "summary.json").read_text()))


# --- metrics ------------------------------------------------------------------------

CALL_LAYERS = ["data.label_module", "rtl.parse", "synth.synthesize",
               "sim.activity", "sta.timing", "power.analyze", "sat.label_proof",
               "core.build_batch", "lm.rtl_embedding", "gnn.propagate",
               "core.heads", "core.rank_score", "sat.verify"]
RESOLUTION = ["rtl.parse", "data.label_module"]
COMPUTE = ["core.build_batch", "gnn.propagate", "core.heads", "power.analyze",
           "lm.rtl_embedding", "core.rank_score"]
SHARE_LAYERS = ["client.lateness", "cluster.hop", "serve.engine"] + RESOLUTION + COMPUTE

PER_LAYER_UNITS = {
    "cluster.hop_us.p50": "us", "cluster.hop_us.p99": "us",
    "cluster.failovers": "count", "cluster.retries": "count",
    "serve.engine.latency_us.p50": "us", "serve.engine.wait_us.p50": "us",
    "serve.engine.batch_size_mean": "count",
    "serve.engine.fused_requests_per_batch": "count",
    "serve.engine.shed": "count", "serve.cache.hit_ratio": "fraction",
    "serve.cache.inserts": "count", "serve.cache.evictions": "count",
    **{f"{n}_us": "us" for n in CALL_LAYERS},
    "data.resolutions_per_request": "count", "gnn.nodes_per_request": "count",
    "tensor.gemm_flops_per_request": "flop", "tensor.gemm_gflops": "GFLOP/s",
    "setup.label_pool_s": "s", "setup.session_load_s": "s",
    "client.lateness_us.p50": "us", "client.lateness_us.p99": "us",
    "trace.p50_ms": "ms",
    "trace.unattributed_share": "fraction",
    **{f"share.{n}": "fraction" for n in SHARE_LAYERS},
}


def latencies_ms(recs):
    return [(r[2] - r[0]) / 1e6 if r[3].startswith("OK ") else math.inf
            for r in recs]


def finite(x, fallback):
    return x if math.isfinite(x) else fallback


def engine_counters(res, inproc):
    """Engine and cache counters over the timed phases."""
    if inproc:
        keys = ["batches", "batched_requests", "fused_batches", "fused_units",
                "shed", "cache_hits", "cache_misses", "cache_inserts",
                "cache_evictions"]
        c = {k: 0.0 for k in keys}
        for phase, v in res["summary"]["phases"].items():
            if phase != "warm":
                for k in keys:
                    c[k] += v["engine"][k]
        return dict(batches=c["batches"], batched=c["batched_requests"],
                    fused_batches=c["fused_batches"],
                    fused_units=c["fused_units"], shed=c["shed"],
                    hits=c["cache_hits"], misses=c["cache_misses"],
                    inserts=c["cache_inserts"], evictions=c["cache_evictions"])
    d = bl.delta(res["final"][0], res["baselines"][0][0])
    d["inserts"] = d["entries"] + d["evictions"]  # METRICS has no insert count
    return d


def fused_per_batch(c):
    """Circuits stacked per fused propagation (the METRICS occupancy); 0
    when the timed phases propagated nothing."""
    return c["fused_units"] / c["fused_batches"] if c["fused_batches"] else 0.0


def attribute(phase_recs, rspans, phase):
    """Per request of a phase: benchmark-side spans (client measurements plus
    replayed layer durations laid out inside them) and their self times.
    Returns (spans, sums of self time per layer, summed latency, waits)."""
    roots = {s["rid"]: s for s in rspans
             if s["phase"] == phase and s["name"] == "replay.request"}
    kids = {}
    for s in rspans:
        kids.setdefault(s["parent"], []).append(s)
    spans, sums, total, waits = [], {n: 0 for n in SHARE_LAYERS}, 0, []
    for rid, (due, sent, recv, line) in enumerate(phase_recs):
        root = roots.get(rid)
        eng_ns = int(latency_us_of(line) * 1000)
        if root is None or not line.startswith("OK "):
            continue
        children = kids.get(root["id"], [])
        base = len(spans)
        spans += [dict(id=base, parent=-1, rid=rid, name="request", start=due, end=recv),
                  dict(id=base + 1, parent=base, rid=rid, name="client.lateness",
                       start=due, end=sent),
                  dict(id=base + 2, parent=base, rid=rid, name="cluster.hop",
                       start=sent, end=recv),
                  dict(id=base + 3, parent=base + 2, rid=rid, name="serve.engine",
                       start=recv - eng_ns, end=recv)]
        t_res, t_eng, compute = sent, recv - eng_ns, 0
        for c in children:
            dur = c["end"] - c["start"]
            if c["name"] in RESOLUTION:
                spans.append(dict(id=len(spans), parent=base + 2, rid=rid,
                                  name=c["name"], start=t_res, end=t_res + dur))
                t_res += dur
            elif c["name"] in COMPUTE:
                spans.append(dict(id=len(spans), parent=base + 3, rid=rid,
                                  name=c["name"], start=t_eng, end=t_eng + dur))
                t_eng += dur
                compute += dur
        waits.append((eng_ns - compute) / 1e3)
        total += recv - due
    selfs = bl.self_times(spans)
    for s in spans:
        if s["name"] in sums:
            sums[s["name"]] += selfs[s["id"]]
    return spans, sums, total, waits


def per_layer(workload, res, rep, counters, work):
    inproc = bl.WORKLOADS[workload]["transport"] == "inproc"
    m, samples = {}, {}
    recs = res["phases"]["open"]
    ok = [r for r in recs if r[3].startswith("OK ")]
    eng = [latency_us_of(r[3]) for r in ok]
    hop = [(r[2] - r[1]) / 1e3 - e for r, e in zip(ok, eng)]
    late = [(r[1] - r[0]) / 1e3 for r in recs]
    for name, vals in (("cluster.hop_us", hop), ("client.lateness_us", late)):
        s = bl.latency_summary(vals)
        m[f"{name}.p50"], m[f"{name}.p99"] = s["p50"], s["tail"]
        samples[name] = dict(n=s["n"], tail_quantile=s["tail_q"])
    router = res.get("router", {})
    m["cluster.failovers"] = router.get("failovers", 0.0)
    m["cluster.retries"] = router.get("transport_retries", 0.0)
    m["serve.engine.latency_us.p50"] = bl.percentile(eng, 0.5)
    samples["serve.engine.latency_us"] = dict(n=len(eng))
    c = counters
    m["serve.engine.batch_size_mean"] = c["batched"] / max(1.0, c["batches"])
    m["serve.engine.fused_requests_per_batch"] = fused_per_batch(c)
    m["serve.engine.shed"] = c["shed"]
    m["serve.cache.hit_ratio"] = c["hits"] / max(1.0, c["hits"] + c["misses"])
    m["serve.cache.inserts"] = c["inserts"]
    m["serve.cache.evictions"] = c["evictions"]

    spans = rep["spans"]
    for name in CALL_LAYERS:
        durs = [(s["end"] - s["start"]) / 1e3 for s in spans if s["name"] == name]
        m[f"{name}_us"] = bl.percentile(durs, 0.5) if durs else 0.0
        samples[f"{name}_us"] = dict(n=len(durs), statistic="median per call")
    n_req = len(recs)
    resolutions = sum(1 for s in spans if s["phase"] == "open"
                      and s["name"] == "data.label_module")
    m["data.resolutions_per_request"] = resolutions / n_req
    gnn_open = [g for g in rep["gnn"] if g[1] == "open"]
    m["gnn.nodes_per_request"] = sum(int(g[2]) for g in gnn_open) / n_req
    m["tensor.gemm_flops_per_request"] = sum(float(g[3]) for g in gnn_open) / n_req
    s = rep["summary"]
    m["tensor.gemm_gflops"] = s["gemm_timed_flops"] / max(1e-12, s["gemm_timed_s"]) / 1e9
    samples["gnn.propagate_runs"] = dict(n=len(rep["gnn"]), open=len(gnn_open))
    if inproc:
        m["setup.label_pool_s"] = statistics.median(u["label_pool_s"] for u in res["setups"])
        m["setup.session_load_s"] = statistics.median(u["session_load_s"] for u in res["setups"])
    else:
        m["setup.label_pool_s"] = s["label_pool_s"]
        m["setup.session_load_s"] = s["session_load_s"]

    tspans, sums, total, waits = attribute(recs, spans, "open")
    m["serve.engine.wait_us.p50"] = bl.percentile(waits, 0.5)
    for name in SHARE_LAYERS:
        m[f"share.{name}"] = sums[name] / max(1, total)
    # Time known only as a remainder: the hop's self time (router, sockets,
    # protocol; the in-process hand-off on inproc_burst) and the engine's
    # (queue wait and dispatch outside the replayed layer calls).
    m["trace.unattributed_share"] = m["share.cluster.hop"] + m["share.serve.engine"]
    m["trace.p50_ms"] = bl.percentile(latencies_ms(recs), 0.5)
    # The spans are built after the timed phases from timestamps every run
    # records, so nothing is traced on the timed path.
    samples["trace"] = dict(requests=n_req, attributed=len(waits), overhead_ms=0.0)
    with open(work / "spans.tsv", "w") as f:
        for sp in tspans + [dict(sp, name="replay:" + sp["name"]) for sp in spans]:
            f.write(f"{sp['id']}\t{sp['parent']}\t{sp['rid']}\t{sp['name']}\t"
                    f"{sp['start']}\t{sp['end']}\n")
    return m, samples


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(bl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    workload, trace = args.workload, bool(args.trace)
    w = bl.WORKLOADS[workload]
    inproc = w["transport"] == "inproc"

    bdir, bins, build_info = build()
    ckpt = checkpoint(bdir, bins)
    work = bdir / "runs" / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "v").mkdir(parents=True)
    reqs, specs = bl.make_inputs(workload, args.seed, args.seconds)
    (work / "pool.txt").write_text("".join(p + "\n" for p in bl.POOL))
    (work / "requests.tsv").write_text(bl.requests_tsv(
        [r for r in reqs if r["phase"] != "verify"]))
    (work / "specs.tsv").write_text(bl.specs_tsv(specs))
    subprocess.run([str(bins["tool"]), "gen", "specs.tsv", "v"], check=True,
                   cwd=work, timeout=120)

    gc.disable()  # no collector pauses inside the timed phases
    res = (inproc_run(bins, ckpt, work, reqs) if inproc else
           cluster_run(workload, bins, ckpt, work, reqs))
    gc.enable()

    # Output checks: identical payload per (kind, design) across repeats
    # and set-ups, against moss_serve (inproc) or the replay (trace).
    rep = None
    problems, canonical = bl.check_outputs(res["outputs"], res.get("reference"))
    if trace:
        (work / "replay.tsv").write_text(bl.requests_tsv(
            [r for r in reqs if r["phase"] in ("warm", "open", "verify")]))
        rep = replay(bins, ckpt, work, inproc)
        more, _ = bl.check_outputs(res["outputs"], rep["payloads"])
        problems += more
    digest_keys = {(r["kind"], r["design"]) for r in reqs
                   if r["phase"] in ("warm", "open", "capacity")}
    digest = bl.output_digest({k: v for k, v in canonical.items() if k in digest_keys})

    timed = res["phases"]["open"] + res["phases"]["capacity"]
    attempted = len(timed)
    failed = sum(1 for r in timed if not r[3].startswith("OK "))
    open_recs = res["phases"]["open"]
    lat = bl.trimmed_tail(latencies_ms(open_recs), TAIL_SEGMENTS)
    p50 = bl.segmented_median(latencies_ms(open_recs), SEGMENTS)
    wall_ms = (open_recs[-1][2] - open_recs[0][0]) / 1e6
    cap = res["phases"]["capacity"]
    capacity_rps = bl.segmented_rate([cap[0][1]] + [r[2] for r in cap], SEGMENTS)
    late = bl.latency_summary([(r[1] - r[0]) / 1e6 for r in open_recs])
    counters = engine_counters(res, inproc)

    # Sanity: each workload still exercises the layer it exists for.
    sanity = {}
    if workload == "hot_mix":
        ratio = counters["hits"] / max(1.0, counters["hits"] + counters["misses"])
        sanity["cache_hit_ratio"] = (round(ratio, 4), ratio >= 0.999)
        sanity["cache_misses_after_warmup"] = (counters["misses"], counters["misses"] == 0)
        warm = [b[0] for b in res["baselines"]]
        same = all((b["hits"], b["misses"]) == (warm[0]["hits"], warm[0]["misses"])
                   for b in warm)
        sanity["warmup_deterministic"] = (same, same)
    elif workload == "novel_designs":
        # The shards' own counters: every request missed the cache, so each
        # new design was resolved and embedded rather than served from a
        # result of another request.
        sanity["cache_misses_per_request"] = (
            round(counters["misses"] / attempted, 3), counters["misses"] >= attempted)
        sanity["cache_inserts_per_request"] = (
            round(counters["inserts"] / attempted, 3), counters["inserts"] >= attempted)
    else:
        fused = fused_per_batch(counters)
        sanity["fused_requests_per_batch"] = (round(fused, 3), fused > 1.0)
    bad = [k for k, (_, good) in sanity.items() if not good]
    # Latency counts from the due time, so a late generator does not hide
    # queueing; a run beyond the lateness bound is marked, not failed.
    open_loop_valid = (late["p50"] <= bl.LATENESS_BOUND_MS["p50"]
                       and late["tail"] <= bl.LATENESS_BOUND_MS["p99"])

    hidden_rounds = res["summary"] if inproc else tool_info(bins, ckpt, work)
    provenance = dict(
        workload=workload, seed=args.seed, seconds=args.seconds, trace=trace,
        nproc=os.cpu_count(), **build_info, **source_provenance(),
        model=dict(hidden=hidden_rounds["hidden"], rounds=hidden_rounds["rounds"]),
        pool_size=len(bl.POOL), offered_rps=w["rate"],
        transport="InferenceEngine::submit" if inproc else f"moss_cluster --shards {SHARDS}",
        samples=dict(latency=len(open_recs), p50_segments=SEGMENTS,
                     tail=lat["n"], tail_quantile=lat["tail_q"],
                     tail_segments_dropped=f"1 of {TAIL_SEGMENTS}", capacity=len(cap),
                     setups=len(res["setup_s"])),
        output_digest=digest, error_rate=failed / attempted,
        generator_lateness_ms=dict(p50=late["p50"], p99=late["tail"],
                                   bound=bl.LATENESS_BOUND_MS),
        open_loop_valid=open_loop_valid)
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print("sanity: " + json.dumps({k: dict(value=v, ok=g) for k, (v, g) in sanity.items()}))
    for p in problems[:20]:
        log(f"output check: {p}")
    if not open_loop_valid:
        log("open loop invalid: the generator ran later than its bound")

    if trace:
        metrics, samples = per_layer(workload, res, rep, counters, work)
        print("samples: " + json.dumps(samples, sort_keys=True))
        out = {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        out = {
            "setup_s": {"value": min(res["setup_s"]), "unit": "s"},
            "p50_ms": {"value": finite(p50, wall_ms), "unit": "ms"},
            "p99_ms": {"value": finite(lat["tail"], wall_ms), "unit": "ms"},
            "capacity_rps": {"value": capacity_rps, "unit": "1/s"},
            "success_rate": {"value": 1.0 - failed / attempted, "unit": "fraction"},
            "rss_mb": {"value": res["rss_mb"], "unit": "MB"},
        }
    correct = not problems and not bad and failed == 0
    if not correct:
        log(f"run failed its checks: {len(problems)} output problem(s), "
            f"sanity failures {bad}, {failed} failed request(s)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log(f"error: {e}")
        sys.exit(2)
