"""Pure helpers of the serving benchmark: seeded inputs, percentiles,
output checks, shard metric parsing and span attribution. run.py does the
process work; selftest.py checks these functions."""

import hashlib
import math
import random
import re

# data::families(), in registry order.
FAMILIES = [
    "alu", "arbiter", "crc", "ctrl_fsm", "error_logger", "fifo_ctrl",
    "gray_counter", "max_selector", "mult", "pipeline_reg", "prbs_generator",
    "shift_reg", "signed_mac", "wb_data_mux",
]
# The served pool: 24 generated designs, every family at size 1 and the
# first ten at size 2. The checkpoint is trained on exactly this list.
POOL = [f"{f}:1" for f in FAMILIES] + [f"{f}:2" for f in FAMILIES[:10]]
KINDS = ["ATP", "TRP", "EMBED", "RANK"]
# New designs: every family at sizes 1-3. Size 4 is left out on purpose:
# one mult:4 takes 25-60 ms to resolve on the serial router path, and with
# it p99 over seeds spread by ~0.3 of its median.
SHAPES = [(f, s) for f in FAMILIES for s in (1, 2, 3)]

# Workload shapes. Phase lengths scale with --seconds; counts are fixed per
# second so every seed sends the same number of requests.
WORKLOADS = {
    # Warm repeat traffic over the pool through moss_cluster --shards 2.
    "hot_mix": dict(
        transport="cluster", rate=150.0, open_share=1.0, capacity_per_s=100,
        window=8, mix={"ATP": 35, "TRP": 25, "EMBED": 15, "RANK": 25},
        new_designs=False, verify_share=0.0),
    # Every request names a never-seen .v file; same fleet.
    "novel_designs": dict(
        transport="cluster", rate=30.0, open_share=1.0, capacity_per_s=40,
        window=8, mix={"RANK": 40, "ATP": 30, "TRP": 20, "EMBED": 10},
        new_designs=True, verify_share=0.1),
    # InferenceEngine::submit in process, bursts of 8 at 25 bursts/s.
    "inproc_burst": dict(
        transport="inproc", rate=200.0, open_share=0.6, capacity_per_s=400,
        window=32, mix={"EMBED": 25, "ATP": 25, "RANK": 50},
        new_designs=True, verify_share=0.0, burst=8),
}

# Open-loop validity: a run whose generator ran later than this is marked
# invalid in its provenance.
LATENESS_BOUND_MS = {"p50": 1.0, "p99": 10.0}


def phase_sizes(workload, seconds):
    w = WORKLOADS[workload]
    open_s = w["open_share"] * seconds
    return int(round(w["rate"] * open_s)), int(round(w["capacity_per_s"] * seconds))


def stratified(rng, weights, n):
    """n draws in exact proportion to `weights` (largest remainder), in
    seeded random order: every seed sends the same mix."""
    total = sum(weights.values())
    counts = {k: n * w // total for k, w in weights.items()}
    rest = sorted(weights, key=lambda k: (-(n * weights[k] % total), k))
    for k in rest[:n - sum(counts.values())]:
        counts[k] += 1
    out = [k for k in weights for _ in range(counts[k])]
    rng.shuffle(out)
    return out


def blocks(rng, items, n):
    """n items from consecutive shuffled copies of `items`, so each block of
    len(items) requests holds every item once."""
    out = []
    while len(out) < n:
        block = list(items)
        rng.shuffle(block)
        out += block
    return out[:n]


def make_inputs(workload, seed, seconds):
    """Seeded inputs of one run: (requests, specs).

    requests: dicts with phase, kind, design, design_b, due_us. Phases are
    warm (every pool design x kind once, sequential), open (open loop),
    capacity (saturation) and verify (VERIFY pairs, replayed in process
    only). A traced run sends exactly the inputs of an untraced one.
    specs: (name, family, size, seed) of every new design, written to
    v/<name>.v by servebench_tool gen.
    """
    w = WORKLOADS[workload]
    n_open, n_cap = phase_sizes(workload, seconds)
    reqs = [dict(phase="warm", kind=k, design=d, design_b="-", due_us=0)
            for d in POOL for k in KINDS]
    specs = []
    for phase, n in (("open", n_open), ("capacity", n_cap)):
        rng = random.Random(f"{workload}:{seed}:{phase}")
        kinds = stratified(rng, w["mix"], n)
        picks = blocks(rng, SHAPES if w["new_designs"] else POOL, n)
        t = 0.0
        for i, (kind, pick) in enumerate(zip(kinds, picks)):
            if phase != "capacity":
                if "burst" in w:
                    t = (i // w["burst"]) * w["burst"] / w["rate"]
                else:
                    t += rng.expovariate(w["rate"])
            if w["new_designs"]:
                name = f"{phase}{seed}_{i:05d}"
                specs.append((name, *pick, rng.getrandbits(32)))
                d = f"v/{name}.v"
            else:
                d = pick
            reqs.append(dict(phase=phase, kind=kind, design=d, design_b="-",
                             due_us=int(t * 1e6) if phase != "capacity" else 0))
            if phase != "capacity" and rng.random() < w["verify_share"]:
                reqs.append(dict(phase="verify", kind="VERIFY", design=d,
                                 design_b=rng.choice(POOL), due_us=0))
    if not w["verify_share"]:
        # No request-borne VERIFY pairs: time the oracle on pool neighbours.
        reqs += [dict(phase="verify", kind="VERIFY", design=a, design_b=b,
                      due_us=0) for a, b in zip(POOL, POOL[1:] + POOL[:1])]
    return reqs, specs


def requests_tsv(reqs):
    return "".join(f"{r['phase']}\t{r['kind']}\t{r['design']}\t{r['design_b']}"
                   f"\t{r['due_us']}\n" for r in reqs)


def specs_tsv(specs):
    return "".join(f"{n}\t{f}\t{s}\t{sd}\n" for n, f, s, sd in specs)


# --- percentiles ------------------------------------------------------------

def percentile(values, q):
    """Linear-interpolated quantile q in [0, 1]; inside [min, max] always."""
    if not values:
        raise ValueError("percentile of no samples")
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(v) - 1)
    if pos == lo or v[lo] == v[hi]:  # also keeps inf - inf out
        return v[lo]
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail_quantile(n, target=0.99, beyond=10):
    """The highest quantile up to `target` with >= `beyond` samples above
    it, or None when there are too few samples for any."""
    if n <= beyond:
        return None
    return min(target, 1.0 - beyond / n)


def latency_summary(values):
    """Median and tail of per-request latencies. Failed requests are passed
    as math.inf: they miss every limit."""
    q = tail_quantile(len(values))
    return dict(p50=percentile(values, 0.5),
                tail=percentile(values, q) if q else max(values),
                tail_q=q, n=len(values))


def chunks(items, k):
    """k contiguous, nearly equal parts of a list."""
    n = len(items)
    return [items[i * n // k:(i + 1) * n // k] for i in range(k)]


def segmented_median(values, k):
    """Median over k contiguous segments of each segment's median: a slow
    spell of the host that covers less than half of the phase cannot move
    it."""
    return sorted(percentile(c, 0.5) for c in chunks(values, k))[k // 2]


def trimmed_tail(values, k):
    """latency_summary of the values without the worst of k contiguous
    segments (the one with the highest tail). A host stall confined to one
    segment cannot set the tail; a regression that slows requests in more
    than one segment still shows."""
    segs = chunks(values, k)
    tails = [latency_summary(c)["tail"] for c in segs]
    worst = tails.index(max(tails))
    return latency_summary([v for i, c in enumerate(segs) if i != worst for v in c])


def segmented_rate(done_ns, k):
    """Median over k contiguous chunks of completions per second; each
    chunk spans from the previous chunk's last completion (the first from
    the first send, done_ns[0])."""
    start, rates = done_ns[0], []
    for c in chunks(done_ns[1:], k):
        end = max(c)
        rates.append(len(c) / ((end - start) / 1e9))
        start = end
    return sorted(rates)[k // 2]


# --- outputs ------------------------------------------------------------------

_LATENCY = re.compile(r" latency_us=\d+")


def strip_latency(payload):
    return _LATENCY.sub("", payload, count=1)


def check_outputs(records, reference=None):
    """Byte-identity of responses per (kind, design).

    records: iterable of (kind, design, payload) from one run. Every payload
    of a key must match after stripping latency_us, every payload must be OK,
    and keys present in `reference` (a
    dict key -> stripped payload, e.g. from the in-process replay) must match
    it. Returns (problems, canonical) with canonical: key -> payload.
    """
    problems, canonical = [], {}
    for kind, design, payload in records:
        p = strip_latency(payload)
        if not p.startswith("OK "):
            problems.append(f"{kind} {design}: {p[:120]}")
            continue
        key = (kind, design)
        if key in canonical and canonical[key] != p:
            problems.append(f"{kind} {design}: repeat differs")
        canonical.setdefault(key, p)
    for key, ref in (reference or {}).items():
        if key in canonical and canonical[key] != ref:
            problems.append(f"{key[0]} {key[1]}: differs from reference: "
                            f"{canonical[key][:80]} vs {ref[:80]}")
    return problems, canonical


def output_digest(canonical):
    h = hashlib.sha256()
    for (kind, design), payload in sorted(canonical.items()):
        h.update(f"{kind}\t{design}\t{payload}\n".encode())
    return h.hexdigest()[:16]


# --- shard metrics --------------------------------------------------------------

_SHARD_FIELDS = {
    "ok": r"serve: (\d+) ok",
    "errors": r"serve: \d+ ok, (\d+) err",
    "batches": r"batches (\d+) \(mean size",
    "mean_batch": r"\(mean size ([\d.]+)\)",
    "shed": r"health: \S+ (\d+) shed",
    "fused_batches": r"fused: (\d+) batches",
    "fused_occupancy": r"\(mean occupancy ([\d.]+)\)",
    "hits": r"cache: (\d+) hits",
    "misses": r"cache: \d+ hits, (\d+) misses",
    "evictions": r"(\d+) evictions",
    "entries": r"oversize, (\d+) entries",
}


def parse_shard_dumps(text):
    """Sum the metrics_text() blocks every moss_serve shard prints to
    stderr on shutdown. Returns (totals, number of blocks)."""
    blocks = re.split(r"(?m)^(?=serve: \d+ ok)", text)[1:]
    totals = {k: 0.0 for k in _SHARD_FIELDS}
    totals["batched"] = totals["fused_units"] = 0.0
    for b in blocks:
        vals = {}
        for k, pat in _SHARD_FIELDS.items():
            m = re.search(pat, b)
            if not m:
                raise ValueError(f"shard metrics block lacks {k}")
            vals[k] = float(m.group(1))
        for k, v in vals.items():
            totals[k] += v
        totals["batched"] += vals["batches"] * vals["mean_batch"]
        totals["fused_units"] += vals["fused_batches"] * vals["fused_occupancy"]
    return totals, len(blocks)


def delta(after, before):
    return {k: after[k] - before.get(k, 0.0) for k in after}


# --- spans ---------------------------------------------------------------------

def self_times(spans):
    """Self time per span id: duration minus the union of its children's
    intervals (clipped to the parent). spans: dicts id, parent, start, end."""
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0, None, None
        for c in sorted(kids.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], s["start"]), min(c["end"], s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
