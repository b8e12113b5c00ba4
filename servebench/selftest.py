#!/usr/bin/env python3
"""Self-tests of the serving benchmark's own code.

    python3 servebench/selftest.py

Builds servebench_tool if needed (the .v determinism test runs it)."""

import math
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib as bl  # noqa: E402
import run  # noqa: E402


class Inputs(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        for w in bl.WORKLOADS:
            a = bl.make_inputs(w, 7, 3)
            b = bl.make_inputs(w, 7, 3)
            self.assertEqual(bl.requests_tsv(a[0]), bl.requests_tsv(b[0]))
            self.assertEqual(bl.specs_tsv(a[1]), bl.specs_tsv(b[1]))
            c = bl.make_inputs(w, 8, 3)
            self.assertNotEqual(bl.requests_tsv(a[0]), bl.requests_tsv(c[0]))

    def test_mix_is_exact(self):
        reqs, specs = bl.make_inputs("novel_designs", 1, 4)
        kinds = [r["kind"] for r in reqs if r["phase"] == "open"]
        n_open, _ = bl.phase_sizes("novel_designs", 4)
        for kind, share in bl.WORKLOADS["novel_designs"]["mix"].items():
            self.assertEqual(kinds.count(kind), n_open * share / 100)
        self.assertEqual(len({s[0] for s in specs}), len(specs))

    def test_same_seed_same_verilog(self):
        bdir, bins, _ = run.build()
        _, specs = bl.make_inputs("novel_designs", 5, 1)
        tmp = Path(tempfile.mkdtemp(dir=bdir))
        try:
            (tmp / "specs.tsv").write_text(bl.specs_tsv(specs[:40]))
            for out in ("a", "b"):
                (tmp / out).mkdir()
                subprocess.run([str(bins["tool"]), "gen", "specs.tsv", out],
                               check=True, cwd=tmp, timeout=60)
            names = sorted(p.name for p in (tmp / "a").iterdir())
            self.assertEqual(len(names), 40)
            for n in names:
                self.assertEqual((tmp / "a" / n).read_bytes(),
                                 (tmp / "b" / n).read_bytes())
        finally:
            shutil.rmtree(tmp)


class Percentiles(unittest.TestCase):
    def test_within_sample_range(self):
        rng = random.Random(1)
        for _ in range(200):
            vals = [rng.lognormvariate(0, 2) for _ in range(rng.randint(1, 60))]
            for q in (0.0, 0.01, 0.5, 0.9, 0.99, 1.0):
                p = bl.percentile(vals, q)
                self.assertGreaterEqual(p, min(vals))
                self.assertLessEqual(p, max(vals))

    def test_tail_has_ten_samples_beyond(self):
        for n in (11, 50, 200, 999, 1000, 5000):
            q = bl.tail_quantile(n)
            vals = list(range(n))
            beyond = sum(1 for v in vals if v > bl.percentile(vals, q))
            self.assertGreaterEqual(beyond, 10, n)
            # The highest such quantile: a step further leaves fewer than 10.
            if q < 0.99:
                self.assertLess(n * (1 - q) - 1, 10)
        self.assertEqual(bl.tail_quantile(1000), 0.99)
        self.assertIsNone(bl.tail_quantile(10))

    def test_segments_outvote_a_slow_spell(self):
        fast, slow = [1.0] * 100, [9.0] * 100
        self.assertEqual(bl.segmented_median(fast + slow + fast, 3), 1.0)
        # 10 completions per 10 ms, except a middle chunk at a tenth of it.
        done = [0] + [i * 1_000_000 for i in range(1, 11)]
        done += [done[-1] + i * 10_000_000 for i in range(1, 11)]
        done += [done[-1] + i * 1_000_000 for i in range(1, 11)]
        self.assertAlmostEqual(bl.segmented_rate(done, 3), 1000.0)

    def test_tail_leaves_out_one_stalled_segment(self):
        calm, stall = [1.0] * 100, [1.0] * 80 + [50.0] * 20
        s = bl.trimmed_tail(calm + stall + calm + calm + calm, 5)
        self.assertEqual((s["tail"], s["n"]), (1.0, 400))
        s = bl.trimmed_tail(calm + stall + calm + stall + calm, 5)
        self.assertEqual(s["tail"], 50.0)

    def test_failures_miss_every_limit(self):
        s = bl.latency_summary([1.0] * 980 + [math.inf] * 20)
        self.assertEqual(s["p50"], 1.0)
        self.assertTrue(math.isinf(s["tail"]))


class Outputs(unittest.TestCase):
    RECS = [("ATP", "alu:1", "OK ATP n=2 1.0 2.0 latency_us=31"),
            ("ATP", "alu:1", "OK ATP n=2 1.0 2.0 latency_us=29"),
            ("RANK", "v/a.v", "OK RANK pool=24 top=x score=0.9 latency_us=5")]

    def test_clean_run_passes(self):
        problems, canon = bl.check_outputs(self.RECS)
        self.assertEqual(problems, [])
        self.assertEqual(canon[("ATP", "alu:1")], "OK ATP n=2 1.0 2.0")

    def test_corrupted_response_fails(self):
        bad = list(self.RECS)
        bad[1] = ("ATP", "alu:1", "OK ATP n=2 1.0 2.1 latency_us=29")
        self.assertTrue(bl.check_outputs(bad)[0])
        ref = {("RANK", "v/a.v"): "OK RANK pool=24 top=y score=0.9"}
        self.assertTrue(bl.check_outputs(self.RECS, ref)[0])

    def test_unexpected_error_fails(self):
        recs = self.RECS + [("TRP", "v/b.v", "ERR shed queue above threshold")]
        self.assertTrue(bl.check_outputs(recs)[0])

    def test_digest_ignores_latency(self):
        a = bl.check_outputs(self.RECS)[1]
        b = bl.check_outputs([(k, d, p.replace("=31", "=77")) for k, d, p in self.RECS])[1]
        self.assertEqual(bl.output_digest(a), bl.output_digest(b))


class Parsing(unittest.TestCase):
    DUMP = """moss_serve: clean shutdown (signal)
serve: 10 ok, 1 err, 0 rejected, 0 expired, 2.0 qps, uptime 5.0s
queue: depth 0, peak 2; batches 4 (mean size 2.50)
health: ok; 3 shed, 0 degraded, 0 retries; breakers 0 open (events: 0 open, 0 half-open, 0 close)
fused: 2 batches, 40 rows, 5 requests, 0 retries (mean occupancy 1.50)
verify: 0 timeouts, 0 shed
cache: 7 hits, 3 misses, 1 evictions, 0 oversize, 9 entries, 100 bytes
"""

    def test_shard_dumps_sum(self):
        totals, n = bl.parse_shard_dumps(self.DUMP + self.DUMP)
        self.assertEqual(n, 2)
        self.assertEqual(totals["hits"], 14)
        self.assertEqual(totals["batched"], 20)
        self.assertEqual(totals["fused_units"], 6)
        self.assertEqual(totals["shed"], 6)

    def test_self_times(self):
        spans = [dict(id=0, parent=-1, start=0, end=100),
                 dict(id=1, parent=0, start=10, end=40),
                 dict(id=2, parent=0, start=30, end=50),  # overlaps id 1
                 dict(id=3, parent=1, start=10, end=20)]
        st = bl.self_times(spans)
        self.assertEqual(st, {0: 60, 1: 20, 2: 20, 3: 10})


if __name__ == "__main__":
    unittest.main()
