#!/usr/bin/env python3
"""The benchmark's own test, at smoke size (every workload in seconds).

    python3 perfbench/test_bench.py

For every workload, untraced and traced: the result line has exactly the
contract's keys; every metric BENCHMARK.json names is printed, finite and
tagged with its unit; every output check passes and nothing failed; and
in traced runs the per-layer spans cover at least COVERAGE of the traced
end-to-end time of every segment.
"""

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# Share of each traced segment's root-span time its layer spans must
# cover (the rest is time between calls, e.g. the serving handoff).
COVERAGE = 0.8


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()
        cls.binary = run.build()

    def check_run(self, workload, trace):
        doc = run.run_once(self.binary, workload, 1, 0.5, trace, smoke=True, echo=False)
        line = run.contract_line(doc, self.spec, trace)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"], doc["checks"])
        self.assertEqual(line["failed"], 0)
        self.assertGreaterEqual(line["attempted"], 1)
        wanted = self.spec["per_layer"] if trace else self.spec["end_to_end"]
        self.assertEqual(set(line["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = line["metrics"][m["name"]]
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            self.assertEqual(got["unit"], m["unit"], m["name"])
        for check in doc["checks"]:
            self.assertTrue(check["ok"], check)
        if trace:
            coverage = {k: v["value"] for k, v in doc["layers"].items() if k.startswith("trace.coverage.")}
            self.assertTrue(coverage, "traced runs report their span coverage")
            for name, share in coverage.items():
                self.assertGreaterEqual(share, COVERAGE, name)
        else:
            self.assertEqual(doc["metrics"]["fail_frac"]["value"], 0.0)


def _add(workload, trace):
    def test(self):
        self.check_run(workload, trace)
    setattr(SmokeTest, f"test_{workload}_trace{trace}", test)


for _w in [w["name"] for w in run.load_spec()["workloads"]]:
    for _t in (0, 1):
        _add(_w, _t)


if __name__ == "__main__":
    unittest.main()
