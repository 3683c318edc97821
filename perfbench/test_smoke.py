"""Smoke test of the benchmark at a tiny size: every workload's untraced
and traced code paths run, every metric BENCHMARK.json names is printed
with its unit, and the traced and untraced digests agree.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace):
    r = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    lines = r.stdout.strip().splitlines()
    return lines[-2], json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def test_every_workload(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        for w in bench["workloads"]:
            with self.subTest(workload=w["name"]):
                untraced_digests, e2e = run(w["name"], 0)
                traced_digests, layers = run(w["name"], 1)
                for out, want in ((e2e, bench["end_to_end"]), (layers, bench["per_layer"])):
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(set(out["metrics"]), {m["name"] for m in want})
                    for m in want:
                        got = out["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        self.assertIsInstance(got["value"], (int, float), m["name"])
                self.assertEqual(untraced_digests, traced_digests)


if __name__ == "__main__":
    unittest.main()
