"""Self-tests of the rc11lib benchmark.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They check the generator's determinism, that the answer oracle catches a
wrong expected answer, that every metric name is well formed, and that
BENCHMARK.json lists exactly the workloads and metrics run.py prints.
The oracle is exercised on canned CLI output; when a built tree exists
(.bench_build/cmake, as run.py leaves it), also on a real CLI run.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import run  # noqa: E402

ROOT = HERE.parent
# The benchmark contract's metric-name rule.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
TOOLS = BUILD / "cmake" / "rc11-tools"


def tracer_metrics() -> dict[str, str]:
    """name -> unit of every per-layer metric trace.cpp prints."""
    src = (HERE / "trace.cpp").read_text()
    return dict(re.findall(r'put\(m, "([^"]+)",[^;]*?"([^"]+)"\);', src, re.S))


def batch_digest(workload: str, seed: int) -> str:
    h = hashlib.sha256()
    for job in gen.batch(workload, seed, 4, probes=True):
        for name, text in job["files"].items():
            h.update(name.encode() + b"\0" + text.encode() + b"\0")
    return h.hexdigest()


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_byte_identical_programs(self):
        for w in gen.WORKLOADS:
            self.assertEqual(batch_digest(w, 7), batch_digest(w, 7))

    def test_same_seed_across_interpreters(self):
        # A fresh interpreter with another hash seed must agree: nothing may
        # depend on set or dict iteration order of strings.
        code = ("import sys; sys.path.insert(0, %r); import test_bench; "
                "print(test_bench.batch_digest('check', 7))" % str(HERE))
        outs = set()
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            outs.add(subprocess.run([sys.executable, "-c", code], env=env,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip())
        self.assertEqual(outs, {batch_digest("check", 7)})

    def test_seeds_change_programs_not_shape_classes(self):
        for w in gen.WORKLOADS:
            self.assertNotEqual(batch_digest(w, 1), batch_digest(w, 2))
            kinds = [sorted((j["kind"], len(j["files"])) for j in gen.batch(w, s))
                     for s in (1, 2)]
            self.assertEqual(kinds[0], kinds[1])

    def test_pool_outcomes_match_ticket_worker(self):
        # tools/programs/ticket_worker.rc11 (3 threads x 2 rounds) has 30
        # final register outcomes.
        self.assertEqual(len(gen._pool_outcomes(3, 2, 0)), 30)


def outcome_stdout(rows) -> str:
    lines = [f"final register outcomes ({len(rows)}):"]
    lines += ["  " + ", ".join(f"{n}={v}" for n, v in row) for row in sorted(rows)]
    return "\n".join(lines) + "\n"


class OracleTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.work = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def job(self, workload: str, kind: str) -> dict:
        return next(j for j in gen.batch(workload, 3) if j["kind"] == kind)

    def check(self, job, code, stdout, report=None):
        step = run.steps_of(job, Path("/nonexistent"))[-1]
        if report is not None:
            (self.work / step["json"]).write_text(json.dumps(report))
        return run.check_step(job, step, code, stdout, self.work, {})

    def test_right_outcomes_pass_and_wrong_ones_fail(self):
        job = self.job("enumerate", "run")
        rows = job["expect"]["outcomes"]
        self.check(job, 0, outcome_stdout(rows), {"stats": {"states": 5}})
        wrong = dict(job, expect={"outcomes": set(list(rows)[1:])})
        with self.assertRaises(run.Failure):
            self.check(wrong, 0, outcome_stdout(rows), {"stats": {"states": 5}})

    def test_outcomes_differing_from_plain_run_fail(self):
        job = self.job("reduce", "run")
        rows = job["expect"]["outcomes"]
        step = run.steps_of(job, Path("/nonexistent"))[0]
        (self.work / step["json"]).write_text("{}")
        oracle = {job["id"]: set(list(rows)[1:])}
        with self.assertRaises(run.Failure):
            run.check_step(job, step, 0, outcome_stdout(rows), self.work, oracle)

    def test_wrong_race_set_fails(self):
        job = next(j for j in gen.batch("check", 3)
                   if j["kind"] == "race" and j["expect"]["races"])
        races = [{"location": loc, "a": {"thread": a[0], "access": a[1]},
                  "b": {"thread": b[0], "access": b[1]}}
                 for loc, (a, b) in job["expect"]["races"]]
        self.check(job, 2, "", {"races": races})
        with self.assertRaises(run.Failure):
            self.check(job, 2, "", {"races": races[1:]})

    def test_wrong_verdicts_fail(self):
        for kind, key in (("verify", "valid"), ("refine", "refines")):
            job = self.job("check", kind)
            good = job["expect"][key]
            code = 0 if good else 2
            self.check(job, code, "", {key: good})
            with self.assertRaises(run.Failure):
                self.check(job, code, "", {key: not good})
            with self.assertRaises(run.Failure):
                self.check(job, 2 - code, "", {key: good})

    @unittest.skipUnless((TOOLS / "rc11-run").is_file(), "no built tree")
    def test_wrong_expected_answer_caught_on_a_real_run(self):
        job = self.job("enumerate", "run")
        for name, text in job["files"].items():
            (self.work / name).write_text(text)
        self.assertIsNone(run.run_job(job, TOOLS, self.work, {})["error"])
        rows = sorted(job["expect"]["outcomes"])
        rows[0] = tuple((n, v + 1000) for n, v in rows[0])
        wrong = dict(job, expect={"outcomes": set(rows)})
        self.assertIn("outcome set", run.run_job(wrong, TOOLS, self.work, {})["error"])


class MetricContractTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_metric_names_are_well_formed(self):
        for name in list(run.E2E_METRICS) + list(tracer_metrics()):
            self.assertRegex(name, METRIC_NAME)

    def test_benchmark_json_lists_exactly_the_printed_metrics(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(gen.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         run.E2E_METRICS)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         tracer_metrics())
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])


if __name__ == "__main__":
    unittest.main()
