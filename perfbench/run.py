#!/usr/bin/env python3
"""The rc11lib benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds the library, the four CLIs
and rc11-bench-trace from source (perfbench/CMakeLists.txt), generates the
workload's job batch from the seed (gen.py), and then

  --trace 0  runs the batch as a closed loop with one client — one CLI job at
             a time, each spawned after the previous verdict — repeating the
             batch until S seconds have passed, and checks every verdict
             against the template's known answer.  Prints the end-to-end
             metrics.
  --trace 1  runs the batch (plus the probe jobs) once in process through
             rc11-bench-trace, which times each layer from outside, and
             prints the per-layer metrics.  Verdicts are checked the same way.

The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Any wrong verdict names the job and makes the exit code 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402

TRACER = "rc11-bench-trace"  # built beside the rc11-tools directory
JOB_TIMEOUT_S = 60.0
# Nominal seconds per batch pass, measured on a shared 4-core Xeon VM.  A run
# makes round(seconds / nominal) passes, at least MIN_PASSES, so the sample
# count — and with it the order statistic job_s.tail reports — is a function
# of --seconds alone, not of timing noise.  On a much slower machine a run
# stops after MIN_PASSES passes once it is over MAX_OVERRUN x --seconds.
NOMINAL_PASS_S = {"enumerate": 3.3, "reduce": 0.3, "check": 1.6, "scale": 1.2}
MIN_PASSES = 3
MAX_OVERRUN = 2.0
# setup_s is sampled in SETUP_ROUNDS calls of rc11-bench-trace spread over
# the run (machine speed drifts over seconds); the median is reported.
SETUP_ROUNDS = 6
OPTIMISED = ("Release", "RelWithDebInfo", "MinSizeRel")

# name -> unit, in print order.  BENCHMARK.json's end_to_end list matches.
E2E_METRICS = {
    "wall_s": "s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "states_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Failure(Exception):
    """A verdict, outcome set or race set that differs from the known answer."""


# --- build ----------------------------------------------------------------------


def build(root: Path, out_dir: Path) -> Path:
    """Configures (once) and builds perfbench/CMakeLists.txt; returns the
    build directory.  Build output goes to build.log beside it."""
    if not (root / "src" / "CMakeLists.txt").is_file() or \
            not (root / "tools" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: run from the root of an rc11lib checkout "
                         "(src/ and tools/ not found)")
    bdir = out_dir / "cmake"
    bdir.mkdir(parents=True, exist_ok=True)
    log = out_dir / "build.log"
    jobs = str(min(4, nproc()))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    with open(log, "wb") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\n")
                raise SystemExit(f"perfbench: build failed (see {log})")
    return bdir


def build_info(bdir: Path) -> dict:
    cache = {}
    for line in (bdir / "CMakeCache.txt").read_text(errors="replace").splitlines():
        m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line)
        if m:
            cache[m.group(1)] = m.group(2)
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = cxx
    return {"compiler": version, "build_type": cache.get("CMAKE_BUILD_TYPE", "")}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# --- CLI steps and answer checks ------------------------------------------------


def flags_of(job: dict) -> list[str]:
    argv = []
    for key, flag in (("por", "--por"), ("symmetry", "--symmetry"),
                      ("rf_quotient", "--rf-quotient")):
        if job[key]:
            argv.append(flag)
    if job["threads"] > 1:
        argv += ["--threads", str(job["threads"])]
    if job["workers"]:
        argv += ["--workers", str(job["workers"])]
    return argv


def steps_of(job: dict, bindir: Path) -> list[dict]:
    """The CLI invocations of one job, each with what its answer must be."""
    files = list(job["files"])
    jid, kind = job["id"], job["kind"]
    json_out = f"{jid}.json"
    tool = {"verify": "rc11-verify", "race": "rc11-race",
            "refine": "rc11-refine"}.get(kind, "rc11-run")
    base = [str(bindir / tool)] + flags_of(job)
    if kind == "witness":
        wit = f"{jid}.witness.json"
        return [
            {"argv": base + ["--invariant", job["invariant"], "--witness", wit,
                             "--json", json_out] + files,
             "exit": 2, "json": json_out, "produces": wit},
            {"argv": [str(bindir / tool), "--replay", wit] + files, "exit": 0},
        ]
    if kind == "checkpoint":
        ckpt = f"{jid}.ckpt.json"
        return [
            {"argv": base + ["--max-states", str(job["max_states"]),
                             "--checkpoint", ckpt] + files,
             "exit": 3, "produces": ckpt},
            {"argv": base + ["--resume", ckpt, "--json", json_out] + files,
             "exit": 0, "json": json_out, "outcomes": True},
        ]
    extra = ["--invariant", job["invariant"]] if kind == "invariant" else []
    step = {"argv": base + extra + ["--json", json_out] + files,
            "json": json_out}
    expect = job["expect"]
    if kind in ("run", "invariant"):
        step.update(exit=0, outcomes=True)
    elif kind == "verify":
        step["exit"] = 0 if expect["valid"] else 2
    elif kind == "race":
        step["exit"] = 2 if expect["races"] else 0
    elif kind == "refine":
        step["exit"] = 0 if expect["refines"] else 2
    return [step]


def parse_outcomes(stdout: str) -> set:
    """The outcome set rc11-run prints: one 'reg=value, ...' line per tuple
    after the 'final register outcomes (N):' header."""
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        m = re.match(r"^final register outcomes \((\d+)\):$", line)
        if not m:
            continue
        rows = set()
        for row in lines[i + 1:i + 1 + int(m.group(1))]:
            pairs = []
            for item in row.strip().split(", "):
                name, _, value = item.partition("=")
                pairs.append((name, int(value)))
            rows.add(tuple(pairs))
        return rows
    raise Failure("no outcome set in the output")


def race_key(location: str, a: tuple, b: tuple) -> tuple:
    return (location, tuple(sorted([tuple(a), tuple(b)])))


def check_step(job: dict, step: dict, code: int, stdout: str, work: Path,
               oracle: dict) -> int:
    """Raises Failure unless the step's output is the known answer; returns
    the number of states the step visited (0 when it reports none)."""
    if code != step["exit"]:
        raise Failure(f"exit code {code}, expected {step['exit']}")
    if "produces" in step and not (work / step["produces"]).is_file():
        raise Failure(f"{step['produces']} was not written")
    report = {}
    if "json" in step:
        report = json.loads((work / step["json"]).read_text())
    expect, kind = job["expect"], job["kind"]
    if step.get("outcomes"):
        got = parse_outcomes(stdout)
        if got != expect["outcomes"]:
            raise Failure(f"outcome set differs from the template's "
                          f"({len(got)} vs {len(expect['outcomes'])} tuples)")
        if job["id"] in oracle and got != oracle[job["id"]]:
            raise Failure("outcome set differs from the plain exhaustive run")
    if kind == "verify" and report.get("valid") != expect["valid"]:
        raise Failure(f"outline valid={report.get('valid')}, "
                      f"expected {expect['valid']}")
    if kind == "race":
        got = {race_key(r["location"], (r["a"]["thread"], r["a"]["access"]),
                        (r["b"]["thread"], r["b"]["access"]))
               for r in report.get("races", [])}
        if got != expect["races"]:
            raise Failure(f"race set {sorted(got)} differs from "
                          f"{sorted(expect['races'])}")
    if kind == "refine":
        if report.get("refines") != expect["refines"]:
            raise Failure(f"refines={report.get('refines')}, "
                          f"expected {expect['refines']}")
        sim = report.get("simulation", {})
        return sim.get("abstract_states", 0) + sim.get("concrete_states", 0)
    return report.get("stats", {}).get("states", 0)


def spawn(argv: list[str], cwd: Path, out_path: Path) -> tuple[int, float, float, str]:
    """Runs one CLI process; returns (exit code, wall s from spawn to exit,
    max RSS in MB, stdout).  A process over JOB_TIMEOUT_S is killed."""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, \
        out_path.read_text(errors="replace")


def run_job(job: dict, bindir: Path, work: Path, oracle: dict) -> dict:
    """One closed-loop job: its steps back to back.  Returns wall time from
    the first spawn to the last exit, peak RSS, states and any failure."""
    wall, rss, states, error = 0.0, 0.0, 0, None
    for n, step in enumerate(steps_of(job, bindir)):
        code, dt, mb, stdout = spawn(step["argv"], work, work / f"{job['id']}.{n}.out")
        wall += dt
        rss = max(rss, mb)
        if error is None:
            try:
                states += check_step(job, step, code, stdout, work, oracle)
            except (Failure, ValueError, KeyError) as e:
                error = f"step {n + 1} ({Path(step['argv'][0]).name}): {e}"
    return {"wall": wall, "rss": rss, "states": states, "error": error}


def plain_oracle(jobs: list[dict], bindir: Path, work: Path) -> dict:
    """Outcome sets of the plain exhaustive run of every oracle job's
    program, each itself checked against the template's answer."""
    sets = {}
    for job in jobs:
        if not job["oracle"]:
            continue
        files = list(job["files"])
        code, _, _, stdout = spawn([str(bindir / "rc11-run")] + files, work,
                                   work / f"{job['id']}.plain.out")
        got = parse_outcomes(stdout) if code == 0 else None
        if got != job["expect"]["outcomes"]:
            raise Failure(f"{job['id']}: the plain exhaustive run "
                          f"(exit {code}) does not give the template's outcomes")
        sets[job["id"]] = got
    return sets


# --- metrics --------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it.  With ten or fewer samples there is no such percentile and the
    maximum is reported as p100."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    k = n - 10  # samples at or below the reported value
    return 100.0 * k / n, xs[k - 1]


def write_manifest(jobs: list[dict], path: Path) -> None:
    keys = ("id", "kind", "por", "symmetry", "rf_quotient", "threads", "workers")
    doc = {"jobs": []}
    for job in jobs:
        entry = {k: job[k] for k in keys}
        entry["files"] = list(job["files"])
        for k in ("invariant", "max_states"):
            if k in job:
                entry[k] = job[k]
        doc["jobs"].append(entry)
    path.write_text(json.dumps(doc, indent=1))


def measure_setup(bindir: Path, work: Path) -> float:
    """Median set-up time of the batch over one call's in-process samples."""
    out = subprocess.run([str(bindir.parent / TRACER), "setup", "manifest.json"],
                         cwd=work, capture_output=True, text=True, timeout=120)
    if out.returncode:
        raise Failure(f"{TRACER} setup failed: {out.stderr.strip()}")
    return float(json.loads(out.stdout.splitlines()[-1])["setup_s"])


def untraced(workload: str, jobs: list[dict], bindir: Path, work: Path,
             seconds: float, seed: int) -> tuple[dict, int, list[str]]:
    oracle = plain_oracle(jobs, bindir, work)
    rng = gen.SplitMix64(seed ^ 0x5EED)
    results, passes, errors, setups = [], [], [], []
    planned = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))
    setup_every = max(1, planned // SETUP_ROUNDS)
    start = time.perf_counter()
    while len(passes) < planned:
        if len(passes) % setup_every == 0 and len(setups) < SETUP_ROUNDS:
            setups.append(measure_setup(bindir, work))
        order = rng.shuffle(list(jobs))
        t0 = time.perf_counter()
        for job in order:
            r = run_job(job, bindir, work, oracle)
            results.append(r)
            if r["error"]:
                errors.append(f"{job['id']} ({job['kind']}): {r['error']}")
        passes.append(time.perf_counter() - t0)
        if len(passes) >= MIN_PASSES and \
                time.perf_counter() - start > MAX_OVERRUN * seconds:
            print(f"note: stopped after {len(passes)} of {planned} passes "
                  f"(over {MAX_OVERRUN:g}x --seconds)")
            break
    walls = [r["wall"] for r in results]
    pct, tail_s = tail(walls)
    print(f"closed loop: 1 client, {len(passes)} pass(es) of {len(jobs)} jobs, "
          f"{len(results)} jobs timed")
    print("pass walls (s): " + " ".join(f"{p:.3f}" for p in passes))
    print(f"job_s.tail is p{pct:.1f} over {len(walls)} jobs")
    metrics = {
        "wall_s": statistics.median(passes),
        "job_s.p50": statistics.median(walls),
        "job_s.tail": tail_s,
        "states_per_s": sum(r["states"] for r in results) / sum(walls),
        "peak_rss_mb": max(r["rss"] for r in results),
        "setup_s": statistics.median(setups),
    }
    return ({k: {"value": v, "unit": E2E_METRICS[k]} for k, v in metrics.items()},
            len(results), errors)


def traced(jobs: list[dict], bindir: Path, work: Path,
           spans: Path) -> tuple[dict, int, list[str]]:
    out = subprocess.run([str(bindir.parent / TRACER), "trace", "manifest.json",
                          str(spans)],
                         cwd=work, capture_output=True, text=True, timeout=170)
    if out.returncode:
        raise Failure(f"{TRACER} trace failed: {out.stderr.strip()}")
    doc = json.loads(out.stdout)
    by_id = {r["id"]: r for r in doc["jobs"]}
    errors = []
    for job in jobs:
        try:
            check_traced(job, by_id[job["id"]])
        except (Failure, KeyError) as e:
            errors.append(f"{job['id']} ({job['kind']}, traced): {e}")
    metrics = {k: {"value": float(v["value"]), "unit": v["unit"]}
               for k, v in doc["metrics"].items()}
    return metrics, len(jobs), errors


def check_traced(job: dict, res: dict) -> None:
    """The traced run's verdict data against the same known answers."""
    expect, kind = job["expect"], job["kind"]
    if "outcomes" in expect and kind != "witness":
        got = {tuple((n, v) for n, v in row) for row in res["outcomes"]}
        if got != expect["outcomes"]:
            raise Failure("outcome set differs from the template's")
    if kind == "invariant" and res["violation"]:
        raise Failure("the invariant was reported violated")
    if kind == "witness" and not (res["violation"] and res["replay_ok"]):
        raise Failure("no violation, or its minimised witness did not replay")
    if kind == "checkpoint" and not res["interrupted"]:
        raise Failure("the run was not interrupted and restored")
    if kind == "verify" and res["valid"] != expect["valid"]:
        raise Failure(f"outline valid={res['valid']}")
    if kind == "race":
        got = {race_key(r["location"], r["a"], r["b"]) for r in res["races"]}
        if got != expect["races"]:
            raise Failure("race set differs from the template's")
    if kind == "refine" and res["refines"] != expect["refines"]:
        raise Failure(f"refines={res['refines']}")
    if job["workers"] and res.get("supervised_states") != res["states"]:
        raise Failure("the supervised run visited a different state count")


# --- main -----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    root = Path.cwd()
    out_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir = build(root, out_dir)
    bindir = bdir / "rc11-tools"
    info = build_info(bdir)
    cores = nproc()
    # One core stays free for this script and the OS: on a VM whose every
    # vCPU runs a worker, each host preemption stalls the whole pool, and
    # the scale timings spread by 10-30% instead of 3-7%.
    par = max(2, min(4, cores - 1))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"nproc {cores}  compiler {info['compiler']}  build {info['build_type']}")
    if info["build_type"] not in OPTIMISED:
        print(f"!!! WARNING: build type '{info['build_type']}' is not optimised; "
              "these numbers do not describe a release build !!!")
    if args.workload == "scale" and par < 4:
        print(f"note: {cores} core(s), so --threads {par}: engine.parallel.speedup "
              "cannot be compared with the ROADMAP's >= 2.5x target on 4 cores")

    jobs = gen.batch(args.workload, args.seed, par, probes=bool(args.trace))
    work = out_dir / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for job in jobs:
            for name, text in job["files"].items():
                (work / name).write_text(text)
        write_manifest(jobs, work / "manifest.json")
        try:
            if args.trace:
                spans = out_dir / f"spans-{args.workload}-{args.seed}.json"
                metrics, attempted, errors = traced(jobs, bindir, work, spans)
                print(f"span dump: {spans}")
            else:
                metrics, attempted, errors = untraced(args.workload, jobs, bindir, work,
                                                      args.seconds, args.seed)
        except Failure as e:
            metrics, attempted, errors = {}, 1, [str(e)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_jobs = len(errors)
    for err in errors:
        print(f"FAILED {err}")
    print(f"failed_frac {failed_jobs / max(1, attempted):.4f} "
          f"({failed_jobs} of {attempted} jobs)")
    width = max((len(k) for k in metrics), default=0)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed_jobs, "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
