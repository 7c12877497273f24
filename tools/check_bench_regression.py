#!/usr/bin/env python3
"""Compare a bench --json report against a checked-in baseline.

Usage: check_bench_regression.py BASELINE.json CURRENT.json [--tolerance F]

Fails (exit 1) when

  * either file is unreadable, malformed, or has no cases (an empty
    baseline would otherwise "pass" while checking nothing),
  * a baseline case is missing from the current report,
  * a case is missing a required field (name/states/states_per_s),
  * the explored state count differs (the state space is deterministic —
    any difference is a semantics bug, not a performance regression), or
  * states_per_s dropped by more than the tolerance (default 30%), for a
    case of at least MIN_GATED_STATES states.

A case below MIN_GATED_STATES keeps its exact state-count check, but its
states_per_s is only printed: a run of a few dozen states times per-call
setup, not search, and that reading moves by 1.5x or more from one bench
process to the next on the same machine.

Cases present only in the current report are listed (they don't fail the
check — they just need a baseline refresh to become guarded).  Throughput
above baseline is fine and only reported.  Baselines (bench/baseline_*.json)
are refreshed deliberately, by re-running the bench with --json and
committing the result alongside the change that moved the numbers.
"""

import argparse
import json
import sys

REQUIRED_FIELDS = ("name", "states", "states_per_s")

# Smallest baseline state count whose throughput is gated.
MIN_GATED_STATES = 100


def load_cases(path):
    """Returns {name: case} or raises SystemExit with a precise message."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        sys.exit(f"error: cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        sys.exit(f"error: {path} is not valid JSON: {e}")
    if not isinstance(doc, dict) or not isinstance(doc.get("cases"), list):
        sys.exit(f"error: {path}: expected an object with a 'cases' array")
    cases = {}
    for i, case in enumerate(doc["cases"]):
        missing = [k for k in REQUIRED_FIELDS
                   if not isinstance(case, dict) or k not in case]
        if missing:
            sys.exit(f"error: {path}: case #{i} is missing "
                     f"field(s) {', '.join(missing)}")
        if case["name"] in cases:
            sys.exit(f"error: {path}: duplicate case name '{case['name']}'")
        cases[case["name"]] = case
    if not cases:
        sys.exit(f"error: {path} has no cases; an empty baseline would "
                 "vacuously pass — refresh it from a real bench run")
    return cases


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="maximum allowed fractional drop in states_per_s")
    args = parser.parse_args()

    baseline = load_cases(args.baseline)
    current = load_cases(args.current)

    failures = []
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            print(f"{name}: MISSING from current report")
            failures.append(f"{name}: missing from current report")
            continue
        base_states, cur_states = int(base["states"]), int(cur["states"])
        if base_states != cur_states:
            print(f"{name}: states {base_states:,} -> {cur_states:,} "
                  f"({cur_states - base_states:+,}) MISMATCH")
            failures.append(
                f"{name}: state count changed {base_states} -> {cur_states} "
                f"(state space must be identical)")
            continue
        base_rate = float(base["states_per_s"])
        cur_rate = float(cur["states_per_s"])
        if base_states < MIN_GATED_STATES:
            print(f"{name}: {base_states:,} states, {base_rate:,.0f} -> "
                  f"{cur_rate:,.0f} states/s (not gated: under "
                  f"{MIN_GATED_STATES} states)")
            continue
        if base_rate <= 0:
            failures.append(f"{name}: baseline states_per_s is {base_rate}; "
                            "refresh the baseline from a real run")
            continue
        ratio = cur_rate / base_rate
        status = "OK" if ratio >= 1.0 - args.tolerance else "REGRESSION"
        print(f"{name}: {base_states:,} states, {base_rate:,.0f} -> "
              f"{cur_rate:,.0f} states/s ({ratio:.2f}x) {status}")
        if status != "OK":
            failures.append(
                f"{name}: states/s dropped to {ratio:.2f}x of baseline "
                f"(tolerance {1.0 - args.tolerance:.2f}x)")

    only_current = sorted(set(current) - set(baseline))
    for name in only_current:
        print(f"{name}: not in baseline (unguarded; refresh the baseline "
              "to cover it)")

    if failures:
        print("\nbench regression check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbench regression check passed "
          f"({len(baseline)} cases, tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
