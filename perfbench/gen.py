"""Seeded job generator for the rc11lib benchmark.

Every job is a pure function of (workload, seed): the same pair yields
byte-identical program text, flags and expected answers on every machine and
Python version (the generator uses its own splitmix64 stream, never the
`random` module).  The CLIs only ever see the generated files.

A job is one closed-loop unit of work: one or more CLI invocations ("steps")
run back to back, each checked against the answer derived by hand from the
job's template (see README.md, "Known answers").

Workload batches are *stratified*: each workload has a fixed menu of shape
classes (thread counts, rounds, store counts, flags), and the seed decides
which job slot gets which class and every value the programs store, publish
or start from.  The multiset of shape classes is the same for every seed, and
values never change a state-space size (they are drawn distinct), so the
batch's total work does not swing with the seed while every program's text
and answer does.
"""

from __future__ import annotations

import itertools

MASK64 = (1 << 64) - 1
WORKLOADS = ("enumerate", "reduce", "check", "scale")


class SplitMix64:
    """The splitmix64 generator: tiny, portable, fully specified."""

    def __init__(self, seed: int) -> None:
        self.state = seed & MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next() % n

    def shuffle(self, items: list) -> list:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def distinct(self, k: int, lo: int, hi: int) -> list[int]:
        """k distinct values from [lo, hi], in draw order."""
        pool = list(range(lo, hi + 1))
        self.shuffle(pool)
        return pool[:k]


# --- templates ----------------------------------------------------------------
#
# Each template returns (source text, expected answer).  Expected outcome sets
# are sets of tuples of (register, value) pairs in the order rc11-run prints
# them: threads in declaration order, registers in declaration order.


def fan(rng: SplitMix64, stores: list[int], gstores: int) -> tuple[str, dict]:
    """store_fan shape: writer i observes g once, scrubs its register and
    stores stores[i] distinct values to its own location; a pump thread
    stores g `gstores` times and then reads every writer location into one
    register r, in writer order (the read order shapes the state space, so
    it is part of the shape class).  Known answer: writer registers end at
    0, and r (the last read) is 0 or one of the values stored to the last
    location read."""
    n = len(stores)
    values = rng.distinct(sum(stores), 1, 99)
    locs = [f"x{i}" for i in range(n)]
    lines = ["var g = 0;"] + [f"var {x} = 0;" for x in locs]
    written: dict[str, list[int]] = {}
    k = 0
    for i in range(n):
        vals = values[k:k + stores[i]]
        k += stores[i]
        written[locs[i]] = vals
        lines += ["", f"thread w{i} {{", f"  reg t{i};", f"  t{i} <- g;",
                  f"  t{i} := 0;"]
        lines += [f"  {locs[i]} := {v};" for v in vals]
        lines.append("}")
    gvals = rng.distinct(gstores, 1, 9)
    lines += ["", "thread pump {", "  reg r;"]
    lines += [f"  g := {v};" for v in gvals]
    lines += [f"  r <- {x};" for x in locs]
    lines.append("}")
    last = locs[-1]
    writers = tuple((f"t{i}", 0) for i in range(n))
    outcomes = {writers + (("r", v),) for v in [0] + written[last]}
    return "\n".join(lines) + "\n", {"outcomes": outcomes}


def _pool_outcomes(threads: int, rounds: int, x0: int) -> set:
    """Exact outcome set of a correct ticket-lock pool: a thread's registers
    end at its last ticket m (mt = s = m, r = x0 + m, w = x0 + m + 1).  Last
    tickets are distinct, the largest is threads*rounds - 1, and the k-th
    smallest is at least k*rounds - 1 (k threads drew k*rounds tickets by
    then)."""
    total = threads * rounds
    out = set()
    for lasts in itertools.permutations(range(total), threads):
        ranked = sorted(lasts)
        if ranked[-1] != total - 1:
            continue
        if any(ranked[k] < (k + 1) * rounds - 1 for k in range(threads)):
            continue
        row = []
        for t, m in enumerate(lasts, start=1):
            row += [(f"mt{t}", m), (f"s{t}", m), (f"r{t}", x0 + m),
                    (f"w{t}", x0 + m + 1)]
        out.add(tuple(row))
    return out


def pool_invariant(threads: int, rounds: int, x0: int) -> str:
    """The lost-update invariant: once every thread is done, the last
    thread's last write is not both mo-maximal and short of the full count.
    It holds on a correct pool, whose mo-maximal write is always the
    threads*rounds-th increment, and fails on the buggy twin."""
    total = threads * rounds
    done = " && ".join(f"done(t{t})" for t in range(1, threads + 1))
    lost = " || ".join(f"definite(t{threads}, x, {x0 + v})"
                       for v in range(2, total))
    return f"{done} ==> !({lost})"


def _critical(t: int, unlocked: bool = False) -> list[str]:
    body = [f"  r{t} <- x;", f"  w{t} := r{t} + 1;", f"  x := w{t};"]
    if unlocked:
        return body
    return ([f"  mt{t} <- FAI(nt);",
             f"  do {{ s{t} <-A sn; }} until (mt{t} == s{t});"]
            + body + [f"  sn :=R s{t} + 1;"])


def pool(rng: SplitMix64, threads: int, rounds: int,
         buggy: bool = False) -> tuple[str, dict]:
    """ticket_worker shape: `threads` identical workers, each taking a ticket
    lock `rounds` times to increment x from a seeded start value x0.  The
    threads run the same text modulo register names, so --symmetry applies.
    Known answer: the exact outcome set of _pool_outcomes — the counter
    always ends at x0 + threads*rounds — and pool_invariant holds.

    The buggy twin (ticket_worker_buggy) drops the lock from the last
    thread's last round.  Known answer: pool_invariant is violated (a lost
    update), and the violation's witness replays."""
    x0 = rng.below(50)
    lines = [f"var x = {x0};", "var library nt = 0;", "var library sn = 0;"]
    for t in range(1, threads + 1):
        lines += ["", f"thread t{t} {{",
                  f"  reg mt{t}; reg s{t}; reg r{t}; reg w{t};"]
        for k in range(rounds):
            lines += _critical(t, unlocked=buggy and t == threads
                               and k == rounds - 1)
        lines.append("}")
    expect = ({"violation": True} if buggy
              else {"outcomes": _pool_outcomes(threads, rounds, x0)})
    expect["invariant"] = pool_invariant(threads, rounds, x0)
    return "\n".join(lines) + "\n", expect


def compute(rng: SplitMix64, threads: int, steps: int) -> tuple[str, dict]:
    """Private-location compute, the --por shape: thread i stores `steps`
    values to its own location p_i, reads each back and accumulates it; the
    first thread also publishes one value on a shared flag f, which the last
    thread reads at its end.  No instruction synchronises, so every private
    access is ample.  Known answer: a_i is the sum of thread i's values, q_i
    its last value, and the flag read h is 0 or the published value."""
    values = rng.distinct(threads * steps, 1, 60)
    flag = rng.below(50) + 100
    lines = ["var f = 0;"] + [f"var p{i} = 0;" for i in range(threads)]
    fixed = []
    for i in range(threads):
        vals = values[i * steps:(i + 1) * steps]
        regs = f"  reg a{i}; reg q{i};" + ("  reg h;" if i == threads - 1 else "")
        lines += ["", f"thread c{i} {{", regs, f"  a{i} := 0;"]
        for v in vals:
            lines += [f"  p{i} := {v};", f"  q{i} <- p{i};",
                      f"  a{i} := a{i} + q{i};"]
        if i == 0:
            lines.append(f"  f := {flag};")
        if i == threads - 1:
            lines.append("  h <- f;")
        lines.append("}")
        fixed += [(f"a{i}", sum(vals)), (f"q{i}", vals[-1])]
    head, last = tuple(fixed[:-2]), tuple(fixed[-2:])
    outcomes = {head + last + (("h", h),) for h in (0, flag)}
    return "\n".join(lines) + "\n", {"outcomes": outcomes}


def noise_threads(rng: SplitMix64, count: int, stores: int,
                  first: int) -> tuple[list[str], list[str]]:
    """Independent background threads (relaxed stores to a location of their
    own, then one read of it): they grow the state space of check-workload
    programs without touching anything the template's answer mentions."""
    decls, threads = [], []
    for j in range(count):
        loc = f"e{j}"
        decls.append(f"var {loc} = 0;")
        vals = rng.distinct(stores, 1, 9)
        body = [f"  {loc} := {v};" for v in vals] + [f"  n{j} <- {loc};"]
        threads += ["", f"thread bg{first + j} {{", f"  reg n{j};"] + body + ["}"]
    return decls, threads


def mp_outline(rng: SplitMix64, data: int, noise: int,
               broken: bool) -> tuple[str, dict]:
    """mp_verified shape (Fig. 3): the producer writes d_i := v_i for every
    data location and publishes through a synchronising stack push; the
    consumer pops with acquire until it sees the message, then reads every
    d_i.  The outline asserts, Fig. 3-style, that the consumer definitely
    observes every v_i.  Known answer: VALID; the broken twin pushes
    *relaxed* (s.push), so the conditional observation fails: INVALID."""
    vals = rng.distinct(data, 1, 99)
    decls, bg = noise_threads(rng, noise, 2, 0)
    lines = [f"var d{i} = 0;" for i in range(data)] + decls + ["stack library s;"]
    lines += ["", "thread producer {"]
    lines += [f"  d{i} := {v};" for i, v in enumerate(vals)]
    lines += [f"  s.{'push' if broken else 'pushR'}(1);", "}", "",
              "thread consumer {", "  reg r1;"]
    lines += [f"  reg u{i};" for i in range(data)]
    lines += ["  do { r1 <-A s.pop(); } until (r1 == 1);"]
    lines += [f"  u{i} <- d{i};" for i in range(data)]
    lines += ["}"] + bg
    seen = " && ".join(f"definite(consumer, d{i}, {v})" for i, v in enumerate(vals))
    out = ["", "outline {"]
    for j in range(data + 1):
        parts = ["!canpop(s, 1)"]
        parts += [f"definite(producer, d{i}, {vals[i] if i < j else 0})"
                  for i in range(data)]
        out.append(f"  at producer {j}: {' && '.join(parts)};")
    out.append(f"  at consumer 1: r1 == 1 ==> {seen};")
    for j in range(data):
        got = "".join(f" && u{i} == {vals[i]}" for i in range(j))
        out.append(f"  at consumer {2 + j}: {seen}{got};")
    post = " && ".join(f"u{i} == {v}" for i, v in enumerate(vals))
    out += [f"  post consumer: {post};", "}"]
    return "\n".join(lines + out) + "\n", {"valid": not broken}


def mp_na(rng: SplitMix64, data: int, noise: int,
          racy: bool) -> tuple[str, dict]:
    """mp_na_racy / mp_na_release shape: the producer writes every d_i
    non-atomically and raises a flag, the consumer spins on the flag and
    reads every d_i non-atomically.  Known answer: with a release/acquire
    flag the program is race-free; with a relaxed one the race set is
    exactly one (producer write, consumer read) pair per data location."""
    vals = rng.distinct(data, 1, 99)
    flag = rng.below(9) + 1
    decls, bg = noise_threads(rng, noise, 2, 0)
    lines = [f"var d{i} = 0;" for i in range(data)] + ["var f = 0;"] + decls
    lines += ["", "thread producer {"]
    lines += [f"  d{i} :=NA {v};" for i, v in enumerate(vals)]
    lines += [f"  f {':=' if racy else ':=R'} {flag};", "}", "",
              "thread consumer {", "  reg r1;"]
    lines += [f"  reg u{i};" for i in range(data)]
    lines += [f"  do {{ r1 {'<-' if racy else '<-A'} f; }} until (r1 == {flag});"]
    lines += [f"  u{i} <-NA d{i};" for i in range(data)]
    lines += ["}"] + bg
    races = ({(f"d{i}", ((0, "non-atomic write"), (1, "non-atomic read")))
              for i in range(data)} if racy else set())
    return "\n".join(lines) + "\n", {"races": races}


def dcl(rng: SplitMix64, noise: int) -> tuple[str, dict]:
    """dcl_broken shape: two identical threads read a relaxed guard and, if
    it is unset, initialise data non-atomically, then both read data
    non-atomically.  Known answer: exactly three races on data — write/write,
    and each thread's read against the other's write."""
    v = rng.below(90) + 10
    decls, bg = noise_threads(rng, noise, 2, 2)
    lines = ["var data = 0;", "var init = 0;"] + decls
    for t, (r, w) in enumerate((("r", "v"), ("r2", "v2"))):
        lines += ["", f"thread t{t + 1} {{", f"  reg {r};", f"  reg {w};",
                  f"  {r} <- init;", f"  if ({r} == 0) {{",
                  f"    data :=NA {v};", "    init :=R 1;", "  }",
                  f"  {w} <-NA data;", "}"]
    lines += bg
    wr, rd = "non-atomic write", "non-atomic read"
    races = {("data", ((0, wr), (1, wr))), ("data", ((0, wr), (1, rd))),
             ("data", ((0, rd), (1, wr)))}
    return "\n".join(lines) + "\n", {"races": races}


def lock_pair(rng: SplitMix64, data: int, broken: bool) -> tuple[str, str, dict]:
    """lock_client_abstract / lock_client_seqlock shape: a writer and a
    reader share `data` client variables under a lock — the abstract lock
    object on one side, the Section 6.2 sequence lock inlined on the other.
    Known answer: the seqlock client refines the abstract one; the broken
    twin's relaxed unlock does not."""
    vals = rng.distinct(data, 1, 99)
    head = [f"var d{i} = 0;" for i in range(data)]
    writes = [f"  d{i} := {v};" for i, v in enumerate(vals)]
    regs = [f"  reg u{i};" for i in range(data)]
    reads = [f"  u{i} <- d{i};" for i in range(data)]
    abstract = (head + ["lock library l;", "", "thread writer {", "  reg ok0;",
                        "  ok0 <- l.acquire();"] + writes
                + ["  l.release();", "}", "", "thread reader {", "  reg ok1;"]
                + regs + ["  ok1 <- l.acquire();"] + reads
                + ["  l.release();", "}"])
    rel = ":=" if broken else ":=R"

    def acquire(r: str, loc: str) -> list[str]:
        return ["  do {", f"    do {{ {r} <-A glb; }} until (even({r}));",
                f"    {loc} <- CAS(glb, {r}, {r} + 1);", f"  }} until ({loc});"]

    concrete = (head + ["var library glb = 0;", "", "thread writer {",
                        "  reg ok0;", "  reg library r0;", "  reg library loc0;"]
                + acquire("r0", "loc0") + ["  ok0 := 1;"] + writes
                + [f"  glb {rel} r0 + 2;", "}", "", "thread reader {", "  reg ok1;"]
                + regs + ["  reg library rr;", "  reg library loc1;"]
                + acquire("rr", "loc1") + ["  ok1 := 1;"] + reads
                + [f"  glb {rel} rr + 2;", "}"])
    return ("\n".join(abstract) + "\n", "\n".join(concrete) + "\n",
            {"refines": not broken})


# --- workload batches -----------------------------------------------------------
#
# A batch is a list of job dicts:
#   id        unique within the batch
#   kind      run | invariant | witness | checkpoint | verify | race | refine
#   files     {file name: program text}, in command-line order
#   por, symmetry, rf_quotient, threads, workers   the job's CLI flags
#   invariant (invariant/witness jobs), max_states (checkpoint jobs)
#   expect    the template's known answer
#   oracle    True when the outcome set must also equal the plain
#             exhaustive run of the same program (reduce jobs)


def _job(jid: str, kind: str, files: dict, expect: dict, **flags) -> dict:
    job = {"id": jid, "kind": kind, "files": files, "expect": expect,
           "por": False, "symmetry": False, "rf_quotient": False,
           "threads": 1, "workers": 0, "oracle": False}
    job.update(flags)
    return job


def _make(rng: SplitMix64, jid: str, cls: tuple) -> dict:
    """Builds one job of shape class `cls` = (kind, template, params, flags)."""
    kind, template, params, flags = cls
    if template == "lock_pair":
        abstract, concrete, expect = lock_pair(rng, *params)
        files = {f"{jid}.abs.rc11": abstract, f"{jid}.conc.rc11": concrete}
        return _job(jid, kind, files, expect, **flags)
    src, expect = TEMPLATES[template](rng, *params)
    files = {f"{jid}.rc11": src}
    invariant = expect.pop("invariant", None)
    if kind in ("invariant", "witness"):
        flags = dict(flags, invariant=invariant)
    return _job(jid, kind, files, expect, **flags)


TEMPLATES = {"fan": fan, "pool": pool, "compute": compute,
             "mp_outline": mp_outline, "mp_na": mp_na, "dcl": dcl}

SYM = {"symmetry": True, "oracle": True}
RF = {"rf_quotient": True, "oracle": True}
POR = {"por": True, "oracle": True}

# Shape-class menus, one entry per job slot.  Sizes (visited states of the
# plain exhaustive run) are noted for orientation.
MENUS = {
    "enumerate": [
        ("run", "pool", (3, 2), {}),            # 16,699
        ("run", "pool", (3, 2), {}),
        ("run", "pool", (2, 5), {}),            # 17,975
        ("run", "pool", (2, 5), {}),
        ("run", "fan", ([2, 1, 1], 3), {}),     # 24,385
        ("run", "fan", ([2, 2, 2], 2), {}),     # 23,709
        ("run", "fan", ([1, 1, 1], 4), {}),     # 29,393
        ("run", "fan", ([2, 2, 1], 3), {}),     # 37,753
        ("run", "fan", ([3, 2, 1], 3), {}),     # 56,629
        ("run", "fan", ([3, 2, 1], 4), {}),     # 109,678 (store_fan.rc11)
    ],
    "reduce": [
        ("run", "pool", (3, 2), SYM),           # 16,699 -> 2,791
        ("run", "pool", (4, 1), SYM),           # 7,181 -> 316
        ("run", "pool", (2, 5), SYM),           # 17,975
        ("run", "fan", ([2, 2, 1], 3), RF),     # 37,753 -> 2,766
        ("run", "fan", ([3, 2, 1], 3), RF),     # 56,629 -> 3,279
        ("run", "fan", ([2, 2, 2], 3), RF),     # 55,031 -> 3,308
        ("run", "compute", (3, 12), POR),       # 57,836 -> 78
        ("run", "compute", (4, 4), POR),        # 44,296 -> 38
        ("run", "compute", (3, 10), POR),       # 34,880 -> 66
    ],
    "check": [
        ("verify", "mp_outline", (3, 3, False), {}),   # 1,280
        ("verify", "mp_outline", (2, 4, False), {}),   # 4,096
        ("verify", "mp_outline", (3, 3, True), {}),    # stops at a failure
        ("race", "mp_na", (3, 3, True), {}),           # 1,664 (race clocks on)
        ("race", "mp_na", (3, 3, False), {}),
        ("race", "dcl", (3,), {}),
        ("refine", "lock_pair", (6, False), {}),
        ("refine", "lock_pair", (6, True), {}),
        ("invariant", "pool", (3, 2), {}),             # 16,699, invariant holds
        ("witness", "pool", (3, 2, True), {}),         # violation, then --replay
        ("checkpoint", "pool", (3, 2), {"max_states": 6000}),
    ],
    "scale": [
        ("run", "fan", ([2, 2, 1], 3), {"threads": "N"}),   # 37,753
        ("run", "fan", ([3, 2, 1], 3), {"threads": "N"}),   # 56,629
        ("run", "fan", ([2, 2, 2], 2), {"threads": "N"}),   # 23,709
        ("run", "fan", ([1, 1, 1], 4), {"threads": "N"}),   # 29,393
        ("run", "pool", (2, 3), {"workers": 2}),            # 1,325
        ("run", "pool", (3, 1), {"workers": 2}),            # 514
        ("run", "pool", (2, 2), {"workers": 2}),            # 331
    ],
}

# Small jobs the traced run adds to every workload, so every per-layer
# metric is measured on every workload (README.md, "Probes").
PROBES = [
    ("run", "pool", (3, 1), SYM),
    ("run", "compute", (3, 4), POR),
    ("run", "fan", ([2, 1], 3), RF),
    ("invariant", "pool", (2, 2), {}),
    ("witness", "pool", (2, 2, True), {}),
    ("checkpoint", "pool", (2, 3), {"max_states": 400}),
    ("verify", "mp_outline", (2, 1, False), {}),
    ("race", "mp_na", (2, 1, True), {}),
    ("refine", "lock_pair", (2, False), {}),
    ("run", "fan", ([2, 1, 1], 2), {"threads": "P"}),
    ("run", "pool", (2, 2), {"workers": 2}),
]


def _resolve(cls: tuple, par_threads: int) -> tuple:
    kind, template, params, flags = cls
    flags = dict(flags)
    if flags.get("threads") == "N":
        flags["threads"] = par_threads
    elif flags.get("threads") == "P":  # a probe always runs in parallel
        flags["threads"] = max(2, par_threads)
    return kind, template, params, flags


def batch(workload: str, seed: int, par_threads: int = 4,
          probes: bool = False) -> list[dict]:
    """The workload's job batch for `seed`: every menu class once, in a
    seed-drawn order, each with seed-drawn values.  With probes=True the
    traced run's probe jobs are appended (ids prefixed "probe")."""
    if workload not in MENUS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = SplitMix64(seed * 0x100000001B3 + WORKLOADS.index(workload))
    menu = rng.shuffle(list(MENUS[workload]))
    jobs = [_make(rng, f"{workload}{i:02d}", _resolve(c, par_threads))
            for i, c in enumerate(menu)]
    if probes:
        jobs += [_make(rng, f"probe{i:02d}", _resolve(c, par_threads))
                 for i, c in enumerate(PROBES)]
    return jobs
