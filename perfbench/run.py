"""End-to-end benchmark of the mstep command line.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every CLI invocation runs in a fresh interpreter, one at a time (a closed
loop with one client), because the package's memo tables (``_HANDLES``,
``_RANGE_CACHE``, ``_CONV_CACHE``) live for a whole process and no user
gets their hits across commands.  One *pass* is the workload's whole list
of invocations; passes repeat until another one would overrun ``--seconds``.
Every invocation's exit status and stdout go through the correctness gate.

``--trace 0`` reports the end-to-end metrics: the median pass wall time,
the largest child max-RSS, the median of several fresh-interpreter set-ups,
and the share of invocations that passed the gate.  ``--trace 1`` alternates
plain passes with passes under ``tracer.py`` and reports per-function call
counts and self times summed over the last traced pass, and the traced over
plain wall-time ratio.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Earlier lines record the seed, the generated inputs and the
per-pass samples.  See README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from tracer import OUTCOMES, SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REF = HERE / "ref"
OUT = HERE / "_out"

SETUP_REPS = 9  # fewest timed fresh-interpreter set-ups per run, after one warm-up
CHILD_TIMEOUT_S = 150  # a hung invocation is killed and fails the gate
SOLVE_WINDOW = 40  # n = 0..SOLVE_WINDOW checked against convolution_oracle

SEARCH_BOUNDS = ["--max-p", "14", "--max-k", "3", "--max-span", "6"]

# Factor pool for the seeded solve tuples: canonical name -> recurrence order
# (the degree of its GF denominator).  Every pair is coprime except
# jacobsthal/pow2, which share 1 - 2x.
SOLVE_POOL = {
    "F1": 1, "pow2": 1, "F": 2, "jacobsthal": 2, "pell": 2, "T": 3, "Q": 4, "P": 5,
    "hexanacci": 6, "heptanacci": 7, "octanacci": 8, "F9": 9, "F10": 10, "F11": 11, "F12": 12,
}
# Solve time grows steeply with the product's degree (0.2 s at 11, 2 s at 40),
# so every drawn tuple has the same total order and seeds differ in which
# factors and how many, not in how much work.
SOLVE_TOTAL_ORDER = 16
SOLVE_SIZES = (3, 4, 3, 4, 3, 4)

MANIFEST_SETUP = "import mstep.cli; mstep.cli.catalog.load_manifest()"
IMPORT_SETUP = "import mstep.cli"


def solve_tuples(seed: int) -> list:
    """Six distinct pairwise-coprime factor tuples drawn from the seed."""
    rng = random.Random(seed)
    names = sorted(SOLVE_POOL)
    candidates = {
        size: [c for c in combinations(names, size)
               if sum(SOLVE_POOL[f] for f in c) == SOLVE_TOTAL_ORDER
               and not {"jacobsthal", "pow2"} <= set(c)]
        for size in set(SOLVE_SIZES)
    }
    drawn, tuples = [], []
    for size in SOLVE_SIZES:
        pick = rng.choice([c for c in candidates[size] if c not in drawn])
        drawn.append(pick)
        tuples.append(rng.sample(pick, size))
    return tuples


# -- correctness gate ----------------------------------------------------------


def expect_reference(name: str):
    """Gate: stdout must equal ref/<name>.txt byte for byte."""
    def check(stdout: bytes):
        if stdout != (REF / f"{name}.txt").read_bytes():
            return f"stdout differs from ref/{name}.txt"
        return None
    return check


def expect_solution(factors: list):
    """Gate for `solve --factors`: verified flags, and the printed closed form
    evaluated on n = 0..SOLVE_WINDOW equals the brute-force convolution."""
    def check(stdout: bytes):
        from mstep.convolution_oracle import conv_multi

        try:
            doc = json.loads(stdout)
            verified = doc["verified"]
            if doc["factors"] != factors:
                return f"factors {doc['factors']} != {factors}"
            if verified["gf_equal"] is not True:
                return "verified.gf_equal is not true"
            if not isinstance(verified["oracle_max_n"], int) or verified["oracle_max_n"] < 100:
                return f"verified.oracle_max_n is {verified['oracle_max_n']!r}, below 100"
            for n in range(SOLVE_WINDOW + 1):
                if closed_form_value(doc, n) != conv_multi(factors, n):
                    return f"closed form differs from conv_multi at n={n}"
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed solve output: {exc!r}"
        return None
    return check


def closed_form_value(doc: dict, n: int) -> Fraction:
    from mstep.sequences import handle

    acc = Fraction(0)
    for corr in doc["corrections"]:
        if corr["n"] == n:
            acc += Fraction(corr["coeff"])
    for part in doc["parts"]:
        h = handle(part["seq"])
        for t in part["terms"]:
            acc += Fraction(t["coeff"]) * h.term(n + t["shift"])
    return acc


def gate(code: int, stdout: bytes, check):
    """None if the invocation is correct, else the reason it failed."""
    if code != 0:
        return f"exit status {code}"
    return check(stdout)


# -- workloads -------------------------------------------------------------------


def workload(name: str, seed: int):
    """(invocations, set-up code) for a workload; invocations are (args, check)."""
    if name == "catalog":
        return [(["verify", "--all", "--max-n", "200"], expect_reference("catalog"))], MANIFEST_SETUP
    if name == "catalog-symbolic":
        return ([(["verify", "--all", "--max-n", "200", "--symbolic"],
                  expect_reference("catalog-symbolic"))], MANIFEST_SETUP)
    if name == "solver":
        invs = [(["table", "--max", "12"], expect_reference("table-12"))]
        invs += [(["solve", "--factors", ",".join(t)], expect_solution(t)) for t in solve_tuples(seed)]
        return invs, IMPORT_SETUP
    if name == "search":
        return ([(["search", "--m", str(m), *SEARCH_BOUNDS], expect_reference(f"search-m{m}"))
                 for m in range(2, 7)], IMPORT_SETUP)
    raise ValueError(name)


WORKLOADS = ("catalog", "catalog-symbolic", "solver", "search")


# -- running children ------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list, env: dict):
    """Run one child to completion: (wall seconds, exit code, max RSS in KiB, stdout)."""
    err_path = OUT / "child-stderr.txt"
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            err.seek(0)
            sys.stderr.write(err.read()[-2000:].decode(errors="replace"))
    return wall, code, usage.ru_maxrss, stdout


def run_pass(invocations: list, env: dict, span_dir: Path | None = None):
    """One pass over the invocations: (wall seconds, peak RSS KiB, failures)."""
    wall, peak, failed = 0.0, 0, 0
    for i, (args, check) in enumerate(invocations):
        if span_dir is None:
            cmd = [sys.executable, "-m", "mstep.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(span_dir / f"{i}.json"), *args]
        t, code, rss, stdout = spawn(cmd, env)
        wall += t
        peak = max(peak, rss)
        reason = gate(code, stdout, check)
        if reason is not None:
            failed += 1
            print(f"gate: FAIL mstep {' '.join(args)}: {reason}", file=sys.stderr)
    return wall, peak, failed


def measure(invocations: list, setup: str, seconds: float, env: dict):
    """Passes until another would overrun `seconds`.  A set-up sample follows
    every pass (topped up to SETUP_REPS at the end), so the set-up median
    spans the whole run rather than one moment of a host whose speed drifts."""
    passes, setups = [], []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(invocations, env))
        setups.append(spawn([sys.executable, "-c", setup], env))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    while len(setups) < SETUP_REPS:
        setups.append(spawn([sys.executable, "-c", setup], env))
    if any(code != 0 for _, code, _, _ in setups):
        raise RuntimeError("set-up child failed")
    walls = [w for w, _, _ in passes]
    setup_walls = [t for t, _, _, _ in setups]
    attempted = len(passes) * len(invocations)
    failed = sum(f for _, _, f in passes)
    print(f"# passes={len(passes)} pass_wall_s={walls}")
    print(f"# setups={len(setups)} setup_s={setup_walls}")
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": max(p for _, p, _ in passes) / 1024, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
        "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }
    return attempted, failed, metrics


def trace(invocations: list, seconds: float, env: dict):
    """Alternate plain and traced passes; per-layer figures come from the last
    traced pass, the overhead ratio from the medians of both kinds."""
    span_dir = OUT / "spans"
    span_dir.mkdir(exist_ok=True)
    for stale in span_dir.glob("*.json"):
        stale.unlink()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(invocations, env))
        traced.append(run_pass(invocations, env, span_dir))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            break
    plain_wall = statistics.median(w for w, _, _ in plain)
    traced_wall = statistics.median(w for w, _, _ in traced)
    failed = sum(f for _, _, f in plain + traced)

    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_ns = dict.fromkeys(SPAN_NAMES, 0)
    outcomes = dict.fromkeys(OUTCOMES, 0)
    cache_entries = 0
    for i in range(len(invocations)):
        doc = json.loads((span_dir / f"{i}.json").read_text())
        names, spans = doc["names"], doc["spans"]
        covered = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (idx, start, end, _), child_ns in zip(spans, covered):
            calls[names[idx]] += 1
            self_ns[names[idx]] += end - start - child_ns
        for name, hits in doc["outcomes"].items():
            outcomes[name] += hits
        cache_entries = max(cache_entries, doc["cache_entries"])

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = {"value": calls[name], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_ns[name] / 1e9, "unit": "s"}
    for name, (suffix, _) in OUTCOMES.items():
        value = outcomes[name] / calls[name] if calls[name] else 0.0
        metrics[f"{name}.{suffix}"] = {"value": value, "unit": "ratio"}
    metrics["expressions.cache_entries"] = {"value": cache_entries, "unit": "count"}
    metrics["trace.overhead_ratio"] = {"value": traced_wall / plain_wall, "unit": "ratio"}
    print(f"# pairs={len(plain)} plain_wall_s={[w for w, _, _ in plain]}"
          f" traced_wall_s={[w for w, _, _ in traced]}")
    return 2 * len(plain) * len(invocations), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mstep" / "cli.py").is_file():
        print(f"perfbench: no mstep sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    env = child_env()

    invocations, setup = workload(args.workload, args.seed)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for inv_args, _ in invocations:
        print(f"# mstep {' '.join(inv_args)}")
    # Compile bytecode before timing: users pay that once per install, not per run.
    spawn([sys.executable, "-c", setup], env)
    if args.trace:
        attempted, failed, metrics = trace(invocations, args.seconds, env)
    else:
        attempted, failed, metrics = measure(invocations, setup, args.seconds, env)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
