"""Checks of the benchmark itself, run from the repository root::

    python3 perfbench/selfcheck.py [--seed N] [WORKLOAD ...]

1. The correctness gate flags a corrupted stdout, a non-zero exit status,
   a `solve` output whose oracle_max_n is below 100 and a `solve` output
   whose closed form is wrong, and passes the genuine outputs.
2. Two traced runs of the same seed give identical call counts, outcome
   ratios and cache sizes, for each named workload (default: all four).

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run

FAILURES = []


def expect(label: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        FAILURES.append(label)


def solve(env: dict, factors: str, *extra: str):
    _, code, _, stdout = run.spawn(
        [sys.executable, "-m", "mstep.cli", "solve", "--factors", factors, *extra], env)
    return code, stdout


def check_gate(env: dict) -> None:
    ref = (run.REF / "search-m2.txt").read_bytes()
    check = run.expect_reference("search-m2")
    expect("reference stdout passes", run.gate(0, ref, check) is None)
    corrupted = ref[:100] + (b"7" if ref[100:101] != b"7" else b"8") + ref[101:]
    expect("corrupted stdout is flagged", run.gate(0, corrupted, check) is not None)
    expect("non-zero exit with reference stdout is flagged", run.gate(1, ref, check) is not None)

    factors = ["F", "T", "Q"]
    code, stdout = solve(env, "jacobsthal,pow2")
    expect("solve of non-coprime factors (exit 2) is flagged",
           code == 2
           and run.gate(code, stdout, run.expect_solution(["jacobsthal", "pow2"])) is not None)
    code, good = solve(env, ",".join(factors))
    expect("genuine solve output passes", run.gate(code, good, run.expect_solution(factors)) is None)
    code, short = solve(env, ",".join(factors), "--oracle-n", "50")
    expect("solve output with oracle_max_n 50 is flagged",
           code == 0 and run.gate(code, short, run.expect_solution(factors)) is not None)
    doc = json.loads(good)
    doc["parts"][0]["terms"][0]["coeff"] += "1"
    wrong = json.dumps(doc).encode()
    expect("solve output with a wrong coefficient is flagged",
           run.gate(0, wrong, run.expect_solution(factors)) is not None)
    expect("solve output that is not JSON is flagged",
           run.gate(0, b"oops\n", run.expect_solution(factors)) is not None)


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    expect(f"{workload}: traced run is correct", result["correct"])
    return {k: v["value"] for k, v in result["metrics"].items()
            if not k.endswith(".self_s") and k != "trace.overhead_ratio"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=list(run.WORKLOADS))
    args = parser.parse_args(argv)
    if not (run.SRC / "mstep" / "cli.py").is_file():
        print("selfcheck: run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)

    check_gate(run.child_env())
    for workload in args.workloads:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        differing = sorted(k for k in first if first[k] != second.get(k))
        expect(f"{workload}: {len(first)} traced counts and ratios repeat exactly"
               + (f" (differ: {differing})" if differing else ""), not differing)
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
