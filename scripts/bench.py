#!/usr/bin/env python3
"""Compare two checkouts on the gated benchmark workloads.

    python3 scripts/bench.py --base DIR --change DIR --number N [--seed 7]

For every workload that the change checkout's BENCHMARK.json gates, it
first runs `perfbench/run.py --trace 1` once in each checkout, which
fails if a per-layer metric reads 0 on a layer the workload calls (a
change that stops calling a traced function). It then runs
`perfbench/run.py --trace 0` inside each checkout, in 10 alternating
pairs (base first in even pairs, change first in odd ones, so a drift of
the host's speed does not favour one side), for that file's run_seconds.
Any run that exits non-zero or fails its correctness gate stops the
comparison, so no file is written for an incorrect side. Writes
BENCH_<N>.json at the root of this repository: host, git revisions (with
a hash of the uncommitted diff of a dirty checkout), and per workload
the per-layer values of both sides (`layers`) and, per end-to-end
metric, the median and quartiles of each side, the per-pair values, and
in how many pairs the change was better. Standard library only.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
# The per-layer values come from a fixed scenario prefix; the seconds only
# bound how long the traced run keeps going after it.
TRACE_SECONDS = 10


def git_rev(checkout: Path) -> dict:
    """HEAD of a checkout and, if its tracked files differ from it, the
    sha256 of `git diff HEAD`, which names the tree that was measured."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return {"rev": None, "diff_sha256": None}
    diff = git("diff", "HEAD", "--binary").stdout
    return {"rev": head.stdout.decode().strip(),
            "diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None}


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float, trace: int = 0) -> tuple:
    """(header, result) of one benchmark run in `checkout`; raises unless
    the run exits 0 and reports itself correct."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, timeout=seconds * 4 + 600)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or result.get("correct") is not True:
        raise RuntimeError("%s --trace %d in %s exited %d (correct: %s):\n%s"
                           % (workload, trace, checkout, done.returncode,
                              result.get("correct"),
                              (done.stdout + done.stderr)[-2000:]))
    header = json.loads(lines[0][2:]) if lines[0].startswith("# {") else {}
    return header, result


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(base_runs: list, change_runs: list, metrics: list) -> dict:
    """Per-metric summaries of both sides and pairwise wins."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        base = [run["metrics"][name]["value"] for run in base_runs]
        change = [run["metrics"][name]["value"] for run in change_runs]
        lower = metric["better"] == "lower"
        wins = sum((c < b) if lower else (c > b)
                   for b, c in zip(base, change))
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"],
            "base": summary(base), "change": summary(change),
            "change_better_pairs": wins,
        }
    return out


def layers(base: dict, change: dict, metrics: list) -> dict:
    """Per-layer values of one traced run of each side."""
    return {
        metric["name"]: {
            "unit": metric["unit"], "better": metric["better"],
            "base": base["metrics"][metric["name"]]["value"],
            "change": change["metrics"][metric["name"]]["value"],
        }
        for metric in metrics
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--number", type=int, required=True,
                        help="write BENCH_<number>.json at the repo root")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"base": args.base, "change": args.change}
    host = None
    workloads = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        traced = {}
        for side in sides:
            _, traced[side] = run_once(sides[side], workload, args.seed,
                                       TRACE_SECONDS, trace=1)
            print("%s traced %s: per-layer check passed" % (workload, side),
                  file=sys.stderr)
        runs = {"base": [], "change": []}
        for pair in range(PAIRS):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                header, result = run_once(sides[side], workload, args.seed,
                                          seconds)
                if host is None:
                    # the revisions are recorded per side below
                    host = {key: value
                            for key, value in header.get("host", {}).items()
                            if key != "git_rev"}
                runs[side].append(result)
                print("%s pair %d %s: run_ref.mean %.4g"
                      % (workload, pair, side,
                         result["metrics"]["run_ref.mean"]["value"]),
                      file=sys.stderr)
        workloads[workload] = {
            "failed": {side: sum(r["failed"] for r in runs[side])
                       for side in runs},
            "attempted": {side: sum(r["attempted"] for r in runs[side])
                          for side in runs},
            "metrics": compare(runs["base"], runs["change"],
                               spec["end_to_end"]),
            "layers": layers(traced["base"], traced["change"],
                             spec["per_layer"]),
        }
    out = {
        "host": host,
        "revs": {side: git_rev(path) for side, path in sides.items()},
        "seed": args.seed,
        "seconds": seconds,
        "pairs": PAIRS,
        "workloads": workloads,
    }
    path = ROOT / ("BENCH_%d.json" % args.number)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % path.name, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
