"""Run-to-run spread of the benchmark across seeds.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...]
        [--seeds 1-10] [--seconds S] [--out FILE]

Runs `perfbench/run.py --trace 0` once per seed for each workload, one run
at a time, and prints for every end-to-end metric the median, the first
and third quartile (`statistics.quantiles(values, n=4)`), and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json. It does
the same, with no bound, for the raw wall times the run prints in its table
but does not gate. With --out it also writes every value, the summary and
the host as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import TABLE_ONLY

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run %s seed %d failed (exit %d):\n%s%s"
                         % (workload, seed, proc.returncode, proc.stdout,
                            proc.stderr))
    host = json.loads(lines[0][2:])["host"]
    table = {}
    for line in lines[1:-1]:
        fields = line[2:].split()
        if fields and fields[0] in TABLE_ONLY:
            table[fields[0]] = float(fields[1])
    return json.loads(lines[-1]), table, host


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds.update((name, None) for name in TABLE_ONLY)
    report = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workload:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            result, table, report["host"] = run_once(workload, seed, seconds)
            if not result["correct"]:
                raise SystemExit("%s seed %d: incorrect result %s"
                                 % (workload, seed, result))
            for name in bounds:
                values[name].append(table[name] if name in table
                                    else result["metrics"][name]["value"])
        summary = {}
        print("%s (%d seeds, %g s)" % (workload, len(args.seeds), seconds))
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bounds[name]}
            bound = bounds[name]
            print("  %-16s median %10.5g  q1 %10.5g  q3 %10.5g  spread %6.3f"
                  "  %s" % (name, median, q1, q3, spread,
                            "not gated" if bound is None else
                            "bound %.2f%s" % (bound, "" if spread < bound / 3
                                              else "  (>= bound/3)")))
        report["workloads"][workload] = {"values": values,
                                         "summary": summary}
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
