"""groupauth benchmark: seeded scenario workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports `groupauth` from
`src/` of that checkout and nowhere else. Metric names, units and the
workload list are defined in `BENCHMARK.json` at the checkout root.

One client runs a closed loop in a single process. A scenario unit is what
`groupauth demo` does: `run_scenario` + `write_outputs`, then
`Transcript.read_jsonl` + `audit_transcript` on the bytes written. Every
scenario seed is derived from the workload seed, so the same seed gives
the same inputs.

--trace 0 runs scenario units for S seconds with tracing off and reports
the end-to-end metrics. A fixed reference loop that calls no groupauth
code runs before and after every unit, and the gated times are given in
units of its time, so that they do not follow the shared host's speed;
the wall times as measured are printed in the table. The run also times
`setup_s`, a fresh interpreter importing `groupauth`, and re-runs the
first scenario to check that its transcript and report are
byte-identical.

--trace 1 installs the tracer (perfbench/tracer.py) and runs scenario
units for S/2 seconds, and at least the workload's trace prefix. It then
replays the same seeds untraced, requires their output bytes to match,
and reports the per-layer metrics over the trace prefix, plus the tracing
overhead as the untraced minus the traced scenarios per second. A
per-layer metric that reads 0 fails the run, unless the workload names its
layer as one it never calls.

Every scenario must reach verdict `expected` and pass the audit. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it are a readable
table with sample counts and the host. The exit code is 1 if any check
failed and 2 if the benchmark could not run.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Fresh-interpreter imports timed per run for setup_s; the median is
# reported.
SETUP_REPEATS = 5
# A tail percentile needs this many samples above it.
TAIL_MARGIN = 10
# Printed in the table, not gated in BENCHMARK.json: wall times as
# measured, which follow the host's speed.
TABLE_ONLY = {"scenarios_per_s": "1/s", "run_s.p50": "s", "run_s.tail": "s",
              "audit_s.p50": "s", "audit_s.tail": "s", "ref_s.p50": "s"}


@dataclass(frozen=True)
class Workload:
    """A seeded scenario sequence: `config(index, seed)` is the scenario
    config for unit `index`, and the traced run reports per-layer metrics
    over its first `trace_prefix` units. Every per-layer metric must read
    nonzero there, except those whose name starts with one of `skips`: the
    layers this workload never calls."""

    config: Callable
    trace_prefix: int
    skips: tuple = ()


def _xia_honest(n, bits):
    def config(index, seed):
        return {"scheme": "xia2019", "scenario": "honest", "n": n, "t": 2,
                "ell": 1, "prime_bits": bits, "seed": seed}
    return config


def _harn_attack(n, observed, bits):
    def config(index, seed):
        return {"scheme": "harn2013", "scenario": "impersonation", "n": n,
                "t": 2, "prime_bits": bits, "seed": seed,
                "observed_group": list(range(1, observed + 1)),
                "victim": observed + 1,
                "fake_group": list(range(observed + 1, n + 1))}
    return config


def _demo_sweep(bits):
    def config(index, seed):
        from groupauth.cli import DEMOS
        names = sorted(DEMOS)
        raw = dict(DEMOS[names[index % len(names)]]["config"])
        raw.update(prime_bits=bits, seed=seed)
        return raw
    return config


# Honest xia2019 runs no adversary and no harn2013; its dealer searches a
# safe prime, never a plain one.
XIA_SKIPS = ("adversary.", "harn2013.", "algebra.random_prime.")
# harn2013 works in a prime field: no group elements, no safe prime.
HARN_SKIPS = ("xia2019.", "algebra.group_", "algebra.random_safe_prime.")

WORKLOADS = {
    "xia-honest-wide": Workload(_xia_honest(48, 128), trace_prefix=4,
                                skips=XIA_SKIPS),
    "harn-attack-wide": Workload(_harn_attack(64, 48, 128), trace_prefix=4,
                                 skips=HARN_SKIPS),
    "demo-sweep-256": Workload(_demo_sweep(256), trace_prefix=16),
}


def scenario_seed(workload, seed, index):
    text = "perfbench:%s:%d:%d" % (workload, seed, index)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


# ---------------------------------------------------------------------------
# one scenario unit


class Scenarios:
    """Runs scenario units of one workload into a scratch directory."""

    def __init__(self, name, workload, seed, work_dir):
        from groupauth import channel, cli
        self._channel = channel
        self._cli = cli
        self.name = name
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir

    def config(self, index):
        raw = self.workload.config(
            index, scenario_seed(self.name, self.seed, index)
        )
        return self._cli.ScenarioConfig.from_json(raw)

    def run(self, index):
        """(run seconds, audit seconds, ok); module attributes are looked
        up on every call so the tracer's wrappers are the ones called."""
        cli, channel = self._cli, self._channel
        config = self.config(index)
        try:
            start = time.perf_counter()
            transcript, report = cli.run_scenario(config)
            cli.write_outputs(transcript, report, config, self.work_dir)
            ran = time.perf_counter()
            reread = channel.Transcript.read_jsonl(
                self.work_dir / "transcript.jsonl"
            )
            checks = cli.audit_transcript(reread, config)
            audited = time.perf_counter()
        except Exception as exc:  # a failed scenario is counted, not fatal
            print("# scenario %d (seed %d) raised %s: %s"
                  % (index, config.seed, type(exc).__name__, exc))
            return 0.0, 0.0, False
        ok = (report["verdict"] == "expected"
              and checks["decisions_match_wire"]
              == report["counts"]["decisions"])
        if not ok:
            print("# scenario %d (seed %d) verdict %s, checks %s"
                  % (index, config.seed, report["verdict"], report["checks"]))
        return ran - start, audited - ran, ok

    def output_digest(self):
        digest = hashlib.sha256()
        for name in ("transcript.jsonl", "report.json"):
            digest.update((self.work_dir / name).read_bytes())
        return digest.hexdigest()


# ---------------------------------------------------------------------------
# measurements


def percentile_with_margin(values):
    """(value, percentile) of the highest percentile with TAIL_MARGIN
    samples above it: the (TAIL_MARGIN + 1)-th largest sample. Where that
    sample lies below the upper median, which happens with fewer than
    2 * TAIL_MARGIN + 1 samples, the upper median is reported instead."""
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_MARGIN, len(ordered) // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def time_setup():
    """Median wall time of a fresh interpreter importing groupauth."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import groupauth"], cwd=ROOT,
                       env=env, check=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


@dataclass(frozen=True)
class _Residue:
    """A range-checked residue, built the way groupauth builds its field
    and group elements."""

    value: int
    modulus: int

    def __post_init__(self):
        if not 0 <= self.value < self.modulus:
            raise ValueError("residue out of range")

    def muladd(self, factor, addend):
        return _Residue((self.value * factor.value + addend.value)
                        % self.modulus, self.modulus)


def reference_loop():
    """Fixed work that calls no groupauth code, of the kinds the scenarios
    do: 127-bit modular inverses, small-object churn, sorting and a JSON
    round trip. It takes 0.07-0.1 s on a shared 2.0 GHz Xeon. Its time
    tracks the speed of the host, never that of the program."""
    rng = random.Random(12345)
    p = (1 << 127) - 1
    acc, table = 0, {}
    for i in range(400):
        x = rng.getrandbits(126) | 1
        acc = (acc + pow(x, p - 2, p)) % p
        table[i] = [x % 97, acc % 89]
        sorted(table.values())
    xs = [_Residue(rng.getrandbits(126), p) for _ in range(64)]
    residue, records = _Residue(1, p), []
    for i in range(9000):
        residue = residue.muladd(xs[i % 64], xs[i * 7 % 64])
        if i % 8 == 0:
            records.append({"type": "envelope", "i": i,
                            "value": str(residue.value)})
    text = "\n".join(json.dumps(r, sort_keys=True) for r in records)
    return acc, len([json.loads(line) for line in text.splitlines()])


def reference_seconds():
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def host_info():
    import sympy
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        ).stdout.strip() or "unknown"
    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_rev": rev,
    }


def ratios_with_margin(values, refs):
    """(median, tail, tail percentile) of the per-scenario ratios
    value / reference."""
    ratios = [value / ref for value, ref in zip(values, refs)]
    tail, pct = percentile_with_margin(ratios)
    return statistics.median(ratios), tail, pct


def run_untraced(scenarios, seconds):
    """Closed loop for `seconds`; returns (metrics, notes, samples,
    attempted, failed), with the first scenario re-run for byte
    determinism. The reference loop runs before and after every scenario
    unit."""
    run_s, audit_s, ref_s = [], [], []
    failed = 0
    index = 0
    first_digest = None
    start = time.perf_counter()
    deadline = start + seconds
    refs = [reference_seconds()]
    while True:
        ran, audited, ok = scenarios.run(index)
        refs.append(reference_seconds())
        if ok:
            run_s.append(ran)
            audit_s.append(audited)
            # the host's speed around this unit
            ref_s.append((refs[-2] + refs[-1]) / 2)
        else:
            failed += 1
        if index == 0:
            first_digest = scenarios.output_digest() if ok else None
        index += 1
        if time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - start - sum(refs)
    attempted = index + 1
    _, _, ok = scenarios.run(0)
    if not ok or first_digest is None \
            or scenarios.output_digest() != first_digest:
        print("# scenario 0 did not reproduce its transcript and report bytes")
        failed += 1
    if not run_s:
        return {}, {}, 0, attempted, failed
    run_tail, run_pct = percentile_with_margin(run_s)
    audit_tail, audit_pct = percentile_with_margin(audit_s)
    run_p50, run_ref_tail, run_ref_pct = ratios_with_margin(run_s, ref_s)
    audit_p50, audit_ref_tail, audit_ref_pct = ratios_with_margin(
        audit_s, ref_s)
    metrics = {
        "run_ref.mean": sum(run_s) / sum(ref_s),
        "run_ref.p50": run_p50,
        "run_ref.tail": run_ref_tail,
        "audit_ref.mean": sum(audit_s) / sum(ref_s),
        "audit_ref.p50": audit_p50,
        "audit_ref.tail": audit_ref_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "scenarios_per_s": len(run_s) / wall,
        "run_s.p50": statistics.median(run_s),
        "run_s.tail": run_tail,
        "audit_s.p50": statistics.median(audit_s),
        "audit_s.tail": audit_tail,
        "ref_s.p50": statistics.median(ref_s),
    }
    notes = {"run_s.tail": "p%.1f" % run_pct,
             "audit_s.tail": "p%.1f" % audit_pct,
             "run_ref.tail": "p%.1f" % run_ref_pct,
             "audit_ref.tail": "p%.1f" % audit_ref_pct}
    return metrics, notes, len(run_s), attempted, failed


def run_traced(scenarios, seconds, names, trace_file, header):
    """Traced phase, then an untraced replay of the same seeds."""
    from tracer import Tracer
    prefix = scenarios.workload.trace_prefix
    tracer = Tracer()
    digests = []
    failed = 0
    tracer.install()
    try:
        start = time.perf_counter()
        deadline = start + seconds / 2.0
        while len(digests) < prefix or time.perf_counter() < deadline:
            tracer.scenario = len(digests)
            _, _, ok = scenarios.run(len(digests))
            failed += not ok
            digests.append(scenarios.output_digest() if ok else None)
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    start = time.perf_counter()
    for index, digest in enumerate(digests):
        _, _, ok = scenarios.run(index)
        if digest is not None and (
                not ok or scenarios.output_digest() != digest):
            print("# scenario %d: traced and untraced outputs differ" % index)
            failed += 1
    untraced_wall = time.perf_counter() - start
    count = len(digests)
    metrics = tracer.layer_metrics(
        [n for n in names if not n.startswith("trace.")], prefix
    )
    for name, value in metrics.items():
        if value == 0 and not name.startswith(scenarios.workload.skips):
            print("# per-layer metric %s read 0, but its layer runs" % name)
            failed += 1
    metrics["trace.overhead_scenarios_per_s"] = (
        count / untraced_wall - count / traced_wall
    )
    tracer.write(trace_file, dict(header, trace_prefix=prefix), prefix)
    notes = {"trace.overhead_scenarios_per_s":
             "traced %.3f/s, untraced %.3f/s over %d scenarios"
             % (count / traced_wall, count / untraced_wall, count)}
    return metrics, notes, prefix, 2 * count, failed


# ---------------------------------------------------------------------------
# entry point


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_benchmark(workload, seed, seconds, trace, workloads=None):
    """Run one workload and return the result object the CLI prints."""
    workloads = WORKLOADS if workloads is None else workloads
    spec = load_spec()
    group = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    header = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "host": host_info()}
    print("# %s" % json.dumps(header, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        scenarios = Scenarios(workload, workloads[workload], seed, work_dir)
        if trace:
            trace_file = OUT / ("trace-%s-seed%d.jsonl.gz" % (workload, seed))
            metrics, notes, samples, attempted, failed = run_traced(
                scenarios, seconds, list(units), trace_file, header
            )
            print("# spans written to %s" % trace_file.relative_to(ROOT))
        else:
            metrics, notes, samples, attempted, failed = run_untraced(
                scenarios, seconds
            )
            metrics["setup_s"] = time_setup()
            notes["setup_s"] = "median of %d" % SETUP_REPEATS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    shown = dict(units) if trace else dict(TABLE_ONLY, **units)
    for name, unit in shown.items():
        if name in metrics:
            print("# %-40s %14.6g %-6s n=%d %s"
                  % (name, metrics[name], unit, samples,
                     notes.get(name, "")))
    print("# %-40s %14.6g %-6s %d of %d"
          % ("failed_ratio", failed / attempted, "ratio", failed, attempted))
    correct = failed == 0 and set(metrics) >= set(units)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "groupauth" / "__init__.py").is_file():
        print("error: no groupauth sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import groupauth
    if Path(groupauth.__file__).resolve().parent != SRC / "groupauth":
        print("error: imported groupauth from %s, not from %s"
              % (groupauth.__file__, SRC), file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
