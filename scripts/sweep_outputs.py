#!/usr/bin/env python3
"""Print one fingerprint line per config of a fixed sweep; this is the
one pin of every output byte.

Usage: PYTHONPATH=src python3 scripts/sweep_outputs.py > sweep.txt

Run it on two checkouts and diff the two files; they must be equal.
tests/test_sweep_outputs.py compares the lines with the committed
tests/sweep_outputs.txt; regenerate that file with the command above,
redirected there, only for a deliberate behaviour change. Each
line holds the config name, the sha256 of its transcript.jsonl digest
followed by its report.json digest, the report's verdict, and the checks
that `audit_transcript` returns (or the audit's failure). The sweep
covers 90 configs: the eight demos as configured (128 bits, their own
seeds) and at 64, 128 and 256 bits and seeds 1-3, honest xia2019 n=48
and harn2013 impersonation n=64 (the two benchmark shapes) at 128 bits
and seeds 1-3, and WIDE_CONFIGS.
"""

import hashlib
import json
import tempfile
from pathlib import Path

from groupauth.cli import (
    DEMOS,
    ScenarioConfig,
    audit_transcript,
    run_scenario,
    write_outputs,
)
from groupauth.errors import GroupAuthError

SEEDS = (1, 2, 3)

# Groups wider than any demo, pinned at 64 bits next to the demos.
WIDE_CONFIGS = {
    # k = 16 positions, so a token's Lagrange weights share one group's
    # numerators across many targets
    "harn-honest-n128-t8": {
        "scheme": "harn2013", "scenario": "honest", "n": 128, "t": 8,
        "prime_bits": 64, "seed": 5,
    },
    "xia-honest-n16": {
        "scheme": "xia2019", "scenario": "honest", "n": 16, "t": 2,
        "prime_bits": 64, "seed": 5,
    },
    "harn-impersonation-n16": {
        "scheme": "harn2013", "scenario": "impersonation", "n": 16, "t": 2,
        "prime_bits": 64, "seed": 5, "observed_group": list(range(1, 9)),
        "victim": 9, "fake_group": list(range(9, 17)),
    },
    # the only pinned world whose closing step replays an observed token
    "xia-impersonation-replay": {
        "scheme": "xia2019", "scenario": "impersonation", "n": 6, "t": 2,
        "prime_bits": 64, "seed": 5, "observed_group": [1, 2, 3],
        "fake_group": [3, 4, 5], "victim": 4, "replay_member": 3,
    },
}


def sweep_configs() -> dict:
    configs = dict(WIDE_CONFIGS)
    for name, entry in DEMOS.items():
        configs[name] = entry["config"]
        for bits in (64, 128, 256):
            for seed in SEEDS:
                configs["%s-%d-s%d" % (name, bits, seed)] = dict(
                    entry["config"], prime_bits=bits, seed=seed)
    for seed in SEEDS:
        configs["xia-honest-n48-128-s%d" % seed] = {
            "scheme": "xia2019", "scenario": "honest", "n": 48, "t": 2,
            "prime_bits": 128, "seed": seed,
        }
        configs["harn-impersonation-n64-128-s%d" % seed] = {
            "scheme": "harn2013", "scenario": "impersonation", "n": 64,
            "t": 2, "prime_bits": 128, "seed": seed,
            "observed_group": list(range(1, 49)), "victim": 49,
            "fake_group": list(range(49, 65)),
        }
    return configs


def sweep_lines():
    """Run each sweep config in name order, write its outputs and yield
    its fingerprint line."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, raw in sorted(sweep_configs().items()):
            config = ScenarioConfig.from_json(raw)
            transcript, report = run_scenario(config)
            out_dir = Path(tmp) / name
            write_outputs(transcript, report, config, out_dir)
            digests = "".join(
                hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
                for f in ("transcript.jsonl", "report.json"))
            try:
                audit = json.dumps(audit_transcript(transcript, config),
                                   sort_keys=True)
            except GroupAuthError as exc:
                audit = "FAIL %s" % exc
            yield " ".join((name, hashlib.sha256(digests.encode()).hexdigest(),
                            report["verdict"], audit))


def main() -> None:
    for line in sweep_lines():
        print(line)


if __name__ == "__main__":
    main()
