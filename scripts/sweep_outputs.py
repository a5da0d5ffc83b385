#!/usr/bin/env python3
"""Print one fingerprint line per config of a fixed sweep, to show that a
refactor leaves every output byte-identical.

Usage: PYTHONPATH=src python3 scripts/sweep_outputs.py > sweep.txt

Run it on two checkouts and diff the two files; they must be equal. Each
line holds the config name, the sha256 of its transcript.jsonl digest
followed by its report.json digest, the report's verdict, and the checks
that `audit_transcript` returns (or the audit's failure). The sweep
covers the eight demos at 64, 128 and 256 bits and seeds 1-3, honest
xia2019 n=48 and harn2013 impersonation n=64 (the two benchmark shapes)
at 128 bits and seeds 1-3, and the pinned WIDE_CONFIGS of
regen_vectors.py.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from groupauth.cli import DEMOS, audit_transcript  # noqa: E402
from groupauth.errors import GroupAuthError  # noqa: E402
from regen_vectors import WIDE_CONFIGS, run_configs  # noqa: E402

SEEDS = (1, 2, 3)


def sweep_configs() -> dict:
    configs = dict(WIDE_CONFIGS)
    for name, entry in DEMOS.items():
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


def main() -> None:
    for name, config, transcript, report, digests in run_configs(
            sweep_configs()):
        try:
            audit = json.dumps(audit_transcript(transcript, config),
                               sort_keys=True)
        except GroupAuthError as exc:
            audit = "FAIL %s" % exc
        digest = hashlib.sha256("".join(digests).encode()).hexdigest()
        print(name, digest, report["verdict"], audit)


if __name__ == "__main__":
    main()
