#!/usr/bin/env python3
"""Recompute the regression vectors pinned inside the test suite.

The suite freezes a handful of derived values (group parameters, setup
fingerprints, one commitment payload) so that refactors cannot silently
change observable behaviour. When a deliberate behaviour change is made,
run this script and update the PINNED_* constants in the tests with the
values printed here.
"""

import hashlib
import random
import tempfile
from pathlib import Path

from groupauth.algebra import group_setup
from groupauth.cli import DEMOS, ScenarioConfig, run_scenario, write_outputs
from groupauth.harn2013 import harn_gm_init
from groupauth.xia2019 import xia_commit, xia_gm_init


def harn_fingerprint(bundle, credentials, secret) -> str:
    parts = [
        str(bundle.params.n), str(bundle.params.t), str(bundle.params.k),
        str(bundle.params.prime), str(secret.value),
    ]
    parts += [str(x.value) for x in bundle.w]
    parts += [str(x.value) for x in bundle.d]
    parts.append(bundle.secret_hash.hex())
    for credential in credentials:
        parts.append(str(credential.owner.value))
        parts += [str(t.value) for t in credential.tokens]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def xia_fingerprint(params, credentials, secret) -> str:
    parts = [str(params.n), str(params.t), str(params.ell),
             str(params.group.p), str(params.group.q), str(secret.value)]
    parts += [str(g.value) for g in params.generators]
    parts += [h.hex() for h in params.session_hashes]
    for credential in credentials:
        parts += [str(credential.owner.value), str(credential.share.value)]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


# Groups wider than any demo, pinned at 64 bits next to the demos.
WIDE_CONFIGS = {
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


def run_configs(configs: dict):
    """Run each named config in name order and write its outputs; yields
    (name, config, transcript, report, (sha256 of transcript.jsonl,
    sha256 of report.json))."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, raw in sorted(configs.items()):
            config = ScenarioConfig.from_json(raw)
            transcript, report = run_scenario(config)
            out_dir = Path(tmp) / name
            write_outputs(transcript, report, config, out_dir)
            yield name, config, transcript, report, tuple(
                hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
                for f in ("transcript.jsonl", "report.json")
            )


def output_digests(configs: dict) -> dict:
    """sha256 of (transcript.jsonl, report.json) per named config."""
    return {name: digests
            for name, _, _, _, digests in run_configs(configs)}


def print_digests(constant: str, digests: dict) -> None:
    print("%s = {" % constant)
    for name, (transcript, report) in digests.items():
        print('    "%s": (\n        "%s",\n        "%s",\n    ),' % (
            name, transcript, report))
    print("}")


def main() -> None:
    print("# tests/test_algebra.py::TestGroupSetup")
    spec, generators = group_setup(64, 3, rng_seed=5)
    print("PINNED_P = %d" % spec.p)
    print("PINNED_Q = %d" % spec.q)
    print("PINNED_GENS = (%s)" % ", ".join(
        str(g.value) for g in generators
    ))
    print()

    print("# tests/test_harn2013.py::TestIssuance")
    bundle, credentials, secret = harn_gm_init(5, 2, prime_bits=64,
                                               rng_seed=7)
    print("PINNED_DIGEST = %r" % harn_fingerprint(bundle, credentials,
                                                  secret))
    print("PINNED_PRIME = %d" % bundle.params.prime)
    print("PINNED_SECRET = %d" % secret.value)
    print()

    print("# tests/test_xia2019.py::TestSetup")
    params, credentials, secret = xia_gm_init(5, 3, ell=2, prime_bits=64,
                                              rng_seed=11)
    print("PINNED_DIGEST = %r" % xia_fingerprint(params, credentials,
                                                 secret))
    print("PINNED_P = %d" % params.group.p)
    print("PINNED_Q = %d" % params.group.q)
    print("PINNED_SECRET = %d" % secret.value)
    print()

    print("# tests/test_xia2019.py::TestCommitment")
    state = credentials[0].start_session(1, [1, 2, 3], params)
    envelope = xia_commit(state, random.Random(99))
    print("PINNED_PAYLOAD = %r" % envelope.payload)
    print()

    print("# tests/test_cli.py")
    print_digests("PINNED_DEMO_DIGESTS", output_digests(
        {name: entry["config"] for name, entry in DEMOS.items()}
    ))
    print_digests("PINNED_WIDE_DIGESTS", output_digests(WIDE_CONFIGS))


if __name__ == "__main__":
    main()
