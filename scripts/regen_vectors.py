#!/usr/bin/env python3
"""Recompute the regression vectors pinned inside the test suite.

The suite freezes a handful of derived values (the safe primes in
conftest.py, group parameters, setup fingerprints, one commitment
payload) so that refactors cannot silently
change observable behaviour. When a deliberate behaviour change is made,
run this script and update the PINNED_* constants in the tests with the
values printed here. Output bytes are pinned by scripts/sweep_outputs.py.
"""

import hashlib
import random

from groupauth.algebra import group_setup, random_safe_prime
from groupauth.channel import encode_residue_hex
from groupauth.harn2013 import harn_gm_init
from groupauth.xia2019 import xia_commit, xia_gm_init


def harn_fingerprint(params, credentials, secret) -> str:
    parts = [str(params.n), str(params.t), str(params.k),
             str(params.modulus), str(secret.value)]
    parts += [str(x.value) for x in params.w]
    parts += [str(x.value) for x in params.d]
    parts.append(params.secret_hash.hex())
    for credential in credentials:
        parts.append(str(credential.owner.value))
        parts += [str(t) for t in credential.tokens]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def xia_fingerprint(params, credentials, secret) -> str:
    parts = [str(params.n), str(params.t), str(params.ell),
             str(params.group.p), str(params.group.q), str(secret.value)]
    parts += [str(g.value) for g in params.generators]
    parts += [h.hex() for h in params.session_hashes]
    for credential in credentials:
        parts += [str(credential.owner.value), str(credential.share.value)]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def main() -> None:
    print("# tests/conftest.py: random_safe_prime(bits, Random(bits))")
    for bits in (128, 256, 512):
        p, _ = random_safe_prime(bits, random.Random(bits))
        print("P%d = %d" % (bits, p))
    print()

    print("# tests/test_algebra.py::TestGroupSetup")
    spec, generators = group_setup(64, 3, rng_seed=5)
    print("PINNED_P = %d" % spec.p)
    print("PINNED_Q = %d" % spec.q)
    print("PINNED_GENS = (%s)" % ", ".join(
        str(g.value) for g in generators
    ))
    print()

    print("# tests/test_harn2013.py::TestIssuance")
    params, credentials, secret = harn_gm_init(5, 2, prime_bits=64,
                                               rng_seed=7)
    print("PINNED_DIGEST = %r" % harn_fingerprint(params, credentials,
                                                  secret))
    print("PINNED_PRIME = %d" % params.modulus)
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
    _, commitment = xia_commit(params, 1, random.Random(99))
    print("PINNED_PAYLOAD = %r" % encode_residue_hex(commitment,
                                                     params.group.p))


if __name__ == "__main__":
    main()
