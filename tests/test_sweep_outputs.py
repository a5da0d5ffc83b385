"""Every config of scripts/sweep_outputs.py still prints the line that
tests/sweep_outputs.txt pins: the sha256 of its transcript.jsonl and
report.json, its verdict and its audit checks. This is the one pin of
output bytes: a change to any output byte of the 90 configs, the eight
demos as configured among them, fails here.

Regenerate the pinned file only for a deliberate behaviour change, and
record why in CHANGES.md:

    PYTHONPATH=src python3 scripts/sweep_outputs.py > tests/sweep_outputs.txt
"""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "sweep_outputs", _ROOT / "scripts" / "sweep_outputs.py")
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)

PINNED = Path(__file__).resolve().parent / "sweep_outputs.txt"


def test_sweep_outputs_match_pinned_lines():
    pinned = PINNED.read_text().splitlines()
    lines = list(sweep.sweep_lines())
    assert len(pinned) == 90
    assert [line.split()[0] for line in lines] == \
        [line.split()[0] for line in pinned]
    changed = [line for line, pin in zip(lines, pinned) if line != pin]
    assert not changed, "outputs changed:\n%s" % "\n".join(changed)
