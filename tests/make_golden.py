"""Rewrite the golden files under tests/golden from the current code.

Run only when an output change is intended, and say why in CHANGES.md:
    PYTHONPATH=src python tests/make_golden.py
"""
from pathlib import Path

from latsec.cli import main
from test_cli import GOLDEN, SMALL_INVOCATIONS
from test_golden import TRANSCRIPTS, transcript_lines

if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, args in sorted(SMALL_INVOCATIONS.items()):
        assert main(args + ["--seed", "3", "--out", str(GOLDEN / f"{name}.csv")]) == 0, name
    TRANSCRIPTS.write_text("\n".join(transcript_lines()) + "\n")
    print(f"wrote {len(SMALL_INVOCATIONS)} CLI tables and {TRANSCRIPTS.name} under {GOLDEN}")
