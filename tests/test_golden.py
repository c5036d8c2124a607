"""Seeded message rounds and key rounds reproduce `golden/transcripts.jsonl`.

Every float of a transcript (dithers, signals, observations, the masked sum)
is compared through its JSON text, so a refactor that moves any of them in
the last bit fails here.  The golden files are rewritten only when an output
change is intended: `PYTHONPATH=src python tests/make_golden.py`.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from latsec.channel import (ChannelConfig, MLDecoder, build_system, make_codebook,
                            random_dithers, run_message_round, select_secrecy_hash)
from latsec.extractor import ExtractorSpec, KeyAgreementRunner, KeyProtocolSetup
from latsec.hashing import int_to_bits

TRANSCRIPTS = Path(__file__).resolve().parent / "golden" / "transcripts.jsonl"


def _dithers(codebook, kind: str, seed: int):
    if kind == "zero":
        return codebook.dither_vectors(), codebook.dither_vectors()
    return (random_dithers(codebook, np.random.default_rng(seed)),
            random_dithers(codebook, np.random.default_rng(seed + 1)))


def transcript_lines() -> list[str]:
    """JSON of 8 message rounds (both modes, zero and random dithers) and of
    8 key rounds (two block dimensions, both signs, zero and random dithers)."""
    lines = []
    cb = make_codebook(4, 4)
    cfg = ChannelConfig(a=2.0, b=1.0, noise_var1=0.05)
    for kind in ("zero", "random"):
        d1, d2 = _dithers(cb, kind, 11)
        sel = select_secrecy_hash(cb, 2, d1, n_candidates=2, seed=5)
        system = build_system(cb, sel.kit, d1, d2)
        decoder = MLDecoder(cfg, system)
        for mode in ("marginal", "genie"):
            for seed in (0, 1):
                tr = run_message_round(cfg, system, int_to_bits(seed + 1, 2), seed,
                                       mode=mode, decoder=decoder)
                lines.append(tr.to_json())
    for key_cb in (make_codebook(4, 2), cb):
        spec = ExtractorSpec(key_cb.n0_bits, 2)
        for sign in (1, -1):
            key_cfg = ChannelConfig(a=2.0, b=1.0, sign=sign, noise_var1=0.05)
            for seed, kind, mode in ((0, "zero", "marginal"), (1, "random", "genie")):
                setup = KeyProtocolSetup(key_cb, spec, *_dithers(key_cb, kind, 21))
                lines.append(KeyAgreementRunner(key_cfg, setup).run_one(seed, mode=mode).to_json())
    return lines


def test_transcripts_match_golden():
    got = transcript_lines()
    want = TRANSCRIPTS.read_text().splitlines()
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"transcript line {i + 1} differs"
