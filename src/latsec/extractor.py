"""Seeded extraction of near-uniform key bits and the two-party key protocol.

The extractor is a seeded linear hash: the public seed IS the r-by-N bit
matrix, unpacked directly (a pinned zero-stretch expansion), so drawing a
uniform seed draws a uniform member of the universal family and every
family-level entropy guarantee applies verbatim.

In the key protocol the first sender transmits a uniform codebook point
under jamming; the receiver recovers it by exhaustive maximum-likelihood
decoding and both ends hash it with the shared seed.  The eavesdropper's
view is the seed, the dithers, and the (modular sum, carry) pair, and the
key's conditional entropy given that view is computed exhaustively.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._rng import substream
from .channel import (ChannelConfig, LayeredCodebook, MLDecoder, build_system,
                      coordinate_specs, scale_channel)
from .counting import CellCapError, seed_histogram
from .entropy import xlog2x_sum
from .errors import ConfigError, DomainError, ResourceCapError, ValidationError
from .hashing import bits_to_int, int_to_bits
from .lattice import NestedLatticePair, reduce_carry


@dataclass(frozen=True)
class ExtractorSpec:
    """Seeded-linear-hash extractor: input_len bits in, output_len bits out.

    The seed length is input_len * output_len (one bit per matrix entry).
    """

    input_len: int
    output_len: int

    def __post_init__(self):
        if self.input_len < 1 or self.output_len < 1:
            raise ValidationError("extractor lengths must be positive")
        if self.output_len > self.input_len:
            raise ValidationError("cannot extract more bits than provided")

    @property
    def seed_len(self) -> int:
        return self.input_len * self.output_len

    @property
    def seed_space(self) -> int:
        return 1 << self.seed_len


def matrix_from_seed(spec: ExtractorSpec, seed: int) -> np.ndarray:
    """Seed bits as an output_len-by-input_len matrix; entry (i, j) is bit i*N+j.

    Bit 0 is the most significant of the seed integer, so the layout is
    row-major and the expansion is exactly the seed's binary digits.
    """
    bits = int_to_bits(seed, spec.seed_len)
    return bits.reshape(spec.output_len, spec.input_len)


def extract(spec: ExtractorSpec, a_bits, seed: int) -> np.ndarray:
    """r output bits: the seed matrix applied to the input over GF(2)."""
    a = np.asarray(a_bits, dtype=np.int64)
    if a.shape != (spec.input_len,):
        raise DomainError(f"input must be {spec.input_len} bits")
    return (matrix_from_seed(spec, seed) @ a) % 2


# ---------------------------------------------------------------------------
# Exhaustive key-secrecy audit.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeySecrecyReport:
    """Exact H(key | seed, modular sum, carry) against its leftover-hash floor.

    budget_c is the average conditional min-entropy of the sender's point
    given the eavesdropper pair; eps_sec = 2^(-(c - r)/2) is the slack the
    budget affords, and the audit passes when the exhaustive entropy stays
    above r - eps_sec.
    """

    h_key_given_view: float
    budget_c: float
    eps_sec: float
    floor: float
    seed_space: int
    sigma_space: int
    passed: bool


def key_secrecy_report(codebook: LayeredCodebook, r: int, dithers1=None,
                       sign: str = "+") -> KeySecrecyReport:
    """Average the key entropy over every seed and every eavesdropper value.

    Requires a power-of-two nesting, so the labels cover the whole codebook,
    uniform independent sender and jammer points, and fixed dithers.  The
    count of sender points consistent with each observation is an integer
    windowing problem, counted for all 2^(r n0) seeds at once by
    `counting.seed_histogram`; an audit whose count would touch more than
    `counting.SEED_CELL_CAP` cells, or overflow int64, is refused with
    `ResourceCapError`.
    """
    if sign not in ("+", "-"):
        raise DomainError("sign must be '+' or '-'")
    if not codebook.walsh_countable:
        raise DomainError("exhaustive audit needs a power-of-two nesting, fully labeled")
    n0 = codebook.n0_bits
    if r < 1 or r > n0:
        raise DomainError("key width must lie in [1, label width]")

    # Sum N log2 N over every seed of r hash rows.  A seed keys 2^r values at
    # each sum, and the ones outside its image count 0, which N log2 N ignores.
    coords = coordinate_specs(codebook, dithers1)
    try:
        hist, hist_w = seed_histogram(coords, sign, r), seed_histogram(coords, sign, 0)
    except CellCapError as exc:
        raise ResourceCapError(str(exc)) from None
    values = np.arange(hist.size)
    total_xlogx, sum_w = xlog2x_sum(values, hist), xlog2x_sum(values, hist_w)

    # H(K|V,Sigma) = E[log2 W] - 2^(-r n0) M^(-2) sum_{v,sigma,k} N log2 N, with
    # the uniform weight p(sigma)/W(sigma) = 1/M^2 on each observation
    m_total = codebook.size
    sigma_space = math.prod(2 * c.m - 1 for c in coords)
    seed_space = 1 << (r * n0)
    h = sum_w / (m_total * m_total) - total_xlogx / (float(seed_space) * m_total * m_total)

    budget_c = 2 * math.log2(m_total) - math.log2(sigma_space)
    eps_sec = 2.0 ** (-(budget_c - r) / 2)
    floor = r - eps_sec
    return KeySecrecyReport(h, budget_c, eps_sec, floor,
                            seed_space, sigma_space, h >= floor - 1e-12)


def _draw_seed(rng: np.random.Generator, bits: int) -> int:
    out = 0
    for _ in range((bits + 31) // 32):
        out = (out << 32) | int(rng.integers(0, 1 << 32))
    return out & ((1 << bits) - 1)


# ---------------------------------------------------------------------------
# Key protocol.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class KeyProtocolSetup:
    codebook: LayeredCodebook
    spec: ExtractorSpec
    dithers1: tuple
    dithers2: tuple

    def __post_init__(self):
        if self.spec.input_len != self.codebook.n0_bits:
            raise ConfigError("extractor input width must match the codebook labels")


@dataclass(eq=False)
class KeyTranscript:
    """One key-agreement round, including the eavesdropper's exact view."""

    v_seed: int
    t1_index: int
    t2_index: int
    k1_bits: np.ndarray
    k1_hat_bits: np.ndarray
    agreement: bool
    decode_failed: bool
    masked_sum: tuple
    carry: tuple

    def to_json(self) -> str:
        return json.dumps({
            "v_seed": self.v_seed,
            "t1_index": self.t1_index,
            "t2_index": self.t2_index,
            "k1": format(bits_to_int(self.k1_bits), "x"),
            "k1_hat": format(bits_to_int(self.k1_hat_bits), "x"),
            "agreement": self.agreement,
            "decode_failed": self.decode_failed,
            "masked_sum": list(self.masked_sum),
            "carry": list(self.carry),
        }, sort_keys=True)


class KeyAgreementRunner:
    """Repeated key rounds over one channel and setup, with cached decoder tables."""

    def __init__(self, cfg: ChannelConfig, setup: KeyProtocolSetup):
        self.cfg = cfg
        self.setup = setup
        self.system = build_system(setup.codebook, None, setup.dithers1, setup.dithers2)
        self.decoder = MLDecoder(cfg, self.system)
        self.coeff = scale_channel(cfg)

    def run_one(self, seed: int, mode: str = "marginal") -> KeyTranscript:
        cb = self.setup.codebook
        spec = self.setup.spec
        v_rng = substream(seed, "extractor-seed")
        t_rng = substream(seed, "sender-point")
        jam_rng = substream(seed, "jammer")
        noise_rng = substream(seed, "noise")

        v_seed = _draw_seed(v_rng, spec.seed_len)
        i1 = int(t_rng.integers(0, 1 << cb.n0_bits))
        i2 = int(jam_rng.integers(0, cb.size))

        y1 = self.system.received(self.coeff, i1, i2, noise_rng)
        i1_hat = self.decoder.decode_index(y1, mode=mode,
                                           t2_index=i2 if mode == "genie" else None)

        bits1 = int_to_bits(i1, spec.input_len)
        k1 = extract(spec, bits1, v_seed)
        k1_hat = extract(spec, int_to_bits(i1_hat, spec.input_len), v_seed)

        masked, carry = _eavesdropper_pair(cb.pair, self.system.sender_signals[i1],
                                           self.system.jammer_signals[i2], self.cfg.sign)
        return KeyTranscript(v_seed, i1, i2, k1, k1_hat,
                             bool(np.array_equal(k1, k1_hat)), i1_hat != i1,
                             masked, carry)

    def agreement_rate(self, trials: int, seed: int, mode: str = "marginal") -> float:
        agree = 0
        for t in range(trials):
            if self.run_one(seed + t, mode=mode).agreement:
                agree += 1
        return agree / trials


def _eavesdropper_pair(pair: NestedLatticePair, x1, x2, sign: int):
    """Modular sum and integer carry of the real sum of two senders' dithered signals."""
    w, z = reduce_carry(x1 + sign * x2, pair.coarse_scale)
    return tuple(np.round(w, 9).tolist()), tuple(z.tolist())
