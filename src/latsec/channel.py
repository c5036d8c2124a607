"""Gaussian wiretap channel with a cooperative jammer, at desk scale.

Each transmitter sends one dithered codeword of a single nested-lattice
pair; the intended receiver decodes by exhaustive maximum likelihood, and
the eavesdropper's information about the secret is computed exactly rather
than estimated.

The exact leakage uses the carry decomposition of the real sum of the two
codewords: coordinate-wise, the observation is (up to relabeling) the
integer sum of the two senders' codebook indices, and the joint with the
hashed secret is an integer counting problem.  Counts are evaluated with a
character sum over the hash (a Walsh transform, in `latsec.counting`),
which keeps desk-scale sweeps exact and fast.  Noise at the eavesdropper
only processes that observation further, so the reported figure
upper-bounds what the physical channel reveals.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._rng import gaussian, substream
from .counting import Coordinate, WalshCounter, window_indicator
from .entropy import xlog2x_sum
from .errors import ConfigError, DomainError, ResourceCapError
from .hashing import (BitLabeling, EncoderKit, FiniteFieldMatrix, build_encoder,
                      bits_to_int, encode_label, full_rank_check, int_to_bits,
                      sample_linear_hash, secret_rate_select)
from .lattice import NestedLatticePair, label_grid, reduce_carry

DEFAULT_TABLE_CAP = 1 << 22
DEFAULT_SIGMA_SPACE_CAP = 1 << 23


# ---------------------------------------------------------------------------
# Channel model.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelConfig:
    """Cross gains, receiver 1's noise variance, and blocklength; the
    eavesdropper's noise has unit variance."""

    a: float
    b: float
    sign: int = 1
    noise_var1: float = 1.0
    n_uses: int = 1

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.noise_var1))):
            raise ConfigError("cross gains and noise variance must be finite")
        if not (self.a > 0 and self.b > 0):
            raise ConfigError("cross gains must be positive")
        if self.sign not in (1, -1):
            raise ConfigError("sign must be +1 or -1")
        if not self.noise_var1 > 0:
            raise ConfigError("noise variance must be positive")
        if self.n_uses < 1:
            raise ConfigError("n_uses must be positive")
        coeff = scale_channel(self)
        if not all(0 < x < math.inf for x in (coeff.gain_x2_at_d1, coeff.noise_std_d1,
                                              2 * coeff.noise_std_d1 ** 2)):
            raise ConfigError("scaled gain sqrt(ab), noise std sqrt(b*noise_var1) and twice "
                              "its variance must be finite and positive")


@dataclass(frozen=True)
class ScaledChannel:
    """Receiver-side coefficients after absorbing sqrt(b) into sender 1, whose
    gain is then 1 at both receivers."""

    gain_x2_at_d1: float
    noise_std_d1: float
    gain_x2_at_d2: float


def scale_channel(cfg: ChannelConfig) -> ScaledChannel:
    """Y1 = X1 + sqrt(ab) X2 + sqrt(b) Z1 and Y2 = X1 +/- X2 + Z2, Z2 of unit variance."""
    return ScaledChannel(math.sqrt(cfg.a * cfg.b), math.sqrt(cfg.b * cfg.noise_var1),
                         float(cfg.sign))


# ---------------------------------------------------------------------------
# The codebook and the transmission system.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayeredCodebook:
    """The codebook of one nested-lattice pair, of block dimension pair.dim."""

    pair: NestedLatticePair

    @property
    def layers(self) -> tuple:
        """(pair,), the one-layer view the benchmark's reference code reads."""
        return (self.pair,)

    @property
    def block_dim(self) -> int:
        return self.pair.dim

    @property
    def size(self) -> int:
        return self.pair.codebook_size

    @property
    def n0_bits(self) -> int:
        return self.size.bit_length() - 1

    @property
    def walsh_countable(self) -> bool:
        """A power-of-two nesting, so the labeling covers the whole codebook and
        the Walsh-domain counts of `latsec.counting` apply."""
        return self.pair.nesting & (self.pair.nesting - 1) == 0

    def labeling(self) -> BitLabeling:
        return BitLabeling(self.pair)

    def dither_vectors(self, dithers=None) -> tuple:
        """The one-tuple of a finite dither vector of the block dimension; None
        stands for the zero dither.  Any other count, shape or non-finite entry
        raises ConfigError."""
        if dithers is None:
            return (np.zeros(self.block_dim),)
        vecs = tuple(np.atleast_1d(np.asarray(d, dtype=float)) for d in dithers)
        if [v.shape for v in vecs] != [(self.block_dim,)] or not np.isfinite(vecs[0]).all():
            raise ConfigError("need one finite dither vector of the block dimension")
        return vecs

    def product_points(self) -> np.ndarray:
        """All size-by-block_dim codebook points in label (lexicographic) order."""
        return label_grid(self.pair, np.arange(self.size))[1]


def random_dithers(codebook: LayeredCodebook, rng: np.random.Generator) -> tuple:
    """A fixed dither vector drawn once, uniform over the coarse region, as a one-tuple."""
    c = codebook.pair.coarse_scale
    return (c * rng.random(codebook.block_dim) - c / 2,)


def mod_signals(codebook: LayeredCodebook, points, dithers) -> np.ndarray:
    """Dithered reductions into the coarse region of each row of a (P, n)
    array of points, shape (P, n)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != codebook.block_dim:
        raise DomainError(f"expected points of dimension {codebook.block_dim}")
    return reduce_carry(pts + codebook.dither_vectors(dithers)[0], codebook.pair.coarse_scale)[0]


def exact_signal_power(codebook: LayeredCodebook, dithers) -> float:
    """Exact per-symbol transmit power under a uniform codebook draw."""
    pair, d = codebook.pair, codebook.dither_vectors(dithers)[0]
    vals = pair.coordinate_values()
    coord_power, coord_mean = np.zeros(pair.dim), np.zeros(pair.dim)
    for j in range(pair.dim):
        shifted = reduce_carry(vals + d[j], pair.coarse_scale)[0]
        coord_power[j], coord_mean[j] = shifted.var(), shifted.mean()
    return float((coord_power + coord_mean ** 2).mean())


@dataclass(frozen=True, eq=False)
class SecrecySystem:
    """Codebook plus encoder and the fixed public dithers.

    Points are handled by label: the signal tables below are indexed by the
    sender's label and the jammer's index, and are built on first use, as
    are the labeling and the point tables.
    """

    codebook: LayeredCodebook
    kit: EncoderKit | None
    dithers1: tuple
    dithers2: tuple

    def __post_init__(self):
        if self.kit is not None and self.kit.n_bits != self.codebook.n0_bits:
            raise ConfigError("encoder width does not match the codebook labeling")
        object.__setattr__(self, "dithers1", self.codebook.dither_vectors(self.dithers1))
        object.__setattr__(self, "dithers2", self.codebook.dither_vectors(self.dithers2))

    @cached_property
    def labeling(self) -> BitLabeling:
        return self.codebook.labeling()

    @cached_property
    def _points(self) -> np.ndarray:
        return self.codebook.product_points()

    @cached_property
    def _powers(self) -> tuple[float, ...]:
        return tuple(exact_signal_power(self.codebook, d) for d in (self.dithers1, self.dithers2))

    def power1(self) -> float:
        return self._powers[0]

    def power2(self) -> float:
        return self._powers[1]

    def jammer_points(self) -> np.ndarray:
        return self._points

    @cached_property
    def sender_signals(self) -> np.ndarray:
        """`mod_signals` of every labeled point under dithers1, row = label."""
        return mod_signals(self.codebook, self.labeling.points, self.dithers1)

    @cached_property
    def jammer_signals(self) -> np.ndarray:
        """`mod_signals` of every jammer point under dithers2, row = jammer index."""
        return mod_signals(self.codebook, self._points, self.dithers2)

    def received(self, coeff: ScaledChannel, i1: int, i2: int,
                 rng: np.random.Generator) -> np.ndarray:
        """Receiver 1's observation x1 + g x2 + noise of sender label i1 under
        jammer index i2, the noise drawn from rng."""
        return (self.sender_signals[i1] + coeff.gain_x2_at_d1 * self.jammer_signals[i2]
                + gaussian(rng, self.codebook.block_dim, coeff.noise_std_d1))


def build_system(codebook: LayeredCodebook, kit: EncoderKit | None,
                 dithers1=None, dithers2=None) -> SecrecySystem:
    return SecrecySystem(codebook, kit, dithers1, dithers2)


# ---------------------------------------------------------------------------
# Transmission and decoding.
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Transcript:
    """One block of channel uses, end to end."""

    w_bits: np.ndarray
    s_prime_bits: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    t2_index: int
    dithers1: tuple
    dithers2: tuple
    x1: np.ndarray
    x2: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    w_hat: np.ndarray | None = None
    decode_error: bool | None = None

    def to_json(self) -> str:
        obj = {
            "w": [int(b) for b in self.w_bits],
            "s_prime": [int(b) for b in self.s_prime_bits],
            "t1": self.t1.tolist(), "t2": self.t2.tolist(),
            "dithers1": [d.tolist() for d in self.dithers1],
            "dithers2": [d.tolist() for d in self.dithers2],
            "x1": self.x1.tolist(), "x2": self.x2.tolist(),
            "y1": self.y1.tolist(), "y2": self.y2.tolist(),
            "w_hat": None if self.w_hat is None else [int(b) for b in self.w_hat],
            "decode_error": self.decode_error,
        }
        return json.dumps(obj, sort_keys=True)


def transmit(cfg: ChannelConfig, system: SecrecySystem, w_bits, seed: int) -> Transcript:
    """Encode, jam, and push one block through the scaled channel.

    Encoder randomness, the jammer's point, and both noises come from
    disjoint sub-streams of the seed, so the two senders share no
    randomness by construction.
    """
    if system.kit is None:
        raise ConfigError("transmit requires a system with an encoder kit")
    w = np.asarray(w_bits, dtype=np.int64)
    coeff = scale_channel(cfg)

    enc_rng = substream(seed, "encoder-randomness")
    jam_rng = substream(seed, "jammer")
    noise_rng = substream(seed, "noise")

    n0, r0 = system.kit.n_bits, system.kit.r_secret
    s_prime = enc_rng.integers(0, 2, size=n0 - r0, dtype=np.int64)
    i1 = encode_label(system.kit, w, s_prime)
    i2 = int(jam_rng.integers(0, system.codebook.size))
    x1 = system.sender_signals[i1].copy()
    x2 = system.jammer_signals[i2].copy()

    y1 = system.received(coeff, i1, i2, noise_rng)
    y2 = x1 + coeff.gain_x2_at_d2 * x2 + gaussian(noise_rng, x1.size)
    return Transcript(w, s_prime, system.labeling.points[i1].copy(),
                      system.jammer_points()[i2].copy(), i2, system.dithers1,
                      system.dithers2, x1, x2, y1, y2)


class MLDecoder:
    """Exhaustive maximum-likelihood decoding of the sender's point.

    Marginal mode averages the Gaussian likelihood over every jammer
    hypothesis; genie mode is told the jammer's point.  Both are exact.
    Marginal mode scores label k in squared-distance units, S_k = 2v ln
    sum_j exp(-||x1_k + g x2_j - y||^2 / 2v) with v the noise variance.  The
    noise is i.i.d., coordinate c of a signal depends only on the point's
    coordinate-c digits (`mod_signals` works coordinatewise) and the jammer's
    points are the full product grid, so S_k + C = sum_c F[c, x1_kc] with
    F[c, a] = 2v ln sum_b w_b exp(-(a + b - y_c)^2 / 2v): b runs over the
    distinct values of g x2_c, w_b counts the jammer points whose coordinate
    c is b, and C = 2v n ln(J/T), T the number of coordinate-c digit tuples,
    is shared by every label.  An observation costs one (n, A1, A2) table of
    distances, its log-sum-exp over the last axis, shifted by the minimum as
    the direct form is, and a gather of n entries for each of the K labels,
    which also serves labelings that are a prefix of the codebook.

    Ties.  Labels whose factorised score is within tau of the best are
    decided again on the direct distances, and the first of those with the
    best direct score wins.  Let u = eps/2, M_c = |y_c| + max|x1_c| +
    max|g x2_c| and P = sum_c M_c^2, which bounds every distance.  Both
    forms square fl(fl(x1 + g x2) - y) to within 5u M_c^2; the direct form's
    n-term sums add (n - 1)uP, the shift, division by 2v and subtraction of
    the minimum about 3uP in either form, and the gather's sum of n entries,
    each at most M_c^2 + 2v ln J, (n - 1)u(P + 2v n ln J).  exp, the weights
    and a pairwise sum of at most J positive terms, one at least 1, err
    relatively by at most (31 + log2 J)u, and the log and its product by 2v
    add 3u 2v ln J, paid once per coordinate by the factorised form.  As
    n <= log2 J, the forms differ on any label, less C, by at most
    (2n + 14)uP + 2v u n(62 + 9 ln J + 1.5 ln^2 J); tau = 32 eps ((n + 4)P +
    2v n (2 + ln J)^2) is over twice that, with room for the rounding of
    max - tau.  For i any direct argmax and k the factorised one,
    fact_i - C >= direct_i - tau/2 >= direct_k - tau/2 >= fact_k - C - tau:
    every direct argmax is in the tie set, so the decision is the first label
    an exhaustive direct search returns, and exact ties (such as those of a
    rational gain) go to the first label.  A finite tau bounds every
    distance: an observation whose tau overflows is refused, and a channel
    whose tau overflows at y = 0, so at every y, is refused when the decoder
    is built.

    A codebook whose signal x1 is the same for two labels, as when a huge
    dither rounds its values together, is refused: no observation tells them
    apart.  So is a channel whose float64 sums cannot carry x1.  With
    M = max|x1| + g max|x2| and u = ulp(M), no less than the spacing below
    M, each of the two roundings in fl(x1 + fl(g x2)) errs by at most u/2.
    Sender points with the same x2 differ in some coordinate by at least
    delta, the smallest gap between distinct values of one x1 coordinate,
    so rounded they differ by at least delta - 2u, positive iff u < delta/2.
    """

    def __init__(self, cfg: ChannelConfig, system: SecrecySystem):
        cb = system.codebook
        if cb.size * cb.block_dim > DEFAULT_TABLE_CAP:
            raise ResourceCapError(f"{cb.size} points of dimension {cb.block_dim} exceed "
                                   f"the decoder's table cap {DEFAULT_TABLE_CAP}")
        self.cfg = cfg
        self.system = system
        coeff = scale_channel(cfg)
        self._two_var = 2 * coeff.noise_std_d1 ** 2
        self._x1 = system.sender_signals
        self._gx2 = coeff.gain_x2_at_d1 * system.jammer_signals
        n, j = self._x1.shape[1], self._gx2.shape[0]
        ones = [np.unique(col, return_inverse=True) for col in self._x1.T]
        twos = [np.unique(col, return_counts=True) for col in self._gx2.T]
        a1, a2 = max(v.size for v, _ in ones), max(v.size for v, _ in twos)
        if n * a1 * a2 > DEFAULT_TABLE_CAP:
            raise ResourceCapError(f"{n * a1 * a2} distances exceed cap {DEFAULT_TABLE_CAP}")
        # the distinct rows of the per-coordinate index table, one coordinate at a time
        rows = np.zeros(len(self._x1), dtype=np.int64)
        for _, inv in ones:
            rows = np.unique(rows * (inv.max() + 1) + inv, return_inverse=True)[1]
        if rows.max() + 1 < rows.size:
            raise ConfigError("two sender labels share one signal")
        delta = min(np.diff(v).min(initial=math.inf) for v, _ in ones)
        top = max(self._x1.max(), -self._x1.min()) + max(self._gx2.max(), -self._gx2.min())
        if not np.spacing(top) < delta / 2:
            raise ConfigError("the cross gain leaves x1 below float64 resolution in y1")
        # padding repeats a value (so no row minimum moves) at weight 0
        self._sums = np.stack([np.pad(v1, (0, a1 - v1.size), "edge")[:, None]
                               + np.pad(v2, (0, a2 - v2.size), "edge")
                               for (v1, _), (v2, _) in zip(ones, twos)])
        self._weights = np.stack([np.pad(c, (0, a2 - c.size))
                                  for _, c in twos])[:, None, :].astype(float)
        self._inv = np.stack([inv for _, inv in ones], axis=1) + a1 * np.arange(n)
        self._top = np.abs(self._x1).max(axis=0) + np.abs(self._gx2).max(axis=0)
        self._tau_scale = 32 * np.finfo(float).eps * (n + 4)
        self._tau_floor = 32 * np.finfo(float).eps * self._two_var * n * (2 + math.log(j)) ** 2
        with np.errstate(over="ignore"):
            if not math.isfinite(self._tie_bound(np.zeros(n))):
                raise ConfigError("the scaled cross gain overflows the decoder's distance tables")

    def _tie_bound(self, y: np.ndarray) -> float:
        """tau of the class docstring; inf where it overflows (warning unless ignored)."""
        m = np.abs(y) + self._top
        return float(self._tau_scale * (m * m).sum() + self._tau_floor)

    def _direct_choice(self, rows: np.ndarray, y: np.ndarray) -> int:
        """The first of `rows` with the largest score on the direct distances,
        in row blocks of at most 2^18 table entries."""
        j, n = self._gx2.shape
        step = max(1, (1 << 18) // (j * n))
        best, best_score = -1, -math.inf
        for start in range(0, rows.size, step):
            block = rows[start:start + step]
            d = ((self._x1[block, None, :] + self._gx2[None, :, :] - y) ** 2).sum(axis=2)
            low = d.min(axis=1, keepdims=True)
            with np.errstate(over="ignore"):
                spread = np.exp((low - d) / self._two_var).sum(axis=1)
            score = self._two_var * np.log(spread) - low[:, 0]
            i = int(np.argmax(score))
            if score[i] > best_score:
                best, best_score = int(block[i]), score[i]
        return best

    def decode_index(self, y1, mode: str = "marginal", t2_index: int | None = None) -> int:
        y = np.asarray(y1, dtype=float)
        if y.shape != self._x1.shape[1:]:
            raise DomainError(f"expected an observation of shape {self._x1.shape[1:]}")
        if not np.isfinite(y).all():
            raise DomainError("the observation must be finite")
        if mode == "genie":
            if t2_index is None:
                raise DomainError("genie mode needs the jammer index")
            with np.errstate(over="ignore"):
                d = ((self._x1 + self._gx2[t2_index] - y) ** 2).sum(axis=1)
            if not np.isfinite(d).all():
                raise DomainError("the observation overflows the decoder's distances")
            return int(np.argmin(d))
        if mode != "marginal":
            raise DomainError("mode must be 'marginal' or 'genie'")
        with np.errstate(over="ignore"):  # tau finite bounds every square; d / 2v may overflow
            tau = self._tie_bound(y)
            if not math.isfinite(tau):
                raise DomainError("the observation overflows the decoder's rounding bound")
            d = self._sums - y[:, None, None]
            d *= d
            low = d.min(axis=2, keepdims=True)
            np.subtract(low, d, out=d)
            d /= self._two_var
        np.exp(d, out=d)
        d *= self._weights
        table = self._two_var * np.log(d.sum(axis=2)) - low[..., 0]
        score = table.ravel()[self._inv].sum(axis=1)
        rows = np.flatnonzero(score >= score.max() - tau)
        return int(rows[0]) if rows.size == 1 else self._direct_choice(rows, y)

    def decode_message(self, y1, mode: str = "marginal", t2_index: int | None = None) -> np.ndarray:
        """The secret bits, the kit's g applied to the decoded label."""
        label = int_to_bits(self.decode_index(y1, mode, t2_index), self.system.labeling.n_bits)
        return self.system.kit.g.apply(label)


def run_message_round(cfg: ChannelConfig, system: SecrecySystem, w_bits, seed: int,
                      mode: str = "marginal", decoder: MLDecoder | None = None) -> Transcript:
    """transmit + decode, filling the estimate fields of the transcript."""
    tr = transmit(cfg, system, w_bits, seed)
    dec = decoder if decoder is not None else MLDecoder(cfg, system)
    tr.w_hat = dec.decode_message(tr.y1, mode, tr.t2_index if mode == "genie" else None)
    tr.decode_error = not np.array_equal(tr.w_hat, tr.w_bits)
    return tr


# ---------------------------------------------------------------------------
# Exact leakage.
# ---------------------------------------------------------------------------

def coordinate_specs(codebook: LayeredCodebook, dithers1) -> list[Coordinate]:
    """Each label coordinate's nesting and the cyclic shift the sender's dither induces."""
    pair = codebook.pair
    return [Coordinate(pair.nesting, int(k))
            for k in pair.dither_shifts(codebook.dither_vectors(dithers1)[0])]


def _leakage_coords(codebook: LayeredCodebook, dithers1, sign: str) -> list[Coordinate]:
    """The coordinates exact leakage counts over, refused before any table is
    built when the sign is bad or their sum alphabet exceeds its cap."""
    if sign not in ("+", "-"):
        raise DomainError("sign must be '+' or '-'")
    coords = coordinate_specs(codebook, dithers1)
    sigma_space = math.prod(2 * c.m - 1 for c in coords)
    if sigma_space > DEFAULT_SIGMA_SPACE_CAP:
        raise ResourceCapError(f"sum alphabet {sigma_space} exceeds cap {DEFAULT_SIGMA_SPACE_CAP}")
    return coords


def exact_leakage(codebook: LayeredCodebook, hash_or_kit: FiniteFieldMatrix | EncoderKit,
                  dithers1=None, sign: str = "+", method: str = "auto",
                  counter: WalshCounter | None = None) -> float:
    """Exact I(secret; real sum of the two codewords) in bits, dithers public and fixed.

    The secret is the hash image of the sender's uniformly encoded point;
    the jammer's point is uniform and independent.  Equals the information
    carried by (modular sum, carry index); the eavesdropper's noisy
    observation can only be a further degraded function of that pair.

    The fast method counts against `counter`, the Walsh tables of these
    coordinates and sign, which it builds when none is given; a counter built
    for other coordinates or another sign is refused.
    """
    coords = _leakage_coords(codebook, dithers1, sign)
    if counter is not None and (counter.coords != tuple(coords) or counter.sign != sign):
        raise DomainError("the Walsh counter was built for other coordinates or another sign")
    g = hash_or_kit.g if isinstance(hash_or_kit, EncoderKit) else hash_or_kit
    if g.rows == 0:
        return 0.0
    if g.cols != codebook.n0_bits:
        raise DomainError("hash width must match the codebook label width")

    if method == "auto":
        method = "fast" if codebook.walsh_countable else "enumerate"
    if method == "fast" and not codebook.walsh_countable:
        raise DomainError("fast leakage needs a power-of-two nesting, so the labels "
                          "cover the whole codebook")

    if method == "fast":
        counter = counter or WalshCounter(coords, sign)
        hist = counter.histogram([[bits_to_int(row) for row in g.entries]])
        hist_w = counter.hist_w
    elif method == "enumerate":
        hist, hist_w = _enumerated_histograms(codebook, g, coords, sign)
    else:
        raise DomainError(f"unknown method {method!r}")
    values = np.arange(hist.size)

    # over D = 2^n0 * size (label, jammer) pairs, W is uniform on the hash's
    # column span: 2^rank values, each hit by 2^(n0 - rank) labels
    n0, rank = codebook.n0_bits, g.rank()
    per_w_total = float((1 << (n0 - rank)) * codebook.size)
    sum_nw = (1 << rank) * per_w_total * math.log2(per_w_total)
    d_total = float(1 << n0) * float(codebook.size)
    mi = math.log2(d_total) + (xlog2x_sum(values, hist) - xlog2x_sum(values, hist_w)
                               - sum_nw) / d_total
    return max(0.0, mi)


def _enumerated_histograms(codebook: LayeredCodebook, g: FiniteFieldMatrix,
                           coords: list[Coordinate], sign: str) -> tuple:
    """`WalshCounter`'s two histograms for one hash and any m: each label adds
    one to N(k, sigma) on the box of sums its digits fit, one key's sigma slab
    at a time.  Trimmed to length max W + 1, the histograms equal the kernel's
    on a power-of-two nesting."""
    n0 = codebook.n0_bits
    shape = tuple(2 * c.m - 1 for c in coords)
    if (1 << n0) * math.prod(shape) > (DEFAULT_SIGMA_SPACE_CAP << 4):
        raise ResourceCapError("enumeration workload exceeds cap")
    # per coordinate and sender index, the sums that index is consistent with
    sums = [[np.flatnonzero(col) for col in window_indicator(c, sign).T] for c in coords]
    labels = np.arange(1 << n0)
    label_bits = (labels[:, None] >> np.arange(n0 - 1, -1, -1)) & 1
    keys = (label_bits @ g.entries.T % 2) @ (1 << np.arange(g.rows - 1, -1, -1))
    digits = label_grid(codebook.pair, labels)[0]
    # no count exceeds its window, and no window holds more than size labels
    hist = np.zeros(codebook.size + 1, dtype=np.int64)
    windows = np.zeros(shape, dtype=np.int64)
    slab = np.empty(shape, dtype=np.int64)
    key_ends = np.cumsum(np.bincount(keys, minlength=1 << g.rows))
    for group in np.split(np.argsort(keys), key_ends[:-1]):
        slab.fill(0)
        for label in group:
            slab[np.ix_(*(s[i] for s, i in zip(sums, digits[label])))] += 1
        hist += np.bincount(slab.ravel(), minlength=hist.size)
        windows += slab
    length = int(windows.max()) + 1
    return hist[:length], np.bincount(windows.ravel(), minlength=length)


# ---------------------------------------------------------------------------
# Hash selection and the leakage trend.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HashSelection:
    """Outcome of drawing a hash family sample and keeping a good member."""

    kit: EncoderKit
    chosen_seed: int
    chosen_leakage: float
    family_avg_leakage: float
    leakages: tuple
    full_ranks: tuple
    fallback: bool


def select_secrecy_hash(codebook: LayeredCodebook, r0: int, dithers1=None,
                        sign: str = "+", n_candidates: int = 16, seed: int = 0,
                        policy: str = "best") -> HashSelection:
    """Draw hash candidates, average their exact leakage, keep a good one.

    A kept hash must have full row rank and leak at most twice the family
    average.  policy='first' keeps the first such candidate, policy='best'
    the lowest-leakage one.  If no candidate qualifies (it always does in
    measure over the whole family, but a small sample can miss), the
    lowest-leakage full-rank candidate is kept and flagged.
    """
    if r0 < 1:
        raise DomainError("selection needs a positive secret width")
    if n_candidates < 1:
        raise DomainError("selection needs at least one candidate")
    if policy not in ("first", "best"):
        raise DomainError("policy must be 'first' or 'best'")
    rng = substream(seed, "hash-select")
    cand_seeds = [int(s) for s in rng.integers(0, 2 ** 63 - 1, size=n_candidates)]
    matrices = [sample_linear_hash(r0, codebook.n0_bits, s) for s in cand_seeds]
    # the Walsh tables depend on the codebook, dithers and sign but not on the
    # hash, so the whole family is counted against one set
    counter = (WalshCounter(_leakage_coords(codebook, dithers1, sign), sign)
               if codebook.walsh_countable else None)
    leakages = [exact_leakage(codebook, m, dithers1, sign, counter=counter) for m in matrices]
    ranks = [full_rank_check(m) for m in matrices]
    avg = float(np.mean(leakages))

    qualified = [i for i in range(n_candidates)
                 if ranks[i] and leakages[i] <= 2 * avg + 1e-12]
    fallback = not qualified
    if qualified:
        pick = qualified[0] if policy == "first" else min(qualified, key=lambda i: leakages[i])
    else:
        full = [i for i in range(n_candidates) if ranks[i]]
        if not full:
            raise DomainError("no full-rank hash in the sampled family")
        pick = min(full, key=lambda i: leakages[i])

    return HashSelection(build_encoder(matrices[pick]), cand_seeds[pick],
                         leakages[pick], avg, tuple(leakages), tuple(ranks), fallback)


@dataclass(frozen=True)
class TrendRow:
    n_bar: int
    r0: int
    leakage_bits: float
    family_avg_leakage: float
    decode_error_rate: float | None
    power_1: float
    power_2: float
    seed: int


def make_codebook(m: int, n_bar: int) -> LayeredCodebook:
    """The (m, m) pair of block dimension n_bar, so the fine lattice is the
    integer grid."""
    return LayeredCodebook(NestedLatticePair(n_bar, float(m), m))


def _genie_error_rate(cfg: ChannelConfig, system: SecrecySystem, trials: int,
                      seed: int) -> float:
    """Decode error estimate with the jammer's point revealed to the receiver.

    A uniformly encoded point is the same draw as a uniform labeled point,
    so the encoder itself drops out of the estimate.
    """
    decoder = MLDecoder(cfg, system)
    coeff = scale_channel(cfg)
    rng = substream(seed, "trend-decode")
    errors = 0
    for _ in range(trials):
        i1 = int(rng.integers(0, 1 << system.codebook.n0_bits))
        i2 = int(rng.integers(0, system.codebook.size))
        if decoder.decode_index(system.received(coeff, i1, i2, rng), "genie", i2) != i1:
            errors += 1
    return errors / trials


def leakage_trend(m: int, n_bar_values: Sequence[int], eps: float, delta: float,
                  sign: str = "+", family: int = 16,
                  seed: int = 0, policy: str = "best", dither_mode: str = "zero",
                  fixed_r0: int | None = None, decode_trials: int = 0,
                  decode_cfg: ChannelConfig | None = None) -> list[TrendRow]:
    """Exact leakage of the selected hash encoder across blocklengths.

    Each row selects its own hash (seeded per row) and reports the exact
    leakage with the family average it was screened against.  The secret
    width per row is the largest admitted by the rate margin eps + delta;
    passing fixed_r0 holds the width constant instead (it must still fit
    the margin at every blocklength), which isolates the decay of the
    leakage from the integer jumps of the per-row width.
    """
    if dither_mode not in ("zero", "random"):
        raise ConfigError("dither_mode must be 'zero' or 'random'")
    if decode_trials < 0:
        raise ConfigError("decode trials must be non-negative")
    rate0 = math.log2(m)
    rows = []
    for n_bar in n_bar_values:
        codebook = make_codebook(m, n_bar)
        dithers = (None, None) if dither_mode == "zero" else (
            random_dithers(codebook, substream(seed, f"dither1-{n_bar}")),
            random_dithers(codebook, substream(seed, f"dither2-{n_bar}")))
        system = build_system(codebook, None, *dithers)
        margin = secret_rate_select(n_bar, rate0, eps, delta)
        if fixed_r0 is None:
            r0 = margin
        else:
            if fixed_r0 > margin:
                raise ConfigError(
                    f"fixed width {fixed_r0} exceeds the admitted margin {margin}"
                    f" at blocklength {n_bar}")
            r0 = fixed_r0
        if r0 == 0:
            leak, avg = 0.0, 0.0
        else:
            sel = select_secrecy_hash(codebook, r0, system.dithers1, sign,
                                      n_candidates=family,
                                      seed=seed + n_bar, policy=policy)
            leak, avg = sel.chosen_leakage, sel.family_avg_leakage
        err = None
        if decode_trials > 0:
            cfg = decode_cfg if decode_cfg is not None else ChannelConfig(
                a=2.0, b=1.0, noise_var1=1e-12)
            err = _genie_error_rate(cfg, system, decode_trials, seed + n_bar)
        rows.append(TrendRow(n_bar, r0, leak, avg, err, system.power1(), system.power2(), seed))
    return rows


def fitted_log2_slope(rows: Sequence[TrendRow]) -> float:
    """Least-squares slope of log2(leakage) against blocklength."""
    pts = [(row.n_bar, row.leakage_bits) for row in rows if row.leakage_bits > 0]
    if len(pts) < 2:
        raise DomainError("need at least two positive-leakage rows to fit a slope")
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.log2([p[1] for p in pts])
    return float(np.polyfit(xs, ys, 1)[0])


@dataclass(frozen=True)
class RateReport:
    rate_bits_per_use: float
    reliability_error_rate: float
    leakage_bits: float


def secrecy_rate_report(transcripts: Sequence[Transcript], leakage: float) -> RateReport:
    """Secret rate H(W)/n with the observed decoding error rate and leakage."""
    if not transcripts:
        raise DomainError("need at least one transcript")
    n = transcripts[0].x1.shape[0]
    r0 = len(transcripts[0].w_bits)
    errors = [tr.decode_error for tr in transcripts if tr.decode_error is not None]
    err_rate = float(np.mean(errors)) if errors else 0.0
    return RateReport(r0 / n, err_rate, leakage)
