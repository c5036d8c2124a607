"""Linear hashing over GF(2), privacy-amplification bounds, and the message encoder.

A hash is a uniformly drawn r-by-N binary matrix.  Distinct inputs
collide with probability exactly 2^-r, the matrix has full row rank with
probability above 1 - 2^(r-N), and hashing a source whose collision
entropy exceeds c leaves the output within 2^(r - c)/ln 2 bits of uniform
on average.

The encoder completes a chosen full-row-rank hash g to an invertible
square matrix [g'; g]; its inverse A turns any (randomness, secret) bit
pair into a codebook label and back, so the secret is recoverable and a
uniform input sweeps the codebook subset uniformly.  A label is the
integer index of a codebook point; the label <-> digits <-> point map it
stands for is `lattice.label_grid`, and the one reduce/carry of the
package is `lattice.reduce_carry`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import BitSource, renyi2_entropy, xlog2x_sum
from .errors import DomainError, ResourceCapError, ValidationError
from .lattice import NestedLatticePair, grid_label, label_grid

DEFAULT_MATRIX_CAP = 1 << 22
# Largest support a bit source enumerates.  `exact_hashed_entropy` hashes
# every symbol with every matrix of the family, so its work is the support
# times the family size, and the geometric source's 2^n weights have up to
# 2^n bits each, 4^n / 8 bytes in all.  On a 2-vCPU x86 VM (Python 3.11) the
# n = 12 geometric source takes 1.2 MiB and 1 ms to build, 14 ms for its H2
# and 0.32 s for its exhaustive r = 1 hashed entropy; at n = 14 it takes
# 17.5 MiB, 65 ms, 0.34 s and 5.9 s.  The flat source shares the cap so that
# one bound covers every source the amplification sweep builds.
SOURCE_SUPPORT_CAP = 1 << 12
# entries in the largest temporary of one batched pass over a chunk of matrices
CHUNK_ENTRIES = 1 << 14
# Work one `exact_hashed_entropy` call may do, in entries of its chunk
# temporaries: r * symbols + 2^r per matrix, plus 16 for the matrix's own
# Python-level cost (about 0.2 us), or 2^11 for a sampled matrix, whose draw
# takes about 25 us.  On a 2-vCPU x86 VM (Python 3.11, numpy 2.4) a unit took
# 4-20 ns (20 at r = 1 with 4096 symbols, 4 at r = 11 with 4 symbols), so the
# cap is at most about 0.7 s of work.
HASH_WORK_CAP = 1 << 25


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Most-significant-bit-first binary digits of `value`."""
    if value < 0 or value >= 1 << width:
        raise DomainError(f"{value} does not fit in {width} bits")
    return np.array([(value >> (width - 1 - j)) & 1 for j in range(width)], dtype=np.int64)


def bits_to_int(bits) -> int:
    out = 0
    for b in np.asarray(bits).astype(int).tolist():
        out = (out << 1) | (b & 1)
    return out


@dataclass(frozen=True, eq=False)
class FiniteFieldMatrix:
    """Dense matrix with entries in GF(2)."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.int64)
        if arr.ndim != 2:
            raise ValidationError("matrix entries must be 2-D")
        if arr.size and (arr.min() < 0 or arr.max() > 1):
            raise ValidationError("entries must be 0 or 1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def apply(self, vec) -> np.ndarray:
        v = np.asarray(vec, dtype=np.int64) % 2
        if v.shape != (self.cols,):
            raise DomainError(f"expected a length-{self.cols} vector")
        return (self.entries @ v) % 2

    def rank(self) -> int:
        return len(_reduce(self.entries)[1])

def _reduce(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2), by Gauss-Jordan elimination, and its
    pivot columns; a column is a pivot iff it lies outside the span of the
    columns before it.  Every pivot is 1, so clearing its column is an XOR."""
    a = np.asarray(matrix, dtype=np.int64) % 2
    pivots: list[int] = []
    for col in range(a.shape[1]):
        rank = len(pivots)
        if rank == a.shape[0]:
            break
        below = np.flatnonzero(a[rank:, col])
        if below.size == 0:
            continue
        a[[rank, rank + below[0]]] = a[[rank + below[0], rank]]
        others = np.flatnonzero(a[:, col])
        a[others[others != rank]] ^= a[rank]
        pivots.append(col)
    return a, pivots


def sample_linear_hash(r: int, n: int, seed: int) -> FiniteFieldMatrix:
    """Uniform r-by-n matrix over GF(2), deterministic per seed."""
    if r < 1 or n < 1:
        raise DomainError("dimensions must be positive")
    rng = np.random.default_rng(seed)
    return FiniteFieldMatrix(rng.integers(0, 2, size=(r, n), dtype=np.int64))


def full_rank_check(matrix: FiniteFieldMatrix) -> bool:
    """True when the matrix has full row rank over its field."""
    return matrix.rank() == matrix.rows


def full_rank_lower_bound(r: int, n: int) -> float:
    """Guaranteed lower bound 1 - 2^(r-n) on the full-row-rank probability."""
    return 1.0 - 2.0 ** (r - n)


def exact_full_rank_probability(r: int, n: int) -> float:
    """Exact full-row-rank probability prod_{i<r} (1 - 2^(i-n))."""
    p = 1.0
    for i in range(r):
        p *= 1.0 - 2.0 ** (i - n)
    return p


def privacy_amp_bound(r: int, q: int, c: float) -> float:
    """Entropy floor r log2 q - 2^(r log2 q - c)/ln 2 for r hashed symbols of
    q values each; every hash here is binary, q = 2, so r - 2^(r - c)/ln 2."""
    bits = r * math.log2(q)
    return bits - (2.0 ** (bits - c)) / math.log(2)


def gf2_ranks(rows: np.ndarray) -> np.ndarray:
    """GF(2) rank of each matrix of a (B, r) int64 batch of rows packed as
    nonnegative integers (one bit per column), by elimination row by row: each
    pivot's leading bit, found by smearing it down, is cleared from the rows after it."""
    rows = np.asarray(rows, dtype=np.int64).T.copy()
    ranks = np.zeros(rows.shape[1], dtype=np.int64)
    for i, pivot in enumerate(rows):
        lead = pivot.copy()
        for shift in (1, 2, 4, 8, 16, 32):
            lead |= lead >> shift
        lead ^= lead >> 1
        ranks += pivot != 0
        for row in rows[i + 1:]:
            row ^= np.where(row & lead, pivot, 0)
    return ranks


def full_rank_fraction_exhaustive(r: int, n: int) -> float:
    """Exact fraction of full-row-rank binary r-by-n matrices, by enumeration."""
    total = 1 << (r * n)
    if total > DEFAULT_MATRIX_CAP:
        raise ResourceCapError(f"2^{r * n} matrices exceed the enumeration cap")
    step = CHUNK_ENTRIES // max(r, 1)
    hits = 0
    for first in range(0, total, step):
        ids = np.arange(first, min(first + step, total), dtype=np.int64)
        rows = ids[:, None] >> (n * np.arange(r))
        rows &= (1 << n) - 1
        hits += int(np.count_nonzero(gf2_ranks(rows) == r))
    return hits / total


def full_rank_fraction_mc(r: int, n: int, trials: int, seed: int = 0) -> float:
    """Monte-Carlo full-row-rank fraction for sizes beyond enumeration."""
    if trials < 1 or r < 0 or not 1 <= n <= 62:
        raise DomainError("need at least one trial, r >= 0 rows and 1 <= n <= 62 columns")
    step = CHUNK_ENTRIES // max(r, 1)
    # a chunk of `step` matrices costs its CHUNK_ENTRIES drawn rows plus r^2 row
    # updates of about 32 entries' cost each, 45-80 ns a unit on a 2-vCPU x86 VM:
    # past 4 DEFAULT_MATRIX_CAP units (about a second) refuse before drawing
    chunks = -(-trials // max(step, 1))  # r > CHUNK_ENTRIES is refused here
    if chunks * (CHUNK_ENTRIES + 32 * r * r) > DEFAULT_MATRIX_CAP << 2:
        raise ResourceCapError(f"{trials} trials of {r} rows exceed the elimination cap")
    rng = np.random.default_rng(seed)
    hits = 0
    for first in range(0, trials, step):
        draws = rng.integers(0, 1 << n, size=(min(step, trials - first), r), dtype=np.int64)
        hits += int(np.count_nonzero(gf2_ranks(draws) == r))
    return hits / trials


def flat_bit_source(n: int, k: int) -> BitSource:
    """Uniform source on the first k of the 2^n bit tuples (H2 = log2 k exactly)."""
    if n < 1:
        raise DomainError("a bit source needs at least one bit")
    if not (1 <= k <= 1 << n):
        raise DomainError("k must lie in [1, 2^n]")
    if k > SOURCE_SUPPORT_CAP:
        raise ResourceCapError(f"{k} symbols exceed the source cap {SOURCE_SUPPORT_CAP}")
    return BitSource(n, (1,) * k)


def geometric_bit_source(n: int) -> BitSource:
    """Dyadically decaying source over all 2^n bit tuples: symbol i has weight
    2^(2^n - 1 - i)."""
    if n < 1:
        raise DomainError("a bit source needs at least one bit")
    if n > SOURCE_SUPPORT_CAP.bit_length() - 1:
        raise ResourceCapError(f"2^{n} symbols exceed the source cap {SOURCE_SUPPORT_CAP}")
    size = 1 << n
    return BitSource(n, tuple(1 << (size - 1 - i) for i in range(size)))


def exact_hashed_entropy(source: BitSource, r: int, seed_set=None) -> float:
    """Average output Shannon entropy H(G(A) | G) over the binary linear family
    of r-row hashes, r >= 1.

    With seed_set=None the family is enumerated exhaustively (all 2^(r*n)
    matrices, at most DEFAULT_MATRIX_CAP); otherwise it is the sampled
    sub-family drawn from the given seeds.  Either way the work is capped at
    HASH_WORK_CAP before any matrix is hashed.  Exhaustive results are checked
    against the amplification floor for c = H2(source), which holds with
    mathematical certainty.
    """
    if r < 1:
        raise DomainError("a hash needs at least one output bit")
    n, total = source.n, sum(source.weights)
    # int true division rounds correctly, so each mass is the float of the exact one
    weights = np.array([w / total for w in source.weights])
    sym_matrix = (np.arange(len(weights))[:, None] >> np.arange(n - 1, -1, -1)) & 1
    powers = 1 << np.arange(r - 1, -1, -1, dtype=np.int64)

    if seed_set is None:
        count = 1 << (r * n)
        if count > DEFAULT_MATRIX_CAP:
            raise ResourceCapError(f"2^{r * n} matrices exceed cap {DEFAULT_MATRIX_CAP}; "
                                   "pass an explicit seed_set")
        bit = r * n - 1 - np.arange(r * n)

        def matrices(ids: range) -> np.ndarray:  # matrix g is int_to_bits(g, r n)
            return ((np.arange(ids.start, ids.stop)[:, None] >> bit) & 1).reshape(len(ids), r, n)
    else:
        seeds = list(seed_set)
        count = len(seeds)
        if count == 0:
            raise DomainError("seed_set must be nonempty")

        def matrices(ids: range) -> np.ndarray:
            return np.stack([sample_linear_hash(r, n, seeds[i]).entries for i in ids])

    per_matrix = r * len(weights) + (1 << r)
    if count * (per_matrix + (16 if seed_set is None else 1 << 11)) > HASH_WORK_CAP:
        raise ResourceCapError(f"{count} matrices x {len(weights)} symbols exceed the "
                               f"hashed-entropy work cap {HASH_WORK_CAP}")
    # each matrix's output masses come from one offset bincount that adds the
    # weights in symbol order, and one fsum takes the nonzero terms of every chunk
    step = max(1, CHUNK_ENTRIES // per_matrix)

    def chunk_masses():
        for first in range(0, count, step):
            g = matrices(range(first, min(first + step, count)))
            bits = (g.reshape(-1, n) @ sym_matrix.T).reshape(len(g), r, len(weights)) % 2
            idx = powers @ bits + (np.arange(len(g)) << r)[:, None]
            yield np.bincount(idx.ravel(), weights=np.tile(weights, len(g)),
                              minlength=len(g) << r)

    # 0.0 - x, not -x: a family whose outputs are all certain averages +0.0
    avg = 0.0 - xlog2x_sum(chunk_masses()) / count

    if seed_set is None:
        floor = privacy_amp_bound(r, 2, renyi2_entropy(source))
        if avg < floor - 1e-9:
            raise RuntimeError(
                f"hashed entropy {avg} fell below its floor {floor}; internal bug")
    return avg


# ---------------------------------------------------------------------------
# Secret-message encoder.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EncoderKit:
    """Invertible bit transform [g'; g] with inverse A.

    Feeding A the stacked (randomness, secret) bits yields a codebook
    label; applying g to a label recovers the secret, g' the randomness.
    """

    g: FiniteFieldMatrix
    g_prime: FiniteFieldMatrix
    a_inv: FiniteFieldMatrix

    @property
    def n_bits(self) -> int:
        return self.g.cols

    @property
    def r_secret(self) -> int:
        return self.g.rows


def build_encoder(g: FiniteFieldMatrix) -> EncoderKit:
    """Complete a full-row-rank g to an invertible [g'; g] and invert it.

    g' is the unit rows e_i, in index order, that each lie outside the span
    of g and the unit rows before them (the pivots of [g^T | I] past g's
    own columns), so the completion is deterministic and reproducible.
    """
    r, n = g.rows, g.cols
    eye = np.eye(n, dtype=np.int64)
    pivots = _reduce(np.hstack([g.entries.T, eye]))[1]
    if pivots[:r] != list(range(r)):
        raise DomainError("hash matrix must have full row rank")
    gp_entries = eye[[p - r for p in pivots[r:]]]
    stack = np.vstack([gp_entries, g.entries])
    a_inv = _reduce(np.hstack([stack, eye]))[0][:, n:]
    if not np.array_equal((stack @ a_inv) % 2, eye):
        raise RuntimeError("inverse verification failed; internal bug")
    return EncoderKit(g, FiniteFieldMatrix(gp_entries), FiniteFieldMatrix(a_inv))


@dataclass(frozen=True, eq=False)
class BitLabeling:
    """Binary labels of the codebook of one nested-lattice pair.

    A point's label is its integer label (`lattice.label_grid`), i.e. its
    position in lexicographic coordinate order, written as n_bits binary
    digits.  When the codebook size is a power of two the whole codebook is
    labeled; otherwise the first 2^floor(log2 size) points are kept.
    """

    pair: NestedLatticePair
    n_bits: int = field(init=False)
    points: np.ndarray = field(init=False)  # (2^n_bits, dim), in label order

    def __post_init__(self):
        n_bits = self.pair.codebook_size.bit_length() - 1
        pts = label_grid(self.pair, np.arange(1 << n_bits))[1]
        pts.setflags(write=False)
        object.__setattr__(self, "n_bits", n_bits)
        object.__setattr__(self, "points", pts)

    def index_of(self, point) -> int:
        label = grid_label(self.pair, point)
        if label >= self.points.shape[0]:
            raise DomainError("point is not in the labeled codebook subset")
        return label

    def bits_of(self, point) -> np.ndarray:
        return int_to_bits(self.index_of(point), self.n_bits)


def encode_label(kit: EncoderKit, s_bits, s_prime_bits) -> int:
    """The codebook label A (s', s) of a (secret, randomness) bit pair."""
    s = np.asarray(s_bits, dtype=np.int64)
    sp = np.asarray(s_prime_bits, dtype=np.int64)
    if s.shape != (kit.r_secret,):
        raise DomainError(f"secret must be {kit.r_secret} bits")
    if sp.shape != (kit.n_bits - kit.r_secret,):
        raise DomainError(f"randomness must be {kit.n_bits - kit.r_secret} bits")
    return bits_to_int(kit.a_inv.apply(np.concatenate([sp, s])))


def encode_secret(kit: EncoderKit, s_bits, s_prime_bits, labeling: BitLabeling) -> np.ndarray:
    """Map (secret, randomness) bits to a codebook point via A."""
    if labeling.n_bits != kit.n_bits:
        raise DomainError("labeling width does not match the encoder")
    return labeling.points[encode_label(kit, s_bits, s_prime_bits)].copy()


def decode_secret(kit: EncoderKit, point, labeling: BitLabeling) -> tuple[np.ndarray, np.ndarray]:
    """Invert encode_secret: returns (randomness bits, secret bits)."""
    label = labeling.bits_of(point)
    return kit.g_prime.apply(label), kit.g.apply(label)


def secret_rate_select(n_bar: int, rate0: float, epsilon: float, delta: float) -> int:
    """Largest secret width below n_bar*(rate0 - 1 - epsilon - delta), clamped at 0.

    Returns 0 outright when a finite epsilon is outside (0, rate0 - 1); the
    selection only makes sense with a positive entropy margin.  A non-finite
    epsilon or delta is refused, as is a delta that is not positive.
    """
    if not (math.isfinite(epsilon) and math.isfinite(delta)):
        raise DomainError("epsilon and delta must be finite")
    if not delta > 0:
        raise DomainError("delta must be positive")
    if not (0 < epsilon < rate0 - 1):
        return 0
    threshold = n_bar * (rate0 - 1 - epsilon - delta)
    if threshold <= 0:
        return 0
    r0 = math.floor(threshold)
    if r0 == threshold:
        r0 -= 1
    return max(0, r0)
