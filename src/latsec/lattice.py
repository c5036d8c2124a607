"""Scaled-integer nested lattices, dithered modular encoding, and sum recovery.

Lattices here are self-similar pairs: coarse c*Z^N nested around fine
(c/m)*Z^N, with the half-open fundamental box [-c/2, c/2)^N as the
fundamental region.  Quantizer ties at +c/2 round down, which makes the
modulus a total function and the codebook an exact finite Abelian group
of size m^N under mod-c addition.

Every modular reduction and carry in the package is `reduce_carry`.  A
codebook point is carried as its integer label, the mixed-radix index of
its digit vector (digit i = i-th ascending coordinate value, coordinate 0
most significant); `label_grid` maps labels to digits and points, and
`grid_label` inverts it.

`representation_index` recovers the result of summing K points of a
fundamental region from the reduced sum plus a bounded integer index:
given the residual w, the integer carry per coordinate is confined to K
consecutive values, so an index T with 1 <= T <= K^N pins the real sum.

`dithered_sum_secrecy_report` audits what the real sum of two dithered
codewords discloses.  A dither only rotates each coordinate's digits
(`NestedLatticePair.dither_shifts`, the one shift rule, which
`channel.coordinate_specs` uses too), so the sum is an integer vector
sigma, and the audit counts labels in the window
`counting.window_indicator` instead of enumerating codeword pairs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .counting import Coordinate, window_indicator
from .entropy import conditional_shannon_counts, violation_mass_counts
from .errors import DomainError, ResourceCapError, ValidationError

# One lattice vector is a plain float ndarray in channel-input units.
LatticeVector = np.ndarray

# codeword pairs the sum audit may count
DEFAULT_ENUM_CAP = 1 << 16
# int64 cells per violation-mass call of the sum audit (2 MiB)
AUDIT_BLOCK = 1 << 18


def as_vector(x) -> LatticeVector:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(v)):
        raise ValidationError("lattice vectors must have finite entries")
    return v


def reduce_carry(v, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Split real values v (at least 1-D) into w in [-c/2, c/2) and integer carries z,
    v = w + c*z elementwise."""
    v = np.asarray(v, dtype=float)
    w = v - c * np.floor(v / c + 0.5)
    # guard against float round-off landing exactly on the excluded face
    w[w >= c / 2] -= c
    w[w < -c / 2] += c
    return w, np.round((v - w) / c).astype(int)


@dataclass(frozen=True)
class ScaledLattice:
    """spacing * Z^dim with fundamental region [-spacing/2, spacing/2)^dim."""

    dim: int
    spacing: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("dimension must be positive")
        if not 0 < self.spacing < np.inf:
            raise ValidationError("spacing must be finite and positive")

    def contains_in_region(self, x) -> bool:
        v = as_vector(x)
        half = self.spacing / 2
        return bool(np.all(v >= -half) and np.all(v < half))


@dataclass(frozen=True)
class NestedLatticePair:
    """Coarse lattice c*Z^N with fine lattice (c/m)*Z^N nested inside it."""

    dim: int
    coarse_scale: float
    nesting: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("dimension must be positive")
        if not 0 < self.coarse_scale < np.inf:
            raise ValidationError("coarse scale must be finite and positive")
        if self.nesting < 2:
            raise ValidationError("nesting factor must be an integer >= 2")

    @property
    def codebook_size(self) -> int:
        return self.nesting ** self.dim

    def coordinate_values(self) -> np.ndarray:
        """Ascending 1D codebook values; the codebook is their N-fold product."""
        m = self.nesting
        delta = self.coarse_scale / m
        k0 = -(m // 2)
        return delta * np.arange(k0, k0 + m, dtype=float)

    def dither_shifts(self, d) -> np.ndarray:
        """Per coordinate, the cyclic shift k the dither d induces on the digits.

        Adding d and reducing moves the values that wrap past a face to the
        other end of the box, each with carry +1 (wrapped down) or -1 (wrapped
        up), so digit i lands at rank (i + k) mod m, k = (sum of carries) mod m.
        """
        d = as_vector(d)
        if d.shape != (self.dim,):
            raise DomainError(f"expected a dither of dimension {self.dim}")
        return reduce_carry(self.coordinate_values()[:, None] + d,
                            self.coarse_scale)[1].sum(axis=0) % self.nesting


def label_grid(pair: NestedLatticePair, labels) -> tuple[np.ndarray, np.ndarray]:
    """Digit vectors and points, both (P, dim), of P labels of the codebook of `pair`."""
    digits = np.stack(np.unravel_index(labels, (pair.nesting,) * pair.dim), axis=-1)
    return digits, pair.coordinate_values()[digits]


def grid_label(pair: NestedLatticePair, point) -> int:
    """Inverse of `label_grid` for one point; DomainError when it is off the grid."""
    m = pair.nesting
    v = np.asarray(point, dtype=float)
    if v.shape == (pair.dim,) and np.all(np.isfinite(v)):
        digits = np.round(v * m / pair.coarse_scale).astype(int) + m // 2
        if np.all((digits >= 0) & (digits < m)):
            label = int(np.ravel_multi_index(digits, (m,) * pair.dim))
            if np.all(np.abs(label_grid(pair, [label])[1][0] - v) <= 1e-9):
                return label
    raise DomainError("point is not on the product grid")


@dataclass(frozen=True)
class RepresentationIndex:
    """Integer index T for the carry of a K-point sum; 1 <= T <= K^dim."""

    T: int
    summands: int
    dim: int

    def __post_init__(self):
        if self.summands < 1 or self.dim < 1:
            raise ValidationError("summands and dim must be positive")
        if not (1 <= self.T <= self.summands ** self.dim):
            raise DomainError(
                f"T={self.T} outside [1, {self.summands ** self.dim}]")


def _carry_floor(w: np.ndarray, spacing: float, k: int) -> np.ndarray:
    """Smallest integer carry consistent with residual w for a K-point sum.

    With every summand in [-s/2, s/2), the sum lies in [-K s/2, K s/2), so
    for a fixed residual the carry z satisfies -K/2 - w/s <= z < K/2 - w/s:
    exactly K consecutive integers.
    """
    return np.ceil(-k / 2 - w / spacing - 1e-12).astype(int)


def representation_index(points: Sequence,
                         lattice: ScaledLattice) -> tuple[RepresentationIndex, LatticeVector]:
    """Encode sum(points) as (T, sum mod lattice) with T <= K^N.

    Every point must lie in the fundamental region.  The index is the
    lexicographic position of the carry vector inside the residual's
    candidate box, most significant coordinate first.
    """
    pts = [as_vector(p) for p in points]
    if not pts:
        raise DomainError("need at least one point")
    for p in pts:
        if p.shape != (lattice.dim,):
            raise DomainError("point dimension mismatch")
        if not lattice.contains_in_region(p):
            raise DomainError(f"point {p} outside the fundamental region")
    k = len(pts)
    w, z = reduce_carry(np.sum(pts, axis=0), lattice.spacing)
    z_min = _carry_floor(w, lattice.spacing, k)
    digits = z - z_min
    if np.any(digits < 0) or np.any(digits >= k):
        raise DomainError("carry outside its candidate box; inputs not in region?")
    t = 0
    for d in digits:
        t = t * k + int(d)
    return RepresentationIndex(t + 1, k, lattice.dim), w


def reconstruct_sum(idx: RepresentationIndex, s_mod, lattice: ScaledLattice) -> LatticeVector:
    """Invert representation_index: recover the exact real sum."""
    if idx.dim != lattice.dim:
        raise DomainError("index dimension mismatch")
    w = as_vector(s_mod)
    if w.shape != (lattice.dim,):
        raise DomainError("residual dimension mismatch")
    k = idx.summands
    digits = np.zeros(lattice.dim, dtype=int)
    t = idx.T - 1
    for j in range(lattice.dim - 1, -1, -1):
        digits[j] = t % k
        t //= k
    z = _carry_floor(w, lattice.spacing, k) + digits
    return w + z * lattice.spacing


# ---------------------------------------------------------------------------
# Exhaustive disclosure report for the real sum of two dithered codewords.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SumSecrecyReport:
    """How much the real dithered sum reveals about u1 beyond the modular sum.

    shannon_gap is H(u1 | modular sum) - H(u1 | real sum); it can never
    exceed `shannon_bound` = N bits (the carry takes at most 2^N values).
    For renyi2/min the report carries the mass of carry slices whose
    entropy drop exceeds log2||T|| + s, against tail bounds 2^(1-s/2) and
    2^(-s) respectively.
    """

    sign: str
    s: float | None
    shannon_gap: float | None
    shannon_bound: float | None
    max_slice_violation_mass: float | None
    joint_violation_mass: float | None
    violation_bound: float | None
    masked_independent: bool
    max_carry_labels: int
    passed: bool


def dithered_sum_secrecy_report(pair: NestedLatticePair, d1, d2, sign: str = "+",
                                s: float = 2.0, measure: str = "shannon") -> SumSecrecyReport:
    """Exhaustive secrecy audit of V = X1 +/- X2 for independent uniform u1, u2.

    X_i = (u_i + d_i) mod c with fixed dithers.  The observation V is
    decomposed into its modular reduction and the integer carry; the
    report checks that disclosing the carry costs at most N bits of
    Shannon entropy, and (for renyi2/min) that slices with a larger drop
    have the guaranteed small total mass.

    V is the integer vector sigma of rank sums: the joint of (u1's label,
    sigma) is the Kronecker product of the coordinates' windows, and the
    masked class of sigma_j is sigma_j mod m.  Only d1's shifts enter: d2 is
    validated, but a uniform u2 absorbs its shift.  The entropies are sums
    in no particular order (`conditional_shannon_counts`).
    """
    if sign not in ("+", "-"):
        raise DomainError("sign must be '+' or '-'")
    if measure not in ("shannon", "renyi2", "min"):
        raise DomainError(f"unknown measure {measure!r}")
    size = pair.codebook_size
    if size * size > DEFAULT_ENUM_CAP:
        raise ResourceCapError(f"{size}^2 pairs exceed cap {DEFAULT_ENUM_CAP}")

    n, m = pair.dim, pair.nesting
    shifts = pair.dither_shifts(d1)
    pair.dither_shifts(d2)  # validates d2, whose shift a uniform u2 absorbs
    window = np.ones((1, 1), dtype=np.int64)  # (u1 label, sigma), both mixed-radix
    for k in shifts:
        window = np.kron(window, window_indicator(Coordinate(m, int(k)), sign).T)
    masked = np.ravel_multi_index(np.indices((2 * m - 1,) * n).reshape(n, -1) % m, (m,) * n)
    order = np.argsort(masked, kind="stable")  # each masked symbol's columns together
    full = window[:, order]
    masked = masked[order]
    starts = np.searchsorted(masked, np.arange(m ** n))
    joint_masked = np.add.reduceat(full, starts, axis=1)  # (u1 label, masked symbol)
    h_u1 = conditional_shannon_counts(joint_masked.sum(axis=1, keepdims=True))
    h_given_masked = conditional_shannon_counts(joint_masked)
    h_given_full = conditional_shannon_counts(full)

    # the modular sum is an additive mask: it must carry no information at all,
    # and it must come out exactly uniform
    totals = joint_masked.sum(axis=0).tolist()
    masked_independent = len(set(totals)) == 1 and abs(h_given_masked - h_u1) <= 1e-9
    bounds = np.append(starts, full.shape[1])
    max_labels = int(np.diff(bounds).max())  # carry labels per masked symbol
    gap = h_given_masked - h_given_full
    bound = float(pair.dim)
    # two summands: at most 2^N carries per residual
    passed = gap <= bound + 1e-9 and masked_independent and max_labels <= 2 ** pair.dim
    if measure == "shannon":
        return SumSecrecyReport(sign, None, gap, bound, None, None, None,
                                masked_independent, max_labels, passed)

    # one (u1 label, carry) joint per masked symbol, zero-padded to a common
    # width and stacked, at most AUDIT_BLOCK cells at a time
    per = max(1, AUDIT_BLOCK // (size * max_labels))
    masses = []
    for lo in range(0, m ** n, per):
        cols = np.arange(bounds[lo], bounds[min(lo + per, m ** n)])
        block = np.zeros((min(per, m ** n - lo), size, max_labels), dtype=np.int64)
        block[masked[cols] - lo, :, cols - starts[masked[cols]]] = full[:, cols].T
        masses += violation_mass_counts(block, measure, s).tolist()
    max_mass = max(v / t for v, t in zip(masses, totals))
    joint_mass = sum(masses) / (size * size)
    tail_bound = 2.0 ** (1 - float(s) / 2) if measure == "renyi2" else 2.0 ** (-float(s))
    return SumSecrecyReport(sign, float(s), gap, bound, max_mass, joint_mass,
                            tail_bound, masked_independent, max_labels,
                            passed and max_mass <= tail_bound + 1e-15)

