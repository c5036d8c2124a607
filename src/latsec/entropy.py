"""Exact entropy measures on finite distributions and side-information bounds.

Entropies are float bits with the usual 0*log2(0) := 0 convention.

A bit source is n bits and one nonnegative integer weight per symbol:
symbol i is the n-bit binary form of i and has mass weights[i] / sum(weights).
`renyi2_entropy` evaluates its collision entropy from the integers, with one
rounded division.

A joint of X and T is an integer count matrix c (the joint c / c.sum()),
rows indexed by x and columns by t.  `conditional_shannon_counts` gives
H(X|T).  `violation_mass_counts` gives the mass of the columns where
conditioning drops the entropy by more than log2||T|| + s; it compares
probability *ratios* in integers rather than log gaps, so a joint can never
be pushed over a sharp bound by float rounding.  ||T|| counts only columns
that carry strictly positive mass; zero-mass symbols are not side
information.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceCapError, ValidationError

# joints per `violation_mass_counts` call in the grid sweep (256 KiB at 4 x 4)
GRID_BATCH = 2048
# joints one grid sweep may visit (--grid-max 5 at step 8 is 16.3M)
GRID_JOINT_CAP = 1 << 25
# joint entries the floor sweep draws before evaluating them (512 trials at 8 x 8)
FLOOR_CHUNK_ENTRIES = 1 << 15
# largest floor deficit the floor sweep reads as float rounding, not a violation
FLOOR_TOL = 1e-9


@dataclass(frozen=True)
class BitSource:
    """A source on n-bit symbols: symbol i, the bits of i most significant
    first, has mass weights[i] / sum(weights)."""

    n: int
    weights: tuple

    def __post_init__(self):
        # Python ints, so that no sum or square of the weights can wrap
        weights = tuple(map(operator.index, self.weights))
        object.__setattr__(self, "weights", weights)
        if self.n < 1 or not 0 < len(weights) <= 1 << self.n:
            raise ValidationError("a bit source has n >= 1 bits and 1 to 2^n weights")
        if min(weights) < 0 or sum(weights) == 0:
            raise ValidationError("bit source weights must be nonnegative, not all zero")


def renyi2_entropy(source: BitSource) -> float:
    """Collision entropy -log2 sum p^2 = log2(T^2 / sum w^2), T the total
    weight: one correctly rounded int division, then one log2."""
    total = sum(source.weights)
    return math.log2(total * total / sum(w * w for w in source.weights))


def conditional_shannon_counts(counts) -> float:
    """H(X|T) = sum_t p(t) H(X|T=t) of the joint counts / total of an integer (X, T)
    matrix, counts below 2^53: the float of each exact mass, one `xlog2x_sum` per
    column and one `math.fsum` over the columns, so no permutation of rows or
    columns changes it, and it equals `conditional_shannon_oracle` in
    tests/conftest.py with `==`."""
    cols = np.asarray(counts, dtype=np.int64).T
    colsum = cols.sum(axis=1)
    cols, colsum = cols[colsum > 0], colsum[colsum > 0]
    h_cols = -xlog2x_sum(cols / colsum[:, None], axis=-1)
    return math.fsum((colsum / colsum.sum() * h_cols).tolist())


def _two_s(s) -> int:
    """2s as an int; the exact drop tests need s > 0 with 2s integral."""
    if not (float(s) > 0 and float(2 * s).is_integer()):
        raise DomainError(f"exact violation masses need s > 0 with 2*s integral, got {s!r}")
    return int(2 * float(s))


def violation_mass_counts(counts, measure: str, s) -> np.ndarray:
    """Violation mass of each count joint of an int64 batch (B, X, T): the mass of
    the columns where the renyi2 or min entropy drops by more than log2||T|| + s.

    Joint b is counts[b] / total_b; its mass comes back as the integer numerator
    over total_b.  ||T|| counts the nonzero columns.  The test (stat ratio)^2 >
    ||T||^2 2^(2s) is decided in int64: 2s must be integral, and a batch whose
    terms could leave int64 is refused.  The tail bounds guaranteed for this
    mass are 2^(1 - s/2) for renyi2 and 2^(-s) for min; `violation_mass_oracle`
    in tests/conftest.py decides the same test in Fractions."""
    k = _two_s(s)
    return _violating_mass(*_drop_terms(counts, measure), k)


def _drop_terms(counts, measure: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The s-independent terms of the drop test of each column of a count batch:
    its mass, lhs^2 - 1 and min(rhs, lhs)^2, where lhs^2 > 2^(2s) rhs^2 is the test."""
    if measure not in ("renyi2", "min"):
        raise DomainError(f"measure must be renyi2 or min, got {measure!r}")
    counts = np.asarray(counts, dtype=np.int64)
    rows = counts.sum(axis=2)
    tot = rows.sum(axis=1)
    if np.any(counts < 0) or np.any(tot <= 0):
        raise ValidationError("count joints need nonnegative counts and a positive total")
    top = int(tot.max(initial=0))
    if counts.shape[2] * top ** (4 if measure == "renyi2" else 2) >= 1 << 63:
        raise ResourceCapError(f"count joints of total {top} overflow int64")
    csum = counts.sum(axis=1)
    tc = np.count_nonzero(csum, axis=1)[:, None]
    if measure == "renyi2":
        # collision sums: sum_x c^2 / csum^2 against sum_x r^2 / tot^2
        lhs = (counts * counts).sum(axis=1) * (tot * tot)[:, None]
        rhs = tc * csum * csum * (rows * rows).sum(axis=1)[:, None]
    else:
        # largest probabilities: max_x c / csum against max_x r / tot
        lhs = counts.max(axis=1) * tot[:, None]
        rhs = tc * csum * rows.max(axis=1)[:, None]
    if int(lhs.max(initial=0)) ** 2 >= 1 << 63:
        raise ResourceCapError(f"count joints of total {top} overflow int64")
    return csum, lhs * lhs - 1, np.minimum(rhs, lhs) ** 2


def _violating_mass(csum, lhs2, rhs2, k: int) -> np.ndarray:
    # lhs^2 > 2^k rhs^2 without forming 2^k rhs^2: no column with rhs >= lhs
    # violates, and below lhs the test is floor((lhs^2 - 1) / 2^k) >= rhs^2
    return (csum * (lhs2 >> min(k, 63) >= rhs2)).sum(axis=1)


def xlog2x_sum(x, weights=None, axis=None):
    """The correctly rounded sum of the terms (w x) log2 x over the entries x > 0
    of an array, w their weights (an array of x's shape; 1 by default), or with
    axis=-1 one such sum per row.  x may also be an iterator of arrays, whose
    terms all go to one sum.  `math.fsum` rounds the exact sum of the terms
    once, so no order, chunking or grouping of them changes the result.  This
    is the package's only x log2 x.
    """
    if isinstance(x, Iterator):
        return math.fsum(itertools.chain.from_iterable(_xlog2x_terms(a, None)[0] for a in x))
    terms, kept = _xlog2x_terms(x, weights)
    if axis is None:
        return math.fsum(terms)
    it = iter(terms)
    return np.array([math.fsum(itertools.islice(it, k)) for k in kept.sum(axis=-1).tolist()])


def _xlog2x_terms(x, weights) -> tuple[list, np.ndarray]:
    """The terms of the entries x > 0 with nonzero weight, row by row, and which
    entries gave them."""
    x = np.asarray(x, dtype=float)
    kept = x > 0
    if weights is None:
        v = x[kept]
        return (v * np.log2(v)).tolist(), kept
    weights = np.asarray(weights)
    kept &= weights != 0
    v = x[kept]
    return (weights[kept] * v * np.log2(v)).tolist(), kept


# ---------------------------------------------------------------------------
# Sweeps used by the verification suite and the CLI.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FloorSweepReport:
    trials: int
    violations: int
    max_deficit: float   # largest observed (H(X) - log2||T||) - H(X|T)


def floor_deficits(joints: np.ndarray) -> np.ndarray:
    """(H(X) - log2||T||) - H(X|T) = I(X;T) - log2||T|| of each joint of a
    (B, X, T) stack of positive weights, each normalised to mass 1: per joint one
    `xlog2x_sum` of its signed terms, the floats a joint-at-a-time loop gives."""
    b = len(joints)
    p = joints / joints.reshape(b, -1).sum(axis=1)[:, None, None]
    pt = p.sum(axis=1)
    # I = sum p log p - sum p(x) log p(x) - sum p(t) log p(t); the last entry, 2
    # with weight -log2||T|| / 2, adds -log2||T|| exactly, since 2 log2 2 = 2
    x = np.concatenate([p.reshape(b, -1), p.sum(axis=2), pt, np.full((b, 1), 2.0)], axis=1)
    weights = np.ones_like(x)
    weights[:, p[0].size:-1] = -1.0
    weights[:, -1] = np.log2(np.count_nonzero(pt, axis=1)) / -2
    return xlog2x_sum(x, weights, axis=-1)


def conditional_entropy_floor_sweep(trials: int, max_x: int = 8, max_t: int = 8,
                                    seed: int = 0) -> FloorSweepReport:
    """Check H(X|T) >= H(X) - log2||T|| on random joints; a deficit above
    FLOOR_TOL counts as a violation.

    Joints are drawn flat on the simplex (normalized exponentials) with
    alphabet sizes uniform in [2, max_x] x [2, max_t], one after another, and
    evaluated in chunks of at most FLOOR_CHUNK_ENTRIES cells, stacked by shape.
    """
    if trials < 1 or min(max_x, max_t) < 2:
        raise DomainError("the floor sweep needs a trial and alphabets of 2 or more symbols")
    rng = np.random.default_rng(seed)
    violations = 0
    max_deficit = -math.inf
    chunk = max(1, FLOOR_CHUNK_ENTRIES // (max_x * max_t))
    for first in range(0, trials, chunk):
        by_shape: dict[tuple[int, int], list[np.ndarray]] = {}
        for _ in range(min(chunk, trials - first)):
            shape = int(rng.integers(2, max_x + 1)), int(rng.integers(2, max_t + 1))
            by_shape.setdefault(shape, []).append(rng.exponential(size=shape))
        for stack in by_shape.values():
            deficit = floor_deficits(np.stack(stack))
            max_deficit = max(max_deficit, float(deficit.max()))
            violations += int(np.count_nonzero(deficit > FLOOR_TOL))
    return FloorSweepReport(trials, violations, max_deficit)


def _children(lo: np.ndarray, hi: np.ndarray):
    """(parent, value) for every value in [lo[i], hi[i]) of every parent i, in
    order, in slices of at most GRID_BATCH pairs."""
    ends = np.cumsum(hi - lo)
    starts, total = ends - (hi - lo), int(ends[-1])
    for first in range(0, total, GRID_BATCH):
        flat = np.arange(first, min(first + GRID_BATCH, total))
        parent = np.searchsorted(ends, flat, side="right")
        yield parent, lo[parent] + flat - starts[parent]


def _sorted_tuples(offsets: np.ndarray, sums: np.ndarray, prefix: np.ndarray,
                   rem: np.ndarray, left: int):
    """Extend each non-decreasing prefix of nonzero column indices by `left` more
    whose sums add up to its `rem`, in batches of at most GRID_BATCH tuples.

    Columns are sorted by sum and those of sum s are offsets[s]:offsets[s + 1],
    so the next column has a sum of at most rem // left (no later, larger one
    could fit), exactly rem when it is the last; every prefix completes."""
    lo = prefix[:, -1] if prefix.shape[1] else np.ones(len(rem), dtype=np.int64)
    if left == 1:
        lo = np.maximum(lo, offsets[rem])
    for parent, col in _children(lo, offsets[rem // left + 1]):
        tuples = np.column_stack((prefix[parent], col))
        if left == 1:
            yield tuples
        else:
            yield from _sorted_tuples(offsets, sums, tuples, rem[parent] - sums[col], left - 1)


def iter_grid_orbits(n_x: int, n_t: int, mass_step: int):
    """Yield one n_x-by-n_t count matrix summing to mass_step per orbit of the
    quantized simplex grid under column permutations, with the orbit's size, in
    int64 batches of at most GRID_BATCH.

    The columns are every composition of 0..mass_step into n_x rows, sorted by
    sum.  A representative holds n_t - k zero columns and a non-decreasing
    k-tuple of nonzero ones whose sums add up to mass_step, and its orbit has
    n_t! / prod(run length!) = C(n_t, k) k! / prod(nonzero run length!) joints.
    """
    if mass_step == 0:
        yield np.zeros((1, n_x, n_t), dtype=np.int64), np.ones(1, dtype=np.int64)
        return
    # the compositions of 0..step into n_x parts, part by part
    cols = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n_x):
        room = mass_step + 1 - cols.sum(axis=1)
        parent = np.repeat(np.arange(len(cols)), room)
        part = np.arange(len(parent)) - np.repeat(np.cumsum(room) - room, room)
        cols = np.column_stack((cols[parent], part))
    sums = cols.sum(axis=1)
    order = np.argsort(sums, kind="stable")
    cols, sums = cols[order], sums[order]
    offsets = np.searchsorted(sums, np.arange(mass_step + 2))
    for k in range(1, min(n_t, mass_step) + 1):
        for tuples in _sorted_tuples(offsets, sums, np.zeros((1, 0), dtype=np.int64),
                                     np.array([mass_step]), k):
            run = np.ones(len(tuples), dtype=np.int64)
            orderings = np.full(len(tuples), math.comb(n_t, k), dtype=np.int64)
            for j in range(1, k):
                run = np.where(tuples[:, j] == tuples[:, j - 1], run + 1, 1)
                orderings = orderings * (j + 1) // run
            joints = np.zeros((len(tuples), n_x, n_t), dtype=np.int64)
            joints[:, :, n_t - k:] = cols[tuples].transpose(0, 2, 1)
            yield joints, orderings


@dataclass(frozen=True)
class GridSweepReport:
    joints: int
    bound_violations_renyi2: int
    bound_violations_min: int
    max_mass_renyi2: float
    max_mass_min: float


def violation_mass_grid_sweep(max_x: int = 4, max_t: int = 4, mass_step: int = 8,
                              s_grid=(0.5, 1.0, 2.0, 4.0)) -> GridSweepReport:
    """Exhaustively check the renyi2/min tail bounds over a quantized simplex grid.

    Works in pure integers (mass units of 1/mass_step), so every comparison
    against the 2^(1-s/2) and 2^(-s) bounds is exact.  Each s must make 2*s
    an integer, and at most GRID_JOINT_CAP joints are counted.  A joint's
    violation masses depend on its columns only as a multiset, so each orbit
    under column permutations is evaluated once and counted by its size.
    """
    if min(max_x, max_t) < 2 or mass_step < 1:
        raise DomainError("the grid needs alphabets of 2 or more symbols and a positive step")
    ks = [_two_s(s) for s in s_grid]
    shapes = [(n_x, n_t) for n_x in range(2, max_x + 1) for n_t in range(2, max_t + 1)]
    planned = sum(math.comb(mass_step + n_x * n_t - 1, n_x * n_t - 1) for n_x, n_t in shapes)
    if planned > GRID_JOINT_CAP:
        raise ResourceCapError(f"{planned} grid joints exceed cap {GRID_JOINT_CAP}")
    step = mass_step
    # largest masses, in units of 1/step, within the tail bounds: mass <= 2^(1-s/2)
    # <=> v^4 2^(2s) <= 16 step^4, and mass <= 2^(-s) <=> v^2 2^(2s) <= step^2;
    # from 2s = e bits(step) + b on only v = 0 passes, so k is clamped there
    checks = {measure: [(k, max(v for v in range(step + 1)
                                if v ** e << min(k, e * step.bit_length() + b)
                                <= step ** e << b))
                        for k in ks]
              for measure, e, b in (("renyi2", 4, 4), ("min", 2, 0))}

    joints = 0
    tally = {"renyi2": [0, 0], "min": [0, 0]}  # bound violations, largest mass numerator
    for n_x, n_t in shapes:
        for batch, orderings in iter_grid_orbits(n_x, n_t, step):
            joints += int(orderings.sum())
            for measure, limits in checks.items():
                terms = _drop_terms(batch, measure)
                for k, limit in limits:
                    mass = _violating_mass(*terms, k)
                    tally[measure][0] += int(orderings[mass > limit].sum())
                    tally[measure][1] = max(tally[measure][1], int(mass.max()))
    (viol_r, max_r), (viol_m, max_m) = tally.values()
    return GridSweepReport(joints, viol_r, viol_m, max_r / step, max_m / step)
