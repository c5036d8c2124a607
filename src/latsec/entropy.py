"""Exact entropy measures on finite distributions and side-information bounds.

Probabilities may be floats or `fractions.Fraction`.  Entropies are float
bits with the usual 0*log2(0) := 0 convention.

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
import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceCapError, ValidationError

MASS_TOL = 1e-12

# joints per `violation_mass_counts` call in the grid sweep (256 KiB at 4 x 4)
GRID_BATCH = 2048
# joints one grid sweep may visit (--grid-max 5 at step 8 is 16.3M)
GRID_JOINT_CAP = 1 << 25
# joint entries the floor sweep draws before evaluating them (512 trials at 8 x 8)
FLOOR_CHUNK_ENTRIES = 1 << 15
# largest floor deficit the floor sweep reads as float rounding, not a violation
FLOOR_TOL = 1e-9


def _check_probs(probs) -> None:
    for p in probs:
        if p < 0:
            raise ValidationError(f"negative probability mass: {p}")
    total = sum(probs)
    if abs(total - 1) > MASS_TOL:
        raise ValidationError(f"probabilities sum to {float(total)}, not 1")


@dataclass(frozen=True)
class DiscreteDistribution:
    """A probability table over a finite support of opaque, hashable symbols."""

    support: tuple
    probs: tuple

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "probs", tuple(self.probs))
        if len(self.support) == 0:
            raise ValidationError("empty support")
        if len(self.support) != len(self.probs):
            raise ValidationError("support and probs length mismatch")
        if len(set(self.support)) != len(self.support):
            raise ValidationError("support symbols must be pairwise distinct")
        _check_probs(self.probs)


def shannon_entropy(d: DiscreteDistribution) -> float:
    """-sum p log2 p in bits; lies in [0, log2 |support|]."""
    h = 0.0
    for p in d.probs:
        if p > 0:
            fp = float(p)
            h -= fp * math.log2(fp)
    return h


def renyi2_entropy(d: DiscreteDistribution) -> float:
    """Collision entropy -log2 sum p^2; never exceeds the Shannon entropy."""
    s = sum(float(p) * float(p) for p in d.probs)
    return -math.log2(s)


def conditional_shannon_counts(counts) -> float:
    """H(X|T) = sum_t p(t) H(X|T=t) of the joint counts / total of an integer (X, T)
    matrix.

    The floats are those of the exact joint, operation for operation: int true
    division rounds correctly, as `float(Fraction)` does, so the result equals
    `conditional_shannon_oracle` in tests/conftest.py with `==`.
    """
    rows = np.asarray(counts, dtype=np.int64).tolist()
    total = sum(map(sum, rows))
    h = 0.0
    for col in zip(*rows):
        colsum = sum(col)
        if colsum > 0:
            cond = DiscreteDistribution(range(len(col)), [c / colsum for c in col])
            h += colsum / total * shannon_entropy(cond)
    return h


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


def xlog2x_sum(a: np.ndarray, axis: int | None = None):
    """sum of x log2 x over the entries of a float array, with 0 log2 0 := 0, or
    with `axis` the array of such sums along that axis."""
    out = np.zeros_like(a, dtype=float)
    np.log2(a, out=out, where=a > 0)
    out *= a
    return float(out.sum()) if axis is None else out.sum(axis=axis)


# ---------------------------------------------------------------------------
# Sweeps used by the verification suite and the CLI.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FloorSweepReport:
    trials: int
    violations: int
    max_deficit: float   # largest observed (H(X) - log2||T||) - H(X|T)
    elapsed_s: float


def floor_deficits(joints: np.ndarray) -> np.ndarray:
    """(H(X) - log2||T||) - H(X|T) of each joint of a (B, X, T) stack of positive
    weights, each normalised to mass 1: the floats a joint-at-a-time loop gives."""
    p = joints / joints.reshape(len(joints), -1).sum(axis=1)[:, None, None]
    pt = p.sum(axis=1)
    h_x = -xlog2x_sum(p.sum(axis=2), axis=1)
    h_xt = -xlog2x_sum(p.reshape(len(p), -1), axis=1)
    h_t = -xlog2x_sum(pt, axis=1)
    log_t = np.array([math.log2(c) for c in np.count_nonzero(pt > 0, axis=1)])
    return (h_x - log_t) - (h_xt - h_t)


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
    start = time.perf_counter()
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
    return FloorSweepReport(trials, violations, max_deficit, time.perf_counter() - start)


def iter_grid_joints(n_x: int, n_t: int, mass_step: int):
    """Yield all n_x-by-n_t integer count matrices summing to mass_step (every joint
    of the quantized simplex grid) in int64 batches of at most GRID_BATCH."""
    cells = n_x * n_t
    width = mass_step + cells - 1
    # each composition as its bar positions closed by an end bar at `width`
    ends = (bars + (width,) for bars in itertools.combinations(range(width), cells - 1))
    while (flat := np.fromiter(itertools.chain.from_iterable(itertools.islice(ends, GRID_BATCH)),
                               dtype=np.int64)).size:
        yield (np.diff(flat.reshape(-1, cells), axis=1, prepend=-1) - 1).reshape(-1, n_x, n_t)


@dataclass(frozen=True)
class GridSweepReport:
    joints: int
    s_values: tuple
    bound_violations_renyi2: int
    bound_violations_min: int
    max_mass_renyi2: float
    max_mass_min: float
    elapsed_s: float


def violation_mass_grid_sweep(max_x: int = 4, max_t: int = 4, mass_step: int = 8,
                              s_values=(0.5, 1.0, 2.0, 4.0)) -> GridSweepReport:
    """Exhaustively check the renyi2/min tail bounds over a quantized simplex grid.

    Works in pure integers (mass units of 1/mass_step), so every comparison
    against the 2^(1-s/2) and 2^(-s) bounds is exact.  Each s must make 2*s
    an integer, and at most GRID_JOINT_CAP joints are visited.
    """
    if min(max_x, max_t) < 2 or mass_step < 1:
        raise DomainError("the grid needs alphabets of 2 or more symbols and a positive step")
    ks = [_two_s(s) for s in s_values]
    shapes = [(n_x, n_t) for n_x in range(2, max_x + 1) for n_t in range(2, max_t + 1)]
    planned = sum(math.comb(mass_step + n_x * n_t - 1, n_x * n_t - 1) for n_x, n_t in shapes)
    if planned > GRID_JOINT_CAP:
        raise ResourceCapError(f"{planned} grid joints exceed cap {GRID_JOINT_CAP}")
    step = mass_step
    # largest masses, in units of 1/step, within the tail bounds: mass <= 2^(1-s/2)
    # <=> v^4 2^(2s) <= 16 step^4, and mass <= 2^(-s) <=> v^2 2^(2s) <= step^2
    checks = {measure: [(k, max(v for v in range(step + 1) if v ** e << k <= step ** e << b))
                        for k in ks]
              for measure, e, b in (("renyi2", 4, 4), ("min", 2, 0))}

    start = time.perf_counter()
    joints = 0
    tally = {"renyi2": [0, 0], "min": [0, 0]}  # bound violations, largest mass numerator
    for n_x, n_t in shapes:
        for batch in iter_grid_joints(n_x, n_t, step):
            joints += len(batch)
            for measure, limits in checks.items():
                terms = _drop_terms(batch, measure)
                for k, limit in limits:
                    mass = _violating_mass(*terms, k)
                    tally[measure][0] += int(np.count_nonzero(mass > limit))
                    tally[measure][1] = max(tally[measure][1], int(mass.max()))
    (viol_r, max_r), (viol_m, max_m) = tally.values()
    return GridSweepReport(joints, tuple(float(s) for s in s_values), viol_r, viol_m,
                           max_r / step, max_m / step, time.perf_counter() - start)
