"""Exact entropy measures on finite distributions and side-information bounds.

Probabilities may be floats or `fractions.Fraction`.  Entropies are float
bits with the usual 0*log2(0) := 0 convention.  The side-information
violation test compares probability *ratios* rather than log gaps, so
Fraction-valued inputs are decided exactly: a distribution can never be
pushed over a sharp bound by float rounding.

The alphabet size of the conditioning variable counts only symbols that
carry strictly positive mass; zero-mass symbols are not side information.
"""
from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, ValidationError

MASS_TOL = 1e-12

_MEASURES = ("shannon", "renyi2", "min")


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

    @property
    def is_exact(self) -> bool:
        return all(isinstance(p, Fraction) for p in self.probs)

    def prob_of(self, symbol) -> float | Fraction:
        return self.probs[self.support.index(symbol)]

    def to_json(self) -> str:
        return json.dumps(
            {"support": list(self.support), "probs": [_num_out(p) for p in self.probs]}
        )

    @classmethod
    def from_json(cls, text: str) -> "DiscreteDistribution":
        obj = json.loads(text)
        return cls(tuple(_as_symbol(s) for s in obj["support"]),
                   tuple(_num_in(p) for p in obj["probs"]))


@dataclass(frozen=True)
class JointDistribution:
    """Joint table p(X=x, T=t); rows indexed by x, columns by t."""

    x_support: tuple
    t_support: tuple
    probs: tuple  # tuple of row tuples, row-major

    def __post_init__(self):
        object.__setattr__(self, "x_support", tuple(self.x_support))
        object.__setattr__(self, "t_support", tuple(self.t_support))
        object.__setattr__(self, "probs", tuple(tuple(row) for row in self.probs))
        if len(set(self.x_support)) != len(self.x_support):
            raise ValidationError("x symbols must be pairwise distinct")
        if len(set(self.t_support)) != len(self.t_support):
            raise ValidationError("t symbols must be pairwise distinct")
        if len(self.probs) != len(self.x_support):
            raise ValidationError("row count must match x support")
        for row in self.probs:
            if len(row) != len(self.t_support):
                raise ValidationError("column count must match t support")
        _check_probs([p for row in self.probs for p in row])

    @property
    def is_exact(self) -> bool:
        return all(isinstance(p, Fraction) for row in self.probs for p in row)

    def x_masses(self):
        return [sum(row) for row in self.probs]

    def t_masses(self):
        return [sum(row[j] for row in self.probs) for j in range(len(self.t_support))]

    def marginal_x(self) -> DiscreteDistribution:
        return DiscreteDistribution(self.x_support, tuple(self.x_masses()))

    def marginal_t(self) -> DiscreteDistribution:
        return DiscreteDistribution(self.t_support, tuple(self.t_masses()))

    def realized_t_count(self) -> int:
        """Number of t symbols with strictly positive marginal mass."""
        return sum(1 for m in self.t_masses() if m > 0)

    def conditional_x_given_t(self, t) -> DiscreteDistribution:
        j = self.t_support.index(t)
        mass = sum(row[j] for row in self.probs)
        if mass <= 0:
            raise DomainError(f"conditioning on zero-mass symbol {t!r}")
        if isinstance(mass, Fraction):
            col = tuple(Fraction(row[j]) / mass for row in self.probs)
        else:
            col = tuple(row[j] / mass for row in self.probs)
        return DiscreteDistribution(self.x_support, col)

    def transpose(self) -> "JointDistribution":
        rows = tuple(tuple(self.probs[i][j] for i in range(len(self.x_support)))
                     for j in range(len(self.t_support)))
        return JointDistribution(self.t_support, self.x_support, rows)

    def to_json(self) -> str:
        return json.dumps({
            "x_support": list(self.x_support),
            "t_support": list(self.t_support),
            "probs": [[_num_out(p) for p in row] for row in self.probs],
        })

    @classmethod
    def from_json(cls, text: str) -> "JointDistribution":
        obj = json.loads(text)
        return cls(tuple(_as_symbol(s) for s in obj["x_support"]),
                   tuple(_as_symbol(s) for s in obj["t_support"]),
                   tuple(tuple(_num_in(p) for p in row) for row in obj["probs"]))


def _num_out(p):
    return str(p) if isinstance(p, Fraction) else float(p)


def _num_in(p):
    return Fraction(p) if isinstance(p, str) else float(p)


def _as_symbol(s):
    return tuple(s) if isinstance(s, list) else s


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


def min_entropy(d: DiscreteDistribution) -> float:
    """-log2 max p; the most conservative of the three measures."""
    return -math.log2(float(max(d.probs)))


_MEASURE_FN = {"shannon": shannon_entropy, "renyi2": renyi2_entropy, "min": min_entropy}


def conditional_shannon(j: JointDistribution) -> float:
    """H(X|T) = sum_t p(t) H(X|T=t)."""
    h = 0.0
    for t, mass in zip(j.t_support, j.t_masses()):
        if mass > 0:
            h += float(mass) * shannon_entropy(j.conditional_x_given_t(t))
    return h


def conditional_slice(j: JointDistribution, t, measure: str) -> float:
    """Entropy of p(X | T=t) under the chosen measure.

    Raises DomainError when the slice carries no mass (the conditional
    distribution is undefined there).
    """
    if measure not in _MEASURES:
        raise DomainError(f"unknown measure {measure!r}")
    return _MEASURE_FN[measure](j.conditional_x_given_t(t))


def mutual_information(j: JointDistribution) -> float:
    """I(X;T) = H(X) - H(X|T) in bits; zero iff X and T are independent."""
    return shannon_entropy(j.marginal_x()) - conditional_shannon(j)


def _collision_stat(probs):
    """sum p^2, exact when the inputs are Fractions."""
    if all(isinstance(p, Fraction) for p in probs):
        return sum(p * p for p in probs)
    return sum(float(p) * float(p) for p in probs)


def _gap_exceeds(stat_cond, stat_uncond, t_count: int, s) -> bool:
    """Does the entropy drop log2(stat_cond/stat_uncond) exceed log2(t_count) + s?

    For renyi2 the statistics are collision sums; for min they are max
    probabilities.  In both cases the drop equals log2 of their ratio.
    When the statistics are Fractions and 2*s is an integer, the
    comparison is made exactly by squaring both sides.
    """
    two_s = 2.0 * float(s)
    exact = (isinstance(stat_cond, Fraction) and isinstance(stat_uncond, Fraction)
             and float(two_s).is_integer())
    if exact:
        k = int(round(two_s))
        lhs = Fraction(stat_cond, stat_uncond) ** 2
        rhs = Fraction(t_count * t_count) * (Fraction(2) ** k)
        return lhs > rhs
    return math.log2(float(stat_cond) / float(stat_uncond)) > math.log2(t_count) + float(s)


def side_info_violation_mass(j: JointDistribution, measure: str, s) -> float | Fraction:
    """Total mass of t where conditioning drops the entropy by more than log2||T|| + s.

    ||T|| is the number of t symbols with positive marginal mass.  The tail
    bounds guaranteed for this quantity are 2^(1 - s/2) for renyi2 and 2^(-s)
    for min; callers assert against those.  Returns a Fraction when the
    joint is exact, else a float.
    """
    if not float(s) > 0:
        raise DomainError("s must be positive")
    if measure not in ("renyi2", "min"):
        raise DomainError(f"measure must be renyi2 or min, got {measure!r}")

    t_count = j.realized_t_count()
    marg_x = j.x_masses()
    if measure == "renyi2":
        stat_uncond = _collision_stat(marg_x)
    else:
        stat_uncond = max(marg_x)

    total = Fraction(0) if j.is_exact else 0.0
    for t, mass in zip(j.t_support, j.t_masses()):
        if mass <= 0:
            continue
        cond = j.conditional_x_given_t(t)
        if measure == "renyi2":
            stat_cond = _collision_stat(cond.probs)
        else:
            stat_cond = max(cond.probs)
        if _gap_exceeds(stat_cond, stat_uncond, t_count, s):
            total += mass
    return total


def xlog2x_sum(a: np.ndarray) -> float:
    """sum of x log2 x over the entries of a float array, with 0 log2 0 := 0."""
    out = np.zeros_like(a, dtype=float)
    np.log2(a, out=out, where=a > 0)
    out *= a
    return float(out.sum())


# ---------------------------------------------------------------------------
# Sweeps used by the verification suite and the CLI.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FloorSweepReport:
    trials: int
    violations: int
    max_deficit: float   # largest observed (H(X) - log2||T||) - H(X|T)
    elapsed_s: float


def conditional_entropy_floor_sweep(trials: int, max_x: int = 8, max_t: int = 8,
                                    seed: int = 0, tol: float = 1e-9) -> FloorSweepReport:
    """Check H(X|T) >= H(X) - log2||T|| on random joints.

    Joints are drawn flat on the simplex (normalized exponentials) with
    alphabet sizes uniform in [2, max_x] x [2, max_t].
    """
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    violations = 0
    max_deficit = -math.inf
    for _ in range(trials):
        nx = int(rng.integers(2, max_x + 1))
        nt = int(rng.integers(2, max_t + 1))
        p = rng.exponential(size=(nx, nt))
        p /= p.sum()
        px = p.sum(axis=1)
        pt = p.sum(axis=0)
        h_x = -xlog2x_sum(px)
        h_xt = -xlog2x_sum(p)
        h_t = -xlog2x_sum(pt)
        h_x_given_t = h_xt - h_t
        t_count = int((pt > 0).sum())
        deficit = (h_x - math.log2(t_count)) - h_x_given_t
        if deficit > max_deficit:
            max_deficit = deficit
        if deficit > tol:
            violations += 1
    return FloorSweepReport(trials, violations, max_deficit, time.perf_counter() - start)


def iter_grid_joints(n_x: int, n_t: int, mass_step: int):
    """Yield all n_x-by-n_t integer count matrices summing to mass_step.

    Dividing by mass_step gives every joint on the quantized simplex grid.
    """
    cells = n_x * n_t
    total = mass_step
    for bars in itertools.combinations(range(total + cells - 1), cells - 1):
        counts = []
        prev = -1
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(total + cells - 1 - prev - 1)
        yield tuple(counts)


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
    an integer.
    """
    for s in s_values:
        if not float(s) > 0:
            raise DomainError("s must be positive")
        if not float(2 * s).is_integer():
            raise DomainError("grid sweep needs 2*s integral for exact comparisons")
    ks = [int(round(2 * float(s))) for s in s_values]

    start = time.perf_counter()
    joints = 0
    viol_r = 0
    viol_m = 0
    max_mass_r = 0.0
    max_mass_m = 0.0
    step = mass_step
    step2 = step * step
    step4 = step2 * step2

    for n_x in range(2, max_x + 1):
        for n_t in range(2, max_t + 1):
            for counts in iter_grid_joints(n_x, n_t, step):
                joints += 1
                rows = [sum(counts[i * n_t:(i + 1) * n_t]) for i in range(n_x)]
                sum_row_sq = sum(r * r for r in rows)
                max_row = max(rows)
                cols = []
                for jcol in range(n_t):
                    col = counts[jcol::n_t]
                    csum = sum(col)
                    if csum > 0:
                        cols.append((csum, sum(c * c for c in col), max(col)))
                t_count = len(cols)
                tc2 = t_count * t_count

                for k, s in zip(ks, s_values):
                    # renyi2: drop > log2||T|| + s  <=>  (A*step^2)^2 > ||T||^2 2^(2s) (B*C)^2
                    viol_mass = 0
                    for csum, a, _ in cols:
                        lhs = (a * step2) ** 2
                        rhs = tc2 * (1 << k) * (csum * csum * sum_row_sq) ** 2
                        if lhs > rhs:
                            viol_mass += csum
                    if viol_mass:
                        frac = viol_mass / step
                        if frac > max_mass_r:
                            max_mass_r = frac
                        # mass <= 2^(1-s/2)  <=>  mass^4 <= 2^(4-2s), exact in ints
                        lhs4 = viol_mass ** 4 * (1 << max(0, k - 4))
                        rhs4 = step4 * (1 << max(0, 4 - k))
                        if lhs4 > rhs4:
                            viol_r += 1

                    # min: drop > log2||T|| + s  <=>  (maxc*step)^2 > ||T||^2 2^(2s) (csum*maxrow)^2
                    viol_mass = 0
                    for csum, _, maxc in cols:
                        lhs = (maxc * step) ** 2
                        rhs = tc2 * (1 << k) * (csum * max_row) ** 2
                        if lhs > rhs:
                            viol_mass += csum
                    if viol_mass:
                        frac = viol_mass / step
                        if frac > max_mass_m:
                            max_mass_m = frac
                        # mass <= 2^(-s)  <=>  mass^2 2^(2s) <= 1
                        if viol_mass * viol_mass * (1 << k) > step2:
                            viol_m += 1

    return GridSweepReport(joints, tuple(float(s) for s in s_values), viol_r, viol_m,
                           max_mass_r, max_mass_m, time.perf_counter() - start)


def grid_joint_from_counts(counts, n_x: int, n_t: int, mass_step: int) -> JointDistribution:
    """Exact-Fraction joint for one grid cell vector (row-major counts)."""
    rows = tuple(tuple(Fraction(counts[i * n_t + j], mass_step) for j in range(n_t))
                 for i in range(n_x))
    return JointDistribution(tuple(range(n_x)), tuple(range(n_t)), rows)
