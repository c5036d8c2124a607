import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (conditional_shannon_oracle, floor_deficit_oracle, floor_sweep_oracle,
                      grid_joint_from_counts, grid_sweep_oracle, iter_grid_joints_oracle,
                      mutual_information_oracle, shannon_oracle, violation_mass_oracle)
from latsec import entropy
from latsec.entropy import (BitSource, conditional_entropy_floor_sweep,
                            conditional_shannon_counts, floor_deficits, iter_grid_orbits,
                            renyi2_entropy, violation_mass_counts, violation_mass_grid_sweep,
                            xlog2x_sum)
from latsec.errors import DomainError, ResourceCapError, ValidationError


def shannon(weights):
    """H of the masses weights / sum(weights), as the one-column joint's H(X|T)."""
    return conditional_shannon_counts(np.asarray(weights)[:, None])


def random_counts(rng, nx, nt):
    counts = rng.integers(0, 20, size=(nx, nt))
    counts[0, 0] += 1  # a positive total
    return counts


def exact(counts):
    """The exact joint counts / total as a Fraction mass matrix."""
    return grid_joint_from_counts(counts, *np.shape(counts), int(np.sum(counts)))


# the independent count joint (5, 3, 2) x (1, 3) and the copy joint of 4 symbols
INDEPENDENT = np.outer([5, 3, 2], [1, 3])
COPY = np.eye(4, dtype=np.int64)


class TestValidation:
    def test_negative_mass_rejected(self):
        with pytest.raises(ValidationError):
            BitSource(1, (-1, 2))

    @pytest.mark.parametrize("n, weights", [(1, (0, 0)), (1, (1, 1, 1)), (1, ()), (0, (1,))])
    def test_malformed_sources_rejected(self, n, weights):
        # a zero total, more weights than n-bit symbols, no weight, no bit
        with pytest.raises(ValidationError):
            BitSource(n, weights)

    def test_weights_are_python_ints(self):
        with pytest.raises(TypeError):
            BitSource(1, (0.5, 0.5))
        # int64 weights whose squares would wrap are read as Python ints
        source = BitSource(1, np.array([1 << 40, 1 << 40]))
        assert all(type(w) is int for w in source.weights)
        assert renyi2_entropy(source) == 1.0


class TestMeasures:
    def test_shannon_uniform_four(self):
        assert shannon([1, 1, 1, 1]) == pytest.approx(2.0, abs=1e-12)

    def test_shannon_point_mass(self):
        assert shannon([1, 0]) == 0.0

    def test_shannon_half_quarter_quarter(self):
        probs = (0.5, 0.25, 0.25)
        oracle = -sum(p * math.log2(p) for p in probs)  # direct summation
        assert oracle == pytest.approx(1.5, abs=1e-12)
        assert shannon([2, 1, 1]) == pytest.approx(oracle, abs=1e-12)

    def test_renyi2_uniform(self):
        for n in (2, 5, 8):
            assert renyi2_entropy(BitSource(3, (1,) * n)) == math.log2(n)

    def test_renyi2_three_quarters(self):
        probs = (0.75, 0.25)
        oracle = -math.log2(sum(p * p for p in probs))  # direct summation
        assert oracle == pytest.approx(-math.log2(10 / 16), abs=1e-12)
        assert renyi2_entropy(BitSource(1, (3, 1))) == pytest.approx(oracle, abs=1e-12)

    def test_measure_ordering(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            w = rng.integers(1, 1000, size=n)
            h, h2 = shannon(w), renyi2_entropy(BitSource(3, w))
            hm = -math.log2(w.max() / w.sum())
            assert hm <= h2 + 1e-9
            assert h2 <= h + 1e-9


class TestConditional:
    def test_independent_keeps_entropy(self):
        h_x = shannon_oracle(INDEPENDENT.sum(axis=1) / INDEPENDENT.sum())
        assert conditional_shannon_counts(INDEPENDENT) == pytest.approx(h_x, abs=1e-12)

    def test_copy_is_deterministic(self):
        assert conditional_shannon_counts(COPY) == pytest.approx(0.0, abs=1e-12)

    def test_chain_rule_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            counts = random_counts(rng, 3, 3)
            p = counts / counts.sum()
            h_joint = -sum(q * math.log2(q) for q in p.ravel() if q > 0)
            h_t = shannon_oracle(p.sum(axis=0))
            assert conditional_shannon_counts(counts) == pytest.approx(h_joint - h_t, abs=1e-9)

    def test_slice_independent(self):
        # one column is the slice T = t: its H(X|T) is H(X | T = t); the collision
        # entropies are one rational each, (5, 3, 2) scaled, so they agree exactly
        px = INDEPENDENT.sum(axis=1)
        h_x = shannon_oracle(px / px.sum())
        for t in (0, 1):
            col = INDEPENDENT[:, [t]]
            assert conditional_shannon_counts(col) == pytest.approx(h_x, abs=1e-12)
            assert renyi2_entropy(BitSource(2, col[:, 0])) == renyi2_entropy(BitSource(2, px))

    def test_slice_copy(self):
        for t in range(4):
            assert conditional_shannon_counts(COPY[:, [t]]) == 0.0

    def test_slice_hand_normalized_column(self):
        # column t = 0 of a 4x2 joint is (1, 2, 3, 0) before normalizing
        counts = np.array([[1, 5], [2, 5], [3, 10], [0, 20]])
        norm = [c / 6 for c in (1, 2, 3, 0)]
        oracle = -sum(p * math.log2(p) for p in norm if p > 0)
        assert conditional_shannon_counts(counts[:, [0]]) == pytest.approx(oracle, abs=1e-12)
        oracle2 = -math.log2(sum(p * p for p in norm))
        assert renyi2_entropy(BitSource(2, (1, 2, 3, 0))) == pytest.approx(oracle2, abs=1e-12)


class TestViolationMass:
    def test_independent_joint_never_violates(self):
        for s in (0.5, 1, 2, 4):
            assert violation_mass_counts(INDEPENDENT[None], "renyi2", s).tolist() == [0]
            assert violation_mass_counts(INDEPENDENT[None], "min", s).tolist() == [0]

    def test_copy_joint_at_s_log_m(self):
        # the drop equals log2 m = log2||T|| exactly, strictly below the s margin
        assert violation_mass_counts(COPY[None], "renyi2", math.log2(4)).tolist() == [0]
        assert violation_mass_counts(COPY[None], "min", math.log2(4)).tolist() == [0]

    def test_invalid_s_rejected(self):
        for s in (0.0, -1.0):
            with pytest.raises(DomainError):
                violation_mass_grid_sweep(2, 2, 4, (s,))

    def test_exact_mode_matches_grid_sweep_arithmetic(self):
        # sample grid joints and cross-check the Fraction oracle against the
        # integer comparisons used by the exhaustive sweep
        picked = np.concatenate(list(iter_grid_joints_oracle(3, 3, 8)))[::997]
        assert len(picked) == 13
        for counts in picked:
            j = grid_joint_from_counts(counts, 3, 3, 8)
            for s in (0.5, 1.0, 2.0, 4.0):
                mass_r = violation_mass_oracle(j, "renyi2", s)
                mass_m = violation_mass_oracle(j, "min", s)
                assert Fraction(int(violation_mass_counts(counts[None], "renyi2", s)[0]),
                                8) == mass_r
                assert Fraction(int(violation_mass_counts(counts[None], "min", s)[0]),
                                8) == mass_m
                assert float(mass_r) <= 2 ** (1 - s / 2) + 1e-15
                assert float(mass_m) <= 2 ** (-s) + 1e-15

    def test_tail_bounds_on_random_joints(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            counts = random_counts(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            total = counts.sum()
            for s in (0.5, 1, 2, 4):
                assert violation_mass_counts(counts[None], "renyi2", s)[0] / total \
                    <= 2 ** (1 - s / 2) + 1e-12
                assert violation_mass_counts(counts[None], "min", s)[0] / total \
                    <= 2 ** (-s) + 1e-12


@st.composite
def count_batches(draw):
    """A (B, X, T) batch of small count joints.  Each column is spread, zero or
    a single spike, so that drops past log2||T|| + s are common; some rows are
    zeroed too."""
    b, x, t = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(0, 2), min_size=b * x * t, max_size=b * x * t))
    counts = np.array(cells, dtype=np.int64).reshape(b, x, t)
    for col in range(t):
        kind = draw(st.sampled_from(["spread", "zero", "spike"]))
        if kind != "spread":
            counts[:, :, col] = 0
        if kind == "spike":
            counts[:, draw(st.integers(0, x - 1)), col] = draw(st.integers(1, 3))
    counts[:, draw(st.lists(st.integers(0, x - 1), max_size=2)), :] = 0
    counts[counts.sum(axis=(1, 2)) == 0, 0, 0] = 1
    return counts


class TestCountJoints:
    @settings(max_examples=60, deadline=None)
    @given(count_batches())
    # a min drop exactly at the bound for s = 1, and one just past it for s = 0.5
    # beside a zero column, which ||T|| leaves out
    @example(np.array([[[1, 1]] + [[0, 1]] * 6]))
    @example(np.array([[[1, 0, 0], [0, 1, 0], [0, 1, 0]]]))
    def test_match_the_fraction_joint(self, counts):
        for joint in counts:
            assert repr(conditional_shannon_counts(joint)) == repr(
                conditional_shannon_oracle(exact(joint)))
        for measure in ("renyi2", "min"):
            for s in (0.5, 1, 2, 4):
                masses = violation_mass_counts(counts, measure, s)
                for joint, mass in zip(counts, masses.tolist()):
                    assert Fraction(mass, int(joint.sum())) == violation_mass_oracle(
                        exact(joint), measure, s)

    def test_rejects_bad_input(self):
        ones = np.ones((1, 2, 2), dtype=np.int64)
        for s in (0.0, -1.0, 1.3, math.inf, math.nan):
            with pytest.raises(DomainError):
                violation_mass_counts(ones, "min", s)
        with pytest.raises(DomainError):
            violation_mass_counts(ones, "shannon", 1.0)
        for bad in (np.zeros((1, 2, 2)), -ones):
            with pytest.raises(ValidationError):
                violation_mass_counts(bad, "min", 1.0)
        # (a tot^2)^2 passes 2^63 at a total of 2^8
        wide = np.zeros((1, 2, 2), dtype=np.int64)
        wide[0, 0, 0] = 1 << 8
        assert violation_mass_counts(wide, "min", 1.0).tolist() == [0]
        with pytest.raises(ResourceCapError):
            violation_mass_counts(wide, "renyi2", 1.0)

    def test_large_s_needs_no_wide_terms(self):
        # 2^(2s) far beyond int64 only makes every column pass
        j = np.array([[[1, 5], [0, 5], [0, 5], [0, 5]]])
        assert violation_mass_counts(j, "min", 0.5).tolist() == [1]
        assert violation_mass_counts(j, "min", 40).tolist() == [0]
        assert violation_mass_counts(j, "renyi2", 40).tolist() == [0]


class TestOrderFreedom:
    """Every entropy sum is one math.fsum, so no order of its terms shows."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    def test_count_joint_permutations(self, n_x, n_t, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 1000, size=(n_x, n_t)) * (rng.random((n_x, n_t)) < 0.8)
        counts[0, 0] += 1
        h = conditional_shannon_counts(counts)
        assert conditional_shannon_counts(counts[rng.permutation(n_x)]) == h
        assert conditional_shannon_counts(counts[:, rng.permutation(n_t)]) == h
        assert conditional_shannon_counts(counts[rng.permutation(n_x)][:, rng.permutation(n_t)]) == h

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=300), st.integers(0, 2 ** 32 - 1))
    def test_xlog2x_sum_permutations(self, values, seed):
        rng = np.random.default_rng(seed)
        x = np.array(values)
        w = rng.integers(-5, 6, size=len(x))
        perm = rng.permutation(len(x))
        assert xlog2x_sum(x[perm]) == xlog2x_sum(x)
        assert xlog2x_sum(x[perm], w[perm]) == xlog2x_sum(x, w)
        # chunks fed in turn, and rows, give the sums of the whole
        cuts = np.sort(rng.integers(0, len(x) + 1, size=3))
        assert xlog2x_sum(iter(np.split(x[perm], cuts))) == xlog2x_sum(x)
        assert xlog2x_sum(np.stack([x, x[perm]]), axis=-1).tolist() == [xlog2x_sum(x)] * 2

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=200))
    def test_xlog2x_sum_of_a_histogram_is_near_exact(self, hist):
        # every term h v log2 v (v >= 2) is positive, so the correctly rounded sum
        # carries only the terms' own few-ulp errors
        got = xlog2x_sum(np.arange(len(hist)), np.array(hist))
        with mpmath.workdps(60):
            exact = mpmath.fsum(h * v * mpmath.log(v, 2) for v, h in enumerate(hist) if v > 1)
            assert abs(mpmath.mpf(got) - exact) <= 4 * np.finfo(float).eps * exact

    def test_rows_and_weights(self):
        x = np.array([[0.5, 0.0, 0.25], [1.0, 2.0, 4.0]])
        assert xlog2x_sum(x, axis=-1).tolist() == [-1.0, 10.0]
        assert xlog2x_sum(x, np.array([[2.0, 1.0, 0.0]] * 2), axis=-1).tolist() == [-1.0, 2.0]
        assert xlog2x_sum(np.array([1.0, 2.0, 4.0]), np.array([3, -1, 2])) == 14.0


class TestMutualInformation:
    # the oracle behind brute_force_leakage, checked against its definitions
    def test_independent_is_zero(self):
        assert mutual_information_oracle(exact(INDEPENDENT)) == pytest.approx(0.0, abs=1e-12)

    def test_copy_is_log_m(self):
        copy8 = np.eye(8, dtype=np.int64)
        assert mutual_information_oracle(exact(copy8)) == pytest.approx(3.0, abs=1e-12)

    def test_kl_divergence_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = exact(random_counts(rng, 4, 3))
            px = [sum(row) for row in p]
            pt = [sum(col) for col in zip(*p)]
            kl = sum(float(q) * math.log2(q / (px[i] * pt[k]))
                     for i, row in enumerate(p) for k, q in enumerate(row) if q > 0)
            assert mutual_information_oracle(p) == pytest.approx(kl, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            counts = random_counts(rng, 3, 5)
            assert mutual_information_oracle(exact(counts)) == pytest.approx(
                mutual_information_oracle(exact(counts.T)), abs=1e-9)

    def test_zero_iff_product(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            px, pt = rng.integers(1, 20, size=3), rng.integers(1, 20, size=4)
            assert mutual_information_oracle(exact(np.outer(px, pt))) < 1e-12
        # any visibly non-product joint has positive information
        assert mutual_information_oracle(exact(np.array([[4, 1], [1, 4]]))) > 1e-3


class TestLemmaSweeps:
    def test_floor_sweep_clean(self):
        rep = conditional_entropy_floor_sweep(1500, 8, 8, seed=4)
        assert rep.violations == 0
        assert rep.max_deficit <= 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3000), st.integers(2, 8), st.integers(2, 8), st.integers(0, 2 ** 32),
           st.sampled_from([1e-9, -0.2, -0.5, -1.0]))
    @example(513, 8, 8, 0, -0.5)  # one trial past the first chunk
    @example(2048, 2, 2, 3, -0.2)
    def test_floor_sweep_matches_loop_oracle(self, trials, max_x, max_t, seed, tol):
        # a negative tol counts the deficits above it, so most trials' floats are compared
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entropy, "FLOOR_TOL", tol)
            rep = conditional_entropy_floor_sweep(trials, max_x, max_t, seed=seed)
        assert (rep.violations, rep.max_deficit) == \
            floor_sweep_oracle(trials, max_x, max_t, seed, tol)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(2, 8), st.integers(1, 300), st.integers(0, 2 ** 32))
    def test_floor_deficits_match_loop_oracle(self, n_x, n_t, count, seed):
        joints = np.random.default_rng(seed).exponential(size=(count, n_x, n_t))
        assert floor_deficits(joints).tolist() == [floor_deficit_oracle(j) for j in joints]

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_floor_sweep_chunks_do_not_change_it(self, monkeypatch, chunk):
        monkeypatch.setattr(entropy, "FLOOR_CHUNK_ENTRIES", chunk * 5 * 8)
        for tol in (1e-9, -0.3):
            monkeypatch.setattr(entropy, "FLOOR_TOL", tol)
            rep = conditional_entropy_floor_sweep(300, 5, 8, seed=chunk)
            assert (rep.violations, rep.max_deficit) == floor_sweep_oracle(300, 5, 8, chunk, tol)

    def test_spoiler_expectation_bound(self):
        # E_T[max_x p(x|t)] never exceeds ||T|| * max_x p(x)
        rng = np.random.default_rng(31)
        for _ in range(200):
            p = rng.exponential(size=(int(rng.integers(2, 7)), int(rng.integers(2, 7))))
            p /= p.sum()
            # p(t) max_x p(x|t) is max_x p(x, t)
            lhs = p.max(axis=0).sum()
            rhs = np.count_nonzero(p.sum(axis=0)) * p.sum(axis=1).max()
            assert lhs <= rhs + 1e-12

    def test_grid_sweep_small_clean(self):
        rep = violation_mass_grid_sweep(3, 3, 6, (0.5, 1.0, 2.0, 4.0))
        assert rep.bound_violations_renyi2 == 0
        assert rep.bound_violations_min == 0
        assert rep.joints > 0

    def test_grid_sweep_rejects_uneven_s(self):
        with pytest.raises(DomainError):
            violation_mass_grid_sweep(2, 2, 4, (0.3,))

    def test_sweeps_reject_bad_sizes(self):
        for args in ((1, 3, 4), (3, 1, 4), (2, 2, 0), (2, 2, -1)):
            with pytest.raises(DomainError):
                violation_mass_grid_sweep(*args)
        for args in ((0,), (-5,), (10, 1, 8), (10, 8, 1)):
            with pytest.raises(DomainError):
                conditional_entropy_floor_sweep(*args)
        violation_mass_grid_sweep(2, 2, 1)  # the smallest grid
        with pytest.raises(ResourceCapError):
            violation_mass_grid_sweep(6, 6, 8)

    @pytest.mark.parametrize("n_x, n_t, step", [(1, 1, 3), (2, 3, 4), (3, 3, 0), (2, 4, 5),
                                                (3, 4, 3), (4, 2, 6)])
    def test_grid_joints_are_every_composition(self, monkeypatch, n_x, n_t, step):
        # permuting each representative's columns gives every joint of the grid
        # exactly once, and its weight is its number of distinct orderings
        monkeypatch.setattr(entropy, "GRID_BATCH", 7)
        seen = []
        for joints, orderings in iter_grid_orbits(n_x, n_t, step):
            assert joints.shape[1:] == (n_x, n_t) and len(joints) == len(orderings) <= 7
            assert joints.dtype == orderings.dtype == np.int64
            for joint, weight in zip(joints, orderings.tolist()):
                orbit = {tuple(joint[:, list(p)].ravel().tolist())
                         for p in itertools.permutations(range(n_t))}
                assert weight == len(orbit)
                seen += orbit
        want = np.concatenate(list(iter_grid_joints_oracle(n_x, n_t, step)))
        assert sorted(seen) == sorted(map(tuple, want.reshape(len(want), -1).tolist()))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 4), st.integers(1, 8),
           st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]), min_size=1, max_size=4, unique=True))
    # every grid holds joints with zero-mass columns, which ||T|| leaves out; below
    # a step of n_t every joint has one
    @example(4, 4, 3, [4.0, 0.5])
    @example(3, 4, 1, [1.0])
    @example(2, 2, 8, [0.5, 1.0, 2.0, 4.0])
    def test_grid_sweep_matches_full_grid_oracle(self, max_x, max_t, step, s_values):
        got = violation_mass_grid_sweep(max_x, max_t, step, tuple(s_values))
        assert repr(got) == repr(grid_sweep_oracle(max_x, max_t, step, s_values))

    @pytest.mark.parametrize("grid", [(3, 3, 6), (2, 4, 5)])
    def test_violations_count_every_joint_of_an_orbit(self, monkeypatch, grid):
        # no joint violates the tail bounds, which are theorems; with each joint's
        # largest column mass as its violation mass many do, and an orbit counts once
        # per joint in it
        monkeypatch.setattr(entropy, "_violating_mass",
                            lambda csum, lhs2, rhs2, k: csum.max(axis=1))
        got = violation_mass_grid_sweep(*grid)
        assert got.bound_violations_renyi2 > 0 and got.bound_violations_min > 0
        assert repr(got) == repr(grid_sweep_oracle(*grid, (0.5, 1.0, 2.0, 4.0)))

    def test_grid_sweep_memory(self):
        # the full-grid sweep this replaced peaked at 1.35 MiB here
        violation_mass_grid_sweep(2, 2, 2)
        tracemalloc.start()
        try:
            violation_mass_grid_sweep(4, 4, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.35 * (1 << 20)

    def test_grid_sweep_takes_huge_s(self):
        # 2^(2s) past any integer: only a zero mass is within the bounds, and none
        # is violated
        rep = violation_mass_grid_sweep(2, 2, 4, (1e300,))
        assert (rep.joints, rep.bound_violations_renyi2, rep.bound_violations_min,
                rep.max_mass_renyi2, rep.max_mass_min) == (35, 0, 0, 0.0, 0.0)

    def test_grid_sweep_does_not_depend_on_the_batch(self, monkeypatch):
        # both max masses are nonzero here
        want = violation_mass_grid_sweep(3, 3, 6)
        monkeypatch.setattr(entropy, "GRID_BATCH", 5)
        got = violation_mass_grid_sweep(3, 3, 6)
        assert repr(got) == repr(want)
        assert want.max_mass_renyi2 > 0 and want.max_mass_min > 0
        assert type(want.max_mass_renyi2) is float
