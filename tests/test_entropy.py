import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import floor_deficit_oracle, floor_sweep_oracle, grid_joint_from_counts
from latsec import entropy
from latsec.entropy import (DiscreteDistribution, JointDistribution,
                            conditional_entropy_floor_sweep, conditional_shannon,
                            conditional_shannon_counts, conditional_slice,
                            floor_deficits, iter_grid_joints, min_entropy, mutual_information,
                            renyi2_entropy, shannon_entropy,
                            side_info_violation_mass, violation_mass_counts,
                            violation_mass_grid_sweep)
from latsec.errors import DomainError, ResourceCapError, ValidationError


def uniform(n):
    return DiscreteDistribution(tuple(range(n)), tuple(1 / n for _ in range(n)))


def random_joint(rng, nx, nt):
    p = rng.exponential(size=(nx, nt))
    p /= p.sum()
    return JointDistribution(tuple(range(nx)), tuple(range(nt)),
                             tuple(tuple(row) for row in p))


def independent_joint(px, pt):
    rows = tuple(tuple(a * b for b in pt) for a in px)
    return JointDistribution(tuple(range(len(px))), tuple(range(len(pt))), rows)


def copy_joint(n):
    rows = tuple(tuple(1 / n if i == j else 0.0 for j in range(n)) for i in range(n))
    return JointDistribution(tuple(range(n)), tuple(range(n)), rows)


class TestValidation:
    def test_negative_mass_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution((0, 1), (-0.1, 1.1))

    def test_bad_total_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution((0, 1), (0.6, 0.5))

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution(("a", "a"), (0.5, 0.5))

    def test_joint_shape_mismatch(self):
        with pytest.raises(ValidationError):
            JointDistribution((0, 1), (0, 1), ((0.5, 0.5),))


class TestMeasures:
    def test_shannon_uniform_four(self):
        assert shannon_entropy(uniform(4)) == pytest.approx(2.0, abs=1e-12)

    def test_shannon_point_mass(self):
        d = DiscreteDistribution((0, 1), (1.0, 0.0))
        assert shannon_entropy(d) == 0.0

    def test_shannon_half_quarter_quarter(self):
        probs = (0.5, 0.25, 0.25)
        oracle = -sum(p * math.log2(p) for p in probs)  # direct summation
        d = DiscreteDistribution((0, 1, 2), probs)
        assert oracle == pytest.approx(1.5, abs=1e-12)
        assert shannon_entropy(d) == pytest.approx(oracle, abs=1e-12)

    def test_renyi2_uniform(self):
        for n in (2, 5, 8):
            assert renyi2_entropy(uniform(n)) == pytest.approx(math.log2(n), abs=1e-12)

    def test_renyi2_three_quarters(self):
        probs = (0.75, 0.25)
        oracle = -math.log2(sum(p * p for p in probs))  # direct summation
        assert oracle == pytest.approx(-math.log2(10 / 16), abs=1e-12)
        d = DiscreteDistribution((0, 1), probs)
        assert renyi2_entropy(d) == pytest.approx(oracle, abs=1e-12)

    def test_min_entropy_examples(self):
        assert min_entropy(uniform(8)) == pytest.approx(3.0, abs=1e-12)
        point = DiscreteDistribution((0, 1), (1.0, 0.0))
        assert min_entropy(point) == 0.0
        d = DiscreteDistribution((0, 1), (0.75, 0.25))
        assert min_entropy(d) == pytest.approx(math.log2(4 / 3), abs=1e-12)

    def test_measure_ordering(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            p = rng.exponential(size=n)
            p /= p.sum()
            d = DiscreteDistribution(tuple(range(n)), tuple(p))
            h, h2, hm = shannon_entropy(d), renyi2_entropy(d), min_entropy(d)
            assert hm <= h2 + 1e-9
            assert h2 <= h + 1e-9


class TestConditional:
    def test_independent_keeps_entropy(self):
        j = independent_joint((0.5, 0.3, 0.2), (0.25, 0.75))
        assert conditional_shannon(j) == pytest.approx(
            shannon_entropy(j.marginal_x()), abs=1e-12)

    def test_copy_is_deterministic(self):
        assert conditional_shannon(copy_joint(4)) == pytest.approx(0.0, abs=1e-12)

    def test_chain_rule_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            j = random_joint(rng, 3, 3)
            flat = [p for row in j.probs for p in row]
            h_joint = -sum(p * math.log2(p) for p in flat if p > 0)
            h_t = shannon_entropy(j.marginal_t())
            assert conditional_shannon(j) == pytest.approx(h_joint - h_t, abs=1e-9)

    def test_slice_independent(self):
        j = independent_joint((0.5, 0.5), (0.25, 0.75))
        for t in (0, 1):
            for m in ("shannon", "renyi2", "min"):
                d = j.marginal_x()
                expected = {"shannon": shannon_entropy, "renyi2": renyi2_entropy,
                            "min": min_entropy}[m](d)
                assert conditional_slice(j, t, m) == pytest.approx(expected, abs=1e-12)

    def test_slice_copy(self):
        j = copy_joint(3)
        for t in range(3):
            assert conditional_slice(j, t, "shannon") == 0.0

    def test_slice_hand_normalized_column(self):
        # 4x2 joint; column t=0 is (0.1, 0.2, 0.3, 0.0) before normalizing
        rows = ((0.1, 0.05), (0.2, 0.05), (0.3, 0.1), (0.0, 0.2))
        j = JointDistribution((0, 1, 2, 3), (0, 1), rows)
        col = [0.1, 0.2, 0.3, 0.0]
        norm = [c / 0.6 for c in col]
        oracle = -sum(p * math.log2(p) for p in norm if p > 0)
        assert conditional_slice(j, 0, "shannon") == pytest.approx(oracle, abs=1e-12)
        oracle2 = -math.log2(sum(p * p for p in norm))
        assert conditional_slice(j, 0, "renyi2") == pytest.approx(oracle2, abs=1e-12)
        assert conditional_slice(j, 0, "min") == pytest.approx(
            -math.log2(max(norm)), abs=1e-12)

    def test_zero_mass_slice_rejected(self):
        rows = ((0.5, 0.0), (0.5, 0.0))
        j = JointDistribution((0, 1), (0, 1), rows)
        with pytest.raises(DomainError):
            conditional_slice(j, 1, "shannon")


class TestViolationMass:
    def test_independent_joint_never_violates(self):
        j = independent_joint((0.5, 0.3, 0.2), (0.25, 0.75))
        for s in (0.5, 1, 2, 4):
            assert side_info_violation_mass(j, "renyi2", s) == 0
            assert side_info_violation_mass(j, "min", s) == 0

    def test_copy_joint_at_s_log_m(self):
        m = 4
        rows = tuple(tuple(Fraction(1, m) if i == j else Fraction(0)
                           for j in range(m)) for i in range(m))
        j = JointDistribution(tuple(range(m)), tuple(range(m)), rows)
        # the drop equals log2 m = log2||T|| exactly, strictly below the s margin
        assert side_info_violation_mass(j, "renyi2", math.log2(m)) == 0
        assert side_info_violation_mass(j, "min", math.log2(m)) == 0

    def test_invalid_s_rejected(self):
        j = copy_joint(2)
        with pytest.raises(DomainError):
            side_info_violation_mass(j, "min", 0.0)
        with pytest.raises(DomainError):
            side_info_violation_mass(j, "shannon", 1.0)

    def test_exact_mode_matches_grid_sweep_arithmetic(self):
        # sample grid joints and cross-check the Fraction path against the
        # integer comparisons used by the exhaustive sweep
        picked = np.concatenate(list(iter_grid_joints(3, 3, 8)))[::997]
        assert len(picked) == 13
        for counts in picked:
            j = grid_joint_from_counts(counts, 3, 3, 8)
            for s in (0.5, 1.0, 2.0, 4.0):
                mass_r = side_info_violation_mass(j, "renyi2", s)
                mass_m = side_info_violation_mass(j, "min", s)
                assert isinstance(mass_r, Fraction)
                assert Fraction(int(violation_mass_counts(counts[None], "renyi2", s)[0]),
                                8) == mass_r
                assert Fraction(int(violation_mass_counts(counts[None], "min", s)[0]),
                                8) == mass_m
                assert float(mass_r) <= 2 ** (1 - s / 2) + 1e-15
                assert float(mass_m) <= 2 ** (-s) + 1e-15

    def test_tail_bounds_on_random_joints(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            for s in (0.5, 1, 2, 4):
                assert side_info_violation_mass(j, "renyi2", s) <= 2 ** (1 - s / 2) + 1e-12
                assert side_info_violation_mass(j, "min", s) <= 2 ** (-s) + 1e-12


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
            j = grid_joint_from_counts(joint, *joint.shape, int(joint.sum()))
            assert repr(conditional_shannon_counts(joint)) == repr(conditional_shannon(j))
        for measure in ("renyi2", "min"):
            for s in (0.5, 1, 2, 4):
                masses = violation_mass_counts(counts, measure, s)
                for joint, mass in zip(counts, masses.tolist()):
                    j = grid_joint_from_counts(joint, *joint.shape, int(joint.sum()))
                    assert Fraction(mass, int(joint.sum())) == side_info_violation_mass(
                        j, measure, s)

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


class TestMutualInformation:
    def test_independent_is_zero(self):
        j = independent_joint((0.5, 0.3, 0.2), (0.25, 0.75))
        assert mutual_information(j) == pytest.approx(0.0, abs=1e-12)

    def test_copy_is_log_m(self):
        assert mutual_information(copy_joint(8)) == pytest.approx(3.0, abs=1e-12)

    def test_kl_divergence_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            j = random_joint(rng, 4, 3)
            px = j.x_masses()
            pt = j.t_masses()
            kl = 0.0
            for i, row in enumerate(j.probs):
                for k, p in enumerate(row):
                    if p > 0:
                        kl += p * math.log2(p / (px[i] * pt[k]))
            assert mutual_information(j) == pytest.approx(kl, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            j = random_joint(rng, 3, 5)
            assert mutual_information(j) == pytest.approx(
                mutual_information(j.transpose()), abs=1e-9)

    def test_zero_iff_product(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            px = rng.exponential(size=3)
            px /= px.sum()
            pt = rng.exponential(size=4)
            pt /= pt.sum()
            assert mutual_information(independent_joint(tuple(px), tuple(pt))) < 1e-12
        # any visibly non-product joint has positive information
        j = JointDistribution((0, 1), (0, 1), ((0.4, 0.1), (0.1, 0.4)))
        assert mutual_information(j) > 1e-3


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
        rep = conditional_entropy_floor_sweep(trials, max_x, max_t, seed=seed, tol=tol)
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
            rep = conditional_entropy_floor_sweep(300, 5, 8, seed=chunk, tol=tol)
            assert (rep.violations, rep.max_deficit) == floor_sweep_oracle(300, 5, 8, chunk, tol)

    def test_spoiler_expectation_bound(self):
        # E_T[max_x p(x|t)] never exceeds ||T|| * max_x p(x)
        rng = np.random.default_rng(31)
        for _ in range(200):
            j = random_joint(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            px = j.x_masses()
            lhs = 0.0
            for t, mass in zip(j.t_support, j.t_masses()):
                if mass > 0:
                    lhs += mass * max(j.conditional_x_given_t(t).probs)
            rhs = j.realized_t_count() * max(px)
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

    @pytest.mark.parametrize("n_x, n_t, step", [(1, 1, 3), (2, 3, 4), (3, 3, 0)])
    def test_grid_joints_are_every_composition(self, monkeypatch, n_x, n_t, step):
        monkeypatch.setattr(entropy, "GRID_BATCH", 7)
        joints = np.concatenate(list(iter_grid_joints(n_x, n_t, step)))
        assert joints.shape[1:] == (n_x, n_t)
        want = [c for c in itertools.product(range(step + 1), repeat=n_x * n_t)
                if sum(c) == step]
        assert sorted(map(tuple, joints.reshape(len(joints), -1).tolist())) == want

    def test_grid_sweep_does_not_depend_on_the_batch(self, monkeypatch):
        # both max masses are nonzero here
        want = violation_mass_grid_sweep(3, 3, 6)
        monkeypatch.setattr(entropy, "GRID_BATCH", 5)
        got = violation_mass_grid_sweep(3, 3, 6)
        assert repr(dataclasses.replace(got, elapsed_s=0.0)) == repr(
            dataclasses.replace(want, elapsed_s=0.0))
        assert want.max_mass_renyi2 > 0 and want.max_mass_min > 0
        assert type(want.max_mass_renyi2) is float
