import decimal
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import nearest_coarse_point_oracle, sum_secrecy_oracle
from latsec import lattice
from latsec.channel import LayeredCodebook
from latsec.errors import DomainError, ResourceCapError, ValidationError
from latsec.lattice import (NestedLatticePair, RepresentationIndex, ScaledLattice,
                            dithered_sum_secrecy_report, grid_label, label_grid,
                            reconstruct_sum, reduce_carry, representation_index)


def codebook(pair):
    """All m^N codebook points of a pair, in label (lexicographic) order."""
    return label_grid(pair, np.arange(pair.codebook_size))[1]


def mod_coarse(x, pair):
    """x reduced into the coarse fundamental box [-c/2, c/2)^N."""
    return reduce_carry(np.asarray(x, dtype=float), pair.coarse_scale)[0]


def in_codebook(x, pair):
    try:
        grid_label(pair, x)
    except DomainError:
        return False
    return True


class TestModCoarse:
    def test_zero_fixed(self):
        pair = NestedLatticePair(3, 4.0, 2)
        assert np.allclose(mod_coarse([0.0, 0.0, 0.0], pair), 0.0)

    def test_scan_oracle_scalar(self):
        # nearest multiple of 4 to 5 is 4, so the residual is 1 (inside [-2, 2))
        pair = NestedLatticePair(1, 4.0, 2)
        assert nearest_coarse_point_oracle(5.0, 4.0) == 1.0
        assert mod_coarse([5.0], pair)[0] == pytest.approx(1.0, abs=1e-12)

    def test_scan_oracle_random(self):
        rng = np.random.default_rng(2)
        pair = NestedLatticePair(1, 3.0, 2)
        for _ in range(300):
            x = float(rng.uniform(-20, 20))
            assert mod_coarse([x], pair)[0] == pytest.approx(
                nearest_coarse_point_oracle(x, 3.0), abs=1e-9)

    def test_interior_point_unchanged(self):
        pair = NestedLatticePair(2, 4.0, 2)
        x = np.array([1.9, -2.0])
        assert np.allclose(mod_coarse(x, pair), x)

    def test_half_open_boundary(self):
        pair = NestedLatticePair(1, 4.0, 2)
        assert mod_coarse([2.0], pair)[0] == pytest.approx(-2.0, abs=1e-12)
        assert mod_coarse([-2.0], pair)[0] == pytest.approx(-2.0, abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        pair = NestedLatticePair(3, 2.5, 2)
        for _ in range(100):
            x = rng.uniform(-10, 10, size=3)
            once = mod_coarse(x, pair)
            assert np.allclose(mod_coarse(once, pair), once, atol=1e-12)

    def test_difference_is_lattice_point(self):
        pair = NestedLatticePair(2, 1.5, 2)
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = rng.uniform(-9, 9, size=2)
            k = (x - mod_coarse(x, pair)) / 1.5
            assert np.allclose(k, np.round(k), atol=1e-9)


def test_reduce_carry_matches_scan_oracle():
    rng = np.random.default_rng(5)
    for c in (1.0, 0.75, 4.0, 0.7, 0.1):
        v = np.concatenate([c * (rng.random(200) * 8 - 4), c * np.arange(-4.5, 5.0, 0.5)])
        w, z = reduce_carry(v, c)
        want = np.array([nearest_coarse_point_oracle(x, c) for x in v])
        assert z.dtype.kind == "i" and np.allclose(w + c * z, v, rtol=0, atol=1e-12)
        if c in (1.0, 0.75, 4.0):  # exact in binary, so the faces c/2 + k c are exact too
            assert w.tolist() == want.tolist()
            continue
        # otherwise a value within round-off of a face may land on either face
        face = np.abs(np.abs(want) - c / 2) <= 1e-12
        assert np.allclose(w[~face], want[~face], rtol=0, atol=1e-12)
        assert np.all(np.abs(np.abs(w[face]) - c / 2) <= 1e-12)


class TestCodebook:
    def test_one_dim_m2(self):
        pair = NestedLatticePair(1, 2.0, 2)
        assert [p[0] for p in codebook(pair)] == [-1.0, 0.0]

    def test_one_dim_m3(self):
        pair = NestedLatticePair(1, 3.0, 3)
        assert [p[0] for p in codebook(pair)] == [-1.0, 0.0, 1.0]

    def test_count_and_membership(self):
        pair = NestedLatticePair(2, 4.0, 2)
        pts = codebook(pair)
        assert len(pts) == 4
        for p in pts:
            assert in_codebook(p, pair)
            assert ScaledLattice(2, 4.0).contains_in_region(p)

    def test_lexicographic_order(self):
        pair = NestedLatticePair(2, 3.0, 3)
        pts = [tuple(p) for p in codebook(pair)]
        assert pts == sorted(pts)

    def test_cap(self):
        # the default enumeration cap refuses the 4^8-point codebook's pairs
        pair = NestedLatticePair(8, 2.0, 4)
        with pytest.raises(ResourceCapError):
            dithered_sum_secrecy_report(pair, np.zeros(8), np.zeros(8))

    def test_labels_count_the_product_grid(self):
        # label order is itertools.product order over the coordinates
        pair = NestedLatticePair(3, 0.7, 3)
        values = pair.coordinate_values()
        want = np.array(list(itertools.product(values, repeat=3)))
        digits, points = label_grid(pair, np.arange(len(want)))
        assert np.array_equal(points, want)
        assert np.array_equal(values[digits], points)
        assert [grid_label(pair, p) for p in points] == list(range(len(want)))
        for bad in ([0.0, 0.0, 0.1], [0.0, 0.0, 0.35], [0.0, 0.0], [np.inf, 0.0, 0.0]):
            with pytest.raises(DomainError):
                grid_label(pair, bad)

    def test_validation(self):
        with pytest.raises(ValidationError):
            NestedLatticePair(0, 2.0, 2)
        for scale in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(ValidationError):
                NestedLatticePair(1, scale, 2)
        with pytest.raises(ValidationError):
            NestedLatticePair(1, 2.0, 1)


class TestGroupLaw:
    # the codebook is a group under addition mod c*Z^N
    def test_identity_and_inverse(self):
        pair = NestedLatticePair(1, 4.0, 4)
        zero = np.zeros(1)
        for u in codebook(pair):
            assert np.allclose(mod_coarse(u + zero, pair), u)
            inverse_found = any(
                np.allclose(mod_coarse(u + v, pair), zero, atol=1e-9)
                for v in codebook(pair))
            assert inverse_found

    def test_wraparound_example(self):
        pair = NestedLatticePair(1, 4.0, 4)
        assert mod_coarse([1.0 + 1.0], pair)[0] == pytest.approx(-2.0, abs=1e-12)

    def test_closure_and_associativity(self):
        pair = NestedLatticePair(2, 2.0, 2)
        book = codebook(pair)
        for x, y in itertools.product(book, repeat=2):
            assert in_codebook(mod_coarse(x + y, pair), pair)
        for x, y, z in itertools.islice(itertools.product(book, repeat=3), 64):
            left = mod_coarse(mod_coarse(x + y, pair) + z, pair)
            right = mod_coarse(x + mod_coarse(y + z, pair), pair)
            assert np.allclose(left, right, atol=1e-9)

    def test_non_member_rejected(self):
        pair = NestedLatticePair(1, 4.0, 2)
        with pytest.raises(DomainError):
            grid_label(pair, [0.5])


class TestDither:
    def test_zero_dither_identity(self):
        pair = NestedLatticePair(2, 4.0, 4)
        assert pair.dither_shifts(np.zeros(2)).tolist() == [0, 0]
        for u in codebook(pair)[:5]:
            assert np.allclose(mod_coarse(u + np.zeros(2), pair), u)

    def test_zero_point(self):
        pair = NestedLatticePair(1, 4.0, 2)
        assert mod_coarse(np.zeros(1) + [3.1], pair)[0] == pytest.approx(
            nearest_coarse_point_oracle(3.1, 4.0), abs=1e-12)

    def test_uniform_pushforward_stays_uniform(self):
        pair = NestedLatticePair(1, 4.0, 4)
        d = np.array([0.7])
        images = {round(float(mod_coarse(u + d, pair)[0]), 9) for u in codebook(pair)}
        assert len(images) == 4  # bijection onto the shifted grid


class TestRepresentation:
    def test_single_point_is_its_own_sum(self):
        lat = ScaledLattice(2, 2.0)
        idx, w = representation_index([[0.3, -0.9]], lat)
        assert idx.T == 1
        assert np.allclose(reconstruct_sum(idx, w, lat), [0.3, -0.9])

    def test_worked_pair_example(self):
        # two points 0.9 in [-1, 1): sum 1.8 reduces to -0.2 with carry 2,
        # the second of the two candidates {0, 2} for that residual
        lat = ScaledLattice(1, 2.0)
        idx, w = representation_index([[0.9], [0.9]], lat)
        assert w[0] == pytest.approx(-0.2, abs=1e-12)
        assert idx.T == 2
        assert reconstruct_sum(idx, w, lat)[0] == pytest.approx(1.8, abs=1e-12)

    def test_exhaustive_round_trip(self):
        for dim in (1, 2):
            for k in (1, 2, 3):
                for m in (2, 3):
                    lat = ScaledLattice(dim, 1.0)
                    grid_1d = [-0.5 + j / m for j in range(m)]
                    pts = [np.array(p) for p in itertools.product(grid_1d, repeat=dim)]
                    for combo in itertools.islice(
                            itertools.product(pts, repeat=k), 200):
                        idx, w = representation_index(list(combo), lat)
                        assert 1 <= idx.T <= k ** dim
                        total = np.sum(combo, axis=0)
                        assert np.allclose(reconstruct_sum(idx, w, lat), total,
                                           atol=1e-9)

    def test_spacing_must_be_finite_and_positive(self):
        # an infinite spacing used to be accepted, and representation_index
        # then warned on inf * 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spacing in (-1.0, 0.0, np.inf, np.nan):
                with pytest.raises(ValidationError):
                    representation_index([[0.3], [0.2]], ScaledLattice(1, spacing))

    def test_point_outside_region_rejected(self):
        lat = ScaledLattice(1, 2.0)
        with pytest.raises(DomainError):
            representation_index([[1.0]], lat)  # 1.0 is excluded by half-openness

    def test_bad_index_rejected(self):
        with pytest.raises(DomainError):
            RepresentationIndex(5, 2, 2)
        with pytest.raises(DomainError):
            RepresentationIndex(0, 2, 1)


class TestRate:
    def test_examples(self):
        # bits per channel use: (1/N) log2 m^N = log2 m
        for dim, m, bits in ((1, 2, 1), (1, 8, 3), (2, 4, 2)):
            cb = LayeredCodebook(NestedLatticePair(dim, float(m), m))
            assert cb.n0_bits / cb.block_dim == bits == math.log2(m)


class TestMaskedSumUniformity:
    def test_masked_sum_uniform_and_independent(self):
        pair = NestedLatticePair(1, 4.0, 4)
        book = codebook(pair)
        for u1 in book:
            images = [tuple(np.round(mod_coarse(u1 + u2, pair), 9)) for u2 in book]
            assert len(set(images)) == len(book)  # uniform for every u1


@st.composite
def audit_cases(draw):
    """A pair with at most 64 codewords, zero or uniform random dithers on
    [-1.5c, 1.5c), a sign, s and a measure."""
    m = draw(st.sampled_from([2, 3, 4, 5, 8]))
    n = draw(st.integers(1, max(k for k in (1, 2, 3) if m ** k <= 64)))
    c = draw(st.sampled_from([float(m), 1.0, 0.7]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d1, d2 = (rng.uniform(-1.5 * c, 1.5 * c, n) if draw(st.booleans()) else np.zeros(n)
              for _ in range(2))
    return (NestedLatticePair(n, c, m), d1, d2, draw(st.sampled_from("+-")),
            draw(st.sampled_from([0.5, 1.0, 2.0])),
            draw(st.sampled_from(["shannon", "renyi2", "min"])))


class TestSumSecrecyReport:
    def test_shannon_small(self):
        pair = NestedLatticePair(1, 2.0, 2)
        rep = dithered_sum_secrecy_report(pair, [0.0], [0.0], "+", 2.0, "shannon")
        assert rep.passed
        assert rep.shannon_gap <= 1.0 + 1e-9
        assert rep.masked_independent
        assert rep.max_carry_labels <= 2

    def test_tail_measures_with_random_dithers(self):
        pair = NestedLatticePair(1, 4.0, 4)
        rng = np.random.default_rng(11)
        d1 = 4 * rng.random(1) - 2
        d2 = 4 * rng.random(1) - 2
        rep_r = dithered_sum_secrecy_report(pair, d1, d2, "-", 2.0, "renyi2")
        assert rep_r.passed
        assert rep_r.violation_bound == pytest.approx(1.0)
        rep_m = dithered_sum_secrecy_report(pair, d1, d2, "-", 2.0, "min")
        assert rep_m.passed
        assert rep_m.violation_bound == pytest.approx(0.25)
        assert rep_m.max_slice_violation_mass <= 0.25 + 1e-12

    def test_two_dim_gap_bound(self):
        pair = NestedLatticePair(2, 4.0, 2)
        rep = dithered_sum_secrecy_report(pair, [0.2, -0.4], [1.1, 0.3], "+",
                                          1.0, "shannon")
        assert rep.passed
        assert rep.shannon_gap <= 2.0 + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(audit_cases())
    @example((NestedLatticePair(2, 0.7, 4), np.array([0.293406050579305, 0.5077189894598999]),
              np.array([-0.857859229367604, 0.08640202489062632]), "-", 1.0, "shannon"))
    def test_matches_enumeration_oracle(self, case):
        assert repr(dithered_sum_secrecy_report(*case)) == repr(sum_secrecy_oracle(*case))

    @pytest.mark.parametrize("n, m", [(1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (1, 8)])
    @settings(max_examples=15, deadline=None)
    @given(sign=st.sampled_from("+-"), c=st.sampled_from([1.0, 0.7, 3.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_shannon_gap_is_one_value(self, n, m, sign, c, seed):
        # the gap is n (log2 m - sum_sigma W/m^2 log2 W), W = min(sigma + 1, 2m - 1 - sigma)
        # labels in the window of sum sigma: no dither or sign changes its terms
        pair = NestedLatticePair(n, c, m)
        d1, d2 = np.random.default_rng(seed).uniform(-1.5 * c, 1.5 * c, (2, n))
        gap = dithered_sum_secrecy_report(pair, d1, d2, sign, 1.0, "shannon").shannon_gap

        def log2(w):
            return decimal.Decimal(w).ln() / decimal.Decimal(2).ln()

        with decimal.localcontext() as ctx:
            ctx.prec = 60
            windows = [min(sigma + 1, 2 * m - 1 - sigma) for sigma in range(2 * m - 1)]
            exact = n * (log2(m) - sum(decimal.Decimal(w) / (m * m) * log2(w) for w in windows))
            assert abs(decimal.Decimal(gap) - exact) <= 2 * decimal.Decimal(math.ulp(gap))
        zero = dithered_sum_secrecy_report(NestedLatticePair(n, 1.0, m), np.zeros(n),
                                           np.zeros(n), "+", 1.0, "shannon")
        assert gap == zero.shannon_gap

    @pytest.mark.parametrize("m, k1, k2, sign", [(4, [0], [-4], "+"), (5, [-5], [-10], "+"),
                                                 (3, [-4, 0], [-3, -3], "+"),
                                                 (4, [-6, -4], [6, 8], "-")])
    def test_sums_on_the_faces(self, m, k1, k2, sign):
        # dithers k c / 2m at c = 0.1 put whole residual classes within round-off
        # of the faces +-c/2; counted as integer sums, the mask stays uniform and the
        # figures are those of the same dithers at c = m, where every sum is exact
        def report(c, count):
            pair = NestedLatticePair(len(k1), c, m)
            return count(pair, np.array(k1) * c / (2 * m), np.array(k2) * c / (2 * m),
                         sign, 1.0, "min")
        got = report(0.1, dithered_sum_secrecy_report)
        want = report(float(m), sum_secrecy_oracle)
        assert got.masked_independent and got.passed
        assert got.shannon_gap == pytest.approx(want.shannon_gap, abs=1e-12)
        assert got.max_slice_violation_mass == want.max_slice_violation_mass
        assert got.joint_violation_mass == want.joint_violation_mass
        assert got.max_carry_labels == want.max_carry_labels

    @pytest.mark.parametrize("measure", ["renyi2", "min"])
    def test_blocks_of_slices_change_nothing(self, monkeypatch, measure):
        # nine slices of 9 x 4 cells, two per block and one in the last; their
        # masses differ (max 1/9, joint 4/81)
        pair = NestedLatticePair(2, 0.7, 3)
        rng = np.random.default_rng(5)
        d1, d2 = 0.7 * rng.random(2) - 0.35, 0.7 * rng.random(2) - 0.35
        want = sum_secrecy_oracle(pair, d1, d2, "-", 1.0, measure)
        monkeypatch.setattr(lattice, "AUDIT_BLOCK", 80)
        assert repr(dithered_sum_secrecy_report(pair, d1, d2, "-", 1.0, measure)) == repr(want)
        assert want.joint_violation_mass < want.max_slice_violation_mass

    def test_bad_arguments(self, monkeypatch):
        pair = NestedLatticePair(1, 2.0, 2)
        with pytest.raises(DomainError):
            dithered_sum_secrecy_report(pair, [0.0], [0.0], "*", 1.0, "shannon")
        with pytest.raises(DomainError):
            dithered_sum_secrecy_report(pair, [0.0], [0.0], "+", 1.0, "nope")
        for measure in ("renyi2", "min"):  # the exact drop test needs 2s integral
            with pytest.raises(DomainError):
                dithered_sum_secrecy_report(pair, [0.0], [0.0], "+", 1.3, measure)
        monkeypatch.setattr(lattice, "DEFAULT_ENUM_CAP", 100)
        with pytest.raises(ResourceCapError):
            dithered_sum_secrecy_report(NestedLatticePair(4, 2.0, 4),
                                        np.zeros(4), np.zeros(4), "+", 1.0, "shannon")
