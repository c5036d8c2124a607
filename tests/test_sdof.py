import math

import mpmath
import pytest

from latsec.errors import DomainError, ResourceCapError
from latsec.sdof import (SDOF_WORK_CAP, alpha_of, beta_of, decompose_gain, sdof_landscape,
                         sdof_of)

mpmath.mp.dps = 50


def alpha_oracle(gamma):
    g = mpmath.mpf(str(gamma))
    return (1 - 2 * g ** 2 + mpmath.sqrt(1 - 4 * g ** 2)) / (2 * g ** 4)


def sdof_oracle(p, q, gamma):
    g = mpmath.mpf(str(gamma))
    alpha = alpha_oracle(g)
    beta = q * q + (p + g) ** 2
    numer = mpmath.mpf("0.25") * mpmath.log(alpha, 2) - 1
    denom = mpmath.mpf("0.5") * mpmath.log(alpha * beta + 1, 2)
    return max(mpmath.mpf(0), numer / denom)


class TestDecomposition:
    def test_simple_gain(self):
        dec = decompose_gain(1.1, 1)
        assert (dec.p, dec.q) == (1, 1)
        assert dec.gamma == pytest.approx(0.1, abs=1e-12)

    def test_exact_rational_flagged(self):
        # 2.5 = 5/2 exactly (gamma 0) and q=1 only offers the excluded 0.5 boundary
        assert decompose_gain(2.5, 2) is None

    def test_remainder_always_proper(self):
        import numpy as np
        rng = np.random.default_rng(14)
        for _ in range(300):
            gain = float(rng.uniform(0.05, 6.0))
            dec = decompose_gain(gain, 7)
            if dec is not None:
                assert abs(dec.q * gain - dec.p) == pytest.approx(abs(dec.gamma), abs=1e-9)
                assert 0 < abs(dec.gamma) < 0.5
                assert dec.p >= 1 and 1 <= dec.q <= 7

    def test_minimizes_gamma_with_smallest_q_tie_break(self):
        import numpy as np
        rng = np.random.default_rng(15)
        for _ in range(100):
            gain = float(rng.uniform(0.3, 4.0))
            q_max = 5
            dec = decompose_gain(gain, q_max)
            # enumeration oracle over every q
            best = None
            for q in range(1, q_max + 1):
                p = max(1, math.floor(q * gain + 0.5))
                gamma = q * gain - p
                if 0 < abs(gamma) < 0.5:
                    if best is None or abs(gamma) < abs(best[2]) - 1e-15:
                        best = (p, q, gamma)
            if best is None:
                assert dec is None
            else:
                assert abs(dec.gamma) <= abs(best[2]) + 1e-15

    def test_input_guards(self):
        with pytest.raises(DomainError):
            decompose_gain(0.0, 3)
        with pytest.raises(DomainError):
            decompose_gain(1.0, 0)
        # q * sqrt(ab) would overflow to inf
        with pytest.raises(DomainError, match="overflows"):
            decompose_gain(1e308, 2)
        assert decompose_gain(1e307, 2) is None


class TestAlpha:
    def test_worked_value(self):
        assert alpha_of(0.1) == pytest.approx(float(alpha_oracle("0.1")), rel=1e-12)
        assert alpha_of(0.1) == pytest.approx(9798.9794855663558, rel=1e-9)

    def test_limit_toward_half(self):
        # alpha decreases to 4 as |gamma| grows to 0.5
        values = [alpha_of(g) for g in (0.4, 0.45, 0.49, 0.499, 0.4999999)]
        for lo, hi in zip(values[1:], values):
            assert lo < hi
        assert values[-1] == pytest.approx(4.0, abs=0.01)
        assert values[-1] > 4.0

    def test_monotone_in_magnitude(self):
        assert alpha_of(0.1) > alpha_of(0.2) > alpha_of(0.3)
        assert alpha_of(-0.2) == alpha_of(0.2)

    def test_domain(self):
        for bad in (0.0, 0.5, -0.5, 0.7):
            with pytest.raises(DomainError):
                alpha_of(bad)

    def test_algebraic_identity(self):
        # 2 alpha gamma^4 = 1 - 2 gamma^2 + sqrt(1 - 4 gamma^2) on the domain
        for g in (0.05, 0.15, 0.25, 0.35, 0.45):
            lhs = 2 * alpha_of(g) * g ** 4
            rhs = 1 - 2 * g * g + math.sqrt(1 - 4 * g * g)
            assert lhs == pytest.approx(rhs, rel=1e-12)
            assert 0 < lhs <= 2


class TestBeta:
    def test_worked_value(self):
        assert beta_of(1, 1, 0.1) == pytest.approx(2.21, abs=1e-12)

    def test_zero_remainder_limit(self):
        assert beta_of(1, 1, 1e-12) == pytest.approx(2.0, abs=1e-9)

    def test_lower_bound(self):
        for p, q, g in ((1, 1, 0.3), (3, 2, -0.4), (7, 5, 0.1)):
            assert beta_of(p, q, g) >= q * q

    def test_guards(self):
        with pytest.raises(DomainError):
            beta_of(0, 1, 0.1)


class TestSdof:
    def test_clamp_boundary_alpha_16(self):
        assert sdof_of(16.0, 5.0) == 0.0

    def test_negative_numerator_clamped(self):
        assert sdof_of(4.0, 2.0) == 0.0

    def test_worked_composition(self):
        value = sdof_of(alpha_of(0.1), beta_of(1, 1, 0.1))
        assert value == pytest.approx(float(sdof_oracle(1, 1, "0.1")), abs=1e-9)
        assert value == pytest.approx(0.3214, abs=1e-3)

    def test_range(self):
        import numpy as np
        rng = np.random.default_rng(5)
        for _ in range(200):
            g = float(rng.uniform(0.01, 0.49))
            p = int(rng.integers(1, 9))
            q = int(rng.integers(1, 9))
            val = sdof_of(alpha_of(g), beta_of(p, q, g))
            assert 0.0 <= val < 1.0

    def test_guards(self):
        with pytest.raises(DomainError):
            sdof_of(-1.0, 2.0)


class TestLandscape:
    def test_rows_compose(self):
        points = sdof_landscape([1.1, 2.5, 1.41421356], q_max=3)
        by_gain = {round(p.sqrt_ab, 6): p for p in points}
        row = by_gain[1.1]
        assert row.sdof == pytest.approx(
            sdof_of(alpha_of(row.gamma), beta_of(row.p, row.q, row.gamma)))
        assert 0 <= row.sdof < 1

    def test_work_cap(self):
        # refused before any gain is decomposed; the README's 201 x 10 grid is far below
        for gains, q_max in (([1.5], SDOF_WORK_CAP + 1), ([1.5] * 3, SDOF_WORK_CAP // 2)):
            with pytest.raises(ResourceCapError):
                sdof_landscape(gains, q_max)
        assert 201 * 10 * 100 < SDOF_WORK_CAP

    def test_flagged_rows_have_no_dof(self):
        points = sdof_landscape([2.5], q_max=2)
        assert points[0].p is None
        assert points[0].sdof is None

    def test_all_values_in_range(self):
        import numpy as np
        gains = np.arange(0.6, 3.0, 0.07)
        for pt in sdof_landscape([float(g) for g in gains], q_max=10):
            if pt.sdof is not None:
                assert 0.0 <= pt.sdof < 1.0
