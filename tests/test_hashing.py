import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (exact_hashed_entropy_oracle, full_rank_fraction_exhaustive_oracle,
                      full_rank_fraction_mc_oracle, gf2_rank_ints, gf_rank_oracle,
                      greedy_completion_oracle, shannon_oracle)
from latsec import hashing
from latsec.entropy import BitSource, renyi2_entropy
from latsec.errors import DomainError, ResourceCapError, ValidationError
from latsec.hashing import (SOURCE_SUPPORT_CAP, BitLabeling, FiniteFieldMatrix,
                            bits_to_int, build_encoder, decode_secret, encode_secret,
                            exact_full_rank_probability, exact_hashed_entropy,
                            flat_bit_source, full_rank_check,
                            full_rank_fraction_exhaustive, full_rank_fraction_mc,
                            full_rank_lower_bound, geometric_bit_source,
                            gf2_ranks, int_to_bits, privacy_amp_bound,
                            row_space_bases, sample_linear_hash, secret_rate_select)
from latsec.lattice import NestedLatticePair


def all_matrices(r, n):
    for g_int in range(1 << (r * n)):
        yield int_to_bits(g_int, r * n).reshape(r, n)


class TestBits:
    def test_round_trip(self):
        for v in (0, 1, 5, 255):
            assert bits_to_int(int_to_bits(v, 8)) == v

    def test_msb_first(self):
        assert int_to_bits(4, 3).tolist() == [1, 0, 0]

    def test_width_guard(self):
        with pytest.raises(DomainError):
            int_to_bits(8, 3)


class TestFieldMatrix:
    def test_entry_range(self):
        for entries in ([[2]], [[-1]], [[0, 1], [1, 3]]):
            with pytest.raises(ValidationError):
                FiniteFieldMatrix(np.array(entries))

    def test_rank_matches_int_packing(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            r, n = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            m = FiniteFieldMatrix(rng.integers(0, 2, size=(r, n)))
            packed = [bits_to_int(row) for row in m.entries]
            assert m.rank() == gf2_ranks([packed])[0]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 9), st.integers(1, 62), st.integers(1, 40), st.integers(0, 2 ** 32))
    def test_batched_rank_matches_loop_oracle(self, r, n, batch, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 1 << n, size=(batch, r), dtype=np.int64)
        # sparse and repeated rows make rank-deficient matrices common
        rows[:, ::2] &= rng.integers(0, 1 << n, size=rows[:, ::2].shape, dtype=np.int64)
        rows[: batch // 2, -1:] = rows[: batch // 2, :1]
        before = rows.copy()
        assert gf2_ranks(rows).tolist() == [gf2_rank_ints(row) for row in rows.tolist()]
        assert np.array_equal(rows, before)


class TestSampling:
    def test_deterministic_per_seed(self):
        a = sample_linear_hash(3, 4, 99)
        b = sample_linear_hash(3, 4, 99)
        assert np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, sample_linear_hash(3, 4, 100).entries)

    def test_single_bit_family_balanced(self):
        draws = [int(sample_linear_hash(1, 1, s).entries[0, 0]) for s in range(1000)]
        ones = sum(draws)
        assert 400 <= ones <= 600

    def test_entry_frequencies_roughly_uniform(self):
        # chi-square sanity over 10^4 entries
        rng_entries = np.concatenate(
            [sample_linear_hash(10, 10, s).entries.ravel() for s in range(100)])
        counts = np.bincount(rng_entries, minlength=2)
        expected = len(rng_entries) / 2
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 20  # df=1; extremely loose

    def test_seed_is_required(self):
        # a leftover call with the field size before the seed is refused
        with pytest.raises(TypeError):
            sample_linear_hash(3, 4, 2, 99)


class TestCollision:
    # a uniform linear map G collides distinct x1, x2 with probability exactly
    # q^-r: G (x1 - x2) is uniform on GF(q)^r
    def test_exhaustive_oracle(self):
        rng = np.random.default_rng(17)
        for r, n in ((1, 2), (2, 2), (3, 3)):
            x1 = rng.integers(0, 2, size=n)
            x2 = x1.copy()
            x2[0] ^= 1
            hits = 0
            total = 0
            for g in all_matrices(r, n):
                total += 1
                if np.array_equal((g @ x1) % 2, (g @ x2) % 2):
                    hits += 1
            assert hits / total == 2.0 ** -r

    def test_bound(self):
        x1 = np.array([1, 0, 0])
        x2 = np.array([0, 1, 0])
        for r in (1, 2, 3):
            hits = sum(np.array_equal(g @ x1 % 2, g @ x2 % 2) for g in all_matrices(r, 3))
            assert hits / (1 << (3 * r)) <= 2.0 ** (-r) + 1e-15

    @pytest.mark.parametrize("q,r,n", [(2, 1, 2), (2, 2, 2), (3, 1, 2)])
    def test_universality_every_distinct_pair(self, q, r, n):
        # enumerate the whole family and every distinct input pair
        inputs = list(itertools.product(range(q), repeat=n))
        family = [np.array(m, dtype=np.int64).reshape(r, n)
                  for m in itertools.product(range(q), repeat=r * n)]
        for x1 in inputs:
            for x2 in inputs:
                if x1 == x2:
                    continue
                hits = sum(1 for g in family
                           if np.array_equal((g @ x1) % q, (g @ x2) % q))
                assert hits / len(family) == pytest.approx(q ** (-r), abs=1e-12)


class TestFullRank:
    def test_identity_and_zero(self):
        assert full_rank_check(FiniteFieldMatrix(np.eye(3, dtype=np.int64)))
        assert not full_rank_check(FiniteFieldMatrix(np.zeros((2, 3), dtype=int)))

    def test_exhaustive_fraction_r2_n4(self):
        frac = full_rank_fraction_exhaustive(2, 4)
        assert frac >= full_rank_lower_bound(2, 4)  # 0.75
        assert frac == pytest.approx(exact_full_rank_probability(2, 4), abs=1e-12)

    def test_exhaustive_matches_matrix_rank(self):
        # independent route: rank via field elimination instead of bit packing
        hits = sum(
            1 for g in all_matrices(2, 3)
            if FiniteFieldMatrix(g).rank() == 2)
        assert full_rank_fraction_exhaustive(2, 3) == pytest.approx(hits / 64)

    def test_monte_carlo_sane(self):
        frac = full_rank_fraction_mc(4, 8, 4000, seed=5)
        exact = exact_full_rank_probability(4, 8)
        sigma = math.sqrt(exact * (1 - exact) / 4000)
        assert abs(frac - exact) <= 4 * sigma

    @pytest.mark.parametrize("r, n", [(r, n) for r in range(15) for n in range(1, 15)
                                      if r * n <= 14])
    def test_exhaustive_matches_loop_oracle(self, r, n):
        assert full_rank_fraction_exhaustive(r, n) == full_rank_fraction_exhaustive_oracle(r, n)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 40), st.integers(1, 62), st.integers(1, 3000),
           st.integers(0, 2 ** 32))
    @example(40, 62, 3000, 1)  # eight draw chunks, the last one short
    @example(3, 2, 3000, 2)
    def test_monte_carlo_matches_loop_oracle(self, r, n, trials, seed):
        assert full_rank_fraction_mc(r, n, trials, seed) == \
            full_rank_fraction_mc_oracle(r, n, trials, seed)

    def test_monte_carlo_memory_does_not_grow_with_trials(self):
        full_rank_fraction_mc(8, 16, 10)
        tracemalloc.start()
        try:
            full_rank_fraction_mc(8, 16, 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    @pytest.mark.parametrize("r, trials", [(8, 10 ** 11), (20000, 10), (2000, 1000),
                                           (16385, 1), (0, 1 << 40)])
    def test_monte_carlo_refuses_work_past_the_cap(self, r, trials):
        # too many trials, a row count past the chunk size, or both
        with pytest.raises(ResourceCapError, match="elimination cap"):
            full_rank_fraction_mc(r, 16, trials)


class TestRowSpaces:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_basis_per_subspace(self, n):
        for d in range(n + 1):
            bases = row_space_bases(n, d).tolist()
            gaussian = (math.prod((1 << (n - i)) - 1 for i in range(d))
                        // math.prod((1 << (d - i)) - 1 for i in range(d)))
            assert len(bases) == gaussian and all(len(b) == d for b in bases)
            assert all(gf2_rank_ints(b) == d for b in bases)
            assert (gf2_ranks(row_space_bases(n, d)) == d).all()
            spans = set()
            for basis in bases:
                span = {0}
                for row in basis:
                    span |= {x ^ row for x in span}
                spans.add(frozenset(span))
            assert len(spans) == gaussian  # distinct bases span distinct subspaces

    @pytest.mark.parametrize("n", range(1, 7))
    def test_seeds_per_row_space_sum_to_every_seed(self, n):
        # an r-row seed spans a d-dimensional L through one of
        # prod_{i<d} (2^r - 2^i) injective maps onto L's basis
        for r in range(1, n + 1):
            seeds = sum(len(row_space_bases(n, d))
                        * math.prod((1 << r) - (1 << i) for i in range(d))
                        for d in range(r + 1))
            assert seeds == 1 << (r * n)


class TestPrivacyAmpBound:
    def test_exponent_zero(self):
        assert privacy_amp_bound(3, 2, 3.0) == pytest.approx(3 - 1 / math.log(2))

    def test_large_margin_limit(self):
        assert privacy_amp_bound(2, 2, 60.0) == pytest.approx(2.0, abs=1e-12)

    def test_worked_value(self):
        assert privacy_amp_bound(2, 2, 4.0) == pytest.approx(
            2 - 0.25 / math.log(2), abs=1e-12)
        assert privacy_amp_bound(2, 2, 4.0) == pytest.approx(1.639, abs=1e-3)


class TestHashedEntropy:
    def test_uniform_source_meets_floor(self):
        for n in (2, 3):
            for r in (1, 2):
                src = flat_bit_source(n, 1 << n)
                h = exact_hashed_entropy(src, r)
                assert h >= privacy_amp_bound(r, 2, float(n)) - 1e-12

    def test_point_mass_gives_zero(self):
        src = flat_bit_source(3, 1)
        assert exact_hashed_entropy(src, 2) == pytest.approx(0.0, abs=1e-12)

    def test_two_element_source_hand_average(self):
        # independent oracle: average H(g(A)) by explicit loop over the family
        src = flat_bit_source(2, 2)
        acc = 0.0
        count = 0
        for g in all_matrices(1, 2):
            masses = {}
            for i, w in enumerate(src.weights):
                out = int(((g @ int_to_bits(i, src.n)) % 2)[0])
                masses[out] = masses.get(out, 0) + w / sum(src.weights)
            acc += -sum(p * math.log2(p) for p in masses.values() if p > 0)
            count += 1
        oracle = acc / count
        assert exact_hashed_entropy(src, 1) == pytest.approx(oracle, abs=1e-12)

    def test_seed_set_fallback(self):
        src = flat_bit_source(4, 16)
        h = exact_hashed_entropy(src, 2, seed_set=list(range(64)))
        assert 0 < h <= 2.0 + 1e-12

    def test_cap(self):
        # 2^32 matrices, refused before any is built
        with pytest.raises(ResourceCapError, match="pass an explicit seed_set"):
            exact_hashed_entropy(flat_bit_source(8, 4), 4)

    def test_work_cap(self, monkeypatch):
        # 2^16 matrices of 4096 symbols took 6.7 s; refused before any hashing
        def no_hashing(*args):
            raise AssertionError("hashed before the work cap was checked")

        monkeypatch.setattr(np, "bincount", no_hashing)
        monkeypatch.setattr(hashing, "sample_linear_hash", no_hashing)
        for source, r, seeds in ((flat_bit_source(16, 4096), 1, None),
                                 (flat_bit_source(11, 1), 2, None),
                                 (flat_bit_source(2, 4), 1, range(1 << 14))):
            with pytest.raises(ResourceCapError, match="work cap"):
                exact_hashed_entropy(source, r, seeds)
        monkeypatch.undo()
        # at r = 2, 64 matrices of 5 symbols cost 2 * 5 + 4 + 16 units each, and
        # sampled ones 2 * 5 + 4 + 2^11
        source = flat_bit_source(3, 5)
        for seeds, work in ((None, 64 * 30), (range(4), 4 * 2062)):
            monkeypatch.setattr(hashing, "HASH_WORK_CAP", work)
            exact_hashed_entropy(source, 2, seeds)
            monkeypatch.setattr(hashing, "HASH_WORK_CAP", work - 1)
            with pytest.raises(ResourceCapError, match="work cap"):
                exact_hashed_entropy(source, 2, seeds)

    @pytest.mark.parametrize("r", [0, -1])
    def test_needs_an_output_bit(self, r):
        with pytest.raises(DomainError):
            exact_hashed_entropy(flat_bit_source(3, 8), r)

    @pytest.mark.parametrize("source, r", [
        (flat_bit_source(3, 8), 4), (flat_bit_source(4, 11), 3), (geometric_bit_source(3), 4),
        (geometric_bit_source(4), 3), (geometric_bit_source(2), 1), (flat_bit_source(6, 1), 2)])
    def test_exhaustive_matches_loop_oracle(self, source, r):
        assert exact_hashed_entropy(source, r) == exact_hashed_entropy_oracle(source, r)

    @pytest.mark.parametrize("source", [geometric_bit_source(6), flat_bit_source(5, 27)])
    def test_sampled_family_matches_loop_oracle(self, source):
        # up to 16 nonzero masses per matrix, in chunks of several matrices
        seeds = list(range(500))
        assert exact_hashed_entropy(source, 4, seed_set=seeds) == \
            exact_hashed_entropy_oracle(source, 4, seeds)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 4), st.data())
    def test_matches_loop_oracle_on_random_rational_sources(self, n, r, data):
        # any support: zero weights on the symbols outside it
        size = data.draw(st.integers(1, 1 << n))
        symbols = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=size,
                                     max_size=size, unique=True))
        weights = [0] * (1 << n)
        for x in symbols:
            weights[x] = data.draw(st.integers(1, 1000))
        source = BitSource(n, weights)
        seeds = data.draw(st.lists(st.integers(0, 2 ** 62), min_size=1, max_size=300))
        # one fsum takes every matrix's terms, however the matrices are chunked
        chunk = data.draw(st.sampled_from([1, 7, 64, hashing.CHUNK_ENTRIES]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hashing, "CHUNK_ENTRIES", chunk)
            assert exact_hashed_entropy(source, r, seed_set=seeds) == \
                exact_hashed_entropy_oracle(source, r, seeds)
            if r * n <= 10:
                assert exact_hashed_entropy(source, r) == exact_hashed_entropy_oracle(source, r)


class TestEncoder:
    def test_identity_tail_completion(self):
        n, r = 4, 2
        g = FiniteFieldMatrix(np.eye(n, dtype=np.int64)[n - r:])
        kit = build_encoder(g)
        assert np.array_equal(kit.g_prime.entries, np.eye(n, dtype=np.int64)[: n - r])
        stacked = np.vstack([kit.g_prime.entries, kit.g.entries])
        assert np.array_equal((stacked @ kit.a_inv.entries) % 2, np.eye(n, dtype=int))

    def test_random_full_rank_inverse(self):
        rng = np.random.default_rng(13)
        built = 0
        for seed in range(40):
            g = sample_linear_hash(3, 7, seed)
            if not full_rank_check(g):
                continue
            kit = build_encoder(g)
            stacked = np.vstack([kit.g_prime.entries, kit.g.entries])
            assert np.array_equal((stacked @ kit.a_inv.entries) % 2,
                                  np.eye(7, dtype=int))
            built += 1
        assert built > 30

    def test_all_ones_row(self):
        g = FiniteFieldMatrix(np.ones((1, 3), dtype=np.int64))
        kit = build_encoder(g)
        stacked = np.vstack([kit.g_prime.entries, kit.g.entries])
        # exhaustive oracle: some completion must exist, and ours verifies
        assert FiniteFieldMatrix(stacked).rank() == 3

    def test_rank_deficient_rejected(self):
        g = FiniteFieldMatrix(np.array([[1, 0, 1], [1, 0, 1]]))
        with pytest.raises(DomainError):
            build_encoder(g)

    def test_full_square_hash_allows_empty_g_prime(self):
        g = FiniteFieldMatrix(np.eye(3, dtype=np.int64))
        kit = build_encoder(g)
        assert kit.g_prime.rows == 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 5), st.integers(0, 2 ** 32 - 1))
    def test_matches_greedy_completion_oracle(self, n, r, seed):
        # one elimination of [g^T | I] picks the same unit rows, and one of
        # [stack | I] the same inverse, as completing g rank by rank
        rng = np.random.default_rng(seed)
        r = min(r, n)
        while True:
            g = FiniteFieldMatrix(rng.integers(0, 2, size=(r, n)))
            assert g.rank() == gf_rank_oracle(g.entries, 2)
            if g.rank() == r:
                break
            with pytest.raises(DomainError):
                build_encoder(g)
        g_prime, a_inv = greedy_completion_oracle(g.entries, 2)
        kit = build_encoder(g)
        assert kit.g_prime.entries.shape == g_prime.shape
        assert np.array_equal(kit.g_prime.entries, g_prime)
        assert np.array_equal(kit.a_inv.entries, a_inv)


def _labeling_for(n_bits):
    pair = NestedLatticePair(1, 2.0 ** n_bits, 2 ** n_bits)
    return BitLabeling(pair)


class TestSecretCodec:
    def test_zero_maps_to_first_point(self):
        lab = _labeling_for(3)
        g = FiniteFieldMatrix(np.eye(3, dtype=np.int64)[2:])
        kit = build_encoder(g)
        t = encode_secret(kit, np.zeros(1, dtype=int), np.zeros(2, dtype=int), lab)
        assert np.allclose(t, lab.points[0])

    def test_round_trip_and_uniformity(self):
        for n_bits in (3, 6, 10):
            lab = _labeling_for(n_bits)
            r = max(1, n_bits // 3)
            g = None
            for seed in range(20):
                cand = sample_linear_hash(r, n_bits, seed)
                if full_rank_check(cand):
                    g = cand
                    break
            kit = build_encoder(g)
            seen = set()
            for s_int in range(1 << r):
                for sp_int in range(1 << (n_bits - r)):
                    s = int_to_bits(s_int, r)
                    sp = int_to_bits(sp_int, n_bits - r)
                    t = encode_secret(kit, s, sp, lab)
                    sp2, s2 = decode_secret(kit, t, lab)
                    assert np.array_equal(s2, s)
                    assert np.array_equal(sp2, sp)
                    seen.add(tuple(np.round(t, 9)))
            assert len(seen) == 1 << n_bits  # uniform input sweeps the whole subset

    def test_length_mismatch(self):
        lab = _labeling_for(3)
        kit = build_encoder(FiniteFieldMatrix(np.eye(3, dtype=np.int64)[2:]))
        with pytest.raises(DomainError):
            encode_secret(kit, np.zeros(2, dtype=int), np.zeros(1, dtype=int), lab)

    def test_partial_codebook_labeling(self):
        pair = NestedLatticePair(1, 3.0, 3)  # 3 points -> 1 labeled bit
        lab = BitLabeling(pair)
        assert lab.n_bits == 1
        assert lab.points.shape == (2, 1)
        assert lab.index_of(lab.points[1]) == 1
        for bad in ([1.0], [0.5], [np.nan], [0.0, 0.0]):  # cut, off-grid, non-finite, shape
            with pytest.raises(DomainError):
                lab.index_of(bad)


class TestRateSelect:
    def test_zero_margin(self):
        assert secret_rate_select(10, 1.0, 0.1, 0.1) == 0
        # a finite eps outside (0, rate0 - 1) selects no width
        for eps in (-1.0, 0.0, 1.0, 1e300):
            assert secret_rate_select(8, 2.0, eps, 0.1) == 0

    def test_worked_value(self):
        assert secret_rate_select(20, 2.0, 0.1, 0.1) == 15

    def test_strict_inequality_and_cap(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n_bar = int(rng.integers(1, 40))
            rate0 = float(rng.uniform(1.0, 3.0))
            eps = float(rng.uniform(0.01, 1.0))
            delta = float(rng.uniform(0.01, 0.5))
            r0 = secret_rate_select(n_bar, rate0, eps, delta)
            assert r0 >= 0
            threshold = n_bar * (rate0 - 1) - eps * n_bar - delta * n_bar
            if 0 < eps < rate0 - 1 and threshold > 0:
                assert r0 < threshold + 1e-9
                assert r0 <= max(0.0, n_bar * (rate0 - 1 - eps))
            else:
                assert r0 == 0

    def test_delta_guard(self):
        with pytest.raises(DomainError):
            secret_rate_select(8, 2.0, 0.1, 0.0)

    @pytest.mark.parametrize("eps, delta", [(math.nan, 0.1), (math.inf, 0.1), (-math.inf, 0.1),
                                            (0.1, math.inf), (0.1, math.nan)])
    def test_non_finite_margins_refused(self, eps, delta):
        # they used to select width 0 and report zero leakage
        with pytest.raises(DomainError):
            secret_rate_select(8, 2.0, eps, delta)


class TestSources:
    def test_flat_source_collision_entropy(self):
        src = flat_bit_source(4, 8)
        assert renyi2_entropy(src) == 3.0
        assert src == BitSource(4, (1,) * 8)

    @pytest.mark.parametrize("k", [3, 5, 7, 27, 100, 1000, 4095])
    def test_flat_collision_entropy_is_log2_k(self, k):
        # k^2 / k is exact, so H2 is math.log2(k) itself
        assert renyi2_entropy(flat_bit_source(12, k)) == math.log2(k)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_geometric_collision_entropy_within_an_ulp(self, n):
        # sum w^2 / T^2 = (4^s - 1) / (3 (2^s - 1)^2) for s = 2^n symbols, so
        # H2 = log2(3 (2^s - 1) / (2^s + 1)), here to 60 digits
        h2 = renyi2_entropy(geometric_bit_source(n))
        with mpmath.workdps(60):
            s = mpmath.mpf(2) ** (1 << n)
            want = mpmath.log(3 * (s - 1) / (s + 1), 2)
            assert abs(mpmath.mpf(h2) - want) <= math.ulp(h2)

    def test_support_cap(self):
        # refused before the 2^n symbols (or their 2^n-bit masses) are built
        for build in (lambda: geometric_bit_source(13), lambda: geometric_bit_source(40),
                      lambda: flat_bit_source(40, SOURCE_SUPPORT_CAP + 1)):
            with pytest.raises(ResourceCapError):
                build()
        assert len(flat_bit_source(40, 4).weights) == 4
        # an invalid k stays a domain error, whatever its size
        with pytest.raises(DomainError):
            flat_bit_source(2, SOURCE_SUPPORT_CAP + 1)

    @pytest.mark.parametrize("n", [0, -1])
    def test_needs_a_bit(self, n):
        for build in (lambda: geometric_bit_source(n), lambda: flat_bit_source(n, 1)):
            with pytest.raises(DomainError):
                build()

    def test_geometric_source_valid(self):
        src = geometric_bit_source(3)
        assert src == BitSource(3, (128, 64, 32, 16, 8, 4, 2, 1))
        total = sum(src.weights)
        assert shannon_oracle([w / total for w in src.weights]) > renyi2_entropy(src) > 0
