import collections
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import family_bound_oracle, multiset_key_audit
from latsec.channel import ChannelConfig, make_codebook, mod_signals, random_dithers
from latsec.errors import DomainError, ResourceCapError, ValidationError
from latsec.extractor import (ExtractorSpec, KeyAgreementRunner, KeyProtocolSetup,
                              extract, key_secrecy_report,
                              matrix_from_seed)
from latsec.hashing import (bits_to_int, exact_hashed_entropy, flat_bit_source, gf2_ranks,
                            int_to_bits, privacy_amp_bound)


class TestSpec:
    def test_seed_is_the_matrix(self):
        spec = ExtractorSpec(4, 2)
        assert spec.seed_len == 8
        # seed bits fill the matrix row-major, most significant bit first
        m = matrix_from_seed(spec, 0b10110001)
        assert m.tolist() == [[1, 0, 1, 1], [0, 0, 0, 1]]

    def test_validation(self):
        with pytest.raises(ValidationError):
            ExtractorSpec(4, 5)

    def test_extract_is_linear_hash(self):
        spec = ExtractorSpec(3, 2)
        a = np.array([1, 0, 1])
        v = 0b101100
        m = matrix_from_seed(spec, v)
        assert np.array_equal(extract(spec, a, v), (m @ a) % 2)

    def test_length_guard(self):
        spec = ExtractorSpec(3, 1)
        with pytest.raises(DomainError):
            extract(spec, np.array([1, 0]), 0)


class TestOutputEntropy:
    def test_uniform_source_full_rank_seed_uniform_output(self):
        spec = ExtractorSpec(4, 2)
        seed = 0
        while True:
            m = matrix_from_seed(spec, seed)
            if gf2_ranks([[bits_to_int(r) for r in m]])[0] == 2:
                break
            seed += 1
        counts = collections.Counter(
            bits_to_int(extract(spec, int_to_bits(a, 4), seed)) for a in range(16))
        assert set(counts.values()) == {4}  # exactly uniform over 2 bits

    def test_point_mass_gives_zero(self):
        spec = ExtractorSpec(3, 2)
        assert exact_hashed_entropy(flat_bit_source(3, 1), spec.output_len) == \
            pytest.approx(0.0)

    def test_half_min_entropy_flat_source(self):
        # flat on 2^4 of 2^8 strings, extract 2 bits: exhaustive over all seeds
        spec = ExtractorSpec(8, 2)
        src = flat_bit_source(8, 16)
        h = exact_hashed_entropy(src, spec.output_len)
        assert h >= privacy_amp_bound(2, 2, 4.0) - 1e-12
        assert h >= 2 - 2.0 ** (-(4 - 2) / 2)  # leftover budget form

    def test_monotone_in_source_entropy(self):
        spec = ExtractorSpec(5, 2)
        values = [exact_hashed_entropy(flat_bit_source(5, k), spec.output_len)
                  for k in (1, 2, 4, 8, 16, 32)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12


def audit_oracle(cb, r):
    """H(key | seed, real sum) by enumerating every seed and every label pair."""
    spec = ExtractorSpec(cb.n0_bits, r)
    pts = cb.product_points()
    d = cb.dither_vectors()
    signals = [mod_signals(cb, [p], d)[0] for p in pts]
    joint = collections.Counter()
    for v in range(spec.seed_space):
        for i1 in range(pts.shape[0]):
            k = bits_to_int(extract(spec, int_to_bits(i1, cb.n0_bits), v))
            for i2 in range(pts.shape[0]):
                key = tuple(np.round(signals[i1] + signals[i2], 9).tolist())
                joint[(v, key, k)] += 1
    total = sum(joint.values())
    view = collections.Counter()
    for (v, key, _), c in joint.items():
        view[(v, key)] += c
    h_all = -sum((c / total) * math.log2(c / total) for c in joint.values())
    h_view = -sum((c / total) * math.log2(c / total) for c in view.values())
    return h_all - h_view


class TestKeySecrecyAudit:
    def test_matches_direct_enumeration(self):
        cb = make_codebook(4, 2)  # label width 4
        rep = key_secrecy_report(cb, 1)
        assert rep.h_key_given_view == pytest.approx(audit_oracle(cb, 1), abs=1e-9)

    def test_r2_symmetric_path_matches_enumeration(self):
        cb = make_codebook(4, 2)
        rep = key_secrecy_report(cb, 2)
        assert rep.h_key_given_view == pytest.approx(audit_oracle(cb, 2), abs=1e-9)

    def test_r3_matches_enumeration(self):
        cb = make_codebook(2, 3)  # label width 3, 512 seeds
        rep = key_secrecy_report(cb, 3)
        assert rep.h_key_given_view == pytest.approx(audit_oracle(cb, 3), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(m_nbar=st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (4, 1), (4, 2), (4, 3),
                                   (8, 1), (8, 2)]),
           r=st.integers(1, 3), sign=st.sampled_from(["+", "-"]),
           dither_seed=st.none() | st.integers(0, 2 ** 16))
    def test_row_spaces_match_multiset_oracle(self, m_nbar, r, sign, dither_seed):
        cb = make_codebook(*m_nbar)
        r = min(r, cb.n0_bits)
        d1 = None if dither_seed is None else \
            random_dithers(cb, np.random.default_rng(dither_seed))
        rep = key_secrecy_report(cb, r, d1, sign)
        assert rep.h_key_given_view == multiset_key_audit(cb, r, d1, sign)

    @pytest.mark.parametrize("n_bar, r", [(4, 2), (2, 3), (5, 1), (3, 2), (2, 2)])
    @pytest.mark.parametrize("dither_seed", [None, 5, 6])
    def test_family_average_below_closed_form_bound(self, n_bar, r, dither_seed):
        # the audit averages H(key | view) over every r-row hash, so its leakage
        # r - H is the family average, which B(r) bounds (e.g. 0.1001 <= 0.1417
        # at (4, 2) and 0.5051 <= 0.6099 at (2, 2))
        cb = make_codebook(4, n_bar)
        d1 = None if dither_seed is None else \
            random_dithers(cb, np.random.default_rng(dither_seed))
        leak = r - key_secrecy_report(cb, r, d1).h_key_given_view
        assert 0 < leak <= family_bound_oracle(4, n_bar, r)

    def test_peak_memory(self):
        # 2^10 seeds over a 7^5 sum alphabet; a dense 2^n0-by-sigma table
        # of the counts peaked near 800 MiB here
        cb = make_codebook(4, 5)
        tracemalloc.start()
        try:
            key_secrecy_report(cb, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_budget_is_analytic(self):
        cb = make_codebook(4, 2)
        rep = key_secrecy_report(cb, 1)
        assert rep.budget_c == pytest.approx(
            2 * math.log2(cb.size) - math.log2(rep.sigma_space), abs=1e-12)
        assert rep.eps_sec == pytest.approx(2 ** (-(rep.budget_c - 1) / 2), abs=1e-12)

    def test_dithers_do_not_change_the_audit(self):
        cb = make_codebook(4, 2)
        base = key_secrecy_report(cb, 1)
        shifted = key_secrecy_report(
            cb, 1, dithers1=(np.array([0.3, -1.2]),))
        assert shifted.h_key_given_view == pytest.approx(
            base.h_key_given_view, abs=1e-9)

    def test_guards(self):
        cb = make_codebook(3, 2)
        with pytest.raises(DomainError):
            key_secrecy_report(cb, 1)  # not power of two
        # the cross of the (N_bar=5, r=3) halves holds 5.2e7 cells, past the
        # cell cap; (N_bar=10, r=2) counts 1.2e21 triples, past int64
        with pytest.raises(ResourceCapError, match="cross of the halves"):
            key_secrecy_report(make_codebook(4, 5), 3)
        with pytest.raises(ResourceCapError, match="overflow int64"):
            key_secrecy_report(make_codebook(4, 10), 2)

    @pytest.mark.parametrize("m, n_bar, r, mib", [(4, 9, 1, 12), (16, 5, 1, 48), (4, 4, 3, 12)])
    def test_reach_under_the_cell_cap(self, m, n_bar, r, mib):
        # 2^18, 2^20 and 2^24 seeds, each counted at once in well under a
        # second; the traced peaks were 8.5, 35 and 8.2 MiB, mostly the
        # prod(m) + 1 bins of the histograms and their evaluation
        cb = make_codebook(m, n_bar)
        tracemalloc.start()
        try:
            rep = key_secrecy_report(cb, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.seed_space == 1 << (r * cb.n0_bits)
        assert rep.passed and rep.h_key_given_view < r
        assert peak < mib * 2 ** 20


class TestProtocol:
    def setup_method(self):
        self.cb = make_codebook(4, 2)
        self.spec = ExtractorSpec(self.cb.n0_bits, 2)
        self.setup = KeyProtocolSetup(self.cb, self.spec,
                                      self.cb.dither_vectors(), self.cb.dither_vectors())
        self.cfg = ChannelConfig(a=2.0, b=1.0, noise_var1=1e-12, n_uses=2)

    def test_agreement_at_tiny_noise(self):
        runner = KeyAgreementRunner(self.cfg, self.setup)
        assert runner.agreement_rate(40, seed=7) == 1.0

    def test_genie_agreement(self):
        runner = KeyAgreementRunner(self.cfg, self.setup)
        assert runner.agreement_rate(25, seed=3, mode="genie") == 1.0

    def test_single_round_fields(self):
        tr = KeyAgreementRunner(self.cfg, self.setup).run_one(11)
        assert tr.agreement
        assert not tr.decode_failed
        assert len(tr.k1_bits) == 2
        assert len(tr.masked_sum) == self.cb.block_dim
        assert len(tr.carry) == self.cb.block_dim
        text = tr.to_json()
        assert '"agreement": true' in text
        assert f'"k1": "{bits_to_int(tr.k1_bits):x}"' in text

    def test_decode_failure_recorded_not_raised(self):
        noisy = ChannelConfig(a=2.0, b=1.0, noise_var1=400.0, n_uses=2)
        runner = KeyAgreementRunner(noisy, self.setup)
        results = [runner.run_one(s) for s in range(40)]
        assert any(t.decode_failed for t in results)  # it is data, not an error

    def test_width_mismatch_rejected(self):
        with pytest.raises(Exception):
            KeyProtocolSetup(self.cb, ExtractorSpec(self.cb.n0_bits + 1, 1),
                             self.cb.dither_vectors(), self.cb.dither_vectors())


def key_rate(spec: ExtractorSpec, seed: int, n_uses: int) -> float:
    """H(K)/n of the key a seed extracts from a uniform label, by enumeration."""
    keys = [bits_to_int(extract(spec, int_to_bits(i, spec.input_len), seed))
            for i in range(1 << spec.input_len)]
    p = np.bincount(keys, minlength=1 << spec.output_len) / len(keys)
    return -float(sum(q * math.log2(q) for q in p if q > 0)) / n_uses


class TestKeyRate:
    def test_uniform_key_rate(self):
        cb = make_codebook(4, 2)
        spec = ExtractorSpec(cb.n0_bits, 2)
        setup = KeyProtocolSetup(cb, spec, cb.dither_vectors(), cb.dither_vectors())
        cfg = ChannelConfig(a=2.0, b=1.0, noise_var1=1e-12, n_uses=2)
        # a full-rank seed makes the key uniform on 2 bits
        tr = KeyAgreementRunner(cfg, setup).run_one(1)
        m = matrix_from_seed(spec, tr.v_seed)
        assert gf2_ranks([[bits_to_int(r) for r in m]])[0] == 2
        assert key_rate(spec, tr.v_seed, n_uses=2) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_seed_rate_zero(self):
        # the all-zero matrix maps every label to key 0
        assert key_rate(ExtractorSpec(4, 2), 0, n_uses=2) == pytest.approx(0.0, abs=1e-12)
