import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (brute_force_leakage, cyclic_shift_oracle, direct_marginal_oracle,
                      direct_search_oracle, genie_error_rate_oracle, per_candidate_leakages)
from latsec import channel
from latsec._rng import gaussian, substream
from latsec.channel import (ChannelConfig, LayeredCodebook, MLDecoder, TrendRow,
                            build_system, coordinate_specs, exact_leakage,
                            exact_signal_power, fitted_log2_slope, leakage_trend,
                            make_codebook, mod_signals, random_dithers,
                            run_message_round, scale_channel,
                            secrecy_rate_report, select_secrecy_hash, transmit)
from latsec.counting import WalshCounter
from latsec.errors import ConfigError, DomainError, ResourceCapError
from latsec.extractor import key_secrecy_report
from latsec.hashing import (FiniteFieldMatrix, build_encoder, full_rank_check,
                            sample_linear_hash)
from latsec.lattice import NestedLatticePair


def system_with_hash(m, n_bar, r0, seed=0, dithers=False):
    cb = make_codebook(m, n_bar)
    g = None
    for s in range(seed, seed + 50):
        cand = sample_linear_hash(r0, cb.n0_bits, s)
        if full_rank_check(cand):
            g = cand
            break
    kit = build_encoder(g)
    if dithers:
        rng = substream(seed, "test-dithers")
        d1 = random_dithers(cb, rng)
        d2 = random_dithers(cb, rng)
    else:
        d1 = d2 = None
    return build_system(cb, kit, d1, d2)


class TestScaling:
    def test_unit_gains(self):
        cfg = ChannelConfig(a=1.0, b=1.0)
        sc = scale_channel(cfg)
        assert sc.gain_x2_at_d1 == pytest.approx(1.0)
        assert sc.noise_std_d1 == pytest.approx(1.0)
        assert sc.gain_x2_at_d2 == 1.0

    def test_cross_gain(self):
        sc = scale_channel(ChannelConfig(a=4.0, b=1.0))
        assert sc.gain_x2_at_d1 == pytest.approx(2.0)

    def test_noise_scaling(self):
        sc = scale_channel(ChannelConfig(a=1.0, b=4.0))
        assert sc.noise_std_d1 == pytest.approx(2.0)

    def test_sign(self):
        sc = scale_channel(ChannelConfig(a=1.0, b=1.0, sign=-1))
        assert sc.gain_x2_at_d2 == -1.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ChannelConfig(a=-1.0, b=1.0)
        with pytest.raises(ConfigError):
            ChannelConfig(a=1.0, b=1.0, sign=0)
        for field in ("a", "b", "noise_var1"):
            for bad in (math.inf, -math.inf, math.nan):
                with pytest.raises(ConfigError):
                    ChannelConfig(**{"a": 1.0, "b": 1.0, field: bad})
        # finite parameters whose scaled gain sqrt(ab) overflows, or whose scaled
        # noise variance b * noise_var1 (and so 2v) underflows to zero
        for kwargs in ({"a": 1e300, "b": 1e300}, {"a": 1.0, "b": 1e-30, "noise_var1": 1e-300},
                       {"a": 1.0, "b": 1e-300, "noise_var1": 1e-300}):
            with pytest.raises(ConfigError):
                ChannelConfig(**kwargs)


class TestCodebook:
    def test_rates(self):
        cb = LayeredCodebook(NestedLatticePair(3, 4.0, 4))
        assert cb.block_dim == 3
        assert cb.size == 64
        assert cb.n0_bits == 6  # 3 dims at 2 bits each

    def test_bad_dither_tuples_refused_everywhere(self):
        # every dither consumer goes through LayeredCodebook.dither_vectors, which
        # takes a one-tuple: a 2-tuple is a wrong count like the empty tuple
        cb = make_codebook(4, 4)
        g = sample_linear_hash(2, cb.n0_bits, 19)
        for bad in [(), (np.full(4, 0.3),) * 2, (np.full(3, 0.3),),
                    (np.array([0.1, 0.2, np.nan, 0.3]),), (np.full(4, np.inf),)]:
            for method in ("fast", "enumerate"):
                with pytest.raises(ConfigError):
                    exact_leakage(cb, g, bad, method=method)
            with pytest.raises(ConfigError):
                key_secrecy_report(cb, 1, bad)
            with pytest.raises(ConfigError):
                select_secrecy_hash(cb, 2, bad, n_candidates=2)
            for dithers in ((bad, None), (None, bad)):
                with pytest.raises(ConfigError):
                    build_system(cb, None, *dithers)
            with pytest.raises(ConfigError):
                exact_signal_power(cb, bad)
            with pytest.raises(ConfigError):
                mod_signals(cb, cb.product_points()[:3], bad)
        assert len(cb.dither_vectors()) == 1
        assert np.array_equal(cb.dither_vectors()[0], np.zeros(4))


class TestTransmit:
    def test_near_noiseless_superposition(self):
        # receiver 1 sees the superposition at tiny noise; the eavesdropper sees
        # it plus unit-variance noise, the noise stream's draw after receiver 1's
        system = system_with_hash(2, 1, 1)
        cfg = ChannelConfig(a=1.0, b=1.0, noise_var1=1e-30, n_uses=1)
        tr = transmit(cfg, system, np.array([1]), seed=3)
        assert tr.y1 == pytest.approx(tr.x1 + tr.x2, abs=1e-9)
        noise = substream(3, "noise")
        gaussian(noise, 1)
        assert np.array_equal(tr.y2, tr.x1 + tr.x2 + gaussian(noise, 1))

    def test_zero_dither_sends_the_point(self):
        system = system_with_hash(4, 2, 1)
        cfg = ChannelConfig(a=2.0, b=1.0, n_uses=2)
        tr = transmit(cfg, system, np.array([0]), seed=5)
        assert np.allclose(tr.x1, tr.t1)  # zero dither

    def test_empirical_power_matches_exact(self):
        system = system_with_hash(4, 2, 1, dithers=True)
        cfg = ChannelConfig(a=1.0, b=1.0, n_uses=2)
        exact = exact_signal_power(system.codebook, system.dithers1)
        samples = []
        for seed in range(400):
            tr = transmit(cfg, system, np.array([seed % 2]), seed=seed)
            samples.append(float((tr.x1 ** 2).mean()))
        assert np.mean(samples) == pytest.approx(exact, rel=0.15)

    def test_sender_jammer_independent(self):
        system = system_with_hash(4, 1, 1)
        cfg = ChannelConfig(a=1.0, b=1.0, n_uses=1)
        pts = system.jammer_points()
        counts = np.zeros((4, 4))
        trials = 4000
        for seed in range(trials):
            tr = transmit(cfg, system, np.array([seed % 2]), seed=seed)
            i = int(np.argmin(np.abs(pts[:, 0] - tr.t1[0])))
            j = int(np.argmin(np.abs(pts[:, 0] - tr.t2[0])))
            assert j == tr.t2_index  # the transcript keeps the jammer index it drew
            counts[i, j] += 1
        p = counts / trials
        dev = np.abs(p - np.outer(p.sum(axis=1), p.sum(axis=0))).max()
        assert dev < 0.03

    def test_transcript_json(self):
        system = system_with_hash(2, 1, 1)
        cfg = ChannelConfig(a=1.0, b=1.0, n_uses=1)
        tr = transmit(cfg, system, np.array([1]), seed=3)
        text = tr.to_json()
        assert '"w": [1]' in text


class TestDecoding:
    @pytest.mark.parametrize("m, n_bar, batch",
                             [(4, 2, 1), (3, 2, 1), (8, 2, 2), (4, 3, 3), (2, 9, 9)])
    def test_signal_tables_match_per_point_reductions(self, m, n_bar, batch):
        # the signal tables (one batched call) equal the reductions of the
        # points taken `batch` at a time, one at a time for batch = 1
        cb = make_codebook(m, n_bar)
        rng = substream(m * 100 + n_bar, "table-dithers")
        dithers = random_dithers(cb, rng)
        for points in (cb.labeling().points, cb.product_points()):
            table = mod_signals(cb, points, dithers)
            assert table.shape == points.shape
            parts = [mod_signals(cb, points[i:i + batch], dithers)
                     for i in range(0, len(points), batch)]
            assert np.array_equal(table, np.concatenate(parts))

    def test_tiny_noise_always_decodes(self):
        system = system_with_hash(4, 2, 2)
        cfg = ChannelConfig(a=2.0, b=1.0, noise_var1=1e-12, n_uses=2)
        decoder = MLDecoder(cfg, system)
        errors = 0
        for seed in range(100):
            w = np.array([seed % 2, (seed // 2) % 2])
            tr = run_message_round(cfg, system, w, seed, decoder=decoder)
            errors += int(tr.decode_error)
        assert errors == 0

    def test_genie_mode(self):
        system = system_with_hash(4, 2, 1)
        cfg = ChannelConfig(a=1.0, b=1.0, noise_var1=1e-12, n_uses=2)
        decoder = MLDecoder(cfg, system)
        for seed in range(40):
            tr = run_message_round(cfg, system, np.array([seed % 2]), seed,
                                   mode="genie", decoder=decoder)
            assert not tr.decode_error

    def test_empty_message_always_correct(self):
        # a single-message codebook: no secret bits, decoding cannot fail
        cb = make_codebook(2, 1)
        kit = build_encoder(FiniteFieldMatrix(np.zeros((0, 1), dtype=np.int64)))
        system = build_system(cb, kit)
        cfg = ChannelConfig(a=2.0, b=1.0, noise_var1=25.0, n_uses=1)
        for seed in range(20):
            tr = run_message_round(cfg, system, np.zeros(0, dtype=int), seed)
            assert not tr.decode_error

    def test_huge_noise_degenerates_to_guessing(self):
        system = system_with_hash(4, 2, 2)
        cfg = ChannelConfig(a=2.0, b=1.0, noise_var1=1e4, n_uses=2)
        decoder = MLDecoder(cfg, system)
        rng = np.random.default_rng(0)
        errors = 0
        trials = 400
        for seed in range(trials):
            w = rng.integers(0, 2, size=2)
            tr = run_message_round(cfg, system, w, seed, decoder=decoder)
            errors += int(tr.decode_error)
        assert abs(errors / trials - 0.75) < 0.12

    def test_observation_shape_checked(self):
        # wrong shapes, non-finite entries and a finite y whose squared
        # distances overflow, refused before any warning
        decoder = MLDecoder(ChannelConfig(a=2.0, b=1.0), system_with_hash(4, 2, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for y in (np.zeros(1), np.zeros(3), np.zeros((1, 2)), 0.0,
                      np.array([math.nan, 0.0]), np.array([math.inf, 0.0]),
                      np.array([0.0, -math.inf]), np.array([1e200, 0.0])):
                for mode, t2 in (("marginal", None), ("genie", 0)):
                    with pytest.raises(DomainError):
                        decoder.decode_index(y, mode, t2)

    def test_overflowing_norm_table_refused(self):
        # sqrt(ab) = 1e154 is finite, but g^2 ||x2||^2 is not; the decoder
        # refuses that gain on float resolution already.  At unit gain a
        # coarse scale of 1e154 resolves every point, but the squared
        # distances overflow at y = 0 and so at every observation.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError):
                MLDecoder(ChannelConfig(a=1e300, b=1e8, n_uses=2), system_with_hash(4, 2, 1))
            with pytest.raises(ConfigError):
                MLDecoder(ChannelConfig(a=1.0, b=1.0, n_uses=2),
                          build_system(LayeredCodebook(NestedLatticePair(2, 1e154, 4)), None))

    @pytest.mark.parametrize("mode", ["marginal", "genie"])
    def test_float_resolution_limits_the_gain(self, mode):
        # x1 and x2 coordinates take the values -2..1, 1 apart, so the decoder
        # needs ulp(2 + 2g) < 1/2, i.e. 2 + 2g < 2^51
        system = system_with_hash(4, 2, 1)
        with pytest.raises(ConfigError):
            MLDecoder(ChannelConfig(a=2.0 ** 100, b=1.0, n_uses=2), system)
        cfg = ChannelConfig(a=(2.0 ** 50 - 2) ** 2, b=1.0, noise_var1=1e-300, n_uses=2)
        decoder, coeff = MLDecoder(cfg, system), scale_channel(cfg)
        rng = substream(0, "float-resolution")
        for i1 in range(system.codebook.size):
            i2 = int(rng.integers(0, system.codebook.size))
            y = system.received(coeff, i1, i2, rng)
            assert decoder.decode_index(y, mode, i2 if mode == "genie" else None) == i1

    def test_decodes_past_the_old_pair_cap(self):
        # m = 4, N = 6: 4096 x 4096 (sender, jammer) pairs, which a table of
        # every pair could not hold; every sent label comes back at tiny noise
        cb, rng = make_codebook(4, 6), substream(0, "past-pair-cap")
        system = build_system(cb, None, random_dithers(cb, rng), random_dithers(cb, rng))
        cfg = ChannelConfig(a=2.0, b=1.0, noise_var1=1e-6 ** 2)
        decoder, coeff = MLDecoder(cfg, system), scale_channel(cfg)
        decoded = [decoder.decode_index(system.received(coeff, i1, int(rng.integers(0, 4096)), rng))
                   for i1 in range(4096)]
        assert decoded == list(range(4096))

    def test_table_cap(self, monkeypatch):
        # m = 4, N = 10: 4^10 points of dimension 10 exceed 2^22 table entries;
        # refused before the signal tables are built
        system = build_system(make_codebook(4, 10), None)

        def untouched(_self):
            raise AssertionError("signal tables built before the cap check")

        monkeypatch.setattr(channel.SecrecySystem, "sender_signals", property(untouched))
        monkeypatch.setattr(channel.SecrecySystem, "jammer_signals", property(untouched))
        with pytest.raises(ResourceCapError):
            MLDecoder(ChannelConfig(a=1.0, b=1.0), system)

    def test_distance_table_cap(self):
        # one coordinate at m = 4096: 2^12 distinct values of x1 and of g x2,
        # so 2^24 distances, refused before the 128-MiB table is built
        cb = make_codebook(4096, 1)
        rng = np.random.default_rng(0)
        system = build_system(cb, None, random_dithers(cb, rng), random_dithers(cb, rng))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError):
                MLDecoder(ChannelConfig(a=1.0, b=1.0), system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_subnormal_noise_variance_decodes(self):
        # at sigma1 = 1e-160 the variance is subnormal and a squared distance
        # over 2v overflows for every pair but the sent one
        system = system_with_hash(4, 4, 2, dithers=True)
        cfg = ChannelConfig(a=2.0, b=1.0, noise_var1=1e-160 ** 2)
        decoder, coeff = MLDecoder(cfg, system), scale_channel(cfg)
        rng = substream(0, "subnormal-noise")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(200):
                i1 = int(rng.integers(0, system.codebook.size))
                i2 = int(rng.integers(0, system.codebook.size))
                assert decoder.decode_index(system.received(coeff, i1, i2, rng)) == i1

    def test_labels_sharing_a_signal_refused(self):
        # a dither of 1e17 rounds every coordinate value of the m = 4 codebook
        # to one float, so all labels share one signal
        cb = make_codebook(4, 2)
        system = build_system(cb, None, (np.full(2, 1e17),))
        with pytest.raises(ConfigError, match="share one signal"):
            MLDecoder(ChannelConfig(a=2.0, b=1.0), system)

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from([(m, n_bar) for m in (2, 3, 4, 8) for n_bar in range(1, 10)
                            if m ** n_bar <= 512]),
           st.booleans(),
           st.sampled_from([1e-9, 1e-6, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 5.0, 100.0]),
           st.sampled_from([2.0, 4.0]), st.integers(0, 2 ** 16))
    def test_marginal_matches_direct_oracle(self, shape, dithered, sigma1, a, seed):
        # m = 3 labels a prefix of the codebook; the rational gain 2 (a = 4) holds
        # exact ties; sigma1 runs from error-free to guessing
        cb = make_codebook(*shape)
        rng = np.random.default_rng(seed)
        dithers = (random_dithers(cb, rng), random_dithers(cb, rng)) if dithered else ()
        system = build_system(cb, None, *dithers)
        cfg = ChannelConfig(a=a, b=1.0, noise_var1=sigma1 ** 2)
        decoder, coeff = MLDecoder(cfg, system), scale_channel(cfg)
        labels = [system.sender_signals.shape[0], cb.size]
        # noisy observations: the same decision as the direct form.  At the
        # rational gain distinct labels can tie exactly (x1 + 2 x2 repeats when
        # x1 moves by 2 and x2 by -1), and then the log-unit oracle's rounding,
        # not the label order, picks among them
        for _ in range(4):
            i1, i2 = (int(i) for i in rng.integers(0, labels))
            y = system.received(coeff, i1, i2, rng)
            if a == 2.0:
                assert decoder.decode_index(y) == int(np.argmax(
                    direct_marginal_oracle(cfg, system, y)))
            assert decoder.decode_index(y) == direct_search_oracle(cfg, system, y)
        # midpoints between two pair signals, and y = 0: a label the direct form
        # scores within a few ulps of the best.  Deciding on the factorised
        # score alone, without the direct re-check, can pick another of them.
        pairs = rng.integers(0, labels, size=(3, 2, 2))
        x1, x2 = system.sender_signals, system.jammer_signals
        signals = x1[pairs[..., 0]] + coeff.gain_x2_at_d1 * x2[pairs[..., 1]]
        for y in [*(signals.sum(axis=1) / 2), np.zeros(cb.block_dim)]:
            loglik = direct_marginal_oracle(cfg, system, y)
            best = loglik.max()
            ties = np.flatnonzero(loglik >= best - 8 * np.finfo(float).eps * max(1.0, abs(best)))
            assert decoder.decode_index(y) in ties
            assert decoder.decode_index(y) == direct_search_oracle(cfg, system, y)

    def test_first_marginal_decode_memory(self):
        # a K x J table of pair norms would be 8 MiB here, and one of every
        # pair signal (K x J x n) 80 MiB; the per-coordinate tables are built
        # with the decoder, and a decode gathers K x n scores (80 KiB)
        system = build_system(make_codebook(2, 10), None)
        cfg = ChannelConfig(a=2.0, b=1.0, noise_var1=0.1 ** 2)
        decoder = MLDecoder(cfg, system)
        y = system.received(scale_channel(cfg), 5, 700, np.random.default_rng(0))
        tracemalloc.start()
        try:
            decoder.decode_index(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


    @pytest.mark.parametrize("dither_mode", ["zero", "random"])
    def test_trend_genie_rate_matches_residual_oracle(self, dither_mode):
        # the trend decides through MLDecoder's genie mode on y itself; deciding
        # on the residual y - g x2 gives the same error rate
        seed, trials, rates = 5, 200, []
        for sigma1 in (1e-6, 0.1, 0.3):
            cfg = ChannelConfig(a=2.0, b=1.0, noise_var1=sigma1 ** 2)
            rows = leakage_trend(4, [2, 3, 4], 0.3, 0.05, family=4, seed=seed,
                                 dither_mode=dither_mode, decode_trials=trials,
                                 decode_cfg=cfg)
            for row in rows:
                cb = make_codebook(4, row.n_bar)
                if dither_mode == "zero":
                    d1 = d2 = cb.dither_vectors()
                else:
                    d1 = random_dithers(cb, substream(seed, f"dither1-{row.n_bar}"))
                    d2 = random_dithers(cb, substream(seed, f"dither2-{row.n_bar}"))
                oracle = genie_error_rate_oracle(cb, d1, d2, cfg, trials, seed + row.n_bar)
                assert row.decode_error_rate == oracle, (sigma1, row.n_bar)
                rates.append(oracle)
        assert rates[0] == 0 and max(rates) > 0


@st.composite
def dithered_coordinates(draw):
    """A pair (m, c) and dithers: uniform over [-1.5c, 1.5c), multiples of
    c/m give or take 1e-12, and +-c/2 with their float neighbours."""
    m = draw(st.sampled_from([2, 3, 4, 5, 8, 16]))
    c = draw(st.sampled_from([float(m), 1.0, 4.0, 0.7]))
    faces = [x for h in (-c / 2, c / 2) for x in (h, np.nextafter(h, -np.inf), np.nextafter(h, np.inf))]
    dither = st.one_of(
        st.floats(-1.5 * c, 1.5 * c, exclude_max=True),
        st.builds(lambda k, e: k * c / m + e, st.integers(-m, m), st.sampled_from([-1e-12, 0.0, 1e-12])),
        st.sampled_from(faces))
    return m, c, np.array(draw(st.lists(dither, min_size=1, max_size=4)))


class TestCoordinateSpecs:
    @settings(max_examples=300, deadline=None)
    @given(dithered_coordinates())
    def test_shift_from_carries_matches_rank_oracle(self, case):
        m, c, d = case
        pair = NestedLatticePair(2 * len(d), c, m)
        specs = coordinate_specs(LayeredCodebook(pair), (np.concatenate([d, -d]),))
        want = [cyclic_shift_oracle(pair.coordinate_values(), float(x), c) for x in [*d, *-d]]
        assert [spec.shift for spec in specs] == want
        assert all(spec.m == m for spec in specs)


class TestExactLeakage:
    def test_no_message_no_leak(self):
        cb = make_codebook(4, 2)
        empty = FiniteFieldMatrix(np.zeros((0, cb.n0_bits), dtype=np.int64))
        assert exact_leakage(cb, empty) == 0.0

    def test_identity_encoder_matches_brute_force(self):
        cb = make_codebook(4, 2)
        kit = build_encoder(FiniteFieldMatrix(np.eye(cb.n0_bits, dtype=np.int64)))
        d = (np.zeros(2),)
        oracle = brute_force_leakage(cb, kit, d, d, "+")
        assert oracle > 0.0  # the full label visibly leaks
        assert exact_leakage(cb, kit, d, "+") == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("n_bar", [2, 3])
    def test_all_routes_agree(self, sign, n_bar):
        cb = make_codebook(4, n_bar)
        rng = substream(41, f"leak-{n_bar}")
        d1 = random_dithers(cb, rng)
        d2 = random_dithers(cb, rng)
        g = next(sample_linear_hash(2, cb.n0_bits, s) for s in range(7, 30)
                 if full_rank_check(sample_linear_hash(2, cb.n0_bits, s)))
        kit = build_encoder(g)
        oracle = brute_force_leakage(cb, kit, d1, d2, sign)
        fast = exact_leakage(cb, kit, d1, sign, method="fast")
        enum = exact_leakage(cb, kit, d1, sign, method="enumerate")
        assert fast == pytest.approx(oracle, abs=1e-9)
        assert enum == fast

    def test_sign_symmetry_exact(self):
        cb = make_codebook(4, 3)
        g = sample_linear_hash(2, cb.n0_bits, 23)
        assert exact_leakage(cb, g, None, "+") == pytest.approx(
            exact_leakage(cb, g, None, "-"), abs=1e-12)

    def test_hashed_leaks_less_than_identity(self):
        cb = make_codebook(4, 3)
        identity_leak = exact_leakage(
            cb, build_encoder(FiniteFieldMatrix(np.eye(cb.n0_bits, dtype=np.int64))))
        for seed in range(5):
            g = sample_linear_hash(2, cb.n0_bits, seed)
            assert exact_leakage(cb, g) <= identity_leak + 1e-12

    def test_leakage_caps(self):
        cb = make_codebook(4, 3)
        g = sample_linear_hash(2, cb.n0_bits, 3)
        leak = exact_leakage(cb, g)
        assert leak <= 2.0 + 1e-12   # never more than the secret width
        assert leak <= cb.block_dim + 1e-12

    def test_kit_and_matrix_equivalent(self):
        cb = make_codebook(4, 2)
        g = sample_linear_hash(2, cb.n0_bits, 29)
        if not full_rank_check(g):
            g = FiniteFieldMatrix(np.eye(cb.n0_bits, dtype=np.int64)[:2])
        assert exact_leakage(cb, g) == exact_leakage(cb, build_encoder(g))

    def test_fast_needs_power_of_two(self):
        cb = make_codebook(3, 2)
        g = sample_linear_hash(1, cb.n0_bits, 1)
        with pytest.raises(DomainError):
            exact_leakage(cb, g, method="fast")
        assert exact_leakage(cb, g, method="auto") >= 0.0  # enumerate fallback

    def test_enumeration_memory(self):
        # counted one key's sigma slab at a time; all 2^10 slabs of 3^10 int64
        # counts at once would take 462 MiB
        cb = make_codebook(2, 10)
        g = FiniteFieldMatrix(np.eye(cb.n0_bits, dtype=np.int64))
        tracemalloc.start()
        try:
            leak = exact_leakage(cb, g, method="enumerate")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20
        assert leak == exact_leakage(cb, g, method="fast")

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([3, 5]), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 2 ** 16), st.sampled_from(["+", "-"]))
    def test_enumeration_matches_brute_force_off_power_of_two(self, m, n_bar, r0, seed, sign):
        cb = make_codebook(m, n_bar)
        rng = np.random.default_rng(seed)
        d1, d2 = random_dithers(cb, rng), random_dithers(cb, rng)
        g = sample_linear_hash(min(r0, cb.n0_bits), cb.n0_bits, seed)
        assume(full_rank_check(g))
        oracle = brute_force_leakage(cb, build_encoder(g), d1, d2, sign)
        assert exact_leakage(cb, g, d1, sign, method="enumerate") == pytest.approx(
            oracle, abs=1e-9)


class TestSelection:
    def test_selection_contract(self):
        cb = make_codebook(4, 3)
        sel = select_secrecy_hash(cb, 2, n_candidates=12, seed=5)
        assert full_rank_check(sel.kit.g)
        assert sel.chosen_leakage <= 2 * sel.family_avg_leakage + 1e-12
        assert not sel.fallback
        assert exact_leakage(cb, sel.kit) == sel.chosen_leakage

    @settings(max_examples=40, deadline=None)
    @given(m=st.sampled_from([2, 3, 4, 8]), n_bar=st.integers(1, 3),
           sign=st.sampled_from(["+", "-"]), dither_seed=st.none() | st.integers(0, 2 ** 16),
           family=st.integers(1, 6), seed=st.integers(0, 2 ** 16), data=st.data())
    def test_family_leakages_equal_per_candidate_calls(self, m, n_bar, sign, dither_seed,
                                                       family, seed, data):
        # the tables shared across the family must give every candidate the
        # leakage freshly built ones give it (m = 3 enumerates)
        cb = make_codebook(m, n_bar)
        d1 = None if dither_seed is None else random_dithers(
            cb, np.random.default_rng(dither_seed))
        r0 = data.draw(st.integers(1, min(cb.n0_bits, 3)))
        # the selection runs first, on whatever tables the last example left
        try:
            sel = select_secrecy_hash(cb, r0, d1, sign, n_candidates=family, seed=seed)
        except DomainError:
            sel = None
        want, ranks = per_candidate_leakages(cb, r0, d1, sign, family, seed)
        if not any(ranks):
            assert sel is None
            return
        assert len(sel.leakages) == len(want)
        assert all(got == leak for got, leak in zip(sel.leakages, want))
        assert sel.full_ranks == tuple(ranks)

    def test_shared_tables_follow_dithers_and_sign(self, monkeypatch):
        # a counter gives the figure of freshly built tables for the coordinates
        # and sign it was built for, and is refused for any other
        cb = make_codebook(4, 3)
        g = sample_linear_hash(2, cb.n0_bits, 7)
        rng = np.random.default_rng(1)
        dithers = [None, random_dithers(cb, rng), random_dithers(cb, rng)]
        cases = [(d, sign) for d in dithers for sign in ("+", "-")]
        fresh = [exact_leakage(cb, g, d, sign) for d, sign in cases]
        assert len(set(fresh[::2])) == 3  # the dithers tell apart
        for i, (d, sign) in enumerate(cases):
            counter = WalshCounter(coordinate_specs(cb, d), sign)
            for j, (d2, sign2) in enumerate(cases):
                if i == j:
                    assert exact_leakage(cb, g, d2, sign2, counter=counter) == fresh[j]
                else:
                    with pytest.raises(DomainError, match="Walsh counter"):
                        exact_leakage(cb, g, d2, sign2, counter=counter)
        # a bad sign is refused before any table is built
        monkeypatch.setattr(channel, "WalshCounter", None)
        with pytest.raises(DomainError, match="sign"):
            select_secrecy_hash(cb, 2, sign="*", n_candidates=2)

    def test_deterministic(self):
        cb = make_codebook(4, 2)
        a = select_secrecy_hash(cb, 1, n_candidates=8, seed=9)
        b = select_secrecy_hash(cb, 1, n_candidates=8, seed=9)
        assert a.chosen_seed == b.chosen_seed
        assert a.chosen_leakage == b.chosen_leakage

    def test_first_policy_takes_earliest_qualifier(self):
        cb = make_codebook(4, 2)
        sel = select_secrecy_hash(cb, 1, n_candidates=8, seed=9, policy="first")
        qualified = [i for i, (l, ok) in enumerate(zip(sel.leakages, sel.full_ranks))
                     if ok and l <= 2 * sel.family_avg_leakage + 1e-12]
        assert sel.chosen_leakage == sel.leakages[qualified[0]]


class TestTrend:
    def test_small_sweep_columns(self):
        rows = leakage_trend(4, [2, 3, 4], 0.3, 0.05, family=6, seed=1)
        assert [r.n_bar for r in rows] == [2, 3, 4]
        assert [r.r0 for r in rows] == [1, 1, 2]
        for r in rows:
            assert r.leakage_bits <= 2 * r.family_avg_leakage + 1e-12
            assert r.power_1 > 0 and r.power_2 > 0

    def test_zero_rate_rows_are_exact_zero(self):
        rows = leakage_trend(2, [2, 3], 0.3, 0.05, family=4, seed=0)
        assert all(r.r0 == 0 for r in rows)
        assert all(r.leakage_bits == 0.0 for r in rows)

    def test_fixed_width_decreases(self):
        rows = leakage_trend(4, [2, 3, 4], 0.3, 0.05, family=8, seed=2, fixed_r0=1)
        leaks = [r.leakage_bits for r in rows]
        assert leaks[0] > leaks[1] > leaks[2] > 0
        assert fitted_log2_slope(rows) < 0

    def test_fixed_width_margin_guard(self):
        with pytest.raises(ConfigError):
            leakage_trend(4, [2, 3], 0.3, 0.05, family=4, fixed_r0=3)

    def test_negative_decode_trials_refused(self):
        with pytest.raises(ConfigError):
            leakage_trend(4, [2, 3], 0.3, 0.05, family=2, decode_trials=-1)

    def test_slope_needs_positive_rows(self):
        rows = [TrendRow(2, 0, 0.0, 0.0, None, 1.0, 1.0, 0)]
        with pytest.raises(DomainError):
            fitted_log2_slope(rows)


class TestRateReport:
    def test_uniform_message_rate(self):
        system = system_with_hash(4, 2, 2)
        cfg = ChannelConfig(a=2.0, b=1.0, noise_var1=1e-12, n_uses=2)
        trs = [run_message_round(cfg, system, np.array([1, 0]), s) for s in range(5)]
        rep = secrecy_rate_report(trs, leakage=0.01)
        assert rep.rate_bits_per_use == pytest.approx(1.0)
        assert rep.reliability_error_rate == 0.0
        assert rep.leakage_bits == 0.01
