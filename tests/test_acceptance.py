"""End-to-end acceptance suite.

Each test pins one verification target at its final tolerance and prints a
PASS line with the measured figure, so `pytest -s tests/test_acceptance.py`
doubles as the project's checklist run.
"""
import itertools
import math
import time

import mpmath
import numpy as np
import pytest

from latsec.channel import (ChannelConfig, fitted_log2_slope, leakage_trend,
                            make_codebook)
from latsec.entropy import (conditional_entropy_floor_sweep,
                            violation_mass_grid_sweep)
from latsec.extractor import (ExtractorSpec, KeyAgreementRunner,
                              KeyProtocolSetup, key_secrecy_report)
from latsec.hashing import (BitLabeling, build_encoder,
                            decode_secret, encode_secret, exact_hashed_entropy,
                            exact_full_rank_probability, flat_bit_source,
                            full_rank_fraction_exhaustive, full_rank_fraction_mc,
                            full_rank_lower_bound, geometric_bit_source,
                            int_to_bits, privacy_amp_bound, renyi2_entropy,
                            sample_linear_hash, full_rank_check)
from latsec.lattice import (NestedLatticePair, ScaledLattice,
                            dithered_sum_secrecy_report, reconstruct_sum,
                            representation_index)
from latsec.sdof import alpha_of, beta_of, sdof_of
from latsec.cli import main as cli_main


def test_01_conditional_entropy_floor_on_random_joints():
    rep = conditional_entropy_floor_sweep(trials=10000, max_x=8, max_t=8, seed=2024)
    assert rep.violations == 0
    assert rep.elapsed_s < 10.0
    print(f"\nPASS 01 conditional-entropy floor: {rep.trials} joints, "
          f"0 violations, worst deficit {rep.max_deficit:.3e}, {rep.elapsed_s:.1f}s")


def test_02_tail_bounds_on_quantized_simplex_grid():
    rep = violation_mass_grid_sweep(max_x=4, max_t=4, mass_step=8,
                                    s_values=(0.5, 1.0, 2.0, 4.0))
    assert rep.bound_violations_renyi2 == 0
    assert rep.bound_violations_min == 0
    assert rep.elapsed_s < 60.0
    print(f"PASS 02 tail bounds: {rep.joints} grid joints x 4 s-values, "
          f"0 violations (max masses {rep.max_mass_renyi2:.3f}/"
          f"{rep.max_mass_min:.3f}), {rep.elapsed_s:.1f}s")


def test_03_sum_representation_round_trip():
    start = time.perf_counter()
    cases = 0
    for dim in (1, 2):
        for k in (1, 2, 3):
            for m in (2, 3, 4):
                lat = ScaledLattice(dim, 1.0)
                grid_1d = [-0.5 + j / m for j in range(m)]
                pts = [np.array(p) for p in itertools.product(grid_1d, repeat=dim)]
                for combo in itertools.product(pts, repeat=k):
                    idx, w = representation_index(list(combo), lat)
                    assert 1 <= idx.T <= k ** dim
                    total = np.sum(combo, axis=0)
                    assert np.allclose(reconstruct_sum(idx, w, lat), total, atol=1e-9)
                    cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS 03 sum representation: {cases} exhaustive cases, "
          f"100% exact round trips, T <= K^N throughout, {elapsed:.1f}s")


def test_04_real_sum_discloses_at_most_n_bits():
    rng = np.random.default_rng(99)
    checked = 0
    worst = -1.0
    for dim in (1, 2):
        for m in (2, 3, 4):
            pair = NestedLatticePair(dim, float(m), m)
            c = pair.coarse_scale
            dither_sets = [(np.zeros(dim), np.zeros(dim)),
                           (c * rng.random(dim) - c / 2, c * rng.random(dim) - c / 2)]
            for d1, d2 in dither_sets:
                for sign in ("+", "-"):
                    rep = dithered_sum_secrecy_report(pair, d1, d2, sign,
                                                      2.0, "shannon")
                    assert rep.passed
                    assert rep.shannon_gap <= dim + 1e-9
                    worst = max(worst, rep.shannon_gap - dim)
                    checked += 1
    print(f"PASS 04 real-sum disclosure: {checked} configs, every Shannon gap "
          f"within N bits (worst margin {worst:.3e})")


def test_05_full_rank_fractions():
    for r in range(1, 4):
        for n in range(r, 6):
            frac = full_rank_fraction_exhaustive(r, n)
            assert frac >= full_rank_lower_bound(r, n) - 1e-15
            assert abs(frac - exact_full_rank_probability(r, n)) <= 1e-12
    mc = full_rank_fraction_mc(8, 16, 100000, seed=7)
    exact = exact_full_rank_probability(8, 16)
    sigma = math.sqrt(exact * (1 - exact) / 100000)
    assert abs(mc - exact) <= 3 * sigma
    print(f"PASS 05 full-rank fractions: exhaustive r<=3, N<=5 all exact; "
          f"MC {mc:.5f} within 3 sigma of {exact:.5f}")


def test_06_hashed_entropy_floor():
    start = time.perf_counter()
    checked = 0
    for r in (1, 2):
        for n in (2, 3):
            sources = [(f"flat{1 << c}", flat_bit_source(n, 1 << c))
                       for c in range(0, n + 1)]
            sources.append(("geometric", geometric_bit_source(n)))
            for c in (1.0, 2.0, 3.0):
                for name, src in sources:
                    if renyi2_entropy(src) < c:
                        continue
                    h = exact_hashed_entropy(src, r)
                    floor = privacy_amp_bound(r, 2, c)
                    assert h > floor
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS 06 hashed-entropy floor: {checked} (source, r, c) cases "
          f"all above r - 2^(r-c)/ln2, {elapsed:.1f}s")


def test_07_encoder_bijectivity_and_uniformity():
    checked = 0
    for n_bits, r in ((4, 1), (6, 2), (8, 3), (10, 4)):
        pair = NestedLatticePair(1, float(1 << n_bits), 1 << n_bits)
        labeling = BitLabeling([pair])
        g = next(sample_linear_hash(r, n_bits, s) for s in range(50)
                 if full_rank_check(sample_linear_hash(r, n_bits, s)))
        kit = build_encoder(g)
        seen = set()
        for s_int in range(1 << r):
            for sp_int in range(1 << (n_bits - r)):
                s = int_to_bits(s_int, r)
                sp = int_to_bits(sp_int, n_bits - r)
                point = encode_secret(kit, s, sp, labeling)
                sp_back, s_back = decode_secret(kit, point, labeling)
                assert np.array_equal(s_back, s) and np.array_equal(sp_back, sp)
                seen.add(tuple(np.round(point, 9)))
                checked += 1
        assert len(seen) == 1 << n_bits  # uniform input sweeps the subset once
    print(f"PASS 07 encoder: {checked} (secret, randomness) pairs, "
          f"100% round trips, uniformity preserved up to 10 label bits")


def test_08_leakage_decay_with_selected_hash():
    start = time.perf_counter()
    n_bars = list(range(2, 9))

    # per-blocklength secret width from the rate margin (eps=0.3, delta=0.05)
    rows = leakage_trend(4, n_bars, eps=0.3, delta=0.05, family=16, seed=0,
                         policy="best")
    for row in rows:
        assert row.r0 >= 1
        assert row.leakage_bits <= 2 * row.family_avg_leakage + 1e-12
    slope_marginal = fitted_log2_slope(rows)
    assert slope_marginal < 0

    # decay isolated from the width's integer jumps: the width fixed at its
    # blocklength-2 value (1 bit) stays admissible at every blocklength
    fixed = leakage_trend(4, n_bars, eps=0.3, delta=0.05, family=16, seed=0,
                          policy="best", fixed_r0=1)
    leaks = [row.leakage_bits for row in fixed]
    assert all(b < a for a, b in zip(leaks, leaks[1:]))
    slope_fixed = fitted_log2_slope(fixed)
    assert slope_fixed < 0

    elapsed = time.perf_counter() - start
    print(f"PASS 08 leakage decay: selected hash <= 2x family average at every "
          f"N_bar in 2..8 (slope {slope_marginal:.3f}); fixed-width column "
          f"strictly decreasing (slope {slope_fixed:.3f}), {elapsed:.0f}s")


def test_09_key_protocol_secrecy_and_agreement():
    codebook = make_codebook(4, 4, 1)  # 8 label bits
    assert codebook.n0_bits == 8
    r = 2
    report = key_secrecy_report(codebook, r)
    assert report.eps_sec == pytest.approx(
        2.0 ** (-(report.budget_c - r) / 2), abs=1e-12)
    assert report.h_key_given_view >= r - report.eps_sec
    assert report.passed

    spec = ExtractorSpec(codebook.n0_bits, r)
    setup = KeyProtocolSetup(codebook, spec,
                             tuple(np.zeros(l.dim) for l in codebook.layers),
                             tuple(np.zeros(l.dim) for l in codebook.layers))
    cfg = ChannelConfig(a=2.0, b=1.0, noise_var1=1e-12, n_uses=4)
    runner = KeyAgreementRunner(cfg, setup)
    rate = runner.agreement_rate(1000, seed=77)
    assert rate == 1.0
    print(f"PASS 09 key protocol: H(K|view) = {report.h_key_given_view:.4f} >= "
          f"{r} - {report.eps_sec:.4f}; agreement 1000/1000 at sigma1 = 1e-6")


def test_10_dof_formulas_against_high_precision():
    mpmath.mp.dps = 50
    g = mpmath.mpf("0.1")
    alpha_hp = (1 - 2 * g ** 2 + mpmath.sqrt(1 - 4 * g ** 2)) / (2 * g ** 4)
    beta_hp = 1 + (1 + g) ** 2
    numer = mpmath.mpf("0.25") * mpmath.log(alpha_hp, 2) - 1
    denom = mpmath.mpf("0.5") * mpmath.log(alpha_hp * beta_hp + 1, 2)
    expected = float(numer / denom)

    value = sdof_of(alpha_of(0.1), beta_of(1, 1, 0.1))
    assert value == pytest.approx(expected, abs=1e-9)
    assert sdof_of(16.0, 3.0) == 0.0
    near_half = sdof_of(alpha_of(0.4999999), beta_of(1, 1, 0.4999999))
    assert near_half == 0.0
    print(f"PASS 10 dof formulas: composed value {value:.12f} matches 50-digit "
          f"evaluation to 1e-9; both clamp boundaries exact")


def test_11_cli_reproducibility(tmp_path):
    invocations = {
        "entropy-check": ["entropy-check", "--trials", "300", "--grid-max", "2"],
        "lattice-verify": ["lattice-verify", "--n", "1", "--m", "3",
                           "--dither", "random"],
        "hash-bench": ["hash-bench", "--r-max", "2", "--n-max", "4",
                       "--mc-r", "4", "--mc-n", "8", "--mc-trials", "5000"],
        "amplify": ["amplify", "--r", "2", "--n", "3"],
        "keygen": ["keygen", "--nbar", "2", "--m", "4", "--r", "1",
                   "--trials", "25"],
        "simulate": ["simulate", "--nbar", "2", "--m", "4", "--r0", "1",
                     "--trials", "10", "--family", "3"],
        "leakage-trend": ["leakage-trend", "--nbar", "2:4", "--family", "4"],
        "sdof": ["sdof", "--grid", "1.0:2.0:0.2", "--qmax", "6"],
    }
    for fmt in ("csv", "json"):
        for name, args in invocations.items():
            first = tmp_path / f"{name}-1.{fmt}"
            second = tmp_path / f"{name}-2.{fmt}"
            rc1 = cli_main(args + ["--seed", "11", "--format", fmt,
                                   "--out", str(first)])
            rc2 = cli_main(args + ["--seed", "11", "--format", fmt,
                                   "--out", str(second)])
            assert rc1 == 0 and rc2 == 0
            assert first.read_bytes() == second.read_bytes()
    print("PASS 11 reproducibility: all 8 subcommands byte-identical across "
          "repeat runs in csv and json")
