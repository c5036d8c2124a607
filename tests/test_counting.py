"""The Walsh counting kernel against the enumeration route and a brute-force
oracle, its reflection fold, its reuse across hashes, the all-seed count,
its chunking, its cell cap and its memory."""
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import brute_force_histograms
from latsec import counting
from latsec.channel import exact_leakage, make_codebook, random_dithers, select_secrecy_hash
from latsec.counting import (CellCapError, Coordinate, WalshCounter, reflection_folds,
                             seed_histogram)
from latsec.extractor import key_secrecy_report
from latsec.hashing import FiniteFieldMatrix, sample_linear_hash


@st.composite
def leakage_instances(draw):
    m = draw(st.sampled_from([2, 4, 8]))
    cb = make_codebook(m, draw(st.integers(1, 3)))
    n0 = cb.n0_bits
    r0 = draw(st.integers(1, min(n0, 4)))
    bits = draw(st.lists(st.integers(0, 1), min_size=r0 * n0, max_size=r0 * n0))
    entries = np.array(bits).reshape(r0, n0)
    deficient = draw(st.booleans())
    if deficient:
        # the last row repeats the xor of two others, or is zero
        entries[-1] = (entries[0] ^ entries[1]) if r0 > 1 else 0
    g = FiniteFieldMatrix(entries)
    assume((g.rank() < r0) == deficient)
    d1 = random_dithers(cb, np.random.default_rng(draw(st.integers(0, 2 ** 16))))
    return cb, g, d1, draw(st.sampled_from(["+", "-"]))


@settings(max_examples=60, deadline=None)
@given(leakage_instances())
def test_walsh_leakage_matches_enumeration(instance):
    cb, g, d1, sign = instance
    fast = exact_leakage(cb, g, d1, sign, method="fast")
    assert fast == exact_leakage(cb, g, d1, sign, method="enumerate")


@st.composite
def counting_instances(draw):
    coords = [Coordinate(m, draw(st.integers(0, m - 1)))
              for m in draw(st.lists(st.sampled_from([2, 4, 8]), min_size=1, max_size=3))]
    n0 = sum(c.m.bit_length() - 1 for c in coords)
    r = draw(st.integers(1, min(n0, 3)))
    n_hashes = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(0, (1 << n0) - 1), min_size=r, max_size=r),
                         min_size=n_hashes, max_size=n_hashes))
    return coords, draw(st.sampled_from(["+", "-"])), rows


@settings(max_examples=80, deadline=None)
@given(counting_instances())
def test_kernel_matches_brute_force_histogram(instance):
    # the fold and the block weights must reproduce the full histograms
    # exactly, the zero-count bin included
    coords, sign, rows = instance
    counter = WalshCounter(coords, sign)
    hist, hist_w = counter.histogram(rows), counter.hist_w
    want, want_w = brute_force_histograms(coords, sign, rows)
    assert hist.tolist() == want.tolist()
    assert hist_w.tolist() == want_w.tolist()


@st.composite
def seed_count_instances(draw):
    coords = [Coordinate(m, draw(st.integers(0, m - 1)))
              for m in draw(st.lists(st.sampled_from([2, 4, 8]), min_size=1, max_size=3))]
    n0 = sum(c.m.bit_length() - 1 for c in coords)
    assume(n0 <= 8)
    return coords, draw(st.sampled_from(["+", "-"])), draw(st.integers(0, 8 // n0))


@settings(max_examples=40, deadline=None)
@given(seed_count_instances())
@example(([Coordinate(8, 3)], "+", 2))       # an unfolded coordinate
@example(([Coordinate(8, 5), Coordinate(2, 1)], "-", 2))
@example(([Coordinate(4, 1), Coordinate(2, 0), Coordinate(4, 2)], "+", 0))
def test_seed_histogram_matches_brute_force_over_every_seed(instance):
    # every r-row seed, each row an n0-bit integer, through the brute-force
    # oracle: the histograms agree bin for bin, keys outside a seed's image
    # (the zero bin) included; at r = 0 the count is the window histogram
    coords, sign, r = instance
    n0 = sum(c.m.bit_length() - 1 for c in coords)
    seeds = list(itertools.product(range(1 << n0), repeat=r))
    want, want_w = brute_force_histograms(coords, sign, seeds)
    assert seed_histogram(coords, sign, r).tolist() == (want if r else want_w).tolist()
    assert seed_histogram(coords, sign, 0).tolist() == WalshCounter(coords, sign).hist_w.tolist()


def test_counter_reuse_matches_fresh_counters():
    # four m = 16 coordinates: the Walsh bound 2^r * 256 * 256 reaches 2^24 at
    # r = 8, so that call counts in float64 and the others in float32; one
    # counter serves every width in any order, each as a fresh one would
    coords = [Coordinate(16, s) for s in (0, 4, 8, 12)]
    rng = np.random.default_rng(3)
    counter = WalshCounter(coords, "-")
    for r, n_hashes in ((2, 3), (8, 1), (1, 2), (3, 1), (2, 1)):
        rows = rng.integers(0, 1 << 16, size=(n_hashes, r))
        fresh = WalshCounter(coords, "-")
        assert counter.histogram(rows).tolist() == fresh.histogram(rows).tolist()
        assert counter.hist_w.tolist() == fresh.hist_w.tolist()


def test_selection_memory_stays_at_one_leakage():
    # the family's histograms are evaluated and dropped one by one, so a
    # family of 16 peaks where a single exact_leakage call does, each
    # measured from a build of the tables
    cb = make_codebook(8, 4)
    g = sample_linear_hash(3, cb.n0_bits, 1)
    peaks = []
    for run in (lambda: exact_leakage(cb, g, None, "-"),
                lambda: select_secrecy_hash(cb, 3, None, "-", n_candidates=16)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("m, folding", [(2, {0, 1}), (4, {0, 1, 2, 3}), (8, {0, 2, 4, 6}),
                                        (16, {0, 4, 8, 12})])
def test_reflection_folds_exactly_at_xor_shifts(m, folding, sign):
    assert {s for s in range(m) if reflection_folds(Coordinate(m, s), sign)} == folding


# Every column block of the two leakage hashes is narrower than Lambda (16
# and 8), so the signed product, not the count array, sets the chunk: 7 and
# 100 cells give one row of a block per matmul and one seed per chunk; 2000
# gives several of both, and 300 several for the 3-row hash.  The audits'
# all-seed counts chunk the (4, 3, 2) audit's tuple tables and the half
# product of its two right coordinates at every size but 2000, and the
# cross of the (4, 2, 3) audit's halves at every size, down to one tuple,
# one state row and one pair of states a chunk at 7 cells.
@pytest.mark.parametrize("cells", [7, 100, 300, 2000])
def test_figures_do_not_depend_on_chunking(monkeypatch, cells):
    cb = make_codebook(4, 3)
    d1 = random_dithers(cb, np.random.default_rng(1))
    hashes = [sample_linear_hash(r0, cb.n0_bits, 5) for r0 in (3, 4)]
    audits = [(make_codebook(4, 2), 3, None, "+"), (cb, 2, d1, "-")]
    leaks = [exact_leakage(cb, g, d1, "-") for g in hashes]
    reports = [key_secrecy_report(*audit) for audit in audits]
    monkeypatch.setattr(counting, "CHUNK_CELLS", cells)
    assert [exact_leakage(cb, g, d1, "-") for g in hashes] == leaks
    assert [key_secrecy_report(*audit) for audit in audits] == reports


@pytest.mark.parametrize("coords, r, cap, stage, table_mib", [
    ([Coordinate(16, 0)] * 5, 1, 1 << 19, "histogram's bins", 8),
    ([Coordinate(16, 0)], 4, 1 << 20, "tuple tables", 128),
    ([Coordinate(8, 0)] * 3, 3, 200_000, "half products", 7.5),
    ([Coordinate(4, 0)] * 5, 3, None, "cross of the halves", 390),
], ids=["bins", "tuple-tables", "half-products", "cross"])
def test_cell_cap_refuses_before_allocating(monkeypatch, coords, r, cap, stage, table_mib):
    # each check runs before the allocation it guards: the refused table
    # (table_mib of int64 or float64) is never built
    if cap is not None:
        monkeypatch.setattr(counting, "SEED_CELL_CAP", cap)
    tracemalloc.start()
    try:
        with pytest.raises(CellCapError, match=stage):
            seed_histogram(coords, "+", r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_mib * 2 ** 20 / 4


def test_seed_histogram_refuses_int64_overflow():
    # (N_bar=10, r=2) at m=4 counts 2^42 seeds x 4 keys x 7^10 sums, 1.2e21
    # triples, which would wrap around in int64; refused before any work
    tracemalloc.start()
    try:
        with pytest.raises(CellCapError, match="overflow int64"):
            seed_histogram([Coordinate(4, 0)] * 10, "+", 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def test_peak_memory_of_largest_leakage():
    # the N_bar=8, r0=5 row of the m=4 trend: the folded kernel needs about
    # 7 MiB of numpy buffers, the unfolded one 18 MiB
    cb = make_codebook(4, 8)
    g = sample_linear_hash(5, cb.n0_bits, 7)
    tracemalloc.start()
    try:
        exact_leakage(cb, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


def test_peak_memory_of_widest_key_audit():
    # the (N_bar=4, r=2) audit of the keygen benchmark: its chunk intermediates
    # peaked at 13.85 MiB with 2^20-cell chunks and 3.85 MiB with 2^18, one
    # Walsh pass per row space; the all-seed count peaks near 1.3 MiB
    cb = make_codebook(4, 4)
    tracemalloc.start()
    try:
        key_secrecy_report(cb, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20
