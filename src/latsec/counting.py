"""Walsh counting of sender labels behind a GF(2) hash and an observed sum.

Both exact secrecy figures -- the eavesdropper's information about a hashed
secret (`channel.exact_leakage`) and the key's equivocation given the
eavesdropper's view (`extractor.key_secrecy_report`) -- reduce to one
integer count N(k, sigma): the number of sender labels that the hash with
rows h_1..h_r maps to k and that are consistent with the coordinate-wise
sum sigma.  With the window indicator F[sigma, i] and the character table
P[mu, sigma] = sum_i (-1)^(mu.i) F[sigma, i],

    N(k, sigma) = 2^-r sum_lambda (-1)^(k.lambda) P[xor_{j in lambda} h_j, sigma].

A label concatenates per-coordinate index blocks, coordinate 0 in the most
significant bits, so P factors over coordinates: P[mu, sigma] is the product
of the per-coordinate tables G_c[mu_c, sigma_c].  The package counts with it
in two ways.

`WalshCounter.histogram` counts given hashes, as exact leakage needs.  The
coordinates are split into two halves of similar sum-alphabet size, and a
row of P is the outer product U[mu_L] (x) V[mu_R] of two half-tables: the
sum over lambda is one matmul per key value, and no 2^n0-by-sigma table is
ever built.

`seed_histogram` counts every seed of r rows at once, as the key audit
needs.  Restricted to coordinate c, a seed's rows are an r-tuple
(mu_1..mu_r) of that coordinate's masks, chosen independently for each
coordinate, so the seed's lambda-vector (P[xor_{j in lambda} h_j, sigma])_lambda
is the elementwise product over coordinates of the vectors
(G_c[xor_{j in lambda} mu_j, sigma_c])_lambda.  Each coordinate contributes
the distinct such vectors over every r-tuple and kept sigma_c, with integer
multiplicities; each half of the coordinates multiplies its tables out,
keeping only distinct products; and every pair of half states gives its 2^r
counts by one Walsh transform, weighted by the product of the two
multiplicities.  Summing over all 2^(r n0) seeds thus touches a few
thousand states instead of one Walsh pass per seed or row space.  At r = 0
the one count per sigma is the window size W(sigma), so the same call gives
the window histogram.

Reflecting one coordinate's sum, sigma_j -> 2m-2-sigma_j, is a symmetry of
the counts whenever it equals XOR-relabelling that coordinate's sender
indices, i.e. F[::-1] == F[:, i ^ d] for some d; this is checked numerically
per coordinate (`reflection_folds`).  The hash is linear over GF(2), so the
relabelling XORs every key value with one constant, and the multiset
{N(k, sigma)} over k is the same at sigma and at its reflection.  A folded
coordinate keeps only sigma_j <= m-1: each sigma_j < m-1 counts twice and
the centre sigma_j = m-1 once.  Every m = 2 or 4 coordinate folds; m = 8
folds at even shifts, m = 16 at shifts 0, 4, 8, 12.  A coordinate that does
not fold keeps all 2m-1 sums, each counted once.  `WalshCounter` groups the
kept columns of each half-table by how many folded off-centre coordinates
they hold and adds a block pair's histogram with weight 2^(that number);
`seed_histogram` carries the weight 2 in the sum's multiplicity.

A `WalshCounter` builds its tables once per (coordinates, sign) and counts
every hash of a family against them.  Counts are exact integers,
histogrammed in int64 across chunks, blocks, hashes and states, so a
histogram depends neither on how the work was chunked nor on the fold;
callers evaluate sum N log2 N from it with `entropy.xlog2x_sum`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Cells per matmul intermediate; the chunk bounds the kernel's working
# memory.  On a 2-vCPU x86 VM (Python 3.11, numpy 2.4), going from 2^20 to
# 2^18 cells took the (N_bar=4, r=2) key audit's tracemalloc peak, which set
# the `leakage_keygen` benchmark's peak RSS, from 13.85 to 3.85 MiB; per
# traced pass its three key audits went 0.111 -> 0.096 s and its exact
# leakage rows 0.086 -> 0.100 s, so the pass took as long as before.
CHUNK_CELLS = 1 << 18

# Cells one `seed_histogram` call may touch in all: the histogram's bins,
# every coordinate's tuple table, every half product before it is
# de-duplicated and the cross of the two halves.  On the same VM a cross
# cell cost about 6 ns and a tuple-table cell about 20 ns.  Over every m in
# {2, 4, ..., 64, 256}, N_bar and r that the cap admits, with zero shifts, no
# count took more than 0.83 s (m=256, N_bar=3, r=0, nearly all of it bins);
# the m=4 audit at (N_bar=4, r=3) took 0.05 s, and (N_bar=5, r=3), whose
# cross alone holds 5.2e7 cells, is refused.  The cap also keeps every
# Walsh sum, at most 2^r prod(m) with both factors under the cap, below
# 2^53, so float64 transforms the counts exactly.
SEED_CELL_CAP = 1 << 25


class CellCapError(RuntimeError):
    """A seed count would touch more than SEED_CELL_CAP cells or overflow int64."""


@dataclass(frozen=True)
class Coordinate:
    """One label coordinate: m sender indices, rotated by the dither's cyclic shift."""

    m: int
    shift: int


def window_indicator(coord: Coordinate, sign: str) -> np.ndarray:
    """F[sigma, i] = 1 when sender index i is consistent with observed sum sigma."""
    m = coord.m
    j1 = (np.arange(m) + coord.shift) % m
    sig = np.arange(2 * m - 1)[:, None]
    offset = sig - j1 if sign == "+" else j1 - (sig - (m - 1))
    return ((offset >= 0) & (offset <= m - 1)).astype(np.int64)


def _hadamard(n: int) -> np.ndarray:
    """Sylvester matrix: H[a, b] = (-1)^popcount(a & b) for a power of two n."""
    both = np.arange(n)[:, None] & np.arange(n)
    parity = np.zeros((n, n), dtype=np.int64)
    for bit in range(n.bit_length() - 1):
        parity ^= (both >> bit) & 1
    return 1 - 2 * parity


def char_table(coord: Coordinate, sign: str) -> np.ndarray:
    """G[mu, sigma] = sum_i (-1)^(mu.i) F[sigma, i] for every mask mu (m a power of two)."""
    return _hadamard(coord.m) @ window_indicator(coord, sign).T


def reflection_folds(coord: Coordinate, sign: str) -> bool:
    """Whether sigma -> 2m-2-sigma acts on the window as an XOR relabelling i -> i ^ d."""
    f = window_indicator(coord, sign)
    idx = np.arange(coord.m)
    return any(np.array_equal(f[::-1], f[:, idx ^ d]) for d in range(coord.m))


def _kept_columns(coord: Coordinate, sign: str) -> tuple[np.ndarray, np.ndarray]:
    """The char-table columns the kernel counts, and which of them count twice."""
    tab = char_table(coord, sign)
    if not reflection_folds(coord, sign):
        return tab, np.zeros(tab.shape[1], dtype=np.int64)
    return tab[:, :coord.m], (np.arange(coord.m) < coord.m - 1).astype(np.int64)


def _half_blocks(kept: list[tuple[np.ndarray, np.ndarray]]) -> list[tuple[int, np.ndarray]]:
    """Kronecker product of the kept tables (row mu_0 mu_1 ..., column sigma_0
    sigma_1 ...), its columns split by their number of off-centre folds."""
    out = np.ones((1, 1), dtype=np.int64)
    folds = np.zeros(1, dtype=np.int64)
    for tab, off in kept:
        out = (out[:, None, :, None] * tab[None, :, None, :]).reshape(
            out.shape[0] * tab.shape[0], -1)
        folds = (folds[:, None] + off).ravel()
    return [(c, out[:, folds == c]) for c in range(int(folds.max()) + 1)]


def _balanced_cut(widths: Sequence[int]) -> int:
    """Number of leading coordinates whose product of widths (kept sums, or
    distinct tuple-table rows) best balances the rest."""
    total = math.prod(widths)
    best_cut, best_gap = 1, float("inf")
    left = 1
    for cut in range(1, len(widths)):
        left *= widths[cut - 1]
        gap = abs(left - total / left)
        if gap < best_gap:
            best_cut, best_gap = cut, gap
    return best_cut


def _distinct(states: np.ndarray, mult: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of states, each with the summed multiplicity of its
    copies.  Rows are sorted as fixed-width digits packed into int64 words,
    so equal rows, and only they, become neighbours."""
    low = int(states.min())
    width = max(1, (int(states.max()) - low).bit_length())
    per_word = 63 // width
    words = []
    for j in range(0, states.shape[1], per_word):
        digits = states[:, j:j + per_word] - low
        words.append((digits << (width * np.arange(digits.shape[1]))).sum(axis=1))
    order = np.lexsort(words)
    keys = np.stack(words)[:, order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    starts = np.flatnonzero(first)
    return states[order[starts]], np.add.reduceat(mult[order], starts)


def _distinct_union(parts) -> tuple[np.ndarray, np.ndarray]:
    """`_distinct` of the union of (states, mult) chunks, each made distinct first."""
    parts = [_distinct(*part) for part in parts]
    if len(parts) == 1:
        return parts[0]
    return _distinct(np.concatenate([s for s, _ in parts]), np.concatenate([w for _, w in parts]))


def _tuple_table(tab: np.ndarray, off: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """One coordinate's distinct lambda-vectors (G[xor_{j in lambda} mu_j, sigma])_lambda
    over every r-tuple of masks (mu_1..mu_r) and every kept sigma, with their
    multiplicities; tab and off are the coordinate's `_kept_columns`."""
    m, n_k = tab.shape[0], 1 << r
    bits = m.bit_length() - 1
    lam = np.arange(n_k)
    step = max(1, CHUNK_CELLS // (n_k * tab.shape[1]))

    def chunk(t0):
        # digit j of a tuple index is row j's mask, row 0 in the top digit
        tuples = np.arange(t0, min(t0 + step, m ** r))[:, None]
        masks = np.zeros((tuples.size, n_k), dtype=np.int64)
        for j in range(r):
            masks ^= ((tuples >> (bits * (r - 1 - j))) & (m - 1)) * ((lam >> (r - 1 - j)) & 1)
        vectors = tab[masks].transpose(0, 2, 1).reshape(-1, n_k)  # (tuple, sigma) rows
        return vectors, np.tile(1 + off, tuples.size)

    return _distinct_union(chunk(t0) for t0 in range(0, m ** r, step))


def seed_histogram(coords: Sequence[Coordinate], sign: str, r: int) -> np.ndarray:
    """hist[v], the number of (seed, k, sigma) with N(k, sigma) = v over every
    seed of r hash rows on these coordinates: 2^(r n0) seeds, each with 2^r
    key values k at every sum sigma.  At r = 0 there is one seed and one key,
    and hist is the window histogram.  Every coordinate's m must be a power
    of two; the histogram has prod(m) + 1 bins.

    Refused with `CellCapError` before the allocation that would take the
    cells touched past SEED_CELL_CAP, and before any work when the number of
    (seed, k, sigma), 2^(r n0 + r) prod(2m - 1), which bounds every
    multiplicity and bin, would overflow int64.
    """
    return _count_seeds([_kept_columns(c, sign) for c in coords], r)


def _count_seeds(kept: list[tuple[np.ndarray, np.ndarray]], r: int) -> np.ndarray:
    """`seed_histogram` from the coordinates' `_kept_columns`."""
    n_k = 1 << r
    ms = [tab.shape[0] for tab, _ in kept]
    n0 = sum(m.bit_length() - 1 for m in ms)
    total = (1 << (r * n0 + r)) * math.prod(2 * m - 1 for m in ms)
    if total >= 1 << 63:
        raise CellCapError(f"{total} counted (seed, key, sum) triples overflow int64")
    spent = 0

    def spend(cells: int, what: str):
        nonlocal spent
        spent += cells
        if spent > SEED_CELL_CAP:
            raise CellCapError(f"{what} take the cells touched to {spent}, "
                               f"past cap {SEED_CELL_CAP}")

    size = math.prod(ms) + 1
    spend(size, "the histogram's bins")
    hist = np.zeros(size, dtype=np.int64)
    tables = []
    for tab, off in kept:
        spend(tab.shape[0] ** r * tab.shape[1] * n_k, "the tuple tables")
        tables.append(_tuple_table(tab, off, r))

    cut = _balanced_cut([t.shape[0] for t, _ in tables])
    halves = []
    for half in (tables[:cut], tables[cut:]):
        states, mult = np.ones((1, n_k), dtype=np.int64), np.ones(1, dtype=np.int64)
        for tab, weights in half:
            spend(states.shape[0] * tab.shape[0] * n_k, "the half products")
            step = max(1, CHUNK_CELLS // (tab.shape[0] * n_k))
            states, mult = _distinct_union(
                ((states[s0:s0 + step, None, :] * tab).reshape(-1, n_k),
                 (mult[s0:s0 + step, None] * weights).ravel())
                for s0 in range(0, states.shape[0], step))
        halves.append((states.astype(np.float64), mult))

    (a, a_mult), (b, b_mult) = halves
    spend(a.shape[0] * b.shape[0] * n_k, "the cross of the halves")
    signs = _hadamard(n_k).astype(np.float64)
    b_chunk = max(1, min(b.shape[0], CHUNK_CELLS // n_k))
    a_chunk = max(1, CHUNK_CELLS // (b_chunk * n_k))
    for a0 in range(0, a.shape[0], a_chunk):
        for b0 in range(0, b.shape[0], b_chunk):
            walsh = (a[a0:a0 + a_chunk, None, :] * b[b0:b0 + b_chunk]) @ signs
            # exact integers 2^r N, so truncation and the shift are exact
            counts = walsh.astype(np.int64) >> r
            weights = a_mult[a0:a0 + a_chunk, None] * b_mult[b0:b0 + b_chunk]
            np.add.at(hist, counts.ravel(), np.repeat(weights.ravel(), n_k))
    return hist


class WalshCounter:
    """The kernel's hash-independent tables for one set of coordinates and sign.

    Building the counter computes the kept char-table columns, the balanced
    cut, the half-table blocks and the window histogram once; `histogram`
    then counts any number of hashes against them, keeping the blocks in the
    float dtype of the latest call.  Every coordinate's m must be a power of
    two.  `coords` and `sign` record what the tables were built for.

    hist_w[v] is the number of sigma whose window W(sigma), N summed over k,
    holds v labels, which no hash changes: `seed_histogram` at r = 0.  It has
    prod(m) + 1 bins, the centre window's size plus one.
    """

    def __init__(self, coords: list[Coordinate], sign: str):
        self.coords = tuple(coords)
        self.sign = sign
        kept = [_kept_columns(c, sign) for c in coords]
        cut = _balanced_cut([tab.shape[1] for tab, _ in kept])
        self._left = _half_blocks(kept[:cut])    # blocks of (2^bits_left, a) columns
        self._right = _half_blocks(kept[cut:])   # blocks of (2^bits_right, b) columns
        self._bits_right = sum(c.m.bit_length() - 1 for c in coords[cut:])
        self._u_max = float(max(np.abs(ub).max() for _, ub in self._left))
        self._v_max = float(max(np.abs(vb).max() for _, vb in self._right))
        self.hist_w = _count_seeds(kept, 0)

    def _blocks(self, dtype) -> tuple[list, list]:
        """The half-table blocks, held in one dtype at a time and recast block by
        block.  Every entry is an integer no larger than the Walsh bound, so it
        is exact in whichever dtype that bound picks, and recasting loses nothing."""
        for blocks in (self._left, self._right):
            for i, (c, block) in enumerate(blocks):
                if block.dtype != dtype:
                    blocks[i] = (c, block.astype(dtype))
        return self._left, self._right

    def histogram(self, rows) -> np.ndarray:
        """hist[v], the number of (hash, k, sigma) with N(k, sigma) = v.

        rows is an (S, r) array: S hashes, each given by its r rows as n0-bit
        integers.  The histogram has the length of hist_w.
        """
        rows = np.asarray(rows, dtype=np.int64)
        hist = np.zeros_like(self.hist_w)
        bits_right = self._bits_right

        r = rows.shape[1]
        n_k = 1 << r
        lam = np.arange(n_k)
        mus = np.zeros((rows.shape[0], n_k), dtype=np.int64)
        for j in range(r):
            mus ^= ((lam >> (r - 1 - j)) & 1) * rows[:, j:j + 1]

        # Walsh sums stay below 2^r * max|U| * max|V|; float32 is exact whenever
        # that fits in its 24-bit mantissa
        bound = n_k * self._u_max * self._v_max
        dtype = np.float32 if bound < (1 << 24) else np.float64
        signs = _hadamard(n_k).astype(dtype)[None, :, None, :]  # (1, K, 1, Lambda)
        scale = dtype(1.0 / n_k)  # counts = 2^-r * Walsh sum, exactly integral
        low = (1 << bits_right) - 1
        left, right = self._blocks(dtype)

        for ca, ub in left:
            a_size = ub.shape[1]
            for cb, vb in right:
                # the chunk bounds every intermediate, not just the counts
                # (s, K, a, b): the signed product (s, K, a, Lambda) and the
                # gathered rows (s, a, Lambda), (s, Lambda, b) too, since in a
                # narrow block they can outgrow the counts
                width = n_k * max(vb.shape[1], n_k)
                s_chunk = max(1, CHUNK_CELLS // (width * max(a_size, n_k)))
                a_chunk = max(1, min(a_size, CHUNK_CELLS // width))
                for s0 in range(0, mus.shape[0], s_chunk):
                    mu = mus[s0:s0 + s_chunk]
                    ul = ub[mu >> bits_right].transpose(0, 2, 1)  # (s, a, Lambda)
                    vr = vb[mu & low][:, None]                    # (s, 1, Lambda, b)
                    for a0 in range(0, a_size, a_chunk):
                        counts = np.matmul(signs * ul[:, None, a0:a0 + a_chunk, :], vr)
                        counts *= scale
                        # exact integers, so truncation is safe; a negative
                        # count (an internal bug) makes bincount raise
                        hist += np.bincount(counts.astype(np.int64).ravel(),
                                            minlength=hist.size) << (ca + cb)
        return hist
