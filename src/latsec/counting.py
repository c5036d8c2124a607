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
significant bits, so P factors over coordinates.  The coordinates are split
into two halves of similar sum-alphabet size, and a row of P is the outer
product U[mu_L] (x) V[mu_R] of two half-tables: the sum over lambda is one
matmul per key value, and no 2^n0-by-sigma table is ever built.

Reflecting one coordinate's sum, sigma_j -> 2m-2-sigma_j, is a symmetry of
the counts whenever it equals XOR-relabelling that coordinate's sender
indices, i.e. F[::-1] == F[:, i ^ d] for some d; this is checked numerically
per coordinate (`reflection_folds`).  The hash is linear over GF(2), so the
relabelling XORs every key value with one constant, and the multiset
{N(k, sigma)} over k is the same at sigma and at its reflection.  A folded
coordinate keeps only sigma_j <= m-1: each sigma_j < m-1 counts twice and
the centre sigma_j = m-1 once.  Every m = 2 or 4 coordinate folds; m = 8
folds at even shifts, m = 16 at shifts 0, 4, 8, 12.  A coordinate that does
not fold keeps all 2m-1 sums, each counted once.  The kept columns of each
half-table are grouped by how many folded off-centre coordinates they hold,
and a block pair's integer histogram is added with weight 2^(that number).

None of this depends on the hash, so a `WalshCounter` builds it once per
(coordinates, sign) and counts every hash of a family, or every row space of
a key audit, against the same tables.  Counts are exact integers,
histogrammed across chunks, blocks and hashes, so the histogram depends
neither on how the work was chunked nor on the fold; callers evaluate
sum N log2 N from it with `entropy.xlog2x_sum`.
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
    """Number of leading coordinates whose kept sums best balance the rest."""
    total = math.prod(widths)
    best_cut, best_gap = 1, float("inf")
    left = 1
    for cut in range(1, len(widths)):
        left *= widths[cut - 1]
        gap = abs(left - total / left)
        if gap < best_gap:
            best_cut, best_gap = cut, gap
    return best_cut


class WalshCounter:
    """The kernel's hash-independent tables for one set of coordinates and sign.

    Building the counter computes the kept char-table columns, the balanced
    cut, the half-table blocks and the window histogram once; `histogram`
    then counts any number of hashes against them, keeping the blocks in the
    float dtype of the latest call.  Every coordinate's m must be a power of
    two.  `coords` and `sign` record what the tables were built for.

    hist_w[v] is the number of sigma whose window W(sigma), N summed over k,
    holds v labels, which no hash changes; it has length max W + 1.
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

        # the lambda = 0 row of P holds the plain window sizes, which bound
        # every count; the largest is at the centre, which every coordinate keeps
        w_max = (max(int(ub[0].max()) for _, ub in self._left)
                 * max(int(vb[0].max()) for _, vb in self._right))
        self.hist_w = np.zeros(w_max + 1, dtype=np.int64)
        for ca, ub in self._left:
            lv, lc = np.unique(ub[0], return_counts=True)
            for cb, vb in self._right:
                rv, rc = np.unique(vb[0], return_counts=True)
                np.add.at(self.hist_w, np.outer(lv, rv).ravel(),
                          np.outer(lc, rc).ravel() << (ca + cb))

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
