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

Counts are exact integers.  They are histogrammed across chunks and hash
rows, and sum N log2 N is evaluated once from the histogram, so the result
does not depend on how the work was chunked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Count-array cells per matmul.  On a 2-core x86 VM (4 MiB L2) the N_bar=8,
# r0=5 leakage took 0.60 s at 2^20 cells, 0.74 s at 2^21 and 1.3 s at 2^23;
# the chunk also bounds the kernel's working memory.
CHUNK_CELLS = 1 << 20


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


def _half_table(tables: list[np.ndarray]) -> np.ndarray:
    """Kronecker product of the tables: row mu_0 mu_1 ..., column sigma_0 sigma_1 ..."""
    out = np.ones((1, 1), dtype=np.int64)
    for tab in tables:
        out = (out[:, None, :, None] * tab[None, :, None, :]).reshape(
            out.shape[0] * tab.shape[0], -1)
    return out


def _balanced_cut(coords: Sequence[Coordinate]) -> int:
    """Number of leading coordinates whose sum alphabet best balances the rest."""
    alpha = [2 * c.m - 1 for c in coords]
    total = math.prod(alpha)
    best_cut, best_gap = 1, float("inf")
    left = 1
    for cut in range(1, len(coords)):
        left *= alpha[cut - 1]
        gap = abs(left - total / left)
        if gap < best_gap:
            best_cut, best_gap = cut, gap
    return best_cut


def _hist_xlog2x(hist: np.ndarray) -> float:
    """sum over values v of hist[v] * v log2 v, in one fixed order."""
    v = np.arange(hist.size, dtype=float)
    nz = v >= 2  # 0 log 0 := 0 and 1 log 1 = 0
    return float((hist[nz] * v[nz] * np.log2(v[nz])).sum())


def xlog2x_counts(coords: Sequence[Coordinate], sign: str, rows,
                  weights=None) -> tuple[float, float]:
    """Sum N log2 N over hashes and observations, and sum W log2 W over observations.

    rows is an (S, r) array: S hashes, each given by its r rows as n0-bit
    integers.  The first figure is sum_s w_s sum_{k, sigma} N_s log2 N_s,
    with unit weights when none are given; the second is the same sum for
    the window sizes W(sigma) = N summed over k, which no hash changes.
    Every coordinate's m must be a power of two.
    """
    rows = np.asarray(rows, dtype=np.int64)
    weights = np.ones(rows.shape[0], dtype=np.int64) if weights is None \
        else np.asarray(weights, dtype=np.int64)
    tables = [char_table(c, sign) for c in coords]
    cut = _balanced_cut(coords)
    u = _half_table(tables[:cut])  # (2^bits_left, A)
    v = _half_table(tables[cut:])  # (2^bits_right, B)
    bits_right = sum(c.m.bit_length() - 1 for c in coords[cut:])

    # the lambda = 0 row of P holds the plain window sizes, which bound
    # every count
    lv, lc = np.unique(u[0], return_counts=True)
    rv, rc = np.unique(v[0], return_counts=True)
    hist_w = np.zeros(int(lv[-1] * rv[-1]) + 1, dtype=np.int64)
    np.add.at(hist_w, np.outer(lv, rv).ravel(), np.outer(lc, rc).ravel())
    hist = np.zeros_like(hist_w)

    r = rows.shape[1]
    n_k = 1 << r
    lam = np.arange(n_k)
    mus = np.zeros((rows.shape[0], n_k), dtype=np.int64)
    for j in range(r):
        mus ^= ((lam >> (r - 1 - j)) & 1) * rows[:, j:j + 1]

    # Walsh sums stay below 2^r * max|U| * max|V|; float32 is exact whenever
    # that fits in its 24-bit mantissa
    bound = n_k * float(np.abs(u).max()) * float(np.abs(v).max())
    dtype = np.float32 if bound < (1 << 24) else np.float64
    u = u.astype(dtype)
    v = v.astype(dtype)
    signs = _hadamard(n_k).astype(dtype)[None, :, None, :]  # (1, K, 1, Lambda)
    scale = dtype(1.0 / n_k)  # counts = 2^-r * Walsh sum, exactly integral

    a_size, b_size = u.shape[1], v.shape[1]
    s_chunk = max(1, CHUNK_CELLS // (n_k * a_size * b_size))
    a_chunk = max(1, min(a_size, CHUNK_CELLS // (n_k * b_size)))

    for weight in np.flatnonzero(np.bincount(weights)):
        group = mus[weights == weight]
        for s0 in range(0, group.shape[0], s_chunk):
            mu = group[s0:s0 + s_chunk]
            ul = u[mu >> bits_right].transpose(0, 2, 1)   # (s, A, Lambda)
            vr = v[mu & ((1 << bits_right) - 1)][:, None]  # (s, 1, Lambda, B)
            for a0 in range(0, a_size, a_chunk):
                su = signs * ul[:, None, a0:a0 + a_chunk, :]  # (s, K, a, Lambda)
                counts = np.matmul(su, vr)                    # (s, K, a, B)
                counts *= scale
                # exact integers, so truncation is safe; a negative count
                # (an internal bug) makes bincount raise
                hist += weight * np.bincount(counts.astype(np.int64).ravel(),
                                             minlength=hist.size)
    return _hist_xlog2x(hist), _hist_xlog2x(hist_w)
