"""Independent routes to the figures the workloads produce.

Nothing here calls the latsec routine whose output it checks: the decoder
builds its own signal tables, the key is re-extracted from the seed bits,
and counts and closed forms are written out directly.
"""
from __future__ import annotations

import math

import numpy as np


def stars_and_bars(max_x: int, max_t: int, mass_step: int) -> int:
    """Number of joints on the quantized simplex grids a tail-bound sweep visits."""
    return sum(math.comb(mass_step + nx * nt - 1, nx * nt - 1)
               for nx in range(2, max_x + 1) for nt in range(2, max_t + 1))


def full_rank_probability(r: int, n: int) -> float:
    """Share of binary r-by-n matrices with full row rank: prod_{i<r} (1 - 2^(i-n))."""
    return math.prod(1.0 - 2.0 ** (i - n) for i in range(r))


def log2_slope(xs, ys) -> float:
    """Least-squares slope of log2(y) on x over the positive ys (+inf if < 2)."""
    pts = [(x, y) for x, y in zip(xs, ys) if y > 0]
    if len(pts) < 2:
        return math.inf
    return float(np.polyfit([p[0] for p in pts], np.log2([p[1] for p in pts]), 1)[0])


def extract_bits(v_seed: int, label: int, n0: int, r: int) -> list[int]:
    """Key bits: row i of the seed matrix is seed bits [i*n0, (i+1)*n0), MSB first."""
    mask = (1 << n0) - 1
    return [bin((v_seed >> (n0 * (r - 1 - i))) & mask & label).count("1") & 1
            for i in range(r)]


def sdof_direct(gain: float, q_max: int):
    """(p, q, sdof) by the closed forms, or None outside 0 < |gamma| < 1/2."""
    best = None
    for q in range(1, q_max + 1):
        p = max(1, math.floor(q * gain + 0.5))
        gamma = q * gain - p
        if 0 < abs(gamma) < 0.5 and (best is None or abs(gamma) < abs(best[2])):
            best = (p, q, gamma)
    if best is None:
        return None
    p, q, gamma = best
    g2 = gamma * gamma
    alpha = (1 - 2 * g2 + math.sqrt(1 - 4 * g2)) / (2 * g2 * g2)
    beta = q * q + (p + gamma) ** 2
    return p, q, max(0.0, (0.25 * math.log2(alpha) - 1) / (0.5 * math.log2(alpha * beta + 1)))


def _superpose(codebook, point: np.ndarray, dithers) -> np.ndarray:
    """Sum over layers of (u + d) reduced into the half-open box [-c/2, c/2)."""
    n = codebook.block_dim
    out = np.zeros(n)
    for i, (layer, d) in enumerate(zip(codebook.layers, dithers)):
        c = layer.coarse_scale
        out += np.mod(point[i * n:(i + 1) * n] + d + c / 2, c) - c / 2
    return out


class ReferenceDecoder:
    """Direct-form ML decoding: ||x1_i + g x2_j - y||^2 for every hypothesis pair."""

    def __init__(self, cfg, system):
        cb = system.codebook
        self.gain = math.sqrt(cfg.a * cfg.b)
        self.var = cfg.b * cfg.noise_var1
        self.x1 = np.stack([_superpose(cb, p, system.dithers1) for p in system.labeling.points])
        self.jam = system.jammer_points()
        self.x2 = np.stack([_superpose(cb, p, system.dithers2) for p in self.jam])
        self.g = system.kit.g.entries
        self.n_bits = system.labeling.n_bits

    def secret_of(self, index: int) -> list[int]:
        bits = np.array([(index >> (self.n_bits - 1 - j)) & 1 for j in range(self.n_bits)])
        return ((self.g @ bits) % 2).tolist()

    def marginal_secrets(self, y, tol: float = 1e-9) -> list[list[int]]:
        """Secrets of the best hypothesis and of any within tol of its log-likelihood."""
        d = ((self.x1[:, None, :] + self.gain * self.x2[None, :, :] - y) ** 2).sum(axis=2)
        neg = -d / (2 * self.var)
        peak = neg.max(axis=1, keepdims=True)
        loglik = peak[:, 0] + np.log(np.exp(neg - peak).sum(axis=1))
        best = loglik.max()
        near = np.flatnonzero(loglik >= best - tol * max(1.0, abs(best)))
        near = sorted(near, key=lambda i: -loglik[i])
        return [self.secret_of(int(i)) for i in near]

    def genie_index(self, y, t2) -> int:
        j = int(np.argmin(((self.jam - t2) ** 2).sum(axis=1)))
        return int(np.argmin(((self.x1 + self.gain * self.x2[j] - y) ** 2).sum(axis=1)))
