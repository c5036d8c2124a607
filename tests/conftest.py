"""Shared independent oracles for the test suite.

These recompute quantities by direct enumeration over the raw probability
spaces (real-vector observations, Fraction masses), never through the
library's factorized fast paths, so agreement is meaningful evidence.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from latsec.channel import LayeredCodebook, mod_signal
from latsec.entropy import JointDistribution, mutual_information
from latsec.hashing import EncoderKit, encode_secret, int_to_bits


def brute_force_leakage(codebook: LayeredCodebook, kit: EncoderKit,
                        dithers1, dithers2, sign: str) -> float:
    """I(secret; per-layer real sums) by full enumeration of (S, S', t2).

    Builds the exact joint over the eavesdropper's real-valued observation
    with Fraction masses and evaluates the mutual information through the
    entropy module.
    """
    labeling = codebook.labeling()
    n0, r0 = kit.n_bits, kit.r_secret
    jam = codebook.product_points()
    counts: dict = {}
    total = 0
    for w_int in range(1 << r0):
        w = int_to_bits(w_int, r0)
        for sp_int in range(1 << (n0 - r0)):
            sp = int_to_bits(sp_int, n0 - r0)
            t1 = encode_secret(kit, w, sp, labeling)
            x1_layers, _ = mod_signal(codebook, t1, dithers1)
            for j in range(jam.shape[0]):
                x2_layers, _ = mod_signal(codebook, jam[j], dithers2)
                v = x1_layers + x2_layers if sign == "+" else x1_layers - x2_layers
                key = tuple(np.round(v.ravel(), 9).tolist())
                counts[(w_int, key)] = counts.get((w_int, key), 0) + 1
                total += 1
    xs = sorted({x for x, _ in counts})
    ts = sorted({t for _, t in counts})
    rows = tuple(tuple(Fraction(counts.get((x, t), 0), total) for t in ts) for x in xs)
    return mutual_information(JointDistribution(tuple(xs), tuple(ts), rows))


def nearest_coarse_point_oracle(x: float, c: float) -> float:
    """Reduce a scalar by scanning nearby multiples of c.

    Nearest lattice point wins; a tie at distance c/2 resolves to the
    representative -c/2 (half-open fundamental region).
    """
    k0 = int(np.floor(x / c)) - 2
    best = None
    for k in range(k0, k0 + 5):
        r = x - k * c
        if -c / 2 <= r < c / 2:
            best = r
    assert best is not None
    return best
