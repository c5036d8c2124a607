"""Shared independent oracles for the test suite.

These recompute quantities by direct enumeration over the raw probability
spaces (real-vector observations, Fraction masses), never through the
library's factorized fast paths, so agreement is meaningful evidence.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from latsec._rng import gaussian, substream
from latsec.channel import (ChannelConfig, LayeredCodebook, SecrecySystem, coordinate_specs,
                            exact_leakage, mod_signals, scale_channel)
from latsec.counting import WalshCounter
from latsec import entropy
from latsec.entropy import (BitSource, GridSweepReport, renyi2_entropy, violation_mass_counts,
                            xlog2x_sum)
from latsec.hashing import (EncoderKit, encode_secret, full_rank_check, int_to_bits,
                            privacy_amp_bound, sample_linear_hash)
from latsec.lattice import NestedLatticePair, SumSecrecyReport, label_grid, reduce_carry


def xlog2x_term(x: float) -> float:
    """x log2 x of one float, with numpy's log2: the library forms its terms in
    numpy, and the oracles check the routes to the terms, not the libm."""
    return x * float(np.log2(x))


def shannon_oracle(probs) -> float:
    """-sum p log2 p in bits over exact (or float) masses, each cast to float;
    one math.fsum of the terms."""
    return -math.fsum(xlog2x_term(float(p)) for p in probs if p > 0)


# Exact joints are Fraction mass matrices: a list of rows, row x, column t.

def conditional_shannon_oracle(probs) -> float:
    """H(X|T) = sum_t p(t) H(X|T=t) of an exact joint, one math.fsum over t."""
    return math.fsum(float(mass) * shannon_oracle([p / mass for p in col])
                     for col in zip(*probs) if (mass := sum(col)) > 0)


def mutual_information_oracle(probs) -> float:
    """I(X;T) = H(X) - H(X|T) of an exact joint."""
    return shannon_oracle([sum(row) for row in probs]) - conditional_shannon_oracle(probs)


def violation_mass_oracle(probs, measure: str, s) -> Fraction:
    """Mass of the columns t of an exact joint where conditioning drops the renyi2
    or min entropy of X by more than log2||T|| + s, ||T|| the number of columns
    with positive mass.

    A drop is log2 of the ratio of the conditional to the unconditional
    statistic (collision sum or largest mass), so with 2s integral the test is
    made in Fractions as ratio^2 > ||T||^2 2^(2s).
    """
    assert measure in ("renyi2", "min") and float(2 * s).is_integer()
    stat = max if measure == "min" else (lambda ps: sum(p * p for p in ps))
    cols = [(sum(col), col) for col in zip(*probs) if sum(col) > 0]
    uncond = stat([sum(row) for row in probs])
    bound = len(cols) ** 2 * Fraction(2) ** int(2 * s)
    return sum((mass for mass, col in cols
                if (stat([p / mass for p in col]) / uncond) ** 2 > bound), Fraction(0))


def brute_force_leakage(codebook: LayeredCodebook, kit: EncoderKit,
                        dithers1, dithers2, sign: str) -> float:
    """I(secret; real sum of the two codewords) by full enumeration of (S, S', t2).

    Builds the exact joint over the eavesdropper's real-valued observation
    with Fraction masses and evaluates its mutual information.
    """
    labeling = codebook.labeling()
    n0, r0 = kit.n_bits, kit.r_secret
    jam_signals = [mod_signals(codebook, [p], dithers2)[0] for p in codebook.product_points()]
    counts: dict = {}
    total = 0
    for w_int in range(1 << r0):
        w = int_to_bits(w_int, r0)
        for sp_int in range(1 << (n0 - r0)):
            sp = int_to_bits(sp_int, n0 - r0)
            t1 = encode_secret(kit, w, sp, labeling)
            x1 = mod_signals(codebook, [t1], dithers1)[0]
            for x2 in jam_signals:
                v = x1 + x2 if sign == "+" else x1 - x2
                key = tuple(np.round(v, 9).tolist())
                counts[(w_int, key)] = counts.get((w_int, key), 0) + 1
                total += 1
    xs = list(dict.fromkeys(x for x, _ in counts))
    ts = list(dict.fromkeys(t for _, t in counts))
    return mutual_information_oracle([[Fraction(counts.get((x, t), 0), total) for t in ts]
                                      for x in xs])


def brute_force_histograms(coords, sign: str, rows) -> tuple[np.ndarray, np.ndarray]:
    """`counting.WalshCounter`'s histograms by enumerating every (sender label, jammer index) pair.

    Coordinate j of a label holds sender index i_j (coordinate 0 in the most
    significant bits); the dither turns it into the value (i_j + shift) mod m,
    to which the jammer adds j2 in [0, m) ("+") or from which it subtracts j2,
    offset by m - 1 ("-").  Each pair gives one observed sum vector, so
    N(k, sigma) is a histogram over pairs, and the histograms of N and of the
    window sizes W have length prod(m) + 1, the size of the largest window.
    """
    ms = [c.m for c in coords]
    bits = [m.bit_length() - 1 for m in ms]
    n0 = sum(bits)
    labels = np.arange(1 << n0)
    jams = np.stack(np.meshgrid(*[np.arange(m) for m in ms], indexing="ij"),
                    axis=-1).reshape(-1, len(ms))
    sigma = np.zeros((labels.size, jams.shape[0]), dtype=np.int64)  # mixed-radix code
    low = n0
    for j, c in enumerate(coords):
        low -= bits[j]
        value = (((labels >> low) & (c.m - 1)) + c.shift) % c.m
        s_j = value[:, None] + jams[:, j] if sign == "+" else value[:, None] - jams[:, j] + c.m - 1
        sigma = sigma * (2 * c.m - 1) + s_j
    n_sigma = int(np.prod([2 * m - 1 for m in ms]))
    size = int(np.prod(ms)) + 1  # the centre window holds all prod(m) labels

    hist = np.zeros(size, dtype=np.int64)
    for hash_rows in np.asarray(rows):
        k = np.zeros(labels.size, dtype=np.int64)
        for row in hash_rows:
            parity = np.array([bin(int(x)).count("1") & 1 for x in labels & int(row)])
            k = (k << 1) | parity
        n = np.bincount((k[:, None] * n_sigma + sigma).ravel(),
                        minlength=(1 << len(hash_rows)) * n_sigma)
        hist += np.bincount(n, minlength=size)
    w = np.bincount(sigma.ravel(), minlength=n_sigma)
    return hist, np.bincount(w, minlength=size)


def per_candidate_leakages(codebook: LayeredCodebook, r0: int, dithers1, sign: str,
                           n_candidates: int, seed: int) -> tuple[list, list]:
    """`select_secrecy_hash`'s leakages and full-rank flags, one `exact_leakage`
    call per candidate on freshly built tables, drawn as the selection draws them."""
    rng = substream(seed, "hash-select")
    seeds = rng.integers(0, 2 ** 63 - 1, size=n_candidates)
    matrices = [sample_linear_hash(r0, codebook.n0_bits, int(s)) for s in seeds]
    leakages = [exact_leakage(codebook, g, dithers1, sign) for g in matrices]
    return leakages, [full_rank_check(g) for g in matrices]


def multiset_key_audit(codebook: LayeredCodebook, r: int, dithers1, sign: str) -> float:
    """`extractor.key_secrecy_report`'s h_key_given_view, summed over seeds by
    multisets of rows instead of row spaces.

    Permuting a seed's rows permutes the key bits and leaves the multiset of
    counts unchanged, so each multiset of r rows is counted once, weighted by
    its number of distinct orderings r! / prod(multiplicity!).
    """
    n0 = codebook.n0_bits
    rows = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(1 << n0), r)),
        dtype=np.int64).reshape(-1, r)
    run = np.ones(rows.shape[0], dtype=np.int64)
    repeats = np.ones(rows.shape[0], dtype=np.int64)
    for j in range(1, r):
        run = np.where(rows[:, j] == rows[:, j - 1], run + 1, 1)
        repeats *= run
    weights = math.factorial(r) // repeats
    counter = WalshCounter(coordinate_specs(codebook, dithers1), sign)
    hist = 0
    for w in np.unique(weights):
        hist = hist + int(w) * counter.histogram(rows[weights == w])
    m_total = codebook.size
    values = np.arange(hist.size)
    return (xlog2x_sum(values, counter.hist_w) / (m_total * m_total)
            - xlog2x_sum(values, hist) / (float(1 << (r * n0)) * m_total * m_total))


def family_bound_oracle(m: int, n_bar: int, r: int) -> float:
    """B(r) = sum_sigma P(sigma) log2(1 + (2^r - 1) / W(sigma)), the closed-form
    bound on the average leakage of a uniform r-row GF(2) hash of the sender's
    label, by a loop over every sum vector sigma of n_bar coordinates.

    W(sigma) = prod_j n(sigma_j) labels are consistent with sigma, n(s) =
    min(s + 1, 2m - 1 - s), and P(sigma) = W(sigma) / m^(2 n_bar); no dither
    changes the window sizes."""
    sizes = [min(s + 1, 2 * m - 1 - s) for s in range(2 * m - 1)]
    terms = []
    for sigma in itertools.product(sizes, repeat=n_bar):
        w = math.prod(sigma)
        terms.append(w / m ** (2 * n_bar) * math.log2(1 + ((1 << r) - 1) / w))
    return math.fsum(terms)


def iter_grid_joints_oracle(n_x: int, n_t: int, mass_step: int, batch: int = 1 << 14):
    """Every n_x-by-n_t count matrix summing to mass_step, once each, in int64
    batches: each composition as its itertools bar positions, closed by an end bar."""
    cells = n_x * n_t
    width = mass_step + cells - 1
    ends = (bars + (width,) for bars in itertools.combinations(range(width), cells - 1))
    while (flat := np.fromiter(itertools.chain.from_iterable(itertools.islice(ends, batch)),
                               dtype=np.int64)).size:
        yield (np.diff(flat.reshape(-1, cells), axis=1, prepend=-1) - 1).reshape(-1, n_x, n_t)


# the s-values the grid oracle knows, as 2s
GRID_ORACLE_KS = (1, 2, 4, 8)


@functools.lru_cache(maxsize=None)
def _grid_shape_oracle(n_x: int, n_t: int, mass_step: int, mass_test) -> dict:
    """joints, then {2s: (violations, largest mass numerator) for renyi2 and min}
    over every joint of one shape.  Keyed by the mass test in force, which a test
    may replace."""
    joints, tally = 0, {k: [0, 0, 0, 0] for k in GRID_ORACLE_KS}
    for batch in iter_grid_joints_oracle(n_x, n_t, mass_step):
        joints += len(batch)
        for k, row in tally.items():
            for i, (measure, e, b) in enumerate((("renyi2", 4, 4), ("min", 2, 0))):
                mass = violation_mass_counts(batch, measure, k / 2)
                # mass / step above 2^(1 - s/2), or 2^-s
                row[2 * i] += int(np.count_nonzero(mass ** e << k > mass_step ** e << b))
                row[2 * i + 1] = max(row[2 * i + 1], int(mass.max()))
    return joints, tally


def grid_sweep_oracle(max_x: int, max_t: int, mass_step: int, s_values) -> GridSweepReport:
    """`entropy.violation_mass_grid_sweep` over every joint of the full grid; each
    s must be in GRID_ORACLE_KS / 2."""
    joints, viol_r, max_r, viol_m, max_m = 0, 0, 0, 0, 0
    for n_x in range(2, max_x + 1):
        for n_t in range(2, max_t + 1):
            count, tally = _grid_shape_oracle(n_x, n_t, mass_step, entropy._violating_mass)
            joints += count
            for s in s_values:
                vr, mr, vm, mm = tally[int(2 * s)]
                viol_r, viol_m = viol_r + vr, viol_m + vm
                max_r, max_m = max(max_r, mr), max(max_m, mm)
    return GridSweepReport(joints, viol_r, viol_m, max_r / mass_step, max_m / mass_step)


def grid_joint_from_counts(counts, n_x: int, n_t: int, mass_step: int) -> list:
    """Exact joint for one grid cell (counts in row-major order)."""
    return [[Fraction(c, mass_step) for c in row]
            for row in np.reshape(counts, (n_x, n_t)).tolist()]


def cyclic_shift_oracle(values: np.ndarray, d: float, c: float) -> int:
    """The cyclic shift a dither d induces on ascending coordinate values, by rank.

    Reduces values + d into [-c/2, c/2), sorts the residuals and reads the
    rank of index 0; every index i must land at rank (i + k) mod m.
    """
    v = np.asarray(values, dtype=float) + d
    r = v - c * np.floor(v / c + 0.5)
    r[r >= c / 2] -= c
    r[r < -c / 2] += c
    ranks = np.empty(len(r), dtype=int)
    ranks[np.argsort(r)] = np.arange(len(r))
    k = int(ranks[0])
    assert np.array_equal(ranks, (np.arange(len(r)) + k) % len(r)), "not a cyclic shift"
    return k


def nearest_coarse_point_oracle(x: float, c: float) -> float:
    """Reduce a scalar by the nearest multiple of c, in exact rational arithmetic.

    Nearest lattice point wins; a tie at distance c/2 resolves to the
    representative -c/2 (half-open fundamental region).  The residual is
    rounded to float once, at the end.
    """
    k = math.floor(Fraction(x) / Fraction(c) + Fraction(1, 2))
    return float(Fraction(x) - k * Fraction(c))


def sum_secrecy_oracle(pair: NestedLatticePair, d1, d2, sign: str, s: float,
                       measure: str) -> SumSecrecyReport:
    """`lattice.dithered_sum_secrecy_report` by enumerating every codeword pair.

    Each pair's real sum X1 +/- X2 is reduced mod c; the residual, rounded to
    9 decimals, is the masked symbol and (residual, carry tuple) the full one.
    The entropies are math.fsum sums, so the report compares with the
    library's by repr whatever order the symbols come in.
    """
    book = label_grid(pair, np.arange(pair.codebook_size))[1]
    x1s, x2s = (reduce_carry(book + np.asarray(d, dtype=float), pair.coarse_scale)[0]
                for d in (d1, d2))
    size = len(book)
    total = size * size
    masked: dict = {}
    full: dict = {}
    per_masked: dict = {}
    for i, x1 in enumerate(x1s):
        for x2 in x2s:
            w, z = reduce_carry(x1 + x2 if sign == "+" else x1 - x2, pair.coarse_scale)
            mk, z = tuple(np.round(w, 9).tolist()), tuple(z.tolist())
            masked[(i, mk)] = masked.get((i, mk), 0) + 1
            full[(i, (mk, z))] = full.get((i, (mk, z)), 0) + 1
            per_masked.setdefault(mk, {})
            per_masked[mk][(i, z)] = per_masked[mk].get((i, z), 0) + 1

    def joint(counts, n):
        ts = list(dict.fromkeys(t for (_, t) in counts))
        return [[Fraction(counts.get((x, t), 0), n) for t in ts] for x in range(size)]

    joint_masked = joint(masked, total)
    h_given_masked = conditional_shannon_oracle(joint_masked)
    gap = h_given_masked - conditional_shannon_oracle(joint(full, total))
    h_u1 = shannon_oracle([sum(r) for r in joint_masked])
    independent = (len({sum(col) for col in zip(*joint_masked)}) == 1
                   and abs(h_given_masked - h_u1) <= 1e-9)
    max_labels = max(len({z for (_, z) in sl}) for sl in per_masked.values())
    bound = float(pair.dim)
    ok = gap <= bound + 1e-9 and independent and max_labels <= 2 ** pair.dim
    if measure == "shannon":
        return SumSecrecyReport(sign, None, gap, bound, None, None, None,
                                independent, max_labels, ok)
    masses = [(sum(sl.values()), violation_mass_oracle(joint(sl, sum(sl.values())), measure, s))
              for sl in per_masked.values()]
    max_mass = max(mass for _, mass in masses)
    joint_mass = sum(Fraction(n, total) * mass for n, mass in masses)
    tail = 2.0 ** (1 - float(s) / 2) if measure == "renyi2" else 2.0 ** (-float(s))
    return SumSecrecyReport(sign, float(s), gap, bound, float(max_mass),
                            float(joint_mass), tail, independent, max_labels,
                            ok and float(max_mass) <= tail + 1e-15)


def gf_rank_oracle(matrix, q: int) -> int:
    """Rank over GF(q) by row-at-a-time Gaussian elimination."""
    a = np.asarray(matrix, dtype=np.int64).copy() % q
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        pivot = -1
        for r in range(rank, rows):
            if a[r, col] % q != 0:
                pivot = r
                break
        if pivot < 0:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        inv = pow(int(a[rank, col]), q - 2, q)
        a[rank] = (a[rank] * inv) % q
        for r in range(rows):
            if r != rank and a[r, col] % q != 0:
                a[r] = (a[r] - a[r, col] * a[rank]) % q
        rank += 1
        if rank == rows:
            break
    return rank


def gf2_rank_ints(rows) -> int:
    """Rank over GF(2) of rows packed as integers (one bit per column), one row
    at a time against a basis keyed by leading bit."""
    basis: dict[int, int] = {}
    for row in rows:
        cur = int(row)
        while cur:
            h = cur.bit_length() - 1
            if h in basis:
                cur ^= basis[h]
            else:
                basis[h] = cur
                break
    return len(basis)


def full_rank_fraction_exhaustive_oracle(r: int, n: int) -> float:
    """`full_rank_fraction_exhaustive` one matrix at a time."""
    total = 1 << (r * n)
    mask = (1 << n) - 1
    hits = sum(gf2_rank_ints([(g >> (n * i)) & mask for i in range(r)]) == r
               for g in range(total))
    return hits / total


def full_rank_fraction_mc_oracle(r: int, n: int, trials: int, seed: int) -> float:
    """`full_rank_fraction_mc` from one draw of every trial, one matrix at a time."""
    draws = np.random.default_rng(seed).integers(0, 1 << n, size=(trials, r), dtype=np.int64)
    return sum(gf2_rank_ints(row) == r for row in draws.tolist()) / trials


def floor_deficit_oracle(weights) -> float:
    """(H(X) - log2||T||) - H(X|T) of the joint weights / their sum, one call at a
    time: one math.fsum of the signed terms of H(X), log2||T||, H(X, T) and H(T)."""
    p = np.array(weights, dtype=float)
    p /= p.sum()
    px = p.sum(axis=1)
    pt = p.sum(axis=0)
    terms = [-xlog2x_term(x) for x in px.tolist() if x > 0]
    terms.append(-float(np.log2((pt > 0).sum())))
    terms += [xlog2x_term(x) for x in p.ravel().tolist() if x > 0]
    terms += [-xlog2x_term(x) for x in pt.tolist() if x > 0]
    return math.fsum(terms)


def floor_sweep_oracle(trials: int, max_x: int, max_t: int, seed: int,
                       tol: float = 1e-9) -> tuple[int, float]:
    """(violations, max_deficit) of `conditional_entropy_floor_sweep`, one joint at a time."""
    rng = np.random.default_rng(seed)
    violations = 0
    max_deficit = -math.inf
    for _ in range(trials):
        nx = int(rng.integers(2, max_x + 1))
        nt = int(rng.integers(2, max_t + 1))
        deficit = floor_deficit_oracle(rng.exponential(size=(nx, nt)))
        max_deficit = max(max_deficit, deficit)
        violations += deficit > tol
    return violations, max_deficit


def exact_hashed_entropy_oracle(source: BitSource, r: int, seed_set=None) -> float:
    """`exact_hashed_entropy` one matrix at a time: hash every symbol, bincount the
    masses, and sum -m log2 m over the nonzero masses of every matrix with one
    math.fsum."""
    n, total = source.n, sum(source.weights)
    symbols = np.array([int_to_bits(i, n) for i in range(len(source.weights))])
    weights = np.array([float(Fraction(w, total)) for w in source.weights])
    powers = 1 << np.arange(r - 1, -1, -1, dtype=np.int64)
    if seed_set is None:
        matrices = [int_to_bits(g, r * n).reshape(r, n) for g in range(1 << (r * n))]
    else:
        matrices = [sample_linear_hash(r, n, s).entries for s in seed_set]
    terms = []
    for g in matrices:
        masses = np.bincount((symbols @ g.T) % 2 @ powers, weights=weights, minlength=1 << r)
        terms += [xlog2x_term(m) for m in masses.tolist() if m > 0]
    avg = -math.fsum(terms) / len(matrices)
    if seed_set is None:
        assert avg >= privacy_amp_bound(r, 2, renyi2_entropy(source)) - 1e-9
    return avg


def greedy_completion_oracle(g, q: int) -> tuple[np.ndarray, np.ndarray]:
    """g' and A = [g'; g]^-1 of a full-row-rank r-by-n g, rank by rank.

    Each unit row e_i, in index order, joins g' when it raises the rank of g
    and the rows chosen so far; the inverse comes from eliminating [stack | I].
    """
    g = np.asarray(g, dtype=np.int64)
    r, n = g.shape
    chosen: list[np.ndarray] = []
    for i in range(n):
        if len(chosen) == n - r:
            break
        e = np.zeros(n, dtype=np.int64)
        e[i] = 1
        if gf_rank_oracle(np.vstack([g] + chosen + [e]), q) > r + len(chosen):
            chosen.append(e)
    assert len(chosen) == n - r, "g is not of full row rank"
    g_prime = np.vstack(chosen) if chosen else np.zeros((0, n), dtype=np.int64)
    aug = np.concatenate([np.vstack([g_prime, g]), np.eye(n, dtype=np.int64)], axis=1)
    for col in range(n):
        pivot = next(row for row in range(col, n) if aug[row, col] % q != 0)
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = (aug[col] * pow(int(aug[col, col]), q - 2, q)) % q
        for row in range(n):
            if row != col and aug[row, col] % q != 0:
                aug[row] = (aug[row] - aug[row, col] * aug[col]) % q
    return g_prime, aug[:, n:]


def genie_error_rate_oracle(codebook: LayeredCodebook, d1, d2, cfg: ChannelConfig,
                            trials: int, seed: int) -> float:
    """`leakage_trend`'s decode error rate, decided on the residual y - g x2.

    Draws a uniform labeled point, a uniform jammer point and the noise from
    the trend's stream, then picks the labeled point nearest to the residual.
    """
    x1_table = mod_signals(codebook, codebook.labeling().points, d1)
    x2_table = mod_signals(codebook, codebook.product_points(), d2)
    coeff = scale_channel(cfg)
    rng = substream(seed, "trend-decode")
    errors = 0
    for _ in range(trials):
        i1 = int(rng.integers(0, x1_table.shape[0]))
        x2 = x2_table[int(rng.integers(0, x2_table.shape[0]))]
        y = (x1_table[i1] + coeff.gain_x2_at_d1 * x2
             + gaussian(rng, codebook.block_dim, coeff.noise_std_d1))
        resid = y - coeff.gain_x2_at_d1 * x2
        if int(np.argmin(((x1_table - resid) ** 2).sum(axis=1))) != i1:
            errors += 1
    return errors / trials


def direct_marginal_oracle(cfg: ChannelConfig, system: SecrecySystem, y) -> np.ndarray:
    """Marginal log-likelihood of every sender label, up to a shared constant.

    Forms every (sender, jammer) pair signal x1_i + g x2_j, takes its squared
    distance to y over 2v and log-sum-exps over the jammer axis; the marginal
    ML decision is the first argmax.
    """
    coeff = scale_channel(cfg)
    x1 = system.sender_signals
    x2 = system.jammer_signals
    pair = x1[:, None, :] + coeff.gain_x2_at_d1 * x2[None, :, :]
    neg = -((pair - np.asarray(y, dtype=float)) ** 2).sum(axis=2) / (2 * coeff.noise_std_d1 ** 2)
    peak = neg.max(axis=1, keepdims=True)
    return peak[:, 0] + np.log(np.exp(neg - peak).sum(axis=1))


def direct_search_oracle(cfg: ChannelConfig, system: SecrecySystem, y) -> int:
    """The label an exhaustive direct search decides: the first with the largest
    2v ln sum_j exp((low - D_j) / 2v) - low over all jammer points, where
    D_j = ||x1 + g x2_j - y||^2 and low = min_j D_j.

    This is the arithmetic `MLDecoder` re-decides near ties with, so labels
    whose direct scores are equal, exact ties included, go to the first.
    """
    coeff = scale_channel(cfg)
    two_var = 2 * coeff.noise_std_d1 ** 2
    pair = system.sender_signals[:, None, :] + coeff.gain_x2_at_d1 * system.jammer_signals
    d = ((pair - np.asarray(y, dtype=float)) ** 2).sum(axis=2)
    low = d.min(axis=1, keepdims=True)
    with np.errstate(over="ignore"):
        score = two_var * np.log(np.exp((low - d) / two_var).sum(axis=1)) - low[:, 0]
    return int(np.argmax(score))
