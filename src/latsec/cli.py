"""Batch front-end: run the library's checks and experiments, write tables.

All randomness fans out from one --seed through labeled sub-streams, so a
given (seed, config) pair always produces the same bytes.  Exit code 0
means every reported check passed, 1 means some invariant check failed
(each is named on stderr as `check failed: <name>`), 2 means the
invocation itself was unusable.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import channel, entropy, extractor, hashing, lattice, sdof
from ._rng import substream
from .errors import ConfigError, DomainError, ResourceCapError, ValidationError

# points one start:stop:step grid may expand to
GRID_POINT_CAP = 1 << 16


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _render(rows: list[dict], columns: list[str], fmt: str) -> str:
    if fmt == "json":
        clean = [{k: row.get(k) for k in columns} for row in rows]
        return json.dumps({"columns": columns, "rows": clean}, sort_keys=True) + "\n"
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


def _parse_int_range(text: str) -> list[int]:
    try:
        if ":" in text:
            lo, hi = text.split(":")
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"bad integer range {text!r}") from None
    if not values:
        raise ConfigError(f"empty integer range {text!r}")
    return values


def _parse_float_grid(text: str) -> list[float]:
    parts = text.split(":")
    try:
        values = [float(v) for v in (parts if len(parts) == 3 else text.split(","))]
    except ValueError:
        raise ConfigError(f"bad grid {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"grid values must be finite, got {text!r}")
    if len(parts) != 3:
        return values
    start, stop, step = values
    if not step > 0:
        raise ConfigError(f"grid step must be positive, got {step!r}")
    # np.arange's point count, checked before anything is allocated
    if not (stop + step / 2 - start) / step <= GRID_POINT_CAP:
        raise ConfigError(f"grid {text!r} has more than {GRID_POINT_CAP} points")
    return [float(v) for v in np.arange(start, stop + step / 2, step)]


# ---------------------------------------------------------------------------
# Subcommands; each returns (rows, columns, names of the failed checks).
# ---------------------------------------------------------------------------

def _cmd_entropy_check(args):
    s_values = tuple(_parse_float_grid(args.s))
    # the grid refuses a bad step or an over-cap size before any work: run it first
    grid = entropy.violation_mass_grid_sweep(
        args.grid_max, args.grid_max, args.grid_step, s_values)
    floor = entropy.conditional_entropy_floor_sweep(
        args.trials, args.max_x, args.max_t, seed=args.seed)
    rows = [
        {"check": "conditional_floor", "cases": floor.trials,
         "violations": floor.violations, "max_deficit": floor.max_deficit,
         "max_mass_renyi2": None, "max_mass_min": None},
        {"check": "tail_bounds_grid", "cases": grid.joints,
         "violations": grid.bound_violations_renyi2 + grid.bound_violations_min,
         "max_deficit": None, "max_mass_renyi2": grid.max_mass_renyi2,
         "max_mass_min": grid.max_mass_min},
    ]
    cols = ["check", "cases", "violations", "max_deficit",
            "max_mass_renyi2", "max_mass_min"]
    return rows, cols, [row["check"] for row in rows if row["violations"] > 0]


def _cmd_lattice_verify(args):
    pair = lattice.NestedLatticePair(args.n, float(args.m if args.c is None else args.c),
                                     args.m)
    codebook = channel.LayeredCodebook((pair,))
    if args.dither == "random":
        rng = substream(args.seed, "lattice-verify-dither")
        d1, d2 = (channel.random_dithers(codebook, rng)[0] for _ in range(2))
    else:
        d1 = d2 = codebook.dither_vectors()[0]
    rows = []
    for measure in ("shannon", "renyi2", "min"):
        rep = lattice.dithered_sum_secrecy_report(
            pair, d1, d2, args.sign, args.s, measure, cap=args.cap)
        rows.append({
            "measure": measure, "sign": rep.sign, "s": rep.s,
            "shannon_gap": rep.shannon_gap, "shannon_bound": rep.shannon_bound,
            "max_violation_mass": rep.max_slice_violation_mass,
            "joint_violation_mass": rep.joint_violation_mass,
            "violation_bound": rep.violation_bound,
            "masked_independent": rep.masked_independent,
            "max_carry_labels": rep.max_carry_labels, "passed": rep.passed,
        })
    cols = ["measure", "sign", "s", "shannon_gap", "shannon_bound",
            "max_violation_mass", "joint_violation_mass", "violation_bound",
            "masked_independent", "max_carry_labels", "passed"]
    return rows, cols, [f"secrecy_{row['measure']}" for row in rows if not row["passed"]]


def _cmd_hash_bench(args):
    rows = []
    for r in range(1, args.r_max + 1):
        for n in range(r, args.n_max + 1):
            frac = hashing.full_rank_fraction_exhaustive(r, n)
            bound = hashing.full_rank_lower_bound(r, n)
            exact = hashing.exact_full_rank_probability(r, n)
            ok = frac >= bound and abs(frac - exact) <= 1e-12
            rows.append({"kind": "exhaustive", "r": r, "n": n, "fraction": frac,
                         "lower_bound": bound, "exact_prob": exact, "ok": ok})
    mc_seed = int(substream(args.seed, "hash-bench-mc").integers(0, 2 ** 31))
    frac = hashing.full_rank_fraction_mc(args.mc_r, args.mc_n, args.mc_trials, mc_seed)
    exact = hashing.exact_full_rank_probability(args.mc_r, args.mc_n)
    sigma = (exact * (1 - exact) / args.mc_trials) ** 0.5
    ok = abs(frac - exact) <= 3 * sigma
    rows.append({"kind": "monte-carlo", "r": args.mc_r, "n": args.mc_n,
                 "fraction": frac, "lower_bound": hashing.full_rank_lower_bound(
                     args.mc_r, args.mc_n),
                 "exact_prob": exact, "ok": ok})
    failed = [f"{row['kind']}_r{row['r']}_n{row['n']}" for row in rows if not row["ok"]]
    return rows, ["kind", "r", "n", "fraction", "lower_bound", "exact_prob", "ok"], failed


def _cmd_amplify(args):
    c_values = _parse_float_grid(args.c_list)
    if any(c < 0 for c in c_values):
        raise ConfigError(f"amplify needs every c >= 0, got {args.c_list!r}")
    geo = hashing.geometric_bit_source(args.n)
    h_geo = entropy.renyi2_entropy(geo)
    rows = []
    for c in c_values:
        sources = []
        # past n + 1 bits no flat source fits, and 2 ** c may overflow
        k_flat = round(2 ** min(c, args.n + 1))
        if abs(np.log2(k_flat) - c) < 1e-12 and k_flat <= 1 << args.n:
            sources.append((f"flat{k_flat}", hashing.flat_bit_source(args.n, k_flat)))
        if h_geo >= c:
            sources.append(("geometric", geo))
        for name, src in sources:
            h = hashing.exact_hashed_entropy(src, args.r)
            floor = hashing.privacy_amp_bound(args.r, 2, c)
            ok = h > floor
            rows.append({"r": args.r, "n": args.n, "c": c, "source": name,
                         "avg_entropy": h, "floor": floor, "ok": ok})
    failed = [f"floor_{row['source']}_c{row['c']}" for row in rows if not row["ok"]]
    return rows, ["r", "n", "c", "source", "avg_entropy", "floor", "ok"], failed


def _cmd_keygen(args):
    if args.trials < 1:
        raise ConfigError("keygen needs at least one trial")
    codebook = channel.make_codebook(args.m, args.nbar)
    if not codebook.walsh_countable:
        raise ConfigError("keygen needs power-of-two layers labeling the whole codebook")
    spec = extractor.ExtractorSpec(codebook.n0_bits, args.r)
    report = extractor.key_secrecy_report(codebook, args.r, sign=args.sign)
    cfg = channel.ChannelConfig(a=args.a, b=args.b, sign=1 if args.sign == "+" else -1,
                                noise_var1=args.sigma1 ** 2, n_uses=codebook.block_dim)
    setup = extractor.KeyProtocolSetup(codebook, spec, codebook.dither_vectors(),
                                       codebook.dither_vectors())
    runner = extractor.KeyAgreementRunner(cfg, setup)
    base = int(substream(args.seed, "keygen-trials").integers(0, 2 ** 31))
    rate = runner.agreement_rate(args.trials, base, mode=args.mode)
    rows = [{
        "n0_bits": codebook.n0_bits, "r": args.r,
        "h_key_given_view": report.h_key_given_view, "budget_c": report.budget_c,
        "eps_sec": report.eps_sec, "floor": report.floor,
        "secrecy_ok": report.passed, "trials": args.trials, "agreement_rate": rate,
    }]
    cols = ["n0_bits", "r", "h_key_given_view", "budget_c", "eps_sec", "floor",
            "secrecy_ok", "trials", "agreement_rate"]
    return rows, cols, [] if report.passed else ["secrecy"]


def _cmd_simulate(args):
    codebook = channel.make_codebook(args.m, args.nbar)
    r0 = args.r0
    if r0 > codebook.n0_bits:
        raise ConfigError("r0 exceeds the label width")
    sel = channel.select_secrecy_hash(codebook, r0, sign=args.sign,
                                      n_candidates=args.family, seed=args.seed)
    system = channel.build_system(codebook, sel.kit)
    cfg = channel.ChannelConfig(a=args.a, b=args.b, sign=1 if args.sign == "+" else -1,
                                noise_var1=args.sigma1 ** 2, n_uses=codebook.block_dim)
    decoder = channel.MLDecoder(cfg, system)
    msg_rng = substream(args.seed, "simulate-messages")
    transcripts = []
    for t in range(args.trials):
        w = msg_rng.integers(0, 2, size=r0, dtype=np.int64)
        transcripts.append(channel.run_message_round(
            cfg, system, w, args.seed * 1000003 + t, mode=args.mode, decoder=decoder))
    rep = channel.secrecy_rate_report(transcripts, sel.chosen_leakage)
    rows = [{
        "trials": args.trials, "decode_error_rate": rep.reliability_error_rate,
        "rate_bits_per_use": rep.rate_bits_per_use, "leakage_bits": rep.leakage_bits,
        "power_1": system.power1(), "power_2": system.power2(), "seed": args.seed,
    }]
    cols = ["trials", "decode_error_rate", "rate_bits_per_use", "leakage_bits",
            "power_1", "power_2", "seed"]
    return rows, cols, []


def _cmd_leakage_trend(args):
    n_bars = _parse_int_range(args.nbar)
    decode_cfg = None
    if args.decode_trials > 0:
        decode_cfg = channel.ChannelConfig(a=args.a, b=args.b,
                                           noise_var1=args.sigma1 ** 2)
    trend = channel.leakage_trend(args.m, n_bars, args.eps, args.delta,
                                  n_layers=args.layers, sign=args.sign,
                                  family=args.family, seed=args.seed,
                                  policy=args.policy, dither_mode=args.dither,
                                  fixed_r0=args.fixed_r0,
                                  decode_trials=args.decode_trials,
                                  decode_cfg=decode_cfg)
    rows = [{
        "N_bar": row.n_bar, "r0": row.r0, "leakage_bits": row.leakage_bits,
        "decode_error_rate": row.decode_error_rate,
        "power_1": row.power_1, "power_2": row.power_2, "seed": row.seed,
    } for row in trend]
    cols = ["N_bar", "r0", "leakage_bits", "decode_error_rate",
            "power_1", "power_2", "seed"]
    positive = [r for r in trend if r.r0 > 0]
    failed = []
    if any(r.leakage_bits > 2 * r.family_avg_leakage + 1e-12 for r in positive):
        failed.append("family_avg")
    if (len([r for r in positive if r.leakage_bits > 0]) >= 2
            and channel.fitted_log2_slope(positive) >= 0):
        failed.append("slope")
    if args.fixed_r0 is not None and any(b.leakage_bits >= a.leakage_bits
                                         for a, b in zip(positive, positive[1:])):
        failed.append("monotone")
    return rows, cols, failed


def _cmd_sdof(args):
    gains = _parse_float_grid(args.grid)
    points = sdof.sdof_landscape(gains, args.qmax)
    rows = [{
        "sqrt_ab": p.sqrt_ab, "p": p.p, "q": p.q, "gamma": p.gamma,
        "alpha": p.alpha, "beta": p.beta, "sdof": p.sdof,
    } for p in points]
    cols = ["sqrt_ab", "p", "q", "gamma", "alpha", "beta", "sdof"]
    bad = any(p.sdof is not None and not (0 <= p.sdof < 1) for p in points)
    return rows, cols, ["sdof_range"] if bad else []


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latsec",
        description="Nested-lattice secrecy experiments with exact desk-scale checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("entropy-check", help="side-information floor and tail bounds")
    common(p)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--max-x", type=int, default=8)
    p.add_argument("--max-t", type=int, default=8)
    p.add_argument("--grid-max", type=int, default=3)
    p.add_argument("--grid-step", type=int, default=8)
    p.add_argument("--s", type=str, default="0.5,1,2,4")

    p = sub.add_parser("lattice-verify", help="disclosure audit of the dithered real sum")
    common(p)
    p.add_argument("--n", "--N", dest="n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.add_argument("--dither", choices=("zero", "random"), default="zero")
    p.add_argument("--cap", type=int, default=lattice.DEFAULT_ENUM_CAP)

    p = sub.add_parser("hash-bench", help="full-rank fractions, exhaustive and sampled")
    common(p)
    p.add_argument("--r-max", type=int, default=3)
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--mc-r", type=int, default=8)
    p.add_argument("--mc-n", type=int, default=16)
    p.add_argument("--mc-trials", type=int, default=100000)

    p = sub.add_parser("amplify", help="exhaustive hashed-entropy floor checks")
    common(p)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--c-list", type=str, default="1,2,3")

    p = sub.add_parser("keygen", help="key-protocol secrecy audit and agreement rate")
    common(p)
    p.add_argument("--nbar", type=int, default=2)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--sigma1", type=float, default=1e-6)
    p.add_argument("--a", type=float, default=2.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.add_argument("--mode", choices=("marginal", "genie"), default="marginal")

    p = sub.add_parser("simulate", help="message rounds: reliability, rate, leakage")
    common(p)
    p.add_argument("--nbar", type=int, default=2)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--r0", type=int, default=1)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--sigma1", type=float, default=1e-6)
    p.add_argument("--a", type=float, default=2.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.add_argument("--mode", choices=("marginal", "genie"), default="marginal")
    p.add_argument("--family", type=int, default=4)

    p = sub.add_parser("leakage-trend", help="exact leakage across blocklengths")
    common(p)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--nbar", "--Nbar", dest="nbar", type=str, default="2:6")
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--family", type=int, default=16)
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.add_argument("--policy", choices=("first", "best"), default="best")
    p.add_argument("--dither", choices=("zero", "random"), default="zero")
    p.add_argument("--fixed-r0", type=int, default=None)
    p.add_argument("--decode-trials", type=int, default=0)
    p.add_argument("--sigma1", type=float, default=1e-6)
    p.add_argument("--a", type=float, default=2.0)
    p.add_argument("--b", type=float, default=1.0)

    p = sub.add_parser("sdof", help="secure-degrees-of-freedom landscape")
    common(p)
    p.add_argument("--grid", type=str, default="1.0:3.0:0.1")
    p.add_argument("--qmax", type=int, default=10)

    return parser


_DISPATCH = {
    "entropy-check": _cmd_entropy_check,
    "lattice-verify": _cmd_lattice_verify,
    "hash-bench": _cmd_hash_bench,
    "amplify": _cmd_amplify,
    "keygen": _cmd_keygen,
    "simulate": _cmd_simulate,
    "leakage-trend": _cmd_leakage_trend,
    "sdof": _cmd_sdof,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rows, columns, failed = _DISPATCH[args.command](args)
    except (ConfigError, ValidationError, DomainError, ResourceCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = _render(rows, columns, args.format)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    for name in failed:
        print(f"check failed: {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
