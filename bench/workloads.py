"""The benchmark workloads: their inputs, their operations, their checks.

A workload runs two parts, one after the other in each pass.  Each part is
one latsec path (leakage-trend, keygen, simulate, the exhaustive checks)
with its own parameters, streams and checks; the parts' stream labels and
operation keys are disjoint, so a part computes the same figures alone as
inside a workload.  `leakage_keygen` holds the two parts that run the Walsh
counting kernel, `simulate_checks` the two that barely touch it.

Every load is a closed loop with one caller: a pass runs the workload's
operations one after another, each starting when the previous one returns,
because latsec is a batch tool.  All inputs come from the workload seed:
`stream_seed(seed, label)` fans it out to every library `seed=` argument and
every dither draw.  Library calls go through the module attribute
(`channel.transmit`, not an imported name) so traced runs see them.

`verify` checks a pass's figures by routes independent of the call that
produced them and returns a reason for each operation that fails.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from latsec import channel, entropy, extractor, hashing, lattice, sdof
from latsec._rng import substream

import checks


def stream_seed(seed: int, label: str) -> int:
    """Non-negative 63-bit seed for one labeled stream of the workload seed."""
    digest = hashlib.sha256(f"{int(seed)}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class Op:
    """One closed-loop call; `fn` returns the figure the check looks at."""

    key: str
    kind: str
    fn: Callable[[], Any]
    seeded: bool = True


def _trend_figure(row) -> dict:
    return {"r0": row.r0, "leakage_bits": row.leakage_bits,
            "family_avg": row.family_avg_leakage, "decode_error_rate": row.decode_error_rate,
            "power_1": row.power_1, "power_2": row.power_2}


class Part:
    name = ""
    defaults: dict = {}
    round_kinds: tuple = ()  # kinds of operation whose latencies are rounds

    def __init__(self, seed: int, **overrides):
        unknown = set(overrides) - set(self.defaults)
        if unknown:
            raise ValueError(f"unknown parameters {sorted(unknown)}")
        self.seed = int(seed)
        self.params = {**self.defaults, **overrides}

    def stream(self, label: str) -> int:
        return stream_seed(self.seed, label)

    def dithers(self, codebook, label: str) -> tuple:
        """One public dither vector per layer, uniform over its region."""
        return channel.random_dithers(codebook, np.random.default_rng(self.stream(label)))

    def setup(self) -> None:
        """Build what the timed passes reuse (codebooks, systems, decoders)."""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def verify(self, figures: dict) -> dict[str, str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------

class LeakageSweep(Part):
    """Exact leakage across blocklengths: the Walsh counting kernel.

    The m=4 trend reaches the largest working set (2^5 * 7^8 counts per
    N_bar=8 call).  The m=8 trend with random dithers is the case a
    reflection-symmetry shortcut cannot take; its width is held fixed, so
    its leakage must decay strictly, while the natural-width m=4 trend is
    not monotone for every seed and gets no decay check.
    """

    name = "leakage_sweep"
    defaults = {
        "trends": [
            {"m": 4, "n_bar": list(range(2, 9)), "family": 2, "sign": "+",
             "dither": "zero", "fixed_r0": None},
            {"m": 8, "n_bar": list(range(2, 6)), "family": 16, "sign": "-",
             "dither": "random", "fixed_r0": 3},
        ],
        "eps": 0.3, "delta": 0.05,
        "enumerate_max_sigma": 20000,
    }

    def _trend_seed(self, t: dict) -> int:
        return self.stream(f"trend-m{t['m']}")

    def _row_call(self, t: dict, n_bar: int):
        p = self.params
        return lambda: _trend_figure(channel.leakage_trend(
            t["m"], [n_bar], p["eps"], p["delta"], sign=t["sign"], family=t["family"],
            seed=self._trend_seed(t), policy="best", dither_mode=t["dither"],
            fixed_r0=t["fixed_r0"])[0])

    def ops(self) -> list[Op]:
        return [Op(f"m{t['m']}/nbar{n}", "trend_row", self._row_call(t, n))
                for t in self.params["trends"] for n in t["n_bar"]]

    def verify(self, figures: dict) -> dict[str, str]:
        p = self.params
        bad = {}
        for t in p["trends"]:
            keys = [f"m{t['m']}/nbar{n}" for n in t["n_bar"]]
            rows = [figures[k] for k in keys]
            for k, row in zip(keys, rows):
                if row["leakage_bits"] > 2 * row["family_avg"] + 1e-12:
                    bad[k] = "selected hash leaks more than twice the family average"
            if t["fixed_r0"] is not None:
                leaks = [row["leakage_bits"] for row in rows]
                decays = all(b < a for a, b in zip(leaks, leaks[1:]))
                if not decays or checks.log2_slope(t["n_bar"], leaks) >= 0:
                    for k in keys:
                        bad.setdefault(k, "fixed-width leakage does not decay")
            for n, k in zip(t["n_bar"], keys):
                codebook = channel.make_codebook(t["m"], n)
                sigma = (2 * t["m"] - 1) ** n
                if k in bad or sigma > p["enumerate_max_sigma"]:
                    continue
                d1 = None
                if t["dither"] == "random":
                    # the dithers leakage_trend draws for this row
                    d1 = channel.random_dithers(codebook, substream(self._trend_seed(t),
                                                                    f"dither1-{n}"))
                sel = channel.select_secrecy_hash(
                    codebook, figures[k]["r0"], d1, t["sign"], n_candidates=t["family"],
                    seed=self._trend_seed(t) + n, policy="best")
                slow = channel.exact_leakage(codebook, sel.kit, d1, t["sign"],
                                             method="enumerate")
                if abs(slow - figures[k]["leakage_bits"]) > 1e-9:
                    bad[k] = f"fast leakage {figures[k]['leakage_bits']} != enumerated {slow}"
        return bad


# ---------------------------------------------------------------------------

class KeyProtocol(Part):
    """The keygen path: exhaustive key-secrecy audits, then marginal key rounds.

    The audits run the counting kernel as many small Walsh passes over seed
    rows; the rounds exercise marginal ML decoding plus the extractor.
    """

    name = "key_protocol"
    defaults = {
        "m": 4, "sign": "+",
        "audits": [[4, 2], [5, 1], [2, 3]],
        "round_n_bar": 4, "round_r": 2, "sigma1": 1e-6, "a": 2.0, "b": 1.0,
        "rounds": 500,
    }
    round_kinds = ("key_round",)

    def setup(self) -> None:
        p = self.params
        self.audit_inputs = {}
        for n_bar, r in p["audits"]:
            cb = channel.make_codebook(p["m"], n_bar)
            self.audit_inputs[(n_bar, r)] = (cb, self.dithers(cb, f"audit-{n_bar}-{r}"))
        cb = channel.make_codebook(p["m"], p["round_n_bar"])
        spec = extractor.ExtractorSpec(cb.n0_bits, p["round_r"])
        setup = extractor.KeyProtocolSetup(cb, spec, self.dithers(cb, "round-d1"),
                                           self.dithers(cb, "round-d2"))
        cfg = channel.ChannelConfig(a=p["a"], b=p["b"], sign=1 if p["sign"] == "+" else -1,
                                    noise_var1=p["sigma1"] ** 2, n_uses=cb.block_dim)
        self.runner = extractor.KeyAgreementRunner(cfg, setup)
        # the decoder's pair table is built on first use; a caller of the
        # keygen path pays that once, so it belongs to set-up
        self.runner.decoder.decode_index(np.zeros(cb.block_dim))
        self.round_base = self.stream("key-rounds")

    def _audit(self, n_bar: int, r: int):
        def call():
            cb, d1 = self.audit_inputs[(n_bar, r)]
            rep = extractor.key_secrecy_report(cb, r, d1, self.params["sign"])
            return {"h_key_given_view": rep.h_key_given_view, "budget_c": rep.budget_c,
                    "eps_sec": rep.eps_sec, "floor": rep.floor, "seed_space": rep.seed_space,
                    "sigma_space": rep.sigma_space, "passed": rep.passed}
        return call

    def _round(self, t: int):
        def call():
            tr = self.runner.run_one(self.round_base + t, mode="marginal")
            return {"v_seed": tr.v_seed, "t1": tr.t1_index, "t2": tr.t2_index,
                    "k1": tr.k1_bits.tolist(), "k1_hat": tr.k1_hat_bits.tolist(),
                    "agreement": tr.agreement, "carry": list(tr.carry)}
        return call

    def ops(self) -> list[Op]:
        # an audit averages over every extractor seed, which makes it
        # invariant to the cyclic relabeling a dither induces: the seeded
        # dithers move only the last bits of its floats
        audits = [Op(f"audit/nbar{n}/r{r}", "audit", self._audit(n, r), seeded=False)
                  for n, r in self.params["audits"]]
        rounds = [Op(f"round/{t}", "key_round", self._round(t))
                  for t in range(self.params["rounds"])]
        return audits + rounds

    def verify(self, figures: dict) -> dict[str, str]:
        p = self.params
        bad = {}
        for n_bar, r in p["audits"]:
            k = f"audit/nbar{n_bar}/r{r}"
            f = figures[k]
            if not f["passed"] or not f["floor"] - 1e-12 <= f["h_key_given_view"] <= r + 1e-9:
                bad[k] = f"audit failed: H(K|view)={f['h_key_given_view']} floor={f['floor']}"
        n0 = self.runner.setup.spec.input_len
        for t in range(p["rounds"]):
            k = f"round/{t}"
            f = figures[k]
            if not f["agreement"] or f["k1"] != f["k1_hat"]:
                bad[k] = "keys disagree at tiny noise"
            elif f["k1"] != checks.extract_bits(f["v_seed"], f["t1"], n0, p["round_r"]):
                bad[k] = "key differs from the seed-matrix extraction"
        return bad


# ---------------------------------------------------------------------------

# (mode, index into sigmas): three quarters marginal, split between the
# two noise levels, the rest genie
ROUND_SCHEDULE = [("marginal", 0)] * 3 + [("marginal", 1)] * 3 + [("genie", 0), ("genie", 1)]


class MessageRounds(Part):
    """The simulate path: transmit, ML decoding and secret decoding per round.

    At sigma1=0.1 about a fifth of marginal decisions are errors, so near
    ties test decoder precision.  Exact leakage is negligible here.
    """

    name = "message_rounds"
    defaults = {
        "m": 4, "n_bar": 4, "r0": 2, "family": 4, "sign": "+", "a": 2.0, "b": 1.0,
        "sigmas": [1e-6, 0.1], "rounds": 400,
        "trend_n_bar": list(range(2, 7)), "trend_family": 4, "decode_trials": 200,
    }
    round_kinds = ("message_round",)

    def setup(self) -> None:
        p = self.params
        cb = channel.make_codebook(p["m"], p["n_bar"])
        d1 = self.dithers(cb, "d1")
        d2 = self.dithers(cb, "d2")
        sel = channel.select_secrecy_hash(cb, p["r0"], d1, p["sign"], n_candidates=p["family"],
                                          seed=self.stream("hash-select"))
        self.system = channel.build_system(cb, sel.kit, d1, d2)
        self.cfgs = [channel.ChannelConfig(a=p["a"], b=p["b"],
                                           sign=1 if p["sign"] == "+" else -1,
                                           noise_var1=s ** 2, n_uses=cb.block_dim)
                     for s in p["sigmas"]]
        self.decoders = [channel.MLDecoder(cfg, self.system) for cfg in self.cfgs]
        for dec in self.decoders:  # builds the lazy pair table, as in extractor setup
            dec.decode_index(np.zeros(cb.block_dim))
        rng = np.random.default_rng(self.stream("messages"))
        self.messages = rng.integers(0, 2, size=(p["rounds"], p["r0"]), dtype=np.int64)
        self.round_base = self.stream("round-seeds")

    def _round(self, t: int):
        mode, s = ROUND_SCHEDULE[t % len(ROUND_SCHEDULE)]

        def call():
            tr = channel.run_message_round(self.cfgs[s], self.system, self.messages[t],
                                           self.round_base + t, mode=mode,
                                           decoder=self.decoders[s])
            return {"mode": mode, "noise": s, "w": tr.w_bits.tolist(),
                    "w_hat": tr.w_hat.tolist(), "error": bool(tr.decode_error),
                    "y1": tr.y1.tolist(), "t2": tr.t2.tolist()}
        return call

    def _trend(self):
        p = self.params

        def call():
            rows = channel.leakage_trend(p["m"], p["trend_n_bar"], 0.3, 0.05, sign=p["sign"],
                                         family=p["trend_family"], seed=self.stream("trend"),
                                         dither_mode="random",
                                         decode_trials=p["decode_trials"])
            return [_trend_figure(row) for row in rows]
        return call

    def ops(self) -> list[Op]:
        rounds = [Op(f"round/{t}", "message_round", self._round(t))
                  for t in range(self.params["rounds"])]
        return rounds + [Op("trend_decode", "trend", self._trend())]

    def verify(self, figures: dict) -> dict[str, str]:
        bad = {}
        refs = [checks.ReferenceDecoder(cfg, self.system) for cfg in self.cfgs]
        for t in range(self.params["rounds"]):
            k = f"round/{t}"
            f = figures[k]
            y1 = np.array(f["y1"])
            if f["noise"] == 0:
                if f["error"]:
                    bad[k] = "decode error at tiny noise"
                continue
            ref = refs[f["noise"]]
            if f["mode"] == "genie":
                want = [ref.secret_of(ref.genie_index(y1, np.array(f["t2"])))]
            else:
                want = ref.marginal_secrets(y1)
            if f["w_hat"] not in want:
                bad[k] = f"decision {f['w_hat']} differs from the reference {want[0]}"
        for row in figures["trend_decode"]:
            if row["leakage_bits"] > 2 * row["family_avg"] + 1e-12 or row["decode_error_rate"] != 0:
                bad["trend_decode"] = "trend row fails the family screen or decodes wrongly"
        return bad


# ---------------------------------------------------------------------------

class ExhaustiveChecks(Part):
    """The entropy-check, lattice-verify, hash-bench, amplify and sdof paths.

    Pure-Python integer work with no numpy kernel; without it the entropy,
    lattice and sdof modules would go unmeasured.  The checks are bundled
    into three operations: the tail-bound grid sweep, lattice-verify, and
    the rest (floor sweep, hash-bench, amplify, sdof).
    """

    name = "exhaustive_checks"
    defaults = {
        "grid": [3, 4, 8], "s_values": [0.5, 1.0, 2.0, 4.0],
        "floor_trials": 10000, "floor_alphabet": 8,
        "dsr": [[1, 4, "+"], [1, 4, "-"], [2, 4, "+"], [2, 4, "-"], [1, 8, "-"]], "dsr_s": 2.0,
        "roundtrip_dim": 2, "roundtrip_m": 4, "roundtrip_summands": [2, 3],
        "roundtrip_trials": 200,
        "full_rank_max": [3, 5], "mc": [8, 16, 20000],
        "hashed": [["geometric", 3, 1], ["geometric", 3, 2], ["flat8", 4, 1],
                   ["flat8", 4, 2], ["flat8", 4, 3], ["geometric", 4, 2]],
        "hashed_sampled": 32,
        "sdof_gains": 200, "sdof_qmax": 10,
    }
    MEASURES = ("shannon", "renyi2", "min")

    @staticmethod
    def _source(kind: str, n: int):
        if kind == "geometric":
            return hashing.geometric_bit_source(n)
        return hashing.flat_bit_source(n, int(kind[4:]))

    def _roundtrip_points(self, k: int) -> np.ndarray:
        """Trials of k fine-lattice points in the unit box [-1/2, 1/2)^dim."""
        p = self.params
        rng = np.random.default_rng(self.stream(f"roundtrip-{k}"))
        m = p["roundtrip_m"]
        return -0.5 + rng.integers(0, m, size=(p["roundtrip_trials"], k, p["roundtrip_dim"])) / m

    def _full_rank_sizes(self) -> list[tuple[int, int]]:
        r_max, n_max = self.params["full_rank_max"]
        return [(r, n) for r in range(1, r_max + 1) for n in range(r, n_max + 1)]

    def _grid(self):
        p = self.params
        mx, mt, step = p["grid"]

        def call():
            rep = entropy.violation_mass_grid_sweep(mx, mt, step, tuple(p["s_values"]))
            return {"joints": rep.joints, "violations_renyi2": rep.bound_violations_renyi2,
                    "violations_min": rep.bound_violations_min,
                    "max_mass_renyi2": rep.max_mass_renyi2, "max_mass_min": rep.max_mass_min}
        return call

    def _lattice_verify(self):
        p = self.params
        audits = []
        for n, m, sign in p["dsr"]:
            pair = lattice.NestedLatticePair(n, float(m), m)
            rng = np.random.default_rng(self.stream(f"dsr-{n}-{m}-{sign}"))
            c = pair.coarse_scale
            audits.append((f"n{n}/m{m}/{sign}", pair, sign,
                           c * rng.random(n) - c / 2, c * rng.random(n) - c / 2))
        lat = lattice.ScaledLattice(p["roundtrip_dim"], 1.0)
        picks = {k: self._roundtrip_points(k) for k in p["roundtrip_summands"]}

        def call():
            out = {"dsr": {}, "roundtrip": {}}
            for key, pair, sign, d1, d2 in audits:
                for measure in self.MEASURES:
                    rep = lattice.dithered_sum_secrecy_report(pair, d1, d2, sign, p["dsr_s"],
                                                              measure)
                    out["dsr"][f"{key}/{measure}"] = {
                        "passed": rep.passed, "shannon_gap": rep.shannon_gap,
                        "max_mass": rep.max_slice_violation_mass,
                        "masked_independent": rep.masked_independent,
                        "max_carry_labels": rep.max_carry_labels}
            for k, trials in picks.items():
                rows = []
                for pts in trials:
                    idx, w = lattice.representation_index(list(pts), lat)
                    rows.append([idx.T, lattice.reconstruct_sum(idx, w, lat).tolist()])
                out["roundtrip"][f"k{k}"] = rows
            return out
        return call

    def _other_checks(self):
        """The floor sweep, hash-bench, amplify and sdof paths, in one operation."""
        p = self.params
        r_mc, n_mc, trials = p["mc"]
        kind, n, r = p["hashed"][-1]
        samples = np.random.default_rng(self.stream("hashed-sample")).integers(
            0, 2 ** 62, size=p["hashed_sampled"]).tolist()
        gains = (1.0 + 2.0 * np.random.default_rng(self.stream("sdof-gains")).random(
            p["sdof_gains"])).tolist()

        def call():
            floor = entropy.conditional_entropy_floor_sweep(
                p["floor_trials"], p["floor_alphabet"], p["floor_alphabet"],
                seed=self.stream("floor"))
            return {
                "floor": {"violations": floor.violations,
                          "max_deficit": float(floor.max_deficit)},
                "full_rank": {f"r{fr}/n{fn}": hashing.full_rank_fraction_exhaustive(fr, fn)
                              for fr, fn in self._full_rank_sizes()},
                "full_rank_mc": hashing.full_rank_fraction_mc(r_mc, n_mc, trials,
                                                              seed=self.stream("mc")),
                "hashed": {f"{k}/n{sn}/r{sr}": hashing.exact_hashed_entropy(
                    self._source(k, sn), sr) for k, sn, sr in p["hashed"]},
                "hashed_sampled": hashing.exact_hashed_entropy(self._source(kind, n), r,
                                                               seed_set=samples),
                "sdof": [[pt.sqrt_ab, pt.p, pt.q, pt.gamma, pt.sdof]
                         for pt in sdof.sdof_landscape(gains, p["sdof_qmax"])],
            }
        return call

    def ops(self) -> list[Op]:
        return [Op("grid_sweep", "check", self._grid(), seeded=False),
                Op("lattice_verify", "check", self._lattice_verify()),
                Op("other_checks", "check", self._other_checks())]

    def verify(self, figures: dict) -> dict[str, str]:
        p = self.params
        bad = {}
        grid = figures["grid_sweep"]
        joints = checks.stars_and_bars(*p["grid"])
        if grid["joints"] != joints:
            bad["grid_sweep"] = f"{grid['joints']} joints, stars and bars gives {joints}"
        elif grid["violations_renyi2"] or grid["violations_min"]:
            bad["grid_sweep"] = "tail-bound violations found"

        lv = figures["lattice_verify"]
        for n, m, sign in p["dsr"]:
            for measure in self.MEASURES:
                f = lv["dsr"][f"n{n}/m{m}/{sign}/{measure}"]
                if not (f["passed"] and f["masked_independent"]
                        and f["shannon_gap"] <= n + 1e-9 and f["max_carry_labels"] <= 2 ** n):
                    bad["lattice_verify"] = f"n={n} m={m} {sign} {measure}: audit failed"
        dim = p["roundtrip_dim"]
        for k in p["roundtrip_summands"]:
            for pts, (t_index, total) in zip(self._roundtrip_points(k), lv["roundtrip"][f"k{k}"]):
                if not 1 <= t_index <= k ** dim or not np.allclose(total, pts.sum(axis=0),
                                                                   rtol=0, atol=1e-9):
                    bad["lattice_verify"] = f"{k}-point sum representation does not round-trip"
                    break

        oc = figures["other_checks"]
        problems = []
        if oc["floor"]["violations"] or oc["floor"]["max_deficit"] > 1e-9:
            problems.append("conditional-entropy floor violated")
        for r, n in self._full_rank_sizes():
            if abs(oc["full_rank"][f"r{r}/n{n}"] - checks.full_rank_probability(r, n)) > 1e-12:
                problems.append(f"r={r} n={n}: exhaustive full-rank fraction is off")
        r, n, trials = p["mc"]
        exact = checks.full_rank_probability(r, n)
        # five standard deviations: a false alarm once in ~1.7 million runs
        if abs(oc["full_rank_mc"] - exact) > 5 * math.sqrt(exact * (1 - exact) / trials):
            problems.append("sampled full-rank fraction far from the closed form")
        for kind, n, r in p["hashed"]:
            floor = hashing.privacy_amp_bound(r, 2, entropy.renyi2_entropy(self._source(kind, n)))
            if not floor < oc["hashed"][f"{kind}/n{n}/r{r}"] <= r + 1e-12:
                problems.append(f"{kind} n={n} r={r}: hashed entropy outside (floor, r]")
        if not 0 <= oc["hashed_sampled"] <= p["hashed"][-1][2] + 1e-12:
            problems.append("sampled hashed entropy outside [0, r]")
        for gain, pq, q, gamma, dof in oc["sdof"]:
            want = checks.sdof_direct(gain, p["sdof_qmax"])
            got = None if dof is None else (pq, q, dof)
            if (want is None) != (got is None) or (
                    got is not None and (got[:2] != want[:2] or abs(got[2] - want[2]) > 1e-12
                                         or not 0 <= got[2] < 1)):
                problems.append(f"sdof at gain {gain} differs from the direct formula")
                break
        if problems:
            bad["other_checks"] = "; ".join(problems)
        return bad


class Workload:
    """One benchmark workload: the operations of its parts, part after part."""

    def __init__(self, name: str, parts: tuple, seed: int, **overrides):
        unknown = set(overrides) - {p.name for p in parts}
        if unknown:
            raise ValueError(f"unknown parts {sorted(unknown)}")
        self.name = name
        self.seed = int(seed)
        self.parts = [p(seed, **overrides.get(p.name, {})) for p in parts]
        self.params = {p.name: p.params for p in self.parts}
        self.round_kinds = tuple(k for p in self.parts for k in p.round_kinds)

    def setup(self) -> None:
        for p in self.parts:
            p.setup()

    def ops(self) -> list[Op]:
        """The parts' operations, with the rounds spread in even chunks
        between the others.  A round takes milliseconds and the machine's
        speed drifts over seconds, so rounds run in one block per pass
        would sample one stretch of each pass; spread out, their
        percentiles sample the whole run, as `run_s` does."""
        ops = [op for p in self.parts for op in p.ops()]
        if len({op.key for op in ops}) != len(ops):
            raise ValueError(f"the parts of {self.name} share an operation key")
        rounds = [op for op in ops if op.kind in self.round_kinds]
        others = [op for op in ops if op.kind not in self.round_kinds]
        chunks = len(others) + 1
        spread = []
        for i in range(chunks):
            spread += rounds[i * len(rounds) // chunks:(i + 1) * len(rounds) // chunks]
            spread += others[i:i + 1]
        return spread

    def verify(self, figures: dict) -> dict[str, str]:
        bad = {}
        for p in self.parts:
            bad.update(p.verify(figures))
        return bad


WORKLOADS = {
    "leakage_keygen": (LeakageSweep, KeyProtocol),
    "simulate_checks": (MessageRounds, ExhaustiveChecks),
}


def make_workload(name: str, seed: int, **overrides) -> Workload:
    """The named workload; overrides map a part's name to its parameters."""
    return Workload(name, WORKLOADS[name], seed, **overrides)
