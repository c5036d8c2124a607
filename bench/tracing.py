"""In-memory span recorder, the wrappers that feed it, and per-layer metrics.

Spans are recorded from the benchmark's side of the library boundary.  A
wrapper replaces a library callable in every latsec namespace that binds
it, so a call is seen wherever the caller looks the name up: `channel`
imports `encode_secret` by name, and `extractor` reaches `MLDecoder`
through the class, whose methods are replaced on the class itself.

Work counts attached to spans are computed from the call's arguments (for
example 2^r0 * prod(2 m_j - 1) Walsh counts per exact_leakage call); they
are what the algorithm must touch, not something measured.
"""
from __future__ import annotations

import inspect
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from checks import stars_and_bars


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float | None = None
    counts: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"id": self.sid, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "counts": self.counts}


class Tracer:
    """Single-threaded span stack; every span stays in memory until written."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), parent, name, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.sid, [])]
        out[s.sid] = (s.end - s.start) - _covered([k for k in kids if k[1] > k[0]])
    return out


# ---------------------------------------------------------------------------
# Computed work counts, from a call's bound arguments.
# ---------------------------------------------------------------------------

def _sigma_alphabet(codebook) -> int:
    return math.prod((2 * layer.nesting - 1) ** layer.dim for layer in codebook.layers)


def _walsh_counts(a) -> dict:
    h = a["hash_or_kit"]
    if h is None:
        return {"walsh_counts": 0}
    g = getattr(h, "g", h)
    return {"walsh_counts": (1 << g.rows) * _sigma_alphabet(a["codebook"])}


def _hypotheses(a) -> dict:
    system = a["self"].system
    k = system.labeling.points.shape[0]
    j = system.jammer_points().shape[0]
    return {"hypotheses": k * j if a["mode"] == "marginal" else k}


def _audit_work(a) -> dict:
    cb = a["codebook"]
    n0 = cb.n0_bits
    return {"seed_space": 1 << (a["r"] * n0),
            "table_cells": (1 << n0) * _sigma_alphabet(cb)}


def _grid_work(a) -> dict:
    return {"joints": stars_and_bars(a["max_x"], a["max_t"], a["mass_step"])}


_CALLS = ("calls", "total_s")

# (module, callable, work counter, reported stats).  A dotted callable names
# a method, replaced on its class, and the span for `__init__` is `init`.
# Stats are per traced pass, except for `init`, which is per set-up; the
# rates divide a computed count by total_s.
TARGETS = [
    ("channel", "exact_leakage", _walsh_counts,
     ("calls", "total_s", "walsh_counts", "counts_per_s")),
    ("channel", "select_secrecy_hash", None, ("self_s",)),
    ("channel", "leakage_trend", None, ("self_s",)),
    ("channel", "MLDecoder.decode_index", _hypotheses,
     ("calls", "total_s", "hypotheses", "hypotheses_per_s")),
    ("channel", "MLDecoder.__init__", None, ("total_s",)),
    ("channel", "transmit", None, _CALLS),
    ("channel", "run_message_round", None, ("self_s",)),
    ("channel", "exact_signal_power", None, _CALLS),
    ("extractor", "KeyAgreementRunner.__init__", None, ("total_s",)),
    ("extractor", "key_secrecy_report", _audit_work,
     ("calls", "total_s", "seed_space", "table_cells", "cells_per_s")),
    ("extractor", "KeyAgreementRunner.run_one", None, ("calls", "self_s")),
    *[("hashing", fn, None, _CALLS) for fn in (
        "sample_linear_hash", "build_encoder", "encode_secret", "decode_secret",
        "full_rank_fraction_exhaustive", "full_rank_fraction_mc", "exact_hashed_entropy")],
    ("entropy", "violation_mass_grid_sweep", _grid_work, ("total_s", "joints", "joints_per_s")),
    ("entropy", "conditional_entropy_floor_sweep", lambda a: {"trials": a["trials"]},
     ("total_s", "trials")),
    *[("lattice", fn, None, _CALLS) for fn in (
        "dithered_sum_secrecy_report", "representation_index", "reconstruct_sum")],
    ("sdof", "sdof_landscape", lambda a: {"points": len(a["gains"])}, ("total_s", "points")),
]
RATES = {"counts_per_s": "walsh_counts", "hypotheses_per_s": "hypotheses",
         "joints_per_s": "joints", "cells_per_s": "table_cells"}
OVERHEAD = "bench.trace_overhead_s"


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('__init__', 'init')}"


def _wrap(tracer: Tracer, name: str, fn, counter):
    sig = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        counts = {}
        if counter is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            counts = counter(bound.arguments)
        span = tracer.open(name)
        span.counts = counts
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Bind span-recording wrappers over TARGETS; restore the originals on exit."""
    undo = []
    try:
        for module, attr, counter, _ in TARGETS:
            mod = sys.modules[f"latsec.{module}"]
            name = span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, _wrap(tracer, name, original, counter))
                continue
            original = getattr(mod, attr)
            wrapper = _wrap(tracer, name, original, counter)
            for mod_name, other in list(sys.modules.items()):
                if mod_name != "latsec" and not mod_name.startswith("latsec."):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        undo.append((other, key, original))
                        setattr(other, key, wrapper)
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


# ---------------------------------------------------------------------------
# Per-layer metrics.
# ---------------------------------------------------------------------------

def stat_unit(stat: str) -> str:
    if stat in RATES:
        return "1/s"
    return "s" if stat.endswith("_s") else "count"


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric, in report order."""
    out = [(f"{span_name(module, attr)}.{stat}", stat_unit(stat))
           for module, attr, _, stats in TARGETS for stat in stats]
    return out + [(OVERHEAD, "s")]


def per_layer_metrics(tracer: Tracer, setup_span: Span, pass_spans: list[Span]) -> dict:
    """Aggregate layer spans: per set-up for `.init`, else mean per traced pass."""
    selfs = self_times(tracer.spans)
    phase_of: dict[int, int] = {}
    for s in tracer.spans:
        phase_of[s.sid] = s.sid if s.parent is None else phase_of[s.parent]
    pass_ids = {p.sid for p in pass_spans}
    out = {}
    for module, attr, _, stats in TARGETS:
        name = span_name(module, attr)
        if name.endswith(".init"):
            phases, per = {setup_span.sid}, 1
        else:
            phases, per = pass_ids, len(pass_spans)
        mine = [s for s in tracer.spans if s.name == name and phase_of[s.sid] in phases]
        total = sum(s.end - s.start for s in mine)
        for stat in stats:
            if stat in RATES:
                work = sum(s.counts.get(RATES[stat], 0) for s in mine)
                out[f"{name}.{stat}"] = work / total if total > 0 else 0.0
                continue
            if stat == "calls":
                value = len(mine)
            elif stat == "total_s":
                value = total
            elif stat == "self_s":
                value = sum(selfs[s.sid] for s in mine)
            else:
                value = sum(s.counts.get(stat, 0) for s in mine)
            out[f"{name}.{stat}"] = value / per
    return out
