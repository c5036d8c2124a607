#!/usr/bin/env python3
"""Benchmark one latsec workload from a source checkout.

    python3 bench/run.py --workload leakage_keygen --seed 0 --seconds 60 --trace 0

The workload's operations run in a closed loop with one caller, pass after
pass, until the next pass would overrun --seconds (at least two passes).  The
first pass is a warm-up that no end-to-end time comes from.  It is checked by
independent routes (and, at seed 0, against the figures in bench/reference/);
every later pass must reproduce it.

With --trace 0 the end-to-end metrics are reported.  With --trace 1 the
workload is set up with span-recording wrappers bound around the library,
then passes alternate between plain and instrumented; the per-layer metrics
come from the instrumented passes, the difference in median pass time is
reported as the tracing overhead, and the spans are written to bench/out/.
No end-to-end number comes from a traced run.

Standard output ends with one JSON line: correct, attempted, failed, metrics.
The lines before it give the provenance and a digest of the figures.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
FLOAT_TOL = 1e-9
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
              "round_ms_p50": "ms", "round_ms_p90": "ms"}


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def nearest_rank(values, pct: int) -> float:
    """The ceil(pct/100 * n)-th smallest value (in integers, so 90% of 10 is 9).

    Over passes that repeat one fixed mix of operations, this picks the same
    kind of operation however many passes a run holds; interpolation would not.
    """
    ordered = sorted(values)
    return ordered[max(1, -(-pct * len(ordered) // 100)) - 1]


def figures_match(want, got, tol: float = FLOAT_TOL) -> bool:
    """Integers, flags and decisions exactly; floats within tol (bits)."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and want.keys() == got.keys()
                and all(figures_match(want[k], got[k], tol) for k in want))
    if isinstance(want, (list, tuple)):
        return (isinstance(got, (list, tuple)) and len(want) == len(got)
                and all(figures_match(a, b, tol) for a, b in zip(want, got)))
    if isinstance(want, bool) or isinstance(got, bool):
        return want is got
    if isinstance(want, float) or isinstance(got, float):
        return (isinstance(want, (int, float)) and isinstance(got, (int, float))
                and abs(want - got) <= tol)
    return type(want) is type(got) and want == got


# ---------------------------------------------------------------------------
# Provenance.
# ---------------------------------------------------------------------------

def _openblas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    """HEAD of the checkout's own .git, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, wl) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "params": wl.params,
        "nproc": nproc(), "python": platform.python_version(), "numpy": np.__version__,
        "openblas": blas_version,
        "openblas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas_threads": _openblas_threads(),
        "git_commit": _git_commit(), "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Passes.
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    seconds: float
    figures: dict = field(default_factory=dict)
    latencies: list = field(default_factory=list)  # (kind, seconds) per op
    errors: dict = field(default_factory=dict)
    traced: bool = False
    differs: set = field(default_factory=set)  # keys whose figure differs from pass 1


def run_pass(ops, tracer=None) -> PassResult:
    res = PassResult(0.0)
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        span = tracer.open("bench.op") if tracer else None
        try:
            res.figures[op.key] = op.fn()
        except Exception:  # one failed operation must not end the run
            res.errors[op.key] = traceback.format_exc()
            print(f"operation {op.key} raised:\n{res.errors[op.key]}", file=sys.stderr)
        finally:
            if span is not None:
                tracer.close(span)
        res.latencies.append((op.kind, time.perf_counter() - t0))
    res.seconds = time.perf_counter() - start
    return res


def settle(first: PassResult, res: PassResult) -> None:
    """Compare a later pass with the first and drop its figures, so that kept
    figures neither grow the process's memory nor slow later passes down
    through the garbage collector."""
    res.differs = {k for k, v in res.figures.items()
                   if not figures_match(first.figures.get(k), v)}
    res.figures = {}


def timed_passes(ops, budget: float, tracer=None) -> tuple[list[PassResult], list]:
    """Passes until the next one, at the median pass time, would overrun budget.

    There are at least two, so one is timed after the warm-up pass.  With a
    tracer, every second pass runs with the library instrumented, so plain
    and traced passes share the machine's drift.
    """
    start = time.perf_counter()
    results, spans = [], []
    while True:
        if tracer is not None and len(results) % 2:
            import tracing
            with tracing.instrumented(tracer), tracer.span("bench.pass") as s:
                results.append(run_pass(ops, tracer))
            results[-1].traced = True
            spans.append(s)
        else:
            results.append(run_pass(ops))
        if len(results) > 1:
            settle(results[0], results[-1])
        typical = statistics.median(r.seconds for r in results)
        if (len(results) >= 2
                and time.perf_counter() - start + typical > budget):
            return results, spans


def timed(results: list[PassResult]) -> list[PassResult]:
    """The passes end-to-end times come from: all but the first, when there
    are others, because the first is a warm-up that also pays the process's
    first-touch page faults and cold caches."""
    return results[1:] or results


def round_latencies(wl, results: list[PassResult]) -> list[float]:
    """Per-round seconds over the timed passes: operations of a round kind."""
    return [lat for res in timed(results) for kind, lat in res.latencies
            if kind in wl.round_kinds]


def judge(wl, ops, results: list[PassResult], reference) -> tuple[int, int, dict]:
    """(attempted, failed, reasons): pass 1 by independent routes, later passes
    (settled) by reproducing pass 1."""
    first = results[0]
    reasons = {k: "raised" for k in first.errors}
    if not reasons:
        try:
            reasons.update(wl.verify(first.figures))
        except Exception:
            print(f"verification raised:\n{traceback.format_exc()}", file=sys.stderr)
            reasons = {op.key: "verification raised" for op in ops}
    else:
        reasons.update({op.key: "pass not verifiable" for op in ops if op.key not in reasons})
    if reference is not None:
        for op in ops:
            if op.key in first.figures and not figures_match(reference.get(op.key),
                                                             first.figures[op.key]):
                reasons.setdefault(op.key, "differs from the reference figure")
    failed = len(reasons)
    for res in results[1:]:
        for op in ops:
            if op.key in res.errors or op.key in reasons or op.key in res.differs:
                failed += 1
    return len(ops) * len(results), failed, reasons


def probe_setup(args) -> list[float]:
    """Time from spawning a fresh process to its workload being ready.

    The child reports when it is ready on the system-wide monotonic clock,
    so its interpreter teardown is not counted.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.PIPE, text=True)
        times.append(float(out.stdout.split()[-1]) - t0)
    return times


def reference_path(name: str) -> Path:
    return BENCH / "reference" / f"{name}.json"


def write_reference(wl, figures: dict) -> None:
    """One operation per line, so a changed figure shows as a one-line diff."""
    path = reference_path(wl.name)
    path.parent.mkdir(exist_ok=True)
    rows = ",\n".join(f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                      for k, v in figures.items())
    path.write_text(f'{{"seed": {wl.seed}, "params": {json.dumps(wl.params, sort_keys=True)},\n'
                    f'"figures": {{\n{rows}\n}}}}\n')


def load_reference(wl):
    """Reference figures, when this run's seed and parameters are the reference's."""
    path = reference_path(wl.name)
    if not path.exists():
        return None
    ref = json.loads(path.read_text())
    if ref["seed"] != wl.seed or ref["params"] != json.loads(json.dumps(wl.params)):
        return None
    return ref["figures"]


# ---------------------------------------------------------------------------

def load_library():
    """Import latsec from this checkout's src/, never from anywhere else."""
    if not (SRC / "latsec" / "__init__.py").is_file():
        raise SystemExit(f"error: no latsec sources under {SRC}")
    # one caller, one BLAS thread: a second thread barely shortens the
    # counting kernel's products, and its spin-waiting between calls keeps
    # a second core busy, which makes times depend on what else that core
    # runs.  An explicit OPENBLAS_NUM_THREADS is honoured.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(SRC))
    import latsec
    if Path(latsec.__file__).resolve().parent != (SRC / "latsec").resolve():
        raise SystemExit(f"error: latsec imported from {latsec.__file__}, not {SRC}")


def parse_args(argv):
    from workloads import WORKLOADS, make_workload
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload and exit (used to time set-up)")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's first-pass figures as the reference")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args, functools.partial(make_workload, args.workload)


def main(argv=None) -> int:
    load_library()
    args, make = parse_args(argv)
    if args.setup_only:
        make(args.seed).setup()
        print(time.monotonic())
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer), tracer.span("bench.setup") as setup_span:
            wl = make(args.seed)
            wl.setup()
    else:
        setup_times = probe_setup(args)
        wl = make(args.seed)
        wl.setup()
    ops = wl.ops()
    origin = {"provenance": provenance(args, wl)}
    print(json.dumps(origin), flush=True)

    results, pass_spans = timed_passes(ops, args.seconds, tracer)
    if args.trace:
        metrics = tracing.per_layer_metrics(tracer, setup_span, pass_spans)
        plain = [r.seconds for r in results if not r.traced]
        # the first pass also pays the process's first-touch page faults:
        # leave it out when another plain pass exists
        metrics[tracing.OVERHEAD] = (statistics.median(r.seconds for r in results if r.traced)
                                     - statistics.median(plain[1:] or plain))
        units = dict(tracing.per_layer_names())
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace-{wl.name}-seed{args.seed}.jsonl", "w") as fh:
            fh.write(json.dumps(origin) + "\n")
            for s in tracer.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")
    else:
        rounds = round_latencies(wl, results)
        metrics = {
            # the timed phase's wall time per pass: a mean, not a median, so a
            # run that meets a slow phase of the machine part-way through
            # counts it in proportion, not all or nothing
            "run_s": statistics.mean(r.seconds for r in timed(results)),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "round_ms_p50": 1000 * nearest_rank(rounds, 50),
            "round_ms_p90": 1000 * nearest_rank(rounds, 90),
        }
        units = END_TO_END

    reference = None if args.write_reference else load_reference(wl)
    attempted, failed, reasons = judge(wl, ops, results, reference)
    if args.write_reference:
        write_reference(wl, results[0].figures)

    digest = hashlib.sha256(json.dumps(results[0].figures, sort_keys=True).encode()).hexdigest()
    print(json.dumps({"passes": len(results), "ops_per_pass": len(ops), "figures_sha256": digest,
        "failures": dict(list(reasons.items())[:20])}), flush=True)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
