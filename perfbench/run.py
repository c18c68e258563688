"""Layered benchmark of the projected-spectrum pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan-j15 --seed 1 --seconds 50 --trace 0

One process, one client, closed loop: each spectrum request is issued only
after the previous one completed.  Every output is checked against exact
identities of angular-momentum projection (see `workloads.assess`), and an
exact anchor (the two-shell fixture, E_J = 0.7 + g_J on both routes) opens
every run.  A request fails when it raises, exits nonzero, writes a
traceback, returns a non-finite value or omits a J row the state holds;
the run is correct when none failed.

`--trace 0` prints the end-to-end metrics:

  spectrum_s.p50, spectrum_s.tail  median and highest percentile with ten
                                   samples beyond it, wall s per request
                                   (all times at the reference speed, below)
  spectra_per_s                    completed spectra / wall time of the loop
  setup_s                          median of three set-ups: import, model
                                   generation, one warm-up request
  peak_rss_mb                      peak resident memory of this process
  ok_share                         1 - failed / attempted (never 0, unlike
                                   the failed share, which is printed)
  sum_rule.digits                  -log10 worst |sum_J (2J+1)/2 n_J - 1|
  energy_rule.digits               -log10 worst |sum_J (2J+1)/2 n_J E_J - E_HF|
                                   / max(1, |E_HF|), over the routes run
  route_agreement.digits           -log10 worst per-J |E_p-h - E_kernel|; on
                                   the kernel-route workloads only the anchor
                                   runs both routes

The *.digits cover the anchor, the warm-ups and the first ACCURACY_REQUESTS
timed requests, floored at 1e-16.

`--trace 1` serves every request twice, once untraced and once with every
binding of the traced library functions wrapped (alternating which goes
first), and prints per-layer calls, total and self time per traced request,
counters, the paper's kernel speed-up ratio and the tracing overhead.

Times are reported at a fixed reference host speed.  The speed of a shared
host switches between phases up to 1.5x apart within a minute, and wall
times follow it, so a fixed pure-Python probe loop is timed between every two
set-ups and every two requests.  Each set-up, request and loop lap is scaled
by REFERENCE_PROBE_MS over the mean of the probes just before and after it;
spectra_per_s divides by the scaled laps.  In a traced run, layer times are
scaled by the run's median probe.  The probe does not touch the library, so a
slower library still reads slower.  Raw wall times and probes are printed and
kept in the report.

The last line of standard output is one JSON object; the lines before it are
for people.  Reports and spans are written to `perfbench/work/`.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import types
from collections import Counter
from pathlib import Path

# one BLAS thread (at most nproc): the load is one client, and no matrix is
# larger than 30 x 30; set before NumPy loads OpenBLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, anchor  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / "perfbench" / "work"
PACKAGE = "amproj"
MODULES = ("angmom", "lalg", "manybody", "spectrum", "cli")
SETUP_REPEATS = 3
DIGITS_FLOOR = 1e-16
# the *.digits metrics cover the anchor, the warm-ups and this many timed
# requests, so a faster library that completes more requests is not charged
# for meeting more models
ACCURACY_REQUESTS = 24
# the probe's median time on the host the baseline was recorded on (2 vCPU
# Xeon, Python 3.11); times are reported as if the probe had taken this long
REFERENCE_PROBE_MS = 6.0
PROBE_ITERATIONS = 50_000

# every traced function, as "<module>.<function>"; the ones called thousands
# of times per request are aggregated without keeping spans
TRACED = [
    "angmom.wigner_small_d",
    "angmom.rotation_matrix",
    "manybody.TwoBodyOperator.__init__",
    "manybody.TwoBodyOperator.items",
    "manybody.overlap_kernel",
    "manybody.lowdin_one_body",
    "manybody.lowdin_two_body",
    "manybody.brillouin_check",
    "manybody.two_ph_kernel",
    "manybody.hf_energy",
    "lalg.lu_factor",
    "lalg.solve_columns",
    "lalg.replaced_determinant",
    "spectrum.energy_spectrum",
    "cli.load_model",
]
LEAVES = frozenset({"angmom.wigner_small_d", "manybody.TwoBodyOperator.items",
                    "manybody.two_ph_kernel", "lalg.lu_factor", "lalg.solve_columns",
                    "lalg.replaced_determinant"})

clock = time.perf_counter


def import_library():
    """Import the package from this checkout's `src`, afresh."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    lib = types.SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}")
                                   for m in MODULES})
    try:
        lib.bench = importlib.import_module(f"{PACKAGE}.bench")
    except ModuleNotFoundError:
        lib.bench = None
    origin = Path(lib.spectrum.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"{PACKAGE} was imported from {origin}, not from this checkout")
    return lib


class Tally:
    """Attempts, failures by kind, and the worst value of each identity."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter[str] = Counter()
        self.worst = {"sum": 0.0, "energy": 0.0, "route": 0.0}

    def add(self, outcome: Outcome, accuracy: bool = True) -> None:
        self.attempted += 1
        if outcome.failure:
            self.failures[outcome.failure] += 1
            return
        if not accuracy:
            return
        for key, value in (("sum", outcome.sum_deficit), ("energy", outcome.energy_deficit),
                           ("route", outcome.route_delta)):
            if value is not None:
                self.worst[key] = max(self.worst[key], value)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def digits(self, key: str) -> float:
        return -math.log10(max(self.worst[key], DIGITS_FLOOR))


def attempt(tally: Tally, fn, *args) -> Outcome:
    """Run one checked request; an exception is a failure of that request."""
    try:
        outcome = fn(*args)
    except Exception as exc:  # the run goes on; the failure is counted by type
        outcome = Outcome(failure=type(exc).__name__)
    tally.add(outcome)
    return outcome


def serve_and_check(workload, request, tracer=None):
    """(seconds, outcome) of one request; timed from hand-over to return."""
    if tracer is not None:
        tracer.install()
    failure = None
    t0 = clock()
    try:
        raw = workload.serve(request)
    except Exception as exc:  # counted as a failed request
        failure = type(exc).__name__
    finally:
        elapsed = clock() - t0
        if tracer is not None:
            tracer.uninstall()
    if failure:
        return elapsed, Outcome(failure=failure)
    try:
        return elapsed, workload.check(request, raw)
    except Exception as exc:  # output the checks cannot read
        return elapsed, Outcome(failure=type(exc).__name__)


def tail(latencies):
    """(value, percentile): the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def blas_threads() -> int:
    """Threads the loaded OpenBLAS will use, or the requested count if it is not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        blas = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(blas, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def probe_ms() -> float:
    """Milliseconds for a fixed pure-Python loop: how fast this host runs right now."""
    t0 = clock()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return (clock() - t0) * 1000


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "clients": 1,
        "processes": 1,
    }


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def at_reference_speed(times, probes):
    """times[i] scaled by REFERENCE_PROBE_MS over the mean of probes[i] and probes[i + 1]."""
    return [t * 2 * REFERENCE_PROBE_MS / (a + b) for t, a, b in zip(times, probes, probes[1:])]


def run_untraced(workload, seconds, tally):
    """Wall seconds of each request and each loop lap, the probes between, completed count."""
    latencies, laps, probes = [], [], [probe_ms()]
    completed = 0
    start = clock()
    while clock() - start < seconds:
        lap_start = clock()
        elapsed, outcome = serve_and_check(workload, workload.next())
        tally.add(outcome, accuracy=len(latencies) < ACCURACY_REQUESTS)
        latencies.append(elapsed)
        completed += outcome.failure is None
        probes.append(probe_ms())
        laps.append(clock() - lap_start)
    return latencies, laps, probes, completed


def singular_nodes(tracer) -> int:
    """Kernel samples flagged singular so far, over all traced requests."""
    stat = tracer.stats.get("manybody.overlap_kernel")
    return stat.flagged if stat else 0


def run_traced(workload, seconds, tally, lib, probes):
    """Serve each request untraced and traced; append a probe before each."""
    tracer = Tracer(PACKAGE, TRACED, LEAVES)
    # the paper's headline ratio, untraced
    speedup = getattr(lib.bench, "kernel_speedup_benchmark", None)
    bench = speedup() if speedup else None
    plain, traced = [], []
    rows = useful = singular_requests = 0
    start = clock()
    k = 0
    while clock() - start < seconds:
        request = workload.next()
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            tracer.request_id = k
            probes.append(probe_ms())
            flagged = singular_nodes(tracer)
            elapsed, outcome = serve_and_check(workload, request,
                                               tracer if with_trace else None)
            tally.add(outcome)
            (traced if with_trace else plain).append(elapsed)
            if with_trace:
                rows += len(outcome.rows)
                useful += outcome.useful_rows
                singular_requests += singular_nodes(tracer) > flagged
        k += 1
    return tracer, bench, plain, traced, rows, useful, singular_requests


def layer_metrics(tracer, bench, plain, traced, rows, useful, scale):
    n = len(traced)
    out = {}
    for name in TRACED:
        stat = tracer.stats.get(name)
        calls, total, self_time = (stat.calls, stat.total, stat.self_time) if stat else (0, 0, 0)
        out[f"{name}.calls"] = metric(calls / n, "count/req")
        out[f"{name}.total_s"] = metric(total * scale / n, "s/req")
        out[f"{name}.self_s"] = metric(self_time * scale / n, "s/req")
    spectra = tracer.stats.get("spectrum.energy_spectrum")
    kernels = tracer.stats.get("manybody.overlap_kernel")
    nodes = kernels.calls / spectra.calls if spectra and kernels and spectra.calls else 0.0
    singular = singular_nodes(tracer) / kernels.calls if kernels and kernels.calls else 0.0
    out["lalg.singular_share"] = metric(singular, "share")
    out["spectrum.nodes"] = metric(nodes, "count/req")
    out["spectrum.j_rows"] = metric(rows / n, "count/req")
    out["spectrum.j_rows_useful_share"] = metric(useful / max(1, rows), "share")
    if bench is None:
        tracer.absent.append("bench.kernel_speedup_benchmark")
    out["lalg.kernel_speedup"] = metric(bench.speedup if bench else 0, "x")
    out["lalg.kernel_speedup.max_abs_diff"] = metric(
        bench.max_abs_difference if bench else 0, "abs")
    p50_plain, p50_traced = statistics.median(plain), statistics.median(traced)
    out["trace.overhead_s"] = metric((p50_traced - p50_plain) * scale, "s")
    out["trace.overhead_share"] = metric((p50_traced - p50_plain) / p50_plain, "share")
    out["trace.requests"] = metric(n, "count")
    out["trace.absent_layers"] = metric(len(tracer.absent), "count")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    WORKDIR.mkdir(parents=True, exist_ok=True)
    workload_cls = WORKLOADS[args.workload]
    tally = Tally()
    env = environment()

    # the coupling tables depend on neither seed nor library: built once, untimed
    pairs = workload_cls.tables()
    # set-up: import, generate (and write) the models, one warm-up request
    setup_times, setup_probes = [], [probe_ms()]
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        lib = import_library()
        workload = workload_cls(lib, args.seed, WORKDIR, pairs)
        attempt(tally, workload.warm_up)
        setup_times.append(clock() - t0)
        setup_probes.append(probe_ms())
    attempt(tally, anchor, lib, ROOT)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_s": setup_times}
    notes = []
    if args.trace:
        probes = list(setup_probes)
        tracer, bench, plain, traced, rows, useful, singular_requests = run_traced(
            workload, args.seconds, tally, lib, probes)
        scale = REFERENCE_PROBE_MS / statistics.median(probes)
        metrics = layer_metrics(tracer, bench, plain, traced, rows, useful, scale)
        notes.append(f"traced requests meeting a singular node: {singular_requests} "
                     f"of {len(traced)}")
        notes += [f"layer absent, reported as zero: {name}" for name in tracer.absent]
        tracer.dump_spans(WORKDIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        report["absent_layers"] = tracer.absent
    else:
        latencies, laps, probes, completed = run_untraced(workload, args.seconds, tally)
        scaled = at_reference_speed(latencies, probes)
        tail_value, tail_pct = tail(scaled)
        notes.append(f"spectrum_s.tail is p{tail_pct:.1f} of {len(latencies)} timed requests")
        notes.append(f"raw wall: spectrum_s.p50 {statistics.median(latencies):.4f} s, "
                     f"tail {tail(latencies)[0]:.4f} s, spectra_per_s "
                     f"{completed / sum(laps):.4f} 1/s, setup_s "
                     f"{statistics.median(setup_times):.4f} s")
        metrics = {
            "spectrum_s.p50": metric(statistics.median(scaled), "s"),
            "spectrum_s.tail": metric(tail_value, "s"),
            "spectra_per_s": metric(completed / sum(at_reference_speed(laps, probes)), "1/s"),
            "setup_s": metric(statistics.median(at_reference_speed(setup_times, setup_probes)),
                              "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB"),
            "ok_share": metric(1 - tally.failed / tally.attempted, "share"),
            "sum_rule.digits": metric(tally.digits("sum"), "digits"),
            "energy_rule.digits": metric(tally.digits("energy"), "digits"),
            "route_agreement.digits": metric(tally.digits("route"), "digits"),
        }
        report.update(tail_percentile=tail_pct, latencies_s=latencies, laps_s=laps)
        probes = setup_probes + probes
    env.update({"probe_ms.min": min(probes), "probe_ms.median": statistics.median(probes),
                "probe_ms.max": max(probes)})
    report["probes_ms"] = probes

    for key, value in env.items():
        print(f"# env {key}: {value}")
    print(f"# attempted {tally.attempted}, failed {tally.failed} "
          f"(failed_share {tally.failed / tally.attempted:.3g}) {dict(tally.failures)}")
    print(f"# worst deficits: sum rule {tally.worst['sum']:.3e}, "
          f"energy rule {tally.worst['energy']:.3e}, route delta {tally.worst['route']:.3e}")
    for note in notes:
        print(f"# {note}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    report.update(failures=dict(tally.failures), worst=tally.worst, metrics=metrics)
    (WORKDIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
