"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload desk-fit --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  Set-up is
repeated and timed; then operations (a fit, a federation or a serving
cycle) run back to back until ``--seconds`` have passed and the workload's
cycle over its inputs is whole, each checked against its expected output.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` the workload first runs untraced, then again with every
fbttr boundary traced; the last line holds the per-layer metrics and the
spans are written to ``bench/out/``.  The line before the result records
the environment, seed and model digests.
"""

from __future__ import annotations

import os

# One BLAS thread: model bytes are then reproducible run to run, and the TCP
# workload's hub and client threads do not contend for BLAS workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

try:
    import fbttr  # noqa: E402
except ImportError as e:
    sys.exit(f"bench: cannot import fbttr from {SRC}: {e}")
if Path(fbttr.__file__).resolve().parent != SRC / "fbttr":
    sys.exit(f"bench: fbttr imported from {fbttr.__file__}, not from {SRC}")

from layers import instrument, per_layer_metrics, unit_of  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Stats  # noqa: E402


class Phase:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_phase(wl, seed: int, seconds: float, stats: Stats, tracer=None,
              setup_repeats: int = None, min_ops: int = None) -> Phase:
    """Set up ``setup_repeats`` times, then run checked operations for ``seconds``,
    at least ``min_ops`` times (both default to the workload's own) and in
    whole cycles of ``wl.cycle`` operations."""
    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    phase = Phase()
    ctx = None
    for k in range(setup_repeats or wl.setup_repeats):
        ctx = None  # the previous set-up's data is not kept alive during the next
        t0 = time.perf_counter()
        with span("bench.setup"):
            ctx = wl.setup(seed, k, stats)
        stats.setup_s.append(time.perf_counter() - t0)

    start = time.perf_counter()
    min_ops = min_ops or wl.min_ops
    while (phase.attempted < min_ops or time.perf_counter() - start < seconds
           or phase.attempted % wl.cycle):
        try:
            with span("bench.op"):
                ok = wl.op(ctx, phase.attempted, stats, tracer)
        except Exception as e:  # a failed operation is counted, the run goes on
            stats.problems.append(f"op {phase.attempted}: {type(e).__name__}: {e}")
            ok = False
        phase.attempted += 1
        phase.failed += not ok
    return phase


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _decile(values, k: int) -> float:
    return statistics.quantiles(values, n=10)[k - 1] if len(values) >= 2 else _median(values)


def _cycle_median(values, cycle: int) -> float:
    """Median over whole cycles of each cycle's mean: every input counts equally."""
    means = [statistics.fmean(values[i:i + cycle])
             for i in range(0, len(values) - cycle + 1, cycle)]
    return _median(means)


def end_to_end_metrics(stats: Stats, phase: Phase, cycle: int) -> dict:
    # Serving timings use the slow decile: on a shared host the CPU can run at
    # one of two speeds for seconds at a time, which moves a median of short
    # calls between them but leaves the 90th percentile in place.
    return {
        "fit_s": (_cycle_median(stats.fit_s, cycle), "s"),
        "load_p90_ms": (1e3 * _decile(stats.load_s, 9), "ms"),
        "predict_p10_rows_per_s": (_decile(stats.rows_per_s, 1), "rows/s"),
        "predict_row_p90_ms": (1e3 * _decile(stats.row_s, 9), "ms"),
        "heldout_r": (_median(stats.heldout_r), "r"),
        "setup_s": (_median(stats.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_ratio": ((phase.attempted - phase.failed) / phase.attempted, "ratio"),
    }


def _git_sha():
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


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fbttr").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {"vendor": vendor, "threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def environment(args, stats: Stats) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "model_digest": stats.digests[0] if stats.digests else None,
        "model_digests": sorted(set(stats.digests)),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, wl=None):
    """One benchmark run; returns (result, stats, tracer or None)."""
    wl = wl or WORKLOADS[workload]()
    stats = Stats()
    # the traced run's untraced phase only provides the overhead reference
    phase = run_phase(wl, seed, seconds, stats, min_ops=1 if trace else None)
    attempted, failed = phase.attempted, phase.failed
    tracer = None
    if not trace:
        metrics = end_to_end_metrics(stats, phase, wl.cycle)
    else:
        traced_stats = Stats()
        tracer = Tracer()
        instrument(tracer)
        try:
            traced = run_phase(wl, seed, seconds, traced_stats, tracer, setup_repeats=1, min_ops=1)
        finally:
            tracer.restore()
        attempted += traced.attempted
        failed += traced.failed
        stats.problems += traced_stats.problems
        per_op = per_layer_metrics(tracer.spans, traced_stats.frames,
                                   _median(traced_stats.model_bytes))
        # both phases train on the same inputs in the same order (serve's
        # traced set-up is its first), so fits pair up one to one
        pairs = zip(traced_stats.fit_s, stats.fit_s)
        per_op["trace.overhead_ratio"] = _median([t / u - 1.0 for t, u in pairs if u])
        per_op["trace.spans"] = len(tracer.spans) / traced.attempted
        metrics = {name: (value, unit_of(name)) for name, value in per_op.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, stats, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, stats, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment(args, stats)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_tsv(OUT / f"{stem}.spans.tsv")
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"env": env, "problems": stats.problems, "result": result}, indent=1))
    for problem in stats.problems:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
