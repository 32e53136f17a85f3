"""Run one workload of the tempspan benchmark and print its metrics.

    python3 bench/run.py --workload solve --seed 1 --seconds 55 --trace 0

The program is imported from ``src/`` next to this directory, so run it
from a checkout.  One client in one process runs the workload's ops in a
closed loop: each op starts when the previous one has returned.  Passes
over the op list repeat while the next one is expected to end within
``--seconds``; there is always at least one.  Outputs are checked after
the loop, outside op timing.

End-to-end times are scaled to a reference host speed.  On a shared host
the same work runs up to 1.7x slower while neighbours are busy, in phases
that can outlast a run.  So a fixed pure-Python sweep (:class:`SpeedProbe`)
is timed before and after every op, and the op's time is divided by the
mean of the two readings over the sweep's reference time.  An op's latency
is the median of its scaled times over the passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes (at least one of each), prints the per-layer
metrics and writes the spans to ``.bench_out/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import reference
import sampler

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
# The probe's time on the host the benchmark was tuned on (2-core VM,
# Python 3.11.7) in a quiet phase; busy phases read 1.5 to 2 times that.
PROBE_REF_S = 0.0006

END_TO_END = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_program() -> None:
    """Put ``src/`` first on the path and import the program; exit 1 if it is not there."""
    src = ROOT / "src"
    if not (src / "tempspan" / "__init__.py").is_file():
        sys.exit(f"bench: {src / 'tempspan'} not found; run the benchmark from a full checkout")
    sys.path.insert(0, str(src))
    import tempspan  # noqa: F401


def tail_rank(n: int) -> tuple[int, int]:
    """The highest whole percentile with at least ten of ``n`` samples beyond it,
    and its nearest rank (1-based)."""
    if n <= 10:
        raise ValueError(f"a tail percentile needs more than ten samples, got {n}")
    p = 100 * (n - 10) // n
    return p, math.ceil(p * n / 100)


class SpeedProbe:
    """Host speed factor: a fixed sweep's time over :data:`PROBE_REF_S`.

    The sweep (``reference.reach_masks`` on a 64-vertex, 1000-edge graph,
    under a millisecond) is benchmark code, so no change to the program
    moves it.  The least of three readings is kept, so that one interrupted
    sweep does not count as a slow host.
    """

    def __init__(self) -> None:
        self._edges = sampler.multilabel(random.Random(0), 64, 1000, 100)

    def _sweep(self) -> float:
        start = time.perf_counter()
        reference.reach_masks(64, self._edges, True)
        return time.perf_counter() - start

    def __call__(self) -> float:
        return min(self._sweep() for _ in range(3)) / PROBE_REF_S


def timed(fn) -> tuple[object, Exception | None, float]:
    start = time.perf_counter()
    try:
        out, err = fn(), None
    except Exception as exc:  # an op failure is counted, not fatal
        out, err = None, exc
    return out, err, time.perf_counter() - start


Pass = tuple[list[float], list[float]]  # (timed latency, host speed factor) per op


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(ops, seconds: float, tracer, probe: SpeedProbe) -> tuple[list, dict[bool, list[Pass]], float]:
    """Run passes over ``ops``.

    Returns the results, the passes keyed by traced, and the peak resident
    memory after the first pass: a second pass over ``sweep-large`` raised
    the peak by 15-25 MB, which would tie the figure to the pass count.
    """
    results: list[tuple[int, object, Exception | None]] = []
    passes: dict[bool, list[Pass]] = {False: [], True: []}
    start = time.perf_counter()
    done = 0
    while True:
        traced = tracer is not None and done % 2 == 1
        latencies, speed = [], [probe()]
        for i, op in enumerate(ops):
            if traced:
                out, err, dt = tracer.run_op(len(results), op.run)
            else:
                out, err, dt = timed(op.run)
            latencies.append(dt)
            speed.append(probe())
            results.append((i, out, err))
        passes[traced].append((latencies, [(a + b) / 2 for a, b in zip(speed, speed[1:])]))
        done += 1
        if done == 1:
            first_pass_rss_mb = peak_rss_mb()
        elapsed = time.perf_counter() - start
        if done >= (2 if tracer else 1) and elapsed * (done + 1) / done > seconds:
            return results, passes, first_pass_rss_mb


def op_latencies(passes: list[Pass], scaled: bool = True) -> list[float]:
    """Each op's median latency over the passes, scaled to the reference speed or as timed."""
    return [
        statistics.median(lat[i] / speed[i] if scaled else lat[i] for lat, speed in passes)
        for i in range(len(passes[0][0]))
    ]


def check(ops, results) -> tuple[int, int, list[str]]:
    """(failed, wrong, reasons): failed counts exceptions and wrong outputs."""
    failed = wrong = 0
    reasons = []
    for i, out, err in results:
        if err is not None:
            failed += 1
            reasons.append(f"{ops[i].name}: raised {type(err).__name__}: {err}")
            continue
        why = ops[i].check(out)
        if why is not None:
            failed += 1
            wrong += 1
            reasons.append(f"{ops[i].name}: {why}")
    return failed, wrong, reasons


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    speed_before = probe()
    started = time.perf_counter()
    import_program()
    import workloads
    from spans import PER_LAYER, Tracer, layer_metrics

    import_s = time.perf_counter() - started
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")

    build_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed)
        build_s.append(time.perf_counter() - start)
    start = time.perf_counter()
    for op in workload.warmup:
        _, err, _ = timed(op.run)
        if err is not None:
            print(f"bench: warm-up op {op.name} raised {type(err).__name__}: {err}", file=sys.stderr)
    warmup_s = time.perf_counter() - start
    setup_timed_s = import_s + statistics.median(build_s) + warmup_s
    setup_speed = (speed_before + probe()) / 2

    ops = workload.ops
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        with tracer:
            results, passes, rss_mb = measure(ops, args.seconds, tracer, probe)
    else:
        results, passes, rss_mb = measure(ops, args.seconds, None, probe)

    failed, wrong, reasons = check(ops, results)
    for reason in reasons[:20]:
        print(f"bench: FAIL {reason}", file=sys.stderr)

    per_op = op_latencies(passes[False])
    print(f"workload={args.workload} seed={args.seed} ops={len(ops)} passes={len(passes[False])}+{len(passes[True])} traced"
          f" attempted={len(results)} failed={failed} fail_frac={failed / len(results):.6g}")
    if tracer is None:
        pct, rank = tail_rank(len(ops))
        values = {
            "wall_s": sum(per_op),
            "op_p50_s": statistics.median(per_op),
            "op_tail_s": sorted(per_op)[rank - 1],
            "setup_s": setup_timed_s / setup_speed,
            "peak_rss_mb": rss_mb,
        }
        speeds = [f for _, factors in passes[False] for f in factors]
        notes = {
            "wall_s": f"as timed {sum(op_latencies(passes[False], scaled=False)):.3f} s; host speed factor"
                      f" median {statistics.median(speeds):.3f}, range {min(speeds):.3f}-{max(speeds):.3f}",
            "op_tail_s": f"p{pct} of {len(ops)} ops, {len(ops) - rank} beyond",
            "setup_s": f"as timed: imports {import_s:.3f} s + inputs {statistics.median(build_s):.3f} s"
                       f" (median of {SETUP_REPEATS}) + warm-up {warmup_s:.3f} s; speed factor {setup_speed:.3f}",
        }
        units = END_TO_END
    else:
        traced = passes[True]
        values = layer_metrics(tracer.spans, len(traced), sum(sum(lat) for lat, _ in traced))
        values["trace.overhead_frac"] = sum(op_latencies(traced)) / sum(per_op) - 1.0
        notes = {}
        units = PER_LAYER
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {values[name]:14.6g} {unit}{note}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
