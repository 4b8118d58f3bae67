"""One batch of one workload, in the fresh interpreter that `run.py` starts.

Every batch needs its own interpreter: `freedga.lambda_dga` and
`lambda_copy_dga` are `lru_cache`d, so a second batch in one process would
skip the copy-DGA construction that every CLI user pays for.

Prints one JSON line: setup_s (process start through imports and input
generation), verdict_s (first library call to the batch's last verdict), the
per-item times, items requested and failed, peak RSS, probe_s (the mean time
of `speed_probe`, run before the first item, between items every
PROBE_EVERY_S and after the last; its time is left out of verdict_s), and
with --trace 1 the per-layer metrics.  Library exceptions are reported on
stderr and count the item that raised and every item after it as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import legtorus  # noqa: E402
from legtorus import ainfty, cech, exactalg, freedga, sheafcat, torusrep  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


# Seconds of items between two speed probes.
PROBE_EVERY_S = 0.25


def probe_state():
    """The data `speed_probe` works on: a dict and a matrix, each a few MB."""
    return ({i: i * 7 % 1009 for i in range(1 << 15)},
            numpy.arange(300 * 300, dtype=numpy.int64).reshape(300, 300) % 3)


def speed_probe(state) -> float:
    """Least time of a fixed mix of the kinds of work the workloads do:
    interpreter loops with small matrices, scattered dict lookups, and
    rank-one updates of a 300 x 300 matrix mod 3.

    It never touches the library, so its time measures only how fast the
    machine runs at that moment.
    """
    table, big = state
    a = numpy.arange(64, dtype=numpy.int64).reshape(8, 8)
    mask = len(table) - 1
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = {}
        for i in range(1500):
            b = (a @ a) % 7
            acc[i % 97] = acc.get(i % 97, 0) + int(b[i % 8, 3])
        acc[0] += sum(table[i * 7919 & mask] for i in range(20000))
        w = big
        for k in range(4):
            w = (w - numpy.outer(w[:, k], w[k])) % 3
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--batch", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before the spawn")
    ap.add_argument("--spans", help="with --trace 1, write the spans here")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)

    if Path(legtorus.__file__).resolve().parent != SRC / "legtorus":
        print(f"imported legtorus from {legtorus.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    size = (workloads.TINY if args.tiny else workloads.SIZES)[args.workload]
    inputs = workloads.make_inputs(args.workload, size,
                                   workloads.batch_rng(args.workload, args.seed, args.batch))
    lib = {"exactalg": exactalg, "freedga": freedga, "ainfty": ainfty,
           "torusrep": torusrep, "sheafcat": sheafcat, "cech": cech}
    tracer, patched = None, []
    span = lambda name, item=-1: contextlib.nullcontext()  # noqa: E731
    if args.trace:
        tracer = Tracer()
        patched = tracer.install()
        span = tracer.span

    times, failed = [], 0
    # time.monotonic is CLOCK_MONOTONIC on Linux, shared with the parent.
    setup_s = time.monotonic() - args.spawned_at
    state = probe_state()
    probes, paused = [speed_probe(state)], 0.0
    t_first = last_probe = time.perf_counter()
    try:
        for ok, seconds in workloads.RUNNERS[args.workload](lib, size, inputs, span, args.corrupt):
            times.append(seconds)
            failed += not ok
            if time.perf_counter() - last_probe > PROBE_EVERY_S:
                t0 = time.perf_counter()
                probes.append(speed_probe(state))
                last_probe = time.perf_counter()
                paused += last_probe - t0
    except Exception:
        traceback.print_exc()
    verdict_s = time.perf_counter() - t_first - paused
    probes.append(speed_probe(state))

    requested = workloads.requested(args.workload, size)
    out = {
        "setup_s": setup_s,
        "verdict_s": verdict_s,
        "item_s": times,
        "requested": requested,
        "failed": failed + requested - len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
        "probe_s": sum(probes) / len(probes),
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["patched"] = patched
        out["missing"] = tracer.missing
        if args.spans:
            tracer.dump(args.spans, t_first)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
