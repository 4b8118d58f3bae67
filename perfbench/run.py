"""Seeded time-to-verdict benchmark for legtorus.

    python3 perfbench/run.py --workload cech-certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  Each batch runs in a fresh interpreter (see batch.py), one after the
other, until --seconds have passed.  Batch b of a run with seed s always gets
the same inputs.

--trace 0 reports the end-to-end metrics: medians over the batches of
verdict_s, setup_s and peak_rss_mb, and the median item time.  Times are
scaled to a reference machine speed (see REFERENCE_PROBE_S).
--trace 1 repeats batch 0 as (untraced, traced) pairs and reports the
per-layer metrics of BENCHMARK.json from the traced batch with the least
scaled verdict_s, and trace.overhead_s = its scaled verdict_s - the least
scaled untraced one.  The spans go to perfbench/out/.

Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The exit code is 1 when any
verdict disagrees or any item fails, 2 on a usage error or when the source
tree is missing.  --workload all runs the three workloads in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD_TIMEOUT_S = 120  # a run with one hung batch still ends within 180 s


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# The machines this runs on slow down, by up to half, in episodes that last
# from seconds to minutes: one batch repeated with identical inputs took 1.46
# to 2.40 s.  So each batch also times batch.speed_probe(), a fixed mix of
# interpreter, dict and matrix work that never touches the library, between
# its items, and its times are scaled by REFERENCE_PROBE_S / probe_s: seconds
# at the speed where the probe takes REFERENCE_PROBE_S, its time on a quiet
# 2-core Xeon, so that scaled and wall times agree on a quiet machine.
REFERENCE_PROBE_S = 0.010


def speed(res) -> float:
    return REFERENCE_PROBE_S / res["probe_s"]


def run_batch(workload, seed, batch, trace, opts):
    """One batch in a fresh interpreter; None when it crashed or timed out."""
    cmd = [sys.executable, str(HERE / "batch.py"), "--workload", workload,
           "--seed", str(seed), "--batch", str(batch), "--trace", str(trace)]
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT / f"{workload}-seed{seed}.spans.json")]
    cmd += [f"--{flag}" for flag in ("tiny", "corrupt") if getattr(opts, flag)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload} batch {batch}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        print(f"{workload} batch {batch}: exit code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def measure(workload, opts):
    """All batches of one workload: (metrics, attempted, failed, notes)."""
    size = (workloads.TINY if opts.tiny else workloads.SIZES)[workload]
    per_batch = workloads.requested(workload, size)
    deadline = time.monotonic() + opts.seconds
    plain, traced, attempted, failed = [], [], 0, 0
    batch = 0
    while batch == 0 or time.monotonic() < deadline:
        for trace in ((0, 1) if opts.trace else (0,)):
            res = run_batch(workload, opts.seed, 0 if opts.trace else batch, trace, opts)
            attempted += per_batch
            failed += per_batch if res is None else res["failed"]
            if res is not None:
                (traced if trace else plain).append(res)
        batch += 1
    if not plain or (opts.trace and not traced):
        return {}, attempted, failed, {}

    items = sorted(t * speed(r) for r in plain for t in r["item_s"])
    notes = {"batches": len(plain), "items": len(items), "numpy": plain[0]["numpy"]}
    if len(items) >= 100:
        # at least ten samples lie beyond the 90th percentile
        notes["item_s.p90"] = statistics.quantiles(items, n=10)[-1]
    med = statistics.median
    if not opts.trace:
        metrics = {
            "verdict_s": med(r["verdict_s"] * speed(r) for r in plain),
            "item_s.p50": med(items) if items else 0.0,
            "setup_s": med(r["setup_s"] * speed(r) for r in plain),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
        }
        notes["unscaled"] = {
            "verdict_s": med(r["verdict_s"] for r in plain),
            "item_s.p50": med(t for r in plain for t in r["item_s"]) if items else 0.0,
            "setup_s": med(r["setup_s"] for r in plain),
        }
        return metrics, attempted, failed, notes
    # Counts are the same in every traced batch; times come from the quietest.
    quietest = min(traced, key=lambda r: r["verdict_s"] * speed(r))
    metrics = dict(quietest["layers"])
    metrics["trace.overhead_s"] = (quietest["verdict_s"] * speed(quietest)
                                   - min(r["verdict_s"] * speed(r) for r in plain))
    notes["missing"] = quietest["missing"]
    return metrics, attempted, failed, notes


def machine() -> str:
    cpu = platform.processor() or "unknown CPU"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"nproc {os.cpu_count()}, {cpu}, Python {platform.python_version()}"


def main(argv=None) -> int:
    names = sorted(workloads.RUNNERS)
    ap = argparse.ArgumentParser(description="Seeded time-to-verdict benchmark for legtorus.")
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="keep starting batches until this many seconds have passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    ap.add_argument("--corrupt", action="store_true",
                    help="negative control: use a wrong oracle, so every verdict must fail")
    opts = ap.parse_args(argv)
    if not (ROOT / "src" / "legtorus" / "__init__.py").is_file():
        print(f"no legtorus source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    e2e_units, layer_units = _spec()
    units = layer_units if opts.trace else e2e_units

    chosen = names if opts.workload == "all" else [opts.workload]
    metrics, attempted, failed, complete = {}, 0, 0, True
    print(f"machine: {machine()}")
    for w in chosen:
        values, att, fail, notes = measure(w, opts)
        attempted, failed = attempted + att, failed + fail
        print(f"{w}: seed {opts.seed}, {notes.get('batches', 0)} batches, "
              f"{notes.get('items', 0)} items, numpy {notes.get('numpy', '?')}")
        for name, unit in units.items():
            if name not in values:
                print(f"{w}: no value for {name}", file=sys.stderr)
                complete = False
                continue
            extra = notes.get("unscaled", {}).get(name)
            extra = f" (unscaled median {extra:.6g})" if extra is not None else ""
            print(f"  {name:32s} {values[name]:.6g} {unit}{extra}")
            metrics[name if len(chosen) == 1 else f"{w}.{name}"] = {"value": values[name],
                                                                    "unit": unit}
        if "item_s.p90" in notes and not opts.trace:
            print(f"  {'item_s.p90':32s} {notes['item_s.p90']:.6g} s "
                  f"(n={notes['items']})")
        print(f"  {'fail_ratio':32s} {fail / att:.6g} ({fail}/{att} items)")
        if notes.get("missing"):
            print(f"  not traced (gone from the library): {', '.join(notes['missing'])}")
    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
