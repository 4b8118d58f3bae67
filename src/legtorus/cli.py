"""Batch command-line driver with machine-readable output.

Subcommands: dga | reps | hom | ext | cech | equiv | verify, each taking only
the flags it reads (an unknown flag is a usage error).  All output goes to
stdout as JSON (reps, hom, ext, cech and equiv write CSV with --format csv),
diagnostics to stderr.  The same (flags, seed) always produce byte-identical
output.  Exit codes: 0 success, 1 verification failure, 2 usage error.

The pair commands hom, ext, cech and equiv share one sweep, `_sweep`: it
draws the objects and the pairs from the command's seeded RNG, maps the
command's row function over the pairs and sets the verdict and exit code.
Each command keeps only its row function and its extra report fields.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from . import exactalg as xa
from .ainfty import (BudgetExceeded, enumerate_reps, hom_cohomology,
                     random_rep)
from .cech import CechComplex, build_tiling
from .freedga import build_lambda_dga, kcopy_dga
from .sheafcat import ext0_dim, ext1_dim, functor_obj
from .torusrep import cohomology_closed
from .verify import check_functoriality, rng_for, run_suites

SCHEMA = 1


def _emit(payload: dict, fmt: str = "json"):
    """Write the report to stdout as it is encoded: JSON by `json.dump`,
    which writes the encoder's chunks one at a time, so no copy of the whole
    text is ever held, or CSV rows one by one."""
    payload = {"schema": SCHEMA, **payload}
    if fmt == "json":
        json.dump(payload, sys.stdout, sort_keys=True, indent=1)
        sys.stdout.write("\n")
        return
    rows = payload.get("rows", [])
    if rows:
        writer = csv.DictWriter(sys.stdout, fieldnames=sorted(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _sample_pairs(reps, samples, budget, rng):
    """Ordered index pairs: all of them when `samples` is 0 or reaches their
    number, otherwise `samples` draws without duplicates (stderr says when
    repeated draws leave fewer pairs than requested).  All pairs, when there
    are more of them than `budget`, are refused before any is listed."""
    n = len(reps)
    if samples and samples < n * n:
        pairs = sorted({divmod(rng.randrange(n * n), n) for _ in range(samples)})
        if len(pairs) < samples:
            print(f"sampled {len(pairs)} distinct pairs of {samples} requested",
                  file=sys.stderr)
        return pairs
    if n * n > budget:
        raise BudgetExceeded(f"every pair of {n} objects is {n * n} pairs (budget {budget})",
                             required=n * n)
    return [divmod(k, n) for k in range(n * n)]


def _objects(args, rng):
    """Enumerate when feasible within budget, otherwise sample
    max(2, --samples or 4) distinct tuples.  A run that asks for more sampled
    pairs than --budget is refused before any tuple is drawn."""
    if args.samples > args.budget:
        raise BudgetExceeded(f"--samples asks for {args.samples} pairs (budget {args.budget})",
                             required=args.samples)
    total = args.p ** (args.n * args.n * args.m)
    if total <= args.budget:
        return enumerate_reps(args.m, args.n, args.p, budget=args.budget), True
    count = max(2, args.samples or 4)
    seen = {}
    for _ in range(count * 4):
        r = random_rep(args.m, args.n, args.p, rng)
        seen.setdefault(r.key(), r)
        if len(seen) >= count:
            break
    if len(seen) < count:
        print(f"drew {len(seen)} distinct objects of {count} aimed for "
              f"in {count * 4} draws", file=sys.stderr)
    return list(seen.values()), False


def cmd_dga(args):
    dga = build_lambda_dga(args.m, args.p)
    out = {"command": "dga", "m": args.m, "p": args.p,
           "dga": dga.to_json(), "d_squared_zero": dga.check_d_squared()}
    if args.copies > 1:
        copy = kcopy_dga(dga, args.copies)
        out["copies"] = args.copies
        out["copy_dga"] = copy.to_json()
        out["copy_d_squared_zero"] = copy.check_d_squared()
    _emit(out)
    return 0


def cmd_reps(args):
    reps = enumerate_reps(args.m, args.n, args.p, budget=args.budget)
    rows = [{"index": i, "tuple": json.dumps([a.tolist() for a in r.A])}
            for i, r in enumerate(reps)]
    _emit({"command": "reps", "m": args.m, "n": args.n, "p": args.p,
           "count": len(reps), "rows": rows}, args.format)
    return 0


def _sweep(args, verdict, row, extras=lambda reps: ({}, True)):
    """The pair commands' one loop.  Draw the objects, then the pairs, from
    the command's seeded RNG, and report one row per pair: its source and
    target, then `row(i, j, reps, sheaf)`, where `sheaf(i)` is object i's
    functor image, built on first use (a command that reads none builds
    none).  The run agrees, and exits 0, when every row's `verdict` field
    holds and so does the flag `extras(reps)` returns with the report's
    extra fields."""
    rng = rng_for(args.seed, args.command)
    reps, complete = _objects(args, rng)
    pairs = _sample_pairs(reps, args.samples, args.budget, rng)
    sheaf = functools.cache(lambda i: functor_obj(reps[i]))
    rows = [{"source": i, "target": j, **row(i, j, reps, sheaf)} for i, j in pairs]
    fields, ok = extras(reps)
    ok = all(r[verdict] for r in rows) and ok
    _emit({"command": args.command, "m": args.m, "n": args.n, "p": args.p,
           "complete_enumeration": complete, "rows": rows, **fields, "all_agree": ok},
          args.format)
    return 0 if ok else 1


def cmd_hom(args):
    def row(i, j, reps, sheaf):
        H = hom_cohomology(reps[i], reps[j]).dims
        return {"h0": H[0], "h1": H[1], "h2": H[2],
                "closed_agrees": H == cohomology_closed(reps[i], reps[j]).dims}
    return _sweep(args, "closed_agrees", row)


def cmd_ext(args):
    def row(i, j, reps, sheaf):
        H = hom_cohomology(reps[i], reps[j]).dims
        e0, e1 = ext0_dim(sheaf(i), sheaf(j)), ext1_dim(sheaf(i), sheaf(j))
        return {"ext0": e0, "ext1": e1, "h_agrees": (e0, e1) == (H[0], H[1])}
    return _sweep(args, "h_agrees", row)


def cmd_cech(args):
    T = build_tiling(args.m, args.resolution)
    trace = {}  # the first pair's game trace only

    def row(i, j, reps, sheaf):
        cx = CechComplex(T, sheaf(i), sheaf(j))
        dims = cx.cohomology_dims()
        ok_h2, cert = cx.h2_certificate()
        e0, e1 = ext0_dim(sheaf(i), sheaf(j)), ext1_dim(sheaf(i), sheaf(j))
        trace.setdefault("reduction_trace", cx.game)
        return {"cech_h0": dims[0], "cech_h1": dims[1], "cech_h2": dims[2],
                "ext0": e0, "ext1": e1, "agrees": dims == (e0, e1, 0) and ok_h2,
                "rank_d1": cert["rank_d1"], "dim_c2": cert["dim_c2"]}
    return _sweep(args, "agrees", row,
                  lambda reps: ({"resolution": args.resolution, **trace}, True))


def cmd_equiv(args):
    T = build_tiling(args.m, args.resolution)

    def row(i, j, reps, sheaf):
        H = hom_cohomology(reps[i], reps[j]).dims
        cx = CechComplex(T, sheaf(i), sheaf(j))
        dims = cx.cohomology_dims()
        ok_h2, _ = cx.h2_certificate()
        e0, e1 = ext0_dim(sheaf(i), sheaf(j)), ext1_dim(sheaf(i), sheaf(j))
        return {"h0": H[0], "h1": H[1], "h2": H[2], "ext0": e0, "ext1": e1,
                "ext2_cech": dims[2],
                "agree": H == {0: e0, 1: e1, 2: 0} and dims == (e0, e1, 0) and ok_h2}

    def extras(reps):
        cfg = {"max_m": args.m, "max_n": args.n, "primes": (args.p,),
               "samples": max(args.samples, 4)}
        fok, fdetail = check_functoriality(cfg, rng_for(args.seed, "equiv.functor"))
        return {"objects": len(reps), "functoriality": {"ok": fok, "detail": fdetail}}, fok
    return _sweep(args, "agree", row, extras)


def cmd_verify(args):
    cfg = {"max_m": min(args.m, 3), "max_n": min(args.n, 2),
           "primes": (2, 3) if args.p == 2 else (args.p,),
           "samples": args.samples}
    clamped = [f"--{flag} {asked} to {used}" for flag, asked, used in
               (("m", args.m, cfg["max_m"]), ("n", args.n, cfg["max_n"])) if asked != used]
    if clamped:
        print(f"note: verify clamps {' and '.join(clamped)}: its suites run at "
              f"m <= 3 and n <= 2", file=sys.stderr)
    ok, results = run_suites(cfg, args.seed, corrupt_sign=args.corrupt_sign)
    for r in results:
        print(("PASS " if r["ok"] else "FAIL ") + r["name"] + ": " + str(r["detail"]),
              file=sys.stderr)
    _emit({"command": "verify", "ok": ok, "results": results,
           "corrupt_sign": bool(args.corrupt_sign)})
    return 0 if ok else 1


def _bounded(low: int, high: int | None = None):
    """An argparse type: an int of at least low, and at most high if given."""
    def integer(text):
        value = int(text)
        if value < low or high is not None and value > high:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}" + (f" and at most {high}" if high else ""))
        return value
    return integer


def _field(text):
    try:
        return xa.check_field(int(text))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


FLAGS = {
    "m": {"type": _bounded(1), "default": 2, "help": "number of braid crossings"},
    "n": {"type": _bounded(1), "default": 1, "help": "representation dimension"},
    "p": {"type": _field, "default": 2, "help": "field characteristic (prime)"},
    "seed": {"type": int, "default": 0},
    "samples": {"type": _bounded(0), "default": 9,
                "help": "ordered pairs to check, 0 for every pair"},
    "budget": {"type": _bounded(0), "default": 100_000,
               "help": "most tuples to enumerate, and most pairs to check, "
                       "sampled or all"},
    "format": {"choices": ("json", "csv"), "default": "json"},
    "resolution": {"type": _bounded(1), "default": 1, "help": "Cech tiling dilation"},
    "copies": {"type": _bounded(1, 10), "default": 1, "help": "k > 1 adds the k-copy DGA"},
}
REPS = ("m", "n", "p", "budget", "format")
SAMPLED = REPS + ("seed", "samples")
COMMANDS = (
    ("dga", cmd_dga, "emit the link DGA (and k-copy)", ("m", "p", "copies")),
    ("reps", cmd_reps, "enumerate objects", REPS),
    ("hom", cmd_hom, "H^* dims, machinery vs closed form", SAMPLED),
    ("ext", cmd_ext, "Ext dims vs the representation side", SAMPLED),
    ("cech", cmd_cech, "Cech dims, rank certificates, game trace", SAMPLED + ("resolution",)),
    ("equiv", cmd_equiv, "the equivalence report", SAMPLED + ("resolution",)),
)


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="legtorus",
        description="Representation and sheaf categories of Legendrian (2,m) "
                    "torus links over F_p, with cross-oracle verification.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, help_, flags in COMMANDS:
        sp = sub.add_parser(name, help=help_)
        for flag in flags:
            sp.add_argument(f"--{flag}", **FLAGS[flag])
        sp.set_defaults(fn=fn)
    sp = sub.add_parser("verify", help="run all property suites")
    for flag in ("m", "n", "p", "seed"):
        sp.add_argument(f"--{flag}", **FLAGS[flag])
    sp.add_argument("--samples", type=_bounded(1), default=9, help="random cases per suite")
    sp.add_argument("--corrupt-sign", action="store_true",
                    help="negative control: flip a composition sign")
    sp.set_defaults(fn=cmd_verify, m=3, n=2)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
