"""Batch command-line driver with machine-readable output.

Subcommands: dga | reps | hom | ext | cech | equiv | verify.  All output goes
to stdout as JSON (or CSV with --format csv), diagnostics to stderr.  The
same (flags, seed) always produce byte-identical output.  Exit codes:
0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import exactalg as xa
from .ainfty import (BudgetExceeded, enumerate_reps, hom_cohomology,
                     random_rep)
from .cech import CechComplex, build_red_blue, build_tiling, graph_game
from .freedga import build_lambda_dga, kcopy_dga
from .sheafcat import ext0_dim, ext1_dim, functor_obj
from .torusrep import cohomology_closed
from .verify import rng_for, run_suites

SCHEMA = 1


def _emit(payload: dict, fmt: str):
    payload = {"schema": SCHEMA, **payload}
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    else:
        rows = payload.get("rows", [])
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=sorted(rows[0]))
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        sys.stdout.write(buf.getvalue())


def _mats_to_list(mats):
    return [m.tolist() for m in mats]


def _sample_pairs(reps, samples, rng):
    """Ordered index pairs: all of them, or `samples` draws without duplicates
    (stderr says when repeated draws leave fewer pairs than requested)."""
    n = len(reps)
    if samples and samples < n * n:
        pairs = sorted({divmod(rng.randrange(n * n), n) for _ in range(samples)})
        if len(pairs) < samples:
            print(f"sampled {len(pairs)} distinct pairs of {samples} requested",
                  file=sys.stderr)
        return pairs
    return [divmod(k, n) for k in range(n * n)]


def _sheaf_objects(reps, pairs):
    """Functor images of the objects the sampled pairs use, by index."""
    return {i: functor_obj(reps[i]) for pair in pairs for i in pair}


def _objects(args, rng):
    """Enumerate when feasible within budget, otherwise sample tuples."""
    total = args.p ** (args.n * args.n * args.m)
    if total <= args.budget:
        return enumerate_reps(args.m, args.n, args.p, budget=args.budget), True
    count = max(2, min(args.samples or 4, 8))
    seen = {}
    for _ in range(count * 4):
        r = random_rep(args.m, args.n, args.p, rng)
        seen.setdefault(r.key(), r)
        if len(seen) >= count:
            break
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
    _emit(out, args.format)
    return 0


def cmd_reps(args):
    try:
        reps = enumerate_reps(args.m, args.n, args.p, budget=args.budget)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 1
    rows = [{"index": i, "tuple": json.dumps(_mats_to_list(r.A))}
            for i, r in enumerate(reps)]
    _emit({"command": "reps", "m": args.m, "n": args.n, "p": args.p,
           "count": len(reps), "rows": rows}, args.format)
    return 0


def cmd_hom(args):
    rng = rng_for(args.seed, "hom")
    reps, complete = _objects(args, rng)
    rows = []
    for i, j in _sample_pairs(reps, args.samples, rng):
        H = hom_cohomology(reps[i], reps[j])
        C = cohomology_closed(reps[i], reps[j])
        rows.append({"source": i, "target": j,
                     "h0": H.dims[0], "h1": H.dims[1], "h2": H.dims[2],
                     "closed_agrees": (H.dims[0], H.dims[1], H.dims[2])
                     == (C.dims[0], C.dims[1], C.dims[2])})
    ok = all(r["closed_agrees"] for r in rows)
    _emit({"command": "hom", "m": args.m, "n": args.n, "p": args.p,
           "complete_enumeration": complete, "rows": rows, "all_agree": ok},
          args.format)
    return 0 if ok else 1


def cmd_ext(args):
    rng = rng_for(args.seed, "ext")
    reps, complete = _objects(args, rng)
    pairs = _sample_pairs(reps, args.samples, rng)
    objs = _sheaf_objects(reps, pairs)
    rows = []
    for i, j in pairs:
        H = hom_cohomology(reps[i], reps[j])
        e0, e1 = ext0_dim(objs[i], objs[j]), ext1_dim(objs[i], objs[j])
        rows.append({"source": i, "target": j, "ext0": e0, "ext1": e1,
                     "h_agrees": (e0, e1) == (H.dims[0], H.dims[1])})
    ok = all(r["h_agrees"] for r in rows)
    _emit({"command": "ext", "m": args.m, "n": args.n, "p": args.p,
           "complete_enumeration": complete, "rows": rows, "all_agree": ok},
          args.format)
    return 0 if ok else 1


def cmd_cech(args):
    rng = rng_for(args.seed, "cech")
    reps, complete = _objects(args, rng)
    pairs = _sample_pairs(reps, args.samples or 4, rng)
    objs = _sheaf_objects(reps, pairs)
    T = build_tiling(args.m, args.resolution)
    rows = []
    trace = None
    for i, j in pairs:
        cx = CechComplex(T, objs[i], objs[j])
        dims = cx.cohomology_dims()
        ok_h2, cert = cx.h2_certificate()
        e0, e1 = ext0_dim(objs[i], objs[j]), ext1_dim(objs[i], objs[j])
        rows.append({"source": i, "target": j,
                     "cech_h0": dims[0], "cech_h1": dims[1], "cech_h2": dims[2],
                     "ext0": e0, "ext1": e1,
                     "agrees": dims == (e0, e1, 0) and ok_h2,
                     "rank_d1": cert["rank_d1"], "dim_c2": cert["dim_c2"]})
        if trace is None:
            trace = graph_game(build_red_blue(cx))
    ok = all(r["agrees"] for r in rows)
    _emit({"command": "cech", "m": args.m, "n": args.n, "p": args.p,
           "resolution": args.resolution, "complete_enumeration": complete,
           "rows": rows, "reduction_trace": trace, "all_agree": ok}, args.format)
    return 0 if ok else 1


def cmd_equiv(args):
    rng = rng_for(args.seed, "equiv")
    reps, complete = _objects(args, rng)
    pairs = _sample_pairs(reps, args.samples, rng)
    objs = _sheaf_objects(reps, pairs)
    T = build_tiling(args.m, args.resolution)
    rows = []
    for i, j in pairs:
        H = hom_cohomology(reps[i], reps[j])
        cx = CechComplex(T, objs[i], objs[j])
        dims = cx.cohomology_dims()
        ok_h2, _ = cx.h2_certificate()
        e0, e1 = ext0_dim(objs[i], objs[j]), ext1_dim(objs[i], objs[j])
        rows.append({
            "source": i, "target": j,
            "h0": H.dims[0], "h1": H.dims[1], "h2": H.dims[2],
            "ext0": e0, "ext1": e1, "ext2_cech": dims[2],
            "agree": (H.dims[0], H.dims[1], H.dims[2]) == (e0, e1, 0)
            and dims == (e0, e1, 0) and ok_h2,
        })
    from .verify import check_functoriality
    cfg = {"max_m": args.m, "primes": (args.p,), "samples": max(args.samples, 4)}
    fok, fdetail = check_functoriality(cfg, rng_for(args.seed, "equiv.functor"))
    ok = all(r["agree"] for r in rows) and fok
    _emit({"command": "equiv", "m": args.m, "n": args.n, "p": args.p,
           "objects": len(reps), "complete_enumeration": complete,
           "rows": rows, "functoriality": {"ok": fok, "detail": fdetail},
           "all_agree": ok}, args.format)
    return 0 if ok else 1


def cmd_verify(args):
    cfg = {"max_m": min(args.m, 3), "max_n": min(args.n, 2),
           "primes": (2, 3) if args.p == 2 else (args.p,),
           "samples": args.samples, "pairs_per_config": 1}
    if args.samples == 0:
        print("warning: --samples 0 makes every suite vacuous", file=sys.stderr)
    ok, results = run_suites(cfg, args.seed, corrupt_sign=args.corrupt_sign)
    for r in results:
        print(("PASS " if r["ok"] else "FAIL ") + r["name"] + ": " + str(r["detail"]),
              file=sys.stderr)
    _emit({"command": "verify", "ok": ok, "results": results,
           "corrupt_sign": bool(args.corrupt_sign)}, args.format)
    return 0 if ok else 1


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="legtorus",
        description="Representation and sheaf categories of Legendrian (2,m) "
                    "torus links over F_p, with cross-oracle verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, n=True):
        sp.add_argument("--m", type=int, default=2, help="number of braid crossings")
        if n:
            sp.add_argument("--n", type=int, default=1, help="representation dimension")
        sp.add_argument("--p", type=int, default=2, help="field characteristic (prime)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--samples", type=int, default=9)
        sp.add_argument("--budget", type=int, default=100_000)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--resolution", type=int, default=1)

    sp = sub.add_parser("dga", help="emit the link DGA (and k-copy)")
    common(sp, n=False)
    sp.add_argument("--copies", type=int, default=1)
    sp.set_defaults(fn=cmd_dga)

    for name, fn in (("reps", cmd_reps), ("hom", cmd_hom), ("ext", cmd_ext),
                     ("cech", cmd_cech), ("equiv", cmd_equiv)):
        sp = sub.add_parser(name)
        common(sp)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("verify", help="run all property suites")
    common(sp)
    sp.add_argument("--corrupt-sign", action="store_true",
                    help="negative control: flip a composition sign")
    sp.set_defaults(fn=cmd_verify, m=3, n=2)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    if getattr(args, "m", 1) < 1:
        ap.error("--m must be at least 1")
    if getattr(args, "n", 1) < 1:
        ap.error("--n must be at least 1")
    try:
        xa.check_field(args.p)
    except ValueError as e:
        ap.error(str(e))
    try:
        return args.fn(args)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
