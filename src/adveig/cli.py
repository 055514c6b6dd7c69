"""Command-line front end: classify, predict, solve, sweep, report,
templates.

Reproducibility contract: on one numpy/LAPACK build, identical
invocations produce byte-identical stdout/files.  All floats are printed
with 12 significant digits; the sweep CSV's wall_time column is 0.0
unless --timings is passed (real timings would break determinism).
predict's rounding-level numbers, a plateau's error_estimate and a
zero-c Neumann plateau value, follow the LAPACK kernels picked for the
CPU, so tests/test_cli_golden.py holds another build to the same
document with every number within 1e-9.  Exit codes: 0 ok, 2 validation
error, 3 numerical failure; errors go to stderr as "Code: message".
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import lab, maxset, predictor
from .errors import MalformedSpec, NumericalError, ValidationError
from .profile import (PeriodicBC, Potential, RobinBC, TEMPLATES, build_profile,
                      builtin, load_profile_json, potential_from_dict,
                      read_json)


def _fmt(v):
    return f"{float(v):.12g}"


def _round12(obj):
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return None
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit_json(payload):
    sys.stdout.write(json.dumps(_round12(payload), indent=2) + "\n")


# -- argument parsing ----------------------------------------------------

def _number(text, convert=float):
    try:
        value = convert(text)
    except ValueError:
        raise MalformedSpec(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise MalformedSpec(f"not a finite number: {text!r}")
    return value


def _parse_template_arg(text):
    name, _, rest = text.partition(":")
    return builtin(name, *[_number(p) for p in rest.split(",") if p])


def _load_inputs(args):
    """(profile, potential) from --template/--profile plus --c.  The
    potential defaults to zero only for subcommands that take --c."""
    potential = None
    if args.template:
        spec = _parse_template_arg(args.template)
    elif args.profile:
        spec, potential = load_profile_json(args.profile)
    else:
        raise MalformedSpec("need --template NAME[:p1,p2,...] or --profile FILE")
    profile = build_profile(spec)
    if hasattr(args, "c"):
        if args.c:
            potential = _parse_potential_arg(args.c)
        if potential is None:
            potential = Potential.zero()
    return profile, potential


def _parse_potential_arg(text):
    if text == "zero":
        return Potential.zero()
    if text.startswith("const:"):
        return Potential.constant(_number(text[len("const:"):]))
    if text.startswith("poly:"):
        return Potential.from_coeffs([_number(v) for v in text[len("poly:"):].split(",")])
    if os.path.exists(text):
        data = read_json(text)
        if isinstance(data, dict) and "potential" in data:
            data = data["potential"]
        return potential_from_dict(data)
    raise MalformedSpec(f"cannot parse potential {text!r} "
                        "(use zero | const:v | poly:c0,c1,... | FILE)")


def _parse_bc(text):
    if text == "periodic":
        return PeriodicBC()
    if text.startswith("robin:"):
        vals = [_number(v) for v in text[len("robin:"):].split(",")]
        if len(vals) != 4:
            raise MalformedSpec("--bc robin needs hbar1,ell1,hbar2,ell2")
        return RobinBC(*vals)
    raise MalformedSpec(f"cannot parse boundary condition {text!r}")


def _parse_ladder(text):
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise MalformedSpec("--ladder needs start:stop:count[:log|lin]")
        start, stop, count = _number(parts[0]), _number(parts[1]), _number(parts[2], int)
        mode = parts[3] if len(parts) == 4 else "log"
        if count < 1 or start <= 0 or stop <= start:
            raise MalformedSpec("ladder must be ascending with positive start")
        if mode == "log":
            ladder = list(np.geomspace(start, stop, count))
        elif mode == "lin":
            ladder = list(np.linspace(start, stop, count))
        else:
            raise MalformedSpec("ladder mode must be log or lin")
    else:
        ladder = [_number(v) for v in text.split(",") if v]
    if any(b <= a for a, b in zip(ladder, ladder[1:])) or not ladder:
        raise MalformedSpec("ladder must be strictly ascending")
    return ladder


def _parse_mass_intervals(text):
    if not text:
        return ()
    out = []
    for block in text.split(";"):
        pair = [_number(v) for v in block.split(",")]
        if len(pair) != 2:
            raise MalformedSpec("--mass-intervals needs lo,hi pairs separated by ';'")
        out.append(tuple(pair))
    return tuple(out)


def _grid_policy(args):
    """DEFAULT_POLICY with the --grid-* flags that were given."""
    given = {"multiplier": args.grid_multiplier, "floor": args.grid_floor}
    return dataclasses.replace(
        lab.DEFAULT_POLICY, **{k: v for k, v in given.items() if v is not None})


def _serialize_source(term):
    src = term.source
    if isinstance(src, maxset.IsolatedMax):
        return {"type": "isolated", "x": src.x, "position": src.position}
    return {"type": "segment", "a": src.a, "b": src.b, "class": src.cls}


def _prediction_payload(pred):
    if not pred.finite:
        return {"verdict": "unbounded", "case": pred.case,
                "value": None, "terms": [], "argmin": []}
    return {
        "verdict": "finite",
        "value": pred.value,
        "terms": [{"source": _serialize_source(t), "kind": t.kind,
                   "value": t.value, "error_estimate": t.error_estimate,
                   "interval": None if t.interval is None else list(t.interval)}
                  for t in pred.terms],
        "argmin": list(pred.argmin),
    }


def _predict(profile, potential, bc):
    """(decomposition, prediction) under Robin or periodic data."""
    decomp = predictor.decompose_under(profile, potential, bc)
    return decomp, predictor.predict_limit(decomp, potential, bc)


# -- subcommands ---------------------------------------------------------

def _cmd_classify(args):
    profile, _ = _load_inputs(args)
    decomp = maxset.decompose(profile)
    _emit_json({
        "isolated": [{"x": p.x, "position": p.position, "k_star": p.k_star,
                      "m_kstar": p.m_kstar} for p in decomp.isolated],
        "segments": [{"a": s.a, "b": s.b, "class": s.cls}
                     for s in decomp.segments],
    })
    return 0


def _cmd_predict(args):
    profile, potential = _load_inputs(args)
    bc = _parse_bc(args.bc)
    _, pred = _predict(profile, potential, bc)
    _emit_json(_prediction_payload(pred))
    return 0


def _cmd_solve(args):
    profile, potential = _load_inputs(args)
    bc = _parse_bc(args.bc)
    n = args.n if args.n is not None else _grid_policy(args).n_for(profile, args.s)
    record = lab._solve_one(profile, potential, bc, args.s, n)
    sys.stdout.write(_fmt(record.lam) + "\n")
    if args.dump_eigenfunction:
        x, w = record.grid
        with open(args.dump_eigenfunction, "w") as fh:
            fh.write("x,w\n")
            for xi, wi in zip(x, w):
                fh.write(f"{_fmt(xi)},{_fmt(wi)}\n")
    return 0


def _sweep_records(args, profile, potential, bc):
    ladder = _parse_ladder(args.ladder)
    intervals = _parse_mass_intervals(args.mass_intervals)
    records = lab.sweep(profile, potential, bc, ladder,
                        grid_policy=_grid_policy(args), mass_intervals=intervals)
    return records, intervals


def _write_sweep_csv(records, intervals, stream, timings):
    header = ["s", "n", "lambda"]
    header += [f"mass_{i}" for i in range(len(intervals))]
    header.append("wall_time")
    stream.write(",".join(header) + "\n")
    for r in records:
        if r.error is not None:
            row = [_fmt(r.s), str(r.n), f"error:{r.error.split(':')[0]}"]
            row += [""] * len(intervals) + [""]
        else:
            row = [_fmt(r.s), str(r.n), _fmt(r.lam)]
            row += [_fmt(m) for _, m in r.mass]
            row.append(_fmt(r.wall_time) if timings else "0.0")
        stream.write(",".join(row) + "\n")


def _cmd_sweep(args):
    profile, potential = _load_inputs(args)
    bc = _parse_bc(args.bc)
    records, intervals = _sweep_records(args, profile, potential, bc)
    if args.out:
        with open(args.out, "w") as fh:
            _write_sweep_csv(records, intervals, fh, args.timings)
    else:
        _write_sweep_csv(records, intervals, sys.stdout, args.timings)
    return 0 if all(r.error is None for r in records) else 3


def _cmd_report(args):
    profile, potential = _load_inputs(args)
    bc = _parse_bc(args.bc)
    decomp, pred = _predict(profile, potential, bc)
    outdir = args.outdir or "."
    os.makedirs(outdir, exist_ok=True)

    payload = {"prediction": _prediction_payload(pred)}
    records, intervals = _sweep_records(args, profile, potential, bc)
    good = [r for r in records if r.error is None]
    with open(os.path.join(outdir, "lambda_vs_s.dat"), "w") as fh:
        for r in good:
            fh.write(f"{_fmt(r.s)} {_fmt(r.lam)}\n")

    est = lab.estimate_limit(records)
    payload["estimate"] = est
    payload["converged"] = est["converged"]
    gap = None
    if pred.finite and good:
        gap = max(abs(r.lam - pred.value) for r in good[len(good) // 2:])
    payload["max_abs_gap"] = gap

    # rescaled local profile at the largest s, when the argmin set holds
    # an isolated maximum with a defined degeneracy order
    profile_file = None
    if pred.finite and good and good[-1].grid is not None:
        for idx in pred.argmin:
            src = pred.terms[idx].source
            if isinstance(src, maxset.IsolatedMax) and src.k_star is not None:
                x, w = good[-1].grid
                radius = lab.component_mass_radius(decomp, src.x)
                resc = lab.rescaled_profile(x, w, src.x, src.k_star,
                                            good[-1].s, radius)
                profile_file = os.path.join(outdir, "rescaled_profile.dat")
                with open(profile_file, "w") as fh:
                    for yi, vi in zip(resc.y, resc.values):
                        fh.write(f"{_fmt(yi)} {_fmt(vi)}\n")
                payload["rescaled_profile"] = {
                    "x0": src.x, "k_star": src.k_star, "file": profile_file}
                break
    _emit_json(payload)
    return 0 if all(r.error is None for r in records) else 3


def _cmd_templates(args):
    for name in sorted(TEMPLATES):
        _, doc = TEMPLATES[name]
        sys.stdout.write(f"{name}: {doc}\n")
    return 0


# -- entry point ---------------------------------------------------------

def _add_profile_args(p, with_c=True):
    source = p.add_mutually_exclusive_group()
    source.add_argument("--template", help="builtin template NAME[:p1,p2,...]")
    source.add_argument("--profile", help="profile JSON file")
    if with_c:
        p.add_argument("--c", default=None,
                       help="potential: zero | const:v | poly:c0,c1,... | FILE")


def _add_grid_args(p):
    policy = lab.DEFAULT_POLICY
    p.add_argument("--grid-multiplier", type=_number, default=None,
                   help="override the n(s) policy multiplier: n = multiplier "
                        "* s max|m'|, or 8 * multiplier * sqrt(s max|m'|) "
                        "where m' = 0 at both ends "
                        f"(default {policy.multiplier:g})")
    p.add_argument("--grid-floor", type=int, default=None,
                   help=f"override the n(s) policy floor (default {policy.floor})")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="adveig",
        description="principal-eigenvalue laboratory for large-advection "
                    "1D elliptic operators")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="emit the local-maximum decomposition")
    _add_profile_args(p, with_c=False)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("predict", help="predicted s->infinity limit")
    _add_profile_args(p)
    p.add_argument("--bc", required=True, help="robin:h1,l1,h2,l2 | periodic")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("solve", help="principal eigenvalue at one s")
    _add_profile_args(p)
    p.add_argument("--bc", required=True)
    p.add_argument("--s", type=_number, required=True)
    p.add_argument("--n", type=int, default=None, help="grid size override")
    p.add_argument("--dump-eigenfunction", metavar="FILE",
                   help="write the grid eigenfunction as x,w CSV")
    _add_grid_args(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="run an s ladder, emit CSV")
    _add_profile_args(p)
    p.add_argument("--bc", required=True)
    p.add_argument("--ladder", required=True,
                   help="start:stop:count[:log|lin] or comma list")
    p.add_argument("--mass-intervals", default="",
                   help="semicolon-separated lo,hi pairs")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.add_argument("--timings", action="store_true",
                   help="emit real wall times (breaks byte determinism)")
    _add_grid_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="predict + sweep + estimate verdict")
    _add_profile_args(p)
    p.add_argument("--bc", required=True)
    p.add_argument("--ladder", required=True)
    p.add_argument("--mass-intervals", default="")
    p.add_argument("--outdir", default=None,
                   help="plot-data directory (default .)")
    _add_grid_args(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("templates", help="list builtin profile templates")
    p.set_defaults(func=_cmd_templates)
    return parser


_PARSER = build_parser()     # built once: it is reused by every call of main


def main(argv=None):
    try:   # --s and --grid-multiplier parse through _number
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        sys.stderr.write(f"{exc.code}: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"{exc.code}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
