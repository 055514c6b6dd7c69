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
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import lab, maxset, predictor
from .errors import (InsufficientData, MalformedSpec, NumericalError,
                     UnwritableOutput, ValidationError)
from .profile import (PeriodicBC, Potential, RobinBC, TEMPLATES, build_profile,
                      builtin, potential_from_dict, profile_from_dict,
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
# Every flag converts through its type=; argparse turns a TypeError or
# ValueError there into a usage error, so converters raise ValidationError.

def _number(text, convert=float):
    try:
        value = convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise MalformedSpec(f"not {kind}: {text!r}") from None
    if not math.isfinite(value):
        raise MalformedSpec(f"not a finite number: {text!r}")
    return value


def _parse_template_arg(text):
    name, _, rest = text.partition(":")
    return builtin(name, *map(_number, rest.split(",") if rest else ())), None


def _load_inputs(args):
    """(profile, potential): the potential is --c, else the profile
    file's potential block, else zero; classify takes no --c."""
    source = args.template or args.profile
    if source is None:
        raise MalformedSpec("need --template NAME[:p1,p2,...] or --profile FILE")
    spec, potential = source
    if hasattr(args, "c"):
        potential = args.c or potential or Potential.zero()
    return build_profile(spec), potential


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
        ladder = [_number(v) for v in text.split(",")]
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise MalformedSpec("ladder must be strictly ascending")
    return ladder


def _parse_mass_intervals(text):
    if not text:
        return ()
    pairs = [[_number(v) for v in block.split(",")] for block in text.split(";")]
    if any(len(pair) != 2 for pair in pairs):
        raise MalformedSpec("--mass-intervals needs lo,hi pairs separated by ';'")
    return lab._check_intervals(pairs)


def _create(path):
    """path opened for writing; one that cannot be is a validation error."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise UnwritableOutput(f"cannot write {path}: {exc.strerror}") from None


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
    decomp = predictor.decompose_under(profile, potential, args.bc)
    pred = predictor.predict_limit(decomp, potential, args.bc)
    _emit_json(_prediction_payload(pred))
    return 0


def _cmd_solve(args):
    profile, potential = _load_inputs(args)
    policy = lab.GridPolicy(args.grid_multiplier, args.grid_floor)
    n = args.n if args.n is not None else policy.n_for(profile, args.s)
    with (_create(args.dump_eigenfunction) if args.dump_eigenfunction
          else contextlib.nullcontext()) as fh:
        record = lab._solve_one(profile, potential, args.bc, args.s, n)
        if fh is not None:
            fh.write("x,w\n")
            for xi, wi in zip(*record.grid):
                fh.write(f"{_fmt(xi)},{_fmt(wi)}\n")
    sys.stdout.write(_fmt(record.lam) + "\n")
    return 0


def _sweep_records(args, profile, potential):
    return lab.sweep(profile, potential, args.bc, args.ladder,
                     grid_policy=lab.GridPolicy(args.grid_multiplier, args.grid_floor),
                     mass_intervals=args.mass_intervals)


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
    with (_create(args.out) if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        records = _sweep_records(args, profile, potential)
        _write_sweep_csv(records, args.mass_intervals, fh, args.timings)
    return 0 if all(r.error is None for r in records) else 3


def _cmd_report(args):
    if len(args.ladder) < lab.MIN_RECORDS:   # refused before any solve or file
        raise InsufficientData(f"report needs a ladder of at least "
                               f"{lab.MIN_RECORDS} entries")
    profile, potential = _load_inputs(args)
    decomp = predictor.decompose_under(profile, potential, args.bc)
    outdir = args.outdir or "."
    try:   # before the plateau solves of predict_limit
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise UnwritableOutput(f"cannot create {outdir}: {exc.strerror}") from None
    pred = predictor.predict_limit(decomp, potential, args.bc)

    payload = {"prediction": _prediction_payload(pred)}
    records = _sweep_records(args, profile, potential)
    good = [r for r in records if r.error is None]
    with _create(os.path.join(outdir, "lambda_vs_s.dat")) as fh:
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
                if decomp.circle:   # one period more on each side of [0, 1]
                    x = np.concatenate((x - 1.0, x[1:], x[1:] + 1.0))
                    w = np.concatenate((w, w[1:], w[1:]))
                radius = lab.component_mass_radius(decomp, src.x)
                resc = lab.rescaled_profile(x, w, src.x, src.k_star,
                                            good[-1].s, radius)
                profile_file = os.path.join(outdir, "rescaled_profile.dat")
                with _create(profile_file) as fh:
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

def build_parser():
    policy = lab.DEFAULT_POLICY
    source = argparse.ArgumentParser(add_help=False)
    group = source.add_mutually_exclusive_group()
    group.add_argument("--template", type=_parse_template_arg,
                       help="builtin template NAME[:p1,p2,...]")
    group.add_argument("--profile", type=lambda path: profile_from_dict(read_json(path)),
                       help="profile JSON file")
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--c", type=_parse_potential_arg,
                      help="potential: zero | const:v | poly:c0,c1,... | FILE")
    data.add_argument("--bc", type=_parse_bc, required=True,
                      help="robin:h1,l1,h2,l2 | periodic")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid-multiplier", default=policy.multiplier,
                      type=lambda text: lab.grid_setting("multiplier", _number(text)),
                      help="override the n(s) policy multiplier: n = multiplier "
                           "* s max|m'|, or 8 * multiplier * sqrt(s max|m'|) "
                           "where m' = 0 at both ends "
                           f"(default {policy.multiplier:g})")
    grid.add_argument("--grid-floor", default=policy.floor,
                      type=lambda text: lab.grid_setting("floor", _number(text, int)),
                      help=f"override the n(s) policy floor (default {policy.floor})")
    ladder = argparse.ArgumentParser(add_help=False, parents=[grid])
    ladder.add_argument("--ladder", type=_parse_ladder, required=True,
                        help="start:stop:count[:log|lin] or comma list")
    ladder.add_argument("--mass-intervals", type=_parse_mass_intervals, default=(),
                        help="semicolon-separated lo,hi pairs")

    parser = argparse.ArgumentParser(
        prog="adveig",
        description="principal-eigenvalue laboratory for large-advection "
                    "1D elliptic operators")
    sub = parser.add_subparsers(dest="command", required=True)
    cmds = {}
    for name, func, parents, summary in (
            ("classify", _cmd_classify, [source], "emit the local-maximum decomposition"),
            ("predict", _cmd_predict, [source, data], "predicted s->infinity limit"),
            ("solve", _cmd_solve, [source, data, grid], "principal eigenvalue at one s"),
            ("sweep", _cmd_sweep, [source, data, ladder], "run an s ladder, emit CSV"),
            ("report", _cmd_report, [source, data, ladder],
             "predict + sweep + estimate verdict"),
            ("templates", _cmd_templates, [], "list builtin profile templates")):
        cmds[name] = sub.add_parser(name, parents=parents, help=summary)
        cmds[name].set_defaults(func=func)
    cmds["solve"].add_argument("--s", type=_number, required=True)
    cmds["solve"].add_argument("--n", type=lambda text: lab.transformed_size(_number(text, int)),
                               default=None, help="grid size override")
    cmds["solve"].add_argument("--dump-eigenfunction", metavar="FILE",
                               help="write the grid eigenfunction as x,w CSV")
    cmds["sweep"].add_argument("--out", default=None, help="CSV path (default stdout)")
    cmds["sweep"].add_argument("--timings", action="store_true",
                               help="emit real wall times (breaks byte determinism)")
    cmds["report"].add_argument("--outdir", default=None,
                                help="plot-data directory (default .)")
    return parser


_PARSER = build_parser()     # built once: it is reused by every call of main


def main(argv=None):
    try:   # every input converts, and may raise, inside parse_args
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
