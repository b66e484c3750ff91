"""Command-line interface.

One JSON document on stdout by default (CSV for the bound table with --csv);
--out writes to a file instead.  Complex arguments are "re,im" with no
spaces.  Exit codes: 0 success, 1 a verification suite found violations (or
an extremal verify failed), 2 invalid input.
"""

import argparse
import json
import sys

from .bounds import (
    bound_comparison_table,
    ruscheweyh_bound,
    szasz_bound,
    table_to_csv,
    theorem31_bound,
)
from .disks import (
    dieudonne_disk,
    mercer_disk,
    rogosinski_disk,
    schwarz_pick_disk,
    second_derivative_disk,
    second_order_dieudonne_disk,
)
from .extremal import ExtremalKind, kind_for_branch, kind_spec, make_extremal, verify_attainment
from .functions import PrescribedData, complex_to_pair
from .moebius import DegeneracyError, DomainError, PoleError, _modulus, require_finite

# not called here since the kind table computes the targets; kept bound
# because bench/tracing.py wraps this name in this module
from .extremal import branch_bound_for  # noqa: F401

__all__ = ["cli_main", "main"]


def _complex_arg(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 're,im' with float parts, got {text!r}")


def _float_list_arg(text):
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _emit(args, text):
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write --out {args.out!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _emit_json(args, doc):
    _emit(args, json.dumps(doc, separators=(",", ":")))


def _disk_obj(disk):
    return {"center": complex_to_pair(disk.center), "radius": disk.radius}


def _bound_obj(result, extremal=None):
    return {"value": result.value, "branch": result.branch.value, "extremal": extremal}


def _cmd_disk(args):
    doc = None
    if args.region == "schwarz-pick":
        doc = _disk_obj(schwarz_pick_disk(args.z0, args.delta0))
    elif args.region == "rogosinski":
        doc = _disk_obj(rogosinski_disk(args.z0, args.delta1))
    elif args.region == "mercer":
        doc = _disk_obj(mercer_disk(args.z0, args.w0, args.z))
    elif args.region == "dieudonne":
        doc = _disk_obj(dieudonne_disk(args.z0, args.w0))
    elif args.region == "second":
        data = PrescribedData(args.z0, args.delta0, args.delta1)
        doc = _disk_obj(second_derivative_disk(data))
    elif args.region == "dieudonne2":
        w1, region = second_order_dieudonne_disk(args.z0, args.w0, args.delta1)
        doc = _disk_obj(region)
        doc["w1"] = complex_to_pair(w1)
    _emit_json(args, doc)
    return 0


def _magnitude(flag, value, point, point_flag):
    if value is not None:
        return float(value)
    if point is not None:
        return _modulus(point)
    raise DomainError(f"give {flag} or {point_flag}")


def _point(point, name, magnitude, magnitude_name):
    """The data point of a bound: the given point, which must have the given
    magnitude, or else the positive real of that magnitude."""
    if point is None:
        return complex(magnitude)
    point = require_finite(point, name)
    if abs(_modulus(point) - magnitude) > 1e-9 * (1.0 + magnitude):
        raise DomainError(f"|{name}| = {_modulus(point)} does not match {magnitude_name} = {magnitude}")
    return point


def _extremal_obj(values, free):
    """The parameters of a sharp extremal, "arbitrary" for the free ones."""
    return {
        name: "arbitrary" if name in free else complex_to_pair(value) if isinstance(value, complex) else value
        for name, value in values.items()
    }


def _cmd_bound(args):
    if args.which in ("thm31", "szasz"):
        r = _magnitude("--r", args.r, args.z0, "--z0")
        if args.which == "thm31":
            R = _magnitude("--R", args.R, args.delta0, "--delta0")
            result = theorem31_bound(r, R)
            data = {"z0": _point(args.z0, "z0", r, "r"), "delta0": _point(args.delta0, "delta0", R, "R")}
        else:
            result = szasz_bound(r)
            data = {"z0": _point(args.z0, "z0", r, "r")}
        spec = kind_spec(kind_for_branch(result.branch))
        doc = _bound_obj(result, _extremal_obj(*spec.params(**data)))
        if args.emit_function:
            doc["function"] = make_extremal(spec.kind, **data).to_obj()
        _emit_json(args, doc)
    elif args.which == "ruscheweyh":
        _emit_json(args, _bound_obj(ruscheweyh_bound(args.n, args.r, args.R)))
    elif args.which == "table":
        rows = bound_comparison_table(args.r_grid, args.R_grid)
        if args.csv:
            _emit(args, table_to_csv(rows))
        else:
            _emit_json(args, [dict(row._asdict()) for row in rows])
    return 0


def _extremal_kwargs(args):
    kwargs = {}
    for name in ("z0", "delta0", "delta1", "alpha", "w0", "theta"):
        value = getattr(args, name)
        if value is not None:
            kwargs[name] = value
    return kwargs


def _cmd_extremal_emit(args):
    g = make_extremal(args.kind, **_extremal_kwargs(args))
    _emit_json(args, {"kind": args.kind, "function": g.to_obj()})
    return 0


def _cmd_extremal_verify(args):
    kwargs = _extremal_kwargs(args)
    report = verify_attainment(args.kind, kwargs, args.tol)
    doc = {
        "kind": report.kind.value,
        "value": complex_to_pair(report.value),
        "first": complex_to_pair(report.first),
        "second": complex_to_pair(report.second),
        "target": report.target,
        "distance": report.distance,
        "tol": report.tol,
        "passed": report.passed,
    }
    if args.emit_function:
        doc["function"] = make_extremal(args.kind, **kwargs).to_obj()
    _emit_json(args, doc)
    return 0 if report.passed else 1


def _report_exit(args, report):
    _emit_json(args, report.to_obj())
    return 1 if report.violations > 0 else 0


# the verify handlers import the harness themselves: it loads numpy, which the
# closed-form commands never use


def _harness_config(args):
    from .harness import HarnessConfig

    given = {name: getattr(args, name, None) for name in ("seed", "samples", "parallel", "tol")}
    return HarnessConfig(**{name: value for name, value in given.items() if value is not None})


def _names(text, default):
    """A comma-separated --families or --kinds value, or default where it is
    not given; a given empty value names nothing, which the suites refuse."""
    if text is None:
        return default
    return tuple(text.split(",")) if text else ()


def _cmd_verify_membership(args):
    from .harness import MEMBERSHIP_FAMILIES, run_membership_suite

    families = _names(args.families, MEMBERSHIP_FAMILIES)
    return _report_exit(args, run_membership_suite(_harness_config(args), families))


def _cmd_verify_attainment(args):
    from .harness import run_attainment_suite

    kinds = _names(args.kinds, None)
    return _report_exit(args, run_attainment_suite(_harness_config(args), kinds))


def _cmd_verify_tightness(args):
    from .harness import run_tightness_search

    return _report_exit(args, run_tightness_search(_harness_config(args), args.r, args.R))


def _add_out(parser):
    parser.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")


def _add_complex(parser, *names):
    for name in names:
        parser.add_argument(f"--{name}", type=_complex_arg, metavar="RE,IM", required=True)


def _parser():
    top = argparse.ArgumentParser(
        prog="diskvar",
        description="Variability disks, sharp second-derivative bounds, and their verification.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    disk = sub.add_parser("disk", help="closed-form variability disks")
    disk_sub = disk.add_subparsers(dest="region", required=True)
    p = disk_sub.add_parser("schwarz-pick", help="g'(z0) given g(z0)")
    _add_complex(p, "z0", "delta0")
    p = disk_sub.add_parser("rogosinski", help="g(z0) given g(0) = 0 and g'(0)")
    _add_complex(p, "z0", "delta1")
    p = disk_sub.add_parser("mercer", help="f(z) given f(0) = 0 and f(z0) = w0")
    _add_complex(p, "z0", "w0", "z")
    p = disk_sub.add_parser("dieudonne", help="f'(z0) given f(0) = 0 and f(z0) = w0")
    _add_complex(p, "z0", "w0")
    p = disk_sub.add_parser("second", help="g''(z0) given g(z0) and the hyperbolic derivative")
    _add_complex(p, "z0", "delta0", "delta1")
    p = disk_sub.add_parser("dieudonne2", help="f''(z0) given f(0) = 0, f(z0) = w0 and delta1")
    _add_complex(p, "z0", "w0", "delta1")
    for p in disk_sub.choices.values():
        _add_out(p)
        p.set_defaults(func=_cmd_disk)

    bound = sub.add_parser("bound", help="sharp bounds for |g''(z0)|")
    bound_sub = bound.add_subparsers(dest="which", required=True)
    p = bound_sub.add_parser("thm31", help="two-branch sharp bound at |z0| = r, |g(z0)| = R")
    p.add_argument("--r", type=float)
    p.add_argument("--R", type=float)
    p.add_argument("--z0", type=_complex_arg, metavar="RE,IM")
    p.add_argument("--delta0", type=_complex_arg, metavar="RE,IM")
    p.add_argument("--emit-function", action="store_true", help="include the extremal function tree")
    p = bound_sub.add_parser("szasz", help="point-only sharp bound at |z0| = r")
    p.add_argument("--r", type=float)
    p.add_argument("--z0", type=_complex_arg, metavar="RE,IM")
    p.add_argument("--emit-function", action="store_true", help="include the extremal function tree")
    p = bound_sub.add_parser("ruscheweyh", help="n-th derivative bound, n in {1, 2}")
    p.add_argument("--n", type=int, required=True, choices=(1, 2))
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--R", type=float, required=True)
    p = bound_sub.add_parser("table", help="compare thm31 / ruscheweyh / szasz on a grid")
    p.add_argument("--r-grid", type=_float_list_arg, default=[0.1, 0.3, 0.5, 0.7, 0.9])
    p.add_argument("--R-grid", type=_float_list_arg, default=[0.0, 0.25, 0.5, 0.75, 0.9])
    p.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    for p in bound_sub.choices.values():
        _add_out(p)
        p.set_defaults(func=_cmd_bound)

    extremal = sub.add_parser("extremal", help="extremal functions as serialized trees")
    extremal_sub = extremal.add_subparsers(dest="action", required=True)
    kinds = tuple(k.value for k in ExtremalKind)
    for action, func in (("emit", _cmd_extremal_emit), ("verify", _cmd_extremal_verify)):
        p = extremal_sub.add_parser(action)
        p.add_argument("--kind", required=True, choices=kinds)
        for name in ("z0", "delta0", "delta1", "alpha", "w0"):
            p.add_argument(f"--{name}", type=_complex_arg, metavar="RE,IM")
        p.add_argument("--theta", type=float)
        if action == "verify":
            p.add_argument("--tol", type=float, default=1e-8)
            p.add_argument("--emit-function", action="store_true")
        _add_out(p)
        p.set_defaults(func=func)

    verify = sub.add_parser("verify", help="randomized verification suites")
    verify_sub = verify.add_subparsers(dest="suite", required=True)
    for suite, func in (
        ("membership", _cmd_verify_membership),
        ("attainment", _cmd_verify_attainment),
        ("tightness", _cmd_verify_tightness),
    ):
        p = verify_sub.add_parser(suite)
        if suite != "attainment":  # the attainment grids are fixed, not sampled
            p.add_argument("--seed", type=int, default=42)
            p.add_argument("--samples", type=int, default=10000)
            p.add_argument("--parallel", action="store_true")
        p.add_argument("--tol", type=float, default=None)
        if suite == "membership":
            p.add_argument("--families", help="comma-separated subset of second,dieudonne,mercer")
        elif suite == "attainment":
            p.add_argument("--kinds", help="comma-separated extremal kinds")
        else:
            p.add_argument("--r", type=float, required=True)
            p.add_argument("--R", type=float, required=True)
        _add_out(p)
        p.set_defaults(func=func)

    return top


def cli_main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else int(code)
    try:
        return args.func(args)
    except (DomainError, DegeneracyError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
