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
    SecondOrderDisk,
    dieudonne_disk,
    mercer_disk,
    rogosinski_disk,
    schwarz_pick_disk,
    second_derivative_disk,
    second_order_dieudonne_disk,
)
from .extremal import _DEFAULTS, _PARAMETERS, KINDS, kind_for_branch, kind_spec, make_extremal, verify_attainment
from .functions import PrescribedData, complex_to_pair
from .moebius import DegeneracyError, DomainError, PoleError, _modulus, require_finite, require_real

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
    region = args.closed_form(*(getattr(args, name) for name in args.data))
    if isinstance(region, SecondOrderDisk):
        _emit_json(args, _disk_obj(region.region) | {"w1": complex_to_pair(region.w1)})
    else:
        _emit_json(args, _disk_obj(region))
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


def _pairs(values):
    """``values`` with each complex value as its [re, im] pair."""
    return {name: complex_to_pair(value) if isinstance(value, complex) else value for name, value in values.items()}


def _extremal_obj(spec, data):
    """The parameters of a sharp kind's extremal at ``data`` and free value
    0, "arbitrary" for those that differ at free value 1: every free value
    attains the bound, so these take any value, all together."""
    at_zero, turned = (spec.params(**data, **{name: theta for name, _ in spec.free}) for theta in (0.0, 1.0))
    return _pairs({name: "arbitrary" if turned[name] != value else value for name, value in at_zero.items()})


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
        doc = _bound_obj(result, _extremal_obj(spec, data))
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
    """Each kind parameter's flag value, None where it is not given."""
    return {name: getattr(args, name) for name in _PARAMETERS}


def _kinds_help():
    """Each kind with its parameters' flags, in brackets where one may be left out."""
    defaults = ", ".join(f"{name} defaults to {value}" for name, value in _DEFAULTS.items())
    lines = [f"kinds and their parameters ({defaults}):"]
    for spec in KINDS.values():
        flags = (f"[--{name}]" if name in _DEFAULTS else f"--{name}" for name, _ in spec.data + spec.free)
        lines.append(f"  {spec.kind.value:<23}{' '.join(flags)}")
    return "\n".join(lines)


def _cmd_extremal_emit(args):
    g = make_extremal(args.kind, **_extremal_kwargs(args))
    _emit_json(args, {"kind": args.kind, "function": g.to_obj()})
    return 0


def _cmd_extremal_verify(args):
    kwargs = _extremal_kwargs(args)
    report = verify_attainment(args.kind, kwargs, args.tol)
    doc = _pairs(report._asdict() | {"kind": report.kind.value})
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
    # one row per region: its name, help, data flags in the order its closed
    # form takes them, and that closed form.  The rows are built with the
    # parser, so each holds the closed form this module binds at that time,
    # which is what bench/tracing.py wraps
    for region, text, data, closed_form in (
        ("schwarz-pick", "g'(z0) given g(z0)", ("z0", "delta0"), schwarz_pick_disk),
        ("rogosinski", "g(z0) given g(0) = 0 and g'(0)", ("z0", "delta1"), rogosinski_disk),
        ("mercer", "f(z) given f(0) = 0 and f(z0) = w0", ("z0", "w0", "z"), mercer_disk),
        ("dieudonne", "f'(z0) given f(0) = 0 and f(z0) = w0", ("z0", "w0"), dieudonne_disk),
        (
            "second", "g''(z0) given g(z0) and the hyperbolic derivative", ("z0", "delta0", "delta1"),
            lambda *data: second_derivative_disk(PrescribedData(*data)),
        ),
        (
            "dieudonne2", "f''(z0) given f(0) = 0, f(z0) = w0 and delta1", ("z0", "w0", "delta1"),
            second_order_dieudonne_disk,
        ),
    ):
        p = disk_sub.add_parser(region, help=text)
        _add_complex(p, *data)
        _add_out(p)
        p.set_defaults(func=_cmd_disk, data=data, closed_form=closed_form)

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
    for action, func in (("emit", _cmd_extremal_emit), ("verify", _cmd_extremal_verify)):
        p = extremal_sub.add_parser(action, epilog=_kinds_help(), formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--kind", required=True, choices=tuple(kind.value for kind in KINDS))
        for name, validate in _PARAMETERS.items():
            real = validate is require_real
            p.add_argument(f"--{name}", type=float if real else _complex_arg, metavar=None if real else "RE,IM")
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
