"""Command-line front end.

Subcommands:
  fgl multiple|divide|rho|inverse|a     formal group law series and coefficients
  gkm congruences|check                 congruence systems and membership certificates
  flag curves                           fixed points and invariant curves of G/P_I
  horo build|scan                       GKM data of the classification families
  mult point-class|subvariety|fiber-sum equivariant multiplicity tables

Global options: --order D (default 8, minimum 3), --law universal|additive|
multiplicative:b, --format text|json.  Exit codes: 0 success or member,
1 non-member, 2 usage error, 3 unresolved surface kind.

Each command imports the layers it runs when it runs, so a command loads
only those and the series and law layers every command needs.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .coeff_series import TruncatedSeries, as_rational
from .fgl import FormalGroupLaw

EXIT_OK = 0
EXIT_NON_MEMBER = 1
EXIT_USAGE = 2
EXIT_UNRESOLVED = 3


def parse_law(spec: str):
    """The law a --law spec names, as a function of the truncation order."""
    if spec in ("universal", "additive"):
        return getattr(FormalGroupLaw, spec)
    if spec.startswith("multiplicative:"):
        return partial(FormalGroupLaw.multiplicative, as_rational(spec.split(":", 1)[1]))
    raise ValueError(f"unknown law {spec!r}; use universal, additive or multiplicative:b")


def make_law(spec: str, order: int) -> FormalGroupLaw:
    return parse_law(spec)(order)


def _emit(args, obj, text: str) -> None:
    if args.format == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(text)


def _write_or_print(args, payload: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _series_out(args, series: TruncatedSeries) -> None:
    _emit(args, series.to_json_obj(), series.render())


# -- fgl ------------------------------------------------------------------------


def cmd_fgl(args) -> int:
    law = args.law(args.order)
    u = TruncatedSeries.variable(0, 1, args.order)
    if args.fgl_op == "multiple":
        _series_out(args, law.multiple(args.n, u))
    elif args.fgl_op == "divide":
        _series_out(args, law.divide(args.m, u))
    elif args.fgl_op == "rho":
        _series_out(args, law.rho(args.n, args.m, u))
    elif args.fgl_op == "inverse":
        _series_out(args, law.inverse(u))
    elif args.fgl_op == "a":
        coeff = law.a_coefficient(args.i, args.j)
        _emit(
            args,
            {"i": args.i, "j": args.j, "coefficient": coeff.to_json_terms()},
            coeff.render(),
        )
    elif args.fgl_op == "table":
        if not 0 <= args.max_degree <= args.order:
            raise ValueError(
                f"--max-degree must lie between 0 and the order {args.order}, got {args.max_degree}"
            )
        rows = []
        lines = []
        for i in range(args.max_degree + 1):
            for j in range(args.max_degree + 1 - i):
                coeff = law.a_coefficient(i, j)
                if not coeff.is_zero():
                    rows.append({"i": i, "j": j, "coefficient": coeff.to_json_terms()})
                    lines.append(f"a[{i},{j}] = {coeff.render()}")
        _emit(args, rows, "\n".join(lines))
    return EXIT_OK


# -- gkm ------------------------------------------------------------------------


def _load_datum(path: str):
    from .gkm_model import GkmDatum

    with open(path) as fh:
        return GkmDatum.from_json_obj(json.load(fh))


def _load_tuple(path: str, rank: int, order: int) -> dict:
    """A tuple file is a flat mapping from point names to series objects."""
    from .gkm_model import GkmValidationError

    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise GkmValidationError("a tuple file must be a JSON object mapping point names to series")
    values = {}
    for point, series_obj in obj.items():
        try:
            series = TruncatedSeries.from_json_obj(series_obj)
        except ValueError as exc:
            raise GkmValidationError(f"tuple file, point {point!r}: {exc}") from None
        if series.rank != rank:
            raise GkmValidationError("tuple rank does not match the datum rank")
        values[point] = series.truncated(order)
    return values


def cmd_gkm(args) -> int:
    from .gkm_model import check_membership, congruence_system, congruence_system_json
    from .torus_ring import TorusRing

    datum = _load_datum(args.datum)
    if args.gkm_op == "congruences":
        constraints = congruence_system(datum)
        if args.format == "text":
            payload = "\n".join(c.describe() for c in constraints) + "\n"
        else:
            payload = congruence_system_json(constraints)
        _write_or_print(args, payload)
        return EXIT_OK
    law = args.law(args.order)
    ring = TorusRing(law, datum.rank)
    values = _load_tuple(args.tuple, datum.rank, args.order)
    certificate = check_membership(datum, values, ring)
    if args.format == "text":
        lines = [
            f"{'PASS' if r.passed else 'FAIL'}  {r.constraint.describe()}"
            f"  [certified through {r.report.certified_order}]"
            for r in certificate.results
        ]
        lines.append("member" if certificate.is_member else "non-member")
        _write_or_print(args, "\n".join(lines) + "\n")
    else:
        _write_or_print(args, certificate.dumps())
    return EXIT_OK if certificate.is_member else EXIT_NON_MEMBER


# -- flag -----------------------------------------------------------------------


def _parse_parabolic(text: str) -> frozenset:
    if not text:
        return frozenset()
    out = set()
    for piece in text.split(","):
        try:
            out.add(int(piece.strip().lower().lstrip("a")))
        except ValueError:
            raise ValueError(
                f"cannot parse parabolic label {piece!r}; use simple-root labels like a1,a3"
            ) from None
    return frozenset(out)


def cmd_flag(args) -> int:
    from .root_flag import enumerate_curves, root_system

    system = root_system(args.type)
    parabolic = _parse_parabolic(args.parabolic)
    cosets = system.weyl_group.cosets(parabolic)
    curves = enumerate_curves(system, parabolic)
    obj = {
        "type": system.label,
        "parabolic": sorted(parabolic),
        "fixed_points": [
            {"name": c.name("x"), "weight": [str(v) for v in c.anchor]} for c in cosets
        ],
        "curves": [
            {
                "u": c.u.name("x"),
                "v": c.v.name("x"),
                "root": [str(v) for v in c.root],
                "weight": [str(v) for v in c.weight],
                "degree": {str(k): str(v) for k, v in sorted(c.degree.items())},
            }
            for c in curves
        ],
    }
    lines = [f"{system.label}/P_{{{','.join(f'a{i}' for i in sorted(parabolic))}}}:"]
    lines.append(f"  {len(cosets)} fixed points, {len(curves)} invariant curves")
    for c in curves:
        deg = " + ".join(f"{v}*s{k}" for k, v in sorted(c.degree.items()))
        lines.append(
            f"  {c.u.name('x')} -- {c.v.name('x')}  root=({', '.join(str(v) for v in c.root)})"
            f"  weight=({', '.join(str(v) for v in c.weight)})  degree={deg}"
        )
    _emit(args, obj, "\n".join(lines))
    return EXIT_OK


# -- horo -----------------------------------------------------------------------


def cmd_horo(args) -> int:
    from .horospherical import PasquierTriple, UnresolvedSurfaceKindError, build_gkm, surface_scan

    triple = PasquierTriple(family=args.family, n=args.n, m=args.m)
    if args.horo_op == "scan":
        scan = surface_scan(triple)
        text = [f"{triple.describe()}: chi = {scan.chi.render()}"]
        if scan.root is None:
            text.append("  no root proportional to chi: no surface components")
        else:
            text.append(
                f"  root {scan.root.render()}, pairings ({', '.join(str(p) for p in scan.pairings)}),"
                f" {scan.fixed_points} fixed points, kind {scan.kind}"
                + (f" (n={scan.n})" if scan.n else "")
            )
        _emit(args, scan.to_json_obj(), "\n".join(text))
        return EXIT_OK
    try:
        datum = build_gkm(triple, force_kind=args.force_kind)
    except UnresolvedSurfaceKindError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNRESOLVED
    _write_or_print(args, datum.dumps())
    return EXIT_OK


# -- mult -----------------------------------------------------------------------


def _load_tangent(path: str):
    from .multiplicities import TangentData

    with open(path) as fh:
        return TangentData.from_json_obj(json.load(fh))


def _tuple_payload(values: dict) -> str:
    obj = {p: s.to_json_obj() for p, s in sorted(values.items())}
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_mult(args) -> int:
    from . import multiplicities as mult
    from .torus_ring import TorusRing

    law = args.law(args.order)
    if args.mult_op == "point-class":
        data = _load_tangent(args.weights)
        ring = TorusRing(law, data.rank)
        points = [args.point] if args.point else data.points()
        out = {}
        for point in points:
            for name, series in mult.point_class(ring, point, data).items():
                key = name if len(points) == 1 else f"{point}:{name}"
                out[key] = series
        _write_or_print(args, _tuple_payload(out))
        return EXIT_OK
    if args.mult_op == "subvariety":
        data = _load_tangent(args.weights)
        ring = TorusRing(law, data.rank)
        values = mult.subvariety_class(ring, data)
        _write_or_print(args, _tuple_payload(values))
        return EXIT_OK
    if bool(args.ambient) != bool(args.point):
        given, missing = ("--ambient", "--point") if args.ambient else ("--point", "--ambient")
        raise ValueError(f"{given} needs {missing}: the pullback takes both")
    fiber = _load_tangent(args.weights)
    ring = TorusRing(law, fiber.rank)
    if args.ambient:
        ambient = _load_tangent(args.ambient)
        if ambient.rank != fiber.rank:
            raise ValueError(
                f"the ambient weights have length {ambient.rank}, the fiber weights {fiber.rank}"
            )
        result = mult.singular_class_pullback(ring, args.point, ambient, fiber)
        obj = {
            "terms": [t.to_json_obj() for t in result.terms],
            "sum": result.localized.to_json_obj(),
            "cleared": result.series.to_json_obj() if result.cleared.ok else None,
            "certified_order": result.cleared.certified_order,
        }
        text = (
            f"cleared: {result.series.render() if result.cleared.ok else 'FAILED'}"
            f"  [certified through {result.cleared.certified_order}]"
        )
    else:
        total = mult.fiber_multiplicity(ring, fiber)
        obj = total.to_json_obj()
        text = (
            f"1/({' '.join('c' + ch.render() for ch in total.denominator)}) * "
            f"({total.numerator.render()})"
        )
    _emit(args, obj, text)
    return EXIT_OK


# -- parser -----------------------------------------------------------------------


def _add_global_options(parser, default: bool):
    order, law, fmt = (8, "universal", "text") if default else (argparse.SUPPRESS,) * 3
    parser.add_argument("--order", type=int, default=order, help="truncation order (>= 3)")
    parser.add_argument("--law", default=law, help="universal | additive | multiplicative:b")
    parser.add_argument("--format", choices=("text", "json"), default=fmt)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkmcob",
        description="Exact equivariant cobordism of GKM data with surface corrections.",
    )
    _add_global_options(parser, default=True)
    sub = parser.add_subparsers(dest="command", required=True)

    fgl_p = sub.add_parser("fgl", help="formal group law series")
    fgl_sub = fgl_p.add_subparsers(dest="fgl_op", required=True)
    p = fgl_sub.add_parser("multiple", help="[n]u")
    p.add_argument("n", type=int)
    p = fgl_sub.add_parser("divide", help="[1/m]u")
    p.add_argument("m", type=int)
    p = fgl_sub.add_parser("rho", help="rho_{n/m} u")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    fgl_sub.add_parser("inverse", help="[-1]u")
    p = fgl_sub.add_parser("a", help="the coefficient of u^i v^j in F(u,v)")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p = fgl_sub.add_parser("table", help="all nonzero coefficients up to a degree")
    p.add_argument("--max-degree", type=int, default=4)
    fgl_p.set_defaults(func=cmd_fgl)

    gkm_p = sub.add_parser("gkm", help="congruence systems and membership")
    gkm_sub = gkm_p.add_subparsers(dest="gkm_op", required=True)
    p = gkm_sub.add_parser("congruences", help="emit the congruence system of a datum")
    p.add_argument("datum")
    p.add_argument("-o", "--output")
    p = gkm_sub.add_parser("check", help="check a tuple file against a datum")
    p.add_argument("datum")
    p.add_argument("tuple")
    p.add_argument("-o", "--output")
    gkm_p.set_defaults(func=cmd_gkm)

    flag_p = sub.add_parser("flag", help="flag-variety fixed points and curves")
    flag_sub = flag_p.add_subparsers(dest="flag_op", required=True)
    p = flag_sub.add_parser("curves", help="fixed points and invariant curves of G/P_I")
    p.add_argument("--type", required=True, help="Cartan type, e.g. G2, C2, B3, F4, A3")
    p.add_argument(
        "--parabolic",
        default="",
        help="comma-separated simple-root labels inside the parabolic, e.g. a1 or a1,a3",
    )
    flag_p.set_defaults(func=cmd_flag)

    horo_p = sub.add_parser("horo", help="classification families")
    horo_sub = horo_p.add_subparsers(dest="horo_op", required=True)
    p = horo_sub.add_parser("build", help="emit the GKM datum of a family")
    p.add_argument("--family", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--force-kind", help="surface kind override: p2:v0v1, p2:v2, f0, fn:<k>")
    p.add_argument("-o", "--output")
    p = horo_sub.add_parser("scan", help="report the surface scan of a family")
    p.add_argument("--family", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    horo_p.set_defaults(func=cmd_horo)

    mult_p = sub.add_parser("mult", help="equivariant multiplicities")
    mult_sub = mult_p.add_subparsers(dest="mult_op", required=True)
    p = mult_sub.add_parser("point-class", help="point classes from tangent weights")
    p.add_argument("weights")
    p.add_argument("--point")
    p.add_argument("-o", "--output")
    p = mult_sub.add_parser("subvariety", help="subvariety class from normal weights")
    p.add_argument("weights")
    p.add_argument("-o", "--output")
    p = mult_sub.add_parser("fiber-sum", help="fiber multiplicity sum, optionally times a point class")
    p.add_argument("weights")
    p.add_argument("--ambient")
    p.add_argument("--point")
    mult_p.set_defaults(func=cmd_mult)

    for command in (fgl_p, gkm_p, flag_p, horo_p, mult_p):
        for leaf in command._subparsers._group_actions[0].choices.values():
            _add_global_options(leaf, default=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    if args.order < 3:
        print("error: --order must be at least 3", file=sys.stderr)
        return EXIT_USAGE
    try:
        args.law = parse_law(args.law)  # refused for every command, before any work
        return args.func(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)  # str() would quote the message
        return EXIT_USAGE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
