"""Command-line front end.

Subcommands:
  fgl multiple|divide|rho|inverse|a     formal group law series and coefficients
  gkm congruences|check                 congruence systems and membership certificates
  flag curves                           fixed points and invariant curves of G/P_I
  horo build|scan                       GKM data of the classification families
  mult point-class|subvariety|fiber-sum equivariant multiplicity tables

Global options: --order D (default 8, minimum 3), --law universal|additive|
multiplicative:b, --format text|json.  Exit codes: 0 success or member,
1 non-member, 2 usage error, 3 unresolved surface kind, 141 stdout closed
by its reader (128 + SIGPIPE, as a shell reports it; nothing is printed).

Each command imports the layers it runs when it runs, so a command loads
only those and the bottom layer, common: `horo`, `flag` and `gkm
congruences` load no series arithmetic, and the law of --law is checked here
and built by fgl only when a command asks for it.  Every JSON document a
command prints or writes comes from one writer, common.dumps (the datum
file from GkmDatum.dumps, on the same block helpers), in the bytes of
json.dumps(obj, indent=2, sort_keys=True).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .common import as_rational, dumps

EXIT_OK = 0
EXIT_NON_MEMBER = 1
EXIT_USAGE = 2
EXIT_UNRESOLVED = 3
EXIT_BROKEN_PIPE = 141


def parse_law(spec: str):
    """The law a --law spec names, as a function of the truncation order.

    The spec and the parameter b are checked here; fgl is imported only when
    the function builds the law."""
    if spec in ("universal", "additive"):
        name, args = spec, ()
    elif spec.startswith("multiplicative:"):
        name, args = "multiplicative", (as_rational(spec.split(":", 1)[1]),)
    else:
        raise ValueError(f"unknown law {spec!r}; use universal, additive or multiplicative:b")

    def law(order: int):
        from .fgl import FormalGroupLaw

        return getattr(FormalGroupLaw, name)(*args, order)

    return law


def make_law(spec: str, order: int):
    """The FormalGroupLaw a --law spec names, at this truncation order."""
    return parse_law(spec)(order)


def _emit(args, obj, text) -> None:
    """Print dumps(obj()) or text(), as --format asks: only that output is
    built."""
    print(dumps(obj()) if args.format == "json" else text())


def _write_or_print(args, payload: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _series_out(args, series) -> None:
    _emit(args, series.to_json_obj, series.render)


# -- fgl ------------------------------------------------------------------------


def cmd_fgl(args) -> int:
    from .coeff_series import TruncatedSeries

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
            lambda: {"i": args.i, "j": args.j, "coefficient": coeff.to_json_terms()},
            coeff.render,
        )
    elif args.fgl_op == "table":
        if not 0 <= args.max_degree <= args.order:
            raise ValueError(
                f"--max-degree must lie between 0 and the order {args.order}, got {args.max_degree}"
            )
        table = [
            (i, j, coeff)
            for i in range(args.max_degree + 1)
            for j in range(args.max_degree + 1 - i)
            if not (coeff := law.a_coefficient(i, j)).is_zero()
        ]
        _emit(
            args,
            lambda: [{"i": i, "j": j, "coefficient": c.to_json_terms()} for i, j, c in table],
            lambda: "\n".join(f"a[{i},{j}] = {c.render()}" for i, j, c in table),
        )
    return EXIT_OK


# -- gkm ------------------------------------------------------------------------


def _load_datum(path: str):
    from .gkm_datum import GkmDatum

    with open(path) as fh:
        return GkmDatum.from_json_obj(json.load(fh))


def _decode_members(text: str, convert) -> dict | None:
    """{key: convert(key, value)} of a JSON text that is one nonempty object
    with distinct keys, each value decoded and converted before the next is
    decoded, so that one value's tree alone is alive; None for any other
    text.  A decoding error raises, as does convert."""
    skip = json.decoder.WHITESPACE.match
    decode = json.JSONDecoder().raw_decode
    i = skip(text).end()
    if text[i : i + 1] != "{":
        return None
    out = {}
    delimiter = ","
    while delimiter == ",":
        i = skip(text, i + 1).end()
        if text[i : i + 1] != '"':
            return None
        key, i = json.decoder.scanstring(text, i + 1)
        i = skip(text, i).end()
        if text[i : i + 1] != ":" or key in out:
            return None
        value, i = decode(text, skip(text, i + 1).end())
        out[key] = convert(key, value)
        del value  # freed before the next value is decoded
        i = skip(text, i).end()
        delimiter = text[i : i + 1]
    if delimiter != "}" or skip(text, i + 1).end() != len(text):
        return None
    return out


def _load_tuple(path: str, rank: int, order: int) -> dict:
    """A tuple file is a flat mapping from point names to series objects.

    The text is read once and decoded one point at a time, each series
    converted before the next point is decoded.  Any other text (no object
    or an empty one, a repeated point name, trailing data), a decoding
    error or a refused point falls back to json.loads and the same
    conversion of the whole document, so that every message stays as that
    gives it: a decoding error anywhere is reported before a refused point,
    and the last of repeated names wins."""
    from .coeff_series import TruncatedSeries
    from .gkm_datum import GkmValidationError

    def convert(point, series_obj):
        try:
            series = TruncatedSeries.from_json_obj(series_obj)
        except ValueError as exc:
            raise GkmValidationError(f"tuple file, point {point!r}: {exc}") from None
        if series.rank != rank:
            raise GkmValidationError("tuple rank does not match the datum rank")
        return series.truncated(order)

    with open(path) as fh:
        text = fh.read()
    try:
        values = _decode_members(text, convert)
    except (ValueError, RecursionError):
        values = None
    if values is not None:
        return values
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise GkmValidationError("a tuple file must be a JSON object mapping point names to series")
    return {point: convert(point, series_obj) for point, series_obj in obj.items()}


def cmd_gkm(args) -> int:
    datum = _load_datum(args.datum)
    if args.gkm_op == "congruences":
        from .gkm_datum import congruence_system, congruence_system_json

        constraints = congruence_system(datum)
        if args.format == "text":
            payload = "\n".join(c.describe() for c in constraints) + "\n"
        else:
            payload = congruence_system_json(constraints)
        _write_or_print(args, payload)
        return EXIT_OK
    from .gkm_model import check_membership
    from .torus_ring import TorusRing

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

    def obj():
        return {
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

    def text():
        lines = [f"{system.label}/P_{{{','.join(f'a{i}' for i in sorted(parabolic))}}}:"]
        lines.append(f"  {len(cosets)} fixed points, {len(curves)} invariant curves")
        for c in curves:
            deg = " + ".join(f"{v}*s{k}" for k, v in sorted(c.degree.items()))
            lines.append(
                f"  {c.u.name('x')} -- {c.v.name('x')}  root=({', '.join(str(v) for v in c.root)})"
                f"  weight=({', '.join(str(v) for v in c.weight)})  degree={deg}"
            )
        return "\n".join(lines)

    _emit(args, obj, text)
    return EXIT_OK


# -- horo -----------------------------------------------------------------------


def cmd_horo(args) -> int:
    from .horospherical import PasquierTriple, UnresolvedSurfaceKindError, build_gkm, surface_scan

    triple = PasquierTriple(family=args.family, n=args.n, m=args.m)
    if args.horo_op == "scan":
        scan = surface_scan(triple)

        def text():
            head = f"{triple.describe()}: chi = {scan.chi.render()}"
            if scan.root is None:
                return f"{head}\n  no root proportional to chi: no surface components"
            return (
                f"{head}\n  root {scan.root.render()},"
                f" pairings ({', '.join(str(p) for p in scan.pairings)}),"
                f" {scan.fixed_points} fixed points, kind {scan.kind}"
                + (f" (n={scan.n})" if scan.n else "")
            )

        _emit(args, scan.to_json_obj, text)
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
    return dumps(obj) + "\n"


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
        _emit(
            args,
            lambda: {
                "terms": [t.to_json_obj() for t in result.terms],
                "sum": result.localized.to_json_obj(),
                "cleared": result.series.to_json_obj() if result.cleared.ok else None,
                "certified_order": result.cleared.certified_order,
            },
            lambda: (
                f"cleared: {result.series.render() if result.cleared.ok else 'FAILED'}"
                f"  [certified through {result.cleared.certified_order}]"
            ),
        )
        return EXIT_OK
    total = mult.fiber_multiplicity(ring, fiber)
    _emit(
        args,
        total.to_json_obj,
        lambda: (
            f"1/({' '.join('c' + ch.render() for ch in total.denominator)}) * "
            f"({total.numerator.render()})"
        ),
    )
    return EXIT_OK


# -- parser -----------------------------------------------------------------------


def _add_global_options(parser, default: bool):
    order, law, fmt = (8, "universal", "text") if default else (argparse.SUPPRESS,) * 3
    parser.add_argument("--order", type=int, default=order, help="truncation order (>= 3)")
    parser.add_argument("--law", default=law, help="universal | additive | multiplicative:b")
    parser.add_argument("--format", choices=("text", "json"), default=fmt)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with help that a closed stdout refuses: argparse
    drops an OSError of its write, so that an unbuffered stdout would lose
    the help and exit 0.  Its subparsers are of this class too."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # after help on stdout or a usage error
            sys.stdout.flush()
            return EXIT_USAGE if exc.code else EXIT_OK
        if args.order < 3:
            print("error: --order must be at least 3", file=sys.stderr)
            return EXIT_USAGE
        args.law = parse_law(args.law)  # refused for every command, before any work
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # nothing can reach the reader; stdout goes to devnull, so that the
        # flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
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
