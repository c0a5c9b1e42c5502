import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from gkmcobordism.cli import _decode_members, main
from gkmcobordism.coeff_series import LazardCoefficient, TruncatedSeries
from gkmcobordism.common import Character
from gkmcobordism.fgl import FormalGroupLaw
from gkmcobordism.gkm_model import GkmDatum
from gkmcobordism.horospherical import PasquierTriple, build_gkm
from gkmcobordism.multiplicities import (
    fiber_multiplicity,
    load_ig25_resolution,
    load_ig25_tangent,
    point_class,
)
from gkmcobordism.torus_ring import TorusRing

DATA = Path(__file__).resolve().parent.parent / "src" / "gkmcobordism" / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_fgl_rho_additive(capsys):
    code, out = run(capsys, "fgl", "rho", "1", "2", "--law", "additive")
    assert code == 0
    assert out.strip() == "1/2"


def test_fgl_inverse_text(capsys):
    code, out = run(capsys, "fgl", "inverse", "--order", "4")
    assert code == 0
    assert out.startswith("-u - 2*m1*u^2 - 4*m1^2*u^3")


def test_fgl_a_coefficient(capsys):
    code, out = run(capsys, "fgl", "a", "1", "1")
    assert code == 0
    assert out.strip() == "-2*m1"


def test_fgl_json_round_trip(capsys):
    code, out = run(capsys, "fgl", "divide", "2", "--format", "json", "--order", "5")
    assert code == 0
    series = TruncatedSeries.from_json_obj(json.loads(out))
    law = FormalGroupLaw.universal(5)
    assert series == law.divide(2, TruncatedSeries.variable(0, 1, 5))


def test_fgl_table(capsys):
    code, out = run(capsys, "fgl", "table", "--max-degree", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    pairs = {(r["i"], r["j"]) for r in rows}
    assert (1, 0) in pairs and (1, 1) in pairs and (2, 0) not in pairs


def test_bad_order_is_usage_error(capsys):
    code, _ = run(capsys, "fgl", "inverse", "--order", "2")
    assert code == 2


def test_unknown_law_is_usage_error(capsys):
    code, _ = run(capsys, "fgl", "inverse", "--law", "mystery")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("gkm", "congruences", "DATUM"),
        ("flag", "curves", "--type", "G2"),
        ("horo", "scan", "--family", "5"),
        ("horo", "build", "--family", "5"),
    ],
    ids=lambda argv: "-".join(argv[:2]),
)
@pytest.mark.parametrize("order", ["3", "8"])
def test_unknown_law_is_refused_by_every_command(tmp_path, capsys, argv, order):
    datum = tmp_path / "g2.json"
    datum.write_text(build_gkm(PasquierTriple(family=5)).dumps())
    argv = [str(datum) if a == "DATUM" else a for a in argv]
    code = main([*argv, "--law", "bogus", "--order", order])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unknown law 'bogus'" in captured.err


def test_law_with_a_zero_denominator_is_usage_error(capsys):
    code = main(["fgl", "multiple", "2", "--law", "multiplicative:1/0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "'1/0' has a zero denominator" in captured.err and "Traceback" not in captured.err


def test_horo_build_and_gkm_check_member(tmp_path, capsys):
    datum_path = tmp_path / "ig25.json"
    code, _ = run(capsys, "horo", "build", "--family", "3", "--n", "2", "--m", "2", "-o", str(datum_path))
    assert code == 0
    datum = GkmDatum.from_json_obj(json.loads(datum_path.read_text()))
    assert len(datum.points) == 8

    # byte stability across runs
    second = tmp_path / "again.json"
    run(capsys, "horo", "build", "--family", "3", "--n", "2", "--m", "2", "-o", str(second))
    assert datum_path.read_bytes() == second.read_bytes()

    # constant tuple is a member: exit 0
    order = 6
    ring = TorusRing(FormalGroupLaw.universal(order), datum.rank)
    values = {p: ring.one() for p in datum.points}
    tuple_path = tmp_path / "tuple.json"
    tuple_path.write_text(json.dumps({p: s.to_json_obj() for p, s in values.items()}))
    code, _ = run(
        capsys, "gkm", "check", str(datum_path), str(tuple_path), "--order", str(order)
    )
    assert code == 0

    # point-class tuple is a member
    tangent = load_ig25_tangent()
    values = point_class(ring, "x45", tangent)
    class_path = tmp_path / "x45.json"
    class_path.write_text(json.dumps({p: s.to_json_obj() for p, s in values.items()}))
    code, _ = run(capsys, "gkm", "check", str(datum_path), str(class_path), "--order", str(order))
    assert code == 0

    # perturbing one value breaks an edge congruence: exit 1
    values["x13"] = values["x13"] + ring.one()
    broken_path = tmp_path / "broken.json"
    broken_path.write_text(json.dumps({p: s.to_json_obj() for p, s in values.items()}))
    code, out = run(
        capsys,
        "gkm",
        "check",
        str(datum_path),
        str(broken_path),
        "--order",
        str(order),
        "--format",
        "json",
    )
    assert code == 1
    cert = json.loads(out)
    assert cert["member"] is False
    failing = [c for c in cert["constraints"] if c["status"] == "fail"]
    assert failing and any("x13" in c["constraint"]["points"] for c in failing)


def test_gkm_congruences_output(tmp_path, capsys):
    datum_path = tmp_path / "ig25.json"
    run(capsys, "horo", "build", "--family", "3", "--n", "2", "--m", "2", "-o", str(datum_path))
    code, out = run(capsys, "gkm", "congruences", str(datum_path), "--format", "json")
    assert code == 0
    constraints = json.loads(out)
    assert len(constraints) == 20
    assert sum(1 for c in constraints if c["kind"] == "edge") == 16
    assert sum(1 for c in constraints if c["kind"] == "p2") == 4


def test_horo_family4_unresolved_exit_code(capsys):
    code = main(["horo", "build", "--family", "4"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "no established rule gives its Hirzebruch index" in captured.err
    assert "Traceback" not in captured.err


def test_horo_family1_n4_builds(capsys):
    code, out = run(capsys, "horo", "build", "--family", "1", "--n", "4")
    assert code == 0
    assert len(json.loads(out)["points"]) == 48


def test_horo_scan_text(capsys):
    code, out = run(capsys, "horo", "scan", "--family", "5")
    assert code == 0
    assert "kind Fn (n=3)" in out


def test_horo_scan_text_without_a_root_along_chi(capsys):
    code, out = run(capsys, "horo", "scan", "--family", "1", "--n", "3")
    assert code == 0
    assert out.splitlines()[1] == "  no root proportional to chi: no surface components"


def test_flag_curves_json(capsys):
    code, out = run(capsys, "flag", "curves", "--type", "G2", "--parabolic", "a1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["fixed_points"]) == 6
    assert len(obj["curves"]) == 15


RENDERERS = ((TruncatedSeries, "render"), (LazardCoefficient, "render"), (Character, "render"))
JSON_BUILDERS = (
    (TruncatedSeries, "to_json_obj"),
    (LazardCoefficient, "to_json_terms"),
    (Character, "to_json_obj"),
)


@pytest.mark.parametrize(
    "argv",
    [
        ("fgl", "multiple", "3", "--order", "5"),
        ("fgl", "a", "2", "1"),
        ("fgl", "table", "--max-degree", "3"),
        ("horo", "scan", "--family", "5"),
        ("mult", "fiber-sum", str(DATA / "ig25_x4tilde.json"), "--order", "8"),
        (
            "mult", "fiber-sum", str(DATA / "ig25_x4tilde.json"),
            "--ambient", str(DATA / "ig25_tangent.json"), "--point", "x12", "--order", "6",
        ),
    ],
)  # fmt: skip
def test_only_the_output_the_format_asks_for_is_built(monkeypatch, capsys, argv):
    """With --format json no text is rendered, and with --format text no JSON
    object is built; the spies do see the output that is asked for."""
    calls = []
    for cls, name in RENDERERS + JSON_BUILDERS:

        def spy(*args, _original=getattr(cls, name), _kind=(cls, name) in RENDERERS, **kwargs):
            calls.append("text" if _kind else "json")
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, spy)
    for fmt in ("json", "text"):
        calls.clear()
        code, out = run(capsys, *argv, "--format", fmt)
        assert code == 0 and out
        assert set(calls) == {fmt}, (fmt, calls)


def test_mult_point_class_cli(capsys):
    code, out = run(
        capsys,
        "mult",
        "point-class",
        str(DATA / "ig25_tangent.json"),
        "--point",
        "x45",
        "--order",
        "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["x45"]["order"] == 5
    assert not payload["x12"]["terms"]  # zero away from the chosen point
    assert payload["x45"]["terms"]


def test_mult_point_class_output_file(tmp_path, capsys):
    out_path = tmp_path / "x45.json"
    code, _ = run(
        capsys,
        "mult",
        "point-class",
        str(DATA / "ig25_tangent.json"),
        "--point",
        "x45",
        "--order",
        "5",
        "-o",
        str(out_path),
    )
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert set(obj) == {"x12", "x13", "x14", "x23", "x25", "x34", "x35", "x45"}


def test_mult_fiber_sum_cli(capsys):
    code, out = run(
        capsys,
        "mult",
        "fiber-sum",
        str(DATA / "ig25_x4tilde.json"),
        "--ambient",
        str(DATA / "ig25_tangent.json"),
        "--point",
        "x12",
        "--order",
        "6",
        "--format",
        "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["terms"]) == 4


def test_mult_fiber_sum_without_ambient_prints_the_fiber_multiplicity(capsys):
    # order 8: the x4tilde numerator vanishes below degree 7, so order 4 prints (0)
    total = fiber_multiplicity(
        TorusRing(FormalGroupLaw.universal(8), 2), load_ig25_resolution("x4tilde")[1]
    )
    argv = ("mult", "fiber-sum", str(DATA / "ig25_x4tilde.json"), "--order", "8")
    code, out = run(capsys, *argv)
    assert code == 0
    factors = " ".join("c" + ch.render() for ch in total.denominator)
    assert out == f"1/({factors}) * ({total.numerator.render()})\n"
    assert total.numerator.render() != "0"
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out) == total.to_json_obj()


def test_mult_subvariety_cli(tmp_path, capsys):
    # extract one subvariety's weight data into a standalone file
    sub = json.loads((DATA / "ig25_subvarieties.json").read_text())["subvarieties"]["X1"]
    path = tmp_path / "x1.json"
    path.write_text(json.dumps(sub))
    code, _ = run(capsys, "mult", "subvariety", str(path), "--order", "5", "-o", str(tmp_path / "out.json"))
    assert code == 0
    obj = json.loads((tmp_path / "out.json").read_text())
    assert set(obj) == {"x12", "x13"}


def test_mult_fiber_sum_refuses_an_order_that_determines_no_degree(capsys):
    # six Chern factors over a numerator known through degree 4 leave no
    # degree of the quotient known
    code = main(
        [
            "mult",
            "fiber-sum",
            str(DATA / "ig25_x4tilde.json"),
            "--ambient",
            str(DATA / "ig25_tangent.json"),
            "--point",
            "x12",
            "--order",
            "4",
            "--format",
            "json",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "known through degree 4" in captured.err and "6 Chern factors" in captured.err


def _ig25_datum_obj(tmp_path, capsys) -> dict:
    datum_path = tmp_path / "ig25.json"
    run(capsys, "horo", "build", "--family", "3", "--n", "2", "--m", "2", "-o", str(datum_path))
    return json.loads(datum_path.read_text())


def _congruences_of(tmp_path, capsys, obj):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(obj))
    code = main(["gkm", "congruences", str(path), "--format", "json"])
    captured = capsys.readouterr()
    return code, captured.err


def test_gkm_datum_with_an_unknown_key_is_rejected(tmp_path, capsys):
    obj = _ig25_datum_obj(tmp_path, capsys)
    obj["surface"] = obj.pop("surfaces")
    code, err = _congruences_of(tmp_path, capsys, obj)
    assert code == 2
    assert "'surface'" in err


def test_gkm_edge_and_surface_with_unknown_keys_are_rejected(tmp_path, capsys):
    obj = _ig25_datum_obj(tmp_path, capsys)
    obj["edges"][0]["weigth"] = obj["edges"][0]["weight"]
    code, err = _congruences_of(tmp_path, capsys, obj)
    assert code == 2
    assert "edge" in err and "'weigth'" in err
    obj = _ig25_datum_obj(tmp_path, capsys)
    obj["surfaces"][0]["index"] = 1
    code, err = _congruences_of(tmp_path, capsys, obj)
    assert code == 2
    assert "surface" in err and "'index'" in err


def test_gkm_ordering_covector_of_the_wrong_length_is_rejected(tmp_path, capsys):
    obj = _ig25_datum_obj(tmp_path, capsys)
    assert obj["rank"] == 2
    obj["lambda"] = ["2", "1", "0"]
    code, err = _congruences_of(tmp_path, capsys, obj)
    assert code == 2
    assert "length 3" in err and "rank 2" in err


def _set_lambda_null(obj):
    obj["lambda"] = None


def _set_points_number(obj):
    obj["points"] = 5


def _set_edge_weight_null(obj):
    obj["edges"][0]["weight"] = None


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_lambda_null, "datum 'lambda' must be a list of rationals"),
        (_set_points_number, "datum 'points' must be a list of strings, got 5"),
        (_set_edge_weight_null, "edge 'weight' must be a list of rationals"),
    ],
    ids=("lambda-null", "points-number", "edge-weight-null"),
)
def test_gkm_datum_value_of_the_wrong_json_type_is_rejected(tmp_path, capsys, edit, message):
    obj = _ig25_datum_obj(tmp_path, capsys)
    edit(obj)
    code, err = _congruences_of(tmp_path, capsys, obj)
    assert code == 2
    assert message in err and "Traceback" not in err


def test_a_long_refused_value_is_cut_in_the_message(tmp_path, capsys):
    """The refused value, as JSON text of more than 40 characters, is cut
    to its first 37 and "..."."""
    obj = _ig25_datum_obj(tmp_path, capsys)
    obj["rank"] = "abcdefghij" * 6
    code, err = _congruences_of(tmp_path, capsys, obj)
    assert code == 2
    cut = '"' + "abcdefghij" * 3 + "abcdef" + "..."
    assert err == f"error: datum 'rank' must be an integer, got {cut}\n"


def test_weight_file_keys_are_checked(tmp_path, capsys):
    tangent = json.loads((DATA / "ig25_tangent.json").read_text())
    path = tmp_path / "weights.json"
    for edit, message in (
        (lambda obj: obj.__setitem__("dimesion", obj.pop("dimension")), "unknown key(s) 'dimesion'"),
        (lambda obj: obj.pop("weights"), "missing the key(s) 'weights'"),
        (
            lambda obj: obj["weights"].update(b=[[1, 0, 0], [-1], [1, 0], [0, 1], [1, 1]]),
            "point b carries a weight of length 3, expected 2",
        ),
        (
            lambda obj: obj["weights"]["x12"].__setitem__(0, ["1/0", "1"]),
            "'1/0' has a zero denominator",
        ),
    ):
        obj = json.loads(json.dumps(tangent))
        edit(obj)
        path.write_text(json.dumps(obj))
        code = main(["mult", "point-class", str(path), "--point", "x12"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "weight file" in captured.err and message in captured.err
        assert "Traceback" not in captured.err


def _check_tuple(tmp_path, capsys, tuple_obj):
    datum_path = tmp_path / "ig25.json"
    run(capsys, "horo", "build", "--family", "3", "--n", "2", "--m", "2", "-o", str(datum_path))
    tuple_path = tmp_path / "tuple.json"
    tuple_path.write_text(json.dumps(tuple_obj))
    code = main(["gkm", "check", str(datum_path), str(tuple_path), "--order", "4"])
    captured = capsys.readouterr()
    return code, captured


def _constant_series_obj(coeff):
    term = {"t_exponents": [0, 0], "m_exponents": [], "coeff": coeff}
    return {"vars": 2, "order": 4, "terms": [term]}


@pytest.mark.parametrize(
    "tuple_obj, message",
    [
        ({"x12": None}, "tuple file, point 'x12': series must be a JSON object"),
        ([_constant_series_obj("1")], "tuple file must be a JSON object"),
        ({"x12": _constant_series_obj(0.5)}, "series term 'coeff' must be an integer or a string"),
        ({"x12": _constant_series_obj("1/0")}, "point 'x12': '1/0' has a zero denominator"),
    ],
    ids=("null-value", "list", "float-coefficient", "zero-denominator"),
)
def test_gkm_check_malformed_tuple_file_is_rejected(tmp_path, capsys, tuple_obj, message):
    code, captured = _check_tuple(tmp_path, capsys, tuple_obj)
    assert code == 2
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


def _ig25_tuple(**values):
    """A constant tuple on every IG(2,5) point, with some values replaced or added."""
    points = ("x12", "x13", "x14", "x23", "x25", "x34", "x35", "x45")
    return {**{p: _constant_series_obj("1") for p in points}, **values}


@pytest.mark.parametrize(
    "tuple_obj, message",
    [
        (_ig25_tuple(x99=_constant_series_obj("1")), "tuple has values at unknown points x99"),
        (
            _ig25_tuple(x12=TruncatedSeries.constant(1, 3, 4).to_json_obj()),
            "tuple rank does not match the datum rank",
        ),
    ],
    ids=("unknown-point", "rank-3-value"),
)
def test_gkm_check_refuses_a_tuple_that_does_not_fit_the_datum(tmp_path, capsys, tuple_obj, message):
    code, captured = _check_tuple(tmp_path, capsys, tuple_obj)
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


_MEMBER = json.dumps(_ig25_tuple())
_RANK_3 = json.dumps(TruncatedSeries.zero(3, 4).to_json_obj())
# sha256 of the 21 lines `gkm check --order 4` prints for the constant tuple
_MEMBER_OUT = "7d3ba3778df848725ce612199bcada6ee954e52a3041c25ba4a57e712cfb949b"


@pytest.mark.parametrize(
    "text, code, out_sha256, err",
    [
        (_MEMBER[:-1] + ', "x12": ' + json.dumps(_constant_series_obj("1")) + "}", 0, _MEMBER_OUT, ""),
        ('{"x12": {"vars": 2}, ' + _MEMBER[1:], 0, _MEMBER_OUT, ""),
        (
            _MEMBER[:-1] + ', "x12": ' + _RANK_3 + "}",
            2,
            None,
            "error: tuple rank does not match the datum rank\n",
        ),
        (
            " \n{ " + _MEMBER[1:-1].replace(": ", " :\t").replace(", ", " ,\r\n ") + " }\n ",
            0,
            _MEMBER_OUT,
            "",
        ),
        (_MEMBER + " []", 2, None, "error: Extra data: line 1 column 810 (char 809)\n"),
        (
            "\ufeff" + _MEMBER,
            2,
            None,
            "error: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n",
        ),
        (
            "{}",
            2,
            None,
            "error: tuple is missing values at x12, x13, x14, x23, x25, x34, x35, x45\n",
        ),
        (
            "[" + json.dumps(_constant_series_obj("1")) + "]",
            2,
            None,
            "error: a tuple file must be a JSON object mapping point names to series\n",
        ),
        (" \n\t ", 2, None, "error: Expecting value: line 2 column 3 (char 4)\n"),
        (
            '{"x12": {"vars": 2}, "x13": [1,,]}',
            2,
            None,
            "error: Expecting value: line 1 column 32 (char 31)\n",
        ),
        (
            '{"x12": ' + _RANK_3 + ', "x13": [1,,]}',
            2,
            None,
            "error: Expecting value: line 1 column 57 (char 56)\n",
        ),
    ],
    ids=(
        "duplicate-point",
        "duplicate-point-last-wins",
        "duplicate-point-last-refused",
        "whitespace-between-tokens",
        "trailing-data",
        "utf8-bom",
        "empty-object",
        "top-level-list",
        "whitespace-only",
        "refused-point-then-syntax-error",
        "bad-rank-then-syntax-error",
    ),
)
def test_gkm_check_reads_tuple_text_as_json_loads_does(tmp_path, capsys, text, code, out_sha256, err):
    """A tuple file is decoded one point at a time; any text that reader
    does not take goes through json.loads, so the exit code and both
    streams are those of reading the whole document first: a repeated
    point name keeps its last value, and a decoding error anywhere comes
    before a refused point."""
    datum_path = tmp_path / "ig25.json"
    datum_path.write_text(build_gkm(PasquierTriple(family=3, n=2, m=2)).dumps())
    tuple_path = tmp_path / "tuple.json"
    tuple_path.write_text(text, encoding="utf-8")
    assert main(["gkm", "check", str(datum_path), str(tuple_path), "--order", "4"]) == code
    captured = capsys.readouterr()
    if out_sha256 is None:
        assert captured.out == ""
    else:
        assert hashlib.sha256(captured.out.encode()).hexdigest() == out_sha256
        assert captured.out.endswith("\nmember\n")
    assert captured.err == err


def test_tuple_points_are_decoded_and_converted_one_at_a_time():
    seen = []

    def convert(key, value):
        seen.append((key, value))
        return len(seen)

    assert _decode_members(' \n{"a": [1], "b" :{"c": null}\t} ', convert) == {"a": 1, "b": 2}
    assert seen == [("a", [1]), ("b", {"c": None})]
    seen.clear()
    with pytest.raises(json.JSONDecodeError):
        _decode_members('{"a": 1, "b": [1,,]}', convert)
    assert seen == [("a", 1)]  # converted before the next value was decoded
    for text in ("{}", "[1]", '{"a": 1} x', '{"a": 1, "a": 2}', "\ufeff{}", '{"a": 1,}', " ", ""):
        assert _decode_members(text, convert) is None


def test_gkm_datum_with_a_duplicate_edge_is_rejected(tmp_path, capsys):
    obj = _ig25_datum_obj(tmp_path, capsys)
    edge = obj["edges"][0]
    doubled = [str(2 * Fraction(c)) for c in edge["weight"]]
    obj["edges"].append({"a": edge["b"], "b": edge["a"], "weight": doubled})
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps(obj))
    tuple_path = tmp_path / "tuple.json"
    tuple_path.write_text(json.dumps({}))
    code = main(["gkm", "check", str(path), str(tuple_path), "--order", "4"])
    captured = capsys.readouterr()
    assert code == 2
    a, b = sorted((edge["a"], edge["b"]))
    assert f"duplicate edge between {a} and {b}" in captured.err


@pytest.mark.parametrize("weights", [{}, {"a": []}], ids=("no-point", "no-weight"))
@pytest.mark.parametrize("op", ("point-class", "subvariety", "fiber-sum"))
def test_weight_file_without_a_character_is_rejected(tmp_path, capsys, weights, op):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"weights": weights}))
    code = main(["mult", op, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "holds no character" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "label, message",
    [
        ("", "cannot parse Cartan type ''"),
        ("A0", "type A needs rank >= 1"),
        ("A-1", "type A needs rank >= 1"),
    ],
    ids=("empty", "A0", "A-1"),
)
def test_flag_curves_rejects_a_bad_cartan_label(capsys, label, message):
    code = main(["flag", "curves", "--type", label])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "label, message",
    [
        ("B1", "type B needs rank >= 2"),
        ("C1", "type C needs rank >= 2"),
        ("F3", "type F has rank 4"),
        ("G3", "type G has rank 2"),
        ("E6", "unsupported Cartan type 'E'"),
    ],
    ids=("B1", "C1", "F3", "G3", "E6"),
)
def test_flag_curves_refuses_a_rank_or_type_with_no_root_system(capsys, label, message):
    code = main(["flag", "curves", "--type", label])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("op", ("build", "scan"))
@pytest.mark.parametrize(
    "params, message",
    [
        (("--family", "2", "--n", "5"), "family 2 takes no parameter n"),
        (("--family", "1", "--n", "3", "--m", "9"), "family 1 takes no parameter m"),
        (("--family", "5", "--m", "2"), "family 5 takes no parameter m"),
        (("--family", "4", "--n", "4"), "family 4 takes no parameter n"),
    ],
    ids=("family2-n", "family1-m", "family5-m", "family4-n"),
)
def test_horo_rejects_a_parameter_the_family_does_not_take(capsys, op, params, message):
    code = main(["horo", op, *params])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "args, message",
    [
        (("--ambient", str(DATA / "ig25_tangent.json")), "--ambient needs --point"),
        (("--point", "x12"), "--point needs --ambient"),
        (("--ambient", "AMBIENT3", "--point", "x12"), "have length 3, the fiber weights 2"),
    ],
    ids=("ambient-alone", "point-alone", "ambient-rank"),
)
def test_mult_fiber_sum_rejects_a_partial_or_mismatched_pullback(tmp_path, capsys, args, message):
    ambient = tmp_path / "ambient3.json"
    ambient.write_text(json.dumps({"weights": {"x12": [["1", "0", "0"], ["0", "1", "0"]]}}))
    args = [str(ambient) if a == "AMBIENT3" else a for a in args]
    code = main(["mult", "fiber-sum", str(DATA / "ig25_x4tilde.json"), *args, "--order", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("horo", "build", "--family", "4", "--force-kind", "fn:x"), "fn:<k> takes an integer k >= 1"),
        (("horo", "build", "--family", "1", "--n", "3", "--force-kind", "fn:x"), "fn:<k> takes"),
        (
            ("horo", "build", "--family", "1", "--n", "3", "--force-kind", "fn:2"),
            "(B3, P(omega_2), P(omega_3)) has no surface component",
        ),
        (
            ("horo", "build", "--family", "2", "--force-kind", "p2:v2"),
            "has no surface component, so the surface kind override 'p2:v2' applies to nothing",
        ),
        (("flag", "curves", "--type", "A3", "--parabolic", "b1"), "labels like a1,a3"),
        (("flag", "curves", "--type", "A3", "--parabolic", "a1,"), "parabolic label ''"),
    ],
    ids=(
        "force-kind",
        "force-kind-no-surface",
        "well-formed-kind-no-surface-family1",
        "well-formed-kind-no-surface-family2",
        "parabolic",
        "parabolic-empty",
    ),
)
def test_unparsable_kind_and_parabolic_say_what_they_accept(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err and "invalid literal" not in captured.err


def test_flag_curves_refuses_a_parabolic_index_beyond_the_rank(capsys):
    code = main(["flag", "curves", "--type", "G2", "--parabolic", "a5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: parabolic index 5 out of range\n"


IG25_TRIPLE = ("--family", "3", "--n", "2", "--m", "2")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--family", "4", "--force-kind", "p2:v0v1"), "P2 component must list 3 points, got 4"),
        (("--family", "5", "--force-kind", "p2:v2"), "P2 component must list 3 points, got 4"),
        ((*IG25_TRIPLE, "--force-kind", "f0"), "F0 component must list 4 points, got 3"),
        ((*IG25_TRIPLE, "--force-kind", "fn:2"), "Fn component must list 4 points, got 3"),
        (
            (*IG25_TRIPLE, "--force-kind", "p2-v0v1"),
            "cannot parse surface kind 'p2-v0v1'; use p2:v0v1, p2:v2, f0 or fn:<k>",
        ),
        (
            (*IG25_TRIPLE, "--force-kind", "p2-v2"),
            "cannot parse surface kind 'p2-v2'; use p2:v0v1, p2:v2, f0 or fn:<k>",
        ),
    ],
    ids=("f4-p2", "g2-p2", "ig25-f0", "ig25-fn", "hyphen-v0v1", "hyphen-v2"),
)
def test_horo_build_refuses_a_forced_kind_the_surface_cannot_take(capsys, argv, message):
    code = main(["horo", "build", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_gkm_surface_with_a_key_its_kind_does_not_take_is_rejected(tmp_path, capsys):
    obj = _ig25_datum_obj(tmp_path, capsys)
    assert obj["surfaces"][0]["kind"] == "P2"
    obj["surfaces"][0]["n"] = 7
    code, err = _congruences_of(tmp_path, capsys, obj)
    assert code == 2
    assert err == "error: P2 component takes no key 'n'\n"


@pytest.mark.parametrize("degree", ["-1", "9"])
def test_fgl_table_refuses_a_max_degree_outside_the_order(capsys, degree):
    code = main(["fgl", "table", "--max-degree", degree, "--order", "8"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --max-degree must lie between 0 and the order 8, got {degree}\n"


def test_mult_point_class_names_an_unknown_point_without_quotes(capsys):
    code = main(["mult", "point-class", str(DATA / "ig25_tangent.json"), "--point", "x99"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: no weight data at point 'x99'\n"


# -- one JSON layout for every command -------------------------------------------

_T, _A = str(DATA / "ig25_tangent.json"), str(DATA / "ig25_x4tilde.json")

# Every command that prints or writes JSON, at small orders; {datum} is the
# IG(2,5) datum, {member} a constant tuple on it, {broken} that tuple with
# one value bumped, and {normal} the normal weights of X1.
JSON_COMMANDS = (
    ("fgl", "a", "1", "2", "--order", "5", "--format", "json"),
    ("fgl", "table", "--max-degree", "3", "--order", "4", "--format", "json"),
    ("fgl", "multiple", "3", "--order", "5", "--law", "multiplicative:2", "--format", "json"),
    ("gkm", "congruences", "{datum}", "--format", "json"),
    ("gkm", "check", "{datum}", "{member}", "--order", "4", "--format", "json"),
    ("gkm", "check", "{datum}", "{broken}", "--order", "4", "--format", "json"),
    ("flag", "curves", "--type", "C3", "--parabolic", "a2", "--format", "json"),
    ("horo", "scan", "--family", "3", "--n", "3", "--m", "2", "--format", "json"),
    ("horo", "scan", "--family", "2", "--format", "json"),
    ("horo", "build", "--family", "5"),
    ("horo", "build", "--family", "3", "--n", "2", "--m", "2"),
    ("mult", "point-class", _T, "--order", "4"),
    ("mult", "point-class", _T, "--point", "x45", "--order", "4"),
    ("mult", "subvariety", "{normal}", "--order", "4"),
    ("mult", "fiber-sum", _A, "--order", "8", "--format", "json"),
    ("mult", "fiber-sum", _A, "--ambient", _T, "--point", "x12", "--order", "7")
    + ("--format", "json"),
)


@pytest.fixture(scope="module")
def json_inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("json-commands")
    datum = build_gkm(PasquierTriple(family=3, n=2, m=2))
    (work / "ig25.json").write_text(datum.dumps())
    unit = {"t_exponents": [0, 0], "m_exponents": [], "coeff": "1"}
    one = {"vars": 2, "order": 4, "terms": [unit]}
    member = {p: one for p in datum.points}
    (work / "member.json").write_text(json.dumps(member))
    bump = {"t_exponents": [1, 0], "m_exponents": [], "coeff": "1/2"}
    broken = dict(member, x13={**one, "terms": [unit, bump]})
    (work / "broken.json").write_text(json.dumps(broken))
    normal = json.loads((DATA / "ig25_subvarieties.json").read_text())["subvarieties"]["X1"]
    (work / "normal.json").write_text(json.dumps(normal))
    names = {"datum": "ig25", "member": "member", "broken": "broken", "normal": "normal"}
    return {key: str(work / f"{name}.json") for key, name in names.items()}


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda argv: "-".join(argv[:2]))
def test_every_json_command_prints_the_indented_sorted_layout(argv, json_inputs, capsys):
    code, out = run(capsys, *(a.format(**json_inputs) for a in argv))
    assert code == (1 if "{broken}" in argv else 0)
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# -- a closed stdout ---------------------------------------------------------------


def _with_closed_stdout(argv, unbuffered: bool):
    """(exit code, stderr) of gkmcob argv in a fresh process whose stdout is
    a pipe with its read end already closed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(DATA.parent.parent), env.get("PYTHONPATH", "")])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gkmcobordism.cli", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ("fgl", "a", "1", "1", "--format", "json"),  # prints
        ("horo", "build", "--family", "5"),  # writes the datum to stdout
    ],
    ids=["prints", "writes"],
)
def test_a_closed_stdout_exits_141_in_silence(argv, unbuffered):
    assert _with_closed_stdout(argv, unbuffered) == (141, b"")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [("--help",), ("gkm", "check", "-h")], ids=["top", "command"])
def test_help_on_a_closed_stdout_exits_141_in_silence(argv, unbuffered):
    """Help meets the closed pipe as a command's output does: buffered, at
    the flush after argparse exits; unbuffered, at the write itself, which
    argparse's own print_help would swallow and exit 0."""
    assert _with_closed_stdout(argv, unbuffered) == (141, b"")
