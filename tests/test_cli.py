import json
from pathlib import Path

from gkmcobordism.cli import main
from gkmcobordism.coeff_series import TruncatedSeries
from gkmcobordism.fgl import FormalGroupLaw
from gkmcobordism.gkm_model import GkmDatum
from gkmcobordism.multiplicities import load_ig25_tangent, point_class
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
    code, _ = run(capsys, "horo", "build", "--family", "4")
    assert code == 3


def test_horo_family1_n4_builds(capsys):
    code, out = run(capsys, "horo", "build", "--family", "1", "--n", "4")
    assert code == 0
    assert len(json.loads(out)["points"]) == 48


def test_horo_scan_text(capsys):
    code, out = run(capsys, "horo", "scan", "--family", "5")
    assert code == 0
    assert "kind Fn (n=3)" in out


def test_flag_curves_json(capsys):
    code, out = run(capsys, "flag", "curves", "--type", "G2", "--parabolic", "a1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["fixed_points"]) == 6
    assert len(obj["curves"]) == 15


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
