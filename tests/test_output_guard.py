"""Byte-identity guard for the series and flag-curve commands.

Each entry runs one `gkmcob` command at a small order and compares the sha256
of its stdout with a digest recorded from the Horner-composition
implementation (Chern classes and pair tables composed by a Horner loop in
`compose_univariate`, pivots solved by fixed-point sweeps, inverses by
geometric series).  The failing certificates and the division remainder were
recorded from the shear reduction (t_j -> phi substituted into each residual,
by Horner), and the quotients of the dense-pivot divisions from the shear
division (t_j -> t_j + phi and back).  The engine now runs every one of
these changes of variables (composition, substitution, restriction to the
pivot's hyperplane and division by a linear form) through
`TruncatedSeries.substitute`, against power tables, on series stored as
integer numerators over one denominator; the digests are unchanged.
The `flag curves` outputs for F4, C4 and B4 were recorded from curve
enumeration with rational weight arithmetic (labels, coroots and endpoint
differences computed on epsilon-coordinate vectors).  Those for A4, G2 and
C3, and the `horo scan` reports, were recorded from a hand-typed table of
positive roots; the engine now derives the positive roots from the simple
roots, in another order, and the digests are unchanged.  Those for the full
flag variety of F4 and for B5/P_{a1,a3} were recorded from the scan that
summed the per-omega_i pairings of every (coset, root) pair; the engine now
takes one dot product per pair.
The failing certificates of the corrupted hyperplane tuples of FAILING_DATA
were recorded when each value was converted to logarithmic coordinates
through the ring order and every remainder was converted back from there.
The congruence systems of one datum per surface kind (F0, Fn, and P2 in
both models) were recorded when each kind's curves and congruence were
spelled in branches of `congruence_system`.
The fiber sums of x4tilde and x4tilde_star under multiplicative:1 at order
24, and of x4tilde_star at universal order 12, were recorded when
denominators were cleared in the logarithmic coordinates s_i = l(t_i), by a
divided difference in s and a unit series per factor; they are now cleared
in t, degree by degree.
The text outputs of `fgl multiple`, `flag curves`, `horo scan` and `mult
fiber-sum`, and the fiber sum at order 10, were recorded when every command
built both its JSON object and its text, and every product of Chern classes
was formed through the full ring order at each step.
The generator tuples and decompositions of one surface per kind and model
(P2 in both models, F0, and Fn with n = 1-4, under three laws) were
recorded when each kind's generators and their inverse were written out by
hand: generators in `surface_generators`, closed-form coefficients in
branches of `surface_decompose`.
Every series the engine builds is the
unique exact truncation of a closed-form object, so a kernel rewrite must
reproduce these bytes.
`python tests/test_output_guard.py` prints the current digests.
"""

import hashlib
import io
import json
import random
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from gkmcobordism.cli import main, make_law
from gkmcobordism.fgl import FormalGroupLaw
from gkmcobordism.gkm_datum import SurfaceComponent, congruence_system, congruence_system_json
from gkmcobordism.gkm_model import (
    DecompositionError,
    check_membership,
    reconstruct,
    surface_decompose,
    surface_generators,
)
from gkmcobordism.horospherical import PasquierTriple, build_gkm, point_weights
from gkmcobordism.coeff_series import LazardCoefficient, TruncatedSeries
from gkmcobordism.torus_ring import Character, LocalizedElement, TorusRing

from conftest import corrupted_hyperplane_tuple, random_series

DATA = Path(__file__).resolve().parent.parent / "src" / "gkmcobordism" / "data"
IG25_ORDER = 8
FAILING_ORDER = 10


def _fiber_sum(name, law, order, fmt="json"):
    return (
        "mult", "fiber-sum", str(DATA / f"ig25_{name}.json"),
        "--ambient", str(DATA / "ig25_tangent.json"), "--point", "x12",
        "--law", law, "--order", str(order), "--format", fmt,
    )  # fmt: skip


COMMANDS = {
    "fgl-table": ("fgl", "table", "--order", "10", "--max-degree", "10", "--format", "json"),
    "fgl-inverse": ("fgl", "inverse", "--order", "7", "--format", "json"),
    "fgl-multiple": ("fgl", "multiple", "3", "--order", "7", "--format", "json"),
    "fgl-multiple-text": ("fgl", "multiple", "3", "--order", "7", "--format", "text"),
    "fgl-divide": ("fgl", "divide", "2", "--order", "7", "--format", "json"),
    "fgl-rho": ("fgl", "rho", "3", "2", "--order", "7", "--format", "json"),
    "x4tilde-universal": _fiber_sum("x4tilde", "universal", 8),
    "x4tilde-universal-text": _fiber_sum("x4tilde", "universal", 8, "text"),
    # the command the x4tilde_pullback benchmark times
    "x4tilde-universal-10": _fiber_sum("x4tilde", "universal", 10),
    "x4tilde-kt": _fiber_sum("x4tilde", "multiplicative:1", 16),
    # the command the x4tilde_kt benchmark times
    "x4tilde-kt-24": _fiber_sum("x4tilde", "multiplicative:1", 24),
    "x4tilde_star-universal": _fiber_sum("x4tilde_star", "universal", 8),
    "x4tilde_star-universal-12": _fiber_sum("x4tilde_star", "universal", 12),
    "x4tilde_star-kt-24": _fiber_sum("x4tilde_star", "multiplicative:1", 24),
    "point-class": (
        "mult", "point-class", str(DATA / "ig25_tangent.json"), "--point", "x12",
        "--order", "5", "--format", "json",
    ),  # fmt: skip
    # Curve weights and degrees reach users only through `flag curves`.
    "flag-curves-F4-134": ("flag", "curves", "--type", "F4", "--parabolic", "1,3,4", "--format", "json"),
    "flag-curves-F4-124": ("flag", "curves", "--type", "F4", "--parabolic", "1,2,4", "--format", "json"),
    "flag-curves-C4-123": ("flag", "curves", "--type", "C4", "--parabolic", "1,2,3", "--format", "json"),
    "flag-curves-B4-123": ("flag", "curves", "--type", "B4", "--parabolic", "1,2,3", "--format", "json"),
    "flag-curves-A4-2": ("flag", "curves", "--type", "A4", "--parabolic", "2", "--format", "json"),
    "flag-curves-G2-1": ("flag", "curves", "--type", "G2", "--parabolic", "1", "--format", "json"),
    "flag-curves-C3-": ("flag", "curves", "--type", "C3", "--format", "json"),
    "flag-curves-F4-": ("flag", "curves", "--type", "F4", "--format", "json"),
    "flag-curves-B5-13": ("flag", "curves", "--type", "B5", "--parabolic", "1,3", "--format", "json"),
    "flag-curves-G2-text": ("flag", "curves", "--type", "G2", "--format", "text"),
    "horo-scan-g2-text": ("horo", "scan", "--family", "5", "--format", "text"),
    # The surface scan of every triple in the datum sweep of test_horospherical.
    **{
        f"horo-scan-{name}": ("horo", "scan", *args, "--format", "json")
        for name, args in (
            ("b3-spinor", ("--family", "1", "--n", "3")),
            ("b4-spinor", ("--family", "1", "--n", "4")),
            ("b5-spinor", ("--family", "1", "--n", "5")),
            ("b3-quadric", ("--family", "2")),
            ("c2-m2", ("--family", "3", "--n", "2", "--m", "2")),
            ("c3-m2", ("--family", "3", "--n", "3", "--m", "2")),
            ("c3-m3", ("--family", "3", "--n", "3", "--m", "3")),
            ("c4-m2", ("--family", "3", "--n", "4", "--m", "2")),
            ("c4-m3", ("--family", "3", "--n", "4", "--m", "3")),
            ("c4-m4", ("--family", "3", "--n", "4", "--m", "4")),
            ("g2", ("--family", "5")),
            ("f4", ("--family", "4")),
        )
    },
}

DIGESTS = {
    "fgl-table": "e0fd28d02dd8a6b2e79a3576a7386fac585aa9b1160e49f509b27e3fc5c44848",
    "fgl-inverse": "f2f413cba25bf653c69f48f8dea460fb9a1d28ca8bb20c2d79b29937ef1cc1ec",
    "fgl-multiple": "848b06d7c8fa8f4d05dc27b5c96d0c4d61c34abd78245e99503592b73404756e",
    "fgl-multiple-text": "80096eb5a1dcdf3c8a9e76233b5b44ca1db32f7c1aae9bea64b533725053d388",
    "fgl-divide": "389bf5307772888104fd389a70369685e2a8efd96582f16ed59bed8cf2ad180f",
    "fgl-rho": "82d42e0aefca44f5a5b3bcffe2689754ddfdffe4ee628749131b11060bf028b2",
    "x4tilde-universal": "f3d020522ed6beabd79269238ccb06ac32c90af72eb7013c043f0d1697e140aa",
    "x4tilde-universal-text": "e8030b32e76f41e5858f3a7ff91adc255cfd4db24769c5d05dc6b2d21d6bcc1b",
    "x4tilde-universal-10": "b203daa5ba911fbe5861ebf53076b507cf1c5b158305f0b11acea6f6fa843297",
    "x4tilde-kt": "c649bf485d6dc7b54dafdaf94537801125ec3aa1567e11cf544ec58125f1334e",
    "x4tilde-kt-24": "5100c12c284405e94fde1e308c42cfcec3b03b05b974d86198f6d37f46120675",
    "x4tilde_star-universal": "0a3ccf12b197b8fdcfbe760b701d66f58ff4f4f6ca351b3a496078a902b408ac",
    "x4tilde_star-universal-12": "e37789bd01e0b4e79056ab57e5d91fbab8f43aeb8c0c72904c502a01796d16d4",
    "x4tilde_star-kt-24": "af7d04276bedfcbf636f634d6f3bf9f2c39b8f7f46181a6c8422d16f39b5dea8",
    "point-class": "791322a158a2bed131cf0b1ecb3a8492821f4a627a35d039803e85bb02972a0a",
    "flag-curves-F4-134": "bde33ad65cfc857b31e66480c89f7cfe57e7956d720933ebd6c7911c608aaa8d",
    "flag-curves-F4-124": "7a12d2c7561ca1d0c418988a3fcfa825bf8bf09964e5d0f45a173b020cb1cdb0",
    "flag-curves-C4-123": "dff53ccf9ba94c718667c78c241917b7f85c114e41812547e22ea553ad73a3f6",
    "flag-curves-B4-123": "0f3999d172d056fb33e3dba85fc55d18e8c184418abef6db420e7d69c7dec034",
    "flag-curves-A4-2": "08008f147deccc4ab9220a854d0d6bae38dca237efa9d1f55cf5b73868f7d7ca",
    "flag-curves-G2-1": "8fd2f8b1c5bcdc7e72164557ca478223763f531b3748ad1ae25b54c6c9916106",
    "flag-curves-C3-": "eab42b3818af911a4d9fc350ed325b2af8f74ebf4295046e3c5776ac11564785",
    "flag-curves-F4-": "85f3be1ea52cfa89ecedd476e6cad4c935b536816b3b033a400b24919175bdb5",
    "flag-curves-B5-13": "bf9b888ebdb3920f28d055e7adc971175aa9812e7ee6fdf646880058930ebf36",
    "flag-curves-G2-text": "f9d50f3a5671b9dbfe1ea2839c31ce2a1b6c9eee189f18f13ebd7f5e8f85ed03",
    "horo-scan-g2-text": "4f2e0d11a5d0428a6424ff7f14f3a6bd95cd455e6d682b838caea48b913550bd",
    "horo-scan-b3-spinor": "9893a58114342bdbfb1f37b94dadbfd09676cce29d896787d5cfd74f545b85f6",
    "horo-scan-b4-spinor": "b22a6ed18c50c6f32cd4ffeabc06e1468409e48ec5a73f15e113341bc2a441be",
    "horo-scan-b5-spinor": "375e5b48bcbac1ce8fb9a10d08189831291e9ef5a0ec37df25d396939ec3de7e",
    "horo-scan-b3-quadric": "d04eaf14ec0090430c2147094ab77149204ba92dbb8ed41f67e3fb5c82c137f2",
    "horo-scan-c2-m2": "0067e37eb73b62ad2e661a586b080e3200403a526a4e2616110d3a3cd08d5d91",
    "horo-scan-c3-m2": "d97b2a3a8d52d418268fd17105c6a1683ef190c01cc46c35400053655a447c12",
    "horo-scan-c3-m3": "43a7b352c89013334d9ac645960939b397978cfcd83814874a48a88776252258",
    "horo-scan-c4-m2": "10aa71777edb995b8f0728030978bf2dba5bc2db338badd53ae431923bebe930",
    "horo-scan-c4-m3": "efdb1f1f9e4205617ebcc2374f60ef7a0c60410d0af9c4e4c62528412e5dd180",
    "horo-scan-c4-m4": "e74adc07c1c53da7c9183f4cc5eabf23bfc6c5215b835b216838a88fd67c0883",
    "horo-scan-g2": "67bffe5437bd204e3bcd637f4e0098e925824e64d43216b8762447cabefdb05d",
    "horo-scan-f4": "b41dbc1a92e8cfbb164a7fdd29c90aa9d38514315fe84064ec510196567fc53a",
    "ig25-hyperplane-tuple": "4eb78234bac7a9052d68709762aa5fd026d952db252cfc2ad8a31a5b6f6f2b65",
    "ig25-gkm-check": "e1ab0cef06fb9d0c134c74af1084e9137e3bde227a79e2e910b21899784f16ed",
    "ig25-corrupted-universal-json": "1f584cae10369d45bb5aaf5e6221db61028a2c10334536bf096cd0186e425edd",
    "ig25-corrupted-universal-text": "645b820b27fe6753b9d0f1630e82b085e9fe21e7b707c840d02c0016a6433195",
    "ig25-corrupted-multiplicative:1-json": "ac4e25838c922318164a4dfd8c496cc62bee9dd14240b9da8333ecb8684fad04",
    "failing-c3-m2-universal-8": "72c0ad1e555f5f691c9bd2ba840f197fd44f98f6a6ae11b643ec6a6542be4af2",
    "failing-f4-f0-multiplicative:1-5": "11e6e0e517373a65861518fe2563c4d4014c089536ea2c51b9ab0105382d3f0b",
    "failing-f4-fn2-additive-5": "8a52e56bfdc2c0bd6d41e36235935b91c915d12c9dc770db10c4f1926ae2803c",
    "failing-g2-universal-7": "4d470d24ac1a60597429bfbfc3dac63d10b786c41a2dc9a89d09dbc249bab420",
    "divide-exact-remainder": "ee799aa04b6f6ff87553ac1eb8985bedabc44979f072975ef9b01b1d63b5fb5e",
    "divide-exact-(1, 2)": "5e777a2d609036b4c12feb3e513d30575efda8e5417c7e629dd9b58f56182835",
    "divide-exact-(1, 1)": "d8d675d91b190a11a6afa9818caf1c749ef7e45d3d384733ec10ab5e3d4d7d8a",
    "clear-denominators-multiplicative:1": "af9eee78b385766b5187e465af36ca973f3a17d08171c62a3009b2a36e21dc1d",
    # P2's model does not enter its congruences: V0V1 and V2 give the same bytes.
    "congruences-f4-f0-json": "fe05e0252a8b759ca4b7eaef77b3ac1536747dfc80abbd3b2fc86dc9d5626dee",
    "congruences-f4-f0-text": "7dae699758cc4914f8cc33fff19e7a5590719a68d17e3bc3dc82005b003ccf62",
    "congruences-f4-fn2-json": "8097f2c496ae7bb5f1fc32baf67849a23791889e781e411225679f1b96705c6f",
    "congruences-f4-fn2-text": "8cbb0b6a2c50fe0a4ce02b0730b630ce1bd6c7b709be7ef29482b2fa6a6971d0",
    "congruences-c3-m2-json": "b71c6960e6e05b74a810f1af29f60f0c4c462a12f44e20aa8a880ed320912290",
    "congruences-c3-m2-text": "d46713a3a64d94f01b74312736177ff3897bc9db907f7c49df45efdc73ec2636",
    "congruences-c3-m2-p2v2-json": "b71c6960e6e05b74a810f1af29f60f0c4c462a12f44e20aa8a880ed320912290",
    "congruences-c3-m2-p2v2-text": "d46713a3a64d94f01b74312736177ff3897bc9db907f7c49df45efdc73ec2636",
    "generators-p2v0v1": "90faae92b6d68f7299f5ab430e7d6c3403fd24ded888234df46bf3ebbef4304b",
    "decompose-p2v0v1": "15c334ab837b250b17f64e988eb508ba4ec87a5ad9a2152d3c40e5e0d8b120b1",
    "generators-p2v2": "410cd1c394af6c549db3c4ceed9127ef97bbccf075d1c8e4c54618b948e8f776",
    "decompose-p2v2": "4a8eab839a9cf67a9d44c1bfa8bcbaeecaa865b74f65b428ccdea1576286920f",
    "generators-f0": "40aaefb98f8ef684a059813dbaece8b529817410bd3cdd1d2e0180dc19945494",
    "decompose-f0": "66049ef7b7183117611c468c90e93e9ec18584ccd17231b02e72a5b2e23279a7",
    "generators-fn1": "81dbfb0c9de1baadc3255d5dd4de7fa6a50d1ca0f69eb62f195381b4bb3e00ff",
    "decompose-fn1": "1cb96ce21da223c15da19c8c43a0cd3b78da6e021726ea53281f117e846127c9",
    "generators-fn2": "fd7521bd9c4fee2e0055b6304cc9cf17305322ba11496b98f4dfabda4ba85bd2",
    "decompose-fn2": "aaf849e816ca0b1b608d287193c1a79a21605751410322acaf5712f9cf5d79ac",
    "generators-fn3": "edef9574692398a05584fc15e996740142c25b53f5693768f0dac6ba6bfaafed",
    "decompose-fn3": "8535589cef5c8daf3120c42eb25bfbb03226afe2bd5712ebaee846d09e729614",
    "generators-fn4": "347a44b3d2bba69cd1128f7d40bc0ed2e08836719f7457613e67079646cdee4f",
    "decompose-fn4": "987f1affead28e8f8f919bf7cd0291064f36a9adca05dc1324f187f38bdd788e",
}


def _stdout(argv, expected_code=0) -> bytes:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    assert code == expected_code, (argv, code)
    return buf.getvalue().encode()


def _ig25_outputs(tmp: Path) -> dict:
    """The IG(2,5) hyperplane tuple (Chern classes of the point weights) and
    the stdout of `gkm check` on it."""
    datum = tmp / "ig25.json"
    _stdout(("horo", "build", "--family", "3", "--n", "2", "--m", "2", "-o", str(datum)))
    ring = TorusRing(FormalGroupLaw.universal(IG25_ORDER), 2)
    weights = point_weights(PasquierTriple(3, n=2, m=2))
    text = json.dumps({p: ring.chern(w).to_json_obj() for p, w in sorted(weights.items())})
    tuple_path = tmp / "hyperplane.json"
    tuple_path.write_text(text)
    check = ("gkm", "check", str(datum), str(tuple_path), "--order", str(IG25_ORDER), "--format", "json")
    return {"ig25-hyperplane-tuple": text.encode(), "ig25-gkm-check": _stdout(check)}


def _corrupted_ig25_tuple(ring: TorusRing) -> dict:
    """The hyperplane tuple of the ring's law with three points changed.

    x12 (on two P2 surfaces) gets a constant and an m1-weighted quadratic
    term, x25 a linear term and x35 a cubic one, so edge congruences and P2
    congruences fail, the latter with nonzero value and derivative
    components.
    """
    weights = point_weights(PasquierTriple(3, n=2, m=2))
    values = {p: ring.chern(w) for p, w in weights.items()}
    t1, t2 = ring.variable(0), ring.variable(1)
    m1 = TruncatedSeries.constant(LazardCoefficient.generator(1), 2, ring.order)
    values["x12"] = values["x12"] + ring.constant(Fraction(1, 3)) + m1 * t1 * t2
    values["x25"] = values["x25"] + t2.scale(2)
    values["x35"] = values["x35"] + (t1 * t1 * t2).scale(Fraction(-3, 2))
    return values


def _failing_outputs(tmp: Path) -> dict:
    """`gkm check` on the corrupted IG(2,5) tuple at order 10, universal and
    multiplicative:1, and the remainder report of a failing exact division."""
    datum = tmp / "ig25.json"
    _stdout(("horo", "build", "--family", "3", "--n", "2", "--m", "2", "-o", str(datum)))
    out = {}
    for law, formats in (("universal", ("json", "text")), ("multiplicative:1", ("json",))):
        ring = TorusRing(make_law(law, FAILING_ORDER), 2)
        values = _corrupted_ig25_tuple(ring)
        tuple_path = tmp / f"corrupted-{law}.json"
        tuple_path.write_text(json.dumps({p: v.to_json_obj() for p, v in sorted(values.items())}))
        for fmt in formats:
            check = (
                "gkm", "check", str(datum), str(tuple_path), "--law", law,
                "--order", str(FAILING_ORDER), "--format", fmt,
            )  # fmt: skip
            out[f"ig25-corrupted-{law}-{fmt}"] = _stdout(check, expected_code=1)
    ring = TorusRing(FormalGroupLaw.universal(IG25_ORDER), 2)
    t1, t2 = ring.variable(0), ring.variable(1)
    m2 = LazardCoefficient.generator(2)
    f = ring.chern((1, 1)) * ring.chern((1, 2)) + (t1 * t1 * t2).scale(m2)
    quotient, report = ring.divide_exact(f, Character((2, -2)))
    assert quotient is None
    out["divide-exact-remainder"] = json.dumps(report.to_json_obj(), sort_keys=True).encode()
    return out


def _division_outputs() -> dict:
    """Exact divisions by characters whose pivot solution phi is a dense
    series: the quotients of c(1,1) c(1,2) (1 + m1 t1) by c(1,2) and by
    c(1,1) at universal order 8, and two factors cleared under
    multiplicative:1 at order 12."""
    ring = TorusRing(FormalGroupLaw.universal(IG25_ORDER), 2)
    t1 = ring.variable(0)
    f = ring.chern((1, 1)) * ring.chern((1, 2)) * (ring.one() + t1.scale(LazardCoefficient.generator(1)))
    out = {}
    for chi in ((1, 2), (1, 1)):
        quotient, report = ring.divide_exact(f, Character(chi))
        assert report is None
        out[f"divide-exact-{chi}"] = json.dumps(quotient.to_json_obj(), sort_keys=True).encode()
    ring = TorusRing(make_law("multiplicative:1", 12), 2)
    t1, t2 = ring.variable(0), ring.variable(1)
    chars = (Character((1, 1)), Character((2, -1)))
    f = ring.chern_product(chars) * (ring.one() + t1 + t2 * t2)
    result = ring.clear_denominators(LocalizedElement(f, chars))
    obj = {"certified_order": result.certified_order, "series": result.series.to_json_obj()}
    out["clear-denominators-multiplicative:1"] = json.dumps(obj, sort_keys=True).encode()
    return out


# One datum per surface kind and P2 model: (triple, kind override).
CONGRUENCE_DATA = {
    "f4-f0": (dict(family=4), "f0"),
    "f4-fn2": (dict(family=4), "fn:2"),
    "c3-m2": (dict(family=3, n=3, m=2), None),  # P2, model V0V1
    "c3-m2-p2v2": (dict(family=3, n=3, m=2), "p2:v2"),
}


# Triples with power-2 congruences, with rho factors (P2 on c3-m2, Fn on
# G2 and F4 fn:2) and without (F0), one law and order each: (triple, kind
# override, law, order).
FAILING_DATA = {
    "c3-m2-universal-8": (dict(family=3, n=3, m=2), None, "universal", 8),
    "f4-fn2-additive-5": (dict(family=4), "fn:2", "additive", 5),
    "f4-f0-multiplicative:1-5": (dict(family=4), "f0", "multiplicative:1", 5),
    "g2-universal-7": (dict(family=5), None, "universal", 7),
}


def _failing_hyperplane_outputs() -> dict:
    """The certificate of check_membership on the corrupted hyperplane tuple
    of each datum in FAILING_DATA."""
    out = {}
    for seed, (name, (args, kind, law, order)) in enumerate(sorted(FAILING_DATA.items())):
        triple = PasquierTriple(**args)
        datum = build_gkm(triple, force_kind=kind)
        ring = TorusRing(make_law(law, order), datum.rank)
        certificate = check_membership(datum, corrupted_hyperplane_tuple(triple, ring, seed), ring)
        assert not certificate.is_member
        out[f"failing-{name}"] = certificate.dumps().encode()
    return out


def _congruence_outputs() -> dict:
    """The congruence system of each datum in CONGRUENCE_DATA, as JSON and as
    the describe() text of its congruences, one per line."""
    out = {}
    for name, (args, kind) in CONGRUENCE_DATA.items():
        constraints = congruence_system(build_gkm(PasquierTriple(**args), force_kind=kind))
        out[f"congruences-{name}-json"] = congruence_system_json(constraints).encode()
        text = "".join(c.describe() + "\n" for c in constraints)
        out[f"congruences-{name}-text"] = text.encode()
    return out


# One surface per kind and model, (kind, model, n), on the points w, x, y, z
# (P2 on the last three); each is decomposed under every law of
# DECOMPOSITION_LAWS, each law with its own root.
DECOMPOSITION_SURFACES = {
    "p2v0v1": ("P2", "V0V1", None),
    "p2v2": ("P2", "V2", None),
    "f0": ("F0", None, None),
    **{f"fn{n}": ("Fn", None, n) for n in (1, 2, 3, 4)},
}
DECOMPOSITION_LAWS = {
    "universal": (2, -1),
    "additive": (0, 1),
    "multiplicative:-2/3": (Fraction(1, 2), 1),
}
DECOMPOSITION_ORDER = 6


def _decomposition(surface, values, ring) -> dict:
    """surface_decompose of a tuple: its coefficients and certified order, or
    the message of its refusal."""
    try:
        decomposition = surface_decompose(surface, values, ring)
    except DecompositionError as exc:
        return {"refused": f"{type(exc).__name__}: {exc}"}
    return {
        "coefficients": [c.to_json_obj() for c in decomposition.coefficients],
        "certified_order": decomposition.certified_order,
    }


def _decomposition_outputs() -> dict:
    """Per surface of DECOMPOSITION_SURFACES, under each law: its generator
    tuples, and the decompositions of two seeded members, of a member with
    one value truncated to order 4 and to order 2, and of two copies of a
    member with one value corrupted: coefficients or refusal messages."""
    out = {}
    for seed, (name, (kind, model, n)) in enumerate(DECOMPOSITION_SURFACES.items()):
        points = ("x", "y", "z") if kind == "P2" else ("w", "x", "y", "z")
        generators, decompositions = [], []
        for law, alpha in DECOMPOSITION_LAWS.items():
            surface = SurfaceComponent(kind, points, Character(alpha), n=n, model=model)
            ring = TorusRing(make_law(law, DECOMPOSITION_ORDER), 2)
            rng = random.Random(seed)
            gens = surface_generators(surface, ring)
            generators.append([{p: v.to_json_obj() for p, v in g.items()} for g in gens])
            members = []
            for _ in range(3):
                coeffs = [
                    random_series(rng, 2, DECOMPOSITION_ORDER, 3, rational_only=law != "universal")
                    for _ in gens
                ]
                members.append(reconstruct(surface, coeffs, ring))
            cut = rng.choice(points)
            members.append({**members[1], cut: members[1][cut].truncated(2)})
            members[1][cut] = members[1][cut].truncated(DECOMPOSITION_ORDER - 2)
            # a linear term fails edge congruences; c(alpha) t1 passes them
            # and fails the surface's own congruence
            t1 = ring.variable(0)
            for bump in (t1, ring.chern(surface.alpha) * t1):
                bad = rng.choice(points)
                members.append({**members[2], bad: members[2][bad] + bump})
            decompositions += [_decomposition(surface, m, ring) for m in members]
        out[f"generators-{name}"] = json.dumps(generators, sort_keys=True).encode()
        out[f"decompose-{name}"] = json.dumps(decompositions, sort_keys=True).encode()
    return out


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_stdout_is_byte_identical(name):
    assert _digest(_stdout(COMMANDS[name])) == DIGESTS[name]


def test_ig25_check_stdout_is_byte_identical(tmp_path):
    for name, data in _ig25_outputs(tmp_path).items():
        assert _digest(data) == DIGESTS[name], name


def test_failing_certificates_are_byte_identical(tmp_path):
    for name, data in _failing_outputs(tmp_path).items():
        assert _digest(data) == DIGESTS[name], name


def test_failing_hyperplane_certificates_are_byte_identical():
    for name, data in _failing_hyperplane_outputs().items():
        assert _digest(data) == DIGESTS[name], name


def test_dense_pivot_divisions_are_byte_identical():
    for name, data in _division_outputs().items():
        assert _digest(data) == DIGESTS[name], name


def test_surface_congruences_of_every_kind_are_byte_identical():
    for name, data in _congruence_outputs().items():
        assert _digest(data) == DIGESTS[name], name


def test_surface_decompositions_of_every_kind_are_byte_identical():
    for name, data in _decomposition_outputs().items():
        assert _digest(data) == DIGESTS[name], name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {name: _stdout(argv) for name, argv in COMMANDS.items()}
        outputs.update(_ig25_outputs(Path(tmp)))
        outputs.update(_failing_outputs(Path(tmp)))
        outputs.update(_failing_hyperplane_outputs())
        outputs.update(_division_outputs())
        outputs.update(_congruence_outputs())
        outputs.update(_decomposition_outputs())
    for name, data in outputs.items():
        print(f'    "{name}": "{_digest(data)}",')
