"""The benchmark's tracer works on the package.

bench/spans.py names the functions `bench/run.py --trace 1` wraps, by module
and attribute path, and sizes every traced product from the series' `terms`
view.  Renaming or deleting one of those functions, or changing what the
view returns, would break tracing without failing any other test, so these
tests load spans.py (read-only, as a module from its file), resolve each
name, and run the tracer around a product and a membership check.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()
PACKAGE, LAYERS = spans.PACKAGE, spans.LAYERS


@pytest.mark.parametrize("module_name, path", [(m, p) for m, p, _, _ in LAYERS])
def test_traced_layer_resolves(module_name, path):
    target = importlib.import_module(f"{PACKAGE}.{module_name}")
    for attr in path.split("."):
        assert hasattr(target, attr), f"{PACKAGE}.{module_name}.{path} is gone"
        target = getattr(target, attr)
    assert callable(target)


def test_tracer_sizes_a_product_and_a_membership_check():
    from gkmcobordism import gkm_model
    from gkmcobordism.coeff_series import TruncatedSeries
    from gkmcobordism.fgl import FormalGroupLaw
    from gkmcobordism.horospherical import PasquierTriple, build_gkm, point_weights
    from gkmcobordism.torus_ring import TorusRing

    triple = PasquierTriple(family=3, n=2, m=2)
    datum = build_gkm(triple)
    ring = TorusRing(FormalGroupLaw.universal(4), 2)
    a, b = ring.chern((1, 1)), ring.chern((1, -1)) + ring.constant(3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        product = a * b
        mul = tracer.reset()["coeff_series.mul"]
        values = {p: ring.chern(w) for p, w in point_weights(triple).items()}
        cert = gkm_model.check_membership(datum, values, ring)  # the traced binding
        traced = tracer.reset()
    finally:
        tracer.uninstall()
    assert not hasattr(TruncatedSeries.__dict__["__mul__"], "__wrapped__")
    assert mul["calls"] == 1
    assert mul["out_coeff_monomials"] == sum(len(c.terms) for c in product.terms.values())
    assert mul["out_terms"] == len(product.terms)
    assert mul["coeff_madds"] > 0
    assert cert.is_member
    assert traced["gkm_model.check_membership"]["calls"] == 1
