"""Per-layer spans recorded from outside the program.

Tracer.install() replaces the public functions listed in LAYERS with
wrappers, in every gkmcobordism module that binds them, and leaves the
source untouched.  Each wrapper records one span: its self time is the
span's duration minus the durations of the spans it caused.  The work the
wrappers do themselves (counting operand sizes) is kept out of every self
time, so it shows up only as tracing overhead.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

PACKAGE = "gkmcobordism"
MODULES = (
    "coeff_series",
    "fgl",
    "torus_ring",
    "gkm_model",
    "root_flag",
    "horospherical",
    "multiplicities",
    "cli",
)


def _mul_sizes(stat: dict, args, result) -> None:
    """Operand and result sizes of one series product.

    coeff_madds is computed from the operands: the number of coefficient
    multiply-adds the schoolbook product performs below the truncation order.
    """
    a, b = args[0], args[1]
    if type(b) is not type(a):  # a scalar factor takes the scale path
        return
    order = result.order
    sizes_b = [0] * (order + 1)
    for k, c in b.terms.items():
        d = sum(k)
        if d <= order:
            sizes_b[d] += len(c.terms)
    prefix, running = [], 0
    for s in sizes_b:
        running += s
        prefix.append(running)
    madds = 0
    for k, c in a.terms.items():
        d = sum(k)
        if d <= order:
            madds += len(c.terms) * prefix[order - d]
    monomials, bits = 0, 0
    for c in result.terms.values():
        monomials += len(c.terms)
        for q in c.terms.values():
            bits = max(bits, int(q.numerator).bit_length(), int(q.denominator).bit_length())
    stat["coeff_madds"] = stat.get("coeff_madds", 0) + madds
    stat["out_terms"] = stat.get("out_terms", 0) + len(result.terms)
    stat["out_coeff_monomials"] = stat.get("out_coeff_monomials", 0) + monomials
    stat["max_coeff_bits"] = max(stat.get("max_coeff_bits", 0), bits)


def _congruence_count(stat: dict, args, result) -> None:
    stat["congruences"] = stat.get("congruences", 0) + len(result)


# (module, attribute path, layer name, size recorder).  A ring argument's
# _chern cache is read before and after TorusRing.chern to tell a computed
# Chern class from a cache hit.
LAYERS = (
    ("coeff_series", "TruncatedSeries.__mul__", "coeff_series.mul", _mul_sizes),
    ("coeff_series", "TruncatedSeries.substitute", "coeff_series.substitute", None),
    ("coeff_series", "TruncatedSeries.from_json_obj", "coeff_series.from_json", None),
    ("coeff_series", "compose_univariate", "coeff_series.compose_univariate", None),
    ("coeff_series", "compositional_inverse", "coeff_series.compositional_inverse", None),
    ("coeff_series", "series_inverse", "coeff_series.series_inverse", None),
    ("fgl", "FormalGroupLaw.exp_series", "fgl.exp_series", None),
    ("fgl", "FormalGroupLaw.rho", "fgl.rho", None),
    ("torus_ring", "TorusRing.chern", "torus_ring.chern", "chern"),
    ("torus_ring", "TorusRing.chern_product", "torus_ring.chern_product", None),
    ("torus_ring", "TorusRing.rho_factor", "torus_ring.rho_factor", None),
    ("torus_ring", "TorusRing.reduce_mod", "torus_ring.reduce_mod", None),
    ("torus_ring", "TorusRing.divide_exact", "torus_ring.divide_exact", None),
    ("torus_ring", "TorusRing.loc_add", "torus_ring.loc_add", None),
    ("multiplicities", "singular_class_pullback", "multiplicities.singular_class_pullback", None),
    ("gkm_model", "check_membership", "gkm_model.check_membership", None),
    ("gkm_model", "congruence_system", "gkm_model.congruence_system", _congruence_count),
    ("gkm_model", "GkmDatum.dumps", "gkm_model.dumps", None),
    ("root_flag", "root_system", "root_flag.root_system", None),
    ("root_flag", "WeylGroup.__init__", "root_flag.weyl_group", None),
    ("root_flag", "WeylGroup.cosets", "root_flag.cosets", None),
    ("root_flag", "WeylGroup.apply_word", "root_flag.apply_word", None),
    ("root_flag", "enumerate_curves", "root_flag.enumerate_curves", None),
    ("horospherical", "surface_scan", "horospherical.surface_scan", None),
    ("horospherical", "build_gkm", "horospherical.build_gkm", None),
)


class Tracer:
    """Wraps the layer functions and sums calls, self time and sizes per layer."""

    def __init__(self):
        self.stats: dict = {}
        self._stack: list = []
        self._undo: list = []

    def reset(self) -> dict:
        """Return the statistics gathered so far and start empty."""
        stats, self.stats = self.stats, {}
        return stats

    def _wrap(self, fn, layer: str, sizes):
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            before = len(args[0]._chern) if sizes == "chern" else 0
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                children = stack.pop()
            stat = tracer.stats.get(layer)
            if stat is None:
                stat = tracer.stats[layer] = {"calls": 0, "self_s": 0.0}
            stat["calls"] += 1
            stat["self_s"] += (t1 - t0) - children
            if sizes == "chern":
                stat["computed"] = stat.get("computed", 0) + (len(args[0]._chern) > before)
            elif sizes is not None:
                sizes(stat, args, result)
            if stack:
                stack[-1] += perf_counter() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, layer: str, fn, *args, **kwargs):
        """Run fn inside a span of its own (the operation's root span)."""
        return self._wrap(fn, layer, None)(*args, **kwargs)

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES]
        for module_name, path, layer, sizes in LAYERS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in path:
                owner_name, attr = path.split(".")
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(raw.__func__, layer, sizes))
                else:
                    replacement = self._wrap(raw, layer, sizes)
                setattr(owner, attr, replacement)
                self._undo.append((owner, attr, raw))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, layer, sizes)
            # Functions imported by name elsewhere in the package are rebound too.
            for m in modules:
                if getattr(m, path, None) is original:
                    setattr(m, path, wrapper)
                    self._undo.append((m, path, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
