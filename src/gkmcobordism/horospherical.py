"""GKM data of smooth projective horospherical varieties of Picard number one.

Such a variety (outside the homogeneous case) is determined by a triple from
Pasquier's classification: a group together with the two maximal parabolics of
its closed orbits.  The builder computes the difference character chi of the
two defining weights, scans the positive roots for a multiple of chi to find
the surface components of the codimension-one fixed loci, and assembles the
full datum: the invariant curves of both closed orbits, the lines joining
them, and one surface component per Weyl translate.

The surface kind is known for the families the classification pins down
(none for family 1, a projective plane for family 3, the third Hirzebruch
surface for family 5); family 4 finds a surface whose Hirzebruch index has
no established rule and therefore needs an explicit override.

This module knows families, not surface kinds: each family's kind is
written in the spelling the override takes and read, like the override,
through gkm_datum.parse_surface_kind, and what a kind is belongs to
gkm_datum's kind table.

A triple checks its family and parameters when it is made, and the datum
checks itself when the builder makes it, so neither is checked again: the
surface constructor refuses a forced kind whose point count does not fit
the triple's surfaces, and the datum a second edge on one curve.

The builder keeps every weight as an integer vector: labels, and the
epsilon-coordinate numerators of RootSystem.numerators.  The surface scan
finds the root along chi in the system's positive-root table by chi's
labels, and reads its pairings from that root's integer coroot row.  The
curves of the two closed orbits are read as integer pairs from
root_flag.curve_scan, coset and root indices, with no curve weight or
degree built; those are built only by enumerate_curves, for `flag curves`.
The surfaces are one orbit of (omega_Y, omega_Z, root), each visited once.
Edge keys are directions of numerators, and the ordering covector is
chosen and applied by integer inner products of numerators.  Rationals are
built only for what is emitted: the edge and surface characters, the
covector lambda, and chi and its root in the scan report.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, NamedTuple

from .common import Character, _by_value, direction
from .gkm_datum import GkmDatum, GkmEdge, GkmValidationError, SurfaceComponent, parse_surface_kind
from .root_flag import RootSystem, curve_scan, inner, root_system


class UnresolvedSurfaceKindError(ValueError):
    """A surface component exists but its kind is not determined by the family."""


class _Family(NamedTuple):
    parameters: tuple  # the parameters it takes; each is required
    rule: Callable | None  # (n, m) -> whether the given parameters are valid
    refusal: str | None  # the refusal of a triple whose parameters are not
    group: str  # the root-system label, formatted with n
    weights: Callable  # (n, m) -> Bourbaki indices (iY, iZ) of the defining weights
    kind: str | None = None  # the established surface kind, as --force-kind spells it


# Families 1 and 2 have no surface, and family 4 one of unknown Hirzebruch index.
_FAMILIES = {
    1: _Family(("n",), lambda n, m: n >= 3, "requires n >= 3", "B{n}", lambda n, m: (n - 1, n)),
    2: _Family((), None, None, "B3", lambda n, m: (1, 3)),
    3: _Family(
        ("n", "m"),
        lambda n, m: n >= 2 and 2 <= m <= n,
        "requires n >= 2 and 2 <= m <= n",
        "C{n}",
        lambda n, m: (m, m - 1),
        "p2:v0v1",
    ),
    4: _Family((), None, None, "F4", lambda n, m: (2, 3)),
    5: _Family((), None, None, "G2", lambda n, m: (1, 2), "fn:3"),
}


@_by_value()
class PasquierTriple:
    """One entry of the classification: family number plus its parameters."""

    __slots__ = ("family", "n", "m")

    def __init__(self, family: int, n: int | None = None, m: int | None = None):
        spec = _FAMILIES.get(family)
        if spec is None:
            raise ValueError(f"unknown family {family}")
        given = {"n": n, "m": m}
        for name, value in given.items():
            if value is not None and name not in spec.parameters:
                raise ValueError(f"family {family} takes no parameter {name}")
        missing = any(given[name] is None for name in spec.parameters)
        if spec.rule and (missing or not spec.rule(n, m)):
            raise ValueError(f"family {family} {spec.refusal}")
        self.family, self.n, self.m = family, n, m

    def group(self) -> RootSystem:
        return root_system(_FAMILIES[self.family].group.format(n=self.n))

    def weight_indices(self) -> tuple:
        """Bourbaki indices (iY, iZ) of the defining fundamental weights."""
        return _FAMILIES[self.family].weights(self.n, self.m)

    def describe(self) -> str:
        rs = self.group()
        iy, iz = self.weight_indices()
        return f"({rs.label}, P(omega_{iy}), P(omega_{iz}))"


def _chi_labels(triple: PasquierTriple) -> tuple:
    """The labels of chi = omega_Y - omega_Z: e_iY - e_iZ."""
    iy, iz = triple.weight_indices()
    return tuple(int(j == iy) - int(j == iz) for j in range(1, triple.group().rank + 1))


def chi(triple: PasquierTriple) -> Character:
    """The difference omega_Y - omega_Z in epsilon-coordinates."""
    return Character(triple.group().vector(_chi_labels(triple)))


class SurfaceScan:
    """What the root scan found: the root along chi, pairings, and the kind."""

    __slots__ = ("chi", "root", "pairings", "fixed_points", "kind", "n", "model", "root_index")

    def __init__(
        self,
        chi: Character,
        root: Character | None,
        pairings: tuple | None,  # <omega_Y, root^vee>, <omega_Z, root^vee>
        fixed_points: int | None,
        kind: str,  # "none", "unresolved" or a kind of gkm_datum.SURFACE_KINDS
        n: int | None = None,
        model: str | None = None,
        root_index: int | None = None,  # position of the root in the system's roots
    ):
        self.chi, self.root, self.pairings, self.fixed_points = chi, root, pairings, fixed_points
        self.kind, self.n, self.model, self.root_index = kind, n, model, root_index

    def to_json_obj(self) -> dict:
        return {
            "chi": self.chi.to_json_obj(),
            "root": self.root.to_json_obj() if self.root else None,
            "pairings": [str(p) for p in self.pairings] if self.pairings else None,
            "fixed_points": self.fixed_points,
            "kind": self.kind,
            "n": self.n,
            "model": self.model,
        }


def surface_scan(triple: PasquierTriple) -> SurfaceScan:
    """Scan the positive roots for a rational multiple of chi."""
    rs = triple.group()
    iy, iz = triple.weight_indices()
    labels = _chi_labels(triple)
    difference = Character(rs.vector(labels))
    d = direction(rs.numerators(labels))
    k = next((k for k, root in enumerate(rs.roots) if root.direction == d), None)
    if k is None:
        return SurfaceScan(chi=difference, root=None, pairings=None, fixed_points=None, kind="none")
    root = rs.roots[k]
    a, b = root.coroot[iy - 1], root.coroot[iz - 1]
    count = (2 if a else 1) + (2 if b else 1)
    known = _FAMILIES[triple.family].kind
    kind, model, n = parse_surface_kind(known) if known else ("unresolved", None, None)
    return SurfaceScan(
        chi=difference,
        root=Character(root.vector),
        pairings=(a, b),
        fixed_points=count,
        kind=kind,
        n=n,
        model=model,
        root_index=k,
    )


def _family3_point_name(anchor, n: int, kernel: bool) -> str:
    """Isotropic-subset name of a fixed point of the odd symplectic Grassmannian."""
    indices = []
    for i, c in enumerate(anchor):
        if c == 1:
            indices.append(i + 1)
        elif c == -1:
            indices.append(2 * n + 1 - i)
        elif c:
            raise ValueError("unexpected fixed-point weight in family 3")
    if kernel:
        indices.append(n + 1)
    indices.sort()
    if 2 * n + 1 <= 9:
        return "x" + "".join(str(i) for i in indices)
    return "x" + "_".join(str(i) for i in indices)


def _point_tables(triple: PasquierTriple, rs: RootSystem):
    """Both closed orbits' parabolics and name maps labels -> point name, each
    in coset order, plus the coset of every point."""
    iy, iz = triple.weight_indices()
    parabolic_y = frozenset(i for i in range(1, rs.rank + 1) if i != iy)
    parabolic_z = frozenset(i for i in range(1, rs.rank + 1) if i != iz)
    cosets_y = rs.weyl_group.cosets(parabolic_y)
    cosets_z = rs.weyl_group.cosets(parabolic_z)

    def namer(prefix, use_kernel):
        if triple.family == 3:
            return lambda c: _family3_point_name(c.anchor, triple.n, use_kernel)
        return lambda c: c.name(prefix)

    name_y = namer("y", False)
    name_z = namer("z", True)
    y_names = {c.labels: name_y(c) for c in cosets_y}
    z_names = {c.labels: name_z(c) for c in cosets_z}
    cosets = {y_names[c.labels]: c for c in cosets_y}
    cosets.update({z_names[c.labels]: c for c in cosets_z})
    return parabolic_y, parabolic_z, y_names, z_names, cosets


def point_weights(triple: PasquierTriple) -> dict:
    """The ambient weight of every fixed point, keyed by the builder's names.

    These are the weights of the projective embedding spanned by the two
    defining representations; the tuple point -> chern(weight) is the
    restriction of the hyperplane class and satisfies every congruence of
    the built datum.
    """
    rs = triple.group()
    *_, cosets = _point_tables(triple, rs)
    return {name: Character(c.anchor) for name, c in cosets.items()}


# Ordering covectors are tried as sum_k b^(k-1) omega_k for b = 1, 2, ...,
# _COVECTOR_BASES; b = 1 is the Weyl vector.
_COVECTOR_BASES = 8


def build_gkm(triple: PasquierTriple, force_kind: str | None = None) -> GkmDatum:
    """Assemble the full GKM datum of a classification triple.

    The ordering covector is the Weyl vector when it orients every joining
    line and separates the points of every surface, and otherwise the first
    of the candidates sum_k b^(k-1) omega_k, b = 2, 3, ..., that does.

    Raises UnresolvedSurfaceKindError when a surface component exists but the
    family does not determine its kind and no override was supplied,
    ValueError when an override is supplied for a triple without one, and
    GkmValidationError when the override's point count does not fit.
    """
    forced = None if force_kind is None else parse_surface_kind(force_kind)
    rs = triple.group()
    iy, iz = triple.weight_indices()
    unit = lambda i: tuple(int(j == i) for j in range(1, rs.rank + 1))
    omega_y, omega_z = unit(iy), unit(iz)
    parabolic_y, parabolic_z, y_names, z_names, cosets = _point_tables(triple, rs)
    # Weights as integer numerators: every sign, order and direction below is
    # that of the rational weight, which is a positive multiple.
    numerators = {name: rs.numerators(c.labels) for name, c in cosets.items()}

    # One Character per positive root, shared by the edges and surfaces along it.
    root_characters = [Character(root.vector) for root in rs.roots]

    # Surface components, one per Weyl translate of the root along chi: the
    # orbit of (omega_Y, omega_Z, root), the points of its surface being those
    # and their images s omega_Y, s omega_Z under the reflection s in the
    # root.  Each maps its point set to a root index.
    scan = surface_scan(triple)
    if scan.root is None and forced is not None:
        raise ValueError(
            f"{triple.describe()} has no surface component, so the surface kind "
            f"override {force_kind!r} applies to nothing"
        )
    components = {}
    if scan.root is not None:
        kind, model, index_n = scan.kind, scan.model, scan.n
        if forced is not None:
            kind, model, index_n = forced
        if kind == "unresolved":
            raise UnresolvedSurfaceKindError(
                f"{triple.describe()} has a surface component with curve degrees "
                f"{tuple(str(p) for p in scan.pairings)}, but no established rule gives its "
                "Hirzebruch index; pass an explicit kind override to emit it"
            )
        positive = {root.labels: k for k, root in enumerate(rs.roots)}
        a, b = scan.pairings

        def canonical(item):
            # (w omega_Y, w omega_Z, w root) and its image under the reflection
            # in w root name one surface; keep the one whose root is positive.
            ya, za, root = item
            if root in positive:
                return item
            return (
                tuple([x - a * r for x, r in zip(ya, root)]),
                tuple([x - b * r for x, r in zip(za, root)]),
                tuple([-r for r in root]),
            )

        seed = (omega_y, omega_z, rs.roots[scan.root_index].labels)
        for _, (ya, za, root) in rs.weyl_group.orbit(seed, canonical):
            sya = tuple([x - a * r for x, r in zip(ya, root)])
            sza = tuple([x - b * r for x, r in zip(za, root)])
            key = frozenset((y_names[ya], y_names[sya], z_names[za], z_names[sza]))
            components[key] = positive[root]

    # Joining lines: the orbit of (omega_Y, omega_Z), with weight w.chi.
    lines = [
        (y_names[ya], z_names[za], tuple(x - y for x, y in zip(ya, za)))
        for _, (ya, za) in rs.weyl_group.orbit((omega_y, omega_z))
    ]
    line_numerators = [rs.numerators(w) for _, _, w in lines]

    for base in range(1, _COVECTOR_BASES + 1):
        lam = tuple(base**k for k in range(rs.rank))
        lam_numerators = rs.numerators(lam)
        if all(inner(lam_numerators, w) for w in line_numerators) and all(
            len({inner(lam_numerators, numerators[p]) for p in key}) == len(key)
            for key in components
        ):
            break
    else:
        raise GkmValidationError(
            "no ordering covector orients every joining line and separates every surface's points"
        )

    def lam_value(point):
        return inner(lam_numerators, numerators[point])

    surfaces = [
        SurfaceComponent(
            kind=kind,
            points=tuple(sorted(key, key=lam_value, reverse=True)),
            alpha=root_characters[components[key]],
            n=index_n,
            model=model,
        )
        for key in sorted(components, key=sorted)
    ]

    # Edges: curves of the two closed orbits plus the joining lines, with the
    # curves absorbed by a surface dropped (their congruences come from the
    # surface's chains): those joining two of its points with a weight
    # proportional to its alpha.
    absorbed = {
        (a, b, rs.roots[k].direction)
        for key, k in components.items()
        for a, b in combinations(sorted(key), 2)
    }
    edges = []  # (key, edge); a second edge on one key is the datum's to refuse

    def add_edge(pa, pb, key_direction, weight: Character):
        a_, b_ = sorted((pa, pb))
        key = (a_, b_, key_direction)
        if key not in absorbed:
            edges.append((key, GkmEdge(a_, b_, weight)))

    for parabolic, names in ((parabolic_y, y_names), (parabolic_z, z_names)):
        point = list(names.values())  # the names in coset order
        for a, b, k, _ in curve_scan(rs, parabolic):
            add_edge(point[a], point[b], rs.roots[k].direction, root_characters[k])

    for (y, z, weight), numer in zip(lines, line_numerators):
        if inner(lam_numerators, numer) < 0:
            weight = tuple(-x for x in weight)
        add_edge(y, z, direction(numer), Character(rs.vector(weight)))

    return GkmDatum(
        rank=rs.dim,
        points=tuple(sorted(cosets)),
        edges=tuple(e for _, e in sorted(edges, key=lambda item: item[0])),
        surfaces=tuple(surfaces),
        ordering=rs.vector(lam),
    )
