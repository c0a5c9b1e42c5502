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
through gkm_model.parse_surface_kind, and what a kind is belongs to
gkm_model's kind table.

A triple checks its family and parameters when it is made, and the datum
checks itself when the builder makes it, so neither is checked again: the
surface constructor refuses a forced kind whose point count does not fit
the triple's surfaces, and the datum a second edge on one curve.

The builder keeps every weight as an integer vector: labels, and the
epsilon-coordinate numerators of RootSystem.numerators.  The surface scan
finds the root along chi in the system's positive-root table by chi's
labels, and reads its pairings from that root's integer coroot row.  Edge
keys are directions of numerators, and the ordering covector is chosen and
applied by integer inner products of numerators.  Rationals are built only
for what is emitted: the edge and surface characters, the covector lambda,
and chi and its root in the scan report.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .gkm_model import GkmDatum, GkmEdge, GkmValidationError, SurfaceComponent, parse_surface_kind
from .root_flag import RootSystem, WeylGroup, direction, enumerate_curves, inner, root_system
from .torus_ring import Character


class UnresolvedSurfaceKindError(ValueError):
    """A surface component exists but its kind is not determined by the family."""


# The parameters each family of the classification takes.
_PARAMETERS = {1: ("n",), 2: (), 3: ("n", "m"), 4: (), 5: ()}


@dataclass(frozen=True)
class PasquierTriple:
    """One entry of the classification: family number plus its parameters."""

    family: int
    n: int | None = None
    m: int | None = None

    def __post_init__(self):
        if self.family not in _PARAMETERS:
            raise ValueError(f"unknown family {self.family}")
        for name in ("n", "m"):
            if getattr(self, name) is not None and name not in _PARAMETERS[self.family]:
                raise ValueError(f"family {self.family} takes no parameter {name}")
        if self.family == 1:
            if self.n is None or self.n < 3:
                raise ValueError("family 1 requires n >= 3")
        elif self.family == 3:
            if self.n is None or self.m is None or self.n < 2 or not 2 <= self.m <= self.n:
                raise ValueError("family 3 requires n >= 2 and 2 <= m <= n")

    def group(self) -> RootSystem:
        if self.family == 1:
            return root_system(f"B{self.n}")
        if self.family == 2:
            return root_system("B3")
        if self.family == 3:
            return root_system(f"C{self.n}")
        if self.family == 4:
            return root_system("F4")
        return root_system("G2")

    def weight_indices(self) -> tuple:
        """Bourbaki indices (iY, iZ) of the defining fundamental weights."""
        if self.family == 1:
            return self.n - 1, self.n
        if self.family == 2:
            return 1, 3
        if self.family == 3:
            return self.m, self.m - 1
        if self.family == 4:
            return 2, 3
        return 1, 2

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


# Surface kinds established by the classification, spelled as --force-kind
# takes them; families 2 and 4 are not covered (family 2 turns out to have no
# surface at all, family 4 has one of unknown Hirzebruch index).
_KIND_TABLE = {3: "p2:v0v1", 5: "fn:3"}


@dataclass
class SurfaceScan:
    """What the root scan found: the root along chi, pairings, and the kind."""

    chi: Character
    root: Character | None
    pairings: tuple | None  # <omega_Y, root^vee>, <omega_Z, root^vee>
    fixed_points: int | None
    kind: str  # "none", "unresolved" or a kind of gkm_model.SURFACE_KINDS
    n: int | None = None
    model: str | None = None
    root_index: int | None = None  # position of the root in the system's roots

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
    kind, model, n = "unresolved", None, None
    if triple.family in _KIND_TABLE:
        kind, model, n = parse_surface_kind(_KIND_TABLE[triple.family])
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


def _point_tables(triple: PasquierTriple, rs: RootSystem, group: WeylGroup):
    """Both closed orbits' parabolics and name maps labels -> point name, plus
    the coset of every point."""
    iy, iz = triple.weight_indices()
    parabolic_y = frozenset(i for i in range(1, rs.rank + 1) if i != iy)
    parabolic_z = frozenset(i for i in range(1, rs.rank + 1) if i != iz)
    cosets_y = group.cosets(parabolic_y)
    cosets_z = group.cosets(parabolic_z)

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
    group = WeylGroup(rs)
    *_, cosets = _point_tables(triple, rs, group)
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
    group = WeylGroup(rs)
    unit = lambda i: tuple(int(j == i) for j in range(1, rs.rank + 1))
    omega_y, omega_z = unit(iy), unit(iz)
    parabolic_y, parabolic_z, y_names, z_names, cosets = _point_tables(triple, rs, group)
    # Weights as integer numerators: every sign, order and direction below is
    # that of the rational weight, which is a positive multiple.
    numerators = {name: rs.numerators(c.labels) for name, c in cosets.items()}

    # One Character per positive root, shared by the edges and surfaces along it.
    root_characters = [Character(root.vector) for root in rs.roots]

    # Surface components, one per Weyl translate of the root along chi: the
    # orbit of (omega_Y, s omega_Y, omega_Z, s omega_Z, root) with s the
    # reflection in the root.  Each maps its point set to a root index.
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
        root0 = rs.roots[scan.root_index].labels
        a, b = scan.pairings
        seed = (
            omega_y,
            tuple(x - a * r for x, r in zip(omega_y, root0)),
            omega_z,
            tuple(x - b * r for x, r in zip(omega_z, root0)),
            root0,
        )
        for _, (ya, sya, za, sza, root) in group.orbit(seed):
            key = frozenset((y_names[ya], y_names[sya], z_names[za], z_names[sza]))
            if key in components:
                continue
            k = positive.get(root)
            components[key] = positive[tuple(-x for x in root)] if k is None else k

    # Joining lines: the orbit of (omega_Y, omega_Z), with weight w.chi.
    lines = [
        (y_names[ya], z_names[za], tuple(x - y for x, y in zip(ya, za)))
        for _, (ya, za) in group.orbit((omega_y, omega_z))
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
        for curve in enumerate_curves(rs, parabolic, group):
            k = curve.root_index
            add_edge(
                names[curve.u.labels],
                names[curve.v.labels],
                rs.roots[k].direction,
                root_characters[k],
            )

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
