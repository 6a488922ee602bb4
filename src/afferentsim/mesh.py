"""Layered 2-D fingertip cross-section mesh.

The domain is a rectangle: skin surface along y = 0, depth increasing
downward (y < 0), x symmetric about the indenter centerline at x = 0.
Structured quadrilateral grid, uniform in x, graded in y from a fine
surface row to coarser interior rows.  Each element carries the material
of the layer containing its centroid.  The bottom boundary stands in for
bone and is fixed by the solver; the sides are free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvertedElementError, ValidationError

AFFERENT_TYPES = ("SA", "RA", "PC")

# 2x2 Gauss quadrature on the reference square (unit weights), points
# ordered like the reference corners (-,-), (+,-), (+,+), (-,+).
_G = 1.0 / np.sqrt(3.0)
GAUSS_POINTS = np.array([[-_G, -_G], [_G, -_G], [_G, _G], [-_G, _G]])


def shape_gradients(xi: float, eta: float) -> np.ndarray:
    """(2, 4): rows d/dxi, d/deta of the bilinear corner shape functions."""
    return 0.25 * np.array(
        [
            [-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)],
            [-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)],
        ]
    )


# (4 gauss, 2, 4): shape gradients at each Gauss point
GAUSS_GRADIENTS = np.stack([shape_gradients(x, e) for x, e in GAUSS_POINTS])


@dataclass(frozen=True)
class MaterialLayer:
    """One horizontal skin layer.

    depth_range is (top_mm, bottom_mm) measured positive downward from the
    surface, so the stratum corneum is (0.0, 0.2).
    """

    name: str
    elastic_modulus_mpa: float
    poisson_ratio: float
    depth_range: tuple[float, float]

    def validate(self) -> None:
        if not self.elastic_modulus_mpa > 0:
            raise ValidationError(
                f"layer {self.name!r}: elastic_modulus_mpa must be > 0, "
                f"got {self.elastic_modulus_mpa}"
            )
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise ValidationError(
                f"layer {self.name!r}: poisson_ratio must be in [0, 0.5), "
                f"got {self.poisson_ratio}"
            )
        top, bottom = self.depth_range
        if not bottom > top >= 0.0:
            raise ValidationError(
                f"layer {self.name!r}: depth_range must satisfy 0 <= top < bottom, "
                f"got {self.depth_range}"
            )


def default_material_layers() -> list[MaterialLayer]:
    """Four compliant skin layers; bone is the fixed bottom boundary."""
    return [
        MaterialLayer("stratum_corneum", 2.000, 0.30, (0.0, 0.2)),
        MaterialLayer("epidermis", 2.000, 0.30, (0.2, 0.7)),
        MaterialLayer("dermis", 0.050, 0.48, (0.7, 2.2)),
        MaterialLayer("subcutaneous", 0.024, 0.40, (2.2, 8.0)),
    ]


def default_afferent_depths() -> dict[str, float]:
    # SA just inside the dermis, RA at the epidermis-dermis boundary, PC
    # deep in subcutaneous fat.  SA must sit below the stiff surface layers:
    # at the boundary the stress DC is large enough to defeat the averaging
    # filter's low-pass selectivity at high frequency.
    return {"SA": 1.0, "RA": 0.75, "PC": 3.0}


@dataclass(frozen=True)
class GeometrySpec:
    """Mesh generation parameters; all lengths in mm."""

    domain_width_mm: float = 20.0
    surface_element_mm: float = 0.2
    coarsening: float = 8.0
    afferent_depths_mm: dict[str, float] = field(default_factory=default_afferent_depths)

    def validate(self, materials: list[MaterialLayer]) -> None:
        if not self.domain_width_mm > 0:
            raise ValidationError(
                f"domain_width_mm must be > 0, got {self.domain_width_mm}"
            )
        if not self.surface_element_mm > 0:
            raise ValidationError(
                f"surface_element_mm must be > 0, got {self.surface_element_mm}"
            )
        if not self.coarsening >= 1.0:
            raise ValidationError(f"coarsening must be >= 1, got {self.coarsening}")
        missing = [t for t in AFFERENT_TYPES if t not in self.afferent_depths_mm]
        if missing:
            raise ValidationError(f"afferent_depths_mm missing types: {missing}")
        unknown = sorted(set(self.afferent_depths_mm) - set(AFFERENT_TYPES))
        if unknown:
            raise ValidationError(f"afferent_depths_mm unknown types: {unknown}")
        for atype, depth in self.afferent_depths_mm.items():
            if not depth >= 0:
                raise ValidationError(
                    f"afferent_depths_mm[{atype!r}] must be >= 0, got {depth}"
                )
        if not materials:
            raise ValidationError("materials list is empty")
        for layer in materials:
            layer.validate()
        # Layers must tile [0, depth] without gaps or overlap.
        tops = [m.depth_range[0] for m in materials]
        bottoms = [m.depth_range[1] for m in materials]
        if abs(tops[0]) > 1e-12:
            raise ValidationError("first material layer must start at depth 0")
        for i in range(1, len(materials)):
            if abs(tops[i] - bottoms[i - 1]) > 1e-12:
                raise ValidationError(
                    f"material layers {materials[i - 1].name!r} and "
                    f"{materials[i].name!r} do not tile: "
                    f"{bottoms[i - 1]} != {tops[i]}"
                )
        thinnest = min(b - t for t, b in zip(tops, bottoms))
        if self.surface_element_mm > thinnest + 1e-12:
            raise ValidationError(
                f"surface_element_mm={self.surface_element_mm} exceeds the "
                f"thinnest layer ({thinnest} mm)"
            )


@dataclass(frozen=True)
class Mesh:
    """Immutable structured quad mesh.

    nodes: (n, 2) float64 — (x_mm, y_mm), surface at y = 0.
    elements: (m, 4) int — counterclockwise connectivity.
    element_material: (m,) int — index into materials.
    surface_nodes: node ids along y = 0, ordered left to right.
    afferent_nodes: afferent type -> node id (exactly SA, RA, PC).
    """

    nodes: np.ndarray
    elements: np.ndarray
    element_material: np.ndarray
    materials: tuple[MaterialLayer, ...]
    surface_nodes: np.ndarray
    afferent_nodes: dict[str, int]

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.elements.setflags(write=False)
        self.element_material.setflags(write=False)
        self.surface_nodes.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]


# Depth-grading growth ratio cap.  Gentle growth keeps the grid fine enough
# through the dermis that afferent targets land within half a surface element
# of their nominal depth; the coarsening factor still bounds the deepest rows.
_GROWTH_RATIO = 1.15


def _graded_depth_steps(total: float, h0: float, coarsening: float) -> np.ndarray:
    """Row heights dy_i = min(h0 * q**i, cap), cap = h0 * coarsening.

    The row count n is the smallest for which growth ratio q <= 1.15 spans
    the depth; q is then bisected in [1, 1.15] so the rows sum to `total`
    exactly.  Heights stay inside [h0, cap] and non-decreasing with depth.
    Falls back to a uniform grid when no graded solution exists (coarsening
    ~ 1 with total not a multiple of h0).
    """
    cap = h0 * coarsening
    n_max = int(np.floor(total / h0 + 1e-9))
    if n_max < 1:
        raise ValidationError(
            f"surface_element_mm={h0} does not fit the domain depth {total}"
        )

    def total_height(n: int, q: float) -> float:
        return float(np.minimum(h0 * q ** np.arange(n), cap).sum())

    n = 1
    while total_height(n, _GROWTH_RATIO) < total - 1e-12:
        n += 1
    if n > n_max or total_height(n, 1.0) > total + 1e-12:
        # No q in [1, 1.15] sums exactly; fall back to a uniform grid, never
        # coarser than the requested surface element.
        n = max(1, int(np.ceil(total / h0 - 1e-9)))
        return np.full(n, total / n)

    lo, hi = 1.0, _GROWTH_RATIO
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if total_height(n, mid) < total:
            lo = mid
        else:
            hi = mid
    q = 0.5 * (lo + hi)
    dy = np.minimum(h0 * q ** np.arange(n), cap)
    # Absorb the bisection residual into the deepest row; it stays in-bounds
    # because the residual is ~1e-13 * total.
    dy[-1] += total - dy.sum()
    return dy


def build_mesh(spec: GeometrySpec, materials: list[MaterialLayer] | None = None) -> Mesh:
    """Build the structured graded mesh and locate the afferent nodes."""
    if materials is None:
        materials = default_material_layers()
    spec.validate(materials)

    width = spec.domain_width_mm
    h0 = spec.surface_element_mm
    depth = materials[-1].depth_range[1]

    # Even column count puts a node exactly on the centerline x = 0; integer
    # offsets keep the grid exactly symmetric (linspace drifts by an ulp).
    ncols = max(2, 2 * int(round(width / (2.0 * h0))))
    xs = (np.arange(ncols + 1) - ncols // 2) * (width / ncols)

    dy = _graded_depth_steps(depth, h0, spec.coarsening)
    ys = np.concatenate([[0.0], -np.cumsum(dy)])
    ys[-1] = -depth
    nrows = len(dy)

    nx, ny = ncols + 1, nrows + 1
    xx, yy = np.meshgrid(xs, ys)  # row-major: node id = row * nx + col
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    cols, rows = np.meshgrid(np.arange(ncols), np.arange(nrows))
    cols = cols.ravel()
    rows = rows.ravel()
    n0 = rows * nx + cols
    # Counterclockwise with y decreasing per row: start at the deeper-left
    # corner of each cell.
    elements = np.column_stack([n0 + nx, n0 + nx + 1, n0 + 1, n0]).astype(np.int64)

    centroid_depth = -nodes[elements, 1].mean(axis=1)
    layer_bottoms = np.array([m.depth_range[1] for m in materials])
    element_material = np.searchsorted(layer_bottoms, centroid_depth, side="left")
    element_material = np.minimum(element_material, len(materials) - 1).astype(np.int64)

    surface_nodes = np.arange(nx, dtype=np.int64)  # row 0 is y = 0, ordered by x

    mesh = Mesh(
        nodes=nodes,
        elements=elements,
        element_material=element_material,
        materials=tuple(materials),
        surface_nodes=surface_nodes,
        afferent_nodes=locate_afferent_nodes(nodes, spec.afferent_depths_mm),
    )
    for atype, node in mesh.afferent_nodes.items():
        if node >= nrows * nx:  # on the bottom row, which the solver fixes as bone
            raise ValidationError(f"{atype} afferent at {spec.afferent_depths_mm[atype]} mm lands "
                                  f"on node {node} of the fixed bottom, {depth} mm deep")
    check_jacobians(mesh)
    return mesh


def locate_afferent_nodes(nodes: np.ndarray, depths: dict[str, float]) -> dict[str, int]:
    """Nearest of `nodes` (n, 2) to (0, -depth), on the centerline, per
    afferent type.

    Ties resolve to the lowest node id (argmin returns the first minimum).
    """
    out: dict[str, int] = {}
    for atype in sorted(depths):
        target = np.array([0.0, -depths[atype]])
        d2 = ((nodes - target) ** 2).sum(axis=1)
        out[atype] = int(np.argmin(d2))
    return out


def check_jacobians(mesh: Mesh, elements=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians (4 gauss, m, 2, 2) and determinants (4 gauss, m) of
    mesh.elements[elements]: the one isoparametric map of the quads, for
    build_mesh and gauss_gradients.  Raises InvertedElementError unless
    det J > 0 at all 2x2 Gauss points of every element."""
    coords = mesh.nodes[mesh.elements[elements]]  # (m, 4, 2)
    jac = np.stack([np.einsum("rk,mkc->mrc", dn, coords) for dn in GAUSS_GRADIENTS])
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    if not (det > 0).all():
        bad = int(np.flatnonzero((det <= 0).any(axis=0))[0])
        g = int(np.flatnonzero(det[:, bad] <= 0)[0])
        raise InvertedElementError(
            f"non-positive Jacobian at Gauss point {g} of element "
            f"{np.arange(mesh.n_elements)[elements][bad]}: min det J = {det.min():.3e}"
        )
    return jac, det


def gauss_gradients(mesh: Mesh, elements=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Shape-function gradients dN/dx, dN/dy (4 gauss, m, 2, 4) and det J
    (4 gauss, m) at the 2x2 Gauss points of mesh.elements[elements]: the one
    inverse of check_jacobians' map, read by the stiffness assembly and by
    stress recovery alike."""
    jac, det = check_jacobians(mesh, elements)
    inv = np.stack([jac[..., 1, 1], -jac[..., 0, 1], -jac[..., 1, 0], jac[..., 0, 0]], axis=-1)
    inv = inv.reshape(jac.shape) / det[..., None, None]
    return np.stack([np.einsum("mrc,ck->mrk", i, dn) for i, dn in zip(inv, GAUSS_GRADIENTS)]), det


def _distinct_reprs(values: np.ndarray, suffix: str = "") -> tuple[list[str], np.ndarray]:
    """The shortest repr, with `suffix` attached, of each distinct value of
    `values` as float64, and the index of each value's text (in C order).

    Exports repeat few numbers (the default mesh's 3 030 coordinates take
    113 values), so each is formatted once.  Values are keyed by their
    bits, since -0.0 == 0.0 but the two print differently.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).ravel().view(np.uint64)
    keys, index = np.unique(bits, return_inverse=True)
    return [f"{v!r}{suffix}" for v in keys.view(np.float64).tolist()], index


def export_mesh_text(mesh: Mesh) -> str:
    """Plain-text export: header, then N/E/A records ordered by id."""
    lines = ["afferentsim-mesh v1"]
    texts, index = _distinct_reprs(mesh.nodes)
    cells = [texts[k] for k in index.tolist()]
    lines += [f"N {i} {x} {y}" for i, (x, y) in enumerate(zip(cells[0::2], cells[1::2]))]
    lines += [
        f"E {i} {a} {b} {c} {d} {mat}"
        for i, ((a, b, c, d), mat) in enumerate(
            zip(mesh.elements.tolist(), mesh.element_material.tolist())
        )
    ]
    for atype in AFFERENT_TYPES:
        if atype in mesh.afferent_nodes:
            lines.append(f"A {atype} {mesh.afferent_nodes[atype]}")
    return "\n".join(lines) + "\n"
