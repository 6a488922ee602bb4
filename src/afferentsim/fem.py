"""Quasi-static plane-strain solver with rigid-indenter contact.

The indenter is a rigid circle whose depth at each time step prescribes
vertical displacements on the surface nodes it overlaps (frictionless
active set); the bottom boundary is fixed.  Within one active set every
prescribed displacement is the node's offset under the circle minus the
depth, so the field is affine in depth: run_indentation solves twice per
distinct active set (one profile, and unit values) and forms each step's
stress from those two fields.  Units are mm / MPa internally
(1 MPa = 1 N/mm^2); von Mises traces are exported in Pa because the
neural constants are Pa-based.

Assembly uses 4-node bilinear isoparametric quads with 2x2 Gauss
quadrature (the element map and its Jacobians live in mesh).
Factorizations are kept per constrained-DOF set, for the life of the
system: contact sets are nested in depth, so one indenter gives at most
one set per surface node under it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import NumericalError, ValidationError
from .mesh import AFFERENT_TYPES, GAUSS_GRADIENTS, Mesh, check_jacobians

# --------------------------------------------------------------------------
# element machinery


def shape_functions(xi: float, eta: float) -> np.ndarray:
    return 0.25 * np.array(
        [
            (1 - xi) * (1 - eta),
            (1 + xi) * (1 - eta),
            (1 + xi) * (1 + eta),
            (1 - xi) * (1 + eta),
        ]
    )


# Gauss -> corner extrapolation: bilinear basis anchored at the Gauss points,
# evaluated at the corners (i.e. shape functions at sqrt(3) * corner coords).
_CORNERS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
EXTRAPOLATION = np.stack(
    [shape_functions(np.sqrt(3.0) * x, np.sqrt(3.0) * e) for x, e in _CORNERS]
)  # (4 corners, 4 gauss)


def plane_strain_d(elastic_modulus: float, poisson_ratio: float) -> np.ndarray:
    e, nu = elastic_modulus, poisson_ratio
    c = e / ((1 + nu) * (1 - 2 * nu))
    return c * np.array(
        [
            [1 - nu, nu, 0.0],
            [nu, 1 - nu, 0.0],
            [0.0, 0.0, (1 - 2 * nu) / 2.0],
        ]
    )


def von_mises(stress: np.ndarray) -> np.ndarray:
    """Equivalent stress from [s_xx, s_yy, s_zz, t_xy] along the last axis.

    sqrt(1/2 [(s_xx-s_yy)^2 + (s_yy-s_zz)^2 + (s_zz-s_xx)^2 + 6 t_xy^2]);
    the out-of-plane shears vanish in plane strain.
    """
    s = np.asarray(stress, dtype=float)
    sxx, syy, szz, txy = s[..., 0], s[..., 1], s[..., 2], s[..., 3]
    return np.sqrt(
        0.5 * ((sxx - syy) ** 2 + (syy - szz) ** 2 + (szz - sxx) ** 2 + 6.0 * txy**2)
    )


# --------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class IndenterSpec:
    """Rigid circular indenter driven by a displacement trace.

    displacement_trace holds the vibration in mm at step dt_ms; the
    instantaneous depth below the undeformed surface at step k is
    pre_indentation_mm + displacement_trace[k] (negative depth = lifted).
    """

    diameter_mm: float
    center_x_mm: float = 0.0
    pre_indentation_mm: float = 0.0
    displacement_trace: np.ndarray = field(default_factory=lambda: np.zeros(1))
    dt_ms: float = 0.5

    def validate(self) -> None:
        if not self.diameter_mm > 0:
            raise ValidationError(f"diameter_mm must be > 0, got {self.diameter_mm}")
        if not self.dt_ms > 0:
            raise ValidationError(f"dt_ms must be > 0, got {self.dt_ms}")
        trace = np.asarray(self.displacement_trace, dtype=float)
        if trace.ndim != 1 or trace.size == 0:
            raise ValidationError("displacement_trace must be a non-empty 1-D array")
        if not np.isfinite(trace).all():
            raise ValidationError("displacement_trace contains non-finite values")


@dataclass(frozen=True)
class StressTrace:
    """von Mises stress (Pa) at one node, sampled at fixed dt (ms)."""

    afferent_type: str
    node_id: int
    dt_ms: float
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def duration_ms(self) -> float:
        return (self.n_steps - 1) * self.dt_ms

    def to_csv(self, path, provenance: str | None = None) -> None:
        with open(path, "w") as fh:
            fh.write("# afferent,node,dt_ms\n")
            fh.write(f"# {self.afferent_type},{self.node_id},{self.dt_ms!r}\n")
            if provenance:
                fh.write(f"# provenance: {provenance}\n")
            fh.write("t_ms,sigma_pa\n")
            for k, v in enumerate(self.values):
                fh.write(f"{k * self.dt_ms!r},{float(v)!r}\n")


@dataclass
class IndentationResult:
    stress_traces: dict[str, StressTrace]
    contact_sets: int  # distinct active sets solved
    deflection_x_mm: np.ndarray | None = None
    deflection_mm: np.ndarray | None = None  # (n_steps, n_samples)


# --------------------------------------------------------------------------
# assembly


class StiffnessSystem:
    """Assembled global stiffness plus per-element data for stress recovery."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.ndof = 2 * mesh.n_nodes
        self._factor_cache: dict[tuple, object] = {}

        d_table = np.stack(
            [plane_strain_d(m.elastic_modulus_mpa, m.poisson_ratio) for m in mesh.materials]
        )
        self.nu_by_element = np.array(
            [mesh.materials[i].poisson_ratio for i in mesh.element_material]
        )
        self.d_by_element = d_table[mesh.element_material]  # (m, 3, 3)

        jacobians, dets = check_jacobians(mesh)  # (4, m, 2, 2), (4, m)
        m = mesh.n_elements
        self.B = np.empty((m, 4, 3, 8))
        ke = np.zeros((m, 8, 8))
        for g, (dn, jac, det) in enumerate(zip(GAUSS_GRADIENTS, jacobians, dets)):
            inv = np.empty_like(jac)
            inv[:, 0, 0] = jac[:, 1, 1]
            inv[:, 0, 1] = -jac[:, 0, 1]
            inv[:, 1, 0] = -jac[:, 1, 0]
            inv[:, 1, 1] = jac[:, 0, 0]
            inv /= det[:, None, None]
            dnxy = np.einsum("mrc,ck->mrk", inv, dn)  # (m, 2, 4)
            b = np.zeros((m, 3, 8))
            b[:, 0, 0::2] = dnxy[:, 0]
            b[:, 1, 1::2] = dnxy[:, 1]
            b[:, 2, 0::2] = dnxy[:, 1]
            b[:, 2, 1::2] = dnxy[:, 0]
            self.B[:, g] = b
            # 2x2 Gauss weights are all 1
            ke += np.einsum("mji,mjk,mkl,m->mil", b, self.d_by_element, b, det)

        edof = np.empty((m, 8), dtype=np.int64)
        edof[:, 0::2] = 2 * mesh.elements
        edof[:, 1::2] = 2 * mesh.elements + 1
        rows = np.repeat(edof, 8, axis=1).ravel()
        cols = np.tile(edof, (1, 8)).ravel()
        self.K = sp.coo_matrix(
            (ke.ravel(), (rows, cols)), shape=(self.ndof, self.ndof)
        ).tocsc()
        self.edof = edof

    def factorization(self, fixed: np.ndarray, free: np.ndarray):
        key = tuple(fixed.tolist())
        hit = self._factor_cache.get(key)
        if hit is not None:
            return hit
        kff = self.K[free][:, free].tocsc()
        try:
            lu = splu(kff)
        except RuntimeError as exc:
            raise NumericalError(
                f"stiffness factorization failed with {len(fixed)} constrained DOFs: {exc}"
            ) from exc
        self._factor_cache[key] = lu
        return lu


# --------------------------------------------------------------------------
# constraints and solves


def bottom_constraints(mesh: Mesh) -> dict[int, float]:
    """Fix both DOFs of every node on the bottom boundary (the bone)."""
    y_min = mesh.nodes[:, 1].min()
    out: dict[int, float] = {}
    for n in np.flatnonzero(np.abs(mesh.nodes[:, 1] - y_min) < 1e-12):
        out[2 * int(n)] = 0.0
        out[2 * int(n) + 1] = 0.0
    return out


def _contact(
    mesh: Mesh, indenter: IndenterSpec, depths_mm: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The contact rule at many depths at once.

    Returns (nodes, profile, active) for the surface nodes within the
    indenter's radius: the circle profile above each at each depth
    (n_depths, n_nodes), and whether the node is in contact (gap to the
    undeformed surface non-positive, indenter not lifted).
    """
    depths = np.asarray(depths_mm, dtype=float)
    radius = indenter.diameter_mm / 2.0
    xs = mesh.nodes[mesh.surface_nodes, 0] - indenter.center_x_mm
    inside = np.abs(xs) <= radius + 1e-12
    profile = (radius - depths)[:, None] - np.sqrt(
        np.maximum(radius**2 - xs[inside] ** 2, 0.0)
    )
    active = (profile <= 1e-12) & (depths >= 0)[:, None]
    return mesh.surface_nodes[inside], profile, active


def contact_active_set(
    mesh: Mesh, indenter: IndenterSpec, depth_mm: float
) -> dict[int, float]:
    """Vertical-gap active set against the rigid circle at the given depth.

    Gaps are evaluated on the undeformed surface; every surface node with a
    non-positive gap gets its vertical DOF prescribed to the circle profile
    (horizontal DOF free).  depth < 0 means the indenter is above the
    surface: empty set.  This is the one-depth view of the rule that
    run_indentation applies to a whole trace.
    """
    nodes, profile, active = _contact(mesh, indenter, np.array([depth_mm]))
    return {2 * int(n) + 1: p for n, p in zip(nodes[active[0]], profile[0, active[0]])}


def solve_step(
    system: StiffnessSystem,
    constraints: dict[int, float],
    forces: np.ndarray | None = None,
) -> np.ndarray:
    """Solve K u = f with prescribed-displacement elimination.

    Raises NumericalError if the free-DOF residual exceeds 1e-8 relative.
    """
    ndof = system.ndof
    if not constraints:
        raise ValidationError("solve_step needs constraints to remove rigid-body modes")
    fixed = np.fromiter(sorted(constraints), dtype=np.int64)
    vals = np.array([constraints[d] for d in fixed])
    mask = np.ones(ndof, dtype=bool)
    mask[fixed] = False
    free = np.flatnonzero(mask)

    f = np.zeros(ndof) if forces is None else np.asarray(forces, dtype=float)
    u = np.zeros(ndof)
    u[fixed] = vals
    rhs = f[free] - (system.K @ u)[free]

    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm > 0.0:
        lu = system.factorization(fixed, free)
        u[free] = lu.solve(rhs)
        residual = np.linalg.norm((system.K @ u - f)[free])
        if not np.isfinite(residual) or residual > 1e-8 * rhs_norm:
            raise NumericalError(
                f"solve residual {residual:.3e} exceeds 1e-8 relative "
                f"({len(fixed)} constrained DOFs)"
            )
    return u


# --------------------------------------------------------------------------
# stress recovery


def recover_stress(
    system: StiffnessSystem, u: np.ndarray, node_ids: np.ndarray | None = None
) -> np.ndarray:
    """Nodal stress [s_xx, s_yy, s_zz, t_xy] in MPa.

    Gauss-point stresses are extrapolated to element corners with the
    bilinear basis and averaged over all elements sharing each node.  When
    node_ids is given, only elements touching those nodes are visited; the
    element visit order is preserved, so the restricted result is
    bit-identical to the full-field values at the selected nodes.
    """
    mesh = system.mesh
    if node_ids is None:
        elem_idx = np.arange(mesh.n_elements)
        targets = np.arange(mesh.n_nodes)
    else:
        targets = np.asarray(node_ids, dtype=np.int64)
        touching = np.isin(mesh.elements, targets).any(axis=1)
        elem_idx = np.flatnonzero(touching)

    elems = mesh.elements[elem_idx]
    ue = u[system.edof[elem_idx]]  # (me, 8)
    eps = np.einsum("egij,ej->egi", system.B[elem_idx], ue)  # (me, 4, 3)
    sig = np.einsum("eij,egj->egi", system.d_by_element[elem_idx], eps)  # (me, 4, 3)
    szz = system.nu_by_element[elem_idx][:, None] * (sig[..., 0] + sig[..., 1])
    gauss = np.concatenate([sig[..., :2], szz[..., None], sig[..., 2:]], axis=2)
    corner = np.einsum("cg,egk->eck", EXTRAPOLATION, gauss)  # (me, 4, 4)

    sums = np.zeros((mesh.n_nodes, 4))
    counts = np.zeros(mesh.n_nodes)
    np.add.at(sums, elems.ravel(), corner.reshape(-1, 4))
    np.add.at(counts, elems.ravel(), 1.0)
    return sums[targets] / counts[targets, None]


def surface_deflection(
    mesh: Mesh, u: np.ndarray, spacing_mm: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """Downward surface deflection sampled from the center outward (x >= 0)."""
    xs = mesh.nodes[mesh.surface_nodes, 0]
    defl = -u[2 * mesh.surface_nodes + 1]
    half_width = xs.max()
    r = np.arange(0.0, half_width + spacing_mm / 2.0, spacing_mm)
    return r, np.interp(r, xs, defl)


# --------------------------------------------------------------------------
# time stepping


def run_indentation(
    mesh: Mesh,
    indenter: IndenterSpec,
    system: StiffnessSystem | None = None,
    record_deflection: bool = False,
    deflection_spacing_mm: float = 0.5,
) -> IndentationResult:
    """Step the indenter through its displacement trace.

    The contact rule is applied to all steps at once, with the circle at
    pre_indentation + trace[k].  Steps where nothing is prescribed, or every
    prescribed value is zero (indenter lifted or exactly grazing), give a
    zero field and skip the solver.  The others are grouped by active set.
    Within a set the prescribed value at node j is
    r - sqrt(r^2 - x_j^2) - delta_k, with delta_k = r - (r - depth_k) the
    depth as the profile rounds it, so the field is affine in delta.  Each
    set is solved twice, for the profile at its shallowest step (ref) and
    for unit values, and step k's stress is
    sigma_ref - (delta_k - delta_ref) * sigma_1.  Referring to the
    shallowest step keeps the two terms from cancelling where the indenter
    barely touches off its centre.  von Mises stress (Pa) at each afferent
    node is then taken for the whole trace in one pass.
    """
    indenter.validate()
    if set(mesh.afferent_nodes) != set(AFFERENT_TYPES):
        raise ValidationError(
            f"mesh.afferent_nodes must cover {AFFERENT_TYPES}, "
            f"got {sorted(mesh.afferent_nodes)}"
        )
    if system is None:
        system = StiffnessSystem(mesh)

    trace = np.asarray(indenter.displacement_trace, dtype=float)
    n_steps = trace.size
    afferent_ids = np.array([mesh.afferent_nodes[t] for t in AFFERENT_TYPES])
    stress = np.zeros((n_steps, len(AFFERENT_TYPES), 4))

    defl_r = None
    defl = None
    if record_deflection:
        defl_r, _ = surface_deflection(mesh, np.zeros(system.ndof), deflection_spacing_mm)
        defl = np.zeros((n_steps, defl_r.size))

    depths = indenter.pre_indentation_mm + trace
    nodes, profile, active = _contact(mesh, indenter, depths)
    solved = np.flatnonzero((active & (profile != 0.0)).any(axis=1))
    solved = solved[np.argsort(depths[solved], kind="stable")]  # shallowest first
    sets, ref, which = np.unique(
        active[solved], axis=0, return_index=True, return_inverse=True
    )
    which = which.reshape(-1)  # numpy 2.0.0 returns it 2-D for axis=0
    ref = solved[ref]  # each set's shallowest step
    base = bottom_constraints(mesh)
    fields = []  # per set: displacements for the profile at ref, and for unit values
    for s, k in enumerate(ref):
        dofs = (2 * nodes[sets[s]] + 1).tolist()
        try:
            u_ref = solve_step(system, {**base, **dict(zip(dofs, profile[k, sets[s]]))})
            u_1 = solve_step(system, {**base, **dict.fromkeys(dofs, 1.0)})
        except NumericalError as exc:
            k = solved[which == s].min()
            raise NumericalError(f"step {k} (depth {depths[k]:.6f} mm): {exc}") from exc
        fields.append((u_ref, u_1))

    if fields:
        radius = indenter.diameter_mm / 2.0
        delta = radius - (radius - depths)  # the depth as the profile rounds it
        shift = (delta[solved] - delta[ref][which])[:, None]
        sigma = np.array(
            [[recover_stress(system, u, afferent_ids) for u in pair] for pair in fields]
        )  # (sets, 2, afferents, 4)
        stress[solved] = sigma[which, 0] - shift[:, :, None] * sigma[which, 1]
        if record_deflection:
            w = np.array(
                [[surface_deflection(mesh, u, deflection_spacing_mm)[1] for u in pair]
                 for pair in fields]
            )  # (sets, 2, samples)
            defl[solved] = w[which, 0] - shift * w[which, 1]

    vm = von_mises(stress)
    traces = {
        atype: StressTrace(
            afferent_type=atype,
            node_id=int(afferent_ids[i]),
            dt_ms=indenter.dt_ms,
            values=vm[:, i] * 1.0e6,  # MPa -> Pa for the neural stage
        )
        for i, atype in enumerate(AFFERENT_TYPES)
    }
    return IndentationResult(
        stress_traces=traces, contact_sets=len(sets),
        deflection_x_mm=defl_r, deflection_mm=defl,
    )
