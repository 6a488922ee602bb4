"""Quasi-static plane-strain solver with rigid-indenter contact.

The indenter is a rigid circle whose depth at each time step prescribes
vertical displacements on the surface nodes it overlaps (frictionless
active set); the bottom boundary is fixed.  Units are mm / MPa internally
(1 MPa = 1 N/mm^2); von Mises traces are exported in Pa because the
neural constants are Pa-based.

Only the surface nodes within the indenter's radius (its footprint: 5 at
h = 0.2 mm, 11 at 0.1) can ever be prescribed, so the skin is condensed to
them (influence coefficients, as in Kalker's and Polonsky & Keer's contact
solvers).  build_footprint_response makes the FootprintResponse of one
probe: the field under a unit load at each footprint node, and the loads
over depth as a table of one segment per contact set, each solved once.
run_indentation(footprint, indenter) reads each step's loads off it, with
no mesh and no solve; IndenterSpec holds only the probe's motion.  Its
stress traces are read-only arrays, and stress_csv_text writes one as CSV.

Assembly uses 4-node bilinear isoparametric quads with 2x2 Gauss
quadrature (the element map and its gradients live in mesh).  The DOFs are
numbered by node (x, y), so on the structured skin grid K is
block-tridiagonal (BlockTridiagonal, 33 DOFs wide blocks at h = 0.2 mm),
factored by a block Cholesky (BlockCholesky) in plain NumPy.  Every solve
is refined once against a residual summed in extended precision, so the
condensed path and a one-shot solve with the contact set fixed
(constrained_solve in tests/oracles.py) agree to round-off of the answer:
within 1e-13 relative at the surface deflection's zero crossing near
x = 7 mm at h = 0.2 mm (3.7e-12 without the refinement).

The set-up, StiffnessSystem(mesh) then build_footprint_response, keeps two
mesh-sized arrays alive: K and its factor, which goes once the unit loads
are solved.  It keeps no strain matrices: the assembly uses each Gauss
point's gradients only for the element stiffnesses, and recover_stress
forms them for the elements it visits.  Factorization and residual work
RUN_BLOCKS block rows, and the unit-load solve UNIT_LOAD_COLUMNS columns,
at a time: the traced peak stays under 3.3 x K's bytes at h = 0.2, 0.1
and 0.05 mm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NumericalError, ValidationError
from .mesh import AFFERENT_TYPES, Mesh, _distinct_reprs, gauss_gradients
from .stimulus import DT_MS

# --------------------------------------------------------------------------
# element machinery


def shape_functions(xi: float, eta: float) -> np.ndarray:
    return 0.25 * np.array([(1 - xi) * (1 - eta), (1 + xi) * (1 - eta),
                            (1 + xi) * (1 + eta), (1 - xi) * (1 + eta)])


# Gauss -> corner extrapolation: bilinear basis anchored at the Gauss points,
# evaluated at the corners (i.e. shape functions at sqrt(3) * corner coords).
_CORNERS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
EXTRAPOLATION = np.stack(
    [shape_functions(np.sqrt(3.0) * x, np.sqrt(3.0) * e) for x, e in _CORNERS]
)  # (4 corners, 4 gauss)


def plane_strain_d(elastic_modulus: float, poisson_ratio: float) -> np.ndarray:
    e, nu = elastic_modulus, poisson_ratio
    c = e / ((1 + nu) * (1 - 2 * nu))
    return c * np.array([[1 - nu, nu, 0.0], [nu, 1 - nu, 0.0], [0.0, 0.0, (1 - 2 * nu) / 2.0]])


def von_mises(stress: np.ndarray) -> np.ndarray:
    """Equivalent stress from [s_xx, s_yy, s_zz, t_xy] along the last axis.

    sqrt(1/2 [(s_xx-s_yy)^2 + (s_yy-s_zz)^2 + (s_zz-s_xx)^2 + 6 t_xy^2]);
    the out-of-plane shears vanish in plane strain.
    """
    s = np.asarray(stress, dtype=float)
    sxx, syy, szz, txy = s[..., 0], s[..., 1], s[..., 2], s[..., 3]
    return np.sqrt(0.5 * ((sxx - syy) ** 2 + (syy - szz) ** 2 + (szz - sxx) ** 2 + 6.0 * txy**2))


# --------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class IndenterSpec:
    """The motion of the rigid circular indenter: a displacement trace.

    displacement_trace holds the vibration in mm, one value per DT_MS; the
    instantaneous depth below the undeformed surface at step k is
    pre_indentation_mm + displacement_trace[k] (negative depth = lifted).
    The probe's diameter and centre belong to its FootprintResponse.  A
    spec checks itself when made.
    """

    pre_indentation_mm: float = 0.0
    displacement_trace: np.ndarray = field(default_factory=lambda: np.zeros(1))

    def __post_init__(self) -> None:
        trace = np.asarray(self.displacement_trace, dtype=float)
        if trace.ndim != 1 or trace.size == 0:
            raise ValidationError("displacement_trace must be a non-empty 1-D array")
        if not np.isfinite(trace).all():
            raise ValidationError("displacement_trace contains non-finite values")
        if not np.isfinite(self.pre_indentation_mm):
            raise ValidationError(
                f"pre_indentation_mm must be finite, got {self.pre_indentation_mm}")


def stress_csv_text(values: np.ndarray, afferent_type: str, node_id: int,
                    provenance: str) -> str:
    """A stress trace (Pa, one value per DT_MS) as CSV text: header lines,
    then one `t_ms,sigma_pa` row per step (shortest repr of the value as a
    float64).

    Each distinct value is formatted once: appendixA's 111 traces hold
    54 951 values, half of them zeros from the lifted indenter, but only
    6 450 distinct ones, since a sinusoid repeats its depths every half
    cycle.  The values are keyed by their bits, not compared as floats,
    which would merge -0.0 into 0.0 and write it as `0.0`.
    """
    head = ["# afferent,node,dt_ms\n", f"# {afferent_type},{node_id},{DT_MS!r}\n",
            f"# provenance: {provenance}\n", "t_ms,sigma_pa\n"]
    texts, index = _distinct_reprs(values, "\n")
    body = [""] * (2 * len(values))
    body[0::2] = _time_column(len(values))
    body[1::2] = [texts[k] for k in index.tolist()]
    return "".join(head + body)


@lru_cache(maxsize=4)
def _time_column(n_steps: int) -> tuple[str, ...]:
    """The `t_ms,` cell of each row, formatted once per length.

    A bank's traces share a few time columns (appendixA: two, for 111
    traces), and formatting a time costs as much as formatting a stress
    value.  The bound caps what long traces keep alive between calls.
    """
    return tuple([f"{k * DT_MS!r}," for k in range(n_steps)])


@dataclass(frozen=True)
class FootprintResponse:
    """The probe, the skin's response to unit vertical loads under it, and
    the footprint loads as a function of depth.

    nodes are the surface nodes within the probe's radius, and height the
    circle's height over each (sqrt(r^2 - x^2), x the node's offset from the
    probe's centre).  Column j of fields is the displacement (ndof, mm)
    under a unit upward load (1 N/mm) on the vertical DOF of nodes[j], with
    the bottom fixed; compliance[i, j] is the vertical displacement of
    nodes[i] in it, and stress[j] the stress at the mesh's afferent nodes
    (rows in AFFERENT_TYPES order, 4 components, MPa).  For footprint loads
    f the field is fields @ f and the stress is f @ stress.  residual is the
    largest relative residual of the unit-load solves.

    The depth -> load table has one segment per contact set A the rule can
    produce, shallowest first: segment_active[s] (the nodes of the s + 1
    greatest heights, heights within _contact's 1e-12 mm of each other
    counting as one), segment_depth[s] = r - min(height[A]), where its last
    node joins, and segment_loads[s], zero off A: the loads for the profile
    at that depth (as _contact forms it), and for unit prescribed values.
    Referred to its own start, a segment's two terms do not cancel where a
    node barely touches.
    """

    nodes: np.ndarray  # (n_c,)
    radius: float  # mm
    height: np.ndarray  # (n_c,) mm
    fields: np.ndarray  # (ndof, n_c)
    compliance: np.ndarray  # (n_c, n_c)
    stress: np.ndarray  # (n_c, afferents, 4)
    residual: float
    segment_depth: np.ndarray  # (n_s,) mm
    segment_active: np.ndarray  # (n_s, n_c) bool
    segment_loads: np.ndarray  # (n_s, 2, n_c) N/mm, and N/mm per mm


@dataclass
class IndentationResult:
    stress_traces: dict[str, np.ndarray]  # read-only von Mises stress (Pa) by type
    contact_sets: int  # segments of the footprint's table that the trace reaches
    # (n_steps, n_c) footprint loads in N/mm, positive upward, columns in
    # footprint.nodes order; exactly 0 off the contact set and on unsolved steps
    loads: np.ndarray


# --------------------------------------------------------------------------
# banded storage and block Cholesky

# Smallest squared Cholesky pivot, as a fraction of max |K_ii|, that a set
# of constrained DOFs may leave.  One rigid-body mode left free gives about
# 1e-16 (round-off); the skin meshes stay above 1e-3.
PIVOT_FLOOR = 1e-12

# Block rows per run: BlockCholesky factors, and BlockTridiagonal.residual
# sums, K a run at a time, which batches the LAPACK calls and reductions and
# keeps the temporaries a few blocks wide (with 16 blocks the set-up's traced
# peak at h = 0.2 mm is 3.5 x K's bytes, with 8 it is 3.1 x).
RUN_BLOCKS = 8

# Unit loads per solve in build_footprint_response.  Chunks start at
# multiples of it, which keeps each column's bits those of one solve over
# all; a lone last column joins the chunk before it, since BLAS takes a
# one-column product by another path, which rounds differently.
UNIT_LOAD_COLUMNS = 8


class BlockTridiagonal:
    """Symmetric matrix held as dense diagonal and sub-diagonal blocks.

    Stored row i is DOF order[i]; the rows past len(order) pad the last
    block and are zero.  `K @ u` takes u of shape (ndof,) or (ndof, c) in
    DOF order.
    """

    def __init__(self, diag: np.ndarray, lower: np.ndarray, order: np.ndarray):
        self.diag = diag  # (nb, b, b)
        self.lower = lower  # (nb - 1, b, b): block (k + 1, k)
        self.order = order
        self.position = np.argsort(order)  # DOF -> stored row

    @classmethod
    def from_elements(
        cls, edof: np.ndarray, ke: np.ndarray, order: np.ndarray
    ) -> BlockTridiagonal:
        """Sum element matrices ke (m, p, p) on DOFs edof (m, p).

        The block size is the largest spread of stored rows within one
        element, so every entry lies in a diagonal block or next to one.
        Only the diagonal and sub-diagonal blocks are summed; the
        super-diagonal ones are their transposes.
        """
        pe = np.argsort(order)[edof]
        b = max(int((pe.max(axis=1) - pe.min(axis=1)).max()), 1)
        nb = -(-order.size // b)
        blk, row = np.divmod(pe, b)  # (m, p) each, broadcast over (m, p, p)
        bi, bj = blk[:, :, None], blk[:, None, :]
        lower = bi == bj + 1
        kept = lower | (bi == bj)
        flat = np.where(lower, nb + bj, bi)  # diagonal blocks, then sub-diagonal
        flat *= b
        flat += row[:, :, None]
        flat *= b
        flat += row[:, None, :]
        flat = flat[kept]  # the full index array goes before the sum
        blocks = np.bincount(
            flat, weights=ke[kept], minlength=(2 * nb - 1) * b * b
        ).reshape(2 * nb - 1, b, b)
        return cls(blocks[:nb], blocks[nb:], order)

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        nb, b = self.diag.shape[:2]
        ub = np.zeros((nb * b, u[0].size))
        ub[: self.order.size] = u[self.order].reshape(self.order.size, -1)
        ub = ub.reshape(nb, b, -1)
        y = self.diag @ ub
        y[1:] += self.lower @ ub[:-1]
        y[:-1] += self.lower.transpose(0, 2, 1) @ ub[1:]
        out = np.empty(u.shape)
        out[self.order] = y.reshape(nb * b, *u.shape[1:])[: self.order.size]
        return out

    def residual(self, f: np.ndarray, x: np.ndarray) -> np.ndarray:
        """f - K x for (nb * b, c) arrays in stored order, summed in extended
        precision (np.longdouble) and rounded once.

        A row's nonzeros are taken in one order, its own block, then block
        k - 1, then k + 1, columns ascending, and np.add.reduceat sums them;
        the rows are gathered RUN_BLOCKS block rows at a time, so no
        mesh-sized copy of K's entries is made.
        """
        nb, b = self.diag.shape[:2]
        shift = np.repeat([0, -b, b], b) + np.tile(np.arange(b), 3)  # band column -> K's, from k*b
        r = f.copy()
        for start in range(0, nb, RUN_BLOCKS):
            stop = min(start + RUN_BLOCKS, nb)
            band = np.zeros((stop - start, b, 3 * b))  # [K_kk, K_k(k-1), K_k(k+1)]
            band[:, :, :b] = self.diag[start:stop]
            band[int(start == 0):, :, b:2 * b] = self.lower[max(start - 1, 0):stop - 1]
            band[:min(stop, nb - 1) - start, :, 2 * b:] = self.lower[start:stop].transpose(0, 2, 1)
            nz = np.flatnonzero(band)  # (k * b + i) * 3b + j, row by row
            vals = band.ravel()[nz].astype(np.longdouble)
            row, j = np.divmod(nz, 3 * b)
            lo = max(start - 1, 0) * b  # x's rows that the run reads, cast exactly
            xt = x[lo:(stop + 1) * b].T.astype(np.longdouble)
            cols = start * b - lo + row - row % b + shift[j]
            starts = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
            rows = start * b + row[starts]
            for c in range(x.shape[1]):  # a column at a time keeps the products small
                kx = np.add.reduceat(vals * xt[c][cols], starts)
                r[rows, c] = (f[rows, c] - kx).astype(float)
        return r


class BlockCholesky:
    """Block Cholesky factor of K restricted to the stored rows `rows`.

    The other rows and columns (constrained DOFs and padding) are replaced
    by max |K_ii| on the diagonal, which decouples them and keeps K's
    blocks.  With B_k the sub-diagonal blocks and S_k the Schur complements
    (S_0 = K_00, S_(k+1) = K_(k+1,k+1) - N_k B_k^T, N_k = B_k S_k^-1), the
    factor is L = (I + N) blockdiag(L_k), L_k L_k^T = S_k.  It stores N_k
    and inv(L_k), so a solve is one sequential sweep each way around two
    batched products, done twice (see solve).  It is built RUN_BLOCKS
    blocks at a time: K, n, inv_l and one run's masked blocks, S_k and L_k
    are alive at once, never a full-size copy of K.  LAPACK factors each
    block alike in a batch of any size, so the factor does not depend on
    the run length.  Raises LinAlgError if a Schur complement is singular
    or not positive definite, or a squared pivot falls below
    PIVOT_FLOOR * max |K_ii|.
    """

    def __init__(self, K: BlockTridiagonal, rows: np.ndarray):
        nb, b = K.diag.shape[:2]
        scale = np.abs(np.einsum("kii->ki", K.diag)).max()
        keep = np.zeros(nb * b)
        keep[rows] = 1.0
        keep = keep.reshape(nb, b)

        self.K = K
        self.rows = rows
        self.n = np.empty_like(K.lower)
        self.inv_l = np.empty_like(K.diag)
        smallest = np.inf  # diagonal entry of any L_k
        update = None  # N_k B_k^T owed to the first Schur complement of the next run
        for start in range(0, nb, RUN_BLOCKS):
            stop = min(start + RUN_BLOCKS, nb)
            kr = keep[start:stop]
            schur = K.diag[start:stop] * kr[:, :, None] * kr[:, None, :]
            blk, i = np.nonzero(kr == 0.0)
            schur[blk, i, i] = scale
            if update is not None:
                schur[0] -= update
            lower = K.lower[start:stop]
            lower = lower * keep[start + 1:stop + 1, :, None] * kr[:len(lower), None, :]
            for j, sub in enumerate(lower):
                self.n[start + j] = np.linalg.solve(schur[j], sub.T).T
                update = self.n[start + j] @ sub.T
                if j + 1 < len(schur):
                    schur[j + 1] -= update
            chol = np.linalg.cholesky(schur)
            smallest = np.minimum(smallest, np.einsum("kii->ki", chol).min())
            self.inv_l[start:stop] = np.linalg.inv(chol)
        pivot = smallest**2 / scale
        if not pivot >= PIVOT_FLOOR:
            raise np.linalg.LinAlgError(
                f"squared pivot {pivot:.1e} of max |K_ii| (below {PIVOT_FLOOR:g}): "
                "the constraints leave a rigid-body mode free"
            )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for rhs of shape (len(rows),) or (len(rows), c).

        The sweeps' answer is refined once against a residual summed in
        extended precision, which brings it to about the accuracy of the
        float64 answer whatever the constrained set: the system's one
        bottom-fixed factor, condensed to a contact set, and a one-shot
        solve with that set fixed (tests/oracles.py) then agree to
        round-off.
        """
        nb, b = self.inv_l.shape[:2]
        f = np.zeros((nb * b, rhs[0].size))
        f[self.rows] = rhs.reshape(self.rows.size, -1)
        x = self._sweeps(f)
        f = self.K.residual(f, x)  # the correction's right-hand side
        kept = np.zeros(len(f), dtype=bool)
        kept[self.rows] = True
        f[~kept] = 0.0
        x += self._sweeps(f)
        return x[self.rows].reshape(rhs.shape)

    def _sweeps(self, f: np.ndarray) -> np.ndarray:
        """L^-T L^-1 f for f of shape (nb * b, c) in stored order."""
        nb, b = self.inv_l.shape[:2]
        y = f.reshape(nb, b, -1).copy()
        ys = list(y)  # a view per block
        for n, prev, cur in zip(self.n, ys, ys[1:]):
            cur -= n @ prev
        y = self.inv_l.transpose(0, 2, 1) @ (self.inv_l @ y)
        ys = list(y)
        for n, nxt, cur in zip(self.n[::-1], ys[:0:-1], ys[-2::-1]):
            cur -= n.T @ nxt
        return y.reshape(nb * b, -1)


# --------------------------------------------------------------------------
# assembly


class StiffnessSystem:
    """Assembled global stiffness plus the per-element data stress recovery
    reads (DOFs, D and Poisson's ratio); it holds no strain matrices, which
    recover_stress forms for the elements it visits."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.ndof = 2 * mesh.n_nodes

        d_table = np.stack(
            [plane_strain_d(m.elastic_modulus_mpa, m.poisson_ratio) for m in mesh.materials])
        nu = np.array([m.poisson_ratio for m in mesh.materials])
        self.nu_by_element = nu[mesh.element_material]
        self.d_by_element = d = d_table[mesh.element_material]  # (m, 3, 3)

        grads, dets = gauss_gradients(mesh)  # (4, m, 2, 4), (4, m)
        m = mesh.n_elements
        # ke[a, p, c, q] couples DOF p of node a with DOF q of node c; the
        # element axis comes last, so every product runs over all elements
        # in one stride
        ke = np.zeros((4, 2, 4, 2, m))
        prod, term = np.empty_like(ke), np.empty_like(ke)  # reused by every Gauss point
        d_pq = d[:, :2, :2].transpose(1, 2, 0)[None]  # (1, p, q, m)
        d_22 = d[:, 2, 2]
        for dnxy, det in zip(grads, dets):
            # B^T D B det J by node pairs (2x2 Gauss weights are all 1).  Row p < 2
            # of B is dN/dx_p on DOF p and zero on the other; the shear row is
            # dN/dx_(1-q) on DOF q.  So of D's five nonzero entries, pairing (p, q)
            # keeps (j, k) = (p, q) and (2, 2); the others multiply a zero of B.
            # The kept terms, ((B_ja D_jk) B_kc) det J, are added in the order of
            # the tests' four-operand einsum, so K matches it bit for bit.
            grad = np.ascontiguousarray(dnxy.transpose(2, 1, 0))  # (a, p, m): dN_a/dx_p
            shear = grad[:, ::-1]  # dN_a/dx_(1-p)
            np.multiply((grad[:, :, None] * d_pq)[:, :, None], grad, out=prod)
            prod *= det
            np.multiply((shear * d_22)[:, :, None, None], shear, out=term)
            term *= det
            prod += term
            ke += prod
        del prod, term, grads, dnxy
        ke = ke.reshape(64, m).T.reshape(m, 8, 8)

        edof = np.empty((m, 8), dtype=np.int64)
        edof[:, 0::2] = 2 * mesh.elements
        edof[:, 1::2] = 2 * mesh.elements + 1
        self.edof = edof
        # nodes by (x, y): column after column on the structured grid, where
        # an element couples two neighbouring columns, so K is banded
        by_xy = np.lexsort((mesh.nodes[:, 1], mesh.nodes[:, 0]))
        order = np.column_stack([2 * by_xy, 2 * by_xy + 1]).ravel()
        self.K = BlockTridiagonal.from_elements(edof, ke, order)


# --------------------------------------------------------------------------
# constraints and contact


def bottom_constraints(mesh: Mesh) -> dict[int, float]:
    """Fix both DOFs of every node on the bottom boundary (the bone)."""
    y_min = mesh.nodes[:, 1].min()
    out: dict[int, float] = {}
    for n in np.flatnonzero(np.abs(mesh.nodes[:, 1] - y_min) < 1e-12):
        out[2 * int(n)] = 0.0
        out[2 * int(n) + 1] = 0.0
    return out


def _contact(footprint: FootprintResponse, depths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The contact rule at many depths at once.

    Returns (profile, active) for the footprint nodes: the circle profile
    above each at each depth (n_depths, n_nodes), and whether the node is in
    contact (gap to the undeformed surface non-positive, indenter not
    lifted).
    """
    profile = (footprint.radius - depths)[:, None] - footprint.height
    active = (profile <= 1e-12) & (depths >= 0)[:, None]
    return profile, active


# --------------------------------------------------------------------------
# stress recovery


def recover_stress(
    system: StiffnessSystem, u: np.ndarray, node_ids: np.ndarray
) -> np.ndarray:
    """Nodal stress [s_xx, s_yy, s_zz, t_xy] in MPa at node_ids.

    Gauss-point stresses are extrapolated to element corners with the
    bilinear basis and averaged over all elements sharing each node.  Only
    elements touching node_ids are visited, in mesh order, so the result at
    a node does not depend on which other nodes are asked for.
    """
    mesh = system.mesh
    targets = np.asarray(node_ids, dtype=np.int64)
    elem_idx = np.flatnonzero(np.isin(mesh.elements, targets).any(axis=1))

    elems = mesh.elements[elem_idx]
    dnxy = gauss_gradients(mesh, elem_idx)[0].transpose(1, 0, 2, 3)  # (me, 4, 2, 4)
    b = np.zeros((elem_idx.size, 4, 3, 8))  # strain-displacement matrices
    b[..., 0, 0::2] = b[..., 2, 1::2] = dnxy[..., 0, :]
    b[..., 1, 1::2] = b[..., 2, 0::2] = dnxy[..., 1, :]
    ue = u[system.edof[elem_idx]]  # (me, 8)
    eps = np.einsum("egij,ej->egi", b, ue)  # (me, 4, 3)
    sig = np.einsum("eij,egj->egi", system.d_by_element[elem_idx], eps)  # (me, 4, 3)
    szz = system.nu_by_element[elem_idx][:, None] * (sig[..., 0] + sig[..., 1])
    gauss = np.concatenate([sig[..., :2], szz[..., None], sig[..., 2:]], axis=2)
    corner = np.einsum("cg,egk->eck", EXTRAPOLATION, gauss)  # (me, 4, 4)

    sums = np.zeros((mesh.n_nodes, 4))
    counts = np.zeros(mesh.n_nodes)
    np.add.at(sums, elems.ravel(), corner.reshape(-1, 4))
    np.add.at(counts, elems.ravel(), 1.0)
    return sums[targets] / counts[targets, None]


# Sample spacing of surface_deflection (the profile that validate writes).
DEFLECTION_SPACING_MM = 0.5


def surface_deflection(mesh: Mesh, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Downward surface deflection sampled every DEFLECTION_SPACING_MM from
    the center outward (x >= 0)."""
    xs = mesh.nodes[mesh.surface_nodes, 0]
    defl = -u[2 * mesh.surface_nodes + 1]
    r = np.arange(0.0, xs.max() + DEFLECTION_SPACING_MM / 2.0, DEFLECTION_SPACING_MM)
    return r, np.interp(r, xs, defl)


# --------------------------------------------------------------------------
# the skin condensed to the indenter's footprint


def build_footprint_response(
    system: StiffnessSystem, diameter_mm: float, center_x_mm: float
) -> FootprintResponse:
    """The probe diameter_mm wide centred at x = center_x_mm, the skin's
    response to a unit vertical load on each surface node within its radius,
    and the table of footprint loads over depth built from it.

    K is factored with only the bottom fixed, and the unit loads go through
    it UNIT_LOAD_COLUMNS at a time, each chunk's residual checked as it is
    solved; the factor is dropped once they all are.
    Each contact segment then takes one small dense solve (_contact_loads).
    Raises ValidationError if the diameter or the centre is not finite (or
    the diameter not > 0, or so large that its radius squared is not), the
    mesh does not name all its afferent nodes or the probe covers no surface
    node, so that it can never touch the skin, and NumericalError if the
    factorization fails, a column's free-DOF residual exceeds 1e-8 of its
    (unit) load, or a segment's solve fails (named by its start depth,
    whether or not any trace reaches it).
    """
    if not (np.isfinite(diameter_mm) and diameter_mm > 0):
        raise ValidationError(f"diameter_mm must be finite and > 0, got {diameter_mm}")
    radius = diameter_mm / 2.0
    # a product: radius**2 raises OverflowError where this gives inf
    if not np.isfinite(radius * radius):
        raise ValidationError(f"diameter_mm={diameter_mm} is too large: the square "
                              "of its radius overflows a float")
    if not np.isfinite(center_x_mm):
        raise ValidationError(f"center_x_mm must be finite, got {center_x_mm}")
    mesh = system.mesh
    if set(mesh.afferent_nodes) != set(AFFERENT_TYPES):
        raise ValidationError(f"mesh.afferent_nodes must cover {AFFERENT_TYPES}, "
                              f"got {sorted(mesh.afferent_nodes)}")
    xs = mesh.nodes[mesh.surface_nodes, 0] - center_x_mm
    inside = np.abs(xs) <= radius + 1e-12
    nodes, xs = mesh.surface_nodes[inside], xs[inside]
    if nodes.size == 0:
        raise ValidationError(
            f"an indenter {diameter_mm} mm wide centred at x = {center_x_mm} mm "
            "covers no surface node: it can never touch the skin"
        )
    fixed = np.fromiter(bottom_constraints(mesh), dtype=np.int64)
    mask = np.ones(system.ndof, dtype=bool)
    mask[fixed] = False
    free = np.flatnonzero(mask)
    try:
        factor = BlockCholesky(system.K, system.K.position[free])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"stiffness factorization failed with {fixed.size} constrained "
                             f"DOFs: {exc}") from exc

    fields = np.zeros((system.ndof, nodes.size))
    residual = np.empty(nodes.size)
    starts = range(0, max(nodes.size - 1, 1), UNIT_LOAD_COLUMNS)  # no lone last column
    for c0, c1 in zip(starts, [*starts[1:], nodes.size]):
        loads = np.zeros((system.ndof, c1 - c0))
        loads[2 * nodes[c0:c1] + 1, np.arange(c1 - c0)] = 1.0
        fields[free, c0:c1] = factor.solve(loads[free])
        residual[c0:c1] = np.linalg.norm((system.K @ fields[:, c0:c1] - loads)[free], axis=0)
    del factor
    bad = ~(residual <= 1e-8)  # NaN counts as failed
    if np.any(bad):
        j = np.flatnonzero(bad)[0]
        raise NumericalError(f"unit load at footprint node {nodes[j]}: solve residual "
                             f"{residual[j]:.3e} exceeds 1e-8 relative")
    height = np.sqrt(np.maximum(radius**2 - xs**2, 0.0))
    compliance = fields[2 * nodes + 1]
    tops = np.sort(height)[::-1]
    tops = tops[np.r_[tops[:-1] - tops[1:] > 1e-12, True]]  # lowest of each 1e-12 group
    active = height >= tops[:, None]  # (segments, n_c), nested
    start = radius - tops
    profile = (radius - start)[:, None] - height  # as _contact forms it
    table = np.zeros((tops.size, 2, nodes.size))
    for s, a in enumerate(active):
        g = np.column_stack([profile[s, a], np.ones(a.sum())])
        try:
            table[s][:, a] = _contact_loads(compliance[np.ix_(a, a)], g).T
        except NumericalError as exc:
            raise NumericalError(f"contact segment from depth {start[s]:.6f} mm: {exc}") from exc
    afferent_ids = np.array([mesh.afferent_nodes[t] for t in AFFERENT_TYPES])
    return FootprintResponse(
        nodes=nodes, radius=radius, height=height,
        fields=fields, compliance=compliance,
        stress=np.array([recover_stress(system, u, afferent_ids) for u in fields.T]),
        residual=float(residual.max(initial=0.0)),
        segment_depth=start, segment_active=active, segment_loads=table,
    )


def _contact_loads(compliance: np.ndarray, displacements: np.ndarray) -> np.ndarray:
    """Footprint loads that give a contact set its prescribed displacements.

    compliance is C restricted to the set (n_A x n_A), displacements
    (n_A, c) one column per field.  Raises NumericalError if C_AA is
    singular or a column's residual exceeds 1e-8 of its right-hand side.
    """
    try:
        loads = np.linalg.solve(compliance, displacements)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"footprint compliance of {len(compliance)} contact nodes is "
                             f"singular: {exc}") from exc
    residual = np.linalg.norm(compliance @ loads - displacements, axis=0)
    bad = ~(residual <= 1e-8 * np.linalg.norm(displacements, axis=0))
    if np.any(bad):
        raise NumericalError(f"contact-set solve residual {np.max(residual[bad]):.3e} exceeds "
                             f"1e-8 relative ({len(compliance)} contact nodes)")
    return loads


# --------------------------------------------------------------------------
# time stepping


def run_indentation(footprint: FootprintResponse, indenter: IndenterSpec) -> IndentationResult:
    """Step the probe of `footprint` through the indenter's displacement trace.

    It computes the footprint loads at every step (N/mm, positive upward);
    the von Mises stress (Pa) at each afferent node is their product with
    the footprint's stress per unit load.  The contact rule is applied to
    all steps at once, with the circle at pre_indentation + trace[k].  Steps
    where nothing is prescribed, or every prescribed value is zero (indenter
    lifted or exactly grazing), get zero loads.  The profile (r - depth) -
    height rounds monotonically in height, so each solved step's count of
    contact nodes names its segment of the footprint's table, and its loads
    are that segment's f_start - (delta_k - delta_start) * f_1, with delta =
    r - (r - depth) the depth as the profile rounds it.  No system is
    solved, and one depth gives the same loads in every trace.  The probe's
    radius, its footprint nodes and the afferent nodes all come from
    `footprint`, so one response serves every trace of that probe on its
    mesh.
    """
    depths = indenter.pre_indentation_mm + np.asarray(indenter.displacement_trace, float)
    profile, active = _contact(footprint, depths)

    solved = np.flatnonzero((active & (profile != 0.0)).any(axis=1))
    sizes = np.count_nonzero(footprint.segment_active, axis=1)
    segment = np.searchsorted(sizes, np.count_nonzero(active[solved], axis=1))
    radius = footprint.radius
    delta = radius - (radius - depths)  # the depth as the profile rounds it
    start = radius - (radius - footprint.segment_depth[segment])
    table = footprint.segment_loads[segment]
    loads = np.zeros((depths.size, footprint.nodes.size))
    loads[solved] = table[:, 0] - (delta[solved] - start)[:, None] * table[:, 1]

    # MPa -> Pa for the neural stage, one row per afferent type
    pa = (von_mises(np.tensordot(loads, footprint.stress, axes=1)) * 1.0e6).T.copy()
    pa.setflags(write=False)
    return IndentationResult(stress_traces=dict(zip(AFFERENT_TYPES, pa)),
                             contact_sets=len(set(segment.tolist())), loads=loads)
