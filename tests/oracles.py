"""Reference implementations that the tests compare the program against.

Each is the plain form of something the program computes in a faster or
fused way, or (load_mesh, params_to_genes, write_protocol_file,
window_spec) the reader of an export, the inverse of a map or the writer of
an input that only the tests need; none of them is on a command's path.
"""

import dataclasses
import json
import weakref

import numpy as np

from afferentsim import fem
from afferentsim.errors import ValidationError
from afferentsim.mesh import AFFERENT_TYPES, Mesh, MaterialLayer, check_jacobians, gauss_gradients
from afferentsim.optimize import FITTED_PARAMETERS, OBJECTIVE_FREQS, genes_to_params
from afferentsim.stimulus import StimulusSpec


def stress_to_drive(inputs, params):
    """Drive in mV/ms over whole traces: alpha' * sum_j |f_j| / (a_j + |f_j|).

    The terms are summed in chain order and then scaled, the same IEEE
    operations SpikeCounter applies to one step of every unit, so the two
    agree bit for bit.
    """
    sats = params.saturation()
    assert len(inputs) == len(sats), (len(inputs), sats)
    drive = None
    for f, a in zip(inputs, sats):
        f = np.abs(np.asarray(f, dtype=float))
        term = f / (a + f)
        drive = term if drive is None else drive + term
    return drive * params.alpha_prime


# system -> {constrained DOFs: their BlockCholesky factor}
_FACTORS = weakref.WeakKeyDictionary()


def constrained_solve(system, constraints):
    """u prescribed on the DOFs of `constraints` ({DOF: value}) and K u = 0
    on the others: the one-shot solve with any constrained set, against
    which the footprint path is checked.

    Each set's factor is kept per system, since the per-step oracles
    revisit a few sets hundreds of times.  Raises LinAlgError if the
    constraints leave K singular.
    """
    fixed = np.array(sorted(constraints), dtype=np.int64)
    free = np.setdiff1d(np.arange(system.ndof), fixed)
    u = np.zeros(system.ndof)
    u[fixed] = [constraints[d] for d in fixed]
    factors = _FACTORS.setdefault(system, {})
    key = tuple(fixed.tolist())
    if key not in factors:
        factors[key] = fem.BlockCholesky(system.K, system.K.position[free])
    u[free] = factors[key].solve(-(system.K @ u)[free])
    return u


def batched_block_cholesky(K, rows):
    """BlockCholesky's (n, inv_l) from full-size masked copies of K's blocks,
    with one np.linalg.cholesky and one np.linalg.inv over all the blocks.

    Raises LinAlgError where BlockCholesky does (a singular or indefinite
    Schur complement, or a squared pivot below PIVOT_FLOOR of max |K_ii|).
    """
    nb, b = K.diag.shape[:2]
    scale = np.abs(np.einsum("kii->ki", K.diag)).max()
    keep = np.zeros(nb * b)
    keep[rows] = 1.0
    blk, i = np.divmod(np.flatnonzero(keep == 0.0), b)
    keep = keep.reshape(nb, b)
    schur = K.diag * keep[:, :, None] * keep[:, None, :]
    schur[blk, i, i] = scale
    lower = K.lower * keep[1:, :, None] * keep[:-1, None, :]
    n = np.empty_like(lower)
    for k in range(nb - 1):
        n[k] = np.linalg.solve(schur[k], lower[k].T).T
        schur[k + 1] -= n[k] @ lower[k].T
    chol = np.linalg.cholesky(schur)
    if not np.einsum("kii->ki", chol).min() ** 2 / scale >= fem.PIVOT_FLOOR:
        raise np.linalg.LinAlgError("the constraints leave a rigid-body mode free")
    return n, np.linalg.inv(chol)


def sorted_entries_residual(K, f, x):
    """BlockTridiagonal.residual from all of K's nonzeros at once: gathered
    block by block, sorted by stored row (stable) and summed per row by one
    np.add.reduceat in extended precision for each column."""
    b = K.diag.shape[1]
    k, i, j = np.nonzero(K.diag)
    kl, il, jl = np.nonzero(K.lower)
    rows = np.concatenate([k * b + i, (kl + 1) * b + il, kl * b + jl])
    cols = np.concatenate([k * b + j, kl * b + jl, (kl + 1) * b + il])
    vals = np.concatenate([K.diag[k, i, j], K.lower[kl, il, jl], K.lower[kl, il, jl]])
    by_row = np.argsort(rows, kind="stable")
    rows, cols, vals = rows[by_row], cols[by_row], vals[by_row].astype(np.longdouble)
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    r = f.copy()
    for c in range(x.shape[1]):
        kx = np.add.reduceat(vals * x[cols, c], starts)
        r[rows[starts], c] = (f[rows[starts], c] - kx).astype(float)
    return r


def params_to_genes(params):
    """The gene vector that genes_to_params maps back to `params`: each
    fitted field, encoded as its FITTED_PARAMETERS row says."""
    return np.array([np.log10(getattr(params, name)) if log10 else getattr(params, name)
                     for name, _, _, log10 in FITTED_PARAMETERS[params.afferent_type]])


def front_csv_text(front, afferent_type, provenance):
    """front_to_csv's text, decoding one row at a time with genes_to_params."""
    param_cols = [name for name, _, _, _ in FITTED_PARAMETERS[afferent_type]]
    order = sorted(
        range(front.genes.shape[0]),
        key=lambda i: (
            int(front.ranks[i]),
            float(front.objectives[i].sum()),
            tuple(float(g) for g in front.genes[i]),
        ),
    )
    lines = [f"# provenance: {provenance}\n"]
    obj_cols = ",".join(f"objective_{int(f)}" for f in OBJECTIVE_FREQS)
    lines.append(f"rank,{obj_cols},{','.join(param_cols)}\n")
    for i in order:
        params = genes_to_params(afferent_type, front.genes[i])
        vals = [float(front.objectives[i][j]) for j in range(len(OBJECTIVE_FREQS))]
        vals += [float(getattr(params, c)) for c in param_cols]
        lines.append(f"{int(front.ranks[i])}," + ",".join(repr(v) for v in vals) + "\n")
    return "".join(lines)


def dominates(a, b):
    """Minimization dominance: a no worse everywhere, better somewhere."""
    return bool(np.all(a <= b) and np.any(a < b))


def stress_csv_text(values, afferent_type, node_id, provenance):
    """fem.stress_csv_text's text, one row at a time from NumPy scalars."""
    dt = 0.5
    lines = ["# afferent,node,dt_ms\n", f"# {afferent_type},{node_id},{dt!r}\n",
             f"# provenance: {provenance}\n", "t_ms,sigma_pa\n"]
    for k, v in enumerate(values):
        lines.append(f"{k * dt!r},{float(v)!r}\n")
    return "".join(lines)


def einsum_stiffness(system):
    """system's K assembled from element matrices sum_g B_g^T D B_g det J_g,
    each taken by one four-operand einsum over the full 3 x 3 D, with the
    strain matrices B formed here from the mesh's Gauss-point gradients."""
    grads, dets = gauss_gradients(system.mesh)  # (4, m, 2, 4), (4, m)
    ke = np.zeros((system.mesh.n_elements, 8, 8))
    for dnxy, det in zip(grads, dets):
        b = np.zeros((system.mesh.n_elements, 3, 8))
        b[:, 0, 0::2] = dnxy[:, 0]
        b[:, 1, 1::2] = dnxy[:, 1]
        b[:, 2, 0::2] = dnxy[:, 1]
        b[:, 2, 1::2] = dnxy[:, 0]
        ke += np.einsum("mji,mjk,mkl,m->mil", b, system.d_by_element, b, det)
    return fem.BlockTridiagonal.from_elements(system.edof, ke, system.K.order)


def mesh_text(mesh):
    """export_mesh_text's text, one record at a time from NumPy scalars."""
    lines = ["afferentsim-mesh v1"]
    for i, (x, y) in enumerate(mesh.nodes):
        lines.append(f"N {i} {float(x)!r} {float(y)!r}")
    for i, (quad, mat) in enumerate(zip(mesh.elements, mesh.element_material)):
        a, b, c, d = (int(v) for v in quad)
        lines.append(f"E {i} {a} {b} {c} {d} {int(mat)}")
    for atype in AFFERENT_TYPES:
        if atype in mesh.afferent_nodes:
            lines.append(f"A {atype} {mesh.afferent_nodes[atype]}")
    return "\n".join(lines) + "\n"


def load_mesh(path, materials: list[MaterialLayer]) -> Mesh:
    """Inverse of export_mesh_text; materials are not stored in the file."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "afferentsim-mesh v1":
        raise ValidationError(f"{path}: not an afferentsim-mesh v1 file")
    nodes, elements, mats, afferents = [], [], [], {}
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "N":
            nodes.append((float(parts[2]), float(parts[3])))
        elif parts[0] == "E":
            elements.append([int(p) for p in parts[2:6]])
            mats.append(int(parts[6]))
        elif parts[0] == "A":
            afferents[parts[1]] = int(parts[2])
        else:
            raise ValidationError(f"{path}: unknown record {parts[0]!r}")
    node_arr = np.array(nodes, dtype=np.float64)
    elem_arr = np.array(elements, dtype=np.int64)
    mat_arr = np.array(mats, dtype=np.int64)
    if mat_arr.size and mat_arr.max() >= len(materials):
        raise ValidationError(
            f"{path}: element material index {mat_arr.max()} out of range for "
            f"{len(materials)} materials"
        )
    surface = np.flatnonzero(np.abs(node_arr[:, 1]) < 1e-12)
    surface = surface[np.argsort(node_arr[surface, 0], kind="stable")]
    mesh = Mesh(
        nodes=node_arr,
        elements=elem_arr,
        element_material=mat_arr,
        materials=tuple(materials),
        surface_nodes=surface.astype(np.int64),
        afferent_nodes=afferents,
    )
    check_jacobians(mesh)
    return mesh


def write_protocol_file(specs, path, name="custom"):
    """A protocol file as load_protocol reads it: its name and one object per
    stimulus, holding the StimulusSpec fields that are set.  A stimulus given
    as a dict of fields is written as it is, so that a file can hold one that
    no StimulusSpec can."""
    stimuli = [s if isinstance(s, dict) else
               {k: v for k, v in dataclasses.asdict(s).items() if v is not None}
               for s in specs]
    with open(path, "w") as fh:
        json.dump({"name": name, "stimuli": stimuli}, fh, indent=2)


def window_spec(start_ms, end_ms):
    """The StimulusSpec that pairs a synthetic stress trace with the count
    window [start_ms, end_ms) in a bank: a silent sinusoid of that length,
    whose id names the window."""
    return StimulusSpec(
        stimulus_id=f"window_{start_ms:g}-{end_ms:g}ms", kind="sinusoid", duration_ms=end_ms,
        discard_ms=start_ms, window_ms=end_ms - start_ms, freq_hz=20.0, amplitude_um=0.0,
    )
