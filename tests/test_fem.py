import dataclasses
import functools
import json
import logging
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from afferentsim import config, fem, mesh, pipeline, stimulus
from afferentsim.errors import InvertedElementError, NumericalError, ValidationError
from afferentsim.mesh import AFFERENT_TYPES
from conftest import graded_square_mesh
from oracles import (
    batched_block_cholesky,
    constrained_solve,
    einsum_stiffness,
    sorted_entries_residual,
    stress_csv_text,
    write_protocol_file,
)

SOFT = mesh.MaterialLayer("soft", 1.0, 0.3, (0.0, 1.0))


def single_element_mesh(E=1.0, nu=0.0):
    """one unit-square element, nodes CCW from the bottom-left corner"""
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return mesh.Mesh(
        nodes=nodes,
        elements=np.array([[0, 1, 2, 3]], dtype=np.int64),
        element_material=np.array([0], dtype=np.int64),
        materials=(mesh.MaterialLayer("m", E, nu, (0.0, 1.0)),),
        surface_nodes=np.array([0, 1], dtype=np.int64),
        afferent_nodes={},
    )


def test_unit_square_stiffness_matches_analytic_integrals():
    # For nu = 0 the constitutive matrix is E*diag(1, 1, 1/2) and the
    # integrals of shape-gradient products over the unit square are
    # closed-form: K[0,0] = E*(1/3 + 1/6) = E/2, K[0,1] = E/8.
    system = fem.StiffnessSystem(single_element_mesh(E=2.0, nu=0.0))
    K = system.K @ np.eye(8)  # the dense matrix, column by column
    E = 2.0
    assert K[0, 0] == pytest.approx(E * 0.5, rel=1e-12)
    assert K[0, 1] == pytest.approx(E * 0.125, rel=1e-12)
    assert K[1, 1] == pytest.approx(E * 0.5, rel=1e-12)
    # rigid-body modes: rows sum to zero over matching translation DOFs
    ux = np.zeros(8)
    ux[0::2] = 1.0
    assert np.abs(K @ ux).max() < 1e-12


def test_stiffness_symmetric(default_system):
    ndof = default_system.ndof
    K = np.empty((ndof, ndof))
    for cols in np.array_split(np.arange(ndof), 10):  # identity columns, in chunks
        e = np.zeros((ndof, cols.size))
        e[cols, np.arange(cols.size)] = 1.0
        K[:, cols] = default_system.K @ e
    asym = max(abs(K[rows] - K[:, rows].T).max() for rows in np.array_split(np.arange(ndof), 10))
    assert asym <= 1e-12 * abs(K).max()


def test_patch_constant_strain_reproduced():
    m = graded_square_mesh()
    system = fem.StiffnessSystem(m)
    a, b, c, d, e, f = 0.001, 0.004, -0.002, -0.003, 0.002, 0.005
    exact = np.column_stack([
        a + b * m.nodes[:, 0] + c * m.nodes[:, 1],
        d + e * m.nodes[:, 0] + f * m.nodes[:, 1],
    ])
    boundary = np.flatnonzero(
        (m.nodes[:, 0] == m.nodes[:, 0].min()) | (m.nodes[:, 0] == m.nodes[:, 0].max())
        | (m.nodes[:, 1] == m.nodes[:, 1].min()) | (m.nodes[:, 1] == m.nodes[:, 1].max())
    )
    constraints = {}
    for nid in boundary:
        constraints[2 * nid] = exact[nid, 0]
        constraints[2 * nid + 1] = exact[nid, 1]
    u = constrained_solve(system, constraints)
    err = np.abs(u.reshape(-1, 2) - exact).max() / np.abs(exact).max()
    assert err <= 1e-9

    # recovered stress equals D @ [b, f, c+e] everywhere
    E, nu = 1.0, 0.3
    expected = fem.plane_strain_d(E, nu) @ np.array([b, f, c + e])
    sig = fem.recover_stress(system, u, np.arange(m.n_nodes))
    assert np.abs(sig[:, 0] - expected[0]).max() <= 1e-9
    assert np.abs(sig[:, 1] - expected[1]).max() <= 1e-9
    assert np.abs(sig[:, 3] - expected[2]).max() <= 1e-9
    assert np.abs(sig[:, 2] - nu * (expected[0] + expected[1])).max() <= 1e-9


def test_stress_recovery_subset_matches_full():
    m = graded_square_mesh()
    system = fem.StiffnessSystem(m)
    rng = np.random.default_rng(7)
    u = rng.normal(scale=1e-3, size=2 * m.n_nodes)
    full = fem.recover_stress(system, u, np.arange(m.n_nodes))
    subset = np.array([0, 3, 7, m.n_nodes - 1])
    partial = fem.recover_stress(system, u, node_ids=subset)
    assert np.array_equal(partial, full[subset])


def contact_active_set(footprint, depth_mm):
    """The contact rule at one depth, {vertical DOF: prescribed value}, as
    fem._contact applies it to a whole trace."""
    profile, active = fem._contact(footprint, np.array([depth_mm]))
    nodes = footprint.nodes[active[0]]
    return {2 * int(n) + 1: p for n, p in zip(nodes, profile[0, active[0]])}


def test_contact_active_set_contiguous_symmetric(default_mesh, default_footprint):
    active = contact_active_set(default_footprint, depth_mm=0.3)
    assert active
    nodes = sorted(dof // 2 for dof in active)
    xs = np.sort(default_mesh.nodes[nodes, 0])
    # contiguous on the surface grid and symmetric about the center
    spacing = np.diff(np.sort(default_mesh.nodes[default_mesh.surface_nodes, 0]))
    assert np.allclose(np.diff(xs), spacing[0], atol=1e-9)
    assert np.allclose(xs + xs[::-1], 0.0, atol=1e-12)
    assert all(v <= 0.0 for v in active.values())

    deeper = contact_active_set(default_footprint, depth_mm=0.5)
    assert set(active).issubset(set(deeper))
    assert contact_active_set(default_footprint, depth_mm=-0.1) == {}


def test_solve_linearity_with_pinned_active_set(default_mesh, default_system,
                                                default_footprint):
    active = contact_active_set(default_footprint, depth_mm=0.2)
    base = fem.bottom_constraints(default_mesh)
    u1 = constrained_solve(default_system, {**base, **active})
    doubled = {k: 2.0 * v for k, v in active.items()}
    u2 = constrained_solve(default_system, {**base, **doubled})
    assert np.allclose(u2, 2.0 * u1, rtol=1e-12, atol=1e-15)
    s1 = fem.recover_stress(default_system, u1, node_ids=np.array([100, 500]))
    s2 = fem.recover_stress(default_system, u2, node_ids=np.array([100, 500]))
    assert np.allclose(s2, 2.0 * s1, rtol=1e-12, atol=1e-18)


@pytest.mark.parametrize("constraints", [
    {0: 0.0, 1: 0.0, 2: 0.1},  # node 0 pinned, node 1 held in x: rotation is free
    {1: 0.0, 3: 0.0, 5: 0.1},  # vertical DOFs only: x translation is free
])
def test_underconstrained_solve_raises(constraints):
    system = fem.StiffnessSystem(single_element_mesh())
    free = np.setdiff1d(np.arange(system.ndof), list(constraints))
    with pytest.raises(np.linalg.LinAlgError):
        fem.BlockCholesky(system.K, system.K.position[free])


# ------------------------------------------ sparse direct solver (oracle)


def sparse_stiffness(system):
    """system.K entry for entry as a SciPy matrix in DOF order, built from
    its diagonal blocks, its sub-diagonal blocks and their transposes."""
    K, n = system.K, system.ndof
    b = K.diag.shape[1]
    k, i, j = np.indices(K.diag.shape)
    kl, il, jl = np.indices(K.lower.shape)
    rows = np.concatenate([k * b + i, (kl + 1) * b + il, kl * b + jl], axis=None)
    cols = np.concatenate([k * b + j, kl * b + jl, (kl + 1) * b + il], axis=None)
    vals = np.concatenate([K.diag, K.lower, K.lower], axis=None)
    kept = (vals != 0.0) & (rows < n) & (cols < n)
    return sp.csc_matrix(
        (vals[kept], (K.order[rows[kept]], K.order[cols[kept]])), shape=(n, n)
    )


def spsolve_fields(system, K, constraints):
    """constrained_solve's fields from SuperLU on the same K_ff."""
    fixed = np.array(sorted(constraints))
    vals = np.array([constraints[d] for d in fixed], dtype=float)
    free = np.setdiff1d(np.arange(system.ndof), fixed)
    u = np.zeros((system.ndof, *vals.shape[1:]))
    u[fixed] = vals
    rhs = -(K[free][:, fixed] @ vals)
    u[free] = spsolve(K[free][:, free].tocsc(), rhs).reshape(rhs.shape)
    return u


def appendix_a_contact_sets(footprint):
    """Every active set appendixA's sinusoids reach, with the depth and the
    profile at the shallowest and at the deepest step of each: the two ends
    of the set as the protocol reaches it."""
    specs = stimulus.builtin_protocol("appendixA", base_seed=0)
    depths = np.concatenate([spec.generate() for spec in specs])
    nodes = footprint.nodes
    profile, active = fem._contact(footprint, depths)
    solved = np.flatnonzero((active & (profile != 0.0)).any(axis=1))
    solved = solved[np.argsort(depths[solved], kind="stable")]
    sets, first = np.unique(active[solved], axis=0, return_index=True)
    _, last = np.unique(active[solved][::-1], axis=0, return_index=True)
    ends = zip(solved[first], solved[solved.size - 1 - last])
    return [(nodes[s], [(depths[k], profile[k, s]) for k in ks])
            for s, ks in zip(sets, ends)]


@pytest.mark.parametrize("h", [0.2, 0.1])
def test_solve_matches_spsolve_on_appendix_a_sets(h):
    """run_indentation's afferent stresses at both ends of each contact set
    that appendixA reaches match SuperLU's solve with that set prescribed."""
    cfg = config.config_from_dict({"geometry": {"surface_element_mm": h}})
    m = mesh.build_mesh(cfg.geometry, cfg.materials)
    system = fem.StiffnessSystem(m)
    K = sparse_stiffness(system)
    afferent_ids = np.array([m.afferent_nodes[t] for t in AFFERENT_TYPES])
    base = fem.bottom_constraints(m)
    footprint = fem.build_footprint_response(system, 1.0, 0.0)
    contact_sets = appendix_a_contact_sets(footprint)
    assert len(contact_sets) >= 3
    steps = [(nodes, depth, profile)
             for nodes, ends in contact_sets for depth, profile in ends]
    trace = np.array([depth for _, depth, _ in steps])
    result = fem.run_indentation(footprint, fem.IndenterSpec(displacement_trace=trace))
    assert result.contact_sets == len(contact_sets)
    got = np.column_stack([result.stress_traces[t].values for t in AFFERENT_TYPES])
    for vm, (nodes, _, profile) in zip(got, steps):
        constraints = {**base, **dict(zip((2 * nodes + 1).tolist(), profile))}
        expected = spsolve_fields(system, K, constraints)
        ref = fem.von_mises(fem.recover_stress(system, expected, afferent_ids)) * 1.0e6
        assert (np.abs(vm - ref) <= 1e-12 * ref).all()


@pytest.fixture(scope="module")
def graded_system():
    return fem.StiffnessSystem(graded_square_mesh())


@settings(max_examples=60, deadline=None)
@given(
    fixed=st.sets(st.integers(0, 49), min_size=3, max_size=45),
    fields=st.sampled_from([(), (2,)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_on_random_constraint_sets(graded_system, fixed, fields, seed):
    """Well-posed sets (the three rigid-body modes held) match SuperLU;
    the others raise."""
    assert graded_system.ndof == 50  # the DOFs drawn above
    m = graded_system.mesh
    fixed = np.array(sorted(fixed))
    values = np.random.default_rng(seed).uniform(-1e-2, 1e-2, size=(fixed.size, *fields))
    constraints = dict(zip(fixed.tolist(), values))
    rigid = np.zeros((graded_system.ndof, 3))
    rigid[0::2, 0] = 1.0
    rigid[1::2, 1] = 1.0
    rigid[0::2, 2] = -m.nodes[:, 1]
    rigid[1::2, 2] = m.nodes[:, 0]
    K = graded_system.K
    free = np.setdiff1d(np.arange(graded_system.ndof), fixed)
    if np.linalg.matrix_rank(rigid[fixed]) < 3:
        with pytest.raises(np.linalg.LinAlgError):
            fem.BlockCholesky(K, K.position[free])
        return
    got = np.zeros((graded_system.ndof, *fields))
    got[fixed] = values
    got[free] = fem.BlockCholesky(K, K.position[free]).solve(-(K @ got)[free])
    expected = spsolve_fields(graded_system, sparse_stiffness(graded_system), constraints)
    assert got.shape == expected.shape
    # K on this mesh has condition number below 1e6, so float64 solvers
    # agree to about 1e-10 of the largest displacement
    assert np.abs(got - expected).max() <= 1e-9 * np.abs(expected).max()


def test_run_indentation_zero_trace_is_silent(default_footprint):
    indenter = fem.IndenterSpec(displacement_trace=np.zeros(5))
    result = fem.run_indentation(default_footprint, indenter)
    for trace in result.stress_traces.values():
        assert np.all(trace.values == 0.0)


def test_run_indentation_lifted_is_silent(default_footprint):
    indenter = fem.IndenterSpec(
        pre_indentation_mm=0.0, displacement_trace=np.array([-0.05, -0.2, -0.01]),
    )
    result = fem.run_indentation(default_footprint, indenter)
    for trace in result.stress_traces.values():
        assert np.all(trace.values == 0.0)


def test_run_indentation_requires_afferent_nodes():
    # the footprint response that run_indentation needs is refused for a
    # mesh that does not name its afferent nodes
    m = single_element_mesh()
    with pytest.raises(ValidationError, match=r"^mesh\.afferent_nodes must cover"):
        fem.build_footprint_response(fem.StiffnessSystem(m), 1.0, 0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_indenter_refuses_non_finite_pre_indentation(default_footprint, value):
    # unchecked, NaN gives zero stress on every step with no error, and inf
    # a misleading contact-set solve residual
    indenter = fem.IndenterSpec(pre_indentation_mm=value,
                                displacement_trace=np.array([0.0, 0.1]))
    with pytest.raises(ValidationError, match=r"^pre_indentation_mm must be finite"):
        fem.run_indentation(default_footprint, indenter)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["diameter_mm", "center_x_mm"])
def test_indenter_refuses_non_finite_fields(default_system, name, value):
    # unchecked, an infinite diameter condenses onto every surface node and
    # gives all-zero traces.  The probe's diameter and centre are checked
    # where its footprint response is built, its motion where it runs.
    probe = {"diameter_mm": 1.0, "center_x_mm": 0.0, name: value}
    with pytest.raises(ValidationError, match=rf"^{name} must be finite"):
        fem.build_footprint_response(default_system, **probe)


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call appends its result to the returned
    list."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_stress_bank_factors_once(default_config, default_mesh, monkeypatch):
    """Each bank: one footprint response, one factorization and one
    multi-column solve, and no solve with K per step or per contact set."""
    builds = count_calls(monkeypatch, pipeline, "build_footprint_response")
    factors = count_calls(monkeypatch, fem.BlockCholesky, "__init__")
    solves = count_calls(monkeypatch, fem.BlockCholesky, "solve")
    specs = pipeline.resolve_protocol(default_config)
    pipeline.stress_bank(default_config, default_mesh, specs)  # appendixA
    assert (len(builds), len(factors), len(solves)) == (1, 1, 1)
    xs = default_mesh.nodes[builds[0].nodes, 0]
    assert np.array_equal(np.sort(xs), [-0.4, -0.2, 0.0, 0.2, 0.4])

    pipeline.stress_bank(default_config, default_mesh, specs[:1])
    assert (len(builds), len(factors), len(solves)) == (2, 2, 2)


def test_stress_trace_csv_round_trip(tmp_path):
    values = np.array([0.0, 1.5, 2.25, 1e-17, 3.333333333333333])
    trace = fem.StressTrace("RA", node_id=42, values=values)
    path = tmp_path / "trace.csv"
    path.write_text(trace.csv_text(provenance="test"))
    lines = path.read_text().splitlines()
    assert lines[:4] == [
        "# afferent,node,dt_ms", "# RA,42,0.5", "# provenance: test", "t_ms,sigma_pa",
    ]
    table = np.loadtxt(path, delimiter=",", skiprows=4)
    assert np.array_equal(table[:, 0], 0.5 * np.arange(values.size))
    assert np.array_equal(table[:, 1], values)  # repr round-trip is exact


# finite values whose shortest repr takes every form: signed zeros,
# subnormals, exponents either side of the fixed-point range
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -1.5e-310, 2.2250738585072014e-308,
                  1e16, -1.2345678901234567e16, 1e300, 1e-5, -9.99e-6, 1e-300]


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from(SPECIAL_FLOATS)),
        min_size=1, max_size=40,
    ),
    provenance=st.sampled_from([None, "", "config=0123abcd"]),
)
def test_stress_trace_csv_matches_per_row_oracle(values, provenance):
    trace = fem.StressTrace("PC", node_id=7, values=np.array(values))
    assert trace.csv_text(provenance=provenance) == stress_csv_text(trace, provenance)


def test_stress_trace_csv_time_column_not_stale(rng):
    # alternate two lengths, then more than the cache holds: each text's
    # t_ms column must be its own
    for i, n in enumerate([691, 401] * 3 + [11, 12, 13, 14, 15, 691, 401]):
        trace = fem.StressTrace("SA", node_id=i, values=rng.normal(size=n) * 1e3)
        assert trace.csv_text(provenance="p") == stress_csv_text(trace, "p"), n


# the subnormal and large values of SPECIAL_FLOATS
EXTREME_FLOATS = [5e-324, -1.5e-310, 1e16, -1.2345678901234567e16, 1e300]


@st.composite
def repeated_values(draw):
    """Up to 700 values from a pool of at most 4: both signed zeros, one
    subnormal or large value, and perhaps one more float."""
    pool = [0.0, -0.0, draw(st.sampled_from(EXTREME_FLOATS))]
    pool += draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=1))
    n = draw(st.one_of(st.sampled_from([401, 691]), st.integers(1, 700)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    return np.array([pool[i] for i in picks])


@settings(max_examples=60, deadline=None)
@given(values=repeated_values())
def test_stress_trace_csv_repeated_values_match_oracle(values):
    # each distinct value is formatted once: -0.0 and 0.0 must keep their own text
    trace = fem.StressTrace("SA", node_id=3, values=values)
    assert trace.csv_text(provenance="p") == stress_csv_text(trace, "p")


@pytest.mark.parametrize("values", [
    np.array([1, 2, 3, 0, 2, -4], dtype=np.int64),
    np.array([0.1, -0.0, 2.5, 0.1, 3e-40, 0.0], dtype=np.float32),
    np.arange(6.0)[::2],
], ids=["int64", "float32", "strided"])
def test_stress_trace_csv_writes_values_as_float64(values):
    trace = fem.StressTrace("RA", node_id=1, values=values)
    assert trace.csv_text() == stress_csv_text(trace)


def test_stress_trace_csv_matches_oracle_on_simulated_bank(default_config):
    # appendixA's traces: zero while the indenter is lifted, and each
    # sinusoid repeats its depths every half cycle
    traces = [t for by_type in pipeline.simulate(default_config).bank.values()
              for t in by_type.values()]
    assert len(traces) == 111
    values = np.concatenate([t.values for t in traces])
    assert (values == 0).sum() > values.size // 3
    assert sum(np.unique(t.values).size for t in traces) < values.size // 4
    for i, trace in enumerate(traces):
        text = trace.csv_text(provenance="config=0123abcd")
        assert text == stress_csv_text(trace, "config=0123abcd"), i


def test_stress_trace_csv_formats_dt_as_float():
    # the header and the t_ms column carry the model's one step
    assert stimulus.DT_MS == 0.5
    trace = fem.StressTrace("RA", node_id=1, values=np.array([1.0, 2.0, 3.0]))
    lines = trace.csv_text().splitlines()
    assert lines[1] == "# RA,1,0.5"
    assert [row.split(",")[0] for row in lines[3:]] == ["0.0", "0.5", "1.0"]


@pytest.mark.parametrize("h", [0.2, 0.1, 0.05, "single element"])
def test_stiffness_matches_einsum_oracle_bit_for_bit(h):
    if h == "single element":
        m = single_element_mesh(E=2.0, nu=0.3)
    else:
        cfg = config.config_from_dict({"geometry": {"surface_element_mm": h}})
        m = mesh.build_mesh(cfg.geometry, cfg.materials)
    system = fem.StiffnessSystem(m)
    expected = einsum_stiffness(system)
    assert system.K.diag.tobytes() == expected.diag.tobytes()
    assert system.K.lower.tobytes() == expected.lower.tobytes()


def distorted_grid_mesh(shifts, layers, nx=4, ny=3, hx=0.3, hy=0.2):
    """An nx x ny grid of quads whose interior nodes move by shifts (fractions
    of a spacing, one (dx, dy) per interior node), with the bottom element
    row in layers[0] and the rows above it in layers[1]."""
    xs, ys = np.meshgrid(np.arange(nx + 1) * hx, np.arange(ny + 1) * hy)
    nodes = np.column_stack([xs.ravel(), ys.ravel()])  # row by row from the bottom
    interior = [j * (nx + 1) + i for j in range(1, ny) for i in range(1, nx)]
    nodes[interior] += np.array(shifts) * [hx, hy]
    corners = [j * (nx + 1) + i for j in range(ny) for i in range(nx)]
    elements = np.array(
        [[c, c + 1, c + nx + 2, c + nx + 1] for c in corners], dtype=np.int64
    )  # CCW from the bottom-left corner
    return mesh.Mesh(
        nodes=nodes,
        elements=elements,
        element_material=np.repeat([0, 1], [nx, nx * (ny - 1)]).astype(np.int64),
        materials=tuple(
            mesh.MaterialLayer(f"layer{k}", e, nu, (k * 1.0, k + 1.0))
            for k, (e, nu) in enumerate(layers)
        ),
        surface_nodes=np.arange(ny * (nx + 1), (ny + 1) * (nx + 1), dtype=np.int64),
        afferent_nodes={},
    )


# distorted_grid_mesh's arguments: a shift for each of its 6 interior nodes,
# and (E, nu) for each of its 2 layers
distorted_meshes = given(
    shifts=st.lists(
        st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)), min_size=6, max_size=6
    ),
    layers=st.lists(
        st.tuples(st.floats(0.01, 10.0), st.floats(0.0, 0.49)), min_size=2, max_size=2
    ),
)


def distorted_system(shifts, layers):
    """The stiffness system of a distorted_grid_mesh; examples whose shifts
    invert an element are dropped."""
    m = distorted_grid_mesh(shifts, layers)
    try:
        mesh.check_jacobians(m)
    except InvertedElementError:
        assume(False)
    return fem.StiffnessSystem(m)


# The node-pair assembly drops the terms that multiply a structural zero of
# B, which every quad has, so K must match the full einsum on any shape and
# materials, not only on the rectangles of the structured skin mesh.
@settings(max_examples=40, deadline=None)
@distorted_meshes
def test_stiffness_matches_einsum_oracle_on_distorted_meshes(shifts, layers):
    system = distorted_system(shifts, layers)
    expected = einsum_stiffness(system)
    assert system.K.diag.tobytes() == expected.diag.tobytes()
    assert system.K.lower.tobytes() == expected.lower.tobytes()


def assert_factor_and_residual_match_oracles(system):
    """BlockCholesky with the bottom fixed, and K.residual, equal the
    batched factor and the sorted-entries residual bit for bit.

    The residual is taken once against random loads and once against K x
    itself, where it is round-off and so shows any change in the order of
    the sums."""
    K = system.K
    fixed = list(fem.bottom_constraints(system.mesh))
    rows = K.position[np.setdiff1d(np.arange(system.ndof), fixed)]
    factor = fem.BlockCholesky(K, rows)
    n, inv_l = batched_block_cholesky(K, rows)
    assert factor.n.tobytes() == n.tobytes()
    assert factor.inv_l.tobytes() == inv_l.tobytes()
    f, x = np.random.default_rng(0).normal(size=(2, K.diag.shape[0] * K.diag.shape[1], 3))
    kx = -sorted_entries_residual(K, np.zeros_like(x), x)
    for rhs in (f, kx):
        assert K.residual(rhs, x).tobytes() == sorted_entries_residual(K, rhs, x).tobytes()


@pytest.mark.parametrize("h", [0.2, 0.1])
def test_factor_and_residual_match_oracles_bit_for_bit(h):
    cfg = config.config_from_dict({"geometry": {"surface_element_mm": h}})
    system = fem.StiffnessSystem(mesh.build_mesh(cfg.geometry, cfg.materials))
    assert system.K.diag.shape[0] > 2 * fem.RUN_BLOCKS  # several runs, a short last one
    assert_factor_and_residual_match_oracles(system)


@settings(max_examples=20, deadline=None)
@distorted_meshes
def test_factor_and_residual_match_oracles_on_distorted_meshes(shifts, layers):
    # these meshes span a few blocks, so runs of one and two blocks cross
    # every run boundary the factor and the residual can meet
    system = distorted_system(shifts, layers)
    for run in (1, 2, fem.RUN_BLOCKS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fem, "RUN_BLOCKS", run)
            assert_factor_and_residual_match_oracles(system)


@pytest.mark.parametrize("h", [0.2, 0.1])
def test_setup_peak_memory_within_four_stiffness_matrices(h):
    """The set-up keeps K, the factor and B alive, and temporaries a few
    blocks wide: its traced peak stays within 4 x K's bytes.  Full-size
    masked copies of K's blocks, or a cached copy of its entries, take it
    past 5 x."""
    cfg = config.config_from_dict({"geometry": {"surface_element_mm": h}})
    m = mesh.build_mesh(cfg.geometry, cfg.materials)
    tracemalloc.start()
    try:
        system = fem.StiffnessSystem(m)
        fem.build_footprint_response(system, 1.0, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (system.K.diag.nbytes + system.K.lower.nbytes)


@settings(max_examples=20, deadline=None)
@given(depth=st.floats(0.01, 0.9))
def test_deeper_contact_is_superset(default_footprint, depth):
    shallow = contact_active_set(default_footprint, depth_mm=depth)
    deep = contact_active_set(default_footprint, depth_mm=depth + 0.1)
    assert set(shallow).issubset(deep)
    for dof, val in shallow.items():
        assert deep[dof] <= val + 1e-12  # deeper indentation presses further


# ------------------------------------------- per-step oracle (reference)


def contact_active_set_oracle(mesh, diameter_mm, center_x_mm, depth_mm):
    """The contact rule as evaluated one depth at a time, before the
    footprint tabulated its loads per contact segment."""
    if depth_mm < 0:
        return {}
    radius = diameter_mm / 2.0
    xs = mesh.nodes[mesh.surface_nodes, 0] - center_x_mm
    inside = np.abs(xs) <= radius + 1e-12
    out: dict[int, float] = {}
    for node, x in zip(mesh.surface_nodes[inside], xs[inside]):
        profile = (radius - depth_mm) - np.sqrt(max(radius**2 - x**2, 0.0))
        if profile <= 1e-12:  # gap to the undeformed surface (y = 0)
            out[2 * int(node) + 1] = profile
    return out


def run_indentation_oracle(mesh, system, diameter_mm, center_x_mm, indenter,
                           record_deflection=False):
    """One solve per time step of the probe diameter_mm wide centred at
    x = center_x_mm: run_indentation's loop before the tabulation.  Returns
    (von Mises in Pa, deflection, solved active sets)."""
    trace = np.asarray(indenter.displacement_trace, dtype=float)
    n_steps = trace.size
    afferent_ids = np.array([mesh.afferent_nodes[t] for t in AFFERENT_TYPES])
    vm = np.zeros((n_steps, len(AFFERENT_TYPES)))
    sets = set()

    base = fem.bottom_constraints(mesh)
    defl = None
    if record_deflection:
        defl_r, _ = fem.surface_deflection(mesh, np.zeros(system.ndof))
        defl = np.zeros((n_steps, defl_r.size))

    for k in range(n_steps):
        depth = indenter.pre_indentation_mm + trace[k]
        active = contact_active_set_oracle(mesh, diameter_mm, center_x_mm, depth)
        if active and any(v != 0.0 for v in active.values()):
            sets.add(tuple(sorted(active)))
            u = constrained_solve(system, {**base, **active})
            stress = fem.recover_stress(system, u, afferent_ids)
            vm[k] = fem.von_mises(stress)
            if record_deflection:
                defl[k] = fem.surface_deflection(mesh, u)[1]
        # else: indenter lifted or exactly grazing -> zero field
    return vm * 1.0e6, defl, sets


TINY = np.array([0.0, 1e-18, -1e-18, 0.0, 1e-15, 3e-13, 1e-12, 2e-12, 1e-10,
                 -1e-10, 1e-9, 0.0, -1e-9, 5e-16])
ORACLE_CASES = {
    "sinusoid": dict(trace=stimulus.sinusoid(50.0, 113.6, 40.0), diameter_mm=1.0),
    "pre-pressed": dict(trace=stimulus.sinusoid(100.0, 80.0, 30.0), diameter_mm=1.0,
                        pre_indentation_mm=0.05),
    "pre-lifted": dict(trace=stimulus.sinusoid(50.0, 150.0, 40.0), diameter_mm=1.0,
                       pre_indentation_mm=-0.04),
    "diharmonic-2mm": dict(trace=stimulus.diharmonic(20.0, 60.0, 150.0, 30.0, 50.0),
                           diameter_mm=2.0),
    "noise-0.5mm": dict(trace=stimulus.bandpass_noise(10.0, 200.0, 40.0, 50.0, seed=3),
                        diameter_mm=0.5, pre_indentation_mm=0.02),
    "off-centre": dict(trace=stimulus.sinusoid(50.0, 150.0, 40.0), diameter_mm=1.0,
                       center_x_mm=0.3),
    "tiny-depths": dict(trace=TINY, diameter_mm=1.0),
    "tiny-depths-2mm": dict(trace=np.concatenate([TINY, 1e-3 + TINY]), diameter_mm=2.0),
    # nodes at x = 0.2 and 0.4 sit 0.1 mm off the centre: they touch at
    # depth r - sqrt(r^2 - 0.1^2)
    "tiny-off-centre": dict(trace=np.concatenate([TINY, 0.5 - np.sqrt(0.24) + TINY]),
                            diameter_mm=1.0, center_x_mm=0.3),
    "deflection": dict(trace=stimulus.sinusoid(50.0, 113.6, 20.0), diameter_mm=1.0,
                       record_deflection=True),
    "validate-probe": dict(trace=np.zeros(1), diameter_mm=0.05, pre_indentation_mm=1.0,
                           record_deflection=True),
}


def assert_same_samples(got, expected, rtol=1e-12):
    assert got.shape == expected.shape
    assert np.array_equal(got == 0.0, expected == 0.0)  # zeros on the same steps
    nz = expected != 0.0
    rel = np.abs(got[nz] - expected[nz]) / np.abs(expected[nz])
    assert rel.size == 0 or rel.max() <= rtol, rel.max()


@pytest.fixture(scope="module")
def footprint_of(default_system):
    """(diameter, centre) -> the default mesh's footprint response for that
    indenter, built once per pair for the tests that draw many indenters."""
    return functools.lru_cache(maxsize=None)(
        functools.partial(fem.build_footprint_response, default_system)
    )


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_run_indentation_matches_per_step_oracle(default_mesh, default_system,
                                                 footprint_of, monkeypatch, case):
    kwargs = dict(ORACLE_CASES[case])
    trace = kwargs.pop("trace")
    record = kwargs.pop("record_deflection", False)
    diameter, center = kwargs.pop("diameter_mm"), kwargs.pop("center_x_mm", 0.0)
    indenter = fem.IndenterSpec(displacement_trace=trace, **kwargs)
    vm, defl, sets = run_indentation_oracle(
        default_mesh, default_system, diameter, center, indenter, record_deflection=record
    )

    footprint = footprint_of(diameter, center)
    solves = count_calls(monkeypatch, fem.BlockCholesky, "solve")
    result = fem.run_indentation(footprint, indenter)
    got = np.column_stack([result.stress_traces[t].values for t in AFFERENT_TYPES])
    assert_same_samples(got, vm)
    assert result.contact_sets == len(sets)
    # every set is read from the footprint response: no solve with K
    assert solves == []
    if record:  # the deflection is a linear map of the loads
        fields = footprint.fields
        assert_same_samples(
            np.array([fem.surface_deflection(default_mesh, fields @ f)[1]
                      for f in result.loads]),
            defl,
        )


@settings(max_examples=60, deadline=None)
@given(
    depth=st.one_of(st.floats(-0.2, 1.2), st.floats(-1e-9, 1e-9)),
    diameter=st.sampled_from([0.5, 1.0, 2.0]),
    center=st.sampled_from([0.0, 0.3, -0.1]),
)
def test_contact_active_set_matches_oracle(default_mesh, footprint_of, depth, diameter,
                                           center):
    got = contact_active_set(footprint_of(diameter, center), depth)
    expected = contact_active_set_oracle(default_mesh, diameter, center, depth)
    assert got == expected  # same DOFs, bit-identical profile values


def test_footprint_error_names_segment_start_depth(default_system, default_footprint,
                                                  monkeypatch):
    # a contact segment fails when the footprint is built, before any trace
    # runs: here the deepest, where the nodes at x = +-0.4 mm join
    contact_loads = fem._contact_loads

    def failing_loads(compliance, displacements):
        if len(compliance) == default_footprint.nodes.size:
            raise NumericalError("solve residual 1e+00 exceeds 1e-8 relative")
        return contact_loads(compliance, displacements)

    monkeypatch.setattr(fem, "_contact_loads", failing_loads)
    with pytest.raises(NumericalError,
                       match=r"^contact segment from depth 0\.200000 mm: solve residual"):
        fem.build_footprint_response(default_system, 1.0, 0.0)


@pytest.mark.parametrize("amplitude", [51.62, 113.6, 250.0])
def test_run_indentation_loads_depend_on_depth_alone(default_footprint, amplitude):
    """A 50 Hz sinusoid, its second half, and its first half reversed before
    the whole: every step at one depth gets the same loads, bit for bit,
    whichever trace it is in and whatever depths that trace reaches."""
    trace = stimulus.sinusoid(50.0, amplitude, 200.0)
    half = trace.size // 2
    traces = [trace, trace[half:], np.concatenate([trace[:half][::-1], trace])]
    depths = np.concatenate(traces)
    loads = np.concatenate([
        fem.run_indentation(default_footprint, fem.IndenterSpec(displacement_trace=t)).loads
        for t in traces
    ])
    _, first, which = np.unique(depths, return_index=True, return_inverse=True)
    assert first.size < depths.size // 2  # the depths repeat within and across traces
    assert np.array_equal(loads.view(np.uint64), loads[first][which].view(np.uint64))


def test_run_indentation_makes_no_solve(default_footprint, monkeypatch):
    # the table is built with the footprint; the traces only read it
    def no_solve(*args, **kwargs):
        raise AssertionError("run_indentation solved a system")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    monkeypatch.setattr(fem.BlockCholesky, "solve", no_solve)
    sets = 0
    for spec in stimulus.builtin_protocol("appendixA", base_seed=0):
        indenter = fem.IndenterSpec(displacement_trace=spec.generate())
        sets += fem.run_indentation(default_footprint, indenter).contact_sets
    assert sets == 56


# ---------------------------------------- footprint response (condensed)


def singular_compliance(monkeypatch):
    # C = all ones: regular for one contact node, singular for more
    contact_loads = fem._contact_loads
    monkeypatch.setattr(fem, "_contact_loads",
                        lambda compliance, g: contact_loads(np.ones_like(compliance), g))
    return 3, "footprint compliance of 3 contact nodes is singular"


def sloppy_set_solve(monkeypatch):
    # the per-segment solve is the only one with two right-hand sides (start, unit)
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: (
        solve(a, b) * (1.0 + 1e-6) if b.shape[-1] == 2 else solve(a, b)))
    return 1, r"contact-set solve residual \S+ exceeds 1e-8 relative \(1 contact nodes\)"


def sloppy_unit_loads(monkeypatch):
    # fails before any contact segment is solved
    solve = fem.BlockCholesky.solve
    monkeypatch.setattr(fem.BlockCholesky, "solve",
                        lambda self, rhs: solve(self, rhs) * (1.0 + 1e-6))
    return None, r"unit load at footprint node \d+: solve residual \S+ exceeds 1e-8 relative"


# failure -> patch(monkeypatch) returning (the smallest contact set that
# fails, or None if the unit-load solve fails; the message)
FOOTPRINT_FAILURES = {
    "singular-set": singular_compliance,
    "set-residual": sloppy_set_solve,
    "unit-load-residual": sloppy_unit_loads,
}


def segment_prefix(footprint, size):
    """The prefix naming the first contact segment of `size` or more nodes,
    from the depth where its last node joins; "" for size None."""
    if size is None:
        return ""
    height = np.sort(footprint.height)[::-1][size - 1]
    return re.escape(f"contact segment from depth {footprint.radius - height:.6f} mm: ")


@pytest.mark.parametrize("failure", sorted(FOOTPRINT_FAILURES))
def test_footprint_failures_raise(default_system, default_footprint, monkeypatch, failure):
    # every failure belongs to the footprint, whatever the traces it will serve
    size, message = FOOTPRINT_FAILURES[failure](monkeypatch)
    prefix = segment_prefix(default_footprint, size)
    with pytest.raises(NumericalError, match=f"^{prefix}{message}"):
        fem.build_footprint_response(default_system, 1.0, 0.0)


@pytest.mark.parametrize("failure", sorted(FOOTPRINT_FAILURES))
def test_cli_footprint_failures_exit_3(default_footprint, tmp_path, monkeypatch, caplog,
                                       failure):
    from afferentsim import cli

    spec = stimulus.StimulusSpec(
        stimulus_id="probe", kind="sinusoid", duration_ms=200.0,
        discard_ms=100.0, window_ms=100.0, freq_hz=50.0, amplitude_um=113.6,
    )
    protocol = tmp_path / "protocol.json"
    write_protocol_file([spec], protocol)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"protocol": str(protocol)}))
    size, message = FOOTPRINT_FAILURES[failure](monkeypatch)
    prefix = segment_prefix(default_footprint, size)
    # the footprint fails before the first stimulus, so no message names one
    with caplog.at_level(logging.ERROR, logger="afferentsim"):
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 3
    assert re.search(f"numerical failure: {prefix}{message}", caplog.text)


def per_step_stress(system, footprint, depth):
    """constrained_solve + recover_stress at one depth: [s_xx, s_yy, s_zz, t_xy]
    per afferent in MPa, zero where nothing is prescribed."""
    m = system.mesh
    active = contact_active_set(footprint, depth)
    afferent_ids = np.array([m.afferent_nodes[t] for t in AFFERENT_TYPES])
    if not any(v != 0.0 for v in active.values()):
        return np.zeros((len(AFFERENT_TYPES), 4))
    u = constrained_solve(system, {**fem.bottom_constraints(m), **active})
    return fem.recover_stress(system, u, afferent_ids)


@settings(max_examples=40, deadline=None)
@given(
    depths=st.lists(st.one_of(st.floats(-0.1, 1.2), st.floats(-1e-9, 1e-9)),
                    min_size=1, max_size=4),
    diameter=st.sampled_from([0.5, 1.0, 2.0]),
    center=st.sampled_from([0.0, 0.3, -0.1]),
)
def test_footprint_stress_matches_per_step_solve(default_system, footprint_of, depths,
                                                 diameter, center):
    """Off the centre the footprint is asymmetric (the 1 mm probe at
    x = 0.3 covers the nodes at -0.2 ... 0.8), and depths that share a
    contact set are referred to the depth where the set begins.  The loads
    give each solved step's contact set its prescribed profile and are zero
    everywhere else."""
    footprint = footprint_of(diameter, center)
    result = fem.run_indentation(footprint, fem.IndenterSpec(displacement_trace=np.array(depths)))
    got = np.column_stack([result.stress_traces[t].values for t in AFFERENT_TYPES])
    expected = np.array([
        fem.von_mises(per_step_stress(default_system, footprint, d)) for d in depths
    ]) * 1.0e6
    assert_same_samples(got, expected)

    profile, active = fem._contact(footprint, np.array(depths))
    assert result.loads.shape == active.shape
    for k, a in enumerate(active):
        if not (profile[k, a] != 0.0).any():
            a = np.zeros_like(a)  # an unsolved step: no loads anywhere
        assert np.all(result.loads[k, ~a] == 0.0)
        if a.any():
            c_aa = footprint.compliance[np.ix_(a, a)]
            err = np.abs(c_aa @ result.loads[k, a] - profile[k, a]).max()
            assert err <= 1e-12 * np.abs(profile[k, a]).max()


@functools.lru_cache(maxsize=None)
def footprint_on_mesh(h, diameter_mm, center_x_mm):
    """(system, footprint) of a probe on the default skin at surface element h."""
    cfg = config.config_from_dict({"geometry": {"surface_element_mm": h}})
    system = fem.StiffnessSystem(mesh.build_mesh(cfg.geometry, cfg.materials))
    return system, fem.build_footprint_response(system, diameter_mm, center_x_mm)


@st.composite
def segment_depths(draw):
    """Depths anywhere, or within a nanometre of where the k-th highest
    footprint node joins: as (k, offset), resolved once the probe is known."""
    return draw(st.one_of(
        st.tuples(st.just(None), st.floats(-0.1, 1.2)),
        st.tuples(st.integers(0, 10), st.floats(-1e-9, 1e-9)),
    ))


@settings(max_examples=30, deadline=None)
@given(
    h=st.sampled_from([0.2, 0.1]),
    diameter=st.sampled_from([0.5, 1.0, 2.0]),
    center=st.sampled_from([0.0, 0.3, -0.1]),
    draws=st.lists(segment_depths(), min_size=1, max_size=4),
)
def test_table_loads_match_per_step_reactions(h, diameter, center, draws):
    """Each step's loads, read off the footprint's table, are the reactions
    on the footprint of a one-shot solve with that step's contact set
    prescribed (constrained_solve), within 1e-12 of their largest; steps
    with nothing to prescribe get exact zeros."""
    system, footprint = footprint_on_mesh(h, diameter, center)
    heights = np.sort(footprint.height)[::-1]
    depths = np.array([
        offset if k is None else footprint.radius - heights[min(k, heights.size - 1)] + offset
        for k, offset in draws
    ])
    result = fem.run_indentation(footprint, fem.IndenterSpec(displacement_trace=depths))
    base = fem.bottom_constraints(system.mesh)
    for depth, got in zip(depths, result.loads):
        active = contact_active_set_oracle(system.mesh, diameter, center, depth)
        if not any(v != 0.0 for v in active.values()):
            assert np.all(got == 0.0)
            continue
        u = constrained_solve(system, {**base, **active})
        expected = (system.K @ u)[2 * footprint.nodes + 1]
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("center, sizes", [
    (0.0, [1, 3, 5]), (0.3, [2, 4, 6]), (0.5, [2, 4, 6]),
])
def test_footprint_segments_join_heights_within_contact_tolerance(footprint_of, center,
                                                                  sizes):
    """Off the centre a node's offset x - center_x_mm is not symmetric in
    floating point (at 0.3 the nodes at 0.0 and 0.6 mm get -0.3 and
    0.29999999999999993), so two nodes the circle reaches together get
    heights that differ in the last bit.  Heights within _contact's 1e-12 mm
    form one segment, which starts where its lowest node joins."""
    footprint = footprint_of(1.0, center)
    assert np.count_nonzero(footprint.segment_active, axis=1).tolist() == sizes
    for depth, a in zip(footprint.segment_depth, footprint.segment_active):
        assert depth == footprint.radius - footprint.height[a].min()


def test_footprint_stress_matches_oracle_on_fine_mesh():
    cfg = config.config_from_dict({"geometry": {"surface_element_mm": 0.1}})
    m = mesh.build_mesh(cfg.geometry, cfg.materials)
    system = fem.StiffnessSystem(m)
    # down to 0.55 mm, so the x = +-0.5 mm nodes touch too
    indenter = fem.IndenterSpec(pre_indentation_mm=0.25,
                                displacement_trace=stimulus.sinusoid(50.0, 300.0, 20.0))
    vm, _, sets = run_indentation_oracle(m, system, 1.0, 0.0, indenter)
    footprint = fem.build_footprint_response(system, 1.0, 0.0)
    result = fem.run_indentation(footprint, indenter)
    assert footprint.nodes.size == 11
    assert max(len(s) for s in sets) == 11  # every footprint node touches
    got = np.column_stack([result.stress_traces[t].values for t in AFFERENT_TYPES])
    assert_same_samples(got, vm)
    assert result.contact_sets == len(sets)
