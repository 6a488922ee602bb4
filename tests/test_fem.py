import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afferentsim import fem, mesh
from afferentsim.errors import NumericalError, ValidationError

SOFT = mesh.MaterialLayer("soft", 1.0, 0.3, (0.0, 1.0))


def graded_square_mesh(nu=0.3, width=0.8, depth=0.95, h0=0.2):
    """4x4 graded mesh on a single material."""
    layers = (mesh.MaterialLayer("soft", 1.0, nu, (0.0, depth)),)
    spec = mesh.GeometrySpec(
        domain_width_mm=width, surface_element_mm=h0, coarsening=8.0,
        afferent_depths_mm={t: depth / 2 for t in mesh.AFFERENT_TYPES},
    )
    return mesh.build_mesh(spec, layers)


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
    K = system.K.toarray()
    E = 2.0
    assert K[0, 0] == pytest.approx(E * 0.5, rel=1e-12)
    assert K[0, 1] == pytest.approx(E * 0.125, rel=1e-12)
    assert K[1, 1] == pytest.approx(E * 0.5, rel=1e-12)
    # rigid-body modes: rows sum to zero over matching translation DOFs
    ux = np.zeros(8)
    ux[0::2] = 1.0
    assert np.abs(K @ ux).max() < 1e-12


def test_stiffness_symmetric(default_system):
    K = default_system.K
    asym = abs(K - K.T).max()
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
    u = fem.solve_step(system, constraints)
    err = np.abs(u.reshape(-1, 2) - exact).max() / np.abs(exact).max()
    assert err <= 1e-9

    # recovered stress equals D @ [b, f, c+e] everywhere
    E, nu = 1.0, 0.3
    expected = fem.plane_strain_d(E, nu) @ np.array([b, f, c + e])
    sig = fem.recover_stress(system, u)
    assert np.abs(sig[:, 0] - expected[0]).max() <= 1e-9
    assert np.abs(sig[:, 1] - expected[1]).max() <= 1e-9
    assert np.abs(sig[:, 3] - expected[2]).max() <= 1e-9
    assert np.abs(sig[:, 2] - nu * (expected[0] + expected[1])).max() <= 1e-9


def test_stress_recovery_subset_matches_full():
    m = graded_square_mesh()
    system = fem.StiffnessSystem(m)
    rng = np.random.default_rng(7)
    u = rng.normal(scale=1e-3, size=2 * m.n_nodes)
    full = fem.recover_stress(system, u)
    subset = np.array([0, 3, 7, m.n_nodes - 1])
    partial = fem.recover_stress(system, u, node_ids=subset)
    assert np.array_equal(partial, full[subset])


def test_von_mises_identities(rng):
    s = 3.7
    assert fem.von_mises(np.array([s, 0.0, 0.0, 0.0])) == pytest.approx(abs(s))
    assert fem.von_mises(np.array([0.0, 0.0, 0.0, s])) == pytest.approx(np.sqrt(3) * abs(s))
    assert fem.von_mises(np.array([s, s, s, 0.0])) == pytest.approx(0.0, abs=1e-14)
    for _ in range(100):
        sxx, syy, txy, szz = rng.normal(scale=5.0, size=4)
        theta = rng.uniform(0, 2 * np.pi)
        c, s_ = np.cos(theta), np.sin(theta)
        # rotate the in-plane tensor; szz is unchanged by in-plane rotation
        rxx = c * c * sxx + s_ * s_ * syy + 2 * c * s_ * txy
        ryy = s_ * s_ * sxx + c * c * syy - 2 * c * s_ * txy
        rxy = (syy - sxx) * c * s_ + (c * c - s_ * s_) * txy
        vm0 = fem.von_mises(np.array([sxx, syy, szz, txy]))
        vm1 = fem.von_mises(np.array([rxx, ryy, szz, rxy]))
        assert abs(vm0 - vm1) <= 1e-10 * max(1.0, vm0)


def test_contact_active_set_contiguous_symmetric(default_mesh):
    indenter = fem.IndenterSpec(diameter_mm=1.0)
    active = fem.contact_active_set(default_mesh, indenter, depth_mm=0.3)
    assert active
    nodes = sorted(dof // 2 for dof in active)
    xs = np.sort(default_mesh.nodes[nodes, 0])
    # contiguous on the surface grid and symmetric about the center
    spacing = np.diff(np.sort(default_mesh.nodes[default_mesh.surface_nodes, 0]))
    assert np.allclose(np.diff(xs), spacing[0], atol=1e-9)
    assert np.allclose(xs + xs[::-1], 0.0, atol=1e-12)
    assert all(v <= 0.0 for v in active.values())

    deeper = fem.contact_active_set(default_mesh, indenter, depth_mm=0.5)
    assert set(active).issubset(set(deeper))
    assert fem.contact_active_set(default_mesh, indenter, depth_mm=-0.1) == {}


def test_solve_linearity_with_pinned_active_set(default_mesh, default_system):
    indenter = fem.IndenterSpec(diameter_mm=1.0)
    active = fem.contact_active_set(default_mesh, indenter, depth_mm=0.2)
    base = fem.bottom_constraints(default_mesh)
    u1 = fem.solve_step(default_system, {**base, **active})
    doubled = {k: 2.0 * v for k, v in active.items()}
    u2 = fem.solve_step(default_system, {**base, **doubled})
    assert np.allclose(u2, 2.0 * u1, rtol=1e-12, atol=1e-15)
    s1 = fem.recover_stress(default_system, u1, node_ids=np.array([100, 500]))
    s2 = fem.recover_stress(default_system, u2, node_ids=np.array([100, 500]))
    assert np.allclose(s2, 2.0 * s1, rtol=1e-12, atol=1e-18)


def test_solve_requires_constraints(default_system):
    with pytest.raises(ValidationError):
        fem.solve_step(default_system, {})


def test_flamant_surface_deflection_differences():
    # homogeneous half-plane, centered point load; deflection differences
    # follow (2P(1-nu^2)/(pi E)) * ln(x_ref/x) away from the load
    E, nu, P = 1.0, 0.3, 0.01
    layers = (mesh.MaterialLayer("half", E, nu, (0.0, 40.0)),)
    spec = mesh.GeometrySpec(
        domain_width_mm=80.0, surface_element_mm=0.5, coarsening=20.0,
        afferent_depths_mm={t: 1.0 for t in mesh.AFFERENT_TYPES},
    )
    m = mesh.build_mesh(spec, layers)
    system = fem.StiffnessSystem(m)
    center = int(m.surface_nodes[np.argmin(np.abs(m.nodes[m.surface_nodes, 0]))])
    forces = np.zeros(2 * m.n_nodes)
    forces[2 * center + 1] = -P
    u = fem.solve_step(system, fem.bottom_constraints(m), forces=forces)
    xs, w = np.sort(m.nodes[m.surface_nodes, 0]), None
    surf_x = m.nodes[m.surface_nodes, 0]
    order = np.argsort(surf_x)
    xs = surf_x[order]
    w = -u[2 * m.surface_nodes + 1][order]  # downward positive

    x_ref = 6.0
    w_ref = np.interp(x_ref, xs, w)
    scale = 2.0 * P * (1.0 - nu**2) / (np.pi * E)
    for x in np.arange(1.5, 5.51, 0.5):
        measured = np.interp(x, xs, w) - w_ref
        analytic = scale * np.log(x_ref / x)
        assert abs(measured - analytic) <= 0.05 * abs(analytic)


def test_run_indentation_zero_trace_is_silent(default_mesh, default_system):
    indenter = fem.IndenterSpec(diameter_mm=1.0, displacement_trace=np.zeros(5))
    result = fem.run_indentation(default_mesh, indenter, system=default_system)
    for trace in result.stress_traces.values():
        assert np.all(trace.values == 0.0)


def test_run_indentation_lifted_is_silent(default_mesh, default_system):
    indenter = fem.IndenterSpec(
        diameter_mm=1.0, pre_indentation_mm=0.0,
        displacement_trace=np.array([-0.05, -0.2, -0.01]),
    )
    result = fem.run_indentation(default_mesh, indenter, system=default_system)
    for trace in result.stress_traces.values():
        assert np.all(trace.values == 0.0)


def test_run_indentation_requires_afferent_nodes():
    m = single_element_mesh()
    indenter = fem.IndenterSpec(diameter_mm=1.0)
    with pytest.raises(ValidationError):
        fem.run_indentation(m, indenter)


def test_factor_cache_bounded(default_mesh):
    """One factorization per distinct contact set solved, and contact sets
    are nested in depth: at most one per surface node under the indenter."""
    system = fem.StiffnessSystem(default_mesh)
    from afferentsim import stimulus

    trace = stimulus.sinusoid(20.0, 100.0, 50.0)
    indenter = fem.IndenterSpec(diameter_mm=1.0, displacement_trace=trace)
    fem.run_indentation(default_mesh, indenter, system=system)

    base = fem.bottom_constraints(default_mesh)
    seen = set()
    for depth in trace:
        active = fem.contact_active_set(default_mesh, indenter, depth)
        if any(v != 0.0 for v in active.values()):  # run_indentation's solve rule
            seen.add(tuple(sorted({**base, **active})))
    assert set(system._factor_cache) == seen
    xs = default_mesh.nodes[default_mesh.surface_nodes, 0]
    assert 1 <= len(seen) <= np.count_nonzero(np.abs(xs) <= indenter.diameter_mm / 2)


def test_stress_trace_csv_round_trip(tmp_path):
    values = np.array([0.0, 1.5, 2.25, 1e-17, 3.333333333333333])
    trace = fem.StressTrace("RA", node_id=42, dt_ms=0.5, values=values)
    path = tmp_path / "trace.csv"
    trace.to_csv(path, provenance="test")
    again = fem.StressTrace.from_csv(path)
    assert again.afferent_type == "RA"
    assert again.node_id == 42
    assert again.dt_ms == 0.5
    assert np.array_equal(again.values, values)  # repr round-trip is exact


@settings(max_examples=20, deadline=None)
@given(depth=st.floats(0.01, 0.9))
def test_deeper_contact_is_superset(default_mesh, depth):
    indenter = fem.IndenterSpec(diameter_mm=1.0)
    shallow = fem.contact_active_set(default_mesh, indenter, depth_mm=depth)
    deep = fem.contact_active_set(default_mesh, indenter, depth_mm=depth + 0.1)
    assert set(shallow).issubset(deep)
    for dof, val in shallow.items():
        assert deep[dof] <= val + 1e-12  # deeper indentation presses further
