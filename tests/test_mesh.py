import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afferentsim import mesh
from afferentsim.config import RunConfig
from afferentsim.errors import InvertedElementError, ValidationError
from oracles import load_mesh, mesh_text

SINGLE_LAYER = (mesh.MaterialLayer("soft", 1.0, 0.3, (0.0, 1.0)),)


def square_spec(width=1.0, h0=0.5, depth_frac=0.5):
    depths = {t: depth_frac for t in mesh.AFFERENT_TYPES}
    return mesh.GeometrySpec(
        domain_width_mm=width, surface_element_mm=h0, coarsening=1.0,
        afferent_depths_mm=depths,
    )


def test_unit_square_counts():
    m = mesh.build_mesh(square_spec(1.0, 0.5), SINGLE_LAYER)
    assert m.n_elements == 4
    assert m.n_nodes == 9


def test_afferent_node_near_requested_depth():
    layers = (mesh.MaterialLayer("soft", 1.0, 0.3, (0.0, 2.0)),)
    spec = mesh.GeometrySpec(
        domain_width_mm=2.0, surface_element_mm=0.1, coarsening=8.0,
        afferent_depths_mm={"SA": 0.7, "RA": 0.7, "PC": 0.7},
    )
    m = mesh.build_mesh(spec, layers)
    y = m.nodes[m.afferent_nodes["SA"], 1]
    assert abs(-y - 0.7) <= 0.05


def test_afferent_tie_breaks_to_lowest_node_id():
    # uniform 0.5 mm rows; depth 0.75 is equidistant from rows 1 and 2
    m = mesh.build_mesh(square_spec(1.0, 0.5, depth_frac=0.5), SINGLE_LAYER)
    found = mesh.locate_afferent_nodes(m.nodes, {"SA": 0.75})
    alt = [
        nid for nid in range(m.n_nodes)
        if m.nodes[nid, 0] == 0.0 and m.nodes[nid, 1] in (-0.5, -1.0)
    ]
    assert found["SA"] == min(alt)
    assert m.nodes[found["SA"], 1] == -0.5  # shallower row has the lower id


def test_afferent_below_bottom_clamps_to_deepest_centerline_node():
    m = mesh.build_mesh(square_spec(1.0, 0.5), SINGLE_LAYER)
    found = mesh.locate_afferent_nodes(m.nodes, {"PC": 99.0})
    node = found["PC"]
    assert m.nodes[node, 0] == 0.0
    assert m.nodes[node, 1] == m.nodes[:, 1].min()


def test_geometry_validation_names_bad_field():
    spec = mesh.GeometrySpec(domain_width_mm=0.0)
    with pytest.raises(ValidationError, match="domain_width_mm"):
        spec.validate(mesh.default_material_layers())


def test_geometry_refuses_unknown_afferent_types():
    """Depths for a type other than SA, RA and PC are refused, and the type
    named, wherever the spec is checked: by build_mesh, and by RunConfig
    when made or replaced; none places a node for it."""
    spec = mesh.GeometrySpec(afferent_depths_mm={"SA": 1.0, "RA": 0.75, "PC": 3.0,
                                                 "XX": 2.0, "AA": 0.5})
    unknown = r"afferent_depths_mm unknown types: \['AA', 'XX'\]"
    with pytest.raises(ValidationError, match=unknown):
        mesh.build_mesh(spec, mesh.default_material_layers())
    with pytest.raises(ValidationError, match=unknown):
        RunConfig(geometry=spec)
    with pytest.raises(ValidationError, match=unknown):
        dataclasses.replace(RunConfig(), geometry=spec)


def test_surface_element_must_fit_thinnest_layer():
    spec = mesh.GeometrySpec(surface_element_mm=0.5)  # stratum corneum is 0.2
    with pytest.raises(ValidationError, match="surface_element_mm"):
        spec.validate(mesh.default_material_layers())


def test_material_layers_must_tile_from_surface():
    layers = (
        mesh.MaterialLayer("a", 1.0, 0.3, (0.0, 0.5)),
        mesh.MaterialLayer("b", 1.0, 0.3, (0.6, 1.0)),  # gap at 0.5..0.6
    )
    spec = square_spec(1.0, 0.4)
    with pytest.raises(ValidationError):
        spec.validate(layers)


def test_default_mesh_shape_and_centerline(default_mesh):
    assert default_mesh.n_elements <= 5000
    xs, ys = default_mesh.nodes.T
    assert xs.max() - xs.min() == pytest.approx(20.0)  # width
    assert -ys.min() == pytest.approx(8.0)  # depth
    # even column count guarantees a node on the centerline
    assert np.any((default_mesh.nodes[:, 0] == 0.0) & (default_mesh.nodes[:, 1] == 0.0))
    # all three afferent nodes sit on the centerline
    for node in default_mesh.afferent_nodes.values():
        assert default_mesh.nodes[node, 0] == 0.0


def test_element_material_matches_centroid_layer(default_mesh):
    layers = default_mesh.materials
    centroids = default_mesh.nodes[default_mesh.elements].mean(axis=1)
    for ei in range(default_mesh.n_elements):
        depth = -centroids[ei, 1]
        top, bottom = layers[default_mesh.element_material[ei]].depth_range
        assert top - 1e-9 <= depth <= bottom + 1e-9


def test_export_import_round_trip(tmp_path, default_mesh):
    path = tmp_path / "mesh.txt"
    path.write_text(mesh.export_mesh_text(default_mesh))
    again = load_mesh(path, default_mesh.materials)
    assert np.array_equal(again.nodes, default_mesh.nodes)
    assert np.array_equal(again.elements, default_mesh.elements)
    assert np.array_equal(again.element_material, default_mesh.element_material)
    assert again.afferent_nodes == default_mesh.afferent_nodes
    assert np.array_equal(again.surface_nodes, default_mesh.surface_nodes)
    assert mesh.export_mesh_text(again) == mesh.export_mesh_text(default_mesh)


def test_export_deterministic(default_mesh):
    assert mesh.export_mesh_text(default_mesh) == mesh.export_mesh_text(default_mesh)


def test_export_matches_per_record_oracle(default_mesh):
    graded = mesh.build_mesh(
        mesh.GeometrySpec(domain_width_mm=2.0, surface_element_mm=0.1, coarsening=8.0,
                          afferent_depths_mm={"SA": 0.7, "RA": 0.3, "PC": 1.5}),
        (mesh.MaterialLayer("top", 2.0, 0.3, (0.0, 0.4)),
         mesh.MaterialLayer("bottom", 0.05, 0.48, (0.4, 2.0))),
    )
    for m in (default_mesh, graded):
        assert mesh.export_mesh_text(m) == mesh_text(m)


@settings(max_examples=40, deadline=None)
@given(
    points=st.lists(
        st.tuples(*[st.sampled_from([0.0, -0.0, 0.1, -0.30000000000000004, 5e-324, 1e16])] * 2),
        min_size=4, max_size=100,
    ),
    order=st.sampled_from(["C", "F"]),
)
def test_export_repeated_coordinates_match_oracle(points, order):
    # coordinates repeat (as on a grid) and hold both signed zeros: each
    # distinct value is formatted once, and -0.0 keeps its sign
    nodes = np.array(points, order=order)
    n = nodes.shape[0]
    m = mesh.Mesh(
        nodes=nodes,
        elements=np.array([[0, 1, 2, 3], [n - 4, n - 3, n - 2, n - 1]], dtype=np.int64),
        element_material=np.zeros(2, dtype=np.int64),
        materials=SINGLE_LAYER,
        surface_nodes=np.arange(2),
        afferent_nodes={"SA": 0, "RA": 1, "PC": n - 1},
    )
    assert mesh.export_mesh_text(m) == mesh_text(m)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "mesh.txt"
    path.write_text("not-a-mesh v9\n")
    with pytest.raises(ValidationError, match="header"):
        load_mesh(path, SINGLE_LAYER)


def test_load_rejects_inverted_element(tmp_path):
    m = mesh.build_mesh(square_spec(1.0, 0.5), SINGLE_LAYER)
    text = mesh.export_mesh_text(m)
    # reverse one element's winding: swap two node ids in an E record
    lines = text.splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith("E "):
            parts = ln.split()
            parts[2], parts[5] = parts[5], parts[2]
            lines[i] = " ".join(parts)
            break
    path = tmp_path / "mesh.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvertedElementError):
        load_mesh(path, SINGLE_LAYER)


@settings(max_examples=40, deadline=None)
@given(
    total=st.floats(0.5, 10.0),
    h0=st.floats(0.05, 0.4),
    coarsening=st.floats(1.0, 10.0),
)
def test_graded_rows_sum_and_growth(total, h0, coarsening):
    rows = mesh._graded_depth_steps(total, h0, coarsening)
    assert rows.sum() == pytest.approx(total, rel=1e-9)
    assert np.all(rows > 0)
    assert rows[0] <= h0 * (1.0 + 0.151) + 1e-12
    assert rows.max() <= h0 * coarsening * 1.2 + 1e-12


@settings(max_examples=25, deadline=None)
@given(width=st.floats(0.5, 30.0))
def test_centerline_node_always_present(width):
    layers = (mesh.MaterialLayer("soft", 1.0, 0.3, (0.0, 1.0)),)
    spec = mesh.GeometrySpec(
        domain_width_mm=width, surface_element_mm=0.25, coarsening=4.0,
        afferent_depths_mm={t: 0.5 for t in mesh.AFFERENT_TYPES},
    )
    m = mesh.build_mesh(spec, layers)
    surface_x = m.nodes[m.surface_nodes, 0]
    assert np.any(surface_x == 0.0)
    assert np.all(np.diff(surface_x) > 0)  # surface nodes ordered by x
