"""Shared fixtures; the expensive FEM artifacts are session-scoped."""

import numpy as np
import pytest

from afferentsim import config, fem, mesh, pipeline


def graded_square_mesh():
    """4x4 graded mesh, 0.8 x 0.95 mm, on one material."""
    layers = (mesh.MaterialLayer("soft", 1.0, 0.3, (0.0, 0.95)),)
    spec = mesh.GeometrySpec(
        domain_width_mm=0.8, surface_element_mm=0.2, coarsening=8.0,
        afferent_depths_mm={t: 0.475 for t in mesh.AFFERENT_TYPES},
    )
    return mesh.build_mesh(spec, layers)


@pytest.fixture(scope="session")
def default_config():
    return config.config_from_dict({})


@pytest.fixture(scope="session")
def default_mesh(default_config):
    return mesh.build_mesh(default_config.geometry, default_config.materials)


@pytest.fixture(scope="session")
def default_system(default_mesh):
    return fem.StiffnessSystem(default_mesh)


@pytest.fixture(scope="session")
def default_footprint(default_config, default_system):
    """The footprint response of the configured 1 mm probe at the centre."""
    return fem.build_footprint_response(
        default_system, default_config.indenter_diameter_mm,
        default_config.indenter_center_x_mm,
    )


@pytest.fixture(scope="session")
def appendix_a_bank(default_config, default_mesh):
    """stimulus_id -> {afferent -> StressTrace} for the 37-sinusoid bank."""
    specs = pipeline.resolve_protocol(default_config)
    bank = pipeline.stress_bank(default_config, default_mesh, specs)
    return specs, bank


@pytest.fixture(scope="session")
def fifty_um_traces(default_footprint):
    """PC stress traces for 50 um sinusoids at 20/50/100/300 Hz."""
    from afferentsim import stimulus

    out = {}
    for freq in (20.0, 50.0, 100.0, 300.0):
        duration = 345.0 if freq == 20.0 else 200.0
        trace = stimulus.sinusoid(freq, 50.0, duration)
        indenter = fem.IndenterSpec(displacement_trace=trace)
        result = fem.run_indentation(default_footprint, indenter)
        out[freq] = result.stress_traces["PC"]
    return out


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
