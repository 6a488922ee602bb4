"""Tactile afferent simulator: layered-skin FEM plus spiking neuron models.

The pipeline has two stages.  A plane-strain finite-element model of
layered skin under a vibrating rigid indenter produces von Mises stress
traces at afferent sampling nodes; per-afferent neural models (SA, RA, PC)
filter those traces, convert them to membrane drive through a saturating
transform, and emit spike trains from a leaky integrate-and-fire unit.
NSGA-II fitting and firing-rate analyses sit on top.

Units: mm / MPa / ms inside the FEM, Pa at the neural interface, mV for
membrane potentials, impulses-per-second (ips) for rates.
"""

__version__ = "0.1.0"

from .errors import (
    AfferentSimError,
    InvertedElementError,
    NumericalError,
    ValidationError,
)
from .mesh import (
    AFFERENT_TYPES,
    GeometrySpec,
    MaterialLayer,
    Mesh,
    build_mesh,
    default_afferent_depths,
    default_material_layers,
    export_mesh_text,
)
from .fem import (
    IndenterSpec,
    IndentationResult,
    StiffnessSystem,
    StressTrace,
    plane_strain_d,
    recover_stress,
    run_indentation,
    surface_deflection,
    von_mises,
)
from .stimulus import (
    StimulusSpec,
    bandpass_noise,
    builtin_protocol,
    diharmonic,
    load_protocol,
    sinusoid,
)
from .neural import (
    AfferentParams,
    ParamTable,
    SpikeCounter,
    SpikeTrain,
    abs_difference_filter,
    default_afferent_params,
    derivative,
    filtered_inputs,
    moving_average_abs,
    run_afferents,
    window_steps,
)
from .optimize import (
    FitOutcome,
    ObservedRateSet,
    ParetoFront,
    RateEvaluator,
    fit_afferent,
    gene_bounds,
    genes_to_params,
    nsga2,
    predict_rates,
    recover_parameters,
    select_candidate,
)
from .analysis import (
    RateRecord,
    RegressionReport,
    firing_rate,
    rate_records_to_csv,
    regression,
)
from .config import RunConfig, config_from_dict, load_config

__all__ = [
    "AFFERENT_TYPES",
    "AfferentParams",
    "AfferentSimError",
    "FitOutcome",
    "GeometrySpec",
    "IndentationResult",
    "IndenterSpec",
    "InvertedElementError",
    "MaterialLayer",
    "Mesh",
    "NumericalError",
    "ObservedRateSet",
    "ParamTable",
    "ParetoFront",
    "RateEvaluator",
    "RateRecord",
    "RegressionReport",
    "RunConfig",
    "SpikeCounter",
    "SpikeTrain",
    "StiffnessSystem",
    "StimulusSpec",
    "StressTrace",
    "ValidationError",
    "abs_difference_filter",
    "bandpass_noise",
    "build_mesh",
    "builtin_protocol",
    "config_from_dict",
    "default_afferent_depths",
    "default_afferent_params",
    "default_material_layers",
    "derivative",
    "diharmonic",
    "export_mesh_text",
    "filtered_inputs",
    "firing_rate",
    "fit_afferent",
    "gene_bounds",
    "genes_to_params",
    "load_config",
    "load_protocol",
    "moving_average_abs",
    "nsga2",
    "plane_strain_d",
    "predict_rates",
    "rate_records_to_csv",
    "recover_parameters",
    "recover_stress",
    "regression",
    "run_afferents",
    "run_indentation",
    "select_candidate",
    "sinusoid",
    "surface_deflection",
    "von_mises",
    "window_steps",
    "__version__",
]
