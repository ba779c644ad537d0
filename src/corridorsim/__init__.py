"""Seed-reproducible simulator and two-stage allocator for drone-corridor downlinks."""

from .allocator import (
    Assignment,
    BeamCodebook,
    BeamGainTable,
    allocate_closest_bs,
    allocate_random,
    build_beam_gain_table,
    build_utility,
    solve_assignment,
)
from .antenna import (
    AntennaConfig,
    SteeringDirection,
    array_gain,
    beamforming_vector,
    element_gain,
    element_gain_horizontal,
    element_gain_vertical,
    steering_vector,
    total_gain,
)
from .channel import (
    ChannelProviderSpec,
    LinkGainTensor,
    RfConstants,
    degrade,
    export_tensor,
    free_space_path_gain,
    generate_few_ray,
    generate_statistical,
    import_tensor,
)
from .errors import (
    ConfigurationError,
    CorridorsimError,
    GeometryError,
    InfeasibleAssignmentError,
    OutputError,
    TensorFormatError,
)
from .evaluator import (
    ThroughputReport,
    evaluate_all,
    sinr_matrix,
    validate,
)
from .geometry import (
    BaseStationSite,
    CorridorSpec,
    LinkGeometry,
    Position3D,
    generate_corridor,
    link_geometry,
)
from .harness import (
    ExperimentResult,
    ScenarioConfig,
    benchmark,
    config_from_dict,
    config_to_dict,
    emit_reports,
    load_config,
    run_scenario,
    sweep,
    validate_config,
)

__version__ = "0.1.0"
