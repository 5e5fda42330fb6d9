"""Multimode Raman-memory emission simulator and analysis toolkit.

The pipeline: build a transverse mode grid for a warm-vapor memory, render
thermal Stokes / anti-Stokes camera frames shot by shot, map intensity
correlations to find twin spots, steer the readout beam so any twin lands on
a chosen virtual fiber, and model heralded single-photon generation across
the mode ensemble.
"""

from .geometry import (
    Angle2D,
    BeamGeometry,
    CameraGeometry,
    OpticalChain,
    aod_chain_angle,
    conjugate_angles,
    drive_frequency_for,
    fresnel_number,
    phase_match,
    spinwave_angular_precision_urad,
)
from .scattering import (
    Frame,
    FrameStack,
    ModeSet,
    RetrievalModel,
    build_mode_set,
    iter_simulated_frames,
    render_frame,
    retrieval_efficiencies,
    sample_shot,
    shot_rng,
    simulate_stack,
)
from .analysis import (
    CorrelationMap,
    GaussianSpotFit,
    MomentAccumulator,
    Reference,
    accumulate,
    correlation_map,
    count_modes,
    cross_section,
    fit_gaussian_spot,
    locate_twin_spot,
    merge,
)
from .control import (
    FeasibleRegion,
    HeraldConfig,
    HeraldStats,
    SteeringCommand,
    compensating_readout,
    feasible_region,
    herald_probability,
    multi_given_herald_exact,
    run_herald_protocol,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    default_config,
    dump_config,
    load_config,
    parse_config,
)
from .stackio import StackWriter, iter_stack, read_stack, write_stack

__version__ = "0.1.0"
