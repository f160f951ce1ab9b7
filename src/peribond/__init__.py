"""Meshfree bond-based dynamics: nonlocal solids, fracture, and
fading-memory fluids on uniform point clouds."""

from .discretization import (
    BondNetwork,
    HorizonConfig,
    PointCloud,
    build_bonds,
    build_grid,
)
from .dynamics import (
    ExternalLoad,
    NetworkForce,
    RunResult,
    SimState,
    internal_force,
    run,
    stable_dt,
    step_verlet,
    zero_state,
)
from .errors import ConfigError, PeribondError, SimulationError, SingularConfigurationError
from .kernels import (
    KERNEL_FAMILIES,
    AntiPlaneShear,
    BondBreaker,
    ConstructiveRod,
    Convolution,
    MicroModulus,
    NanoFiber,
    NanoMembrane,
    NonlinearP,
    PMB,
    QuadraticPotential,
    check_kernel_axioms,
    default_models,
)
from .diagnostics import (
    delta_convergence,
    energy,
    impenetrability_probe,
    stretch_compare,
)
from .fluidpd import MemoryConfig, fluid_force, memory_force, run_fluid
from .scenarios import (
    SimSetup,
    build_bar_wave,
    build_fluid_shear,
    build_plate_precrack,
    materialize,
)
from .config import RunConfig, parse_config, print_config

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
