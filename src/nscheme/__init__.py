"""Four-level N-scheme dynamics: steady states, trajectories, sidebands."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    NSchemeError,
    PerturbationInvalid,
    SolverError,
)
from .model import (
    AtomSpec,
    DensityMatrix,
    LaserDrive,
    MotionSpec,
    SystemConfig,
    config_from_dict,
    config_to_dict,
    from_mhz,
    lamb_dicke_parameters,
    load_config,
    pure_state,
    to_mhz,
)
from .liouvillian import Superoperator, build_hamiltonian, build_superoperator
from .steady import steady_state
from .dynamics import PopulationTrace, TimescaleFit, evolve, fit_timescales, g2
from .mcwf import TrajectoryRecord, bright_dark_statistics, ensemble_populations, run_trajectories
from .dressed import LambdaEigensystem, PerturbativeReport, doppler_rate, lambda_eigensystem, three_photon_report
from .floquet import FloquetBlockSystem, solve_floquet_steady
from .scan import ScanSpec, Spectrum, run_scan
