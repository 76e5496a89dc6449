"""Simulation and fitting of photoexcited quartet-state EPR and kinetics.

The package models a covalently linked vanadyl porphyrin / free-base
porphyrin dimer: a photogenerated porphyrin triplet exchange-coupled to the
vanadyl S = 1/2, I = 7/2 center.  It builds the 48-dimensional spin
Hamiltonian, applies photo-induced (non-Boltzmann) populations, synthesizes
field-swept EPR spectra under several orientation-averaging schemes, fits
polarization parameters against experimental spectra, and performs global
sequential-kinetics analysis of transient-absorption data.
"""

__version__ = "0.1.0"

from .constants import BOHR_MHZ_PER_MT, MHZ_PER_INVCM, field_to_mhz, mhz_to_field
from .spincore import (
    FrameGeometry,
    HermitianOperator,
    InteractionTensor,
    LabOrientation,
    SpinSystemSpec,
    build_hamiltonian,
    coupled_transform,
    point_dipole_coupling,
    rotate_tensor,
    spin_operators,
    total_spin_projectors,
    validate_strong_exchange,
    vanadyl_porphyrin_dimer,
)
from .polarization import (
    NuclearPopulations,
    PhotoQuartetPolarization,
    QuartetPolarizationParams,
    ThermalPolarization,
    TripletZeroFieldPolarization,
    eigenbasis_populations,
    initial_density_matrix,
    nuclear_polarization_gain,
    project_hyperfine,
    rho_0,
    rho_s,
    thermal_populations,
)
from .spectra import (
    AlignedScheme,
    FieldSweepConfig,
    PowderScheme,
    SingleOrientationScheme,
    Spectrum,
    find_resonances,
    intensity_extent,
    powder_average,
    quartet_basis_spectra,
    simulate_cw_doublet,
    simulate_dimer,
    simulate_triplet,
    stick_spectrum,
)
from .fitting import FitDataset, FitModel, FitProblem, FitResult, fit_simultaneous
from .kinetics import SequentialModel, TADataset, eas_solve, global_fit
from .configio import ConfigError, RunConfig, emit_config, parse_config, parse_config_text
from .dataio import (
    DataError,
    RunManifest,
    load_spectrum_csv,
    load_ta_csv,
    save_spectrum_csv,
    save_ta_csv,
)

__all__ = [
    "AlignedScheme",
    "BOHR_MHZ_PER_MT",
    "ConfigError",
    "DataError",
    "FieldSweepConfig",
    "FitDataset",
    "FitModel",
    "FitProblem",
    "FitResult",
    "FrameGeometry",
    "HermitianOperator",
    "InteractionTensor",
    "LabOrientation",
    "MHZ_PER_INVCM",
    "NuclearPopulations",
    "PhotoQuartetPolarization",
    "PowderScheme",
    "QuartetPolarizationParams",
    "RunConfig",
    "RunManifest",
    "SequentialModel",
    "SingleOrientationScheme",
    "SpinSystemSpec",
    "Spectrum",
    "TADataset",
    "ThermalPolarization",
    "TripletZeroFieldPolarization",
    "build_hamiltonian",
    "coupled_transform",
    "eas_solve",
    "eigenbasis_populations",
    "emit_config",
    "field_to_mhz",
    "find_resonances",
    "fit_simultaneous",
    "global_fit",
    "initial_density_matrix",
    "intensity_extent",
    "load_spectrum_csv",
    "load_ta_csv",
    "mhz_to_field",
    "parse_config",
    "parse_config_text",
    "nuclear_polarization_gain",
    "point_dipole_coupling",
    "powder_average",
    "project_hyperfine",
    "quartet_basis_spectra",
    "rho_0",
    "rho_s",
    "rotate_tensor",
    "save_spectrum_csv",
    "save_ta_csv",
    "simulate_cw_doublet",
    "simulate_dimer",
    "simulate_triplet",
    "spin_operators",
    "stick_spectrum",
    "thermal_populations",
    "total_spin_projectors",
    "validate_strong_exchange",
    "vanadyl_porphyrin_dimer",
]
