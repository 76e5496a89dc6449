"""Initial spin populations after photoexcitation and helpers around them.

The observable polarization of the quartet manifold is modeled by a
diagonal density matrix in the field-quantized quartet basis whose entries
are an expansion in powers of the spin projection, with orientation-dependent
coefficients.  Six numbers (a1..a3, r1..r3) parameterize the expansion and
eight populations describe the nuclear sublevels of the metal center.
Everything downstream (stick amplitudes, fitting) is linear in these inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import BOLTZMANN_J_PER_K, PLANCK_J_PER_HZ
from . import spincore
from .spincore import FrameGeometry, LabOrientation, coupled_transform, spin_operators

QUARTET_M = np.array([1.5, 0.5, -0.5, -1.5])
NUCLEAR_SUM_TOL = 2e-3


@dataclass(frozen=True)
class QuartetPolarizationParams:
    """Coefficients of the quartet population expansion.

    ``a`` couples to sin^2(theta)-like angular factors, ``r`` to the
    complementary ones: the diagonal of the quartet density matrix at field
    direction (theta, phi) in the polarization frame reads

        [a2 (1 - 3 cos^2 t) + r2 sin^2 t cos 2p] * (m^2 - 5/4)
      + [a1 sin^2 t + r1 cos^2 t] * m
      + [a3 sin^2 t + r3 cos^2 t] * m^3

    for m = 3/2 .. -3/2.  The overall scale is arbitrary; only ratios are
    physically meaningful.
    """

    a: tuple[float, float, float]
    r: tuple[float, float, float]

    def __post_init__(self):
        for name in ("a", "r"):
            vals = getattr(self, name)
            if len(vals) != 3 or not all(math.isfinite(v) for v in vals):
                raise ValueError(f"{name} must hold three finite numbers")
            object.__setattr__(self, name, tuple(float(v) for v in vals))


@dataclass(frozen=True)
class NuclearPopulations:
    """Populations of the I = 7/2 sublevels, m_I = +7/2 .. -7/2."""

    p: tuple[float, ...]

    def __post_init__(self):
        if len(self.p) != 8 or not all(math.isfinite(v) for v in self.p):
            raise ValueError("nuclear populations must hold eight finite numbers")
        if min(self.p) < -1e-12:
            raise ValueError(f"nuclear populations must be non-negative, got {self.p}")
        total = sum(self.p)
        if abs(total - 1.0) > NUCLEAR_SUM_TOL:
            raise ValueError(f"nuclear populations must sum to 1 within {NUCLEAR_SUM_TOL}, got {total}")
        object.__setattr__(self, "p", tuple(max(float(v), 0.0) for v in self.p))

    @classmethod
    def uniform(cls) -> "NuclearPopulations":
        return cls((0.125,) * 8)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.p)


@dataclass(frozen=True)
class PhotoQuartetPolarization:
    """Spin-polarized quartet generated by the excited-state decay.

    The trip-doublet manifold is born unpopulated; ``doublet_populations``
    is an exploratory switch to put weight there as well (two entries for
    m = +1/2, -1/2 along the field).
    """

    params: QuartetPolarizationParams
    nuclear: NuclearPopulations
    doublet_populations: tuple[float, float] | None = None

    def __post_init__(self):
        p = self.doublet_populations
        if p is None:
            return
        if len(p) != 2 or not all(math.isfinite(v) for v in p):
            raise ValueError("doublet populations must hold two finite numbers")
        if min(p) < 0:
            raise ValueError("doublet populations must be non-negative")


@dataclass(frozen=True)
class ThermalPolarization:
    """Boltzmann populations of the exact eigenstates."""

    temperature_k: float

    def __post_init__(self):
        if not math.isfinite(self.temperature_k) or self.temperature_k <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature_k}")


@dataclass(frozen=True)
class TripletZeroFieldPolarization:
    """Relative populations of the three zero-field triplet states (x, y, z)."""

    populations: tuple[float, float, float]

    def __post_init__(self):
        if len(self.populations) != 3 or not all(math.isfinite(v) for v in self.populations):
            raise ValueError("triplet populations must hold three finite numbers")
        if min(self.populations) < 0:
            raise ValueError("triplet populations must be non-negative")
        object.__setattr__(self, "populations", tuple(float(v) for v in self.populations))


PolarizationModel = PhotoQuartetPolarization | ThermalPolarization


def rho_s_entries(theta: float, phi: float, params: QuartetPolarizationParams) -> np.ndarray:
    """Quartet populations for m = 3/2 .. -3/2, traceless by construction."""
    a1, a2, a3 = params.a
    r1, r2, r3 = params.r
    sin2 = math.sin(theta) ** 2
    cos2 = math.cos(theta) ** 2
    quad_coeff = a2 * (1 - 3 * cos2) + r2 * sin2 * math.cos(2 * phi)
    lin_coeff = a1 * sin2 + r1 * cos2
    cub_coeff = a3 * sin2 + r3 * cos2
    return quad_coeff * (QUARTET_M**2 - 1.25) + lin_coeff * QUARTET_M + cub_coeff * QUARTET_M**3


def field_in_quartet_frame(frames: FrameGeometry, orientation: LabOrientation) -> tuple[float, float]:
    """Polar angles of the field direction in the quartet polarization frame."""
    local = frames.quartet_axes().T @ orientation.unit_vector()
    return spincore.vector_angles(local)


@lru_cache(maxsize=8)
def _rotation_generators(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """m values of Sz and the eigenpairs of Sy for spin ``s``, read-only."""
    _, sy, sz = spin_operators(s)
    evals, evecs = np.linalg.eigh(sy)
    return tuple(spincore._read_only(a) for a in (np.real(np.diag(sz)), evals, evecs))


def single_spin_rotation(s: float, theta: float, phi: float) -> np.ndarray:
    """SU(2) rotation exp(-i phi Sz) exp(-i theta Sy) carrying z onto (theta, phi)."""
    m, evals, evecs = _rotation_generators(s)
    phase = np.diag(np.exp(-1j * phi * m))
    tilt = (evecs * np.exp(-1j * theta * evals)) @ evecs.conj().T
    return phase @ tilt


def coupled_states_along(orientation: LabOrientation) -> np.ndarray:
    """Columns: field-quantized coupled states written in the molecular product basis.

    First 32 columns span the quartet (x) nuclear block, last 16 the
    trip-doublet (x) nuclear block, both with descending m and m_I.
    """
    u_t, u_d, u_n = (single_spin_rotation(s, orientation.theta, orientation.phi)
                     for s in (spincore.SPIN_TRIPLET, spincore.SPIN_DOUBLET, spincore.SPIN_NUCLEUS))
    return np.kron(np.kron(u_t, u_d), u_n) @ np.kron(coupled_transform(), np.eye(8))


def thermal_populations(energies_mhz: np.ndarray, temperature_k: float) -> np.ndarray:
    """Normalized Boltzmann weights for level energies in MHz, one level set per last-axis row."""
    if not math.isfinite(temperature_k) or temperature_k <= 0:
        raise ValueError(f"temperature must be positive, got {temperature_k}")
    energies = np.asarray(energies_mhz, dtype=float)
    beta_mhz = PLANCK_J_PER_HZ * 1e6 / (BOLTZMANN_J_PER_K * temperature_k)
    weights = np.exp(-beta_mhz * (energies - energies.min(axis=-1, keepdims=True)))
    return weights / weights.sum(axis=-1, keepdims=True)


def triplet_zero_field_states() -> np.ndarray:
    """Zero-field triplet eigenstates |T_x>, |T_y>, |T_z> as columns.

    Each |T_k> is the null vector of S_k, written in the descending-m S = 1
    basis.
    """
    states = []
    for op in spin_operators(1.0):
        evals, evecs = np.linalg.eigh(op)
        states.append(evecs[:, np.argmin(np.abs(evals))])
    return np.column_stack(states)


def nuclear_polarization_gain(populations: NuclearPopulations | np.ndarray) -> float:
    """Largest population difference among the nuclear sublevels."""
    p = populations.as_array() if isinstance(populations, NuclearPopulations) else np.asarray(populations, dtype=float)
    return float(p.max() - p.min())
