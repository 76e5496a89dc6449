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

import numpy as np

from .constants import BOLTZMANN_J_PER_K, PLANCK_J_PER_HZ
from . import spincore
from .spincore import (
    COUPLED_BASIS,
    DIM,
    FrameGeometry,
    HermitianOperator,
    LabOrientation,
    SpinSystemSpec,
    coupled_transform,
    spin_operators,
)

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


def rho_s(theta: float, phi: float, params: QuartetPolarizationParams) -> np.ndarray:
    """4x4 diagonal quartet density matrix in the field-quantized basis."""
    return np.diag(rho_s_entries(theta, phi, params)).astype(complex)


def field_in_quartet_frame(frames: FrameGeometry, orientation: LabOrientation) -> tuple[float, float]:
    """Polar angles of the field direction in the quartet polarization frame."""
    local = frames.quartet_axes().T @ orientation.unit_vector()
    return spincore.vector_angles(local)


def rho_0(
    rho_s_matrix: np.ndarray,
    nuclear: NuclearPopulations | np.ndarray,
    doublet_populations: tuple[float, float] | None = None,
) -> HermitianOperator:
    """Initial 48x48 density matrix in the coupled basis.

    Quartet block: rho_S (x) diag(nuclear populations); trip-doublet block
    zero unless ``doublet_populations`` is given.  Trace equals
    trace(rho_S) (the quartet expansion itself is traceless).
    """
    rho_s_matrix = np.asarray(rho_s_matrix)
    if rho_s_matrix.shape != (4, 4):
        raise ValueError("rho_S must be 4x4")
    p_nuc = nuclear.as_array() if isinstance(nuclear, NuclearPopulations) else np.asarray(nuclear, dtype=float)
    full = np.zeros((DIM, DIM), dtype=complex)
    full[:32, :32] = np.kron(rho_s_matrix, np.diag(p_nuc))
    if doublet_populations is not None:
        full[32:, 32:] = np.kron(np.diag(doublet_populations), np.diag(p_nuc)).astype(complex)
    return HermitianOperator(full, COUPLED_BASIS)


def single_spin_rotation(s: float, theta: float, phi: float) -> np.ndarray:
    """SU(2) rotation exp(-i phi Sz) exp(-i theta Sy) carrying z onto (theta, phi)."""
    sx, sy, sz = spin_operators(s)
    m = np.real(np.diag(sz))
    phase = np.diag(np.exp(-1j * phi * m))
    evals, evecs = np.linalg.eigh(sy)
    tilt = (evecs * np.exp(-1j * theta * evals)) @ evecs.conj().T
    return phase @ tilt


def orientation_rotation(orientation: LabOrientation) -> np.ndarray:
    """Product-space rotation aligning the quantization axis with the field."""
    u_t = single_spin_rotation(spincore.SPIN_TRIPLET, orientation.theta, orientation.phi)
    u_d = single_spin_rotation(spincore.SPIN_DOUBLET, orientation.theta, orientation.phi)
    u_n = single_spin_rotation(spincore.SPIN_NUCLEUS, orientation.theta, orientation.phi)
    return np.kron(np.kron(u_t, u_d), u_n)


def coupled_states_along(orientation: LabOrientation) -> np.ndarray:
    """Columns: field-quantized coupled states written in the molecular product basis.

    First 32 columns span the quartet (x) nuclear block, last 16 the
    trip-doublet (x) nuclear block, both with descending m and m_I.
    """
    w_full = np.kron(coupled_transform(), np.eye(8))
    return orientation_rotation(orientation) @ w_full


def initial_density_matrix(
    spec: SpinSystemSpec,
    orientation: LabOrientation,
    model: PhotoQuartetPolarization,
) -> HermitianOperator:
    """Molecular-frame rho_0 for a photo-generated quartet polarization."""
    theta_q, phi_q = field_in_quartet_frame(spec.frames, orientation)
    coupled = rho_0(rho_s(theta_q, phi_q, model.params), model.nuclear, model.doublet_populations)
    states = coupled_states_along(orientation)
    return HermitianOperator(states @ coupled.matrix @ states.conj().T, spincore.PRODUCT_BASIS)


@dataclass
class EigenbasisPopulations:
    """Populations of exact eigenstates, ascending energy order."""

    energies_mhz: np.ndarray
    populations: np.ndarray
    degenerate: np.ndarray

    def any_degenerate(self) -> bool:
        return bool(self.degenerate.any())


def _as_matrix(op: HermitianOperator | np.ndarray) -> np.ndarray:
    return op.matrix if isinstance(op, HermitianOperator) else np.asarray(op, dtype=complex)


def eigenbasis_populations(
    hamiltonian: HermitianOperator | np.ndarray,
    rho0: HermitianOperator | np.ndarray,
    degeneracy_tol: float = 1e-6,
) -> EigenbasisPopulations:
    """Diagonal of rho_0 over the exact eigenvectors (secular approximation).

    Both operators must be written in the same basis.  Within degenerate
    eigenvalue clusters the individual populations depend on the arbitrary
    basis chosen by the solver; such levels are flagged.
    """
    h = _as_matrix(hamiltonian)
    rho = _as_matrix(rho0)
    if h.shape != rho.shape:
        raise ValueError("Hamiltonian and density matrix dimensions differ")
    energies, vecs = np.linalg.eigh(h)
    populations = np.einsum("ai,ab,bi->i", vecs.conj(), rho, vecs).real
    scale = max(1.0, float(np.abs(energies).max()))
    gaps = np.diff(energies)
    close = gaps < degeneracy_tol * scale
    degenerate = np.zeros(len(energies), dtype=bool)
    degenerate[:-1] |= close
    degenerate[1:] |= close
    return EigenbasisPopulations(energies, populations, degenerate)


def thermal_populations(energies_mhz: np.ndarray, temperature_k: float) -> np.ndarray:
    """Normalized Boltzmann weights for level energies in MHz, one level set per last-axis row."""
    if not math.isfinite(temperature_k) or temperature_k <= 0:
        raise ValueError(f"temperature must be positive, got {temperature_k}")
    energies = np.asarray(energies_mhz, dtype=float)
    beta_mhz = PLANCK_J_PER_HZ * 1e6 / (BOLTZMANN_J_PER_K * temperature_k)
    weights = np.exp(-beta_mhz * (energies - energies.min(axis=-1, keepdims=True)))
    return weights / weights.sum(axis=-1, keepdims=True)


def triplet_zero_field_states(axes: np.ndarray | None = None) -> np.ndarray:
    """Zero-field triplet eigenstates |T_x>, |T_y>, |T_z> as columns.

    ``axes`` holds the fine-structure principal axes as columns (defaults to
    the coordinate axes).  Each |T_k> is the null vector of S.e_k, written in
    the descending-m S = 1 basis.
    """
    axes = np.eye(3) if axes is None else np.asarray(axes, dtype=float)
    ops = spin_operators(1.0)
    states = []
    for k in range(3):
        along = sum(axes[a, k] * ops[a] for a in range(3))
        evals, evecs = np.linalg.eigh(along)
        states.append(evecs[:, np.argmin(np.abs(evals))])
    return np.column_stack(states)


def triplet_highfield_populations(
    zero_field_populations: tuple[float, float, float] | np.ndarray,
    eigenvectors: np.ndarray,
    axes: np.ndarray | None = None,
) -> np.ndarray:
    """Populations inherited by high-field triplet states at sudden field onset.

    P_i = sum_k |<v_i|T_k>|^2 p_k with |T_k> the zero-field states.
    ``eigenvectors`` holds the high-field eigenstates as columns in the same
    S = 1 basis.
    """
    p = np.asarray(zero_field_populations, dtype=float)
    overlap = np.abs(triplet_zero_field_states(axes).conj().T @ eigenvectors) ** 2
    return overlap.T @ p


def project_hyperfine(hyperfine: "spincore.InteractionTensor", multiplet: str) -> "spincore.InteractionTensor":
    """Effective nuclear hyperfine tensor inside a coupled manifold.

    For a doublet-spin hyperfine coupling in a triplet-doublet pair the
    quartet keeps +A/3 and the trip-doublet -A/3.
    """
    factors = {"quartet": 1.0 / 3.0, "doublet": -1.0 / 3.0}
    if multiplet not in factors:
        raise ValueError(f"multiplet must be one of {sorted(factors)}, got {multiplet!r}")
    f = factors[multiplet]
    return spincore.InteractionTensor(
        tuple(f * v for v in hyperfine.principal), hyperfine.euler_zyz
    )


def nuclear_polarization_gain(populations: NuclearPopulations | np.ndarray) -> float:
    """Largest population difference among the nuclear sublevels."""
    p = populations.as_array() if isinstance(populations, NuclearPopulations) else np.asarray(populations, dtype=float)
    return float(p.max() - p.min())
