"""Spin operators, interaction tensors and the coupled-dimer Hamiltonian.

The model system is a photoexcited triplet chromophore (spin 1) exchange
coupled to a paramagnetic metal center (spin 1/2) carrying one I = 7/2
nucleus.  The working Hilbert space is the 48-dimensional product
|m_triplet> (x) |m_doublet> (x) |m_nuclear| with magnetic quantum numbers
ordered descending within each factor.

All couplings are stored in MHz, fields in mT (see :mod:`.constants`).
The molecular reference frame is fixed by the chromophore geometry:
y runs along the bond connecting the two halves of the dimer and z is
normal to the metal-complex plane.  Anisotropic interactions carry their
own principal frame as a rotation matrix whose columns are the principal
axes in molecular coordinates; Z-Y-Z Euler angles (:func:`rotation_matrix`)
enter only where a config's frame angles are read.  A rigid rotation of the
molecule multiplies every stored frame by the rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .constants import (
    BOHR_MAGNETON_J_PER_T,
    BOHR_MHZ_PER_MT,
    MHZ_PER_INVCM,
    PLANCK_J_PER_HZ,
    VACUUM_PERMEABILITY,
)

# Fixed factor-space layout: (triplet, doublet, nucleus).
SPIN_TRIPLET = 1.0
SPIN_DOUBLET = 0.5
SPIN_NUCLEUS = 3.5
DIM = 48

_HERMITIAN_RTOL = 1e-12


def spin_operators(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cartesian spin matrices (Sx, Sy, Sz) for spin quantum number ``s``.

    The basis is |s, m> with m descending from +s to -s, so ``Sz`` is
    ``diag(s, s-1, ..., -s)``.  Units of hbar.

    Raises:
        ValueError: if ``s`` is not a non-negative integer or half integer.
    """
    if not math.isfinite(s) or s < 0 or abs(2 * s - round(2 * s)) > 1e-9:
        raise ValueError(f"spin must be a non-negative half integer, got {s}")
    dim = int(round(2 * s)) + 1
    m = s - np.arange(dim)
    sz = np.diag(m).astype(complex)
    # <m+1|S+|m> = sqrt(s(s+1) - m(m+1)); row index i-1 holds m_i + 1.
    ladder = np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1))
    sp = np.zeros((dim, dim), dtype=complex)
    sp[np.arange(dim - 1), np.arange(1, dim)] = ladder
    sx = (sp + sp.conj().T) / 2
    sy = (sp - sp.conj().T) / 2j
    return sx, sy, sz


def rotation_matrix(euler_zyz: tuple[float, float, float]) -> np.ndarray:
    """3x3 rotation Rz(a) @ Ry(b) @ Rz(c) for Z-Y-Z Euler angles in radians.

    The entries come from the Euler-Rodrigues parameters (x, y, z, w) of the
    product of the three half-angle turns, in the operation order of scipy's
    ``Rotation.from_euler("ZYZ", ...).as_matrix()`` (the same bits with
    scipy 1.17): through the eigensolver's rounding, a one-ulp change in a
    tensor moves stick fields by about 5e-12 mT.
    """
    (sa, ca), (sb, cb), (sc, cc) = ((math.sin(v / 2.0), math.cos(v / 2.0)) for v in euler_zyz)
    r0, r1, r2, rw = -sa * sb, ca * sb, sa * cb, ca * cb
    x, y, z, w = cc * r0 + r1 * sc, cc * r1 - r0 * sc, rw * sc + cc * r2, rw * cc - r2 * sc
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    return np.array([
        [x2 - y2 - z2 + w2, 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), -x2 + y2 - z2 + w2, 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), -x2 - y2 + z2 + w2],
    ])


_Axes = tuple[tuple[float, float, float], ...]
_IDENTITY: _Axes = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _frozen_axes(axes, what: str) -> _Axes:
    """``axes`` as a hashable tuple of rows, checked to be finite, 3x3 and orthonormal."""
    a = np.asarray(axes, dtype=float)
    if a.shape != (3, 3) or not np.all(np.isfinite(a)) or np.abs(a.T @ a - np.eye(3)).max() > 1e-9:
        raise ValueError(f"{what} must be a finite orthonormal 3x3 matrix")
    return tuple(map(tuple, a.tolist()))


def _wrap_phi(phi: float) -> float:
    """``phi`` in [0, 2pi): ``-1e-17 % 2pi`` rounds up to 2pi, which is 0."""
    phi %= 2 * math.pi
    return 0.0 if phi == 2 * math.pi else phi


def vector_angles(vec: np.ndarray) -> tuple[float, float]:
    """Polar angles (theta, phi) of a 3-vector; phi wrapped into [0, 2pi)."""
    v = np.asarray(vec, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0 or not np.all(np.isfinite(v)):
        raise ValueError("direction vector must be finite and nonzero")
    theta = math.acos(max(-1.0, min(1.0, v[2] / norm)))
    return theta, _wrap_phi(math.atan2(v[1], v[0]))


@dataclass(frozen=True)
class LabOrientation:
    """Direction of the static field in the molecular frame (radians)."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("orientation angles must be finite")
        if not -1e-12 <= self.theta <= math.pi + 1e-12:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "theta", min(max(self.theta, 0.0), math.pi))
        object.__setattr__(self, "phi", _wrap_phi(self.phi))

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "LabOrientation":
        return cls(*vector_angles(vec))

    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)])


@dataclass(frozen=True)
class InteractionTensor:
    """Rank-2 interaction with principal values and a principal frame.

    ``principal`` is (xx, yy, zz) in the tensor eigenframe; the unit depends
    on the interaction (MHz for couplings, dimensionless for g).
    ``axes`` holds the principal axes as the columns of a 3x3 orthonormal
    matrix in molecular coordinates, stored as a tuple of rows.
    """

    principal: tuple[float, float, float]
    axes: _Axes = _IDENTITY

    def __post_init__(self):
        if len(self.principal) != 3 or not all(math.isfinite(v) for v in self.principal):
            raise ValueError("principal values must be three finite numbers")
        object.__setattr__(self, "principal", tuple(float(v) for v in self.principal))
        object.__setattr__(self, "axes", _frozen_axes(self.axes, "principal axes"))

    def matrix(self) -> np.ndarray:
        """Symmetric 3x3 matrix in the molecular frame."""
        a = np.array(self.axes)
        return a @ np.diag(self.principal) @ a.T

    def isotropic(self) -> float:
        return sum(self.principal) / 3.0

    def rotated(self, rot: np.ndarray) -> "InteractionTensor":
        """Same tensor after a global rotation of the molecule."""
        return InteractionTensor(self.principal, np.asarray(rot, dtype=float) @ np.array(self.axes))


@dataclass(frozen=True)
class FrameGeometry:
    """Mutual orientation of the triplet fine-structure frame.

    The triplet frame derives from the molecular frame in two steps: its z'
    axis is the molecular z tilted by ``beta_rad`` about the bond (y), and
    its x' axis is the bond direction rotated by ``alpha_rad`` about z'.
    Negative ``alpha_rad`` selects the mirror-image in-plane orientation,
    which is not distinguishable from symmetry alone.

    The quartet polarization frame defaults to (x', z'); ``quartet_x_axis``
    overrides the in-plane reference axis used when quantifying the field
    direction for the population model.

    ``carrier`` is the rotation matrix that rigidly reorients the whole
    molecule (and with it every frame defined here) relative to the
    coordinate system the field angles refer to; it changes under
    :meth:`rotated` and is the identity by default.
    """

    alpha_rad: float = math.radians(45.0)
    beta_rad: float = math.radians(60.0)
    quartet_x_axis: tuple[float, float, float] | None = None
    carrier: _Axes = _IDENTITY

    def __post_init__(self):
        if not (math.isfinite(self.alpha_rad) and math.isfinite(self.beta_rad)):
            raise ValueError("frame angles must be finite")
        object.__setattr__(self, "carrier", _frozen_axes(self.carrier, "carrier rotation"))

    def zfs_euler(self) -> tuple[float, float, float]:
        """Z-Y-Z angles carrying the molecular frame onto the triplet frame."""
        return (0.0, self.beta_rad, math.pi / 2 + self.alpha_rad)

    def triplet_axes(self) -> np.ndarray:
        """Columns x', y', z' of the triplet frame in molecular coordinates."""
        return np.array(self.carrier) @ rotation_matrix(self.zfs_euler())

    def quartet_axes(self) -> np.ndarray:
        """Columns (x_Q, y_Q, z_Q) of the quartet polarization frame."""
        axes = self.triplet_axes()
        if self.quartet_x_axis is None:
            return axes
        z_q = axes[:, 2]
        x_ref = np.asarray(self.quartet_x_axis, dtype=float)
        x_q = x_ref - (x_ref @ z_q) * z_q
        norm = np.linalg.norm(x_q)
        if norm < 1e-12:
            raise ValueError("quartet x axis must not be parallel to z'")
        x_q /= norm
        return np.column_stack([x_q, np.cross(z_q, x_q), z_q])

    def rotated(self, rot: np.ndarray) -> "FrameGeometry":
        """Frame geometry after a rigid rotation of the whole molecule."""
        rot = np.asarray(rot, dtype=float)
        x_ref = self.quartet_x_axis
        if x_ref is not None:
            x_ref = tuple(float(v) for v in rot @ np.asarray(x_ref, dtype=float))
        return FrameGeometry(self.alpha_rad, self.beta_rad, x_ref, rot @ np.array(self.carrier))


@dataclass(frozen=True)
class SpinSystemSpec:
    """Complete parameter set of the coupled triplet-doublet dimer.

    Attributes:
        exchange_cm: isotropic exchange J in cm^-1.  Positive J places the
            quartet manifold below the trip-doublet (Heisenberg term -J s1.s2).
        dipolar_mhz: point-dipole coupling constant d in MHz; the dipolar
            tensor is diag(d, -2d, d) in the molecular frame (unique axis
            along the bond).
        zfs: triplet zero-field splitting tensor (MHz), with its axes in the
            triplet frame of ``frames``: a tensor that differs from its
            principal values on ``frames.triplet_axes()`` by more than 1e-9
            of its norm raises ``ValueError``.
        g_fp: isotropic g of the triplet chromophore.
        g_vo: metal-center g tensor (dimensionless principal values).
        a_vo: metal-center nuclear hyperfine tensor (MHz).
        frames: relative orientation bookkeeping, see :class:`FrameGeometry`.
        dipolar_axes: principal axes of the dipolar tensor as columns; the
            default puts the unique axis on the molecular bond.
    """

    exchange_cm: float
    dipolar_mhz: float
    zfs: InteractionTensor
    g_fp: float
    g_vo: InteractionTensor
    a_vo: InteractionTensor
    frames: FrameGeometry = field(default_factory=FrameGeometry)
    dipolar_axes: _Axes = _frozen_axes(rotation_matrix((math.pi / 2, math.pi / 2, 0.0)), "dipolar axes")

    def __post_init__(self):
        for name in ("exchange_cm", "dipolar_mhz", "g_fp"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "dipolar_axes", _frozen_axes(self.dipolar_axes, "dipolar axes"))
        # The triplet frame is held twice, in ``zfs.axes`` and in ``frames``;
        # the two must give the same tensor.
        zfs = self.zfs.matrix()
        in_frames = InteractionTensor(self.zfs.principal, self.frames.triplet_axes()).matrix()
        if not np.linalg.norm(zfs - in_frames) <= 1e-9 * np.linalg.norm(zfs):
            raise ValueError("zfs tensor does not lie in the triplet frame of frames")

    @classmethod
    def from_parameters(
        cls,
        exchange_cm: float,
        dipolar_mhz: float,
        zfs_d_mhz: float,
        zfs_e_mhz: float,
        g_fp: float,
        g_vo: tuple[float, float, float],
        a_vo_mhz: tuple[float, float, float],
        alpha_deg: float = 45.0,
        beta_deg: float = 60.0,
        quartet_x_axis: tuple[float, float, float] | None = None,
    ) -> "SpinSystemSpec":
        """Build a system from scalar couplings and frame angles in degrees.

        The zero-field splitting enters through principal values
        (-D/3 + E, -D/3 - E, 2D/3) so that the quadratic form reproduces
        D [Sz'^2 - S(S+1)/3] + E (Sx'^2 - Sy'^2).  g and hyperfine tensors
        of the metal center are taken collinear with the molecular frame.
        """
        frames = FrameGeometry(math.radians(alpha_deg), math.radians(beta_deg), quartet_x_axis)
        zfs = InteractionTensor(
            (-zfs_d_mhz / 3 + zfs_e_mhz, -zfs_d_mhz / 3 - zfs_e_mhz, 2 * zfs_d_mhz / 3),
            rotation_matrix(frames.zfs_euler()),
        )
        return cls(
            exchange_cm=exchange_cm,
            dipolar_mhz=dipolar_mhz,
            zfs=zfs,
            g_fp=g_fp,
            g_vo=InteractionTensor(g_vo),
            a_vo=InteractionTensor(a_vo_mhz),
            frames=frames,
        )

    @property
    def exchange_mhz(self) -> float:
        return self.exchange_cm * MHZ_PER_INVCM

    @property
    def zfs_d_mhz(self) -> float:
        return 1.5 * self.zfs.principal[2]

    @property
    def zfs_e_mhz(self) -> float:
        return (self.zfs.principal[0] - self.zfs.principal[1]) / 2

    def dipolar_tensor(self) -> InteractionTensor:
        d = self.dipolar_mhz
        return InteractionTensor((d, d, -2 * d), self.dipolar_axes)

    def rotated(self, rot: np.ndarray) -> "SpinSystemSpec":
        """System after rigidly rotating the whole molecule by ``rot``."""
        return SpinSystemSpec(
            exchange_cm=self.exchange_cm,
            dipolar_mhz=self.dipolar_mhz,
            zfs=self.zfs.rotated(rot),
            g_fp=self.g_fp,
            g_vo=self.g_vo.rotated(rot),
            a_vo=self.a_vo.rotated(rot),
            frames=self.frames.rotated(rot),
            dipolar_axes=self.dipolar_tensor().rotated(rot).axes,
        )


def vanadyl_porphyrin_dimer() -> SpinSystemSpec:
    """Reference parameters of the vanadyl / free-base porphyrin dimer."""
    return SpinSystemSpec.from_parameters(
        exchange_cm=1.0,
        dipolar_mhz=90.0,
        zfs_d_mhz=1135.0,
        zfs_e_mhz=235.0,
        g_fp=2.0023,
        g_vo=(1.985, 1.985, 1.964),
        a_vo_mhz=(162.0, 162.0, 475.0),
        alpha_deg=45.0,
        beta_deg=60.0,
    )


@dataclass(eq=False)
class HermitianOperator:
    """A square matrix checked to be Hermitian."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("operator matrix must be square")
        scale = max(1.0, float(np.abs(mat).max()))
        if float(np.abs(mat - mat.conj().T).max()) > _HERMITIAN_RTOL * scale:
            raise ValueError("operator matrix is not Hermitian")
        self.matrix = mat

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(a, b), c)


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: cached arrays are shared by every caller and thread."""
    a.setflags(write=False)
    return a


@lru_cache(maxsize=1)
def product_operators() -> dict[str, tuple[np.ndarray, ...]]:
    """Embedded single-spin operators on the 48-dimensional product space."""
    eye3, eye2, eye8 = np.eye(3), np.eye(2), np.eye(8)
    st = spin_operators(SPIN_TRIPLET)
    sd = spin_operators(SPIN_DOUBLET)
    sn = spin_operators(SPIN_NUCLEUS)
    return {
        "triplet": tuple(_read_only(_kron3(op, eye2, eye8)) for op in st),
        "doublet": tuple(_read_only(_kron3(eye3, op, eye8)) for op in sd),
        "nucleus": tuple(_read_only(_kron3(eye3, eye2, op)) for op in sn),
    }


def bilinear(tensor: np.ndarray, left: tuple[np.ndarray, ...], right: tuple[np.ndarray, ...]) -> np.ndarray:
    """``sum_ab tensor[a, b] left[a] @ right[b]``, skipping zero tensor entries."""
    out = np.zeros(left[0].shape, dtype=complex)
    for a in range(3):
        for b in range(3):
            if tensor[a, b] != 0.0:
                out += tensor[a, b] * (left[a] @ right[b])
    return out


@lru_cache(maxsize=32)
def _field_free_hamiltonian(spec: SpinSystemSpec) -> np.ndarray:
    ops = product_operators()
    s1, s2, nuc = ops["triplet"], ops["doublet"], ops["nucleus"]
    h = bilinear(-spec.exchange_mhz * np.eye(3), s1, s2)
    h += bilinear(spec.dipolar_tensor().matrix(), s1, s2)
    h += bilinear(spec.zfs.matrix(), s1, s1)
    h += bilinear(spec.a_vo.matrix(), nuc, s2)
    return _read_only(h)


def zeeman_per_mt(spec: SpinSystemSpec, orientation: LabOrientation) -> np.ndarray:
    """Zeeman Hamiltonian per unit field (MHz/mT) for a field along ``orientation``."""
    ops = product_operators()
    s1, s2 = ops["triplet"], ops["doublet"]
    n = orientation.unit_vector()
    g_row = n @ spec.g_vo.matrix()
    h = np.zeros((DIM, DIM), dtype=complex)
    for a in range(3):
        h += spec.g_fp * n[a] * s1[a] + g_row[a] * s2[a]
    return BOHR_MHZ_PER_MT * h


def hamiltonian_parts(spec: SpinSystemSpec, orientation: LabOrientation) -> tuple[np.ndarray, np.ndarray]:
    """Field-free part and Zeeman part per mT, both in MHz.

    ``H(B) = h0 + B * h1`` for a sweep along a fixed orientation; the split
    lets field sweeps reuse the expensive part.
    """
    return _field_free_hamiltonian(spec).copy(), zeeman_per_mt(spec, orientation)


def build_hamiltonian(spec: SpinSystemSpec, field_mt: float, orientation: LabOrientation) -> HermitianOperator:
    """Full spin Hamiltonian in MHz in the descending-m product basis.

    Terms: -J s1.s2 exchange, point-dipole coupling, triplet zero-field
    splitting, electron Zeeman for both spins and the metal hyperfine
    coupling.  Nuclear Zeeman and quadrupole terms are outside scope.

    Raises:
        ValueError: if ``field_mt`` is negative or not finite.
    """
    if not math.isfinite(field_mt) or field_mt < 0:
        raise ValueError(f"field must be finite and non-negative, got {field_mt}")
    h0, h1 = hamiltonian_parts(spec, orientation)
    return HermitianOperator(h0 + field_mt * h1)


@lru_cache(maxsize=1)
def coupled_transform() -> np.ndarray:
    """Clebsch-Gordan table of triplet (x) doublet, 1 (x) 1/2.

    Rows are the product states |m_t, m_d> in descending-m order: (1, +),
    (1, -), (0, +), (0, -), (-1, +), (-1, -).  Columns are the |S, m>
    states, the quartet S = 3/2 then the doublet S = 1/2, m descending in
    each block, with Condon-Shortley phases.
    """
    a, b = math.sqrt(1 / 3), math.sqrt(2 / 3)
    table = [
        [1, 0, 0, 0, 0, 0],
        [0, a, 0, 0, b, 0],
        [0, b, 0, 0, -a, 0],
        [0, 0, b, 0, 0, a],
        [0, 0, a, 0, 0, -b],
        [0, 0, 0, 1, 0, 0],
    ]
    return _read_only(np.array(table, dtype=complex))


def point_dipole_coupling(distance_nm: float, g1: float, g2: float) -> float:
    """Point-dipole coupling constant d in MHz for two electron spins.

    d = (mu0 / 4 pi) g1 g2 muB^2 / (h r^3); the corresponding molecular-frame
    tensor is diag(d, -2d, d) with the unique axis along the spin-spin vector.

    Raises:
        ValueError: if ``distance_nm`` is not a positive finite number.
    """
    if not math.isfinite(distance_nm) or distance_nm <= 0:
        raise ValueError(f"distance must be positive, got {distance_nm}")
    r_m = distance_nm * 1e-9
    d_hz = (
        VACUUM_PERMEABILITY
        / (4 * math.pi)
        * g1
        * g2
        * BOHR_MAGNETON_J_PER_T**2
        / (PLANCK_J_PER_HZ * r_m**3)
    )
    return d_hz / 1e6


@dataclass(frozen=True)
class ExchangeRegimeReport:
    """Ratios of |J| against every competing energy scale."""

    exchange_mhz: float
    ratios: dict[str, float]
    threshold: float
    strong: bool

    def smallest_ratio(self) -> float:
        return min(self.ratios.values())


def validate_strong_exchange(
    spec: SpinSystemSpec, field_mt: float, threshold: float = 5.0
) -> ExchangeRegimeReport:
    """Check |J| against ZFS, dipolar, hyperfine and Zeeman-mismatch scales.

    The Zeeman scale is the difference of the two centers' Zeeman energies,
    which is what mixes the total-spin blocks; at zero field that ratio is
    reported as infinity.
    """
    j = abs(spec.exchange_mhz)
    g_mismatch = abs(spec.g_fp - spec.g_vo.isotropic())
    scales = {
        "zfs_d": abs(spec.zfs_d_mhz),
        "zfs_e": abs(spec.zfs_e_mhz),
        "dipolar": 2 * abs(spec.dipolar_mhz),
        "hyperfine": max(abs(v) for v in spec.a_vo.principal),
        "zeeman_mismatch": g_mismatch * BOHR_MHZ_PER_MT * field_mt,
    }
    ratios = {name: (math.inf if scale == 0 else j / scale) for name, scale in scales.items()}
    strong = all(r >= threshold for r in ratios.values())
    return ExchangeRegimeReport(exchange_mhz=spec.exchange_mhz, ratios=ratios, threshold=threshold, strong=strong)
