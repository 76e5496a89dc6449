"""Field-swept spectra: resonance search, lineshapes and orientation averages.

A spectrum is assembled in three stages.  For one orientation of the field
in the molecular frame, the Hamiltonian is diagonalized on a dense field
grid and level-pair transition frequencies are scanned for crossings of the
microwave frequency; each crossing becomes a stick whose amplitude combines
the transverse transition moment, the population difference of the exact
eigenstates and the field-frequency conversion factor |d nu / dB|.  Sticks
are then convolved with a unit-area lineshape, and finally accumulated over
a deterministic orientation grid (isotropic powder or a liquid-crystal
alignment distribution).  One engine, :func:`orientation_average`, does
this orientation sum for every spectrum: the quartet dimer, its basis
spectra, the triplet precursor and the CW doublet each supply only their
Hamiltonian, spin operators and population channels per orientation.

Sign convention: positive intensity is enhanced absorption, negative is
emission.  With thermal populations every stick amplitude is non-negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import polarization as pol
from . import spincore
from .constants import BOHR_MHZ_PER_MT
from .spincore import LabOrientation, SpinSystemSpec

QUAD_STRUCTURE = np.array([1.0, -1.0, -1.0, 1.0])
LINEAR_STRUCTURE = pol.QUARTET_M.copy()
CUBIC_STRUCTURE = pol.QUARTET_M**3
# Order of the six polarization coefficients throughout: a1 a2 a3 r1 r2 r3.
PARAM_NAMES = ("a1", "a2", "a3", "r1", "r2", "r3")
_PARAM_STRUCTURES = (1, 0, 2, 1, 0, 2)  # index into (quad, linear, cubic)

LINESHAPES = ("lorentzian", "gaussian")


@dataclass(frozen=True)
class FieldSweepConfig:
    """Sweep window, detection frequency and lineshape settings.

    ``search_points`` sets the density of the field grid used for the
    resonance search; ``slope_floor_ghz_per_mt`` discards effectively
    field-independent transitions whose formal amplitude would diverge.
    ``pad_linewidths`` widens the search window so lines sitting just
    outside the plotted range still contribute their tails.
    """

    mw_frequency_ghz: float = 9.5
    field_start_mt: float = 240.0
    field_stop_mt: float = 440.0
    n_points: int = 1024
    lineshape: str = "lorentzian"
    linewidth_mt: float = 1.8
    search_points: int = 601
    slope_floor_ghz_per_mt: float = 1e-4
    pad_linewidths: float = 12.0

    def __post_init__(self):
        if not (math.isfinite(self.mw_frequency_ghz) and self.mw_frequency_ghz > 0):
            raise ValueError("microwave frequency must be positive")
        if not (self.field_stop_mt > self.field_start_mt >= 0):
            raise ValueError("field window must satisfy 0 <= start < stop")
        if self.n_points < 2:
            raise ValueError("n_points must be at least 2")
        if self.lineshape not in LINESHAPES:
            raise ValueError(f"lineshape must be one of {LINESHAPES}, got {self.lineshape!r}")
        if not (math.isfinite(self.linewidth_mt) and self.linewidth_mt > 0):
            raise ValueError("linewidth must be positive")
        if self.search_points < 16:
            raise ValueError("search_points must be at least 16")
        if self.slope_floor_ghz_per_mt <= 0:
            raise ValueError("slope floor must be positive")

    def field_axis(self) -> np.ndarray:
        return np.linspace(self.field_start_mt, self.field_stop_mt, self.n_points)

    def mw_frequency_mhz(self) -> float:
        return self.mw_frequency_ghz * 1e3


@dataclass(frozen=True)
class PowderScheme:
    """Deterministic equal-weight partition of the orientation hemisphere."""

    grid_size: int = 256

    def __post_init__(self):
        if self.grid_size < 16:
            raise ValueError("powder grid_size must be at least 16")


@dataclass(frozen=True)
class AlignedScheme:
    """Nematic-host alignment: molecular y tilted by a Gaussian about the director.

    ``mode`` places the director parallel or perpendicular to the field.
    ``n_samples`` counts azimuthal quadrature nodes about the molecular y
    axis; the Gaussian tilt uses ``tilt_nodes`` Gauss-Hermite nodes and the
    perpendicular mode adds ``transverse_nodes`` nodes for the azimuth of
    the tilt about the director.
    """

    mode: str
    sigma_deg: float = 10.0
    n_samples: int = 16
    tilt_nodes: int = 9
    transverse_nodes: int = 8

    def __post_init__(self):
        if self.mode not in ("parallel", "perpendicular"):
            raise ValueError(f"mode must be 'parallel' or 'perpendicular', got {self.mode!r}")
        if self.sigma_deg < 0 or not math.isfinite(self.sigma_deg):
            raise ValueError("sigma_deg must be non-negative")
        if self.n_samples < 8:
            raise ValueError("n_samples must be at least 8")
        if self.tilt_nodes < 1 or self.transverse_nodes < 2:
            raise ValueError("quadrature node counts too small")


@dataclass(frozen=True)
class SingleOrientationScheme:
    """One molecular orientation, angles in radians."""

    theta: float
    phi: float = 0.0


OrientationScheme = PowderScheme | AlignedScheme | SingleOrientationScheme


def powder_orientations(grid_size: int) -> tuple[list[LabOrientation], np.ndarray]:
    """Golden-spiral equal-area hemisphere grid with uniform weights.

    Only half the sphere is sampled: spectra are invariant under inversion
    of the field direction because every interaction tensor is symmetric.
    """
    k = np.arange(grid_size)
    cos_theta = (k + 0.5) / grid_size
    phi = (2 * math.pi * k / ((1 + math.sqrt(5)) / 2)) % (2 * math.pi)
    orientations = [LabOrientation(math.acos(c), p) for c, p in zip(cos_theta, phi)]
    return orientations, np.full(grid_size, 1.0 / grid_size)


def _tilt_quadrature(sigma_deg: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes/weights for a Gaussian tilt angle of std sigma."""
    if sigma_deg == 0.0:
        return np.array([0.0]), np.array([1.0])
    x, w = np.polynomial.hermite.hermgauss(nodes)
    return math.radians(sigma_deg) * math.sqrt(2.0) * x, w / math.sqrt(math.pi)


def _orientation_about_bond(tilt: float, azimuth: float) -> LabOrientation:
    """Field direction at polar angle ``tilt`` from the molecular y axis.

    ``azimuth`` is measured in the plane perpendicular to the bond, from
    molecular z toward molecular x.
    """
    direction = np.array(
        [
            math.sin(tilt) * math.sin(azimuth),
            math.cos(tilt),
            math.sin(tilt) * math.cos(azimuth),
        ]
    )
    return LabOrientation.from_vector(direction)


def _merge_orientations(
    pairs: list[tuple[LabOrientation, float]]
) -> tuple[list[LabOrientation], np.ndarray]:
    """Merge duplicate field directions, folding B -> -B equivalents together.

    Spectra are invariant under field inversion (all tensors symmetric), so
    antipodal directions are the same measurement and their quadrature
    weights add.  Quadrature grids built from symmetric node sets produce
    many such repeats; merging them cuts the diagonalization count.
    """
    merged: dict[tuple[float, float, float], tuple[LabOrientation, float]] = {}
    for orientation, weight in pairs:
        v = orientation.unit_vector()
        flip = next((c for c in (v[2], v[1], v[0]) if abs(c) > 1e-12), 1.0)
        if flip < 0:
            v = -v
        key = tuple(np.round(v, 10))
        if key in merged:
            kept, w = merged[key]
            merged[key] = (kept, w + weight)
        else:
            merged[key] = (LabOrientation.from_vector(v), weight)
    orientations = [o for o, _ in merged.values()]
    return orientations, np.array([w for _, w in merged.values()])


def aligned_orientations(scheme: AlignedScheme) -> tuple[list[LabOrientation], np.ndarray]:
    """Quadrature over field directions for a 5CB-aligned frozen sample."""
    tilts, tilt_w = _tilt_quadrature(scheme.sigma_deg, scheme.tilt_nodes)
    pairs: list[tuple[LabOrientation, float]] = []
    if scheme.mode == "parallel":
        # Director along B: the field makes the tilt angle with the bond.
        if scheme.sigma_deg == 0.0:
            return [_orientation_about_bond(0.0, 0.0)], np.array([1.0])
        for t, wt in zip(tilts, tilt_w):
            for k in range(scheme.n_samples):
                azim = 2 * math.pi * (k + 0.5) / scheme.n_samples
                pairs.append((_orientation_about_bond(t, azim), wt / scheme.n_samples))
    else:
        # Director perpendicular to B.  With the bond tilted from the
        # director by psi at azimuth chi (chi = 0 in the plane normal to B),
        # the bond-field angle obeys cos(angle) = sin(psi) sin(chi); the
        # molecule stays free to spin about its own bond.
        for t, wt in zip(tilts, tilt_w):
            for j in range(scheme.transverse_nodes):
                chi = 2 * math.pi * (j + 0.5) / scheme.transverse_nodes
                bond_angle = math.acos(max(-1.0, min(1.0, math.sin(t) * math.sin(chi))))
                for k in range(scheme.n_samples):
                    azim = 2 * math.pi * (k + 0.5) / scheme.n_samples
                    pairs.append(
                        (
                            _orientation_about_bond(bond_angle, azim),
                            wt / (scheme.transverse_nodes * scheme.n_samples),
                        )
                    )
    return _merge_orientations(pairs)


def scheme_orientations(scheme: OrientationScheme) -> tuple[list[LabOrientation], np.ndarray]:
    if isinstance(scheme, PowderScheme):
        return powder_orientations(scheme.grid_size)
    if isinstance(scheme, AlignedScheme):
        return aligned_orientations(scheme)
    return [LabOrientation(scheme.theta, scheme.phi)], np.array([1.0])


@dataclass
class Stick:
    """One resonance: field position plus per-channel signed amplitudes."""

    field_mt: float
    amplitudes: np.ndarray
    lower: int
    upper: int
    slope_mhz_per_mt: float
    electron_m: tuple[float, float] | None = None
    nuclear_m: tuple[float, float] | None = None

    @property
    def amplitude(self) -> float:
        return float(self.amplitudes[0])


@dataclass
class PopulationChannels:
    """Populations expressed over a fixed set of basis states.

    Channel ``c`` corresponds to the density matrix
    ``sum_r weights[c, r] |states[:, r]><states[:, r]|``; populations of the
    exact eigenstates are the weighted squared overlaps.
    """

    states: np.ndarray   # (dim, r) orthonormal columns
    weights: np.ndarray  # (n_channels, r)


@dataclass
class ThermalChannel:
    temperature_k: float


@dataclass
class SearchDiagnostics:
    n_sticks: int = 0
    n_discarded_slope: int = 0


def find_resonances(
    h0: np.ndarray,
    h1: np.ndarray,
    sweep: FieldSweepConfig,
    channels: PopulationChannels | ThermalChannel,
    transverse_ops: tuple[np.ndarray, np.ndarray],
    electron_axis_op: np.ndarray | None = None,
    nuclear_axis_op: np.ndarray | None = None,
) -> tuple[list[Stick], SearchDiagnostics]:
    """Locate all microwave resonances of ``h0 + B h1`` in the sweep window.

    Dense-grid search: eigenvalues on a uniform field grid, sign changes of
    (transition frequency - microwave frequency) bracketed and refined by
    linear interpolation.  Level identity across a bracket is resolved by
    eigenvector overlap, so populations, moments and slopes follow the
    physical levels through crossings.  Transitions flatter than the slope
    floor are discarded and counted in the diagnostics.
    """
    pad = sweep.pad_linewidths * sweep.linewidth_mt
    step = (sweep.field_stop_mt - sweep.field_start_mt) / (sweep.search_points - 1)
    n_extra = int(math.ceil(pad / step))
    lo = max(0.0, sweep.field_start_mt - n_extra * step)
    n_lo = int(round((sweep.field_start_mt - lo) / step))
    bgrid = sweep.field_start_mt + step * np.arange(-n_lo, sweep.search_points + n_extra)
    nu_mw = sweep.mw_frequency_mhz()
    dim = h0.shape[0]

    # Eigenvalues everywhere, eigenvectors only where a bracket needs them.
    hs = h0[None, :, :] + bgrid[:, None, None] * h1[None, :, :]
    evals_grid = np.linalg.eigvalsh(hs)

    iu, ju = np.triu_indices(dim, 1)
    f_grid = evals_grid[:, ju] - evals_grid[:, iu] - nu_mw
    bracket = (f_grid[:-1] * f_grid[1:] < 0) | ((f_grid[:-1] == 0) & (f_grid[1:] != 0))
    hit_k, hit_p = np.nonzero(bracket)

    diag = SearchDiagnostics()
    if len(hit_k) == 0:
        return [], diag

    needed = np.unique(np.concatenate([hit_k, hit_k + 1]))
    evals, evecs = np.linalg.eigh(hs[needed])

    if isinstance(channels, ThermalChannel):
        pops = pol.thermal_populations(evals, channels.temperature_k)[:, None, :]
    else:
        overlap = np.abs(np.matmul(channels.states.conj().T[None, :, :], evecs)) ** 2
        pops = np.einsum("cr,nrd->ncd", channels.weights, overlap)

    # k and k+1 are adjacent integers, so their positions in the sorted
    # unique array are adjacent as well.
    k0 = np.searchsorted(needed, hit_k)
    k1 = k0 + 1
    li = iu[hit_p]
    lj = ju[hit_p]

    vi0 = evecs[k0, :, li]
    vj0 = evecs[k0, :, lj]
    # Follow both levels into the next grid point by largest overlap.
    right = evecs[k1]
    i2 = np.abs(np.einsum("nd,ndk->nk", vi0.conj(), right)).argmax(axis=1)
    j2 = np.abs(np.einsum("nd,ndk->nk", vj0.conj(), right)).argmax(axis=1)
    tie = i2 == j2
    i2[tie] = li[tie]
    j2[tie] = lj[tie]

    f0 = evals[k0, lj] - evals[k0, li] - nu_mw
    f1 = evals[k1, j2] - evals[k1, i2] - nu_mw
    # Tracked branch may fail to bracket; fall back to sorted labels there.
    bad = (f0 == f1) | (f0 * f1 > 0)
    i2[bad] = li[bad]
    j2[bad] = lj[bad]
    f1 = np.where(bad, evals[k1, lj] - evals[k1, li] - nu_mw, f1)

    with np.errstate(divide="ignore", invalid="ignore"):
        t = f0 / (f0 - f1)
    slope = (f1 - f0) / step
    valid = np.isfinite(t) & (t >= 0.0) & (t <= 1.0)
    slope_floor = sweep.slope_floor_ghz_per_mt * 1e3
    flat = valid & (np.abs(slope) < slope_floor)
    diag.n_discarded_slope = int(flat.sum())
    keep = valid & ~flat
    if not keep.any():
        return [], diag

    k0, k1, li, lj, i2, j2 = (arr[keep] for arr in (k0, k1, li, lj, i2, j2))
    t, slope, f0 = t[keep], slope[keep], f0[keep]
    vi0, vj0 = vi0[keep], vj0[keep]
    vi1 = evecs[k1, :, i2]
    vj1 = evecs[k1, :, j2]
    b_res = bgrid[hit_k[keep]] + t * step

    sa, sb = transverse_ops

    def _moment(u: np.ndarray, w: np.ndarray) -> np.ndarray:
        return (
            np.abs(np.einsum("nd,de,ne->n", u.conj(), sa, w)) ** 2
            + np.abs(np.einsum("nd,de,ne->n", u.conj(), sb, w)) ** 2
        )

    moment = (1 - t) * _moment(vi0, vj0) + t * _moment(vi1, vj1)
    # Strictly forbidden level pairs bracket the microwave frequency too;
    # they carry no intensity in any channel, so drop them here.
    allowed = moment > 0.0
    if not allowed.all():
        k0, k1, li, lj, i2, j2 = (arr[allowed] for arr in (k0, k1, li, lj, i2, j2))
        t, slope, moment, b_res = t[allowed], slope[allowed], moment[allowed], b_res[allowed]
        vi0, vj0, vi1, vj1 = vi0[allowed], vj0[allowed], vi1[allowed], vj1[allowed]
        if not len(b_res):
            return [], diag
    p_low = (1 - t)[:, None] * pops[k0, :, li] + t[:, None] * pops[k1, :, i2]
    p_up = (1 - t)[:, None] * pops[k0, :, lj] + t[:, None] * pops[k1, :, j2]
    amps = moment[:, None] * (p_low - p_up) / (np.abs(slope)[:, None] / 1e3)

    def _expectations(op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        def ev(u0, u1):
            e0 = np.einsum("nd,de,ne->n", u0.conj(), op, u0).real
            e1 = np.einsum("nd,de,ne->n", u1.conj(), op, u1).real
            return (1 - t) * e0 + t * e1

        return ev(vi0, vi1), ev(vj0, vj1)

    em = _expectations(electron_axis_op) if electron_axis_op is not None else None
    nm = _expectations(nuclear_axis_op) if nuclear_axis_op is not None else None

    order = np.argsort(b_res, kind="stable")
    sticks = [
        Stick(
            field_mt=float(b_res[n]),
            amplitudes=amps[n],
            lower=int(li[n]),
            upper=int(lj[n]),
            slope_mhz_per_mt=float(slope[n]),
            electron_m=(float(em[0][n]), float(em[1][n])) if em is not None else None,
            nuclear_m=(float(nm[0][n]), float(nm[1][n])) if nm is not None else None,
        )
        for n in order
    ]
    diag.n_sticks = len(sticks)
    return sticks, diag


def _lineshape_kernel(offsets: np.ndarray, sweep: FieldSweepConfig) -> np.ndarray:
    fwhm = sweep.linewidth_mt
    if sweep.lineshape == "lorentzian":
        hwhm = fwhm / 2.0
        return (hwhm / math.pi) / (offsets**2 + hwhm**2)
    sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    return np.exp(-0.5 * (offsets / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))


def convolve_lineshape(sticks: list[Stick], sweep: FieldSweepConfig) -> np.ndarray:
    """Sum of unit-area lines, one per stick; shape (n_channels, n_points).

    Lines centered inside the sweep window are renormalized on the sampled
    grid so each carries exactly its stick amplitude as integrated area;
    lines in the padding margin keep the analytic normalization and only
    contribute their tails.
    """
    axis = sweep.field_axis()
    if not sticks:
        return np.zeros((1, len(axis)))
    centers = np.array([s.field_mt for s in sticks])
    amps = np.stack([s.amplitudes for s in sticks], axis=1)
    kernel = _lineshape_kernel(axis[None, :] - centers[:, None], sweep)
    db = axis[1] - axis[0]
    inside = (centers >= sweep.field_start_mt) & (centers <= sweep.field_stop_mt)
    areas = kernel.sum(axis=1) * db
    norm = np.where(inside & (areas > 0), areas, 1.0)
    return amps @ (kernel / norm[:, None])


@dataclass
class Spectrum:
    """Simulated (or measured) field-swept spectrum plus provenance."""

    field_mt: np.ndarray
    intensity: np.ndarray
    metadata: dict = dc_field(default_factory=dict)

    def net_integral(self, lo_mt: float | None = None, hi_mt: float | None = None) -> float:
        lo = self.field_mt[0] if lo_mt is None else lo_mt
        hi = self.field_mt[-1] if hi_mt is None else hi_mt
        mask = (self.field_mt >= lo) & (self.field_mt <= hi)
        return float(np.trapezoid(self.intensity[mask], self.field_mt[mask]))


def intensity_extent(spectrum: Spectrum, fraction: float = 0.99) -> tuple[float, float]:
    """Field interval where |intensity| stays above (1 - fraction) of its peak.

    With the default fraction the extent spans the outermost field points
    whose signal exceeds 1% of the maximum, i.e. the region inside the 99%
    dynamic-range level.  Measures how far out a spectrum's discernible
    features reach, independent of where the intensity mass concentrates.
    """
    weight = np.abs(spectrum.intensity)
    peak = weight.max()
    if peak == 0:
        raise ValueError("spectrum carries no intensity")
    above = np.nonzero(weight >= (1.0 - fraction) * peak)[0]
    return float(spectrum.field_mt[above[0]]), float(spectrum.field_mt[above[-1]])


def _transverse_ops(
    orientation: LabOrientation, spin_xyz: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Components of ``spin_xyz`` along two axes perpendicular to the field."""
    n = orientation.unit_vector()
    ref = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    a = np.cross(ref, n)
    a /= np.linalg.norm(a)
    b = np.cross(n, a)
    return sum(a[c] * spin_xyz[c] for c in range(3)), sum(b[c] * spin_xyz[c] for c in range(3))


def orientation_average(
    parts,
    sweep: FieldSweepConfig,
    orientations: list[LabOrientation],
    weights: np.ndarray,
    n_channels: int,
    fold=None,
) -> tuple[np.ndarray, SearchDiagnostics]:
    """Weighted sum over orientations of convolved resonance spectra.

    ``parts(orientation)`` returns ``(h0, h1, spin_xyz, channels)``: the
    Hamiltonian ``h0 + B h1`` in MHz (B in mT), the x, y, z spin operators
    whose components transverse to the field drive the transitions, and the
    population channels for :func:`find_resonances`.  Each orientation
    gives an ``(n_channels, n_points)`` block, zero where nothing resonates,
    and the total is ``sum(weight * block)`` in orientation order.  A
    ``fold(orientation, weight, block)`` takes each block instead; the
    returned total then stays zero.
    """
    total = np.zeros((n_channels, sweep.n_points))
    diags = SearchDiagnostics()
    for orientation, weight in zip(orientations, weights):
        h0, h1, spin_xyz, channels = parts(orientation)
        transverse = _transverse_ops(orientation, spin_xyz)
        sticks, diag = find_resonances(h0, h1, sweep, channels, transverse)
        diags.n_sticks += diag.n_sticks
        diags.n_discarded_slope += diag.n_discarded_slope
        block = convolve_lineshape(sticks, sweep) if sticks else np.zeros_like(total)
        if fold is None:
            total += weight * block
        else:
            fold(orientation, weight, block)
    return total, diags


def _dimer_parts(spec: SpinSystemSpec, channels_at):
    """``parts`` of the coupled dimer, with populations from ``channels_at(orientation)``."""
    ops = spincore.product_operators()
    s_tot = tuple(ops["triplet"][c] + ops["doublet"][c] for c in range(3))

    def parts(orientation: LabOrientation):
        h0, h1 = spincore.hamiltonian_parts(spec, orientation)
        return h0, h1, s_tot, channels_at(orientation)

    return parts


def _model_channels(spec: SpinSystemSpec, model: pol.PolarizationModel):
    """Single population channel of ``model`` as a function of orientation."""
    if isinstance(model, pol.ThermalPolarization):
        return lambda orientation: ThermalChannel(model.temperature_k)
    return lambda orientation: _photo_channels(spec, orientation, model)


def _photo_channels(
    spec: SpinSystemSpec, orientation: LabOrientation, model: pol.PhotoQuartetPolarization
) -> PopulationChannels:
    theta_q, phi_q = pol.field_in_quartet_frame(spec.frames, orientation)
    quartet = pol.rho_s_entries(theta_q, phi_q, model.params)
    weights = np.kron(quartet, model.nuclear.as_array())
    states = pol.coupled_states_along(orientation)
    if model.doublet_populations is not None:
        weights = np.concatenate(
            [weights, np.kron(np.asarray(model.doublet_populations), model.nuclear.as_array())]
        )
        return PopulationChannels(states, weights[None, :])
    return PopulationChannels(states[:, :32], weights[None, :])


def _basis_channels(orientation: LabOrientation) -> PopulationChannels:
    # 24 channels: (quadrupolar, linear, cubic) quartet structures times the
    # eight nuclear sublevels.  Spectra are linear in these, so any
    # photo-quartet polarization is a contraction of the results.
    structures = np.stack([QUAD_STRUCTURE, LINEAR_STRUCTURE, CUBIC_STRUCTURE])
    weights = np.zeros((24, 32))
    for s in range(3):
        for l in range(8):
            w = np.zeros((4, 8))
            w[:, l] = structures[s]
            weights[s * 8 + l] = w.ravel()
    states = pol.coupled_states_along(orientation)[:, :32]
    return PopulationChannels(states, weights)


def stick_spectrum(
    spec: SpinSystemSpec,
    orientation: LabOrientation,
    model: pol.PolarizationModel,
    sweep: FieldSweepConfig,
) -> list[Stick]:
    """Resonance sticks of the dimer at one orientation (single channel)."""
    h0, h1, s_tot, channels = _dimer_parts(spec, _model_channels(spec, model))(orientation)
    nuc = spincore.product_operators()["nucleus"]
    n = orientation.unit_vector()
    sn = sum(n[c] * s_tot[c] for c in range(3))
    inuc = sum(n[c] * nuc[c] for c in range(3))
    transverse = _transverse_ops(orientation, s_tot)
    sticks, _ = find_resonances(h0, h1, sweep, channels, transverse, sn, inuc)
    return sticks


def simulate_dimer(
    spec: SpinSystemSpec,
    model: pol.PolarizationModel,
    sweep: FieldSweepConfig,
    scheme: OrientationScheme,
) -> Spectrum:
    """Full simulation of the coupled-dimer spectrum for one scheme."""
    orientations, weights = scheme_orientations(scheme)
    parts = _dimer_parts(spec, _model_channels(spec, model))
    total, diags = orientation_average(parts, sweep, orientations, weights, 1)
    meta = {
        "kind": "dimer",
        "scheme": scheme_metadata(scheme),
        "sweep": sweep_metadata(sweep),
        "diagnostics": {
            "sticks": diags.n_sticks,
            "discarded_flat_transitions": diags.n_discarded_slope,
        },
    }
    return Spectrum(sweep.field_axis(), total[0], meta)


def powder_average(
    spec: SpinSystemSpec,
    model: pol.PolarizationModel,
    sweep: FieldSweepConfig,
    grid_size: int = 256,
) -> Spectrum:
    return simulate_dimer(spec, model, sweep, PowderScheme(grid_size))


@dataclass
class QuartetBasisSpectra:
    """Per-coefficient, per-nuclear-sublevel basis spectra for fast fitting.

    ``tensor[p, l]`` is the spectrum produced by unit coefficient ``p``
    (order a1 a2 a3 r1 r2 r3) with all population in nuclear sublevel ``l``.
    A full simulation is ``einsum('p,l,plf->f', coeffs, nuclear, tensor)``.
    """

    field_mt: np.ndarray
    tensor: np.ndarray

    def evaluate(self, params: pol.QuartetPolarizationParams, nuclear: pol.NuclearPopulations | np.ndarray) -> np.ndarray:
        coeffs = np.array([*params.a, *params.r])
        p_nuc = nuclear.as_array() if isinstance(nuclear, pol.NuclearPopulations) else np.asarray(nuclear)
        return np.einsum("p,l,plf->f", coeffs, p_nuc, self.tensor)


def quartet_basis_spectra(
    spec: SpinSystemSpec, sweep: FieldSweepConfig, scheme: OrientationScheme
) -> QuartetBasisSpectra:
    """Precompute the 6 x 8 basis spectra of the photo-quartet model."""
    orientations, weights = scheme_orientations(scheme)
    tensor = np.zeros((6, 8, sweep.n_points))

    def fold(orientation, weight, block):
        theta_q, phi_q = pol.field_in_quartet_frame(spec.frames, orientation)
        sin2 = math.sin(theta_q) ** 2
        cos2 = math.cos(theta_q) ** 2
        angular = np.array(
            [sin2, 1 - 3 * cos2, sin2, cos2, sin2 * math.cos(2 * phi_q), cos2]
        )
        shaped = block.reshape(3, 8, sweep.n_points)
        for p in range(6):
            tensor[p] += weight * angular[p] * shaped[_PARAM_STRUCTURES[p]]

    parts = _dimer_parts(spec, _basis_channels)
    orientation_average(parts, sweep, orientations, weights, 24, fold)
    return QuartetBasisSpectra(sweep.field_axis(), tensor)


def simulate_triplet(
    g: float,
    zfs_d_mhz: float,
    zfs_e_mhz: float,
    populations: pol.TripletZeroFieldPolarization | tuple[float, float, float],
    sweep: FieldSweepConfig,
    grid_size: int = 256,
) -> Spectrum:
    """Powder spectrum of an isolated spin-polarized triplet.

    Zero-field states inherit the supplied populations; the principal frame
    of the fine-structure tensor is the molecular frame.
    """
    if isinstance(populations, pol.TripletZeroFieldPolarization):
        p = np.asarray(populations.populations)
    else:
        p = np.asarray(populations, dtype=float)
    ops = spincore.spin_operators(1.0)
    principal = np.array([-zfs_d_mhz / 3 + zfs_e_mhz, -zfs_d_mhz / 3 - zfs_e_mhz, 2 * zfs_d_mhz / 3])
    h0 = sum(principal[c] * ops[c] @ ops[c] for c in range(3))
    channels = PopulationChannels(pol.triplet_zero_field_states(), p[None, :])

    def parts(orientation: LabOrientation):
        n = orientation.unit_vector()
        return h0, g * BOHR_MHZ_PER_MT * sum(n[c] * ops[c] for c in range(3)), ops, channels

    orientations, weights = powder_orientations(grid_size)
    total, diags = orientation_average(parts, sweep, orientations, weights, 1)
    meta = {
        "kind": "triplet",
        "sweep": sweep_metadata(sweep),
        "grid_size": grid_size,
        "diagnostics": {"sticks": diags.n_sticks},
    }
    return Spectrum(sweep.field_axis(), total[0], meta)


def simulate_cw_doublet(
    g_tensor: spincore.InteractionTensor,
    a_tensor: spincore.InteractionTensor,
    sweep: FieldSweepConfig,
    grid_size: int = 256,
    temperature_k: float = 295.0,
) -> Spectrum:
    """Rigid-limit CW spectrum (first derivative) of a S=1/2, I=7/2 center.

    Thermal populations; field modulation is represented by the numerical
    field derivative of the absorption envelope.  Slow-motional dynamics is
    out of scope.
    """
    s_ops = tuple(np.kron(op, np.eye(8)) for op in spincore.spin_operators(0.5))
    i_ops = tuple(np.kron(np.eye(2), op) for op in spincore.spin_operators(3.5))
    h0 = spincore.bilinear(a_tensor.matrix(), i_ops, s_ops)
    g_mat = g_tensor.matrix()
    thermal = ThermalChannel(temperature_k)

    def parts(orientation: LabOrientation):
        g_row = orientation.unit_vector() @ g_mat
        return h0, BOHR_MHZ_PER_MT * sum(g_row[c] * s_ops[c] for c in range(3)), s_ops, thermal

    orientations, weights = powder_orientations(grid_size)
    total, _ = orientation_average(parts, sweep, orientations, weights, 1)
    axis = sweep.field_axis()
    derivative = np.gradient(total[0], axis)
    meta = {
        "kind": "cw-doublet",
        "sweep": sweep_metadata(sweep),
        "grid_size": grid_size,
        "temperature_k": temperature_k,
        "derivative": True,
    }
    return Spectrum(axis, derivative, meta)


def sweep_metadata(sweep: FieldSweepConfig) -> dict:
    return {
        "mw_frequency_ghz": sweep.mw_frequency_ghz,
        "field_start_mt": sweep.field_start_mt,
        "field_stop_mt": sweep.field_stop_mt,
        "n_points": sweep.n_points,
        "lineshape": sweep.lineshape,
        "linewidth_mt": sweep.linewidth_mt,
        "search_points": sweep.search_points,
        "slope_floor_ghz_per_mt": sweep.slope_floor_ghz_per_mt,
    }


def scheme_metadata(scheme: OrientationScheme) -> dict:
    if isinstance(scheme, PowderScheme):
        return {"kind": "powder", "grid_size": scheme.grid_size}
    if isinstance(scheme, AlignedScheme):
        return {
            "kind": "aligned",
            "mode": scheme.mode,
            "sigma_deg": scheme.sigma_deg,
            "n_samples": scheme.n_samples,
            "tilt_nodes": scheme.tilt_nodes,
            "transverse_nodes": scheme.transverse_nodes,
        }
    return {"kind": "single", "theta": scheme.theta, "phi": scheme.phi}
