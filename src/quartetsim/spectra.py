"""Field-swept spectra: resonance search, lineshapes and orientation averages.

A spectrum is assembled in three stages.  For one orientation of the field
in the molecular frame, level-pair transition frequencies on a coarse field
grid bracket the crossings of the microwave frequency, and cubic Hermite
models with exact slopes locate them; each crossing becomes a stick whose
amplitude combines the transverse transition moment, the population
difference of the exact eigenstates and the field-frequency conversion
factor |d nu / dB|.  Sticks
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
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field as dc_field, fields

import numpy as np

from . import polarization as pol
from . import spincore
from .constants import BOHR_MHZ_PER_MT, BOLTZMANN_J_PER_K, PLANCK_J_PER_HZ
from .spincore import LabOrientation, SpinSystemSpec

# Order of the six polarization coefficients throughout: a1 a2 a3 r1 r2 r3.
PARAM_NAMES = ("a1", "a2", "a3", "r1", "r2", "r3")

LINESHAPES = ("lorentzian", "gaussian")


@dataclass(frozen=True)
class FieldSweepConfig:
    """Sweep window, detection frequency and lineshape settings.

    ``search_points`` sets the step of the initial field grid of the
    resonance search: that of ``search_points`` points across the sweep
    window.  The grid only brackets resonances; stick fields come from cubic
    Hermite roots with exact slopes (see :func:`find_resonances`), so the
    default 151 points match a 4801-point search to well below 1e-4 mT.
    ``slope_floor_ghz_per_mt`` discards effectively field-independent
    transitions whose formal amplitude would diverge.  ``pad_linewidths``
    widens the search window to [max(0, start - pad), stop + pad], with
    pad = ``pad_linewidths * linewidth_mt``, so lines sitting just outside
    the plotted range still contribute their tails.
    """

    mw_frequency_ghz: float = 9.5
    field_start_mt: float = 240.0
    field_stop_mt: float = 440.0
    n_points: int = 1024
    lineshape: str = "lorentzian"
    linewidth_mt: float = 1.8
    search_points: int = 151
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

    def __post_init__(self):
        LabOrientation(self.theta, self.phi)  # the same angle checks as a field direction


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
    """What the resonance search did, summed over the orientations of a spectrum.

    ``n_polished`` counts sticks taken from a diagonalization at their own
    field; ``n_tie_fallback`` and ``n_untracked_fallback`` count brackets
    where eigenvector-overlap tracking gave both levels the same partner or
    a tracked pair that does not bracket, so sorted labels were used;
    ``n_subdivided`` counts grid segments halved for a possible double
    crossing.
    """

    n_sticks: int = 0
    n_discarded_slope: int = 0
    n_polished: int = 0
    n_tie_fallback: int = 0
    n_untracked_fallback: int = 0
    n_subdivided: int = 0

    def add(self, other: "SearchDiagnostics") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def metadata(self) -> dict:
        return {
            "sticks": self.n_sticks,
            "discarded_flat_transitions": self.n_discarded_slope,
            "polished_sticks": self.n_polished,
            "tie_fallbacks": self.n_tie_fallback,
            "untracked_fallbacks": self.n_untracked_fallback,
            "subdivided_segments": self.n_subdivided,
        }


# A segment is halved while some transition frequency could dip through the
# microwave frequency inside it: both ends on one side, the nearer end within
# _SAG_SAFETY times the largest sag |f''| h^2 / 8 that the curvature at its
# ends allows.  At most _MAX_HALVINGS rounds.
_SAG_SAFETY = 4.0
_MAX_HALVINGS = 8
# A bracket whose cubic-Hermite and secant roots lie farther apart than the
# field accuracy the search aims for is polished at its root.
_POLISH_FIELD_MT = 1e-4
# Block sizes of the search and of the lineshape convolution: matrices per
# grid eigvalsh call, level pairs per detuning block, brackets per resolved
# block and sticks per kernel block.  They keep one orientation's
# temporaries at a few MB (on the bundled dimer's powder, a traced peak of
# 3 MB against 15 MB unblocked): every thread of orientation_average holds
# one orientation's, and glibc keeps large freed temporaries in the arena
# of the thread that freed them.
_GRID_BLOCK = 16
_PAIR_BLOCK = 128
_BRACKET_BLOCK = 64
_STICK_BLOCK = 64


def _search_grid(sweep: FieldSweepConfig) -> np.ndarray:
    """Uniform grid over [max(0, start - pad), stop + pad], no coarser than the search step."""
    pad = sweep.pad_linewidths * sweep.linewidth_mt
    lo = max(0.0, sweep.field_start_mt - pad)
    hi = sweep.field_stop_mt + pad
    step = (sweep.field_stop_mt - sweep.field_start_mt) / (sweep.search_points - 1)
    return np.linspace(lo, hi, int(math.ceil((hi - lo) / step - 1e-9)) + 1)


def _double_crossing_risk(bgrid: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Segments whose ends share a sign but whose curvature allows two crossings."""
    h = np.diff(bgrid)
    secant = np.diff(f, axis=0) / h[:, None]
    # Only pairs that come within two grid steps' travel of zero can qualify.
    near = np.abs(f).min(axis=0) < 2.0 * h.max() * np.abs(secant).max(axis=0)
    f, secant = f[:, near], secant[:, near]
    curvature = np.zeros_like(f)
    curvature[1:-1] = 2.0 * np.diff(secant, axis=0) / (h[:-1] + h[1:])[:, None]
    side = np.sign(f[:-1])
    # Positive values bend the curve toward zero between the segment's ends.
    bend = np.maximum(curvature[:-1] * side, curvature[1:] * side)
    nearest = np.minimum(np.abs(f[:-1]), np.abs(f[1:]))
    risky = (f[:-1] * f[1:] > 0) & (nearest < _SAG_SAFETY * bend * (h**2 / 8.0)[:, None])
    return risky.any(axis=1)


def _detuning_blocks(evals: np.ndarray, iu: np.ndarray, ju: np.ndarray, nu_mw: float):
    """``(s, f)`` per block of ``_PAIR_BLOCK`` level pairs from pair ``s`` on.

    ``f[k, q]`` is the transition frequency of pair ``(iu, ju)[s + q]``
    minus ``nu_mw`` at grid point ``k``.
    """
    for s in range(0, len(iu), _PAIR_BLOCK):
        f = evals[:, ju[s : s + _PAIR_BLOCK]]
        f -= evals[:, iu[s : s + _PAIR_BLOCK]]
        f -= nu_mw
        yield s, f


def _hermite(t, y0, y1, m0, m1, derivative=False):
    """Cubic Hermite on [0, 1] with end values y0, y1 and end slopes m0, m1 (per unit t)."""
    c2 = 3 * (y1 - y0) - 2 * m0 - m1
    c3 = 2 * (y0 - y1) + m0 + m1
    if derivative:
        return m0 + t * (2 * c2 + 3 * t * c3)
    return y0 + t * (m0 + t * (c2 + t * c3))


def _hermite_root(f0, f1, m0, m1) -> np.ndarray:
    """Root in [0, 1] of the cubic Hermite of f0, f1, m0, m1 where f0 and f1 bracket zero.

    Safeguarded Newton from the secant root, keeping a sign-change bracket.
    """
    lo, hi = np.zeros_like(f0), np.ones_like(f0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(f0 / (f0 - f1), 0.0, 1.0)
        for _ in range(60):
            p = _hermite(t, f0, f1, m0, m1)
            same = p * f0 > 0
            lo = np.where(same, t, lo)
            hi = np.where(same, hi, t)
            nxt = t - p / _hermite(t, f0, f1, m0, m1, derivative=True)
            nxt = np.where((nxt > lo) & (nxt < hi), nxt, 0.5 * (lo + hi))
            nxt = np.where(p == 0, t, nxt)
            if np.all(np.abs(nxt - t) <= 1e-14):
                return nxt
            t = nxt
    return t


def _level_derivatives(h1, evals, evecs, node, level):
    """Eigenvector, its B-derivative and dE/dB of each (node, level) pair.

    First-order perturbation theory: dv_l/dB = sum_m v_m <m|h1|l> / (E_l - E_m)
    over the m outside l's degenerate set (where h1 cannot couple them), and
    dE_l/dB = <l|h1|l> (Hellmann-Feynman).  The distinct levels of each node
    form the columns of one padded block, so the work scales with the levels
    used, not with all of them.  The degeneracy tolerance is relative to each
    node's own spectrum, so a level's result does not depend on the other
    nodes in the batch.
    """
    dim = evecs.shape[1]
    keys, inverse = np.unique(node * dim + level, return_inverse=True)
    key_node = keys // dim
    col = np.arange(len(keys)) - np.searchsorted(key_node, key_node)
    cols = np.zeros((len(evecs), col.max() + 1), dtype=int)
    cols[key_node, col] = keys % dim
    vl = np.take_along_axis(evecs, cols[:, None, :], axis=2)
    g = np.matmul(evecs.conj().transpose(0, 2, 1), np.matmul(h1, vl))
    gap = np.take_along_axis(evals, cols, axis=1)[:, None, :] - evals[:, :, None]
    tol = 1e-9 * (np.abs(evals).max(axis=1) + 1.0)[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        dvl = np.matmul(evecs, np.where(np.abs(gap) > tol, g / gap, 0.0))
    c = col[inverse]
    return vl[node, :, c], dvl[node, :, c], g[node, level, c].real


def _populations(channels, h1, evals, evecs, node, level, v, dv):
    """Populations (n, n_channels) of each (node, level) pair and their B-derivatives.

    ``v`` and ``dv`` are those levels' eigenvectors and eigenvector
    derivatives; thermal populations use every level at the node instead.
    """
    if isinstance(channels, ThermalChannel):
        slopes = np.einsum("ndk,ndk->nk", evecs.conj(), np.matmul(h1, evecs)).real
        p = pol.thermal_populations(evals, channels.temperature_k)
        beta = PLANCK_J_PER_HZ * 1e6 / (BOLTZMANN_J_PER_K * channels.temperature_k)
        dp = -beta * p * (slopes - (p * slopes).sum(axis=-1, keepdims=True))
        return p[node, level][:, None], dp[node, level][:, None]
    amp = v @ channels.states.conj()
    d_overlap = 2 * (amp.conj() * (dv @ channels.states.conj())).real
    return np.abs(amp) ** 2 @ channels.weights.T, d_overlap @ channels.weights.T


def _moment(ops, u, w, du, dw) -> tuple[np.ndarray, np.ndarray]:
    """Transition moment sum_a |<u|op_a|w>|^2 of each row pair and its B-derivative."""
    value = np.zeros(len(u))
    deriv = np.zeros(len(u))
    for op in ops:
        ow, odw = w @ op.T, dw @ op.T
        elem = np.einsum("nd,nd->n", u.conj(), ow)
        d_elem = np.einsum("nd,nd->n", du.conj(), ow) + np.einsum("nd,nd->n", u.conj(), odw)
        value += np.abs(elem) ** 2
        deriv += 2 * (elem.conj() * d_elem).real
    return value, deriv


def _track(u: np.ndarray, evecs: np.ndarray, node: np.ndarray) -> np.ndarray:
    """Index of the column of ``evecs[node[n]]`` with the largest overlap with ``u[n]``.

    Rows are grouped by node, so no per-row copy of the eigenvector matrices
    is made.
    """
    best = np.empty(len(u), dtype=int)
    for m in np.unique(node):
        rows = np.flatnonzero(node == m)
        best[rows] = np.abs(u[rows].conj() @ evecs[m]).argmax(axis=1)
    return best


def _grid_eigenvalues(h0: np.ndarray, h1: np.ndarray, fields: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``h0 + B h1`` at every field, ``_GRID_BLOCK`` matrices at a time."""
    return np.concatenate([
        np.linalg.eigvalsh(h0 + fields[s : s + _GRID_BLOCK, None, None] * h1)
        for s in range(0, len(fields), _GRID_BLOCK)
    ])


def find_resonances(
    h0: np.ndarray,
    h1: np.ndarray,
    sweep: FieldSweepConfig,
    channels: PopulationChannels | ThermalChannel,
    transverse_ops: tuple[np.ndarray, np.ndarray],
) -> tuple[list[Stick], SearchDiagnostics]:
    """Locate all microwave resonances of ``h0 + B h1`` in the sweep window.

    The search covers the sweep window padded by ``pad_linewidths``
    linewidths on both sides (never below zero field) with a uniform grid
    whose step is that of ``search_points`` points across the sweep window.
    Eigenvalues come from the whole grid; a segment where some transition
    frequency could cross the microwave frequency twice between its ends is
    halved first.  A sign change of (transition frequency - nu) brackets a
    resonance, and only bracket ends are diagonalized with eigenvectors.
    Level identity across a bracket follows eigenvector overlap.

    At both ends of a bracket, first-order perturbation theory in B gives
    the exact level slopes dE/dB = <v|h1|v> (Hellmann-Feynman) and the
    B-derivatives of transition moments and populations.  The tracked
    transition frequency is a cubic Hermite on the bracket: its root is the
    stick field and its derivative there the |d nu / dB| of the amplitude;
    moment and populations are cubic Hermites too.  A bracket at risk (a
    tracked label swapped inside it, a tracking fallback, or cubic and
    secant roots apart by more than ``_POLISH_FIELD_MT``) is polished
    instead: one diagonalization at the root, a Newton step, and moment,
    populations, slope and labels from the root's own eigenvectors.

    The grid is diagonalized ``_GRID_BLOCK`` matrices at a time and the
    brackets are resolved about ``_BRACKET_BLOCK`` at a time (a block ends
    on a whole grid segment), so the temporaries stay the same size however
    many resonances an orientation has.

    ``Stick.lower``/``upper`` are sorted level indices at the stick's
    field; ``electron_m``/``nuclear_m`` stay unset (:func:`stick_spectrum`
    fills them).  Transitions flatter than the slope floor are discarded;
    every fallback and refinement is counted in the diagnostics.
    """
    nu_mw = sweep.mw_frequency_mhz()
    dim = h0.shape[0]
    iu, ju = np.triu_indices(dim, 1)
    diag = SearchDiagnostics()

    bgrid = _search_grid(sweep)
    evals_grid = _grid_eigenvalues(h0, h1, bgrid)
    for _ in range(_MAX_HALVINGS):
        risky = np.zeros(len(bgrid) - 1, dtype=bool)
        for _, f in _detuning_blocks(evals_grid, iu, ju, nu_mw):
            risky |= _double_crossing_risk(bgrid, f)
        if not risky.any():
            break
        diag.n_subdivided += int(risky.sum())
        mids = 0.5 * (bgrid[:-1][risky] + bgrid[1:][risky])
        order = np.argsort(np.concatenate([bgrid, mids]), kind="stable")
        bgrid = np.concatenate([bgrid, mids])[order]
        evals_grid = np.concatenate([evals_grid, _grid_eigenvalues(h0, h1, mids)])[order]

    # A sign change of the detuning brackets a resonance; brackets go in
    # (grid point, level pair) order.
    hit_k, hit_p = [], []
    for s, f in _detuning_blocks(evals_grid, iu, ju, nu_mw):
        k, p = np.nonzero((f[:-1] * f[1:] < 0) | ((f[:-1] == 0) & (f[1:] != 0)))
        hit_k.append(k)
        hit_p.append(p + s)
    hit_k, hit_p = np.concatenate(hit_k), np.concatenate(hit_p)
    order = np.lexsort((hit_p, hit_k))
    hit_k, hit_p = hit_k[order], hit_p[order]
    blocks = []
    last = None  # grid index, eigenvalues and eigenvectors of the previous block's last node
    s = 0
    while s < len(hit_k):
        # A block takes every bracket of its last grid segment, so the next
        # block starts on a later segment and shares at most one node with it.
        e = int(np.searchsorted(hit_k, hit_k[min(s + _BRACKET_BLOCK, len(hit_k)) - 1], side="right"))
        k, p = hit_k[s:e], hit_p[s:e]
        # Eigenvectors only where a bracket needs them; a node shared with
        # the previous block is diagonalized once.
        needed = np.unique(np.concatenate([k, k + 1]))
        shared = int(last is not None and needed[0] == last[0])
        evals, evecs = np.linalg.eigh(h0 + bgrid[needed[shared:], None, None] * h1)
        if shared:
            evals, evecs = np.concatenate([last[1], evals]), np.concatenate([last[2], evecs])
        last = (needed[-1], evals[-1:].copy(), evecs[-1:].copy())
        blocks.append(
            _resolve_brackets(
                h0, h1, sweep, channels, transverse_ops, bgrid, k, iu[p], ju[p], needed, evals, evecs, diag
            )
        )
        s = e
    if not sum(len(b[0]) for b in blocks):
        return [], diag
    b_res, slope, li, lj, amps = (np.concatenate(a) for a in zip(*blocks))

    order = np.argsort(b_res, kind="stable")
    sticks = [
        Stick(
            field_mt=float(b_res[n]),
            amplitudes=amps[n],
            lower=int(li[n]),
            upper=int(lj[n]),
            slope_mhz_per_mt=float(slope[n]),
        )
        for n in order
    ]
    diag.n_sticks = len(sticks)
    return sticks, diag


def _resolve_brackets(
    h0, h1, sweep, channels, transverse_ops, bgrid, hit_k, li, lj, needed, evals, evecs, diag
):
    """Sticks of the brackets between ``bgrid[hit_k]`` and ``bgrid[hit_k + 1]``.

    ``li``/``lj`` are the sorted level pairs whose transition frequency
    changes sign there; ``evals``/``evecs`` are the eigenpairs at the
    sorted grid indices ``needed``, which hold every ``hit_k`` and
    ``hit_k + 1``.  Returns field, slope, lower and upper labels and
    amplitudes ``(n, n_channels)`` of the brackets that give a stick, in
    bracket order, and adds this block's counts to ``diag``.
    """
    nu_mw = sweep.mw_frequency_mhz()

    def hamiltonians(fields: np.ndarray) -> np.ndarray:
        return h0[None, :, :] + fields[:, None, None] * h1[None, :, :]

    # k and k+1 are adjacent integers, so their positions in the sorted
    # unique array are adjacent too.
    k0 = np.searchsorted(needed, hit_k)
    k1 = k0 + 1

    # Follow both levels into the next grid point by largest overlap.
    i2, j2 = np.split(
        _track(np.concatenate([evecs[k0, :, li], evecs[k0, :, lj]]), evecs, np.concatenate([k1, k1])), 2
    )
    tie = i2 == j2
    i2[tie] = li[tie]
    j2[tie] = lj[tie]
    f0 = evals[k0, lj] - evals[k0, li] - nu_mw
    f1 = evals[k1, j2] - evals[k1, i2] - nu_mw
    # Tracked branch may fail to bracket; fall back to sorted labels there.
    untracked = (f0 == f1) | (f0 * f1 > 0)
    i2[untracked] = li[untracked]
    j2[untracked] = lj[untracked]
    f1 = np.where(untracked, evals[k1, lj] - evals[k1, li] - nu_mw, f1)
    diag.n_tie_fallback += int(tie.sum())
    diag.n_untracked_fallback += int(untracked.sum())

    # The four tracked levels of every bracket: lower and upper at each end.
    nodes = np.concatenate([k0, k0, k1, k1])
    levels = np.concatenate([li, lj, i2, j2])
    v, dv, s = _level_derivatives(h1, evals, evecs, nodes, levels)
    p, dp = _populations(channels, h1, evals, evecs, nodes, levels, v, dv)
    v, dv, s, p, dp = (np.split(a, 4) for a in (v, dv, s, p, dp))

    # Root of the tracked frequency's cubic; slopes and derivatives are per unit t.
    h = bgrid[hit_k + 1] - bgrid[hit_k]
    m0 = h * (s[1] - s[0])
    m1 = h * (s[3] - s[2])
    t = _hermite_root(f0, f1, m0, m1)
    with np.errstate(divide="ignore", invalid="ignore"):
        secant = f0 / (f0 - f1)
        slope = _hermite(t, f0, f1, m0, m1, derivative=True) / h
    valid = np.isfinite(t) & (t >= 0.0) & (t <= 1.0)
    b_res = bgrid[hit_k] + t * h
    polish = valid & (
        (i2 != li) | (j2 != lj) | tie | untracked | ~(np.abs(secant - t) * h <= _POLISH_FIELD_MT)
    )

    # (value at t=0, value at t=1, slope at t=0, slope at t=1) of the moment
    # and of both levels' populations.
    mom0, dmom0 = _moment(transverse_ops, v[0], v[1], dv[0], dv[1])
    mom1, dmom1 = _moment(transverse_ops, v[2], v[3], dv[2], dv[3])
    hc = h[:, None]
    ends = [
        (mom0, mom1, h * dmom0, h * dmom1),
        (p[0], p[2], hc * dp[0], hc * dp[2]),
        (p[1], p[3], hc * dp[1], hc * dp[3]),
    ]
    if polish.any():
        n = np.nonzero(polish)[0]
        b_root = b_res[n]
        e_r, v_r = np.linalg.eigh(hamiltonians(b_root))
        early = (t[n] < 0.5)[:, None]
        rows = np.arange(len(n))
        ir, jr = np.split(
            _track(
                np.concatenate([np.where(early, v[0][n], v[2][n]), np.where(early, v[1][n], v[3][n])]),
                v_r,
                np.concatenate([rows, rows]),
            ),
            2,
        )
        same = ir == jr
        ir[same], jr[same] = li[n][same], lj[n][same]
        ir, jr = np.minimum(ir, jr), np.maximum(ir, jr)
        root_nodes, root_levels = np.concatenate([rows, rows]), np.concatenate([ir, jr])
        vr, dvr, sr = _level_derivatives(h1, e_r, v_r, root_nodes, root_levels)
        pr, _ = _populations(channels, h1, e_r, v_r, root_nodes, root_levels, vr, dvr)
        (u_r, w_r), (s_i, s_j), (p_i, p_j) = (np.split(a, 2) for a in (vr, sr, pr))
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = -(e_r[rows, jr] - e_r[rows, ir] - nu_mw) / (s_j - s_i)
        b_res[n] = b_root + np.where(np.abs(newton) <= h[n], newton, 0.0)
        slope[n] = s_j - s_i
        li, lj = li.copy(), lj.copy()
        li[n], lj[n] = ir, jr
        # Root values at both ends with zero slopes: the cubics return them.
        zero = np.zeros_like(u_r)
        roots = (_moment(transverse_ops, u_r, w_r, zero, zero)[0], p_i, p_j)
        for (y0, y1, dy0, dy1), root in zip(ends, roots):
            y0[n] = y1[n] = root
            dy0[n] = dy1[n] = 0.0

    slope_floor = sweep.slope_floor_ghz_per_mt * 1e3
    flat = valid & (np.abs(slope) < slope_floor)
    diag.n_discarded_slope += int(flat.sum())
    # Strictly forbidden level pairs bracket the microwave frequency too;
    # they carry no intensity in any channel, so drop them here.
    keep = valid & ~flat & ((1 - t) * ends[0][0] + t * ends[0][1] > 0.0)
    diag.n_polished += int((polish & keep).sum())

    t, slope, b_res, li, lj = (a[keep] for a in (t, slope, b_res, li, lj))
    tc = t[:, None]
    moment = np.maximum(_hermite(t, *(a[keep] for a in ends[0])), 0.0)
    p_low = _hermite(tc, *(a[keep] for a in ends[1]))
    p_up = _hermite(tc, *(a[keep] for a in ends[2]))
    amps = moment[:, None] * (p_low - p_up) / (np.abs(slope)[:, None] / 1e3)
    return b_res, slope, li, lj, amps


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
    db = axis[1] - axis[0]
    inside = (centers >= sweep.field_start_mt) & (centers <= sweep.field_stop_mt)
    total = np.zeros((len(amps), len(axis)))
    for s in range(0, len(centers), _STICK_BLOCK):
        block = slice(s, s + _STICK_BLOCK)
        kernel = _lineshape_kernel(axis[None, :] - centers[block, None], sweep)
        areas = kernel.sum(axis=1) * db
        kernel /= np.where(inside[block] & (areas > 0), areas, 1.0)[:, None]
        total += amps[:, block] @ kernel
    return total


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


# One worker per CPU in the affinity mask: the calling thread and the
# helper threads of the pool, which starts them on first use and keeps them.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL = ThreadPoolExecutor(max(_WORKERS - 1, 1), thread_name_prefix="orientation-average")


def orientation_average(
    parts,
    sweep: FieldSweepConfig,
    orientations: list[LabOrientation],
    weights: np.ndarray,
    n_channels: int,
) -> tuple[np.ndarray, SearchDiagnostics]:
    """Weighted sum over orientations of convolved resonance spectra.

    ``parts(orientation)`` returns ``(h0, h1, spin_xyz, channels)``: the
    Hamiltonian ``h0 + B h1`` in MHz (B in mT), the x, y, z spin operators
    whose components transverse to the field drive the transitions, and the
    population channels for :func:`find_resonances`.  Each orientation
    gives an ``(n_channels, n_points)`` block, zero where nothing resonates,
    and the total is ``sum(weight * block)`` in orientation order.

    Orientations are dealt in turn to the workers, one per CPU the process
    may use: the calling thread computes every ``_WORKERS``-th orientation
    and the helper threads the rest, so ``parts`` must be safe to call from
    several threads at once.  The calling thread sums the blocks in
    orientation order, so the result does not depend on the CPU count; at
    most two orientations per worker are queued or finished ahead of the
    one being summed.  An exception from an orientation is raised here,
    after the orientations still queued are cancelled and those running
    have ended.
    """
    total = np.zeros((n_channels, sweep.n_points))
    diags = SearchDiagnostics()

    def block(orientation: LabOrientation) -> tuple[np.ndarray | None, SearchDiagnostics]:
        h0, h1, spin_xyz, channels = parts(orientation)
        transverse = _transverse_ops(orientation, spin_xyz)
        sticks, diag = find_resonances(h0, h1, sweep, channels, transverse)
        return (convolve_lineshape(sticks, sweep) if sticks else None), diag

    # The calling thread computes its own orientations here rather than
    # waiting: its memory arena is already grown, so a helper in its place
    # would add one more arena's worth to the peak RSS.
    workers = min(_WORKERS, len(orientations))
    window = 2 * workers
    pending = deque()  # futures of the helpers' orientations from i on, in order
    queued = 0  # orientations below this index are queued or left to this thread
    try:
        for i in range(len(orientations)):
            for j in range(queued, min(i + window, len(orientations))):
                if j % workers:
                    pending.append(_POOL.submit(block, orientations[j]))
            queued = i + window
            spectrum, diag = pending.popleft().result() if i % workers else block(orientations[i])
            diags.add(diag)
            # Nothing resonates: adding weight * 0 would leave the total as it is.
            if spectrum is not None:
                total += weights[i] * spectrum
    finally:
        for future in pending:
            future.cancel()
        wait(pending)
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
    nuclear = model.nuclear.as_array()[None, :]
    return _quartet_channels(spec, [model.params], nuclear, model.doublet_populations)


def _quartet_channels(
    spec: SpinSystemSpec,
    params: list[pol.QuartetPolarizationParams],
    nuclear: np.ndarray,
    doublet_populations: tuple[float, float] | None = None,
):
    """Photo-quartet population channels as a function of orientation.

    Channel ``len(nuclear) * p + l`` holds the quartet populations of
    ``params[p]`` (:func:`polarization.rho_s_entries`) times the nuclear
    populations ``nuclear[l]``; ``doublet_populations`` adds the
    trip-doublet block.
    """

    def channels(orientation: LabOrientation) -> PopulationChannels:
        theta_q, phi_q = pol.field_in_quartet_frame(spec.frames, orientation)
        weights = np.kron(np.stack([pol.rho_s_entries(theta_q, phi_q, p) for p in params]), nuclear)
        states = pol.coupled_states_along(orientation)
        if doublet_populations is None:
            return PopulationChannels(states[:, :32], weights)
        doublet = np.kron([doublet_populations], nuclear)
        return PopulationChannels(states, np.concatenate([weights, doublet], axis=1))

    return channels


def stick_spectrum(
    spec: SpinSystemSpec,
    orientation: LabOrientation,
    model: pol.PolarizationModel,
    sweep: FieldSweepConfig,
) -> list[Stick]:
    """Resonance sticks of the dimer at one orientation (single channel).

    ``electron_m``/``nuclear_m`` of each stick are <v|S.n|v> and <v|I.n|v>
    of its lower and upper levels, from a diagonalization at its own field.
    """
    h0, h1, s_tot, channels = _dimer_parts(spec, _model_channels(spec, model))(orientation)
    sticks, _ = find_resonances(h0, h1, sweep, channels, _transverse_ops(orientation, s_tot))
    n = orientation.unit_vector()
    nuc = spincore.product_operators()["nucleus"]
    axis_ops = [sum(n[c] * ops[c] for c in range(3)) for ops in (s_tot, nuc)]
    for stick in sticks:
        # One stick at a time: a batch would hold every stick's 48 x 48 matrices.
        pair = np.linalg.eigh(h0 + stick.field_mt * h1)[1][:, [stick.lower, stick.upper]]
        stick.electron_m, stick.nuclear_m = (
            tuple(np.einsum("dk,de,ek->k", pair.conj(), op, pair).real.tolist()) for op in axis_ops
        )
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
        "diagnostics": diags.metadata(),
    }
    return Spectrum(sweep.field_axis(), total[0], meta)


def quartet_basis_spectra(
    spec: SpinSystemSpec, sweep: FieldSweepConfig, scheme: OrientationScheme
) -> np.ndarray:
    """Basis spectra of the photo-quartet model on ``sweep.field_axis()``.

    Returns T, shape (6, 8, n_points): T[p, l] is the spectrum of unit
    coefficient p (a1 a2 a3 r1 r2 r3) with all population in nuclear
    sublevel l.  Spectra are linear in these 48 channels, so any
    photo-quartet spectrum is ``einsum('p,l,plf->f', coeffs, nuclear, T)``.
    """
    units = [pol.QuartetPolarizationParams(a=c[:3], r=c[3:]) for c in np.eye(6)]
    parts = _dimer_parts(spec, _quartet_channels(spec, units, np.eye(8)))
    orientations, weights = scheme_orientations(scheme)
    total, _ = orientation_average(parts, sweep, orientations, weights, 48)
    return total.reshape(6, 8, sweep.n_points)


def simulate_triplet(
    g: float,
    zfs_d_mhz: float,
    zfs_e_mhz: float,
    populations: pol.TripletZeroFieldPolarization | tuple[float, float, float],
    sweep: FieldSweepConfig,
    grid_size: int = PowderScheme.grid_size,
) -> Spectrum:
    """Powder spectrum of an isolated spin-polarized triplet.

    Zero-field states inherit the supplied populations; the principal frame
    of the fine-structure tensor is the molecular frame.
    """
    if not isinstance(populations, pol.TripletZeroFieldPolarization):
        populations = pol.TripletZeroFieldPolarization(tuple(populations))
    p = np.asarray(populations.populations)
    ops = spincore.spin_operators(1.0)
    principal = np.array([-zfs_d_mhz / 3 + zfs_e_mhz, -zfs_d_mhz / 3 - zfs_e_mhz, 2 * zfs_d_mhz / 3])
    h0 = sum(principal[c] * ops[c] @ ops[c] for c in range(3))
    channels = PopulationChannels(pol.triplet_zero_field_states(), p[None, :])

    def parts(orientation: LabOrientation):
        n = orientation.unit_vector()
        return h0, g * BOHR_MHZ_PER_MT * sum(n[c] * ops[c] for c in range(3)), ops, channels

    orientations, weights = scheme_orientations(PowderScheme(grid_size))
    total, diags = orientation_average(parts, sweep, orientations, weights, 1)
    meta = {
        "kind": "triplet",
        "sweep": sweep_metadata(sweep),
        "grid_size": grid_size,
        "diagnostics": diags.metadata(),
    }
    return Spectrum(sweep.field_axis(), total[0], meta)


def simulate_cw_doublet(
    g_tensor: spincore.InteractionTensor,
    a_tensor: spincore.InteractionTensor,
    sweep: FieldSweepConfig,
    grid_size: int = PowderScheme.grid_size,
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

    orientations, weights = scheme_orientations(PowderScheme(grid_size))
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
    return asdict(sweep)


_SCHEME_KINDS = {PowderScheme: "powder", AlignedScheme: "aligned", SingleOrientationScheme: "single"}


def scheme_metadata(scheme: OrientationScheme) -> dict:
    return {"kind": _SCHEME_KINDS[type(scheme)], **asdict(scheme)}
