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
Hamiltonian, spin operators and population channels per orientation; the
engine works out the orientations of their scheme and the channel count.

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
    Hermite roots with exact slopes (see :func:`find_resonances`).  Stretches
    of the grid that a Weyl bound on the level slopes certifies free of
    crossings are not diagonalized; the brackets found are those of the
    whole grid.  The
    default 51 points give the same sticks as a 1201-point search, and
    spectra within 1.8e-6 of its peak (max |delta| / peak, measured on the
    bundled dimer, its weak-exchange variant, a triplet and the CW doublet;
    the README lists each).  Coarser grids need more polished brackets, and
    the search slows again.
    ``slope_floor_ghz_per_mt`` discards effectively field-independent
    transitions whose formal amplitude would diverge.  ``pad_linewidths``
    (at least 0) widens the search window to [max(0, start - pad), stop +
    pad], with pad = ``pad_linewidths * linewidth_mt``, so lines sitting
    just outside the plotted range still contribute their tails.
    """

    mw_frequency_ghz: float = 9.5
    field_start_mt: float = 240.0
    field_stop_mt: float = 440.0
    n_points: int = 1024
    lineshape: str = "lorentzian"
    linewidth_mt: float = 1.8
    search_points: int = 51
    slope_floor_ghz_per_mt: float = 1e-4
    pad_linewidths: float = 12.0

    def __post_init__(self):
        if not (math.isfinite(self.mw_frequency_ghz) and self.mw_frequency_ghz > 0):
            raise ValueError("microwave frequency must be positive")
        if not (math.isfinite(self.field_stop_mt) and self.field_stop_mt > self.field_start_mt >= 0):
            raise ValueError("field window must be finite with 0 <= start < stop")
        if self.n_points < 2:
            raise ValueError("n_points must be at least 2")
        if self.lineshape not in LINESHAPES:
            raise ValueError(f"lineshape must be one of {LINESHAPES}, got {self.lineshape!r}")
        if not (math.isfinite(self.linewidth_mt) and self.linewidth_mt > 0):
            raise ValueError("linewidth must be positive")
        if self.search_points < 16:
            raise ValueError("search_points must be at least 16")
        if not (math.isfinite(self.slope_floor_ghz_per_mt) and self.slope_floor_ghz_per_mt > 0):
            raise ValueError("slope floor must be positive")
        if not (math.isfinite(self.pad_linewidths) and self.pad_linewidths >= 0):
            raise ValueError("pad_linewidths must be non-negative")

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


def aligned_orientations(scheme: AlignedScheme) -> tuple[list[LabOrientation], np.ndarray]:
    """Quadrature over field directions for a 5CB-aligned frozen sample.

    Each quadrature node fixes the angle between the field and the bond
    (molecular y).  The molecule spins freely about its bond, so each angle
    carries a ring of ``n_samples`` field directions, at azimuths measured
    from molecular z toward molecular x.
    """
    tilts, tilt_w = _tilt_quadrature(scheme.sigma_deg, scheme.tilt_nodes)
    if scheme.mode == "parallel":
        # Director along B: the field makes the tilt angle with the bond.
        angles, weights = tilts, tilt_w
    else:
        # Director perpendicular to B.  With the bond tilted from the
        # director by psi at azimuth chi (chi = 0 in the plane normal to B),
        # the bond-field angle obeys cos(angle) = sin(psi) sin(chi).
        nodes = scheme.transverse_nodes
        chi = 2 * np.pi * (np.arange(nodes) + 0.5) / nodes
        angles = np.arccos(np.clip(np.outer(np.sin(tilts), np.sin(chi)), -1.0, 1.0)).ravel()
        weights = np.repeat(tilt_w / nodes, nodes)
    azimuth = 2 * np.pi * (np.arange(scheme.n_samples) + 0.5) / scheme.n_samples
    sin_angle, cos_angle = np.sin(angles)[:, None], np.cos(angles)[:, None]
    ring = np.broadcast_arrays(sin_angle * np.sin(azimuth), cos_angle, sin_angle * np.cos(azimuth))
    v = np.stack(ring, axis=-1).reshape(-1, 3)
    w = np.repeat(weights / scheme.n_samples, scheme.n_samples)
    # Spectra are invariant under field inversion (all tensors symmetric),
    # so antipodes are the same measurement: make the first of z, y, x above
    # 1e-12 in magnitude positive, then merge repeats, adding their weights,
    # in order of first appearance.
    zyx = v[:, ::-1]
    lead = zyx[np.arange(len(v)), np.argmax(np.abs(zyx) > 1e-12, axis=1)]
    v = np.where(lead[:, None] < 0, -v, v)
    _, first, inverse = np.unique(np.round(v, 10), axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    merged_w = np.bincount(inverse.ravel(), weights=w)[order]  # numpy 2.0.0 gives a column
    return [LabOrientation.from_vector(u) for u in v[first[order]]], merged_w


def scheme_orientations(scheme: OrientationScheme) -> tuple[list[LabOrientation], np.ndarray]:
    if isinstance(scheme, PowderScheme):
        return powder_orientations(scheme.grid_size)
    if isinstance(scheme, AlignedScheme):
        return aligned_orientations(scheme)
    return [LabOrientation(scheme.theta, scheme.phi)], np.array([1.0])


@dataclass(frozen=True, eq=False)
class Sticks:
    """The resonances of one orientation as arrays, in field order.

    ``amplitudes`` is (n, n_channels), one column per population channel
    (one for Boltzmann populations); the other fields are (n,), and
    ``lower``/``upper`` are sorted level indices at each stick's own field.
    """

    field_mt: np.ndarray
    amplitudes: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    slope_mhz_per_mt: np.ndarray

    def __len__(self) -> int:
        return len(self.field_mt)


@dataclass(frozen=True)
class Stick:
    """One resonance of :func:`stick_spectrum`, with the quantum numbers of both levels."""

    field_mt: float
    amplitudes: np.ndarray
    lower: int
    upper: int
    slope_mhz_per_mt: float
    electron_m: tuple[float, float]
    nuclear_m: tuple[float, float]

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
class SearchDiagnostics:
    """What the resonance search did, summed over the orientations of a spectrum.

    ``n_polished`` counts sticks taken from a diagonalization at their own
    field; ``n_tie_fallback`` and ``n_untracked_fallback`` count brackets
    where eigenvector-overlap tracking gave both levels the same partner or
    a tracked pair that does not bracket, so sorted labels were used;
    ``n_subdivided`` counts grid segments halved for a possible double
    crossing; ``n_grid_matrices`` counts the search-grid points whose
    eigenvalues were computed, the halving midpoints included.
    """

    n_sticks: int = 0
    n_discarded_slope: int = 0
    n_polished: int = 0
    n_tie_fallback: int = 0
    n_untracked_fallback: int = 0
    n_subdivided: int = 0
    n_grid_matrices: int = 0

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
            "grid_matrices": self.n_grid_matrices,
        }


# A segment is halved while some transition frequency could dip through the
# microwave frequency inside it: both ends on one side, the nearer end within
# _SAG_SAFETY times the largest sag |f''| h^2 / 8 that the curvature at its
# ends allows.  At most _MAX_HALVINGS rounds.
_SAG_SAFETY = 4.0
_MAX_HALVINGS = 8
# The crossing-free certificate of the search grid starts from every
# _CERT_STRIDE-th node and allows _CERT_ROUNDING * dim * eps times the
# Hamiltonian's scale for rounding in the eigenvalues and the Lipschitz bound.
_CERT_STRIDE = 8
_CERT_ROUNDING = 16.0
# A bracket whose cubic-Hermite and secant roots lie farther apart than the
# field accuracy the search aims for is polished at its root.
_POLISH_FIELD_MT = 1e-4
# Block sizes of the search and of the lineshape convolution: eigenvector
# values (brackets times levels) per resolved block, eigenvector values (nodes
# times levels squared) kept from the grid stage for the bracket stage, nodes
# per derivative chunk and sticks per kernel block.  They keep one
# orientation's temporaries at a few MB: every thread of orientation_average
# holds one orientation's, and glibc keeps large freed temporaries in the
# arena of the thread that freed them.  On the bundled dimer's 48-channel
# basis at 151 search points one orientation traces a peak of 6.8 MB, against
# 15 MB unblocked.  The kept eigenpairs have 96 slots of the 48-level dimer
# (3.5 MB), or one per grid node on a shorter grid, held from the first
# certificate round to the bracket stage.  The open segments' ends of one
# orientation of the benchmark workloads number at most 57 at 51 search points
# and 90 at 151, so a bracket node past the slots, diagonalized a second time
# in the bracket stage, shows up only on denser grids.  The grid stage's
# detuning array (diagonalized nodes times level pairs) is not blocked: about
# 0.7 MB at 81 nodes of the 48-level dimer, freed when the grid stage returns.
# It grows with the nodes: a 1201-point search, about 550 nodes, traces up to
# 24 MB per orientation of the bundled dimer's 16-orientation powder, the
# array, the double-crossing check's two arrays of its size and the kept
# eigenpairs.
_BRACKET_VALUES = 12288
_KEPT_VECTOR_VALUES = 221184
_NODE_CHUNK = 16
_STICK_BLOCK = 64


def _search_grid(sweep: FieldSweepConfig) -> np.ndarray:
    """Uniform grid over [max(0, start - pad), stop + pad], no coarser than the search step."""
    pad = sweep.pad_linewidths * sweep.linewidth_mt
    lo = max(0.0, sweep.field_start_mt - pad)
    hi = sweep.field_stop_mt + pad
    step = (sweep.field_stop_mt - sweep.field_start_mt) / (sweep.search_points - 1)
    return np.linspace(lo, hi, int(math.ceil((hi - lo) / step - 1e-9)) + 1)


def _double_crossing_risk(bgrid: np.ndarray, f: np.ndarray, open_seg: np.ndarray) -> np.ndarray:
    """Open segments whose ends share a sign but whose curvature allows two crossings."""
    h = np.diff(bgrid)
    # The sag bound below stays under _SAG_SAFETY / 2 times a segment's step
    # times the largest |secant| of it and its two neighbours, so only pairs
    # within that reach of zero at an end of some open segment can qualify.
    # The prefilter holds at most two arrays the size of f at a time.
    reach = np.abs(np.diff(f, axis=0)) / h[:, None]
    reach[1:] = np.maximum(reach[1:], reach[:-1])
    reach[:-1] = np.maximum(reach[:-1], reach[1:])
    reach *= 0.5 * _SAG_SAFETY * h[:, None]
    near = ((np.abs(f[:-1]) < reach) | (np.abs(f[1:]) < reach))[open_seg].any(axis=0)
    del reach
    f = f[:, near]
    secant = np.diff(f, axis=0) / h[:, None]
    nearest = np.minimum(np.abs(f[:-1]), np.abs(f[1:]))
    curvature = np.zeros_like(f)
    curvature[1:-1] = 2.0 * np.diff(secant, axis=0) / (h[:-1] + h[1:])[:, None]
    side = np.sign(f[:-1])
    # Positive values bend the curve toward zero between the segment's ends.
    bend = np.maximum(curvature[:-1] * side, curvature[1:] * side)
    risky = (f[:-1] * f[1:] > 0) & (nearest < _SAG_SAFETY * bend * (h**2 / 8.0)[:, None])
    return open_seg & risky.any(axis=1)


def _detuning(evals: np.ndarray, iu: np.ndarray, ju: np.ndarray, nu_mw: float) -> np.ndarray:
    """``f[k, q]``: the transition frequency of pair ``(iu[q], ju[q])`` minus ``nu_mw`` at node ``k``."""
    f = evals[:, ju]
    f -= evals[:, iu]
    f -= nu_mw
    return f


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
    used, not with all of them; the padded blocks are built ``_NODE_CHUNK``
    nodes at a time.  The degeneracy tolerance is relative to each node's own
    spectrum, so a level's result does not depend on the other nodes in the
    batch.
    """
    dim = evecs.shape[1]
    keys, inverse = np.unique(node * dim + level, return_inverse=True)
    key_node, key_level = np.divmod(keys, dim)
    col = np.arange(len(keys)) - np.searchsorted(key_node, key_node)
    v = np.empty((len(keys), dim), dtype=evecs.dtype)
    dv = np.empty_like(v)
    s = np.empty(len(keys))
    for start in range(0, len(evecs), _NODE_CHUNK):
        lo, hi = np.searchsorted(key_node, [start, start + _NODE_CHUNK])
        if lo == hi:
            continue
        vecs, vals = evecs[start : start + _NODE_CHUNK], evals[start : start + _NODE_CHUNK]
        kn, kc, kl = key_node[lo:hi] - start, col[lo:hi], key_level[lo:hi]
        cols = np.zeros((len(vecs), kc.max() + 1), dtype=int)
        cols[kn, kc] = kl
        vl = np.take_along_axis(vecs, cols[:, None, :], axis=2)
        g = np.matmul(vecs.conj().transpose(0, 2, 1), np.matmul(h1, vl))
        s[lo:hi] = g[kn, kl, kc].real
        # An infinite gap drops the coupling within a degenerate set.
        gap = np.take_along_axis(vals, cols, axis=1)[:, None, :] - vals[:, :, None]
        gap[np.abs(gap) <= 1e-9 * (np.abs(vals).max(axis=1) + 1.0)[:, None, None]] = np.inf
        g /= gap
        v[lo:hi], dv[lo:hi] = vl[kn, :, kc], np.matmul(vecs, g)[kn, :, kc]
    return v[inverse], dv[inverse], s[inverse]


def _populations(channels, h1, evals, evecs, node, level, v, dv):
    """Populations (n, n_channels) of each (node, level) pair and their B-derivatives.

    ``v`` and ``dv`` are those levels' eigenvectors and eigenvector
    derivatives; Boltzmann populations use every level at the node instead.
    """
    if isinstance(channels, pol.ThermalPolarization):
        # Re <v|h1|v> = Re(v . conj(h1 v)): the product conjugated in place
        # holds one block-sized temporary, not two.
        hv = np.matmul(h1, evecs)
        slopes = np.einsum("ndk,ndk->nk", evecs, np.conjugate(hv, out=hv)).real
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


def _track_pair(u, w, evecs, node, li, lj):
    """The columns ``i``, ``j`` of ``evecs[node[n]]`` that follow the levels ``u[n]``, ``w[n]``, and ``tie``.

    Each level goes to the column of largest overlap; rows are grouped by
    node, so no per-row copy of the eigenvector matrices is made.  Where
    both levels pick the same column (``tie``), the sorted labels
    ``li``/``lj`` are returned instead.
    """
    rows_u, rows_node = np.concatenate([u, w]), np.concatenate([node, node])
    best = np.empty(len(rows_u), dtype=int)
    for m in np.unique(node):
        rows = np.flatnonzero(rows_node == m)
        best[rows] = np.abs(rows_u[rows].conj() @ evecs[m]).argmax(axis=1)
    i, j = np.split(best, 2)
    tie = i == j
    i[tie], j[tie] = li[tie], lj[tie]
    return i, j, tie


def _uncleared(ea, eb, margin, iu, ju, nu_mw) -> np.ndarray:
    """``(interval, pair)`` entries that the crossing-free test does not clear.

    A pair is cleared on an interval when its detuning f keeps its sign and
    ``|f(a)| + |f(b)| > margin``.  ``margin`` exceeds the Lipschitz bound on
    ``|f(a) - f(b)|``, so ends of opposite sign, or a zero end, give
    ``|f(a) + f(b)| < margin``: testing ``|f(a) + f(b)| > margin`` alone
    decides both conditions.
    """
    return np.abs(_detuning(ea + eb, iu, ju, 2.0 * nu_mw)) <= margin[:, None]


def _certified_grid(h0, h1, bgrid, iu, ju, nu_mw, store):
    """The nodes of ``bgrid`` to diagonalize, their eigenvalues and the open segments.

    By Weyl's inequality every sorted eigenvalue of ``h0 + B h1`` moves by
    between ``lambda_min(h1) dB`` and ``lambda_max(h1) dB``, so every
    sorted-label detuning f is Lipschitz in B with
    ``L = lambda_max(h1) - lambda_min(h1)``.  Between two nodes a < b where
    a pair keeps its sign and ``|f(a)| + |f(b)| > L (b - a) + tol``, its
    detuning has no zero: the pair is cleared there.  An interval where
    every pair is cleared, on it or on an interval holding it, is certified
    crossing-free, and its inner nodes are never diagonalized.  Starting
    from every ``_CERT_STRIDE``-th node and the last, intervals that are not
    certified are bisected on grid nodes until each is certified or one grid
    segment.  An uncertified segment is open: it may hold a bracket or a
    double crossing.  Both neighbours of an open segment are diagonalized
    too, so :func:`_double_crossing_risk` sees the curvature it would on the
    whole grid.

    Every round diagonalizes its nodes with ``eigh``.  ``store``, a
    :class:`_NodeEigenpairs`, keeps the eigenpairs of nodes that may still
    end an open segment and lets go of the others after each round, so it
    ends holding those of the open segments' ends, as far as its slots go.

    Returns the sorted indices of the diagonalized nodes, their eigenvalues,
    and whether the segment from each node to the next is open.
    """
    n = len(bgrid)
    evals = np.empty((n, h0.shape[0]))
    have = np.zeros(n, dtype=bool)
    ends = np.zeros(n, dtype=bool)  # ends of the open segments found so far

    def diagonalize(nodes, keep):
        if len(nodes):
            evals[nodes], vecs = np.linalg.eigh(h0 + bgrid[nodes, None, None] * h1)
            have[nodes] = True
            if keep:
                store.put(bgrid[nodes], evals[nodes], vecs)

    a = np.unique(np.append(np.arange(0, n, _CERT_STRIDE), n - 1))
    diagonalize(a, True)
    lam = np.linalg.eigvalsh(h1)
    lip = lam[-1] - lam[0]
    # ||h0 + B h1|| is convex in B, so the end nodes hold its largest value.
    scale = np.abs(evals[a]).max() + lip * (bgrid[-1] - bgrid[0])
    tol = _CERT_ROUNDING * h0.shape[0] * np.finfo(float).eps * scale
    a, b = a[:-1], a[1:]
    # A pair cleared on an interval has no zero on any part of it, so the
    # parts are tested only on the pairs that some interval failed.
    pairs = np.arange(len(iu))
    open_left = []
    while len(a):
        bad = _uncleared(evals[a], evals[b], lip * (bgrid[b] - bgrid[a]) + tol, iu[pairs], ju[pairs], nu_mw)
        kept = bad.any(axis=1)
        pairs = pairs[bad.any(axis=0)]
        a, b = a[kept], b[kept]
        single = b - a == 1
        open_left.append(a[single])
        ends[a[single]] = ends[b[single]] = True
        wanted = ends.copy()
        wanted[a] = wanted[b] = True
        store.keep_only(bgrid[wanted])
        a, b = a[~single], b[~single]
        mid = (a + b) // 2
        diagonalize(mid, True)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
    open_left = np.concatenate(open_left)
    neighbours = np.concatenate([open_left - 1, open_left + 2])
    neighbours = np.unique(neighbours[(neighbours >= 0) & (neighbours < n)])
    # A new neighbour ends no open segment: the ends were diagonalized already.
    diagonalize(neighbours[~have[neighbours]], False)
    nodes = np.flatnonzero(have)
    is_open = np.zeros(n, dtype=bool)
    is_open[open_left] = True
    return nodes, evals[nodes], is_open[nodes[:-1]]


def _brackets(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment and level-pair index of every bracket of the detunings ``f``, in (segment, pair) order.

    A pair brackets a resonance on a segment where its detuning changes sign,
    or is zero at the segment's start and not at its end.
    """
    return np.nonzero((f[:-1] * f[1:] < 0) | ((f[:-1] == 0) & (f[1:] != 0)))


class _NodeEigenpairs:
    """Eigenpairs of search nodes, kept from the grid stage for the bracket stage.

    A fixed number of slots, at most ``_KEPT_VECTOR_VALUES`` eigenvector
    values and at most one per grid node, is allocated at the first
    :meth:`put`; each slot holds the eigenvalues and eigenvectors at one
    field, and a NaN field marks it free.
    """

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self.field = np.empty(0)

    def put(self, fields, evals, evecs) -> None:
        """Keep the eigenpairs at ``fields``, the first ones first, while slots are free."""
        if not len(self.field):
            dim = evecs.shape[1]
            slots = max(min(_KEPT_VECTOR_VALUES // dim**2, self.n_nodes), 1)
            self.field = np.full(slots, np.nan)
            self.evals = np.empty((slots, dim))
            self.evecs = np.empty((slots, dim, dim), dtype=evecs.dtype)
        free = np.flatnonzero(np.isnan(self.field))[: len(fields)]
        n = len(free)
        self.field[free], self.evals[free], self.evecs[free] = fields[:n], evals[:n], evecs[:n]

    def keep_only(self, fields) -> None:
        """Free every slot whose field is not in ``fields``."""
        self.field[~np.isin(self.field, fields)] = np.nan

    def take(self, h0, h1, fields):
        """Eigenvalues and eigenvectors at the sorted ``fields``, emptying the store.

        Fields not kept are diagonalized here, as many at a time as the
        store had slots.
        """
        order = np.argsort(self.field)  # free slots (NaN) sort last
        slot = order[np.minimum(np.searchsorted(self.field[order], fields), len(order) - 1)]
        evals, evecs = self.evals[slot], self.evecs[slot]
        missing = np.flatnonzero(self.field[slot] != fields)
        chunk = len(self.field)
        del self.evals, self.evecs
        self.field = np.empty(0)
        for s in range(0, len(missing), chunk):
            m = missing[s : s + chunk]
            evals[m], evecs[m] = np.linalg.eigh(h0 + fields[m, None, None] * h1)
        return evals, evecs


def _grid_stage(h0, h1, sweep, iu, ju, nu_mw, diag):
    """The search-grid fields that were diagonalized, the brackets on them and the kept eigenpairs.

    The certified grid (:func:`_certified_grid`) is halved where a segment
    may hold a double crossing, for at most ``_MAX_HALVINGS`` rounds.  One
    detuning array over the nodes serves every round: each round appends the
    midpoints' rows and reorders it with the nodes.  Every node is
    diagonalized with ``eigh``, once; a :class:`_NodeEigenpairs` keeps the
    eigenpairs of the open segments' ends, the midpoints included, while its
    slots last.  Returns the sorted fields ``bgrid``, the segment ``hit_k``
    and level-pair index ``hit_p`` of every bracket, in (segment, pair)
    order, and the store, and sets the grid counts of ``diag``.
    """
    bgrid = _search_grid(sweep)
    store = _NodeEigenpairs(len(bgrid))
    nodes, evals, open_seg = _certified_grid(h0, h1, bgrid, iu, ju, nu_mw, store)
    bgrid = bgrid[nodes]
    f = _detuning(evals, iu, ju, nu_mw)
    for _ in range(_MAX_HALVINGS):
        risky = _double_crossing_risk(bgrid, f, open_seg)
        if not risky.any():
            break
        mids = 0.5 * (bgrid[:-1][risky] + bgrid[1:][risky])
        order = np.argsort(np.concatenate([bgrid, mids]), kind="stable")
        bgrid = np.concatenate([bgrid, mids])[order]
        mid_evals, mid_evecs = np.linalg.eigh(h0 + mids[:, None, None] * h1)
        store.put(mids, mid_evals, mid_evecs)
        del mid_evecs
        f = np.concatenate([f, _detuning(mid_evals, iu, ju, nu_mw)])[order]
        # Both halves of an open segment are open; the last node starts none.
        open_seg = np.concatenate([open_seg, [False], np.ones(len(mids), dtype=bool)])[order][:-1]
    diag.n_grid_matrices = len(bgrid)
    diag.n_subdivided = len(bgrid) - len(nodes)
    hit_k, hit_p = _brackets(f)
    return bgrid, hit_k, hit_p, store


def find_resonances(
    h0: np.ndarray,
    h1: np.ndarray,
    sweep: FieldSweepConfig,
    channels: PopulationChannels | pol.ThermalPolarization,
    transverse_ops: tuple[np.ndarray, np.ndarray],
) -> tuple[Sticks, SearchDiagnostics]:
    """Locate all microwave resonances of ``h0 + B h1`` in the sweep window.

    The search covers the sweep window padded by ``pad_linewidths``
    linewidths on both sides (never below zero field) with a uniform grid
    whose step is that of ``search_points`` points across the sweep window.
    Eigenpairs come only from the grid nodes that can border a crossing:
    a Weyl bound on the level slopes certifies the other stretches of the
    grid free of any zero of (transition frequency - nu), so skipping them
    never changes which brackets are found (:func:`_certified_grid`).  A
    segment where some transition frequency could cross the microwave
    frequency twice between its ends is halved first.  A sign change of
    (transition frequency - nu) brackets a resonance.  Level identity across
    a bracket follows eigenvector overlap.

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

    The search runs in two stages, and diagonalizes each node once.  The
    grid stage (:func:`_grid_stage`) diagonalizes each certificate or halving
    round's grid nodes in one ``eigh`` call, reads the brackets off one
    detuning array over its nodes, freed when the stage returns, and keeps
    the eigenpairs of the open segments' ends, every bracket node among
    them, in at most ``_KEPT_VECTOR_VALUES`` eigenvector values.  The
    bracket stage takes the bracket nodes' eigenpairs from there, with one
    more ``eigh`` for any node past that budget, and resolves the brackets
    in blocks of at most ``_BRACKET_VALUES`` eigenvector values (brackets
    times levels: 256 brackets of the 48-level dimer), so its temporaries
    stay the same size however many resonances an orientation has.

    Returns the :class:`Sticks` record, empty where nothing resonates, and
    the diagnostics.  Transitions flatter than the slope floor are
    discarded; every fallback and refinement is counted in the diagnostics.
    """
    nu_mw = sweep.mw_frequency_mhz()
    dim = h0.shape[0]
    iu, ju = np.triu_indices(dim, 1)
    diag = SearchDiagnostics()

    bgrid, hit_k, hit_p, store = _grid_stage(h0, h1, sweep, iu, ju, nu_mw, diag)
    if not len(hit_k):
        n_channels = 1 if isinstance(channels, pol.ThermalPolarization) else len(channels.weights)
        labels = np.empty(0, dtype=int)
        return Sticks(np.empty(0), np.empty((0, n_channels)), labels, labels, np.empty(0)), diag
    # The eigenpairs of every bracket node, in node order.
    needed = np.unique(np.concatenate([hit_k, hit_k + 1]))
    evals, evecs = store.take(h0, h1, bgrid[needed])
    blocks = []
    step = max(_BRACKET_VALUES // dim, 1)
    for s in range(0, len(hit_k), step):
        k, p = hit_k[s : s + step], hit_p[s : s + step]
        # The block's nodes are a contiguous run of ``needed``.
        lo, hi = np.searchsorted(needed, [k[0], k[-1] + 1])
        blocks.append(
            _resolve_brackets(
                h0, h1, sweep, channels, transverse_ops, bgrid, k, iu[p], ju[p],
                needed[lo : hi + 1], evals[lo : hi + 1], evecs[lo : hi + 1], diag,
            )
        )
    arrays = [np.concatenate(a) for a in zip(*blocks)]
    order = np.argsort(arrays[0], kind="stable")
    diag.n_sticks = len(order)
    return Sticks(*(a[order] for a in arrays)), diag


def _resolve_brackets(
    h0, h1, sweep, channels, transverse_ops, bgrid, hit_k, li, lj, needed, evals, evecs, diag
):
    """Sticks of the brackets between ``bgrid[hit_k]`` and ``bgrid[hit_k + 1]``.

    ``li``/``lj`` are the sorted level pairs whose transition frequency
    changes sign there; ``evals``/``evecs`` are the eigenpairs at the
    sorted grid indices ``needed``, which hold every ``hit_k`` and
    ``hit_k + 1``.  Returns the :class:`Sticks` fields of the brackets that
    give a stick, in bracket order, and adds this block's counts to ``diag``.
    """
    nu_mw = sweep.mw_frequency_mhz()
    # k and k+1 are adjacent integers, so their positions in the sorted
    # unique array are adjacent too.
    k0 = np.searchsorted(needed, hit_k)
    k1 = k0 + 1

    # Follow both levels into the next grid point by largest overlap.
    i2, j2, tie = _track_pair(evecs[k0, :, li], evecs[k0, :, lj], evecs, k1, li, lj)
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
        e_r, v_r = np.linalg.eigh(h0 + b_root[:, None, None] * h1)
        early = (t[n] < 0.5)[:, None]
        rows = np.arange(len(n))
        ir, jr, _ = _track_pair(
            np.where(early, v[0][n], v[2][n]), np.where(early, v[1][n], v[3][n]), v_r, rows, li[n], lj[n]
        )
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
    return b_res, amps, li, lj, slope


def _lineshape_kernel(offsets: np.ndarray, sweep: FieldSweepConfig) -> np.ndarray:
    fwhm = sweep.linewidth_mt
    if sweep.lineshape == "lorentzian":
        hwhm = fwhm / 2.0
        return (hwhm / math.pi) / (offsets**2 + hwhm**2)
    sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    return np.exp(-0.5 * (offsets / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))


def convolve_lineshape(sticks: Sticks, sweep: FieldSweepConfig) -> np.ndarray:
    """Sum of unit-area lines, one per stick; shape (n_channels, n_points).

    Lines centered inside the sweep window are renormalized on the sampled
    grid so each carries exactly its stick amplitude as integrated area;
    lines in the padding margin keep the analytic normalization and only
    contribute their tails.  A record without sticks gives zeros.
    """
    axis = sweep.field_axis()
    centers, amps = sticks.field_mt, sticks.amplitudes.T
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
    parts, sweep: FieldSweepConfig, scheme: OrientationScheme
) -> tuple[np.ndarray, SearchDiagnostics]:
    """Weighted sum over the orientations of ``scheme`` of convolved resonance spectra.

    ``parts(orientation)`` returns ``(h0, h1, spin_xyz, channels)``: the
    Hamiltonian ``h0 + B h1`` in MHz (B in mT), the x, y, z spin operators
    whose components transverse to the field drive the transitions, and the
    population channels (``PopulationChannels`` or ``pol.ThermalPolarization``).
    Each orientation's :class:`Sticks` record, convolved, gives an
    ``(n_channels, n_points)`` block, zero where nothing resonates, with one
    row per population channel (one for Boltzmann populations); the total is
    ``sum(weight * block)`` in order, shaped like the first block.

    Orientations are dealt in turn to the workers, one per CPU the process
    may use: the calling thread computes orientations 0, ``_WORKERS``, ...
    and the helper threads the rest, so ``parts`` must be safe to call from
    several threads at once.  The calling thread sums the blocks in
    orientation order, so the result does not depend on the CPU count; at
    most two orientations per worker are queued or finished ahead of the
    one being summed.  An exception from an orientation is raised here,
    after the orientations still queued are cancelled and those running
    have ended.
    """
    orientations, weights = scheme_orientations(scheme)
    diags = SearchDiagnostics()

    def block(orientation: LabOrientation):
        h0, h1, spin_xyz, channels = parts(orientation)
        sticks, diag = find_resonances(h0, h1, sweep, channels, _transverse_ops(orientation, spin_xyz))
        return convolve_lineshape(sticks, sweep), diag

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
            if i == 0:
                total = np.zeros_like(spectrum)
            diags.add(diag)
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
        return lambda orientation: model
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
    """Resonance sticks of the dimer at one orientation (single channel), in field order.

    The :class:`Sticks` record of :func:`find_resonances`, one :class:`Stick`
    per row, with ``electron_m``/``nuclear_m``: <v|S.n|v> and <v|I.n|v> of
    its lower and upper levels, from a diagonalization at its own field.
    """
    h0, h1, s_tot, channels = _dimer_parts(spec, _model_channels(spec, model))(orientation)
    sticks, _ = find_resonances(h0, h1, sweep, channels, _transverse_ops(orientation, s_tot))
    n = orientation.unit_vector()
    nuc = spincore.product_operators()["nucleus"]
    axis_ops = [sum(n[c] * ops[c] for c in range(3)) for ops in (s_tot, nuc)]
    records = []
    for k, b in enumerate(sticks.field_mt.tolist()):
        labels = [int(sticks.lower[k]), int(sticks.upper[k])]
        # One stick at a time: a batch would hold every stick's 48 x 48 matrices.
        pair = np.linalg.eigh(h0 + b * h1)[1][:, labels]
        electron_m, nuclear_m = (
            tuple(np.einsum("dk,de,ek->k", pair.conj(), op, pair).real.tolist()) for op in axis_ops
        )
        slope = float(sticks.slope_mhz_per_mt[k])
        records.append(Stick(b, sticks.amplitudes[k], *labels, slope, electron_m, nuclear_m))
    return records


def _simulate(
    kind: str, parts, sweep: FieldSweepConfig, scheme: OrientationScheme, /, **meta
) -> Spectrum:
    """Single-channel spectrum of ``parts``; its metadata adds kind, sweep and diagnostics to ``meta``."""
    total, diags = orientation_average(parts, sweep, scheme)
    meta = {"kind": kind, **meta, "sweep": sweep_metadata(sweep), "diagnostics": diags.metadata()}
    return Spectrum(sweep.field_axis(), total[0], meta)


def simulate_dimer(
    spec: SpinSystemSpec,
    model: pol.PolarizationModel,
    sweep: FieldSweepConfig,
    scheme: OrientationScheme,
) -> Spectrum:
    """Full simulation of the coupled-dimer spectrum for one scheme."""
    parts = _dimer_parts(spec, _model_channels(spec, model))
    return _simulate("dimer", parts, sweep, scheme, scheme=scheme_metadata(scheme))


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
    total, _ = orientation_average(parts, sweep, scheme)
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

    return _simulate("triplet", parts, sweep, PowderScheme(grid_size), grid_size=grid_size)


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
    thermal = pol.ThermalPolarization(temperature_k)

    def parts(orientation: LabOrientation):
        g_row = orientation.unit_vector() @ g_mat
        return h0, BOHR_MHZ_PER_MT * sum(g_row[c] * s_ops[c] for c in range(3)), s_ops, thermal

    spectrum = _simulate("cw-doublet", parts, sweep, PowderScheme(grid_size), grid_size=grid_size,
                         temperature_k=temperature_k, derivative=True)
    spectrum.intensity = np.gradient(spectrum.intensity, spectrum.field_mt)
    return spectrum


def sweep_metadata(sweep: FieldSweepConfig) -> dict:
    return asdict(sweep)


_SCHEME_KINDS = {PowderScheme: "powder", AlignedScheme: "aligned", SingleOrientationScheme: "single"}


def scheme_metadata(scheme: OrientationScheme) -> dict:
    return {"kind": _SCHEME_KINDS[type(scheme)], **asdict(scheme)}
