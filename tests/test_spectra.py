import dataclasses
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles
from quartetsim import polarization as pol
from quartetsim import spectra as sp
from quartetsim import spincore as sc

TABLE_PARAMS = pol.QuartetPolarizationParams(a=(0.11, -0.002, -0.027), r=(0.0, -0.01, 0.0))
TABLE_NUCLEAR = pol.NuclearPopulations(
    (0.146, 0.078, 0.194, 0.126, 0.117, 0.165, 0.078, 0.097)
)
TABLE_MODEL = pol.PhotoQuartetPolarization(TABLE_PARAMS, TABLE_NUCLEAR)

# 512-point field axis for engine-level checks
FAST_SWEEP = sp.FieldSweepConfig(n_points=512)


# ----------------------------------------------------------- configuration


def test_sweep_config_validation():
    sweep = sp.FieldSweepConfig()
    axis = sweep.field_axis()
    assert axis[0] == 240.0 and axis[-1] == 440.0 and len(axis) == 1024
    assert sweep.mw_frequency_mhz() == 9500.0
    for kwargs in (
        dict(mw_frequency_ghz=0.0),
        dict(field_start_mt=400.0, field_stop_mt=300.0),
        dict(field_start_mt=-10.0),
        dict(field_stop_mt=math.inf),
        dict(n_points=1),
        dict(lineshape="voigt"),
        dict(linewidth_mt=0.0),
        dict(search_points=4),
        dict(slope_floor_ghz_per_mt=0.0),
        dict(slope_floor_ghz_per_mt=math.nan),
        dict(pad_linewidths=-1.0),
        dict(pad_linewidths=math.nan),
    ):
        with pytest.raises(ValueError):
            sp.FieldSweepConfig(**kwargs)


def test_scheme_validation():
    with pytest.raises(ValueError):
        sp.PowderScheme(8)
    with pytest.raises(ValueError):
        sp.AlignedScheme("diagonal")
    with pytest.raises(ValueError):
        sp.AlignedScheme("parallel", sigma_deg=-1.0)
    with pytest.raises(ValueError):
        sp.AlignedScheme("parallel", n_samples=4)


# ------------------------------------------------------- orientation grids


def test_powder_orientations_cover_hemisphere():
    orientations, weights = sp.powder_orientations(128)
    assert len(orientations) == 128
    assert math.isclose(weights.sum(), 1.0, rel_tol=1e-12)
    z = np.array([o.unit_vector()[2] for o in orientations])
    assert (z > 0).all() and (z <= 1).all()
    # equal-area in cos(theta): sorted values fill (0, 1] uniformly
    assert_allclose(np.sort(z), (np.arange(128) + 0.5) / 128, atol=1e-12)


def test_aligned_parallel_zero_width_is_bond_direction():
    orientations, weights = sp.aligned_orientations(sp.AlignedScheme("parallel", sigma_deg=0.0))
    assert len(orientations) == 1 and weights[0] == 1.0
    assert_allclose(orientations[0].unit_vector(), [0.0, 1.0, 0.0], atol=1e-12)


def test_aligned_perpendicular_zero_width_avoids_bond():
    scheme = sp.AlignedScheme("perpendicular", sigma_deg=0.0, n_samples=12)
    orientations, weights = sp.aligned_orientations(scheme)
    assert math.isclose(weights.sum(), 1.0, rel_tol=1e-12)
    for o in orientations:
        assert abs(o.unit_vector()[1]) < 1e-12


@pytest.mark.parametrize(
    "scheme, merged, raw",
    [
        (sp.AlignedScheme("parallel"), 65, 9 * 16),
        (sp.AlignedScheme("perpendicular"), 136, 9 * 8 * 16),
        (sp.AlignedScheme("perpendicular", 10.0, 8, 3, 4), 12, 3 * 4 * 8),
        (sp.AlignedScheme("parallel", 10.0, 8, 2, 4), 8, 2 * 8),
        (sp.AlignedScheme("perpendicular", 10.0, 8, 2, 4), 8, 2 * 4 * 8),
        (sp.AlignedScheme("parallel", n_samples=9), 73, 9 * 9),
        (sp.AlignedScheme("perpendicular", n_samples=9), 153, 9 * 8 * 9),
        (sp.AlignedScheme("parallel", sigma_deg=0.0), 1, 16),
        (sp.AlignedScheme("perpendicular", sigma_deg=0.0), 8, 8 * 16),
    ],
    ids=["parallel", "perpendicular", "weak-thermal", "trepr-fit-parallel",
         "trepr-fit-perpendicular", "parallel-odd", "perpendicular-odd",
         "parallel-zero-width", "perpendicular-zero-width"],
)
def test_aligned_orientations_deduplicate(scheme, merged, raw):
    # Antipodal and repeated nodes merge into the node-by-node oracle's set,
    # in its order: tests index scheme_orientations(...)[0][k].
    orientations, weights = sp.aligned_orientations(scheme)
    directions, expected = oracles.aligned_field_directions(*dataclasses.astuple(scheme))
    assert len(orientations) == len(directions) == merged < raw
    assert_allclose([o.unit_vector() for o in orientations], directions, rtol=0, atol=1e-14)
    assert_allclose(weights, expected, rtol=0, atol=1e-15)
    assert math.isclose(weights.sum(), 1.0, rel_tol=1e-10)
    assert (weights > 0).all()


def test_scheme_orientations_single():
    orientations, weights = sp.scheme_orientations(sp.SingleOrientationScheme(1.0, 2.0))
    assert len(orientations) == 1 and weights[0] == 1.0
    assert orientations[0].theta == 1.0 and orientations[0].phi == 2.0


# --------------------------------------------------------- resonance search


def _doublet_search(g_z, a_z, sweep):
    """16-dim S=1/2 (x) I=7/2 system with purely secular coupling along z."""
    sz = sc.spin_operators(0.5)[2]
    sx, sy = sc.spin_operators(0.5)[:2]
    iz = sc.spin_operators(3.5)[2]
    h0 = a_z * np.kron(sz, iz)
    h1 = g_z * 13.9962449361 * np.kron(sz, np.eye(8))
    sa = np.kron(sx, np.eye(8))
    sb = np.kron(sy, np.eye(8))
    return sp.find_resonances(h0, h1, sweep, pol.ThermalPolarization(295.0), (sa, sb))


def test_isolated_doublet_resonance_field():
    sweep = sp.FieldSweepConfig(field_start_mt=300, field_stop_mt=380, search_points=101)
    sticks, diag = _doublet_search(2.0023, 0.0, sweep)
    fields = sorted({round(b, 6) for b in sticks.field_mt.tolist()})
    assert len(fields) == 1
    assert math.isclose(fields[0], oracles.isolated_doublet_field(9500.0, 2.0023), abs_tol=1e-6)
    assert diag.n_sticks == len(sticks)


def test_hyperfine_octet_positions_match_first_order_formula():
    sweep = sp.FieldSweepConfig(field_start_mt=280, field_stop_mt=400, search_points=241)
    sticks, _ = _doublet_search(1.964, 475.0, sweep)
    fields = np.sort(sticks.field_mt)
    expected = np.sort(oracles.doublet_resonance_fields(9500.0, 1.964, 475.0))
    assert len(fields) == 8
    # transition frequencies are linear in B here, so interpolation is exact
    assert_allclose(fields, expected, atol=1e-6)
    spacing = np.diff(fields)
    assert_allclose(spacing, spacing[0], rtol=1e-9)
    assert (sticks.amplitudes[:, 0] > 0).all()  # thermal populations absorb


def test_thermal_dimer_sticks_absorptive():
    spec = sc.vanadyl_porphyrin_dimer()
    sticks = sp.stick_spectrum(
        spec, sc.LabOrientation(1.0, 0.4), pol.ThermalPolarization(80.0), FAST_SWEEP
    )
    assert sticks
    assert all(s.amplitude >= 0 for s in sticks)
    assert all(s.electron_m is not None and s.nuclear_m is not None for s in sticks)


def test_photo_dimer_sticks_have_both_signs():
    spec = sc.vanadyl_porphyrin_dimer()
    sticks = sp.stick_spectrum(spec, sc.LabOrientation(1.0, 0.4), TABLE_MODEL, FAST_SWEEP)
    amps = np.array([s.amplitude for s in sticks])
    assert (amps > 0).any() and (amps < 0).any()


# ------------------------------------------------ resonance search accuracy

WEAK_THERMAL = pol.ThermalPolarization(80.0)


def _weak_dimer():
    """The reference dimer with exchange weakened to J = 0.03 cm^-1 (dense anticrossings)."""
    return sc.SpinSystemSpec.from_parameters(
        exchange_cm=0.03, dipolar_mhz=90.0, zfs_d_mhz=1135.0, zfs_e_mhz=235.0,
        g_fp=2.0023, g_vo=(1.985, 1.985, 1.964), a_vo_mhz=(162.0, 162.0, 475.0),
    )


def _dimer_search(spec, orientation, model, sweep):
    """``find_resonances`` of the dimer at one orientation, as ``stick_spectrum`` runs it."""
    h0, h1, s_tot, channels = sp._dimer_parts(spec, sp._model_channels(spec, model))(orientation)
    return sp.find_resonances(h0, h1, sweep, channels, sp._transverse_ops(orientation, s_tot))[0]


def _assert_same_sticks(sticks, reference, field_tol_mt):
    assert len(sticks) == len(reference)
    assert np.array_equal(sticks.lower, reference.lower) and np.array_equal(sticks.upper, reference.upper)
    assert np.abs(sticks.field_mt - reference.field_mt).max() <= field_tol_mt


def test_search_window_independent_of_grid_step():
    # The first orientation has a stick at 218.3 mT, just below the padded
    # window [240 - 12 * 1.8, 440 + 12 * 1.8] mT; whether a search returned
    # it used to depend on where its grid happened to start.
    spec = _weak_dimer()
    for theta, phi in ((0.3927, math.pi), (0.4437, 3.6541)):
        orientation = sc.LabOrientation(theta, phi)
        coarse, fine = (
            _dimer_search(spec, orientation, WEAK_THERMAL, sp.FieldSweepConfig(search_points=n))
            for n in (151, 601)
        )
        _assert_same_sticks(coarse, fine, 1e-4)
        assert coarse.field_mt.min() >= 240.0 - 12 * 1.8


DOUBLE_CROSSING_B_MIN, DOUBLE_CROSSING_HALF = 341.0, 0.4


def _double_crossing():
    """``(h0, h1, sweep)`` of a two-level anticrossing that resonates twice inside one grid step.

    nu(B) = sqrt((c - gamma B)^2 + delta^2) dips just below the microwave
    frequency, crossing it at b_min -+ 0.4 mT.  Both crossings lie in the one
    initial-grid segment 340.0-342.0 mT, whose ends are both above resonance.
    """
    nu, gamma, b_min, half = 9500.0, 28.0, DOUBLE_CROSSING_B_MIN, DOUBLE_CROSSING_HALF
    delta = math.sqrt(nu**2 - (gamma * half) ** 2)
    h0 = 0.5 * np.array([[gamma * b_min, delta], [delta, -gamma * b_min]], dtype=complex)
    h1 = 0.5 * np.diag([-gamma, gamma]).astype(complex)
    sweep = sp.FieldSweepConfig(
        field_start_mt=300.0, field_stop_mt=380.0, search_points=41, slope_floor_ghz_per_mt=1e-6
    )
    return h0, h1, sweep


def test_double_crossing_inside_one_grid_step():
    h0, h1, sweep = _double_crossing()
    b_min, half = DOUBLE_CROSSING_B_MIN, DOUBLE_CROSSING_HALF
    sx, sy, _ = sc.spin_operators(0.5)
    sticks, diag = sp.find_resonances(h0, h1, sweep, pol.ThermalPolarization(1.0), (sx, sy))
    assert_allclose(sticks.field_mt, [b_min - half, b_min + half], atol=1e-6)
    assert (sticks.amplitudes[:, 0] > 0).all()
    assert diag.n_subdivided > 0 and diag.n_sticks == 2


# Three-level systems on a 1 mT search grid over 300-315 mT (no padding).
FALLBACK_SWEEP = sp.FieldSweepConfig(
    field_start_mt=300.0, field_stop_mt=315.0, search_points=16, pad_linewidths=0.0
)


def _assert_on_resonance(h0, h1, sticks):
    # An independent eigh puts each stick's (lower, upper) pair through the
    # microwave frequency within 1e-4 mT of the stick field.
    def mismatch(lower, upper, field_mt):
        evals = np.linalg.eigvalsh(h0 + field_mt * h1)
        return evals[upper] - evals[lower] - 9500.0

    for b, lower, upper in zip(sticks.field_mt, sticks.lower, sticks.upper):
        assert mismatch(lower, upper, b - 1e-4) * mismatch(lower, upper, b + 1e-4) < 0, b


def test_tie_fallback_at_exact_crossing_on_a_grid_node():
    # H(B) = (B - 308 mT) M: all three levels cross at the grid node 308 mT,
    # where H is exactly zero and eigh returns the unit vectors.  Below it the
    # outer levels of M are u0 and u2, which share their largest component
    # (1/sqrt 2 against 1/2), so overlap tracking sends both to the same
    # unit vector.
    r = 1 / math.sqrt(2)
    u = np.array([[r, 0, r], [0.5, r, -0.5], [0.5, -r, -0.5]])
    h1 = (5700.0 * u @ np.diag([-1.0, 0.3, 1.0]) @ u.T).astype(complex)
    h0 = -308.0 * h1
    sticks, diag = sp.find_resonances(
        h0, h1, FALLBACK_SWEEP, pol.ThermalPolarization(1.0), sc.spin_operators(1.0)[:2]
    )
    assert diag.n_tie_fallback > 0
    # |B - 308| * 5700 * (m_j - m_i) = 9500 for each of the three level pairs.
    assert diag.n_sticks == 6
    _assert_on_resonance(h0, h1, sticks)


def test_untracked_fallback_at_crossing_inside_one_grid_step():
    # Diagonal H: level e1 falls through 9500 MHz at 307.8 mT after crossing
    # e2 (above 9500 MHz there) at 307.3 mT.  Overlap tracking follows e1
    # onto the top level at 308 mT, whose gap to e0 does not bracket the
    # microwave frequency; the sorted pair (0, 1) does.  The e0-e2
    # resonance at 302.4 mT is forbidden for the spin-1 operators.
    h1 = np.diag([0.0, -500.0, 50.0]).astype(complex)
    h0 = np.diag([0.0, 9900.0, 9730.0]).astype(complex) - 307.0 * h1
    sticks, diag = sp.find_resonances(
        h0, h1, FALLBACK_SWEEP, pol.ThermalPolarization(1.0), sc.spin_operators(1.0)[:2]
    )
    assert diag.n_untracked_fallback > 0
    assert sticks.lower.tolist() == [0] and sticks.upper.tolist() == [1]
    _assert_on_resonance(h0, h1, sticks)


def _oracle_hamiltonian(spec, orientation):
    """``(h0, h1)`` of the independent oracle Hamiltonian ``h0 + B h1`` of ``spec``."""

    def oracle(field_mt):
        return oracles.dimer_hamiltonian(
            field_mt, orientation.unit_vector(), spec.exchange_cm, spec.dipolar_mhz,
            spec.zfs_d_mhz, spec.zfs_e_mhz, spec.g_fp, spec.g_vo.principal,
            spec.a_vo.principal, spec.frames.alpha_rad, spec.frames.beta_rad,
        )

    h0 = oracle(0.0)
    return h0, oracle(1.0) - h0


@pytest.mark.parametrize("weak", [False, True])
@pytest.mark.parametrize("search_points", [51, 151])
def test_certified_grid_brackets_match_every_node_scan(weak, search_points):
    # The oracle diagonalizes every node of the search grid.  The certified
    # grid skips nodes, yet brackets exactly the same (segment, pair) set,
    # each on one open grid segment.
    spec = _weak_dimer() if weak else sc.vanadyl_porphyrin_dimer()
    bgrid = sp._search_grid(sp.FieldSweepConfig(search_points=search_points))
    iu, ju = np.triu_indices(48, 1)
    skipped = 0
    for theta, phi in ((1.53, 0.10), (0.62, 5.74), (0.54, 0.21)):
        h0, h1 = _oracle_hamiltonian(spec, sc.LabOrientation(theta, phi))
        nodes, evals, open_seg = sp._certified_grid(h0, h1, bgrid, iu, ju, 9500.0)
        k, p = sp._brackets(sp._detuning(evals, iu, ju, 9500.0))
        assert open_seg[k].all() and (nodes[k + 1] == nodes[k] + 1).all()
        found = {(int(nodes[a]), int(iu[q]), int(ju[q])) for a, q in zip(k, p)}
        assert found == oracles.bracket_scan(h0, h1, bgrid, 9500.0)
        skipped += len(bgrid) - len(nodes)
    assert skipped > 0


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(4, 12), n=st.integers(17, 97))
@settings(max_examples=40, deadline=None)
def test_certified_segments_hold_no_crossing(seed, dim, n):
    rng = np.random.default_rng(seed)

    def hermitian(scale):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return scale * (a + a.conj().T) / 2

    h0, h1 = hermitian(1.0), hermitian(rng.uniform(0.02, 1.0))
    bgrid = np.linspace(0.0, 4.0, n)
    mid = np.linalg.eigvalsh(h0 + 2.0 * h1)
    nu = rng.uniform(0.0, mid[-1] - mid[0])
    iu, ju = np.triu_indices(dim, 1)
    nodes, evals, open_seg = sp._certified_grid(h0, h1, bgrid, iu, ju, nu)
    assert_allclose(evals, np.linalg.eigvalsh(h0 + bgrid[nodes, None, None] * h1), rtol=0, atol=1e-12)
    # Open segments are single grid segments with both neighbours diagonalized.
    k = nodes[:-1][open_seg]
    assert (np.isin(k + 1, nodes)).all()
    neighbours = np.concatenate([k - 1, k + 2])
    assert np.isin(neighbours[(neighbours >= 0) & (neighbours < n)], nodes).all()
    # No sorted-label detuning changes sign inside any other segment.
    for a, b in zip(nodes[:-1][~open_seg], nodes[1:][~open_seg]):
        fine = np.linspace(bgrid[a], bgrid[b], 16 * (b - a) + 1)
        e = np.linalg.eigvalsh(h0 + fine[:, None, None] * h1)
        f = e[:, ju] - e[:, iu] - nu
        assert (f[:-1] * f[1:] > 0).all()


@pytest.mark.parametrize("nu", [21.0, 40.0])
def test_pair_on_resonance_at_a_grid_node_is_never_certified(nu):
    # The detuning of levels (0, 1) is B - nu on the nodes 0, 1, ..., 64 (L = 1):
    # zero exactly on node 21, between stride nodes, or on node 40, a stride node.
    bgrid = np.arange(65.0)
    h0, h1 = np.zeros((2, 2)), np.diag([0.0, 1.0])
    iu, ju = np.triu_indices(2, 1)
    nodes, evals, open_seg = sp._certified_grid(h0, h1, bgrid, iu, ju, nu)
    at = int(np.searchsorted(nodes, nu))
    assert nodes[at] == nu and open_seg[at - 1] and open_seg[at]
    assert nodes[at + 1] == nu + 1 and nodes[at - 1] == nu - 1
    assert sp._brackets(sp._detuning(evals, iu, ju, nu))[0].tolist() == [at]
    assert len(nodes) < len(bgrid)


def _weak_thermal_halved_search():
    """``(h0, h1, sweep)`` at an orientation of the weak-thermal scheme where the search halves segments."""
    spec = _weak_dimer()
    scheme = sp.AlignedScheme("perpendicular", sigma_deg=10.0, n_samples=8, tilt_nodes=3, transverse_nodes=4)
    orientation = sp.scheme_orientations(scheme)[0][2]
    h0, h1, _, _ = sp._dimer_parts(spec, sp._model_channels(spec, WEAK_THERMAL))(orientation)
    return h0, h1, sp.FieldSweepConfig()


@pytest.mark.parametrize(
    "case", [_double_crossing, _weak_thermal_halved_search], ids=["two-level", "weak-thermal"]
)
def test_grid_stage_keeps_rows_aligned_through_halving(case):
    # Each halving round appends the midpoints' detuning rows and reorders
    # them with the nodes; the brackets read off them are those of an
    # independent scan of the returned nodes.
    h0, h1, sweep = case()
    iu, ju = np.triu_indices(h0.shape[0], 1)
    nu = sweep.mw_frequency_mhz()
    diag = sp.SearchDiagnostics()
    bgrid, k, p = sp._grid_stage(h0, h1, sweep, iu, ju, nu, diag)
    midpoints = int((~np.isin(bgrid, sp._search_grid(sweep))).sum())
    assert diag.n_subdivided == midpoints > 0
    assert diag.n_grid_matrices == len(bgrid)
    assert (np.diff(bgrid) > 0).all() and (np.diff(k) >= 0).all()
    found = {(int(a), int(iu[q]), int(ju[q])) for a, q in zip(k, p)}
    assert found == oracles.bracket_scan(h0, h1, bgrid, nu)


def test_detuning_within_lipschitz_reach_diagonalizes_the_whole_grid():
    # Levels 0 and 1 climb together 10 MHz off resonance while level 2 falls,
    # so L = 56 MHz/mT and L h = 224 MHz on the default 4 mT step: no
    # interval is ever certified, and no pair crosses the microwave frequency.
    h1 = np.diag([28.0, 28.0, -28.0]).astype(complex)
    h0 = np.diag([0.0, 9510.0, 60000.0]).astype(complex)
    sweep = sp.FieldSweepConfig()
    sticks, diag = sp.find_resonances(h0, h1, sweep, pol.ThermalPolarization(1.0), sc.spin_operators(1.0)[:2])
    assert len(sticks) == 0 and diag.n_subdivided == 0
    assert diag.n_grid_matrices == len(sp._search_grid(sweep))


@pytest.mark.parametrize(
    "weak, theta, phi", [(False, 1.53, 0.10), (False, 0.62, 5.74), (True, 0.54, 0.21), (True, 0.84, 4.07)]
)
def test_search_matches_dense_reference(weak, theta, phi):
    spec, model = (_weak_dimer(), WEAK_THERMAL) if weak else (sc.vanadyl_porphyrin_dimer(), TABLE_MODEL)
    orientation = sc.LabOrientation(theta, phi)
    default, dense = sp.FieldSweepConfig(), sp.FieldSweepConfig(search_points=4801)
    sticks = _dimer_search(spec, orientation, model, default)
    reference = _dimer_search(spec, orientation, model, dense)
    _assert_same_sticks(sticks, reference, 1e-4)
    y = sp.convolve_lineshape(sticks, default)[0]
    y_ref = sp.convolve_lineshape(reference, dense)[0]
    assert np.abs(y - y_ref).max() <= 2e-6 * np.abs(y_ref).max()


@pytest.mark.parametrize("theta, phi", [(1.53, 0.10), (0.62, 5.74)])
def test_default_search_only_brackets_strong_exchange(theta, phi):
    # On the bundled dimer the default grid is fine enough that no bracket
    # needs a diagonalization at its root.  At 38 points these orientations
    # polish 3 and 7 of their 256 sticks, and the search slows.
    scheme = sp.SingleOrientationScheme(theta, phi)
    spectrum = sp.simulate_dimer(sc.vanadyl_porphyrin_dimer(), TABLE_MODEL, sp.FieldSweepConfig(), scheme)
    diag = spectrum.metadata["diagnostics"]
    assert diag["sticks"] > 0
    assert diag["polished_sticks"] == diag["tie_fallbacks"] == diag["untracked_fallbacks"] == 0


@pytest.mark.parametrize("simulator", ["triplet", "cw-doublet"])
def test_powder_search_matches_dense_reference(simulator):
    def run(search_points):
        if simulator == "triplet":
            sweep = sp.FieldSweepConfig(field_start_mt=280, field_stop_mt=400, n_points=1200,
                                        linewidth_mt=1.2, search_points=search_points)
            return sp.simulate_triplet(2.0023, 1153.0, 115.0, (0.0, 0.0, 1.0), sweep, grid_size=16)
        sweep = sp.FieldSweepConfig(n_points=1600, linewidth_mt=1.5, search_points=search_points)
        g, a = sc.InteractionTensor((1.985, 1.985, 1.964)), sc.InteractionTensor((162.0, 162.0, 475.0))
        return sp.simulate_cw_doublet(g, a, sweep, grid_size=16)

    # Measured at 51 points: 1.5e-10 (triplet) and 5.1e-9 (CW doublet) of peak.
    y = run(sp.FieldSweepConfig.search_points).intensity
    y_ref = run(1201).intensity
    assert np.abs(y - y_ref).max() <= 2e-6 * np.abs(y_ref).max()


def test_stick_labels_resonate_at_their_field():
    # Each stick's (lower, upper) are sorted level indices at its own field:
    # diagonalizing the independent oracle Hamiltonian there puts that pair
    # on resonance, to within 1e-4 mT.
    spec = _weak_dimer()
    orientation = sc.LabOrientation(0.3927, math.pi)
    sticks = sp.stick_spectrum(spec, orientation, WEAK_THERMAL, sp.FieldSweepConfig())
    h0, h1 = _oracle_hamiltonian(spec, orientation)
    fields = np.array([s.field_mt for s in sticks])
    evals, evecs = np.linalg.eigh(h0[None] + fields[:, None, None] * h1[None])
    rows = np.arange(len(sticks))
    lower = np.array([s.lower for s in sticks])
    upper = np.array([s.upper for s in sticks])
    mismatch = evals[rows, upper] - evals[rows, lower] - 9500.0

    def expectation(op, level):
        v = evecs[rows, :, level]
        return np.einsum("nd,de,ne->n", v.conj(), op, v).real

    field_error = np.abs(mismatch / (expectation(h1, upper) - expectation(h1, lower)))
    assert len(sticks) > 500
    assert field_error.max() <= 1e-4

    # electron_m / nuclear_m are <v|S.n|v> and <v|I.n|v> of the oracle's
    # eigenvectors of both levels at the stick's field.
    n = orientation.unit_vector()
    (tx, ty, tz), (dx, dy, dz), (ix, iy, iz) = (oracles.spin_matrices(spin) for spin in (1.0, 0.5, 3.5))
    e3, e2, e8 = np.eye(3), np.eye(2), np.eye(8)
    s_axis = sum(c * (np.kron(np.kron(t, e2), e8) + np.kron(np.kron(e3, d), e8))
                 for c, t, d in zip(n, (tx, ty, tz), (dx, dy, dz)))
    i_axis = sum(c * np.kron(np.kron(e3, e2), i) for c, i in zip(n, (ix, iy, iz)))
    for op, got in ((s_axis, [s.electron_m for s in sticks]), (i_axis, [s.nuclear_m for s in sticks])):
        expected = np.column_stack([expectation(op, lower), expectation(op, upper)])
        assert np.abs(np.array(got) - expected).max() <= 1e-10


# -------------------------------------------------------------- lineshapes


def _sticks(fields_mt, amplitudes):
    """A single-channel ``Sticks`` record with the given fields and amplitudes."""
    n = len(fields_mt)
    return sp.Sticks(np.array(fields_mt, dtype=float), np.array(amplitudes, dtype=float).reshape(n, 1),
                     np.zeros(n, dtype=int), np.arange(1, n + 1), np.full(n, 30.0))


@pytest.mark.parametrize("shape", ["lorentzian", "gaussian"])
def test_convolution_preserves_stick_area(shape):
    sweep = sp.FieldSweepConfig(
        field_start_mt=200, field_stop_mt=480, n_points=4001, lineshape=shape, linewidth_mt=1.8
    )
    block = sp.convolve_lineshape(_sticks([340.0], [2.5]), sweep)
    area = np.trapezoid(block[0], sweep.field_axis())
    assert math.isclose(area, 2.5, rel_tol=1e-4)


def test_convolution_outside_window_contributes_tail_only():
    sweep = sp.FieldSweepConfig(field_start_mt=300, field_stop_mt=380, n_points=801)
    inside = sp.convolve_lineshape(_sticks([340.0], [1.0]), sweep)
    outside = sp.convolve_lineshape(_sticks([395.0], [1.0]), sweep)
    a_in = np.trapezoid(inside[0], sweep.field_axis())
    a_out = np.trapezoid(outside[0], sweep.field_axis())
    assert math.isclose(a_in, 1.0, rel_tol=1e-4)
    assert 0 < a_out < 0.2


def test_opposite_sticks_cancel():
    sweep = sp.FieldSweepConfig(field_start_mt=300, field_stop_mt=380)
    sticks = _sticks([340.0, 340.0], [1.0, -1.0])
    assert np.abs(sp.convolve_lineshape(sticks, sweep)).max() < 1e-14


def test_halving_linewidth_doubles_peak():
    tall = sp.FieldSweepConfig(field_start_mt=300, field_stop_mt=380, n_points=4001, linewidth_mt=0.9)
    wide = sp.FieldSweepConfig(field_start_mt=300, field_stop_mt=380, n_points=4001, linewidth_mt=1.8)
    stick = _sticks([340.0], [1.0])
    peak_tall = sp.convolve_lineshape(stick, tall).max()
    peak_wide = sp.convolve_lineshape(stick, wide).max()
    assert math.isclose(peak_tall / peak_wide, 2.0, rel_tol=1e-2)


def test_empty_stick_list():
    for n_channels in (1, 48):
        empty = sp.Sticks(np.empty(0), np.empty((0, n_channels)), np.empty(0, dtype=int),
                          np.empty(0, dtype=int), np.empty(0))
        block = sp.convolve_lineshape(empty, FAST_SWEEP)
        assert block.shape == (n_channels, FAST_SWEEP.n_points)
        assert np.abs(block).max() == 0


# ------------------------------------------------------------ full spectra


def test_simulation_linear_in_polarization():
    spec = sc.vanadyl_porphyrin_dimer()
    scheme = sp.SingleOrientationScheme(1.1, 0.6)
    base = sp.simulate_dimer(spec, TABLE_MODEL, FAST_SWEEP, scheme)
    doubled_params = pol.QuartetPolarizationParams(
        a=tuple(2 * v for v in TABLE_PARAMS.a), r=tuple(2 * v for v in TABLE_PARAMS.r)
    )
    doubled = sp.simulate_dimer(
        spec, pol.PhotoQuartetPolarization(doubled_params, TABLE_NUCLEAR), FAST_SWEEP, scheme
    )
    assert_allclose(doubled.intensity, 2 * base.intensity, atol=1e-12)


@pytest.mark.parametrize("scheme", [
    sp.SingleOrientationScheme(0.9, 1.7),
    sp.PowderScheme(16),
    sp.AlignedScheme("perpendicular", n_samples=8, tilt_nodes=3, transverse_nodes=2),
], ids=["single", "powder", "perpendicular"])
def test_basis_spectra_reproduce_direct_simulation(scheme):
    # The multi-orientation schemes cover the per-orientation channel
    # weights and the weighted sum over orientations (unequal weights in
    # the aligned scheme).
    spec = sc.vanadyl_porphyrin_dimer()
    basis = sp.quartet_basis_spectra(spec, FAST_SWEEP, scheme)
    assert basis.shape == (6, 8, FAST_SWEEP.n_points)
    coeffs = np.array([*TABLE_PARAMS.a, *TABLE_PARAMS.r])
    combined = np.einsum("p,l,plf->f", coeffs, TABLE_NUCLEAR.as_array(), basis)
    direct = sp.simulate_dimer(spec, TABLE_MODEL, FAST_SWEEP, scheme)
    scale = np.abs(direct.intensity).max()
    assert np.abs(combined - direct.intensity).max() < 1e-9 * scale


def test_basis_spectra_zero_where_nothing_resonates():
    # No transition of the dimer reaches X band between 20 and 40 mT, so
    # every orientation takes the engine's zero-fill path.
    spec = sc.vanadyl_porphyrin_dimer()
    sweep = sp.FieldSweepConfig(field_start_mt=20.0, field_stop_mt=40.0, n_points=128, search_points=64)
    basis = sp.quartet_basis_spectra(spec, sweep, sp.SingleOrientationScheme(0.9, 1.7))
    assert basis.shape == (6, 8, 128)
    assert not basis.any()


def test_simulation_covariant_under_global_rotation():
    spec = sc.vanadyl_porphyrin_dimer()
    rot = sc.rotation_matrix((0.7, 1.1, -0.4))
    n = np.array([0.3, -0.5, 0.81])
    n /= np.linalg.norm(n)
    o_lab = sc.LabOrientation.from_vector(n)
    o_rot = sc.LabOrientation.from_vector(rot @ n)
    a = sp.simulate_dimer(spec, TABLE_MODEL, FAST_SWEEP, sp.SingleOrientationScheme(o_lab.theta, o_lab.phi))
    b = sp.simulate_dimer(
        spec.rotated(rot), TABLE_MODEL, FAST_SWEEP, sp.SingleOrientationScheme(o_rot.theta, o_rot.phi)
    )
    scale = np.abs(a.intensity).max()
    assert np.abs(a.intensity - b.intensity).max() < 1e-8 * scale


def test_powder_spectrum_net_emissive():
    spec = sc.vanadyl_porphyrin_dimer()
    spectrum = sp.simulate_dimer(spec, TABLE_MODEL, FAST_SWEEP, sp.PowderScheme(16))
    assert spectrum.net_integral() < 0
    assert spectrum.metadata["scheme"]["kind"] == "powder"
    assert spectrum.metadata["diagnostics"]["sticks"] > 0
    assert set(spectrum.metadata["diagnostics"]) == {
        "sticks", "discarded_flat_transitions", "polished_sticks", "tie_fallbacks",
        "untracked_fallbacks", "subdivided_segments", "grid_matrices",
    }


def test_aligned_extent_wider_perpendicular_than_parallel():
    spec = sc.vanadyl_porphyrin_dimer()
    par = sp.AlignedScheme("parallel", tilt_nodes=5, n_samples=8)
    perp = sp.AlignedScheme("perpendicular", tilt_nodes=5, transverse_nodes=6, n_samples=8)
    s_par = sp.simulate_dimer(spec, TABLE_MODEL, FAST_SWEEP, par)
    s_perp = sp.simulate_dimer(spec, TABLE_MODEL, FAST_SWEEP, perp)
    lo_par, hi_par = sp.intensity_extent(s_par)
    lo_perp, hi_perp = sp.intensity_extent(s_perp)
    assert hi_perp - lo_perp > hi_par - lo_par


def test_intensity_extent_basics():
    axis = np.linspace(0, 100, 1001)
    bump = np.exp(-0.5 * ((axis - 50) / 5) ** 2)
    lo, hi = sp.intensity_extent(sp.Spectrum(axis, bump))
    # 1% level of a Gaussian: center +- sigma * sqrt(2 ln 100)
    half = 5 * math.sqrt(2 * math.log(100))
    assert math.isclose(lo, 50 - half, abs_tol=0.2)
    assert math.isclose(hi, 50 + half, abs_tol=0.2)
    with pytest.raises(ValueError):
        sp.intensity_extent(sp.Spectrum(axis, np.zeros_like(axis)))


def test_net_integral_window():
    axis = np.linspace(0, 10, 101)
    spectrum = sp.Spectrum(axis, np.ones_like(axis))
    assert math.isclose(spectrum.net_integral(), 10.0, rel_tol=1e-12)
    assert math.isclose(spectrum.net_integral(2.0, 4.0), 2.0, rel_tol=1e-12)


# -------------------------------------------------------- reference systems


def test_triplet_powder_spectrum():
    sweep = sp.FieldSweepConfig(field_start_mt=280, field_stop_mt=400, n_points=1200, linewidth_mt=1.2)
    spectrum = sp.simulate_triplet(2.0023, 1153.0, 115.0, (0.0, 0.0, 1.0), sweep, grid_size=64)
    ge = 2.0023 * 13.9962449361
    b0 = 9500.0 / ge
    lo, hi = sp.intensity_extent(spectrum)
    # outermost features are the B || z pair split by 2D/(g muB)
    assert 2 * 1153.0 / ge < hi - lo < 2 * 1153.0 / ge + 20.0
    assert lo < b0 < hi
    low = spectrum.intensity[np.argmin(np.abs(spectrum.field_mt - (b0 - 1153.0 / ge)))]
    high = spectrum.intensity[np.argmin(np.abs(spectrum.field_mt - (b0 + 1153.0 / ge)))]
    assert low > 0 and high < 0  # m=0 overpopulated: absorptive low, emissive high


def test_cw_doublet_octet_width():
    sweep = sp.FieldSweepConfig(field_start_mt=240, field_stop_mt=440, n_points=1600, linewidth_mt=1.5)
    g = sc.InteractionTensor((1.985, 1.985, 1.964))
    a = sc.InteractionTensor((162.0, 162.0, 475.0))
    spectrum = sp.simulate_cw_doublet(g, a, sweep, grid_size=64)
    lo, hi = sp.intensity_extent(spectrum)
    z_width = 7 * 475.0 / (1.964 * 13.9962449361)
    assert z_width - 5.0 < hi - lo < z_width + 15.0
    # first-derivative signal integrates to ~0 over the full window
    scale = np.abs(spectrum.intensity).max() * (hi - lo)
    assert abs(spectrum.net_integral()) < 1e-3 * scale
    assert spectrum.metadata["derivative"] is True


def test_cw_doublet_isotropic_single_line():
    sweep = sp.FieldSweepConfig(field_start_mt=330, field_stop_mt=350, n_points=800, linewidth_mt=1.0)
    g = sc.InteractionTensor((2.0023, 2.0023, 2.0023))
    a = sc.InteractionTensor((0.0, 0.0, 0.0))
    spectrum = sp.simulate_cw_doublet(g, a, sweep, grid_size=32)
    crossings = np.nonzero(np.diff(np.sign(spectrum.intensity)))[0]
    center = oracles.isolated_doublet_field(9500.0, 2.0023)
    mid = spectrum.field_mt[crossings[np.argmin(np.abs(spectrum.field_mt[crossings] - center))]]
    assert math.isclose(mid, center, abs_tol=0.1)


# ------------------------------------------------------- threads and blocks


@pytest.fixture
def workers(monkeypatch):
    """``workers(n)`` runs orientation averages on the calling thread and n - 1 helpers."""
    pools = []

    def use(n):
        pools.append(ThreadPoolExecutor(max(n - 1, 1)))
        monkeypatch.setattr(sp, "_POOL", pools[-1])
        monkeypatch.setattr(sp, "_WORKERS", n)

    yield use
    for pool in pools:
        pool.shutdown()


def _photo_powder16():
    spec = sc.vanadyl_porphyrin_dimer()
    return sp._dimer_parts(spec, sp._model_channels(spec, TABLE_MODEL)), sp.PowderScheme(16)


@pytest.mark.parametrize("n_channels", [1, 48])
def test_average_does_not_depend_on_worker_count(workers, n_channels):
    # The dimer's 16-orientation powder, with the single photo channel of
    # simulate_dimer and with the 48 channels of quartet_basis_spectra.
    parts, scheme = _photo_powder16()
    if n_channels == 48:
        spec = sc.vanadyl_porphyrin_dimer()
        units = [pol.QuartetPolarizationParams(a=c[:3], r=c[3:]) for c in np.eye(6)]
        parts = sp._dimer_parts(spec, sp._quartet_channels(spec, units, np.eye(8)))
    runs = []
    for n in (max(sp._WORKERS, 3), 1):
        workers(n)
        runs.append(sp.orientation_average(parts, FAST_SWEEP, scheme))
    (total, diag), (serial_total, serial_diag) = runs
    assert total.shape == (n_channels, FAST_SWEEP.n_points)
    assert total.tobytes() == serial_total.tobytes()
    assert diag == serial_diag and diag.n_sticks > 0


@pytest.mark.parametrize("channels", ["photo", "basis", "thermal"])
def test_average_over_orientations_without_sticks(channels):
    # Unpadded, the window 380-400 mT sits at the high-field edge of the
    # dimer's 16-orientation powder: orientation 0 resonates only up to
    # 374.8 mT, orientations 6, 8 and 13-15 reach into the window.
    spec = sc.vanadyl_porphyrin_dimer()
    sweep = sp.FieldSweepConfig(field_start_mt=380.0, field_stop_mt=400.0, n_points=256, pad_linewidths=0.0)
    if channels == "basis":
        units = [pol.QuartetPolarizationParams(a=c[:3], r=c[3:]) for c in np.eye(6)]
        parts, n_channels = sp._dimer_parts(spec, sp._quartet_channels(spec, units, np.eye(8))), 48
    else:
        model = TABLE_MODEL if channels == "photo" else pol.ThermalPolarization(80.0)
        parts, n_channels = sp._dimer_parts(spec, sp._model_channels(spec, model)), 1
    scheme = sp.PowderScheme(16)
    expected, counts = 0.0, []
    for orientation, weight in zip(*sp.scheme_orientations(scheme)):
        h0, h1, s_tot, population = parts(orientation)
        sticks, _ = sp.find_resonances(h0, h1, sweep, population, sp._transverse_ops(orientation, s_tot))
        counts.append(len(sticks))
        expected = expected + weight * sp.convolve_lineshape(sticks, sweep)
    assert counts[0] == 0 and 0 < sum(c > 0 for c in counts) < len(counts)
    total, diag = sp.orientation_average(parts, sweep, scheme)
    assert total.shape == expected.shape == (n_channels, sweep.n_points)
    assert total.tobytes() == expected.tobytes()
    assert diag.n_sticks == sum(counts) and np.abs(total).max() > 0


@pytest.mark.parametrize("bad", [4, 5])
def test_worker_error_raises_from_the_average(workers, bad):
    # One orientation raises: on two workers, orientation 4 is the calling
    # thread's and 5 the helper's.  The next call succeeds.
    workers(2)
    parts, scheme = _photo_powder16()
    bad_orientation = sp.scheme_orientations(scheme)[0][bad]

    def failing_parts(orientation):
        if orientation == bad_orientation:
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        return parts(orientation)

    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        sp.orientation_average(failing_parts, FAST_SWEEP, scheme)
    total, diag = sp.orientation_average(parts, FAST_SWEEP, scheme)
    workers(1)
    serial_total, serial_diag = sp.orientation_average(parts, FAST_SWEEP, scheme)
    assert total.tobytes() == serial_total.tobytes() and diag == serial_diag


def _weak_orientation_search():
    """Search inputs of one weak-exchange orientation with about 512 sticks."""
    spec = _weak_dimer()
    orientation = sc.LabOrientation(0.84, 4.07)
    h0, h1, s_tot, channels = sp._dimer_parts(spec, sp._model_channels(spec, WEAK_THERMAL))(orientation)
    return h0, h1, sp.FieldSweepConfig(), channels, sp._transverse_ops(orientation, s_tot)


def test_bracket_nodes_diagonalized_once_and_blocks_match_one_block(monkeypatch):
    # Weak exchange: about 512 sticks in one orientation, so several bracket
    # blocks, against a search that resolves every bracket in one unchunked block.
    h0, h1, sweep, channels, transverse = _weak_orientation_search()
    eigh = np.linalg.eigh
    diagonalized = []

    def counting_eigh(a):
        diagonalized.append(a.copy())
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    sticks, diag = sp.find_resonances(h0, h1, sweep, channels, transverse)
    assert diag.n_sticks * h0.shape[0] > sp._BRACKET_VALUES and diag.n_subdivided == 0
    # Every bracket node of the whole grid in one call, each once; then only
    # the polished roots.
    bgrid = sp._search_grid(sweep)
    scan = oracles.bracket_scan(h0, h1, bgrid, sweep.mw_frequency_mhz())
    nodes = sorted({k for k, _, _ in scan} | {k + 1 for k, _, _ in scan})
    assert np.array_equal(diagonalized[0], h0 + bgrid[nodes, None, None] * h1)
    assert diag.n_polished > 0 and sum(len(a) for a in diagonalized[1:]) == diag.n_polished
    diagonalized.clear()
    monkeypatch.setattr(sp, "_BRACKET_VALUES", 10**9)
    monkeypatch.setattr(sp, "_NODE_CHUNK", 10**6)
    whole, whole_diag = sp.find_resonances(h0, h1, sweep, channels, transverse)
    assert diag == whole_diag
    _assert_same_sticks(sticks, whole, 1e-9)
    scale = np.abs(whole.amplitudes).max()
    assert_allclose(sticks.amplitudes, whole.amplitudes, rtol=1e-12, atol=1e-12 * scale)


def test_node_chunks_match_one_chunk(monkeypatch):
    h0, h1, sweep, _, _ = _weak_orientation_search()
    fields = sp._search_grid(sweep)
    evals, evecs = np.linalg.eigh(h0 + fields[:, None, None] * h1)
    assert len(fields) > 2 * sp._NODE_CHUNK
    rng = np.random.default_rng(5)
    node = rng.integers(0, len(fields), 400)
    level = rng.integers(0, h0.shape[0], 400)
    chunked = sp._level_derivatives(h1, evals, evecs, node, level)
    monkeypatch.setattr(sp, "_NODE_CHUNK", 10**6)
    for a, b in zip(chunked, sp._level_derivatives(h1, evals, evecs, node, level)):
        assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())


def _traced_peak_mb(h0, h1, sweep, channels, transverse) -> float:
    sp.find_resonances(h0, h1, sweep, channels, transverse)
    tracemalloc.start()
    try:
        sp.find_resonances(h0, h1, sweep, channels, transverse)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_search_working_set_stays_bounded():
    # Each orientation_average thread holds one search's temporaries.  Bounds
    # are about 1.3 times the traced peaks (5.0 and 6.6 MB); resolving every
    # bracket in one block without node chunks traces 10.5 and 12.9 MB.
    assert _traced_peak_mb(*_weak_orientation_search()) < 6.4
    spec = sc.vanadyl_porphyrin_dimer()
    orientation = sc.LabOrientation(0.84, 4.07)
    units = [pol.QuartetPolarizationParams(a=c[:3], r=c[3:]) for c in np.eye(6)]
    h0, h1, s_tot, channels = sp._dimer_parts(spec, sp._quartet_channels(spec, units, np.eye(8)))(orientation)
    assert len(channels.weights) == 48
    transverse = sp._transverse_ops(orientation, s_tot)
    assert _traced_peak_mb(h0, h1, sp.FieldSweepConfig(search_points=151), channels, transverse) < 8.5
    # At 1201 search points the grid stage's detuning array is 6.3 MB on the
    # bundled dimer's worst powder orientation, and the double-crossing check
    # holds at most two arrays of its size beside it.  The bound is about 1.3
    # times the traced peak (22.6 MB); five full-size temporaries traced 37.9 MB.
    orientation = sp.powder_orientations(16)[0][13]
    h0, h1, s_tot, channels = sp._dimer_parts(spec, sp._model_channels(spec, TABLE_MODEL))(orientation)
    transverse = sp._transverse_ops(orientation, s_tot)
    assert _traced_peak_mb(h0, h1, sp.FieldSweepConfig(search_points=1201), channels, transverse) < 29.0


# --------------------------------------------------------------- metadata


def test_metadata_round_trip_keys():
    sweep_meta = sp.sweep_metadata(FAST_SWEEP)
    assert sweep_meta["n_points"] == 512 and sweep_meta["lineshape"] == "lorentzian"
    scheme_meta = sp.scheme_metadata(sp.AlignedScheme("perpendicular", sigma_deg=8.0))
    assert scheme_meta["kind"] == "aligned" and scheme_meta["mode"] == "perpendicular"
    single = sp.scheme_metadata(sp.SingleOrientationScheme(0.5))
    assert single == {"kind": "single", "theta": 0.5, "phi": 0.0}


def test_sweep_metadata_records_every_field():
    sweep = sp.FieldSweepConfig(n_points=300, pad_linewidths=4.0)
    meta = sp.sweep_metadata(sweep)
    assert set(meta) == {f.name for f in dataclasses.fields(sp.FieldSweepConfig)}
    assert meta == {name: getattr(sweep, name) for name in meta}


def test_single_scheme_checks_angles():
    with pytest.raises(ValueError, match="theta must lie"):
        sp.SingleOrientationScheme(math.radians(200.0))
    with pytest.raises(ValueError, match="finite"):
        sp.SingleOrientationScheme(0.5, math.inf)
