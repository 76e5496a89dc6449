import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
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

# coarse but fast sweep for engine-level checks
FAST_SWEEP = sp.FieldSweepConfig(n_points=512, search_points=301)


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
        dict(n_points=1),
        dict(lineshape="voigt"),
        dict(linewidth_mt=0.0),
        dict(search_points=4),
        dict(slope_floor_ghz_per_mt=0.0),
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


def test_aligned_orientations_deduplicate():
    par = sp.AlignedScheme("parallel")
    perp = sp.AlignedScheme("perpendicular")
    for scheme, raw in ((par, 9 * 16), (perp, 9 * 8 * 16)):
        orientations, weights = sp.aligned_orientations(scheme)
        assert len(orientations) < raw  # antipodal/duplicate nodes merged
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
    return sp.find_resonances(h0, h1, sweep, sp.ThermalChannel(295.0), (sa, sb))


def test_isolated_doublet_resonance_field():
    sweep = sp.FieldSweepConfig(field_start_mt=300, field_stop_mt=380, search_points=101)
    sticks, diag = _doublet_search(2.0023, 0.0, sweep)
    fields = sorted({round(s.field_mt, 6) for s in sticks})
    assert len(fields) == 1
    assert math.isclose(fields[0], oracles.isolated_doublet_field(9500.0, 2.0023), abs_tol=1e-6)
    assert diag.n_sticks == len(sticks)


def test_hyperfine_octet_positions_match_first_order_formula():
    sweep = sp.FieldSweepConfig(field_start_mt=280, field_stop_mt=400, search_points=241)
    sticks, _ = _doublet_search(1.964, 475.0, sweep)
    fields = np.array(sorted(s.field_mt for s in sticks))
    expected = np.sort(oracles.doublet_resonance_fields(9500.0, 1.964, 475.0))
    assert len(fields) == 8
    # transition frequencies are linear in B here, so interpolation is exact
    assert_allclose(fields, expected, atol=1e-6)
    spacing = np.diff(fields)
    assert_allclose(spacing, spacing[0], rtol=1e-9)
    for s in sticks:
        assert s.amplitude > 0  # thermal populations absorb


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


def _assert_same_sticks(sticks, reference, field_tol_mt):
    assert len(sticks) == len(reference)
    assert [(s.lower, s.upper) for s in sticks] == [(s.lower, s.upper) for s in reference]
    assert max(abs(s.field_mt - r.field_mt) for s, r in zip(sticks, reference)) <= field_tol_mt


def test_search_window_independent_of_grid_step():
    # The first orientation has a stick at 218.3 mT, just below the padded
    # window [240 - 12 * 1.8, 440 + 12 * 1.8] mT; whether a search returned
    # it used to depend on where its grid happened to start.
    spec = _weak_dimer()
    for theta, phi in ((0.3927, math.pi), (0.4437, 3.6541)):
        orientation = sc.LabOrientation(theta, phi)
        coarse, fine = (
            sp.stick_spectrum(spec, orientation, WEAK_THERMAL, sp.FieldSweepConfig(search_points=n))
            for n in (151, 601)
        )
        _assert_same_sticks(coarse, fine, 1e-4)
        assert min(s.field_mt for s in coarse) >= 240.0 - 12 * 1.8


def test_double_crossing_inside_one_grid_step():
    # Two-level anticrossing: nu(B) = sqrt((c - gamma B)^2 + delta^2) dips
    # just below the microwave frequency, crossing it at b_min -+ 0.4 mT.
    # Both crossings lie in the one initial-grid segment 340.0-342.0 mT, whose
    # ends are both above resonance.
    nu, gamma, b_min, half = 9500.0, 28.0, 341.0, 0.4
    delta = math.sqrt(nu**2 - (gamma * half) ** 2)
    h0 = 0.5 * np.array([[gamma * b_min, delta], [delta, -gamma * b_min]], dtype=complex)
    h1 = 0.5 * np.diag([-gamma, gamma]).astype(complex)
    sx, sy, _ = sc.spin_operators(0.5)
    sweep = sp.FieldSweepConfig(
        field_start_mt=300.0, field_stop_mt=380.0, search_points=41, slope_floor_ghz_per_mt=1e-6
    )
    sticks, diag = sp.find_resonances(h0, h1, sweep, sp.ThermalChannel(1.0), (sx, sy))
    assert_allclose([s.field_mt for s in sticks], [b_min - half, b_min + half], atol=1e-6)
    assert all(s.amplitude > 0 for s in sticks)
    assert diag.n_subdivided > 0 and diag.n_sticks == 2


# Three-level systems on a 1 mT search grid over 300-315 mT (no padding).
FALLBACK_SWEEP = sp.FieldSweepConfig(
    field_start_mt=300.0, field_stop_mt=315.0, search_points=16, pad_linewidths=0.0
)


def _assert_on_resonance(h0, h1, sticks):
    # An independent eigh puts each stick's (lower, upper) pair through the
    # microwave frequency within 1e-4 mT of the stick field.
    def mismatch(stick, field_mt):
        evals = np.linalg.eigvalsh(h0 + field_mt * h1)
        return evals[stick.upper] - evals[stick.lower] - 9500.0

    for s in sticks:
        assert mismatch(s, s.field_mt - 1e-4) * mismatch(s, s.field_mt + 1e-4) < 0, s.field_mt


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
        h0, h1, FALLBACK_SWEEP, sp.ThermalChannel(1.0), sc.spin_operators(1.0)[:2]
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
        h0, h1, FALLBACK_SWEEP, sp.ThermalChannel(1.0), sc.spin_operators(1.0)[:2]
    )
    assert diag.n_untracked_fallback > 0
    assert [(s.lower, s.upper) for s in sticks] == [(0, 1)]
    _assert_on_resonance(h0, h1, sticks)


@pytest.mark.parametrize(
    "weak, theta, phi", [(False, 1.53, 0.10), (False, 0.62, 5.74), (True, 0.54, 0.21), (True, 0.84, 4.07)]
)
def test_search_matches_dense_reference(weak, theta, phi):
    spec, model = (_weak_dimer(), WEAK_THERMAL) if weak else (sc.vanadyl_porphyrin_dimer(), TABLE_MODEL)
    orientation = sc.LabOrientation(theta, phi)
    default, dense = sp.FieldSweepConfig(), sp.FieldSweepConfig(search_points=4801)
    sticks = sp.stick_spectrum(spec, orientation, model, default)
    reference = sp.stick_spectrum(spec, orientation, model, dense)
    _assert_same_sticks(sticks, reference, 1e-4)
    y = sp.convolve_lineshape(sticks, default)[0]
    y_ref = sp.convolve_lineshape(reference, dense)[0]
    assert np.abs(y - y_ref).max() <= 2e-6 * np.abs(y_ref).max()


def test_stick_labels_resonate_at_their_field():
    # Each stick's (lower, upper) are sorted level indices at its own field:
    # diagonalizing the independent oracle Hamiltonian there puts that pair
    # on resonance, to within 1e-4 mT.
    spec = _weak_dimer()
    orientation = sc.LabOrientation(0.3927, math.pi)
    sticks = sp.stick_spectrum(spec, orientation, WEAK_THERMAL, sp.FieldSweepConfig())

    def oracle(field_mt):
        return oracles.dimer_hamiltonian(
            field_mt, orientation.unit_vector(), spec.exchange_cm, spec.dipolar_mhz,
            spec.zfs_d_mhz, spec.zfs_e_mhz, spec.g_fp, spec.g_vo.principal,
            spec.a_vo.principal, spec.frames.alpha_rad, spec.frames.beta_rad,
        )

    h0 = oracle(0.0)
    h1 = oracle(1.0) - h0
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


@pytest.mark.parametrize("shape", ["lorentzian", "gaussian"])
def test_convolution_preserves_stick_area(shape):
    sweep = sp.FieldSweepConfig(
        field_start_mt=200, field_stop_mt=480, n_points=4001, lineshape=shape, linewidth_mt=1.8
    )
    stick = sp.Stick(340.0, np.array([2.5]), 0, 1, 30.0)
    block = sp.convolve_lineshape([stick], sweep)
    area = np.trapezoid(block[0], sweep.field_axis())
    assert math.isclose(area, 2.5, rel_tol=1e-4)


def test_convolution_outside_window_contributes_tail_only():
    sweep = sp.FieldSweepConfig(field_start_mt=300, field_stop_mt=380, n_points=801)
    inside = sp.convolve_lineshape([sp.Stick(340.0, np.array([1.0]), 0, 1, 30.0)], sweep)
    outside = sp.convolve_lineshape([sp.Stick(395.0, np.array([1.0]), 0, 1, 30.0)], sweep)
    a_in = np.trapezoid(inside[0], sweep.field_axis())
    a_out = np.trapezoid(outside[0], sweep.field_axis())
    assert math.isclose(a_in, 1.0, rel_tol=1e-4)
    assert 0 < a_out < 0.2


def test_opposite_sticks_cancel():
    sweep = sp.FieldSweepConfig(field_start_mt=300, field_stop_mt=380)
    sticks = [
        sp.Stick(340.0, np.array([1.0]), 0, 1, 30.0),
        sp.Stick(340.0, np.array([-1.0]), 0, 2, 30.0),
    ]
    assert np.abs(sp.convolve_lineshape(sticks, sweep)).max() < 1e-14


def test_halving_linewidth_doubles_peak():
    tall = sp.FieldSweepConfig(field_start_mt=300, field_stop_mt=380, n_points=4001, linewidth_mt=0.9)
    wide = sp.FieldSweepConfig(field_start_mt=300, field_stop_mt=380, n_points=4001, linewidth_mt=1.8)
    stick = [sp.Stick(340.0, np.array([1.0]), 0, 1, 30.0)]
    peak_tall = sp.convolve_lineshape(stick, tall).max()
    peak_wide = sp.convolve_lineshape(stick, wide).max()
    assert math.isclose(peak_tall / peak_wide, 2.0, rel_tol=1e-2)


def test_empty_stick_list():
    block = sp.convolve_lineshape([], FAST_SWEEP)
    assert block.shape == (1, FAST_SWEEP.n_points)
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
        "untracked_fallbacks", "subdivided_segments",
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
    orientations, weights = sp.scheme_orientations(sp.PowderScheme(16))
    return sp._dimer_parts(spec, sp._model_channels(spec, TABLE_MODEL)), orientations, weights


@pytest.mark.parametrize("n_channels", [1, 48])
def test_average_does_not_depend_on_worker_count(workers, n_channels):
    # The dimer's 16-orientation powder, with the single photo channel of
    # simulate_dimer and with the 48 channels of quartet_basis_spectra.
    parts, orientations, weights = _photo_powder16()
    if n_channels == 48:
        spec = sc.vanadyl_porphyrin_dimer()
        units = [pol.QuartetPolarizationParams(a=c[:3], r=c[3:]) for c in np.eye(6)]
        parts = sp._dimer_parts(spec, sp._quartet_channels(spec, units, np.eye(8)))
    runs = []
    for n in (max(sp._WORKERS, 3), 1):
        workers(n)
        runs.append(sp.orientation_average(parts, FAST_SWEEP, orientations, weights, n_channels))
    (total, diag), (serial_total, serial_diag) = runs
    assert total.shape == (n_channels, FAST_SWEEP.n_points)
    assert total.tobytes() == serial_total.tobytes()
    assert diag == serial_diag and diag.n_sticks > 0


@pytest.mark.parametrize("bad", [4, 5])
def test_worker_error_raises_from_the_average(workers, bad):
    # One orientation raises: on two workers, orientation 4 is the calling
    # thread's and 5 the helper's.  The next call succeeds.
    workers(2)
    parts, orientations, weights = _photo_powder16()

    def failing_parts(orientation):
        if orientation is orientations[bad]:
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        return parts(orientation)

    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        sp.orientation_average(failing_parts, FAST_SWEEP, orientations, weights, 1)
    total, diag = sp.orientation_average(parts, FAST_SWEEP, orientations, weights, 1)
    workers(1)
    serial_total, serial_diag = sp.orientation_average(parts, FAST_SWEEP, orientations, weights, 1)
    assert total.tobytes() == serial_total.tobytes() and diag == serial_diag


def test_bracket_blocks_match_one_block(monkeypatch):
    # Weak exchange: about 512 sticks in one orientation, so several bracket
    # blocks, against a search that resolves every bracket in one block.
    spec = _weak_dimer()
    orientation = sc.LabOrientation(0.84, 4.07)
    h0, h1, s_tot, channels = sp._dimer_parts(spec, sp._model_channels(spec, WEAK_THERMAL))(orientation)
    transverse = sp._transverse_ops(orientation, s_tot)
    sweep = sp.FieldSweepConfig()
    eigh = np.linalg.eigh
    diagonalized = []

    def counting_eigh(a):
        diagonalized.append(len(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    sticks, diag = sp.find_resonances(h0, h1, sweep, channels, transverse)
    assert diag.n_sticks > 4 * sp._BRACKET_BLOCK and len(diagonalized) > 4
    blocked = sum(diagonalized)
    diagonalized.clear()
    monkeypatch.setattr(sp, "_BRACKET_BLOCK", 10**6)
    monkeypatch.setattr(sp, "_GRID_BLOCK", 10**6)
    whole, whole_diag = sp.find_resonances(h0, h1, sweep, channels, transverse)
    assert diag == whole_diag
    # A node shared by two blocks is diagonalized once.
    assert blocked == sum(diagonalized)
    _assert_same_sticks(sticks, whole, 1e-9)
    amps, whole_amps = (np.array([s.amplitudes for s in x]) for x in (sticks, whole))
    assert_allclose(amps, whole_amps, rtol=1e-12, atol=1e-12 * np.abs(whole_amps).max())


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
