import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quartetsim import fitting as fit
from quartetsim import polarization as pol
from quartetsim import spectra as sp
from quartetsim import spincore as sc

TABLE_PARAMS = pol.QuartetPolarizationParams(a=(0.11, -0.002, -0.027), r=(0.0, -0.01, 0.0))
TABLE_NUCLEAR = pol.NuclearPopulations(
    (0.146, 0.078, 0.194, 0.126, 0.117, 0.165, 0.078, 0.097)
)
TABLE_COEFFS = np.array([*TABLE_PARAMS.a, *TABLE_PARAMS.r])
FAST = sp.FieldSweepConfig(n_points=512)

# three single-crystal orientations with distinct polarization-frame angles,
# enough to separate every coefficient channel cheaply
ORIENTATIONS = (
    sp.SingleOrientationScheme(1.0, 0.5),
    sp.SingleOrientationScheme(0.5, 2.0),
    sp.SingleOrientationScheme(1.3, 4.0),
)


@pytest.fixture(scope="module")
def system():
    return sc.vanadyl_porphyrin_dimer()


@pytest.fixture(scope="module")
def crystal_bases(system):
    return [sp.quartet_basis_spectra(system, FAST, s) for s in ORIENTATIONS]


def _datasets(bases, schemes, noise=0.0, seed=0):
    axis = FAST.field_axis()
    rng = np.random.default_rng(seed)
    out = []
    for k, (b, scheme) in enumerate(zip(bases, schemes)):
        signal = np.einsum("p,l,plf->f", TABLE_COEFFS, TABLE_NUCLEAR.as_array(), b)
        if noise:
            signal = signal + noise * np.abs(signal).max() * rng.standard_normal(len(signal))
        out.append(fit.FitDataset(f"set{k}", sp.Spectrum(axis, signal), scheme))
    return tuple(out)


def _problem(system, datasets, free, start_params=None, start_nuclear=None, **settings):
    return fit.FitProblem(
        system=system,
        sweep=FAST,
        datasets=datasets,
        start_params=start_params or TABLE_PARAMS,
        start_nuclear=start_nuclear or TABLE_NUCLEAR,
        free=free,
        settings=fit.FitSettings(**settings) if settings else fit.FitSettings(),
    )


# -------------------------------------------------------------- validation


def test_problem_validation(system, crystal_bases):
    datasets = _datasets(crystal_bases[:1], ORIENTATIONS[:1])
    with pytest.raises(ValueError):
        _problem(system, (), ("a2",))
    with pytest.raises(ValueError):
        _problem(system, datasets, ())
    with pytest.raises(ValueError):
        _problem(system, datasets, ("a2", "bogus"))
    with pytest.raises(ValueError, match="dataset names must be distinct; repeated: set0$"):
        _problem(system, datasets * 2, ("a2",))
    # The basis would be held at its edge values outside the 240-440 mT sweep.
    for lo, hi in ((230.0, 430.0), (250.0, 450.0)):
        wide = fit.FitDataset("wide", sp.Spectrum(np.linspace(lo, hi, 64), np.zeros(64)), ORIENTATIONS[0])
        with pytest.raises(ValueError, match=rf"^dataset 'wide': field axis \[{lo}, {hi}\] mT leaves "
                                             r"the sweep window \[240.0, 440.0\] mT$"):
            _problem(system, datasets + (wide,), ("a2",))
    # The 11 significant digits of a spectrum CSV may round the sweep's own
    # ends outward.
    rounded = np.linspace(240.0 * (1 - 4e-11), 440.0 * (1 + 4e-11), 64)
    _problem(system, (fit.FitDataset("csv", sp.Spectrum(rounded, np.zeros(64)), ORIENTATIONS[0]),), ("a2",))
    problem = _problem(system, datasets, ("a1", "rho_n", "a3"))
    assert problem.free_coefficients == ("a1", "a3")
    assert problem.fits_nuclear


@pytest.mark.parametrize("name, value", [
    ("n_starts", 0),
    ("n_starts", -2),
    ("max_iterations", 0),
    ("tolerance", -1.0),
    ("tolerance", math.nan),
    ("start_spread", 0.0),
    ("start_spread", math.inf),
])
def test_settings_validation(name, value):
    with pytest.raises(ValueError, match=name):
        fit.FitSettings(**{name: value})


def test_dataset_validation():
    axis = np.linspace(300, 400, 64)
    good = sp.Spectrum(axis, np.zeros(64))
    with pytest.raises(ValueError):
        fit.FitDataset("w", good, sp.PowderScheme(16), weight=0.0)
    with pytest.raises(ValueError):
        fit.FitDataset("b", sp.Spectrum(axis[::-1].copy(), np.zeros(64)), sp.PowderScheme(16))
    with pytest.raises(ValueError):
        fit.FitDataset("n", sp.Spectrum(axis, np.zeros(32)), sp.PowderScheme(16))


def test_dataset_bases_cached_per_scheme(system, crystal_bases):
    scheme = ORIENTATIONS[0]
    datasets = _datasets([crystal_bases[0], crystal_bases[0]], [scheme, scheme])
    problem = _problem(system, datasets, ("a2",))
    bases = fit.dataset_bases(problem)
    assert bases[0] is bases[1]


# ---------------------------------------------------------------- residual


def test_residual_self_consistency(system, crystal_bases):
    datasets = _datasets(crystal_bases, ORIENTATIONS)
    problem = _problem(system, datasets, ("a1",))
    r = fit.residual(problem, TABLE_PARAMS, TABLE_NUCLEAR)
    assert np.linalg.norm(r) < 1e-10


def test_residual_zero_data_zero_polarization(system, crystal_bases):
    axis = FAST.field_axis()
    datasets = tuple(
        fit.FitDataset(f"z{k}", sp.Spectrum(axis, np.zeros_like(axis)), s)
        for k, s in enumerate(ORIENTATIONS[:2])
    )
    problem = _problem(system, datasets, ("a1",))
    zero = pol.QuartetPolarizationParams(a=(0, 0, 0), r=(0, 0, 0))
    r = fit.residual(problem, zero, pol.NuclearPopulations.uniform())
    assert np.abs(r).max() == 0.0


def test_residual_grows_under_perturbation(system, crystal_bases):
    datasets = _datasets(crystal_bases, ORIENTATIONS)
    problem = _problem(system, datasets, ("a1",))
    base = np.linalg.norm(fit.residual(problem, TABLE_PARAMS, TABLE_NUCLEAR))
    bumped = pol.QuartetPolarizationParams(
        a=(TABLE_PARAMS.a[0] * 1.1, *TABLE_PARAMS.a[1:]), r=TABLE_PARAMS.r
    )
    worse = np.linalg.norm(fit.residual(problem, bumped, TABLE_NUCLEAR))
    assert worse > base + 1e-6


def test_residual_invariant_under_common_intensity_scale(system, crystal_bases):
    datasets = _datasets(crystal_bases, ORIENTATIONS, noise=0.02, seed=7)
    scaled = tuple(
        fit.FitDataset(ds.name, sp.Spectrum(ds.spectrum.field_mt, 7.0 * ds.spectrum.intensity), ds.scheme)
        for ds in datasets
    )
    p_a = _problem(system, datasets, ("a1",))
    p_b = _problem(system, scaled, ("a1",))
    r_a = fit.residual(p_a, TABLE_PARAMS, TABLE_NUCLEAR)
    r_b = fit.residual(p_b, TABLE_PARAMS, TABLE_NUCLEAR)
    assert_allclose(r_a, r_b, atol=1e-12)


def test_evaluate_model_matches_closed_form_scale(system, crystal_bases):
    datasets = _datasets(crystal_bases[:1], ORIENTATIONS[:1], noise=0.05, seed=3)
    problem = _problem(system, datasets, ("a1",))
    (model,) = fit.evaluate_model(problem, TABLE_PARAMS, TABLE_NUCLEAR)
    exp = datasets[0].spectrum.intensity
    # optimal scale leaves the residual orthogonal to the model
    assert abs(float(model @ (model - exp))) < 1e-8 * float(model @ model)


# -------------------------------------------------------------------- fits


@pytest.mark.parametrize("a2_start", [-0.9, 0.0, 0.9])
def test_single_free_coefficient_recovery(system, crystal_bases, a2_start):
    datasets = _datasets(crystal_bases[:1], ORIENTATIONS[:1])
    start = pol.QuartetPolarizationParams(a=(0.11, a2_start, -0.027), r=TABLE_PARAMS.r)
    problem = _problem(system, datasets, ("a2",), start_params=start, n_starts=1)
    result = fit.fit_simultaneous(problem)
    assert abs(result.params.a[1] - (-0.002)) <= 0.01 * 0.002
    assert result.params.a[0] == 0.11  # fixed parameters untouched
    assert result.residual_norm < 1e-6


def test_joint_recovery_exact_data(system, crystal_bases):
    datasets = _datasets(crystal_bases, ORIENTATIONS)
    start = pol.QuartetPolarizationParams(a=(0.2, -0.05, -0.1), r=(0.0, -0.05, 0.0))
    problem = _problem(
        system, datasets, ("a1", "a2", "a3", "r2", "rho_n"),
        start_params=start, start_nuclear=pol.NuclearPopulations.uniform(),
        n_starts=2, max_iterations=8000,
    )
    result = fit.fit_simultaneous(problem)
    truth = np.array([*TABLE_PARAMS.a, TABLE_PARAMS.r[1]])
    got = np.array([*result.params.a, result.params.r[1]])
    assert (np.abs(got - truth) <= 0.05 * np.abs(truth)).all()
    p = result.nuclear.as_array()
    assert np.abs(p - TABLE_NUCLEAR.as_array()).max() < 0.01
    assert abs(p.sum() - 1.0) < 1e-9 and (p >= 0).all()
    assert result.converged


def test_three_geometry_noisy_round_trip(system):
    # aligned parallel / aligned perpendicular / powder, 1% noise
    schemes = (
        sp.AlignedScheme("parallel", tilt_nodes=5, n_samples=8),
        sp.AlignedScheme("perpendicular", tilt_nodes=5, transverse_nodes=6, n_samples=8),
        sp.PowderScheme(24),
    )
    bases = [sp.quartet_basis_spectra(system, FAST, s) for s in schemes]
    datasets = _datasets(bases, schemes, noise=0.01, seed=4117)
    start = pol.QuartetPolarizationParams(a=(0.2, -0.05, -0.1), r=(0.0, -0.05, 0.0))
    problem = _problem(
        system, datasets, ("a1", "a2", "a3", "r2", "rho_n"),
        start_params=start, start_nuclear=pol.NuclearPopulations.uniform(),
        n_starts=2, max_iterations=8000,
    )
    result = fit.fit_simultaneous(problem, _crystal_model(bases, datasets))
    truth = np.array([*TABLE_PARAMS.a, TABLE_PARAMS.r[1]])
    got = np.array([*result.params.a, result.params.r[1]])
    assert (np.abs(got - truth) <= 0.15 * np.abs(truth)).all()
    assert np.abs(result.nuclear.as_array() - TABLE_NUCLEAR.as_array()).max() < 0.02
    # data were generated at unit scale, so fitted scales sit near one
    assert all(0.9 < s < 1.1 for s in result.scales)


def test_every_start_reaches_the_minimum(system, crystal_bases):
    # With scipy's default start simplex (steps of 0.00025 along the all-zero
    # logits of uniform populations) the config start stalled in a local
    # minimum here, at cost 1.0 against 0.15.  With all six coefficients free
    # and rho_n fixed, a search over bounded coefficients left one of three
    # starts at cost 1.2429 against 1.1525.
    datasets = _datasets(crystal_bases, ORIENTATIONS, noise=0.01, seed=0)
    model = _crystal_model(crystal_bases, datasets)
    start = pol.QuartetPolarizationParams(a=(0.2, -0.05, -0.1), r=(0.0, -0.05, 0.0))
    for free in (("a1", "a2", "a3", "r2", "rho_n"), fit.PARAM_NAMES):
        problem = _problem(
            system, datasets, free,
            start_params=start, start_nuclear=pol.NuclearPopulations.uniform(), n_starts=2,
        )
        result = fit.fit_simultaneous(problem, model)
        assert len(result.start_costs) == 2
        assert max(result.start_costs) <= 1.001 * min(result.start_costs)
        if problem.fits_nuclear:
            assert np.abs(result.nuclear.as_array() - TABLE_NUCLEAR.as_array()).max() < 0.01


def test_start_outside_bounds_is_clipped(system, crystal_bases):
    # A one-hot start puts seven logits far below -_LOGIT_BOUND; the fit starts
    # from the clipped logits.  a2 = 1.5 is far from the truth and only sets
    # the starting scales, since the coefficients are solved linearly.
    datasets = _datasets(crystal_bases, ORIENTATIONS)
    start = pol.QuartetPolarizationParams(a=(0.11, 1.5, -0.027), r=TABLE_PARAMS.r)
    one_hot = pol.NuclearPopulations((1.0,) + (0.0,) * 7)
    problem = _problem(
        system, datasets, ("a2", "rho_n"), start_params=start, start_nuclear=one_hot, n_starts=2,
    )
    result = fit.fit_simultaneous(problem)
    assert result.converged
    assert abs(result.params.a[1] - TABLE_PARAMS.a[1]) < 1e-3
    assert np.abs(result.nuclear.as_array() - TABLE_NUCLEAR.as_array()).max() < 1e-3


def test_populations_only_fit_recovers_exact_data(system, crystal_bases):
    # With no free coefficient the linear solve has no columns, and the
    # solver runs over the logits and scales alone.  TABLE_NUCLEAR sums to
    # 1.001; the fit finds it normalized, with the factor in the scales.
    datasets = _datasets(crystal_bases, ORIENTATIONS)
    problem = _problem(
        system, datasets, ("rho_n",), start_nuclear=pol.NuclearPopulations.uniform(), n_starts=1,
    )
    result = fit.fit_simultaneous(problem, _crystal_model(crystal_bases, datasets))
    assert result.converged
    assert result.params == TABLE_PARAMS
    truth = TABLE_NUCLEAR.as_array()
    assert_allclose(result.nuclear.as_array(), truth / truth.sum(), atol=1e-6)
    assert result.residual_norm < 1e-6


def test_fit_deterministic(system, crystal_bases):
    datasets = _datasets(crystal_bases[:1], ORIENTATIONS[:1], noise=0.01, seed=11)
    start = pol.QuartetPolarizationParams(a=(0.11, 0.3, -0.027), r=TABLE_PARAMS.r)
    problem = _problem(system, datasets, ("a2",), start_params=start, n_starts=2)
    r1 = fit.fit_simultaneous(problem)
    r2 = fit.fit_simultaneous(problem)
    assert r1.cost == r2.cost
    assert r1.params == r2.params
    assert r1.scales == r2.scales
    assert r1.start_costs == r2.start_costs


def test_converged_follows_lowest_cost_start(system, crystal_bases):
    datasets = _datasets(crystal_bases[:1], ORIENTATIONS[:1], noise=0.01, seed=11)
    start = pol.QuartetPolarizationParams(a=(0.11, 0.3, -0.027), r=TABLE_PARAMS.r)
    problem = _problem(system, datasets, ("a2",), start_params=start, n_starts=3, max_iterations=3)
    result = fit.fit_simultaneous(problem)
    assert len(result.start_converged) == len(result.start_costs) == 3
    assert result.converged is False
    assert result.converged == result.start_converged[int(np.argmin(result.start_costs))]
    assert "start_converged: False, False, False" in fit.fit_report(problem, result)


def test_unconverged_cost_matches_reported_parameters(system, crystal_bases):
    # Stopped on max_iterations, the solver's scales are not the closed-form
    # ones; the reported cost must still be that of the reported parameters.
    datasets = _datasets(crystal_bases, ORIENTATIONS, noise=0.01, seed=11)
    problem = _problem(system, datasets, ("a2", "rho_n"), n_starts=1, max_iterations=3)
    result = fit.fit_simultaneous(problem)
    assert result.converged is False
    r = fit.residual(problem, result.params, result.nuclear, result.scales)
    assert_allclose(float(r @ r), result.cost, rtol=1e-12)
    assert result.cost <= min(result.start_costs)


@pytest.mark.parametrize("outcomes, calls, best", [
    # The lowest-cost start stopped early while a worse start converged.
    (((1.0, 1), (0.5, 0)), (0, 0), 1),
    # Equal final costs: the earlier start is reported.
    (((0.5, 0), (0.5, 1)), (0, 0), 0),
    # Every residual call of every start counts; Jacobian calls do not.
    (((1.0, 1), (0.5, 0)), (3, 4), 1),
], ids=["lowest-cost", "tie", "evaluations"])
def test_converged_ignores_other_starts(system, crystal_bases, monkeypatch, outcomes, calls, best):
    script = iter(enumerate(zip(outcomes, calls)))

    def scripted_least_squares(fun, x0, jac, **kwargs):
        start, ((cost, status), n_calls) = next(script)
        for _ in range(n_calls):
            fun(x0)
            jac(x0)
        return SimpleNamespace(x=x0, cost=cost, status=status, message=f"start {start}")

    monkeypatch.setattr(fit, "least_squares", scripted_least_squares)
    datasets = _datasets(crystal_bases[:1], ORIENTATIONS[:1])
    problem = _problem(system, datasets, ("rho_n",), n_starts=2)
    result = fit.fit_simultaneous(problem)
    assert result.start_costs == tuple(2.0 * cost for cost, _ in outcomes)
    assert result.start_converged == tuple(bool(status) for _, status in outcomes)
    assert result.message == f"start {best}"
    assert result.converged is bool(outcomes[best][1])
    assert result.n_evaluations == sum(calls)


def test_prepared_model_matches_problem_calls(system, crystal_bases):
    datasets = _datasets(crystal_bases, ORIENTATIONS, noise=0.02, seed=5)
    problem = _problem(system, datasets, ("a2",), n_starts=1)
    model = fit.FitModel.build(problem)
    result = fit.fit_simultaneous(problem, model)
    assert result.cost == fit.fit_simultaneous(problem).cost
    args = (problem, result.params, result.nuclear, result.scales)
    r = fit.residual(*args, model=model)
    assert np.array_equal(r, fit.residual(*args))
    for a, b in zip(fit.evaluate_model(*args, model=model), fit.evaluate_model(*args)):
        assert np.array_equal(a, b)
    # the reported cost is the squared norm of the residual at the optimum
    assert_allclose(float(r @ r), result.cost, rtol=1e-9)


def _crystal_model(bases, datasets):
    # The data share the basis field axis, so the prepared tensors are the bases'.
    data = tuple(ds.spectrum.intensity for ds in datasets)
    return fit.FitModel(
        tensors=tuple(bases),
        data=data,
        norms=tuple(float(np.abs(e).max()) for e in data),
        weights=tuple(ds.weight for ds in datasets),
    )


def test_mirrored_solution_reports_positive_zeros(system, crystal_bases, monkeypatch):
    # (c, s) and (-c, -s) fit equally well; the gauge fixing flips the sign
    # back, and the fixed zero coefficients r1 and r3 must not print as -0.
    def mirrored_least_squares(fun, x0, **kwargs):
        return SimpleNamespace(x=-x0, cost=0.0, status=1, message="scripted")

    monkeypatch.setattr(fit, "least_squares", mirrored_least_squares)
    datasets = _datasets(crystal_bases, ORIENTATIONS)
    problem = _problem(system, datasets, ("a1", "a2", "a3", "r2"), n_starts=1)
    result = fit.fit_simultaneous(problem, _crystal_model(crystal_bases, datasets))
    assert all(s > 0 for s in result.scales)
    report = fit.fit_report(problem, result)
    assert "r1: +0.000000" in report and "r3: +0.000000" in report


def test_jacobian_matches_finite_differences(crystal_bases):
    datasets = tuple(
        fit.FitDataset(ds.name, ds.spectrum, ds.scheme, weight=w)
        for ds, w in zip(_datasets(crystal_bases, ORIENTATIONS, noise=0.01, seed=2), (1.0, 2.0, 0.5))
    )
    model = _crystal_model(crystal_bases, datasets)
    rng = np.random.default_rng(8)
    coeff_idx = [0, 2, 4]
    c = np.array([*TABLE_PARAMS.a, *TABLE_PARAMS.r]) + 0.05 * rng.standard_normal(6)
    x = np.concatenate([c[coeff_idx], rng.standard_normal(8), 1.0 + 0.2 * rng.standard_normal(3)])

    def unpack(x):
        cc = c.copy()
        cc[coeff_idx] = x[:3]
        return cc, fit._softmax(x[3:11]), x[11:]

    def residual(x):
        return np.concatenate([r for _, _, r in model.terms(*unpack(x))])

    h = 1e-5
    numeric = np.array([(residual(x + h * e) - residual(x - h * e)) / (2 * h)
                        for e in np.eye(len(x))]).T
    analytic = model.jacobian(*unpack(x), coeff_idx, True)
    assert analytic.shape == numeric.shape == (3 * FAST.n_points, 3 + 8 + 3)
    assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-6 * np.abs(analytic).max())


def test_population_stderr_matches_monte_carlo_spread(system, crystal_bases):
    # Fit 50 noise draws of one problem; the reported standard errors of
    # rho_n must match the spread of the fitted rho_n.
    free = ("a1", "a2", "a3", "r2", "rho_n")
    fitted, errors = [], []
    for draw in range(50):
        datasets = _datasets(crystal_bases, ORIENTATIONS, noise=0.01, seed=draw)
        problem = _problem(system, datasets, free, n_starts=1)
        result = fit.fit_simultaneous(problem, _crystal_model(crystal_bases, datasets))
        fitted.append(result.nuclear.as_array())
        errors.append(result.stderr_nuclear)
    spread = np.std(fitted, axis=0, ddof=1)
    reported = np.mean(errors, axis=0)
    # The pooled ratio over the 8 populations scatters by about 4% between
    # 50-draw batches, so it checks the formula with a wide margin.
    pooled = np.sqrt((reported**2).sum() / (spread**2).sum())
    assert abs(pooled - 1.0) <= 0.25
    # Each population's ratio scatters by about 10% from the 50-draw spread
    # alone (0.90-1.24 on these draws; one batch of 16 had a population
    # outside 25%).  A failure here while the pooled check holds, after a
    # change that only nudges fitted values, is sampling noise.
    assert (np.abs(reported - spread) <= 0.25 * spread).all()
    assert "stderr_rho_n:" in fit.fit_report(problem, result)


def test_fit_report_fields(system, crystal_bases):
    datasets = _datasets(crystal_bases[:1], ORIENTATIONS[:1])
    problem = _problem(system, datasets, ("a2",), n_starts=1)
    result = fit.fit_simultaneous(problem)
    report = fit.fit_report(problem, result)
    for token in ("a2:", "rho_n:", "scale[set0]:", "converged:", "seed:"):
        assert token in report
