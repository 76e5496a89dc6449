import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quartetsim import kinetics as kin


def _three_band_eas(wavelengths, n_comp):
    """Distinct, overlapping synthetic spectra, one row per compartment."""
    centers = np.linspace(wavelengths[0] + 40, wavelengths[-1] - 40, n_comp)
    signs = [1.0, -0.7, 0.5, -0.4][:n_comp]
    return np.stack(
        [s * np.exp(-0.5 * ((wavelengths - c) / 35.0) ** 2) for s, c in zip(signs, centers)]
    )


# ------------------------------------------------------------ model algebra


def test_single_exponential():
    model = kin.SequentialModel((1.0,))
    t = np.linspace(0.0, 6.0, 200)
    conc = kin.concentrations(model, t)
    assert conc.shape == (200, 1)
    assert_allclose(conc[:, 0], np.exp(-t), rtol=1e-12)


def test_bateman_two_compartments():
    model = kin.SequentialModel((1.0, 2.0))
    t = np.linspace(0.0, 10.0, 321)
    conc = kin.concentrations(model, t)
    expected_b = 2.0 * (np.exp(-t / 2.0) - np.exp(-t))
    assert_allclose(conc[:, 0], np.exp(-t), rtol=1e-12)
    assert_allclose(conc[:, 1], expected_b, atol=1e-12)


def test_concentrations_before_excitation_vanish():
    model = kin.SequentialModel((1.0, 5.0), t0=2.0)
    t = np.linspace(0.0, 1.9, 50)
    assert np.abs(kin.concentrations(model, t)).max() == 0.0


def test_irf_rise_centered_on_t0():
    model = kin.SequentialModel((50.0,), irf_fwhm=1.0, t0=3.0)
    t = np.linspace(0.0, 10.0, 2001)
    c = kin.concentrations(model, t)[:, 0]
    slope = np.gradient(c, t)
    assert abs(t[np.argmax(slope)] - 3.0) <= (t[1] - t[0]) + 1e-12
    # well after the IRF: step response times the exact Gaussian-decay factor
    late = t > 3.0 + 3.0
    sigma = 1.0 / (2 * math.sqrt(2 * math.log(2)))
    ideal = np.exp(-(t[late] - 3.0) / 50.0) * math.exp(0.5 * (sigma / 50.0) ** 2)
    assert_allclose(c[late], ideal, rtol=1e-9)


def test_irf_zero_width_limit():
    t = np.linspace(-2.0, 8.0, 500)
    sharp = kin.concentrations(kin.SequentialModel((2.0,)), t)
    narrow = kin.concentrations(kin.SequentialModel((2.0,), irf_fwhm=1e-7), t)
    off_edge = np.abs(t) > 1e-3
    assert np.abs(sharp[off_edge] - narrow[off_edge]).max() < 1e-6


def test_emg_stable_over_wide_dynamic_range():
    # rates from 1/μs to 1/ps in the same time base must not overflow
    t = np.concatenate([np.linspace(-5, 50, 300), np.geomspace(50, 5e7, 300)])
    model = kin.SequentialModel((3.0, 1.5e6), irf_fwhm=2.0)
    conc = kin.concentrations(model, t)
    assert np.isfinite(conc).all()
    assert conc.max() <= 1.0 + 1e-9


def test_populations_non_negative_and_decreasing():
    rng = np.random.default_rng(5)
    for _ in range(10):
        taus = tuple(np.sort(10 ** rng.uniform(-1, 3, size=3)))
        model = kin.SequentialModel(taus, irf_fwhm=0.05, t0=0.1)
        t = np.geomspace(1e-3, 1e4, 400)
        conc = kin.concentrations(model, t)
        assert conc.min() > -1e-12
        total = conc.sum(axis=1)
        settled = t > 0.1 + 3 * 0.05
        assert (np.diff(total[settled]) <= 1e-12).all()


def test_model_validation():
    with pytest.raises(ValueError):
        kin.SequentialModel(())
    with pytest.raises(ValueError):
        kin.SequentialModel((1.0, 2.0, 3.0, 4.0, 5.0))
    with pytest.raises(ValueError):
        kin.SequentialModel((1.0, -2.0))
    with pytest.raises(ValueError):
        kin.SequentialModel((1.0,), irf_fwhm=-0.1)
    with pytest.raises(ValueError, match="coincident"):
        kin.SequentialModel((1.0, 1.0 + 1e-12))


def test_dataset_validation():
    t = np.linspace(0, 10, 20)
    w = np.linspace(400, 700, 30)
    kin.TADataset(t, w, np.zeros((20, 30)))
    with pytest.raises(ValueError):
        kin.TADataset(t[::-1].copy(), w, np.zeros((20, 30)))
    with pytest.raises(ValueError):
        kin.TADataset(t, w, np.zeros((30, 20)))
    with pytest.raises(ValueError):
        kin.TADataset(t, np.full(30, 500.0), np.zeros((20, 30)))


# ------------------------------------------------------------------- EAS


def test_eas_exact_recovery_and_normal_equations():
    model = kin.SequentialModel((2.0, 30.0))
    t = np.geomspace(0.01, 200.0, 180)
    w = np.linspace(400, 700, 90)
    eas_true = _three_band_eas(w, 2)
    data = kin.synthetic_dataset(model, eas_true, t, w)
    conc = kin.concentrations(model, t)
    eas = kin.eas_solve(conc, data)
    assert np.abs(eas - eas_true).max() < 1e-10
    noisy = kin.synthetic_dataset(model, eas_true, t, w, noise_fraction=0.05, seed=2)
    eas_n = kin.eas_solve(conc, noisy)
    resid = noisy.delta_a - conc @ eas_n
    assert np.abs(conc.T @ resid).max() < 1e-8 * np.abs(noisy.delta_a).max()


def test_eas_noisy_correlation():
    model = kin.SequentialModel((1.5, 40.0, 900.0))
    t = np.geomspace(0.01, 8000.0, 260)
    w = np.linspace(420, 680, 120)
    eas_true = _three_band_eas(w, 3)
    data = kin.synthetic_dataset(model, eas_true, t, w, noise_fraction=0.01, seed=9)
    eas = kin.eas_solve(kin.concentrations(model, t), data)
    for k in range(3):
        r = np.corrcoef(eas[k], eas_true[k])[0, 1]
        assert r > 0.99


def test_eas_rejects_rank_deficiency():
    t = np.geomspace(0.01, 100.0, 50)
    w = np.linspace(400, 500, 10)
    data = kin.TADataset(t, w, np.zeros((50, 10)))
    c = kin.concentrations(kin.SequentialModel((5.0,)), t)
    degenerate = np.column_stack([c[:, 0], c[:, 0]])
    with pytest.raises(ValueError, match=r"rank-deficient .*\(rank 1 < 2, condition number"):
        kin.eas_solve(degenerate, data)


def test_variable_projection_stationarity():
    model = kin.SequentialModel((2.0, 30.0))
    t = np.geomspace(0.01, 200.0, 150)
    w = np.linspace(400, 700, 60)
    data = kin.synthetic_dataset(model, _three_band_eas(w, 2), t, w, noise_fraction=0.03, seed=4)
    conc = kin.concentrations(model, t)
    eas = kin.eas_solve(conc, data)
    base = np.linalg.norm(data.delta_a - conc @ eas)
    rng = np.random.default_rng(12)
    for _ in range(20):
        step = 1e-4 * rng.standard_normal(eas.shape)
        trial = np.linalg.norm(data.delta_a - conc @ (eas + step))
        assert trial >= base - 1e-8 * base


# ------------------------------------------------------------- global fits


def _round_trip(taus, irf, t_lo, t_hi, start_factor=(1.8, 0.5)):
    t = np.geomspace(t_lo, t_hi, 320)
    w = np.linspace(420, 680, 80)
    eas_true = _three_band_eas(w, len(taus))
    model = kin.SequentialModel(taus, irf_fwhm=irf)
    data = kin.synthetic_dataset(model, eas_true, t, w, noise_fraction=0.01, seed=21)
    start = kin.SequentialModel(
        tuple(tau * f for tau, f in zip(taus, list(start_factor) * 3)), irf_fwhm=irf
    )
    result = kin.global_fit(data, start)
    return result, eas_true


def test_global_fit_two_step_chain():
    # ps-to-us cascade, time base in ps
    result, eas_true = _round_trip((1.1, 4.63e7), irf=0.2, t_lo=0.02, t_hi=4e8)
    for got, want in zip(result.model.lifetimes, (1.1, 4.63e7)):
        assert abs(got - want) / want < 0.02
    for k in range(2):
        assert np.corrcoef(result.eas[k], eas_true[k])[0, 1] > 0.99
    assert result.converged and not result.flat_objective


def test_global_fit_three_step_chain():
    result, eas_true = _round_trip((2.90, 1500.0, 1.6e8), irf=0.3, t_lo=0.05, t_hi=1.5e9)
    for got, want in zip(result.model.lifetimes, (2.90, 1500.0, 1.6e8)):
        assert abs(got - want) / want < 0.02
    for k in range(3):
        assert np.corrcoef(result.eas[k], eas_true[k])[0, 1] > 0.99


def test_global_fit_recovers_t0():
    t = np.linspace(-5.0, 60.0, 400)
    w = np.linspace(450, 650, 40)
    eas_true = _three_band_eas(w, 2)
    truth = kin.SequentialModel((2.0, 15.0), irf_fwhm=0.8, t0=1.3)
    data = kin.synthetic_dataset(truth, eas_true, t, w, noise_fraction=0.01, seed=6)
    start = kin.SequentialModel((3.0, 10.0), irf_fwhm=0.8, t0=0.0)
    result = kin.global_fit(data, start, fit_t0=True)
    assert abs(result.model.t0 - 1.3) < 0.1
    # the two-step chain with free spectra is invariant under lifetime
    # exchange, so compare the recovered set rather than the order
    got = np.sort(result.model.lifetimes)
    assert_allclose(got, [2.0, 15.0], rtol=0.05)


def test_global_fit_zero_data_flat():
    t = np.geomspace(0.01, 100.0, 60)
    w = np.linspace(400, 500, 12)
    data = kin.TADataset(t, w, np.zeros((60, 12)))
    result = kin.global_fit(data, kin.SequentialModel((1.0, 10.0)))
    assert result.flat_objective
    assert result.start_converged == (True,)
    assert result.residual_norm == 0.0
    assert np.abs(result.eas).max() == 0.0
    assert result.model.lifetimes == (1.0, 10.0)


def test_global_fit_deterministic():
    t = np.geomspace(0.01, 300.0, 150)
    w = np.linspace(400, 600, 30)
    data = kin.synthetic_dataset(
        kin.SequentialModel((2.0, 40.0)), _three_band_eas(w, 2), t, w, noise_fraction=0.02, seed=3
    )
    start = kin.SequentialModel((4.0, 20.0))
    r1 = kin.global_fit(data, start)
    r2 = kin.global_fit(data, start)
    assert r1.model.lifetimes == r2.model.lifetimes
    assert r1.residual_norm == r2.residual_norm
    assert r1.start_costs == r2.start_costs


def test_fit_irf_requires_positive_start():
    t = np.geomspace(0.01, 100.0, 60)
    w = np.linspace(400, 500, 12)
    data = kin.synthetic_dataset(kin.SequentialModel((5.0,)), _three_band_eas(w, 1), t, w)
    with pytest.raises(ValueError):
        kin.global_fit(data, kin.SequentialModel((5.0,)), fit_irf=True)


def _t0_map(irf):
    t = np.linspace(-5.0, 60.0, 400)
    w = np.linspace(450, 650, 40)
    truth = kin.SequentialModel((2.0, 15.0), irf_fwhm=irf, t0=1.33)
    return kin.synthetic_dataset(truth, _three_band_eas(w, 2), t, w, noise_fraction=0.01, seed=6)


def test_fit_t0_requires_positive_irf():
    # Without an IRF a sample's concentration jumps as t0 crosses it, so the
    # cost is discontinuous in t0.
    with pytest.raises(ValueError, match="fit_t0"):
        kin.global_fit(_t0_map(0.0), kin.SequentialModel((3.0, 10.0)), fit_t0=True)


@pytest.mark.parametrize("fit_t0, fit_irf", [(False, False), (True, False), (True, True)],
                         ids=["lifetimes", "t0", "t0-irf"])
def test_projected_cost_gradient(fit_t0, fit_irf):
    data = _t0_map(0.8)
    start = kin.SequentialModel((3.0, 10.0), irf_fwhm=0.5, t0=0.4)
    x0, _, cost = kin._projected_cost(data, start, fit_t0, fit_irf)
    f, grad = cost(x0)
    assert math.isfinite(f) and np.abs(grad).min() > 1e-3
    numeric = np.empty_like(grad)
    for j in range(len(x0)):
        step = np.zeros_like(x0)
        step[j] = 1e-5
        numeric[j] = (cost(x0 + step)[0] - cost(x0 - step)[0]) / 2e-5
    assert_allclose(grad, numeric, rtol=1e-5)


def test_projected_cost_gradient_irf_alone():
    data = _t0_map(0.8)
    start = kin.SequentialModel((3.0, 10.0), irf_fwhm=0.5, t0=1.33)
    x0, _, cost = kin._projected_cost(data, start, False, True)
    f, grad = cost(x0)
    assert math.isfinite(f) and np.abs(grad).min() > 1e-3
    numeric = [(cost(x0 + step)[0] - cost(x0 - step)[0]) / 2e-5 for step in 1e-5 * np.eye(len(x0))]
    assert_allclose(grad, numeric, rtol=1e-5)


# A near-coincident pair cancels large amplitudes, which costs the
# differences (not the closed form) about 1e-7 of the peak.
@pytest.mark.parametrize("lifetimes, tolerance", [
    ((3.0,), 1e-8), ((1.5, 30.0), 1e-8), ((0.8, 5.0, 60.0), 1e-8), ((0.8, 5.0, 60.0, 700.0), 1e-8),
    ((2.0, 2.0001), 1e-6), ((2.0, 2.0001, 9.0), 1e-6),
], ids=["1", "2", "3", "4", "near-coincident", "near-coincident-3"])
@pytest.mark.parametrize("irf_fwhm, t0", [(0.0, 0.0), (0.4, 0.3)], ids=["no-irf", "irf"])
def test_concentration_jacobian_matches_differences(lifetimes, tolerance, irf_fwhm, t0):
    # Closed-form dC/dx against central differences of `concentrations`, in
    # the fit parameters: log10 lifetimes, then t0 and log10 IRF FWHM.
    assert len(lifetimes) <= kin.MAX_COMPARTMENTS
    t = np.concatenate([np.linspace(-2.0, 12.0, 60), np.geomspace(12.5, 2000.0, 80)])
    model = kin.SequentialModel(lifetimes, irf_fwhm=irf_fwhm, t0=t0)
    with_irf = irf_fwhm > 0
    data = kin.TADataset(t, np.array([500.0]), np.ones((len(t), 1)))
    x0, unpack, _ = kin._projected_cost(data, model, with_irf, with_irf)
    conc, dconc = kin._concentrations_and_jacobian(model, t, with_irf, with_irf)
    assert dconc.shape == (len(x0), len(t), len(lifetimes))
    assert_allclose(conc, kin.concentrations(model, t), rtol=0, atol=0)
    h = 1e-5
    numeric = np.stack([
        (kin.concentrations(unpack(x0 + step), t) - kin.concentrations(unpack(x0 - step), t)) / (2 * h)
        for step in h * np.eye(len(x0))
    ])
    assert_allclose(dconc, numeric, rtol=0, atol=tolerance * np.abs(dconc).max())


def test_overflowing_lifetime_costs_inf_quietly():
    data = _t0_map(0.8)
    cases = [
        (kin.SequentialModel((3.0, 10.0)), False, [400.0, 1.0]),
        # a vanishing lifetime under an IRF, reached by a line search with t0 and the IRF free
        (kin.SequentialModel((3.0, 10.0), irf_fwhm=0.3), True, [-185.0, 1.0, 0.0, -0.5]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for start, free_t0_irf, x in cases:
            _, _, cost = kin._projected_cost(data, start, free_t0_irf, free_t0_irf)
            f, grad = cost(np.array(x))
            assert f == np.inf and np.all(grad == 0)
        # this start sends a line search past log10(tau) = 308
        result = kin.global_fit(data, kin.SequentialModel((2.0, 2.0001)))
    assert result.converged


def test_lifetimes_reported_ascending():
    # The chain's cost does not change when two lifetimes swap; the report
    # must not depend on which of the two orders the optimizer ends in.
    t = np.geomspace(0.01, 300.0, 150)
    w = np.linspace(400, 600, 30)
    eas_true = _three_band_eas(w, 2)
    data = kin.synthetic_dataset(
        kin.SequentialModel((2.0, 40.0)), eas_true, t, w, noise_fraction=0.02, seed=3
    )
    reports = []
    for start in ((5.0, 5.5), (40.0, 2.0)):
        result = kin.global_fit(data, kin.SequentialModel(start))
        assert result.model.lifetimes == tuple(sorted(result.model.lifetimes))
        assert_allclose(result.model.lifetimes, (2.0, 40.0), rtol=0.01)
        resid = data.delta_a - kin.concentrations(result.model, t) @ result.eas
        assert_allclose(np.linalg.norm(resid), result.residual_norm, rtol=1e-12)
        for k in range(2):
            assert np.corrcoef(result.eas[k], eas_true[k])[0, 1] > 0.99
        report = kin.kinetic_report(result).splitlines()
        reports.append([line for line in report if not line.startswith("n_evaluations")])
    assert reports[0] == reports[1]


def test_synthetic_dataset_deterministic_noise():
    t = np.geomspace(0.01, 50.0, 40)
    w = np.linspace(400, 500, 20)
    model = kin.SequentialModel((3.0,))
    eas = _three_band_eas(w, 1)
    a = kin.synthetic_dataset(model, eas, t, w, noise_fraction=0.05, seed=42)
    b = kin.synthetic_dataset(model, eas, t, w, noise_fraction=0.05, seed=42)
    assert_allclose(a.delta_a, b.delta_a, atol=0)


def test_kinetic_report_fields():
    t = np.geomspace(0.01, 100.0, 80)
    w = np.linspace(400, 500, 15)
    data = kin.synthetic_dataset(kin.SequentialModel((5.0, 20.0)), _three_band_eas(w, 2), t, w)
    result = kin.global_fit(data, kin.SequentialModel((6.0, 15.0)))
    report = kin.kinetic_report(result, time_unit="ps")
    for token in ("tau_1:", "tau_2:", "ps", "converged:", "residual_norm:", "start_converged:"):
        assert token in report


@pytest.mark.parametrize("outcomes, calls, best", [
    # The lowest-cost start stopped early while a worse start converged.
    (((2.0, True), (1.0, False)), (0, 0), 1),
    # Equal final costs: the earlier start is reported.
    (((1.0, False), (1.0, True)), (0, 0), 0),
    # Every cost call of every start counts.
    (((2.0, True), (1.0, False)), (3, 4), 1),
], ids=["lowest-cost", "tie", "evaluations"])
def test_converged_ignores_other_starts(monkeypatch, outcomes, calls, best):
    script = iter(enumerate(zip(outcomes, calls)))

    def scripted_minimize(fun, x0, **kwargs):
        start, ((cost, success), n_calls) = next(script)
        for _ in range(n_calls):
            fun(x0)
        return SimpleNamespace(x=x0, fun=cost, success=success, message=f"start {start}")

    monkeypatch.setattr(kin, "minimize", scripted_minimize)
    t = np.geomspace(0.01, 100.0, 80)
    w = np.linspace(400, 500, 15)
    data = kin.synthetic_dataset(kin.SequentialModel((5.0, 20.0)), _three_band_eas(w, 2), t, w)
    settings = kin.KineticFitSettings(n_starts=2)
    result = kin.global_fit(data, kin.SequentialModel((6.0, 15.0)), settings=settings)
    assert result.start_costs == tuple(cost for cost, _ in outcomes)
    assert result.start_converged == tuple(success for _, success in outcomes)
    assert result.message == f"start {best}"
    assert result.converged is outcomes[best][1]
    assert result.n_evaluations == sum(calls)
    flags = ", ".join(str(success) for _, success in outcomes)
    assert f"start_converged: {flags}" in kin.kinetic_report(result)
