"""Global kinetic analysis of transient-absorption surfaces.

Sequential first-order chains (A -> B -> ... -> ground state) with a
Gaussian instrument response have closed-form concentration profiles: each
compartment is a sum of exponentials (Bateman solution) and convolution
with the Gaussian turns every exponential into an exponentially modified
Gaussian.  For fixed lifetimes the evolution-associated spectra (EAS) are a
linear least-squares problem, so the fit runs as a variable projection:
the outer quasi-Newton search (L-BFGS-B) moves only the lifetimes
(optionally t0 and the IRF width), in log space to span the
ps-to-microsecond range.  Its gradient is the exact gradient of the
projected cost (Golub & Pereyra, Inverse Problems 19, R1, 2003): with
E = C+ D and R = D - C E, df/dtheta = -2 <R, (dC/dtheta) E>, because the
term in dE/dtheta vanishes at the least-squares optimum E.  Only the small
concentration matrix C is differentiated, in closed form and in the same
pass that computes C.  The search runs from each start of the seeded
multi-start schedule that `fitting` shares; the start with the lowest
final cost is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._multistart import check_settings, multi_start

_SQRT2 = np.sqrt(2.0)
_FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))

MAX_COMPARTMENTS = 4


@dataclass(frozen=True)
class SequentialModel:
    """Irreversible chain A -> B -> ... -> GS with Gaussian excitation."""

    lifetimes: tuple[float, ...]
    irf_fwhm: float = 0.0
    t0: float = 0.0

    def __post_init__(self):
        if not 1 <= len(self.lifetimes) <= MAX_COMPARTMENTS:
            raise ValueError(f"1..{MAX_COMPARTMENTS} compartments supported")
        if any(not np.isfinite(tau) or tau <= 0 for tau in self.lifetimes):
            raise ValueError("lifetimes must be positive and finite")
        if not (np.isfinite(self.irf_fwhm) and self.irf_fwhm >= 0):
            raise ValueError("irf_fwhm must be finite and >= 0")
        if not np.isfinite(self.t0):
            raise ValueError("t0 must be finite")
        taus = np.asarray(self.lifetimes)
        for i in range(len(taus)):
            for j in range(i + 1, len(taus)):
                if abs(taus[i] - taus[j]) <= 1e-9 * max(taus[i], taus[j]):
                    raise ValueError(
                        "coincident lifetimes: the analytic chain solution is "
                        "degenerate, perturb one of them"
                    )

    @property
    def rates(self) -> np.ndarray:
        return 1.0 / np.asarray(self.lifetimes)

    @property
    def n_compartments(self) -> int:
        return len(self.lifetimes)


@dataclass(frozen=True)
class TADataset:
    """Time x wavelength difference-absorption surface."""

    times: np.ndarray
    wavelengths: np.ndarray
    delta_a: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        w = np.asarray(self.wavelengths, dtype=float)
        m = np.asarray(self.delta_a, dtype=float)
        if t.ndim != 1 or np.any(np.diff(t) <= 0):
            raise ValueError("time axis must be strictly increasing")
        if w.ndim != 1 or np.any(np.diff(w) <= 0):
            raise ValueError("wavelength axis must be strictly increasing")
        if m.shape != (len(t), len(w)):
            raise ValueError(f"delta_a shape {m.shape} != ({len(t)}, {len(w)})")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "wavelengths", w)
        object.__setattr__(self, "delta_a", m)


def _exp_responses(delta: np.ndarray, rates: np.ndarray, sigma: float):
    """Unit-step decays exp(-k_i delta) convolved with a Gaussian of width sigma.

    Returns f, shape (n_rates, n_times), and the unit-area Gaussian g itself
    (None when sigma is 0), which is computed once for all rates.  f is
    evaluated in two branches so neither the erfcx factor nor the Gaussian
    prefactor overflows when rate*delta spans many hundreds.
    """
    from scipy.special import erfc, erfcx

    shape = (len(rates), len(delta))
    k, d = np.broadcast_to(rates[:, None], shape), np.broadcast_to(delta, shape)
    out = np.zeros(shape)
    if sigma == 0.0:
        on = d >= 0
        out[on] = np.exp(-k[on] * d[on])
        return out, None
    gauss = np.exp(-(delta**2) / (2 * sigma**2))
    u = (k * sigma - d / sigma) / _SQRT2
    pos = u >= 0
    out[pos] = 0.5 * erfcx(u[pos]) * np.broadcast_to(gauss, shape)[pos]
    neg = ~pos
    out[neg] = 0.5 * erfc(u[neg]) * np.exp(-k[neg] * d[neg] + 0.5 * (k[neg] * sigma) ** 2)
    return out, gauss / (sigma * np.sqrt(2 * np.pi))


def _bateman_amplitudes(rates: np.ndarray) -> np.ndarray:
    """amp[n, i]: weight of exp(-k_i t) in compartment n of the chain."""
    n = len(rates)
    amp = np.zeros((n, n))
    for comp in range(n):
        feed = np.prod(rates[:comp])
        for i in range(comp + 1):
            denom = np.prod([rates[j] - rates[i] for j in range(comp + 1) if j != i])
            amp[comp, i] = feed / denom
    return amp


def _bateman_derivatives(rates: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """d amp[n, i] / d k_j, indexed [j, n, i].

    amp[n, i] = prod_{m<n} k_m / prod_{j<=n, j!=i} (k_j - k_i), so its
    log-derivative in k_j is [j<n]/k_j - [j<=n, j!=i]/(k_j - k_i), plus
    sum_{m<=n, m!=i} 1/(k_m - k_i) when j = i.
    """
    n = len(rates)
    gap = rates[:, None] - rates[None, :]
    np.fill_diagonal(gap, np.inf)
    inv_gap = 1.0 / gap  # [j, i] = 1/(k_j - k_i), 0 on the diagonal
    diag = np.arange(n)
    dlog = np.zeros((n, n, n))
    for comp in range(n):
        dlog[:comp, comp, :] += 1.0 / rates[:comp, None]
        dlog[: comp + 1, comp, :] -= inv_gap[: comp + 1]
        dlog[diag, comp, diag] += inv_gap[: comp + 1].sum(axis=0)
    return dlog * amp


def concentrations(model: SequentialModel, times: np.ndarray) -> np.ndarray:
    """Concentration profiles, shape (n_times, n_compartments)."""
    return _concentrations_and_jacobian(model, times, False, False)[0]


def _concentrations_and_jacobian(
    model: SequentialModel, times: np.ndarray, fit_t0: bool, fit_irf: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Concentrations C and their derivatives in the fit parameters x.

    x is log10 of each lifetime, then t0 (if fitted), then log10 of the IRF
    FWHM (if fitted), as in `_projected_cost`.  With d = t - t0, s the IRF
    sigma, f the convolved decays and g the Gaussian,
    df/dk = (k s^2 - d) f - s^2 g (-d f when s = 0), df/dd = -k f + g and
    df/ds = k^2 s f - (k s + d/s) g; the Bateman amplitudes add their own
    rate derivatives.  Returns C, shape (n_times, n_compartments), and dC/dx,
    shape (n_params, n_times, n_compartments).
    """
    delta = np.asarray(times, dtype=float) - model.t0
    sigma = model.irf_fwhm * _FWHM_TO_SIGMA
    rates = model.rates
    k = rates[:, None]
    f, g = _exp_responses(delta, rates, sigma)
    amp = _bateman_amplitudes(rates)
    if g is None:
        df_dk = -delta * f
    else:
        df_dk = (k * sigma**2 - delta) * f - sigma**2 * g
    # dC^T/dk_j = (d amp/dk_j) f + amp[:, j] df_j/dk_j, and dk/dlog10(tau) = -ln(10) k
    d_rates = _bateman_derivatives(rates, amp) @ f + amp.T[:, :, None] * df_dk[:, None, :]
    dconc = [-np.log(10.0) * k[:, :, None] * d_rates]
    if fit_t0:
        dconc.append(-(amp @ (g - k * f))[None])  # dd/dt0 = -1
    if fit_irf:
        df_ds = (k**2 * sigma) * f - (k * sigma + delta / sigma) * g
        dconc.append(np.log(10.0) * sigma * (amp @ df_ds)[None])  # ds/dlog10(fwhm) = ln(10) s
    return (amp @ f).T, np.concatenate(dconc).transpose(0, 2, 1)


def eas_solve(conc: np.ndarray, data: TADataset) -> np.ndarray:
    """Least-squares EAS for fixed concentration profiles.

    Returns the (n_compartments, n_wavelengths) spectra minimizing
    ||delta_a - conc @ eas||_F.  Rank-deficient profiles are rejected.
    """
    c = np.asarray(conc, dtype=float)
    if c.shape[0] != len(data.times):
        raise ValueError("concentration rows must match the time axis")
    eas, _, rank, sv = np.linalg.lstsq(c, data.delta_a, rcond=None)
    if rank < c.shape[1]:
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
        raise ValueError(
            f"rank-deficient concentration matrix (rank {rank} < {c.shape[1]}, "
            f"condition number {cond:.3e})"
        )
    return eas


@dataclass(frozen=True)
class KineticFitSettings:
    max_iterations: int = 4000
    n_starts: int = 3
    tolerance: float = 1e-10
    seed: int = 774
    log10_spread: float = 0.15

    def __post_init__(self):
        check_settings(self, "log10_spread")


@dataclass
class GlobalFitResult:
    model: SequentialModel
    eas: np.ndarray
    concentrations: np.ndarray
    residual_norm: float
    start_costs: tuple[float, ...]
    start_converged: tuple[bool, ...]
    n_evaluations: int
    converged: bool
    flat_objective: bool
    seed: int
    message: str = ""


def _projected_cost(data: TADataset, init_model: SequentialModel, fit_t0: bool, fit_irf: bool):
    """Start vector, its unpacking into a model, and the projected cost.

    The parameters are log10 of each lifetime, then t0 (if fitted), then
    log10 of the IRF FWHM (if fitted).  ``cost(x)`` returns
    ||D - C E||^2 / scale^2 at E = C+ D, with scale the largest |D|, and its
    gradient -2 <R, (dC/dx_j) E> / scale^2 with R = D - C E; C and every
    dC/dx_j come from one closed-form pass (`_concentrations_and_jacobian`).
    A vector that makes no valid model (an overflowing or coincident
    lifetime, a rank-deficient C) costs inf.
    """
    n_comp = init_model.n_compartments
    x0 = list(np.log10(init_model.lifetimes))
    if fit_t0:
        if init_model.irf_fwhm <= 0:
            raise ValueError(
                "fit_t0 requires a positive irf_fwhm: without an IRF the cost jumps in t0"
            )
        x0.append(init_model.t0)
    if fit_irf:
        if init_model.irf_fwhm <= 0:
            raise ValueError("fit_irf requires a positive initial irf_fwhm")
        x0.append(np.log10(init_model.irf_fwhm))
    x0 = np.asarray(x0)

    def unpack(x: np.ndarray) -> SequentialModel:
        with np.errstate(over="ignore"):
            taus = tuple(10 ** x[:n_comp])
            irf = float(10 ** x[-1]) if fit_irf else init_model.irf_fwhm
        t0 = float(x[n_comp]) if fit_t0 else init_model.t0
        return SequentialModel(lifetimes=taus, irf_fwhm=irf, t0=t0)

    scale = float(np.abs(data.delta_a).max())

    def cost(x: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            with np.errstate(all="ignore"):
                conc, dconc = _concentrations_and_jacobian(unpack(x), data.times, fit_t0, fit_irf)
                eas = eas_solve(conc, data)
                resid = data.delta_a - conc @ eas
                # <R, dC E> = <R E^T, dC>, contracted over the small n_t x n_c matrix
                grad = -2.0 * np.tensordot(dconc, resid @ eas.T, axes=2) / scale**2
                f = float(np.vdot(resid, resid)) / scale**2
        except (ValueError, np.linalg.LinAlgError):
            f = np.inf
        if not (np.isfinite(f) and np.isfinite(grad).all()):
            return np.inf, np.zeros(len(x))
        return f, grad

    return x0, unpack, cost


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, with scipy imported on the first fit only."""
    from scipy.optimize import minimize

    return minimize(fun, x0, **kwargs)


def global_fit(
    data: TADataset,
    init_model: SequentialModel,
    fit_t0: bool = False,
    fit_irf: bool = False,
    settings: KineticFitSettings | None = None,
) -> GlobalFitResult:
    """Fit lifetimes (and optionally t0, IRF width) by variable projection.

    The lifetimes are reported in ascending order: the cost does not change
    when two of them swap, so the order the optimizer ends in carries no
    meaning.
    """
    settings = settings or KineticFitSettings()
    n_comp = init_model.n_compartments

    if not data.delta_a.any():
        model = init_model
        conc = concentrations(model, data.times)
        eas = np.zeros((n_comp, len(data.wavelengths)))
        return GlobalFitResult(
            model=model,
            eas=eas,
            concentrations=conc,
            residual_norm=0.0,
            start_costs=(0.0,),
            start_converged=(True,),
            n_evaluations=0,
            converged=True,
            flat_objective=True,
            seed=settings.seed,
            message="zero data: objective is flat, lifetimes unchanged",
        )

    x0, unpack, cost = _projected_cost(data, init_model, fit_t0, fit_irf)
    t0_span = max(init_model.irf_fwhm, 10 ** x0[:n_comp].min())

    def perturb(rng: np.random.Generator) -> np.ndarray:
        trial = x0.copy()
        trial[:n_comp] += settings.log10_spread * rng.standard_normal(n_comp)
        if fit_t0:
            trial[n_comp] += 0.2 * t0_span * rng.standard_normal()
        return trial

    def solve(fun, x_start: np.ndarray) -> tuple:
        res = minimize(fun, x_start, jac=True, method="L-BFGS-B", options={
            "maxiter": settings.max_iterations, "ftol": settings.tolerance, "gtol": settings.tolerance,
        })
        return res.x, float(res.fun), bool(res.success), str(res.message)

    starts = multi_start(cost, solve, x0, perturb, settings.n_starts, settings.seed)
    fitted = unpack(starts.x)
    model = replace(fitted, lifetimes=tuple(sorted(fitted.lifetimes)))
    conc = concentrations(model, data.times)
    eas = eas_solve(conc, data)
    resid = data.delta_a - conc @ eas
    return GlobalFitResult(
        model=model,
        eas=eas,
        concentrations=conc,
        residual_norm=float(np.linalg.norm(resid)),
        start_costs=starts.start_costs,
        start_converged=starts.start_converged,
        n_evaluations=starts.n_evaluations,
        converged=starts.converged,
        flat_objective=False,
        seed=settings.seed,
        message=starts.message,
    )


def synthetic_dataset(
    model: SequentialModel,
    eas: np.ndarray,
    times: np.ndarray,
    wavelengths: np.ndarray,
    noise_fraction: float = 0.0,
    seed: int = 0,
) -> TADataset:
    """Forward-model a TA surface, optionally with Gaussian noise."""
    conc = concentrations(model, np.asarray(times, dtype=float))
    surface = conc @ np.asarray(eas, dtype=float)
    if noise_fraction > 0:
        rng = np.random.default_rng(seed)
        surface = surface + noise_fraction * np.abs(surface).max() * rng.standard_normal(
            surface.shape
        )
    return TADataset(times=times, wavelengths=wavelengths, delta_a=surface)


def kinetic_report(result: GlobalFitResult, time_unit: str = "") -> str:
    """Human-readable key:value report of a finished kinetic fit."""
    unit = f" {time_unit}" if time_unit else ""
    lines = [
        "fit: sequential global kinetic analysis",
        f"compartments: {result.model.n_compartments}",
        f"converged: {result.converged}",
        f"flat_objective: {result.flat_objective}",
        f"residual_norm: {result.residual_norm:.6e}",
        f"n_evaluations: {result.n_evaluations}",
        f"seed: {result.seed}",
    ]
    for i, tau in enumerate(result.model.lifetimes):
        lines.append(f"tau_{i + 1}: {tau:.6g}{unit}")
    lines.append(f"irf_fwhm: {result.model.irf_fwhm:.6g}{unit}")
    lines.append(f"t0: {result.model.t0:.6g}{unit}")
    lines.append("start_converged: " + ", ".join(str(c) for c in result.start_converged))
    return "\n".join(lines)
