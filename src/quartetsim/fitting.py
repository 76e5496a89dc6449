"""Simultaneous least-squares fitting of polarization parameters.

Several experimental field-swept spectra, each recorded under its own
orientation-averaging scheme, are fit together with shared polarization
parameters (a, r), shared nuclear populations, and an independent intensity
scale per dataset.  Spectra are linear in the population coefficients, so
each dataset is reduced once to a basis-spectrum tensor and the objective
evaluates as a tensor contraction; the per-dataset scales then have a
closed-form optimum for any coefficients and populations.  The fit is a
variable projection (Golub & Pereyra, Inverse Problems 19, R1 (2003)): the
free coefficients are a linear least-squares solve for given populations and
scales.  Each start of the seeded multi-start schedule, which `kinetics`
shares, runs a trust-region least-squares solve (trust-region reflective;
Branch, Coleman & Li, SIAM J. Sci. Comput. 21, 1 (1999)) over the population
logits and scales only, with Kaufman's Jacobian (BIT 15, 49 (1975)) of the
projected residual; the start with the lowest final cost is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import polarization as pol
from ._multistart import check_settings, multi_start
from .kinetics import minimize  # noqa: F401 -- perfbench/tracing.py wraps fitting.minimize
from .spectra import (
    FieldSweepConfig,
    OrientationScheme,
    PARAM_NAMES,
    Spectrum,
    quartet_basis_spectra,
)
from .spincore import SpinSystemSpec

FREE_NAMES = PARAM_NAMES + ("rho_n",)

# Logits for the nuclear simplex are kept in a box so the solver cannot
# wander off to regions where softmax saturates completely.
_LOGIT_BOUND = 12.0


@dataclass(frozen=True)
class FitDataset:
    """One experimental spectrum plus the scheme that produced it."""

    name: str
    spectrum: Spectrum
    scheme: OrientationScheme
    weight: float = 1.0

    def __post_init__(self):
        if not self.weight > 0:
            raise ValueError("dataset weight must be > 0")
        b = self.spectrum.field_mt
        if b.ndim != 1 or len(b) < 2 or np.any(np.diff(b) <= 0):
            raise ValueError(f"dataset {self.name!r}: field axis must be strictly increasing")
        if len(self.spectrum.intensity) != len(b):
            raise ValueError(f"dataset {self.name!r}: intensity length mismatch")


@dataclass(frozen=True)
class FitSettings:
    max_iterations: int = 6000
    n_starts: int = 4
    tolerance: float = 1e-12
    seed: int = 20230
    start_spread: float = 0.05

    def __post_init__(self):
        check_settings(self, "start_spread")


@dataclass(frozen=True)
class FitProblem:
    system: SpinSystemSpec
    sweep: FieldSweepConfig
    datasets: tuple[FitDataset, ...]
    start_params: pol.QuartetPolarizationParams
    start_nuclear: pol.NuclearPopulations
    free: tuple[str, ...]
    settings: FitSettings = field(default_factory=FitSettings)

    def __post_init__(self):
        if not self.datasets:
            raise ValueError("at least one dataset required")
        if not self.free:
            raise ValueError("at least one free parameter required")
        unknown = [n for n in self.free if n not in FREE_NAMES]
        if unknown:
            raise ValueError(f"unknown free parameter names: {unknown}")
        names = [ds.name for ds in self.datasets]
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            # each dataset's best-fit curve is written under its name
            raise ValueError(f"dataset names must be distinct; repeated: {', '.join(repeated)}")
        start, stop = self.sweep.field_start_mt, self.sweep.field_stop_mt
        # The basis spectra are resampled onto each field axis, and held at
        # their edge values outside the sweep window.  A spectrum CSV keeps 11
        # significant digits, so a sweep's own axis may read up to half a unit
        # of the last one beyond it.
        tol = 5e-11 * stop
        for ds in self.datasets:
            lo, hi = float(ds.spectrum.field_mt[0]), float(ds.spectrum.field_mt[-1])
            if lo < start - tol or hi > stop + tol:
                raise ValueError(f"dataset {ds.name!r}: field axis [{lo}, {hi}] mT leaves the sweep window "
                                 f"[{start}, {stop}] mT")

    @property
    def free_coefficients(self) -> tuple[str, ...]:
        return tuple(n for n in PARAM_NAMES if n in self.free)

    @property
    def fits_nuclear(self) -> bool:
        return "rho_n" in self.free


@dataclass
class FitResult:
    params: pol.QuartetPolarizationParams
    nuclear: pol.NuclearPopulations
    scales: tuple[float, ...]
    cost: float
    residual_norm: float
    start_costs: tuple[float, ...]
    start_converged: tuple[bool, ...]
    n_evaluations: int
    converged: bool
    seed: int
    message: str = ""
    # standard errors of the nuclear populations; None when they are fixed
    stderr_nuclear: tuple[float, ...] | None = None


def dataset_bases(problem: FitProblem) -> list[np.ndarray]:
    """Basis-spectrum tensors, one per dataset (shared schemes computed once)."""
    cache: dict = {}
    for ds in problem.datasets:
        if ds.scheme not in cache:
            cache[ds.scheme] = quartet_basis_spectra(problem.system, problem.sweep, ds.scheme)
    return [cache[ds.scheme] for ds in problem.datasets]


def _coefficient_vector(params: pol.QuartetPolarizationParams) -> np.ndarray:
    return np.array([*params.a, *params.r], dtype=float)


def _params_from_vector(c: np.ndarray) -> pol.QuartetPolarizationParams:
    return pol.QuartetPolarizationParams(a=tuple(c[:3]), r=tuple(c[3:]))


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def _closed_form_scale(sim: np.ndarray, exp: np.ndarray) -> float:
    denom = float(sim @ sim)
    if denom == 0.0:
        return 0.0
    return float(sim @ exp) / denom


@dataclass(frozen=True)
class FitModel:
    """A fit problem prepared once: data and basis tensors on each field axis.

    The fit and its best-fit curves share one model; each basis is built once.
    """

    tensors: tuple[np.ndarray, ...]
    data: tuple[np.ndarray, ...]
    norms: tuple[float, ...]
    weights: tuple[float, ...]

    @classmethod
    def build(cls, problem: FitProblem) -> "FitModel":
        axis = problem.sweep.field_axis()
        data = tuple(np.asarray(ds.spectrum.intensity, dtype=float) for ds in problem.datasets)
        return cls(
            tensors=tuple(
                np.array([[np.interp(ds.spectrum.field_mt, axis, row) for row in plane]
                          for plane in basis])
                for ds, basis in zip(problem.datasets, dataset_bases(problem))
            ),
            data=data,
            norms=tuple(max(float(np.abs(e).max()), np.finfo(float).tiny) for e in data),
            weights=tuple(ds.weight for ds in problem.datasets),
        )

    def terms(
        self, c: np.ndarray, p: np.ndarray, scales: tuple[float, ...] | None = None
    ) -> list[tuple[float, np.ndarray, np.ndarray]]:
        """(scale, simulated spectrum, residual) of every dataset.

        The residual is weight * (scale * simulated - experimental) /
        max|experimental|; scales default to their closed-form optima.
        """
        out = []
        for k, (m, exp) in enumerate(zip(self.tensors, self.data)):
            sim = np.einsum("p,l,plf->f", c, p, m)
            s = scales[k] if scales is not None else _closed_form_scale(sim, exp)
            out.append((s, sim, self.weights[k] * (s * sim - exp) / self.norms[k]))
        return out

    def jacobian(
        self,
        c: np.ndarray,
        p: np.ndarray,
        scales: np.ndarray,
        coeff_idx: list[int],
        fits_nuclear: bool,
    ) -> np.ndarray:
        """Exact Jacobian of the stacked residual of ``terms(c, p, scales)``.

        Columns: the coefficients ``c[coeff_idx]``, then (when
        ``fits_nuclear``) the 8 logits whose softmax is ``p``, then every
        dataset's scale.
        """
        blocks = []
        for k, (m, s) in enumerate(zip(self.tensors, scales)):
            f = self.weights[k] / self.norms[k]
            by_coeff = np.einsum("l,plf->pf", p, m)
            cols = [s * f * by_coeff[coeff_idx].T]
            if fits_nuclear:
                by_level = np.einsum("p,plf->lf", c, m)
                cols.append(s * f * by_level.T @ (np.diag(p) - np.outer(p, p)))
            scale_cols = np.zeros((m.shape[-1], len(self.tensors)))
            scale_cols[:, k] = f * (c @ by_coeff)
            cols.append(scale_cols)
            blocks.append(np.hstack(cols))
        return np.vstack(blocks)


def residual(
    problem: FitProblem,
    params: pol.QuartetPolarizationParams,
    nuclear: pol.NuclearPopulations,
    scales: tuple[float, ...] | None = None,
    model: FitModel | None = None,
) -> np.ndarray:
    """Concatenated weighted residual over all datasets (see FitModel.terms).

    ``model``, when given, must have been built from ``problem``.
    """
    model = model or FitModel.build(problem)
    terms = model.terms(_coefficient_vector(params), nuclear.as_array(), scales)
    return np.concatenate([r for _, _, r in terms])


def evaluate_model(
    problem: FitProblem,
    params: pol.QuartetPolarizationParams,
    nuclear: pol.NuclearPopulations,
    scales: tuple[float, ...] | None = None,
    model: FitModel | None = None,
) -> list[np.ndarray]:
    """Scaled model spectra on each dataset's experimental field axis."""
    model = model or FitModel.build(problem)
    terms = model.terms(_coefficient_vector(params), nuclear.as_array(), scales)
    return [s * sim for s, sim, _ in terms]


def _start_logits(nuclear: pol.NuclearPopulations) -> np.ndarray:
    z = np.log(np.clip(nuclear.as_array(), 1e-12, None))
    return z - z.mean()


def _population_stderr(jac: np.ndarray, cost: float, p: np.ndarray, n_coeff: int) -> tuple[float, ...]:
    """Standard errors of the populations from the covariance sigma^2 (J^T J)^+.

    sigma^2 = cost / (residuals - rank J).  The pseudo-inverse drops the null
    directions (the softmax shift and the scale/coefficient gauge), neither of
    which moves the populations; the logit covariance maps to the populations
    through the softmax Jacobian diag(p) - p p^T.
    """
    _, sv, vt = np.linalg.svd(jac, full_matrices=False)
    keep = sv > sv[0] * max(jac.shape) * np.finfo(float).eps
    dof = jac.shape[0] - int(keep.sum())
    sigma2 = cost / dof if dof > 0 else np.nan
    # (J^T J)^+ = half @ half.T over the kept singular values
    half = vt[keep].T / sv[keep]
    rho = (np.diag(p) - np.outer(p, p)) @ half[n_coeff:n_coeff + 8]
    return tuple(float(e) for e in np.sqrt(sigma2 * (rho**2).sum(axis=1)))


def least_squares(fun, x0, **kwargs):
    """``scipy.optimize.least_squares``, with scipy imported on the first fit only."""
    from scipy.optimize import least_squares

    return least_squares(fun, x0, **kwargs)


def fit_simultaneous(problem: FitProblem, model: FitModel | None = None) -> FitResult:
    """Minimize the joint residual over the free parameters by variable projection.

    The residual is linear in the coefficients, so no solver searches them:
    for given populations and dataset scales the free coefficients are the
    linear least-squares solution.  The solver runs over the rest only: the
    nuclear populations, when free, as softmax logits so every iterate stays
    on the probability simplex, and one unbounded scale per dataset, which
    starts at its closed-form optimum.  The reported scales are the
    closed-form optima at the solution, and the reported cost is the sum of
    squared residuals at them.  ``start_costs`` are the solver's own final
    costs, which the reported cost never exceeds.  When every nonzero
    coefficient is free the scale/coefficient product is gauge degenerate;
    the result is normalized so the geometric mean of |scale| is one.
    ``model``, when given, must have been built from ``problem``.
    """
    model = model or FitModel.build(problem)
    free_coeffs = problem.free_coefficients
    coeff_idx = [PARAM_NAMES.index(n) for n in free_coeffs]
    c_full = _coefficient_vector(problem.start_params)
    fits_nuclear = problem.fits_nuclear
    n_coeff = len(coeff_idx)
    n_logits = 8 if fits_nuclear else 0
    n_scales = len(model.tensors)

    def populations(logits: np.ndarray) -> np.ndarray:
        return _softmax(logits) if fits_nuclear else problem.start_nuclear.as_array()

    # The solver asks for the Jacobian at the point it last evaluated, so the
    # last projection is kept.
    solved: dict[bytes, tuple] = {}

    def project(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Coefficients solved for the logits and scales in x, their columns, and the residual."""
        key = x.tobytes()
        if key not in solved:
            p = populations(x[:n_logits])
            scales = x[n_logits:]
            c = c_full.copy()
            c[coeff_idx] = 0.0
            # The residual is affine in the free coefficients; their Jacobian
            # columns do not depend on the coefficients.
            r0 = np.concatenate([r for _, _, r in model.terms(c, p, scales)])
            cols = model.jacobian(c, p, scales, coeff_idx, False)[:, :n_coeff]
            c[coeff_idx] = np.linalg.lstsq(cols, -r0, rcond=None)[0]
            solved.clear()
            solved[key] = c, p, scales, cols, r0 + cols @ c[coeff_idx]
        return solved[key]

    def jacobian(x: np.ndarray) -> np.ndarray:
        # Kaufman's Jacobian: the logit and scale columns at the solved
        # coefficients, projected off the coefficient columns.
        c, p, scales, cols, _ = project(x)
        rest = model.jacobian(c, p, scales, coeff_idx, fits_nuclear)[:, n_coeff:]
        q = np.linalg.qr(cols)[0]
        return rest - q @ (q.T @ rest)

    # A population below ~1e-6, whose logit falls under -_LOGIT_BOUND, starts
    # at its clip into the box.
    logits0 = np.empty(0)
    if fits_nuclear:
        logits0 = np.clip(_start_logits(problem.start_nuclear), -_LOGIT_BOUND, _LOGIT_BOUND)
    scales0 = np.array([s for s, _, _ in model.terms(c_full, populations(logits0))])
    settings = problem.settings

    def perturb(rng: np.random.Generator) -> np.ndarray:
        z = settings.start_spread * rng.standard_normal(n_logits + n_scales)
        logits = np.clip(logits0 + 2.0 * _LOGIT_BOUND * z[:n_logits], -_LOGIT_BOUND, _LOGIT_BOUND)
        return np.concatenate([logits, scales0 * np.exp(z[n_logits:])])

    tol = max(settings.tolerance, np.finfo(float).eps)
    box = np.full(n_logits + n_scales, np.inf)
    box[:n_logits] = _LOGIT_BOUND

    def solve(fun, x_start: np.ndarray) -> tuple:
        res = least_squares(fun, x_start, jac=jacobian, bounds=(-box, box), method="trf",
                            max_nfev=settings.max_iterations, xtol=tol, ftol=tol)
        return res.x, 2.0 * float(res.cost), bool(res.status > 0), str(res.message)

    starts = multi_start(lambda x: project(x)[4], solve, np.concatenate([logits0, scales0]),
                         perturb, settings.n_starts, settings.seed)

    # The reported cost, scales and standard errors are taken at the closed-form
    # scales, so residual(problem, params, nuclear, scales) reproduces the cost
    # also when the best start stopped on max_iterations.
    c_best, p_best = project(starts.x)[:2]
    terms = model.terms(c_best, p_best)
    scales = [s for s, _, _ in terms]
    best_cost = float(sum(r @ r for _, _, r in terms))
    stderr = None
    if fits_nuclear:
        jac = model.jacobian(c_best, p_best, np.array(scales), coeff_idx, fits_nuclear)
        stderr = _population_stderr(jac, best_cost, p_best, n_coeff)

    # Gauge fixing: coefficients and scales only enter as products, so when
    # no fixed coefficient pins the overall factor the solution is defined up
    # to a common constant.  Normalize |scales| to geometric mean one, and
    # absorb a common negative sign (the mirrored solution is identical).
    fixed_pins = any(
        c_full[PARAM_NAMES.index(n)] != 0.0 for n in PARAM_NAMES if n not in free_coeffs
    )
    nonzero = [abs(s) for s in scales if s != 0.0]
    if not fixed_pins and nonzero:
        gauge = float(np.exp(np.mean(np.log(nonzero))))
        if all(s < 0.0 for s in scales):
            gauge = -gauge
        if gauge != 0.0 and np.isfinite(gauge):
            c_best = c_best * gauge + 0.0  # + 0.0: fixed zeros stay +0.0 under a negative gauge
            scales = [s / gauge for s in scales]

    return FitResult(
        params=_params_from_vector(c_best),
        nuclear=pol.NuclearPopulations(tuple(p_best)),
        scales=tuple(scales),
        cost=best_cost,
        residual_norm=float(np.sqrt(best_cost)),
        start_costs=starts.start_costs,
        start_converged=starts.start_converged,
        n_evaluations=starts.n_evaluations,
        converged=starts.converged,
        seed=settings.seed,
        message=starts.message,
        stderr_nuclear=stderr,
    )


def fit_report(problem: FitProblem, result: FitResult) -> str:
    """Human-readable key:value report of a finished fit."""
    lines = [
        "fit: simultaneous polarization fit",
        f"datasets: {', '.join(ds.name for ds in problem.datasets)}",
        f"free: {', '.join(problem.free)}",
        f"converged: {result.converged}",
        f"cost: {result.cost:.6e}",
        f"residual_norm: {result.residual_norm:.6e}",
        f"n_evaluations: {result.n_evaluations}",
        f"seed: {result.seed}",
    ]
    for name, value in zip(PARAM_NAMES, _coefficient_vector(result.params)):
        lines.append(f"{name}: {value:+.6f}")
    lines.append("rho_n: " + ", ".join(f"{p:.4f}" for p in result.nuclear.as_array()))
    if result.stderr_nuclear is not None:
        lines.append("stderr_rho_n: " + ", ".join(f"{e:.4f}" for e in result.stderr_nuclear))
    for ds, s in zip(problem.datasets, result.scales):
        lines.append(f"scale[{ds.name}]: {s:.6e}")
    lines.append("start_costs: " + ", ".join(f"{c:.6e}" for c in result.start_costs))
    lines.append("start_converged: " + ", ".join(str(c) for c in result.start_converged))
    return "\n".join(lines)
