"""Simultaneous least-squares fitting of polarization parameters.

Several experimental field-swept spectra, each recorded under its own
orientation-averaging scheme, are fit together with shared polarization
parameters (a, r), shared nuclear populations, and an independent intensity
scale per dataset.  Spectra are linear in the population coefficients, so
each dataset is reduced once to a basis-spectrum tensor and the objective
evaluates as a tensor contraction; the per-dataset scales then have a
closed-form optimum at every step.  The outer minimization is a
derivative-free simplex search with a deterministic multi-start schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import polarization as pol
from .spectra import (
    FieldSweepConfig,
    OrientationScheme,
    PARAM_NAMES,
    QuartetBasisSpectra,
    Spectrum,
    quartet_basis_spectra,
)
from .spincore import SpinSystemSpec

FREE_NAMES = PARAM_NAMES + ("rho_n",)

# Logits for the nuclear simplex are kept in a box so the simplex search
# cannot wander off to regions where softmax saturates completely.
_LOGIT_BOUND = 12.0

# Edge of every Nelder-Mead start simplex, as a fraction of each parameter's bound span.
_SIMPLEX_STEP = 0.05


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


@dataclass(frozen=True)
class FitProblem:
    system: SpinSystemSpec
    sweep: FieldSweepConfig
    datasets: tuple[FitDataset, ...]
    start_params: pol.QuartetPolarizationParams
    start_nuclear: pol.NuclearPopulations
    free: tuple[str, ...]
    coefficient_bounds: tuple[float, float] = (-1.0, 1.0)
    settings: FitSettings = field(default_factory=FitSettings)

    def __post_init__(self):
        if not self.datasets:
            raise ValueError("at least one dataset required")
        if not self.free:
            raise ValueError("at least one free parameter required")
        unknown = [n for n in self.free if n not in FREE_NAMES]
        if unknown:
            raise ValueError(f"unknown free parameter names: {unknown}")
        lo, hi = self.coefficient_bounds
        if not lo < hi:
            raise ValueError("invalid coefficient bounds")

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


def dataset_bases(problem: FitProblem) -> list[QuartetBasisSpectra]:
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
                          for plane in basis.tensor])
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


def fit_simultaneous(problem: FitProblem, model: FitModel | None = None) -> FitResult:
    """Minimize the joint residual over the free parameters.

    Free coefficients vary directly; nuclear populations, when free, vary as
    softmax logits so every iterate stays on the probability simplex.  The
    per-dataset scales are solved in closed form inside the objective.  When
    every nonzero coefficient is free the scale/coefficient product is gauge
    degenerate; the result is normalized so the geometric mean of |scale| is
    one.  ``model``, when given, must have been built from ``problem``.
    """
    model = model or FitModel.build(problem)
    free_coeffs = problem.free_coefficients
    coeff_idx = [PARAM_NAMES.index(n) for n in free_coeffs]
    c_full = _coefficient_vector(problem.start_params)
    p_start = problem.start_nuclear.as_array()
    fits_nuclear = problem.fits_nuclear

    x0 = list(c_full[coeff_idx])
    lo, hi = problem.coefficient_bounds
    bounds = [(lo, hi)] * len(coeff_idx)
    if fits_nuclear:
        x0.extend(_start_logits(problem.start_nuclear))
        bounds.extend([(-_LOGIT_BOUND, _LOGIT_BOUND)] * 8)
    x0 = np.asarray(x0, dtype=float)
    n_coeff = len(coeff_idx)

    def unpack(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c = c_full.copy()
        c[coeff_idx] = x[:n_coeff]
        p = _softmax(x[n_coeff:]) if fits_nuclear else p_start
        return c, p

    n_evals = 0

    def objective(x: np.ndarray) -> float:
        nonlocal n_evals
        n_evals += 1
        cost = 0.0
        for _, _, r in model.terms(*unpack(x)):
            cost += float(r @ r)
        return cost

    rng = np.random.default_rng(problem.settings.seed)
    starts = [x0]
    span = np.array([b[1] - b[0] for b in bounds])
    for _ in range(problem.settings.n_starts - 1):
        trial = x0 + problem.settings.start_spread * span * rng.standard_normal(len(x0))
        starts.append(np.clip(trial, [b[0] for b in bounds], [b[1] for b in bounds]))

    # The objective is sharply peaked around the solution and nearly flat far
    # from it (the closed-form scale saturates the residual), so a start on
    # the plateau can drift to a bound.  A deterministic coordinate scan over
    # each free coefficient plants one extra start inside the basin.
    if n_coeff:
        scan = x0.copy()
        grid = np.linspace(lo, hi, 41)
        for pos in range(n_coeff):
            trials = np.repeat(scan[None, :], len(grid), axis=0)
            trials[:, pos] = grid
            scan[pos] = grid[int(np.argmin([objective(t) for t in trials]))]
        starts.insert(1, scan)

    # scipy's default start simplex steps 5% of each coordinate and 0.00025
    # where it is zero, as are all logits of uniform populations; such a
    # simplex stalls in shallow local minima.  Step each parameter by
    # _SIMPLEX_STEP of its bound span instead, away from its upper bound.
    step = _SIMPLEX_STEP * span
    upper = np.array([b[1] for b in bounds])

    best = None
    start_costs = []
    start_converged = []
    for x_start in starts:
        offsets = np.diag(np.where(x_start + step <= upper, step, -step))
        res = minimize(
            objective,
            x_start,
            method="Nelder-Mead",
            bounds=bounds,
            options={
                "initial_simplex": np.vstack([x_start, x_start + offsets]),
                "maxiter": problem.settings.max_iterations,
                "xatol": problem.settings.tolerance,
                "fatol": problem.settings.tolerance,
                "adaptive": True,
            },
        )
        start_costs.append(float(res.fun))
        start_converged.append(bool(res.success))
        if best is None or res.fun < best.fun:
            best = res

    c_best, p_best = unpack(best.x)
    scales = [s for s, _, _ in model.terms(c_best, p_best)]

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
            c_best = c_best * gauge
            scales = [s / gauge for s in scales]

    cost = float(best.fun)
    return FitResult(
        params=_params_from_vector(c_best),
        nuclear=pol.NuclearPopulations(tuple(p_best)),
        scales=tuple(scales),
        cost=cost,
        residual_norm=float(np.sqrt(cost)),
        start_costs=tuple(start_costs),
        start_converged=tuple(start_converged),
        n_evaluations=n_evals,
        converged=bool(best.success),
        seed=problem.settings.seed,
        message=str(best.message),
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
    for ds, s in zip(problem.datasets, result.scales):
        lines.append(f"scale[{ds.name}]: {s:.6e}")
    lines.append("start_costs: " + ", ".join(f"{c:.6e}" for c in result.start_costs))
    lines.append("start_converged: " + ", ".join(str(c) for c in result.start_converged))
    return "\n".join(lines)
