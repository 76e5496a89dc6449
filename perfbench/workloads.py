"""The benchmark workloads: inputs made from a seed, CLI calls and output checks.

Each workload writes its inputs under its own work directory, names the
``quartetsim`` CLI calls of one round, and checks every call's outputs
against a computation made outside the program (``reference``) or against a
property the method must have.  A check returns a list of problems; an
empty list means the operation's outputs are correct.
"""

from __future__ import annotations

import configparser
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import quartetsim
from quartetsim import configio
from quartetsim import polarization as pol
from quartetsim import spectra as sp

from reference import DimerHamiltonian, sequential_concentrations

BUNDLED_CONFIG = Path(quartetsim.__file__).parent / "data" / "published_dimer.cfg"
PUBLISHED_A = (0.11, -0.002, -0.027)
PUBLISHED_R = (0.0, -0.01, 0.0)
PUBLISHED_RHO_N = (0.146, 0.078, 0.194, 0.126, 0.117, 0.165, 0.078, 0.097)
NOISE = 0.01
# Resonance condition: largest allowed stick-field error, far below the
# 1.8 mT linewidth (a thousandth of it).
STICK_FIELD_TOL_MT = 1.8e-3


@dataclass
class Call:
    """One CLI call and the check of what it wrote; an operation."""

    argv: list[str]
    check: Callable[[], list[str]]


def read_config(path: Path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    return {s: dict(parser.items(s)) for s in parser.sections()}


def write_config(path: Path, sections: dict[str, dict[str, object]]) -> None:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {v}" for k, v in keys.items()]
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")


def floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split())


def write_spectrum(path: Path, field: np.ndarray, intensity: np.ndarray) -> None:
    rows = ["field_mT,intensity"] + [f"{b:.10e},{y:.10e}" for b, y in zip(field, intensity)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def read_spectrum(path: Path, sweep: dict[str, str], problems: list[str]) -> np.ndarray | None:
    """Intensity column of a spectrum CSV; checks it sits on the sweep's axis."""
    if not path.is_file():
        problems.append(f"{path.name}: not written")
        return None
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "field_mT,intensity":
        problems.append(f"{path.name}: header {lines[:1]}")
        return None
    table = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    axis = np.linspace(float(sweep["field_start_mt"]), float(sweep["field_stop_mt"]),
                       int(sweep.get("n_points", 1024)))
    if table.shape != (len(axis), 2) or np.abs(table[:, 0] - axis).max() > 1e-9 * axis[-1]:
        problems.append(f"{path.name}: field column is not the configured axis")
        return None
    if not np.all(np.isfinite(table[:, 1])):
        problems.append(f"{path.name}: non-finite intensity")
        return None
    return table[:, 1]


def read_report(path: Path) -> dict[str, str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return dict(line.split(": ", 1) for line in lines if ": " in line)


class Workload:
    """Inputs, one round of CLI calls, and a cheap warm-up call."""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.worst_stick_error_mt = 0.0

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> list[list[str]]:
        """A single-orientation ``simulate`` of the workload's system and sweep."""
        return [["simulate", "--config", str(self.warm_path), "--out-dir", str(self.workdir / "warmup")]]

    def round(self, index: int) -> list[Call]:
        raise NotImplementedError


# ------------------------------------------------------------- simulate


class SimulateWorkload(Workload):
    """Two ``simulate`` calls on one config; the second must repeat the first."""

    def config(self) -> dict[str, dict[str, object]]:
        raise NotImplementedError

    def setup(self) -> None:
        sections = self.config()
        self.cfg_path = self.workdir / "run.cfg"
        write_config(self.cfg_path, sections)
        single = dict(sections, scheme={"kind": "single", "theta_deg": 50.0, "phi_deg": 20.0})
        self.warm_path = self.workdir / "warmup.cfg"
        write_config(self.warm_path, single)
        # The stick check calls the library on the objects the CLI builds ...
        cfg = configio.parse_config(str(self.cfg_path))
        self.spec, self.model = cfg.build_system(), cfg.build_polarization()
        self.sweep = cfg.build_sweep()
        self.orientations, _ = sp.scheme_orientations(cfg.build_scheme())
        self.order = np.random.default_rng(self.seed).permutation(len(self.orientations))
        # ... and compares them with energies from the reference Hamiltonian,
        # assembled from the raw config text.
        raw = read_config(self.cfg_path)
        self.sweep_raw = raw["sweep"]
        self.prefix = raw["output"]["prefix"]
        s = raw["system"]
        self.system = {k: (floats(v) if k in ("g_vo", "a_vo_mhz") else float(v)) for k, v in s.items()}

    def round(self, index: int) -> list[Call]:
        dirs = [self.workdir / "first", self.workdir / "second"]
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
        # Each round checks the sticks of one more orientation of the scheme.
        orientation = self.orientations[self.order[index % len(self.order)]]
        return [
            Call(["simulate", "--config", str(self.cfg_path), "--out-dir", str(d)],
                 lambda j=j: self._check(dirs, j, orientation))
            for j, d in enumerate(dirs)
        ]

    def _check(self, dirs: list[Path], j: int, orientation) -> list[str]:
        problems: list[str] = []
        y = read_spectrum(dirs[j] / f"{self.prefix}.csv", self.sweep_raw, problems)
        if y is not None:
            problems += self._sign_check(y)
        if j == 0:
            return problems + self._stick_check(orientation)
        for suffix in (".csv", ".meta.json"):
            first, second = (d / f"{self.prefix}{suffix}" for d in dirs)
            if not (first.is_file() and second.is_file()
                    and first.read_bytes() == second.read_bytes()):
                problems.append(f"rerun {suffix} is not byte-identical")
        return problems

    def _sign_check(self, y: np.ndarray) -> list[str]:
        raise NotImplementedError

    def _stick_check(self, orientation) -> list[str]:
        """Every stick of one orientation satisfies E_upper - E_lower = nu_mw."""
        sticks = sp.stick_spectrum(self.spec, orientation, self.model, self.sweep)
        if not sticks:
            return [f"no sticks at theta={orientation.theta:.4f}"]
        n = (math.sin(orientation.theta) * math.cos(orientation.phi),
             math.sin(orientation.theta) * math.sin(orientation.phi), math.cos(orientation.theta))
        nu = float(self.sweep_raw["mw_frequency_ghz"]) * 1e3
        err = DimerHamiltonian(self.system, np.array(n)).field_errors(
            [s.field_mt for s in sticks], [s.lower for s in sticks], [s.upper for s in sticks], nu)
        worst = float(err.max())
        self.worst_stick_error_mt = max(self.worst_stick_error_mt, worst)
        if not worst <= STICK_FIELD_TOL_MT:
            return [f"stick field off resonance by {worst:.3g} mT at theta={orientation.theta:.4f}"]
        return []


class PowderPhoto(SimulateWorkload):
    """The bundled published dimer, photo populations, a 16-point powder."""

    def config(self):
        sections = read_config(BUNDLED_CONFIG)
        sections["scheme"] = {"kind": "powder", "grid_size": 16}
        return sections

    def _sign_check(self, y):
        # Criterion 04: net emission over 300-380 mT, >= 90% of live points emissive.
        axis = np.linspace(float(self.sweep_raw["field_start_mt"]),
                           float(self.sweep_raw["field_stop_mt"]), len(y))
        window = (axis >= 300.0) & (axis <= 380.0)
        live = np.abs(y[window]) > 1e-3 * np.abs(y).max()
        negative = float(np.mean(y[window][live] < 0.0)) if live.any() else 0.0
        integral = float(np.trapezoid(y[window], axis[window]))
        if integral < 0.0 and negative >= 0.90:
            return []
        return [f"not emissive: integral {integral:.3g}, {negative:.1%} of live points negative"]


class WeakThermal(SimulateWorkload):
    """Weak exchange (J comparable to the ZFS), 80 K Boltzmann, aligned perpendicular."""

    def config(self):
        sections = read_config(BUNDLED_CONFIG)
        sections["system"]["exchange_invcm"] = 0.03
        sections["polarization"] = {"kind": "thermal", "temperature_k": 80.0}
        sections["scheme"] = {"kind": "perpendicular", "sigma_deg": 10.0, "n_samples": 8,
                              "tilt_nodes": 3, "transverse_nodes": 4}
        sections.pop("fit", None)
        sections["output"]["prefix"] = "weak_thermal"
        return sections

    def _sign_check(self, y):
        # Boltzmann populations: every line absorptive.
        if y.min() >= -1e-12 * y.max() and y.max() > 0:
            return []
        return [f"emissive point under thermal populations: min {y.min():.3g}, max {y.max():.3g}"]


# ------------------------------------------------------------ fit-trepr


class TreprFit(Workload):
    """Simultaneous fits of aligned parallel, aligned perpendicular and powder spectra.

    A round fits two noise draws of the same spectra, so that the optimizer's
    path, which depends on the noise, weighs less on the round time.
    """

    schemes = ("parallel", "perpendicular", "powder")
    draws = ("a", "b")
    free = ("a1", "a2", "a3", "r2")
    # Largest accepted |fitted - generating| with 1% noise: about five times
    # the largest scatter seen over twelve seeds, and each below the value.
    tolerance = {"a1": 0.002, "a2": 0.0006, "a3": 0.001, "r2": 0.003}
    rho_n_tolerance = 0.02
    cost_factor = 1.25

    def setup(self) -> None:
        sections = read_config(BUNDLED_CONFIG)
        sections["polarization"] = {"kind": "photo", "a": "0.2 -0.05 -0.1", "r": "0.0 -0.05 0.0",
                                    "rho_n": " ".join(["0.125"] * 8)}
        sections["sweep"].update(n_points=512, search_points=151)
        sections["scheme"] = {"kind": "powder", "grid_size": 16, "sigma_deg": 10.0,
                              "n_samples": 8, "tilt_nodes": 2, "transverse_nodes": 4}
        # The start point and the coordinate-scan start both stop in local
        # minima on this problem; the random starts reach the noise floor.
        sections["fit"] = {"free": " ".join(self.free + ("rho_n",)),
                           "schemes": " ".join(self.schemes), "n_starts": 4,
                           "tolerance": 1e-6}
        sections["output"] = {"prefix": "trepr", "plot_script": "false"}
        self.cfg_path = self.workdir / "fit.cfg"
        write_config(self.cfg_path, sections)
        warm = dict(sections, scheme={"kind": "single", "theta_deg": 50.0, "phi_deg": 20.0})
        self.warm_path = self.workdir / "warmup.cfg"
        write_config(self.warm_path, warm)
        self.sweep_raw = sections["sweep"]

        cfg = configio.parse_config(str(self.cfg_path))
        system, sweep = cfg.build_system(), cfg.build_sweep()
        truth = pol.PhotoQuartetPolarization(
            pol.QuartetPolarizationParams(a=PUBLISHED_A, r=PUBLISHED_R),
            pol.NuclearPopulations(PUBLISHED_RHO_N))
        clean = [sp.simulate_dimer(system, truth, sweep, cfg.build_scheme(k)) for k in self.schemes]
        rng = np.random.default_rng(self.seed)
        self.data_paths = {d: [] for d in self.draws}
        self.expected_cost = dict.fromkeys(self.draws, 0.0)
        for draw in self.draws:
            for kind, spectrum in zip(self.schemes, clean):
                sigma = NOISE * np.abs(spectrum.intensity).max()
                noisy = spectrum.intensity + sigma * rng.standard_normal(len(spectrum.intensity))
                # The fit divides each dataset's residual by its max|data|.
                self.expected_cost[draw] += len(noisy) * (sigma / np.abs(noisy).max()) ** 2
                path = self.workdir / f"{kind}_{draw}.csv"
                write_spectrum(path, spectrum.field_mt, noisy)
                self.data_paths[draw].append(str(path))

    def round(self, index: int) -> list[Call]:
        calls = []
        for draw in self.draws:
            out = self.workdir / f"out_{draw}"
            shutil.rmtree(out, ignore_errors=True)
            argv = ["fit-trepr", "--config", str(self.cfg_path), "--data", *self.data_paths[draw],
                    "--out-dir", str(out)]
            calls.append(Call(argv, lambda out=out, draw=draw: self._check(out, draw)))
        return calls

    def _check(self, out: Path, draw: str) -> list[str]:
        report_path = out / "trepr_fit_report.txt"
        if not report_path.is_file():
            return ["fit report not written"]
        report = read_report(report_path)
        truth = dict(zip(("a1", "a2", "a3", "r1", "r2", "r3"), PUBLISHED_A + PUBLISHED_R))
        problems = [f"{name} = {report[name]} vs {truth[name]:+.4f}" for name in self.free
                    if not abs(float(report[name]) - truth[name]) <= self.tolerance[name]]
        rho = np.array([float(v) for v in report["rho_n"].split(",")])
        if not np.abs(rho - PUBLISHED_RHO_N).max() <= self.rho_n_tolerance:
            problems.append(f"rho_n off by {np.abs(rho - PUBLISHED_RHO_N).max():.3f}")
        scales = [float(v) for k, v in report.items() if k.startswith("scale[")]
        if len(scales) != 3 or not all(0.9 <= s <= 1.1 for s in scales):
            problems.append(f"scales {scales}")
        ratio = float(report["cost"]) / self.expected_cost[draw]
        if not 1 / self.cost_factor <= ratio <= self.cost_factor:
            problems.append(f"cost {ratio:.3f} x the injected noise")
        for path in self.data_paths[draw]:
            read_spectrum(out / f"trepr_fit_{Path(path).stem}.csv", self.sweep_raw, problems)
        return problems


# --------------------------------------------------------------- fit-ta


@dataclass(frozen=True)
class TACase:
    name: str
    lifetimes: tuple[float, ...]
    start: tuple[float, ...]
    irf: float = 0.25
    t0: float = 0.0
    fit_t0: bool = False
    fit_irf: bool = False
    early: int = 80      # linear time points over -2 .. 12 ps
    late: int = 180      # logarithmic time points up to 5 x the last lifetime
    wavelengths: int = 50


class TAFit(Workload):
    """A fixed batch of ``fit-ta`` calls on synthetic maps of several sizes."""

    cases = (
        TACase("rt", (1.1, 4.63e7), (3.0, 1.0e7)),
        TACase("lt85k", (2.90, 1.6e8), (8.0, 4.0e7)),
        TACase("chain3", (0.8, 35.0, 4.63e7), (2.0, 100.0, 1.0e7), early=100, late=200,
               wavelengths=60),
        TACase("rt_t0_irf", (1.1, 4.63e7), (3.0, 1.0e7), irf=0.30, t0=0.12, fit_t0=True,
               fit_irf=True),
        TACase("lt85k_small", (2.90, 1.6e8), (8.0, 4.0e7), early=40, late=80, wavelengths=24),
        TACase("rt_large_t0", (1.1, 4.63e7), (3.0, 1.0e7), t0=-0.1, fit_t0=True, early=120,
               late=280, wavelengths=80),
    )
    lifetime_tolerance = 0.02
    residual_factor = 1.1

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.truth = {}
        for case in self.cases:
            w = np.linspace(430.0, 700.0, case.wavelengths)
            t = np.concatenate([np.linspace(-2.0, 12.0, case.early),
                                np.geomspace(12.5, 5.0 * case.lifetimes[-1], case.late)])
            bands = [
                np.exp(-0.5 * ((w - 500.0) / 30.0) ** 2) - 0.6 * np.exp(-0.5 * ((w - 650.0) / 40.0) ** 2),
                0.8 * np.exp(-0.5 * ((w - 540.0) / 35.0) ** 2),
                -0.5 * np.exp(-0.5 * ((w - 600.0) / 25.0) ** 2),
            ]
            eas = np.vstack(bands[:len(case.lifetimes)])
            clean = sequential_concentrations(case.lifetimes, case.irf, case.t0, t) @ eas
            sigma = NOISE * np.abs(clean).max()
            data = clean + sigma * rng.standard_normal(clean.shape)
            rows = ["time_ps," + ",".join(f"{x:.10e}" for x in w)]
            rows += [f"{ti:.10e}," + ",".join(f"{x:.10e}" for x in row) for ti, row in zip(t, data)]
            (self.workdir / f"{case.name}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
            kinetics = {
                "lifetimes_ps": " ".join(repr(float(x)) for x in case.start),
                "irf_fwhm_ps": 0.25,
                "t0_ps": 0.0,
                "fit_t0": str(case.fit_t0).lower(),
                "fit_irf": str(case.fit_irf).lower(),
            }
            write_config(self.workdir / f"{case.name}.cfg", {
                "meta": {"schema_version": 1, "model": "quartet-dimer"},
                "kinetics": kinetics,
                "output": {"prefix": case.name},
            })
            # Residual norm expected from the injected noise alone, with the
            # linear EAS and the nonlinear parameters taken out.
            n_params = eas.size + len(case.lifetimes) + case.fit_t0 + case.fit_irf
            self.truth[case.name] = (eas, sigma * math.sqrt(data.size - n_params))

    def warmup(self) -> list[list[str]]:
        name = "lt85k_small"
        return [["fit-ta", "--config", str(self.workdir / f"{name}.cfg"),
                 "--data", str(self.workdir / f"{name}.csv"), "--out-dir", str(self.workdir / "warmup")]]

    def round(self, index: int) -> list[Call]:
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        return [
            Call(["fit-ta", "--config", str(self.workdir / f"{c.name}.cfg"),
                  "--data", str(self.workdir / f"{c.name}.csv"), "--out-dir", str(out)],
                 lambda c=c: self._check(out, c))
            for c in self.cases
        ]

    def _check(self, out: Path, case: TACase) -> list[str]:
        report_path = out / f"{case.name}_kinetics.txt"
        eas_path = out / f"{case.name}_eas.csv"
        if not (report_path.is_file() and eas_path.is_file()):
            return ["kinetics report or EAS not written"]
        report = read_report(report_path)
        eas_true, expected_norm = self.truth[case.name]
        problems = []
        for k, tau in enumerate(case.lifetimes):
            got = float(report[f"tau_{k + 1}"].split()[0])
            if not abs(got - tau) <= self.lifetime_tolerance * tau:
                problems.append(f"tau_{k + 1} = {got:.6g} vs {tau:.6g}")
        table = np.loadtxt(eas_path, delimiter=",", skiprows=1, ndmin=2)
        if table.shape != (eas_true.shape[1], eas_true.shape[0] + 1):
            return problems + [f"EAS table shape {table.shape}"]
        corr = min(float(np.corrcoef(eas_true[k], table[:, k + 1])[0, 1]) for k in range(len(eas_true)))
        if not corr > 0.99:
            problems.append(f"EAS correlation {corr:.4f}")
        ratio = float(report["residual_norm"]) / expected_norm
        if not 1 / self.residual_factor <= ratio <= self.residual_factor:
            problems.append(f"residual norm {ratio:.3f} x the injected noise")
        return problems


WORKLOADS = {
    "powder-photo": PowderPhoto,
    "weak-thermal": WeakThermal,
    "trepr-fit": TreprFit,
    "ta-fit": TAFit,
}
