"""Command-line front end.

Subcommands::

    quartetsim simulate  --config run.cfg [--out-dir DIR]
    quartetsim fit-trepr --config run.cfg --data s1.csv [s2.csv ...]
    quartetsim fit-ta    --config run.cfg --data ta.csv
    quartetsim dipole    --r-nm 0.84 [--g1 G] [--g2 G]
    quartetsim validate  --config run.cfg

Exit codes: 0 success, 2 validation failure (config, data or usage),
3 numerical failure, 4 fit did not converge.  Validation errors list every
violation, one ``error: validation: ...`` line per problem, on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__, configio, dataio, fitting
from . import kinetics as kin
from . import polarization as pol
from . import spectra as sp
from . import spincore

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_NONCONVERGENCE = 4


class NumericalError(RuntimeError):
    """Linear algebra or floating-point breakdown during computation."""


class NonConvergence(RuntimeError):
    """Optimizer stopped without meeting its tolerance."""


def _compute(fn):
    try:
        return fn()
    except (np.linalg.LinAlgError, FloatingPointError, ValueError) as exc:
        raise NumericalError(str(exc)) from exc


def _out_paths(cfg: configio.RunConfig, override_dir: str | None) -> tuple[str, bool]:
    """The path stem of every output, and whether to write plot scripts."""
    out_dir, prefix, want_plot = cfg.output_paths()
    out_dir = override_dir or out_dir
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, prefix), want_plot


def _save(manifest: dataio.RunManifest, path: str, write, *args) -> None:
    write(path, *args)
    manifest.add_output(path)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# ------------------------------------------------------------- simulate


_SIMULATE_SECTIONS = {
    "quartet-dimer": ("system", "polarization", "sweep", "scheme"),
    "triplet": ("system", "polarization", "sweep"),
    "cw-doublet": ("system", "sweep"),
}


def _cmd_simulate(args) -> int:
    cfg = configio.parse_config(args.config)
    configio.require_sections(cfg, *_SIMULATE_SECTIONS[cfg.model])
    sweep = cfg.build_sweep()
    manifest = dataio.RunManifest("simulate", args.config)

    if cfg.model == "quartet-dimer":
        system, model, scheme = cfg.build_system(), cfg.build_polarization(), cfg.build_scheme()
        spectrum = _compute(lambda: sp.simulate_dimer(system, model, sweep, scheme))
    else:
        # The [system] and [polarization] keys of these models name the
        # parameters of their simulate functions.
        grid_size = cfg.build_scheme("powder").grid_size
        s, polar = cfg.sections["system"], cfg.sections.get("polarization", {})
        if cfg.model == "triplet":
            populations = cfg.build_polarization()
            spectrum = _compute(lambda: sp.simulate_triplet(
                **s, populations=populations, sweep=sweep, grid_size=grid_size))
        else:
            g_t, a_t = spincore.InteractionTensor(s["g"]), spincore.InteractionTensor(s["a_mhz"])
            spectrum = _compute(lambda: sp.simulate_cw_doublet(g_t, a_t, sweep, grid_size, **polar))

    if not np.all(np.isfinite(spectrum.intensity)):
        raise NumericalError("simulation produced non-finite intensities")

    stem, want_plot = _out_paths(cfg, args.out_dir)
    _save(manifest, stem + ".csv", dataio.save_spectrum_csv, spectrum)
    _save(manifest, stem + ".meta.json", dataio.save_metadata, {"model": cfg.model, **spectrum.metadata})
    if want_plot:
        derivative = bool(spectrum.metadata.get("derivative", False))
        _save(manifest, stem + ".gp", dataio.write_plot_script,
              os.path.basename(stem) + ".csv", cfg.model, derivative)
    manifest.write(stem + ".manifest.json")
    print(f"wrote {stem}.csv")
    return EXIT_OK


# ------------------------------------------------------------ fit-trepr


def _fit_start(cfg: configio.RunConfig) -> tuple[pol.PhotoQuartetPolarization, fitting.FitSettings]:
    """Start values and solver settings; raises on any config fit-trepr rejects before computing."""
    if cfg.model != "quartet-dimer":
        raise configio.ConfigError(["fit-trepr requires model = quartet-dimer"])
    scheme_section = () if cfg.get("fit", "schemes") else ("scheme",)
    configio.require_sections(cfg, "system", "polarization", "sweep", "fit", *scheme_section)
    start = cfg.build_polarization()
    if not isinstance(start, pol.PhotoQuartetPolarization):
        raise configio.ConfigError(["[polarization] kind: fit-trepr needs photo start values"])
    return start, fitting.FitSettings(**configio._fields_from(fitting.FitSettings, cfg.sections["fit"]))


def _fit_schemes(cfg: configio.RunConfig, n_data: int) -> list[sp.OrientationScheme]:
    tokens = cfg.get("fit", "schemes")
    if tokens is None:
        if n_data != 1:
            raise configio.ConfigError(
                ["[fit] schemes: required when fitting more than one data file"])
        return [cfg.build_scheme()]
    if len(tokens) != n_data:
        raise configio.ConfigError(
            [f"[fit] schemes: {len(tokens)} entries for {n_data} data files"])
    return [cfg.build_scheme(kind) for kind in tokens]


def _cmd_fit_trepr(args) -> int:
    cfg = configio.parse_config(args.config)
    start, settings = _fit_start(cfg)
    system, sweep = cfg.build_system(), cfg.build_sweep()
    schemes = _fit_schemes(cfg, len(args.data))
    fit_sec = cfg.sections["fit"]
    weights = [{"weight": w} for w in fit_sec.get("weights", ())] or [{}] * len(schemes)

    manifest = dataio.RunManifest("fit-trepr", args.config)
    datasets = []
    for path, scheme, weight in zip(args.data, schemes, weights):
        spectrum = dataio.load_spectrum_csv(path)
        manifest.add_input(path)
        name = os.path.splitext(os.path.basename(path))[0]
        datasets.append(fitting.FitDataset(name, spectrum, scheme, **weight))

    problem = fitting.FitProblem(
        system=system,
        sweep=sweep,
        datasets=tuple(datasets),
        start_params=start.params,
        start_nuclear=start.nuclear,
        free=fit_sec["free"],
        settings=settings,
    )
    model = _compute(lambda: fitting.FitModel.build(problem))
    result = _compute(lambda: fitting.fit_simultaneous(problem, model))
    best = _compute(lambda: fitting.evaluate_model(
        problem, result.params, result.nuclear, result.scales, model))
    report = fitting.fit_report(problem, result)
    print(report)

    stem, want_plot = _out_paths(cfg, args.out_dir)
    _save(manifest, stem + "_fit_report.txt", _write_text, report)
    for ds, curve in zip(problem.datasets, best):
        csv_path = f"{stem}_fit_{ds.name}.csv"
        _save(manifest, csv_path, dataio.save_spectrum_csv, sp.Spectrum(ds.spectrum.field_mt, curve))
        if want_plot:
            _save(manifest, f"{stem}_fit_{ds.name}.gp", dataio.write_plot_script,
                  os.path.basename(csv_path), f"fit: {ds.name}")
    manifest.write(stem + "_fit.manifest.json")
    if not result.converged:
        raise NonConvergence(result.message or "fit did not converge")
    return EXIT_OK


# --------------------------------------------------------------- fit-ta


def _cmd_fit_ta(args) -> int:
    cfg = configio.parse_config(args.config)
    configio.require_sections(cfg, "kinetics")
    k = cfg.sections["kinetics"]
    model0, settings = cfg.build_kinetic_model(), cfg.kinetic_settings()

    data, unit = dataio.load_ta_csv(args.data)
    manifest = dataio.RunManifest("fit-ta", args.config)
    manifest.add_input(args.data)

    flags = {name: k[name] for name in ("fit_t0", "fit_irf") if name in k}
    result = _compute(lambda: kin.global_fit(data, model0, settings=settings, **flags))
    report = kin.kinetic_report(result, time_unit="ps")
    print(report)

    stem, _ = _out_paths(cfg, args.out_dir)
    _save(manifest, stem + "_kinetics.txt", _write_text, report)
    _save(manifest, stem + "_eas.csv", dataio.save_eas_csv, data.wavelengths, result.eas)
    _save(manifest, stem + "_concentrations.csv", dataio.save_concentrations_csv,
          data.times, result.concentrations, unit)
    manifest.write(stem + "_ta.manifest.json")
    if not result.converged:
        raise NonConvergence(result.message or "kinetic fit did not converge")
    return EXIT_OK


# ------------------------------------------------------- dipole/validate


def _cmd_dipole(args) -> int:
    print(f"{spincore.point_dipole_coupling(args.r_nm, args.g1, args.g2):.6f}")
    return EXIT_OK


def _section_builds(cfg: configio.RunConfig) -> list:
    """The build step of every section present, as simulate, fit-trepr and fit-ta run it."""
    builds = [cfg.build_sweep] if cfg.has("sweep") else []
    if cfg.model == "quartet-dimer":
        for section, build in (("system", cfg.build_system),
                               ("polarization", cfg.build_polarization),
                               ("scheme", cfg.build_scheme)):
            if cfg.has(section):
                builds.append(build)
    else:
        builds.append(lambda: cfg.build_scheme("powder"))
        if cfg.model == "triplet" and cfg.has("polarization"):
            builds.append(cfg.build_polarization)
    if cfg.has("fit"):
        builds.append(lambda: _fit_start(cfg))
        builds += [lambda kind=kind: cfg.build_scheme(kind) for kind in cfg.get("fit", "schemes", ())]
    if cfg.has("kinetics"):
        builds += [cfg.build_kinetic_model, cfg.kinetic_settings]
    return builds


def _cmd_validate(args) -> int:
    cfg = configio.parse_config(args.config)
    violations = []
    for build in _section_builds(cfg):
        try:
            build()
        except configio.ConfigError as exc:
            violations += exc.violations
        except ValueError as exc:
            violations.append(str(exc))
    if violations:
        raise configio.ConfigError(violations)
    print(f"config ok: model = {cfg.model}")
    if cfg.model == "quartet-dimer" and cfg.has("system"):
        system = cfg.build_system()
        field = 340.0
        if cfg.has("sweep"):
            s = cfg.sections["sweep"]
            field = 0.5 * (s["field_start_mt"] + s["field_stop_mt"])
        report = spincore.validate_strong_exchange(system, field)
        verdict = "yes" if report.strong else "no"
        print(f"exchange = {report.exchange_mhz:.1f} MHz at {field:.1f} mT; "
              f"strong-exchange regime: {verdict} (threshold {report.threshold:g})")
        for name in sorted(report.ratios):
            ratio = report.ratios[name]
            shown = "inf" if math.isinf(ratio) else f"{ratio:.3g}"
            print(f"  |J| / {name} = {shown}")
    return EXIT_OK


# ---------------------------------------------------------------- entry


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quartetsim",
        description="Spin-polarized quartet EPR simulation and global fitting.",
    )
    parser.add_argument("--version", action="version", version=f"quartetsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a spectrum from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit-trepr", help="global fit of transient EPR spectra")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, nargs="+")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_fit_trepr)

    p = sub.add_parser("fit-ta", help="global kinetic fit of a TA map")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_fit_ta)

    p = sub.add_parser("dipole", help="point-dipole coupling constant in MHz")
    p.add_argument("--r-nm", required=True, type=float)
    p.add_argument("--g1", type=float, default=2.0023)
    p.add_argument("--g2", type=float, default=1.9780)
    p.set_defaults(func=_cmd_dipole)

    p = sub.add_parser("validate", help="check a config and the coupling regime")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_validate)
    return parser


def entry(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except configio.ConfigError as exc:
        for line in exc.violations:
            print(f"error: validation: {line}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError) as exc:
        # Computation runs inside _compute, so a ValueError here is bad input:
        # a builder, a data file, or a library constructor's check.
        print(f"error: validation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except NonConvergence as exc:
        print(f"error: non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(entry())
