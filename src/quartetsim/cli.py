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


def _validated(fn):
    # Builder-stage ValueError means bad user input, not a numerics problem.
    try:
        return fn()
    except configio.ConfigError:
        raise
    except ValueError as exc:
        raise configio.ConfigError([str(exc)]) from exc


def _compute(fn):
    try:
        return fn()
    except (np.linalg.LinAlgError, FloatingPointError, ValueError) as exc:
        raise NumericalError(str(exc)) from exc


def _out_paths(cfg: configio.RunConfig, override_dir: str | None) -> tuple[str, str, bool]:
    out_dir, prefix, want_plot = cfg.output_paths()
    if override_dir:
        out_dir = override_dir
    os.makedirs(out_dir, exist_ok=True)
    return out_dir, prefix, want_plot


def _write_report(path: str, report: str, manifest: dataio.RunManifest) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report + "\n")
    manifest.add_output(path)


# ------------------------------------------------------------- simulate


_SIMULATE_SECTIONS = {
    "quartet-dimer": ("system", "polarization", "sweep", "scheme"),
    "triplet": ("system", "polarization", "sweep"),
    "cw-doublet": ("system", "sweep"),
}


def _cmd_simulate(args) -> int:
    cfg = configio.parse_config(args.config)
    configio.require_sections(cfg, *_SIMULATE_SECTIONS[cfg.model])
    sweep = _validated(cfg.build_sweep)
    manifest = dataio.RunManifest("simulate", args.config)

    if cfg.model == "quartet-dimer":
        system = _validated(cfg.build_system)
        model = _validated(cfg.build_polarization)
        scheme = _validated(cfg.build_scheme)
        spectrum = _compute(lambda: sp.simulate_dimer(system, model, sweep, scheme))
    else:
        # The [system] and [polarization] keys of these models name the
        # parameters of their simulate functions.
        grid_size = _validated(lambda: cfg.build_scheme("powder")).grid_size
        s, polar = cfg.sections["system"], cfg.sections.get("polarization", {})
        if cfg.model == "triplet":
            spectrum = _compute(lambda: sp.simulate_triplet(**s, **polar, sweep=sweep, grid_size=grid_size))
        else:
            g_t, a_t = spincore.InteractionTensor(s["g"]), spincore.InteractionTensor(s["a_mhz"])
            spectrum = _compute(lambda: sp.simulate_cw_doublet(g_t, a_t, sweep, grid_size, **polar))

    if not np.all(np.isfinite(spectrum.intensity)):
        raise NumericalError("simulation produced non-finite intensities")

    out_dir, prefix, want_plot = _out_paths(cfg, args.out_dir)
    csv_path = os.path.join(out_dir, prefix + ".csv")
    dataio.save_spectrum_csv(csv_path, spectrum)
    manifest.add_output(csv_path)
    meta_path = os.path.join(out_dir, prefix + ".meta.json")
    dataio.save_metadata(meta_path, {"model": cfg.model, **spectrum.metadata})
    manifest.add_output(meta_path)
    if want_plot:
        plot_path = os.path.join(out_dir, prefix + ".gp")
        derivative = bool(spectrum.metadata.get("derivative", False))
        dataio.write_plot_script(plot_path, prefix + ".csv", cfg.model, derivative)
        manifest.add_output(plot_path)
    manifest.write(os.path.join(out_dir, prefix + ".manifest.json"))
    print(f"wrote {csv_path}")
    return EXIT_OK


# ------------------------------------------------------------ fit-trepr


def _fit_settings(cfg: configio.RunConfig) -> fitting.FitSettings:
    return fitting.FitSettings(**configio._fields_from(fitting.FitSettings, cfg.sections["fit"]))


def _fit_schemes(cfg: configio.RunConfig, n_data: int) -> list[sp.OrientationScheme]:
    tokens = cfg.get("fit", "schemes")
    if tokens is None:
        if n_data != 1:
            raise configio.ConfigError(
                ["[fit] schemes: required when fitting more than one data file"])
        configio.require_sections(cfg, "scheme")
        return [_validated(cfg.build_scheme)]
    if len(tokens) != n_data:
        raise configio.ConfigError(
            [f"[fit] schemes: {len(tokens)} entries for {n_data} data files"])
    return [_validated(lambda kind=k: cfg.build_scheme(kind)) for k in tokens]


def _cmd_fit_trepr(args) -> int:
    cfg = configio.parse_config(args.config)
    if cfg.model != "quartet-dimer":
        raise configio.ConfigError(["fit-trepr requires model = quartet-dimer"])
    configio.require_sections(cfg, "system", "polarization", "sweep", "fit")
    start = _validated(cfg.build_polarization)
    if not isinstance(start, pol.PhotoQuartetPolarization):
        raise configio.ConfigError(["[polarization] kind: fit-trepr needs photo start values"])

    system = _validated(cfg.build_system)
    sweep = _validated(cfg.build_sweep)
    schemes = _fit_schemes(cfg, len(args.data))
    fit_sec = cfg.sections["fit"]
    weights = [{"weight": w} for w in fit_sec.get("weights", ())] or [{}] * len(schemes)

    manifest = dataio.RunManifest("fit-trepr", args.config)
    datasets = []
    for path, scheme, weight in zip(args.data, schemes, weights):
        spectrum = dataio.load_spectrum_csv(path)
        manifest.add_input(path)
        name = os.path.splitext(os.path.basename(path))[0]
        datasets.append(_validated(lambda: fitting.FitDataset(name, spectrum, scheme, **weight)))

    problem = _validated(lambda: fitting.FitProblem(
        system=system,
        sweep=sweep,
        datasets=tuple(datasets),
        start_params=start.params,
        start_nuclear=start.nuclear,
        free=fit_sec["free"],
        settings=_fit_settings(cfg),
    ))
    model = _compute(lambda: fitting.FitModel.build(problem))
    result = _compute(lambda: fitting.fit_simultaneous(problem, model))
    report = fitting.fit_report(problem, result)
    print(report)

    out_dir, prefix, want_plot = _out_paths(cfg, args.out_dir)
    _write_report(os.path.join(out_dir, prefix + "_fit_report.txt"), report, manifest)
    best = fitting.evaluate_model(problem, result.params, result.nuclear, result.scales, model)
    for ds, model_curve in zip(problem.datasets, best):
        path = os.path.join(out_dir, f"{prefix}_fit_{ds.name}.csv")
        dataio.save_spectrum_csv(path, sp.Spectrum(ds.spectrum.field_mt, model_curve))
        manifest.add_output(path)
        if want_plot:
            plot_path = os.path.join(out_dir, f"{prefix}_fit_{ds.name}.gp")
            dataio.write_plot_script(plot_path, os.path.basename(path), f"fit: {ds.name}")
            manifest.add_output(plot_path)
    manifest.write(os.path.join(out_dir, prefix + "_fit.manifest.json"))
    if not result.converged:
        raise NonConvergence(result.message or "fit did not converge")
    return EXIT_OK


# --------------------------------------------------------------- fit-ta


def _cmd_fit_ta(args) -> int:
    cfg = configio.parse_config(args.config)
    configio.require_sections(cfg, "kinetics")
    k = cfg.sections["kinetics"]
    model0 = _validated(cfg.build_kinetic_model)
    settings = _validated(cfg.kinetic_settings)

    data, unit = dataio.load_ta_csv(args.data)
    manifest = dataio.RunManifest("fit-ta", args.config)
    manifest.add_input(args.data)

    flags = {name: k[name] for name in ("fit_t0", "fit_irf") if name in k}
    result = _compute(lambda: kin.global_fit(data, model0, settings=settings, **flags))
    report = kin.kinetic_report(result, time_unit="ps")
    print(report)

    out_dir, prefix, _ = _out_paths(cfg, args.out_dir)
    _write_report(os.path.join(out_dir, prefix + "_kinetics.txt"), report, manifest)
    eas_path = os.path.join(out_dir, prefix + "_eas.csv")
    dataio.save_eas_csv(eas_path, data.wavelengths, result.eas)
    manifest.add_output(eas_path)
    conc_path = os.path.join(out_dir, prefix + "_concentrations.csv")
    dataio.save_concentrations_csv(conc_path, data.times, result.concentrations, time_unit=unit)
    manifest.add_output(conc_path)
    manifest.write(os.path.join(out_dir, prefix + "_ta.manifest.json"))
    if not result.converged:
        raise NonConvergence(result.message or "kinetic fit did not converge")
    return EXIT_OK


# ------------------------------------------------------- dipole/validate


def _cmd_dipole(args) -> int:
    d = _validated(lambda: spincore.point_dipole_coupling(args.r_nm, args.g1, args.g2))
    print(f"{d:.6f}")
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
    if cfg.has("fit"):
        builds.append(lambda: _fit_settings(cfg))
        builds += [lambda kind=kind: cfg.build_scheme(kind) for kind in cfg.get("fit", "schemes", ())]
    if cfg.has("kinetics"):
        builds += [cfg.build_kinetic_model, cfg.kinetic_settings]
    return builds


def _cmd_validate(args) -> int:
    cfg = configio.parse_config(args.config)
    violations = []
    for build in _section_builds(cfg):
        try:
            _validated(build)
        except configio.ConfigError as exc:
            violations += exc.violations
    if violations:
        raise configio.ConfigError(violations)
    print(f"config ok: model = {cfg.model}")
    if cfg.model == "quartet-dimer" and cfg.has("system"):
        system = _validated(cfg.build_system)
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
    except (dataio.DataError, OSError) as exc:
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
