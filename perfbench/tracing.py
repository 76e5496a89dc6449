"""Span tracing around the layer boundaries of quartetsim, from outside it.

While a :class:`Tracer` is installed, the module-level public functions
named in ``PACKAGE_TARGETS`` (and the ``np.linalg`` eigensolvers, the
kernel boundary) are replaced by wrappers that record one span per call:
name, start, end and the span that was open when it started.  Wrappers
replace every module attribute that refers to the original function, so a
name imported with ``from .spectra import ...`` is wrapped as well.
Uninstalling puts the originals back.  Spans stay in memory; the caller
writes them out when the run ends.

Only calls made in this process are seen.  Work moved into worker
processes is no longer traced.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

# (module, function, span name) of the public functions wrapped while tracing.
PACKAGE_TARGETS = (
    ("spectra", "find_resonances", "spectra.find_resonances"),
    ("spectra", "convolve_lineshape", "spectra.convolve_lineshape"),
    ("spectra", "scheme_orientations", "spectra.scheme_orientations"),
    ("spectra", "simulate_dimer", "spectra.simulate_dimer"),
    ("spectra", "quartet_basis_spectra", "spectra.quartet_basis_spectra"),
    ("spincore", "hamiltonian_parts", "spincore.hamiltonian_parts"),
    ("polarization", "coupled_states_along", "polarization.coupled_states_along"),
    ("polarization", "rho_s_entries", "polarization.rho_s_entries"),
    ("polarization", "field_in_quartet_frame", "polarization.field_in_quartet_frame"),
    ("fitting", "fit_simultaneous", "fitting.fit_simultaneous"),
    ("fitting", "evaluate_model", "fitting.evaluate_model"),
    ("fitting", "minimize", "fitting.minimize"),
    ("kinetics", "global_fit", "kinetics.global_fit"),
    ("kinetics", "concentrations", "kinetics.concentrations"),
    ("kinetics", "eas_solve", "kinetics.eas_solve"),
    ("kinetics", "minimize", "kinetics.minimize"),
    ("configio", "parse_config", "configio.parse_config"),
    ("dataio", "save_spectrum_csv", "dataio.write"),
    ("dataio", "save_metadata", "dataio.write"),
    ("dataio", "save_eas_csv", "dataio.write"),
    ("dataio", "save_concentrations_csv", "dataio.write"),
    ("dataio", "write_plot_script", "dataio.write"),
    ("dataio", "load_spectrum_csv", "dataio.read"),
    ("dataio", "load_ta_csv", "dataio.read"),
    ("dataio", "sha256_file", "dataio.sha256"),
)

# Unit of every per-layer metric the traced run reports.
LAYER_UNITS = {
    "spectra.search_s": "s",
    "spectra.search_calls": "count",
    "spectra.grid_eig_s": "s",
    "spectra.grid_matrices": "count",
    "spectra.bracket_eig_s": "s",
    "spectra.bracket_matrices": "count",
    "spectra.search_self_s": "s",
    "spectra.sticks": "count",
    "spectra.discarded_flat": "count",
    "spectra.sticks_per_matrix": "ratio",
    "spectra.eig_gflop": "GFLOP",
    "spectra.orientations": "count",
    "spectra.convolve_s": "s",
    "spectra.average_self_s": "s",
    "spectra.basis_builds": "count",
    "spectra.basis_s": "s",
    "spectra.stick_field_err_mt": "mT",
    "spincore.hamiltonian_s": "s",
    "spincore.hamiltonian_calls": "count",
    "polarization.channels_s": "s",
    "polarization.calls": "count",
    "fitting.fit_s": "s",
    "fitting.optimizer_s": "s",
    "fitting.evaluations": "count",
    "fitting.starts": "count",
    "fitting.starts_converged": "count",
    "fitting.basis_builds_per_scheme": "ratio",
    "fitting.evaluate_model_s": "s",
    "kinetics.fit_s": "s",
    "kinetics.evaluations": "count",
    "kinetics.concentrations_s": "s",
    "kinetics.lstsq_s": "s",
    "kinetics.starts_converged": "count",
    "configio.parse_s": "s",
    "dataio.io_s": "s",
    "dataio.bytes_written": "bytes",
    "cli.calls": "count",
    "process.cpu_s": "s",
    "process.cpu_util": "ratio",
    "trace.overhead_pct": "%",
}

# Real floating-point operations per n x n complex Hermitian matrix, from the
# textbook LAPACK counts: tridiagonal reduction 16/3 n^3, and about four
# times that when eigenvectors are formed as well.  Computed, not measured.
EIGVALSH_FLOPS = 16.0 / 3.0
EIGH_FLOPS = 64.0 / 3.0


def _matrices(a) -> tuple[int, int]:
    shape = np.shape(a)
    return int(np.prod(shape[:-2], dtype=np.int64)), int(shape[-1])


def _attrs(name: str, args, kwargs, result) -> dict:
    """Counts read from a wrapped call's arguments and return value."""
    if name in ("linalg.eigvalsh", "linalg.eigh"):
        count, n = _matrices(args[0])
        return {"matrices": count, "n": n}
    if name == "spectra.find_resonances":
        sticks, diag = result
        return {"sticks": len(sticks), "discarded": diag.n_discarded_slope}
    if name == "spectra.scheme_orientations":
        return {"orientations": len(result[0])}
    if name == "fitting.fit_simultaneous":
        problem = args[0] if args else kwargs["problem"]
        return {
            "evaluations": result.n_evaluations,
            "starts": len(result.start_costs),
            "schemes": len({ds.scheme for ds in problem.datasets}),
        }
    if name in ("fitting.minimize", "kinetics.minimize"):
        return {"success": int(bool(result.success))}
    if name == "kinetics.global_fit":
        return {"evaluations": result.n_evaluations}
    if name == "dataio.write" or name == "dataio.manifest":
        path = args[1] if name == "dataio.manifest" else args[0]
        return {"bytes": os.path.getsize(path)}
    return {}


class Tracer:
    """Records spans ``[name, start, end, parent, attrs]`` while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, {}])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            spans[idx][4] = _attrs(name, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "quartetsim" or n.startswith("quartetsim."))]
        for mod_name, func, span in PACKAGE_TARGETS:
            home = sys.modules[f"quartetsim.{mod_name}"]
            original = getattr(home, func)
            wrapper = self.wrap(span, original)
            if func == "minimize":
                # scipy's minimize is shared by two modules; give each its own span.
                self._patch(home, func, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        manifest = sys.modules["quartetsim.dataio"].RunManifest
        self._patch(manifest, "write", self.wrap("dataio.manifest", manifest.write))
        self._patch(np.linalg, "eigvalsh", self.wrap("linalg.eigvalsh", np.linalg.eigvalsh))
        self._patch(np.linalg, "eigh", self.wrap("linalg.eigh", np.linalg.eigh))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def layer_metrics(spans: list[list], rounds: int) -> dict[str, float]:
    """Per-layer figures per traced round, derived from the recorded spans."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        children.setdefault(span[3], []).append(i)

    def dur(i: int) -> float:
        return spans[i][2] - spans[i][1]

    def self_time(i: int) -> float:
        return dur(i) - sum(dur(c) for c in children.get(i, ()))

    def named(*names: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s[0] in names]

    def under(i: int, parents: tuple[str, ...]) -> bool:
        return spans[i][3] >= 0 and spans[spans[i][3]][0] in parents

    def total(idx, key=None) -> float:
        # A call that raised has no counts.
        return float(sum(spans[i][4].get(key, 0) if key else dur(i) for i in idx))

    search = named("spectra.find_resonances")
    grid = [i for i in named("linalg.eigvalsh") if under(i, ("spectra.find_resonances",))]
    bracket = [i for i in named("linalg.eigh") if under(i, ("spectra.find_resonances",))]
    averages = named("spectra.simulate_dimer", "spectra.quartet_basis_spectra")
    orientations = [i for i in named("spectra.scheme_orientations")
                    if under(i, ("spectra.simulate_dimer", "spectra.quartet_basis_spectra"))]
    bases = named("spectra.quartet_basis_spectra")
    fits = named("fitting.fit_simultaneous")
    fit_builds = [i for i in bases if under(i, ("fitting.fit_simultaneous",))]
    channels = named("polarization.coupled_states_along", "polarization.rho_s_entries",
                     "polarization.field_in_quartet_frame")
    io = [i for i in named("dataio.write", "dataio.read", "dataio.sha256", "dataio.manifest")
          if not under(i, ("dataio.write", "dataio.read", "dataio.sha256", "dataio.manifest"))]
    grid_matrices = total(grid, "matrices")
    bracket_matrices = total(bracket, "matrices")
    sticks = total(search, "sticks")
    flops = sum(spans[i][4].get("matrices", 0) * spans[i][4].get("n", 0) ** 3 * per_matrix
                for idx, per_matrix in ((grid, EIGVALSH_FLOPS), (bracket, EIGH_FLOPS)) for i in idx)
    schemes = total(fits, "schemes")
    figures = {
        "spectra.search_s": total(search),
        "spectra.search_calls": len(search),
        "spectra.grid_eig_s": total(grid),
        "spectra.grid_matrices": grid_matrices,
        "spectra.bracket_eig_s": total(bracket),
        "spectra.bracket_matrices": bracket_matrices,
        "spectra.search_self_s": sum(self_time(i) for i in search),
        "spectra.sticks": sticks,
        "spectra.discarded_flat": total(search, "discarded"),
        "spectra.eig_gflop": flops / 1e9,
        "spectra.orientations": total(orientations, "orientations"),
        "spectra.convolve_s": total(named("spectra.convolve_lineshape")),
        "spectra.average_self_s": sum(self_time(i) for i in averages),
        "spectra.basis_builds": len(bases),
        "spectra.basis_s": total(bases),
        "spincore.hamiltonian_s": total(named("spincore.hamiltonian_parts")),
        "spincore.hamiltonian_calls": len(named("spincore.hamiltonian_parts")),
        "polarization.channels_s": total(channels),
        "polarization.calls": len(channels),
        "fitting.fit_s": total(fits) - total(fit_builds),
        "fitting.optimizer_s": total(named("fitting.minimize")),
        "fitting.evaluations": total(fits, "evaluations"),
        "fitting.starts": total(fits, "starts"),
        "fitting.starts_converged": total(named("fitting.minimize"), "success"),
        "fitting.evaluate_model_s": total(named("fitting.evaluate_model")),
        "kinetics.fit_s": total(named("kinetics.global_fit")),
        "kinetics.evaluations": total(named("kinetics.global_fit"), "evaluations"),
        "kinetics.concentrations_s": total(named("kinetics.concentrations")),
        "kinetics.lstsq_s": total(named("kinetics.eas_solve")),
        "kinetics.starts_converged": total(named("kinetics.minimize"), "success"),
        "configio.parse_s": total(named("configio.parse_config")),
        "dataio.io_s": total(io),
        "dataio.bytes_written": total(named("dataio.write", "dataio.manifest"), "bytes"),
        "cli.calls": len(named("cli.entry")),
    }
    per_round = {name: value / rounds for name, value in figures.items()}
    # Ratios are taken over the whole traced run, not averaged per round.
    matrices = grid_matrices + bracket_matrices
    per_round["spectra.sticks_per_matrix"] = sticks / matrices if matrices else 0.0
    per_round["fitting.basis_builds_per_scheme"] = len(bases) / schemes if schemes else 0.0
    return per_round
