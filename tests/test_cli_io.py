"""Config grammar, CSV formats, manifests and the command-line interface."""

import ast
import dataclasses
import inspect
import json
import math
import os
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import quartetsim
from quartetsim import cli, configio, dataio, fitting
from quartetsim import kinetics as kin
from quartetsim import polarization as pol
from quartetsim import spectra as sp
from quartetsim import spincore

BUNDLED = os.path.join(os.path.dirname(spincore.__file__), "data", "published_dimer.cfg")
BUNDLED_TA = os.path.join(os.path.dirname(spincore.__file__), "data", "ta_biexponential.cfg")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _dimer_cfg(outdir, scheme_block, sweep_extra="", extra=""):
    return f"""
[meta]
schema_version = 1
model = quartet-dimer

[system]
exchange_invcm = 1.0
dipolar_mhz = 90.0
zfs_d_mhz = 1135.0
zfs_e_mhz = 235.0
g_fp = 2.0023
g_vo = 1.985 1.985 1.964
a_vo_mhz = 162.0 162.0 475.0
alpha_deg = 45.0
beta_deg = 60.0

[polarization]
kind = photo
a = 0.11 -0.002 -0.027
r = 0.0 -0.01 0.0
rho_n = 0.146 0.078 0.194 0.126 0.117 0.165 0.078 0.097

[sweep]
mw_frequency_ghz = 9.5
field_start_mt = 240.0
field_stop_mt = 440.0
n_points = 256
linewidth_mt = 1.8
search_points = 301
{sweep_extra}

{scheme_block}

[output]
directory = {outdir}
prefix = demo
{extra}
"""


SINGLE_SCHEME = "[scheme]\nkind = single\ntheta_deg = 50.0\nphi_deg = 20.0"


# ------------------------------------------------------------ config layer


def test_bundled_config_round_trip():
    cfg = configio.parse_config(BUNDLED)
    assert cfg.model == "quartet-dimer"
    text = configio.emit_config(cfg)
    again = configio.parse_config_text(text)
    assert again == cfg
    assert configio.emit_config(again) == text


def test_bundled_ta_config_builds(capsys):
    cfg = configio.parse_config(BUNDLED_TA)
    model = cfg.build_kinetic_model()
    assert model.n_compartments == 2
    assert cli.entry(["validate", "--config", BUNDLED_TA]) == 0
    assert "config ok" in capsys.readouterr().out


def test_all_violations_reported_together():
    bad = """
[meta]
schema_version = 2
model = quartet-dimer

[system]
exchange_invcm = 1.0
dipolar_mhz = ninety
zfs_d_mhz = 1135
zfs_e_mhz = 235
g_fp = 2.0023
g_vo = 1.985 1.985
a_vo_mhz = 162 162 475
alpha_deg = 45
bogus_key = 3

[sweep]
mw_frequency_ghz = 9.5
field_start_mt = 440
field_stop_mt = 240
linewidth_mt = -1.0

[mystery]
x = 1
"""
    with pytest.raises(configio.ConfigError) as err:
        configio.parse_config_text(bad)
    text = "\n".join(err.value.violations)
    assert len(err.value.violations) >= 7
    assert "linewidth must be > 0" in text
    assert "[system] bogus_key: unknown key" in text
    assert "unknown section [mystery]" in text
    assert "beta_deg: required key missing" in text
    assert "dipolar_mhz" in text and "ninety" in text
    assert "schema_version" in text
    assert "start < stop" in text


def test_unknown_model_rejected():
    with pytest.raises(configio.ConfigError, match="model"):
        configio.parse_config_text("[meta]\nschema_version = 1\nmodel = pentagon\n")


def test_missing_meta_rejected():
    with pytest.raises(configio.ConfigError, match=r"\[meta\]"):
        configio.parse_config_text("[sweep]\nmw_frequency_ghz = 9.5\n")


def test_rho_n_sum_checked():
    text = _dimer_cfg("/tmp", SINGLE_SCHEME).replace(
        "rho_n = 0.146 0.078 0.194 0.126 0.117 0.165 0.078 0.097",
        "rho_n = 0.2 0.2 0.2 0.2 0.2 0.2 0.2 0.2",
    )
    with pytest.raises(configio.ConfigError, match="must sum to 1"):
        configio.parse_config_text(text)


def test_single_scheme_requires_theta():
    text = _dimer_cfg("/tmp", "[scheme]\nkind = single")
    cfg = configio.parse_config_text(text)
    with pytest.raises(configio.ConfigError, match="theta_deg"):
        cfg.build_scheme()


def test_weights_require_matching_schemes():
    text = _dimer_cfg("/tmp", SINGLE_SCHEME) + "\n[fit]\nfree = a2\nschemes = powder single\nweights = 1.0\n"
    with pytest.raises(configio.ConfigError, match="weights"):
        configio.parse_config_text(text)


def test_triplet_rejects_aligned_scheme():
    text = """
[meta]
schema_version = 1
model = triplet
[system]
g = 2.0023
zfs_d_mhz = 1153
zfs_e_mhz = 115
[polarization]
populations = 0 0 1
[scheme]
kind = parallel
"""
    with pytest.raises(configio.ConfigError, match="powder"):
        configio.parse_config_text(text)


def test_boolean_and_float_formatting_round_trip():
    text = _dimer_cfg("/tmp/x", SINGLE_SCHEME, extra="plot_script = yes")
    cfg = configio.parse_config_text(text)
    assert cfg.get("output", "plot_script") is True
    emitted = configio.emit_config(cfg)
    assert "plot_script = true" in emitted
    assert configio.parse_config_text(emitted) == cfg


# -------------------------------------------------------------- data layer


def test_spectrum_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    spec = sp.Spectrum(np.linspace(240.0, 440.0, 1024), rng.standard_normal(1024) * 1e-3)
    path = tmp_path / "spec.csv"
    dataio.save_spectrum_csv(path, spec)
    loaded = dataio.load_spectrum_csv(path)
    assert_allclose(loaded.field_mt, spec.field_mt, rtol=1e-9)
    assert_allclose(loaded.intensity, spec.intensity, rtol=1e-9)
    # a second save of the loaded data is byte-identical
    path2 = tmp_path / "spec2.csv"
    dataio.save_spectrum_csv(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_spectrum_csv_error_rows(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("field,intensity\n1,2\n")
    with pytest.raises(dataio.DataError, match="header"):
        dataio.load_spectrum_csv(path)

    path.write_text("field_mT,intensity\n1.0,2.0\n2.0,3.0,4.0\n")
    with pytest.raises(dataio.DataError, match="row 3: expected 2 columns"):
        dataio.load_spectrum_csv(path)

    path.write_text("field_mT,intensity\n1.0,2.0\n2.0,abc\n")
    with pytest.raises(dataio.DataError, match="row 3: non-numeric value 'abc'"):
        dataio.load_spectrum_csv(path)

    path.write_text("field_mT,intensity\n2.0,1.0\n1.0,1.0\n")
    with pytest.raises(dataio.DataError, match="row 3: field axis not strictly increasing"):
        dataio.load_spectrum_csv(path)

    path.write_text("field_mT,intensity\n1.0,1.0\n")
    with pytest.raises(dataio.DataError, match="at least 2"):
        dataio.load_spectrum_csv(path)


def test_ta_csv_round_trip_with_unit(tmp_path):
    model = kin.SequentialModel(lifetimes=(2.0, 800.0), irf_fwhm=0.5)
    w = np.linspace(450, 650, 24)
    t = np.linspace(-5.0, 4000.0, 160)
    eas = np.vstack([np.exp(-((w - 500) / 40) ** 2), -0.5 * np.exp(-((w - 600) / 30) ** 2)])
    data = kin.synthetic_dataset(model, eas, t, w)
    path = tmp_path / "ta.csv"
    dataio.save_ta_csv(path, data, time_unit="ns")
    header = path.read_text().splitlines()[0]
    assert header.startswith("time_ns,")
    loaded, unit = dataio.load_ta_csv(path)
    assert unit == "ns"
    assert_allclose(loaded.times, data.times, rtol=1e-9)
    assert_allclose(loaded.wavelengths, data.wavelengths, rtol=1e-9)
    assert_allclose(loaded.delta_a, data.delta_a, rtol=1e-9, atol=1e-15)


def test_ta_csv_errors(tmp_path):
    path = tmp_path / "ta.csv"
    path.write_text("delay,500\n0,1\n1,2\n")
    with pytest.raises(dataio.DataError, match="time_<unit>"):
        dataio.load_ta_csv(path)

    path.write_text("time_h,500\n0,1\n1,2\n")
    with pytest.raises(dataio.DataError, match="unknown time unit"):
        dataio.load_ta_csv(path)

    path.write_text("time_ps,500,510\n0,1,2\n1,3\n")
    with pytest.raises(dataio.DataError, match="row 3: expected 3 columns"):
        dataio.load_ta_csv(path)

    path.write_text("time_ps,500\n5,1\n2,2\n")
    with pytest.raises(dataio.DataError, match="row 3: time axis"):
        dataio.load_ta_csv(path)


@pytest.mark.parametrize("text, message", [
    ("time_ps,500,510\n0,1,2\n1,abc,3\n", "row 3: non-numeric value 'abc'"),
    ("time_ps,500,510\n0,1,2\n1,2,nan\n", "row 3: non-finite value 'nan'"),
    ("time_ps,500,510\n0,1,2\ninf,2,3\n", "row 3: non-finite value 'inf'"),
    ("time_ps,500,abc\n0,1,2\n1,2,3\n", "row 1: non-numeric value 'abc'"),
    ("time_ps,500,nan\n0,1,2\n1,2,3\n", "row 1: non-finite value 'nan'"),
    ("time_ps,-inf,510\n0,1,2\n1,2,3\n", "row 1: non-finite value '-inf'"),
    ("time_ps,500,510\n0,1,2\n1,nan,3\n2,3\n", "row 3: non-finite value 'nan'"),
    ("time_ps,500,510\n0,1,2\n1,2,3\n2,3,x\n3,4\n", "row 4: non-numeric value 'x'"),
], ids=["data-text", "data-nan", "data-inf", "header-text", "header-nan", "header-inf",
        "nan-before-short-row", "text-before-short-row"])
def test_ta_csv_bad_cells(tmp_path, text, message):
    # The first faulty row in file order is the one named.
    path = tmp_path / "ta.csv"
    path.write_text(text)
    with pytest.raises(dataio.DataError) as err:
        dataio.load_ta_csv(path)
    assert str(err.value) == message


@pytest.mark.parametrize("load, text, message", [
    (dataio.load_ta_csv, "time_ps,500,510\n0,1,2\n\n1,abc,3\n", "row 4: non-numeric value 'abc'"),
    (dataio.load_ta_csv, "time_ps,500,510\n\n0,1,2\n\n\n1,2\n", "row 6: expected 3 columns, found 2"),
    (dataio.load_ta_csv, "time_ps,500\n\n5,1\n\n2,2\n", "row 5: time axis not strictly increasing"),
    (dataio.load_spectrum_csv, "field_mT,intensity\n1,2\n\n2,abc\n", "row 4: non-numeric value 'abc'"),
    (dataio.load_spectrum_csv, "field_mT,intensity\n\n1,2\n\n2,inf\n",
     "row 5: non-finite value 'inf'"),
    (dataio.load_spectrum_csv, "field_mT,intensity\n2,1\n\n\n1,1\n",
     "row 5: field axis not strictly increasing"),
], ids=["ta-text", "ta-columns", "ta-time", "spectrum-text", "spectrum-inf", "spectrum-field"])
def test_csv_rows_numbered_by_file_line(tmp_path, load, text, message):
    # Blank lines are skipped but still counted.
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(dataio.DataError) as err:
        load(path)
    assert str(err.value) == message


@pytest.mark.parametrize("header", ["time_ps,600,500", "time_ps,500,500"],
                         ids=["descending", "duplicate"])
def test_cli_fit_ta_rejects_unordered_wavelengths(tmp_path, capsys, header):
    data_path = tmp_path / "ta.csv"
    data_path.write_text(header + "\n0,1,2\n1,2,3\n2,3,4\n")
    cfg = tmp_path / "ta.cfg"
    cfg.write_text(f"""
[meta]
schema_version = 1
model = quartet-dimer
[kinetics]
lifetimes_ps = 3.0 100.0
[output]
directory = {tmp_path}
""")
    rc = cli.entry(["fit-ta", "--config", str(cfg), "--data", str(data_path)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: validation: row 1: wavelength axis not strictly increasing"
    ]
    assert not list(tmp_path.glob("*_eas.csv"))


def test_manifest_records_checksums(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("[meta]\nschema_version = 1\nmodel = triplet\n")
    out = tmp_path / "out.txt"
    out.write_text("payload")
    manifest = dataio.RunManifest("simulate", str(cfg))
    manifest.add_output(str(out))
    man_path = tmp_path / "run.manifest.json"
    manifest.write(str(man_path))
    body = json.loads(man_path.read_text())
    assert body["tool"] == "quartetsim"
    assert body["command"] == "simulate"
    assert body["inputs"][str(cfg)] == dataio.sha256_file(str(cfg))
    assert body["outputs"][str(out)] == dataio.sha256_file(str(out))


# --------------------------------------------------------------------- CLI


def test_cli_dipole(capsys):
    rc = cli.entry(["dipole", "--r-nm", "0.84"])
    assert rc == 0
    value = float(capsys.readouterr().out.strip())
    assert 85.0 <= value <= 95.0


def test_cli_dipole_rejects_nonpositive(capsys):
    rc = cli.entry(["dipole", "--r-nm", "-1.0"])
    assert rc == 2
    assert "error: validation" in capsys.readouterr().err


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.entry([])


def test_cli_simulate_missing_sweep_names_section(tmp_path, capsys):
    text = _dimer_cfg(tmp_path, SINGLE_SCHEME)
    text = "\n".join(line for line in text.splitlines() if not line.startswith(
        ("mw_frequency_ghz", "field_start_mt", "field_stop_mt", "n_points",
         "linewidth_mt", "search_points", "[sweep]")))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    rc = cli.entry(["simulate", "--config", str(cfg)])
    assert rc == 2
    assert "[sweep]" in capsys.readouterr().err


def test_cli_simulate_reruns_bit_identical(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_dimer_cfg(tmp_path / "a", SINGLE_SCHEME, extra="plot_script = true"))
    assert cli.entry(["simulate", "--config", str(cfg)]) == 0
    assert cli.entry(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for name in ("demo.csv", "demo.meta.json", "demo.gp"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second, name
    man_a = json.loads((tmp_path / "a" / "demo.manifest.json").read_text())
    man_b = json.loads((tmp_path / "b" / "demo.manifest.json").read_text())
    sums_a = {os.path.basename(k): v for k, v in man_a["outputs"].items()}
    sums_b = {os.path.basename(k): v for k, v in man_b["outputs"].items()}
    assert sums_a == sums_b


POWDER16_SCHEME = "[scheme]\nkind = powder\ngrid_size = 16"


def test_cli_simulate_powder_same_on_any_worker_count(tmp_path, monkeypatch, capsys):
    # Two reruns on every CPU and one on the calling thread alone write the same bytes.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_dimer_cfg(tmp_path / "a", POWDER16_SCHEME))
    assert cli.entry(["simulate", "--config", str(cfg)]) == 0
    assert cli.entry(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "b")]) == 0
    monkeypatch.setattr(sp, "_WORKERS", 1)
    assert cli.entry(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "c")]) == 0
    capsys.readouterr()
    for name in ("demo.csv", "demo.meta.json"):
        first = (tmp_path / "a" / name).read_bytes()
        assert first == (tmp_path / "b" / name).read_bytes() == (tmp_path / "c" / name).read_bytes(), name


def test_cli_simulate_worker_error_exit_code(tmp_path, monkeypatch, capsys):
    # A LinAlgError raised at one orientation (a helper thread's, on two or
    # more CPUs) still ends simulate with exit 3; the next run succeeds.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_dimer_cfg(tmp_path, POWDER16_SCHEME))
    parts = spincore.hamiltonian_parts
    bad = sp.scheme_orientations(sp.PowderScheme(16))[0][5]

    def failing_parts(spec, orientation):
        if orientation == bad:
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        return parts(spec, orientation)

    monkeypatch.setattr(spincore, "hamiltonian_parts", failing_parts)
    assert cli.entry(["simulate", "--config", str(cfg)]) == 3
    assert "error: numerical" in capsys.readouterr().err
    monkeypatch.setattr(spincore, "hamiltonian_parts", parts)
    assert cli.entry(["simulate", "--config", str(cfg)]) == 0


TRIPLET_CFG = """
[meta]
schema_version = 1
model = triplet
[system]
g = 2.0023
zfs_d_mhz = 1153
zfs_e_mhz = 115
[polarization]
populations = 0 0 1
[sweep]
mw_frequency_ghz = 9.5
field_start_mt = 150
field_stop_mt = 550
n_points = 512
linewidth_mt = 3.0
search_points = 301
[scheme]
kind = powder
grid_size = {grid_size}
[output]
directory = {outdir}
prefix = trip
"""

CW_CFG = """
[meta]
schema_version = 1
model = cw-doublet
[system]
g = 1.985 1.985 1.964
a_mhz = 162 162 475
[polarization]
temperature_k = 295
[sweep]
mw_frequency_ghz = 9.5
field_start_mt = 290
field_stop_mt = 390
n_points = 512
linewidth_mt = 0.8
search_points = 301
[scheme]
kind = powder
grid_size = {grid_size}
[output]
directory = {outdir}
prefix = cw
plot_script = true
"""


def test_cli_simulate_triplet_and_cw(tmp_path, capsys):
    for name, text in (("trip.cfg", TRIPLET_CFG), ("cw.cfg", CW_CFG)):
        path = tmp_path / name
        path.write_text(text.format(outdir=tmp_path, grid_size=16))
        assert cli.entry(["simulate", "--config", str(path)]) == 0
    capsys.readouterr()
    trip = dataio.load_spectrum_csv(tmp_path / "trip.csv")
    assert np.abs(trip.intensity).max() > 0
    cw_meta = json.loads((tmp_path / "cw.meta.json").read_text())
    assert cw_meta["derivative"] is True
    assert "dI/dB" in (tmp_path / "cw.gp").read_text()


@pytest.mark.parametrize("model, grid_size", [
    ("triplet", 0), ("triplet", 4), ("cw-doublet", 0), ("cw-doublet", 4),
])
def test_cli_simulate_rejects_small_powder_grid(tmp_path, capsys, model, grid_size):
    template = TRIPLET_CFG if model == "triplet" else CW_CFG
    path = tmp_path / "run.cfg"
    path.write_text(template.format(outdir=tmp_path, grid_size=grid_size))
    rc = cli.entry(["simulate", "--config", str(path)])
    assert rc == 2
    assert "error: validation: powder grid_size must be at least 16" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_cli_rejects_negative_triplet_populations(tmp_path, capsys, command):
    path = tmp_path / "run.cfg"
    text = TRIPLET_CFG.format(outdir=tmp_path, grid_size=16)
    path.write_text(text.replace("populations = 0 0 1", "populations = -1 0 0"))
    assert cli.entry([command, "--config", str(path)]) == 2
    assert "error: validation: triplet populations must be non-negative" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_cli_simulate_rejects_single_angle_out_of_range(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(_dimer_cfg(tmp_path, "[scheme]\nkind = single\ntheta_deg = 200.0"))
    rc = cli.entry(["simulate", "--config", str(path)])
    assert rc == 2
    assert "error: validation: theta must lie in [0, pi]" in capsys.readouterr().err


@pytest.mark.parametrize("command, block, line", [
    ("fit-trepr", "[fit]\nfree = a2\nmax_iterations = 0", "[fit] max_iterations: must be > 0"),
    ("fit-trepr", "[fit]\nfree = a2\nn_starts = -2", "[fit] n_starts: must be > 0"),
    ("fit-ta", "[kinetics]\nlifetimes_ps = 3.0 100.0\nmax_iterations = 0",
     "[kinetics] max_iterations: must be > 0"),
    ("fit-ta", "[kinetics]\nlifetimes_ps = 3.0 100.0\nn_starts = -2", "[kinetics] n_starts: must be > 0"),
    ("fit-ta", "[kinetics]\nlifetimes_ps = 3.0 100.0\nfit_irf = true",
     "[kinetics] fit_irf: needs a positive initial irf_fwhm_ps"),
    ("fit-ta", "[kinetics]\nlifetimes_ps = 3.0 100.0\nirf_fwhm_ps = 0\nfit_irf = true",
     "[kinetics] fit_irf: needs a positive initial irf_fwhm_ps"),
    ("fit-ta", "[kinetics]\nlifetimes_ps = 3.0 100.0\nfit_t0 = true",
     "[kinetics] fit_t0: needs a positive irf_fwhm_ps"),
    ("fit-trepr", "[fit]\nfree = a2\nseed = -1", "[fit] seed: must be >= 0"),
    ("fit-ta", "[kinetics]\nlifetimes_ps = 3.0 100.0\nseed = -1", "[kinetics] seed: must be >= 0"),
    ("fit-trepr", "[fit]\nfree = a2\nbound_lo = -2", "[fit] bound_lo: unknown key"),
], ids=["fit-max_iterations", "fit-n_starts", "kinetics-max_iterations", "kinetics-n_starts",
        "fit_irf-no-irf", "fit_irf-zero-irf", "fit_t0-no-irf", "fit-seed", "kinetics-seed",
        "fit-bound_lo"])
def test_solver_settings_checked_at_parse_time(tmp_path, capsys, command, block, line):
    # A second, unrelated violation must be reported in the same run.
    text = _dimer_cfg(tmp_path, SINGLE_SCHEME, extra="plot_script = maybe") + "\n" + block + "\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    rc = cli.entry([command, "--config", str(cfg), "--data", str(tmp_path / "never_read.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"error: validation: {line}" in err.splitlines()
    assert "error: validation: [output] plot_script: must be a boolean" in err


def test_cli_validate_reports_regime(capsys):
    rc = cli.entry(["validate", "--config", BUNDLED])
    out = capsys.readouterr().out
    assert rc == 0
    assert "config ok" in out
    assert "strong-exchange regime: yes" in out
    assert "zeeman_mismatch" in out


SMALL_GRID = "[scheme]\nkind = powder\ngrid_size = 4"


@pytest.mark.parametrize("scheme, n_points, extra, messages", [
    (SMALL_GRID, 256, "", ["powder grid_size must be at least 16"]),
    (SINGLE_SCHEME, 1, "", ["n_points must be at least 2"]),
    ("[scheme]\nkind = powder\nn_samples = 4", 256, "[fit]\nfree = a2\nschemes = parallel",
     ["n_samples must be at least 8"]),
    (SINGLE_SCHEME, 256, "[kinetics]\nlifetimes_ps = 5.0 5.0", ["coincident lifetimes"]),
    (SMALL_GRID, 1, "", ["n_points must be at least 2", "powder grid_size must be at least 16"]),
], ids=["scheme", "sweep", "fit-schemes", "kinetics", "all-reported"])
def test_cli_validate_runs_section_builders(tmp_path, capsys, scheme, n_points, extra, messages):
    text = _dimer_cfg(tmp_path, scheme).replace("n_points = 256", f"n_points = {n_points}")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + "\n" + extra + "\n")
    rc = cli.entry(["validate", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "config ok" not in captured.out
    for message in messages:
        assert f"error: validation: {message}" in captured.err


class _Captured(Exception):
    """Stops a command once the objects under test are built."""


def test_every_optional_key_reaches_its_object(tmp_path, monkeypatch, capsys):
    # (section, key): (config text, value the built object must carry), each
    # away from its default.
    values = {
        ("sweep", "n_points"): ("300", 300),
        ("sweep", "lineshape"): ("gaussian", "gaussian"),
        ("sweep", "linewidth_mt"): ("2.5", 2.5),
        ("sweep", "search_points"): ("99", 99),
        ("sweep", "slope_floor_ghz_per_mt"): ("0.0002", 2e-4),
        ("sweep", "pad_linewidths"): ("7.0", 7.0),
        ("scheme", "grid_size"): ("20", 20),
        ("scheme", "sigma_deg"): ("7.0", 7.0),
        ("scheme", "n_samples"): ("9", 9),
        ("scheme", "tilt_nodes"): ("3", 3),
        ("scheme", "transverse_nodes"): ("5", 5),
        ("scheme", "theta_deg"): ("30.0", math.radians(30.0)),
        ("scheme", "phi_deg"): ("40.0", math.radians(40.0)),
        ("fit", "schemes"): ("powder perpendicular single", (
            sp.PowderScheme(20), sp.AlignedScheme("perpendicular", 7.0, 9, 3, 5),
            sp.SingleOrientationScheme(math.radians(30.0), math.radians(40.0)))),
        ("fit", "weights"): ("0.5 2.0 3.0", (0.5, 2.0, 3.0)),
        ("fit", "n_starts"): ("7", 7),
        ("fit", "max_iterations"): ("123", 123),
        ("fit", "tolerance"): ("1e-07", 1e-7),
        ("fit", "seed"): ("5", 5),
        ("fit", "start_spread"): ("0.2", 0.2),
        ("kinetics", "irf_fwhm_ps"): ("0.4", 0.4),
        ("kinetics", "t0_ps"): ("1.5", 1.5),
        ("kinetics", "fit_t0"): ("true", True),
        ("kinetics", "fit_irf"): ("true", True),
        ("kinetics", "n_starts"): ("6", 6),
        ("kinetics", "max_iterations"): ("77", 77),
        ("kinetics", "tolerance"): ("1e-06", 1e-6),
        ("kinetics", "seed"): ("8", 8),
        ("kinetics", "log10_spread"): ("0.3", 0.3),
    }
    schemas = configio._schemas("quartet-dimer")
    optional = {(section, key.name) for section in ("sweep", "scheme", "fit", "kinetics")
                for key in schemas[section].values() if not key.required}
    assert optional == set(values)

    required = {
        "sweep": "mw_frequency_ghz = 9.5\nfield_start_mt = 240.0\nfield_stop_mt = 440.0",
        "scheme": "kind = powder",
        "fit": "free = a2",
        "kinetics": "lifetimes_ps = 3.0 100.0",
    }
    text = _dimer_cfg(tmp_path, "").split("[sweep]")[0]
    for section, lines in required.items():
        text += f"[{section}]\n{lines}\n"
        text += "".join(f"{k} = {v[0]}\n" for (s, k), v in values.items() if s == section)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    cfg = configio.parse_config(str(cfg_path))

    arrived = {("sweep", k): v for k, v in dataclasses.asdict(cfg.build_sweep()).items()}
    arrived[("scheme", "grid_size")] = cfg.build_scheme().grid_size
    aligned = cfg.build_scheme("perpendicular")
    arrived.update({("scheme", k): v for k, v in dataclasses.asdict(aligned).items()})
    single = cfg.build_scheme("single")
    arrived[("scheme", "theta_deg")], arrived[("scheme", "phi_deg")] = single.theta, single.phi

    def capture_problem(problem):
        captured["problem"] = problem
        raise _Captured

    def capture_kinetic_fit(data, model, **kwargs):
        captured["kinetics"] = model, kwargs
        raise _Captured

    captured = {}
    monkeypatch.setattr(fitting.FitModel, "build", capture_problem)
    monkeypatch.setattr(kin, "global_fit", capture_kinetic_fit)
    spectra = []
    for name in ("powder", "perp", "single"):
        spectra.append(tmp_path / f"{name}.csv")
        dataio.save_spectrum_csv(spectra[-1], sp.Spectrum(np.linspace(240.0, 440.0, 300), np.ones(300)))
    with pytest.raises(_Captured):
        cli.entry(["fit-trepr", "--config", str(cfg_path), "--data", *map(str, spectra)])
    ta_path = tmp_path / "ta.csv"
    dataio.save_ta_csv(ta_path, kin.TADataset(np.linspace(0.0, 9.0, 10), np.array([500.0, 510.0]),
                                              np.zeros((10, 2))))
    with pytest.raises(_Captured):
        cli.entry(["fit-ta", "--config", str(cfg_path), "--data", str(ta_path)])

    problem = captured["problem"]
    arrived.update({("fit", k): v for k, v in dataclasses.asdict(problem.settings).items()})
    arrived[("fit", "schemes")] = tuple(ds.scheme for ds in problem.datasets)
    arrived[("fit", "weights")] = tuple(ds.weight for ds in problem.datasets)
    model, kwargs = captured["kinetics"]
    arrived[("kinetics", "irf_fwhm_ps")], arrived[("kinetics", "t0_ps")] = model.irf_fwhm, model.t0
    arrived.update({("kinetics", k): v for k, v in dataclasses.asdict(kwargs["settings"]).items()})
    arrived[("kinetics", "fit_t0")], arrived[("kinetics", "fit_irf")] = kwargs["fit_t0"], kwargs["fit_irf"]
    assert {key: arrived.get(key) for key in values} == {key: v[1] for key, v in values.items()}


def _readme_optional_defaults() -> dict[str, dict[str, str]]:
    """The `key = value` pairs of the README "Optional keys" list, by section."""
    with open(README, encoding="utf-8") as fh:
        listing = fh.read().split("Optional keys and their defaults", 1)[1].split("\n\n")[1]
    return {re.search(r"`\[(\w+)\]`", bullet).group(1): dict(re.findall(r"`(\w+) = ([^`]+)`", bullet))
            for bullet in listing.split("\n- ")}


def test_readme_defaults_build_the_default_objects(tmp_path, monkeypatch, capsys):
    # Setting a key to the default the README gives it must build the same
    # objects as leaving the key out.
    defaults = _readme_optional_defaults()
    sections = ("sweep", "scheme", "fit", "kinetics", "output")
    assert all(defaults.get(section) for section in sections)
    required = {
        "sweep": "mw_frequency_ghz = 9.5\nfield_start_mt = 240.0\nfield_stop_mt = 440.0",
        "scheme": "kind = single\ntheta_deg = 30.0",
        "fit": "free = a2",
        "kinetics": "lifetimes_ps = 3.0 100.0",
        "output": "",
    }
    head = _dimer_cfg(tmp_path, "").split("[sweep]")[0]
    spectrum_path, ta_path, cfg_path = tmp_path / "s.csv", tmp_path / "ta.csv", tmp_path / "run.cfg"
    dataio.save_spectrum_csv(spectrum_path, sp.Spectrum(np.linspace(240.0, 440.0, 300), np.ones(300)))
    dataio.save_ta_csv(ta_path, kin.TADataset(np.linspace(0.0, 9.0, 10), np.array([500.0, 510.0]),
                                              np.zeros((10, 2))))
    global_fit = inspect.signature(kin.global_fit)
    built = {}

    def capture_problem(problem):
        built["fit"] = (problem.settings, tuple((ds.scheme, ds.weight) for ds in problem.datasets))
        raise _Captured

    def capture_kinetic_fit(*args, **kwargs):
        call = global_fit.bind(*args, **kwargs)
        call.apply_defaults()
        built["kinetics"] = {k: v for k, v in call.arguments.items() if k != "data"}
        raise _Captured

    monkeypatch.setattr(fitting.FitModel, "build", capture_problem)
    monkeypatch.setattr(kin, "global_fit", capture_kinetic_fit)

    def build(line_in=None, line=""):
        cfg_path.write_text(head + "".join(
            f"[{s}]\n{lines}\n{line if s == line_in else ''}\n" for s, lines in required.items()))
        cfg = configio.parse_config(str(cfg_path))
        built.update(sweep=cfg.build_sweep(), output=cfg.output_paths(),
                     scheme=tuple(cfg.build_scheme(kind) for kind in configio.SCHEME_KINDS))
        for argv in (["fit-trepr", "--data", str(spectrum_path)], ["fit-ta", "--data", str(ta_path)]):
            with pytest.raises(_Captured):
                cli.entry([*argv, "--config", str(cfg_path)])
        return dict(built)

    base = build()
    for section in sections:
        for key, value in defaults[section].items():
            assert build(section, f"{key} = {value}")[section] == base[section], f"[{section}] {key}"


def test_cli_fit_trepr_single_orientation(tmp_path, capsys):
    system = spincore.vanadyl_porphyrin_dimer()
    sweep = sp.FieldSweepConfig(n_points=256, search_points=301)
    scheme = sp.SingleOrientationScheme(math.radians(50.0), math.radians(20.0))
    truth = pol.QuartetPolarizationParams(a=(0.11, -0.002, -0.027), r=(0.0, -0.01, 0.0))
    nuclear = pol.NuclearPopulations((0.146, 0.078, 0.194, 0.126, 0.117, 0.165, 0.078, 0.097))
    spectrum = sp.simulate_dimer(system, pol.PhotoQuartetPolarization(truth, nuclear), sweep, scheme)
    data_path = tmp_path / "crystal.csv"
    dataio.save_spectrum_csv(data_path, spectrum)

    text = _dimer_cfg(tmp_path, SINGLE_SCHEME)
    # start a2 far from the truth; everything else stays fixed
    text = text.replace("a = 0.11 -0.002 -0.027", "a = 0.11 0.3 -0.027")
    text += "\n[fit]\nfree = a2\nn_starts = 1\nseed = 99\n"
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(text)
    rc = cli.entry(["fit-trepr", "--config", str(cfg), "--data", str(data_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "converged: True" in out
    fit_curve = dataio.load_spectrum_csv(tmp_path / "demo_fit_crystal.csv")
    scale = np.abs(spectrum.intensity).max()
    assert np.abs(fit_curve.intensity - spectrum.intensity).max() <= 1e-3 * scale
    report = (tmp_path / "demo_fit_report.txt").read_text()
    assert "a2" in report


def _shared_scheme_fit(tmp_path, fit_block):
    """Two crystal spectra recorded under one scheme, and a fit-trepr config."""
    system = spincore.vanadyl_porphyrin_dimer()
    sweep = sp.FieldSweepConfig(n_points=256, search_points=301)
    scheme = sp.SingleOrientationScheme(math.radians(50.0), math.radians(20.0))
    truth = pol.QuartetPolarizationParams(a=(0.11, -0.002, -0.027), r=(0.0, -0.01, 0.0))
    nuclear = pol.NuclearPopulations((0.146, 0.078, 0.194, 0.126, 0.117, 0.165, 0.078, 0.097))
    basis = sp.quartet_basis_spectra(system, sweep, scheme)
    signal = np.einsum("p,l,plf->f", [*truth.a, *truth.r], nuclear.as_array(), basis)
    rng = np.random.default_rng(5)
    data = []
    for name, gain in (("crystal_a", 1.0), ("crystal_b", 0.5)):
        noisy = gain * signal + 0.01 * np.abs(signal).max() * rng.standard_normal(len(signal))
        data.append(tmp_path / f"{name}.csv")
        dataio.save_spectrum_csv(data[-1], sp.Spectrum(sweep.field_axis(), noisy))
    text = _dimer_cfg(tmp_path, SINGLE_SCHEME).replace("a = 0.11 -0.002 -0.027", "a = 0.11 0.3 -0.027")
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(text + "\n[fit]\nfree = a2\nschemes = single single\nseed = 99\n" + fit_block)
    return ["fit-trepr", "--config", str(cfg), "--data", *map(str, data)]


def test_cli_fit_trepr_builds_each_basis_once(tmp_path, capsys, monkeypatch):
    argv = _shared_scheme_fit(tmp_path, "n_starts = 2\n")
    builds = []
    build = fitting.quartet_basis_spectra

    def counting_build(spec, sweep, scheme):
        builds.append(scheme)
        return build(spec, sweep, scheme)

    fits = []
    fit = fitting.fit_simultaneous

    def recording_fit(problem, *args):
        fits.append((problem, fit(problem, *args)))
        return fits[-1][1]

    monkeypatch.setattr(fitting, "quartet_basis_spectra", counting_build)
    monkeypatch.setattr(fitting, "fit_simultaneous", recording_fit)
    rc = cli.entry(argv)
    assert rc == 0
    assert "converged: True" in capsys.readouterr().out
    assert len(builds) == len(set(builds)) == 1

    # The written curves are byte-identical to an evaluation that rebuilds
    # every basis from a fresh problem.
    (problem, result), = fits
    fresh = dataclasses.replace(problem)
    curves = fitting.evaluate_model(fresh, result.params, result.nuclear, result.scales)
    assert len(builds) == 2
    for ds, curve in zip(fresh.datasets, curves):
        path = tmp_path / f"fresh_{ds.name}.csv"
        dataio.save_spectrum_csv(path, sp.Spectrum(ds.spectrum.field_mt, curve))
        assert path.read_bytes() == (tmp_path / f"demo_fit_{ds.name}.csv").read_bytes()


def test_cli_fit_trepr_nonconvergence_exit_code(tmp_path, capsys):
    argv = _shared_scheme_fit(tmp_path, "n_starts = 2\nmax_iterations = 2\n")
    rc = cli.entry(argv)
    captured = capsys.readouterr()
    assert rc == 4
    assert "non-convergence" in captured.err
    assert "converged: False" in captured.out
    # outputs are still written so the partial result can be inspected
    report = (tmp_path / "demo_fit_report.txt").read_text()
    assert "start_converged: False, False" in report
    assert (tmp_path / "demo_fit_crystal_b.csv").exists()


def _ta_fixture(tmp_path, lifetimes=(1.1, 4.63e7), noise=0.01, seed=3):
    model = kin.SequentialModel(lifetimes=lifetimes, irf_fwhm=0.25, t0=0.0)
    w = np.linspace(430, 700, 40)
    t = np.concatenate([np.linspace(-2, 10, 60), np.geomspace(10.5, 6 * lifetimes[-1], 140)])
    eas = np.vstack([
        np.exp(-0.5 * ((w - 500) / 30) ** 2) - 0.6 * np.exp(-0.5 * ((w - 650) / 40) ** 2),
        0.8 * np.exp(-0.5 * ((w - 540) / 35) ** 2),
    ])
    data = kin.synthetic_dataset(model, eas, t, w, noise_fraction=noise, seed=seed)
    path = tmp_path / "ta.csv"
    dataio.save_ta_csv(path, data, time_unit="ps")
    return path, model, eas


def test_cli_fit_ta_recovers_lifetimes(tmp_path, capsys):
    data_path, truth, _ = _ta_fixture(tmp_path)
    cfg = tmp_path / "ta.cfg"
    cfg.write_text(f"""
[meta]
schema_version = 1
model = quartet-dimer
[kinetics]
lifetimes_ps = 3.0 10000000.0
irf_fwhm_ps = 0.25
[output]
directory = {tmp_path}
prefix = ta
""")
    rc = cli.entry(["fit-ta", "--config", str(cfg), "--data", str(data_path)])
    out = capsys.readouterr().out
    assert rc == 0
    taus = {}
    for line in out.splitlines():
        if line.startswith("tau_"):
            name, value = line.split(":")
            taus[name] = float(value.split()[0])
    assert abs(taus["tau_1"] - truth.lifetimes[0]) <= 0.02 * truth.lifetimes[0]
    assert abs(taus["tau_2"] - truth.lifetimes[1]) <= 0.02 * truth.lifetimes[1]
    eas_rows = (tmp_path / "ta_eas.csv").read_text().splitlines()
    assert eas_rows[0] == "wavelength_nm,eas_1,eas_2"
    assert len(eas_rows) == 41
    conc_rows = (tmp_path / "ta_concentrations.csv").read_text().splitlines()
    assert conc_rows[0] == "time_ps,c_1,c_2"


def test_cli_fit_ta_nonconvergence_exit_code(tmp_path, capsys):
    data_path, _, _ = _ta_fixture(tmp_path)
    cfg = tmp_path / "ta.cfg"
    cfg.write_text(f"""
[meta]
schema_version = 1
model = quartet-dimer
[kinetics]
lifetimes_ps = 3.0 10000000.0
irf_fwhm_ps = 0.25
max_iterations = 2
n_starts = 1
[output]
directory = {tmp_path}
prefix = stuck
""")
    rc = cli.entry(["fit-ta", "--config", str(cfg), "--data", str(data_path)])
    err = capsys.readouterr().err
    assert rc == 4
    assert "non-convergence" in err
    # outputs are still written so the partial result can be inspected
    assert (tmp_path / "stuck_kinetics.txt").exists()


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
def test_cli_fit_ta_numerical_exit_code(tmp_path, capsys):
    # every delay is before t0, so the projected design matrix has rank 0
    w = np.linspace(450, 650, 8)
    t = np.linspace(-100.0, -10.0, 30)
    rng = np.random.default_rng(0)
    data = kin.TADataset(t, w, rng.standard_normal((30, 8)))
    data_path = tmp_path / "ta.csv"
    dataio.save_ta_csv(data_path, data)
    cfg = tmp_path / "ta.cfg"
    cfg.write_text(f"""
[meta]
schema_version = 1
model = quartet-dimer
[kinetics]
lifetimes_ps = 1.0 100.0
n_starts = 1
max_iterations = 50
[output]
directory = {tmp_path}
""")
    rc = cli.entry(["fit-ta", "--config", str(cfg), "--data", str(data_path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "error: numerical" in err


# ---------------------------------------------------------- package exports


def test_exports_resolve_and_cover_readme_example():
    names = quartetsim.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(quartetsim, n)] == []
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    example = text.split("## Library use", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    imported = [
        alias.name
        for node in ast.walk(ast.parse(example))
        if isinstance(node, ast.ImportFrom) and node.module == "quartetsim"
        for alias in node.names
    ]
    assert imported
    assert [n for n in imported if n not in names] == []
