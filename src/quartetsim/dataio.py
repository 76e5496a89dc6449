"""CSV and manifest I/O for simulated spectra and transient-absorption maps.

Formats are plain text so results diff cleanly under version control:

* spectrum CSV: header ``field_mT,intensity``, one row per field point;
* TA CSV: first header cell ``time_<unit>``, remaining header cells the
  wavelength axis in nm; one row per delay time;
* run manifest: JSON with sha256 checksums of every input and output, the
  package version and the wall-clock time of the run.

Numbers are written with ``%.10e`` so a load/save cycle is lossless at the
precision the simulations are meaningful.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .kinetics import TADataset
from .spectra import Spectrum

FLOAT_FMT = "%.10e"

TIME_UNITS_PS = {
    "fs": 1e-3,
    "ps": 1.0,
    "ns": 1e3,
    "us": 1e6,
    "ms": 1e9,
    "s": 1e12,
}


class DataError(ValueError):
    """Malformed data file; message pins down the offending row."""


def _fmt(x: float) -> str:
    return FLOAT_FMT % float(x)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


# --------------------------------------------------------------- spectra


def save_spectrum_csv(path: str, spectrum: Spectrum) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["field_mT", "intensity"])
        for b, y in zip(spectrum.field_mt, spectrum.intensity):
            writer.writerow([_fmt(b), _fmt(y)])


def _read_rows(path: str) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if row]


def _cell(row: list[str], i: int, row_no: int) -> float:
    try:
        value = float(row[i])
    except ValueError:
        raise DataError(f"row {row_no}: non-numeric value {row[i]!r}") from None
    if not np.isfinite(value):
        raise DataError(f"row {row_no}: non-finite value {row[i]!r}")
    return value


def load_spectrum_csv(path: str) -> Spectrum:
    rows = _read_rows(path)
    if not rows or [c.strip() for c in rows[0]] != ["field_mT", "intensity"]:
        raise DataError("row 1: expected header 'field_mT,intensity'")
    field, intensity = [], []
    for row_no, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise DataError(f"row {row_no}: expected 2 columns, found {len(row)}")
        field.append(_cell(row, 0, row_no))
        intensity.append(_cell(row, 1, row_no))
    if len(field) < 2:
        raise DataError("need at least 2 data rows")
    for row_no in range(1, len(field)):
        if field[row_no] <= field[row_no - 1]:
            raise DataError(f"row {row_no + 2}: field axis not strictly increasing")
    return Spectrum(np.asarray(field), np.asarray(intensity), metadata={"source": path})


def save_metadata(path: str, metadata: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


# ------------------------------------------------------------------- TA


def save_ta_csv(path: str, data: TADataset, time_unit: str = "ps") -> None:
    if time_unit not in TIME_UNITS_PS:
        raise DataError(f"unknown time unit {time_unit!r}; use one of {sorted(TIME_UNITS_PS)}")
    scale = TIME_UNITS_PS[time_unit]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"time_{time_unit}"] + [_fmt(w) for w in data.wavelengths])
        for t, row in zip(data.times, data.delta_a):
            writer.writerow([_fmt(t / scale)] + [_fmt(v) for v in row])


def load_ta_csv(path: str) -> tuple[TADataset, str]:
    """Read a TA map; times are converted to picoseconds internally.

    Returns the dataset and the time unit declared in the header.
    """
    rows = _read_rows(path)
    if not rows:
        raise DataError("row 1: empty file")
    header = [c.strip() for c in rows[0]]
    if not header[0].startswith("time_"):
        raise DataError("row 1: first header cell must be 'time_<unit>'")
    unit = header[0][len("time_"):]
    if unit not in TIME_UNITS_PS:
        raise DataError(f"row 1: unknown time unit {unit!r}; use one of {sorted(TIME_UNITS_PS)}")
    scale = TIME_UNITS_PS[unit]
    wavelengths = [_cell(header, i, 1) for i in range(1, len(header))]
    if len(wavelengths) < 1:
        raise DataError("row 1: no wavelength columns")
    n_cols = len(header)
    times, signal = [], []
    for row_no, row in enumerate(rows[1:], start=2):
        if len(row) != n_cols:
            raise DataError(f"row {row_no}: expected {n_cols} columns, found {len(row)}")
        times.append(_cell(row, 0, row_no) * scale)
        signal.append([_cell(row, i, row_no) for i in range(1, n_cols)])
    if len(times) < 2:
        raise DataError("need at least 2 time rows")
    for row_no in range(1, len(times)):
        if times[row_no] <= times[row_no - 1]:
            raise DataError(f"row {row_no + 2}: time axis not strictly increasing")
    data = TADataset(np.asarray(times), np.asarray(wavelengths), np.asarray(signal))
    return data, unit


def save_eas_csv(path: str, wavelengths: np.ndarray, eas: np.ndarray) -> None:
    """Evolution-associated spectra, one column per compartment."""
    eas = np.atleast_2d(np.asarray(eas, dtype=float))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["wavelength_nm"] + [f"eas_{k + 1}" for k in range(eas.shape[0])])
        for j, w in enumerate(wavelengths):
            writer.writerow([_fmt(w)] + [_fmt(eas[k, j]) for k in range(eas.shape[0])])


def save_concentrations_csv(path: str, times_ps: np.ndarray, conc: np.ndarray,
                            time_unit: str = "ps") -> None:
    if time_unit not in TIME_UNITS_PS:
        raise DataError(f"unknown time unit {time_unit!r}; use one of {sorted(TIME_UNITS_PS)}")
    scale = TIME_UNITS_PS[time_unit]
    conc = np.atleast_2d(np.asarray(conc, dtype=float))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"time_{time_unit}"] + [f"c_{k + 1}" for k in range(conc.shape[1])])
        for i, t in enumerate(times_ps):
            writer.writerow([_fmt(t / scale)] + [_fmt(v) for v in conc[i]])


# -------------------------------------------------------------- manifest


@dataclass
class RunManifest:
    """Record of one CLI run, sufficient to audit a rerun bit for bit."""

    command: str
    config_path: str

    def __post_init__(self):
        self.started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        self._clock = time.monotonic()
        self.inputs: dict[str, str] = {self.config_path: sha256_file(self.config_path)}
        self.outputs: dict[str, str] = {}

    def add_input(self, path: str) -> None:
        self.inputs[path] = sha256_file(path)

    def add_output(self, path: str) -> None:
        self.outputs[path] = sha256_file(path)

    def write(self, path: str) -> None:
        body = {
            "tool": "quartetsim",
            "version": __version__,
            "command": self.command,
            "started_utc": self.started,
            "elapsed_s": round(time.monotonic() - self._clock, 3),
            "inputs": self.inputs,
            "outputs": self.outputs,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh, indent=2, sort_keys=True)
            fh.write("\n")


# ----------------------------------------------------------- plot script


def write_plot_script(path: str, csv_name: str, title: str, derivative: bool = False) -> None:
    """Emit a gnuplot script that renders a result CSV; no image is made here."""
    ylabel = "dI/dB (arb.)" if derivative else "intensity (arb.)"
    buf = io.StringIO()
    buf.write("# gnuplot script generated by quartetsim; run: gnuplot <this file>\n")
    buf.write("set datafile separator ','\n")
    buf.write(f"set title '{title}'\n")
    buf.write("set xlabel 'field (mT)'\n")
    buf.write(f"set ylabel '{ylabel}'\n")
    buf.write("set grid\n")
    buf.write(f"plot '{csv_name}' every ::1 using 1:2 with lines notitle\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
