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


# non-empty CSV rows, each with its line number in the file
_Rows = list[tuple[int, list[str]]]


def _fmt(x: float) -> str:
    return FLOAT_FMT % float(x)


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """One header row, then one row per entry of the column arrays (2-D ones add their columns)."""
    table = np.column_stack(columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([FLOAT_FMT % v for v in row] for row in table.tolist())


def _time_scale(unit: str, where: str = "") -> float:
    """Picoseconds per ``unit``; ``where`` prefixes the error message."""
    if unit not in TIME_UNITS_PS:
        raise DataError(f"{where}unknown time unit {unit!r}; use one of {sorted(TIME_UNITS_PS)}")
    return TIME_UNITS_PS[unit]


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


# --------------------------------------------------------------- spectra


def save_spectrum_csv(path: str, spectrum: Spectrum) -> None:
    _write_csv(path, ["field_mT", "intensity"], [spectrum.field_mt, spectrum.intensity])


def _read_rows(path: str) -> _Rows:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        return [(reader.line_num, row) for row in reader if row]


def _cell(row: list[str], i: int, row_no: int) -> float:
    try:
        value = float(row[i])
    except ValueError:
        raise DataError(f"row {row_no}: non-numeric value {row[i]!r}") from None
    if not np.isfinite(value):
        raise DataError(f"row {row_no}: non-finite value {row[i]!r}")
    return value


def _parse_rows(rows: _Rows, n_cols: int) -> np.ndarray:
    """Data rows of n_cols finite numbers each, as a float array.

    Each row is converted whole; `_cell` runs only on a row that fails, to
    name the bad value.  The first faulty row in file order is reported.
    """
    values = []
    for row_no, row in rows:
        if len(row) == n_cols:
            try:
                values.append([float(c) for c in row])
                continue
            except ValueError:
                pass
        # this row is faulty, but an earlier one may hold inf or nan
        _check_finite(rows, np.array(values).reshape(-1, n_cols))
        if len(row) != n_cols:
            raise DataError(f"row {row_no}: expected {n_cols} columns, found {len(row)}")
        for i in range(n_cols):
            _cell(row, i, row_no)
    array = np.array(values).reshape(-1, n_cols)
    _check_finite(rows, array)
    return array


def _check_finite(rows: _Rows, array: np.ndarray) -> None:
    """Raise for the first of the leading len(array) rows that holds inf or nan."""
    bad = ~np.isfinite(array).all(axis=1)
    if bad.any():
        row_no, row = rows[int(np.argmax(bad))]
        for i in range(len(row)):
            _cell(row, i, row_no)


def _check_increasing(rows: _Rows, axis: np.ndarray, name: str) -> None:
    steps = np.diff(axis) <= 0
    if steps.any():
        row_no = rows[int(np.argmax(steps)) + 1][0]
        raise DataError(f"row {row_no}: {name} axis not strictly increasing")


def load_spectrum_csv(path: str) -> Spectrum:
    rows = _read_rows(path)
    if not rows or [c.strip() for c in rows[0][1]] != ["field_mT", "intensity"]:
        raise DataError(f"row {rows[0][0] if rows else 1}: expected header 'field_mT,intensity'")
    values = _parse_rows(rows[1:], 2)
    if len(values) < 2:
        raise DataError("need at least 2 data rows")
    _check_increasing(rows[1:], values[:, 0], "field")
    return Spectrum(values[:, 0].copy(), values[:, 1].copy(), metadata={"source": path})


def save_metadata(path: str, metadata: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


# ------------------------------------------------------------------- TA


def save_ta_csv(path: str, data: TADataset, time_unit: str = "ps") -> None:
    times = np.asarray(data.times) / _time_scale(time_unit)
    _write_csv(path, [f"time_{time_unit}"] + [_fmt(w) for w in data.wavelengths], [times, data.delta_a])


def load_ta_csv(path: str) -> tuple[TADataset, str]:
    """Read a TA map; times are converted to picoseconds internally.

    Returns the dataset and the time unit declared in the header.
    """
    rows = _read_rows(path)
    if not rows:
        raise DataError("row 1: empty file")
    header_no, header = rows[0][0], [c.strip() for c in rows[0][1]]
    if not header[0].startswith("time_"):
        raise DataError(f"row {header_no}: first header cell must be 'time_<unit>'")
    unit = header[0][len("time_"):]
    scale = _time_scale(unit, f"row {header_no}: ")
    wavelengths = np.array([_cell(header, i, header_no) for i in range(1, len(header))])
    if len(wavelengths) < 1:
        raise DataError(f"row {header_no}: no wavelength columns")
    if np.any(np.diff(wavelengths) <= 0):
        raise DataError(f"row {header_no}: wavelength axis not strictly increasing")
    values = _parse_rows(rows[1:], len(header))
    if len(values) < 2:
        raise DataError("need at least 2 time rows")
    _check_increasing(rows[1:], values[:, 0], "time")
    data = TADataset(values[:, 0] * scale, wavelengths, values[:, 1:].copy())
    return data, unit


def save_eas_csv(path: str, wavelengths: np.ndarray, eas: np.ndarray) -> None:
    """Evolution-associated spectra, one column per compartment."""
    eas = np.atleast_2d(np.asarray(eas, dtype=float))
    _write_csv(path, ["wavelength_nm"] + [f"eas_{k + 1}" for k in range(len(eas))], [wavelengths, eas.T])


def save_concentrations_csv(path: str, times_ps: np.ndarray, conc: np.ndarray,
                            time_unit: str = "ps") -> None:
    times = np.asarray(times_ps) / _time_scale(time_unit)
    conc = np.atleast_2d(np.asarray(conc, dtype=float))
    _write_csv(path, [f"time_{time_unit}"] + [f"c_{k + 1}" for k in range(conc.shape[1])], [times, conc])


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
