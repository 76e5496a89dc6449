"""Run configuration: a validated INI document with explicit units in keys.

Every physical quantity carries its unit as a key suffix (``_mhz``, ``_mt``,
``_deg``, ``_ghz``, ``_k``, ``_nm``, ``_ps``, ``_invcm``); dimensionless
numbers carry none.  Multi-valued keys hold space-separated numbers.  The
parser validates the whole document and reports every violation at once,
and the canonical emitter is idempotent: parsing what it writes yields the
same configuration.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields

from . import fitting
from . import kinetics as kin
from . import polarization as pol
from . import spectra as sp
from . import spincore

SCHEMA_VERSION = 1
MODELS = ("quartet-dimer", "triplet", "cw-doublet")
SCHEME_KINDS = ("powder", "parallel", "perpendicular", "single")


class ConfigError(ValueError):
    """Invalid configuration; carries the full list of violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("\n".join(self.violations))


@dataclass(frozen=True)
class Key:
    """Schema entry for one config key."""

    name: str
    kind: str  # float | int | bool | str | floats | tokens
    required: bool = False
    count: int | None = None          # exact element count for "floats"
    choices: tuple[str, ...] | None = None
    positive: bool = False
    message: str = ""                 # overrides the default complaint


def _keys(*entries: Key) -> dict[str, Key]:
    return {k.name: k for k in entries}


_META = _keys(
    Key("schema_version", "int", required=True),
    Key("model", "str", required=True, choices=MODELS),
)

_SYSTEM = {
    "quartet-dimer": _keys(
        Key("exchange_invcm", "float", required=True),
        Key("dipolar_mhz", "float", required=True),
        Key("zfs_d_mhz", "float", required=True),
        Key("zfs_e_mhz", "float", required=True),
        Key("g_fp", "float", required=True, positive=True),
        Key("g_vo", "floats", required=True, count=3),
        Key("a_vo_mhz", "floats", required=True, count=3),
        Key("alpha_deg", "float", required=True),
        Key("beta_deg", "float", required=True),
        Key("quartet_x_axis", "floats", count=3),
    ),
    "triplet": _keys(
        Key("g", "float", required=True, positive=True),
        Key("zfs_d_mhz", "float", required=True),
        Key("zfs_e_mhz", "float", required=True),
    ),
    "cw-doublet": _keys(
        Key("g", "floats", required=True, count=3),
        Key("a_mhz", "floats", required=True, count=3),
    ),
}

_POLARIZATION = {
    "quartet-dimer": _keys(
        Key("kind", "str", choices=("photo", "thermal")),
        Key("a", "floats", count=3),
        Key("r", "floats", count=3),
        Key("rho_n", "floats", count=8),
        Key("doublet_populations", "floats", count=2),
        Key("temperature_k", "float", positive=True),
    ),
    "triplet": _keys(
        Key("populations", "floats", required=True, count=3),
    ),
    "cw-doublet": _keys(
        Key("temperature_k", "float", positive=True),
    ),
}

_SWEEP = _keys(
    Key("mw_frequency_ghz", "float", required=True, positive=True),
    Key("field_start_mt", "float", required=True),
    Key("field_stop_mt", "float", required=True),
    Key("n_points", "int"),
    Key("lineshape", "str", choices=sp.LINESHAPES),
    Key("linewidth_mt", "float", positive=True, message="linewidth must be > 0"),
    Key("search_points", "int"),
    Key("slope_floor_ghz_per_mt", "float", positive=True),
    Key("pad_linewidths", "float"),
)

_SCHEME = _keys(
    Key("kind", "str", required=True, choices=SCHEME_KINDS),
    Key("grid_size", "int"),
    Key("sigma_deg", "float"),
    Key("n_samples", "int"),
    Key("tilt_nodes", "int"),
    Key("transverse_nodes", "int"),
    Key("theta_deg", "float"),
    Key("phi_deg", "float"),
)

_FIT = _keys(
    Key("free", "tokens", required=True, choices=fitting.FREE_NAMES),
    Key("schemes", "tokens", choices=SCHEME_KINDS),
    Key("weights", "floats"),
    Key("n_starts", "int", positive=True),
    Key("max_iterations", "int", positive=True),
    Key("tolerance", "float", positive=True),
    Key("seed", "int"),
    Key("start_spread", "float", positive=True),
)

_KINETICS = _keys(
    Key("lifetimes_ps", "floats", required=True),
    Key("irf_fwhm_ps", "float"),
    Key("t0_ps", "float"),
    Key("fit_t0", "bool"),
    Key("fit_irf", "bool"),
    Key("n_starts", "int", positive=True),
    Key("max_iterations", "int", positive=True),
    Key("tolerance", "float", positive=True),
    Key("seed", "int"),
    Key("log10_spread", "float", positive=True),
)

_OUTPUT = _keys(
    Key("directory", "str"),
    Key("prefix", "str"),
    Key("plot_script", "bool"),
)

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _schemas(model: str) -> dict[str, dict[str, Key]]:
    """Schema of every section for ``model``, in canonical emission order."""
    return {
        "meta": _META,
        "system": _SYSTEM[model],
        "polarization": _POLARIZATION[model],
        "sweep": _SWEEP,
        "scheme": _SCHEME,
        "fit": _FIT,
        "kinetics": _KINETICS,
        "output": _OUTPUT,
    }


def _fields_from(cls, section: dict, suffix: str = "") -> dict:
    """Keyword arguments of dataclass ``cls``: the keys of ``section`` named ``<field><suffix>``."""
    return {f.name: section[f.name + suffix] for f in fields(cls) if f.name + suffix in section}


def _parse_value(section: str, key: Key, raw: str, errors: list[str]):
    where = f"[{section}] {key.name}"

    def complain(default: str):
        errors.append(f"{where}: {key.message or default}")

    if key.kind == "str":
        value = raw.strip()
        if key.choices and value not in key.choices:
            complain(f"must be one of {', '.join(key.choices)}; got {value!r}")
            return None
        return value
    if key.kind == "bool":
        word = raw.strip().lower()
        if word not in _BOOL_WORDS:
            complain(f"must be a boolean (true/false); got {raw!r}")
            return None
        return _BOOL_WORDS[word]
    if key.kind in ("int", "float"):
        try:
            value = (int if key.kind == "int" else float)(raw.strip())
        except ValueError:
            complain(f"must be {'an integer' if key.kind == 'int' else 'a number'}; got {raw!r}")
            return None
        if not math.isfinite(value):
            complain("must be finite")
            return None
        if key.positive and value <= 0:
            complain("must be > 0")
            return None
        return value
    if key.kind == "floats":
        parts = raw.split()
        try:
            values = tuple(float(p) for p in parts)
        except ValueError:
            complain(f"must be space-separated numbers; got {raw!r}")
            return None
        if key.count is not None and len(values) != key.count:
            complain(f"expects {key.count} numbers, got {len(values)}")
            return None
        if not all(math.isfinite(v) for v in values):
            complain("entries must be finite")
            return None
        return values
    if key.kind == "tokens":
        tokens = tuple(raw.split())
        if not tokens:
            complain("must not be empty")
            return None
        if key.choices:
            bad = [t for t in tokens if t not in key.choices]
            if bad:
                complain(f"unknown entries {bad}; allowed: {', '.join(key.choices)}")
                return None
        return tokens
    raise AssertionError(f"unhandled key kind {key.kind}")


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration document."""

    model: str
    sections: dict

    def has(self, section: str) -> bool:
        return section in self.sections

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    # ------------------------------------------------------------ builders

    def build_system(self) -> spincore.SpinSystemSpec:
        if self.model != "quartet-dimer":
            raise ConfigError([f"[system]: model {self.model!r} has no coupled-dimer description"])
        # Every other [system] key names a parameter of from_parameters.
        s = dict(self.sections["system"])
        return spincore.SpinSystemSpec.from_parameters(exchange_cm=s.pop("exchange_invcm"), **s)

    def build_polarization(self) -> pol.PolarizationModel:
        p = self.sections.get("polarization", {})
        if p.get("kind") == "thermal":
            return pol.ThermalPolarization(p["temperature_k"])
        return pol.PhotoQuartetPolarization(
            params=pol.QuartetPolarizationParams(a=p["a"], r=p["r"]),
            nuclear=pol.NuclearPopulations(p["rho_n"]),
            doublet_populations=p.get("doublet_populations"),
        )

    def build_sweep(self) -> sp.FieldSweepConfig:
        return sp.FieldSweepConfig(**self.sections["sweep"])

    def build_scheme(self, kind: str | None = None) -> sp.OrientationScheme:
        s = self.sections.get("scheme", {})
        kind = kind or s["kind"]
        if kind == "powder":
            return sp.PowderScheme(**_fields_from(sp.PowderScheme, s))
        if kind in ("parallel", "perpendicular"):
            return sp.AlignedScheme(kind, **_fields_from(sp.AlignedScheme, s))
        if "theta_deg" not in s:
            raise ConfigError(["[scheme] theta_deg: required for kind = single"])
        angles = _fields_from(sp.SingleOrientationScheme, s, "_deg")
        return sp.SingleOrientationScheme(**{n: math.radians(v) for n, v in angles.items()})

    def build_kinetic_model(self) -> kin.SequentialModel:
        return kin.SequentialModel(**_fields_from(kin.SequentialModel, self.sections["kinetics"], "_ps"))

    def kinetic_settings(self) -> kin.KineticFitSettings:
        return kin.KineticFitSettings(**_fields_from(kin.KineticFitSettings, self.sections.get("kinetics", {})))

    def output_paths(self) -> tuple[str, str, bool]:
        o = self.sections.get("output", {})
        return o.get("directory", "."), o.get("prefix", "quartetsim"), o.get("plot_script", False)


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse and validate a configuration document.

    All schema violations are collected and raised together in one
    :class:`ConfigError`.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError([f"not parseable as INI: {exc}"]) from exc

    if not parser.has_section("meta"):
        raise ConfigError(["missing required section [meta]"])
    model = parser.get("meta", "model", fallback="")
    if model not in MODELS:
        raise ConfigError([f"[meta] model: must be one of {', '.join(MODELS)}; got {model!r}"])

    errors: list[str] = []
    schemas = _schemas(model)
    sections: dict = {}
    for section in parser.sections():
        schema = schemas.get(section)
        if schema is None:
            errors.append(f"unknown section [{section}]")
            continue
        values = {}
        raw_items = dict(parser.items(section))
        for name in raw_items:
            if name not in schema:
                errors.append(f"[{section}] {name}: unknown key")
        for key in schema.values():
            if key.name not in raw_items:
                if key.required:
                    errors.append(f"[{section}] {key.name}: required key missing")
                continue
            parsed = _parse_value(section, key, raw_items[key.name], errors)
            if parsed is not None:
                values[key.name] = parsed
        sections[section] = values

    _cross_checks(model, sections, errors)
    if errors:
        raise ConfigError(errors)
    return RunConfig(model=model, sections=sections)


def _cross_checks(model: str, sections: dict, errors: list[str]) -> None:
    meta = sections.get("meta", {})
    if meta.get("schema_version") not in (None, SCHEMA_VERSION):
        errors.append(f"[meta] schema_version: supported version is {SCHEMA_VERSION}")

    sweep = sections.get("sweep")
    if sweep and "field_start_mt" in sweep and "field_stop_mt" in sweep:
        if not sweep["field_stop_mt"] > sweep["field_start_mt"] >= 0:
            errors.append("[sweep] field_start_mt/field_stop_mt: need 0 <= start < stop")

    polar = sections.get("polarization")
    if polar is not None and model == "quartet-dimer":
        if polar.get("kind") != "thermal":
            for name in ("a", "r", "rho_n"):
                if name not in polar:
                    errors.append(f"[polarization] {name}: required for kind = photo")
            if "rho_n" in polar:
                total = sum(polar["rho_n"])
                if abs(total - 1.0) > pol.NUCLEAR_SUM_TOL:
                    errors.append(f"[polarization] rho_n: must sum to 1, got {total:.6g}")
                if min(polar["rho_n"]) < 0:
                    errors.append("[polarization] rho_n: entries must be non-negative")
        elif "temperature_k" not in polar:
            errors.append("[polarization] temperature_k: required for kind = thermal")

    if model in ("triplet", "cw-doublet"):
        scheme = sections.get("scheme")
        if scheme and scheme.get("kind") not in (None, "powder"):
            errors.append(f"[scheme] kind: model {model} supports only powder averaging")

    for section in ("fit", "kinetics"):
        if sections.get(section, {}).get("seed", 0) < 0:
            errors.append(f"[{section}] seed: must be >= 0")

    fit_sec = sections.get("fit")
    if fit_sec:
        if "weights" in fit_sec:
            if "schemes" not in fit_sec:
                errors.append("[fit] weights: requires schemes")
            elif len(fit_sec["weights"]) != len(fit_sec["schemes"]):
                errors.append("[fit] weights: length must match schemes")
            if any(w <= 0 for w in fit_sec["weights"]):
                errors.append("[fit] weights: must be > 0")

    kin_sec = sections.get("kinetics", {})
    if "lifetimes_ps" in kin_sec:
        taus = kin_sec["lifetimes_ps"]
        if not 1 <= len(taus) <= kin.MAX_COMPARTMENTS:
            errors.append(f"[kinetics] lifetimes_ps: 1..{kin.MAX_COMPARTMENTS} entries supported")
        if any(t <= 0 for t in taus):
            errors.append("[kinetics] lifetimes_ps: must be > 0")
    irf = kin_sec.get("irf_fwhm_ps")
    if kin_sec.get("fit_irf") and (irf is None or irf <= 0):
        errors.append("[kinetics] fit_irf: needs a positive initial irf_fwhm_ps")
    if kin_sec.get("fit_t0") and (irf is None or irf <= 0):
        errors.append("[kinetics] fit_t0: needs a positive irf_fwhm_ps")


def parse_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=path)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_config(config: RunConfig) -> str:
    """Canonical text form: fixed section and key order, round-trip exact."""
    lines = []
    for section, schema in _schemas(config.model).items():
        if section not in config.sections:
            continue
        values = config.sections[section]
        lines.append(f"[{section}]")
        for name in schema:
            if name in values:
                lines.append(f"{name} = {_format_value(values[name])}")
        lines.append("")
    return "\n".join(lines)


def require_sections(config: RunConfig, *names: str) -> None:
    missing = [f"missing required section [{n}]" for n in names if not config.has(n)]
    if missing:
        raise ConfigError(missing)
