"""INI-style scenario configuration files.

Sections and keys (all optional; an omitted key takes its dataclass
default, and an empty file yields the `combined` constraint setup):

  [robot]        m1 m2 l1 l2 gravity singularity_tolerance
  [admittance]   k_m k_b k_k                (scalar or "x,y" pair)
  [ecbf]         k_max k_min k_obs          ("position,velocity" pairs, one
                                             per barrier kind)
  [controller]   lambda1..lambda3 alpha beta kappa1..kappa4
                 m_exp n_exp p_exp q_exp rho epsilon
                 boundary_layer use_sign force_limit
  [scenario]     name duration dt radius rate a1 a2 q0 qdot0
                 admittance_start ("auto" or "x,y") nominal_only
  [constraints]  set (workspace|obstacle|both|none) x_min x_max x_obs r
                 bypass slack               (one r serves both constraints)

Unknown sections or keys are a hard error, and so is a number that is not
finite, and so is geometry that `set` disables: x_min and x_max without
the workspace, x_obs without the obstacle, r without either. One field
table, _FIELDS, gives the known keys, the parser and serialize_config, so
parse_config_text(serialize_config(c)) equals c field for field. serialize_config raises ValidationError, naming the key, for a
config the INI cannot carry: a workspace r that differs from the obstacle
r, a number that is not finite, or a name with a line break or with
leading or trailing whitespace.
"""

import configparser
import math
from dataclasses import fields

import numpy as np

from .admittance import AdmittanceParams
from .arm import ManipulatorParams
from .errors import ConfigError, ValidationError
from .safety import EcbfGains, ObstacleConstraint, WorkspaceConstraint
from .sim import ScenarioConfig
from .smc import FxtismcGains

# Each target names a ScenarioConfig attribute and its dataclass, or the
# ScenarioConfig itself ("scenario").
_TARGETS = {"robot": ManipulatorParams, "admittance": AdmittanceParams,
            "ecbf": EcbfGains, "controller": FxtismcGains,
            "workspace": WorkspaceConstraint, "obstacle": ObstacleConstraint,
            "scenario": ScenarioConfig}

# The optional constraints each value of [constraints] set (and of the
# command line's --constraints) enables.
CONSTRAINT_SETS = {"workspace": ("workspace",), "obstacle": ("obstacle",),
                   "both": ("workspace", "obstacle"), "none": ()}


def _numbers(*sizes):
    """The parser of one number, of an "x,y" pair, or of either (sizes)."""
    def parse(section, key, raw):
        parts = raw.split(",")
        if len(parts) not in sizes:
            raise ConfigError(f"[{section}] {key}: expected "
                              f"{' or '.join(map(str, sizes))} number(s), got {raw!r}")
        try:
            values = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from exc
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"[{section}] {key}: not a finite number: {raw!r}")
        return values[0] if len(values) == 1 else values
    return parse


def _bool(section, key, raw) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"[{section}] {key}: not a boolean: {raw!r}")


def _auto_or_pair(section, key, raw):
    return None if raw.strip().lower() == "auto" else _numbers(2)(section, key, raw)


def _constraint_set(section, key, raw) -> str:
    if raw not in CONSTRAINT_SETS:
        raise ConfigError(
            f"[{section}] {key} must be one of {tuple(CONSTRAINT_SETS)}, got {raw!r}")
    return raw


def _fmt(section, key, v) -> str:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if not np.isfinite(arr).all():
        raise ValidationError(f"[{section}] {key}: the INI holds only finite numbers, got {v}")
    return ",".join(format(x, ".17g") for x in arr)


def _fmt_name(section, key, v) -> str:
    if "\n" in v or "\r" in v or v != v.strip():
        raise ValidationError(f"[{section}] {key}: the INI cannot carry {v!r} "
                              "(line break, or leading or trailing whitespace)")
    return v


# A kind is how one INI value is read from text and written back:
# (parse(section, key, raw text), fmt(section, key, value)).
_NUM = (_numbers(1), _fmt)
_NUM_OR_PAIR = (_numbers(1, 2), _fmt)
_PAIR = (_numbers(2), _fmt)
_BOOL = (_bool, lambda section, key, v: str(bool(v)).lower())
_NAME = (lambda section, key, raw: raw, _fmt_name)
_START = (_auto_or_pair, lambda section, key, v: "auto" if v is None else _fmt(section, key, v))
_SET = (_constraint_set, lambda section, key, v: v)


def _one(section, key, kind, target, name=None, *index):
    return (section, key, kind, ((target, name or key, *index),))


def _named_like(section, cls, kind):
    """Rows for a section whose keys are the dataclass's own field names."""
    return [_one(section, f.name, _BOOL if isinstance(f.default, bool) else kind, section)
            for f in fields(cls)]


# The field table, one row per INI key: (section, key, kind, places). A
# place is (target, field), or (target, field, index) for one entry of a
# sequence field; r fills two places.
_FIELDS = (
    *_named_like("robot", ManipulatorParams, _NUM),
    *_named_like("admittance", AdmittanceParams, _NUM_OR_PAIR),
    _one("ecbf", "k_max", _PAIR, "ecbf", "K_max"),
    _one("ecbf", "k_min", _PAIR, "ecbf", "K_min"),
    _one("ecbf", "k_obs", _PAIR, "ecbf", "K_obs"),
    *_named_like("controller", FxtismcGains, _NUM),
    _one("scenario", "name", _NAME, "scenario"),
    _one("scenario", "duration", _NUM, "scenario"),
    _one("scenario", "dt", _NUM, "scenario"),
    _one("scenario", "radius", _NUM, "scenario", "circle_radius"),
    _one("scenario", "rate", _NUM, "scenario", "circle_rate"),
    _one("scenario", "a1", _NUM, "scenario", "force_amplitude", 0),
    _one("scenario", "a2", _NUM, "scenario", "force_amplitude", 1),
    _one("scenario", "q0", _PAIR, "scenario"),
    _one("scenario", "qdot0", _PAIR, "scenario"),
    _one("scenario", "admittance_start", _START, "scenario"),
    _one("scenario", "nominal_only", _BOOL, "scenario"),
    ("constraints", "set", _SET, ()),
    _one("constraints", "x_min", _PAIR, "workspace"),
    _one("constraints", "x_max", _PAIR, "workspace"),
    _one("constraints", "x_obs", _PAIR, "obstacle"),
    ("constraints", "r", _NUM, (("workspace", "r"), ("obstacle", "r"))),
    _one("constraints", "bypass", _BOOL, "scenario", "filter_bypass"),
    _one("constraints", "slack", _BOOL, "scenario"),
)

_ROWS = {(section, key): (kind, places) for section, key, kind, places in _FIELDS}
_SECTIONS = {section for section, _ in _ROWS}
# Default instances, from which a sequence field that the INI fills one
# entry at a time (a1, a2) takes its other entry.
_DEFAULTS = {target: cls() for target, cls in _TARGETS.items()}


def parse_config(path) -> ScenarioConfig:
    """Parse an INI scenario file (see parse_config_text)."""
    with open(path) as fh:
        return parse_config_text(fh.read(), source=str(path))


def parse_config_text(text: str, source: str = "<string>") -> ScenarioConfig:
    """Parse INI scenario text; file-level errors raise ConfigError with
    the offending line, invariant violations raise ValidationError."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    kwargs = {target: {} for target in _TARGETS}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in _ROWS:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            (parse, _), places = _ROWS[section, key]
            value = parse(section, key, raw)
            for target, name, *index in places:
                if index:
                    entries = list(kwargs[target].get(name, getattr(_DEFAULTS[target], name)))
                    entries[index[0]] = value
                    kwargs[target][name] = tuple(entries)
                else:
                    kwargs[target][name] = value

    set_name = parser.get("constraints", "set", fallback="both")
    enabled = CONSTRAINT_SETS[set_name]
    if parser.has_section("constraints"):
        for key, _ in parser.items("constraints"):
            targets = {target for target, *_ in _ROWS["constraints", key][1]}
            if targets and targets <= {"workspace", "obstacle"} and targets.isdisjoint(enabled):
                raise ConfigError(f"[constraints] {key}: set = {set_name} enables no "
                                  f"constraint that {key} configures")
    parts = {target: cls(**kwargs[target])
             if target in enabled or target not in ("workspace", "obstacle") else None
             for target, cls in _TARGETS.items() if target != "scenario"}
    return ScenarioConfig(**kwargs["scenario"], **parts)


def serialize_config(config: ScenarioConfig) -> str:
    """Canonical text form, written from the rows the parser reads; raises
    ValidationError for a config the INI cannot carry (module docstring)."""
    objs = {target: config if target == "scenario" else getattr(config, target)
            for target in _TARGETS}
    lines = []
    for section, key, (_, fmt), places in _FIELDS:
        if f"[{section}]" not in lines:
            lines += ([""] if lines else []) + [f"[{section}]"]
        if key == "set":
            enabled = tuple(t for t in ("workspace", "obstacle") if objs[t] is not None)
            values = [next(k for k, v in CONSTRAINT_SETS.items() if v == enabled)]
        else:
            values = [getattr(objs[t], name)[index[0]] if index else getattr(objs[t], name)
                      for t, name, *index in places if objs[t] is not None]
        if not values:
            continue
        if any(not np.array_equal(v, values[0]) for v in values[1:]):
            raise ValidationError(f"[{section}] {key}: one INI value cannot carry "
                                  f"the differing values {values}")
        lines.append(f"{key} = {fmt(section, key, values[0])}")
    return "\n".join(lines) + "\n"
