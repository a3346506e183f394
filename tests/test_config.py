import math
import re
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import safeadmit
from safeadmit import (AdmittanceParams, ConfigError, EcbfGains,
                       ManipulatorParams, ObstacleConstraint, ScenarioConfig,
                       ValidationError, WorkspaceConstraint, parse_config,
                       scenario_library)
from safeadmit.config import (parse_config_text, serialize_config)

from conftest import NON_FINITE_CONSTANTS

README = Path(__file__).resolve().parent.parent / "README.md"


def assert_fields_equal(a, b, path="config"):
    """Every field of two configs, recursively; arrays compare exactly."""
    if is_dataclass(a):
        assert type(a) is type(b), path
        for f in fields(a):
            assert_fields_equal(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif a is None or b is None or isinstance(a, str):
        assert a == b, path
    else:
        assert np.array_equal(a, b), f"{path}: {a!r} != {b!r}"


class TestDefaults:
    def test_empty_file_gives_benchmark_defaults(self):
        cfg = parse_config_text("")
        assert cfg.robot.m1 == 1.5 and cfg.robot.m2 == 1.0
        assert cfg.robot.l1 == 0.3 and cfg.robot.l2 == 0.3
        assert cfg.robot.gravity == 9.81
        assert np.allclose(cfg.admittance.k_m, [20.0, 20.0])
        assert np.allclose(cfg.admittance.k_k, [100.0, 100.0])
        assert np.allclose(cfg.ecbf.K_obs, [700.0, 70.0])
        assert cfg.controller.lambda1 == 3.0
        assert cfg.duration == 16.0 and cfg.dt == 1e-3
        # both constraints on by default
        assert cfg.workspace is not None and cfg.obstacle is not None
        assert np.allclose(cfg.workspace.x_max, [0.13, 0.13])
        assert np.allclose(cfg.obstacle.x_obs, [-0.07, 0.07])
        assert cfg.workspace.r == 0.04

    def test_defaults_match_combined_preset(self):
        cfg = parse_config_text("")
        preset = scenario_library()["combined"]
        assert np.array_equal(cfg.workspace.x_min, preset.workspace.x_min)
        assert np.array_equal(cfg.workspace.x_max, preset.workspace.x_max)
        assert cfg.workspace.r == preset.workspace.r
        assert np.array_equal(cfg.obstacle.x_obs, preset.obstacle.x_obs)
        assert np.array_equal(cfg.admittance.k_m, preset.admittance.k_m)
        assert np.array_equal(cfg.admittance.k_b, preset.admittance.k_b)
        assert np.array_equal(cfg.admittance.k_k, preset.admittance.k_k)


class TestParsing:
    def test_overrides(self):
        cfg = parse_config_text("""
[scenario]
name = tweaked
duration = 2.5
dt = 0.002
a1 = 0.5
a2 = 1.5

[admittance]
k_m = 10, 30

[constraints]
set = workspace
x_max = 0.2, 0.2
x_min = -0.2, -0.2
r = 0.05
""")
        assert cfg.name == "tweaked"
        assert cfg.duration == 2.5 and cfg.dt == 0.002
        assert cfg.force_amplitude == (0.5, 1.5)
        assert np.allclose(cfg.admittance.k_m, [10.0, 30.0])
        assert cfg.obstacle is None
        assert np.allclose(cfg.workspace.x_max, [0.2, 0.2])
        assert cfg.workspace.r == 0.05

    def test_constraint_set_none(self):
        cfg = parse_config_text("[constraints]\nset = none\n")
        assert cfg.workspace is None and cfg.obstacle is None

    @pytest.mark.parametrize("kind,key", [
        ("obstacle", "x_max = 0.2, 0.2"), ("obstacle", "x_min = -0.2, -0.2"),
        ("workspace", "x_obs = 0.1, 0.1"), ("none", "r = 0.03"),
    ])
    def test_geometry_of_a_disabled_constraint_refused(self, kind, key):
        name = key.split()[0]
        with pytest.raises(ConfigError, match=rf"^\[constraints\] {name}: set = {kind} "):
            parse_config_text(f"[constraints]\nset = {kind}\n{key}\n")

    @pytest.mark.parametrize("kind", ["workspace", "obstacle"])
    def test_r_kept_while_one_of_its_constraints_is_enabled(self, kind):
        cfg = parse_config_text(f"[constraints]\nset = {kind}\nr = 0.03\n")
        assert getattr(cfg, kind).r == 0.03

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[mystery]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[robot]\nmass = 1\n")

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[robot]\nm1 = heavy\n")

    def test_bad_constraint_kind_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[constraints]\nset = everything\n")

    def test_invariant_violation_surfaces(self):
        with pytest.raises(ValidationError, match="k_m must be positive"):
            parse_config_text("[admittance]\nk_m = -1\n")

    def test_non_finite_step_count_surfaces(self):
        with pytest.raises(ValidationError, match="^duration / dt must be a finite"):
            parse_config_text("[scenario]\nduration = 1e300\ndt = 1e-300\n")

    def test_malformed_ini_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("this is not ini\n")

    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises((ConfigError, OSError)):
            parse_config(tmp_path / "nope.ini")

    def test_booleans(self):
        cfg = parse_config_text("[constraints]\nbypass = yes\nslack = on\n"
                                "[scenario]\nnominal_only = true\n")
        assert cfg.filter_bypass and cfg.slack and cfg.nominal_only
        with pytest.raises(ConfigError):
            parse_config_text("[constraints]\nbypass = maybe\n")

    def test_readme_example_parses(self):
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        cfg = parse_config_text(block)
        assert cfg.name == "demo"
        assert cfg.robot.m1 == 1.5 and cfg.workspace.r == cfg.obstacle.r == 0.04
        assert cfg.admittance_start is None and cfg.controller.alpha == 0.714285

    def test_omitted_keys_take_dataclass_defaults(self):
        cfg = parse_config_text("[constraints]\nx_obs = 0.1, 0.1\n"
                                "[scenario]\na2 = 3\n[ecbf]\nk_min = 400, 40\n")
        assert_fields_equal(cfg.robot, ManipulatorParams())
        assert_fields_equal(cfg.workspace, WorkspaceConstraint())
        assert cfg.obstacle.r == ObstacleConstraint().r
        assert cfg.force_amplitude == (ScenarioConfig().force_amplitude[0], 3.0)
        assert np.array_equal(cfg.ecbf.K_max, EcbfGains().K_max)
        assert cfg.ecbf.K_min == (400.0, 40.0)

    @pytest.mark.parametrize("key", ["k_max", "k_min", "k_obs"])
    @pytest.mark.parametrize("pair", ["2000, 50", "1e4, 10", "1e4, 2"])
    def test_gains_with_complex_roots_name_their_key(self, key, pair):
        with pytest.raises(ConfigError, match=rf"^\[ecbf\] {key}: .* has complex roots"):
            parse_config_text(f"[ecbf]\n{key} = {pair}\n")

    def test_explicit_admittance_start(self):
        cfg = parse_config_text("[scenario]\nadmittance_start = 0.01, -0.02\n")
        assert cfg.admittance_start == (0.01, -0.02)
        assert parse_config_text("[scenario]\nadmittance_start = auto\n"
                                 ).admittance_start is None


@pytest.mark.parametrize("cls,kwargs,text,message", NON_FINITE_CONSTANTS,
                         ids=[case[0] for case in NON_FINITE_CONSTANTS])
def test_non_finite_kernel_constant_refused(cls, kwargs, text, message):
    """A record whose kernel constants overflow is refused when it is made,
    naming the fields that feed them, and so is the INI that gives it."""
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        getattr(safeadmit, cls)(**kwargs)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        parse_config_text(text)


def _robot_with_gravity(gravity):
    # ManipulatorParams refuses a non-finite gravity, and is frozen: the
    # serializer's own refusal is reached through a field set past both.
    robot = ManipulatorParams()
    object.__setattr__(robot, "gravity", gravity)
    return robot


class TestRoundTrip:
    def _assert_round_trips(self, cfg):
        text = serialize_config(cfg)
        reparsed = parse_config_text(text)
        assert serialize_config(reparsed) == text
        assert_fields_equal(reparsed, cfg)

    def test_presets_round_trip(self):
        for cfg in scenario_library().values():
            self._assert_round_trips(cfg)

    def test_random_configs_round_trip(self, rng):
        for _ in range(20):
            base = parse_config_text("")
            cfg = replace(
                base,
                duration=float(rng.uniform(1.0, 20.0)),
                dt=float(rng.choice([1e-3, 2e-3, 5e-4])),
                circle_radius=float(rng.uniform(0.05, 0.2)),
                force_amplitude=(float(rng.uniform(0, 3)), float(rng.uniform(0, 3))),
                filter_bypass=bool(rng.integers(0, 2)),
                slack=bool(rng.integers(0, 2)),
            )
            self._assert_round_trips(cfg)

    def test_file_round_trip(self, tmp_path):
        cfg = scenario_library()["combined"]
        path = tmp_path / "scenario.ini"
        path.write_text(serialize_config(cfg))
        assert serialize_config(parse_config(path)) == serialize_config(cfg)

    @pytest.mark.parametrize("cfg", [
        replace(scenario_library()["combined"], admittance=AdmittanceParams(k_m=(20.0, 5.0))),
        ScenarioConfig(name="obs", obstacle=ObstacleConstraint(r=0.05)),
    ], ids=["anisotropic-k_m", "obstacle-only-own-r"])
    def test_more_configs_round_trip(self, cfg):
        self._assert_round_trips(cfg)

    @pytest.mark.parametrize("key,change", [
        ("r", {"obstacle": ObstacleConstraint(r=0.05)}),
        ("r", {"workspace": WorkspaceConstraint(r=0.03)}),
        ("gravity", {"robot": _robot_with_gravity(math.nan)}),
        ("gravity", {"robot": _robot_with_gravity(math.inf)}),
        *[("name", {"name": name}) for name in ("  pad", "pad ", "two\nlines", "cr\rname", "\t")],
    ])
    def test_what_the_ini_cannot_carry_is_refused(self, key, change):
        cfg = replace(scenario_library()["combined"], **change)
        with pytest.raises(ValidationError, match=rf"^\[\w+\] {key}:"):
            serialize_config(cfg)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _rarely(usual, rare):
    """Draws from ``rare`` about one time in four, else from ``usual``."""
    return st.integers(0, 3).flatmap(lambda i: rare if i == 0 else usual)


# (K0, K1) with real roots, K1**2 >= 4 K0, which EcbfGains requires: K0 is
# drawn up to K1**2 / 4, and that division by 4 is exact.
_GAIN_PAIR = _floats(2.0, 1e2).flatmap(lambda k1: st.tuples(_floats(1.0, k1 * k1 / 4), st.just(k1)))


@st.composite
def _configs(draw):
    """Configs the API accepts, over the fields the INI shares or cannot carry."""
    r_ws = draw(_floats(1e-3, 0.05))
    r_obs = draw(_rarely(st.just(r_ws), _floats(1e-3, 0.1)))
    lo = (-draw(_floats(0.05, 0.3)), -draw(_floats(0.05, 0.3)))
    hi = (draw(_floats(0.05, 0.3)), draw(_floats(0.05, 0.3)))
    k_m = draw(st.one_of(_floats(0.5, 100.0), st.tuples(_floats(0.5, 100.0), _floats(0.5, 100.0))))
    kind = draw(st.sampled_from(["workspace", "obstacle", "both", "none"]))
    try:
        return ScenarioConfig(
            name=draw(_rarely(st.text(max_size=8),
                              st.text(st.sampled_from(" \t\n\r;#=%[]a"), max_size=8))),
            duration=draw(_floats(1e-3, 100.0)),
            force_amplitude=(draw(_floats(-5.0, 5.0)), draw(_floats(-5.0, 5.0))),
            robot=_robot_with_gravity(draw(_rarely(
                _floats(0.0, 20.0), st.sampled_from([math.inf, -math.inf, math.nan])))),
            admittance=AdmittanceParams(k_m=k_m),
            ecbf=EcbfGains(K_max=draw(_GAIN_PAIR), K_min=draw(_GAIN_PAIR), K_obs=draw(_GAIN_PAIR)),
            workspace=(WorkspaceConstraint(lo, hi, r_ws)
                       if kind in ("workspace", "both") else None),
            obstacle=(ObstacleConstraint((draw(_floats(-0.3, 0.3)), draw(_floats(-0.3, 0.3))), r_obs)
                      if kind in ("obstacle", "both") else None),
            slack=draw(st.booleans()),
        )
    except ValidationError:
        assume(False)


def _refused_keys(cfg):
    """The documented cases the INI cannot carry, by key."""
    keys = set()
    if cfg.workspace is not None and cfg.obstacle is not None and cfg.workspace.r != cfg.obstacle.r:
        keys.add("r")
    if not math.isfinite(cfg.robot.gravity):
        keys.add("gravity")
    if "\n" in cfg.name or "\r" in cfg.name or cfg.name != cfg.name.strip():
        keys.add("name")
    return keys


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_configs())
def test_serialize_refuses_or_round_trips(cfg):
    refused = _refused_keys(cfg)
    if refused:
        with pytest.raises(ValidationError) as err:
            serialize_config(cfg)
        assert re.match(r"\[\w+\] (\w+):", str(err.value)).group(1) in refused
        return
    text = serialize_config(cfg)
    reparsed = parse_config_text(text)
    assert_fields_equal(reparsed, cfg)
    assert serialize_config(reparsed) == text
