import re
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safeadmit import (ObstacleConstraint, ScenarioConfig, SimulationAborted,
                       ValidationError, WorkspaceConstraint, compute_report,
                       emit_csv, emit_plot, read_csv, records_equal, run,
                       scenario_library)
from safeadmit.sim import QP_STATUSES, VECTORS, Trace
from safeadmit.traceio import csv_header

import trace_reference as ref
from conftest import MALFORMED_CASES

ROW_NAMES = ("ws_max_x", "ws_min_x", "ws_max_y", "ws_min_y", "obs")

# A 2 s run whose reference starts 0.3 mm under the shrunk upper wall and
# moves down toward an obstacle just below it: on a few steps the wall and
# obstacle rows conflict and the step takes the slack fallback.
SLACK_RUN = ScenarioConfig(
    name="slack", duration=2.0, slack=True, workspace=WorkspaceConstraint(),
    obstacle=ObstacleConstraint(x_obs=(0.0, 0.0495)),
    admittance_start=(0.0, 0.0897), circle_rate=-0.5)

REFERENCE_CASES = (*scenario_library(), "no-constraint", "slack",
                   *(f"{name}-abort" for name in scenario_library()))


@pytest.fixture(scope="module")
def short_trace():
    cfg = replace(scenario_library()["combined"], duration=2.0)
    return run(cfg)


class TestCsv:
    def test_round_trip_bit_exact(self, short_trace, tmp_path):
        path = tmp_path / "trace.csv"
        emit_csv(short_trace, path)
        assert records_equal(short_trace, read_csv(path))

    def test_row_count_inclusive_endpoints(self, preset_traces, tmp_path):
        path = tmp_path / "ws.csv"
        emit_csv(preset_traces["workspace"], path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 1 + 16001

    def test_header_schema(self, short_trace):
        header = csv_header(short_trace)
        assert header[0] == "t"
        for prefix in ("xd", "xf", "xrs", "xa", "fe", "feh", "fec", "fc"):
            assert f"{prefix}_x" in header and f"{prefix}_y" in header
        assert header[-2:] == ["qp_active", "qp_status"]
        assert [c for c in header if c.startswith("h_")] == [
            "h_ws_max_x", "h_ws_min_x", "h_ws_max_y", "h_ws_min_y", "h_obs"]

    def test_column_count_constant(self, short_trace, tmp_path):
        path = tmp_path / "trace.csv"
        emit_csv(short_trace, path)
        with open(path) as fh:
            widths = {len(line.split(",")) for line in fh.read().splitlines()}
        assert len(widths) == 1

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_csv([], tmp_path / "empty.csv")

    def test_non_finite_rejected(self, short_trace, tmp_path):
        # read_csv refuses a NaN or an infinity, so emit_csv does not write one
        x_f = short_trace.x_f.copy()
        x_f[2, 1] = np.inf
        with pytest.raises(ValidationError, match="step 2: its xf_y is not finite"):
            emit_csv(replace(short_trace, x_f=x_f), tmp_path / "inf.csv")
        assert not (tmp_path / "inf.csv").exists()

    def test_repeated_emit_identical_bytes(self, short_trace, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(short_trace, p1)
        emit_csv(short_trace, p2)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.fixture(scope="module")
def reference_traces():
    """Each preset at 2 s, a run without constraints, a run that engages
    slack, and the partial trace of each preset's abort at dt = 5e-3."""
    traces = {name: run(replace(cfg, duration=2.0))
              for name, cfg in scenario_library().items()}
    traces["no-constraint"] = run(ScenarioConfig(name="free", duration=2.0))
    traces["slack"] = run(SLACK_RUN)
    for name, cfg in scenario_library().items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationAborted) as excinfo:
                run(replace(cfg, duration=2.0, dt=5e-3))
        traces[f"{name}-abort"] = excinfo.value.trace
    return traces


class TestReferenceFormat:
    """The columnar writer and reader against the row-wise reference."""

    def test_cases_cover_their_shapes(self, reference_traces):
        assert reference_traces["no-constraint"].h.shape == (2001, 0)
        assert reference_traces["slack"].qp_status.count("slack") > 0
        for name in scenario_library():
            assert 0 < len(reference_traces[f"{name}-abort"]) < 20

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_bytes_equal_reference(self, reference_traces, case, tmp_path):
        trace = reference_traces[case]
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        emit_csv(trace, new)
        ref.emit_csv(trace, old)
        assert new.read_bytes() == old.read_bytes()
        back = read_csv(new)
        assert records_equal(trace, back)
        assert records_equal(ref.read_csv(new), back)


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                -2.225073858507201e-308, 1e300, -1e300, 1.7976931348623157e308)


@st.composite
def _columns(draw):
    """A Trace of random columns: any finite float, any number of barrier
    rows, and every active set over them."""
    n = draw(st.integers(1, 12))
    rows = draw(st.integers(0, len(ROW_NAMES)))
    numbers = st.one_of(st.sampled_from(_EDGE_FLOATS),
                        st.floats(allow_nan=False, allow_infinity=False))
    width = 1 + 2 * len(VECTORS) + rows
    matrix = np.array(draw(st.lists(numbers, min_size=n * width, max_size=n * width)),
                      dtype=float).reshape(n, width)
    subsets = [s for k in range(rows + 1) for s in combinations(range(rows), k)]
    active = draw(st.lists(st.sampled_from(subsets), min_size=n, max_size=n))
    status = draw(st.lists(st.sampled_from(QP_STATUSES), min_size=n, max_size=n))
    return Trace.from_matrix(matrix[:, 0], matrix[:, 1:], ROW_NAMES[:rows], active, status)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_columns())
def test_random_columns_round_trip_bit_exact(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("columns") / "trace.csv"
    emit_csv(trace, path)
    assert records_equal(trace, read_csv(path))
    old = path.with_name("reference.csv")
    ref.emit_csv(trace, old)
    assert path.read_bytes() == old.read_bytes()


@pytest.mark.parametrize("case", MALFORMED_CASES)
def test_malformed_csv_names_path_and_line(malformed_csv, case):
    path, line = malformed_csv(case)
    with pytest.raises(ValidationError, match=re.escape(f"{path}:{line}: ")):
        read_csv(path)


class TestReport:
    def test_fields(self, preset_traces):
        rep = compute_report(preset_traces["combined"], scenario="combined")
        assert rep.scenario == "combined"
        assert set(rep.min_h) == {"ws_max_x", "ws_min_x", "ws_max_y",
                                  "ws_min_y", "obs"}
        assert rep.min_obstacle_distance is not None
        assert rep.max_tracking_error < 5e-3
        assert rep.slack_steps == 0

    def test_no_obstacle_no_distance(self, preset_traces):
        rep = compute_report(preset_traces["workspace"], scenario="workspace")
        assert rep.min_obstacle_distance is None

    def test_rebuilt_from_csv_matches(self, short_trace, tmp_path):
        path = tmp_path / "trace.csv"
        emit_csv(short_trace, path)
        direct = compute_report(short_trace, scenario="x")
        rebuilt = compute_report(read_csv(path), scenario="x")
        assert direct == rebuilt

    def test_violation_flag_in_text(self, preset_traces):
        rep = compute_report(preset_traces["baseline-unsafe"], scenario="b")
        text = rep.format()
        assert "barrier violation: yes" in text
        ok = compute_report(preset_traces["combined"], scenario="c")
        # tiny negative overshoots below the integration tolerance may
        # exist but must not be flagged as violations
        assert "barrier violation: no" in ok.format()
        assert ok.min_obstacle_distance >= 0.04 - 1e-3

    def test_obstacle_distance_definition(self, preset_traces):
        trace = preset_traces["obstacle-only"]
        rep = compute_report(trace, scenario="o", safe_distance=0.04)
        direct = np.linalg.norm(trace.x_f - [-0.07, 0.07], axis=1).min()
        assert abs(rep.min_obstacle_distance - direct) < 1e-9


class TestPlot:
    def test_workspace_rectangle_geometry(self, short_trace, tmp_path):
        cfg = scenario_library()["combined"]
        path = tmp_path / "plot.svg"
        emit_plot(short_trace, path, workspace=cfg.workspace, obstacle=cfg.obstacle)
        root = ET.parse(path).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        rects = root.findall(".//svg:rect", ns)
        assert len(rects) == 1
        r = rects[0]
        assert float(r.get("x")) == pytest.approx(-0.09)
        assert float(r.get("y")) == pytest.approx(-0.09)
        assert float(r.get("width")) == pytest.approx(0.18)
        circles = root.findall(".//svg:circle", ns)
        assert len(circles) == 1
        assert float(circles[0].get("cx")) == pytest.approx(-0.07)
        assert float(circles[0].get("r")) == pytest.approx(0.04)

    def test_unconstrained_plot_has_no_shapes(self, short_trace, tmp_path):
        path = tmp_path / "plain.svg"
        emit_plot(short_trace, path)
        root = ET.parse(path).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        assert root.findall(".//svg:rect", ns) == []
        assert root.findall(".//svg:circle", ns) == []
        assert len(root.findall(".//svg:polyline", ns)) == 4

    def test_trajectories_drawn_in_world_coordinates(self, short_trace, tmp_path):
        path = tmp_path / "plot.svg"
        emit_plot(short_trace, path)
        root = ET.parse(path).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        group = root.find("svg:g", ns)
        assert group.get("transform") == "scale(1,-1)"
        poly = group.findall("svg:polyline", ns)[0]
        first = poly.get("points").split()[0].split(",")
        x_d = short_trace.x_d[0]
        assert float(first[0]) == pytest.approx(x_d[0], abs=1e-4)
        assert float(first[1]) == pytest.approx(x_d[1], abs=1e-4)

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_plot([], tmp_path / "empty.svg")
