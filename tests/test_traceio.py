import errno
import io
import os
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
                       scenario_library, traceio)
from safeadmit.sim import COLUMNS, QP_STATUSES, VECTORS, Trace
from safeadmit.traceio import csv_header

import trace_reference as ref
from conftest import MALFORMED_CASES
from test_pipeline import COMPLETING, leaves_nothing, other_thread, usable_cpus

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

    def test_header_follows_the_column_table(self, short_trace):
        # the float columns are the matrix's: t, the x and y of each group of
        # the table, then the barrier rows
        floats = ["t", *(f"{prefix}_{axis}" for _, prefix in COLUMNS for axis in "xy"),
                  *(f"h_{name}" for name in short_trace.h_names)]
        assert csv_header(short_trace) == floats + ["qp_active", "qp_status"]
        assert len(floats) == short_trace.matrix.shape[1]

    def test_column_count_constant(self, short_trace, tmp_path):
        path = tmp_path / "trace.csv"
        emit_csv(short_trace, path)
        with open(path) as fh:
            widths = {len(line.split(",")) for line in fh.read().splitlines()}
        assert len(widths) == 1

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_csv([], tmp_path / "empty.csv")

    @pytest.mark.parametrize("header_only", [False, True], ids=["zero-bytes", "header-only"])
    def test_empty_file_rejected(self, short_trace, tmp_path, header_only):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(csv_header(short_trace)) + "\n" if header_only else "")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))} is empty$"):
            read_csv(path)

    def test_non_finite_rejected(self, short_trace, tmp_path):
        # read_csv refuses a NaN or an infinity, so emit_csv does not write one
        bad = replace(short_trace, matrix=short_trace.matrix.copy())
        bad.x_f[2, 1] = np.inf
        with pytest.raises(ValidationError, match="step 2: its xf_y is not finite"):
            emit_csv(bad, tmp_path / "inf.csv")
        assert not (tmp_path / "inf.csv").exists()

    def test_missing_final_line_break_reads_the_same(self, short_trace, tmp_path):
        path = tmp_path / "trace.csv"
        emit_csv(short_trace, path)
        path.write_bytes(path.read_bytes()[:-1])
        assert records_equal(short_trace, read_csv(path))

    def test_crlf_refused_naming_the_line_end(self, malformed_csv):
        path, _ = malformed_csv("crlf")
        message = f'{path}:1: the line ends in "\\r\\n"'
        with pytest.raises(ValidationError, match=re.escape(message)):
            read_csv(path)

    def test_pipe_refused(self):
        # read_csv reads a trace by offset, which a pipe, as from a shell's
        # <(...), cannot do
        reader, writer = os.pipe()
        os.close(writer)
        path = f"/dev/fd/{reader}"
        try:
            with pytest.raises(ValidationError, match=f"^{path} is not a regular file$"):
                read_csv(path)
        finally:
            os.close(reader)

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
    return Trace(matrix, ROW_NAMES[:rows], tuple(active), tuple(status))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_columns())
def test_random_columns_round_trip_bit_exact(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("columns") / "trace.csv"
    emit_csv(trace, path)
    assert records_equal(trace, read_csv(path))
    old = path.with_name("reference.csv")
    ref.emit_csv(trace, old)
    assert path.read_bytes() == old.read_bytes()


@pytest.fixture(scope="module")
def long_traces(preset_traces):
    """Every preset over its 16 s (16,001 rows, four blocks) and the
    sweep-style INI at dt 2e-3 over 16 s (8,001 rows, two blocks)."""
    return {**preset_traces,
            "sweep-style": run(replace(COMPLETING["sweep-style"], duration=16.0))}


def _line(i: int, k: int) -> int:
    """The CSV line of row k of slice i of a 16 s trace: _in_slices cuts its
    16,001 rows into 16 slices at 16001 * i // 16, and with two CPUs the
    child converts the odd ones (TestSplitIo.test_slices_of_a_long_trace)."""
    return 16001 * i // 16 + k + 2


@pytest.fixture(scope="module")
def long_lines(long_traces, tmp_path_factory):
    """The lines of the 16 s workspace trace's CSV: its 16 slices of rows
    are lines 2-1001, 1002-2001, ..., 15002-16002 (see _line)."""
    path = tmp_path_factory.mktemp("long") / "workspace.csv"
    emit_csv(long_traces["workspace"], path)
    return path.read_text().splitlines()


def _counted(fork, calls):
    """``fork``, which also appends an entry to ``calls`` per call."""
    def counted():
        calls.append(None)
        return fork()
    return counted


@pytest.fixture
def forks(monkeypatch):
    """A list that gets one entry per os.fork call."""
    calls = []
    monkeypatch.setattr(os, "fork", _counted(os.fork, calls))
    return calls


def _write_and_read(trace, path):
    """Write ``trace`` to ``path`` and read it back, counting os.fork calls:
    (the count, whether the read-back trace equals ``trace``)."""
    calls, fork = [], os.fork
    os.fork = _counted(fork, calls)
    try:
        emit_csv(trace, path)
        back = read_csv(path)
    finally:
        os.fork = fork
    return len(calls), records_equal(trace, back)


class TestSplitIo:
    """emit_csv and read_csv give the same bytes, trace and errors whether a
    forked child handles every other block of rows (two usable CPUs) or
    this process handles them all (one), and leave no child process and no
    descriptor behind."""

    @pytest.mark.parametrize("name", [*scenario_library(), "sweep-style"])
    def test_same_bytes_and_trace(self, long_traces, name, tmp_path, monkeypatch, forks):
        trace = long_traces[name]
        written = {}
        for cpus in (1, 2):
            path = tmp_path / f"{cpus}.csv"
            with usable_cpus(monkeypatch, cpus), leaves_nothing():
                emit_csv(trace, path)
                assert records_equal(trace, read_csv(path))
            written[cpus] = path.read_bytes()
        assert len(forks) == 2  # with two CPUs, one for the write and one for the read
        ref.emit_csv(trace, tmp_path / "reference.csv")
        assert written[1] == written[2] == (tmp_path / "reference.csv").read_bytes()

    def test_slices_of_a_long_trace(self, monkeypatch):
        # the slices that _line places test_same_error's defects in
        taken, parent = [], os.getpid()
        with usable_cpus(monkeypatch, 2), leaves_nothing():
            traceio._in_slices(16001, lambda start, stop: os.getpid() != parent,
                               lambda start, stop, child: taken.append((start + 2, child)))
        assert taken == [(_line(i, 0), i % 2 == 1) for i in range(16)]

    @pytest.mark.parametrize("defects, line", [
        ({_line(4, 7): (5, "abc")}, _line(4, 7)),
        ({_line(4, 7): (17, "nan")}, _line(4, 7)),  # h_ws_max_x
        ({_line(4, 7): (-1, "weird")}, _line(4, 7)),
        ({_line(4, 7): (-2, "1.5")}, _line(4, 7)),
        ({16002: (1, "?")}, 16002),  # the last row
        # a number that does not parse wins over an earlier non-finite one
        ({_line(12, 8): (5, "abc"), 3: (17, "inf")}, _line(12, 8)),
        # the first failing slice wins, whichever process parsed it
        ({_line(5, 7): (5, "abc"), _line(8, 3): (3, "x")}, _line(5, 7)),
        ({_line(8, 3): (3, "x"), _line(9, 8): (5, "abc")}, _line(8, 3)),
        # a number that does not parse wins over a later wrong field count,
        # both in the child's slices
        ({_line(5, 7): (5, "abc"), _line(13, 8): (3, "1,2")}, _line(5, 7)),
    ], ids=["non-numeric", "non-finite", "status", "active-index", "last-row",
            "number-before-non-finite", "child-block-first", "own-block-first",
            "number-before-field-count"])
    def test_same_error(self, long_lines, defects, line, tmp_path, monkeypatch, forks):
        lines = list(long_lines)
        for k, (index, text) in defects.items():
            fields = lines[k - 1].split(",")
            fields[index] = text
            lines[k - 1] = ",".join(fields)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        errors = []
        for cpus in (1, 2):
            with usable_cpus(monkeypatch, cpus), leaves_nothing():
                with pytest.raises(ValidationError) as excinfo:
                    read_csv(path)
            errors.append(str(excinfo.value))
        assert len(forks) == 1
        assert errors[0] == errors[1] and errors[0].startswith(f"{path}:{line}: ")

    def test_failed_write_leaves_nothing(self, long_traces, tmp_path, monkeypatch, forks):
        class FullDisk(io.StringIO):
            def write(self, text):
                if self.tell():  # the header goes in, the first block does not
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(text)
        monkeypatch.setattr(traceio, "open", lambda *args, **kwargs: FullDisk(), raising=False)
        with usable_cpus(monkeypatch, 2), leaves_nothing():
            with pytest.raises(OSError, match="No space left"):
                emit_csv(long_traces["combined"], tmp_path / "full.csv")
        assert len(forks) == 1

    def test_interrupt_in_own_block_leaves_nothing(self, long_traces, tmp_path, monkeypatch,
                                                   forks):
        path = tmp_path / "combined.csv"
        with usable_cpus(monkeypatch, 1):
            emit_csv(long_traces["combined"], path)
        parse, parent = traceio._parse_rows, os.getpid()

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return parse(*args)
        monkeypatch.setattr(traceio, "_parse_rows", interrupted)
        with usable_cpus(monkeypatch, 2), leaves_nothing():
            with pytest.raises(KeyboardInterrupt):
                read_csv(path)
        assert len(forks) == 1

    def test_other_thread_means_no_fork(self, long_traces, tmp_path, monkeypatch):
        with usable_cpus(monkeypatch, 2), other_thread():
            assert _write_and_read(long_traces["combined"], tmp_path / "c.csv") == (0, True)

    @pytest.mark.parametrize("call", ["pipe", "fork"])
    def test_no_pipe_or_no_process_runs_in_process(self, long_traces, call, tmp_path,
                                                   monkeypatch):
        def fails(*args):
            raise OSError(errno.EAGAIN, f"no {call}")
        trace = long_traces["combined"]
        ref.emit_csv(trace, tmp_path / "reference.csv")
        with usable_cpus(monkeypatch, 2), leaves_nothing():
            monkeypatch.setattr(os, call, fails)
            emit_csv(trace, tmp_path / "c.csv")
            assert records_equal(trace, read_csv(tmp_path / "c.csv"))
        assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


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

    def test_active_steps(self, preset_traces):
        # obstacle-only never makes its row active; combined does, and each
        # row's count is the steps whose active set holds it
        assert compute_report(preset_traces["obstacle-only"]).active_steps == {"obs": 0}
        trace = preset_traces["combined"]
        rep = compute_report(trace)
        assert rep.active_steps["obs"] > 0
        assert rep.active_steps == {name: sum(j in active for active in trace.qp_active)
                                    for j, name in enumerate(trace.h_names)}
        assert f"active steps[obs]: {rep.active_steps['obs']}\n" in rep.format()

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
