"""Tests for workload trace persistence."""

import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import barabasi_albert_graph
from repro.graph.updates import EdgeUpdate
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.trace_io import load_workload_trace, save_workload_trace
from repro.queueing.workload import generate_workload, Request, Workload


@pytest.fixture
def workload():
    graph = barabasi_albert_graph(40, attach=2, seed=1)
    return generate_workload(graph, 10.0, 5.0, 4.0, rng=2)


class TestRoundTrip:
    def test_requests_preserved(self, workload, tmp_path):
        path = tmp_path / "trace.csv"
        save_workload_trace(workload, path)
        loaded = load_workload_trace(path, t_end=workload.t_end)
        assert len(loaded) == len(workload)
        for a, b in zip(workload, loaded):
            assert a.arrival == pytest.approx(b.arrival)
            assert a.kind == b.kind
            if a.kind == QUERY:
                assert a.source == b.source
            else:
                assert (a.update.u, a.update.v) == (b.update.u, b.update.v)

    def test_rates_recomputed(self, workload, tmp_path):
        path = tmp_path / "trace.csv"
        save_workload_trace(workload, path)
        loaded = load_workload_trace(path, t_end=workload.t_end)
        lq, lu = loaded.empirical_rates()
        assert lq == pytest.approx(workload.empirical_rates()[0])
        assert lu == pytest.approx(workload.empirical_rates()[1])

    def test_default_t_end_is_last_arrival(self, workload, tmp_path):
        path = tmp_path / "trace.csv"
        save_workload_trace(workload, path)
        loaded = load_workload_trace(path)
        assert loaded.t_end == pytest.approx(workload[-1].arrival)


class TestUpdateKindColumn:
    def test_update_kinds_round_trip(self, tmp_path):
        requests = [
            Request(0.5, UPDATE, update=EdgeUpdate(1, 2, "insert")),
            Request(1.0, UPDATE, update=EdgeUpdate(1, 2, "delete")),
            Request(1.5, UPDATE, update=EdgeUpdate(3, 4, "toggle")),
            Request(2.0, QUERY, source=7),
        ]
        workload = Workload(requests, 3.0, 1.0 / 3.0, 1.0)
        path = tmp_path / "trace.csv"
        save_workload_trace(workload, path)
        loaded = load_workload_trace(path, t_end=3.0)
        kinds = [r.update.kind for r in loaded if r.kind == UPDATE]
        assert kinds == ["insert", "delete", "toggle"]

    def test_header_has_update_kind_column(self, workload, tmp_path):
        path = tmp_path / "trace.csv"
        save_workload_trace(workload, path)
        header = path.read_text().splitlines()[0]
        assert header == "timestamp,kind,a,b,update_kind"

    def test_legacy_four_column_trace_loads_as_toggle(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "timestamp,kind,a,b\n1.0,query,3,\n2.0,update,1,2\n"
        )
        loaded = load_workload_trace(path)
        updates = [r for r in loaded if r.kind == UPDATE]
        assert len(loaded) == 2
        assert updates[0].update.kind == "toggle"

    def test_blank_update_kind_means_toggle(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "timestamp,kind,a,b,update_kind\n1.0,update,1,2,\n"
        )
        loaded = load_workload_trace(path)
        assert loaded[0].update.kind == "toggle"

    def test_unknown_update_kind_rejected_with_location(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "timestamp,kind,a,b,update_kind\n1.0,update,1,2,upsert\n"
        )
        with pytest.raises(ValueError, match=r"trace\.csv:2.*upsert"):
            load_workload_trace(path)

    def test_query_row_with_update_kind_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "timestamp,kind,a,b,update_kind\n1.0,query,3,,toggle\n"
        )
        with pytest.raises(ValueError, match="update_kind empty"):
            load_workload_trace(path)


class TestValidation:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty trace"):
            load_workload_trace(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,type\n")
        with pytest.raises(ValueError, match="expected header"):
            load_workload_trace(path)

    def test_bad_kind_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("timestamp,kind,a,b\n1.0,compact,3,\n")
        with pytest.raises(ValueError, match="unknown request kind"):
            load_workload_trace(path)

    def test_negative_timestamp_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("timestamp,kind,a,b\n-1.0,query,3,\n")
        with pytest.raises(ValueError, match="negative timestamp"):
            load_workload_trace(path)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("timestamp,kind,a,b\n1.0,query\n")
        with pytest.raises(ValueError, match="expected 4 columns"):
            load_workload_trace(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "timestamp,kind,a,b\n1.0,query,3,\n\n2.0,update,1,2\n"
        )
        loaded = load_workload_trace(path)
        assert len(loaded) == 2

    def test_unsorted_trace_sorted_on_load(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "timestamp,kind,a,b\n5.0,query,1,\n1.0,query,2,\n"
        )
        loaded = load_workload_trace(path)
        assert [r.arrival for r in loaded] == [1.0, 5.0]

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_timestamp_rejected_with_location(self, tmp_path, bad):
        path = tmp_path / "trace.csv"
        path.write_text(
            f"timestamp,kind,a,b,update_kind\n1.0,query,3,,\n{bad},query,4,,\n"
        )
        with pytest.raises(ValueError, match=r"trace\.csv:3.*non-finite"):
            load_workload_trace(path)

    def test_unparseable_timestamp_rejected_with_location(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("timestamp,kind,a,b,update_kind\nsoon,query,3,,\n")
        with pytest.raises(ValueError, match=r"trace\.csv:2.*bad timestamp"):
            load_workload_trace(path)

    def test_extra_columns_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "timestamp,kind,a,b,update_kind\n1.0,query,3,,,surprise\n"
        )
        with pytest.raises(ValueError, match="expected 5 columns, got 6"):
            load_workload_trace(path)

    def test_extra_columns_rejected_legacy(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("timestamp,kind,a,b\n1.0,query,3,,extra\n")
        with pytest.raises(ValueError, match="expected 4 columns, got 5"):
            load_workload_trace(path)


# --- property tests ----------------------------------------------------

_ts = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
_node = st.integers(min_value=0, max_value=10_000)


@st.composite
def _requests(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    out = []
    for _ in range(n):
        arrival = draw(_ts)
        if draw(st.booleans()):
            out.append(Request(arrival, QUERY, source=draw(_node)))
        else:
            kind = draw(st.sampled_from(["toggle", "insert", "delete"]))
            out.append(
                Request(
                    arrival,
                    UPDATE,
                    update=EdgeUpdate(draw(_node), draw(_node), kind),
                )
            )
    return sorted(out, key=lambda r: r.arrival)


class TestRoundTripProperties:
    @settings(max_examples=50, deadline=None)
    @given(requests=_requests())
    def test_round_trip_preserves_everything(self, requests):
        """Arrival order, request kinds, payloads, and update kinds all
        survive save -> load exactly (timestamps via repr round-trip)."""
        workload = Workload(requests, 1e6, 0.0, 0.0)
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "trace.csv"
            save_workload_trace(workload, path)
            loaded = load_workload_trace(path, t_end=1e6)
        assert len(loaded) == len(requests)
        for a, b in zip(requests, loaded):
            assert a.arrival == b.arrival  # repr() is exact for floats
            assert a.kind == b.kind
            if a.kind == QUERY:
                assert a.source == b.source
            else:
                assert a.update == b.update  # u, v, and kind

    @settings(max_examples=50, deadline=None)
    @given(requests=_requests())
    def test_loaded_arrivals_sorted(self, requests):
        workload = Workload(requests, 1e6, 0.0, 0.0)
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "trace.csv"
            save_workload_trace(workload, path)
            loaded = load_workload_trace(path, t_end=1e6)
        arrivals = [r.arrival for r in loaded]
        assert arrivals == sorted(arrivals)

    @settings(max_examples=25, deadline=None)
    @given(
        bad=st.sampled_from(["nan", "inf", "-inf"]),
        position=st.integers(min_value=0, max_value=5),
        requests=_requests(),
    )
    def test_injected_non_finite_timestamp_always_caught(
        self, bad, position, requests
    ):
        """Splicing a non-finite timestamp anywhere in an otherwise
        valid trace raises and names the poisoned line."""
        workload = Workload(requests, 1e6, 0.0, 0.0)
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "trace.csv"
            save_workload_trace(workload, path)
            lines = path.read_text().splitlines()
            row = min(1 + position, len(lines))  # after the header
            lines.insert(row, f"{bad},query,1,,")
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError, match=rf"trace\.csv:{row + 1}:"):
                load_workload_trace(path)


def test_loaded_trace_replays_through_system(workload, tmp_path):
    """A persisted trace drives QuotaSystem identically to the original."""
    from repro.core.system import QuotaSystem
    from repro.graph.generators import barabasi_albert_graph
    from repro.ppr.base import PPRParams
    from repro.ppr.fora import Fora

    path = tmp_path / "trace.csv"
    save_workload_trace(workload, path)
    loaded = load_workload_trace(path, t_end=workload.t_end)

    graph = barabasi_albert_graph(40, attach=2, seed=1)
    a = Fora(graph.copy(), PPRParams(walk_cap=300))
    b = Fora(graph.copy(), PPRParams(walk_cap=300))
    a.seed(0)
    b.seed(0)
    ra = QuotaSystem(a).process(workload)
    rb = QuotaSystem(b).process(loaded)
    assert len(ra) == len(rb)
    assert set(a.graph.edges()) == set(b.graph.edges())
