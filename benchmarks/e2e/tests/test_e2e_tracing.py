"""Self time = span - children, and the patching leaves no trace behind."""

import pytest

import tracing
from tracing import Recorder, layer_self_by_op, self_times


def test_self_time_on_a_hand_built_tree():
    # op 0: request 0..10 { engine 1..7 { cache 2..3 }, serialize 8..9.5 }
    # op 1: request 20..21
    spans = [
        ["server.http", 0, -1, 0.0, 10.0],
        ["query.engine", 0, 0, 1.0, 7.0],
        ["query.cache", 0, 1, 2.0, 3.0],
        ["sgml.serializer", 0, 0, 8.0, 9.5],
        ["server.http", 1, -1, 20.0, 21.0],
    ]
    assert self_times(spans) == [2.5, 5.0, 1.0, 1.5, 1.0]
    by_op = layer_self_by_op(spans)
    assert by_op[0] == {
        "server.http": 2.5, "query.engine": 5.0, "query.cache": 1.0, "sgml.serializer": 1.5,
    }
    # the self times of one operation add up to its root span
    assert sum(by_op[0].values()) == 10.0
    assert by_op[1] == {"server.http": 1.0}


def test_wrapped_calls_nest_and_record_only_inside_an_operation():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap("inner", lambda: "x")
    outer = recorder.wrap("outer", lambda: inner() + inner())

    assert outer() == "xx" and recorder.spans == []  # no operation open

    root = recorder.begin("op.read", 5)
    assert outer() == "xx"
    recorder.end(root)
    layers = [(s[tracing.LAYER], s[tracing.OP], s[tracing.PARENT]) for s in recorder.spans]
    assert layers == [("op.read", 5, -1), ("outer", 5, 0), ("inner", 5, 1), ("inner", 5, 1)]
    assert all(s[tracing.END] > s[tracing.START] for s in recorder.spans)


def test_a_raising_call_still_closes_its_span():
    recorder = Recorder()

    def boom():
        raise RuntimeError("x")

    root = recorder.begin("op.read", 0)
    with pytest.raises(RuntimeError):
        recorder.wrap("layer", boom)()
    assert recorder.current == root
    assert recorder.spans[1][tracing.END] >= recorder.spans[1][tracing.START] > 0


def test_install_wraps_every_layer_point_and_uninstall_restores():
    from repro.query.engine import QueryEngine
    import repro.server.http as http

    before = (QueryEngine.execute, http.serialize)
    recorder = Recorder()
    recorder.install()
    try:
        assert QueryEngine.execute.__wrapped__ is before[0]
        assert http.serialize.__wrapped__ is before[1]
    finally:
        recorder.uninstall()
    assert (QueryEngine.execute, http.serialize) == before


def test_trace_file_has_one_span_per_line(tmp_path):
    import json

    recorder = Recorder()
    root = recorder.begin("op.read", 0)
    recorder.wrap("layer", lambda: None)()
    recorder.end(root)
    path = tmp_path / "trace.jsonl"
    recorder.write_jsonl(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["layer"] for row in rows] == ["op.read", "layer"]
    assert rows[1]["parent"] == rows[0]["id"] == 0
    assert set(rows[0]) == {"id", "layer", "op", "parent", "start", "end"}
