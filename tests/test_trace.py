import csv
import io
import json

import pytest
from hypothesis import example, given, strategies as st

from oscmac import __version__
from oscmac.engine import run
from oscmac.trace import (_BLOCK_ROWS, TRACE_COLUMNS, TraceRows, read_trace,
                          render_trace, write_metrics, write_trace)
from conftest import make_config, two_node_doc
from test_golden import SEED, _auto_doc


def test_render_trace_header_and_columns():
    text = render_trace([], "abc123", 7)
    lines = text.splitlines()
    assert lines[0] == f"# config_hash=abc123 seed=7 version={__version__}"
    assert lines[1] == ",".join(TRACE_COLUMNS)


def _csv_reference(rows, config_hash, seed):
    """The trace as ``csv.writer`` renders it, row by row."""
    buf = io.StringIO()
    buf.write(f"# config_hash={config_hash} seed={seed} version={__version__}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


def _canonical(detail):
    return json.dumps(detail, sort_keys=True)


_TEXT = st.text(st.sampled_from(',"\n\r\\ a\u00e9\u20ac') | st.characters(), max_size=8)
_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | _TEXT,
    lambda inner: st.lists(inner, max_size=3), max_leaves=6)
_ROW = st.tuples(st.integers(), st.integers(), st.integers(),
                 st.from_regex(r"[a-z][a-z_]*", fullmatch=True),
                 st.dictionaries(_TEXT, _VALUE, max_size=4).map(_canonical),
                 st.sampled_from([0.0, 5e-324, 1e16])
                 | st.floats(allow_nan=False, allow_infinity=False))


@given(st.lists(_ROW, max_size=6))
@example([(0, 0, 0, "energy_account", _canonical({}), 5e-324)])
@example([(1, 2, 3, "tx", _canonical({"s": ',"\n\r\\\u00e9'}), 1e16)])
def test_render_trace_matches_csv_writer(rows):
    assert render_trace(rows, "abc123", 7) == _csv_reference(rows, "abc123", 7)


def _filled(columns):
    """A ``TraceRows`` holding ``columns``' rows, and the same rows as tuples."""
    rows = TraceRows()
    for row in columns:
        rows.add(*row)
    return rows, [(t, seq, n, e, d, r) for seq, (t, n, e, d, r) in enumerate(columns)]


_STORED = st.tuples(st.integers(), st.integers(), st.sampled_from(["tx", "rx"]),
                    st.sampled_from(["{}", '{"a": 1}']),
                    st.integers(0, 3) | st.floats(allow_nan=False))


@given(st.lists(_STORED, max_size=8), st.data())
def test_trace_rows_read_as_a_list_of_tuples(columns, data):
    rows, expected = _filled(columns)
    assert len(rows) == len(expected)
    assert list(rows) == expected
    for i in range(-len(expected), len(expected)):
        assert rows[i] == expected[i]
    for i in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            rows[i]
    cut = data.draw(st.slices(len(expected) + 2))
    assert rows[cut] == expected[cut]
    assert rows == expected and rows == _filled(columns)[0]
    assert rows != expected + [(0, len(expected), 0, "tx", "{}", 0.0)]
    if expected:
        assert rows != expected[:-1]
        assert rows != [(expected[0][0] + 1, *expected[0][1:])] + expected[1:]


@pytest.mark.parametrize("count", [0, 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1])
def test_render_trace_across_block_edges(tmp_path, count):
    details = ["{}", '{"a": [1, 2]}', '{"s": "x"}']
    rows, expected = _filled([(i * 7, i % 5, "tx", details[i % 3], i / 3) for i in range(count)])
    text = render_trace(rows, "abc123", 7)
    assert text == _csv_reference(expected, "abc123", 7)
    write_trace(tmp_path / "t.csv", rows, "abc123", 7)
    assert (tmp_path / "t.csv").read_bytes() == text.encode()


def _assert_round_trip(tmp_path, cfg, seed):
    metrics, rows = run(cfg, seed)
    path = tmp_path / "t.csv"
    write_trace(path, rows, cfg.config_hash(), seed)
    header, records = read_trace(path)
    assert header["config_hash"] == cfg.config_hash()
    assert header["seed"] == str(seed)
    assert header["version"] == __version__
    assert len(records) == len(rows)
    assert len(records) == metrics.events_processed
    for rec, row in zip(records, rows):
        assert rec["time_us"] == row[0]
        assert rec["seq"] == row[1]
        assert int(rec["node"]) == row[2]
        assert rec["event"] == row[3]
        assert rec["detail"] == json.loads(row[4])
        assert type(row[5]) is float
        assert float(rec["residual_j"]) == row[5]
    return rows


def test_trace_round_trip(tmp_path):
    _assert_round_trip(tmp_path, make_config(two_node_doc()), 3)


def test_trace_round_trip_through_node_deaths(tmp_path):
    rows = _assert_round_trip(tmp_path, make_config(_auto_doc()), SEED)
    # the death path: a final energy_account row, then node_died, for one node
    assert any(prev[3] == "energy_account" and row[3] == "node_died" and prev[2] == row[2]
               for prev, row in zip(rows, rows[1:]))


def test_trace_rows_time_ordered_and_sequenced():
    cfg = make_config(two_node_doc())
    _, rows = run(cfg, 0)
    times = [r[0] for r in rows]
    assert times == sorted(times)
    assert [r[1] for r in rows] == list(range(len(rows)))


def test_read_trace_rejects_headerless_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_us,seq\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_trace(path)


def test_write_metrics(tmp_path):
    cfg = make_config(two_node_doc())
    metrics, _ = run(cfg, 0)
    path = tmp_path / "m.json"
    write_metrics(path, metrics, cfg.config_hash(), 0)
    doc = json.loads(path.read_text())
    assert doc["config_hash"] == cfg.config_hash()
    assert doc["seed"] == 0
    assert doc["packets_delivered"] == metrics.packets_delivered
    assert doc["delivery_ratio"] == metrics.delivery_ratio
    assert set(doc["energy_by_category"]) == {"0", "1"}
    # the whole document is the header plus the metrics, after a JSON round trip
    expected = {"config_hash": cfg.config_hash(), "seed": 0, "version": __version__}
    expected.update(json.loads(json.dumps(metrics.to_dict())))
    assert doc == expected
