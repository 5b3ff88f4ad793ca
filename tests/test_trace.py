import json

import pytest

from oscmac import __version__
from oscmac.engine import run
from oscmac.trace import (TRACE_COLUMNS, read_trace, render_trace,
                          write_metrics, write_trace)
from conftest import make_config, two_node_doc


def test_render_trace_header_and_columns():
    text = render_trace([], "abc123", 7)
    lines = text.splitlines()
    assert lines[0] == f"# config_hash=abc123 seed=7 version={__version__}"
    assert lines[1] == ",".join(TRACE_COLUMNS)


def test_trace_round_trip(tmp_path):
    cfg = make_config(two_node_doc())
    metrics, rows = run(cfg, 3)
    path = tmp_path / "t.csv"
    write_trace(path, rows, cfg.config_hash(), 3)
    header, records = read_trace(path)
    assert header["config_hash"] == cfg.config_hash()
    assert header["seed"] == "3"
    assert header["version"] == __version__
    assert len(records) == len(rows)
    assert len(records) == metrics.events_processed
    for rec, row in zip(records, rows):
        assert rec["time_us"] == row[0]
        assert rec["seq"] == row[1]
        assert rec["detail"] == json.loads(row[4])


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
