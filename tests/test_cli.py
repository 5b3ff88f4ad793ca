import json

import pytest

from oscmac import cli
from oscmac.cli import main
from oscmac.engine import run
from oscmac.trace import read_trace, render_trace
from conftest import generated_doc, make_config, range_extension_doc


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_run_writes_trace_and_metrics(tmp_path, capsys):
    cfg = write_doc(tmp_path, range_extension_doc(mode="ct"))
    assert main(["run", "--config", str(cfg), "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "delivered 3/3" in out
    header, records = read_trace(tmp_path / "scenario.trace.csv")
    assert header["seed"] == "7"
    metrics = json.loads((tmp_path / "scenario.metrics.json").read_text())
    assert metrics["packets_delivered"] == 3
    assert metrics["config_hash"] == header["config_hash"]
    assert metrics["events_processed"] == len(records)


def test_run_custom_output_paths(tmp_path):
    cfg = write_doc(tmp_path, range_extension_doc())
    trace = tmp_path / "out" / "t.csv"
    trace.parent.mkdir()
    metrics = tmp_path / "out" / "m.json"
    assert main(["run", "--config", str(cfg),
                 "--trace", str(trace), "--metrics", str(metrics)]) == 0
    assert trace.exists() and metrics.exists()


def test_run_mode_override(tmp_path):
    cfg = write_doc(tmp_path, range_extension_doc(mode="ct"))
    assert main(["run", "--config", str(cfg), "--mode", "noct"]) == 0
    metrics = json.loads((tmp_path / "scenario.metrics.json").read_text())
    assert metrics["packets_delivered"] == 0


def test_run_is_deterministic_per_seed(tmp_path):
    cfg = write_doc(tmp_path, generated_doc())
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg), "--seed", "3", "--trace", str(a)]) == 0
    assert main(["run", "--config", str(cfg), "--seed", "3", "--trace", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_aggregates(tmp_path):
    cfg = write_doc(tmp_path, generated_doc())
    assert main(["run", "--config", str(cfg), "--sweep", "3"]) == 0
    agg = json.loads((tmp_path / "scenario.sweep.json").read_text())
    assert len(agg["runs"]) == 3
    assert agg["lifetime_min_s"] <= agg["lifetime_mean_s"] <= agg["lifetime_max_s"]
    for seed in range(3):
        assert (tmp_path / f"scenario.seed{seed}.trace.csv").exists()
        assert (tmp_path / f"scenario.seed{seed}.metrics.json").exists()


def test_compare_runs_both_modes(tmp_path, capsys):
    cfg = write_doc(tmp_path, range_extension_doc())
    assert main(["compare", "--config", str(cfg), "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "ct/noct lifetime ratio" in out
    doc = json.loads((tmp_path / "scenario.compare.json").read_text())
    assert len(doc["rows"]) == 2
    for row in doc["rows"]:
        assert row["ct"]["delivery_ratio"] == 1.0
        assert row["noct"]["delivery_ratio"] == 0.0
        assert (row["ct"]["config_hash_mode_stripped"]
                == row["noct"]["config_hash_mode_stripped"])
    for mode in ("ct", "noct"):
        assert (tmp_path / f"scenario.{mode}.seed0.trace.csv").exists()


def test_compare_runs_each_mode_on_a_copy(tmp_path, monkeypatch):
    """``compare`` leaves the scenario it loaded as it was, and writes for
    each mode the trace and summary of the document run in that mode."""
    doc = generated_doc(mode="auto", horizon_s=20.0)
    path = write_doc(tmp_path, doc)
    loaded = []
    parse = cli.parse_config

    def parse_and_keep(text):
        loaded.append(parse(text))
        return loaded[-1]

    monkeypatch.setattr(cli, "parse_config", parse_and_keep)
    assert main(["compare", "--config", str(path), "--seeds", "2"]) == 0
    [cfg] = loaded
    assert cfg.to_dict() == make_config(doc).to_dict()
    summary = json.loads((tmp_path / "scenario.compare.json").read_text())
    assert summary["config_hash_mode_stripped"] == cfg.config_hash(strip_mode=True)
    for seed in range(2):
        for mode in ("ct", "noct"):
            mode_cfg = make_config(dict(doc, mac=dict(doc["mac"], mode=mode)))
            metrics, rows = run(mode_cfg, seed)
            trace = tmp_path / f"scenario.{mode}.seed{seed}.trace.csv"
            assert trace.read_text() == render_trace(rows, mode_cfg.config_hash(), seed)
            row = summary["rows"][seed][mode]
            assert (row["delivered"], row["trn_death_s"]) == (
                metrics.packets_delivered, metrics.trn_death_time_s)


def test_missing_config_exits_1(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_sweep_of_zero_seeds_exits_1(tmp_path, capsys):
    cfg = write_doc(tmp_path, range_extension_doc())
    assert main(["run", "--config", str(cfg), "--sweep", "0"]) == 1
    assert "config error: --sweep must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_compare_of_no_seeds_exits_1(tmp_path, capsys, seeds):
    cfg = write_doc(tmp_path, range_extension_doc())
    assert main(["compare", "--config", str(cfg), "--seeds", seeds]) == 1
    captured = capsys.readouterr()
    assert "config error: --seeds must be at least 1" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "scenario.compare.json").exists()


def test_unwritable_trace_path_exits_2(tmp_path, capsys):
    cfg = write_doc(tmp_path, range_extension_doc())
    trace = tmp_path / "missing" / "t.csv"
    assert main(["run", "--config", str(cfg), "--trace", str(trace)]) == 2
    assert "runtime failure:" in capsys.readouterr().err
    assert not trace.exists()


def test_invalid_config_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"topology": {"generator": {}}, "mac": {"warp": 9}}')
    assert main(["run", "--config", str(path)]) == 1
    assert "unknown key" in capsys.readouterr().err


_SECTION = {"routes": "topology", "nodes": "topology", "sources": "traffic",
            "active_ms": "mac", "retry_cap": "mac", "housekeeping_frames": "sim"}


@pytest.mark.parametrize("field, value", [
    ("routes", {"1": 2, "2": 1}),
    ("sources", [0]),
    ("active_ms", 0.0004),          # an active window that rounds to 0 us
    ("retry_cap", "3"),
    ("housekeeping_frames", 1.5),
    ("nodes", 5),
])
def test_unsimulable_route_or_source_exits_1(tmp_path, capsys, field, value):
    doc = range_extension_doc()
    section = _SECTION[field]
    doc[section][field] = value
    path = write_doc(tmp_path, doc)
    assert main(["run", "--config", str(path)]) == 1
    assert f"config error: {section}.{field}" in capsys.readouterr().err


def test_unschedulable_topology_exits_1(tmp_path, capsys):
    # 50 or 200 nodes in a small area cannot be orthogonalized with 10 windows
    for node_count in (50, 200):
        doc = generated_doc(node_count=node_count, area_m=100.0, active_ms=10.0)
        path = write_doc(tmp_path, doc)
        assert main(["run", "--config", str(path)]) == 1
        assert "config error: mac.active_ms" in capsys.readouterr().err
