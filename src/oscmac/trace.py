r"""Trace and metrics persistence.

Traces are CSV with one leading ``#`` header line carrying the config
hash, the seed, and the tool version, so any output file identifies the
run that produced it. Metrics are a single compact JSON document.

``render_trace`` writes the residual float with ``repr`` and quotes a detail,
doubling its ``"``, only when it holds ``"`` or ``,``. That is exactly
``csv.writer``'s minimal quoting: the other columns are ints and plain event
names, and ASCII-only JSON details never hold the ``\r`` or ``\n`` it quotes.
"""

import csv
import json

from . import __version__

TRACE_COLUMNS = ("time_us", "seq", "node", "event", "detail", "residual_j")


def render_trace(rows, config_hash: str, seed: int) -> str:
    head = (f"# config_hash={config_hash} seed={seed} version={__version__}\n"
            f"{','.join(TRACE_COLUMNS)}\n")
    return head + "".join([
        f"{t},{s},{n},{e},{d},{r!r}\n" if '"' not in d and "," not in d
        else f'''{t},{s},{n},{e},"{d.replace('"', '""')}",{r!r}\n'''
        for t, s, n, e, d, r in rows])


def write_trace(path, rows, config_hash: str, seed: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_trace(rows, config_hash, seed))


def write_metrics(path, metrics, config_hash: str, seed: int) -> None:
    doc = {"config_hash": config_hash, "seed": seed, "version": __version__}
    doc.update(metrics.to_dict())
    # dumps is one C-encoder call; dump streams the same bytes through Python, 2x slower
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def read_trace(path):
    """Parse a trace file back into (header dict, list of row dicts)."""
    with open(path, encoding="utf-8") as fh:
        header_line = fh.readline().strip()
        if not header_line.startswith("# "):
            raise ValueError("trace file lacks the # header line")
        header = dict(part.split("=", 1) for part in header_line[2:].split(" "))
        records = list(csv.DictReader(fh))
    for rec in records:
        rec["time_us"] = int(rec["time_us"])
        rec["seq"] = int(rec["seq"])
        rec["detail"] = json.loads(rec["detail"])
    return header, records
