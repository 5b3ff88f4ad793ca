r"""Trace and metrics persistence.

Traces are CSV with one leading ``#`` header line carrying the config
hash, the seed, and the tool version, so any output file identifies the
run that produced it. Metrics are a single compact JSON document.

A run's rows live in a ``TraceRows``: five plain lists, ``seq`` being a row's
index. That saves a tuple and an int per row, most of a run's memory, and
still reads as ``(time_us, seq, node, event, detail, residual_j)`` tuples.

``render_trace`` writes the residual with ``repr`` and quotes a detail,
doubling its ``"``, only when it holds ``"`` or ``,``. That is exactly
``csv.writer``'s minimal quoting: the other columns are ints and plain event
names, and ASCII-only JSON details never hold the ``\r`` or ``\n`` it quotes.
Rows are joined ``_BLOCK_ROWS`` at a time, so only one block's row strings are
alive at once, and ``write_trace`` writes each block as it is made.
"""

import csv
import json
from itertools import count, islice

from . import __version__

TRACE_COLUMNS = ("time_us", "seq", "node", "event", "detail", "residual_j")
_BLOCK_ROWS = 4096


class TraceRows:
    """A run's trace rows, one list per stored column."""

    def __init__(self):
        self.time_us, self.node, self.event, self.detail, self.residual = [], [], [], [], []

    def add(self, time_us, node_id, event, detail, residual):
        """Append one row; ``detail`` is its JSON text, ``residual`` is kept as given."""
        self.time_us.append(time_us)
        self.node.append(node_id)
        self.event.append(event)
        self.detail.append(detail)
        self.residual.append(residual)

    def __len__(self):
        return len(self.time_us)

    def __iter__(self):
        return zip(self.time_us, count(), self.node, self.event, self.detail, self.residual)

    def __getitem__(self, index):
        index = range(len(self.time_us))[index]  # bounds and slices as a list's
        if isinstance(index, range):
            return [self[i] for i in index]
        return (self.time_us[index], index, self.node[index], self.event[index],
                self.detail[index], self.residual[index])

    def __eq__(self, other):
        is_rows = isinstance(other, (TraceRows, list))
        return list(self) == list(other) if is_rows else NotImplemented


def _trace_blocks(rows, config_hash, seed):
    """The trace text: its header, then one string per ``_BLOCK_ROWS`` rows."""
    yield (f"# config_hash={config_hash} seed={seed} version={__version__}\n"
           f"{','.join(TRACE_COLUMNS)}\n")
    rows = iter(rows)
    while block := "".join([
            f"{t},{s},{n},{e},{d},{r!r}\n" if '"' not in d and "," not in d
            else f'''{t},{s},{n},{e},"{d.replace('"', '""')}",{r!r}\n'''
            for t, s, n, e, d, r in islice(rows, _BLOCK_ROWS)]):
        yield block


def render_trace(rows, config_hash: str, seed: int) -> str:
    return "".join(_trace_blocks(rows, config_hash, seed))


def write_trace(path, rows, config_hash: str, seed: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_trace_blocks(rows, config_hash, seed))


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
