"""The answer sheet: what each scenario says about CT against no-CT.

The golden digests say *that* a trace changed; this sheet says whether the
scientific answer moved. ``answers.json`` holds one row per (scenario, mode,
run seed): packets offered, distinct seqs delivered, duplicate deliveries,
``packets_failed`` and its seqs by reason (``losses``, read from the
``delivery_failure`` rows), collisions and the packets they lost, first and
transmitter (trn) death, and the joules of each category summed over all
nodes, to 9 significant digits. A change that is meant to move an answer
rewrites the sheet with ``python tests/test_answers.py`` and explains the
diff row by row.
"""

import json
from pathlib import Path

import pytest

from oscmac import run

from conftest import ct200_doc, lifetime_doc, make_config, range_extension_doc

SHEET = Path(__file__).with_name("answers.json")
MODES = ("ct", "noct", "auto")
SEED = 0

# scenario name -> document builder taking the mode
SCENARIOS = {
    "range_120m": lambda mode: range_extension_doc(mode=mode),
    **{f"lifetime_gen{g}": (lambda mode, g=g: lifetime_doc(mode=mode, topo_seed=g))
       for g in (1, 2, 3)},
    "ct200": ct200_doc,
}
RUNS = [f"{name} {mode} seed={SEED}" for name in SCENARIOS for mode in MODES]


def _sig(x):
    return None if x is None else float(f"{x:.9g}")


def answer(run_name):
    """The sheet row of one run, named as in ``RUNS``."""
    name, mode, _ = run_name.split()
    metrics, rows = run(make_config(SCENARIOS[name](mode)), SEED)
    seqs, losses = [], {}
    for _, _, _, event, detail, _ in rows:
        if event == "delivered":
            seqs.append(json.loads(detail)["seq"])
        elif event == "delivery_failure":
            d = json.loads(detail)
            losses[d["reason"]] = losses.get(d["reason"], 0) + len(d["seqs"])
    joules = {}
    for nid in sorted(metrics.energy_by_category):
        for cat, j in metrics.energy_by_category[nid].items():
            joules[cat] = joules.get(cat, 0.0) + j
    return {
        "offered": metrics.packets_offered,
        "distinct_delivered": len(set(seqs)),
        "duplicates": len(seqs) - len(set(seqs)),
        "packets_failed": metrics.packets_failed,
        "losses": dict(sorted(losses.items())),
        "collisions": metrics.collisions,
        "collision_losses": metrics.collision_losses,
        "first_death_s": _sig(metrics.network_lifetime_first_death_s),
        "trn_death_s": _sig(metrics.trn_death_time_s),
        "joules": {cat: _sig(j) for cat, j in sorted(joules.items())},
    }


def render(sheet):
    """The sheet as JSON with one run per line, so a diff names the runs."""
    return "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                              for k, v in sheet.items()) + "\n}\n"


@pytest.fixture(scope="module")
def pinned():
    return json.loads(SHEET.read_text())


def test_sheet_lists_every_run(pinned):
    assert list(pinned) == RUNS


@pytest.mark.parametrize("run_name", RUNS)
def test_sheet_row_conserves_packets(run_name, pinned):
    """Each seq is delivered at most once, and each failed one once, by reason."""
    row = pinned[run_name]
    assert row["duplicates"] == 0
    assert sum(row["losses"].values()) == row["packets_failed"]
    assert row["distinct_delivered"] + row["packets_failed"] <= row["offered"]


@pytest.mark.parametrize("run_name", RUNS)
def test_answer_is_pinned(run_name, pinned):
    assert answer(run_name) == pinned[run_name]


if __name__ == "__main__":
    # rewrite the sheet from the current code, and print it
    text = render({name: answer(name) for name in RUNS})
    SHEET.write_text(text)
    print(text, end="")
