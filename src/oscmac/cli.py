"""Command-line entry points: single runs, seed sweeps, and CT/no-CT comparison."""

import argparse
import json
import pathlib
import sys
from dataclasses import replace

from .config import ConfigError, parse_config
from .engine import run as run_simulation
from .trace import write_metrics, write_trace

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _load(config_path: str):
    path = pathlib.Path(config_path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
    return parse_config(text), path


def _stem(path: pathlib.Path) -> pathlib.Path:
    return path.with_suffix("") if path.suffix == ".json" else path


def _single_run(cfg, seed, trace_path, metrics_path):
    """Run ``cfg`` at ``seed``, write its trace and metrics document, and
    return the run's summary row."""
    m, rows = run_simulation(cfg, seed)
    chash = cfg.config_hash()
    write_trace(trace_path, rows, chash, seed)
    write_metrics(metrics_path, m, chash, seed)
    energy = {}
    for cats in m.energy_by_category.values():
        for cat, j in cats.items():
            energy[cat] = energy.get(cat, 0.0) + j
    first = m.network_lifetime_first_death_s
    return {"seed": seed, "lifetime_s": cfg.sim.horizon_s if first is None else first,
            "first_death_s": first, "trn_death_s": m.trn_death_time_s,
            "delivered": m.packets_delivered, "offered": m.packets_offered,
            "delivery_ratio": m.delivery_ratio, "energy_by_category": energy}


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_command(args) -> int:
    cfg, path = _load(args.config)
    if args.mode:
        cfg = replace(cfg, mac=replace(cfg.mac, mode=args.mode))
    stem = _stem(path)
    if args.sweep is None:
        trace = args.trace or f"{stem}.trace.csv"
        metrics_path = args.metrics or f"{stem}.metrics.json"
        row = _single_run(cfg, args.seed or 0, trace, metrics_path)
        print(f"delivered {row['delivered']}/{row['offered']} packets; "
              f"trace: {trace}; metrics: {metrics_path}")
        return EXIT_OK
    if args.sweep < 1:
        raise ConfigError("--sweep must be at least 1")
    for flag in ("seed", "trace", "metrics"):
        if getattr(args, flag) is not None:
            raise ConfigError(f"--{flag} does not apply to --sweep")
    runs = [_single_run(cfg, seed, f"{stem}.seed{seed}.trace.csv",
                        f"{stem}.seed{seed}.metrics.json") for seed in range(args.sweep)]
    lifetimes = [r["lifetime_s"] for r in runs]
    out = f"{stem}.sweep.json"
    _write_json(out, {"config_hash": cfg.config_hash(), "runs": runs,
                      "lifetime_mean_s": sum(lifetimes) / len(lifetimes),
                      "lifetime_min_s": min(lifetimes), "lifetime_max_s": max(lifetimes)})
    print(f"sweep of {args.sweep} seeds written to {out}")
    return EXIT_OK


def compare_command(args) -> int:
    if args.seeds < 1:
        raise ConfigError("--seeds must be at least 1")
    cfg, path = _load(args.config)
    stem = _stem(path)
    rows = []
    for seed in range(args.seeds):
        row = {"seed": seed}
        for mode in ("ct", "noct"):
            row[mode] = _single_run(replace(cfg, mac=replace(cfg.mac, mode=mode)), seed,
                                    f"{stem}.{mode}.seed{seed}.trace.csv",
                                    f"{stem}.{mode}.seed{seed}.metrics.json")
        noct_s = row["noct"]["lifetime_s"]
        row["ct_over_noct_lifetime"] = row["ct"]["lifetime_s"] / noct_s if noct_s else None
        if not rows:  # after the first runs, so a scenario that cannot run prints nothing
            print(f"{'seed':>4} {'mode':>5} {'lifetime_s':>11} {'trn_death_s':>12} "
                  f"{'delivery':>9} {'tx_J':>12} {'idle_J':>12}")
        for mode in ("ct", "noct"):
            m = row[mode]
            trn = m["trn_death_s"]
            print(f"{seed:>4} {mode:>5} {m['lifetime_s']:>11.3f} "
                  f"{(f'{trn:.3f}' if trn is not None else '-'):>12} "
                  f"{m['delivery_ratio']:>9.3f} "
                  f"{m['energy_by_category'].get('transmit', 0.0):>12.6e} "
                  f"{m['energy_by_category'].get('idle_listen', 0.0):>12.6e}")
        print(f"     ct/noct lifetime ratio: {row['ct_over_noct_lifetime']}")
        rows.append(row)
    out = f"{stem}.compare.json"
    _write_json(out, {"config_hash_mode_stripped": cfg.config_hash(strip_mode=True),
                      "rows": rows})
    print(f"comparison written to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscmac",
        description="Deterministic simulator for a cooperative-transmission "
                    "duty-cycle MAC in wireless sensor networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario (or a seed sweep)")
    p_run.add_argument("--config", required=True, help="scenario JSON path")
    p_run.add_argument("--seed", type=int, help="run seed (default 0)")
    p_run.add_argument("--mode", choices=("ct", "noct", "auto"),
                       help="override the configured MAC mode")
    p_run.add_argument("--trace", help="trace CSV output path")
    p_run.add_argument("--metrics", help="metrics JSON output path")
    p_run.add_argument("--sweep", type=int,
                       help="run seeds 0..K-1 and write an aggregate summary")
    p_run.set_defaults(func=run_command)

    p_cmp = sub.add_parser("compare", help="run CT vs no-CT side by side")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--seeds", type=int, default=1)
    p_cmp.set_defaults(func=compare_command)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
