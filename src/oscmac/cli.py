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
    except OSError as exc:
        raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
    return parse_config(text), path


def _stem(path: pathlib.Path) -> pathlib.Path:
    return path.with_suffix("") if path.suffix == ".json" else path


def _single_run(cfg, seed, trace_path, metrics_path):
    metrics, rows = run_simulation(cfg, seed)
    chash = cfg.config_hash()
    write_trace(trace_path, rows, chash, seed)
    write_metrics(metrics_path, metrics, chash, seed)
    return metrics


def run_command(args) -> int:
    cfg, path = _load(args.config)
    if args.mode:
        cfg = replace(cfg, mac=replace(cfg.mac, mode=args.mode))
    stem = _stem(path)
    if args.sweep is not None:
        if args.sweep < 1:
            raise ConfigError("--sweep must be at least 1")
        per_seed = []
        for seed in range(args.sweep):
            trace = f"{stem}.seed{seed}.trace.csv"
            metrics_path = f"{stem}.seed{seed}.metrics.json"
            m = _single_run(cfg, seed, trace, metrics_path)
            lifetime = m.network_lifetime_first_death_s
            per_seed.append({
                "seed": seed,
                "lifetime_s": lifetime if lifetime is not None else cfg.sim.horizon_s,
                "first_death_s": lifetime,
                "delivered": m.packets_delivered,
                "offered": m.packets_offered,
            })
        lifetimes = [p["lifetime_s"] for p in per_seed]
        aggregate = {
            "config_hash": cfg.config_hash(),
            "runs": per_seed,
            "lifetime_mean_s": sum(lifetimes) / len(lifetimes),
            "lifetime_min_s": min(lifetimes),
            "lifetime_max_s": max(lifetimes),
        }
        out = f"{stem}.sweep.json"
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(aggregate, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"sweep of {args.sweep} seeds written to {out}")
        return EXIT_OK
    trace = args.trace or f"{stem}.trace.csv"
    metrics_path = args.metrics or f"{stem}.metrics.json"
    m = _single_run(cfg, args.seed, trace, metrics_path)
    print(f"delivered {m.packets_delivered}/{m.packets_offered} packets; "
          f"trace: {trace}; metrics: {metrics_path}")
    return EXIT_OK


def _category_totals(metrics):
    totals = {}
    for cats in metrics.energy_by_category.values():
        for cat, j in cats.items():
            totals[cat] = totals.get(cat, 0.0) + j
    return totals


def compare_command(args) -> int:
    if args.seeds < 1:
        raise ConfigError("--seeds must be at least 1")
    cfg, path = _load(args.config)
    stem = _stem(path)
    horizon = cfg.sim.horizon_s
    rows = []
    for seed in range(args.seeds):
        per_mode = {}
        for mode in ("ct", "noct"):
            mode_cfg = replace(cfg, mac=replace(cfg.mac, mode=mode))
            metrics, trace_rows = run_simulation(mode_cfg, seed)
            write_trace(f"{stem}.{mode}.seed{seed}.trace.csv", trace_rows,
                        mode_cfg.config_hash(), seed)
            lifetime = metrics.network_lifetime_first_death_s
            per_mode[mode] = {
                "lifetime_s": lifetime if lifetime is not None else horizon,
                "first_death_s": lifetime,
                "trn_death_s": metrics.trn_death_time_s,
                "delivery_ratio": metrics.delivery_ratio,
                "delivered": metrics.packets_delivered,
                "offered": metrics.packets_offered,
                "energy_by_category": _category_totals(metrics),
                "config_hash_mode_stripped": mode_cfg.config_hash(strip_mode=True),
            }
        assert (per_mode["ct"]["config_hash_mode_stripped"]
                == per_mode["noct"]["config_hash_mode_stripped"])
        ratio = (per_mode["ct"]["lifetime_s"] / per_mode["noct"]["lifetime_s"]
                 if per_mode["noct"]["lifetime_s"] else None)
        rows.append({"seed": seed, "ct": per_mode["ct"], "noct": per_mode["noct"],
                     "ct_over_noct_lifetime": ratio})

    header = f"{'seed':>4} {'mode':>5} {'lifetime_s':>11} {'trn_death_s':>12} {'delivery':>9} {'tx_J':>12} {'idle_J':>12}"
    print(header)
    for r in rows:
        for mode in ("ct", "noct"):
            m = r[mode]
            trn = m["trn_death_s"]
            print(f"{r['seed']:>4} {mode:>5} {m['lifetime_s']:>11.3f} "
                  f"{(f'{trn:.3f}' if trn is not None else '-'):>12} "
                  f"{m['delivery_ratio']:>9.3f} "
                  f"{m['energy_by_category'].get('transmit', 0.0):>12.6e} "
                  f"{m['energy_by_category'].get('idle_listen', 0.0):>12.6e}")
        print(f"     ct/noct lifetime ratio: {r['ct_over_noct_lifetime']}")
    out = f"{stem}.compare.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"config_hash_mode_stripped": cfg.config_hash(strip_mode=True),
                   "rows": rows}, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
    p_run.add_argument("--seed", type=int, default=0)
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
