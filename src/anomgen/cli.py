"""Command-line entry point wiring every pipeline stage.

Every command resolves its configuration from (defaults < --config JSON
< explicit flags), writes the fully resolved values including seeds to
run.json under --out, and can be rerun bit-identically from that file.

Exit codes: 0 success, 2 invalid configuration, 3 missing input
artifact, 4 numerical divergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import dataset, pipeline, sampler, schedule as sched
from .optim import DivergenceError
from .pipeline import DESK_DEFAULTS

EXIT_BAD_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_DIVERGED = 4


class ConfigError(ValueError):
    pass


_SPECS: dict[str, dict] = {
    "gen-data": {
        "out": (str, None), "seed": (int, 0),
        "n_normal": (int, DESK_DEFAULTS["n_normal"]),
        "n_anomaly": (int, DESK_DEFAULTS["n_anomaly"]),
        "fraction": (float, DESK_DEFAULTS["fraction"]),
    },
    "pretrain": {
        "data": (str, None), "out": (str, None), "seed": (int, 0),
        "t_steps": (int, DESK_DEFAULTS["T"]), "kind": (str, DESK_DEFAULTS["kind"]),
        "steps": (int, DESK_DEFAULTS["pretrain_steps"]),
        "lr": (float, DESK_DEFAULTS["pretrain_lr"]),
        "batch": (int, DESK_DEFAULTS["pretrain_batch"]),
        "dropout": (float, DESK_DEFAULTS["condition_dropout"]),
    },
    "align": {
        "data": (str, None), "ref": (str, None), "out": (str, None), "seed": (int, 0),
        "steps": (int, DESK_DEFAULTS["align_steps"]),
        "lr": (float, DESK_DEFAULTS["align_lr"]),
        "beta": (float, DESK_DEFAULTS["beta"]),
        "kmin": (int, DESK_DEFAULTS["k_min"]), "kmax": (int, DESK_DEFAULTS["k_max"]),
    },
    "sample": {
        "ref": (str, None), "adapters": (str, None), "out": (str, None), "seed": (int, 0),
        "condition": (str, "all"), "n": (int, DESK_DEFAULTS["n_samples"]),
        "steps": (int, DESK_DEFAULTS["sample_steps"]),
        "s_text": (float, DESK_DEFAULTS["s_text"]),
        "s_align": (float, DESK_DEFAULTS["s_align"]),
        "eta": (float, 0.0), "clip": (float, 2.0), "preset": (str, "desk"),
    },
    "localize": {
        "ref": (str, None), "adapters": (str, None), "data": (str, None),
        "out": (str, None), "seed": (int, 0), "split": (str, "eval"),
        "steps": (int, DESK_DEFAULTS["sample_steps"]),
        "s_align": (float, DESK_DEFAULTS["s_align"]),
    },
    "eval": {
        "data": (str, None), "maps": (str, None), "out": (str, None),
        "samples": (str, ""), "seed": (int, 0),
    },
    "inspect-schedule": {
        "out": (str, None), "t_steps": (int, DESK_DEFAULTS["T"]),
        "kind": (str, DESK_DEFAULTS["kind"]), "beta": (float, DESK_DEFAULTS["beta"]),
        "seed": (int, 0),
    },
    "beta-sweep": {
        "data": (str, None), "ref": (str, None), "out": (str, None), "seed": (int, 0),
        "steps": (int, DESK_DEFAULTS["align_steps"]),
        "lr": (float, DESK_DEFAULTS["sweep_lr"]),
        "betas": (str, "500,1000,2000"),
        "kmin": (int, DESK_DEFAULTS["k_min"]), "kmax": (int, DESK_DEFAULTS["k_max"]),
    },
}

_REQUIRED = {
    "gen-data": ("out",),
    "pretrain": ("data", "out"),
    "align": ("data", "ref", "out"),
    "sample": ("ref", "adapters", "out"),
    "localize": ("ref", "adapters", "data", "out"),
    "eval": ("data", "maps", "out"),
    "inspect-schedule": ("out",),
    "beta-sweep": ("data", "ref", "out"),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="anomgen")
    sub = p.add_subparsers(dest="command", required=True)
    for cmd, spec in _SPECS.items():
        sp = sub.add_parser(cmd)
        sp.add_argument("--config", type=str, default=None)
        for name, (typ, _default) in spec.items():
            sp.add_argument("--" + name.replace("_", "-"), dest=name, type=typ, default=None)
    return p


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    spec = _SPECS[command]
    cfg = {k: d for k, (_t, d) in spec.items()}
    if args.config:
        if not os.path.exists(args.config):
            raise FileNotFoundError(f"missing config file: {args.config}")
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        file_cmd = loaded.pop("command", command)
        if file_cmd != command:
            raise ConfigError(f"config is for command {file_cmd!r}, not {command!r}")
        unknown = set(loaded) - set(spec)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update({k: _typed(k, v, spec[k][0]) for k, v in loaded.items()})
    for name in spec:
        v = getattr(args, name)
        if v is not None:
            cfg[name] = v
    missing = [k for k in _REQUIRED[command] if not cfg.get(k)]
    if missing:
        raise ConfigError(f"missing required options: {missing}")
    return cfg


def _typed(name: str, value, typ):
    """A config-file value checked against its option's type; ints pass as floats."""
    if typ is float and type(value) is int:
        return float(value)
    if type(value) is not typ:
        raise ConfigError(f"config value {name}={value!r} is not of type {typ.__name__}")
    return value


def _conditions(name: str) -> list[str]:
    valid = [f"{c}_{d}" for c in dataset.CATEGORIES for d in dataset.DEFECTS]
    if name == "all":
        return valid
    if name not in valid:
        raise ConfigError(f"unknown condition {name!r}; valid: all, {', '.join(valid)}")
    return [name]


def _write_run_json(out_dir: str, command: str, cfg: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump({"command": command, **cfg}, fh, indent=1, sort_keys=True)


def _check_inputs(*paths) -> None:
    for p in paths:
        if p and not os.path.exists(p):
            raise FileNotFoundError(f"missing input artifact: {p}")


def _guidance(cfg, steps_key="steps") -> sampler.GuidanceConfig:
    if cfg.get("preset") == "published":
        return sampler.PUBLISHED_GUIDANCE
    return sampler.GuidanceConfig(s_text=cfg.get("s_text", DESK_DEFAULTS["s_text"]),
                                  s_align=cfg.get("s_align", DESK_DEFAULTS["s_align"]),
                                  steps=cfg[steps_key], eta=cfg.get("eta", 0.0),
                                  z0_clip=cfg.get("clip", 2.0))


def _run(command: str, cfg: dict) -> None:
    if command == "gen-data":
        _write_run_json(cfg["out"], command, cfg)
        dataset.generate_dataset(cfg["out"], cfg["seed"], cfg["n_normal"],
                                 cfg["n_anomaly"], cfg["fraction"])
    elif command == "pretrain":
        _check_inputs(os.path.join(cfg["data"], "manifest.json"))
        _write_run_json(cfg["out"], command, cfg)
        log = pipeline.run_pretrain(
            cfg["data"], os.path.join(cfg["out"], "reference.ckpt"),
            T=cfg["t_steps"], kind=cfg["kind"], steps=cfg["steps"],
            learning_rate=cfg["lr"], batch_size=cfg["batch"],
            condition_dropout=cfg["dropout"], seed=cfg["seed"])
        log.save_csv(os.path.join(cfg["out"], "train_log.csv"))
    elif command == "align":
        _check_inputs(os.path.join(cfg["data"], "manifest.json"), cfg["ref"])
        _write_run_json(cfg["out"], command, cfg)
        log = pipeline.run_align(
            cfg["data"], cfg["ref"], os.path.join(cfg["out"], "adapters.ckpt"),
            steps=cfg["steps"], learning_rate=cfg["lr"], beta=cfg["beta"],
            k_min=cfg["kmin"], k_max=cfg["kmax"], seed=cfg["seed"])
        log.save_csv(os.path.join(cfg["out"], "train_log.csv"))
    elif command == "sample":
        conds = _conditions(cfg["condition"])
        if cfg["n"] < 1:
            raise ConfigError("n must be >= 1")
        guidance = _guidance(cfg)
        _check_inputs(cfg["ref"], cfg["adapters"])
        _write_run_json(cfg["out"], command, cfg)
        pipeline.run_sample(cfg["ref"], cfg["adapters"], cfg["out"], conditions=conds,
                            n_samples=cfg["n"], guidance=guidance, seed=cfg["seed"])
    elif command == "localize":
        guidance = _guidance(cfg)
        _check_inputs(cfg["ref"], cfg["adapters"], os.path.join(cfg["data"], "manifest.json"))
        _write_run_json(cfg["out"], command, cfg)
        pipeline.run_localize(cfg["ref"], cfg["adapters"], cfg["data"], cfg["out"],
                              guidance=guidance, seed=cfg["seed"], split=cfg["split"])
    elif command == "eval":
        _check_inputs(os.path.join(cfg["data"], "manifest.json"), cfg["maps"])
        _write_run_json(cfg["out"], command, cfg)
        pipeline.run_eval(cfg["data"], cfg["maps"], os.path.join(cfg["out"], "metrics.csv"),
                          samples_root=cfg["samples"] or None)
    elif command == "inspect-schedule":
        _write_run_json(cfg["out"], command, cfg)
        s = sched.build_schedule(cfg["t_steps"], cfg["kind"])
        with open(os.path.join(cfg["out"], "schedule.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "alpha", "sigma", "lambda", "lambda_slope", "beta_t"])
            for row in sched.schedule_table(s, cfg["beta"]):
                w.writerow(["" if v is None else v for v in row])
    elif command == "beta-sweep":
        _check_inputs(os.path.join(cfg["data"], "manifest.json"), cfg["ref"])
        _write_run_json(cfg["out"], command, cfg)
        from . import trainer
        from .denoiser import load_reference

        data = dataset.load_dataset(cfg["data"])
        model, kind, T = load_reference(cfg["ref"])
        s = sched.build_schedule(T, kind)
        tc = trainer.TrainConfig(steps=cfg["steps"], learning_rate=cfg["lr"],
                                 seed=cfg["seed"], k_min=cfg["kmin"], k_max=cfg["kmax"])
        betas = [float(b) for b in str(cfg["betas"]).split(",") if b]
        rows = trainer.beta_sweep(model, pipeline.anomaly_training_set(data), tc, betas, s)
        with open(os.path.join(cfg["out"], "beta_sweep.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["beta", "final_mean_delta", "final_loss"])
            for r in rows:
                w.writerow([r["beta"], r["final_mean_delta"], r["final_loss"]])
        for r in rows:
            r["log"].save_csv(os.path.join(cfg["out"], f"align_log_beta{int(r['beta'])}.csv"))
    else:  # pragma: no cover
        raise ConfigError(f"unknown command: {command}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args.command, args)
        _run(args.command, cfg)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
