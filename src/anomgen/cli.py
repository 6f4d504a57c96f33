"""Command-line entry point wiring every pipeline stage.

Every command resolves its configuration from (defaults < --config JSON
< explicit flags); an option is required when it has no default.  The
stage pipeline.run_<command> runs on the resolved values, and only once it
has succeeded are they written, seeds included, to run.json under --out,
so a directory without run.json holds an incomplete run.  Every stage
reruns bit-identically from its run.json.

Exit codes: 0 success, 2 invalid configuration, 3 missing input
artifact, 4 numerical divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import pipeline
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
        "eta": (float, 0.0), "clip": (float, 2.0),
    },
    "localize": {
        "ref": (str, None), "adapters": (str, None), "data": (str, None),
        "out": (str, None), "seed": (int, 0), "split": (str, "eval"),
        "steps": (int, DESK_DEFAULTS["sample_steps"]),
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

# options naming an input artifact, checked when set; a dataset is checked
# through its manifest
_INPUTS = ("data", "ref", "adapters", "maps", "samples")


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
        if not os.path.isfile(args.config):
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
    missing = [k for k, (_t, default) in spec.items() if default is None and not cfg.get(k)]
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


def _write_run_json(out_dir: str, command: str, cfg: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump({"command": command, **cfg}, fh, indent=1, sort_keys=True)


def _check_inputs(paths) -> None:
    for p in paths:
        if not os.path.exists(p):
            raise FileNotFoundError(f"missing input artifact: {p}")


def _run(command: str, cfg: dict) -> None:
    """Check the input artifacts, run the stage, and record run.json once it has succeeded."""
    _check_inputs([os.path.join(cfg[k], "manifest.json") if k == "data" else cfg[k]
                   for k in cfg if k in _INPUTS and cfg[k]])
    run_json = os.path.join(cfg["out"], "run.json")
    if os.path.isfile(run_json):
        os.remove(run_json)  # a stale record would mark a failed rerun as complete
    # looked up at call time, so patched stages (tests, tracing) take effect
    getattr(pipeline, "run_" + command.replace("-", "_"))(cfg)
    _write_run_json(cfg["out"], command, cfg)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _run(args.command, resolve_config(args.command, args))
    except (ValueError, FileNotFoundError, DivergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, ValueError):
            return EXIT_BAD_CONFIG
        return EXIT_MISSING_INPUT if isinstance(e, FileNotFoundError) else EXIT_DIVERGED
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
