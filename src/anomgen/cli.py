"""Command-line entry point wiring every pipeline stage.

Every command resolves its configuration from (defaults < --config JSON
< explicit flags); an option is required when it has no default.  _SPECS
declares each option's type, default and domain, and every value and
artifact is checked against them before the stage starts.  The stage
pipeline.run_<command> runs on the resolved values, and only once it has
succeeded are they written, seeds included, to run.json under --out, so a
directory without run.json holds an incomplete run, which no command reads.
Every stage reruns bit-identically from its run.json.

Exit codes: 0 success, 2 invalid configuration (a malformed or
non-finite checkpoint or map included), 3 missing input artifact or
another I/O error, 4 numerical divergence: a non-finite value computed
during a stage.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys

import numpy as np

from . import pipeline
from .dataset import CONDITIONS, SPLITS
from .schedule import KINDS

EXIT_BAD_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_DIVERGED = 4


# a numeric domain is the (comparison, bound) pairs a finite value must satisfy
_ANY, _POSITIVE, _NON_NEGATIVE, _AT_LEAST_1 = (), ((">", 0),), ((">=", 0),), ((">=", 1),)
_AT_MOST_U32 = ("<=", 2**32 - 1)  # checkpoint headers store T, k_min and k_max as u32
_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}

# option: (type, default, domain); an option without a default is required.
# A str option's domain is a tuple of allowed strings, an artifact kind
# ("file", "dir", "dataset": a directory holding manifest.json, "out": absent
# or a directory), or a list holding the numeric domain of each item of a
# comma-separated list
_SPECS: dict[str, dict] = {
    "gen-data": {
        "out": (str, None, "out"), "seed": (int, 0, _ANY),
        "n_normal": (int, 64, _AT_LEAST_1), "n_anomaly": (int, 9, ((">=", 3),)),
        "fraction": (float, 1 / 3, ((">", 0), ("<", 1))),
    },
    "pretrain": {
        "data": (str, None, "dataset"), "out": (str, None, "out"), "seed": (int, 0, _ANY),
        "t_steps": (int, 1000, ((">=", 2), _AT_MOST_U32)), "kind": (str, "linear", KINDS),
        "steps": (int, 2000, _NON_NEGATIVE), "lr": (float, 5e-4, _POSITIVE),
        "batch": (int, 16, _AT_LEAST_1), "dropout": (float, 0.1, ((">=", 0), ("<", 1))),
    },
    "align": {
        "data": (str, None, "dataset"), "ref": (str, None, "file"), "out": (str, None, "out"),
        "seed": (int, 0, _ANY), "steps": (int, 3000, _NON_NEGATIVE),
        "lr": (float, 2e-4, _POSITIVE), "beta": (float, 1000.0, _POSITIVE),
        "kmin": (int, 4, ((">=", 1), _AT_MOST_U32)), "kmax": (int, 32, ((">=", 1), _AT_MOST_U32)),
    },
    "sample": {
        "ref": (str, None, "file"), "adapters": (str, None, "file"), "out": (str, None, "out"),
        "seed": (int, 0, _ANY), "condition": (str, "all", ("all",) + CONDITIONS),
        "n": (int, 16, ((">=", 1), ("<=", pipeline.SEEDS_PER_TOKEN))),
        "steps": (int, 100, _AT_LEAST_1),
        "s_text": (float, 3.0, _ANY), "s_align": (float, 1.5, _ANY),
        "eta": (float, 0.0, ((">=", 0), ("<=", 1))),
        # clamp for the per-step z0 prediction during generation; the latent
        # codec maps images into [-2, 2], and without the clamp prediction
        # errors of the small denoiser compound multiplicatively over the
        # trajectory and the latents diverge
        "clip": (float, 2.0, _POSITIVE),
    },
    "localize": {
        "ref": (str, None, "file"), "adapters": (str, None, "file"),
        "data": (str, None, "dataset"), "out": (str, None, "out"), "seed": (int, 0, _ANY),
        "split": (str, "eval", SPLITS), "steps": (int, 100, _AT_LEAST_1),
    },
    "eval": {
        "data": (str, None, "dataset"), "maps": (str, None, "dir"), "out": (str, None, "out"),
        "samples": (str, "", "dir"), "seed": (int, 0, _ANY),
    },
    "inspect-schedule": {
        "out": (str, None, "out"), "t_steps": (int, 1000, ((">=", 2), _AT_MOST_U32)),
        "kind": (str, "linear", KINDS), "beta": (float, 1000.0, _POSITIVE),
    },
    "beta-sweep": {
        "data": (str, None, "dataset"), "ref": (str, None, "file"), "out": (str, None, "out"),
        "seed": (int, 0, _ANY), "steps": (int, 3000, _NON_NEGATIVE),
        # batch-1 Adam noise swamps the beta effect at the align rate, so the
        # sweep trains slower to keep its shared-seed runs comparable
        "lr": (float, 1e-5, _POSITIVE),
        "betas": (str, "500,1000,2000", list(_POSITIVE)),
        "kmin": (int, 4, ((">=", 1), _AT_MOST_U32)), "kmax": (int, 32, ((">=", 1), _AT_MOST_U32)),
    },
}

_ARTIFACTS = {  # kind: (the test a path must pass, the error naming a path that fails it,
    # and the directory where the run.json of the stage that made the input marks it complete)
    "file": (os.path.isfile, "missing input file", os.path.dirname),
    "dir": (os.path.isdir, "missing input directory", str),
    "dataset": (lambda p: os.path.isfile(os.path.join(p, "manifest.json")),
                "no manifest.json file in dataset", str),
    "out": (lambda p: os.path.isdir(p) or not os.path.lexists(p), "output is not a directory",
            None),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="anomgen")
    sub = p.add_subparsers(dest="command", required=True)
    for cmd, spec in _SPECS.items():
        sp = sub.add_parser(cmd)
        sp.add_argument("--config", type=str, default=None)
        for name, (typ, _default, _domain) in spec.items():
            sp.add_argument("--" + name.replace("_", "-"), dest=name, type=typ, default=None)
    return p


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    """Defaults < config file < flags; every value is checked against its type and domain."""
    spec = _SPECS[command]
    cfg = {k: d for k, (_t, d, _dom) in spec.items()}
    if args.config:
        if not os.path.isfile(args.config):
            raise FileNotFoundError(f"missing config file: {args.config}")
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        file_cmd = loaded.pop("command", command)
        if file_cmd != command:
            raise ValueError(f"config is for command {file_cmd!r}, not {command!r}")
        unknown = set(loaded) - set(spec)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for name in spec:
        v = getattr(args, name)
        if v is not None:
            cfg[name] = v
    missing = [k for k, (_t, default, _dom) in spec.items() if default is None and not cfg.get(k)]
    if missing:
        raise ValueError(f"missing required options: {missing}")
    return {k: _checked(k, cfg[k], typ, dom) for k, (typ, _d, dom) in spec.items()}


def _checked(name: str, v, typ, domain):
    """v if it has the option's type (an int passes as a float) and lies in its domain."""
    if typ is float and type(v) is int:
        v = float(v)
    if type(v) is not typ:
        raise ValueError(f"config value {name}={v!r} is not of type {typ.__name__}")
    if typ is not str:
        if typ is float and not math.isfinite(v):  # ints stay off float conversion
            raise ValueError(f"{name} must be finite")
        for op, bound in domain:
            if not _COMPARE[op](v, bound):
                raise ValueError(f"{name} must be {op} {bound}")
    elif isinstance(domain, tuple) and v not in domain:
        raise ValueError(f"unknown {name} {v!r}; valid: {', '.join(domain)}")
    elif isinstance(domain, list):
        try:
            items = [float(x) for x in v.split(",") if x]
        except ValueError:
            raise ValueError(f"{name} must be a comma-separated list of numbers") from None
        if not items:
            raise ValueError(f"{name} must not be empty")
        for x in items:
            _checked(name, x, float, domain)
    return v


def _run(command: str, cfg: dict) -> None:
    """Check the artifacts by kind, run the stage, and record run.json once it has succeeded."""
    for name, (_t, _d, domain) in _SPECS[command].items():
        if isinstance(domain, str) and cfg[name]:
            exists, message, producer = _ARTIFACTS[domain]
            if not exists(cfg[name]):
                raise OSError(f"{message}: {cfg[name]}")
            if producer and not os.path.isfile(os.path.join(producer(cfg[name]), "run.json")):
                raise OSError(f"input of an incomplete run (no run.json): {cfg[name]}")
    run_json = os.path.join(cfg["out"], "run.json")
    if os.path.isfile(run_json):
        os.remove(run_json)  # a stale record would mark a failed rerun as complete
    # looked up at call time, so patched stages (tests, tracing) take effect; a
    # non-finite value anywhere in the stage raises FloatingPointError
    with np.errstate(all="raise", under="ignore"):
        getattr(pipeline, "run_" + command.replace("-", "_"))(cfg)
    os.makedirs(cfg["out"], exist_ok=True)
    with open(run_json, "w", encoding="utf-8") as fh:
        json.dump({"command": command, **cfg}, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _run(args.command, resolve_config(args.command, args))
    except (ValueError, OSError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, ValueError):
            return EXIT_BAD_CONFIG
        return EXIT_MISSING_INPUT if isinstance(e, OSError) else EXIT_DIVERGED
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
