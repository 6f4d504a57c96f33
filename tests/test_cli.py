import contextlib
import filecmp
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from anomgen import cli
from anomgen.optim import Adam, adam_step
from anomgen.trainer import DivergenceError


def _tiny_args(out):
    return ["gen-data", "--out", str(out), "--n-normal", "3", "--n-anomaly", "3"]


# -- config resolution ---------------------------------------------------------


def test_defaults_applied(tmp_path):
    args = cli._build_parser().parse_args(_tiny_args(tmp_path / "d"))
    cfg = cli.resolve_config("gen-data", args)
    assert cfg["seed"] == 0
    assert cfg["fraction"] == pytest.approx(1.0 / 3.0)
    assert cfg["n_normal"] == 3  # flag override


def test_config_file_precedence(tmp_path):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"command": "gen-data", "seed": 9, "n_normal": 5}))
    argv = ["gen-data", "--config", str(cfile), "--out", str(tmp_path / "d"),
            "--n-normal", "7"]
    args = cli._build_parser().parse_args(argv)
    cfg = cli.resolve_config("gen-data", args)
    assert cfg["seed"] == 9       # file beats default
    assert cfg["n_normal"] == 7   # flag beats file


def test_unknown_config_keys_exit_2(tmp_path):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"command": "gen-data", "bogus": 1}))
    rc = cli.main(["gen-data", "--config", str(cfile), "--out", str(tmp_path / "d")])
    assert rc == cli.EXIT_BAD_CONFIG


def test_config_command_mismatch_exit_2(tmp_path):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"command": "pretrain", "seed": 1}))
    rc = cli.main(["gen-data", "--config", str(cfile), "--out", str(tmp_path / "d")])
    assert rc == cli.EXIT_BAD_CONFIG


def test_missing_required_exit_2():
    assert cli.main(["gen-data"]) == cli.EXIT_BAD_CONFIG


@pytest.mark.parametrize("command, option", [
    (cmd, name) for cmd, spec in cli._SPECS.items()
    for name, (_typ, default, _domain) in spec.items() if default is None])
def test_options_without_default_are_required(tmp_path, capsys, command, option):
    given = [a for name, (_typ, default, _domain) in cli._SPECS[command].items()
             if default is None and name != option
             for a in ("--" + name.replace("_", "-"), str(tmp_path / name))]
    assert cli.main([command] + given) == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: missing required options: [{option!r}]\n"
    assert not any(tmp_path.iterdir())


def test_removed_options_rejected_in_config(tmp_path, capsys):
    for command, key in (("sample", "preset"), ("localize", "s_align")):
        cfile = tmp_path / f"{command}.json"
        cfile.write_text(json.dumps({"command": command, key: 1}))
        assert cli.main([command, "--config", str(cfile)]) == cli.EXIT_BAD_CONFIG
        assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err


def test_missing_config_file_exit_3(tmp_path):
    rc = cli.main(["gen-data", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "d")])
    assert rc == cli.EXIT_MISSING_INPUT


def test_missing_input_artifact_exit_3(tmp_path):
    rc = cli.main(["pretrain", "--data", str(tmp_path / "nodata"),
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_MISSING_INPUT


def test_divergence_exit_4(tmp_path, monkeypatch):
    assert cli.main(_tiny_args(tmp_path / "d")) == 0

    def boom(*a, **kw):
        raise DivergenceError("diverged at pretrain step 0")

    monkeypatch.setattr(cli.pipeline, "run_pretrain", boom)
    rc = cli.main(["pretrain", "--data", str(tmp_path / "d"),
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_DIVERGED
    assert not (tmp_path / "o" / "run.json").exists()


def test_failed_rerun_removes_stale_run_json(tmp_path, monkeypatch):
    out = tmp_path / "d"
    assert cli.main(_tiny_args(out)) == 0
    assert (out / "run.json").exists()

    def boom(cfg):
        raise ValueError("stage failed")

    monkeypatch.setattr(cli.pipeline, "run_gen_data", boom)
    assert cli.main(_tiny_args(out)) == cli.EXIT_BAD_CONFIG
    assert (out / "manifest.json").exists()
    assert not (out / "run.json").exists()


# -- run.json ------------------------------------------------------------------


def test_run_json_records_full_config(tmp_path):
    out = tmp_path / "d"
    assert cli.main(_tiny_args(out)) == 0
    run = json.loads((out / "run.json").read_text())
    assert run["command"] == "gen-data"
    assert run["seed"] == 0
    assert run["n_normal"] == 3
    assert set(run) == {"command"} | set(cli._SPECS["gen-data"])


def test_gen_data_rerun_from_run_json_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(_tiny_args(out1)) == 0
    assert cli.main(["gen-data", "--config", str(out1 / "run.json"),
                     "--out", str(out2)]) == 0

    def collect(root):
        files = {}
        for dirpath, _dirs, names in os.walk(root):
            for n in names:
                if n == "run.json":
                    continue
                rel = os.path.relpath(os.path.join(dirpath, n), root)
                with open(os.path.join(dirpath, n), "rb") as fh:
                    files[rel] = fh.read()
        return files

    f1, f2 = collect(out1), collect(out2)
    assert f1.keys() == f2.keys()
    for k in f1:
        assert f1[k] == f2[k], k


# -- inspect-schedule ----------------------------------------------------------


def test_inspect_schedule_csv(tmp_path):
    out = tmp_path / "s"
    rc = cli.main(["inspect-schedule", "--out", str(out), "--t-steps", "20"])
    assert rc == 0
    lines = (out / "schedule.csv").read_text().strip().splitlines()
    assert lines[0] == "t,alpha,sigma,lambda,lambda_slope,beta_t"
    assert len(lines) == 22  # header + t = 0..20
    row0 = lines[1].split(",")
    assert row0[4] == "" and row0[5] == ""  # slope undefined at t=0
    for line in lines[2:]:
        assert float(line.split(",")[5]) > 0


def test_inspect_schedule_bad_kind_exit_2(tmp_path):
    rc = cli.main(["inspect-schedule", "--out", str(tmp_path / "s"), "--kind", "weird"])
    assert rc == cli.EXIT_BAD_CONFIG


# -- smoke of the training stages at toy scale ---------------------------------


@pytest.fixture(scope="module")
def toy_stack(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    data, pre, al = root / "data", root / "pre", root / "al"
    assert cli.main(["gen-data", "--out", str(data), "--n-normal", "3",
                     "--n-anomaly", "3"]) == 0
    assert cli.main(["pretrain", "--data", str(data), "--out", str(pre),
                     "--t-steps", "20", "--steps", "3", "--batch", "2"]) == 0
    assert cli.main(["align", "--data", str(data), "--ref",
                     str(pre / "reference.ckpt"), "--out", str(al),
                     "--steps", "3", "--kmin", "1", "--kmax", "4"]) == 0
    return {"data": data, "pre": pre, "al": al}


def test_pretrain_align_artifacts(toy_stack):
    assert (toy_stack["pre"] / "reference.ckpt").exists()
    assert (toy_stack["pre"] / "train_log.csv").exists()
    assert (toy_stack["al"] / "adapters.ckpt").exists()
    log = (toy_stack["al"] / "train_log.csv").read_text().strip().splitlines()
    assert len(log) == 4
    assert abs(float(log[1].split(",")[4]) - np.log(2.0)) < 1e-9


def test_sample_localize_eval(toy_stack, tmp_path):
    samples, maps, ev = tmp_path / "samples", tmp_path / "maps", tmp_path / "eval"
    ref = str(toy_stack["pre"] / "reference.ckpt")
    ad = str(toy_stack["al"] / "adapters.ckpt")
    assert cli.main(["sample", "--ref", ref, "--adapters", ad, "--out", str(samples),
                     "--condition", "stripes_spot", "--n", "2", "--steps", "5"]) == 0
    assert (samples / "stripes_spot" / "run_000" / "sample.pgm").exists()
    assert (samples / "stripes_spot" / "run_001" / "delta_norms.csv").exists()
    assert cli.main(["localize", "--ref", ref, "--adapters", ad,
                     "--data", str(toy_stack["data"]), "--out", str(maps),
                     "--steps", "5"]) == 0
    p_files = [f for f in os.listdir(maps) if f.endswith(".p.f64")]
    assert len(p_files) == 3 * 3 * 2  # eval split: 2 per condition
    assert cli.main(["eval", "--data", str(toy_stack["data"]), "--maps", str(maps),
                     "--out", str(ev), "--samples", str(samples)]) == 0
    lines = (ev / "metrics.csv").read_text().strip().splitlines()
    assert lines[0].startswith("category,defect,auroc")
    assert len(lines) == 10


def test_stage_rerun_byte_identical(toy_stack, tmp_path):
    fresh = tmp_path / "fresh"
    rc = cli.main(["align", "--config", str(toy_stack["al"] / "run.json"),
                   "--out", str(fresh)])
    assert rc == 0
    a = (toy_stack["al"] / "adapters.ckpt").read_bytes()
    b = (fresh / "adapters.ckpt").read_bytes()
    assert a == b
    assert ((toy_stack["al"] / "train_log.csv").read_text()
            == (fresh / "train_log.csv").read_text())


def test_beta_sweep_command(toy_stack, tmp_path):
    out = tmp_path / "sweep"
    rc = cli.main(["beta-sweep", "--data", str(toy_stack["data"]),
                   "--ref", str(toy_stack["pre"] / "reference.ckpt"),
                   "--out", str(out), "--steps", "3", "--betas", "500,1000",
                   "--kmin", "1", "--kmax", "4"])
    assert rc == 0
    lines = (out / "beta_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "beta,final_mean_delta,final_loss"
    assert len(lines) == 3
    assert (out / "align_log_beta500.csv").exists()
    assert (out / "align_log_beta1000.csv").exists()


# -- documented exit codes for bad inputs ---------------------------------------


def _truncated_checkpoint(stack, tmp, monkeypatch):
    ckpt = tmp / "short.ckpt"
    ckpt.write_bytes((stack["pre"] / "reference.ckpt").read_bytes()[:30])
    return ["align", "--data", str(stack["data"]), "--ref", str(ckpt)]


def _string_typed_config(stack, tmp, monkeypatch):
    cfile = tmp / "c.json"
    cfile.write_text(json.dumps({"command": "pretrain", "data": str(stack["data"]),
                                 "steps": "5"}))
    return ["pretrain", "--config", str(cfile)]


def _unknown_condition(stack, tmp, monkeypatch):
    return ["sample", "--ref", str(stack["pre"] / "reference.ckpt"),
            "--adapters", str(stack["al"] / "adapters.ckpt"), "--condition", "bogus_x"]


def _no_sample_runs(stack, tmp, monkeypatch):
    return _unknown_condition(stack, tmp, monkeypatch)[:-2] + ["--n", "0"]


def _too_many_sample_runs(stack, tmp, monkeypatch):
    # run 10000 of one condition would take the seed of run 0 of the next
    return _unknown_condition(stack, tmp, monkeypatch)[:-2] + ["--n", "10001"]


def _missing_samples_dir(stack, tmp, monkeypatch):
    return ["eval", "--data", str(stack["data"]), "--maps", str(stack["data"]),
            "--samples", str(tmp / "samplez")]


def _unknown_split(stack, tmp, monkeypatch):
    return ["localize", "--ref", str(stack["pre"] / "reference.ckpt"),
            "--adapters", str(stack["al"] / "adapters.ckpt"), "--data", str(stack["data"]),
            "--split", "bogus"]


def _with_manifest(tmp, manifest):
    root = tmp / "bad_data"
    root.mkdir()
    (root / "manifest.json").write_text(json.dumps(manifest))
    return ["pretrain", "--data", str(root)]


def _stack_manifest(stack):
    return json.loads((stack["data"] / "manifest.json").read_text())


def _manifest_without_samples(stack, tmp, monkeypatch):
    return _with_manifest(tmp, {})


def _manifest_not_an_object(stack, tmp, monkeypatch):
    return _with_manifest(tmp, [])


def _manifest_sample_without_category(stack, tmp, monkeypatch):
    manifest = _stack_manifest(stack)
    del manifest["samples"][0]["category"]
    return _with_manifest(tmp, manifest)


def _manifest_unknown_split(stack, tmp, monkeypatch):
    manifest = _stack_manifest(stack)
    manifest["samples"][0]["split"] = "test"
    return _with_manifest(tmp, manifest)


def _config_is_a_directory(stack, tmp, monkeypatch):
    return ["pretrain", "--config", str(tmp), "--data", str(stack["data"])]


def _manifest_sample_category_not_a_str(stack, tmp, monkeypatch):
    manifest = _stack_manifest(stack)
    manifest["samples"][0]["category"] = 5
    return _with_manifest(tmp, manifest)


def _manifest_is_a_directory(stack, tmp, monkeypatch):
    (tmp / "bad_data" / "manifest.json").mkdir(parents=True)
    return ["pretrain", "--data", str(tmp / "bad_data")]


def _ref_is_a_directory(stack, tmp, monkeypatch):
    return ["align", "--data", str(stack["data"]), "--ref", str(stack["pre"])]


def _out_is_a_file(stack, tmp, monkeypatch):
    (tmp / "out").write_text("")
    return ["gen-data", "--n-normal", "3", "--n-anomaly", "3"]


def _out_below_a_file(stack, tmp, monkeypatch):
    (tmp / "file").write_text("")
    return ["gen-data", "--n-normal", "3", "--n-anomaly", "3", "--out", str(tmp / "file" / "x")]


def _non_finite_config_value(stack, tmp, monkeypatch):
    cfile = tmp / "c.json"
    cfile.write_text(json.dumps({"command": "sample", "s_align": float("nan")}))
    return ["sample", "--config", str(cfile)] + _inputs(stack, "sample")


def _inputs(stack, command):
    """The input artifacts a command needs, taken from the toy stack."""
    ref, ad = str(stack["pre"] / "reference.ckpt"), str(stack["al"] / "adapters.ckpt")
    data = str(stack["data"])
    return {"gen-data": [], "inspect-schedule": [], "pretrain": ["--data", data],
            "align": ["--data", data, "--ref", ref], "beta-sweep": ["--data", data, "--ref", ref],
            "sample": ["--ref", ref, "--adapters", ad],
            "localize": ["--ref", ref, "--adapters", ad, "--data", data],
            "eval": ["--data", data, "--maps", data]}[command]


def _flags(command, *flags):
    """A case that runs command on the toy stack's inputs with the given flags."""
    def case(stack, tmp, monkeypatch):
        return [command] + _inputs(stack, command) + list(flags)
    case.__name__ = " ".join((command,) + flags)
    return case


def _single_step_schedule(stack, tmp, monkeypatch):
    return ["pretrain", "--data", str(stack["data"]), "--t-steps", "1"]


def _non_finite_gradient(stack, tmp, monkeypatch):
    monkeypatch.setattr(cli.pipeline.trainer, "pretrain_reference", _nan_adam_step)
    return ["pretrain", "--data", str(stack["data"]), "--steps", "1"]


def _nan_adam_step(*a, **kw):
    p = np.zeros(2)
    adam_step(Adam([p], learning_rate=0.1), grads=[np.array([np.nan, 0.0])])


@pytest.mark.parametrize("case, code, message", [
    (_truncated_checkpoint, cli.EXIT_BAD_CONFIG, "truncated"),
    (_string_typed_config, cli.EXIT_BAD_CONFIG, "steps='5' is not of type int"),
    (_unknown_condition, cli.EXIT_BAD_CONFIG, "valid: all, stripes_scratch"),
    (_no_sample_runs, cli.EXIT_BAD_CONFIG, "n must be >= 1"),
    (_too_many_sample_runs, cli.EXIT_BAD_CONFIG, "n must be <= 10000"),
    (_missing_samples_dir, cli.EXIT_MISSING_INPUT, "samplez"),
    (_unknown_split, cli.EXIT_BAD_CONFIG, "valid: normal, reference, eval"),
    (_manifest_without_samples, cli.EXIT_BAD_CONFIG, "an object with a 'samples' list"),
    (_manifest_not_an_object, cli.EXIT_BAD_CONFIG, "an object with a 'samples' list"),
    (_manifest_sample_without_category, cli.EXIT_BAD_CONFIG,
     "sample 0 needs id, category, split, token, defect"),
    (_manifest_unknown_split, cli.EXIT_BAD_CONFIG,
     "sample 0 has split 'test'; valid: normal, reference, eval"),
    (_config_is_a_directory, cli.EXIT_MISSING_INPUT, "missing config file"),
    (_single_step_schedule, cli.EXIT_BAD_CONFIG, "t_steps must be >= 2"),
    (_non_finite_gradient, cli.EXIT_DIVERGED, "non-finite gradient"),
    # out-of-domain values, rejected before any stage code runs
    (_flags("pretrain", "--steps", "1", "--lr", "nan"), cli.EXIT_BAD_CONFIG, "lr must be finite"),
    (_flags("pretrain", "--lr", "-1"), cli.EXIT_BAD_CONFIG, "lr must be > 0"),
    (_flags("align", "--steps", "1", "--lr", "inf"), cli.EXIT_BAD_CONFIG, "lr must be finite"),
    (_flags("sample", "--s-text", "nan"), cli.EXIT_BAD_CONFIG, "s_text must be finite"),
    (_flags("sample", "--clip", "nan"), cli.EXIT_BAD_CONFIG, "clip must be finite"),
    (_non_finite_config_value, cli.EXIT_BAD_CONFIG, "s_align must be finite"),
    (_flags("gen-data", "--fraction", "1.5"), cli.EXIT_BAD_CONFIG, "fraction must be < 1"),
    (_flags("gen-data", "--fraction", "1"), cli.EXIT_BAD_CONFIG, "fraction must be < 1"),
    (_flags("gen-data", "--n-anomaly", "2"), cli.EXIT_BAD_CONFIG, "n_anomaly must be >= 3"),
    (_flags("gen-data", "--n-normal", "0"), cli.EXIT_BAD_CONFIG, "n_normal must be >= 1"),
    (_flags("pretrain", "--steps", "-1"), cli.EXIT_BAD_CONFIG, "steps must be >= 0"),
    (_flags("pretrain", "--dropout", "1"), cli.EXIT_BAD_CONFIG, "dropout must be < 1"),
    (_flags("pretrain", "--batch", "0"), cli.EXIT_BAD_CONFIG, "batch must be >= 1"),
    (_flags("pretrain", "--kind", "weird"), cli.EXIT_BAD_CONFIG,
     "unknown kind 'weird'; valid: linear, cosine"),
    (_flags("align", "--beta", "0"), cli.EXIT_BAD_CONFIG, "beta must be > 0"),
    (_flags("align", "--beta", "-1"), cli.EXIT_BAD_CONFIG, "beta must be > 0"),
    (_flags("inspect-schedule", "--beta", "0"), cli.EXIT_BAD_CONFIG, "beta must be > 0"),
    (_flags("inspect-schedule", "--t-steps", str(2**32)), cli.EXIT_BAD_CONFIG,
     "t_steps must be <= 4294967295"),
    (_flags("sample", "--steps", "0"), cli.EXIT_BAD_CONFIG, "steps must be >= 1"),
    (_flags("sample", "--eta", "1.5"), cli.EXIT_BAD_CONFIG, "eta must be <= 1"),
    (_flags("sample", "--clip", "0"), cli.EXIT_BAD_CONFIG, "clip must be > 0"),
    (_flags("localize", "--steps", "0"), cli.EXIT_BAD_CONFIG, "steps must be >= 1"),
    (_flags("beta-sweep", "--betas", ","), cli.EXIT_BAD_CONFIG, "betas must not be empty"),
    (_flags("beta-sweep", "--betas", "1000,-1"), cli.EXIT_BAD_CONFIG, "betas must be > 0"),
    (_flags("beta-sweep", "--betas", "500,x"), cli.EXIT_BAD_CONFIG, "comma-separated"),
    # in every domain, but k_min > k_max; the gate rejects it before training
    (_flags("align", "--kmin", "8", "--kmax", "4"), cli.EXIT_BAD_CONFIG, "k_min <= k_max"),
    (_manifest_sample_category_not_a_str, cli.EXIT_BAD_CONFIG,
     "sample 0 has category=5 of type int"),
    # artifacts of the wrong kind, and I/O errors
    (_ref_is_a_directory, cli.EXIT_MISSING_INPUT, "missing input file"),
    (_manifest_is_a_directory, cli.EXIT_MISSING_INPUT, "no manifest.json file in dataset"),
    (_out_is_a_file, cli.EXIT_MISSING_INPUT, "output is not a directory"),
    (_out_below_a_file, cli.EXIT_MISSING_INPUT, "Not a directory"),
])
def test_failures_exit_with_documented_code(toy_stack, tmp_path, capsys, monkeypatch,
                                            case, code, message):
    argv = case(toy_stack, tmp_path, monkeypatch)
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    out = Path(argv[argv.index("--out") + 1])
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err
    assert not (out / "run.json").exists()
    assert not out.is_dir()  # each of these fails before the stage creates its output


# -- fuzzed options ----------------------------------------------------------------

# largest in-domain magnitude drawn per numeric option, so that every stage runs
# at toy size; the seed is drawn uncapped, and out-of-domain draws are not capped
_CAPS = {"n_normal": 4, "n_anomaly": 4, "fraction": 1, "t_steps": 30, "steps": 2, "lr": 1,
         "batch": 2, "dropout": 1, "beta": 1e4, "betas": 1e4, "kmin": 4, "kmax": 4, "n": 2,
         "s_text": 10, "s_align": 10, "eta": 1, "clip": 10}


def _in_domain(v, domain):
    return (type(v) is int or math.isfinite(v)) and all(
        cli._COMPARE[op](v, bound) for op, bound in domain)


def _numbers(typ, domain, cap, inside):
    """Numbers of the domain up to cap in magnitude, or numbers past one of its bounds."""
    if inside:
        if cap is None:
            return st.integers() | st.just(10**340)
        numbers = st.integers(-cap, cap) if typ is int else st.floats(-cap, cap)
        return numbers.filter(lambda v: _in_domain(v, domain))
    past = [st.sampled_from([math.nan, math.inf, -math.inf])] if typ is float else []
    for op, b in domain:
        if typ is int and op[0] == ">":
            past.append(st.integers(max_value=b - (op == ">=")))
        elif typ is int:
            past.append(st.integers(min_value=b + (op == "<=")))
        elif op[0] == ">":
            past.append(st.floats(max_value=b, exclude_max=op == ">="))
        else:
            past.append(st.floats(min_value=b, exclude_min=op == "<="))
    return st.one_of(past)


@pytest.fixture(scope="module")
def fuzz_paths(toy_stack, tmp_path_factory):
    """Per artifact option: (paths of the right kind, paths of a wrong kind or content)."""
    root = tmp_path_factory.mktemp("fuzz")
    ref, ad = str(toy_stack["pre"] / "reference.ckpt"), str(toy_stack["al"] / "adapters.ckpt")
    data, maps, samples = str(toy_stack["data"]), str(root / "maps"), str(root / "samples")
    assert cli.main(["localize", "--ref", ref, "--adapters", ad, "--data", data,
                     "--out", maps, "--steps", "2"]) == 0
    assert cli.main(["sample", "--ref", ref, "--adapters", ad, "--out", samples,
                     "--n", "2", "--steps", "2"]) == 0
    missing, a_file, a_dir = str(root / "missing"), str(root / "file"), str(root / "dir")
    (root / "file").write_text("")
    (root / "dir").mkdir()
    short = root / "short.ckpt"
    short.write_bytes((toy_stack["pre"] / "reference.ckpt").read_bytes()[:30])
    (root / "dir_manifest" / "manifest.json").mkdir(parents=True)
    manifest = _stack_manifest(toy_stack)
    manifest["samples"][0]["category"] = 5
    bad_manifest = _with_manifest(root, manifest)[-1]
    return {
        "data": ([data], [missing, a_file, a_dir, str(root / "dir_manifest"), bad_manifest, ""]),
        "ref": ([ref], [missing, a_dir, ad, str(short), ""]),
        "adapters": ([ad], [missing, a_dir, ref, ""]),
        "maps": ([maps], [missing, a_file, data, ""]),
        "samples": (["", samples], [missing, a_file]),
        "out": (["fresh"], [a_file, str(root / "file" / "x")]),
    }


def _value(name, typ, domain, paths, inside):
    if isinstance(domain, str):
        return st.sampled_from(paths[name][not inside])
    if isinstance(domain, tuple) and typ is str:
        return st.sampled_from(domain) if inside else st.text(max_size=6).filter(
            lambda v: v not in domain)
    if isinstance(domain, list):
        items = st.lists(_numbers(float, domain, _CAPS[name], True), min_size=1, max_size=3)
        if not inside:
            items = st.lists(_numbers(float, domain, None, False), min_size=1, max_size=2)
            items = items | st.sampled_from([[], ["x"], [1.0, "x"]])
        return items.map(lambda xs: ",".join(map(str, xs)))
    return _numbers(typ, domain, _CAPS.get(name), inside)


@pytest.mark.parametrize("command", list(cli._SPECS))
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_options_exit_with_documented_code(fuzz_paths, tmp_path_factory, command, data):
    spec = cli._SPECS[command]
    breakable = [n for n, (typ, _d, domain) in spec.items()
                 if typ is not int or domain != cli._ANY]
    bad = data.draw(st.sets(st.sampled_from(breakable), max_size=2), label="out of domain")
    cfg = {name: data.draw(_value(name, typ, domain, fuzz_paths, name not in bad), label=name)
           for name, (typ, _d, domain) in spec.items()}
    if cfg["out"] == "fresh":
        cfg["out"] = str(tmp_path_factory.mktemp("out") / "out")
    fresh = not os.path.exists(cfg["out"])
    if data.draw(st.booleans(), label="config file"):
        cfile = tmp_path_factory.mktemp("cfg") / "c.json"
        cfile.write_text(json.dumps({"command": command, **cfg}))
        argv = [command, "--config", str(cfile)]
    else:
        argv = [command] + [f"--{name.replace('_', '-')}={v}" for name, v in cfg.items()]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    event(f"exit {code}")
    assert code in (0, cli.EXIT_BAD_CONFIG, cli.EXIT_MISSING_INPUT, cli.EXIT_DIVERGED)
    if code == 0:
        assert not bad and os.path.isfile(os.path.join(cfg["out"], "run.json"))
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
        assert not fresh or not os.path.exists(cfg["out"])
