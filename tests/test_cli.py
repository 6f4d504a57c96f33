import ast
import contextlib
import csv
import filecmp
import io
import json
import math
import os
import shutil
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from anomgen import cli, tensorio
from anomgen.denoiser import load_adapters, load_reference, save_adapters, save_reference


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
    for command, key in (("sample", "preset"), ("localize", "s_align"),
                         ("inspect-schedule", "seed")):
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


def test_divergence_exit_4(tmp_path, capsys):
    # the step size overflows the weights, and the next forward's matmul raises
    assert cli.main(_tiny_args(tmp_path / "d")) == 0
    rc = cli.main(["pretrain", "--data", str(tmp_path / "d"), "--out", str(tmp_path / "o"),
                   "--steps", "3", "--lr", "1e300"])
    assert rc == cli.EXIT_DIVERGED
    assert "overflow" in capsys.readouterr().err
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


def test_beta_sweep_logs_named_by_exact_beta(toy_stack, tmp_path):
    # betas that share an integer part keep one log each
    out = tmp_path / "sweep"
    rc = cli.main(["beta-sweep", "--data", str(toy_stack["data"]),
                   "--ref", str(toy_stack["pre"] / "reference.ckpt"),
                   "--out", str(out), "--steps", "1", "--betas", "500.2,500.7,0.5",
                   "--kmin", "1", "--kmax", "4"])
    assert rc == 0
    logs = sorted(f.name for f in out.glob("align_log_beta*.csv"))
    assert logs == ["align_log_beta0.5.csv", "align_log_beta500.2.csv",
                    "align_log_beta500.7.csv"]


def test_beta_sweep_structure(toy_stack, tmp_path):
    out = tmp_path / "sweep"
    rc = cli.main(["beta-sweep", "--data", str(toy_stack["data"]),
                   "--ref", str(toy_stack["pre"] / "reference.ckpt"),
                   "--out", str(out), "--steps", "10", "--lr", "1e-4", "--betas", "500,1000",
                   "--kmin", "1", "--kmax", "4"])
    assert rc == 0
    with open(out / "beta_sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["beta"]) for r in rows] == [500.0, 1000.0]
    beta_ts = []
    for r in rows:
        assert np.isfinite(float(r["final_mean_delta"]))
        assert np.isfinite(float(r["final_loss"]))
        with open(out / f"align_log_beta{r['beta'].removesuffix('.0')}.csv", newline="") as fh:
            log = list(csv.DictReader(fh))
        assert len(log) == 10
        beta_ts.append(np.array([float(x["beta_t"]) for x in log]))
    # shared seed: identical (t, sample) draws, so beta_t columns scale by 2
    assert np.array_equal(2.0 * beta_ts[0], beta_ts[1])


def test_int_config_value_for_float_option_runs(toy_stack, tmp_path):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"command": "align", "lr": 1}))
    out = tmp_path / "al"
    assert cli.main(["align", "--config", str(cfile), "--out", str(out), "--steps", "1",
                     "--kmin", "1", "--kmax", "4"] + _inputs(toy_stack, "align")) == 0
    lr = json.loads((out / "run.json").read_text())["lr"]
    assert lr == 1.0 and type(lr) is float


def test_pgm_comment_line_loads(toy_stack, tmp_path):
    # a comment after the magic line changes no pixel, so pretraining is unchanged
    data = tmp_path / "data"
    shutil.copytree(toy_stack["data"], data)
    for pgm in data.glob("*/normal/*.pgm"):
        magic, rest = pgm.read_bytes().split(b"\n", 1)
        pgm.write_bytes(magic + b"\n# written by another tool\n" + rest)
    pre = tmp_path / "pre"
    assert cli.main(["pretrain", "--data", str(data), "--out", str(pre),
                     "--t-steps", "20", "--steps", "3", "--batch", "2"]) == 0
    assert ((pre / "reference.ckpt").read_bytes()
            == (toy_stack["pre"] / "reference.ckpt").read_bytes())


def test_untrained_adapters_give_zero_maps_that_eval_scores(toy_stack, tmp_path):
    # with B still zero the adapters change nothing, so every raw map is constant
    al, maps, ev = tmp_path / "al", tmp_path / "maps", tmp_path / "eval"
    assert cli.main(["align", "--out", str(al), "--steps", "0", "--kmin", "1", "--kmax", "4"]
                    + _inputs(toy_stack, "align")) == 0
    assert cli.main(["localize", "--ref", str(toy_stack["pre"] / "reference.ckpt"),
                     "--adapters", str(al / "adapters.ckpt"), "--data", str(toy_stack["data"]),
                     "--out", str(maps), "--steps", "2"]) == 0
    p_maps = sorted(maps.glob("*.p.f64"))
    assert len(p_maps) == 18
    for path in p_maps:
        assert not tensorio.load_tensor(path).any()
    assert cli.main(["eval", "--data", str(toy_stack["data"]), "--maps", str(maps),
                     "--out", str(ev)]) == 0
    with open(ev / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    assert all(float(r["auroc"]) == 0.5 for r in rows)  # every pixel ties


# -- documented exit codes for bad inputs ---------------------------------------


def _truncated_checkpoint(stack, tmp, monkeypatch):
    ckpt = tmp / "short.ckpt"
    ckpt.write_bytes((stack["pre"] / "reference.ckpt").read_bytes()[:30])
    shutil.copy(stack["pre"] / "run.json", tmp)  # marked complete, so the cut is what fails
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
    (root / "run.json").write_text(json.dumps({"command": "gen-data"}))  # marked complete
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


def _samples_without_run_json(stack, tmp, monkeypatch):
    # a killed sample stage leaves its runs but no run.json
    samples = tmp / "samples"
    assert cli.main(["sample", "--out", str(samples), "--condition", "stripes_spot", "--n", "1",
                     "--steps", "2"] + _inputs(stack, "sample")) == 0
    (samples / "run.json").unlink()
    return ["eval"] + _inputs(stack, "eval") + ["--samples", str(samples)]


def _dataset_without_run_json(stack, tmp, monkeypatch):
    shutil.copytree(stack["data"], tmp / "data", ignore=shutil.ignore_patterns("run.json"))
    return ["pretrain", "--data", str(tmp / "data")]


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


def _nan_checkpoints(stack, tmp, monkeypatch):
    """Relative paths (so the error names them in full) of the toy checkpoints with one NaN."""
    monkeypatch.chdir(tmp)
    os.mkdir("nan")
    shutil.copy(stack["pre"] / "run.json", "nan")  # marked complete, so the NaN is what fails
    model, kind, T = load_reference(stack["pre"] / "reference.ckpt")
    adapters, gate, _, _ = load_adapters(stack["al"] / "adapters.ckpt", model)
    adapters.A[1][0, 0] = np.nan
    save_adapters("nan/adapters.ckpt", adapters, gate, kind, T, model)
    model.weights[1][0, 0] = np.nan
    save_reference("nan/reference.ckpt", model, kind, T)
    return "nan/reference.ckpt", "nan/adapters.ckpt"


def _nan_reference(command):
    """A case that runs command on the toy stack with a NaN weight in reference.ckpt."""
    def case(stack, tmp, monkeypatch):
        argv = [command] + _inputs(stack, command)
        argv[argv.index("--ref") + 1] = _nan_checkpoints(stack, tmp, monkeypatch)[0]
        return argv
    case.__name__ = f"{command} with a NaN reference"
    return case


def _nan_adapters(stack, tmp, monkeypatch):
    argv = ["sample"] + _inputs(stack, "sample")
    argv[argv.index("--adapters") + 1] = _nan_checkpoints(stack, tmp, monkeypatch)[1]
    return argv


def _nan_map(stack, tmp, monkeypatch):
    # a map that loads after finite ones, so the check runs per map, not once
    monkeypatch.chdir(tmp)
    assert cli.main(["localize", "--out", "maps", "--steps", "2"]
                    + _inputs(stack, "localize")) == 0
    tensorio.save_tensor("maps/checker_spot_002.p.f64", np.full((32, 32), np.nan))
    return ["eval", "--data", str(stack["data"]), "--maps", "maps"]


def _adapters_as_reference(stack, tmp, monkeypatch):
    return ["align", "--data", str(stack["data"]), "--ref", str(stack["al"] / "adapters.ckpt")]


def _adapters_of_another_schedule(stack, tmp, monkeypatch):
    # adapters aligned on a cosine reference, loaded beside the linear one
    data, pre, al = str(stack["data"]), str(tmp / "pre"), str(tmp / "al")
    assert cli.main(["pretrain", "--data", data, "--out", pre, "--t-steps", "20",
                     "--steps", "1", "--batch", "2", "--kind", "cosine"]) == 0
    assert cli.main(["align", "--data", data, "--ref", pre + "/reference.ckpt", "--out", al,
                     "--steps", "1", "--kmin", "1", "--kmax", "4"]) == 0
    argv = ["sample"] + _inputs(stack, "sample")
    argv[argv.index("--adapters") + 1] = al + "/adapters.ckpt"
    return argv


def _config_is_a_list(stack, tmp, monkeypatch):
    cfile = tmp / "c.json"
    cfile.write_text(json.dumps([{"command": "pretrain"}]))
    return ["pretrain", "--config", str(cfile)] + _inputs(stack, "pretrain")


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
    (_config_is_a_list, cli.EXIT_BAD_CONFIG, "config file must hold a JSON object"),
    # checkpoints and maps that hold a NaN: rejected as they load, naming the file
    (_nan_reference("align"), cli.EXIT_BAD_CONFIG,
     "non-finite value in tensor payload: nan/reference.ckpt"),
    (_nan_reference("beta-sweep"), cli.EXIT_BAD_CONFIG,
     "non-finite value in tensor payload: nan/reference.ckpt"),
    (_nan_reference("localize"), cli.EXIT_BAD_CONFIG,
     "non-finite value in tensor payload: nan/reference.ckpt"),
    (_nan_reference("sample"), cli.EXIT_BAD_CONFIG,
     "non-finite value in tensor payload: nan/reference.ckpt"),
    (_nan_adapters, cli.EXIT_BAD_CONFIG, "non-finite value in tensor payload: nan/adapters.ckpt"),
    (_nan_map, cli.EXIT_BAD_CONFIG,
     "non-finite value in tensor payload: maps/checker_spot_002.p.f64"),
    # checkpoints of the wrong role or of another schedule
    (_adapters_as_reference, cli.EXIT_BAD_CONFIG, "does not hold reference weights"),
    (_adapters_of_another_schedule, cli.EXIT_BAD_CONFIG, "adapter/reference schedule mismatch"),
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
    # finite in every domain, but the stage overflows; nothing is written
    (_flags("sample", "--condition", "stripes_spot", "--n", "1", "--steps", "5", "--s-text",
            "1e300"), cli.EXIT_DIVERGED, "overflow encountered"),
    (_flags("align", "--steps", "2", "--beta", "1e308"), cli.EXIT_DIVERGED,
     "overflow encountered"),
    (_flags("align", "--steps", "3", "--lr", "1e300"), cli.EXIT_DIVERGED, "overflow encountered"),
    (_manifest_sample_category_not_a_str, cli.EXIT_BAD_CONFIG,
     "sample 0 has category=5 of type int"),
    # artifacts of the wrong kind, and I/O errors
    (_ref_is_a_directory, cli.EXIT_MISSING_INPUT, "missing input file"),
    (_manifest_is_a_directory, cli.EXIT_MISSING_INPUT, "no manifest.json file in dataset"),
    (_out_is_a_file, cli.EXIT_MISSING_INPUT, "output is not a directory"),
    (_out_below_a_file, cli.EXIT_MISSING_INPUT, "Not a directory"),
    # inputs of a run that did not complete: no run.json beside them
    (_samples_without_run_json, cli.EXIT_MISSING_INPUT, "incomplete run (no run.json)"),
    (_dataset_without_run_json, cli.EXIT_MISSING_INPUT, "incomplete run (no run.json)"),
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


class _Cut(NamedTuple):
    """The artifact root with its file rel cut short, made once the offset is drawn."""
    root: str
    rel: str

    def draw(self, data, dest):
        """Hard-link the artifact into dest and keep a drawn strict prefix of rel."""
        shutil.copytree(self.root, dest, copy_function=os.link)
        target = dest / self.rel
        kept = target.read_bytes()
        kept = kept[:data.draw(st.integers(0, len(kept) - 1), label=f"{self.rel} cut at")]
        target.unlink()
        target.write_bytes(kept)
        return str(dest)


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
    shutil.copy(toy_stack["pre"] / "run.json", root)  # marked complete, so the cut is what fails
    (root / "dir_manifest" / "manifest.json").mkdir(parents=True)
    manifest = _stack_manifest(toy_stack)
    manifest["samples"][0]["category"] = 5
    bad_manifest = _with_manifest(root, manifest)[-1]
    first = _stack_manifest(toy_stack)["samples"][0]
    image = os.path.join(first["category"], first["split"], first["id"] + ".pgm")
    p_map = sorted(f for f in os.listdir(maps) if f.endswith(".p.f64"))[0]
    condition = sorted(d for d in os.listdir(samples) if os.path.isdir(os.path.join(samples, d)))[0]
    cut = {"data": [_Cut(data, "manifest.json"), _Cut(data, image)], "maps": [_Cut(maps, p_map)],
           "samples": [_Cut(samples, os.path.join(condition, "run_000", "sample.pgm"))]}
    return {
        "data": ([data], [missing, a_file, a_dir, str(root / "dir_manifest"), bad_manifest, ""]
                 + cut["data"]),
        "ref": ([ref], [missing, a_dir, ad, str(short), ""]),
        "adapters": ([ad], [missing, a_dir, ref, ""]),
        "maps": ([maps], [missing, a_file, data, ""] + cut["maps"]),
        "samples": (["", samples], [missing, a_file] + cut["samples"]),
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
    for name, v in cfg.items():
        if isinstance(v, _Cut):
            cfg[name] = v.draw(data, tmp_path_factory.mktemp("cut") / name)
            event(f"cut {os.path.basename(v.rel)}")
    if cfg["out"] == "fresh":
        cfg["out"] = str(tmp_path_factory.mktemp("out") / "out")
    fresh = not os.path.exists(cfg["out"])
    if data.draw(st.booleans(), label="config file"):
        cfile = tmp_path_factory.mktemp("cfg") / "c.json"
        text = json.dumps({"command": command, **cfg})
        offset = data.draw(st.none() | st.integers(0, len(text) - 1), label="config cut at")
        if offset is not None:
            text, bad = text[:offset], bad | {"config"}
            event("cut config")
        cfile.write_text(text)
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


@pytest.mark.parametrize("option", ["data", "maps", "samples"])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_truncated_artifacts_exit_2(fuzz_paths, tmp_path_factory, option, data):
    # eval reads all three artifacts; every file it reads is cut in turn
    cut = data.draw(st.sampled_from([p for p in fuzz_paths[option][1] if isinstance(p, _Cut)]))
    paths = {"data": fuzz_paths["data"][0][0], "maps": fuzz_paths["maps"][0][0],
             "samples": fuzz_paths["samples"][0][1]}
    paths[option] = cut.draw(data, tmp_path_factory.mktemp("cut") / option)
    out = tmp_path_factory.mktemp("out") / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["eval", "--out", str(out)] + [f"--{k}={v}" for k, v in paths.items()])
    assert code == cli.EXIT_BAD_CONFIG
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    assert not out.exists()


# -- the package ships only what the CLI reaches --------------------------------


def _identifiers(node):
    """Every name a node loads or reads as an attribute."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_package_defines_nothing_only_tests_reach():
    # a definition is reached when the package names it outside its own body,
    # when cli._run dispatches it by name (pipeline.run_*), or when the
    # benchmark's tracer wraps it (perfbench/tracing.py KEYS); test-only
    # code belongs in tests/oracles.py
    root = Path(__file__).resolve().parents[1]
    tracing = ast.parse((root / "perfbench" / "tracing.py").read_text())
    keys = {k.value for node in tracing.body if isinstance(node, ast.Assign)
            and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["KEYS"]
            for k in node.value.keys}
    assert keys, "no KEYS table in perfbench/tracing.py"
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted((root / "src" / "anomgen").glob("*.py"))}
    used = Counter(name for tree in trees.values() for name in _identifiers(tree))
    defs = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{mod}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{mod}.{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
    unreached = [name for name, node in defs
                 if used[node.name] == Counter(_identifiers(node))[node.name]
                 and not name.startswith("pipeline.run_") and name not in keys]
    assert unreached == []


def test_package_gives_no_option_a_second_default():
    # cli._SPECS holds the only default of every option; a stage reads the
    # resolved config, so a parameter or class field named after an option
    # must not carry a default of its own (artifact paths aside)
    root = Path(__file__).resolve().parents[1]
    options = {name for spec in cli._SPECS.values()
               for name, (_typ, _default, domain) in spec.items() if not isinstance(domain, str)}
    found = []
    for path in sorted((root / "src" / "anomgen").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                a = node.args
                positional = a.posonlyargs + a.args
                defaulted = positional[len(positional) - len(a.defaults):] + [
                    arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                names = [arg.arg for arg in defaulted]
            elif isinstance(node, ast.ClassDef):
                names = [f.target.id for f in node.body if isinstance(f, ast.AnnAssign)
                         and f.value is not None and isinstance(f.target, ast.Name)]
            else:
                continue
            found += [f"{path.stem}.{node.name}({n})" for n in names if n in options]
    assert found == [], found


def test_package_checks_finiteness_only_where_values_enter():
    # config floats are checked in cli._checked and checkpoint and map
    # payloads in tensorio.read_tensor; dataset pixels are uint8 and manifest
    # fields ints and strings, and a non-finite value that a stage computes
    # raises under cli._run's errstate, so no other function checks again
    root = Path(__file__).resolve().parents[1]
    found = set()
    for path in sorted((root / "src" / "anomgen").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and "isfinite" in (
                    getattr(c.func, "id", None) or getattr(c.func, "attr", None)
                    for c in ast.walk(node) if isinstance(c, ast.Call)):
                found.add(f"{path.stem}.{node.name}")
    assert found == {"cli._checked", "tensorio.read_tensor"}, found


def _is_default(value) -> bool:
    """A dataclass field value that gives a default: anything but field() without default=."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(k.arg == "default" for k in value.keywords)
    return value is not None


def test_package_passes_every_default_it_declares():
    # a parameter default, or a dataclass field default, that no package call
    # passes by keyword or by position is a setting only tests can change;
    # calls are matched by the callee's name, a class call reaches __init__
    # and the dataclass fields, and cli.main(argv) is the entry point
    root = Path(__file__).resolve().parents[1]
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted((root / "src" / "anomgen").glob("*.py"))}
    passed: dict[str, tuple[int, set]] = {}  # callee: (most positional args, keywords)
    for tree in trees.values():
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            everything = any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords)
            n_pos, keywords = passed.get(name, (0, set()))
            passed[name] = (math.inf if everything else max(n_pos, len(call.args)),
                            keywords | {k.arg for k in call.keywords})
    unpassed = []
    for mod, tree in trees.items():
        methods = {id(m): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for m in c.body if isinstance(m, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                declared = [(i, f.target.id, node.name) for i, f in enumerate(fields)
                            if _is_default(f.value)]
                qualname = f"{mod}.{node.name}.{{}}"
            elif isinstance(node, ast.FunctionDef) and f"{mod}.{node.name}" != "cli.main":
                cls = methods.get(id(node))
                static = any(ast.unparse(d) == "staticmethod" for d in node.decorator_list)
                shift = 1 if cls and not static else 0  # self is not among a call's args
                callee = cls.name if cls and node.name == "__init__" else node.name
                a = node.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                declared = [(i - shift, arg.arg, callee)
                            for i, arg in enumerate(positional) if i >= first]
                declared += [(None, arg.arg, callee)
                             for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                qualname = f"{mod}.{cls.name + '.' if cls else ''}{node.name}({{}})"
            else:
                continue
            for index, param, callee in declared:
                n_pos, keywords = passed.get(callee, (0, set()))
                if param not in keywords and (index is None or index >= n_pos):
                    unpassed.append(qualname.format(param))
    assert unpassed == [], unpassed
