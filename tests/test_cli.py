import filecmp
import json
import os

import numpy as np
import pytest

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
    for name, (_typ, default) in spec.items() if default is None])
def test_options_without_default_are_required(tmp_path, capsys, command, option):
    given = [a for name, (_typ, default) in cli._SPECS[command].items()
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
    (_single_step_schedule, cli.EXIT_BAD_CONFIG, "T must be >= 2"),
    (_non_finite_gradient, cli.EXIT_DIVERGED, "non-finite gradient"),
])
def test_failures_exit_with_documented_code(toy_stack, tmp_path, capsys, monkeypatch,
                                            case, code, message):
    out = tmp_path / "out"
    assert cli.main(case(toy_stack, tmp_path, monkeypatch) + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err
    assert not (out / "run.json").exists()
    assert not out.exists()  # each of these fails before the stage writes anything
