"""Command-line surface: flags, config files, stream routing, exit codes."""

import json
import subprocess
import sys

import pytest

from attentive_mlp import bench, cli
from attentive_mlp.bench import BenchConfig
from attentive_mlp.cli import main
from attentive_mlp.narmodel import NarConfig, NarModel, load_checkpoint, save_checkpoint

TINY_TRAIN = [
    "--vocab", "7", "--len", "4", "--d-model", "8", "--heads", "2", "--c", "2",
    "--batch-size", "2", "--eval-samples", "16",
]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBenchCommand:
    def test_runs_below_four_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--runs", "3", "--lengths", "16"])
        assert exc.value.code == 2
        assert "4" in capsys.readouterr().err

    def test_grid_row_count(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, stdout, stderr = run_cli(
            [
                "bench", "--lengths", "16,32", "--runs", "4", "--batch", "1",
                "--d", "16", "--heads", "2", "--c", "4", "--warmup", "0",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 3 * 2  # header + archs x lengths
        assert "slope" in stdout
        assert "seed: 0" in stderr

    def test_single_cell(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        code, _, _ = run_cli(
            [
                "bench", "--lengths", "32", "--arch", "nar-amlp", "--runs", "4",
                "--batch", "1", "--d", "16", "--heads", "2", "--c", "4",
                "--warmup", "0", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("nar-amlp,32,")

    def test_csv_on_stdout_without_out_flag(self, capsys):
        code, stdout, stderr = run_cli(
            [
                "bench", "--lengths", "16", "--arch", "nar-amlp", "--runs", "4",
                "--batch", "1", "--d", "8", "--heads", "1", "--c", "2", "--warmup", "0",
            ],
            capsys,
        )
        assert code == 0
        assert stdout.startswith("arch,n,batch,runs,kept,")
        assert "slope" in stderr

    def test_sweep_defaults_are_the_sweep_shape(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "sweep_inner_dimension", lambda *a: seen.append(a) or [])
        code, _, stderr = run_cli(["sweep", "--c", "4,8"], capsys)
        assert code == 0
        echo = dict(kv.split("=") for kv in stderr.splitlines()[0].split()[2:])
        expected = {"d": "32", "heads": "2", "batch": "4", "runs": "25", "n": "8192", "steps": "3000"}
        assert {k: echo[k] for k in expected} == expected
        (cs, config, steps), = seen
        assert cs == (4, 8) and steps == 3000
        assert (config.lengths, config.d_model, config.heads, config.batch, config.runs) == (
            (8192,), 32, 2, 4, 25
        )

    def test_default_grid_is_eighteen_cells(self):
        # the paper-scale default grid (not timed here): 3 architectures x 6 lengths
        cfg = BenchConfig()
        assert len(cfg.architectures) * len(cfg.lengths) == 18


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "attentive_mlp.cli", "verify", "--json", "--seed", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True
        assert "seed: 2" in proc.stderr


class TestConfigFile:
    def test_file_values_apply_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "# comment line\n"
            "lengths=16\n"
            "runs=4\n"
            "batch=1\n"
            "d=16\n"
            "heads=2\n"
            "c=4\n"
            "warmup=0\n"
            "arch=nar-amlp\n"
            "seed=7\n"
        )
        out = tmp_path / "b.csv"
        code, _, stderr = run_cli(
            ["bench", "--config", str(cfg), "--seed", "9", "--out", str(out)], capsys
        )
        assert code == 0
        assert "seed: 9" in stderr  # flag beats file
        assert "runs=4" in stderr  # file value echoed
        row = out.read_text().strip().split("\n")[1]
        assert row.split(",")[3] == "4"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus=1\n")
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("runs\n")
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--config", str(cfg)])
        assert exc.value.code == 2


class TestTrainCommand:
    def test_zero_steps_prints_initial_accuracy_and_saves(self, tmp_path, capsys):
        ckpt = tmp_path / "init.ckpt"
        code, stdout, _ = run_cli(
            ["train", "--task", "copy", "--steps", "0", "--ckpt", str(ckpt)] + TINY_TRAIN,
            capsys,
        )
        assert code == 0
        assert stdout.startswith("initial accuracy ")
        assert "loss" not in stdout
        model = load_checkpoint(str(ckpt))
        assert model.config.vocab_size == 7

    def test_same_seed_same_loss_sequence(self, capsys):
        args = ["train", "--task", "copy", "--steps", "30", "--seed", "4"] + TINY_TRAIN
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        losses1 = [l for l in out1.splitlines() if l.startswith("step")]
        losses2 = [l for l in out2.splitlines() if l.startswith("step")]
        assert losses1 and losses1 == losses2

    def test_loss_printed_every_hundred_steps(self, capsys):
        code, stdout, _ = run_cli(
            ["train", "--task", "copy", "--steps", "201"] + TINY_TRAIN, capsys
        )
        assert code == 0
        steps = [l.split()[1] for l in stdout.splitlines() if l.startswith("step")]
        assert steps == ["0", "100", "200"]
        assert stdout.strip().splitlines()[-1].startswith("final accuracy ")

    def test_unwritable_checkpoint_path(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["train", "--task", "copy", "--steps", "1",
             "--ckpt", str(tmp_path / "no" / "dir" / "x.ckpt")] + TINY_TRAIN,
            capsys,
        )
        assert code == 1
        assert "error" in stderr

    @pytest.mark.parametrize("flag", ["--batch-size", "--eval-samples"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_size_is_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--task", "copy", "--steps", "1"] + TINY_TRAIN + [flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag[2:].replace('-', '_')} must be >= 1, got {value}" in err
        assert "Traceback" not in err

    def test_reverse_task_reaches_ninety_percent(self, capsys):
        # default model at 2000 steps; the acceptance suite covers the
        # full budget, this pins the CLI path end to end
        code, stdout, _ = run_cli(
            ["train", "--task", "reverse", "--variant", "cov", "--steps", "2000"], capsys
        )
        assert code == 0
        final = [l for l in stdout.splitlines() if l.startswith("final accuracy")][0]
        assert float(final.split()[-1]) >= 0.90


class TestEvalCommand:
    def test_reproduces_train_accuracy(self, tmp_path, capsys):
        ckpt = tmp_path / "init.ckpt"
        _, train_out, _ = run_cli(
            ["train", "--task", "copy", "--steps", "0", "--seed", "3", "--ckpt", str(ckpt)]
            + TINY_TRAIN,
            capsys,
        )
        code, stdout, stderr = run_cli(
            ["eval", "--task", "copy", "--ckpt", str(ckpt), "--eval-samples", "16"], capsys
        )
        assert code == 0
        assert "seed: 3" in stderr
        assert stdout.split()[-1] == train_out.split()[-1]

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda lines: lines[:1],
            lambda lines: lines[:2] + [" ".join(lines[2].split(" ")[:3])] + lines[3:],
            lambda lines: lines[:2] + [lines[2][:-2] + "zz"] + lines[3:],
            lambda lines: [lines[0], lines[1].replace('"beta"', '"bogus": 1, "beta"')] + lines[2:],
            lambda lines: [lines[0], lines[1].replace('"beta": 0.5', '"beta": 2.0')] + lines[2:],
        ],
        ids=["magic_only", "short_param", "bad_hex", "unknown_key", "bad_beta"],
    )
    def test_malformed_checkpoint_is_one_line_error(self, tmp_path, capsys, corrupt):
        ckpt = tmp_path / "m.ckpt"
        run_cli(["train", "--task", "copy", "--steps", "0", "--ckpt", str(ckpt)] + TINY_TRAIN, capsys)
        ckpt.write_text("\n".join(corrupt(ckpt.read_text().splitlines())) + "\n")
        code, stdout, stderr = run_cli(["eval", "--ckpt", str(ckpt)], capsys)
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert "Traceback" not in stderr

    def test_missing_ckpt_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval"])
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_fresh_build_all_pass(self, capsys):
        code, stdout, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert "FAIL" not in stdout
        assert stdout.count("PASS") >= 10

    def test_json_output_parses(self, capsys):
        code, stdout, _ = run_cli(["verify", "--json", "--seed", "12"], capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["passed"] is True
        assert payload["seed"] == 12
        assert all(p["passed"] for p in payload["properties"])

    def test_json_deterministic(self, capsys):
        _, out1, _ = run_cli(["verify", "--json", "--seed", "3"], capsys)
        _, out2, _ = run_cli(["verify", "--json", "--seed", "3"], capsys)
        assert out1 == out2

    def test_break_gradients_negative_control(self, capsys):
        code, stdout, _ = run_cli(["verify", "--break-gradients"], capsys)
        assert code == 1
        failed = [l for l in stdout.splitlines() if l.startswith("FAIL")]
        assert any("gradient" in l for l in failed)
        # the hook also reaches the batched path the training step runs
        assert any(l.startswith("FAIL gradient_batched_amlp_cov") for l in failed)
        # every gradient property fails, and only those
        results = [line.split(":", 1)[0].split() for line in stdout.splitlines()]
        assert all((status == "FAIL") == name.startswith("gradient_") for status, name in results)


def _error_lines(err):
    return [line for line in err.splitlines() if "error:" in line]


class TestSettings:
    """Each key of a settings table is a flag and a config-file key, checked once by the library."""

    SAMPLE = {
        int: "5",
        float: "0.25",
        str: "x",
        cli._parse_int_list: "4,8",
        cli._parse_str_list: "nar-amlp",
        cli._parse_bool: "true",
    }

    @pytest.mark.parametrize(
        "command, key",
        [(name, key) for name, (_run, table, _help) in cli._COMMANDS.items() for key in table],
    )
    def test_key_works_as_flag_and_config_key(self, command, key, tmp_path):
        parser = cli._build_parser()
        conv = cli._COMMANDS[command][1][key][0]
        value = self.SAMPLE[conv]
        flag = "--" + key.replace("_", "-")
        by_flag = parser.parse_args([command, flag] if conv is cli._parse_bool else [command, flag, value])
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"{key}={value}\n")
        by_file = parser.parse_args([command, "--config", str(cfg)])
        for args in (by_flag, by_file):
            assert cli._effective(args, parser)[key] == conv(value)

    BASE = {
        "bench": {
            "lengths": "16", "arch": "nar-softmax", "runs": "4", "batch": "1",
            "d": "8", "heads": "1", "c": "2", "warmup": "0",
        },
        "sweep": {"c": "2", "n": "16", "steps": "1", "runs": "4", "d": "8", "heads": "2"},
        "train": {
            "task": "copy", "steps": "1", "vocab": "7", "len": "4", "d_model": "8",
            "heads": "2", "c": "2", "batch_size": "2", "eval_samples": "16",
        },
        "eval": {"eval_samples": "16"},
        "verify": {},
    }

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize(
        "command, bad",
        [
            ("bench", {"sigma1": "bogus"}),
            ("bench", {"arch": ","}),
            ("sweep", {"c": ","}),
            ("train", {"sigma1": "bogus"}),
            ("train", {"variant": "pquery", "beta": "2.0"}),
            ("train", {"len": "0"}),
            ("train", {"vocab": "0"}),
            ("train", {"lr": "nan"}),
            ("train", {"lr": "-0.5"}),
            ("train", {"steps": "-1"}),
            ("train", {"seed": "-1"}),
            ("bench", {"seed": "-1"}),
            ("sweep", {"seed": "-1"}),
            ("eval", {"seed": "-1"}),
            ("eval", {"seed": "-2"}),
            ("verify", {"seed": "-1"}),
            ("sweep", {"n": "0"}),
            ("bench", {"warmup": "-1"}),
            ("bench", {"batch": "0"}),
        ],
        ids=["bench-sigma1", "bench-arch-empty", "sweep-c-empty", "train-sigma1", "beta", "len",
             "vocab", "lr", "lr-negative", "train-steps", "train-seed", "bench-seed", "sweep-seed", "eval-seed",
             "eval-seed-2", "verify-seed", "sweep-n", "bench-warmup", "bench-batch"],
    )
    def test_bad_setting_is_one_line_usage_error(self, command, bad, source, tmp_path, capsys):
        settings = {**self.BASE[command], **bad}
        if command == "eval":
            settings["ckpt"] = str(tmp_path / "model.ckpt")
            config = NarConfig(vocab_size=7, seq_len=4, source_len=4, d_model=8, heads=2, c=2)
            save_checkpoint(NarModel(config), settings["ckpt"])
        if source == "flag":
            argv = [command] + [a for k, v in settings.items() for a in ("--" + k.replace("_", "-"), v)]
        else:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
            argv = [command, "--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert _error_lines(err) == [err.splitlines()[-1]]

    @pytest.mark.parametrize(
        "command, flag, value, field",
        [
            ("train", "--len", "0", "seq_len"),
            ("train", "--vocab", "0", "vocab_size"),
            ("train", "--lr", "nan", "learning_rate"),
            ("bench", "--d", "0", "d_model"),
        ],
    )
    def test_setting_error_names_the_flag(self, command, flag, value, field, capsys):
        settings = {**self.BASE[command], flag[2:]: value}
        with pytest.raises(SystemExit) as exc:
            main([command] + [a for k, v in settings.items() for a in ("--" + k.replace("_", "-"), v)])
        assert exc.value.code == 2
        (line,) = _error_lines(capsys.readouterr().err)
        assert flag in line and field not in line, line

    @pytest.mark.parametrize(
        "command, flag, value, rule",
        [
            ("sweep", "--n", "0", "--n must be >= 1, got (0,)"),
            ("bench", "--lengths", "16,8", "lengths must be strictly increasing"),
            ("bench", "--batch", "0", "batch must be >= 1, got 0"),
            ("bench", "--warmup", "-1", "warmup must be >= 0, got -1"),
        ],
    )
    def test_setting_error_states_the_broken_rule_alone(self, command, flag, value, rule, capsys):
        settings = {**self.BASE[command], flag[2:]: value}
        with pytest.raises(SystemExit):
            main([command] + [a for k, v in settings.items() for a in ("--" + k.replace("_", "-"), v)])
        (line,) = _error_lines(capsys.readouterr().err)
        assert rule in line and " and " not in line, line


class TestRuntimeFailures:
    def test_diverging_training_is_one_line_error(self, capsys):
        cases = [
            (["--task", "copy", "--lr", "1e6", "--steps", "50"] + TINY_TRAIN, "step 26: parameter 'dec_ln3.b'"),
            # the default model's first update stays finite entry by entry
            (["--lr", "1e300", "--steps", "5"], "step 1: parameter 'embed'"),
        ]
        for argv, named in cases:
            code, _, stderr = run_cli(["train"] + argv, capsys)
            assert code == 1
            assert _error_lines(stderr) == [
                f"error: {named} diverged: its squared norm is not finite after the update"
            ]
            assert "Warning" not in stderr

    def test_sweep_memory_refusal_is_one_line_error(self, monkeypatch, capsys):
        # a fixed 1 MiB budget keeps the refusal independent of the host
        monkeypatch.setattr(bench, "_available_memory_bytes", lambda _root="/": 1 << 20)
        code, stdout, stderr = run_cli(["sweep", "--c", "4", "--n", "100000000"], capsys)
        assert code == 1
        assert stdout == ""
        assert _error_lines(stderr) == ["error: sweep cell c=4 does not fit in memory"]
