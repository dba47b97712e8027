"""Config file parsing and the command-line front end."""
import dataclasses
import shutil

import numpy as np
import pytest

from wau.cli import FLOPS_HEADER, main
from wau.config import (ConfigError, RunConfig, parse_config,
                        parse_config_text, serialize_config)
from wau.toyseg.train import TrainRun, evaluate

TINY_INI = """\
[model]
depth = 1
base_channels = 4
upsampler = wau
heads = 2
window = 2

[data]
train_count = 4
val_count = 2
height = 8
width = 8

[train]
epochs = 2
batch_size = 2
lr = 0.001
warmup_epochs = 1
seed = 0
"""


# `wau flops --sweep` stdout, pinned byte for byte: every column, not only
# measured == analytic, must survive a change to the cost path.
GOLDEN_FLOPS = {
    "": (
        "op,h2,w2,c,k,n,m2,flops_analytic,flops_measured,mem_analytic,mem_measured,attn_flops,flops_ratio\n"
        "wad,8,8,16,3,2,4,1605632,1605632,10240,10240,131072,\n"
        "wad,16,16,16,3,2,4,6422528,6422528,40960,40960,524288,4.0\n"
        "wad,32,32,16,3,2,4,25690112,25690112,163840,163840,2097152,4.0\n"
        "wad,64,64,16,3,2,4,102760448,102760448,655360,655360,8388608,4.0\n"
    ),
    "[analysis]\nop = ad\nh2 = 4\nw2 = 6\n": (
        "op,h2,w2,c,k,n,m2,flops_analytic,flops_measured,mem_analytic,mem_measured,attn_flops,flops_ratio\n"
        "ad,4,6,16,3,2,,626688,626688,4608,4608,73728,\n"
        "ad,8,12,16,3,2,,3391488,3391488,46080,46080,1179648,5.411764705882353\n"
        "ad,16,24,16,3,2,,27721728,27721728,626688,626688,18874368,8.173913043478262\n"
        "ad,32,48,16,3,2,,337379328,337379328,9584640,9584640,301989888,12.170212765957446\n"
    ),
}


class TestConfigParsing:
    def test_empty_text_is_all_defaults(self):
        assert parse_config_text("") == RunConfig()

    def test_serialize_parse_round_trip_defaults(self):
        assert parse_config_text(serialize_config(RunConfig())) == RunConfig()

    def test_serialize_parse_round_trip_modified(self):
        cfg = RunConfig()
        cfg.train.lr = 3.5e-5
        cfg.train.augment = False
        cfg.model.upsampler = "wad_only"
        cfg.data.noise_sigma = 0.25
        assert parse_config_text(serialize_config(cfg)) == cfg

    def test_partial_section_keeps_other_defaults(self):
        cfg = parse_config_text("[train]\nepochs = 3\n")
        assert cfg.train.epochs == 3
        assert cfg.train.batch_size == RunConfig().train.batch_size
        assert cfg.model == RunConfig().model

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text("[optimizer]\nlr = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("[train]\nlearning_rate = 1\n")

    def test_unparsable_int_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config_text("[train]\nepochs = soon\n")

    def test_choice_key_rejects_unknown_value(self):
        with pytest.raises(ConfigError, match="not one of"):
            parse_config_text("[model]\nupsampler = cubic\n")

    @pytest.mark.parametrize("raw,expected", [
        ("true", True), ("Yes", True), ("1", True), ("on", True),
        ("false", False), ("No", False), ("0", False), ("off", False)])
    def test_bool_spellings(self, raw, expected):
        cfg = parse_config_text(f"[train]\naugment = {raw}\n")
        assert cfg.train.augment is expected

    def test_bool_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[train]\naugment = maybe\n")

    @pytest.mark.parametrize("text", [
        "[train]\nepochs = 0\n",
        "[train]\nlr = -0.5\n",
        "[train]\nepochs = 2\nwarmup_epochs = 2\n",
        "[model]\nproj_kernel = 4\n",
        "[analysis]\nratio = 1\n",
        "[data]\nnoise_sigma = -1\n",
    ])
    def test_out_of_range_values_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_negative_checkpoint_every_message_names_the_value(self):
        with pytest.raises(ConfigError, match=r"checkpoint_every must be >= 0, got -3$"):
            parse_config_text("[train]\ncheckpoint_every = -3\n")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.ini")

    def test_serialized_text_covers_every_key(self):
        text = serialize_config(RunConfig())
        for section in ("model", "data", "train", "analysis"):
            assert f"[{section}]" in text
            for f in dataclasses.fields(getattr(RunConfig(), section)):
                assert f"{f.name} = " in text


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny CLI training run shared by the eval/viz tests."""
    root = tmp_path_factory.mktemp("cli")
    ini = root / "tiny.ini"
    ini.write_text(TINY_INI)
    out = root / "run"
    code = main(["train", "--config", str(ini), "--out", str(out)])
    assert code == 0
    return {"ini": ini, "out": out, "final": out / "checkpoints" / "final"}


class TestCliGradcheck:
    def test_default_target_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "PASS:" in out and "max relative error" in out

    def test_corrupted_rule_fails_with_exit_1(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[analysis]\ntarget = broken_fixture\n")
        assert main(["gradcheck", "--config", str(ini)]) == 1
        assert "FAIL:" in capsys.readouterr().out

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        code = main(["gradcheck", "--config", str(tmp_path / "absent.ini")])
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        ini = tmp_path / "typo.ini"
        ini.write_text("[model]\ndepht = 2\n")
        assert main(["gradcheck", "--config", str(ini)]) == 2
        assert "unknown key" in capsys.readouterr().err


class TestCliFlops:
    def test_worked_example_row(self, capsys):
        assert main(["flops"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == FLOPS_HEADER
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == "wad"
        assert row[7] == "1605632"
        assert row[7] == row[8], "measured flops must equal analytic"
        assert row[9] == "10240" and row[9] == row[10]

    def test_sweep_ratio_column_is_exactly_4(self, capsys):
        assert main(["flops", "--sweep"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert lines[1].split(",")[-1] == ""
        for line in lines[2:]:
            assert line.split(",")[-1] == "4.0"

    def test_ad_over_memory_budget_warns_on_stderr(self, tmp_path, capsys):
        ini = tmp_path / "ad.ini"
        ini.write_text("[analysis]\nop = ad\nh2 = 32\nw2 = 32\n")
        assert main(["flops", "--config", str(ini)]) == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err and "budget" in captured.err
        assert "warning" not in captured.out

    def test_wad_within_budget_stays_quiet(self, capsys):
        assert main(["flops"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("text", list(GOLDEN_FLOPS), ids=["defaults", "ad_4x6"])
    def test_sweep_stdout_is_golden(self, tmp_path, capsys, text):
        ini = tmp_path / "flops.ini"
        ini.write_text(text)
        assert main(["flops", "--sweep", "--config", str(ini)]) == 0
        assert capsys.readouterr().out == GOLDEN_FLOPS[text]

    def test_window_not_dividing_map_prints_nothing_and_exits_2(self, tmp_path,
                                                                 capsys):
        ini = tmp_path / "w3.ini"
        ini.write_text("[analysis]\nwindow = 3\n")
        for argv in (["flops"], ["flops", "--sweep"]):
            assert main(argv + ["--config", str(ini)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("config error: [analysis] window 3")


class TestCliTrainEval:
    def test_train_writes_metrics_and_checkpoint(self, trained, capsys):
        metrics = (trained["out"] / "metrics.csv").read_text().splitlines()
        assert metrics[0].startswith("epoch,")
        assert len(metrics) == 3
        assert (trained["final"] / "state.txt").is_file()
        assert (trained["final"] / "config.ini").is_file()

    def test_eval_reports_metrics(self, trained, capsys):
        code = main(["eval", "--config", str(trained["ini"]),
                     "--checkpoint", str(trained["final"])])
        assert code == 0
        out = capsys.readouterr().out
        assert "val_dsc = " in out and "val_hd = " in out

    def test_eval_defaults_to_checkpoint_config(self, trained, capsys):
        main(["eval", "--config", str(trained["ini"]),
              "--checkpoint", str(trained["final"])])
        explicit = capsys.readouterr().out
        assert main(["eval", "--checkpoint", str(trained["final"])]) == 0
        assert capsys.readouterr().out == explicit

    @pytest.mark.parametrize("verb", [["eval"], ["export-viz", "--attn"]])
    def test_recovers_checkpoint_stranded_between_renames(self, trained, tmp_path,
                                                          capsys, verb):
        # A save stopped after retiring the old copy and before renaming the new one.
        shutil.copytree(trained["final"], tmp_path / ".final.old")
        ckpt = tmp_path / "final"
        code = main(verb + ["--checkpoint", str(ckpt), "--out", str(tmp_path / "viz")])
        assert code == 0, capsys.readouterr().err
        assert (ckpt / "config.ini").is_file()
        assert not (tmp_path / ".final.old").exists()

    def test_seed_flag_overrides_config(self, tmp_path, trained, capsys):
        out7 = tmp_path / "seed7"
        code = main(["train", "--config", str(trained["ini"]),
                     "--seed", "7", "--out", str(out7)])
        assert code == 0
        capsys.readouterr()
        a = (trained["out"] / "metrics.csv").read_text()
        b = (out7 / "metrics.csv").read_text()
        assert a != b
        saved = (out7 / "checkpoints" / "final" / "config.ini").read_text()
        assert "seed = 7" in saved

    def test_identical_runs_identical_csv_bytes(self, tmp_path, trained,
                                                capsys):
        out2 = tmp_path / "again"
        assert main(["train", "--config", str(trained["ini"]),
                     "--out", str(out2)]) == 0
        capsys.readouterr()
        assert ((trained["out"] / "metrics.csv").read_bytes()
                == (out2 / "metrics.csv").read_bytes())

    def test_untrained_model_scores_near_chance(self, tmp_path):
        # Frozen regression floor: an initialized-but-untrained net on the
        # default validation split must stay well below any trained result.
        cfg = RunConfig()
        run = TrainRun(cfg)
        ckpt = run.save_checkpoint(tmp_path / "untrained")
        metrics = evaluate(cfg, ckpt)
        assert metrics["val_dsc"] < 0.3

    def test_train_rejects_bad_geometry_as_config_error(self, tmp_path,
                                                        capsys):
        ini = tmp_path / "geom.ini"
        ini.write_text(TINY_INI.replace("height = 8", "height = 10"))
        code = main(["train", "--config", str(ini),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("data", "noise_sigma", "nan"), ("train", "lr", "inf"),
        ("analysis", "step", "nan"), ("analysis", "threshold", "inf"),
    ])
    def test_train_rejects_non_finite_float_before_compute(self, tmp_path, capsys,
                                                           section, key, value):
        text = TINY_INI.replace("lr = 0.001\n", "") + "\n[analysis]\n"
        ini = tmp_path / "nonfinite.ini"
        ini.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
        out = tmp_path / "out"
        code = main(["train", "--config", str(ini), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: [{section}] {key}")
        assert not out.exists()

    def test_train_rejects_multichannel_input_before_compute(self, tmp_path, capsys,
                                                            monkeypatch):
        # The generator makes 1-channel images only.
        def no_data(*args, **kwargs):
            raise AssertionError("dataset generated for a rejected config")

        monkeypatch.setattr("wau.toyseg.train.gen_dataset", no_data)
        ini = tmp_path / "rgb.ini"
        ini.write_text(TINY_INI.replace("[model]\n", "[model]\nin_channels = 3\n"))
        out = tmp_path / "out"
        code = main(["train", "--config", str(ini), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: [model] in_channels")
        assert not out.exists()

    def test_resume_from_truncated_state_is_config_error(self, tmp_path, trained,
                                                         capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(trained["final"], ckpt)
        state = ckpt / "state.txt"
        state.write_text(state.read_text()[:40])
        code = main(["train", "--resume", str(ckpt), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err


class TestCliExportViz:
    def test_attention_export(self, trained, tmp_path, capsys):
        viz = tmp_path / "attn"
        code = main(["export-viz", "--checkpoint", str(trained["final"]),
                     "--out", str(viz), "--attn"])
        assert code == 0
        out = capsys.readouterr().out
        files = sorted(viz.glob("*.pgm"))
        assert [f.name for f in files] == ["stage1_attn.pgm"]
        assert "wrote" in out
        assert files[0].read_bytes().startswith(b"P5\n")

    def test_feature_export_one_per_decoder_stage(self, trained, tmp_path,
                                                  capsys):
        viz = tmp_path / "feat"
        code = main(["export-viz", "--checkpoint", str(trained["final"]),
                     "--out", str(viz), "--features"])
        assert code == 0
        assert [f.name for f in sorted(viz.glob("*.pgm"))] == [
            "stage1_features.pgm"]

    def test_exports_are_deterministic(self, trained, tmp_path, capsys):
        first, second = tmp_path / "a", tmp_path / "b"
        for target in (first, second):
            assert main(["export-viz", "--checkpoint", str(trained["final"]),
                         "--out", str(target), "--attn"]) == 0
        capsys.readouterr()
        assert ((first / "stage1_attn.pgm").read_bytes()
                == (second / "stage1_attn.pgm").read_bytes())

    def test_attention_pixels_come_from_row_stochastic_weights(self, trained,
                                                               tmp_path):
        from wau.toyseg.train import build_model_from_config, load_parameters
        from wau.viz import _trace

        cfg = parse_config(trained["final"] / "config.ini")
        model = build_model_from_config(cfg)
        load_parameters(model, trained["final"])
        _, trace = _trace(model, cfg, 0)
        assert trace.get("attention"), "trained WAU net must record attention"
        for rec in trace["attention"]:
            sums = rec.weights.sum(axis=-1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-5)

    def test_all_negative_mask_selects_no_windows(self):
        from wau.viz import positive_window_mean

        weights = np.full((4, 2, 16, 4), 0.25)
        mean = positive_window_mean(weights, (1, 4, 8, 8), ratio=2, window=2,
                                    mask=np.zeros((16, 16), dtype=np.int64))
        assert mean is None

    def test_positive_pixel_selects_the_windows_over_it(self):
        from wau.viz import positive_window_mean

        # (N=2, 2x2 tiles) windows; the mask's tile (1, 0) is positive
        weights = np.random.default_rng(0).random((8, 2, 16, 4))
        mask = np.zeros((16, 16), dtype=np.int64)
        mask[12, 3] = 1
        mean = positive_window_mean(weights, (2, 4, 8, 8), ratio=2, window=2, mask=mask)
        np.testing.assert_array_equal(mean, weights[[2, 6]].mean(axis=(0, 1)))

    def test_no_attention_stages_notice_and_no_files(self, tmp_path, capsys):
        ini = tmp_path / "plain.ini"
        ini.write_text(TINY_INI.replace("upsampler = wau",
                                        "upsampler = bilinear"))
        out = tmp_path / "run"
        assert main(["train", "--config", str(ini), "--out", str(out)]) == 0
        capsys.readouterr()
        viz = tmp_path / "viz"
        code = main(["export-viz", "--checkpoint",
                     str(out / "checkpoints" / "final"),
                     "--out", str(viz), "--attn"])
        assert code == 0
        assert "notice:" in capsys.readouterr().out
        assert list(viz.glob("*.pgm")) == []

    def test_bad_sample_index_is_config_error(self, trained, capsys):
        code = main(["export-viz", "--checkpoint", str(trained["final"]),
                     "--sample", "99", "--out", "unused", "--attn"])
        assert code == 2
        assert "config error:" in capsys.readouterr().err


class TestCliUsage:
    def test_no_verb_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_verb_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_eval_requires_checkpoint_flag(self, capsys):
        assert main(["eval"]) == 2
        capsys.readouterr()

    def test_export_viz_requires_a_mode_flag(self, trained, capsys):
        code = main(["export-viz", "--checkpoint", str(trained["final"])])
        assert code == 2
        capsys.readouterr()
