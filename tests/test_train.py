"""Training loop: bookkeeping, determinism, resumable checkpoints, aborts."""
import re

import numpy as np
import pytest

from wau.config import ConfigError, DataConfig, ModelConfig, RunConfig, TrainConfig
from wau.tensorio import read_tensor, write_tensor
from wau.toyseg.train import (METRICS_HEADER, TrainingAborted, TrainRun,
                              evaluate, load_parameters, train)


def tiny_cfg(**train_kw):
    t = dict(epochs=2, batch_size=2, lr=1e-3, warmup_epochs=1, seed=0)
    t.update(train_kw)
    return RunConfig(
        model=ModelConfig(depth=1, base_channels=4, upsampler="wau", heads=2,
                          window=2),
        data=DataConfig(train_count=4, val_count=2, height=8, width=8, classes=1),
        train=TrainConfig(**t))


class TestBookkeeping:
    def test_one_epoch_row_count_and_steps(self, tmp_path):
        cfg = tiny_cfg(epochs=1, warmup_epochs=0)
        run = train(cfg, tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 2
        epoch, step = lines[1].split(",")[:2]
        assert (epoch, step) == ("1", "2")

    def test_steps_advance_monotonically(self, tmp_path):
        run = train(tiny_cfg(epochs=3), tmp_path)
        steps = [int(r.split(",")[1]) for r in run.history]
        assert steps == sorted(steps) and len(set(steps)) == len(steps)

    def test_partial_final_batch_counted(self, tmp_path):
        cfg = tiny_cfg(epochs=1, batch_size=3, warmup_epochs=0)  # 4 samples -> 2 steps
        run = train(cfg, tmp_path)
        assert run.steps_per_epoch == 2
        assert run.global_step == 2

    def test_metrics_are_finite_and_bounded(self, tmp_path):
        run = train(tiny_cfg(), tmp_path)
        for row in run.history:
            vals = [float(v) for v in row.split(",")[2:]]
            assert all(np.isfinite(vals))
            lr, loss, tdsc, vdsc, vhd = vals
            assert loss >= 0 and 0 <= tdsc <= 1 and 0 <= vdsc <= 1 and vhd >= 0

    def test_empty_dataset_rejected(self):
        cfg = tiny_cfg()
        cfg.data.train_count = 0
        with pytest.raises(ConfigError):
            TrainRun(cfg)

    def test_warmup_must_be_shorter_than_run(self):
        with pytest.raises(ConfigError):
            TrainRun(tiny_cfg(epochs=1, warmup_epochs=1))

    def test_indivisible_geometry_rejected_before_compute(self):
        cfg = tiny_cfg()
        cfg.data.height = 10  # wau at depth 1, window 2 needs divisor 4
        with pytest.raises(ConfigError):
            TrainRun(cfg)


class TestDeterminism:
    def test_identical_runs_bytewise_identical_csv(self, tmp_path):
        train(tiny_cfg(), tmp_path / "a")
        train(tiny_cfg(), tmp_path / "b")
        assert ((tmp_path / "a" / "metrics.csv").read_bytes()
                == (tmp_path / "b" / "metrics.csv").read_bytes())

    def test_different_seed_differs(self, tmp_path):
        train(tiny_cfg(seed=0), tmp_path / "a")
        train(tiny_cfg(seed=1), tmp_path / "b")
        assert ((tmp_path / "a" / "metrics.csv").read_bytes()
                != (tmp_path / "b" / "metrics.csv").read_bytes())

    def test_augment_off_still_deterministic(self, tmp_path):
        train(tiny_cfg(augment=False), tmp_path / "a")
        train(tiny_cfg(augment=False), tmp_path / "b")
        assert ((tmp_path / "a" / "metrics.csv").read_bytes()
                == (tmp_path / "b" / "metrics.csv").read_bytes())


class TestCheckpointResume:
    def test_mid_epoch_resume_bitwise(self, tmp_path):
        cfg = tiny_cfg(epochs=3, checkpoint_every=3)
        train(cfg, tmp_path / "full")
        # step 3 is mid-epoch (2 steps per epoch)
        train(cfg, tmp_path / "resumed",
              resume=tmp_path / "full" / "checkpoints" / "step_3")
        assert ((tmp_path / "full" / "metrics.csv").read_bytes()
                == (tmp_path / "resumed" / "metrics.csv").read_bytes())

    def test_epoch_boundary_resume_bitwise(self, tmp_path):
        cfg = tiny_cfg(epochs=3, checkpoint_every=2)
        train(cfg, tmp_path / "full")
        train(cfg, tmp_path / "resumed",
              resume=tmp_path / "full" / "checkpoints" / "step_4")
        assert ((tmp_path / "full" / "metrics.csv").read_bytes()
                == (tmp_path / "resumed" / "metrics.csv").read_bytes())

    def test_checkpoint_contents(self, tmp_path):
        run = train(tiny_cfg(epochs=1, warmup_epochs=0), tmp_path)
        ckpt = tmp_path / "checkpoints" / "final"
        assert (ckpt / "state.txt").is_file()
        assert (ckpt / "config.ini").is_file()
        assert (ckpt / "history.csv").read_text().splitlines()[0] == METRICS_HEADER
        tensors = ckpt / "tensors"
        names = {p.name for p in tensors.iterdir()}
        for name, _ in run.model.parameters():
            assert f"param__{name}.waut" in names
            assert f"adam_m__{name}.waut" in names
            assert f"adam_v__{name}.waut" in names

    def test_load_checkpoint_restores_scalars(self, tmp_path):
        cfg = tiny_cfg(epochs=2, checkpoint_every=3)
        train(cfg, tmp_path)
        ckpt = tmp_path / "checkpoints" / "step_3"
        restored = TrainRun.load_checkpoint(ckpt)
        assert restored.global_step == 3
        assert restored.batch_pos == 1
        assert restored.epoch == 1
        assert restored.opt.t == 3
        assert restored.perm is not None
        # two loads continue the saved generator stream identically
        again = TrainRun.load_checkpoint(ckpt)
        np.testing.assert_array_equal(restored.rng.integers(0, 100, 4),
                                      again.rng.integers(0, 100, 4))

    def test_not_a_checkpoint_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            TrainRun.load_checkpoint(tmp_path)

    def test_missing_parameter_rejected(self, tmp_path):
        run = train(tiny_cfg(epochs=1, warmup_epochs=0), tmp_path)
        ckpt = tmp_path / "checkpoints" / "final"
        victim = next((ckpt / "tensors").glob("param__*.waut"))
        victim.unlink()
        with pytest.raises(ConfigError):
            load_parameters(run.model, ckpt)

    @pytest.mark.parametrize("victim", ["history.csv", "config.ini",
                                        "tensors/adam_v__head.bias.waut"])
    def test_missing_file_rejected(self, tmp_path, victim):
        train(tiny_cfg(epochs=1, warmup_epochs=0), tmp_path)
        ckpt = tmp_path / "checkpoints" / "final"
        (ckpt / victim).unlink()
        with pytest.raises(ConfigError, match="missing|no "):
            TrainRun.load_checkpoint(ckpt)

    @pytest.mark.parametrize("kind", ["param", "adam_m", "adam_v"])
    def test_same_size_wrong_shape_rejected(self, tmp_path, kind):
        run = train(tiny_cfg(epochs=1, warmup_epochs=0), tmp_path)
        ckpt = tmp_path / "checkpoints" / "final"
        name, p = next((n, p) for n, p in run.model.parameters()
                       if p.ndim == 4 and p.shape[0] != p.shape[1])
        path = ckpt / "tensors" / f"{kind}__{name}.waut"
        c_out, c_in, kh, kw = p.shape
        write_tensor(path, read_tensor(path).reshape(c_in, c_out, kh, kw))
        with pytest.raises(ConfigError, match="stored as"):
            TrainRun.load_checkpoint(ckpt)

    @pytest.mark.parametrize("garble", [
        lambda text: text[:len(text) // 2],
        lambda text: text.replace("epoch = ", "epoch = one"),
        lambda text: text.replace("rng_state = {", "rng_state = {{"),
        lambda text: re.sub(r"perm = (\d+),.*", r"perm = \1", text),
    ], ids=["truncated", "bad_int", "bad_json", "short_perm"])
    def test_garbled_state_rejected(self, tmp_path, garble):
        train(tiny_cfg(epochs=2, checkpoint_every=3), tmp_path)
        state = tmp_path / "checkpoints" / "step_3" / "state.txt"
        text = state.read_text()
        state.write_text(garble(text))
        assert state.read_text() != text
        with pytest.raises(ConfigError):
            TrainRun.load_checkpoint(state.parent)

    def test_evaluate_matches_final_history_row(self, tmp_path):
        cfg = tiny_cfg()
        run = train(cfg, tmp_path)
        metrics = evaluate(cfg, tmp_path / "checkpoints" / "final")
        last = run.history[-1].split(",")
        assert metrics["val_dsc"] == float(last[5])
        assert metrics["val_hd"] == float(last[6])


class TestAborts:
    def test_nan_parameters_abort_with_diagnostic_checkpoint(self, tmp_path):
        cfg = tiny_cfg()
        run = TrainRun(cfg)
        name, p = run.model.parameters()[0]
        p.data[:] = np.nan
        with pytest.raises(TrainingAborted) as exc_info:
            run.run(tmp_path)
        ckpt = exc_info.value.checkpoint
        assert ckpt.is_dir() and (ckpt / "state.txt").is_file()
        assert "diagnostic" in str(ckpt)
