"""Training loop: bookkeeping, determinism, resumable checkpoints, aborts."""
import hashlib
import re
import struct
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import wau.tensor
from wau.config import (ConfigError, DataConfig, ModelConfig, RunConfig, TrainConfig,
                        parse_config)
from wau.tensor import Tape, tensor
from wau.tensorio import read_tensor, write_tensor
from wau.toyseg.data import gen_dataset
from wau.toyseg import train as train_module
from wau.toyseg.loss import seg_loss
from wau.toyseg.train import (METRICS_HEADER, TrainingAborted, TrainRun,
                              build_model_from_config, evaluate, load_parameters, train)


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

    def test_labels_stay_in_the_mask_dtype(self, monkeypatch):
        # Masks, batches and predictions reach the metrics as uint8.
        seen = []

        def logged(metric):
            def wrapper(pred, target, classes):
                seen.append((pred.dtype, target.dtype))
                return metric(pred, target, classes)
            return wrapper

        for name in ("mean_dice", "mean_hausdorff"):
            monkeypatch.setattr(train_module, name, logged(getattr(train_module, name)))
        run = TrainRun(tiny_cfg())
        run.perm = run.rng.permutation(run.cfg.data.train_count)
        assert run._make_batch(run.perm[:2])[1].dtype == np.uint8
        run._train_step()
        run.validate()
        assert len(seen) == 2 + 2 * 2
        assert set(seen) == {(np.dtype(np.uint8), np.dtype(np.uint8))}

    def test_warmup_must_be_shorter_than_run(self):
        with pytest.raises(ConfigError):
            TrainRun(tiny_cfg(epochs=1, warmup_epochs=1))

    def test_indivisible_geometry_rejected_before_compute(self):
        cfg = tiny_cfg()
        cfg.data.height = 10  # wau at depth 1, window 2 needs divisor 4
        with pytest.raises(ConfigError):
            TrainRun(cfg)


def reference_step(upsampler: str = "wau"):
    """The reference net (`configs/acceptance.ini`) with `upsampler`, and
    its first batch as (images, masks)."""
    cfg = parse_config(Path(__file__).parents[1] / "configs" / "acceptance.ini")
    cfg.model.upsampler = upsampler
    d = cfg.data
    samples = gen_dataset(cfg.train.batch_size, d.height, d.width, d.classes, cfg.train.seed)
    x = tensor(np.stack([s.image for s in samples]), precision=cfg.train.precision)
    return build_model_from_config(cfg), x, np.stack([s.mask for s in samples])


@pytest.mark.parametrize("upsampler", ["bilinear", "transposed", "wad_only", "wau"])
def test_batch_logits_are_bitwise_the_per_item_logits(upsampler):
    # Tape-free: a sample's logits do not depend on what else is in its batch.
    model, x, _ = reference_step(upsampler)
    batch = model.forward(x).data
    for i in range(x.shape[0]):
        assert batch[i:i + 1].tobytes() == model.forward(tensor(x.data[i:i + 1])).data.tobytes()


def test_reference_train_step_records_39_tape_nodes():
    # The README quotes this count and the benchmark reports it as
    # tensor.nodes_per_step.wau: 38 nodes for the net, 1 for the loss.
    model, x, masks = reference_step()
    with Tape() as tape:
        logits = model.forward(x)
        model_nodes = len(tape)
        seg_loss(logits, masks, model.classes)
    assert (model.upsampler, model_nodes, len(tape)) == ("wau", 38, 39)


def test_reference_transposed_step_records_14_tape_nodes():
    # tensor.nodes_per_step.transposed: 10 encoder nodes, one node per
    # transposed stage, the head conv and the loss.
    model, x, masks = reference_step("transposed")
    with Tape() as tape:
        seg_loss(model.forward(x), masks, model.classes)
    names = [node.name for node in tape._nodes]
    assert len(names) == 14 and names.count("transposed_conv_upsample") == 2


# Tape ops of each upsampler that only re-lay values already checked.
RELAYOUTS = {"wau": {"window_partition", "window_merge"}, "bilinear": set(),
             "transposed": set()}


@pytest.mark.parametrize("upsampler", sorted(RELAYOUTS))
def test_every_computed_node_checks_its_output(upsampler, monkeypatch):
    # Every node of a taped step checks its output for finite values under
    # its own tape name, but for the re-layouts.
    checked = Counter()
    check = wau.tensor._check_finite

    def logged(arr, op, role="output"):
        checked[op] += 1
        check(arr, op, role)

    # Every module holding the checker: an op module that imported it by
    # name would bypass a patch of wau.tensor alone.
    for name, module in list(sys.modules.items()):
        if name.startswith("wau") and vars(module).get("_check_finite") is check:
            monkeypatch.setattr(module, "_check_finite", logged)
    model, x, masks = reference_step(upsampler)
    with Tape() as tape:
        loss = seg_loss(model.forward(x), masks, model.classes)
        tape.backward(loss)
    assert set(Counter(node.name for node in tape._nodes) - checked) == RELAYOUTS[upsampler]


# The first 12 steps of the reference run (`configs/acceptance.ini`) for each
# upsampler: sha256 of every parameter, first and second Adam moment (each
# kind hashed in parameter order), and each step's loss. A change that
# claims to leave training bitwise intact must keep these; one that does
# not must say why and update them.
TRAJECTORY = {
    "wau": (
        "1ee6d98a2d39d1006696ad0ebe34076c79bd34ba7d758327f62a1aaf850a3c4e",
        "4674b936cfe6081ddf3aa808b62c58202c628c9bdcdf3602a07aca6762f05197",
        "adad568a2e941ee6ba27e8c566c0c659a1a93f6f84c4a85a638e8b6c91c84544",
        [1.6350699663162231, 1.5626490116119385, 1.6245752573013306, 1.499746322631836,
         1.5940768718719482, 1.6163403987884521, 1.5926536321640015, 1.6172391176223755,
         1.5467917919158936, 1.5258225202560425, 1.5862171649932861, 1.565333366394043]),
    "bilinear": (
        "0398f47ffff1281ab89e144e2caf57cfb79b7cf6a47f19f60b6a2584e294f33d",
        "1eec6c9874d8ddce4671838390dc3d7abf9307fe3bebb1bffc73e31b32a4c659",
        "1b7ad1a314ad3c28cca5b05624ac3e680858553baa964134d47049f089842154",
        [1.548892855644226, 1.4860647916793823, 1.536564826965332, 1.4421645402908325,
         1.5136340856552124, 1.5397274494171143, 1.5142186880111694, 1.5376163721084595,
         1.4791358709335327, 1.4700443744659424, 1.518090844154358, 1.502761960029602]),
    "transposed": (
        "ec8ac9fac0a000fec2c653f0779871dd2d86d9c79094ae5361446f8541ba0ca4",
        "ba10f4e3e5a9e9b7aeb39053898bd73e4118ea51c7a8dd687952aad1fa39b98e",
        "2888213bfdb8f5296e50689db220bef33bb07e9e6033e6bdd1808b40537ab74d",
        [1.5482301712036133, 1.4854093790054321, 1.535922884941101, 1.4416894912719727,
         1.5129681825637817, 1.5390291213989258, 1.5136072635650635, 1.5369197130203247,
         1.478661060333252, 1.4694368839263916, 1.5175410509109497, 1.5022118091583252]),
}


@pytest.mark.parametrize("upsampler", sorted(TRAJECTORY))
def test_reference_trajectory_is_pinned(upsampler, monkeypatch):
    cfg = parse_config(Path(__file__).parents[1] / "configs" / "acceptance.ini")
    cfg.model.upsampler = upsampler
    run = TrainRun(cfg)
    losses = []

    def logged(*args):
        loss = seg_loss(*args)
        losses.append(loss.item())
        return loss

    monkeypatch.setattr(train_module, "seg_loss", logged)
    run.perm = run.rng.permutation(len(run.train_set))
    for _ in range(12):
        run._train_step()
    names = [n for n, _ in run.model.parameters()]
    digests = []
    for arrays in ([p.data for _, p in run.model.parameters()],
                   [run.opt.m[n] for n in names], [run.opt.v[n] for n in names]):
        h = hashlib.sha256()
        for a in arrays:
            h.update(a.tobytes())
        digests.append(h.hexdigest())
    assert (*digests, losses) == TRAJECTORY[upsampler]


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

    def test_failed_save_leaves_previous_checkpoint(self, tmp_path, monkeypatch):
        run = TrainRun(tiny_cfg())
        ckpt = run.save_checkpoint(tmp_path / "final")
        before = {p.relative_to(ckpt): p.read_bytes()
                  for p in ckpt.rglob("*") if p.is_file()}
        for _, p in run.model.parameters():
            p.data = p.data + 1.0
        calls = []

        def failing_write(path, arr):
            calls.append(path)
            if len(calls) == 4:
                raise OSError("disk full")
            write_tensor(path, arr)

        monkeypatch.setattr("wau.toyseg.train.write_tensor", failing_write)
        with pytest.raises(OSError):
            run.save_checkpoint(ckpt)
        after = {p.relative_to(ckpt): p.read_bytes()
                 for p in ckpt.rglob("*") if p.is_file()}
        assert after == before
        TrainRun.load_checkpoint(ckpt)

    def test_crash_between_renames_recovers_on_load(self, tmp_path, monkeypatch):
        run = TrainRun(tiny_cfg())
        ckpt = run.save_checkpoint(tmp_path / "final")
        before = {p.relative_to(ckpt): p.read_bytes()
                  for p in ckpt.rglob("*") if p.is_file()}
        for _, p in run.model.parameters():
            p.data = p.data + 1.0
        rename = Path.rename

        def crash_before_swap(self, target):
            if self.name == ".final.tmp":
                raise OSError("power cut")
            return rename(self, target)

        monkeypatch.setattr(Path, "rename", crash_before_swap)
        with pytest.raises(OSError):
            run.save_checkpoint(ckpt)
        monkeypatch.undo()
        assert not ckpt.exists() and (tmp_path / ".final.old").is_dir()
        TrainRun.load_checkpoint(ckpt)
        after = {p.relative_to(ckpt): p.read_bytes()
                 for p in ckpt.rglob("*") if p.is_file()}
        assert after == before
        assert not (tmp_path / ".final.old").exists()

    def test_resave_replaces_checkpoint_and_cleans_up(self, tmp_path):
        run = TrainRun(tiny_cfg())
        run.save_checkpoint(tmp_path / "final")
        (tmp_path / "final" / "stale.txt").write_text("from an older save")
        for _, p in run.model.parameters():
            p.data = p.data + 1.0
        ckpt = run.save_checkpoint(tmp_path / "final")
        assert [p.name for p in tmp_path.iterdir()] == ["final"]
        assert not (ckpt / "stale.txt").exists()
        restored = TrainRun.load_checkpoint(ckpt)
        for (_, a), (_, b) in zip(restored.model.parameters(), run.model.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

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

    @pytest.mark.parametrize("kind", ["param", "adam_m", "adam_v"])
    def test_vector_stored_with_extra_axis_rejected(self, tmp_path, kind):
        train(tiny_cfg(epochs=1, warmup_epochs=0), tmp_path)
        path = tmp_path / "checkpoints" / "final" / "tensors" / f"{kind}__head.bias.waut"
        bias = read_tensor(path)
        write_tensor(path, bias.reshape(1, -1))
        with pytest.raises(ConfigError, match="stored as"):
            TrainRun.load_checkpoint(path.parent.parent)

    def test_version_1_checkpoint_still_loads(self, tmp_path):
        run = train(tiny_cfg(epochs=1, warmup_epochs=0), tmp_path)
        ckpt = tmp_path / "checkpoints" / "final"
        for path in (ckpt / "tensors").glob("*.waut"):
            arr = read_tensor(path)
            dims = (1,) * (4 - arr.ndim) + arr.shape
            code = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}[arr.dtype]
            path.write_bytes(b"WAUT" + struct.pack("<BB4I", 1, code, *dims)
                             + arr.astype(arr.dtype.newbyteorder("<")).tobytes())
        back = TrainRun.load_checkpoint(ckpt)
        for (name, p), (_, q) in zip(run.model.parameters(), back.model.parameters()):
            assert q.shape == p.shape
            np.testing.assert_array_equal(q.data, p.data)
            np.testing.assert_array_equal(back.opt.m[name], run.opt.m[name])

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

    def test_splits_are_built_only_when_read(self, tmp_path, monkeypatch):
        # A load builds no split and `evaluate` only the val split (its
        # samples start at train_count); resuming builds the train split.
        cfg = tiny_cfg(checkpoint_every=2)
        train(cfg, tmp_path / "run")
        starts = []

        def logged(*args, start_index):
            starts.append(start_index)
            return gen_dataset(*args, start_index=start_index)

        monkeypatch.setattr(train_module, "gen_dataset", logged)
        ckpt = tmp_path / "run" / "checkpoints" / "step_2"
        TrainRun.load_checkpoint(tmp_path / "run" / "checkpoints" / "final")
        assert starts == []
        evaluate(cfg, ckpt)
        assert starts == [cfg.data.train_count]
        train(cfg, tmp_path / "resumed", resume=ckpt)
        assert sorted(starts[1:]) == [0, cfg.data.train_count]
        assert ((tmp_path / "resumed" / "metrics.csv").read_bytes()
                == (tmp_path / "run" / "metrics.csv").read_bytes())

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
