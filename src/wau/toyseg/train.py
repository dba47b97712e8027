"""Deterministic training loop with resumable checkpoints.

Reproducibility contract: a run is a pure function of (config, seed). Data
comes from (seed, index); model init uses stream (seed, 0); shuffling and
augmentation use stream (seed, 1), whose generator state is serialized in
every checkpoint. Resuming a checkpoint therefore continues the exact
trajectory: the final metrics file is byte-identical to an uninterrupted
run's.

A checkpoint is a directory of raw tensor dumps (parameters and Adam
moments) plus plain-text files: optimizer/schedule/generator scalars in
state.txt, the metric rows so far in history.csv, and the config echo in
config.ini so downstream commands need nothing else.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..config import ConfigError, RunConfig, parse_config_text, serialize_config
from ..tensor import NumericsError, Tape, Tensor, tensor
from ..tensorio import read_tensor, write_tensor
from .data import augment, gen_dataset
from .loss import seg_loss
from .metrics import mean_dice, mean_hausdorff
from .model import ToyNet, build_toynet
from .optim import Adam, lr_at

METRICS_HEADER = "epoch,step,lr,loss,train_dsc,val_dsc,val_hd"


class TrainingAborted(RuntimeError):
    """Raised when numerics fail mid-run; carries the diagnostic checkpoint."""

    def __init__(self, message: str, checkpoint: Path):
        super().__init__(message)
        self.checkpoint = checkpoint


def _fmt(x: float) -> str:
    return repr(float(x))


def build_model_from_config(cfg: RunConfig) -> ToyNet:
    m, t = cfg.model, cfg.train
    return build_toynet(
        depth=m.depth, base_channels=m.base_channels, upsampler=m.upsampler,
        classes=cfg.data.classes, window=m.window, heads=m.heads,
        proj_conv=m.proj_conv, proj_groups=m.proj_groups,
        proj_kernel=m.proj_kernel, out_kernel=m.out_kernel,
        in_channels=m.in_channels, seed=t.seed, precision=t.precision)


def _check_geometry(cfg: RunConfig, model: ToyNet) -> None:
    div = model.min_divisor()
    d = cfg.data
    if d.height % div or d.width % div:
        raise ConfigError(
            f"images {d.height}x{d.width} must be divisible by {div} "
            f"(2^depth times the deepest window for attention upsamplers)")


class TrainRun:
    """All mutable state of one training trajectory."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.model = build_model_from_config(cfg)
        _check_geometry(cfg, self.model)
        d, t = cfg.data, cfg.train
        self.train_set = gen_dataset(d.train_count, d.height, d.width, d.classes,
                                     t.seed, d.noise_sigma, start_index=0)
        self.val_set = gen_dataset(d.val_count, d.height, d.width, d.classes,
                                   t.seed, d.noise_sigma, start_index=d.train_count)
        if not self.train_set or not self.val_set:
            raise ConfigError("training needs non-empty train and val splits")
        self.opt = Adam(self.model.parameters())
        self.rng = np.random.default_rng([t.seed, 1])
        self.steps_per_epoch = -(-d.train_count // t.batch_size)
        self.total_steps = t.epochs * self.steps_per_epoch
        self.warmup_steps = t.warmup_epochs * self.steps_per_epoch
        if not 0 <= self.warmup_steps < self.total_steps:
            raise ConfigError(
                f"warmup_epochs {t.warmup_epochs} must be shorter than the "
                f"run ({t.epochs} epochs)")
        self.epoch = 0
        self.batch_pos = 0
        self.global_step = 0
        self.perm: np.ndarray | None = None
        self.loss_sum = 0.0
        self.dsc_sum = 0.0
        self.sample_count = 0
        self.last_lr = 0.0
        self.history: list[str] = []

    # -- batching ------------------------------------------------------------

    def _make_batch(self, indices: np.ndarray) -> tuple[Tensor, np.ndarray]:
        t = self.cfg.train
        images, masks = [], []
        for idx in indices:
            s = self.train_set[int(idx)]
            img, msk = s.image, s.mask
            if t.augment:
                img, msk = augment(img, msk, self.rng)
            images.append(img)
            masks.append(msk)
        x = tensor(np.stack(images), precision=t.precision)
        return x, np.stack(masks)

    def _train_step(self) -> None:
        t = self.cfg.train
        lo = self.batch_pos * t.batch_size
        indices = self.perm[lo:lo + t.batch_size]
        x, masks = self._make_batch(indices)
        lr = lr_at(self.global_step, self.total_steps, self.warmup_steps, t.lr)
        with Tape() as tape:
            logits = self.model.forward(x)
            loss = seg_loss(logits, masks, self.cfg.data.classes)
            tape.backward(loss)
        self.opt.step(lr)
        tape.reset()
        self.last_lr = lr
        self.loss_sum += loss.item()
        preds = logits.data.argmax(axis=1)
        for i in range(masks.shape[0]):
            self.dsc_sum += mean_dice(preds[i], masks[i], self.cfg.data.classes)
            self.sample_count += 1
        self.global_step += 1
        self.batch_pos += 1

    def validate(self) -> tuple[float, float]:
        t = self.cfg.train
        dscs, hds = [], []
        for lo in range(0, len(self.val_set), t.batch_size):
            chunk = self.val_set[lo:lo + t.batch_size]
            x = tensor(np.stack([s.image for s in chunk]), precision=t.precision)
            logits = self.model.forward(x)
            preds = logits.data.argmax(axis=1)
            for i, s in enumerate(chunk):
                dscs.append(mean_dice(preds[i], s.mask, self.cfg.data.classes))
                hds.append(mean_hausdorff(preds[i], s.mask, self.cfg.data.classes))
        return float(np.mean(dscs)), float(np.mean(hds))

    def _finish_epoch(self) -> None:
        val_dsc, val_hd = self.validate()
        mean_loss = self.loss_sum / self.steps_per_epoch
        train_dsc = self.dsc_sum / self.sample_count
        row = (f"{self.epoch + 1},{self.global_step},{_fmt(self.last_lr)},"
               f"{_fmt(mean_loss)},{_fmt(train_dsc)},{_fmt(val_dsc)},{_fmt(val_hd)}")
        self.history.append(row)
        self.epoch += 1
        self.batch_pos = 0
        self.perm = None
        self.loss_sum = 0.0
        self.dsc_sum = 0.0
        self.sample_count = 0

    # -- checkpointing -------------------------------------------------------

    def save_checkpoint(self, ckpt_dir) -> Path:
        ckpt = Path(ckpt_dir)
        tensors = ckpt / "tensors"
        tensors.mkdir(parents=True, exist_ok=True)
        for name, p in self.model.parameters():
            write_tensor(tensors / f"param__{name}.waut", p.data)
            write_tensor(tensors / f"adam_m__{name}.waut", self.opt.m[name])
            write_tensor(tensors / f"adam_v__{name}.waut", self.opt.v[name])
        state = {
            "epoch": self.epoch,
            "batch_pos": self.batch_pos,
            "global_step": self.global_step,
            "adam_t": self.opt.t,
            "loss_sum": _fmt(self.loss_sum),
            "dsc_sum": _fmt(self.dsc_sum),
            "sample_count": self.sample_count,
            "rng_state": json.dumps(self.rng.bit_generator.state),
            "perm": ("" if self.perm is None
                     else ",".join(str(int(i)) for i in self.perm)),
        }
        (ckpt / "state.txt").write_text(
            "".join(f"{k} = {v}\n" for k, v in state.items()))
        (ckpt / "history.csv").write_text(
            "\n".join([METRICS_HEADER] + self.history) + "\n")
        (ckpt / "config.ini").write_text(serialize_config(self.cfg))
        return ckpt

    @classmethod
    def load_checkpoint(cls, ckpt_dir) -> "TrainRun":
        ckpt = Path(ckpt_dir)
        for required in ("state.txt", "config.ini", "history.csv"):
            if not (ckpt / required).is_file():
                raise ConfigError(f"not a checkpoint directory: {ckpt} has no {required}")
        state_file = ckpt / "state.txt"
        cfg = parse_config_text((ckpt / "config.ini").read_text())
        run = cls(cfg)
        state = {}
        for line in state_file.read_text().splitlines():
            key, _, value = line.partition(" = ")
            state[key] = value
        try:
            (run.epoch, run.batch_pos, run.global_step, run.opt.t, run.sample_count) = (
                int(state[k]) for k in
                ("epoch", "batch_pos", "global_step", "adam_t", "sample_count"))
            run.loss_sum, run.dsc_sum = float(state["loss_sum"]), float(state["dsc_sum"])
            run.rng.bit_generator.state = json.loads(state["rng_state"])
            run.perm = (None if state["perm"] == "" else
                        np.array([int(s) for s in state["perm"].split(",")], dtype=np.int64))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{state_file}: missing or malformed entry: {exc!r}") from exc
        if run.perm is not None and not np.array_equal(np.sort(run.perm),
                                                       np.arange(len(run.train_set))):
            raise ConfigError(f"{state_file}: perm is not a permutation of the train set")
        history_lines = (ckpt / "history.csv").read_text().splitlines()
        run.history = history_lines[1:]
        load_parameters(run.model, ckpt)
        for name, _ in run.model.parameters():
            for moments, kind in ((run.opt.m, "adam_m"), (run.opt.v, "adam_v")):
                moments[name] = _read_exact(ckpt / "tensors" / f"{kind}__{name}.waut",
                                            moments[name], f"{kind} {name}")
        return run

    # -- main loop -----------------------------------------------------------

    def _write_metrics(self, out_dir: Path) -> None:
        (out_dir / "metrics.csv").write_text(
            "\n".join([METRICS_HEADER] + self.history) + "\n")

    def run(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        t = self.cfg.train
        while self.epoch < t.epochs:
            if self.perm is None:
                self.perm = self.rng.permutation(len(self.train_set))
            while self.batch_pos < self.steps_per_epoch:
                try:
                    self._train_step()
                except NumericsError as exc:
                    ckpt = self.save_checkpoint(out / "checkpoints" / "diagnostic")
                    raise TrainingAborted(
                        f"numerics failure at step {self.global_step}: {exc}; "
                        f"diagnostic checkpoint at {ckpt}", ckpt) from exc
                epoch_done = self.batch_pos == self.steps_per_epoch
                if epoch_done:
                    self._finish_epoch()
                    self._write_metrics(out)
                if t.checkpoint_every and self.global_step % t.checkpoint_every == 0:
                    self.save_checkpoint(
                        out / "checkpoints" / f"step_{self.global_step}")
                if epoch_done:
                    break
        self._write_metrics(out)
        final = self.save_checkpoint(out / "checkpoints" / "final")
        return final


def train(cfg: RunConfig, out_dir, resume=None) -> TrainRun:
    """Train from scratch, or continue the trajectory stored in `resume`."""
    run = TrainRun.load_checkpoint(resume) if resume else TrainRun(cfg)
    run.run(out_dir)
    return run


def _read_exact(path: Path, like: np.ndarray, what: str) -> np.ndarray:
    """Read a tensor dump whose stored dims must be `like`'s shape padded to rank 4."""
    if not path.is_file():
        raise ConfigError(f"checkpoint is missing {what}")
    arr = read_tensor(path)
    want = (1,) * (4 - like.ndim) + like.shape
    if arr.shape != want:
        raise ConfigError(
            f"checkpoint {what} is stored as {arr.shape}, model wants {like.shape}")
    return arr.reshape(like.shape).astype(like.dtype, copy=False)


def load_parameters(model: ToyNet, ckpt_dir) -> None:
    tensors = Path(ckpt_dir) / "tensors"
    for name, p in model.parameters():
        p.data = _read_exact(tensors / f"param__{name}.waut", p.data, f"parameter {name}")


def evaluate(cfg: RunConfig, ckpt_dir) -> dict[str, float]:
    """Validation metrics of the checkpointed model under `cfg`'s data."""
    run = TrainRun(cfg)
    load_parameters(run.model, ckpt_dir)
    dsc, hd = run.validate()
    return {"val_dsc": dsc, "val_hd": hd}
