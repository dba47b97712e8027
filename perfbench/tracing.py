"""Span tracing of the program's layers, installed from outside the program.

The tracer replaces public entry points at the sites the program looks them
up (a module global or a class attribute) with thin timing wrappers, and
puts everything back when the `installed()` block ends. Nothing under `src/`
changes. The public `tensor.record` hook is wrapped too: every backward
closure a forward op registers is timed under `bwd.<op>`, with the forward
span that recorded it kept as its origin.

A span is (name, start, end, parent, step, origin): `parent` is the span
open when it began, `step` the benchmark operation it belongs to, `origin`
the recording forward span for backward closures (-1 otherwise). Spans stay
in memory and are written out once, at the end of the run.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from pathlib import Path

# (module, class or None, attribute, span name). Module-level entries are the
# import sites the program's own callers resolve at call time.
ENTRY_POINTS = (
    ("wau.toyseg.model", "ToyNet", "forward", "model.forward"),
    ("wau.toyseg.train", None, "seg_loss", "loss.seg_loss"),
    ("wau.tensor", "Tape", "reset", "tensor.reset"),
    ("wau.toyseg.optim", "Adam", "step", "optim.adam_step"),
    ("wau.conv", None, "conv2d", "conv.conv2d"),
    ("wau.conv", None, "transposed_conv_upsample", "conv.transposed"),
    ("wau.stage", None, "bilinear_upsample", "conv.bilinear"),
    ("wau.toyseg.model", None, "maxpool2", "conv.maxpool"),
    ("wau.attention", None, "partition", "windows.partition"),
    ("wau.attention", None, "paired_partition", "windows.paired_partition"),
    ("wau.attention", None, "merge", "windows.merge"),
    ("wau.attention", "AttentionDecoder", "project_qkv", "attention.project_qkv"),
    ("wau.attention", "AttentionDecoder", "wad_forward", "attention.wad_forward"),
    ("wau.stage", "WauStage", "forward", "stage.forward"),
    ("wau.stage", "BilinearStage", "forward", "stage.forward"),
    ("wau.stage", "TransposedStage", "forward", "stage.forward"),
    ("wau.toyseg.train", None, "mean_dice", "metrics.mean_dice"),
    ("wau.toyseg.train", None, "mean_hausdorff", "metrics.mean_hausdorff"),
    ("wau.toyseg.metrics", None, "mean_dice", "metrics.mean_dice"),
    ("wau.toyseg.metrics", None, "mean_hausdorff", "metrics.mean_hausdorff"),
    ("wau.toyseg.train", None, "augment", "data.augment"),
    ("wau.toyseg.train", "TrainRun", "save_checkpoint", "train.save_checkpoint"),
    ("wau.toyseg.train", "TrainRun", "load_checkpoint", "train.load_checkpoint"),
)

# Modules that import `record` by name from wau.tensor.
RECORD_SITES = ("wau.tensor", "wau.conv", "wau.windows", "wau.analysis")


class Tracer:
    """In-memory span log plus per-backward gradient accounting."""

    def __init__(self):
        self.spans: list[list] = []
        self.steps: list[tuple[str, str]] = []   # (kind, upsampler) per step id
        self.step_counts: dict[int, dict[str, int]] = {}
        self._open: list[int] = []
        self._step = -1
        self._recorded: list[tuple] = []          # (out, inputs) since step start
        self._patches = self._build_patches()

    # -- spans ---------------------------------------------------------------

    def new_step(self, kind: str, upsampler: str) -> int:
        self.steps.append((kind, upsampler))
        self._step = len(self.steps) - 1
        self._recorded.clear()
        return self._step

    def begin(self, name: str, origin: int = -1) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._step, origin])
        self._open.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)
        return traced

    # -- the record hook and the backward pass -------------------------------

    def _wrap_record(self, record):
        @functools.wraps(record)
        def traced_record(name, inputs, out, fn):
            origin = self._open[-1] if self._open else -1
            op = "bwd." + name

            def timed(g, acc):
                sid = self.begin(op, origin)
                try:
                    fn(g, acc)
                finally:
                    self.end(sid)

            self._recorded.append((out, tuple(inputs)))
            record(name, inputs, out, timed)
        return traced_record

    def _wrap_backward(self, backward):
        @functools.wraps(backward)
        def traced_backward(tape, loss):
            sid = self.begin("tensor.backward")
            try:
                backward(tape, loss)
            finally:
                self.end(sid)
            self._count_gradients(len(tape), loss)
        return traced_backward

    def _count_gradients(self, nodes: int, loss) -> None:
        """Elements the backward pass writes back, split into leaves and the rest.

        A tape node exists for every recorded op with an input that requires
        a gradient; each such input receives one, as does the loss. Leaves
        are the tensors no node produced.
        """
        receivers = {id(loss): loss.size}
        produced = set()
        for out, inputs in self._recorded:
            if not any(t.requires_grad for t in inputs):
                continue
            produced.add(id(out))
            for t in inputs:
                if t.requires_grad:
                    receivers[id(t)] = t.size
        leaf = sum(n for key, n in receivers.items() if key not in produced)
        self.step_counts[self._step] = {
            "nodes": nodes, "leaf_elems": leaf, "grad_elems": sum(receivers.values())}
        self._recorded.clear()

    # -- installation --------------------------------------------------------

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, replacement) for every traced site."""
        patches = []
        for module_name, cls_name, attr, span in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if cls_name is None else getattr(module, cls_name)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(span, original.__func__))
            else:
                replacement = self._wrap(span, original)
            patches.append((owner, attr, original, replacement))
        tape_cls = importlib.import_module("wau.tensor").Tape
        original = tape_cls.__dict__["backward"]
        patches.append((tape_cls, "backward", original, self._wrap_backward(original)))
        record = importlib.import_module("wau.tensor").record
        traced_record = self._wrap_record(record)
        for module_name in RECORD_SITES:
            module = importlib.import_module(module_name)
            if module.__dict__.get("record") is not record:
                raise RuntimeError(f"{module_name}.record is not wau.tensor.record")
            patches.append((module, "record", record, traced_record))
        return patches

    @contextmanager
    def installed(self):
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def step_totals(self) -> list[dict[str, float]]:
        """Per step id: summed span seconds by name, plus `bwd.*` in total."""
        totals: list[dict[str, float]] = [{} for _ in self.steps]
        for name, start, end, _, step, _ in self.spans:
            if step < 0:
                continue
            t = totals[step]
            t[name] = t.get(name, 0.0) + (end - start)
            if name.startswith("bwd."):
                t["bwd.*"] = t.get("bwd.*", 0.0) + (end - start)
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write("id,name,start_s,end_s,parent,step,kind,upsampler,origin\n")
            for sid, (name, start, end, parent, step, origin) in enumerate(self.spans):
                kind, ups = self.steps[step] if step >= 0 else ("", "")
                f.write(f"{sid},{name},{start!r},{end!r},{parent},{step},{kind},{ups},{origin}\n")
