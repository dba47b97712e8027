"""Metric names and units, shared by run.py and its test.

BENCHMARK.json lists the same names; test_quick.py checks that they agree.
"""

UPSAMPLERS = ("wau", "bilinear", "transposed")
BWD_OPS = ("conv2d", "bilinear_upsample", "softmax_rows", "matmul", "scale", "layer_norm",
           "maxpool2", "reshape", "permute", "window_partition", "window_merge", "relu",
           "add", "log_softmax_rows")
# analysis._FLOP_TAGS, plus "other" for the untagged encoder and head convolutions.
MAC_TAGS = ("proj_q", "proj_k", "proj_v", "attn_scores", "attn_apply", "out_conv", "other")

END_TO_END = (
    [(f"train_samples_per_s.{u}", "1/s") for u in UPSAMPLERS]
    + [(f"infer_samples_per_s.{u}", "1/s") for u in UPSAMPLERS]
    + [("metric_pairs_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
)
PER_LAYER = (
    [(f"train.step_ms_p50.{u}", "ms") for u in UPSAMPLERS]
    + [(f"train.step_ms_tail.{u}", "ms") for u in UPSAMPLERS]
    + [("train.unaccounted_ms.wau", "ms")]
    + [(f"model.forward_ms.{u}", "ms") for u in UPSAMPLERS]
    + [("loss.seg_loss_ms", "ms"), ("optim.adam_step_ms", "ms"), ("tensor.reset_ms", "ms"),
       ("data.augment_ms", "ms")]
    + [(f"tensor.backward_ms.{u}", "ms") for u in UPSAMPLERS]
    + [(f"tensor.writeback_self_ms.{u}", "ms") for u in UPSAMPLERS]
    + [(f"tensor.bwd_op_ms.{op}", "ms") for op in BWD_OPS]
    + [("tensor.bwd_op_ms.other", "ms"), ("tensor.bwd_op_ms.transposed_conv_upsample", "ms")]
    + [(f"tensor.nodes_per_step.{u}", "count") for u in UPSAMPLERS]
    + [("tensor.useful_grad_ratio", "ratio")]
    + [("conv.conv2d_fwd_ms", "ms"), ("conv.bilinear_fwd_ms", "ms"),
       ("conv.transposed_fwd_ms", "ms"), ("conv.maxpool_fwd_ms", "ms"), ("windows.fwd_ms", "ms"),
       ("attention.project_qkv_ms", "ms"), ("attention.wad_forward_ms", "ms")]
    + [(f"stage.forward_ms.{u}", "ms") for u in UPSAMPLERS]
    + [(f"macs.{tag}", "count") for tag in MAC_TAGS]
    + [("metering.peak_elems", "count")]
    + [("mem.fwd_peak_mb", "MB"), ("mem.bwd_peak_mb", "MB"), ("mem.live_after_fwd_mb", "MB")]
    + [("metrics.dice_ms", "ms"), ("metrics.hausdorff_ms", "ms"),
       ("metrics.fg_pixels_per_pair", "count")]
    + [("ckpt.save_ms", "ms"), ("ckpt.load_ms", "ms"), ("ckpt.bytes", "bytes")]
    + [("env.calib_ms", "ms")]
    + [(f"trace.overhead_pct.{kind}.{u}", "%") for kind in ("train", "infer") for u in UPSAMPLERS]
    + [("trace.overhead_pct.pair", "%")]
)
