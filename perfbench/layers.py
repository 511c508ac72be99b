"""Per-layer metrics from a traced phase, plus FLOP counts and a matmul probe.

Layers are bpnet's modules.  `physio` has no caller in the pipeline, so no
workload reaches it and it has no metrics.  A layer that a workload does not
exercise reports 0 (no calls, no time).

Conventions: ``*_s`` is a total per pass (median over passes), ``*_ms`` a
median per call, counts are per pass, ratios are over the whole traced phase.
FLOP counts are computed from the shapes and cover matrix products only.
"""

from __future__ import annotations

import time

import numpy as np

from bpnet.model import DENSE_UNITS as DENSE
from bpnet.model import HIDDEN_UNITS as HIDDEN
from bpnet.model import OUTPUT_DIM as OUT
from bpnet.segmentation import FEATURE_DIM
from spans import END, EXTRA, NAME, PARENT, START, TRACED, Tracer, median, wrapper_cost_s


def _mm(rows: int, k: int, n: int) -> int:
    return 2 * rows * k * n


def step_flops(batch: int, m: int) -> dict[str, float]:
    """Matrix-product FLOPs of one training step (forward and backward) at (batch, M)."""
    r = batch * m
    lstm = {
        "fw": _mm(r, DENSE, 4 * HIDDEN) + _mm(r, HIDDEN, 4 * HIDDEN),
        "bw": _mm(r, DENSE, 4 * HIDDEN) + _mm(r, HIDDEN, 4 * HIDDEN),
        "lstm2": _mm(r, 2 * HIDDEN, 4 * HIDDEN) + _mm(r, HIDDEN, 4 * HIDDEN),
    }
    dense_head = _mm(r, FEATURE_DIM, DENSE) + _mm(r, HIDDEN, OUT)
    # Backward adds input and weight gradients for every LSTM product and the
    # head (2x forward); the dense layer needs only its weight gradient.
    out = {f"lstm.{k}": 3 * v for k, v in lstm.items()}
    out["total"] = sum(out.values()) + 2 * dense_head + _mm(r, HIDDEN, OUT)
    return out


def matmul_probe(batch: int, m: int, seconds: float = 0.4) -> float:
    """GFLOP/s of float64 matrix products at the step's forward shapes."""
    rng = np.random.default_rng(0)
    r = batch * m
    shapes = [(r, FEATURE_DIM, DENSE), (r, DENSE, 4 * HIDDEN), (r, DENSE, 4 * HIDDEN),
              (r, 2 * HIDDEN, 4 * HIDDEN)] + [(batch, HIDDEN, 4 * HIDDEN)] * (3 * m)
    pairs = [(rng.standard_normal((a, k)), rng.standard_normal((k, n))) for a, k, n in shapes]
    flops = sum(_mm(*s) for s in shapes)
    for a, b in pairs:  # warm-up
        a @ b
    rates = []
    end = time.perf_counter() + seconds
    while len(rates) < 5 or time.perf_counter() < end:
        t0 = time.perf_counter()
        for a, b in pairs:
            a @ b
        rates.append(flops / (time.perf_counter() - t0) / 1e9)
    return median(rates)


def per_layer(tracer: Tracer) -> tuple[dict[str, float], dict]:
    spans = tracer.spans
    kids = tracer.children()
    self_t = tracer.self_times(kids)
    roots = tracer.root_of()
    dur = [s[END] - s[START] for s in spans]
    passes = [i for i, s in enumerate(spans) if s[NAME] == "bench.pass"]
    ops = [i for i, s in enumerate(spans) if s[NAME] == "bench.op"]
    kind = {i: spans[i][NAME] for i in passes + ops}

    def in_roots(name: str, root_kind: str):
        return [i for i, s in enumerate(spans) if s[NAME] == name and kind.get(roots[i]) == root_kind]

    def per_pass(values_by_span: dict[int, float]) -> float:
        sums = {p: 0.0 for p in passes}
        for i, v in values_by_span.items():
            if roots[i] in sums:
                sums[roots[i]] += v
        return median(list(sums.values()))

    def pass_sum(name: str) -> float:
        return per_pass({i: dur[i] for i in in_roots(name, "bench.pass")})

    def pass_count(name: str, pred=lambda i: True) -> float:
        return per_pass({i: 1.0 for i in in_roots(name, "bench.pass") if pred(i)})

    def call_ms(name: str, root_kind=None, pred=lambda i: True) -> float:
        idx = [i for i, s in enumerate(spans) if s[NAME] == name and kind.get(roots[i]) is not None
               and (root_kind is None or kind[roots[i]] == root_kind) and pred(i)]
        return 1e3 * median([dur[i] for i in idx])

    def extra(i, key, default=None):
        e = spans[i][EXTRA]
        return e.get(key, default) if isinstance(e, dict) else default

    m: dict[str, float] = {}
    for stage in ("ingest", "preprocess", "segment", "train", "eval", "track"):
        m[f"pipeline.{stage}_s"] = pass_sum(f"stage_{stage}")

    m["recordio.read_csv_s"] = pass_sum("read_csv_record")
    m["recordio.read_wfdb_s"] = pass_sum("read_wfdb_record")
    m["recordio.samples_read"] = per_pass(
        {i: extra(i, "samples", 0) for n in ("read_csv_record", "read_wfdb_record") for i in in_roots(n, "bench.pass")}
    )

    m["tqwt.decompose_ms"] = call_ms("decompose")
    m["tqwt.reconstruct_ms"] = call_ms("reconstruct")
    m["tqwt.calls"] = pass_count("decompose") + pass_count("reconstruct")

    m["preprocess.spectrum_peak_ms"] = call_ms("spectrum_peak")
    m["preprocess.denoise_ms"] = call_ms("rigrsure_soft_denoise")
    stage_pre = set(in_roots("stage_preprocess", "bench.pass"))

    def under_stage_pre(i):
        while i >= 0:
            if i in stage_pre:
                return True
            i = spans[i][PARENT]
        return False

    windows = [i for i in in_roots("preprocess_signal", "bench.pass") if spans[i][PARENT] in stage_pre]
    peaks = [i for i in in_roots("spectrum_peak", "bench.pass") if under_stage_pre(i)]
    m["preprocess.spectrum_peak_calls_per_window"] = len(peaks) / len(windows) if windows else 0.0
    # The stage visits ECG then PPG in every window; its direct peak calls
    # alternate in that order.
    for ch, parity in (("ecg", 0), ("ppg", 1)):
        direct = []
        for p in stage_pre:
            calls = [k for k in kids[p] if spans[k][NAME] == "spectrum_peak"]
            direct += calls[parity::2]
        fell_back = sum(1 for i in direct if extra(i, "found") is False)
        m[f"preprocess.q_fallback_ratio.{ch}"] = fell_back / len(direct) if direct else 0.0

    m["segmentation.build_sequences_s"] = pass_sum("build_sequences")
    m["segmentation.split_s"] = pass_sum("split_and_standardize")
    m["segmentation.save_dataset_s"] = pass_sum("save_dataset")
    m["segmentation.load_dataset_s"] = pass_sum("load_dataset")
    m["segmentation.sequences_kept"] = per_pass(
        {i: extra(i, "sequences", 0) for i in in_roots("build_sequences", "bench.pass")}
    )
    m["segmentation.windows_dropped"] = pass_count("build_sequences", lambda i: extra(i, "raised") is not None)

    # Model: the op loop's training steps at B=32.
    m["model.forward_ms"] = call_ms("forward_batch", "bench.op")
    m["model.backward_ms"] = call_ms("backward_batch", "bench.op")
    for layer in ("fw", "bw", "lstm2"):
        m[f"model.lstm_forward_ms.{layer}"] = call_ms("lstm_forward", "bench.op", lambda i: extra(i, "layer") == layer)
        m[f"model.lstm_backward_ms.{layer}"] = call_ms("lstm_backward", "bench.op", lambda i: extra(i, "layer") == layer)
    dense_head = {}
    for i in in_roots("forward_batch", "bench.op") + in_roots("backward_batch", "bench.op"):
        dense_head[roots[i]] = dense_head.get(roots[i], 0.0) + self_t[i]
    m["model.dense_head_self_ms"] = 1e3 * median(list(dense_head.values()))
    m["model.clip_ms"] = call_ms("clip_gradient_norm", "bench.op")
    m["model.adam_ms"] = call_ms("adam_step", "bench.op")

    # Validation forwards: train()'s forward_batch calls not followed by backward.
    validation = {}
    for t in in_roots("train", "bench.pass"):
        children = kids[t]
        for pos, k in enumerate(children):
            nxt = spans[children[pos + 1]][NAME] if pos + 1 < len(children) else None
            if spans[k][NAME] == "forward_batch" and nxt != "backward_batch":
                validation[k] = dur[k]
    m["model.validation_s"] = per_pass(validation)
    clips = [i for i, s in enumerate(spans) if s[NAME] == "clip_gradient_norm" and roots[i] in kind]
    m["model.clip_fraction"] = (
        sum(1 for i in clips if extra(i, "clipped")) / len(clips) if clips else 0.0
    )

    m["evaluate.assemble_report_ms"] = call_ms("assemble_report")
    m["evaluate.tracking_export_ms"] = call_ms("tracking_export")

    def coverage(root_ids):
        return median([1.0 - self_t[r] / dur[r] for r in root_ids if dur[r] > 0])

    m["trace.coverage_pass"] = coverage(passes)
    m["trace.coverage_op"] = coverage(ops)
    # Traced-minus-untraced timings are noisy here; this estimate is the
    # calibrated cost of one wrapper times the spans recorded.
    traced_s = sum(dur[r] for r in passes + ops)
    in_phase = sum(1 for i in range(len(spans)) if roots[i] in kind)
    m["trace.overhead_estimate"] = in_phase * wrapper_cost_s() / traced_s

    # Self time per module over the traced phase, for the printed breakdown.
    module_of = {qual: mod.split(".")[-1] for mod, qual in TRACED}
    self_by_module: dict[str, float] = {}
    for i, s in enumerate(spans):
        if roots[i] not in kind:
            continue
        mod = module_of.get(s[NAME], "bench")
        self_by_module[mod] = self_by_module.get(mod, 0.0) + self_t[i]
    breakdown = {
        "traced_s": traced_s,
        "self_s_by_module": dict(sorted(self_by_module.items(), key=lambda kv: -kv[1])),
    }
    return m, breakdown
