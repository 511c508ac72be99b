"""In-memory span tracing of bpnet's public functions, from outside the package.

`Tracer.install()` wraps each traced function and puts the wrapper in place of
the original everywhere a loaded ``bpnet`` module holds it, because modules
call each other through names they imported (``pipeline`` calls
``preprocess_signal``, ``build_sequences``, ... by their own global names).
A wrapper records ``[name, start, end, parent, extra]`` in a list; nothing is
written until the benchmark ends.  `Tracer.restore()` puts every original
back, so untraced runs execute the unmodified package.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (module, qualified name) of every traced function.  A name that a later
# version of the package no longer defines is skipped, not an error.
TRACED = [
    ("bpnet.pipeline", f"stage_{s}")
    for s in ("ingest", "preprocess", "segment", "train", "eval", "track", "report")
] + [
    ("bpnet.recordio", "read_csv_record"),
    ("bpnet.recordio", "read_wfdb_record"),
    ("bpnet.tqwt", "decompose"),
    ("bpnet.tqwt", "reconstruct"),
    ("bpnet.preprocess", "spectrum_peak"),
    ("bpnet.preprocess", "preprocess_signal"),
    ("bpnet.preprocess", "rigrsure_soft_denoise"),
    ("bpnet.segmentation", "build_sequences"),
    ("bpnet.segmentation", "split_and_standardize"),
    ("bpnet.segmentation", "save_dataset"),
    ("bpnet.segmentation", "load_dataset"),
    ("bpnet.model", "train"),
    ("bpnet.model", "forward_batch"),
    ("bpnet.model", "backward_batch"),
    ("bpnet.model", "lstm_forward"),
    ("bpnet.model", "lstm_backward"),
    ("bpnet.model", "clip_gradient_norm"),
    ("bpnet.model", "adam_step"),
    ("bpnet.model", "TrainedModel.predict"),
    ("bpnet.model", "save_model"),
    ("bpnet.model", "load_model"),
    ("bpnet.evaluate", "assemble_report"),
    ("bpnet.evaluate", "tracking_export"),
]

# lstm_forward's `layer` argument, as forward_batch passes it.
LSTM_LAYER_LABELS = {"forward lstm": "fw", "backward lstm": "bw", "second lstm": "lstm2"}

NAME, START, END, PARENT, EXTRA = range(5)


class Tracer:
    """Spans of traced calls; `open`/`close` also serve the benchmark's own roots."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.skipped: list[str] = []

    # -- recording -------------------------------------------------------
    def open(self, name: str, extra=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, extra])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        extra_of = _EXTRA.get(name)
        result_of = _RESULT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, extra_of(self, args, kwargs) if extra_of else None)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.spans[idx][EXTRA] = {"raised": type(exc).__name__}
                raise
            finally:
                self.close(idx)
            if result_of:
                self.spans[idx][EXTRA] = result_of(self.spans[idx][EXTRA], args, result)
            return result

        return traced

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "bpnet" or n.startswith("bpnet.")]
        for mod_name, qualname in TRACED:
            owner = sys.modules.get(mod_name)
            cls_name, _, attr = qualname.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.skipped.append(f"{mod_name}.{qualname}")
                continue
            wrapper = self._wrap(qualname, original)
            if cls_name:
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:  # every module that imported the name calls it from there
                if getattr(mod, attr, None) is original:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis --------------------------------------------------------
    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                kids[s[PARENT]].append(i)
        return kids

    def self_times(self, kids: list[list[int]]) -> list[float]:
        """Span duration minus the time its (sequential) children cover."""
        out = []
        for i, s in enumerate(self.spans):
            dur = s[END] - s[START]
            out.append(dur - sum(self.spans[k][END] - self.spans[k][START] for k in kids[i]))
        return out

    def root_of(self) -> list[int]:
        roots = []
        for s in self.spans:
            p = s[PARENT]
            roots.append(len(roots) if p < 0 else roots[p])
        return roots

    def to_json(self) -> dict:
        return {
            "columns": ["name", "start_s", "end_s", "parent", "extra"],
            "spans": self.spans,
            "skipped": self.skipped,
        }


def wrapper_cost_s(calls: int = 20000) -> float:
    """Seconds one traced call adds over a direct call (no-op function)."""
    def noop(*args, **kwargs):
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("noop", noop)
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop(1, 2)
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped(1, 2)
        t2 = time.perf_counter()
        tracer.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return median(costs)


def _lstm_forward_extra(tracer, args, kwargs):
    label = kwargs.get("layer", args[2] if len(args) > 2 else "lstm")
    return {"layer": LSTM_LAYER_LABELS.get(label, label)}


def _lstm_backward_extra(tracer, args, kwargs):
    # Label by identity against the weights of the enclosing backward_batch.
    w = args[0] if args else kwargs.get("w")
    for idx in reversed(tracer._stack):
        span = tracer.spans[idx]
        if span[NAME] == "backward_batch":
            params = span[EXTRA]
            for label in ("fw", "bw", "lstm2"):
                if getattr(params, label, None) is w:
                    return {"layer": label}
            break
    return {"layer": "lstm"}


def _keep_params(tracer, args, kwargs):
    return args[0] if args else kwargs.get("params")


_EXTRA = {
    "lstm_forward": _lstm_forward_extra,
    "lstm_backward": _lstm_backward_extra,
    "backward_batch": _keep_params,  # replaced by None once the call returns
}


def _samples_read(extra, args, record):
    return {"samples": int(sum(a.size for a in record.channels.values()))}


def _peak_found(extra, args, peak):
    return {"found": peak is not None}


def _clipped(extra, args, result):
    return {"clipped": result is not args[0]}


def _sequences(extra, args, result):
    return {"sequences": len(result)}


def _drop_params(extra, args, result):
    return None


_RESULT = {
    "read_csv_record": _samples_read,
    "read_wfdb_record": _samples_read,
    "spectrum_peak": _peak_found,
    "clip_gradient_norm": _clipped,
    "build_sequences": _sequences,
    "backward_batch": _drop_params,
}


def median(values, default: float = 0.0) -> float:
    return statistics.median(values) if values else default
