"""In-memory spans around the public functions of each motionrefine layer.

Every module binds its imports by name, so a span wraps the attribute the
*caller* looks up (``motionrefine.trainer.backward``, not
``motionrefine.tensor.backward``).  Wrappers are installed only while a
``Tracer`` is entered and the original functions are restored on exit, so
untraced calls run the unmodified program.
"""
from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict

from motionrefine import attention, data, losses, model, refinement, trainer

MB = 1024.0 * 1024.0


def _history_windows(args, kwargs, result) -> dict:
    """Key windows one summarize_history call encodes: batch x (frames-L-F+1)."""
    history, _params, query_len, future_len = args[:4]
    shape = history.shape
    batch = shape[0] if len(shape) == 3 else 1
    return {"windows": batch * (shape[-1] - query_len - future_len + 1)}


def _backward_nodes(args, kwargs, result) -> dict:
    return {"nodes": len(result)}


# (module, attribute the caller looks up, span name, annotate, measure memory)
TARGETS = (
    (trainer, "train", "trainer.train", None, False),
    (trainer, "evaluate", "trainer.evaluate", None, False),
    (trainer, "predict_autoregressive", "trainer.predict_autoregressive", None, False),
    (trainer, "dataset_mpjpe", "trainer.dataset_mpjpe", None, False),
    (trainer, "adam_step", "trainer.adam_step", None, False),
    (trainer, "backward", "tensor.backward", _backward_nodes, True),
    (trainer, "loss_total", "losses.loss_total", None, False),
    (losses, "loss_st", "losses.loss_st", None, False),
    (losses, "loss_velocity", "losses.loss_velocity", None, False),
    (trainer, "model_forward", "model.model_forward", None, False),
    (model, "summarize_history", "attention.summarize_history", _history_windows, False),
    (attention, "encode", "attention.encode", None, False),
    (refinement, "dct", "transforms.dct", None, False),
    (refinement, "idct", "transforms.idct", None, False),
    (refinement, "glm_forward", "refinement.glm_forward", None, False),
    (refinement, "graph_learning_block", "refinement.graph_learning_block", None, False),
    (refinement, "graph_conv", "refinement.graph_conv", None, False),
    (data, "extract_windows", "data.extract_windows", None, False),
)


class Tracer:
    """Records (request, name, start, end, parent, extra) spans while entered.

    ``request`` labels the spans of one timed call (or of the set-up), so
    spans of one request share an identifier.  A memory span runs
    tracemalloc for its own duration and reports the peak of the bytes
    allocated inside it.  Tracing every allocation slows small-tensor code
    several times over, so only the first span of each memory-measured name
    in a request does this; the later ones (every training step of an epoch
    has the same shapes) are timed without it.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.request = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._measured: set[tuple] = set()

    def __enter__(self):
        for module, attr, name, annotate, memory in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, annotate, memory))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, name, annotate, memory):
        def traced(*args, **kwargs):
            span = {"request": self.request, "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            measure = memory and (self.request, name) not in self._measured
            if measure:
                self._measured.add((self.request, name))
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if measure:
                    span["peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
            if annotate is not None:
                span.update(annotate(args, kwargs, result))
            return result
        return traced


def aggregate(spans: list[dict], requests) -> dict[str, dict]:
    """Per span name: total and self seconds, call count and summed extras.

    Self time is a span's duration minus the durations of its direct
    children; spans are strictly nested on one thread, so that is the part
    of the interval no child covers.
    """
    requests = set(requests)
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for index, span in enumerate(spans):
        if span["request"] not in requests:
            continue
        row = totals[span["name"]]
        duration = span["end"] - span["start"]
        row["s"] += duration
        row["self_s"] += duration - child_time[index]
        row["calls"] += 1
        if "windows" in span:
            row["windows"] += span["windows"]
        if "nodes" in span:
            row["nodes"] += span["nodes"]
        if "peak_mb" in span:
            row["peak_mb"] = max(row["peak_mb"], span["peak_mb"])
    return totals
