"""Per-layer tracing for the charnmt benchmark.

The tracer wraps functions of the charnmt modules from outside: `install`
replaces each attribute with a timing wrapper and `uninstall` puts the
original back, so nothing under `src/` changes and an untraced run executes
the program exactly as shipped.

Every wrapped call is a span. Spans are aggregated per layer name in memory
(calls and inclusive time); outermost spans also keep their (start, end), so
the benchmark can ask which share of a train step no layer covered, which is
one minus the sum of the layers' self times over the step.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


class LayerStats:
    __slots__ = ("calls", "inclusive")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0


class Tracer:
    def __init__(self):
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        self.counts: Counter = Counter()
        self.top_spans: list[tuple[float, float]] = []
        self._depth = 0
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open[name] += 1
            self._depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._depth -= 1
                self._open[name] -= 1
                stats = self.layers[name]
                stats.calls += 1
                stats.inclusive += end - start
                if self._depth == 0:
                    self.top_spans.append((start, end))
        return wrapper

    def covered(self, start: float, end: float) -> float:
        """Seconds of [start, end] spent inside some outermost span."""
        total = 0.0
        for s, e in self.top_spans:
            total += max(0.0, min(e, end) - max(s, start))
        return total

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)  # fails loudly if the program renamed it
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap the layer boundaries of charnmt's modules."""
        from charnmt import decode, model, trainer

        if self._patches:
            raise RuntimeError("tracer is already installed")
        span = self.span

        # Training loop (names as trainer.py looks them up).
        def forward(fn):
            traced = span("trainer.forward", fn)
            # dev NLL calls batch_nll without a graph; that time is validation
            return lambda *a, **k: (fn if self.inside("trainer.validation") else traced)(*a, **k)

        def backward(fn):
            traced = span("numerics.backward", fn)

            def wrapper(graph, loss):
                self.counts["tape_nodes"] += len(graph.nodes)
                return traced(graph, loss)
            return wrapper

        def save(fn):
            traced = span("checkpoint.save", fn)

            def wrapper(*args, **kwargs):
                directory = traced(*args, **kwargs)
                self.counts["save_bytes"] += sum(
                    p.stat().st_size for p in Path(directory).iterdir())
                return directory
            return wrapper

        def init_params(fn):
            traced = span("model.init_params", fn)
            untraced = span("trainer.init_params", fn)
            return lambda *a, **k: (
                traced if self.inside("trainer.load_trained_model") else untraced)(*a, **k)

        self._patch(trainer, "batch_nll", forward)
        self._patch(trainer, "backward", backward)
        self._patch(trainer, "clip_gradients", lambda fn: span("trainer.clip_adam", fn))
        self._patch(trainer, "adam_step", lambda fn: span("trainer.clip_adam", fn))
        self._patch(trainer, "_dev_nll", lambda fn: span("trainer.validation", fn))
        self._patch(trainer, "greedy_corpus_bleu", lambda fn: span("trainer.validation", fn))
        self._patch(trainer, "save_checkpoint", save)
        self._patch(trainer, "make_batches", lambda fn: span("textpipe.make_batches", fn))
        self._patch(trainer, "load_checkpoint", lambda fn: span("checkpoint.load", fn))
        self._patch(trainer, "init_params", init_params)
        self._patch(trainer, "load_trained_model",
                    lambda fn: span("trainer.load_trained_model", fn))

        # Model layers (names as model.py looks them up).
        def gru_cell(fn):
            def wrapper(*args, **kwargs):
                self.counts["gru_cell"] += 1
                return fn(*args, **kwargs)
            return wrapper

        def step_log_probs(fn):
            traced = span("model.step_log_probs", fn)

            def wrapper(model_self, y_prev, state, ctx):
                self.counts["model_steps"] += 1
                if self.inside("decode.beam_search"):
                    self.counts["search_steps"] += 1
                    self.counts["search_rows"] += len(y_prev)
                return traced(model_self, y_prev, state, ctx)
            return wrapper

        self._patch(model, "encode", lambda fn: span("model.encode", fn))
        self._patch(model, "attend", lambda fn: span("model.attend", fn))
        self._patch(model, "_output_log_probs", lambda fn: span("model.output", fn))
        self._patch(model, "gru_cell", gru_cell)
        self._patch(model._BaseDecoder, "step", lambda fn: span("model.decoder_step", fn))
        self._patch(model._BiScaleDecoder, "step", lambda fn: span("model.decoder_step", fn))
        self._patch(model.Model, "step_log_probs", step_log_probs)

        # Search (name as decode.translate_corpus looks it up).
        def beam_search(fn):
            traced = span("decode.beam_search", fn)

            def wrapper(*args, **kwargs):
                stepped = self.layers["model.step_log_probs"].inclusive
                start = perf_counter()
                try:
                    return traced(*args, **kwargs)
                finally:
                    inner = self.layers["model.step_log_probs"].inclusive - stepped
                    self.counts["search_self_s"] += perf_counter() - start - inner
            return wrapper

        self._patch(decode, "beam_search", beam_search)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- report ------------------------------------------------------------

    def _per_call_ms(self, name: str) -> float:
        stats = self.layers.get(name)
        return 1000.0 * stats.inclusive / stats.calls if stats and stats.calls else 0.0

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of everything traced so far, by metric name."""
        def ratio(num, den):
            return num / den if den else 0.0

        layers, counts = self.layers, self.counts
        backward_calls = layers["numerics.backward"].calls
        validations = layers["trainer.validation"].calls // 2  # dev NLL + BLEU
        searches = layers["decode.beam_search"].calls
        return {
            "numerics.backward_ms": self._per_call_ms("numerics.backward"),
            "numerics.tape_nodes_per_step": ratio(counts["tape_nodes"], backward_calls),
            "trainer.forward_ms": self._per_call_ms("trainer.forward"),
            "model.encode_ms": self._per_call_ms("model.encode"),
            "model.attend_ms": self._per_call_ms("model.attend"),
            "model.output_ms": self._per_call_ms("model.output"),
            "model.decoder_step_ms": self._per_call_ms("model.decoder_step"),
            "model.gru_cell_calls": ratio(counts["gru_cell"], counts["model_steps"]),
            "trainer.clip_adam_ms": ratio(1000.0 * layers["trainer.clip_adam"].inclusive,
                                          backward_calls),
            "trainer.validation_ms": ratio(1000.0 * layers["trainer.validation"].inclusive,
                                           validations),
            "checkpoint.save_ms": self._per_call_ms("checkpoint.save"),
            "checkpoint.save_bytes": ratio(counts["save_bytes"], layers["checkpoint.save"].calls),
            "textpipe.make_batches_ms": self._per_call_ms("textpipe.make_batches"),
            "decode.beam_search_ms": self._per_call_ms("decode.beam_search"),
            "decode.search_self_ms": ratio(1000.0 * counts["search_self_s"], searches),
            "decode.model_steps_per_sentence": ratio(counts["search_steps"], searches),
            "model.rows_per_step": ratio(counts["search_rows"], counts["search_steps"]),
            "checkpoint.load_ms": self._per_call_ms("checkpoint.load"),
            "model.init_params_ms": self._per_call_ms("model.init_params"),
        }
