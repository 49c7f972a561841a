"""Per-layer metrics: which package functions a traced run wraps, and how
the recorded spans become named metrics.

The layers are the package modules (``seeding`` is too small to measure).
Each metric below notes the end-to-end metric and workload it should move:

* ``cli.*_s``: the walkthrough steps -> ``pass_ref`` on walkthrough.
* ``data.*``: corpus synthesis and loading -> ``pass_ref`` on walkthrough,
  ``setup_s`` on score.
* ``checkpoint.*``: hex-float JSON save/load -> ``pass_ref`` on walkthrough.
* ``nnet.lstm_step*``: the LSTM cell -> ``work_per_ref`` on walkthrough
  (train tokens) and on selfcheck (tiny shapes, call overhead dominates).
* ``generator.*``: teacher forcing, sampling, greedy decoding ->
  ``work_per_ref`` on walkthrough and selfcheck; ``greedy_decode`` ->
  ``pass_ref`` on walkthrough (evaluate step).
* ``classifier.*``: classifier training and the reward -> ``pass_ref`` and
  ``work_per_ref`` on walkthrough, ``work_per_ref`` on selfcheck.
* ``training.*``: the update loop, validation, the oracle and the Monte
  Carlo estimator -> ``work_per_ref`` on walkthrough and selfcheck.
* ``metrics.*``: CIDEr and class rank -> ``work_per_ref`` and ``pass_ref`` on
  score, ``pass_ref`` on walkthrough.

No layer has a queue or a retry, so time spent waiting is zero everywhere
and is not reported (not applicable). Counts (calls, tokens, bytes) repeat
exactly between runs of one seed.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict

from spans import Tracer, self_times
from stats import percentile, tail_percentile

PACKAGE = "vexplain"
CLI_STEPS = ("synth_data", "train_classifier", "train_description", "train_explanation",
             "evaluate")
TRAIN_MODES = ("description", "explanation")
COUNTED = ("relevance_loss", "nll_gradient", "sample_sequence", "greedy_decode")
COMBINED_TAIL = 97

# (name, unit, better); BENCHMARK.json lists exactly these as per_layer.
PER_LAYER = (
    *[(f"cli.{step}_s", "s", "lower") for step in CLI_STEPS],
    ("data.load_corpus.calls", "count", "lower"),
    ("data.load_corpus.s", "s", "lower"),
    ("data.generate_synth_s", "s", "lower"),
    *[(f"checkpoint.{fn}.{m}", u, "lower") for fn in ("save_blocks", "load_blocks")
      for m, u in (("calls", "count"), ("s", "s"), ("bytes", "B"))],
    *[(f"nnet.{fn}.{m}", u, "lower") for fn in ("lstm_step", "lstm_step_backward")
      for m, u in (("calls", "count"), ("us_per_call", "us"))],
    ("nnet.grad_check_s", "s", "lower"),
    *[(f"generator.{fn}.{m}", u, b) for fn in COUNTED
      for m, u, b in (("calls", "count", "lower"), ("tokens", "count", "higher"),
                      ("us_per_token", "us", "lower"))],
    ("generator.compute_class_embeddings_s", "s", "lower"),
    ("classifier.train_classifier_s", "s", "lower"),
    ("classifier.reward.calls", "count", "lower"),
    ("classifier.reward.us_per_call", "us", "lower"),
    *[(f"training.train_s.{mode}", "s", "lower") for mode in TRAIN_MODES],
    ("training.combined_update.calls", "count", "lower"),
    ("training.combined_update.self_s", "s", "lower"),
    ("training.combined_update.ms_p50", "ms", "lower"),
    (f"training.combined_update.ms_p{COMBINED_TAIL}", "ms", "lower"),
    ("training.validation_s", "s", "lower"),
    ("training.kept_epoch_frac", "ratio", "higher"),
    ("training.oracle_expected_reward_s", "s", "lower"),
    ("training.monte_carlo_gradient_s", "s", "lower"),
    ("metrics.cider.calls", "count", "lower"),
    ("metrics.cider.us_per_ref", "us", "lower"),
    ("metrics.cider.distinct_ref_frac", "ratio", "lower"),
    ("metrics.class_rank.calls", "count", "lower"),
    ("metrics.class_rank.ms_per_call", "ms", "lower"),
    ("metrics.evaluate_models_s", "s", "lower"),
    ("metrics.corpus_ngram_stats_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_est_s", "s", "lower"),
    ("trace.wrapped_calls", "count", "lower"),
    ("trace.spans", "count", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}

SPANNED = {
    "data": ("load_corpus", "generate_synth"),
    "checkpoint": ("save_blocks", "load_blocks"),
    "classifier": ("train_classifier",),
    "generator": ("compute_class_embeddings",),
    "training": ("train", "combined_update", "oracle_expected_reward", "monte_carlo_gradient"),
    "nnet": ("grad_check",),
    "metrics": ("evaluate_models", "corpus_ngram_stats", "class_rank"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Annotations run only after a call returns; a call that raised leaves
# its span without them, and the metrics below read them with defaults.
def _file_bytes(span, args, kwargs, result):
    span.attrs["bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))


def _train_epochs(span, args, kwargs, result):
    span.attrs.update(mode=_arg(args, kwargs, 1, "config").mode,
                      best_epoch=result.best_epoch, epochs_run=len(result.epochs))


class Instrumentation:
    """Wrappers for one traced run and the per-layer metrics they yield."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.distinct_refs: set[str] = set()

    def _count_refs(self, args, kwargs, result):
        refs = _arg(args, kwargs, 1, "references")
        self.distinct_refs.update(refs)
        return len(refs)

    def replacements(self) -> dict:
        """Original function -> wrapper, for ``spans.installed``."""
        annotate = {"checkpoint.save_blocks": _file_bytes, "checkpoint.load_blocks": _file_bytes,
                    "training.train": _train_epochs}
        aggregated = {
            "nnet.lstm_step": None,
            "nnet.lstm_step_backward": None,
            "generator.relevance_loss":
                lambda a, k, r: sum(len(tokens) for tokens, _ in _arg(a, k, 1, "batch")),
            "generator.nll_gradient": lambda a, k, r: len(_arg(a, k, 2, "targets")),
            "generator.sample_sequence": lambda a, k, r: len(r.tokens),
            "generator.greedy_decode": lambda a, k, r: len(r),
            "classifier.reward": None,
            "metrics.cider": self._count_refs,
        }
        out = {}
        for layer, fns in SPANNED.items():
            for fn in fns:
                name = f"{layer}.{fn}"
                orig = getattr(sys.modules[f"{PACKAGE}.{layer}"], fn)
                out[orig] = self.tracer.wrap_span(name, orig, annotate.get(name))
        for name, units in aggregated.items():
            layer, fn = name.split(".")
            orig = getattr(sys.modules[f"{PACKAGE}.{layer}"], fn)
            out[orig] = self.tracer.wrap_aggregate(name, orig, units)
        return out

    def metrics(self, spans) -> dict[str, float]:
        """Every per-layer metric except the ``trace.*`` ones; a layer the
        workload never reaches reads 0."""
        return layer_metrics(spans, len(self.distinct_refs))


def layer_metrics(spans, distinct_refs: int) -> dict[str, float]:
    selfs = self_times(spans)
    named = defaultdict(list)
    agg = defaultdict(lambda: [0, 0.0, 0])  # calls, seconds, units over all spans
    for s in spans:
        named[s.name].append(s)
        for fn, (calls, secs, _direct, units) in s.agg.items():
            row = agg[fn]
            row[0] += calls
            row[1] += secs
            row[2] += units

    def total(name):
        return sum(s.duration for s in named[name])

    def per(value, count, scale):
        return value / count * scale if count else 0.0

    m = {f"cli.{step}_s": total(f"cli.{step}") for step in CLI_STEPS}
    m["data.load_corpus.calls"] = len(named["data.load_corpus"])
    m["data.load_corpus.s"] = total("data.load_corpus")
    m["data.generate_synth_s"] = total("data.generate_synth")
    for fn in ("save_blocks", "load_blocks"):
        spans_fn = named[f"checkpoint.{fn}"]
        m[f"checkpoint.{fn}.calls"] = len(spans_fn)
        m[f"checkpoint.{fn}.s"] = total(f"checkpoint.{fn}")
        m[f"checkpoint.{fn}.bytes"] = sum(s.attrs.get("bytes", 0) for s in spans_fn)
    for fn in ("lstm_step", "lstm_step_backward"):
        calls, secs, _ = agg[f"nnet.{fn}"]
        m[f"nnet.{fn}.calls"] = calls
        m[f"nnet.{fn}.us_per_call"] = per(secs, calls, 1e6)
    m["nnet.grad_check_s"] = total("nnet.grad_check")
    for fn in COUNTED:
        calls, secs, tokens = agg[f"generator.{fn}"]
        m[f"generator.{fn}.calls"] = calls
        m[f"generator.{fn}.tokens"] = tokens
        m[f"generator.{fn}.us_per_token"] = per(secs, tokens, 1e6)
    m["generator.compute_class_embeddings_s"] = total("generator.compute_class_embeddings")
    m["classifier.train_classifier_s"] = total("classifier.train_classifier")
    calls, secs, _ = agg["classifier.reward"]
    m["classifier.reward.calls"] = calls
    m["classifier.reward.us_per_call"] = per(secs, calls, 1e6)

    trains = named["training.train"]
    for mode in TRAIN_MODES:
        m[f"training.train_s.{mode}"] = sum(s.duration for s in trains if s.attrs.get("mode") == mode)
    updates = named["training.combined_update"]
    durations_ms = [s.duration * 1e3 for s in updates]
    m["training.combined_update.calls"] = len(updates)
    m["training.combined_update.self_s"] = sum(selfs[s.id] for s in updates)
    m["training.combined_update.ms_p50"] = percentile(durations_ms, 50) if updates else 0.0
    # Reported only where the sample has at least ten updates beyond it.
    tail = tail_percentile(len(updates))
    m[f"training.combined_update.ms_p{COMBINED_TAIL}"] = (
        percentile(durations_ms, COMBINED_TAIL) if tail is not None and tail >= COMBINED_TAIL
        else 0.0
    )
    m["training.validation_s"] = total("training.train") - total("training.combined_update")
    epochs_run = sum(s.attrs.get("epochs_run", 0) for s in trains)
    m["training.kept_epoch_frac"] = per(sum(s.attrs.get("best_epoch", 0) for s in trains), epochs_run, 1)
    m["training.oracle_expected_reward_s"] = total("training.oracle_expected_reward")
    m["training.monte_carlo_gradient_s"] = total("training.monte_carlo_gradient")

    calls, secs, refs = agg["metrics.cider"]
    m["metrics.cider.calls"] = calls
    m["metrics.cider.us_per_ref"] = per(secs, refs, 1e6)
    m["metrics.cider.distinct_ref_frac"] = per(distinct_refs, refs, 1)
    ranks = named["metrics.class_rank"]
    m["metrics.class_rank.calls"] = len(ranks)
    m["metrics.class_rank.ms_per_call"] = per(total("metrics.class_rank"), len(ranks), 1e3)
    m["metrics.evaluate_models_s"] = total("metrics.evaluate_models")
    m["metrics.corpus_ngram_stats_s"] = total("metrics.corpus_ngram_stats")
    return m
