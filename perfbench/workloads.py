"""The benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup`` and
then runs closed-loop passes, one thread, one operation at a time.
``run_pass`` is the timed part: it times every operation of the pass, by
kind (see ``stats.pass_estimate``), on the clock of the run's
``reference.Pacer``; ``check`` inspects the outputs afterwards and decides
which operations failed.

* ``walkthrough``: the README CLI walkthrough, steps 1-5, run in-process
  through ``vexplain.cli.run`` with the default epochs. Training in
  ``nnet``, ``generator``, ``classifier`` and ``training`` does nearly all
  of the work; ``checkpoint`` writes and reads; ``metrics`` is small.
* ``score``: ``metrics`` alone. Every held-out reference sentence of a
  20-class corpus is scored with ``cider`` against its own references,
  ``class_similarity`` and ``class_rank``; no generator runs. Class rank
  costs classes x pool size per candidate, so reference caching shows here
  and a faster LSTM must not.
* ``selfcheck``: the two gradient checks of ``vexplain gradcheck``, the
  enumeration oracle and the Monte Carlo estimator on tiny models
  (vocabulary 4-6, hidden 4-6), where per-call Python overhead dominates,
  not arithmetic. The operations are the two gradient checks, the oracle,
  and Monte Carlo chunks of 100 samples.

Every value that defines a workload is given explicitly, never taken from
a CLI default.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from vexplain import cli, data, generator, metrics, nnet, training
from vexplain.classifier import token_count_classifier
from vexplain.generator import Conditioning, init_generator
from vexplain.seeding import substream

import checks
from reference import Pacer
from stats import pass_estimate, percentile, percentile_label, tail_percentile


def derive_seed(seed: int, name: str) -> int:
    """A package seed derived from the workload seed, one per purpose."""
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def _quiet(fn, *args):
    """Call fn with stdout and stderr captured; returns (result, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = fn(*args)
    return result, out.getvalue(), err.getvalue()


@dataclass
class PassResult:
    wall_s: float
    ops: dict[str, list[float]]  # operation kind -> seconds of each operation
    work_units: float = 0  # what work_per_s counts, done by the workload's WORK_OPS
    complete: bool = True  # False when the run's deadline cut the pass short
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict, repr=False)

    def fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems += problems


class Walkthrough:
    name = "walkthrough"
    work_unit = "teacher-forced target tokens trained (both generator trainings)"
    NUM_CLASSES = 5
    GENERATOR_EPOCHS = 15
    MAX_LEN = 20
    SYNTH = ["--classes", str(NUM_CLASSES), "--instances-per-class", "20",
             "--sentences-per-instance", "3", "--vocab-size", "40", "--planted-per-class", "1",
             "--feature-dim", "16", "--feature-noise", "2.0"]
    CLASSIFIER = ["--embed-dim", "16", "--hidden", "32", "--lr", "1.0", "--epochs", "30",
                  "--batch-size", "16", "--max-len", str(MAX_LEN)]
    # --baseline is a store_true flag: leaving it out is the only way to say "off".
    GENERATOR = ["--lambda", "1.0", "--samples", "1", "--lr", "0.1",
                 "--epochs", str(GENERATOR_EPOCHS), "--batch-size", "16", "--gradient-clip", "5.0",
                 "--embed-dim", "32", "--hidden", "64", "--max-len", str(MAX_LEN)]
    TRAIN_STEPS = ("train_description", "train_explanation")
    WORK_OPS = TRAIN_STEPS  # each step is one operation, run once a pass

    def __init__(self, seed: int, workdir: Path):
        self.data_seed = str(derive_seed(seed, "data"))
        self.run_seed = str(derive_seed(seed, "run"))
        self.workdir = workdir

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def steps(self, d: Path) -> list[tuple[str, list[str]]]:
        corpus, clf, desc, expl = (str(d / n) for n in ("corpus.jsonl", "clf.ckpt", "desc.ckpt",
                                                        "expl.ckpt"))
        run = ["--seed", self.run_seed]
        return [
            ("synth_data", ["synth-data", "--out", corpus, "--seed", self.data_seed, *self.SYNTH]),
            ("train_classifier", ["train-classifier", "--corpus", corpus, "--out", clf, *run,
                                  *self.CLASSIFIER]),
            ("train_description", ["train", "--corpus", corpus, "--mode", "description",
                                   "--out", desc, *run, *self.GENERATOR]),
            ("train_explanation", ["train", "--corpus", corpus, "--mode", "explanation",
                                   "--classifier", clf, "--lm", desc, "--out", expl, *run,
                                   *self.GENERATOR]),
            ("evaluate", ["evaluate", "--corpus", corpus, "--classifier", clf,
                          "--model", f"description={desc}", "--model", f"explanation={expl}",
                          "--split", "test", "--out", str(d / "eval")]),
        ]

    def run_pass(self, tracer, index: int, pacer: Pacer) -> PassResult:
        """One walkthrough; it is not cut short, whatever the deadline."""
        clock = pacer.clock
        d = self.workdir / f"walkthrough-{index}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        timings, exits = {}, {}
        start = clock()
        for step, argv in self.steps(d):
            with tracer.stage_span(step, f"cli.{step}"):
                t0 = clock()
                rc, _, err = _quiet(cli.run, argv)
                timings[step] = clock() - t0
            exits[step] = (rc, err)
        wall = clock() - start
        return PassResult(wall_s=wall, ops={step: [t] for step, t in timings.items()},
                          timings=timings, raw={"dir": d, "exits": exits})

    def check(self, r: PassResult) -> None:
        d = r.raw["dir"]
        step_problems = {step: checks.check_exit(step, rc, err)
                         for step, (rc, err) in r.raw["exits"].items()}
        for step, ckpt in (("train_description", "desc.ckpt"), ("train_explanation", "expl.ckpt")):
            log = d / f"{ckpt}.log.jsonl"
            if log.is_file():
                step_problems[step] += checks.check_train_log(log.name, log.read_text())
            else:
                step_problems[step].append(f"{step}: no training log")
        report = d / "eval" / "report.jsonl"
        rows = ([json.loads(line) for line in report.read_text().splitlines() if line.strip()]
                if report.is_file() else [])
        step_problems["evaluate"] += checks.check_report_rows(
            rows, self.NUM_CLASSES, ("description", "explanation"))
        for problems in step_problems.values():
            r.fail(problems)
        r.attempted = len(step_problems)
        r.info["criterion5_orderings"] = checks.criterion5_orderings(rows) if not r.failed else {}
        corpus_path = d / "corpus.jsonl"
        if corpus_path.is_file():
            corpus = data.load_corpus(corpus_path)
            per_epoch = sum(len(p.tokens) for p in data.teacher_pairs(corpus, "train", self.MAX_LEN))
            r.work_units = per_epoch * self.GENERATOR_EPOCHS * len(self.TRAIN_STEPS)
        shutil.rmtree(d, ignore_errors=True)

    @classmethod
    def named_metrics(cls, passes: list[PassResult]) -> dict[str, tuple[float, str]]:
        ops = [p.ops for p in passes]
        m = {"train_tokens_per_s": (passes[0].work_units / pass_estimate(ops, cls.WORK_OPS), "1/s")}
        for step in passes[0].timings:
            m[f"{step}_s"] = (median(p.timings[step] for p in passes), "s")
        return m


class Score:
    name = "score"
    work_unit = "held-out reference sentences scored"
    WORK_OPS = ("candidate",)
    SPEC = dict(num_classes=20, instances_per_class=20, sentences_per_instance=3, vocab_size=40,
                planted_per_class=1, feature_dim=16, feature_noise=2.0, min_fillers=3,
                max_fillers=6)

    def __init__(self, seed: int, workdir: Path):
        self.data_seed = derive_seed(seed, "data")
        self.workdir = workdir

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / "score-corpus.jsonl"
        data.save_corpus(data.generate_synth(data.SynthSpec(**self.SPEC, seed=self.data_seed)), path)
        corpus = data.load_corpus(path)
        self.stats = metrics.corpus_ngram_stats(corpus)
        self.pools = metrics.class_pools(corpus)
        self.candidates = [(sentence, inst.sentences, inst.class_label)
                           for inst in corpus.split_instances("test") for sentence in inst.sentences]

    def run_pass(self, tracer, index: int, pacer: Pacer) -> PassResult:
        """Scores every candidate, or those scored before the deadline."""
        clock = pacer.clock
        stats, pools = self.stats, self.pools
        scores, samples = [], []
        start = clock()
        with tracer.stage_span("score"):
            for sentence, refs, label in self.candidates:
                if pacer.due():
                    break
                with tracer.span("score.candidate"):
                    t0 = clock()
                    scores.append((metrics.cider(sentence, refs, stats),
                                   metrics.class_similarity(sentence, label, pools, stats),
                                   metrics.class_rank(sentence, label, pools, stats)))
                    samples.append(clock() - t0)
        wall = clock() - start
        return PassResult(wall_s=wall, ops={"candidate": samples},
                          work_units=len(self.candidates),
                          complete=len(scores) == len(self.candidates), raw={"scores": scores})

    def check(self, r: PassResult) -> None:
        for (sentence, _, _), score in zip(self.candidates, r.raw["scores"]):
            r.fail(checks.check_score(sentence, *score))
        r.attempted = len(r.raw["scores"])

    @classmethod
    def named_metrics(cls, passes: list[PassResult]) -> dict[str, tuple[float, str]]:
        samples = [s * 1e3 for p in passes for s in p.ops["candidate"]]
        m = {"candidates_per_s": (passes[0].work_units / pass_estimate([p.ops for p in passes]),
                                  "1/s"),
             "candidate_ms_p50": (percentile(samples, 50), "ms"),
             "candidate_samples": (len(samples), "count")}
        tail = tail_percentile(len(samples))
        if tail is not None:
            m[f"candidate_ms_{percentile_label(tail)}"] = (percentile(samples, tail), "ms")
        return m


class Selfcheck:
    name = "selfcheck"
    work_unit = "gradient-check loss evaluations plus Monte Carlo samples"
    MC_SAMPLES = 10_000
    MC_CHUNK = 100  # samples per monte_carlo_gradient call; each call is one operation
    GRADCHECK_OPS = ("gradcheck_relevance", "gradcheck_capped")
    WORK_OPS = (*GRADCHECK_OPS, "monte_carlo_chunk")
    ORACLE_MAX_LEN = 3
    GRADCHECK_EPSILON = 2.5e-3

    def __init__(self, seed: int, workdir: Path):
        self.run_seed = derive_seed(seed, "run")
        self.workdir = workdir

    def setup(self) -> None:
        """The two instances of the package's self-checks.

        Gradient check: the toy generator of ``vexplain gradcheck``
        (vocabulary 6, embed 4, hidden 6, feature 3, both conditionings),
        checked on a teacher-forced 3-word sentence and on the log-prob of
        7 tokens without EOS, the shape of a sample cut at the length cap of
        8. The lengths are fixed so that every seed costs the same; the CLI
        checks a sampled sentence of seed-dependent length (1 to 7 tokens).

        Oracle: vocabulary 4, hidden 4, with reward concentrated on
        sequences holding two 'a' tokens so gradients are resolvable.
        """
        rng = substream(self.run_seed, "gradcheck")
        vocab = data.Vocabulary(["<sos>", "<eos>", "<unk>", "red", "blue", "wing"])
        self.toy = init_generator(vocab, rng, embed_dim=4, hidden_size=6, feature_dim=3,
                                  max_len=8, use_image=True, use_class=True, init_scale=0.5)
        self.toy_cond = Conditioning(image_feature=rng.normal(size=3), class_label=0,
                                     class_embedding=rng.normal(size=6))
        words = [int(t) for t in rng.integers(3, vocab.size, size=3 + 7)]
        self.sentence = words[:3] + [vocab.eos]
        self.capped = words[3:]
        weights = sum(arr.size for arr in self.toy.params().values())
        self.gradcheck_evals = 2 * (4 * weights + 1)  # two checks, 4 evaluations per weight + 1

        rng = substream(self.run_seed, "oracle")
        vocab = data.Vocabulary(["<sos>", "<eos>", "<unk>", "a"])
        model = init_generator(vocab, rng, embed_dim=3, hidden_size=4, feature_dim=2,
                               max_len=self.ORACLE_MAX_LEN, use_image=True, use_class=False,
                               init_scale=0.5)
        a = vocab.index["a"]
        model.b_out[a] += 2.0
        self.model = model
        self.classifier = token_count_classifier(vocab, a)
        self.cond = Conditioning(image_feature=rng.normal(size=2), class_label=0)

    def _relevance(self, _params):
        return generator.relevance_loss(self.toy, [(self.sentence, self.toy_cond)])

    def _capped_log_prob(self, _params):
        caches, logps = generator.run_teacher_forced(self.toy, self.capped, self.toy_cond)
        return -sum(logps), generator.nll_gradient(self.toy, caches, self.capped)

    def run_pass(self, tracer, index: int, pacer: Pacer) -> PassResult:
        """Both gradient checks, the oracle and the Monte Carlo chunks, in
        that order; after the deadline no further check or chunk starts."""
        clock = pacer.clock
        timings, ops, errors, chunks = {}, {}, [], []
        exact = oracle_error = None
        start = clock()
        with tracer.stage_span("gradcheck"):
            t0 = clock()
            for kind, fn in zip(self.GRADCHECK_OPS, (self._relevance, self._capped_log_prob)):
                if pacer.due():
                    break
                t1 = clock()
                errors.append(nnet.grad_check(fn, self.toy.params(),
                                              epsilon=self.GRADCHECK_EPSILON))
                ops[kind] = [clock() - t1]
            timings["gradcheck"] = clock() - t0
        if not pacer.due():
            with tracer.stage_span("oracle"):
                t0 = clock()
                try:
                    exact = training.oracle_expected_reward(
                        self.model, self.cond, self.classifier, true_class=0,
                        max_len=self.ORACLE_MAX_LEN)
                except RuntimeError as e:  # raised when the enumerated mass is not 1
                    oracle_error = str(e)
                timings["oracle"] = clock() - t0
                ops["oracle"] = [timings["oracle"]]
            with tracer.stage_span("monte_carlo"):
                rng = substream(self.run_seed, "oracle-mc")
                ops["monte_carlo_chunk"] = []
                t0 = clock()
                for _ in range(self.MC_SAMPLES // self.MC_CHUNK):
                    if pacer.due():
                        break
                    t1 = clock()
                    chunks.append(training.monte_carlo_gradient(
                        self.model, self.cond, self.classifier, true_class=0,
                        n_samples=self.MC_CHUNK, rng=rng, max_len=self.ORACLE_MAX_LEN))
                    ops["monte_carlo_chunk"].append(clock() - t1)
                timings["monte_carlo"] = clock() - t0
        wall = clock() - start
        return PassResult(
            wall_s=wall, ops=ops, work_units=self.gradcheck_evals + self.MC_SAMPLES,
            complete=len(chunks) * self.MC_CHUNK == self.MC_SAMPLES,
            timings=timings, info={"gradcheck_evals": self.gradcheck_evals},
            raw={"errors": errors, "exact": exact, "oracle_error": oracle_error, "mc": chunks})

    def check(self, r: PassResult) -> None:
        """Checks what the pass ran: a pass cut short by the deadline may
        lack the second gradient check, the oracle or Monte Carlo chunks."""
        raw = r.raw
        expected = len(self.GRADCHECK_OPS) if r.complete else len(raw["errors"])
        r.attempted = 1 if expected else 0
        r.fail(checks.check_gradcheck(raw["errors"], expected))
        r.info["gradcheck_errors"] = raw["errors"]
        if "oracle" not in r.timings:
            return
        r.attempted += 1
        exact = raw["exact"]
        if exact is None:
            r.fail([f"oracle: {raw['oracle_error']}"])
        else:
            r.fail(checks.check_oracle(exact.mass))
            r.info["oracle_sequences"] = exact.num_sequences
        if not raw["mc"]:
            return
        r.attempted += 1
        if exact is None:
            r.fail(["monte carlo: no exact gradient to compare with"])
            return
        gradient, se_norm = pooled_monte_carlo(raw["mc"])
        error_norm = math.sqrt(sum(float(((gradient[name] - ref) ** 2).sum())
                                   for name, ref in exact.gradient.blocks.items()))
        r.fail(checks.check_monte_carlo(error_norm, se_norm))
        r.info.update(mc_error_norm=error_norm, mc_se_norm=se_norm)

    @classmethod
    def named_metrics(cls, passes: list[PassResult]) -> dict[str, tuple[float, str]]:
        ops = [p.ops for p in passes]
        return {
            "gradcheck_evals_per_s":
                (passes[0].info["gradcheck_evals"] / pass_estimate(ops, cls.GRADCHECK_OPS), "1/s"),
            "mc_samples_per_s":
                (cls.MC_SAMPLES / pass_estimate(ops, ("monte_carlo_chunk",)), "1/s"),
            "oracle_s": (median(p.timings["oracle"] for p in passes if "oracle" in p.timings), "s"),
        }


def pooled_monte_carlo(chunks) -> tuple[dict, float]:
    """Mean gradient and standard-error norm of equal-sized Monte Carlo
    chunks: the mean of the chunk means, whose variance is the sum of the
    chunks' squared standard errors over the squared chunk count."""
    k = len(chunks)
    gradient = {name: sum(c.gradient[name] for c in chunks) / k
                for name in chunks[0].gradient.blocks}
    return gradient, math.sqrt(sum(c.se_norm ** 2 for c in chunks)) / k


WORKLOADS = {w.name: w for w in (Walkthrough, Score, Selfcheck)}
