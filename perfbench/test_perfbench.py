"""Tests of the benchmark's own logic: percentiles and the pass estimate,
the reference clock, span arithmetic, rebinding, Monte Carlo pooling, and
the correctness checkers. Run with

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import signal
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
from reference import Pacer, Reference  # noqa: E402
from run import END_TO_END  # noqa: E402
from spans import Span, Tracer, installed, self_times  # noqa: E402


# ------------------------------------------------------------- percentiles


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50), (100, 90), (199, 90), (200, 95), (240, 95),
    (333, 95), (334, 97), (360, 97), (1000, 99), (10_000, 99.9),
])
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in range(20, 2000):
        p = stats.tail_percentile(n)
        beyond = n - stats.rank(p, n)
        assert beyond >= 10
        higher = [q for q in stats.PERCENTILE_LADDER if q > p]
        assert all(n - stats.rank(q, n) < 10 for q in higher)


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 100..1, unsorted on purpose
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 99.9) == 100
    assert stats.percentile([7.0], 97) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_pass_estimate_counts_times_mean():
    # Kind "a": 20 operations a pass, 1..20 s in the first pass; kind "b": one
    # operation a pass. The second pass was cut short after 10 "a" operations.
    complete = {"a": [float(d) for d in range(1, 21)], "b": [5.0]}
    cut = {"a": [float(d) for d in range(21, 31)]}
    assert stats.pass_estimate([complete]) == sum(complete["a"]) + 5.0  # the pass's own time
    assert stats.pass_estimate([complete, cut]) == 20 * 15.5 + 5.0  # mean of 1..30 is 15.5
    assert stats.pass_estimate([complete, cut, {"a": [], "b": [4.0]}], ["b"]) == 4.5


def test_reference_samples_and_leaves_its_time_out_of_the_clock():
    reference = Reference()
    previous = signal.getsignal(signal.SIGALRM)
    start, clock_start = time.perf_counter(), reference.clock()
    with reference.sampling():
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
    elapsed, clock_elapsed = time.perf_counter() - start, reference.clock() - clock_start
    assert len(reference.samples) >= 2
    assert reference.spent == pytest.approx(sum(reference.samples))
    assert clock_elapsed == pytest.approx(elapsed - reference.spent, abs=1e-3)
    assert reference.seconds() == pytest.approx(reference.spent / len(reference.samples))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_pacer_deadline():
    now = [10.0]
    assert not Pacer(lambda: now[0]).due()
    pacer = Pacer(lambda: now[0], deadline=11.0)
    assert not pacer.due()
    now[0] = 11.0
    assert pacer.due()


def test_percentile_label():
    assert stats.percentile_label(95) == "p95"
    assert stats.percentile_label(99.9) == "p99_9"


# ------------------------------------------------------------------ spans


def test_self_time_on_hand_built_tree():
    #  root [0, 10]
    #  |- a [1, 6]   aggregated calls inside a: 1.5 s direct, 0.5 s nested
    #  |  '- b [2, 3]
    #  '- c [7, 9]
    spans = [
        Span(0, "root", None, "s", 0.0, 10.0),
        Span(1, "a", 0, "s", 1.0, 6.0, agg={"leaf": [3, 2.0, 1.5, 0]}),
        Span(2, "b", 1, "s", 2.0, 3.0),
        Span(3, "c", 0, "s", 7.0, 9.0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(5.0 - 1.0 - 1.5)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(2.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_aggregates_leaf_calls_on_nearest_span():
    tracer = Tracer(clock=FakeClock())
    leaf = tracer.wrap_aggregate("leaf", lambda xs: len(xs), units=lambda a, k, r: r)
    outer = tracer.wrap_aggregate("outer", lambda: leaf([1, 2]) + leaf([3]))
    spanned = tracer.wrap_span("spanned", lambda: outer(), annotate=lambda s, a, k, r: s.attrs.update(r=r))
    with tracer.stage_span("stage-1"):
        assert spanned() == 3
    spans = tracer.finish()
    by_name = {s.name: s for s in spans}
    assert [s.name for s in spans] == ["root", "stage-1", "spanned"]
    span = by_name["spanned"]
    assert span.stage == "stage-1" and span.parent == by_name["stage-1"].id
    assert span.attrs == {"r": 3}
    calls, secs, direct, units = span.agg["leaf"]
    assert (calls, units, direct) == (2, 3, 0.0)  # nested in "outer", so not direct
    calls, secs, direct, units = span.agg["outer"]
    assert calls == 1 and direct == secs > 0
    selfs = self_times(spans)
    assert selfs[span.id] == pytest.approx(span.duration - secs)
    json.dumps([s.to_json() for s in spans])


def test_rebind_replaces_every_reference_and_restores():
    def original():
        return "original"

    pkg = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")
    other = types.ModuleType("otherpkg")
    pkg.original = sub.alias = other.original = original
    sys.modules.update({"fakepkg": pkg, "fakepkg.sub": sub, "otherpkg": other})
    try:
        with installed("fakepkg", {original: lambda: "wrapped"}) as undo:
            assert pkg.original() == sub.alias() == "wrapped"
            assert other.original() == "original"  # outside the package
            assert len(undo) == 2
        assert pkg.original is original and sub.alias is original
    finally:
        for name in ("fakepkg", "fakepkg.sub", "otherpkg"):
            del sys.modules[name]


# ----------------------------------------------------------------- checks


def test_gradcheck_check():
    assert checks.check_gradcheck([5e-8, 2e-8]) == []
    assert checks.check_gradcheck([5e-8, 1.2e-5])
    assert checks.check_gradcheck([5e-8, float("nan")])
    assert checks.check_gradcheck([5e-8])


def test_oracle_check():
    assert checks.check_oracle(1.0) == []
    assert checks.check_oracle(1.0 + 5e-10) == []
    assert checks.check_oracle(1.0 + 1e-6)
    assert checks.check_oracle(float("nan"))


def test_monte_carlo_check():
    assert checks.check_monte_carlo(0.004, 0.0045) == []
    assert checks.check_monte_carlo(0.017, 0.0045) == []
    assert checks.check_monte_carlo(0.019, 0.0045)
    assert checks.check_monte_carlo(0.001, 0.0)
    assert checks.check_monte_carlo(float("inf"), 0.0045)


def test_pooled_monte_carlo_matches_one_estimate():
    sys.path.insert(0, str(HERE.parent / "src"))
    import numpy as np
    from vexplain.nnet import GradientTape
    from workloads import pooled_monte_carlo

    grads = [{"w": np.array([1.0, 2.0])}, {"w": np.array([3.0, 0.0])}]
    chunks = [types.SimpleNamespace(gradient=GradientTape(g), se_norm=se)
              for g, se in zip(grads, (0.3, 0.4))]
    gradient, se_norm = pooled_monte_carlo(chunks)
    assert gradient["w"].tolist() == [2.0, 1.0]
    assert se_norm == pytest.approx(0.25)  # sqrt(0.09 + 0.16) / 2


def test_selfcheck_check_counts_what_the_pass_ran(tmp_path):
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import PassResult, Selfcheck

    wl = Selfcheck(0, tmp_path)

    def result(errors, complete):
        return PassResult(wall_s=1.0, ops={}, complete=complete,
                          raw={"errors": errors, "exact": None, "oracle_error": None, "mc": []})

    cut = result([5e-8], complete=False)  # the deadline came after the first check
    wl.check(cut)
    assert (cut.attempted, cut.failed) == (1, 0)
    short = result([5e-8], complete=True)  # a complete pass must report both checks
    wl.check(short)
    assert (short.attempted, short.failed) == (1, 1)
    oracle_failed = result([5e-8, 2e-8], complete=False)
    oracle_failed.timings["oracle"] = 0.01
    oracle_failed.raw["oracle_error"] = "mass 0.9"
    wl.check(oracle_failed)
    assert (oracle_failed.attempted, oracle_failed.failed) == (2, 1)


def test_score_check():
    assert checks.check_score("pk1 f2", 3.2, 1.1, 1) == []
    assert checks.check_score("pk1 f2", 3.2, 1.1, 2)
    assert checks.check_score("pk1 f2", float("nan"), 1.1, 1)
    assert checks.check_score("pk1 f2", 3.2, -0.1, 1)


ROW = {"model": "explanation", "cider": 0.45, "class_similarity": 0.48, "class_rank": 1.55,
       "classifier_accuracy": 0.75}


def test_report_rows_check():
    good = [ROW, dict(ROW, model="description")]
    assert checks.check_report_rows(good, 5, ("description", "explanation")) == []
    assert checks.check_report_rows([ROW], 5, ("description", "explanation"))
    for key, bad in (("class_rank", 0.5), ("class_rank", 5.5), ("classifier_accuracy", 1.2),
                     ("cider", -0.1), ("class_similarity", float("nan"))):
        rows = [dict(ROW, **{key: bad}), dict(ROW, model="description")]
        assert checks.check_report_rows(rows, 5, ("description", "explanation")), key


def test_train_log_check():
    update = {"type": "update", "epoch": 1, "relevance_loss": 20.1, "mean_reward": None,
              "grad_norm_relevance": 3.0, "grad_norm_discriminative": 0.0, "num_instances": 16}
    good = json.dumps(update) + "\n"
    assert checks.check_train_log("log", good) == []
    assert checks.check_train_log("log", "")
    bad = json.dumps(dict(update, relevance_loss=float("inf")))
    assert checks.check_train_log("log", bad)
    assert checks.check_train_log("log", json.dumps(dict(update, grad_norm_relevance=None)))


def test_criterion5_orderings_are_information():
    rows = [ROW, dict(ROW, model="description", class_rank=2.0, class_similarity=0.5,
                      classifier_accuracy=0.7)]
    assert checks.criterion5_orderings(rows) == {
        "explanation_rank_le_description": True,
        "explanation_similarity_ge_description": False,
        "explanation_accuracy_ge_description": True,
    }


# ------------------------------------------------------------ definition


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
