"""Tests of the benchmark's own statistics and span accounting.

    python3 -m pytest perfbench/tests
"""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from layers import key_reuse  # noqa: E402
from stats import op_median, percentile, spread, tail  # noqa: E402
from tracing import Totals, Tracer, self_times  # noqa: E402


def test_op_median_leaves_out_failed_operations():
    assert op_median([(3.0, True), (1.0, True), (2.0, True)]) == 2.0
    assert op_median([(4.0, True), (1.0, True), (3.0, True), (2.0, True)]) == 2.5
    assert op_median([(9.0, True), (0.0, False), (0.0, False)]) == 9.0
    assert op_median([(1.0, False), (3.0, False)]) == 2.0  # none passed: all count


def test_percentile_nearest_rank():
    xs = list(range(1, 21))
    assert percentile(xs, 50) == 10
    assert percentile(xs, 0) == 1
    assert percentile(xs, 100) == 20
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n", range(11, 400))
def test_tail_is_highest_percentile_with_ten_beyond(n):
    xs = list(range(n))
    pct, value, count = tail(xs)
    assert count == n
    assert sum(x > value for x in xs) >= 10
    if pct < 100:
        assert sum(x > percentile(xs, pct + 1) for x in xs) < 10


def test_tail_known_values():
    assert tail(range(20)) == (50, 9, 20)
    assert tail(range(1000)) == (99, 989, 1000)
    assert tail([5.0, 1.0, 3.0]) == (0, 1.0, 3)  # too few samples for any tail


def test_spread_is_iqr_over_median():
    assert spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx((11.5 - 8.5) / 10.0)


def span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_subtracts_nested_children():
    spans = [
        span("op", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 2.0, 3.0, 1),  # grandchild: counts against a, not op
        span("c", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        span("op", 0.0, 10.0, -1),
        span("a", 1.0, 5.0, 0),
        span("b", 3.0, 6.0, 0),
        span("c", 8.0, 12.0, 0),  # runs past its parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_totals_sum_self_time_by_name_and_module():
    totals = Totals(keep_durations=("search.objective",))
    totals.add([
        span("op", 0.0, 10.0, -1),
        span("search.objective", 0.0, 6.0, 0),
        span("classifier.train", 1.0, 5.0, 1),
        span("classifier.train", 5.0, 6.0, 1),
    ])
    assert totals.calls["classifier.train"] == 2
    assert totals.self_time["search.objective"] == pytest.approx(1.0)
    assert totals.parent_calls[("search.objective", "classifier.train")] == 2
    assert totals.durations["search.objective"] == [6.0]
    assert totals.self_by_module()["classifier"] == pytest.approx(5.0)


def test_tracer_wraps_every_binding_and_restores_them():
    import softaug.labels
    import softaug.policy

    original = softaug.labels.smooth_label
    tracer = Tracer([("labels.smooth_label", "labels", "smooth_label", lambda a, k, r: a[2])])
    tracer.install()
    try:
        assert softaug.policy.smooth_label is softaug.labels.smooth_label is not original
        with tracer.root("op") as spans:
            softaug.policy.smooth_label(0, 2, 0.1)
        softaug.labels.smooth_label(1, 2, 0.2)  # outside a root: not kept
    finally:
        tracer.uninstall()
    assert softaug.policy.smooth_label is original and softaug.labels.smooth_label is original
    assert [(s[0], s[3], s[4]) for s in spans] == [("op", -1, None), ("labels.smooth_label", 0, 0.1)]
    assert spans[0][1] <= spans[1][1] <= spans[1][2] <= spans[0][2]


def test_key_reuse_counts_unigram_and_bigram_keys():
    # keys: a b a_b, a b a_b -> 6 keys, 3 distinct
    assert key_reuse(["a b", "A B"]) == pytest.approx(0.5)
    assert key_reuse([]) == 0.0


def test_tracer_refuses_a_function_the_package_lacks():
    with pytest.raises(AttributeError):
        Tracer([("labels.gone", "labels", "gone", None)]).install()
