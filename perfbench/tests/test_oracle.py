"""Ground truth and the per-guarantee misorder checks."""

import numpy as np

import oracle


def test_exact_means():
    means = oracle.exact_means(["a", "b", "a", "c"], [1.0, 5.0, 3.0, 7.0])
    assert means == {"a": 2.0, "b": 5.0, "c": 7.0}


def test_check_shape():
    truth = {"a": 1.0, "b": 2.0}
    assert oracle.check_shape({"a": 1.1, "b": 2.2}, truth) is None
    assert "group set" in oracle.check_shape({"a": 1.0}, truth)
    assert "non-finite" in oracle.check_shape({"a": 1.0, "b": float("nan")}, truth)


TRUTH = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
LABELS = ["a", "b", "c", "d"]


def test_ordering_mode():
    ordering = {"kind": "ordering"}
    assert not oracle.misordered(ordering, {"a": 1.4, "b": 1.5, "c": 3.9, "d": 4.0}, TRUTH, LABELS)
    assert oracle.misordered(ordering, {"a": 1.6, "b": 1.5, "c": 3.0, "d": 4.0}, TRUTH, LABELS)


def test_top_mode_ignores_the_rest():
    top2 = {"kind": "top", "t": 2}
    # a and b swap below the top two, which the top-t property allows
    assert not oracle.misordered(top2, {"a": 1.0, "b": 0.5, "c": 5.0, "d": 6.0}, TRUTH, LABELS)
    assert oracle.misordered(top2, {"a": 1.0, "b": 2.0, "c": 6.0, "d": 5.0}, TRUTH, LABELS)


def test_trends_mode_checks_neighbours_only():
    trends = {"kind": "trends"}
    # a > c is wrong, but a and c are not neighbours on the x axis
    assert not oracle.misordered(trends, {"a": 2.5, "b": 2.6, "c": 2.7, "d": 4.0}, TRUTH, LABELS)
    assert oracle.misordered(trends, {"a": 1.0, "b": 3.5, "c": 3.0, "d": 4.0}, TRUTH, LABELS)


def test_values_mode():
    values = {"kind": "values", "within": 0.5}
    assert not oracle.misordered(values, {"a": 1.4, "b": 2.0, "c": 3.0, "d": 3.6}, TRUTH, LABELS)
    assert oracle.misordered(values, {"a": 1.6, "b": 2.0, "c": 3.0, "d": 4.0}, TRUTH, LABELS)


def test_mistakes_mode_counts_pairs():
    # one of six pairs wrong: 5/6 correct
    est = {"a": 2.1, "b": 2.0, "c": 3.0, "d": 4.0}
    assert not oracle.misordered({"kind": "mistakes", "fraction": 0.8}, est, TRUTH, LABELS)
    assert oracle.misordered({"kind": "mistakes", "fraction": 0.9}, est, TRUTH, LABELS)


def test_same_run():
    samples, est = np.array([3, 4]), np.array([1.0, 2.0])
    assert oracle.same_run(samples, est, samples.copy(), est + 1e-13) is None
    assert "sample counts" in oracle.same_run(samples, est, np.array([3, 5]), est)
    assert "estimates" in oracle.same_run(samples, est, samples, est + 1e-3)
