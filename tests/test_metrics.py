import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmmfad.metrics import adjusted_rand_index, confusion_metrics, contingency_table

from .helpers import make_rng


# ------------------------------------------------------------------------ ARI


def test_ari_identical_partitions():
    assert adjusted_rand_index([0, 1, 2, 0], [0, 1, 2, 0]) == 1.0
    # identical up to relabeling
    assert adjusted_rand_index([0, 1, 2, 0], [2, 0, 1, 2]) == 1.0


def test_ari_one_cluster_vs_singletons():
    assert adjusted_rand_index([0, 0, 0, 0], [0, 1, 2, 3]) == 0.0


def test_ari_hand_computed_case():
    # a=(0,0,1,1), b=(0,0,1,2): pairs table gives 4/7 = 0.571428...
    assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 2]) == pytest.approx(4 / 7)


def brute_force_ari(a, b):
    """ARI from the pair-counting definition, quadratic loop."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.size
    ss = sd = ds = dd = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            ss += same_a and same_b
            sd += same_a and not same_b
            ds += same_b and not same_a
            dd += not same_a and not same_b
    total = ss + sd + ds + dd
    expected = (ss + sd) * (ss + ds) / total
    maximum = ((ss + sd) + (ss + ds)) / 2
    if maximum == expected:
        return 1.0
    return (ss - expected) / (maximum - expected)


def test_ari_matches_pair_counting_oracle(rng):
    for trial in range(20):
        n = int(rng.integers(4, 30))
        a = rng.integers(0, 4, n)
        b = rng.integers(0, 3, n)
        assert adjusted_rand_index(a, b) == pytest.approx(brute_force_ari(a, b),
                                                          abs=1e-12)


@given(st.lists(st.integers(0, 3), min_size=2, max_size=40).flatmap(
    lambda a: st.tuples(st.just(a), st.lists(st.integers(0, 3), min_size=len(a),
                                             max_size=len(a)))))
def test_ari_symmetric_and_permutation_invariant(pair):
    a, b = pair
    assert adjusted_rand_index(a, b) == pytest.approx(adjusted_rand_index(b, a))
    relabeled = [(x + 1) % 4 for x in a]
    assert adjusted_rand_index(relabeled, b) == pytest.approx(
        adjusted_rand_index(a, b))


def test_ari_length_mismatch_rejected():
    with pytest.raises(ValueError):
        adjusted_rand_index([0, 1], [0, 1, 2])


# ---------------------------------------------------------------- contingency


def test_contingency_table_counts():
    table = contingency_table([0, 0, 1, 1, 1], [1, 0, 1, 1, 0])
    np.testing.assert_array_equal(table, [[1, 1], [1, 2]])


# ------------------------------------------------------------------ confusion


def test_perfect_prediction_metrics():
    cm = confusion_metrics([0, 0, 1, 1], [1, 1, 0, 0], positive_class=0)
    assert cm.accuracy == 1.0
    assert cm.sensitivity == 1.0
    assert cm.specificity == 1.0
    assert cm.kappa == 1.0


def test_confusion_hypothetical_counts():
    # TP=193, FN=18, TN=337, FP=20 on the positive class
    truth = np.array([1] * 211 + [0] * 357)
    pred = np.array([1] * 193 + [0] * 18 + [1] * 20 + [0] * 337)
    cm = confusion_metrics(pred, truth, positive_class=1)
    assert cm.sensitivity == pytest.approx(193 / 211)
    assert cm.specificity == pytest.approx(337 / 357)
    assert cm.accuracy == pytest.approx((193 + 337) / 568)


def test_constant_predictor_has_zero_kappa():
    truth = np.array([0, 1] * 10)
    pred = np.zeros(20, dtype=int)
    cm = confusion_metrics(pred, truth, positive_class=1)
    assert cm.kappa == pytest.approx(0.0, abs=1e-12)


def test_accuracy_is_count_exact(rng):
    for _ in range(10):
        truth = rng.integers(0, 2, 40)
        pred = rng.integers(0, 2, 40)
        cm = confusion_metrics(pred, truth, positive_class=1)
        direct = max(np.mean(pred == truth), np.mean((1 - pred) == truth))
        assert cm.accuracy == pytest.approx(direct, abs=1e-12)
        assert 0.0 <= cm.sensitivity <= 1.0
        assert 0.0 <= cm.specificity <= 1.0


def test_confusion_rejects_more_than_two_clusters():
    with pytest.raises(ValueError):
        confusion_metrics([0, 1, 2, 0], [0, 1, 1, 0], positive_class=1)
