import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmmfad.model import (
    PSI_MIN,
    ComponentParams,
    DataMatrix,
    FitReport,
    MixtureModel,
    Responsibilities,
    component_param_count,
    free_param_count,
    max_admissible_q,
)

from .helpers import make_rng, random_component, random_mixture


# ---------------------------------------------------------------- validation


def test_data_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        DataMatrix(values=np.zeros((1, 3)))  # n >= 2
    with pytest.raises(ValueError):
        DataMatrix(values=np.zeros((3, 0)))  # p >= 1
    with pytest.raises(ValueError):
        DataMatrix(values=np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_data_matrix_labels_contract():
    d = DataMatrix(values=np.zeros((3, 2)), labels=np.array([0, 1, 0]))
    assert d.labels.dtype == np.int64
    with pytest.raises(ValueError):
        DataMatrix(values=np.zeros((3, 2)), labels=np.array([0, -1, 0]))
    with pytest.raises(ValueError):
        DataMatrix(values=np.zeros((3, 2)), labels=np.array([0, 1]))


def test_data_matrix_is_immutable():
    d = DataMatrix(values=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        d.values[0, 0] = 1.0


def test_component_params_validation():
    ok = ComponentParams(weight=0.5, mean=np.zeros(4),
                         loadings=np.zeros((4, 1)),
                         uniquenesses=np.ones(4))
    assert ok.p == 4
    with pytest.raises(ValueError):
        ComponentParams(weight=0.0, mean=np.zeros(4),
                        loadings=np.zeros((4, 1)),
                        uniquenesses=np.ones(4))
    with pytest.raises(ValueError):
        ComponentParams(weight=0.5, mean=np.zeros(4),
                        loadings=np.zeros((4, 1)),
                        uniquenesses=np.full(4, PSI_MIN / 2))
    with pytest.raises(ValueError):
        # q=2 exceeds max_admissible_q(2)=0
        ComponentParams(weight=0.5, mean=np.zeros(2),
                        loadings=np.zeros((2, 2)),
                        uniquenesses=np.ones(2))


def test_mixture_model_weight_sum():
    rng = make_rng(3)
    good = random_mixture(5, (1, 1), rng)
    assert math.isclose(math.fsum(c.weight for c in good.components), 1.0,
                        abs_tol=1e-12)
    bad = [random_component(5, 1, rng, weight=0.6),
           random_component(5, 1, rng, weight=0.6)]
    with pytest.raises(ValueError):
        MixtureModel(components=tuple(bad))


def test_responsibilities_rows_sum_to_one():
    Responsibilities(gamma=np.array([[0.25, 0.75], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        Responsibilities(gamma=np.array([[0.25, 0.70], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        Responsibilities(gamma=np.array([[1.25, -0.25]]))


# ------------------------------------------------------------ param counting


def test_free_param_count_examples():
    rng = make_rng(1)
    # K=2, p=10, q=(2,2) -> 1 + 20 + 2*(20+10-1) = 79
    assert free_param_count(random_mixture(10, (2, 2), rng)) == 79
    # K=1, p=1, q=0 -> 0 + 1 + (0+1-0) = 2
    assert free_param_count(random_mixture(1, (0,), rng)) == 2
    # K=2, p=30, q=(19,16) -> 1 + 60 + (570+30-171) + (480+30-120) = 880
    assert free_param_count(random_mixture(30, (19, 16), rng)) == 880


def test_component_param_count_formula():
    for p in (1, 3, 10, 30):
        for q in range(0, max(max_admissible_q(p), 0) + 1):
            assert component_param_count(p, q) == p * q + p - q * (q - 1) // 2


def test_max_admissible_q_examples():
    assert max_admissible_q(10) == 5
    assert max_admissible_q(1) == -1
    assert max_admissible_q(30) == 22


@given(st.integers(min_value=1, max_value=10_000))
def test_max_admissible_q_is_strictly_below_bound(p):
    q = max_admissible_q(p)
    bound = p + (1 - math.sqrt(1 + 8 * p)) / 2
    assert q < bound
    # largest such integer: q+1 must break the strict inequality
    assert not (q + 1) < bound - 1e-9


def test_free_param_count_strictly_increasing_in_q():
    rng = make_rng(2)
    for p in (10, 31, 100):
        cap = max_admissible_q(p)
        counts = [free_param_count(random_mixture(p, (q, 0), rng))
                  for q in range(cap + 1)]
        assert all(b > a for a, b in zip(counts, counts[1:]))


def test_reduction_is_positive_over_grid():
    # s = ((p-q)^2 - (p+q)) / 2 > 0 for all admissible q, p in [2, 200]
    for p in range(2, 201):
        for q in range(0, max_admissible_q(p) + 1):
            s = ((p - q) ** 2 - (p + q)) / 2
            assert s > 0, (p, q, s)


# ------------------------------------------------------------------ FitReport


def _tiny_report(trace):
    rng = make_rng(11)
    model = random_mixture(5, (1,), rng)
    resp = Responsibilities(gamma=np.ones((4, 1)))
    return FitReport(model=model, responsibilities=resp,
                     hard_assignment=np.zeros(4, dtype=np.int64),
                     loglik_trace=np.asarray(trace, dtype=np.float64),
                     bic=0.0, n_iter=len(trace), converged=True,
                     wall_time_s=0.0, engine="gmmfad", seed=0)


def test_fit_report_enforces_ascent():
    r = _tiny_report([-10.0, -9.5, -9.5 - 5e-9])  # within tolerance
    assert r.loglik == pytest.approx(-9.5, abs=1e-6)
    with pytest.raises(ValueError):
        _tiny_report([-10.0, -9.5, -9.6])
