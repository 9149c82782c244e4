import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ellispec.mvee
from ellispec import ConvergenceError, RankError, solve_mvee

from conftest import random_orthogonal, reference_mvee


def test_unit_cross():
    P = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
    e = solve_mvee(P)
    assert np.allclose(e.X, np.eye(2), atol=1e-6)
    assert list(e.active) == [0, 1, 2, 3]


def test_diagonal_two_points():
    P = np.diag([2.0, 1.0])
    e = solve_mvee(P)
    assert np.allclose(e.X, np.diag([0.25, 1.0]), atol=1e-7)
    assert list(e.active) == [0, 1]
    vals = np.einsum("ij,ji->i", P.T @ e.X, P)
    assert vals[e.active].min() >= 1 - 1e-9


def test_planted_active_set(rng):
    # nonsingular M plus strictly interior combinations Mc with ||c|| < 1
    for _ in range(10):
        k = int(rng.integers(2, 6))
        m = rng.standard_normal((k, k))
        while np.linalg.cond(m) > 100:
            m = rng.standard_normal((k, k))
        c = rng.standard_normal((k, 30))
        c *= (rng.uniform(0.1, 0.9, 30) / np.linalg.norm(c, axis=0))[None, :]
        P = np.column_stack([m, m @ c])
        e = solve_mvee(P)
        assert list(e.active) == list(range(k))


def test_interior_point_excluded_boundary_included(rng):
    P = np.column_stack([np.eye(2), [0.3, 0.2]])
    e = solve_mvee(P)
    vals = np.einsum("ij,ji->i", P.T @ e.X, P)
    assert vals[2] < 1 - 1e-5
    assert 2 not in e.active
    assert {0, 1} <= set(e.active)


def test_certificate_and_feasibility(rng):
    for _ in range(20):
        k = int(rng.integers(2, 8))
        n = int(rng.integers(k + 1, 200))
        P = rng.standard_normal((k, n))
        e = solve_mvee(P)
        assert e.epsilon_achieved <= 1e-7
        minv = np.linalg.inv((P * e.u[None, :]) @ P.T)
        g = np.einsum("ij,ji->i", P.T @ minv, P)
        assert g.max() <= (1 + 1e-7) * k
        vals = np.einsum("ij,ji->i", P.T @ e.X, P)
        assert vals.max() <= 1 + 1e-6
        assert e.u.min() >= 0
        assert e.u.sum() == pytest.approx(1.0, abs=1e-12)


def test_rotation_equivariance(rng):
    k, n = 3, 40
    P = rng.standard_normal((k, n))
    q = random_orthogonal(rng, k)
    e = solve_mvee(P)
    e_rot = solve_mvee(q @ P)
    assert np.allclose(q.T @ e_rot.X @ q, e.X, atol=1e-6)
    assert list(e.active) == list(e_rot.active)


def test_scaling(rng):
    k, n = 3, 25
    P = rng.standard_normal((k, n))
    c = 2.5
    e = solve_mvee(P)
    e_scaled = solve_mvee(c * P)
    assert np.allclose(e_scaled.X, e.X / c**2, atol=1e-8)
    assert list(e.active) == list(e_scaled.active)


def test_rank_deficient_rejected(rng):
    P = np.zeros((3, 10))
    P[:2] = rng.standard_normal((2, 10))
    with pytest.raises(RankError) as err:
        solve_mvee(P)
    assert err.value.numerical_rank == 2


def test_budget_failure_reports_iterations_and_gap(rng):
    P = rng.standard_normal((4, 60))
    with pytest.raises(ConvergenceError, match="after 3 iterations") as err:
        solve_mvee(P, max_iter=3)
    assert err.value.achieved > 1e-7
    assert f"{err.value.achieved:.3e}" in str(err.value)


def test_matches_convex_oracle(rng, monkeypatch):
    cvxpy = pytest.importorskip("cvxpy")
    monkeypatch.setattr(ellispec.mvee, "EPS", 1e-9)
    for _ in range(5):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(k + 1, 13))
        P = rng.standard_normal((k, n))
        e = solve_mvee(P)
        X = cvxpy.Variable((k, k), PSD=True)
        constraints = [cvxpy.quad_form(P[:, i], X) <= 1 for i in range(n)]
        prob = cvxpy.Problem(cvxpy.Maximize(cvxpy.log_det(X)), constraints)
        prob.solve()
        ours = np.linalg.slogdet(e.X)[1]
        assert ours == pytest.approx(prob.value, abs=1e-5)


def test_budget_failure_names_support_and_working_set(rng):
    P = rng.standard_normal((4, 60))
    with pytest.raises(ConvergenceError, match=r"support \d+, working set \d+ of 60"):
        solve_mvee(P, max_iter=3)


def test_stats_count_the_solve(rng):
    P = rng.standard_normal((5, 120))
    e = solve_mvee(P)
    s = e.stats
    assert s["iterations"] == s["khachiyan_steps"] + s["newton_steps"]
    assert s["drop_steps"] <= s["newton_steps"]
    assert s["pricing_rounds"] >= 1
    assert s["support"] == np.count_nonzero(e.u)
    assert 5 <= s["support"] <= s["working_set"] <= 120
    assert s["gap"] == e.epsilon_achieved


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_columns_rejected(value, rng):
    P = rng.standard_normal((3, 10))
    P[1, 7] = value
    with pytest.raises(ValueError, match="column 7 of P is not finite"):
        solve_mvee(P)


def mvee_matrix(k, n, distinct, seed, signs):
    """A k x n matrix whose first ``distinct`` columns are drawn from
    ``seed`` and whose other columns repeat them, times ``signs``: 1.0,
    -1.0 or "mixed" (a random sign per copy)."""
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((k, n))
    copies = rng.integers(0, distinct, size=n - distinct)
    if signs == "mixed":
        signs = rng.choice([1.0, -1.0], size=copies.size)
    P[:, distinct:] = P[:, copies] * signs
    return P


@st.composite
def mvee_inputs(draw):
    """A k x n matrix of rank k, with some columns repeated or negated."""
    k = draw(st.integers(2, 10))
    n = draw(st.integers(k + 1, 300))
    distinct = draw(st.integers(k, n))
    seed = draw(st.integers(0, 2**32 - 1))
    return mvee_matrix(k, n, distinct, seed,
                       draw(st.sampled_from([1.0, -1.0, "mixed"])))


@settings(max_examples=100, deadline=None)
@given(mvee_inputs())
# nine distinct columns, each repeated about 30 times: cond(X) = 1.2e7 and
# |X| up to 2.5e5, so the two solvers' X differ by 6.2e-5 through rounding
# alone (both certify a gap of 4.9e-11 and find the same active set)
@example(P=mvee_matrix(9, 277, 9, 0, 1.0))
def test_matches_reference_solver(P):
    k = P.shape[0]
    e = solve_mvee(P)
    ref = reference_mvee(P)
    minv = np.linalg.inv((P * e.u[None, :]) @ P.T)
    assert np.einsum("ij,ji->i", P.T @ minv, P).max() <= (1 + 1e-7) * k
    assert e.u.min() >= 0
    assert e.u.sum() == pytest.approx(1.0, abs=1e-12)
    # 1e-6, widened by what rounding alone moves an X of this conditioning
    rounding = np.linalg.cond(e.X) * np.finfo(float).eps * np.abs(e.X).max()
    assert np.allclose(e.X, ref.X, rtol=0, atol=1e-6 + rounding)
    assert list(e.active) == list(ref.active)
