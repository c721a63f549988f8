"""Tests for the shared numerical kernels."""
import numpy as np
import pytest

from dahp.errors import IndefiniteMatrixError
from dahp.optim import (
    TOLERANCES,
    LpProblem,
    pattern_search,
    simplex_solve,
    spd_factor,
    spd_solve,
)


# ---------------------------------------------------------------------------
# SPD factorization and solves
# ---------------------------------------------------------------------------

def test_spd_solve_identity():
    fact = spd_factor(np.eye(3))
    rhs = np.array([1.0, -2.0, 3.0])
    assert np.allclose(spd_solve(fact, rhs), rhs, atol=0.0)


def test_spd_solve_diagonal():
    fact = spd_factor(np.diag([2.0, 4.0]))
    assert np.allclose(spd_solve(fact, np.array([2.0, 8.0])), [1.0, 2.0])


def test_spd_solve_random_residuals():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = 24
        a = rng.normal(size=(n, n))
        mat = a @ a.T + n * np.eye(n)
        rhs = rng.normal(size=n)
        x = spd_solve(spd_factor(mat), rhs)
        residual = np.linalg.norm(mat @ x - rhs)
        assert residual <= TOLERANCES["spd_solve_residual"] * max(1.0, np.linalg.norm(rhs))


def test_spd_factor_rejects_indefinite():
    with pytest.raises(IndefiniteMatrixError):
        spd_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1


def test_spd_factor_rejects_asymmetric():
    with pytest.raises(IndefiniteMatrixError):
        spd_factor(np.array([[2.0, 1.0], [0.0, 2.0]]))


def test_spd_factor_rejects_nonsquare():
    with pytest.raises(IndefiniteMatrixError):
        spd_factor(np.ones((2, 3)))


@pytest.mark.parametrize("entry", [np.inf, np.nan])
def test_spd_factor_rejects_non_finite(entry):
    matrix = np.eye(3)
    matrix[1, 1] = entry
    with pytest.raises(IndefiniteMatrixError, match="non-finite"):
        spd_factor(matrix)


# ---------------------------------------------------------------------------
# simplex
# ---------------------------------------------------------------------------

def test_simplex_box_only():
    # max x s.t. 0 <= x <= 1
    res = simplex_solve(LpProblem(np.array([1.0]), np.zeros((0, 1)), np.zeros(0),
                                  np.zeros(1), np.ones(1)))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0, abs=1e-12)


def test_simplex_minimize_flag():
    res = simplex_solve(LpProblem(np.array([1.0]), np.zeros((0, 1)), np.zeros(0),
                                  np.array([-2.0]), np.array([5.0]), maximize=False))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-2.0, abs=1e-12)


def test_simplex_beale_cycling_instance():
    # Classic cycling example; Bland's rule must terminate at the optimum
    # -0.05 at x = (0.04, 0, 1, 0).  Inequality rows carry explicit slacks.
    obj = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0])
    rows = np.array([
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0],
        [0.50, -90.0, -0.02, 3.0, 0.0, 1.0],
    ])
    upper = np.array([np.inf, np.inf, 1.0, np.inf, np.inf, np.inf])
    res = simplex_solve(LpProblem(obj, rows, np.zeros(2), np.zeros(6), upper, maximize=False))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.05, abs=1e-9)
    assert np.allclose(res.x[:4], [0.04, 0.0, 1.0, 0.0], atol=1e-9)


def test_simplex_infeasible_detected():
    res = simplex_solve(LpProblem(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]),
                                  np.array([3.0]), np.zeros(2), np.ones(2)))
    assert res.status == "infeasible"
    assert res.x is None


def test_simplex_unbounded_detected():
    res = simplex_solve(LpProblem(np.array([1.0, 0.0]), np.array([[1.0, -1.0]]),
                                  np.array([0.0]), np.zeros(2), np.full(2, np.inf)))
    assert res.status == "unbounded"


def test_simplex_redundant_row_terminates():
    rows = np.array([[1.0, 1.0], [2.0, 2.0]])  # second row redundant
    res = simplex_solve(LpProblem(np.array([3.0, 1.0]), rows, np.array([1.0, 2.0]),
                                  np.zeros(2), np.full(2, np.inf)))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0, abs=1e-10)


def test_simplex_shifted_lower_bounds():
    # max x1 + x2 s.t. x1 + x2 = 3 with 1 <= x <= 2 each
    res = simplex_solve(LpProblem(np.ones(2), np.ones((1, 2)), np.array([3.0]),
                                  np.ones(2), np.full(2, 2.0)))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0, abs=1e-12)
    assert np.all(res.x >= 1.0 - 1e-12) and np.all(res.x <= 2.0 + 1e-12)


def test_simplex_returns_its_optimal_basis_and_tableau():
    # Beale's instance again: the tableau rows express the basic variables,
    # whose values sit in the rhs column, and no reduced cost improves.
    obj = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0])
    rows = np.array([
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0],
        [0.50, -90.0, -0.02, 3.0, 0.0, 1.0],
    ])
    upper = np.array([np.inf, np.inf, 1.0, np.inf, np.inf, np.inf])
    res = simplex_solve(LpProblem(obj, rows, np.zeros(2), np.zeros(6), upper, maximize=False))
    # one slack column and one row per finite upper bound
    assert res.tableau.shape == (3 + 1, 6 + 1 + 1)
    assert len(res.basis) == 3 and len(set(res.basis)) == 3
    body = res.tableau[:-1, :-1]
    assert np.allclose(body[:, res.basis], np.eye(3), atol=1e-12)
    y = np.zeros(7)
    y[res.basis] = res.tableau[:-1, -1]
    assert np.array_equal(y[:6], res.x)
    assert np.all(res.tableau[-1, :-1] <= TOLERANCES["simplex_pivot"])
    infeasible = simplex_solve(LpProblem(np.ones(2), np.ones((1, 2)), np.array([3.0]),
                                         np.zeros(2), np.ones(2)))
    assert infeasible.basis is None and infeasible.tableau is None


def test_simplex_random_instances_against_interior_oracle():
    # Random feasible equality-constrained LPs; verify our optimum is both
    # feasible and at least as good as many random feasible points.
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, n))
        a = rng.normal(size=(m, n))
        interior = rng.uniform(0.2, 0.8, size=n)
        b = a @ interior
        upper = rng.uniform(1.0, 3.0, size=n)
        c = rng.normal(size=n)
        res = simplex_solve(LpProblem(c, a, b, np.zeros(n), upper))
        assert res.status == "optimal"
        assert np.max(np.abs(a @ res.x - b)) < 1e-8
        assert np.all(res.x > -1e-9) and np.all(res.x < upper + 1e-9)
        # random feasible comparisons: project random points onto the
        # equality manifold and clip; skip those that leave the box
        pinv = np.linalg.pinv(a)
        for _ in range(60):
            z = rng.uniform(0.0, 1.0, size=n) * upper
            z = z - pinv @ (a @ z - b)
            if np.all(z >= -1e-12) and np.all(z <= upper + 1e-12):
                assert c @ z <= res.objective + 1e-7


def test_lp_problem_validates_shapes():
    with pytest.raises(ValueError):
        LpProblem(np.ones(2), np.ones((1, 3)), np.ones(1), np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        LpProblem(np.ones(2), np.ones((1, 2)), np.ones(1), np.ones(2), np.zeros(2))


# ---------------------------------------------------------------------------
# pattern search
# ---------------------------------------------------------------------------

def test_pattern_search_concave_quadratic():
    target = np.array([1.3, -0.4, 2.2])

    def objective(x):
        return -float(np.sum((x - target) ** 2))

    rng = np.random.default_rng(5)
    for _ in range(10):
        seed = rng.uniform(-3, 3, size=3)
        out = pattern_search(objective, seed, step0=1.0, step_min=1e-6)
        assert not out.truncated
        assert np.max(np.abs(out.point - target)) < 1e-4


def test_pattern_search_constant_objective_returns_seed():
    seed = np.array([2.0, 3.0])
    out = pattern_search(lambda x: 1.0, seed, step0=0.5, step_min=1e-3)
    assert np.array_equal(out.point, seed)
    assert out.value == 1.0


def test_pattern_search_budget_flag():
    out = pattern_search(lambda x: -float(x @ x), np.full(4, 10.0), step0=0.1,
                         step_min=1e-9, max_evals=20)
    assert out.truncated
    assert out.n_evals <= 20


def test_pattern_search_rejects_bad_steps():
    with pytest.raises(ValueError):
        pattern_search(lambda x: 0.0, np.zeros(1), step0=0.1, step_min=0.2)
