"""Tests for the shared numerical kernels."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import helpers
import oracles
from dahp import optim
from dahp.demand import AffineDemandModel
from dahp.errors import IndefiniteMatrixError
from dahp.optim import (
    TOLERANCES,
    check_spd,
    feasible_start,
    pattern_search,
    simplex_solve,
)
from dahp.storage import _BatteryLp, optimize_price_with_storage


# ---------------------------------------------------------------------------
# SPD check, and the demand model's solve against its checked gain
# ---------------------------------------------------------------------------

SPD_SOLVE_RESIDUAL = 1e-9  # ||A x - rhs|| relative to max(1, ||rhs||)


def _solve(matrix, rhs):
    n = len(rhs)
    model = AffineDemandModel(gain=matrix, intercept_mean=np.zeros(n),
                              intercept_cov=np.zeros((n, n)), cs_constant=0.0)
    return model.solve(rhs)


def test_spd_solve_identity():
    rhs = np.array([1.0, -2.0, 3.0])
    assert np.allclose(_solve(np.eye(3), rhs), rhs, atol=0.0)


def test_spd_solve_diagonal():
    assert np.allclose(_solve(np.diag([2.0, 4.0]), np.array([2.0, 8.0])), [1.0, 2.0])


def test_spd_solve_random_residuals():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = 24
        a = rng.normal(size=(n, n))
        mat = a @ a.T + n * np.eye(n)
        rhs = rng.normal(size=n)
        x = _solve(mat, rhs)
        residual = np.linalg.norm(mat @ x - rhs)
        assert residual <= SPD_SOLVE_RESIDUAL * max(1.0, np.linalg.norm(rhs))


def test_spd_factor_rejects_indefinite():
    with pytest.raises(IndefiniteMatrixError):
        check_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1


def test_spd_factor_rejects_asymmetric():
    with pytest.raises(IndefiniteMatrixError):
        check_spd(np.array([[2.0, 1.0], [0.0, 2.0]]))


def test_spd_factor_rejects_nonsquare():
    with pytest.raises(IndefiniteMatrixError):
        check_spd(np.ones((2, 3)))


@pytest.mark.parametrize("entry", [np.inf, np.nan])
def test_spd_factor_rejects_non_finite(entry):
    matrix = np.eye(3)
    matrix[1, 1] = entry
    with pytest.raises(IndefiniteMatrixError, match="non-finite"):
        check_spd(matrix)


# ---------------------------------------------------------------------------
# simplex
# ---------------------------------------------------------------------------

def _cold(objective, *constraints):
    """A cold solve: phase 2 from the constraints' phase-1 start."""
    return simplex_solve(feasible_start(*constraints), objective)


def test_simplex_box_only():
    # max x s.t. 0 <= x <= 1
    res = _cold(np.array([1.0]), np.zeros((0, 1)), np.zeros(0), np.ones(1))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0, abs=1e-12)


def test_simplex_minimizes_the_negated_objective():
    # min x0 s.t. x0 + x1 = 3 and 0 <= x <= [5, 1] is max -x0
    res = _cold(-np.array([1.0, 0.0]), np.ones((1, 2)), np.array([3.0]), np.array([5.0, 1.0]))
    assert res.status == "optimal"
    assert -res.objective == pytest.approx(2.0, abs=1e-12)


def test_simplex_beale_cycling_instance():
    # Classic cycling example, a minimization posed as maximizing -obj;
    # Bland's rule must terminate at the minimum -0.05 at x = (0.04, 0, 1, 0).
    # Inequality rows carry explicit slacks.
    obj = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0])
    rows = np.array([
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0],
        [0.50, -90.0, -0.02, 3.0, 0.0, 1.0],
    ])
    upper = np.array([np.inf, np.inf, 1.0, np.inf, np.inf, np.inf])
    res = _cold(-obj, rows, np.zeros(2), upper)
    assert res.status == "optimal"
    assert -res.objective == pytest.approx(-0.05, abs=1e-9)
    assert np.allclose(res.x[:4], [0.04, 0.0, 1.0, 0.0], atol=1e-9)


def test_simplex_infeasible_detected():
    res = _cold(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), np.array([3.0]), np.ones(2))
    assert res.status == "infeasible"
    assert res.x is None


def test_simplex_unbounded_detected():
    res = _cold(np.array([1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0]), np.full(2, np.inf))
    assert res.status == "unbounded"


def test_simplex_unbounded_without_constraint_rows():
    # max x with x >= 0 and no row at all: the improving column has nothing to block it
    res = _cold(np.array([1.0]), np.zeros((0, 1)), np.zeros(0), np.full(1, np.inf))
    assert res.status == "unbounded"


def test_simplex_redundant_row_terminates():
    rows = np.array([[1.0, 1.0], [2.0, 2.0]])  # second row redundant
    res = _cold(np.array([3.0, 1.0]), rows, np.array([1.0, 2.0]), np.full(2, np.inf))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0, abs=1e-10)


def test_simplex_returns_its_optimal_basis_and_tableau():
    # Beale's instance again: the tableau rows express the basic variables,
    # whose values sit in the rhs column, and no reduced cost improves.
    obj = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0])
    rows = np.array([
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0],
        [0.50, -90.0, -0.02, 3.0, 0.0, 1.0],
    ])
    upper = np.array([np.inf, np.inf, 1.0, np.inf, np.inf, np.inf])
    res = _cold(-obj, rows, np.zeros(2), upper)
    # one slack column and one row per finite upper bound
    assert res.tableau.shape == (3 + 1, 6 + 1 + 1)
    assert len(res.basis) == 3 and len(set(res.basis)) == 3
    body = res.tableau[:-1, :-1]
    assert np.allclose(body[:, res.basis], np.eye(3), atol=1e-12)
    y = np.zeros(7)
    y[res.basis] = res.tableau[:-1, -1]
    assert np.array_equal(y[:6], res.x)
    assert np.all(res.tableau[-1, :-1] <= TOLERANCES["simplex_pivot"])
    infeasible = _cold(np.ones(2), np.ones((1, 2)), np.array([3.0]), np.ones(2))
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
        res = _cold(c, a, b, upper)
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


def _objective(pi):
    """The arbitrage LP's objective at tariff ``pi``: its constraints do
    not depend on the tariff, only the objective does."""
    return np.concatenate([-pi, pi, np.zeros(pi.size)])


def _strictly_optimal(result):
    nonbasic = np.ones(result.tableau.shape[1] - 1, dtype=bool)
    nonbasic[result.basis] = False
    return bool(result.tableau[-1, :-1][nonbasic].max() < -TOLERANCES["simplex_pivot"])


@pytest.mark.parametrize("name", sorted(helpers.REUSE_BATTERIES))
def test_warm_start_matches_cold_solve_and_linprog(name):
    battery = helpers.REUSE_BATTERIES[name]
    lp = _BatteryLp(battery, 24)
    feasible = feasible_start(lp.eq_matrix, lp.eq_rhs, lp.upper)
    rng = np.random.default_rng(24)
    atol = 64 * np.finfo(float).eps * battery.capacity
    strict = warm_pivots = cold_pivots = 0
    for _ in range(20):
        start = simplex_solve(feasible, _objective(rng.uniform(0.05, 0.3, size=24)))
        objective = _objective(rng.uniform(0.05, 0.3, size=24))
        warm = simplex_solve(start, objective)
        cold = simplex_solve(feasible, objective)
        assert warm.status == cold.status == "optimal"
        reference = linprog(-objective, A_eq=lp.eq_matrix, b_eq=lp.eq_rhs,
                            bounds=[(0.0, u) for u in lp.upper], method="highs")
        assert reference.status == 0
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
        assert warm.objective == pytest.approx(-reference.fun, rel=1e-9, abs=1e-12)
        if _strictly_optimal(warm):
            # a unique optimal vertex: the cold solve's, up to rounding
            assert np.allclose(warm.x, cold.x, rtol=0.0, atol=atol)
            strict += 1
        warm_pivots += warm.pivots
        cold_pivots += feasible.pivots + cold.pivots  # a cold two-phase solve
    lossless = battery.charge_eff * battery.discharge_eff == 1.0
    assert strict == 0 if lossless else strict > 0
    assert warm_pivots < cold_pivots


@pytest.mark.parametrize("name", sorted(helpers.REUSE_BATTERIES))
def test_warm_start_at_its_own_objective_makes_no_pivots(name):
    lp = _BatteryLp(helpers.REUSE_BATTERIES[name], 24)
    objective = _objective(helpers.DEFAULT_WHOLESALE * 1.3)
    start = simplex_solve(feasible_start(lp.eq_matrix, lp.eq_rhs, lp.upper), objective)
    again = simplex_solve(start, objective)
    assert start.pivots > 0 and again.pivots == 0
    assert again.x.tobytes() == start.x.tobytes()
    assert np.array_equal(again.basis, start.basis) and again.basis is not start.basis
    assert again.tableau is not start.tableau


@pytest.mark.parametrize("upper, optimum", [([1.0, 1.0], [1.0, 0.5]), ([1.5, 1.0], [1.5, 0.0])])
def test_each_program_keeps_its_own_bounds(upper, optimum):
    # Two programs with the row x0 + x1 = 1.5 and as many finite bounds:
    # from its own start, and from its own optimum, each maximizes x0
    # within its own box.  A start is the only handle on its program, so
    # neither can be solved with the other's bounds.
    objective = np.array([1.0, 0.0])
    res = simplex_solve(feasible_start(np.ones((1, 2)), [1.5], upper), objective)
    assert res.status == "optimal" and np.array_equal(res.x, optimum)
    assert simplex_solve(res, objective).x.tobytes() == res.x.tobytes()


@pytest.mark.parametrize("eq_matrix, eq_rhs, upper, message", [
    ([[1.0, 1.0]], [1.0], [np.nan, np.inf], "nonnegative"),       # a NaN bound would read as no bound
    ([[1.0, 1.0]], [1.0], [-1.0, np.inf], "nonnegative"),         # x0 <= -1 would be dropped from phase 1
    ([[1.0, 1.0]], [1.0], [-np.inf, np.inf], "nonnegative"),
    ([[1.0, np.inf]], [1.0], [1.0, 1.0], "finite"),
    ([[1.0, np.nan]], [1.0], [1.0, 1.0], "finite"),
    ([[1.0, 1.0]], [np.inf], [1.0, 1.0], "finite"),
    ([[1.0, 1.0]], [np.nan], [1.0, 1.0], "finite"),
    ([[1.0, 1.0, 1.0]], [1.0], [1.0, 1.0], "shape"),              # a column too many
    ([[1.0, 1.0]], [1.0, 2.0], [1.0, 1.0], "shape"),              # a rhs entry too many
    ([1.0, 1.0], [1.0], [1.0, 1.0], "shape"),                     # a 1-D matrix
    ([[1.0, 1.0]], [[1.0]], [1.0, 1.0], "shape"),                 # a 2-D rhs
    ([[1.0, 1.0]], [1.0], [[1.0, 1.0]], "shape"),                 # 2-D bounds
], ids=["nan-upper", "negative-upper", "minus-inf-upper", "inf-matrix", "nan-matrix", "inf-rhs", "nan-rhs",
        "matrix-width", "rhs-length", "1d-matrix", "2d-rhs", "2d-upper"])
def test_feasible_start_rejects_invalid_programs(eq_matrix, eq_rhs, upper, message):
    with pytest.raises(ValueError, match=message):
        feasible_start(eq_matrix, eq_rhs, upper)


@pytest.mark.parametrize("upper", [[np.inf, np.inf, 1.0, np.inf, np.inf, np.inf], [2.0, 1.0, 1.0, 3.0, 2.0, 2.0]],
                         ids=["one-slack", "all-slacks"])
def test_reduced_cost_map_gives_the_tableau_reduced_costs(upper):
    # Beale's rows with one or six finite bounds: G maps any costs p of the
    # variables through cost_map = I to the optimal basis's nonbasic
    # reduced costs, which at the solved costs are the tableau's last row.
    rows = np.array([
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0],
        [0.50, -90.0, -0.02, 3.0, 0.0, 1.0],
    ])
    costs = -np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0])
    res = _cold(costs, rows, np.zeros(2), np.array(upper))
    g = optim.reduced_cost_map(res, np.eye(6))
    body = res.tableau[:-1, :-1]
    nonbasic = np.ones(body.shape[1], dtype=bool)
    nonbasic[res.basis] = False
    assert g.shape == (np.count_nonzero(nonbasic), 6)
    assert np.allclose(g @ costs, res.tableau[-1, :-1][nonbasic], rtol=0.0, atol=1e-12)
    other = np.zeros(body.shape[1])
    other[:6] = np.random.default_rng(5).normal(size=6)
    assert np.allclose(g @ other[:6], other[nonbasic] - other[res.basis] @ body[:, nonbasic], rtol=0.0, atol=1e-12)


def test_simplex_pivots_a_zero_artificial_out_of_the_basis():
    # x1 + x2 = 0 and x1 - x2 = 0: phase 1 ends after one pivot with the
    # second row's artificial basic at level zero, and the drive-out pivots
    # x2 in for it; the start counts both pivots.
    start = feasible_start(np.array([[1.0, 1.0], [1.0, -1.0]]), np.zeros(2), np.full(2, np.inf))
    assert start.status == "feasible" and start.pivots == 2
    res = simplex_solve(start, np.ones(2))
    assert res.status == "optimal" and res.pivots == 0
    assert np.array_equal(res.basis, [0, 1])
    assert np.array_equal(res.tableau[:-1, :-1], np.eye(2))
    assert np.array_equal(res.x, np.zeros(2))


_SPECIAL_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0**-1040, -1e-310, 2.2250738585072014e-308])


def _with_specials(rng, x, share):
    """``x`` with about ``share`` of its entries replaced by signed zeros and subnormals."""
    mask = rng.random(x.shape) < share
    x[mask] = rng.choice(_SPECIAL_VALUES, size=mask.sum())
    return x


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 160), data=st.data(), zero_costs=st.floats(0.0, 1.0), specials=st.floats(0.0, 0.5),
       seed=st.integers(0, 2**32 - 1))
def test_objective_row_subtracts_the_basis_rows_in_order(n, data, zero_costs, specials, seed):
    # Phase 2 starts from c minus c_j times each basis row with c_j != 0,
    # subtracted in basis order; one subtract.reduce over those rows must
    # keep every bit of the loop it replaces, zero signs and subnormals too.
    rng = np.random.default_rng(seed)
    m = data.draw(st.integers(0, n))
    tableau = _with_specials(rng, rng.normal(size=(m + 1, n + 1)) * 10.0 ** rng.integers(-12, 12, size=(m + 1, 1)),
                             specials)
    basis = rng.permutation(n)[:m].astype(np.intp)
    objective = _with_specials(rng, rng.normal(size=n) * 10.0 ** rng.integers(-6, 6, size=n), specials)
    objective[rng.random(n) < zero_costs] = 0.0
    start = optim.LpResult(x=None, objective=np.nan, status="feasible", basis=basis.copy(), tableau=tableau,
                           variables=n)
    rows = []

    def first_row(tableau, basis, n_cols):
        rows.append(tableau[-1].copy())
        return "optimal", 0

    with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
        patch.setattr(optim, "_bland_pivot_loop", first_row)
        simplex_solve(start, objective)
        expected = oracles.objective_row_by_loop(tableau, basis, np.append(objective, 0.0))
    assert rows[0].tobytes() == expected.tobytes()
    assert start.tableau is tableau and np.array_equal(start.basis, basis)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=st.integers(2, 100), cols=st.integers(2, 150), zeros=st.floats(0.0, 0.95),
       seed=st.integers(0, 2**32 - 1))
def test_pivot_skips_only_rows_a_full_update_leaves_equal(rows, cols, zeros, seed):
    # _pivot updates only the other rows with a nonzero in the pivot column.
    # The full rank-1 update subtracts 0 * (pivot row) from the rest, which
    # changes nothing but turns -0.0 - -0.0 into 0.0: the two tableaus are
    # equal as floats and differ, if at all, only there.
    rng = np.random.default_rng(seed)
    tableau = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-8, 8, size=(rows, 1))
    mask = rng.random(tableau.shape) < zeros
    tableau[mask] = rng.choice([0.0, -0.0], size=mask.sum())
    row, col = int(rng.integers(rows)), int(rng.integers(cols))
    tableau[row, col] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    sparse, dense = tableau.copy(), tableau.copy()
    optim._pivot(sparse, row, col)
    oracles.dense_pivot(dense, row, col)
    assert np.array_equal(sparse, dense)
    differ = sparse.view(np.int64) != dense.view(np.int64)
    assert np.all(sparse[differ] == 0.0)
    assert np.all(np.signbit(sparse[differ])) and not np.any(np.signbit(dense[differ]))
    updated = tableau[:, col] != 0.0
    updated[row] = False  # the full update subtracts 0 * itself from the pivot row too
    assert not np.any(differ[updated])


def test_no_output_reads_the_sign_of_a_skipped_zero(monkeypatch):
    # The -0.0 that _pivot leaves where the full update writes 0.0 reaches
    # only comparisons with the tolerance, products and sums, which give
    # the same nonzero values, and x = 0.0 + y, which makes 0.0 of it
    # either way.  So with the full update every start, solve and
    # storage search keeps its bits.  Random sparse rows with a negative
    # rhs start out with -0.0 entries (phase 1 negates those rows), so some
    # of their tableaus do differ in the sign of a zero.
    rng = np.random.default_rng(28)
    problems = []
    for _ in range(40):
        n = int(rng.integers(3, 9))
        a = rng.normal(size=(int(rng.integers(1, n)), n))
        a[rng.random(a.shape) < 0.4] = 0.0
        problems.append((rng.normal(size=n), (a, a @ rng.uniform(0.2, 0.8, size=n), rng.uniform(1.0, 3.0, size=n))))
    tariffs = np.random.default_rng(26).uniform(0.05, 0.3, size=(8, 24))
    model, cost = helpers.random_model(np.random.default_rng(27))
    batteries = [helpers.REUSE_BATTERIES[name] for name in ("lossy", "lossy", "leaky", "unlimited")]

    def solves():
        results = []
        for objective, constraints in problems:
            start = feasible_start(*constraints)
            results += [start, simplex_solve(start, objective)]
        for battery in helpers.REUSE_BATTERIES.values():
            lp = _BatteryLp(battery, 24)
            results.append(lp.feasible)
            for pi in tariffs:
                results += [simplex_solve(lp.feasible, _objective(pi)),
                            simplex_solve(results[-1], _objective(pi))]
        return results, optimize_price_with_storage(model, cost, batteries, eta=0.5, max_evals=150)

    sparse, search = solves()
    monkeypatch.setattr(optim, "_pivot", oracles.dense_pivot)
    dense, dense_search = solves()
    for a, b in zip(sparse, dense, strict=True):
        assert (a.status, a.pivots) == (b.status, b.pivots) and np.array_equal(a.basis, b.basis)
        assert (a.tableau is None) == (b.tableau is None)
        assert a.tableau is None or np.array_equal(a.tableau, b.tableau)
        assert np.asarray(a.x).tobytes() == np.asarray(b.x).tobytes()
        assert np.float64(a.objective).tobytes() == np.float64(b.objective).tobytes()
    assert any(a.tableau is not None and a.tableau.tobytes() != b.tableau.tobytes() for a, b in zip(sparse, dense))
    assert search.price.tobytes() == dense_search.price.tobytes()
    assert (search.objective, search.cs, search.rp) == (dense_search.objective, dense_search.cs, dense_search.rp)
    assert (search.n_evals, search.lp_solves, search.lp_pivots, search.basis_reuses) == (
        dense_search.n_evals, dense_search.lp_solves, dense_search.lp_pivots, dense_search.basis_reuses)
    for battery, plan in search.plans.items():
        for field in ("charge", "discharge", "soc"):
            assert getattr(plan, field).tobytes() == getattr(dense_search.plans[battery], field).tobytes()


# ---------------------------------------------------------------------------
# pattern search
# ---------------------------------------------------------------------------

def test_pattern_search_concave_quadratic():
    target = np.array([1.3, -0.4, 2.2])

    def objective(x):
        return -np.sum((x - target) ** 2, axis=1)

    rng = np.random.default_rng(5)
    for _ in range(10):
        seed = rng.uniform(-3, 3, size=3)
        out = pattern_search(objective, seed, step0=1.0, step_min=1e-6)
        assert not out.truncated
        assert np.max(np.abs(out.point - target)) < 1e-4


def test_pattern_search_constant_objective_returns_seed():
    seed = np.array([2.0, 3.0])
    out = pattern_search(lambda x: np.ones(len(x)), seed, step0=0.5, step_min=1e-3)
    assert np.array_equal(out.point, seed)
    assert out.value == 1.0


def test_pattern_search_budget_flag():
    out = pattern_search(lambda x: -np.sum(x * x, axis=1), np.full(4, 10.0), step0=0.1,
                         step_min=1e-9, max_evals=20)
    assert out.truncated
    assert out.n_evals <= 20


def _sequential_compass_search(objective, seed_point, step0, step_min, max_evals):
    """Reference: the compass search one point at a time, with a scalar
    objective; a poll moves to the first of its best values above the
    current one."""
    x = np.asarray(seed_point, dtype=float).copy()
    best, evals, trace, step, truncated = float(objective(x)), 1, [], float(step0), False
    trace.append(best)
    while step >= step_min and not truncated:
        move_best, move_x = best, None
        for idx in range(x.size):
            for sign in (1.0, -1.0):
                if evals >= max_evals:
                    truncated = True
                    break
                candidate = x.copy()
                candidate[idx] += sign * step
                value = float(objective(candidate))
                evals += 1
                if value > move_best:
                    move_best, move_x = value, candidate
            if truncated:
                break
        if move_x is not None:
            x, best = move_x, move_best
            trace.append(best)
        elif not truncated:
            step *= 0.5
    return x, best, evals, truncated, trace


@pytest.mark.parametrize("max_evals", [1, 9, 40, 10_000])
def test_pattern_search_matches_the_sequential_reference(max_evals):
    # a rugged objective with plateaus (ties) and a NaN region
    rng = np.random.default_rng(6)
    weights = rng.normal(size=(4, 4))

    def scalar(x):
        value = round(-float(np.sum((x @ weights) ** 2)) + float(np.sin(7.0 * x).sum()), 1)
        return np.nan if x[0] > 1.5 else value

    for _ in range(5):
        seed = rng.uniform(-1, 1, size=4)
        out = pattern_search(lambda stack: np.array([scalar(x) for x in stack]), seed,
                             step0=0.5, step_min=1e-3, max_evals=max_evals)
        point, value, evals, truncated, trace = _sequential_compass_search(scalar, seed, 0.5, 1e-3, max_evals)
        assert out.point.tobytes() == point.tobytes()
        assert (out.value, out.n_evals, out.truncated, out.trace) == (value, evals, truncated, trace)


def test_pattern_search_rejects_bad_steps():
    with pytest.raises(ValueError):
        pattern_search(lambda x: np.zeros(len(x)), np.zeros(1), step0=0.1, step_min=0.2)


@pytest.mark.parametrize("step0, step_min", [(np.nan, 1e-3), (0.5, np.nan), (np.inf, 1e-3)],
                         ids=["nan-step0", "nan-step_min", "inf-step0"])
def test_pattern_search_rejects_non_finite_steps(step0, step_min):
    # A NaN step fails every comparison, so it would stop the search at the
    # seed as converged; an infinite one would poll at infinity until the
    # budget runs out.
    with pytest.raises(ValueError, match="step"):
        pattern_search(lambda x: -np.sum(x * x, axis=1), np.ones(2), step0=step0, step_min=step_min,
                       max_evals=100)


@pytest.mark.parametrize("seed", [[0.0, np.nan], [np.inf, 0.0]], ids=["nan", "inf"])
def test_pattern_search_rejects_a_non_finite_seed(seed):
    with pytest.raises(ValueError, match="seed point must be finite"):
        pattern_search(lambda x: -np.sum(x * x, axis=1), seed, step0=0.5, step_min=1e-3, max_evals=100)


def _recording(objective):
    """``objective`` plus a list of the stacks it was called with."""
    calls = []

    def recorded(stack):
        calls.append(stack.copy())
        return objective(stack)

    return recorded, calls


def test_pattern_search_polls_every_neighbour_in_one_call():
    seed = np.array([0.5, -1.0, 2.0])
    objective, calls = _recording(lambda x: -np.sum(x * x, axis=1))
    out = pattern_search(objective, seed, step0=0.25, step_min=0.1)
    assert [len(stack) for stack in calls] == [1] + [6] * (len(calls) - 1)
    assert calls[0].tobytes() == seed[np.newaxis].tobytes()
    # the second call polls the seed in the order +e_0, -e_0, +e_1, ...
    expected = np.repeat(seed[np.newaxis], 6, axis=0)
    for row, (idx, sign) in enumerate((i, s) for i in range(3) for s in (1.0, -1.0)):
        expected[row, idx] += sign * 0.25
    assert calls[1].tobytes() == expected.tobytes()
    assert out.n_evals == sum(len(stack) for stack in calls)


def test_pattern_search_truncated_poll_holds_what_the_budget_leaves():
    objective, calls = _recording(lambda x: -np.sum(x * x, axis=1))
    out = pattern_search(objective, np.full(4, 10.0), step0=0.1, step_min=1e-9, max_evals=20)
    assert [len(stack) for stack in calls] == [1, 8, 8, 3]
    assert out.truncated and out.n_evals == 20
    # a budget spent exactly by a full poll truncates the next one, empty
    objective, calls = _recording(lambda x: -np.sum(x * x, axis=1))
    out = pattern_search(objective, np.full(4, 10.0), step0=0.1, step_min=1e-9, max_evals=17)
    assert [len(stack) for stack in calls] == [1, 8, 8]
    assert out.truncated and out.n_evals == 17


def test_pattern_search_moves_to_the_first_maximum():
    # every neighbour but the seed ties at 1: the first, +e_0, wins
    seed = np.zeros(2)
    out = pattern_search(lambda x: np.where(np.any(x != 0.0, axis=1), 1.0, 0.0), seed,
                         step0=1.0, step_min=1.0, max_evals=5)
    assert out.point.tolist() == [1.0, 0.0] and out.trace == [0.0, 1.0]
    # a tie with the current value is no move
    out = pattern_search(lambda x: np.zeros(len(x)), seed, step0=1.0, step_min=1.0)
    assert out.point.tolist() == [0.0, 0.0] and out.trace == [0.0] and not out.truncated


def test_pattern_search_ignores_nan_values():
    def objective(x):
        # NaN along -e_0, a better value along +e_1 only
        values = -np.sum(x * x, axis=1)
        values[x[:, 0] < 0.0] = np.nan
        return values

    out = pattern_search(objective, np.array([0.0, -1.0]), step0=1.0, step_min=1.0, max_evals=5)
    assert out.point.tolist() == [0.0, 0.0] and out.value == 0.0
    # a NaN seed is never improved upon
    out = pattern_search(lambda x: np.full(len(x), np.nan), np.zeros(2), step0=1.0, step_min=0.5)
    assert out.point.tolist() == [0.0, 0.0] and np.isnan(out.value)
