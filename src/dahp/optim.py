"""Numerical kernels: a positive-definiteness check, a dense simplex LP
solver whose phase-1 start serves every objective over its constraints,
and coordinate pattern search.

Everything here is deterministic and dense (24-hour horizons are tiny), but
the simplex skips tableau rows whose update would change no bit.  All
tolerances live in ``TOLERANCES`` so library code and tests agree on them.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import IndefiniteMatrixError

# Central tolerance table.  Keys are referenced by tests as well as by the
# solvers themselves; change values here, nowhere else.
TOLERANCES = {
    "spd_reconstruction": 1e-10,   # ||L L^T - A||_inf relative to ||A||_inf
    "simplex_pivot": 1e-11,        # reduced-cost / pivot-element threshold
    "plan_feasibility": 1e-9,      # battery plan constraint slack
}


# ---------------------------------------------------------------------------
# symmetric positive definite check
# ---------------------------------------------------------------------------

def check_spd(matrix: np.ndarray) -> np.ndarray:
    """Return ``matrix`` as a float array after checking it is symmetric
    positive definite.

    Raises ``IndefiniteMatrixError`` when the matrix is not square, finite
    and symmetric, when the Cholesky decomposition fails, or when its factor
    does not reconstruct the matrix; the decomposition is the package's
    positive-definiteness test.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise IndefiniteMatrixError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise IndefiniteMatrixError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > 1e-8 * scale:
        raise IndefiniteMatrixError("matrix is not symmetric")
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteMatrixError(f"matrix is not positive definite: {exc}") from exc
    recon = float(np.abs(lower @ lower.T - a).max())
    if recon > TOLERANCES["spd_reconstruction"] * scale:
        raise IndefiniteMatrixError(
            f"factorization reconstruction error {recon:.3e} exceeds tolerance"
        )
    return a


# ---------------------------------------------------------------------------
# dense simplex with Bland's rule
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class LpProblem:
    """Constraints ``eq_matrix @ x = eq_rhs`` and ``lower <= x <= upper`` of
    linear programs that ``simplex_solve`` maximizes objectives over.

    Upper bounds may be ``np.inf``.  To minimize, negate the objective.
    """

    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.eq_matrix = np.atleast_2d(np.asarray(self.eq_matrix, dtype=float))
        self.eq_rhs = np.atleast_1d(np.asarray(self.eq_rhs, dtype=float))
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        n = self.lower.size
        if self.eq_matrix.size == 0:
            self.eq_matrix = self.eq_matrix.reshape(0, n)
        m = self.eq_matrix.shape[0]
        if self.eq_matrix.shape != (m, n) or self.eq_rhs.shape != (m,):
            raise ValueError("inconsistent LP constraint dimensions")
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("bounds must match the number of variables")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.eq_rhs))):
            raise ValueError("lower bounds and rhs must be finite")


@dataclass(eq=False)
class LpResult:
    x: np.ndarray | None
    objective: float
    status: str  # "feasible" (a start) | "optimal" | "infeasible" | "unbounded"
    # Starts and optimal solves only: the basis (standard-form column per
    # tableau row) and the tableau, whose rows are B^-1 A | B^-1 b over the
    # shifted variables followed by one slack per finite upper bound, and
    # whose last row holds an optimal solve's reduced costs.
    basis: list[int] | None = None
    tableau: np.ndarray | None = None
    pivots: int = 0  # simplex pivots this phase made


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Pivot on ``tableau[row, col]`` by a rank-1 update of the other rows with a nonzero
    in the column; updating the rest would at most turn a -0.0 into 0.0, which nothing reads."""
    tableau[row] /= tableau[row, col]
    eliminate = tableau[:, col].copy()
    eliminate[row] = 0.0
    rows = eliminate.nonzero()[0]
    tableau[rows] -= eliminate[rows, np.newaxis] * tableau[row]


def _bland_pivot_loop(tableau: np.ndarray, basis: list[int], n_cols: int) -> tuple[str, int]:
    """Run simplex pivots on a tableau whose last row is the (maximize)
    reduced-cost row and last column is the rhs.  Bland's rule: entering
    variable is the lowest-index column with reduced cost above tolerance,
    leaving row breaks ratio ties by lowest basis index, which guarantees
    termination.  Returns "optimal" or "unbounded" and the pivot count.
    """
    tol = TOLERANCES["simplex_pivot"]
    m = tableau.shape[0] - 1
    basis_arr = np.asarray(basis, dtype=int)
    ratios = np.empty(m)
    try:
        for pivots in itertools.count():
            reduced = tableau[m, :n_cols]
            entering = int((reduced > tol).argmax())
            if reduced[entering] <= tol:
                return "optimal", pivots
            if m == 0:
                return "unbounded", pivots  # improving direction with no blocking row
            column = tableau[:m, entering]
            positive = column > tol
            ratios.fill(np.inf)
            np.divide(tableau[:m, -1], column, out=ratios, where=positive)
            best = ratios.min()
            if not math.isfinite(best):
                return "unbounded", pivots
            tied = (ratios <= best + tol).nonzero()[0]
            leave = int(tied[basis_arr[tied].argmin()])
            _pivot(tableau, leave, entering)
            basis_arr[leave] = entering
    finally:
        basis[:] = basis_arr.tolist()


def feasible_start(problem: LpProblem) -> LpResult:
    """Phase 1 of the dense simplex: a feasible basis of the constraints and
    its tableau (status "feasible"), from which ``simplex_solve`` maximizes
    any objective, since phase 1 reads none; or status "infeasible" with neither."""
    tol = TOLERANCES["simplex_pivot"]
    n = problem.lower.size

    # Shift lower bounds to zero and fold finite upper bounds in as rows
    # y_i + s_i = u_i - l_i, so the standard form is A y = b, y >= 0.
    span = problem.upper - problem.lower
    bounded = [int(j) for j in np.flatnonzero(np.isfinite(span))]
    k = len(bounded)
    m0 = problem.eq_matrix.shape[0]
    a_std = np.zeros((m0 + k, n + k))
    a_std[:m0, :n] = problem.eq_matrix
    b_std = np.concatenate([problem.eq_rhs - problem.eq_matrix @ problem.lower, span[bounded]])
    for r, j in enumerate(bounded):
        a_std[m0 + r, j] = 1.0
        a_std[m0 + r, n + r] = 1.0

    neg = b_std < 0
    a_std[neg] *= -1.0
    b_std[neg] *= -1.0

    m, n_std = a_std.shape

    # The bound rows start feasible on their own slacks (their rhs is a
    # nonnegative span), so only the equality rows need artificial
    # variables; maximize minus their sum.
    tableau = np.zeros((m + 1, n_std + m0 + 1))
    tableau[:m, :n_std] = a_std
    tableau[:m0, n_std:n_std + m0] = np.eye(m0)
    tableau[:m, -1] = b_std
    basis = [n_std + i for i in range(m0)] + [n + r for r in range(k)]
    # reduced costs for a cost of -1 per artificial with the mixed
    # artificial/slack starting basis
    tableau[m, :n_std] = a_std[:m0].sum(axis=0)
    tableau[m, -1] = b_std[:m0].sum()
    status, pivots = _bland_pivot_loop(tableau, basis, n_std)
    rhs_scale = max(1.0, float(np.abs(b_std[:m0]).max())) if m0 else 1.0
    if status != "optimal" or tableau[m, -1] > 1e-8 * rhs_scale:
        return LpResult(x=None, objective=np.nan, status="infeasible", pivots=pivots)

    # Drive any artificial variables out of the basis; drop redundant rows.
    keep_rows = []
    for i in range(m):
        if basis[i] >= n_std:
            col = int(np.argmax(np.abs(tableau[i, :n_std]) > tol))
            if abs(tableau[i, col]) <= tol:
                continue  # redundant constraint row
            _pivot(tableau, i, col)
            basis[i] = col
            pivots += 1
        keep_rows.append(i)

    # Original columns + rhs; simplex_solve rewrites the last row.
    start = tableau[np.ix_(keep_rows + [m], list(range(n_std)) + [n_std + m0])]
    return LpResult(x=None, objective=np.nan, status="feasible", basis=[basis[i] for i in keep_rows],
                    tableau=start, pivots=pivots)


def simplex_solve(problem: LpProblem, objective: np.ndarray, start: LpResult) -> LpResult:
    """Phase 2 of the dense simplex, deterministic by Bland's rule: maximize
    ``objective @ x`` from a copy of ``start``, which is ``feasible_start(problem)``
    or any optimal result for the same constraints.  An infeasible start
    gives an infeasible result; one of another width raises ValueError."""
    n = problem.lower.size
    if start.status == "infeasible":
        return LpResult(x=None, objective=np.nan, status="infeasible")
    width = n + np.count_nonzero(np.isfinite(problem.upper - problem.lower)) + 1
    if start.tableau is None or start.tableau.shape[1] != width:
        raise ValueError("the start does not match the problem's standard form")
    tableau, basis = start.tableau.copy(), list(start.basis)
    c = np.zeros(width)  # the costs, and 0 above the rhs
    c[:n] = objective
    # c minus c_j times each basis row with c_j != 0, subtracted in basis
    # order: c_j - z_j, whose positive entries are improving directions
    c_basis = c[basis]
    costly = c_basis.nonzero()[0]
    tableau[-1] = np.subtract.reduce(np.vstack([c, c_basis[costly, np.newaxis] * tableau[costly]]), axis=0)
    status, pivots = _bland_pivot_loop(tableau, basis, width - 1)
    if status == "unbounded":
        return LpResult(x=None, objective=np.inf, status="unbounded", pivots=pivots)
    y = np.zeros(width - 1)
    y[basis] = tableau[:-1, -1]
    x = problem.lower + y[:n]
    return LpResult(x=x, objective=float(c[:n] @ x), status="optimal", basis=basis,
                    tableau=tableau, pivots=pivots)


# ---------------------------------------------------------------------------
# pattern search
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PatternSearchResult:
    point: np.ndarray
    value: float
    n_evals: int
    truncated: bool          # stopped by the evaluation budget
    trace: list              # the seed's value, then the best after each move


def pattern_search(
    objective: Callable[[np.ndarray], np.ndarray],
    seed_point: Sequence[float],
    step0: float,
    step_min: float,
    max_evals: int = 10_000,
) -> PatternSearchResult:
    """Maximize ``objective`` by deterministic compass search.

    ``objective`` maps a (k, N) stack of points to their (k,) values.  Each
    poll is one call on the 2N points +/- step along every coordinate, in
    the order +e_0, -e_0, +e_1, ...; the search moves to the first of the
    best values above the current one (a NaN never moves it) and halves
    the step when none is.  It stops when the step falls below
    ``step_min`` (no coordinate move of the final polled size improves) or
    when the evaluation budget runs out, in which case the last poll holds
    only the points the budget has left and the result is flagged
    ``truncated``.
    """
    if step0 <= 0 or step_min <= 0 or step_min > step0:
        raise ValueError("need 0 < step_min <= step0")
    x = np.asarray(seed_point, dtype=float).copy()
    best = float(objective(x[np.newaxis])[0])
    evals = 1
    trace = [best]
    step = float(step0)
    truncated = False
    coords = np.repeat(np.arange(x.size), 2)
    signs = np.tile([1.0, -1.0], x.size)
    while step >= step_min and not truncated:
        k = min(coords.size, max(max_evals - evals, 0))
        truncated = k < coords.size
        if k == 0:
            break
        poll = np.repeat(x[np.newaxis], k, axis=0)
        poll[np.arange(k), coords[:k]] += signs[:k] * step
        values = np.asarray(objective(poll), dtype=float)
        evals += k
        better = values > best
        if better.any():
            move = int(np.argmax(np.where(better, values, -np.inf)))
            x, best = poll[move], float(values[move])
            trace.append(best)
        elif not truncated:
            step *= 0.5
    return PatternSearchResult(point=x, value=best, n_evals=evals, truncated=truncated, trace=trace)
