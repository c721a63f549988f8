"""Numerical kernels: SPD solves, a dense simplex LP solver, and coordinate
pattern search.

Everything here is deterministic and dense; problem sizes in this package
are tiny (24-hour horizons), so clarity wins over sparsity tricks.  All
tolerances live in ``TOLERANCES`` so library code and tests agree on them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .errors import IndefiniteMatrixError

# Central tolerance table.  Keys are referenced by tests as well as by the
# solvers themselves; change values here, nowhere else.
TOLERANCES = {
    "spd_reconstruction": 1e-10,   # ||L L^T - A||_inf relative to ||A||_inf
    "spd_solve_residual": 1e-9,    # ||A x - rhs|| relative to ||rhs||
    "simplex_pivot": 1e-11,        # reduced-cost / pivot-element threshold
    "surplus_floor_rtol": 1e-8,    # |cs - floor| <= rtol * max(1, |floor|)
    "plan_feasibility": 1e-9,      # battery plan constraint slack
}


# ---------------------------------------------------------------------------
# symmetric positive definite solves
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SpdFactorization:
    """Cholesky factorization ``matrix = lower @ lower.T`` of an SPD matrix."""

    matrix: np.ndarray
    lower: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def spd_factor(matrix: np.ndarray) -> SpdFactorization:
    """Factor a symmetric positive definite matrix.

    Raises ``IndefiniteMatrixError`` when the matrix is not symmetric or the
    Cholesky decomposition fails; the failure doubles as the package's
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
    return SpdFactorization(matrix=a, lower=lower)


def spd_solve(factorization: SpdFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` using a cached Cholesky factor."""
    y = scipy.linalg.solve_triangular(factorization.lower, rhs, lower=True)
    return scipy.linalg.solve_triangular(factorization.lower.T, y, lower=False)


# ---------------------------------------------------------------------------
# dense simplex with Bland's rule
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class LpProblem:
    """Linear program ``maximize objective @ x`` subject to
    ``eq_matrix @ x = eq_rhs`` and ``lower <= x <= upper``.

    Upper bounds may be ``np.inf``.  Set ``maximize=False`` to minimize.
    """

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    maximize: bool = True

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.eq_matrix = np.atleast_2d(np.asarray(self.eq_matrix, dtype=float))
        self.eq_rhs = np.atleast_1d(np.asarray(self.eq_rhs, dtype=float))
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        n = self.objective.size
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
    status: str  # "optimal" | "infeasible" | "unbounded"
    # Optimal solves only: the final basis (standard-form column per
    # tableau row) and the phase-2 tableau, whose rows are B^-1 A | B^-1 b
    # over the shifted variables followed by one slack per finite upper
    # bound, and whose last row holds the reduced costs.
    basis: list[int] | None = None
    tableau: np.ndarray | None = None


def _bland_pivot_loop(tableau: np.ndarray, basis: list[int], n_cols: int) -> str:
    """Run simplex pivots on a tableau whose last row is the (maximize)
    reduced-cost row and last column is the rhs.  Bland's rule: entering
    variable is the lowest-index column with reduced cost above tolerance,
    leaving row breaks ratio ties by lowest basis index.  Returns "optimal"
    or "unbounded"; Bland's rule guarantees termination.
    """
    tol = TOLERANCES["simplex_pivot"]
    m = tableau.shape[0] - 1
    basis_arr = np.asarray(basis, dtype=int)
    work = np.empty_like(tableau)
    ratios = np.empty(m)
    try:
        while True:
            reduced = tableau[m, :n_cols]
            entering = int(np.argmax(reduced > tol))
            if reduced[entering] <= tol:
                return "optimal"
            if m == 0:
                return "unbounded"  # improving direction with no blocking row
            column = tableau[:m, entering]
            positive = column > tol
            ratios.fill(np.inf)
            np.divide(tableau[:m, -1], column, out=ratios, where=positive)
            best = ratios.min()
            if not np.isfinite(best):
                return "unbounded"
            tied = np.flatnonzero(ratios <= best + tol)
            leave = int(tied[np.argmin(basis_arr[tied])])
            tableau[leave] /= tableau[leave, entering]
            eliminate = tableau[:, entering].copy()
            eliminate[leave] = 0.0
            np.multiply(eliminate[:, np.newaxis], tableau[leave], out=work)
            tableau -= work
            basis_arr[leave] = entering
    finally:
        basis[:] = basis_arr.tolist()


def simplex_solve(problem: LpProblem) -> LpResult:
    """Two-phase dense simplex. Deterministic; Bland's rule prevents cycling."""
    tol = TOLERANCES["simplex_pivot"]
    c0 = problem.objective if problem.maximize else -problem.objective
    n = c0.size

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
    c_std = np.concatenate([c0, np.zeros(k)])

    neg = b_std < 0
    a_std[neg] *= -1.0
    b_std[neg] *= -1.0

    m, n_std = a_std.shape

    # Phase 1: the bound rows start feasible on their own slacks (their rhs
    # is a nonnegative span), so only the equality rows need artificial
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
    status = _bland_pivot_loop(tableau, basis, n_std)
    rhs_scale = max(1.0, float(np.abs(b_std[:m0]).max())) if m0 else 1.0
    if status != "optimal" or tableau[m, -1] > 1e-8 * rhs_scale:
        return LpResult(x=None, objective=np.nan, status="infeasible")

    # Drive any artificial variables out of the basis; drop redundant rows.
    keep_rows = []
    for i in range(m):
        if basis[i] >= n_std:
            pivot_col = -1
            for j in range(n_std):
                if abs(tableau[i, j]) > tol:
                    pivot_col = j
                    break
            if pivot_col < 0:
                continue  # redundant constraint row
            pivot = tableau[i, pivot_col]
            tableau[i] /= pivot
            for r in range(m + 1):
                if r != i and tableau[r, pivot_col] != 0.0:
                    tableau[r] -= tableau[r, pivot_col] * tableau[i]
            basis[i] = pivot_col
        keep_rows.append(i)

    rows = keep_rows
    basis = [basis[i] for i in rows]
    # Phase 2 tableau: original columns + rhs, fresh reduced-cost row.
    body = tableau[np.ix_(rows, list(range(n_std)) + [n_std + m0])]
    m2 = len(rows)
    tab2 = np.zeros((m2 + 1, n_std + 1))
    tab2[:m2] = body
    tab2[m2, :n_std] = c_std
    tab2[m2, -1] = 0.0
    for i in range(m2):
        cb = c_std[basis[i]]
        if cb != 0.0:
            tab2[m2] -= cb * tab2[i]
    # row now holds c_j - z_j: positive entries are improving directions

    status = _bland_pivot_loop(tab2, basis, n_std)
    if status == "unbounded":
        return LpResult(x=None, objective=np.inf if problem.maximize else -np.inf, status="unbounded")

    y = np.zeros(n_std)
    for i in range(m2):
        y[basis[i]] = tab2[i, -1]
    x = problem.lower + y[:n]
    objective = float(problem.objective @ x)
    return LpResult(x=x, objective=objective, status="optimal", basis=basis, tableau=tab2)


# ---------------------------------------------------------------------------
# pattern search
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PatternSearchResult:
    point: np.ndarray
    value: float
    n_evals: int
    n_iterations: int
    truncated: bool          # stopped by the evaluation budget
    trace: list = field(default_factory=list)  # best value after each move


def pattern_search(
    objective: Callable[[np.ndarray], float],
    seed_point: Sequence[float],
    step0: float,
    step_min: float,
    max_evals: int = 10_000,
) -> PatternSearchResult:
    """Maximize ``objective`` by deterministic compass search.

    Polls +/- step along every coordinate, takes the best improving move,
    and halves the step when no move improves.  Stops when the step falls
    below ``step_min`` (no coordinate move of the final polled size
    improves) or when the evaluation budget runs out, in which case the
    result is flagged ``truncated``.
    """
    if step0 <= 0 or step_min <= 0 or step_min > step0:
        raise ValueError("need 0 < step_min <= step0")
    x = np.asarray(seed_point, dtype=float).copy()
    best = float(objective(x))
    evals = 1
    iterations = 0
    trace = [best]
    step = float(step0)
    truncated = False
    while step >= step_min:
        iterations += 1
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
        if truncated:
            break
    return PatternSearchResult(
        point=x, value=best, n_evals=evals, n_iterations=iterations,
        truncated=truncated, trace=trace,
    )
