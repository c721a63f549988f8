"""Numerical kernels: a positive-definiteness check, a dense simplex LP
solver whose phase-1 start carries its program and serves every objective
over it, the reduced-cost maps of its optimal bases, and coordinate pattern
search.

Everything here is deterministic and dense (24-hour horizons are tiny), but
the simplex skips tableau rows whose update would change no bit.  A basis
is an ``np.intp`` array of standard-form column indices, one per tableau
row, updated in place by the pivots.  All tolerances live in
``TOLERANCES`` so library code and tests agree on them.
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
class LpResult:
    x: np.ndarray | None
    objective: float
    status: str  # "feasible" (a start) | "optimal" | "infeasible" | "unbounded"
    # Starts and optimal solves only: the basis (an np.intp array of each
    # tableau row's standard-form column) and the tableau, whose rows are
    # B^-1 A | B^-1 b over the program's ``variables`` columns followed by
    # one slack per finite upper bound, and whose last row holds an optimal
    # solve's reduced costs.  Together they are the program phase 2 solves.
    basis: np.ndarray | None = None
    tableau: np.ndarray | None = None
    pivots: int = 0  # simplex pivots this phase made
    variables: int = 0  # the program's variable count


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Pivot on ``tableau[row, col]`` by a rank-1 update of the other rows with a nonzero
    in the column; updating the rest would at most turn a -0.0 into 0.0, which nothing reads."""
    tableau[row] /= tableau[row, col]
    eliminate = tableau[:, col].copy()
    eliminate[row] = 0.0
    rows = eliminate.nonzero()[0]
    tableau[rows] -= eliminate[rows, np.newaxis] * tableau[row]


def _bland_pivot_loop(tableau: np.ndarray, basis: np.ndarray, n_cols: int) -> tuple[str, int]:
    """Run simplex pivots on a tableau whose last row is the (maximize)
    reduced-cost row and last column is the rhs, updating ``basis`` in
    place.  Bland's rule: entering variable is the lowest-index column with
    reduced cost above tolerance, leaving row breaks ratio ties by lowest
    basis index, which guarantees termination.  Returns "optimal" or
    "unbounded" and the pivot count.
    """
    tol = TOLERANCES["simplex_pivot"]
    m = tableau.shape[0] - 1
    reduced, rhs = tableau[m, :n_cols], tableau[:m, -1]  # views: _pivot writes in place
    for pivots in itertools.count():
        entering = int((reduced > tol).argmax())
        if reduced[entering] <= tol:
            return "optimal", pivots
        column = tableau[:m, entering]
        rows = (column > tol).nonzero()[0]
        ratios = rhs[rows] / column[rows]
        if rows.size == 0 or not math.isfinite(best := ratios.min()):
            return "unbounded", pivots  # an improving direction no row blocks
        tied = rows[ratios <= best + tol]
        leave = int(tied[basis[tied].argmin()])
        _pivot(tableau, leave, entering)
        basis[leave] = entering


def feasible_start(eq_matrix: np.ndarray, eq_rhs: np.ndarray, upper: np.ndarray) -> LpResult:
    """Phase 1 of the dense simplex for ``eq_matrix @ x = eq_rhs`` and
    ``0 <= x <= upper`` (upper bounds may be ``np.inf``): a feasible basis
    and its tableau (status "feasible"), a start that carries the program,
    from which ``simplex_solve`` maximizes any objective over it, since
    phase 1 reads none; or status "infeasible" with neither.

    Raises ``ValueError`` unless the shapes are (m, n), (m,) and (n,), the
    equality rows are finite and every upper bound is nonnegative or
    ``np.inf``."""
    tol = TOLERANCES["simplex_pivot"]
    eq_matrix, eq_rhs, upper = (np.asarray(x, dtype=float) for x in (eq_matrix, eq_rhs, upper))
    if upper.ndim != 1 or eq_rhs.ndim != 1 or eq_matrix.shape != (eq_rhs.size, upper.size):
        raise ValueError(f"eq_matrix, eq_rhs and upper must have shapes (m, n), (m,) and (n,), "
                         f"got {eq_matrix.shape}, {eq_rhs.shape} and {upper.shape}")
    if not (np.isfinite(eq_matrix).all() and np.isfinite(eq_rhs).all()):
        raise ValueError("eq_matrix and eq_rhs must be finite")
    if not np.all(upper >= 0.0):  # NaN included, which would read as no bound
        raise ValueError("upper bounds must be nonnegative or np.inf")
    n = upper.size

    # Fold finite upper bounds in as rows x_i + s_i = u_i, so the standard
    # form is A y = b, y >= 0.
    bounded = np.flatnonzero(np.isfinite(upper))
    k, m0 = bounded.size, len(eq_rhs)
    a_std = np.zeros((m0 + k, n + k))
    a_std[:m0, :n] = eq_matrix
    bound_rows = m0 + np.arange(k)
    a_std[bound_rows, bounded] = a_std[bound_rows, n + np.arange(k)] = 1.0
    b_std = np.concatenate([eq_rhs, upper[bounded]])

    neg = b_std < 0
    a_std[neg] *= -1.0
    b_std[neg] *= -1.0

    m, n_std = a_std.shape

    # The bound rows start feasible on their own slacks (their rhs is a
    # nonnegative bound), so only the equality rows need artificial
    # variables; maximize minus their sum.
    tableau = np.zeros((m + 1, n_std + m0 + 1))
    tableau[:m, :n_std] = a_std
    tableau[:m0, n_std:n_std + m0] = np.eye(m0)
    tableau[:m, -1] = b_std
    basis = np.concatenate([n_std + np.arange(m0), n + np.arange(k)]).astype(np.intp)
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
    return LpResult(x=None, objective=np.nan, status="feasible", basis=basis[keep_rows],
                    tableau=start, pivots=pivots, variables=n)


def simplex_solve(start: LpResult, objective: np.ndarray) -> LpResult:
    """Phase 2 of the dense simplex, deterministic by Bland's rule: maximize
    ``objective @ x`` over the program of ``start``, which is a
    ``feasible_start`` or any optimal result grown from one, from a copy of
    its basis and tableau.  An infeasible start gives an infeasible result."""
    if start.status == "infeasible":
        return LpResult(x=None, objective=np.nan, status="infeasible")
    n, width = start.variables, start.tableau.shape[1]
    tableau, basis = start.tableau.copy(), start.basis.copy()
    c = np.zeros(width)  # the costs, and 0 above the rhs
    c[:n] = objective
    # c minus c_j times each basis row with c_j != 0, subtracted in basis
    # order into one buffer: c_j - z_j, whose positive entries improve
    c_basis = c[basis]
    costly = c_basis.nonzero()[0]
    rows = np.empty((costly.size + 1, width))
    rows[0] = c
    np.multiply(c_basis[costly, np.newaxis], tableau[costly], out=rows[1:])
    np.subtract.reduce(rows, axis=0, out=tableau[-1])
    status, pivots = _bland_pivot_loop(tableau, basis, width - 1)
    if status == "unbounded":
        return LpResult(x=None, objective=np.inf, status="unbounded", pivots=pivots)
    y = np.zeros(width - 1)
    y[basis] = tableau[:-1, -1]
    x = 0.0 + y[:n]  # a -0.0 left by _pivot becomes 0.0
    return LpResult(x=x, objective=float(c[:n] @ x), status="optimal", basis=basis,
                    tableau=tableau, pivots=pivots, variables=n)


def reduced_cost_map(result: LpResult, cost_map: np.ndarray) -> np.ndarray:
    """Dense (nonbasic x N) matrix G with ``G @ p`` = the nonbasic reduced
    costs d_N = c_N - (B^-1 A_N)^T c_B of an optimal result's basis at the
    objective ``c = cost_map @ p``, for any p; ``cost_map`` is (variables, N).
    With P that map padded by a zero row per slack, G = P_N - (B^-1 A_N)^T P_B
    is read off the optimal tableau."""
    inverse_a = result.tableau[:-1, :-1]
    padded = np.zeros((inverse_a.shape[1], cost_map.shape[1]))
    padded[:result.variables] = cost_map
    free = np.ones(inverse_a.shape[1], dtype=bool)
    free[result.basis] = False
    return padded[free] - inverse_a[:, free].T @ padded[result.basis]


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
    if not 0 < step_min <= step0 < math.inf:
        raise ValueError("need 0 < step_min <= step0 < inf")
    x = np.asarray(seed_point, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("the seed point must be finite")
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
