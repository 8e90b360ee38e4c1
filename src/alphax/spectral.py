"""A_alpha matrices, certified largest-eigenvalue computation, and the
closed-form spectral bounds.

``alpha_matrix`` assembles A_alpha in numpy from the graph's bit rows
(unpacked to a 0/1 matrix, scaled by 1 - alpha, with alpha*deg on the
diagonal); each entry is the same float a per-edge fill would store.

The eigensolver is LAPACK, through ``numpy.linalg.eigh`` of the full dense
symmetric matrix (orders are <= 64 here).  ``alpha_indices`` solves many
graphs of one order, each at its own alpha, by stacking their A_alpha
matrices into batched ``eigh`` calls, and ``certify_tops`` certifies the
whole stack at once in numpy.  Each result gets a two-sided a-posteriori
bracket on the largest eigenvalue that needs no second solver: the
Rayleigh quotient of the top vector from below (Courant-Fischer), and
Bauer-Fike applied to the whole computed decomposition from above, which
bounds every eigenvalue of the matrix, including any the solver missed.
Every dot product and norm of the certificate is one BLAS ddot per
member (a stacked (1 x N)(N x 1) matmul), so a member's bracket is
bit-equal to the one a single solve gives.  ``alpha_index`` is the one
batch of one: there is one certificate path.  Other solves whose vector
is not needed go through ``numpy.linalg.eigvalsh``.

``screen_alpha_indices`` brackets many indices at once, so that a search
certifies only the graphs that can come near its maximum.  It stacks
the A_alpha matrices of equal-order graphs into batched ``eigh`` calls
and tests each M with one positive vector x, the absolute top vector
raised to at least 1e-8 of its largest entry (disconnected graphs have
zero entries): rho(M) <= max_i (Mx)_i / x_i (Collatz-Wielandt, M >= 0)
and rho(M) >= x.Mx / x.x (Courant-Fischer), both tight for a connected
graph.  M and x are nonnegative, so no sum cancels: a computed ratio has
relative error at most (n + 1) u and the Rayleigh quotient (3n + 1) u,
u = eps / 2.  The ratio matters only below 2 |M|_F >= 2 rho(M), and the
quotient is at most rho(M) <= |M|_F, so one slack 2 (n + 2) eps |M|_F
makes both bounds rigorous.

``jacobi_eigh`` (cyclic Jacobi) and ``power_iteration`` are kept only as
test oracles: they share no code with LAPACK, so agreement with them is
an independent check of the solver and its certificate.  No code path of
the package calls them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .graphs import Graph

DEFAULT_TOL = 1e-10
OFF_DIAGONAL_TOL = 1e-13
TIE_TOL = 1e-9
_EPS = float(np.finfo(np.float64).eps)
# matrix entries per batched eigh call, and the floor, relative to the
# largest entry, of screen_alpha_indices's positive test vector
_SCREEN_ENTRIES = 1 << 18
_SCREEN_FLOOR = 1e-8


class ConvergenceError(ArithmeticError):
    """Eigensolver failed to certify a result; carries the best residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message, residual)  # all of them, so that pickle can rebuild it
        self.residual = residual

    def __str__(self):
        return f"{self.args[0]} (best residual {self.residual:.3e})"


class InvariantError(ArithmeticError):
    """A computed quantity broke a bound that holds in exact arithmetic."""


def _off_norm(a: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part, summed directly (never by
    subtracting the diagonal, which cancels catastrophically near zero)."""
    od = a - np.diag(np.diag(a))
    return float(np.linalg.norm(od))


def jacobi_eigh(m: np.ndarray, off_tol: float = OFF_DIAGONAL_TOL,
                max_sweeps: int = 60) -> tuple[np.ndarray, np.ndarray, int]:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi with
    vectorized row/column rotations.  A test oracle independent of LAPACK.

    Returns (eigenvalues ascending, eigenvector columns, sweep count).
    """
    a = np.array(m, dtype=np.float64)
    n = a.shape[0]
    if n == 0:
        return np.empty(0), np.empty((0, 0)), 0
    v = np.eye(n)
    scale = math.sqrt((a * a).sum())
    threshold = off_tol * max(1.0, scale)
    sweeps = max_sweeps
    for sweep in range(max_sweeps):
        if _off_norm(a) <= threshold:
            sweeps = sweep
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= threshold / (4.0 * n):
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    off = _off_norm(a)
    if off > threshold:
        raise ConvergenceError("Jacobi sweeps did not reach the off-diagonal threshold", off)
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order], sweeps


def power_iteration(m: np.ndarray, shift: float, tol: float = DEFAULT_TOL,
                    max_iter: int = 200_000) -> tuple[float, np.ndarray, int]:
    """Dominant eigenpair of m via power iteration on m + shift*I.  A test
    oracle independent of LAPACK.

    The shift must make the largest eigenvalue of m strictly dominant in
    magnitude; any positive shift does for entrywise-nonnegative m.
    Deterministic all-ones start (never orthogonal to a Perron vector).
    """
    n = m.shape[0]
    if n == 0:
        raise ValueError("empty matrix")
    x = np.full(n, 1.0 / math.sqrt(n))
    rho = float(x @ (m @ x))
    best = math.inf
    for it in range(1, max_iter + 1):
        y = m @ x + shift * x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            raise ConvergenceError("shift failed to establish dominance", best)
        x = y / norm
        rho = float(x @ (m @ x))
        residual = float(np.linalg.norm(m @ x - rho * x))
        best = min(best, residual)
        if residual <= tol:
            return rho, x, it
    raise ConvergenceError(f"power iteration exceeded {max_iter} iterations", best)


# -- A_alpha assembly and index ----------------------------------------


def alpha_matrix(g: Graph, alpha: float) -> np.ndarray:
    """alpha*D + (1-alpha)*A; diagonal alpha*deg(v), off-diagonal (1-alpha) per edge."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    return _alpha_matrices((g,), (alpha,))[0]


def _alpha_matrices(graphs: Sequence[Graph], alphas: Sequence[float]) -> np.ndarray:
    """alpha_matrix of each graph of one order n at its own alpha, stacked
    along axis 0.  A is unpacked from the bit rows: row v as a
    little-endian 64-bit word, whose byte-wise little-endian bits are
    columns 0..63."""
    n = graphs[0].n
    words = np.array([row for g in graphs for row in g.rows], dtype="<u8").view(np.uint8)
    adjacency = np.unpackbits(words.reshape(len(graphs), n, 8), axis=2, count=n,
                              bitorder="little")
    a = np.asarray(alphas, dtype=np.float64)[:, None]
    m = (1.0 - a)[:, :, None] * adjacency
    m.reshape(len(graphs), n * n)[:, ::n + 1] = a * adjacency.sum(axis=2)
    return m


class SpectralResult(NamedTuple):
    """Largest eigenvalue with a certified unit eigenvector and a bracket
    lower <= lambda_max <= upper."""

    rho: float
    vector: np.ndarray
    residual: float
    lower: float
    upper: float

    def perron_scaled(self) -> np.ndarray:
        """The eigenvector rescaled so its maximum entry is 1."""
        top = float(np.max(self.vector))
        if top <= 0.0:
            raise ValueError("eigenvector has no positive maximum entry")
        return self.vector / top


def _solves(graphs: Sequence[Graph], alphas: Sequence[float]):
    """Stacks (m, w, v) of the A_alpha matrices of graphs[i] at alphas[i]
    (one order, at least one graph) and their numpy.linalg.eigh, one
    batched call per at most _SCREEN_ENTRIES matrix entries."""
    n = graphs[0].n
    step = max(1, _SCREEN_ENTRIES // (n * n))  # matrices per batch
    for first in range(0, len(graphs), step):
        m = _alpha_matrices(graphs[first:first + step], alphas[first:first + step])
        yield (m, *np.linalg.eigh(m))


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (k, N) stacks, one BLAS ddot per row,
    so each equals the float numpy.dot gives for that row alone."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each member of a stack, as numpy.linalg.norm of
    that member alone computes it (the square root of one ddot)."""
    flat = a.reshape(len(a), -1)
    return np.sqrt(_dots(flat, flat))


def certify_tops(m: np.ndarray, w: Sequence[np.ndarray], v: Sequence[np.ndarray],
                 tol: float) -> list[SpectralResult]:
    """Certify computed eigendecompositions m[i] ~ v[i] diag(w[i]) v[i]^T
    (each w[i] ascending) of a stack m of k symmetric n x n matrices by a
    two-sided bracket on the largest eigenvalue of each.

    lower is the Rayleigh quotient of the top column, a lower bound for any
    vector (Courant-Fischer).  upper is w_max + |R| sqrt(1+d)/(1-d), where
    R = m v - v diag(w) and d = |v^T v - I| (Frobenius norms, which dominate
    the 2-norms): with v square and d < 1, Bauer-Fike puts every eigenvalue
    of m within that distance of some w_i.  Both bounds are widened by an
    n*eps*|m| slack for the rounding of their own evaluation.
    w and v are stacks or sequences of one array per member; every
    member's shapes are checked before any number.  Raises
    ConvergenceError when a member's v is not a full square basis, or for
    the first member whose top residual or bracket width exceeds tol or
    whose basis is far from orthonormal.
    """
    k, n = len(m), m.shape[-1]
    if len(w) != k or len(v) != k:
        raise ConvergenceError(
            f"{len(w)} spectra and {len(v)} bases for {k} matrices", math.inf)
    for wi, vi in zip(w, v):
        if wi.shape != (n,) or vi.shape != (n, n):
            raise ConvergenceError(
                f"decomposition of shape {wi.shape}, {vi.shape} does not cover order {n}",
                math.inf)
    w, v = np.asarray(w), np.asarray(v)
    rho = w[:, -1]
    x = v[:, :, -1].copy()
    # orient so the dominant entry is positive (Perron sign convention)
    flip = x[np.arange(k), np.abs(x).argmax(axis=1)] < 0
    x[flip] = -x[flip]
    mx = np.matmul(m, x[:, :, None])[:, :, 0]
    residual = _norms(mx - rho[:, None] * x)
    slack = n * _EPS * _norms(m)
    lower = _dots(x, mx) / _dots(x, x) - slack
    delta = _norms(np.matmul(v.transpose(0, 2, 1), v) - np.eye(n))
    spread = _norms(np.matmul(m, v) - v * w[:, None, :])
    with np.errstate(divide="ignore", invalid="ignore"):  # d >= 1 fails below
        upper = w.max(axis=1) + spread * np.sqrt(1.0 + delta) / (1.0 - delta) + slack
    failed = (residual > tol) | ~(delta < 1.0) | ~(upper - lower <= tol)
    if failed.any():
        i = int(failed.argmax())
        if residual[i] > tol:
            raise ConvergenceError("top eigenpair failed residual certification",
                                   float(residual[i]))
        if not delta[i] < 1.0:
            raise ConvergenceError(f"eigenvector basis far from orthonormal "
                                   f"(|V^T V - I| = {delta[i]:.3e})", float(residual[i]))
        raise ConvergenceError(f"certificate bracket [{float(lower[i])!r}, {float(upper[i])!r}] "
                               f"is wider than {tol:.3e}", float(residual[i]))
    return [SpectralResult(*fields) for fields in zip(
        rho.tolist(), x, residual.tolist(), lower.tolist(), upper.tolist())]


def alpha_indices(graphs: Sequence[Graph], alphas: Sequence[float],
                  tol: float = DEFAULT_TOL) -> list[SpectralResult]:
    """Largest eigenvalue of A_alpha of graphs[i] at alphas[i], for graphs
    of one order: batched LAPACK solves (see _solves), each stack
    certified by certify_tops."""
    if len(alphas) != len(graphs):
        raise ValueError(f"{len(alphas)} alphas for {len(graphs)} graphs")
    n = graphs[0].n if graphs else 1
    if n < 1:
        raise ValueError("alpha_index needs at least one vertex")
    if any(g.n != n for g in graphs):
        raise ValueError("certified graphs must share one order")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    for a in alphas:
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"alpha must lie in [0,1], got {a}")
    if not graphs:
        return []
    return [r for m, w, v in _solves(graphs, alphas) for r in certify_tops(m, w, v, tol)]


def alpha_index(g: Graph, alpha: float, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Largest eigenvalue of A_alpha(G): alpha_indices of the one graph."""
    return alpha_indices((g,), (alpha,), tol)[0]


def screen_alpha_indices(graphs: Sequence[Graph], alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Rigorous lower and upper bounds of the A_alpha indices of graphs
    of one order, from batched ``numpy.linalg.eigh`` calls (see the
    module docstring).  Returns two arrays, one entry per graph; a NaN
    bound bounds nothing."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    if not graphs:
        return np.empty(0), np.empty(0)
    n = graphs[0].n
    if n < 1 or any(g.n != n for g in graphs):
        raise ValueError("screened graphs must share one order of at least one vertex")
    lowers, uppers = [], []
    for m, _, v in _solves(graphs, (alpha,) * len(graphs)):
        x = np.abs(v[:, :, -1])
        x = np.maximum(x, _SCREEN_FLOOR * x.max(axis=1, keepdims=True))
        mx = np.matmul(m, x[:, :, None])[:, :, 0]
        slack = 2.0 * (n + 2) * _EPS * np.sqrt((m * m).sum(axis=(1, 2)))
        lowers.append((x * mx).sum(axis=1) / (x * x).sum(axis=1) - slack)
        uppers.append((mx / x).max(axis=1) + slack)
    return np.concatenate(lowers), np.concatenate(uppers)


# -- closed forms -------------------------------------------------------


def join_quotient_index(n: int, s: int, alpha: float) -> float:
    """Index of K_s joined with n-s independent vertices, from its 2x2 quotient.

    Largest root of x^2 - (alpha*n + s - 1)x + (2*alpha*n - alpha*s - alpha
    - n + s)s, evaluated with the cancellation-safe quadratic form.  The
    discriminant is taken as (p - q)^2 + 4*(1-alpha)^2*s*(n-s), where p and
    q are the quotient's diagonal entries: b^2 - 4c cancels to a negative
    number near alpha = 1 when n = s + 1.
    """
    if not n > s >= 1:
        raise ValueError(f"need n > s >= 1, got n={n}, s={s}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    b = -(alpha * n + s - 1.0)
    c = (2.0 * alpha * n - alpha * s - alpha - n + s) * s
    gap = alpha * (n - 1 - s) + (1.0 - alpha) * (s - 1)
    disc = gap * gap + 4.0 * (1.0 - alpha) ** 2 * s * (n - s)
    if not 0.0 <= disc < math.inf:
        raise InvariantError(f"discriminant {disc} is not a finite nonnegative number "
                             f"for n={n}, s={s}, alpha={alpha}")
    if b == 0.0:
        return math.sqrt(disc) / 2.0
    qq = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
    return max(qq, c / qq)


def f_inequality(rho: float, n: int, s: int, alpha: float) -> bool:
    """Whether rho*(rho + 1 - alpha*n) >= (1-alpha)(n-s)s."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    return rho * (rho + 1.0 - alpha * n) >= (1.0 - alpha) * (n - s) * s


class NikiforovBounds(NamedTuple):
    basic: float
    strong: float | None
    threshold: float


def nikiforov_lower_bound(n: int, k: int, alpha: float) -> NikiforovBounds:
    """Lower bounds on the alpha-index of K_k joined with n-k independent vertices.

    basic = alpha*(n-1) + (1-alpha)*(k-1) always; the stronger bound
    alpha*n + (2k-1-(2k+1)alpha)/(2alpha) applies once n reaches the
    stated threshold.
    """
    if not n >= k >= 1:
        raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    basic = alpha * (n - 1) + (1.0 - alpha) * (k - 1)
    threshold = ((2 * k - 1) ** 2 / (2.0 * alpha * alpha)
                 - (8 * k * k - 2 * k - 1) / (2.0 * alpha)
                 + 2 * k * (k + 1))
    strong = None
    if n >= threshold:
        strong = alpha * n + (2 * k - 1 - (2 * k + 1) * alpha) / (2.0 * alpha)
    return NikiforovBounds(basic=basic, strong=strong, threshold=threshold)


# -- equitable partitions -----------------------------------------------


class NonEquitablePartitionError(ValueError):
    """Partition is not equitable; names a violating vertex pair."""


class QuotientMatrix(NamedTuple):
    """Cross-degree matrix of an equitable vertex partition."""

    cells: tuple[tuple[int, ...], ...]
    counts: np.ndarray  # counts[i][j] = neighbors in cell j of any vertex of cell i

    def alpha_weighted(self, alpha: float) -> np.ndarray:
        """Quotient of A_alpha: alpha*total-degree diagonal plus (1-alpha)*counts."""
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0,1], got {alpha}")
        degrees = self.counts.sum(axis=1)
        return alpha * np.diag(degrees) + (1.0 - alpha) * self.counts

    def alpha_index(self, alpha: float) -> float:
        """Largest eigenvalue of the alpha-weighted quotient.

        Symmetrized by cell sizes (n_i * counts_ij = n_j * counts_ji for
        equitable partitions) so the certified symmetric solver applies.
        """
        sizes = np.array([len(c) for c in self.cells], dtype=float)
        scale = np.sqrt(sizes)
        m = self.alpha_weighted(alpha)
        sym = m * scale[:, None] / scale[None, :]
        asymmetry = float(np.max(np.abs(sym - sym.T)))
        if not asymmetry < 1e-9:
            raise NonEquitablePartitionError(
                f"counts do not symmetrize by the cell sizes (asymmetry {asymmetry:.3e})")
        sym = (sym + sym.T) / 2.0
        return float(np.linalg.eigvalsh(sym)[-1])


def quotient_matrix(g: Graph, cells) -> QuotientMatrix:
    """Cross-degree quotient of a vertex partition, verified equitable."""
    cells = tuple(tuple(sorted(c)) for c in cells)
    seen: set[int] = set()
    for cell in cells:
        if not cell:
            raise ValueError("empty cell in partition")
        for v in cell:
            if v in seen or not 0 <= v < g.n:
                raise ValueError(f"vertex {v} repeated or out of range")
            seen.add(v)
    if len(seen) != g.n:
        raise ValueError("cells do not cover the vertex set")
    k = len(cells)
    counts = np.zeros((k, k))
    for i, cell in enumerate(cells):
        for j, other in enumerate(cells):
            other_mask = 0
            for u in other:
                other_mask |= 1 << u
            first = (g.rows[cell[0]] & other_mask).bit_count()
            for v in cell[1:]:
                d = (g.rows[v] & other_mask).bit_count()
                if d != first:
                    raise NonEquitablePartitionError(
                        f"vertices {cell[0]} and {v} of cell {i} have "
                        f"{first} vs {d} neighbors in cell {j}"
                    )
            counts[i, j] = first
    return QuotientMatrix(cells=cells, counts=counts)
