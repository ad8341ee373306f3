"""Radon points of finite point sets in Euclidean space.

Radon's theorem guarantees that any r = d + 2 points in d-dimensional space
can be split into two disjoint subsets whose convex hulls intersect.  A point
in that intersection (a Radon point) is obtained from a non-zero solution of

    sum_i lam_i * s_i = 0      and      sum_i lam_i = 0,

by splitting the indices into I = {i : lam_i >= 0} and J = {j : lam_j < 0}
and forming the common convex combination

    point = sum_{i in I} (lam_i / L) * s_i = sum_{j in J} (-lam_j / L) * s_j,

where L = sum_{i in I} lam_i.  Every operation here is a pure function of
its inputs.

``_radon_stack`` computes the Radon points of a whole stack of sets: one
stacked LAPACK solve with coefficient 0 pinned to 1, and the scaled-pivoting
elimination of ``solve_radon_system`` only for the sets that solve fails.
``radon_point`` is its batch of one, and every point it emits is checked
against its certificate.  The kernel and its certificate check hold the
stack sets-last, (r, d, n): their reductions run over leading axes with the
n sets as the contiguous inner axis, and give the bits of the per-set
(n, r, d) formulas (see ``_radon_stack``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateSetError, ShapeError, require

# Residual tolerance for accepting a candidate coefficient vector, scaled by
# input magnitude; pivots below PIVOT_RTOL times the row scale count as zero.
RESIDUAL_RTOL = 1e-9
PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class RadonCertificate:
    """Checkable witness that ``point`` lies in both convex hulls.

    lam:        full coefficient vector, one entry per input point
    pos_idx:    indices with lam >= 0 (zero entries land here)
    neg_idx:    indices with lam < 0
    lambda_sum: L, the total positive mass; the convex weights are
                lam[pos_idx] / L and -lam[neg_idx] / L
    point:      the common point of the two convex combinations
    pin:        index of the coefficient the winning solve pinned to 1
    """

    lam: np.ndarray
    pos_idx: np.ndarray
    neg_idx: np.ndarray
    lambda_sum: float
    point: np.ndarray
    pin: int = 0


def radon_number(dim: int) -> int:
    """Radon number of d-dimensional Euclidean space: d + 2."""
    require(dim >= 1, "dimension", "be >= 1", dim)
    return dim + 2


def as_point_array(points) -> np.ndarray:
    """Validate and return points as a (count, dim) float64 array."""
    try:
        pts = np.asarray(points, dtype=np.float64)
    except ValueError as exc:
        raise ShapeError(f"points are not a rectangular numeric array: {exc}") from exc
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
        raise ShapeError(f"expected a 2-d array of points, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise DataError("points contain non-finite coordinates")
    return pts


def solve_radon_system(points) -> np.ndarray:
    """Return a non-zero coefficient vector for r = dim + 2 points.

    One coefficient is pinned to 1 and the remaining square system is solved
    by Gaussian elimination with scaled partial pivoting.  Colinear or
    duplicated inputs make the pinned system singular; free variables are
    then set to zero, and if the resulting candidate does not satisfy both
    defining equations (the pinned coefficient is zero in every solution),
    the next pin position is tried.  The first pin whose candidate passes
    the residual check wins, which makes the result a deterministic function
    of the input order.
    """
    return _first_passing_pin(points)[0]


def _check_count(r: int, dim: int) -> None:
    if r != dim + 2:
        raise ShapeError(f"need exactly {dim + 2} points in dimension {dim}, got {r}")


def _first_passing_pin(points) -> tuple[np.ndarray, int]:
    """solve_radon_system's coefficient vector and its winning pin."""
    pts = as_point_array(points)
    r, dim = pts.shape
    _check_count(r, dim)

    # Rows: the dim coordinate equations plus the coefficient-sum equation.
    h_mat = np.vstack([pts.T, np.ones((1, r))])
    tol = RESIDUAL_RTOL * (1.0 + float(np.abs(pts).max()))

    for pin in range(r):
        a = np.delete(h_mat, pin, axis=1)
        b = -h_mat[:, pin]
        x = _solve_allowing_free_vars(a.copy(), b.copy())
        lam = np.insert(x, pin, 1.0)
        residual = float(np.abs(h_mat @ lam).max())
        if residual <= tol and np.any(lam < 0.0):
            return lam, pin

    # Unreachable for finite inputs: r points in r-2 dimensions are always
    # affinely dependent, so some coordinate of some solution is non-zero.
    raise DegenerateSetError("no pin position yields a non-zero solution")


def _solve_allowing_free_vars(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b in place, setting rank-deficient columns to zero.

    Scaled partial pivoting; a column whose best pivot is below PIVOT_RTOL
    times the owning row's scale is treated as free (x entry 0).  For
    inconsistent systems the returned x simply fails the caller's residual
    check.
    """
    n = b.size
    row_scale = np.maximum(np.abs(a).max(axis=1), 1e-300)
    pivot_row_of_col = np.full(n, -1, dtype=np.intp)
    row = 0
    for col in range(n):
        ratios = np.abs(a[row:, col]) / row_scale[row:]
        p = row + int(np.argmax(ratios))
        if np.abs(a[p, col]) <= PIVOT_RTOL * row_scale[p]:
            continue  # free column
        if p != row:
            a[[row, p]] = a[[p, row]]
            b[[row, p]] = b[[p, row]]
            row_scale[[row, p]] = row_scale[[p, row]]
        factors = a[row + 1:, col] / a[row, col]
        a[row + 1:, col:] -= np.outer(factors, a[row, col:])
        b[row + 1:] -= factors * b[row]
        pivot_row_of_col[col] = row
        row += 1

    x = np.zeros(n)
    for col in range(n - 1, -1, -1):
        rw = pivot_row_of_col[col]
        if rw < 0:
            continue
        x[col] = (b[rw] - a[rw, col + 1:] @ x[col + 1:]) / a[rw, col]
    return x


def _radon_stack(pts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Radon points of a stack of finite sets, ``pts`` of shape (n, r, r - 2).

    Returns the coefficient vectors (n, r), winning pins (n,), positive
    masses L (n,), points (n, r - 2) and each point's certify() residual
    (n,).  Every set is solved at pin 0 by one stacked LAPACK call.  A set
    passes when its pinned matrix is not exactly singular, its residual is
    within tolerance and some coefficient is negative; every other set goes
    through solve_radon_system's elimination and first-passing-pin rule.
    Each point is the convex combination of its set's non-negative side,
    and every point is checked against its certificate (see _certify_stack).

    Layout: the stack is held sets-last, as ``h_t`` (r, d + 1, n), the
    columns of every set's matrix [points^T; 1] with the n sets as the
    contiguous inner axis; its first d rows are ``pts_t`` (r, d, n).
    Reductions then run over leading axes, one vector operation per point
    or row, instead of one short reduction per set.  The bits are those of
    the per-set (n, r, d) formulas.  Maxima (tolerance, residual, sign
    check, worst violation) are exact in any order.  Sums over a set's r
    points (the residual, the point, both combinations of the check) add
    them left to right over the leading axis, as numpy added them in the
    per-set arrays, where r was a strided axis or shorter than 8.  Sums of
    a set's r weights (the masses, the check's normalisation) keep r as
    the contiguous inner axis, because numpy sums that pairwise once
    r >= 8.  The LAPACK stacks stay (n, r - 1, r - 1).
    """
    n, r, dim = pts.shape
    _check_count(r, dim)
    h_t = np.ones((r, dim + 1, n))
    h_t[:, :dim] = pts.transpose(1, 2, 0)
    pts_t = h_t[:, :dim]
    a = h_t[1:].transpose(2, 1, 0).copy()
    # An exactly singular matrix has a zero LU pivot, so its determinant is
    # 0 (or not finite when the product overflows); an identity stand-in
    # keeps the stacked solve from raising, and the set falls back.
    det = np.linalg.det(a)
    regular = np.isfinite(det) & (det != 0.0)
    a[~regular] = np.eye(r - 1)
    x = np.linalg.solve(a, -h_t[0].T[:, :, None])[:, :, 0]
    lam = np.concatenate([np.ones((n, 1)), x], axis=1)
    lam_t = lam.T.copy()
    pins = np.zeros(n, dtype=np.intp)

    tol = RESIDUAL_RTOL * (1.0 + np.abs(pts_t).max(axis=(0, 1)))
    residual = np.abs((h_t * lam_t[:, None, :]).sum(axis=0)).max(axis=0)
    passed = regular & (residual <= tol) & (lam_t < 0.0).any(axis=0)
    # Free the solve's stacks: the certificate check below is the peak.
    del a, x, lam_t
    for i in np.flatnonzero(~passed):
        lam[i], pins[i] = _first_passing_pin(pts[i])

    weights = np.where(lam >= 0.0, lam, 0.0)
    lambda_sum = weights.sum(axis=1)
    w = weights / lambda_sum[:, None]
    point = (w.T[:, None, :] * pts_t).sum(axis=0).T.copy()
    worst = _certify_stack(pts_t, lam, lambda_sum, point, tol)
    return lam, pins, lambda_sum, point, worst


def _violations(pts_t, lam, pos, lambda_sum, point) -> np.ndarray:
    """Per-set largest violation of the certificate conditions (see certify),
    for a stack of sets stored sets-last, ``pts_t`` (r, d, n), with
    coefficients (n, r), non-negative-side masks (n, r), masses (n,) and
    points (n, d)."""
    w_pos = np.where(pos, lam, 0.0) / lambda_sum[:, None]
    w_neg = np.where(pos, 0.0, -lam) / lambda_sum[:, None]
    # Sign check: coefficients on the wrong side of the split.
    worst = np.maximum(np.where(pos, -lam, lam), 0.0).T.copy().max(axis=0)
    for w in (w_pos, w_neg):
        worst = np.maximum(worst, np.abs(w.sum(axis=1) - 1.0))
        comb = (w.T[:, None, :] * pts_t).sum(axis=0)
        worst = np.maximum(worst, np.abs(comb - point.T).max(axis=0))
    return worst


def _certify_stack(pts_t, lam, lambda_sum, point, tol) -> np.ndarray:
    """Each set's largest violation of its certificate, split by the signs of
    its coefficients; DegenerateSetError unless every one is within its
    tolerance.  ``pts_t`` is the stack sets-last, (r, d, n)."""
    worst = _violations(pts_t, lam, lam >= 0.0, lambda_sum, point)
    failed = np.flatnonzero(~(worst <= tol))
    if failed.size:
        i = int(failed[0])
        raise DegenerateSetError(
            f"Radon point of set {i} violates its certificate by {worst[i]:.3g} "
            f"(tolerance {tol[i]:.3g})"
        )
    return worst


def radon_point(points) -> RadonCertificate:
    """Compute a Radon point of r = dim + 2 points, with its certificate."""
    pts = as_point_array(points)
    lam, pins, lambda_sum, point, _ = _radon_stack(pts[None])
    lam = lam[0]
    return RadonCertificate(
        lam=lam,
        pos_idx=np.flatnonzero(lam >= 0.0),
        neg_idx=np.flatnonzero(lam < 0.0),
        lambda_sum=float(lambda_sum[0]),
        point=point[0],
        pin=int(pins[0]),
    )


def certify(points, cert: RadonCertificate) -> float:
    """Largest violation of the certificate's defining conditions.

    Checks, independently of how the certificate was produced: sign
    conditions of the raw coefficients on each side, normalisation of both
    convex-weight vectors, and agreement of both convex combinations with
    the stated point.  Returns 0 (up to rounding) for a valid certificate.
    """
    pts = as_point_array(points)
    r = pts.shape[0]
    lam = np.asarray(cert.lam, dtype=np.float64)
    if lam.shape != (r,):
        raise ShapeError(f"coefficient vector has length {lam.size}, expected {r}")
    pos = np.asarray(cert.pos_idx, dtype=np.intp)
    neg = np.asarray(cert.neg_idx, dtype=np.intp)
    merged = np.sort(np.concatenate([pos, neg]))
    if not np.array_equal(merged, np.arange(r)):
        raise ShapeError("index sets do not partition the point set")
    point = np.asarray(cert.point, dtype=np.float64)
    if point.shape != (pts.shape[1],):
        raise ShapeError(f"certificate point has shape {point.shape}, expected ({pts.shape[1]},)")
    if not cert.lambda_sum > 0.0:
        return float("inf")

    pos_mask = np.zeros(r, dtype=bool)
    pos_mask[pos] = True
    worst = _violations(
        pts[:, :, None], lam[None], pos_mask[None], np.array([cert.lambda_sum]), point[None]
    )
    return float(worst[0])
