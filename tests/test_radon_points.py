"""Radon point construction, certificates, and geometric invariants."""

import numpy as np
import pytest
from conftest import draw_convex_function

from radon_machine import (
    ConfigError,
    DataError,
    DegenerateSetError,
    RadonCertificate,
    ShapeError,
    certify,
    radon_number,
    radon_point,
    solve_radon_system,
)
from radon_machine import radon_points
from radon_machine.radon_points import _certify_stack, _radon_stack, _violations

FORCED_SINGLETON = [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [1.0, 1.0]]


class TestRadonNumber:
    def test_line(self):
        assert radon_number(1) == 3

    def test_known_feature_counts(self):
        assert radon_number(18) == 20
        assert radon_number(28) == 30

    def test_zero_dimension_rejected(self):
        with pytest.raises(ConfigError):
            radon_number(0)


class TestSolveRadonSystem:
    def test_three_points_on_line(self):
        lam = solve_radon_system([[0.0], [1.0], [2.0]])
        assert np.allclose(lam, [1.0, -2.0, 1.0], atol=1e-12)

    def test_forced_singleton_partition(self):
        # The first pin is infeasible here (its coefficient is zero in every
        # solution), so the solver must advance to the next pin.
        points = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        lam = solve_radon_system(points)
        assert np.allclose(lam, [0.0, 1.0, 1.0, -2.0], atol=1e-12)

    def test_duplicate_points(self):
        lam = solve_radon_system([[5.0], [5.0], [5.0]])
        assert np.allclose(lam, [1.0, -1.0, 0.0], atol=1e-15)
        # residual is exactly zero for this dependency
        assert lam.sum() == 0.0
        assert (lam * np.array([5.0, 5.0, 5.0])).sum() == 0.0

    def test_has_both_signs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            dim = int(rng.integers(1, 6))
            lam = solve_radon_system(rng.standard_normal((dim + 2, dim)))
            assert lam.max() > 0 and lam.min() < 0

    def test_wrong_count_rejected(self):
        with pytest.raises(ShapeError):
            solve_radon_system([[0.0], [1.0], [2.0], [3.0]])

    def test_ragged_rejected(self):
        with pytest.raises(ShapeError):
            solve_radon_system([[0.0], [1.0, 2.0], [3.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            solve_radon_system([[0.0], [np.nan], [2.0]])


class TestRadonPoint:
    def test_line_example(self):
        cert = radon_point([[0.0], [1.0], [2.0]])
        assert cert.point == pytest.approx([1.0])
        assert list(cert.pos_idx) == [0, 2]
        assert list(cert.neg_idx) == [1]
        assert cert.lambda_sum == pytest.approx(2.0)

    def test_plane_example(self):
        cert = radon_point([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        assert np.allclose(cert.point, [1.0, 1.0], atol=1e-12)
        # singleton side: the inner point carries full weight on its side
        assert list(cert.neg_idx) == [3]
        assert -cert.lam[3] / cert.lambda_sum == pytest.approx(1.0)

    def test_identical_points(self):
        for dim in (1, 3, 5):
            value = np.full(dim, 2.5)
            cert = radon_point(np.tile(value, (dim + 2, 1)))
            assert np.allclose(cert.point, value, atol=1e-12)

    def test_lambda_sum_at_least_pinned_value(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            dim = int(rng.integers(1, 7))
            cert = radon_point(rng.standard_normal((dim + 2, dim)))
            assert cert.lambda_sum >= 1.0 - 1e-12


class TestRadonStack:
    def test_mixed_stack_matches_radon_point_bit_for_bit(self):
        rng = np.random.default_rng(17)
        degenerate = [
            FORCED_SINGLETON,
            [[1.5, -2.0]] * 4,  # all points equal
            [[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [-2.0, -2.0]],  # collinear
            [[0.3, 1.0], [-1.0, 2.0], [2.0, -0.5], [-1.0, 2.0]],  # one duplicated row
        ]
        random_sets = rng.standard_normal((10, 4, 2))
        stack = np.concatenate([random_sets[:5], degenerate, random_sets[5:]])
        lam, pins, lambda_sum, point, worst = _radon_stack(stack)
        for i, group in enumerate(stack):
            cert = radon_point(group)
            assert np.array_equal(point[i], cert.point)
            assert np.array_equal(lam[i], cert.lam)
            assert (pins[i], lambda_sum[i]) == (cert.pin, cert.lambda_sum)
            assert worst[i] == certify(group, cert)
        assert pins[5] == 1 and radon_point(FORCED_SINGLETON).pin == 1
        assert np.allclose(point[5], [1.0, 1.0], atol=1e-12)
        assert np.array_equal(point[6], [1.5, -2.0])

    def test_agrees_with_scalar_route(self):
        rng = np.random.default_rng(23)
        for r in range(3, 13):
            stack = rng.standard_normal((40, r, r - 2))
            point = _radon_stack(stack)[3]
            for group, got in zip(stack, point):
                lam = solve_radon_system(group)
                pos = lam >= 0.0
                expected = (lam[pos] / lam[pos].sum()) @ group[pos]
                assert np.abs(got - expected).max() <= 1e-12

    def test_certificate_check_rejects_corrupted_coefficients(self):
        stack = np.random.default_rng(29).standard_normal((6, 5, 3))
        lam, _, lambda_sum, point, _ = _radon_stack(stack)
        tol = np.full(6, 1e-9)
        _certify_stack(stack.transpose(1, 2, 0), lam, lambda_sum, point, tol)
        corrupted = lam.copy()
        neg = np.flatnonzero(corrupted[4] < 0.0)[0]
        corrupted[4, neg] *= 1.001
        with pytest.raises(DegenerateSetError, match="set 4"):
            _certify_stack(stack.transpose(1, 2, 0), corrupted, lambda_sum, point, tol)

    def test_fallback_points_are_certified(self, monkeypatch):
        solve = radon_points._first_passing_pin

        def off_by_a_little(points):
            lam, pin = solve(points)
            return lam + np.array([0.0, 0.0, 0.0, -1e-3]), pin

        monkeypatch.setattr(radon_points, "_first_passing_pin", off_by_a_little)
        with pytest.raises(DegenerateSetError):
            radon_point(FORCED_SINGLETON)

    def test_pin_zero_passes_exactly_when_the_left_to_right_residual_is_within_tol(
        self, monkeypatch
    ):
        # The kernel sums a set's residual left to right over its r points;
        # numpy sums a contiguous axis pairwise once r >= 8, which rounds
        # differently.  For sets whose two sums differ, the tolerance is put
        # at the smaller one, so the order of the sum decides whether pin 0
        # passes or the set falls back to the elimination.
        solve = radon_points._first_passing_pin
        fell_back = []

        def recording(points):
            fell_back.append(True)
            return solve(points)

        monkeypatch.setattr(radon_points, "_first_passing_pin", recording)
        rng = np.random.default_rng(41)
        seen = {True: 0, False: 0}
        for _ in range(200):
            r = int(rng.integers(8, 13))
            pts = rng.standard_normal((r, r - 2))
            pts = pts / np.abs(pts).max() * 1023.0  # tol = RESIDUAL_RTOL * 1024, exactly
            h = np.vstack([pts.T, np.ones((1, r))])
            x = np.linalg.solve(h[None, :, 1:], -h[None, :, :1])[0, :, 0]
            lam0 = np.concatenate([[1.0], x])  # pin 0's stacked solve
            terms = np.ascontiguousarray(h * lam0)
            left_to_right = terms[:, 0]
            for k in range(1, r):
                left_to_right = left_to_right + terms[:, k]
            left_to_right = np.abs(left_to_right).max()
            pairwise = np.abs(terms.sum(axis=1)).max()
            if left_to_right == pairwise:
                continue
            tol = min(left_to_right, pairwise)
            monkeypatch.setattr(radon_points, "RESIDUAL_RTOL", tol / 1024.0)
            passes = bool(left_to_right <= tol)
            fell_back.clear()
            try:
                lam, pins = _radon_stack(pts[None])[:2]
            except DegenerateSetError:
                # at a tolerance this tight, the elimination may find no pin
                # or the certificate check may refuse the point; the
                # decision below is made before either
                lam = None
            assert fell_back == ([] if passes else [True])
            if lam is not None:
                want_lam, want_pin = (lam0, 0) if passes else solve(pts)
                assert pins[0] == want_pin and lam[0].tobytes() == want_lam.tobytes()
                seen[passes] += 1
        assert min(seen.values()) >= 20


def _reference_radon_stack(pts):
    """_radon_stack's (n, r, d) formulas before the kernel went sets-last,
    frozen as the reference its bits are held to (no certificate check)."""
    n, r, dim = pts.shape
    h_mat = np.concatenate([pts.transpose(0, 2, 1), np.ones((n, 1, r))], axis=1)
    a = h_mat[:, :, 1:].copy()
    det = np.linalg.det(a)
    regular = np.isfinite(det) & (det != 0.0)
    a[~regular] = np.eye(r - 1)
    x = np.linalg.solve(a, -h_mat[:, :, :1])[:, :, 0]
    lam = np.concatenate([np.ones((n, 1)), x], axis=1)
    pins = np.zeros(n, dtype=np.intp)
    tol = radon_points.RESIDUAL_RTOL * (1.0 + np.abs(pts).max(axis=(1, 2)))
    residual = np.abs((h_mat * lam[:, None, :]).sum(axis=2)).max(axis=1)
    passed = regular & (residual <= tol) & (lam < 0.0).any(axis=1)
    for i in np.flatnonzero(~passed):
        lam[i], pins[i] = radon_points._first_passing_pin(pts[i])
    weights = np.where(lam >= 0.0, lam, 0.0)
    lambda_sum = weights.sum(axis=1)
    point = ((weights / lambda_sum[:, None])[:, :, None] * pts).sum(axis=1)
    return lam, pins, lambda_sum, point


def _reference_violations(pts, lam, pos, lambda_sum, point):
    """_violations' (n, r, d) formulas before the kernel went sets-last."""
    scale = lambda_sum[:, None]
    w_pos = np.where(pos, lam, 0.0) / scale
    w_neg = np.where(pos, 0.0, -lam) / scale
    worst = np.maximum(np.where(pos, -lam, lam), 0.0).max(axis=1)
    for w in (w_pos, w_neg):
        worst = np.maximum(worst, np.abs(w.sum(axis=1) - 1.0))
        comb = (w[:, :, None] * pts).sum(axis=1)
        worst = np.maximum(worst, np.abs(comb - point).max(axis=1))
    return worst


def _reference_stacks(r):
    """20 stacks of r-point sets: 1 to 300 sets, coordinates scaled by
    1e-150 to 1e150, and, in the larger ones, an all-equal, a duplicated, a
    collinear, an all-zero and an all -0.0 set, and a -0.0 point."""
    rng = np.random.default_rng(1000 + r)
    exponents = [-150, -100, -50, -8, 0, 8, 50, 100, 150]
    for k in range(20):
        n = [1, 2, 7, 33, 120, 300][k % 6]
        # Extreme scales send most sets to the elimination fallback, one
        # Python call per set, so the largest stacks keep to 1e-8..1e8.
        exponent = exponents[(7 * k + r) % 9] if n < 300 else exponents[3 + k % 3]
        scale = 10.0**exponent
        pts = rng.standard_normal((n, r, r - 2)) * scale
        if n > 6:
            pts[1] = pts[1, 0]
            pts[2, -1] = pts[2, 0]
            pts[3] = rng.standard_normal((r, 1)) * rng.standard_normal(r - 2) * scale
            pts[4] = 0.0
            pts[5] = -0.0
            pts[6, 1] = -0.0
        yield pts


@pytest.mark.filterwarnings("ignore:overflow encountered in det:RuntimeWarning")
@pytest.mark.parametrize("r", range(3, 16))
def test_kernel_matches_frozen_reference(r):
    """The sets-last kernel and certificate check keep the bits of the
    (n, r, d) formulas; both sides of the mixed-stack test above run the
    kernel, so only a frozen copy can see a change of layout."""
    for pts in _reference_stacks(r):
        got = _radon_stack(pts)
        want = _reference_radon_stack(pts)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        lam, _, lambda_sum, point = want
        # The kernel's own sign split, then one that puts every coefficient
        # on the wrong side, so the sign check reads non-zero; the stack as a
        # transposed view (as certify and the traced tree pass it) and as
        # the kernel's contiguous copy.
        for pos in (lam >= 0.0, lam < 0.0):
            want = _reference_violations(pts, lam, pos, lambda_sum, point)
            for pts_t in (pts.transpose(1, 2, 0), pts.transpose(1, 2, 0).copy()):
                got = _violations(pts_t, lam, pos, lambda_sum, point)
                assert got.tobytes() == want.tobytes()


class TestCertify:
    def test_valid_certificate_is_tight(self):
        points = [[0.0], [1.0], [2.0]]
        assert certify(points, radon_point(points)) <= 1e-12

    def test_perturbed_point_detected(self):
        points = [[0.0], [1.0], [2.0]]
        cert = radon_point(points)
        bad = RadonCertificate(
            lam=cert.lam,
            pos_idx=cert.pos_idx,
            neg_idx=cert.neg_idx,
            lambda_sum=cert.lambda_sum,
            point=cert.point + 0.5,
        )
        assert certify(points, bad) >= 0.5

    def test_negative_weight_detected(self):
        points = [[0.0], [1.0], [2.0]]
        cert = radon_point(points)
        lam = cert.lam.copy()
        lam[cert.pos_idx[0]] = -0.1
        bad = RadonCertificate(
            lam=lam,
            pos_idx=cert.pos_idx,
            neg_idx=cert.neg_idx,
            lambda_sum=cert.lambda_sum,
            point=cert.point,
        )
        assert certify(points, bad) >= 0.1

    def test_length_mismatch_rejected(self):
        points = [[0.0], [1.0], [2.0]]
        cert = radon_point(points)
        bad = RadonCertificate(
            lam=np.array([1.0, -1.0]),
            pos_idx=cert.pos_idx,
            neg_idx=cert.neg_idx,
            lambda_sum=cert.lambda_sum,
            point=cert.point,
        )
        with pytest.raises(ShapeError):
            certify(points, bad)

    def test_malformed_index_sets_rejected(self):
        points = [[0.0], [1.0], [2.0]]
        cert = radon_point(points)
        bad = RadonCertificate(
            lam=cert.lam,
            pos_idx=np.array([0, 1, 2]),
            neg_idx=np.array([1]),
            lambda_sum=cert.lambda_sum,
            point=cert.point,
        )
        with pytest.raises(ShapeError):
            certify(points, bad)


class TestGeometricInvariants:
    def test_hull_membership_random_sets(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dim = int(rng.integers(1, 9))
            points = rng.standard_normal((dim + 2, dim))
            cert = radon_point(points)
            tol = 1e-8 * (1.0 + float(np.abs(points).max()))
            assert certify(points, cert) <= tol

    def test_two_witness_and_single_outlier(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            dim = int(rng.integers(1, 9))
            points = rng.standard_normal((dim + 2, dim))
            q = draw_convex_function(rng, dim)
            q_radon = q(radon_point(points).point)
            values = sorted((q(p) for p in points), reverse=True)
            witnesses = sum(1 for v in values if v >= q_radon - 1e-9)
            assert witnesses >= 2
            assert q_radon <= values[1] + 1e-9

    def test_deterministic_certificates(self):
        rng = np.random.default_rng(3)
        points = rng.standard_normal((6, 4))
        a = radon_point(points)
        b = radon_point(points.copy())
        assert np.array_equal(a.lam, b.lam)
        assert np.array_equal(a.point, b.point)
        assert np.array_equal(a.pos_idx, b.pos_idx)
        assert a.lambda_sum == b.lambda_sum

    def test_affine_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            dim = int(rng.integers(1, 6))
            points = rng.standard_normal((dim + 2, dim))
            scale = float(rng.uniform(0.5, 3.0)) * (-1 if rng.random() < 0.5 else 1)
            shift = rng.standard_normal(dim)
            moved = radon_point(scale * points + shift).point
            expected = scale * radon_point(points).point + shift
            assert np.allclose(moved, expected, rtol=1e-8, atol=1e-8)
