import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from archseg.arch import (
    ARCH_POINTS,
    ArchPolyline,
    RefineParams,
    arch_mse,
    build_target_arch,
    order_centroids,
    refine_arch,
    sample_arch_from_bezier,
)
from archseg.bezier import BezierCurve, bezier_eval
from archseg.synthetic import DEFAULT_ARCH_CONTROL, Votes


def semicircle_centroids(n=14, radius=1.0):
    ang = np.linspace(np.pi, 0.0, n)  # left to right
    return np.stack(
        [radius * np.cos(ang), radius * np.sin(ang), np.zeros(n)], axis=1
    )


def votes_at(positions):
    positions = np.asarray(positions, dtype=np.float64)
    return Votes.from_seeds(
        positions, np.arange(len(positions)), np.zeros_like(positions)
    )


class TestArchPolyline:
    def test_exactly_32_points(self):
        with pytest.raises(ValueError):
            ArchPolyline(np.random.default_rng(0).normal(size=(31, 3)))

    def test_coincident_rejected(self):
        pts = np.cumsum(np.ones((ARCH_POINTS, 3)), axis=0)
        pts[5] = pts[4]
        with pytest.raises(ValueError):
            ArchPolyline(pts)


class TestOrderCentroids:
    def test_semicircle_sorted(self):
        c = semicircle_centroids()
        order = order_centroids(c)
        assert np.array_equal(order, np.arange(14))

    @pytest.mark.parametrize("seed", range(5))
    def test_shuffle_invariance(self, seed):
        c = semicircle_centroids()
        rng = np.random.default_rng(seed)
        perm = rng.permutation(14)
        ordered = c[order_centroids(c)]
        reordered = c[perm][order_centroids(c[perm])]
        assert np.allclose(ordered, reordered)

    def test_left_to_right(self):
        c = semicircle_centroids()
        ordered = c[order_centroids(c)]
        assert ordered[0, 0] < ordered[-1, 0]


class TestBuildTargetArch:
    def test_passes_through_centroids(self):
        c = semicircle_centroids()
        arch = build_target_arch(c)
        for cent in c:
            d = np.linalg.norm(arch.points - cent, axis=1).min()
            assert d < 1e-9

    def test_points_on_chords(self):
        # every arch point lies on some segment between consecutive centroids
        c = semicircle_centroids(8)
        arch = build_target_arch(c)
        ordered = c[order_centroids(c)]
        for p in arch.points:
            on_chord = False
            for a, b in zip(ordered[:-1], ordered[1:]):
                ab = b - a
                t = np.dot(p - a, ab) / np.dot(ab, ab)
                if -1e-9 <= t <= 1 + 1e-9:
                    if np.linalg.norm(a + t * ab - p) < 1e-9:
                        on_chord = True
                        break
            assert on_chord

    def test_shuffled_input_identical(self):
        c = semicircle_centroids()
        rng = np.random.default_rng(3)
        shuffled = c[rng.permutation(14)]
        assert np.allclose(
            build_target_arch(c).points, build_target_arch(shuffled).points
        )


class TestSampleFromBezier:
    def test_left_to_right_orientation(self):
        curve = BezierCurve(DEFAULT_ARCH_CONTROL)
        arch = sample_arch_from_bezier(curve)
        assert arch.points[0, 0] < arch.points[-1, 0]
        rev = BezierCurve(DEFAULT_ARCH_CONTROL[::-1])
        assert np.allclose(sample_arch_from_bezier(rev).points, arch.points, atol=1e-9)


class TestRefineArch:
    def make_arch(self):
        return sample_arch_from_bezier(BezierCurve(DEFAULT_ARCH_CONTROL))

    def test_fixed_point(self):
        arch = self.make_arch()
        # three coincident votes at every arch point -> zero offsets
        positions = np.repeat(arch.points, 3, axis=0)
        refined = refine_arch(arch, votes_at(positions), RefineParams())
        assert np.allclose(refined.points, arch.points, atol=1e-9)

    def test_contraction_to_single_point(self):
        arch = self.make_arch()
        c = np.array([0.1, 0.2, 0.3])
        vts = votes_at(np.tile(c, (3, 1)) + [[0], [1e-7], [2e-7]] * np.ones((1, 3)))
        prev = np.linalg.norm(arch.points - c, axis=1).max()
        pts = arch
        for _ in range(3):
            pts = refine_arch(pts, vts, RefineParams(iterations=1))
            cur = np.linalg.norm(pts.points - c, axis=1).max()
            assert cur < prev
            prev = cur

    def test_step_zero_identity(self):
        arch = self.make_arch()
        rng = np.random.default_rng(0)
        vts = votes_at(rng.normal(size=(40, 3)))
        refined = refine_arch(arch, vts, RefineParams(step_size=0.0))
        assert np.array_equal(refined.points, arch.points)

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_vote_permutation_invariance(self, seed):
        arch = self.make_arch()
        rng = np.random.default_rng(seed)
        positions = rng.normal(size=(30, 3))
        vts = votes_at(positions)
        perm = rng.permutation(30)
        vts_p = votes_at(positions[perm])
        a = refine_arch(arch, vts, RefineParams())
        b = refine_arch(arch, vts_p, RefineParams())
        assert np.allclose(a.points, b.points, atol=1e-12)

    def test_too_few_votes(self):
        with pytest.raises(ValueError):
            refine_arch(self.make_arch(), votes_at(np.eye(3)[:2]), RefineParams())


class TestLosses:
    def test_arch_mse_hand_value(self):
        arch = sample_arch_from_bezier(BezierCurve(DEFAULT_ARCH_CONTROL))
        shifted = ArchPolyline(arch.points + [0.1, 0.0, 0.0])
        assert arch_mse(shifted, arch) == pytest.approx(0.01)
