import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from archseg.arch import sample_arch_from_bezier
from archseg.bezier import BezierCurve
from archseg.detection import (
    DetectionParams,
    SamplingParams,
    aps_cost_matrix,
    arch_aware_sampling,
    assign_gt_confidence,
    detection_loss,
    detection_metrics,
    fps_vote_sampling,
    group_votes,
    make_proposals,
    nms,
    pregroup_votes,
    random_vote_sampling,
)
from archseg.synthetic import (
    DEFAULT_ARCH_CONTROL,
    ScanConfig,
    VoteNoiseModel,
    Votes,
    generate_model,
    simulate_votes,
)


def votes_at(positions, displacements=None):
    positions = np.asarray(positions, dtype=np.float64)
    if displacements is None:
        displacements = np.zeros_like(positions)
    return Votes.from_seeds(
        positions - displacements, np.arange(len(positions)), displacements
    )


@pytest.fixture(scope="module")
def arch():
    return sample_arch_from_bezier(BezierCurve(DEFAULT_ARCH_CONTROL))


@pytest.fixture(scope="module")
def model():
    return generate_model(ScanConfig(n_points=4000, n_teeth=10, seed=11))


class TestAPSCost:
    def test_shape_and_slots(self, arch):
        vts = votes_at(np.random.default_rng(0).normal(size=(100, 3)))
        params = SamplingParams(n_samples=64)
        cost = aps_cost_matrix(vts, arch, params)
        assert cost.shape == (64, 100)
        assert params.slots_per_arch_point == 2

    def test_cost_formula(self, arch):
        pos = np.array([[0.3, 0.2, 0.1]])
        disp = np.array([[0.0, 0.0, 0.05]])
        vts = votes_at(pos, disp)
        params = SamplingParams(alpha=1.0, beta=5.0, n_samples=1)
        cost = aps_cost_matrix(vts, arch, params)
        expected = np.linalg.norm(arch.points[0] - pos[0]) + 5.0 * 0.05
        assert cost[0, 0] == pytest.approx(expected, rel=1e-12)


class TestAPS:
    def test_distinct_indices(self, arch):
        rng = np.random.default_rng(1)
        vts = votes_at(rng.normal(size=(200, 3)))
        sel = arch_aware_sampling(vts, arch, SamplingParams(n_samples=64))
        assert len(np.unique(sel)) == 64

    def test_ascending_indices(self, arch):
        # slot rows i and i + 32 share an arch point, so the row order of the
        # optimum carries no meaning; the selection comes back sorted
        rng = np.random.default_rng(1)
        vts = votes_at(rng.normal(size=(200, 3)))
        sel = arch_aware_sampling(vts, arch, SamplingParams(n_samples=64))
        assert np.all(np.diff(sel) > 0)

    def test_all_votes_selected_when_exhaustive(self, arch):
        rng = np.random.default_rng(2)
        vts = votes_at(rng.normal(size=(10, 3)))
        sel = arch_aware_sampling(vts, arch, SamplingParams(n_samples=10))
        assert sorted(sel.tolist()) == list(range(10))

    def test_one_vote_per_centroid_cluster(self, arch):
        # 14 tight clusters of 5 votes each at the first 14 arch points
        # (one sample slot lands on each); APS picks one vote per cluster
        centers = arch.points[:14]
        positions = np.concatenate(
            [c + 1e-4 * np.arange(5)[:, None] * [1, 0, 0] for c in centers]
        )
        vts = votes_at(positions)
        sel = arch_aware_sampling(vts, arch, SamplingParams(n_samples=14))
        clusters = set(s // 5 for s in sel)
        assert len(clusters) == 14

    def test_rejects_far_clutter_with_large_displacement(self, arch):
        # 20 on-arch zero-displacement votes + 5 far clutter votes
        clutter_pos = arch.points[:5] + [0.0, 0.0, -0.8]
        vts = votes_at(
            np.concatenate([arch.points[:20], clutter_pos]),
            np.concatenate([np.zeros((20, 3)), 0.5 * np.ones((5, 3))]),
        )
        sel = arch_aware_sampling(vts, arch, SamplingParams(n_samples=10))
        assert all(s < 20 for s in sel)

    def test_large_beta_selects_minimal_displacement(self, arch):
        pos = np.tile(arch.points[0], (6, 1))
        disp = np.array([[0.0, 0, 0.01 * k] for k in range(6)])
        vts = votes_at(pos, disp)
        sel = arch_aware_sampling(
            vts, arch, SamplingParams(beta=1e6, n_samples=3)
        )
        assert sorted(sel.tolist()) == [0, 1, 2]

    def test_too_many_samples(self, arch):
        vts = votes_at(np.eye(3))
        with pytest.raises(ValueError):
            arch_aware_sampling(vts, arch, SamplingParams(n_samples=4))


class TestBaselineSamplers:
    def test_fps_deterministic_distinct(self):
        rng = np.random.default_rng(3)
        vts = votes_at(rng.normal(size=(50, 3)))
        a = fps_vote_sampling(vts, 10)
        assert np.array_equal(a, fps_vote_sampling(vts, 10))
        assert len(np.unique(a)) == 10

    def test_random_seeded(self):
        rng = np.random.default_rng(4)
        vts = votes_at(rng.normal(size=(50, 3)))
        assert np.array_equal(
            random_vote_sampling(vts, 10, 7), random_vote_sampling(vts, 10, 7)
        )


class TestGrouping:
    def test_cluster_contains_self_and_radius(self):
        rng = np.random.default_rng(5)
        pos = rng.normal(size=(60, 3))
        vts = votes_at(pos)
        clusters = group_votes([4, 10], vts, 0.5)
        for s, members in zip([4, 10], clusters):
            assert s in members
            d = np.linalg.norm(pos[members] - pos[s], axis=1)
            assert (d <= 0.5).all()
            outside = np.setdiff1d(np.arange(60), members)
            assert (np.linalg.norm(pos[outside] - pos[s], axis=1) > 0.5).all()


class TestProposals:
    def test_mean_position(self):
        pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        vts = votes_at(pos)
        props = make_proposals([np.arange(3)], vts)
        assert np.allclose(props.position[0], [1.0, 0, 0])

    def test_confidence_monotone_in_size(self):
        tight = np.tile([[0.0, 0, 0]], (20, 1)) + 1e-6 * np.random.default_rng(0).normal(size=(20, 3))
        small = tight[:3]
        vts_big = votes_at(tight)
        vts_small = votes_at(small)
        big = make_proposals([np.arange(20)], vts_big).confidence[0]
        little = make_proposals([np.arange(3)], vts_small).confidence[0]
        assert big > little

    def test_confidence_decreases_with_spread(self):
        tight = votes_at(np.tile([[0.0, 0, 0]], (10, 1)))
        loose = votes_at(np.random.default_rng(1).normal(0, 0.2, (10, 3)))
        c_tight = make_proposals([np.arange(10)], tight).confidence[0]
        c_loose = make_proposals([np.arange(10)], loose).confidence[0]
        assert c_tight > c_loose


class TestGTConfidence:
    def test_strict_threshold(self):
        vts = votes_at(np.zeros((1, 3)))
        props = make_proposals([np.array([0])], vts)
        gt = np.array([[0.3, 0.0, 0.0]])
        labels, out = assign_gt_confidence(props, gt, threshold=0.3)
        assert labels[0] == 0 and out.gt_assignment[0] == -1
        labels, out = assign_gt_confidence(props, gt, threshold=0.300001)
        assert labels[0] == 1 and out.gt_assignment[0] == 0


class TestNMS:
    def test_pairwise_distances_and_cap(self):
        rng = np.random.default_rng(6)
        pos = rng.normal(size=(40, 3))
        vts = votes_at(pos)
        props = make_proposals([np.array([i]) for i in range(40)], vts)
        kept = props.position[nms(props, radius=0.8, max_k=5)]
        assert len(kept) <= 5
        for i, p in enumerate(kept):
            for q in kept[i + 1 :]:
                assert np.linalg.norm(p - q) >= 0.8

    def test_highest_confidence_survives(self):
        vts = votes_at(np.array([[0.0, 0, 0], [0.01, 0, 0]] + [[0.0, 0, 0]] * 3))
        props = make_proposals([np.array([0]), np.array([1, 2, 3, 4])], vts)
        kept = nms(props, radius=0.1, max_k=10)
        assert len(kept) == 1
        assert props.confidence[kept[0]] == max(props.confidence)


class TestDetectionMetrics:
    def test_perfect(self):
        gt = np.random.default_rng(7).normal(size=(5, 3))
        m = detection_metrics(gt, gt)
        assert m["accuracy"] == 100.0 and m["recall"] == 100.0 and m["chamfer"] == 0.0

    def test_extra_prediction_lowers_accuracy(self):
        gt = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        pred = np.vstack([gt, [[5.0, 0, 0]]])
        m = detection_metrics(pred, gt)
        assert m["accuracy"] == pytest.approx(100 * 2 / 3)
        assert m["recall"] == 100.0

    def test_missed_gt_lowers_recall(self):
        gt = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        pred = gt[:2]
        m = detection_metrics(pred, gt)
        assert m["accuracy"] == 100.0
        assert m["recall"] == pytest.approx(100 * 2 / 3)

    def test_threshold_strict(self):
        gt = np.zeros((1, 3))
        pred = np.array([[0.3, 0.0, 0.0]])
        assert detection_metrics(pred, gt, 0.3)["accuracy"] == 0.0
        assert detection_metrics(pred, gt, 0.31)["accuracy"] == 100.0

    def test_one_to_one_matching(self):
        # two predictions on one gt: only one can match
        gt = np.array([[0.0, 0, 0], [10.0, 0, 0]])
        pred = np.array([[0.01, 0, 0], [0.02, 0, 0]])
        m = detection_metrics(pred, gt)
        assert m["accuracy"] == 50.0
        assert m["recall"] == 50.0


class TestDetectionLoss:
    def test_terms_combine(self, model):
        votes = simulate_votes(model, 512, VoteNoiseModel(tooth_vote_sigma=0.01, seed=1))
        sel = fps_vote_sampling(votes, 32)
        clusters = group_votes(sel, votes, 0.1)
        props = make_proposals(clusters, votes)
        labels, props = assign_gt_confidence(props, model.centroids, 0.3)
        loss = detection_loss(votes, props, labels, model)
        assert loss["l_det"] == pytest.approx(
            loss["l_offset"] + loss["l_conf"] + 0.1 * loss["l_centers"], rel=1e-12
        )
        assert loss["l_offset"] > 0

    def test_zero_noise_zero_offset_loss(self, model):
        votes = simulate_votes(model, 512, VoteNoiseModel())
        sel = fps_vote_sampling(votes, 32)
        clusters = group_votes(sel, votes, 0.1)
        props = make_proposals(clusters, votes)
        labels, props = assign_gt_confidence(props, model.centroids, 0.3)
        loss = detection_loss(votes, props, labels, model)
        assert loss["l_offset"] == pytest.approx(0.0, abs=1e-15)
        assert loss["l_centers"] == pytest.approx(0.0, abs=1e-15)


class TestPregroup:
    def test_clusters_on_separated_blobs(self):
        rng = np.random.default_rng(8)
        blobs = [np.array([k * 1.0, 0, 0]) + 0.01 * rng.normal(size=(30, 3)) for k in range(4)]
        vts = votes_at(np.concatenate(blobs))
        centers = pregroup_votes(vts, radius=0.2)
        assert len(centers) == 4
        for k in range(4):
            assert np.linalg.norm(centers - [k, 0, 0], axis=1).min() < 0.02

    def test_small_clusters_dropped(self):
        rng = np.random.default_rng(9)
        big = 0.01 * rng.normal(size=(50, 3))
        stray = np.array([[3.0, 0, 0]])
        vts = votes_at(np.concatenate([big, stray]))
        centers = pregroup_votes(vts, radius=0.2, min_size_frac=0.25)
        assert len(centers) == 1


def pregroup_votes_reference(votes, radius, min_size_frac=0.25):
    """The vote-by-vote leader loop `pregroup_votes` replaced: the oracle it
    must match bit for bit."""
    pos = votes.position
    leaders = []
    for i, p in enumerate(pos):
        if not leaders or np.min(np.linalg.norm(pos[leaders] - p, axis=1)) > radius:
            leaders.append(i)
    d = np.linalg.norm(pos[:, None, :] - pos[leaders][None, :, :], axis=2)
    member_of = np.argmin(d, axis=1)
    sizes = np.bincount(member_of, minlength=len(leaders))
    centers = np.stack([pos[member_of == k].mean(axis=0) for k in range(len(leaders))])
    keep = sizes >= min_size_frac * sizes.max()
    return centers[keep]


def assert_pregroup_matches_reference(votes, radius, min_size_frac):
    got = pregroup_votes(votes, radius, min_size_frac)
    want = pregroup_votes_reference(votes, radius, min_size_frac)
    assert got.shape == want.shape and np.array_equal(got, want)


@st.composite
def radius_clouds(draw):
    """Votes on a grid of step `radius`, so many lie exactly at `radius`
    from a leader (covered, since coverage is `<= radius`)."""
    radius = draw(st.sampled_from([0.08, 0.1, 0.25, 1.0]))
    sites = draw(hnp.arrays(
        np.int64, (draw(st.integers(1, 80)), 3), elements=st.integers(-4, 4),
    ))
    return votes_at(radius * sites), radius, draw(st.sampled_from([0.0, 0.1, 0.5]))


class TestPregroupEquivalence:
    def test_pinned_votes_match_reference(self, benchmark_config, pinned_votes_by_index):
        for votes in pinned_votes_by_index:
            assert_pregroup_matches_reference(
                votes, benchmark_config.pregroup_radius,
                benchmark_config.pregroup_min_size_frac,
            )

    @given(radius_clouds())
    @settings(max_examples=200, deadline=None)
    def test_votes_at_radius_match_reference(self, case):
        votes, radius, min_size_frac = case
        assert_pregroup_matches_reference(votes, radius, min_size_frac)

    def test_exact_radius_is_covered(self):
        votes = votes_at([[0.0, 0, 0], [0.5, 0, 0], [1.0, 0, 0]])
        assert len(pregroup_votes(votes, 0.5, 0.0)) == 2
