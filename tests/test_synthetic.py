import dataclasses

import numpy as np
import pytest

from archseg.synthetic import (
    ScanConfig,
    VoteNoiseModel,
    generate_model,
    ground_truth_offsets,
    simulate_votes,
)


@pytest.fixture(scope="module")
def model():
    return generate_model(ScanConfig(n_points=4000, n_teeth=10), 5)


class TestConfigValidation:
    def test_teeth_range(self):
        with pytest.raises(ValueError):
            ScanConfig(n_teeth=7)
        with pytest.raises(ValueError):
            ScanConfig(n_teeth=17)

    def test_points_per_tooth(self):
        with pytest.raises(ValueError):
            ScanConfig(n_points=500, n_teeth=10)

    def test_bad_radii(self):
        with pytest.raises(ValueError):
            ScanConfig(tooth_radius_range=(0.06, 0.04))


class TestGenerateModel:
    def test_determinism(self, model):
        again = generate_model(ScanConfig(n_points=4000, n_teeth=10), 5)
        assert np.array_equal(model.cloud.points, again.cloud.points)
        assert np.array_equal(model.labels, again.labels)

    def test_seed_changes_output(self, model):
        other = generate_model(ScanConfig(n_points=4000, n_teeth=10), 6)
        assert not np.array_equal(model.cloud.points, other.cloud.points)

    def test_normalized(self, model):
        assert np.allclose(model.cloud.points.mean(axis=0), 0, atol=1e-12)
        assert np.linalg.norm(model.cloud.points, axis=1).max() == pytest.approx(1.0)

    def test_centroids_are_label_means(self, model):
        for k in range(1, model.n_teeth + 1):
            mean = model.cloud.points[model.labels == k].mean(axis=0)
            assert np.allclose(mean, model.centroids[k - 1], atol=1e-12)

    def test_arch_passes_through_centroids(self, model):
        for c in model.centroids:
            d = np.linalg.norm(model.gt_arch.points - c, axis=1).min()
            assert d < 1e-9

    def test_point_budget_exact(self, model):
        assert model.cloud.size == 4000
        assert (model.labels == 0).sum() > 0

    def test_missing_teeth_reduce_instances(self):
        m = generate_model(
            ScanConfig(n_points=4000, n_teeth=12, missing_tooth_prob=0.3), 1
        )
        assert 4 <= m.n_teeth <= 12
        assert set(np.unique(m.labels)) == set(range(m.n_teeth + 1))

    def test_min_surviving_teeth(self):
        m = generate_model(
            ScanConfig(n_points=4000, n_teeth=10, missing_tooth_prob=1.0), 2
        )
        assert m.n_teeth == 4


class TestSimulateVotes:
    def test_zero_noise_votes_at_centroids(self, model):
        votes = simulate_votes(model, 1024, VoteNoiseModel(), 0)
        uniq = np.unique(np.round(votes.position, 12), axis=0)
        assert len(uniq) == model.n_teeth
        label = model.labels[votes.seed_index]
        assert (label > 0).all()  # clutter_fraction 0 drops gingiva
        assert np.allclose(votes.position, model.centroids[label - 1], atol=1e-12)

    def test_vote_identities(self, model):
        votes = simulate_votes(
            model, 512, VoteNoiseModel(tooth_vote_sigma=0.05), 3
        )
        assert np.allclose(
            votes.position, model.cloud.points[votes.seed_index] + votes.displacement
        )
        assert votes.displacement_norm == pytest.approx(
            np.linalg.norm(votes.displacement, axis=1), abs=1e-12
        )

    def test_zero_clutter_fraction_casts_no_gingiva_vote(self, model):
        """The votes at fraction 0 are the tooth seeds' votes at fraction 1."""
        none = simulate_votes(model, 512, VoteNoiseModel(clutter_fraction=0.0), 4)
        every = simulate_votes(model, 512, VoteNoiseModel(clutter_fraction=1.0), 4)
        tooth = model.labels[every.seed_index] > 0
        assert not tooth.all()
        assert np.array_equal(none.seed_index, every.seed_index[tooth])
        assert np.array_equal(none.position, every.position[tooth])

    def test_clutter_adds_gingiva_votes(self, model):
        noise = VoteNoiseModel(clutter_fraction=1.0)
        votes = simulate_votes(model, 1024, noise, 4)
        gum = model.labels[votes.seed_index] == 0
        assert gum.sum() > 0

    def test_mean_vote_near_centroid(self, model):
        sigma = 0.02
        votes = simulate_votes(
            model, 2048, VoteNoiseModel(tooth_vote_sigma=sigma), 8
        )
        labels = model.labels[votes.seed_index]
        for label in np.unique(labels):
            pos = votes.position[labels == label]
            err = np.linalg.norm(pos.mean(axis=0) - model.centroids[label - 1])
            assert err < 3 * sigma / np.sqrt(len(pos)) * 3  # 3-sigma, 3 coords

    def test_subsample_too_large(self, model):
        with pytest.raises(ValueError):
            simulate_votes(model, 4001, VoteNoiseModel(), 0)


class TestGroundTruthOffsets:
    def test_tooth_points_offset_to_own_centroid(self, model):
        idx = np.flatnonzero(model.labels == 3)[:20]
        off = ground_truth_offsets(model, idx)
        for i, o in zip(idx, off):
            target = model.cloud.points[i] + o
            d = np.linalg.norm(model.centroids - target, axis=1).min()
            assert d < 1e-12
