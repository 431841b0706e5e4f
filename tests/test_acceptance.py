"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria are property-based (optimality oracles, metric identities,
determinism) plus directional trend reproduction on the pinned 50-model
benchmark committed in configs/benchmark.json.
"""

import dataclasses
import time

import numpy as np
import pytest

from archseg.arch import sample_arch_from_bezier
from archseg.assignment import brute_force_assign, hungarian_assign
from archseg.bezier import BezierCurve, bezier_eval, fit_bezier
from archseg.detection import (
    SamplingParams,
    arch_aware_sampling,
    detection_metrics,
)
from archseg.geometry import (
    PointCloud,
    brute_force_k_nearest,
    chamfer_distance,
    farthest_point_sampling,
    k_nearest,
)
from archseg.pipeline import model_seeds, run_dataset
from archseg.segmentation import crop_patch, fuse_patches, iou_dice, neighbour_table, segment_patch
from archseg.synthetic import (
    DEFAULT_ARCH_CONTROL,
    VoteNoiseModel,
    Votes,
    generate_model,
)
from test_geometry import chamfer_kdtree_reference


def report(name, elapsed, detail):
    print(f"\n[PASS] {name} ({elapsed:.1f}s): {detail}")


def test_criterion_1_hungarian_optimality():
    """200 random cost matrices: optimal total equals brute force exactly."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(100):  # square, <= 7x7
        n = int(rng.integers(1, 8))
        cost = rng.random((n, n))
        _, total = hungarian_assign(cost)
        _, expected = brute_force_assign(cost)
        assert total == pytest.approx(expected, abs=1e-12)
        checked += 1
    for _ in range(100):  # rectangular, <= 5x8
        r = int(rng.integers(1, 6))
        c = int(rng.integers(r, 9))
        cost = rng.random((r, c))
        _, total = hungarian_assign(cost)
        _, expected = brute_force_assign(cost)
        assert total == pytest.approx(expected, abs=1e-12)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("criterion 1 (Hungarian optimality)", elapsed,
           f"{checked}/200 matrices match exhaustive search")


def test_criterion_2_bezier_round_trip():
    """50 random arch-like cubic curves recovered from 16 exact samples."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        ctrl = rng.uniform(-1, 1, (4, 3))
        ctrl[:, 0] = np.sort(rng.uniform(-1, 1, 4))  # open, jaw-like arcs
        curve = BezierCurve(ctrl)
        targets = bezier_eval(curve, np.linspace(0, 1, 16))
        fitted, _ = fit_bezier(targets)
        t = np.linspace(0, 1, 128)
        dev = np.linalg.norm(bezier_eval(fitted, t) - bezier_eval(curve, t), axis=1)
        worst = max(worst, dev.max())
        assert dev.max() < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report("criterion 2 (Bezier round trip)", elapsed,
           f"50/50 curves, worst deviation {worst:.2e} < 1e-6")


def test_criterion_3_geometry_oracles():
    """chamfer / k-NN / FPS match brute force on 100 random instances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    for trial in range(100):
        n = int(rng.integers(10, 1001))
        pts = rng.normal(size=(n, 3))
        cloud = PointCloud(pts)

        other = PointCloud(rng.normal(size=(int(rng.integers(10, 501)), 3)))
        d_ab = ((pts[:, None, :] - other.points[None, :, :]) ** 2).sum(axis=2)
        brute = float(d_ab.min(axis=1).sum() + d_ab.min(axis=0).sum())
        got = chamfer_distance(cloud, other)
        assert got == pytest.approx(brute, rel=1e-12)
        assert got.hex() == chamfer_kdtree_reference(cloud, other).hex()

        q = rng.normal(size=3)
        k = int(rng.integers(1, min(n, 20) + 1))
        idx, dist = k_nearest(cloud.points, q, k)
        bidx, bdist = brute_force_k_nearest(pts, q, k)
        assert np.array_equal(idx, bidx)
        assert np.allclose(dist, bdist, rtol=1e-12)

        m = int(rng.integers(1, min(n, 16) + 1))
        sel = farthest_point_sampling(cloud, m)
        # brute-force greedy reference
        ref = [0]
        d = np.linalg.norm(pts - pts[0], axis=1)
        for _ in range(m - 1):
            nxt = int(np.argmax(d))
            ref.append(nxt)
            d = np.minimum(d, np.linalg.norm(pts - pts[nxt], axis=1))
        assert np.array_equal(sel, ref)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report("criterion 3 (geometry oracles)", elapsed,
           "100/100 instances match brute-force chamfer (cKDTree chamfer bitwise), "
           "k-NN, FPS")


def test_criterion_4_aps_beats_fps(full_report, fps_report):
    """APS accuracy beats FPS by >= 5 points aggregate, wins >= 90% of models."""
    t0 = time.perf_counter()
    aps = [m["accuracy"] for m in full_report.per_model]
    fps = [m["accuracy"] for m in fps_report.per_model]
    assert len(aps) == len(fps) == 50
    margin = float(np.mean(aps) - np.mean(fps))
    wins = sum(a > f for a, f in zip(aps, fps))
    assert margin >= 5.0
    assert wins >= 0.9 * len(aps)
    report("criterion 4 (APS > FPS trend)", time.perf_counter() - t0,
           f"APS {np.mean(aps):.2f} vs FPS {np.mean(fps):.2f} "
           f"(margin {margin:.1f} >= 5), wins {wins}/50 >= 45")


def test_criterion_5_refinement_trend(full_report, coarse_report):
    """coarse_fine arch MSE <= coarse in aggregate; improves >= 95% of models."""
    t0 = time.perf_counter()
    fine = [m["arch_mse"] for m in full_report.per_model]
    coarse = [m["arch_mse"] for m in coarse_report.per_model]
    assert float(np.mean(fine)) <= float(np.mean(coarse))
    improved = sum(f <= c for f, c in zip(fine, coarse))
    assert improved >= 0.95 * len(fine)
    report("criterion 5 (refinement trend)", time.perf_counter() - t0,
           f"MSE(1e-4): coarse+fine {np.mean(fine)*1e4:.1f} <= coarse "
           f"{np.mean(coarse)*1e4:.1f}; improved {improved}/50 >= 48")


def test_criterion_6_ideal_input_ceiling(benchmark_config):
    """Zero noise, suppressed clutter: accuracy = recall = 100, chamfer < 1e-9."""
    t0 = time.perf_counter()
    cfg = dataclasses.replace(
        benchmark_config, noise=VoteNoiseModel(), with_segmentation=False
    )
    rep = run_dataset(cfg)
    assert not rep.failures
    for m in rep.per_model:
        assert m["accuracy"] == 100.0
        assert m["recall"] == 100.0
        assert m["chamfer"] < 1e-9
    report("criterion 6 (ideal-input ceiling)", time.perf_counter() - t0,
           f"50/50 models at accuracy=recall=100, "
           f"max chamfer {max(m['chamfer'] for m in rep.per_model):.1e} < 1e-9")


def test_criterion_7_oracle_segmentation(benchmark_config):
    """Ground-truth centroids into segmentation: IoU >= 90, Dice >= 94."""
    t0 = time.perf_counter()
    seg = benchmark_config.segmentation
    ious, dices = [], []
    for i in range(benchmark_config.n_models):
        scan_seed, _ = model_seeds(benchmark_config, i)
        model = generate_model(benchmark_config.scan, scan_seed)
        table = neighbour_table(model.cloud.points)
        masks = [segment_patch(crop_patch(model, c, seg), seg, table) for c in model.centroids]
        r = iou_dice(fuse_patches(model, masks, seg), model.labels)
        ious.append(r["mean_iou"])
        dices.append(r["mean_dice"])
    elapsed = time.perf_counter() - t0
    assert float(np.mean(ious)) >= 90.0
    assert float(np.mean(dices)) >= 94.0
    assert elapsed < 120.0
    report("criterion 7 (oracle segmentation bound)", elapsed,
           f"mean IoU {np.mean(ious):.2f} >= 90, mean Dice {np.mean(dices):.2f} >= 94")


def test_criterion_8_metric_identities(full_report):
    """Dice = 2 IoU/(1+IoU) per matched instance; hand detection cases exact."""
    t0 = time.perf_counter()
    pairs = 0
    for m in full_report.per_model:
        for row in m["per_instance"]:
            if row["pred_id"] is None:
                continue
            iou, dice = row["iou"] / 100, row["dice"] / 100
            assert abs(dice - 2 * iou / (1 + iou)) < 1e-9
            pairs += 1
    assert pairs > 0

    gt = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    pred = np.vstack([gt, [[5.0, 0, 0]]])
    m = detection_metrics(pred, gt, 0.3)
    assert m["accuracy"] == pytest.approx(100 * 2 / 3) and m["recall"] == 100.0
    m = detection_metrics(gt[:1], gt, 0.3)
    assert m["accuracy"] == 100.0 and m["recall"] == 50.0
    assert detection_metrics(np.array([[0.3, 0.0, 0.0]]), gt[:1], 0.3)["accuracy"] == 0.0
    report("criterion 8 (metric identities)", time.perf_counter() - t0,
           f"Dice identity on {pairs} matched instances; hand cases exact")


def test_criterion_9_nms_and_sampling_invariants(full_report, benchmark_config):
    """NMS min-distance, APS distinctness, beta->inf displacement selection."""
    t0 = time.perf_counter()
    # NMS invariant holds on every benchmark model: n_detected <= max_centroids
    for m in full_report.per_model:
        assert m["n_detected"] <= benchmark_config.detection.max_centroids

    arch = sample_arch_from_bezier(BezierCurve(DEFAULT_ARCH_CONTROL))
    rng = np.random.default_rng(3)
    positions = rng.normal(size=(300, 3))
    votes = Votes.from_seeds(positions, np.arange(300), np.zeros((300, 3)))
    sel = arch_aware_sampling(votes, arch, SamplingParams(n_samples=64))
    assert len(np.unique(sel)) == 64

    # beta -> large: minimal-displacement votes win regardless of position
    disp = np.array([[0.0, 0.0, 0.001 * k] for k in range(20)])
    votes2 = Votes.from_seeds(rng.normal(size=(20, 3)), np.arange(20), disp)
    sel2 = arch_aware_sampling(votes2, arch, SamplingParams(beta=1e9, n_samples=5))
    assert sorted(sel2.tolist()) == [0, 1, 2, 3, 4]

    # retained NMS proposals respect the radius on a fresh pipeline pass
    from archseg.detection import group_votes, make_proposals, nms
    from archseg.synthetic import simulate_votes

    model = generate_model(benchmark_config.scan, 0)
    vts = simulate_votes(model, 1024, benchmark_config.noise, 0)
    s = arch_aware_sampling(vts, model.gt_arch, benchmark_config.sampling)
    props = make_proposals(group_votes(s, vts, 0.1), vts)
    kept = props.position[nms(props, benchmark_config.detection.nms_radius, 20)]
    for i, p in enumerate(kept):
        for q in kept[i + 1:]:
            assert np.linalg.norm(p - q) >= benchmark_config.detection.nms_radius
    report("criterion 9 (NMS and sampling invariants)", time.perf_counter() - t0,
           "pairwise NMS distances, APS distinctness, beta-limit all hold")


def test_criterion_10_determinism_regression(full_report, golden_report):
    """Rerun of the pinned benchmark matches the committed golden report."""
    t0 = time.perf_counter()
    fresh = full_report.to_dict()
    golden = golden_report
    assert fresh["aggregate"].keys() == golden["aggregate"].keys()
    for key, val in golden["aggregate"].items():
        assert fresh["aggregate"][key] == pytest.approx(val, abs=1e-9), key
    assert len(fresh["per_model"]) == len(golden["per_model"])
    checked = 0
    for a, b in zip(fresh["per_model"], golden["per_model"]):
        for key, val in b.items():
            if key in ("seconds", "per_instance"):
                continue  # timings vary; per_instance checked via criterion 8
            assert a[key] == pytest.approx(val, abs=1e-9), key
            checked += 1
    assert not fresh["failures"] and not golden["failures"]
    report("criterion 10 (determinism regression)", time.perf_counter() - t0,
           f"{checked} numeric fields match the golden report within 1e-9")
