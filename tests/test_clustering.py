import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taskshift import clustering
from taskshift.clustering import (
    PCA_CHUNK_ROWS,
    ExposureCluster,
    KMeansResult,
    ProjectionModel,
    _label_request,
    _lloyd,
    build_taxonomy,
    cluster_roles,
    fit_pca,
    kmeans,
    lemmatize,
    normalize_text,
)
from taskshift.errors import DataError, UsageError
from taskshift.gateway import ArrayStore, BatchManager, MockProvider, ResponseCache, RetryPolicy
from taskshift.gateway import cache as cache_module

from conftest import record_calls, stored_rows

REFERENCE_CENTROIDS = [(0.381, 0.118), (0.483, 0.158), (0.586, 0.162), (0.697, 0.136)]


def brute_force_min_inertia(points, k):
    """Exhaustive minimizer over all assignments with k non-empty clusters."""
    matrix = np.asarray(points, dtype=float)
    best = np.inf
    best_assignment = None
    for assignment in itertools.product(range(k), repeat=len(points)):
        if len(set(assignment)) != k:
            continue
        labels = np.asarray(assignment)
        inertia = 0.0
        for cluster in range(k):
            members = matrix[labels == cluster]
            inertia += float(((members - members.mean(axis=0)) ** 2).sum())
        if inertia < best - 1e-12:
            best = inertia
            best_assignment = labels
    return best, best_assignment


def reference_pairwise_d2(matrix, centers, row_norms):
    d2 = row_norms[:, None] - 2.0 * (matrix @ centers.T) + (centers**2).sum(axis=1)[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def reference_kmeans_pp(matrix, k, rng):
    row_norms = (matrix**2).sum(axis=1)
    chosen = [int(rng.integers(matrix.shape[0]))]
    d2 = reference_pairwise_d2(matrix, matrix[chosen[-1]][None, :], row_norms)[:, 0]
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            taken = set(chosen)
            chosen.append(next(i for i in range(matrix.shape[0]) if i not in taken))
        else:
            chosen.append(int(rng.choice(matrix.shape[0], p=d2 / total)))
        newest = reference_pairwise_d2(matrix, matrix[chosen[-1]][None, :], row_norms)[:, 0]
        np.minimum(d2, newest, out=d2)
    return matrix[chosen].copy()


def reference_lloyd(matrix, centroids, max_iter):
    """The Lloyd loop with one masked mean per cluster, as k-means first shipped."""
    n, k = matrix.shape[0], centroids.shape[0]
    row_norms = (matrix**2).sum(axis=1)
    assignments = np.full(n, -1, dtype=int)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        d2 = reference_pairwise_d2(matrix, centroids, row_norms)
        new_assignments = d2.argmin(axis=1)
        own = d2[np.arange(n), new_assignments].copy()
        for cluster in range(k):
            if not (new_assignments == cluster).any():
                mover = int(own.argmax())
                new_assignments[mover] = cluster
                own[mover] = 0.0
        if (new_assignments == assignments).all():
            break
        assignments = new_assignments
        for cluster in range(k):
            centroids[cluster] = matrix[assignments == cluster].mean(axis=0)
    inertia = float(((matrix - centroids[assignments]) ** 2).sum())
    return KMeansResult(assignments, centroids, inertia, iterations)


def reference_kmeans(points, k, seed, n_init=10, max_iter=300):
    matrix = np.asarray(points, dtype=float)
    best = None
    for restart_seed in np.random.default_rng(seed).integers(0, 2**63 - 1, size=n_init):
        rng = np.random.default_rng(int(restart_seed))
        result = reference_lloyd(matrix, reference_kmeans_pp(matrix, k, rng), max_iter)
        if best is None or result.inertia < best.inertia:
            best = result
    return best


def reference_unless_emptied(run):
    """``run()``, or None when it takes the mean of an empty cluster.

    The reference leaves a cluster empty when its repair moves the only
    member out of a cluster it already refilled; that centroid turns NaN,
    and the next argmin can hand every point to it, so the run may still
    end with finite centroids, but not the ones the fixed repair gives.
    """
    with warnings.catch_warnings():
        # numpy warns "Mean of empty slice" before it divides by zero
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return run()
        except RuntimeWarning:
            return None


def assert_same_or_repaired(result, expected, k):
    """Bit-identical to the reference, or, where it emptied a cluster, finite with none empty."""
    if expected is not None:
        assert_same_result(result, expected)
    else:
        assert np.isfinite(result.centroids).all()
        assert (np.bincount(result.assignments, minlength=k) > 0).all()


def assert_same_result(result, expected):
    assert result.assignments.dtype == expected.assignments.dtype
    assert np.array_equal(result.assignments, expected.assignments)
    assert result.centroids.tobytes() == expected.centroids.tobytes()
    assert repr(result.inertia) == repr(expected.inertia)
    assert result.iterations == expected.iterations


# few distinct coordinates, so duplicate points and tied distances are common
COORDINATE = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0, 3.0]),
    st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=False),
)


@st.composite
def point_sets(draw, max_points=30):
    n = draw(st.integers(min_value=1, max_value=max_points))
    d = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.lists(COORDINATE, min_size=d, max_size=d), min_size=n, max_size=n))
    return np.asarray(rows, dtype=float)


class TestLloydBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(matrix=point_sets(), data=st.data())
    def test_kmeans_equals_masked_mean_loop(self, matrix, data):
        n = matrix.shape[0]
        k = data.draw(st.one_of(st.just(n), st.integers(min_value=1, max_value=n)), label="k")
        seed = data.draw(st.integers(min_value=0, max_value=2**32), label="seed")
        expected = reference_unless_emptied(lambda: reference_kmeans(matrix, k, seed, n_init=3))
        assert_same_or_repaired(kmeans(matrix, k, seed, n_init=3), expected, k)

    @settings(max_examples=150, deadline=None)
    @given(matrix=point_sets(), data=st.data())
    def test_forced_empty_clusters_repaired_alike(self, matrix, data):
        # repeated starting centroids tie, argmin gives every point to the
        # first copy, and the other copies start empty
        n = matrix.shape[0]
        k = data.draw(st.integers(min_value=1, max_value=n), label="k")
        starts = data.draw(
            st.lists(st.integers(min_value=0, max_value=n - 1), min_size=k, max_size=k),
            label="starts",
        )
        starts[-1] = starts[0]
        result = _lloyd(matrix, matrix[starts].copy(), max_iter=50)
        expected = reference_unless_emptied(
            lambda: reference_lloyd(matrix, matrix[starts].copy(), max_iter=50)
        )
        assert_same_or_repaired(result, expected, k)


class TestKMeans:
    def test_k_one_centroid_is_mean(self):
        points = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
        result = kmeans(points, k=1, seed=0)
        assert np.allclose(result.centroids[0], points.mean(axis=0))
        assert result.assignments.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("seed", range(8))
    def test_more_clusters_than_distinct_points_leaves_none_empty(self, seed):
        # the repair once moved the only member out of a cluster it had
        # refilled, and that centroid became the mean of no rows (NaN)
        points = [[3.0]] * 3 + [[0.0], [1.0], [0.0], [1.0]]
        result = kmeans(points, k=5, seed=seed, n_init=1)
        assert np.isfinite(result.centroids).all()
        assert (np.bincount(result.assignments, minlength=5) > 0).all()
        assert result.inertia == 0.0

    def test_k_equals_n_zero_inertia(self):
        points = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
        result = kmeans(points, k=3, seed=1)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)
        assert sorted(result.assignments.tolist()) == [0, 1, 2]

    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(5)
        points = np.vstack(
            [rng.normal((0, 0), 0.4, (25, 2)), rng.normal((10, 10), 0.4, (25, 2))]
        )
        result = kmeans(points, k=2, seed=3)
        first_half = set(result.assignments[:25].tolist())
        second_half = set(result.assignments[25:].tolist())
        assert len(first_half) == 1 and len(second_half) == 1 and first_half != second_half

    @pytest.mark.parametrize("n,k,seed", [(8, 2, 0), (9, 3, 1), (12, 2, 2), (10, 3, 3)])
    def test_matches_exhaustive_partition_oracle(self, n, k, seed):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-5, 5, (k, 2)) * 3
        points = np.vstack([rng.normal(center, 0.3, (n // k + 1, 2)) for center in centers])[:n]
        best, _ = brute_force_min_inertia(points, k)
        result = kmeans(points, k=k, seed=seed)
        assert result.inertia == pytest.approx(best, abs=1e-9)

    def test_terminal_assignment_is_fixpoint(self):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(40, 3))
        result = kmeans(points, k=4, seed=2)
        distances = ((points[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
        assert (distances.argmin(axis=1) == result.assignments).all()

    def test_inertia_non_increasing_across_iterations(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(60, 4))
        inertias = [
            kmeans(points, k=5, seed=7, n_init=1, max_iter=limit).inertia
            for limit in range(1, 8)
        ]
        for earlier, later in zip(inertias, inertias[1:]):
            assert later <= earlier + 1e-9

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(30, 2))
        first = kmeans(points, k=3, seed=11)
        second = kmeans(points, k=3, seed=11)
        assert (first.assignments == second.assignments).all()
        assert np.array_equal(first.centroids, second.centroids)

    def test_invalid_inputs(self):
        with pytest.raises(UsageError):
            kmeans(np.empty((0, 2)), k=1, seed=0)
        with pytest.raises(UsageError):
            kmeans(np.ones((3, 2)), k=4, seed=0)


def synthetic_roles(per_cluster=200, noise=0.01, seed=13):
    rng = np.random.default_rng(seed)
    points, truth = [], []
    for index, (mean, std) in enumerate(REFERENCE_CENTROIDS):
        for _ in range(per_cluster):
            points.append((mean + rng.normal(0, noise), std + rng.normal(0, noise)))
            truth.append(index)
    return points, truth


class TestClusterRoles:
    def test_recovers_seeded_clusters_with_ascending_names(self):
        points, truth = synthetic_roles()
        clusters = cluster_roles(points, seed=5)
        names = [c.value for c in ExposureCluster]
        agreement = sum(
            1 for label, t in zip(clusters.labels, truth) if label.value == names[t]
        ) / len(truth)
        assert agreement >= 0.99
        ordered = sorted(clusters.centroids.items(), key=lambda kv: kv[1][0])
        assert [name.value for name, _ in ordered] == ["Low", "Augmentation", "Adaptation", "Automation"]

    def test_all_identical_roles_error(self):
        with pytest.raises(DataError, match="degenerate"):
            cluster_roles([(0.5, 0.1)] * 20, seed=0)

    def test_too_few_roles_error(self):
        with pytest.raises(DataError):
            cluster_roles([(0.1, 0.1), (0.2, 0.2), (0.3, 0.3)], seed=0)

    def test_order_invariance_of_named_partition(self):
        points, _ = synthetic_roles(per_cluster=50)
        clusters = cluster_roles(points, seed=5)
        permutation = np.random.default_rng(3).permutation(len(points))
        shuffled = [points[i] for i in permutation]
        clusters_shuffled = cluster_roles(shuffled, seed=5)
        for original_index, shuffled_position in enumerate(permutation):
            assert clusters.labels[shuffled_position] == clusters_shuffled.labels[original_index]


class TestNormalizeText:
    def test_worked_example(self):
        assert normalize_text("Managing 3 visa applications!") == "manage visa application"

    def test_empty_input(self):
        assert normalize_text("") == ""
        assert normalize_text("37 2019 !!!") == ""

    def test_stopwords_removed(self):
        assert normalize_text("the and of report") == "report"

    @pytest.mark.parametrize(
        "word,expected",
        [
            ("managing", "manage"),
            ("applications", "application"),
            ("processes", "process"),
            ("running", "run"),
            ("meetings", "meet"),
            ("studies", "study"),
            ("analysis", "analysis"),
            ("developing", "develop"),
            ("driving", "drive"),
            ("reviewed", "review"),
            ("passes", "pass"),
            ("status", "status"),
        ],
    )
    def test_lemmatizer_rule_table(self, word, expected):
        assert lemmatize(word) == expected

    @pytest.mark.parametrize(
        "word,expected",
        [
            ("embedded", "embed"),
            ("succeeded", "succeed"),
            ("AAUEDED", "aaued"),
            ("AAAEDING", "aaaed"),
            ("releases", "release"),
            ("responses", "response"),
        ],
    )
    def test_lemma_is_its_own_lemma(self, word, expected):
        once = normalize_text(word)
        assert once == expected
        assert normalize_text(once) == once

    @given(st.text(max_size=120))
    def test_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once


def reference_fit_pca(matrix, out_dim=25):
    """PCA from a full SVD of the centred matrix, as the taxonomy first shipped it."""
    matrix = np.asarray(matrix, dtype=float)
    mean = matrix.mean(axis=0)
    centered = matrix - mean
    _, singular_values, vt = np.linalg.svd(centered, full_matrices=False)
    if singular_values.size == 0 or singular_values[0] == 0.0:
        rank = 0
    else:
        rank = int((singular_values > singular_values[0] * 1e-10).sum())
    if rank < out_dim:
        raise DataError(f"rank deficiency: achieved rank {rank} < requested {out_dim}")
    components = vt[:out_dim].copy()
    for row in range(out_dim):
        pivot = int(np.abs(components[row]).argmax())
        if components[row, pivot] < 0:
            components[row] = -components[row]
    eigenvalues = singular_values**2 / matrix.shape[0]
    total = eigenvalues.sum()
    ratios = eigenvalues[:out_dim] / total if total > 0 else np.zeros(out_dim)
    return ProjectionModel(
        mean=mean,
        components=components,
        explained_variance=eigenvalues[:out_dim].copy(),
        explained_variance_ratio=ratios.copy(),
    )


def largest_principal_angle(a, b):
    """Largest principal angle between the row spaces of orthonormal ``a`` and ``b``."""
    residual = b - (b @ a.T) @ a
    return float(np.arcsin(min(1.0, np.linalg.norm(residual, ord=2))))


class TestFitPca:
    @pytest.mark.parametrize(
        "n, d, out_dim",
        [(60, 200, 25), (500, 20, 8), (2 * PCA_CHUNK_ROWS + 808, 16, 10)],
        ids=["n<d", "n>d", "several-chunks"],
    )
    def test_matches_svd_reference(self, n, d, out_dim):
        rng = np.random.default_rng(n + d)
        scales = 10.0 * 0.85 ** np.arange(d)
        data = rng.normal(size=(n, d)) * scales + rng.normal(scale=50.0, size=d)
        rows = stored_rows(data)
        model = fit_pca(rows, out_dim=out_dim)
        expected = reference_fit_pca(data, out_dim=out_dim)
        assert model.mean.tobytes() == expected.mean.tobytes()
        assert np.allclose(
            model.explained_variance, expected.explained_variance, rtol=1e-9, atol=0.0
        )
        assert np.allclose(
            model.explained_variance_ratio, expected.explained_variance_ratio, rtol=1e-9, atol=0.0
        )
        assert largest_principal_angle(model.components, expected.components) < 1e-6
        # same sign rule, so each component matches its reference, not just the span
        assert np.allclose(model.components, expected.components, atol=1e-6)
        assert np.allclose(
            model.transform(rows), (data - model.mean) @ model.components.T, rtol=0.0, atol=1e-9
        )

    @pytest.mark.parametrize("rank", [1, 3, 7])
    def test_rank_found_under_large_offset(self, rank):
        rng = np.random.default_rng(rank)
        rows = stored_rows(rng.normal(size=(300, rank)) @ rng.normal(size=(rank, 40)) + 1e4)
        with pytest.raises(DataError, match=f"achieved rank {rank} <"):
            fit_pca(rows, out_dim=rank + 1)
        assert fit_pca(rows, out_dim=rank).components.shape == (rank, 40)

    def test_fit_and_transform_make_no_input_sized_temporary(self):
        data = np.random.default_rng(11).normal(size=(20_000, 256))
        rows = stored_rows(data)
        tracemalloc.start()
        try:
            fit_pca(rows, out_dim=25).transform(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < data.nbytes / 2

    def test_exact_two_dim_subspace_zero_reconstruction(self):
        rng = np.random.default_rng(2)
        basis = rng.normal(size=(2, 10))
        data = rng.normal(size=(50, 2)) @ basis + rng.normal(size=10)
        rows = stored_rows(data)
        model = fit_pca(rows, out_dim=2)
        reconstructed = model.transform(rows) @ model.components + model.mean
        assert float(((data - reconstructed) ** 2).sum()) <= 1e-9

    def test_matches_covariance_eigenvalue_oracle(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(40, 6)) * np.array([5.0, 3.0, 2.0, 1.0, 0.5, 0.1])
        rows = stored_rows(data)
        model = fit_pca(rows, out_dim=4)
        centered = data - data.mean(axis=0)
        eigenvalues = np.sort(np.linalg.eigvalsh(centered.T @ centered / data.shape[0]))[::-1]
        assert np.allclose(model.explained_variance, eigenvalues[:4], atol=1e-9)
        discarded = eigenvalues[4:].sum() * data.shape[0]
        projected = model.transform(rows)
        reconstructed = projected @ model.components + model.mean
        residual = float(((data - reconstructed) ** 2).sum())
        assert residual == pytest.approx(discarded, abs=1e-6)

    def test_isotropic_sample_has_flat_spectrum(self):
        rng = np.random.default_rng(3)
        model = fit_pca(stored_rows(rng.normal(size=(4000, 5))), out_dim=5)
        ratios = model.explained_variance_ratio
        assert ratios.max() / ratios.min() < 1.2

    def test_output_dimension(self):
        rng = np.random.default_rng(4)
        rows = stored_rows(rng.normal(size=(60, 768)))
        model = fit_pca(rows, out_dim=25)
        assert model.transform(rows).shape == (60, 25)
        assert np.allclose(model.components @ model.components.T, np.eye(25), atol=1e-6)

    def test_rank_deficiency_reports_achieved_rank(self):
        data = np.tile(np.arange(6.0), (20, 1)) * np.arange(1.0, 21.0)[:, None]
        with pytest.raises(DataError, match="rank 1"):
            fit_pca(stored_rows(data), out_dim=3)


def reference_scatter_fit_pca(matrix, out_dim=25):
    """The chunked scatter-matrix fit with a fresh centred chunk per step, as first shipped."""
    matrix = np.asarray(matrix, dtype=float)
    n, d = matrix.shape
    mean = matrix.mean(axis=0)
    scatter = np.zeros((d, d))
    for start in range(0, n, PCA_CHUNK_ROWS):
        chunk = matrix[start : start + PCA_CHUNK_ROWS] - mean
        scatter += chunk.T @ chunk
    eigenvalues, vectors = np.linalg.eigh(scatter)
    eigenvalues = eigenvalues[::-1]
    if eigenvalues[0] <= 0.0:
        rank = 0
    else:
        rank = int((eigenvalues > eigenvalues[0] * d * np.finfo(float).eps).sum())
    if rank < out_dim:
        raise DataError(f"rank deficiency: achieved rank {rank} < requested {out_dim}")
    components = vectors[:, ::-1][:, :out_dim].T.copy()
    for row in range(out_dim):
        pivot = int(np.abs(components[row]).argmax())
        if components[row, pivot] < 0:
            components[row] = -components[row]
    variances = eigenvalues[:out_dim] / n
    total = np.trace(scatter) / n
    ratios = variances / total if total > 0 else np.zeros(out_dim)
    return ProjectionModel(
        mean=mean,
        components=components,
        explained_variance=variances,
        explained_variance_ratio=ratios,
    )


def finite_matrices():
    # few distinct values, ±0.0 among them, so duplicate rows are common
    value = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -2.5]), st.floats(-1e6, 1e6))
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda d: st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=25)
    ).map(lambda rows: np.asarray(rows, dtype=float))


class TestWorkingBuffers:
    @pytest.mark.parametrize(
        "n, d, out_dim, constant_column",
        [(300, 12, 5, False), (2 * PCA_CHUNK_ROWS + 808, 16, 10, False), (500, 9, 4, True)],
        ids=["one-chunk", "several-chunks", "constant-column"],
    )
    def test_fit_pca_bytes_equal_fresh_chunk_loop(self, n, d, out_dim, constant_column):
        rng = np.random.default_rng(n * d)
        data = rng.normal(size=(n, d)) * (3.0 * 0.8 ** np.arange(d)) + rng.normal(scale=20.0, size=d)
        if constant_column:
            # a centred column of exact zeros puts signed zeros into the scatter matrix
            data[:, 3] = 7.25
        model = fit_pca(stored_rows(data), out_dim=out_dim).to_dict()
        expected = reference_scatter_fit_pca(data, out_dim=out_dim).to_dict()
        for key, values in expected.items():
            assert np.asarray(model[key]).tobytes() == np.asarray(values).tobytes(), key

    def test_no_chunk_alive_when_eigh_starts(self, monkeypatch):
        rows = stored_rows(np.random.default_rng(12).normal(size=(20_000, 256)))
        traced_at_entry = []
        real_eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            traced_at_entry.append(tracemalloc.get_traced_memory()[0])
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        tracemalloc.start()
        try:
            fit_pca(rows, out_dim=25)
        finally:
            tracemalloc.stop()
        # the d×d scatter matrix and the mean may be alive; no centred chunk
        # (4,096 × 256 float64 is 8.4 MB) and no d×d product buffer
        assert len(traced_at_entry) == 1
        assert traced_at_entry[0] < 2 * 256 * 256 * 8 + 2**20

    @settings(max_examples=60, deadline=None)
    @given(matrix=point_sets(), data=st.data())
    def test_lloyd_without_iterations_matches_reference(self, matrix, data):
        # assignments stay -1, so the inertia is measured against the last centroid
        k = data.draw(st.integers(min_value=1, max_value=matrix.shape[0]), label="k")
        starts = data.draw(st.permutations(range(matrix.shape[0])), label="starts")[:k]
        result = _lloyd(matrix, matrix[starts].copy(), max_iter=0)
        assert_same_result(result, reference_lloyd(matrix, matrix[starts].copy(), max_iter=0))

    @settings(max_examples=150, deadline=None)
    @given(matrix=finite_matrices())
    def test_distinct_row_count_equals_unique(self, matrix):
        assert clustering._distinct_rows(matrix) == np.unique(matrix, axis=0).shape[0]


@dataclass
class GroupedEmbedProvider:
    """Embeddings preset per text; completions via the mock synthesizer."""

    vectors: dict[str, np.ndarray]
    inner: MockProvider = field(default_factory=MockProvider)

    def complete(self, request):
        return self.inner.complete(request)

    def embed(self, texts):
        return np.vstack([self.vectors[text] for text in texts])


def grouped_tasks(n_groups=10, per_group=3, dim=32, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_groups, dim)) * 10
    texts, vectors, truth = [], {}, []
    for group in range(n_groups):
        for member in range(per_group):
            text = f"group {group} duty {member}"
            texts.append(text)
            vectors[text] = centers[group] + rng.normal(0, 0.05, dim)
            truth.append(group)
    return texts, vectors, truth


class TestBuildTaxonomy:
    def test_recovers_ten_groups_of_three(self):
        texts, vectors, truth = grouped_tasks()
        manager = BatchManager(GroupedEmbedProvider(vectors))
        taxonomy, _ = build_taxonomy(texts, manager, seed=3)
        by_category: dict[int, set[int]] = {}
        for index, (category, _) in enumerate(taxonomy.assignments):
            by_category.setdefault(category, set()).add(truth[index])
        assert len(by_category) == 10
        assert all(len(groups) == 1 for groups in by_category.values())

    def test_assignment_total_and_stable(self):
        texts, vectors, _ = grouped_tasks()
        manager = BatchManager(GroupedEmbedProvider(vectors))
        first, _ = build_taxonomy(texts, manager, seed=3)
        second, _ = build_taxonomy(texts, manager, seed=3)
        assert first.assignments == second.assignments
        assert len(first.assignments) == len(texts)
        assert all(label for label in first.category_labels.values())

    def test_fixture_label_attached_verbatim(self):
        texts = ["records filing duty", "records scanning duty", "records archive duty"]
        request = _label_request("label:cat:0", texts, np.array([0, 1, 2]), seed=3, cap=200)
        provider = MockProvider(fixtures={request.fingerprint(): {"label": "Records Management"}})
        manager = BatchManager(provider)
        taxonomy, _ = build_taxonomy(
            texts, manager, seed=3, n_categories=1, n_subclusters=1, pca_dim=2
        )
        assert taxonomy.category_labels[0] == "Records Management"

    def test_label_failure_uses_placeholder(self):
        texts, vectors, _ = grouped_tasks()
        provider = GroupedEmbedProvider(vectors, inner=MockProvider(strict=True))
        manager = BatchManager(provider, policy=RetryPolicy(backoff_base=0.0))
        taxonomy, _ = build_taxonomy(texts, manager, seed=3)
        assert taxonomy.category_labels[0] == "cluster-0"

    def test_every_failed_label_names_its_cluster_key(self, caplog):
        texts, vectors, _ = grouped_tasks()
        provider = GroupedEmbedProvider(vectors, inner=MockProvider(strict=True))
        manager = BatchManager(provider, policy=RetryPolicy(backoff_base=0.0))
        taxonomy, _ = build_taxonomy(texts, manager, seed=3)
        assert taxonomy.category_labels == {c: f"cluster-{c}" for c in range(10)}
        assert taxonomy.subcategory_labels == {
            key: f"cluster-{key[0]}-{key[1]}" for key in taxonomy.subcategory_labels
        }
        assert (3, 1) in taxonomy.subcategory_labels
        (failed,) = [
            record.args[0] for record in caplog.records if record.msg.startswith("placeholder")
        ]
        assert len(failed) == 10 + len(taxonomy.subcategory_labels)

    def test_sampling_caps_at_population(self):
        texts = [f"duty {i}" for i in range(150)]
        request = _label_request("label:cat:0", texts, np.arange(150), seed=1, cap=200)
        listed = request.user_prompt.count("\n")
        assert listed >= 150  # all 150 sampled when below the cap

    def test_sampling_respects_cap(self):
        texts = [f"duty {i}" for i in range(300)]
        request = _label_request("label:cat:0", texts, np.arange(300), seed=1, cap=200)
        assert request.user_prompt.count(". duty") == 200

    def test_too_few_tasks_rejected(self, manager):
        with pytest.raises(UsageError):
            build_taxonomy(["a", "b"], manager, seed=0)

    def test_empty_normalized_text_rejected(self, manager):
        with pytest.raises(UsageError):
            build_taxonomy([""] * 40, manager, seed=0)


class TestStoredRows:
    def test_fit_and_transform_of_stored_rows_equal_the_matrix(self, tmp_path):
        texts = [f"duty {i}" for i in range(2 * PCA_CHUNK_ROWS + 808)]
        # every other row comes from an earlier run's segment
        earlier = BatchManager(MockProvider(dimension=16), cache=ResponseCache(tmp_path))
        earlier.embed_texts(texts[::2])
        manager = BatchManager(MockProvider(dimension=16), cache=ResponseCache(tmp_path))
        rows = manager.embed_texts(texts)
        assert len(list(tmp_path.glob("*.vectors"))) == 2
        # the same rows back to back in one anonymous segment
        contiguous = stored_rows(MockProvider(dimension=16).embed(texts))
        model = fit_pca(rows, out_dim=10)
        expected = fit_pca(contiguous, out_dim=10)
        for key, values in expected.to_dict().items():
            assert np.asarray(model.to_dict()[key]).tobytes() == np.asarray(values).tobytes(), key
        assert model.transform(rows).tobytes() == expected.transform(contiguous).tobytes()

    def test_build_taxonomy_never_holds_the_embedding_matrix(self):
        n, d = 20_000, 256
        texts = [f"duty text {i}" for i in range(n)]
        manager = BatchManager(MockProvider(dimension=d))
        tracemalloc.start()
        try:
            build_taxonomy(texts, manager, seed=1, n_categories=1, n_subclusters=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8 / 2


def assert_same_model(model, expected):
    for key, values in expected.to_dict().items():
        assert np.asarray(model.to_dict()[key]).tobytes() == np.asarray(values).tobytes(), key


class TestKernelReplay:
    @settings(max_examples=80, deadline=None)
    @given(matrix=point_sets(), data=st.data())
    def test_replayed_kmeans_equals_computed(self, matrix, data):
        k = data.draw(st.integers(min_value=1, max_value=matrix.shape[0]), label="k")
        seed = data.draw(st.integers(min_value=0, max_value=2**32), label="seed")
        max_iter = data.draw(st.integers(min_value=0, max_value=5), label="max_iter")
        store = ArrayStore(None)
        computed = kmeans(matrix, k, seed, n_init=2, max_iter=max_iter, store=store)
        replayed = kmeans(matrix, k, seed, n_init=2, max_iter=max_iter, store=store)
        assert (store.computed, store.replayed) == (1, 1)
        plain = kmeans(matrix, k, seed, n_init=2, max_iter=max_iter)
        assert_same_result(computed, plain)
        assert_same_result(replayed, plain)

    def test_replayed_fit_equals_computed(self, tmp_path):
        rows = stored_rows(np.random.default_rng(2).normal(size=(300, 12)))
        computed = fit_pca(rows, out_dim=5, store=ArrayStore(tmp_path))
        store = ArrayStore(tmp_path)  # a later run, reading the directory afresh
        replayed = fit_pca(rows, out_dim=5, store=store)
        assert (store.computed, store.replayed) == (0, 1)
        plain = fit_pca(rows, out_dim=5)
        assert_same_model(computed, plain)
        assert_same_model(replayed, plain)

    def test_rank_deficient_fit_is_not_stored(self, tmp_path):
        data = np.tile(np.arange(6.0), (20, 1)) * np.arange(1.0, 21.0)[:, None]
        store = ArrayStore(tmp_path)
        for _ in range(2):
            with pytest.raises(DataError, match="rank 1"):
                fit_pca(stored_rows(data), out_dim=3, store=store)
        assert store.computed == 0
        assert not list(tmp_path.iterdir())

    def test_miss_stores_the_fit_without_a_copy_of_it(self, tmp_path):
        n, d, out_dim = 40_000, 64, 25
        rows = stored_rows(np.random.default_rng(13).normal(size=(n, d)))
        peaks = []
        for store in (None, ArrayStore(tmp_path)):
            tracemalloc.start()
            try:
                fit_pca(rows, out_dim=out_dim, store=store)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a copy of the projected rows would add n × out_dim × 8 bytes (8 MB)
        assert peaks[1] - peaks[0] < n * out_dim * 8 / 2

    def test_replay_reads_the_rows_once_and_forms_no_scatter(self, tmp_path, monkeypatch):
        n, d = 300, 256
        rows = stored_rows(np.random.default_rng(3).normal(size=(n, d)))
        fit_pca(rows, out_dim=25, store=ArrayStore(tmp_path))
        eigh_calls = record_calls(monkeypatch, np.linalg, "eigh")
        scatter_passes = record_calls(monkeypatch, clustering, "_scatter")
        reads = record_calls(monkeypatch, rows, "readinto")
        store = ArrayStore(tmp_path)
        tracemalloc.start()
        try:
            replayed = fit_pca(rows, out_dim=25, store=store)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (store.computed, store.replayed) == (0, 1)
        assert eigh_calls == [] and scatter_passes == []
        assert len(reads) == 1
        # one 300×256 chunk (614 KB); no d×d scatter or product buffer
        assert peak < n * d * 8 + 256 * 1024
        assert_same_model(replayed, fit_pca(rows, out_dim=25))

    def test_miss_frees_every_chunk_before_eigh(self, tmp_path, monkeypatch):
        n, d = 20_000, 256
        rows = stored_rows(np.random.default_rng(12).normal(size=(n, d)))
        traced_at_entry = []
        real_eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            traced_at_entry.append(tracemalloc.get_traced_memory()[0])
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        # note the first row of each read and count the scatter passes, keeping
        # no buffer alive
        starts, scatter_passes = [], []
        real_readinto, real_scatter = rows.readinto, clustering._scatter

        def recording_readinto(start, out):
            starts.append(start)
            real_readinto(start, out)

        def counting_scatter(*args):
            scatter_passes.append(len(starts))
            return real_scatter(*args)

        monkeypatch.setattr(rows, "readinto", recording_readinto)
        monkeypatch.setattr(clustering, "_scatter", counting_scatter)
        store = ArrayStore(tmp_path)
        tracemalloc.start()
        try:
            computed = fit_pca(rows, out_dim=25, store=store)
        finally:
            tracemalloc.stop()
        assert (store.computed, store.replayed) == (1, 0)
        # the mean's pass, hashed, then one scatter pass, then the projection's
        chunk_starts = list(range(0, n, PCA_CHUNK_ROWS))
        assert starts == 3 * chunk_starts
        assert scatter_passes == [len(chunk_starts)]
        # the d×d scatter matrix and the mean may be alive; no chunk (8.4 MB)
        assert len(traced_at_entry) == 1
        assert traced_at_entry[0] < 2 * d * d * 8 + 2**20
        assert_same_model(computed, fit_pca(rows, out_dim=25))

    def test_scatter_keyed_record_is_recomputed_once(self, tmp_path, monkeypatch):
        n, d, out_dim = 300, 12, 5
        rows = stored_rows(np.random.default_rng(4).normal(size=(n, d)))
        plain = fit_pca(rows, out_dim=out_dim)
        # the record an earlier version stored, keyed by the scatter matrix
        scatter = clustering._scatter(rows, plain.mean)
        old_key = f"pca {clustering._digest(scatter)} {d}x{d} n={n} out_dim={out_dim}"
        record = np.concatenate(
            [plain.components.ravel(), plain.explained_variance, plain.explained_variance_ratio]
        )
        ArrayStore(tmp_path).append([old_key], record, record.size)
        eigh_calls = record_calls(monkeypatch, np.linalg, "eigh")
        store = ArrayStore(tmp_path)
        upgraded = fit_pca(rows, out_dim=out_dim, store=store)
        assert (store.computed, store.replayed) == (1, 0)
        assert len(eigh_calls) == 1
        later = ArrayStore(tmp_path)
        replayed = fit_pca(rows, out_dim=out_dim, store=later)
        assert (later.computed, later.replayed) == (0, 1)
        assert len(eigh_calls) == 1
        assert_same_model(upgraded, plain)
        assert_same_model(replayed, plain)

    def test_fit_keyed_record_without_projection_is_recomputed_once(self, tmp_path, monkeypatch):
        n, d, out_dim = 300, 12, 5
        data = np.random.default_rng(4).normal(size=(n, d))
        rows = stored_rows(data)
        plain = fit_pca(rows, out_dim=out_dim)
        # the record an earlier version stored: the fit without the projected rows
        old_key = f"pca-rows {hashlib.sha256(data).hexdigest()} {n}x{d} out_dim={out_dim}"
        record = np.concatenate(
            [plain.components.ravel(), plain.explained_variance, plain.explained_variance_ratio]
        )
        ArrayStore(tmp_path).append([old_key], record, record.size)
        eigh_calls = record_calls(monkeypatch, np.linalg, "eigh")
        store = ArrayStore(tmp_path)
        upgraded = fit_pca(rows, out_dim=out_dim, store=store)
        assert (store.computed, store.replayed) == (1, 0)
        assert len(eigh_calls) == 1
        later = ArrayStore(tmp_path)
        replayed = fit_pca(rows, out_dim=out_dim, store=later)
        assert (later.computed, later.replayed) == (0, 1)
        assert len(eigh_calls) == 1
        assert_same_model(upgraded, plain)
        assert_same_model(replayed, plain)
        assert replayed.projected.tobytes() == plain.projected.tobytes()

    def test_replayed_projection_makes_no_matmul_and_one_pass(self, tmp_path, monkeypatch):
        n, d, out_dim = PCA_CHUNK_ROWS + 300, 8, 3
        rows = stored_rows(np.random.default_rng(13).normal(size=(n, d)))
        fit_pca(rows, out_dim=out_dim, store=ArrayStore(tmp_path))
        matmul_calls = record_calls(monkeypatch, np, "matmul")
        reads = record_calls(monkeypatch, rows, "readinto")
        store = ArrayStore(tmp_path)
        replayed = fit_pca(rows, out_dim=out_dim, store=store)
        assert (store.computed, store.replayed) == (0, 1)
        assert matmul_calls == []
        assert [start for start, _ in reads] == list(range(0, n, PCA_CHUNK_ROWS))
        monkeypatch.undo()
        expected = fit_pca(rows, out_dim=out_dim).transform(rows)
        assert replayed.projected.tobytes() == expected.tobytes()

    def test_taxonomy_model_holds_no_record_with_the_coordinates(self, tmp_path):
        texts = [f"duty text {i}" for i in range(2_000)]
        # the PCA fit and three k-means results computed, then replayed by a later run
        for expected in [(4, 0), (0, 4)]:
            manager = BatchManager(MockProvider(dimension=64), cache=ResponseCache(tmp_path))
            _, projection = build_taxonomy(texts, manager, seed=1, n_categories=2, n_subclusters=1)
            assert (manager.arrays.computed, manager.arrays.replayed) == expected
            assert projection.projected is None
            for values in (
                projection.mean,
                projection.components,
                projection.explained_variance,
                projection.explained_variance_ratio,
            ):
                while values.base is not None:
                    values = values.base
                # 2,000 × 25 float64 coordinates are 400 KB
                assert values.nbytes < 2_000 * 25 * 8 / 10

    def test_fit_recomputes_when_a_later_chunk_changes(self, tmp_path):
        data = np.random.default_rng(8).normal(size=(2 * PCA_CHUNK_ROWS + 8, 4))
        fit_pca(stored_rows(data), out_dim=2, store=ArrayStore(tmp_path))
        data[PCA_CHUNK_ROWS + 3, 2] = np.nextafter(data[PCA_CHUNK_ROWS + 3, 2], np.inf)
        store = ArrayStore(tmp_path)
        refit = fit_pca(stored_rows(data), out_dim=2, store=store)
        assert (store.computed, store.replayed) == (1, 0)
        assert_same_model(refit, fit_pca(stored_rows(data), out_dim=2))

    @pytest.mark.parametrize(
        "change",
        [
            {"coordinate": True},
            {"k": 4},
            {"seed": 8},
            {"n_init": 3},
            {"max_iter": 299},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_kmeans_recomputes_for_any_other_input(self, tmp_path, monkeypatch, change):
        points = np.random.default_rng(5).normal(size=(40, 3))
        arguments = {"k": 3, "seed": 7, "n_init": 2, "max_iter": 300}
        kmeans(points, **arguments, store=ArrayStore(tmp_path))
        if change.pop("coordinate", False):
            points = points.copy()
            points[17, 1] = np.nextafter(points[17, 1], np.inf)
        arguments.update(change)
        lloyd_runs = record_calls(monkeypatch, clustering, "_lloyd")
        store = ArrayStore(tmp_path)
        result = kmeans(points, **arguments, store=store)
        assert (store.computed, store.replayed) == (1, 0)
        assert len(lloyd_runs) == arguments["n_init"]
        assert_same_result(result, kmeans(points, **arguments))

    def test_fit_recomputes_for_another_out_dim(self, tmp_path, monkeypatch):
        rows = stored_rows(np.random.default_rng(6).normal(size=(200, 10)))
        fit_pca(rows, out_dim=4, store=ArrayStore(tmp_path))
        eigh_calls = record_calls(monkeypatch, np.linalg, "eigh")
        store = ArrayStore(tmp_path)
        assert_same_model(fit_pca(rows, out_dim=5, store=store), fit_pca(rows, out_dim=5))
        assert (store.computed, store.replayed) == (1, 0)
        assert len(eigh_calls) == 2

    def test_no_result_replayed_under_another_numeric_identity(self, tmp_path, monkeypatch):
        points = np.random.default_rng(9).normal(size=(30, 2))
        rows = stored_rows(points)
        first = ArrayStore(tmp_path)
        kmeans(points, 3, seed=1, store=first)
        fit_pca(rows, out_dim=2, store=first)
        same = ArrayStore(tmp_path)
        kmeans(points, 3, seed=1, store=same)
        fit_pca(rows, out_dim=2, store=same)
        assert (same.computed, same.replayed) == (0, 2)
        identity = cache_module.numeric_identity()
        monkeypatch.setattr(cache_module, "numeric_identity", lambda: identity + " elsewhere")
        other = ArrayStore(tmp_path)
        kmeans(points, 3, seed=1, store=other)
        fit_pca(rows, out_dim=2, store=other)
        assert (other.computed, other.replayed) == (2, 0)

    @pytest.mark.parametrize("variable", cache_module.BLAS_THREAD_VARIABLES)
    def test_thread_settings_enter_the_numeric_identity(self, monkeypatch, variable):
        identity = cache_module.numeric_identity()
        monkeypatch.setenv(variable, "2" if os.environ.get(variable) == "1" else "1")
        assert cache_module.numeric_identity() != identity

    def test_usable_cpus_enter_the_numeric_identity(self, monkeypatch):
        identity = cache_module.numeric_identity()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3, 4, 5, 6, 7, 64})
        assert cache_module.numeric_identity() != identity

    def test_library_thread_count_enters_the_numeric_identity(self, monkeypatch):
        count = cache_module.blas_thread_count()
        # OpenBLAS read its variables when numpy was loaded; setting one now changes no thread
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str((count or 1) + 1))
        assert json.loads(cache_module.numeric_identity())["blas_threads"] == count
        assert cache_module.blas_thread_count() == count

    def test_thread_count_is_read_from_the_library(self):
        src = os.path.dirname(os.path.dirname(clustering.__file__))
        script = "from taskshift.gateway import cache; print(cache.blas_thread_count())"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        expected = "None" if cache_module.blas_thread_count() is None else "1"
        assert result.stdout.strip() == expected

    def test_importing_taskshift_sets_one_thread_after_numpy_loaded(self):
        src = os.path.dirname(os.path.dirname(clustering.__file__))
        script = (
            "import numpy; import taskshift; from taskshift.gateway import cache; "
            "print(cache.blas_thread_count())"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        expected = "None" if cache_module.blas_thread_count() is None else "1"
        assert result.stdout.strip() == expected
