"""Clustering pipelines: exposure clusters over roles and a task taxonomy.

The K-means core is deterministic under a fixed seed: seeded k-means++
initialization, Lloyd iterations to an assignment fixpoint (capped), ties
broken toward the lowest centroid index, restarts keeping lowest inertia.
The taxonomy pipeline runs normalized task texts through embeddings, a
PCA projection, top-level clusters and per-cluster sub-clusters, then
samples members for human-readable labels.
"""

from __future__ import annotations

import hashlib
import logging
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DataError, ProviderError, UsageError
from .gateway import ArrayStore, BatchManager, EmbeddingRows, subseed
from .inputs import read_lines
from .prompts import cluster_label_request

log = logging.getLogger(__name__)

_NON_ALPHA_RE = re.compile(r"[^a-z]+")
_VOWELS = set("aeiou")
# the category label of a task the taxonomy does not place (its text normalizes to nothing)
UNCATEGORIZED = "uncategorized"
# Rows per chunk when fitting and applying the PCA projection; the chunk
# order is fixed, so the scatter matrix sums the same way on every run.
PCA_CHUNK_ROWS = 4096


class ExposureCluster(str, Enum):
    """Role clusters named in ascending order of centroid mean exposure."""

    LOW = "Low"
    AUGMENTATION = "Augmentation"
    ADAPTATION = "Adaptation"
    AUTOMATION = "Automation"


class KMeansResult(NamedTuple):
    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int


def kmeans(
    points: Sequence[Sequence[float]] | np.ndarray,
    k: int,
    seed: int,
    n_init: int = 10,
    max_iter: int = 300,
    store: ArrayStore | None = None,
) -> KMeansResult:
    """Seeded k-means over row vectors; deterministic for fixed inputs.

    With a ``store``, the result is looked up under a digest of the point
    bytes, the shape and every argument, and computed and stored on a miss.
    """
    matrix = np.asarray(points, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise UsageError("kmeans needs a non-empty 2-D point matrix")
    if k < 1 or k > matrix.shape[0]:
        raise UsageError(f"k={k} invalid for {matrix.shape[0]} points")
    if store is None:
        return _restarts(matrix, k, seed, n_init, max_iter)

    def compute() -> tuple:
        result = _restarts(matrix, k, seed, n_init, max_iter)
        return result.iterations, result.inertia, result.assignments, result.centroids

    n, d = matrix.shape
    key = f"kmeans {_digest(matrix)} {n}x{d} k={k} seed={seed} n_init={n_init} max_iter={max_iter}"
    iterations, inertia, assignments, centroids = store.replay(
        key, [(), (), (n,), (k, d)], compute
    )
    # assignments are stored as float64, exact below 2**53
    return KMeansResult(assignments.astype(np.intp), centroids, float(inertia), int(iterations))


def _digest(matrix: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(matrix)).hexdigest()


def _restarts(matrix: np.ndarray, k: int, seed: int, n_init: int, max_iter: int) -> KMeansResult:
    """The lowest-inertia Lloyd run of ``n_init`` seeded k-means++ starts."""
    root = np.random.default_rng(seed)
    restart_seeds = root.integers(0, 2**63 - 1, size=n_init)
    best: KMeansResult | None = None
    for restart_seed in restart_seeds:
        rng = np.random.default_rng(int(restart_seed))
        centroids = _kmeans_pp(matrix, k, rng)
        result = _lloyd(matrix, centroids, max_iter)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best


def _pairwise_d2(
    matrix: np.ndarray, centers: np.ndarray, row_norms: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Squared distances point-to-center without the n*k*d broadcast.

    Computes ``row_norms - 2 * (matrix @ centers.T) + center_norms`` in
    that order, in place in one buffer: ``out`` (n×k) when given, so a
    caller can reuse it across calls, else a new array.
    """
    d2 = np.matmul(matrix, centers.T, out=out)
    d2 *= 2.0
    np.subtract(row_norms[:, None], d2, out=d2)
    d2 += (centers**2).sum(axis=1)[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def _kmeans_pp(matrix: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    row_norms = (matrix**2).sum(axis=1)
    chosen = [int(rng.integers(matrix.shape[0]))]
    d2 = _pairwise_d2(matrix, matrix[chosen[-1]][None, :], row_norms)[:, 0]
    newest = np.empty((matrix.shape[0], 1))
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            taken = set(chosen)
            chosen.append(next(i for i in range(matrix.shape[0]) if i not in taken))
        else:
            chosen.append(int(rng.choice(matrix.shape[0], p=d2 / total)))
        _pairwise_d2(matrix, matrix[chosen[-1]][None, :], row_norms, out=newest)
        np.minimum(d2, newest[:, 0], out=d2)
    return matrix[chosen].copy()


def _lloyd(matrix: np.ndarray, centroids: np.ndarray, max_iter: int) -> KMeansResult:
    n, k = matrix.shape[0], centroids.shape[0]
    row_norms = (matrix**2).sum(axis=1)
    assignments = np.full(n, -1, dtype=int)
    # One n×k distance buffer and one n×d gather buffer serve every
    # iteration and the final inertia, so the loop allocates neither again.
    d2 = np.empty((n, k))
    grouped = np.empty(matrix.shape)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        _pairwise_d2(matrix, centroids, row_norms, out=d2)
        new_assignments = d2.argmin(axis=1)  # argmin takes the lowest index on ties
        counts = np.bincount(new_assignments, minlength=k)
        if not counts.all():
            own = d2[np.arange(n), new_assignments].copy()
            for cluster in range(k):
                if not (new_assignments == cluster).any():
                    mover = int(own.argmax())
                    new_assignments[mover] = cluster
                    own[mover] = 0.0
            counts = np.bincount(new_assignments, minlength=k)
            # a mover may have emptied a cluster; refill it from one with two
            for cluster in np.flatnonzero(counts == 0):
                mover = int(np.where(counts[new_assignments] > 1, own, -1.0).argmax())
                counts[new_assignments[mover]] -= 1
                counts[cluster] = 1
                new_assignments[mover] = cluster
        if (new_assignments == assignments).all():
            break
        assignments = new_assignments
        # Each centroid is its members' mean, reduced exactly as
        # matrix[assignments == c].mean(axis=0) reduces it: a stable sort
        # lays each cluster's rows out contiguously in index order, and
        # np.add.reduce over that slice runs the same summation. One sort
        # replaces k masked passes. np.add.reduceat is not used because it
        # sums a segment in another order, so its bits differ.
        # The labels are cast to the smallest unsigned dtype that holds k - 1
        # so that the stable argsort is a radix sort; a stable sort's
        # permutation does not depend on the dtype.
        order = np.argsort(assignments.astype(np.min_scalar_type(k - 1)), kind="stable")
        # mode="wrap" writes straight into ``out``; the default "raise"
        # gathers into a temporary first. Every index here is in range.
        np.take(matrix, order, axis=0, out=grouped, mode="wrap")
        ends = np.cumsum(counts).tolist()
        sums = np.empty_like(centroids)
        start = 0
        for cluster, end in enumerate(ends):
            sums[cluster] = np.add.reduce(grouped[start:end], axis=0)
            start = end
        centroids = sums / counts[:, None]
    # ((matrix - centroids[assignments]) ** 2).sum(), in the gather buffer;
    # "wrap" reads index -1 (no iteration ran) as the last centroid, as
    # centroids[-1] does
    np.take(centroids, assignments, axis=0, out=grouped, mode="wrap")
    np.subtract(matrix, grouped, out=grouped)
    np.multiply(grouped, grouped, out=grouped)
    inertia = float(grouped.sum())
    return KMeansResult(assignments, centroids, inertia, iterations)


def _distinct_rows(matrix: np.ndarray) -> int:
    """Number of distinct rows of a finite matrix, as ``np.unique(matrix, axis=0)`` counts them.

    Rows compare by value, so ``-0.0`` equals ``0.0``. After a
    lexicographic sort equal rows are adjacent, and each distinct row
    starts a run, so the count needs one sorted copy of the matrix, not a
    Python tuple per row. ``np.unique`` with an axis imports ``numpy.ma``
    on first use, which costs more than this count.
    """
    if matrix.shape[0] == 0:
        return 0
    ordered = matrix[np.lexsort(matrix.T)]
    return 1 + int((ordered[1:] != ordered[:-1]).any(axis=1).sum())


class RoleClusters(NamedTuple):
    labels: tuple[ExposureCluster, ...]
    centroids: dict[ExposureCluster, tuple[float, float]]


def cluster_roles(
    role_points: Sequence[tuple[float, float]], seed: int, store: ArrayStore | None = None
) -> RoleClusters:
    """Partition (mean, std) exposure pairs into the four named clusters.

    Names follow ascending centroid mean. Raw axes are used directly,
    both being on comparable [0, 1]-bounded scales. ``store`` is passed to
    :func:`kmeans`.
    """
    matrix = np.asarray(role_points, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != 2:
        raise UsageError("cluster_roles expects (mean, std) pairs")
    if matrix.shape[0] < len(ExposureCluster):
        raise DataError(f"need at least 4 roles, got {matrix.shape[0]}")
    if _distinct_rows(matrix) < len(ExposureCluster):
        raise DataError("degenerate geometry: fewer than 4 distinct (mean, std) points")

    result = kmeans(matrix, k=4, seed=seed, store=store)
    order = np.argsort(result.centroids[:, 0], kind="stable")
    name_for = {int(cluster): name for cluster, name in zip(order, ExposureCluster)}
    labels = tuple(name_for[int(assignment)] for assignment in result.assignments)
    centroids = {
        name_for[int(cluster)]: (
            float(result.centroids[cluster, 0]),
            float(result.centroids[cluster, 1]),
        )
        for cluster in range(4)
    }
    return RoleClusters(labels=labels, centroids=centroids)


@lru_cache(maxsize=1)
def _default_stopwords() -> frozenset[str]:
    raw = resources.files("taskshift.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(word.strip() for word in raw.splitlines() if word.strip())


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    if path is None:
        return _default_stopwords()
    return frozenset(word.strip() for word in read_lines(path, "stopwords file") if word.strip())


def _vowel_groups(word: str) -> int:
    groups = 0
    previous_vowel = False
    for char in word:
        is_vowel = char in _VOWELS
        if is_vowel and not previous_vowel:
            groups += 1
        previous_vowel = is_vowel
    return groups


def _strip_verb_suffix(stem: str) -> str:
    """Fixups after removing -ing/-ed: undouble or restore a final e."""
    if len(stem) < 3:
        return stem
    if stem[-1] == stem[-2] and stem[-1] not in "aeioulsz":
        return stem[:-1]
    if (
        stem[-1] not in _VOWELS
        and stem[-1] not in "wxy"
        and stem[-2] in _VOWELS
        and stem[-3] not in _VOWELS
        and _vowel_groups(stem) <= 2
    ):
        return stem + "e"
    return stem


# task vocabulary repeats across adverts (234 distinct of 4,787 tokens at
# 500 roles), so each distinct word is reduced once; the bound keeps the memo
# to a few megabytes however large the vocabulary grows
@lru_cache(maxsize=1 << 14)
def lemmatize(word: str) -> str:
    """Suffix-rule lemmatizer: plural stripping, then -ing/-ed removal.

    Repeats until nothing changes, so a lemma is its own lemma.
    """
    while len(word) > 3:
        before = word
        if word.endswith("ies") and len(word) >= 5:
            word = word[:-3] + "y"
        elif len(word) >= 5 and (
            (word.endswith("es") and word[-3] in "xz") or word.endswith(("sses", "ches", "shes"))
        ):
            word = word[:-2]
        elif word.endswith("s") and not word.endswith(("ss", "us", "is")):
            word = word[:-1]
        if word.endswith("ing") and len(word) >= 6:
            word = _strip_verb_suffix(word[:-3])
        elif word.endswith("ed") and not word.endswith("eed"):
            stem = _strip_verb_suffix(word[:-2])
            word = stem if len(stem) >= 4 else word  # embed, shred stay whole
        if word == before:
            break
    return word


def normalize_text(text: str, stopwords: frozenset[str] | None = None) -> str:
    """Lowercase, drop digits/punctuation/stopwords, lemmatize, re-join.

    May return an empty string (callers flag those tasks rather than
    clustering them). Idempotent.
    """
    if stopwords is None:
        stopwords = _default_stopwords()
    tokens = [token for token in _NON_ALPHA_RE.sub(" ", text.lower()).split() if token]
    kept = [lemmatize(token) for token in tokens if token not in stopwords]
    return " ".join(token for token in kept if token and token not in stopwords)


def _chunks(rows: EmbeddingRows) -> Iterator[tuple[int, np.ndarray]]:
    """``(start, chunk)`` for each ``PCA_CHUNK_ROWS``-row chunk of ``rows``, in row order.

    Every chunk is read from the embedding store into one buffer of
    ``min(n, PCA_CHUNK_ROWS)`` rows, reused, so a caller may overwrite it;
    no array as large as the input is made. The buffer is freed once the
    caller lets go of the last chunk.
    """
    n, d = rows.shape
    buffer = np.empty((min(n, PCA_CHUNK_ROWS), d))
    for start in range(0, n, PCA_CHUNK_ROWS):
        chunk = buffer[: min(PCA_CHUNK_ROWS, n - start)]
        rows.readinto(start, chunk)
        yield start, chunk


@dataclass
class ProjectionModel:
    """Mean-centered projection onto the top principal components.

    ``projected`` holds the fitted rows' coordinates, as :meth:`transform`
    gives them, when :func:`fit_pca` made the model; ``to_dict`` leaves it out.
    """

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray
    explained_variance_ratio: np.ndarray
    projected: np.ndarray | None = None

    def transform(self, rows: EmbeddingRows) -> np.ndarray:
        """Project stored rows onto the components, one ``PCA_CHUNK_ROWS`` chunk at a time."""
        n = rows.shape[0]
        projected = np.empty((n, self.components.shape[0]))
        for start, chunk in _chunks(rows):
            chunk -= self.mean
            np.matmul(chunk, self.components.T, out=projected[start : start + chunk.shape[0]])
        return projected

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "components": self.components.tolist(),
            "explained_variance": self.explained_variance.tolist(),
            "explained_variance_ratio": self.explained_variance_ratio.tolist(),
        }


def _column_mean(rows: EmbeddingRows, hasher: hashlib._Hash | None = None) -> np.ndarray:
    """Column mean of ``rows`` from one pass over the chunks; ``hasher`` is fed their bytes.

    The mean is a running sum in row order: each chunk after the first
    carries the sum so far in its first row, and ``np.add.reduce`` over
    axis 0 adds rows one after another, so the sum rounds as
    ``matrix.mean(axis=0)`` rounds it whenever d > 1 (numpy sums a single
    column pairwise) or the rows fit in one chunk. Each chunk is hashed
    before the sum is carried into it, so ``hasher`` digests the rows'
    float64 bytes in row order.
    """
    total = np.zeros(rows.shape[1])
    for start, chunk in _chunks(rows):
        if hasher is not None:
            hasher.update(chunk)
        if start:
            chunk[0] += total
        np.add.reduce(chunk, axis=0, out=total)
    return total / rows.shape[0]


def _scatter(rows: EmbeddingRows, mean: np.ndarray) -> np.ndarray:
    """The centred scatter matrix: the sum of each centred chunk's ``chunk.T @ chunk``.

    Each product is formed in one reused d×d buffer, freed when this returns.
    """
    d = rows.shape[1]
    scatter = np.zeros((d, d))
    product = np.empty((d, d))
    for _, chunk in _chunks(rows):
        chunk -= mean
        np.matmul(chunk.T, chunk, out=product)
        scatter += product
    return scatter


def fit_pca(
    rows: EmbeddingRows, out_dim: int = 25, store: ArrayStore | None = None
) -> ProjectionModel:
    """Fit a PCA projection; errors if the data cannot support ``out_dim``.

    ``rows`` are the stored rows :meth:`BatchManager.embed_texts` returns,
    read in ``PCA_CHUNK_ROWS``-row chunks in row order (see ``_column_mean``
    and ``_scatter``), so no array as large as the input is made. The top
    eigenvectors of the centred scatter matrix are the components. An
    eigenvalue counts toward the rank when it exceeds ``d * eps`` times the
    largest: below that, eigenvalues of a d×d scatter matrix are rounding
    noise.

    A third pass projects the rows onto the components (``projected``).
    With a ``store``, the components, variances, ratios and projected rows
    are looked up under the SHA-256 of the rows' float64 bytes, taken in
    the mean's pass, and the shape and ``out_dim``. A hit makes no other
    pass and no BLAS call; a miss makes the scatter and projection passes
    with that mean, and stores the fit only if it passes the rank check.
    """
    n, d = rows.shape
    if out_dim < 1 or out_dim > d:
        raise UsageError(f"out_dim={out_dim} invalid for {d}-dim input")
    hasher = None if store is None else hashlib.sha256()
    mean = _column_mean(rows, hasher)

    def compute() -> tuple[np.ndarray, ...]:
        # no chunk buffer is alive next to eigh's own input copy and LAPACK workspace
        axes = _principal_axes(_scatter(rows, mean), n, out_dim)
        return (*axes, ProjectionModel(mean, *axes).transform(rows))

    if store is None:
        parts = compute()
    else:
        key = f"pca-rows {hasher.hexdigest()} {n}x{d} out_dim={out_dim} projected"
        parts = store.replay(key, [(out_dim, d), (out_dim,), (out_dim,), (n, out_dim)], compute)
    # the axes are copied out of a replayed record, so dropping ``projected`` frees it
    *axes, projected = parts
    return ProjectionModel(mean, *(axis.copy() for axis in axes), projected)


def _principal_axes(
    scatter: np.ndarray, n: int, out_dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The top ``out_dim`` components of a d×d scatter matrix, their variances and ratios."""
    d = scatter.shape[0]
    eigenvalues, vectors = np.linalg.eigh(scatter)
    eigenvalues = eigenvalues[::-1]
    if eigenvalues[0] <= 0.0:
        rank = 0
    else:
        rank = int((eigenvalues > eigenvalues[0] * d * np.finfo(float).eps).sum())
    if rank < out_dim:
        raise DataError(f"rank deficiency: achieved rank {rank} < requested {out_dim}")
    components = vectors[:, ::-1][:, :out_dim].T.copy()
    # deterministic sign: largest-magnitude loading of each component is positive
    for row in range(out_dim):
        pivot = int(np.abs(components[row]).argmax())
        if components[row, pivot] < 0:
            components[row] = -components[row]
    variances = eigenvalues[:out_dim] / n
    total = np.trace(scatter) / n
    ratios = variances / total if total > 0 else np.zeros(out_dim)
    return components, variances, ratios


@dataclass
class TaskTaxonomy:
    """Two-level task typology with human-readable labels."""

    category_labels: dict[int, str]
    subcategory_labels: dict[tuple[int, int], str]
    assignments: list[tuple[int, int]]

    def label_of(self, index: int) -> tuple[str, str]:
        category, subcategory = self.assignments[index]
        return self.category_labels[category], self.subcategory_labels[(category, subcategory)]


def build_taxonomy(
    tasks: Sequence[str],
    manager: BatchManager,
    seed: int,
    n_categories: int = 10,
    n_subclusters: int = 3,
    pca_dim: int = 25,
    sample_cap: int = 200,
) -> tuple[TaskTaxonomy, ProjectionModel]:
    """Cluster normalized task texts and label every (sub-)cluster.

    The projection dimension is clamped to what the corpus can support;
    label-request failures degrade to "cluster-<id>" placeholders. The PCA
    fit, with its projected rows, and every k-means run go through
    ``manager.arrays``.
    """
    minimum = n_categories * n_subclusters
    if len(tasks) < minimum:
        raise UsageError(f"need at least {minimum} tasks, got {len(tasks)}")
    if any(not task for task in tasks):
        raise UsageError("taxonomy input contains empty normalized texts")

    embeddings = manager.embed_texts(tasks)
    effective_dim = min(pca_dim, embeddings.shape[1], embeddings.shape[0] - 1)
    if effective_dim < pca_dim:
        log.info("clamping projection from %d to %d dims", pca_dim, effective_dim)
    store = manager.arrays
    projection = fit_pca(embeddings, out_dim=effective_dim, store=store)
    # the caller keeps the model, not the n×pca_dim coordinates
    projected, projection.projected = projection.projected, None

    top = kmeans(projected, k=n_categories, seed=subseed(seed, "taxonomy-top"), store=store)
    subcategories = np.full(len(tasks), -1)

    # each label request beside its (category,) or (category, subcluster) key
    label_keys: list[tuple[int, ...]] = []
    label_requests = []
    members_by_cluster: dict[int, np.ndarray] = {}
    for category in range(n_categories):
        members = np.flatnonzero(top.assignments == category)
        members_by_cluster[category] = members
        label_keys.append((category,))
        label_requests.append(
            _label_request(f"label:cat:{category}", tasks, members, seed, sample_cap)
        )

    for category in range(n_categories):
        members = members_by_cluster[category]
        sub_k = min(n_subclusters, _distinct_rows(projected[members]))
        sub_seed = subseed(seed, f"taxonomy-sub-{category}")
        sub = kmeans(projected[members], k=sub_k, seed=sub_seed, store=store)
        subcategories[members] = sub.assignments
        for subcluster in range(sub_k):
            sub_members = members[sub.assignments == subcluster]
            label_keys.append((category, subcluster))
            label_requests.append(
                _label_request(
                    f"label:sub:{category}:{subcluster}", tasks, sub_members, seed, sample_cap
                )
            )

    responses, report = manager.submit_batch(label_requests)
    by_id = {response.request_id: response for response in responses}
    failures = [request_id for request_id, _ in report.failed]

    category_labels: dict[int, str] = {}
    subcategory_labels: dict[tuple[int, int], str] = {}
    for key, request in zip(label_keys, label_requests):
        response = by_id.get(request.request_id)
        label = response.payload["label"] if response else "cluster-" + "-".join(map(str, key))
        if len(key) == 1:
            category_labels[key[0]] = label
        else:
            subcategory_labels[key] = label
    if failures:
        log.warning("placeholder labels for failed requests: %s", failures)

    taxonomy = TaskTaxonomy(
        category_labels=category_labels,
        subcategory_labels=subcategory_labels,
        assignments=list(zip(top.assignments.tolist(), subcategories.tolist())),
    )
    return taxonomy, projection


def _label_request(request_id: str, tasks: Sequence[str], members: np.ndarray, seed: int, cap: int):
    rng = np.random.default_rng(subseed(seed, request_id))
    size = min(cap, members.size)
    sampled = rng.choice(members, size=size, replace=False) if size else np.empty(0, dtype=int)
    texts = [tasks[int(index)] for index in np.sort(sampled)]
    if not texts:
        raise ProviderError(f"cannot label an empty cluster ({request_id})")
    return cluster_label_request(request_id, texts)
