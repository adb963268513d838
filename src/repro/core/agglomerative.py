"""Agglomerative clustering used to generate the Golden Dictionary.

The paper chooses agglomerative clustering (AC) over k-means because AC is
not sensitive to initial cluster selection (Section II-B), but notes that
running AC directly on million-value tensors is impractical because of its
O(n^2) memory and O(n^3) runtime.  Mokey therefore only runs AC once, on a
synthetic 50,000-sample N(0,1) distribution.  The paper generates its
Golden Dictionary with SciKit-Learn's agglomerative clustering, whose
default criterion is Ward linkage; Ward keeps the densely populated region
near the mean finely clustered and absorbs the sparse tail into wide
clusters, which is what gives the Golden Dictionary its shape (innermost
centroid near zero, outermost around 2.2 sigma).

Two implementations are provided:

* :func:`pairwise_agglomerative` — the textbook O(n^3) bottom-up algorithm
  supporting Ward and average linkage.  Exact, used on small inputs and as
  the reference in tests.
* :func:`agglomerative_cluster_1d` — an efficient O(n log n) variant that
  exploits the input being one-dimensional: clusters are contiguous ranges
  of the sorted input, so only adjacent cluster pairs ever need to be
  considered for merging.  This makes the 50,000-sample Golden Dictionary
  generation tractable, but not cheap: the default four repeats take
  ~2.8-5 s of pure Python on a 2-vCPU Xeon container, so generate the
  dictionary once and share it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["ClusteringResult", "pairwise_agglomerative", "agglomerative_cluster_1d"]

_LINKAGES = ("ward", "average")


@dataclass
class ClusteringResult:
    """Result of an agglomerative clustering run.

    Attributes:
        centroids: Cluster means, sorted ascending.
        sizes: Number of input values assigned to each centroid.
        assignments: For each input value (in the original order), the index
            of the centroid it belongs to.
    """

    centroids: np.ndarray
    sizes: np.ndarray
    assignments: np.ndarray

    @property
    def num_clusters(self) -> int:
        return len(self.centroids)


def _validate(values: np.ndarray, num_clusters: int, linkage: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("cannot cluster an empty array")
    if num_clusters < 1:
        raise ValueError("num_clusters must be >= 1")
    if num_clusters > values.size:
        raise ValueError(
            f"num_clusters ({num_clusters}) exceeds number of values ({values.size})"
        )
    if linkage not in _LINKAGES:
        raise ValueError(f"linkage must be one of {_LINKAGES}, got {linkage!r}")
    return values


def _linkage_distance(
    linkage: str, mean_a: float, count_a: int, mean_b: float, count_b: int
) -> float:
    """Merge cost between two disjoint 1-D clusters given their summaries.

    For contiguous 1-D clusters the average pairwise distance (average
    linkage) reduces to the distance between the cluster means, and Ward's
    criterion is the usual ``nA*nB/(nA+nB) * ||meanA-meanB||^2``.
    """
    gap = abs(mean_b - mean_a)
    if linkage == "average":
        return gap
    return (count_a * count_b) / (count_a + count_b) * gap * gap


def pairwise_agglomerative(
    values: Sequence[float], num_clusters: int, linkage: str = "ward"
) -> ClusteringResult:
    """Exact bottom-up agglomerative clustering (small inputs only).

    Every value starts as its own cluster; at each step the pair of
    clusters with the smallest linkage cost is merged, until
    ``num_clusters`` remain.
    """
    values = _validate(np.asarray(values), num_clusters, linkage)
    n = values.size
    if n > 2000:
        raise ValueError(
            "pairwise_agglomerative is O(n^3); use agglomerative_cluster_1d for large inputs"
        )

    clusters: List[List[int]] = [[i] for i in range(n)]
    while len(clusters) > num_clusters:
        best = (float("inf"), -1, -1)
        for i in range(len(clusters)):
            vi = values[clusters[i]]
            for j in range(i + 1, len(clusters)):
                vj = values[clusters[j]]
                if linkage == "average":
                    dist = float(np.abs(vi[:, None] - vj[None, :]).mean())
                else:
                    dist = _linkage_distance(
                        "ward", float(vi.mean()), vi.size, float(vj.mean()), vj.size
                    )
                if dist < best[0]:
                    best = (dist, i, j)
        _, i, j = best
        clusters[i] = clusters[i] + clusters[j]
        del clusters[j]

    return _build_result(values, clusters)


def agglomerative_cluster_1d(
    values: Sequence[float], num_clusters: int, linkage: str = "ward"
) -> ClusteringResult:
    """Efficient agglomerative clustering for 1-D data.

    Exploits the fact that for one-dimensional data, clusters produced by
    Ward or average linkage are contiguous ranges of the sorted input, so
    merging only ever needs to consider adjacent cluster pairs.  A lazy
    heap over adjacent-pair merge costs handles this in O(n log n).
    """
    values = _validate(np.asarray(values), num_clusters, linkage)
    n = values.size
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]

    # Cluster state, indexed by cluster id (initially one per value).
    sums = sorted_values.astype(np.float64).copy()
    counts = np.ones(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    left = np.arange(n) - 1  # neighbour ids; -1 / n mean "none"
    right = np.arange(n) + 1
    version = np.zeros(n, dtype=np.int64)

    def mean(cid: int) -> float:
        return sums[cid] / counts[cid]

    def cost(cid_a: int, cid_b: int) -> float:
        return _linkage_distance(
            linkage, mean(cid_a), int(counts[cid_a]), mean(cid_b), int(counts[cid_b])
        )

    heap: List[Tuple[float, int, int, int, int]] = []
    for cid in range(n - 1):
        heapq.heappush(heap, (cost(cid, cid + 1), cid, cid + 1, 0, 0))

    remaining = n
    while remaining > num_clusters:
        _, a, b, va, vb = heapq.heappop(heap)
        if not (alive[a] and alive[b]) or version[a] != va or version[b] != vb:
            continue
        if right[a] != b:
            continue
        # Merge b into a.
        sums[a] += sums[b]
        counts[a] += counts[b]
        alive[b] = False
        version[a] += 1
        right[a] = right[b]
        if right[b] < n:
            left[right[b]] = a
        remaining -= 1

        if left[a] >= 0:
            la = left[a]
            heapq.heappush(heap, (cost(la, a), la, a, int(version[la]), int(version[a])))
        if right[a] < n:
            ra = right[a]
            heapq.heappush(heap, (cost(a, ra), a, ra, int(version[a]), int(version[ra])))

    # Collect surviving clusters in sorted (left to right) order.
    cluster_ids = [cid for cid in range(n) if alive[cid]]
    start = 0
    clusters: List[List[int]] = []
    for cid in cluster_ids:
        size = int(counts[cid])
        clusters.append(list(order[start:start + size]))
        start += size

    return _build_result(values, clusters)


def _build_result(values: np.ndarray, clusters: List[List[int]]) -> ClusteringResult:
    centroids = np.array([values[c].mean() for c in clusters])
    sizes = np.array([len(c) for c in clusters], dtype=np.int64)
    sort = np.argsort(centroids)
    centroids = centroids[sort]
    sizes = sizes[sort]
    assignments = np.empty(values.size, dtype=np.int64)
    for new_index, old_index in enumerate(sort):
        for value_index in clusters[old_index]:
            assignments[value_index] = new_index
    return ClusteringResult(centroids=centroids, sizes=sizes, assignments=assignments)
