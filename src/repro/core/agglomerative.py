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
* :func:`agglomerative_cluster_1d` — the greedy adjacent-merge clustering
  of 1-D data, computed in batched NumPy rounds of reciprocal-nearest-
  neighbour merges.  The default Golden Dictionary (four repeats of 50,000
  samples) takes ~0.15 s on a 2-vCPU Xeon container.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

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
    if not np.isfinite(values).all():
        raise ValueError("cannot cluster non-finite values (NaN or Inf)")
    if linkage not in _LINKAGES:
        raise ValueError(f"linkage must be one of {_LINKAGES}, got {linkage!r}")
    return values


def _linkage_distance(
    linkage: str, mean_a: float, count_a: int, mean_b: float, count_b: int
) -> float:
    """Merge cost between two disjoint 1-D clusters given their summaries.

    Works elementwise on arrays of summaries, one pair per element.

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

    sizes = np.array([len(c) for c in clusters], dtype=np.int64)
    return _build_result(values, np.concatenate(clusters), sizes)


def agglomerative_cluster_1d(
    values: Sequence[float], num_clusters: int, linkage: str = "ward"
) -> ClusteringResult:
    """Greedy agglomerative clustering of 1-D data.

    For one-dimensional data, Ward and average linkage only ever merge
    adjacent clusters of the sorted input, so the clustering is the greedy
    that repeatedly merges the adjacent pair with the smallest linkage
    cost, the leftmost pair on a tie.  That greedy is computed here in
    rounds rather than one merge at a time:

    1. Sort once and collapse each run of equal values into one cluster
       (a zero-cost merge the greedy makes first anyway).
    2. Each round computes every adjacent pair's cost as an array and
       merges every pair whose ``(cost, position)`` key is below both
       neighbours' keys.  Such pairs are reciprocal nearest neighbours and
       disjoint.  Inside a plateau of equal costs that rises on its left,
       every other pair from the plateau's start merges.
    3. Each merge labels the sorted-position boundary it erases with its
       cost and the start of the cluster it forms.  Once one cluster is
       left, the ``num_clusters - 1`` boundaries ranking highest by
       ``(cost, start, position)`` give the partition.

    This is exact because both linkages are *reducible* on adjacent 1-D
    clusters: merging ``A`` with ``B`` moves the mean away from ``B``'s
    other neighbour ``C`` and grows the count, so ``d(A+B, C) >= d(B, C)``.
    A merge therefore never makes a neighbouring merge cheaper.  The
    hierarchy is unique and monotone, and merging reciprocal pairs in any
    order builds the greedy's dendrogram (Müllner, "Modern hierarchical,
    agglomerative clustering algorithms", arXiv:1109.2378).  Merged
    clusters' sums are added in the same tree as the greedy's, so costs and
    centroids are bit-identical to merging one pair at a time (the test
    suite keeps such a heap as the oracle).

    Tie rule: equal costs resolve leftmost first, the greedy's
    ``(cost, leftmost)`` order, bit for bit whenever the sums are exact
    (integer or dyadic duplicates).  A run of duplicates is summed once
    with NumPy's pairwise sum, whereas merging one pair at a time adds it
    up piecewise, in an order set by the rounding noise of the partial
    sums.  Where those sums are inexact the two can resolve near-ties
    differently.  Either way the result is deterministic, has exactly
    ``num_clusters`` contiguous clusters of the sorted input, and each
    centroid is its members' mean.

    Sampled data needs few rounds (~40 for 50,000 normal samples, 0.03 s).
    The worst case is O(n * depth): a smooth sequence with strictly
    growing gaps (``arange(n) ** 2``) merges one pair per round.
    """
    values = _validate(np.asarray(values), num_clusters, linkage)
    n = values.size
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]

    # Exact duplicates merge first at cost zero, so collapse each run of
    # equal values into one cluster up front.  Every boundary is then
    # labelled with the merge that erases it: its cost and the start of the
    # cluster that merge forms (boundary ``b`` lies between sorted positions
    # ``b - 1`` and ``b``).
    starts = np.flatnonzero(np.concatenate(([True], sorted_values[1:] != sorted_values[:-1])))
    counts = np.diff(np.append(starts, n))
    sums = np.add.reduceat(sorted_values, starts)
    erased_cost = np.zeros(n)
    erased_start = np.repeat(starts, counts)
    while sums.size > 1:
        costs = _linkage_distance(
            linkage, sums[:-1] / counts[:-1], counts[:-1], sums[1:] / counts[1:], counts[1:]
        )
        left = np.flatnonzero(_reciprocal_pairs(costs))
        right = left + 1
        erased_cost[starts[right]] = costs[left]
        erased_start[starts[right]] = starts[left]
        sums[left] += sums[right]
        counts[left] += counts[right]
        keep = np.ones(sums.size, dtype=bool)
        keep[right] = False
        sums, counts, starts = sums[keep], counts[keep], starts[keep]

    # The greedy merges in (cost, start) order, so the k-cluster partition
    # keeps the k - 1 boundaries whose merges rank last in that order.
    rank = np.lexsort((np.arange(n - 1), erased_start[1:], erased_cost[1:]))
    kept = np.sort(rank[n - num_clusters:]) + 1
    sizes = np.diff(np.concatenate(([0], kept, [n])))
    return _build_result(values, order, sizes)


def _reciprocal_pairs(costs: np.ndarray) -> np.ndarray:
    """Mask of the adjacent pairs the greedy merges before their neighbours.

    Pair ``i`` qualifies when its ``(cost, i)`` key is below both neighbours'
    keys.  Inside a plateau of equal costs that rises on its left, every
    other pair from the plateau's start qualifies: merging one pair raises
    the cost of the next, so the greedy takes them left to right.
    """
    index = np.arange(costs.size)
    plateau = np.concatenate(([True], costs[1:] != costs[:-1]))
    first = np.maximum.accumulate(np.where(plateau, index, 0))
    rises_left = np.concatenate(([True], costs[:-1] > costs[1:]))[first]
    no_dearer_than_right = np.concatenate((costs[:-1] <= costs[1:], [True]))
    mask = rises_left & ((index - first) % 2 == 0) & no_dearer_than_right
    if not mask.any():
        raise ValueError("linkage costs overflowed to NaN; rescale the values")
    return mask


def _build_result(values: np.ndarray, order: np.ndarray, sizes: np.ndarray) -> ClusteringResult:
    """Summarise clusters given as consecutive runs of ``values[order]``."""
    members = np.split(values[order], np.cumsum(sizes)[:-1])
    centroids = np.array([cluster.mean() for cluster in members])
    sort = np.argsort(centroids)
    rank = np.empty_like(sort)
    rank[sort] = np.arange(sort.size)
    assignments = np.empty(values.size, dtype=np.int64)
    assignments[order] = np.repeat(rank, sizes)
    return ClusteringResult(centroids=centroids[sort], sizes=sizes[sort], assignments=assignments)
