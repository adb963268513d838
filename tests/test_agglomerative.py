"""Tests for the agglomerative clustering used by the Golden Dictionary.

``agglomerative_cluster_1d`` computes the greedy adjacent-merge clustering
in batched rounds.  The heap it replaced, which makes one merge per
``heappop``, is kept below as the oracle: hypothesis properties compare the
two bit for bit on sampled data, and check the documented tie invariants on
duplicate-heavy data.
"""

import heapq
from typing import List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agglomerative import (
    ClusteringResult,
    _linkage_distance,
    _validate,
    agglomerative_cluster_1d,
    pairwise_agglomerative,
)


def heap_agglomerative(
    values: Sequence[float], num_clusters: int, linkage: str = "ward"
) -> ClusteringResult:
    """One-merge-at-a-time heap clustering: the equivalence oracle.

    The implementation ``agglomerative_cluster_1d`` replaced, kept verbatim:
    a lazy heap over adjacent-pair merge costs pops the cheapest pair,
    leftmost on a tie, once per merge.
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

    return _heap_build_result(values, clusters)


def _heap_build_result(values: np.ndarray, clusters: List[List[int]]) -> ClusteringResult:
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


class TestValidation:
    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            agglomerative_cluster_1d([], 2)

    def test_too_many_clusters_rejected(self):
        with pytest.raises(ValueError):
            agglomerative_cluster_1d([1.0, 2.0], 3)

    def test_zero_clusters_rejected(self):
        with pytest.raises(ValueError):
            agglomerative_cluster_1d([1.0, 2.0], 0)

    def test_unknown_linkage_rejected(self):
        with pytest.raises(ValueError):
            agglomerative_cluster_1d([1.0, 2.0, 3.0], 2, linkage="single")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            agglomerative_cluster_1d([1.0, bad, 3.0], 2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_costs_raise_instead_of_looping(self):
        # Run sums overflow to inf, so every adjacent cost is inf - inf = NaN.
        with pytest.raises(ValueError, match="overflowed"):
            agglomerative_cluster_1d([1e308] * 2 + [1.2e308] * 2 + [1.4e308] * 2, 1)

    def test_pairwise_large_input_rejected(self):
        with pytest.raises(ValueError):
            pairwise_agglomerative(np.zeros(3000), 2)


class TestBasicBehaviour:
    def test_single_cluster_is_mean(self):
        values = [1.0, 2.0, 3.0, 10.0]
        result = agglomerative_cluster_1d(values, 1)
        assert result.num_clusters == 1
        assert result.centroids[0] == pytest.approx(np.mean(values))
        assert result.sizes[0] == 4

    def test_n_clusters_equals_n_values(self):
        values = [3.0, 1.0, 2.0]
        result = agglomerative_cluster_1d(values, 3)
        assert np.allclose(result.centroids, [1.0, 2.0, 3.0])
        assert np.all(result.sizes == 1)

    def test_well_separated_groups_are_found(self):
        rng = np.random.default_rng(0)
        values = np.concatenate(
            [rng.normal(0, 0.05, 50), rng.normal(5, 0.05, 50), rng.normal(10, 0.05, 50)]
        )
        result = agglomerative_cluster_1d(values, 3)
        assert np.allclose(np.sort(result.centroids), [0, 5, 10], atol=0.2)
        assert np.all(result.sizes == 50)

    def test_centroids_sorted_ascending(self):
        rng = np.random.default_rng(1)
        result = agglomerative_cluster_1d(rng.normal(0, 1, 500), 8)
        assert np.all(np.diff(result.centroids) > 0)

    def test_sizes_sum_to_input_size(self):
        rng = np.random.default_rng(2)
        values = rng.normal(0, 1, 300)
        result = agglomerative_cluster_1d(values, 7)
        assert result.sizes.sum() == values.size

    def test_assignments_consistent_with_centroids(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0, 1, 200)
        result = agglomerative_cluster_1d(values, 5)
        for cluster in range(result.num_clusters):
            members = values[result.assignments == cluster]
            assert members.size == result.sizes[cluster]
            assert members.mean() == pytest.approx(result.centroids[cluster])

    def test_average_linkage_supported(self):
        rng = np.random.default_rng(4)
        values = rng.normal(0, 1, 400)
        result = agglomerative_cluster_1d(values, 6, linkage="average")
        assert result.num_clusters == 6
        assert np.all(np.diff(result.centroids) > 0)


class TestAgainstExactReference:
    def test_matches_pairwise_on_separated_data(self):
        rng = np.random.default_rng(5)
        values = np.concatenate([rng.normal(c, 0.1, 20) for c in (0.0, 3.0, 6.0, 9.0)])
        fast = agglomerative_cluster_1d(values, 4)
        exact = pairwise_agglomerative(values, 4)
        assert np.allclose(np.sort(fast.centroids), np.sort(exact.centroids), atol=1e-9)

    def test_ward_prefers_fine_clusters_in_dense_region(self):
        """Ward keeps the dense centre finely clustered and lumps the sparse tail."""
        rng = np.random.default_rng(6)
        values = np.abs(rng.normal(0, 1, 20000))
        result = agglomerative_cluster_1d(values, 8, linkage="ward")
        # The innermost centroid sits close to zero and the outermost absorbs
        # the tail (centroid around 2-3 sigma), mirroring the paper's Fig. 2.
        assert result.centroids[0] < 0.3
        assert 1.8 < result.centroids[-1] < 3.5
        # Cluster sizes shrink monotonically-ish towards the tail: the last
        # cluster is far smaller than the first.
        assert result.sizes[-1] < result.sizes[0]


def _assert_bit_identical(result: ClusteringResult, expected: ClusteringResult) -> None:
    assert result.centroids.tobytes() == expected.centroids.tobytes()
    assert np.array_equal(result.sizes, expected.sizes)
    assert np.array_equal(result.assignments, expected.assignments)


def _sample(distribution: str, dtype: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if distribution == "normal":
        values = rng.normal(0.0, 1.0, n)
    elif distribution == "student-t":
        values = rng.standard_t(3, n)
    else:
        values = np.where(rng.random(n) < 0.5, rng.normal(-3.0, 1.0, n), rng.normal(4.0, 0.5, n))
    return values.astype(dtype)


@st.composite
def sampled_inputs(draw, max_size=3000):
    n = draw(st.integers(min_value=2, max_value=max_size))
    values = _sample(
        draw(st.sampled_from(["normal", "student-t", "bimodal"])),
        draw(st.sampled_from(["float64", "float32"])),
        n,
        draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )
    k = draw(st.integers(min_value=1, max_value=min(16, n)))
    return values, k, draw(st.sampled_from(["ward", "average"]))


@st.composite
def tied_inputs(draw, exact: bool):
    """Duplicate-heavy inputs: integers or halves (exact sums) or 0.1 steps."""
    n = draw(st.integers(min_value=2, max_value=600))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scale = draw(st.sampled_from([0.5, 1.0, 3.0])) if exact else draw(st.sampled_from([1.0, 3.0]))
    values = rng.laplace(0.0, scale, n)
    values = np.round(values * 2) / 2 if exact else np.round(values, 1)
    k = draw(st.integers(min_value=1, max_value=min(16, n)))
    return values, k, draw(st.sampled_from(["ward", "average"]))


class TestHeapEquivalence:
    """The batched rounds reproduce the one-merge-at-a-time heap."""

    @settings(max_examples=60, deadline=None)
    @given(sampled_inputs())
    def test_bit_identical_on_sampled_data(self, case):
        # float32 samples bring their natural duplicate values.
        values, k, linkage = case
        _assert_bit_identical(
            agglomerative_cluster_1d(values, k, linkage), heap_agglomerative(values, k, linkage)
        )

    @settings(max_examples=40, deadline=None)
    @given(tied_inputs(exact=True))
    def test_bit_identical_on_exact_ties(self, case):
        # Integer and half-integer sums are exact, so equal costs are true
        # ties, and both resolve them leftmost first, even when k exceeds the
        # number of distinct values and duplicate runs must be split.
        values, k, linkage = case
        _assert_bit_identical(
            agglomerative_cluster_1d(values, k, linkage), heap_agglomerative(values, k, linkage)
        )

    @settings(max_examples=40, deadline=None)
    @given(tied_inputs(exact=False))
    def test_documented_invariants_on_inexact_ties(self, case):
        values, k, linkage = case
        result = agglomerative_cluster_1d(values, k, linkage)
        order = np.argsort(values, kind="mergesort")
        assert result.num_clusters == k
        assert result.sizes.sum() == values.size
        assert np.all(np.diff(result.centroids) >= 0)
        # Each cluster is one contiguous range of the sorted input.
        assert np.count_nonzero(np.diff(result.assignments[order])) == k - 1
        for cluster in range(k):
            members = np.sort(values[result.assignments == cluster])
            assert members.size == result.sizes[cluster]
            assert members.mean() == result.centroids[cluster]
        # Deterministic, and independent of the input order (which copy of a
        # split duplicate lands in which cluster may follow the order).
        _assert_bit_identical(agglomerative_cluster_1d(values, k, linkage), result)
        permutation = np.random.default_rng(0).permutation(values.size)
        permuted = agglomerative_cluster_1d(values[permutation], k, linkage)
        assert permuted.centroids.tobytes() == result.centroids.tobytes()
        assert np.array_equal(permuted.sizes, result.sizes)

    @settings(max_examples=20, deadline=None)
    @given(sampled_inputs(max_size=40))
    def test_agrees_with_pairwise_reference(self, case):
        values, k, linkage = case
        fast = agglomerative_cluster_1d(values, k, linkage)
        exact = pairwise_agglomerative(values, k, linkage)
        assert np.array_equal(fast.sizes, exact.sizes)
        assert np.array_equal(fast.assignments, exact.assignments)
        np.testing.assert_allclose(fast.centroids, exact.centroids, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("linkage", ["ward", "average"])
    def test_equal_gaps_and_long_duplicate_runs(self, linkage):
        # A plateau of equal costs and long duplicate runs are the inputs a
        # naive round scheme serialises into one merge per round.
        values = np.concatenate([np.arange(2000.0), np.full(500, 7.0), np.full(300, -4.0)])
        for k in (1, 5, 16):
            _assert_bit_identical(
                agglomerative_cluster_1d(values, k, linkage),
                heap_agglomerative(values, k, linkage),
            )
