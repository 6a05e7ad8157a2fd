"""Vectorised ≡ scalar equivalence suite.

The vectorisation contract (docs/performance.md): every optimised hot
path must be *bitwise-identical* to its reference, so that CPI numbers,
bench work-metadata hashes and experiment goldens are untouched by speed
work.  These tests pin that contract for the MSHR fill table and the RBF
selection with comparisons against naive references, plus a literal
bitwise CPI pin across all eight SPEC profiles.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simulator.config import ProcessorConfig
from repro.simulator.hierarchy import MemoryHierarchy

# ---------------------------------------------------------------------------
# MSHR in-flight fill table (merge + incremental pruning)
# ---------------------------------------------------------------------------


class TestInflightFills:
    def test_second_miss_merges_with_outstanding_fill(self):
        hier = MemoryHierarchy(ProcessorConfig())
        addr = 1 << 20
        first = hier._l2_fill(addr, 0.0)
        requests = hier.memctrl.requests
        # Same line, issued before the fill completes: merges, no new
        # memory request, same ready time.
        second = hier._l2_fill(addr + 8, first - 1.0)
        assert second == first
        assert hier.memctrl.requests == requests

    def test_completed_fill_does_not_merge(self):
        hier = MemoryHierarchy(ProcessorConfig())
        addr = 1 << 20
        first = hier._l2_fill(addr, 0.0)
        requests = hier.memctrl.requests
        second = hier._l2_fill(addr, first + 1.0)
        assert hier.memctrl.requests == requests + 1
        assert second > first

    def test_completed_fills_are_pruned_incrementally(self):
        from repro.simulator.hierarchy import _INFLIGHT_LIMIT

        hier = MemoryHierarchy(ProcessorConfig())
        line_bytes = hier.l2.line_size
        # Each fill is issued long after the previous completed, so the
        # table would grow without bound if completed entries survived.
        time = 0.0
        for i in range(4 * _INFLIGHT_LIMIT):
            done = hier._l2_fill(i * line_bytes, time)
            time = done + 1000.0
        assert len(hier._inflight) <= _INFLIGHT_LIMIT + 1
        assert len(hier._inflight_heap) <= _INFLIGHT_LIMIT + 1

    def test_outstanding_fills_survive_pruning(self):
        from repro.simulator.hierarchy import _INFLIGHT_LIMIT

        hier = MemoryHierarchy(ProcessorConfig())
        line_bytes = hier.l2.line_size
        # All fills issued at time 0: with a saturated bus every
        # completion is in the future, so nothing may be dropped and
        # later same-line misses must still merge.
        ready = {}
        for i in range(2 * _INFLIGHT_LIMIT):
            ready[i] = hier._l2_fill(i * line_bytes, 0.0)
        assert len(hier._inflight) == 2 * _INFLIGHT_LIMIT
        requests = hier.memctrl.requests
        for i in range(2 * _INFLIGHT_LIMIT):
            assert hier._l2_fill(i * line_bytes, 1.0) == ready[i]
        assert hier.memctrl.requests == requests


# ---------------------------------------------------------------------------
# MemoryHierarchy.stats() TLB gating
# ---------------------------------------------------------------------------


class TestStatsTLBGating:
    def test_each_tlb_stat_gated_on_its_own_presence(self):
        hier = MemoryHierarchy(ProcessorConfig(enable_tlb=True))
        hier.itlb = None  # split configuration: data TLB only
        stats = hier.stats()
        assert "itlb_miss_rate" not in stats
        assert "dtlb_miss_rate" in stats

        hier = MemoryHierarchy(ProcessorConfig(enable_tlb=True))
        hier.dtlb = None  # instruction TLB only
        stats = hier.stats()
        assert "itlb_miss_rate" in stats
        assert "dtlb_miss_rate" not in stats

    def test_both_present_and_both_absent(self):
        on = MemoryHierarchy(ProcessorConfig(enable_tlb=True)).stats()
        assert "itlb_miss_rate" in on and "dtlb_miss_rate" in on
        off = MemoryHierarchy(ProcessorConfig()).stats()
        assert "itlb_miss_rate" not in off and "dtlb_miss_rate" not in off


# ---------------------------------------------------------------------------
# RBF: batched design-matrix / AICc path vs naive per-element references
# ---------------------------------------------------------------------------


def _naive_design_matrix(points, centers, radii):
    """Per-element Gaussian responses (Eq. 2), no vectorisation."""
    h = np.zeros((len(points), len(centers)))
    for i, x in enumerate(points):
        for j, (c, r) in enumerate(zip(centers, radii)):
            h[i, j] = np.exp(-float(sum(((x - c) / r) ** 2)))
    return h


def _naive_build(points, responses, p_min, alpha, max_candidates=255, tree=None):
    """Reference tree-ordered AICc selection: no memoisation, no candidate
    cache, design matrix rebuilt from scratch — the pre-vectorisation
    algorithm, kept as an executable specification.  ``tree``, if given,
    is a fresh ``RegressionTree(points, responses, p_min)``."""
    from repro.models.rbf import _MIN_RADIUS, _fit_weights, gaussian_design_matrix
    from repro.models.selection import get_criterion
    from repro.models.tree import RegressionTree

    crit_fn = get_criterion("aicc")
    if tree is None:
        tree = RegressionTree(points, responses, p_min=p_min)
    nodes = tree.nodes_breadth_first()[:max_candidates]
    node_pos = {id(n): j for j, n in enumerate(nodes)}
    centers = np.array([n.center for n in nodes])
    radii = np.maximum(alpha * np.array([n.size for n in nodes]), _MIN_RADIUS)
    h_full = gaussian_design_matrix(points, centers, radii)
    p = len(points)
    selected = np.zeros(len(nodes), dtype=bool)

    def evaluate(sel):
        m = int(sel.sum())
        if m >= p - 1:
            return np.inf, np.inf
        _, sse = _fit_weights(h_full[:, sel], responses)
        return crit_fn(p, sse, m), sse

    selected[0] = True
    best_value, best_sse = evaluate(selected)
    queue = [nodes[0]]
    while queue:
        node = queue.pop(0)
        if node.is_leaf:
            continue
        trio_pos = [node_pos.get(id(t)) for t in (node, node.left, node.right)]
        if any(pos is None for pos in trio_pos):
            continue
        best_combo = tuple(selected[pos] for pos in trio_pos)
        for combo in range(8):
            bits = ((combo >> 2) & 1, (combo >> 1) & 1, combo & 1)
            trial = selected.copy()
            for pos, bit in zip(trio_pos, bits):
                trial[pos] = bool(bit)
            value, sse = evaluate(trial)
            if value < best_value:
                best_value, best_sse = value, sse
                best_combo = tuple(bool(b) for b in bits)
        for pos, bit in zip(trio_pos, best_combo):
            selected[pos] = bit
        queue.append(node.left)
        queue.append(node.right)
    if not selected.any():
        selected[0] = True
        best_value, best_sse = evaluate(selected)
    weights, sse = _fit_weights(h_full[:, selected], responses)
    return SimpleNamespace(
        p_min=p_min, alpha=alpha, value=best_value, sse=sse,
        num_centers=int(selected.sum()), num_candidates=len(nodes),
        tree_depth=tree.depth, weights=weights, centers=centers[selected],
        radii=radii[selected],
        boxes=[(n.lower.tobytes(), n.upper.tobytes())
               for n, s in zip(nodes, selected) if s],
    )


def _naive_search(points, responses, p_min_grid, alpha_grid, max_candidates):
    """One naive build per grid point, ``p_min`` outer and ``alpha`` inner,
    each ``p_min`` on its own freshly grown tree; returns the builds and
    the index of the first strict minimum."""
    from repro.models.tree import RegressionTree

    builds = []
    for p_min in p_min_grid:
        tree = RegressionTree(points, responses, p_min=p_min)
        builds += [_naive_build(points, responses, p_min, alpha,
                                max_candidates=max_candidates, tree=tree)
                   for alpha in alpha_grid]
    best = 0
    for i, build in enumerate(builds):
        if build.value < builds[best].value:
            best = i
    return builds, best


def _smooth(size, dims, seed):
    rng = np.random.default_rng(seed)
    points = rng.random((size, dims))
    return points, np.sin(points @ np.arange(1.0, dims + 1.0)) + 0.1 * rng.random(size)


def _duplicated(size, dims, seed):
    """Every point sampled twice or more: rank-deficient subsets."""
    rng = np.random.default_rng(seed)
    distinct = rng.random((size // 3, dims))
    points = distinct[np.arange(size) % len(distinct)]
    return points, np.cos(points @ np.arange(1.0, dims + 1.0))


def _constant(size, dims, seed, level):
    rng = np.random.default_rng(seed)
    return rng.random((size, dims)), np.full(size, level)


class TestRBFVectorised:
    def _sample(self, n=80, d=5, seed=1):
        rng = np.random.default_rng(seed)
        points = rng.random((n, d))
        responses = np.sin(points @ np.arange(1.0, d + 1.0)) + 0.1 * rng.random(n)
        return points, responses

    def test_design_matrix_matches_naive_reference(self):
        from repro.models.rbf import gaussian_design_matrix

        rng = np.random.default_rng(2)
        points = rng.random((40, 4))
        centers = rng.random((7, 4))
        radii = 0.3 + rng.random((7, 4))
        np.testing.assert_allclose(
            gaussian_design_matrix(points, centers, radii),
            _naive_design_matrix(points, centers, radii),
            rtol=1e-12,
        )

    def test_candidate_cache_is_bitwise_transparent(self):
        from repro.models.rbf import (
            _MIN_RADIUS,
            _design_from_diff,
            build_rbf_from_tree,
            gaussian_design_matrix,
            tree_candidates,
        )
        from repro.models.tree import RegressionTree

        points, responses = self._sample()
        tree = RegressionTree(points, responses, p_min=2)
        cand = tree_candidates(points, tree)
        for alpha in (2.0, 6.0, 12.0):
            radii = np.maximum(alpha * cand.sizes, _MIN_RADIUS)
            direct = gaussian_design_matrix(points, cand.centers, radii)
            cached = _design_from_diff(cand.diff, radii)
            np.testing.assert_array_equal(direct, cached)  # bitwise
            fresh_net, fresh_info = build_rbf_from_tree(
                points, responses, p_min=2, alpha=alpha
            )
            tree_net, tree_info = build_rbf_from_tree(
                points, responses, p_min=2, alpha=alpha, tree=tree
            )
            assert fresh_info.criterion_value == tree_info.criterion_value
            assert fresh_info.sse == tree_info.sse
            np.testing.assert_array_equal(fresh_net.weights, tree_net.weights)

    @pytest.mark.parametrize("p_min,alpha", [(1, 4.0), (2, 6.0), (3, 10.0)])
    def test_memoised_selection_matches_naive_reference(self, p_min, alpha):
        from repro.models.rbf import build_rbf_from_tree

        points, responses = self._sample(seed=p_min)
        network, info = build_rbf_from_tree(
            points, responses, p_min=p_min, alpha=alpha
        )
        want = _naive_build(points, responses, p_min, alpha)
        # Bitwise: the memoised/cached path must change nothing.
        assert info.criterion_value == want.value
        assert info.sse == want.sse
        assert info.num_centers == want.num_centers
        np.testing.assert_array_equal(network.weights, want.weights)

    @staticmethod
    def _assert_grid_matches_naive(points, responses, p_min_grid=None,
                                   alpha_grid=None, max_candidates=255):
        from repro.models.rbf import (DEFAULT_ALPHA_GRID, DEFAULT_P_MIN_GRID,
                                      search_rbf_model)

        p_min_grid = p_min_grid or DEFAULT_P_MIN_GRID
        alpha_grid = alpha_grid or DEFAULT_ALPHA_GRID
        result = search_rbf_model(points, responses, p_min_grid, alpha_grid,
                                  max_candidates=max_candidates)
        builds, best = _naive_search(points, responses, p_min_grid,
                                     alpha_grid, max_candidates)
        assert len(result.tried) == len(builds)
        for got, want in zip(result.tried, builds):
            assert (got.p_min, got.alpha) == (want.p_min, want.alpha)
            assert got.criterion_value == want.value
            assert got.sse == want.sse
            assert got.num_centers == want.num_centers
            assert got.num_candidates == want.num_candidates
            assert got.tree_depth == want.tree_depth
            assert [(n.lower.tobytes(), n.upper.tobytes())
                    for n in got.selected_nodes] == want.boxes
        # The chosen entry is the first strict minimum in grid order.
        assert result.info is result.tried[best]
        want = builds[best]
        assert result.network.weights.tobytes() == want.weights.tobytes()
        assert result.network.centers.tobytes() == want.centers.tobytes()
        assert result.network.radii.tobytes() == want.radii.tobytes()

    @settings(max_examples=3, deadline=None)
    @given(sample=st.builds(_smooth, st.integers(3, 200), st.integers(1, 9),
                            st.integers(0, 2**32 - 1)))
    @example(sample=_smooth(200, 9, 11))
    @example(sample=_duplicated(60, 3, 4))
    @example(sample=_constant(40, 4, 5, 2.5))
    @example(sample=_constant(25, 2, 6, 0.0))
    def test_grid_search_matches_naive_reference(self, sample):
        """The whole default ``(p_min, alpha)`` grid, bit for bit: the
        one-tree, alpha-scoped shared-cache search against one naive build
        per grid point.  Above 128 points the 255-candidate cap binds (200
        points grow a 399-node p_min=1 tree), so larger-p_min trees reach
        nodes beyond it.  Zero constant responses make the empty subset
        win and exercise the root-only fallback."""
        self._assert_grid_matches_naive(*sample)

    @pytest.mark.parametrize("p_min_grid,alpha_grid,max_candidates", [
        ((3, 1, 2), (5.0, 1.5), 9),  # unsorted: the tree grows at p_min=1
        ((2, 2, 8), (12.0,), 31),  # repeated p_min; the tree grows at 2
    ])
    def test_grid_search_matches_naive_reference_on_other_grids(
            self, p_min_grid, alpha_grid, max_candidates):
        self._assert_grid_matches_naive(*_smooth(70, 4, 9), p_min_grid,
                                        alpha_grid, max_candidates)

    def test_grid_search_matches_naive_reference_through_lstsq(self):
        """The ridge keeps ``solve`` from raising on real samples, duplicate
        points included, so a ``solve`` that refuses every Gram matrix of
        size divisible by 3 drives the ``LinAlgError`` -> ``lstsq``
        fallback for the same subsets in both paths."""
        real_solve = np.linalg.solve

        def refusing_solve(a, b):
            if a.shape[0] % 3 == 0:
                raise np.linalg.LinAlgError("refused")
            return real_solve(a, b)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "solve", refusing_solve)
            self._assert_grid_matches_naive(*_duplicated(45, 3, 8))


# ---------------------------------------------------------------------------
# Bitwise CPI pin: all 8 SPEC profiles at 3 design points
# ---------------------------------------------------------------------------

#: Physical design points: low corner, paper default center, high corner.
PIN_POINTS = [
    {"pipe_depth": 7, "rob_size": 24, "iq_frac": 0.25, "lsq_frac": 0.25,
     "l2_size_kb": 256, "l2_lat": 5, "il1_size_kb": 8, "dl1_size_kb": 8,
     "dl1_lat": 1},
    {"pipe_depth": 12, "rob_size": 64, "iq_frac": 0.5, "lsq_frac": 0.5,
     "l2_size_kb": 1024, "l2_lat": 12, "il1_size_kb": 32, "dl1_size_kb": 32,
     "dl1_lat": 2},
    {"pipe_depth": 24, "rob_size": 128, "iq_frac": 0.75, "lsq_frac": 0.75,
     "l2_size_kb": 8192, "l2_lat": 20, "il1_size_kb": 64, "dl1_size_kb": 64,
     "dl1_lat": 4},
]

#: repr() of the CPI at each point, captured on the pre-vectorisation
#: scalar simulator (trace length 4096, seed 0).  Bitwise contract: any
#: deviation in the last ulp fails this test.
PIN_CPIS = {
    "mcf": ["15.603515625", "15.943080357142858", "17.194475446428573"],
    "crafty": ["5.796037946428571", "5.940011160714286", "6.934709821428571"],
    "parser": ["5.624720982142857", "5.831473214285714", "6.705636160714286"],
    "perlbmk": ["9.109654017857142", "9.82421875", "11.07421875"],
    "vortex": ["9.440569196428571", "10.102678571428571", "11.519252232142858"],
    "twolf": ["6.025390625", "6.149274553571429", "6.824497767857143"],
    "equake": ["6.265066964285714", "6.128069196428571", "6.677734375"],
    "ammp": ["6.154296875", "6.191685267857143", "6.669084821428571"],
}


@pytest.mark.parametrize("bench_name", sorted(PIN_CPIS))
def test_cpi_bitwise_pinned(bench_name):
    from repro.core.design_space import paper_design_space
    from repro.simulator.simulator import Simulator
    from repro.workloads.spec2000 import get_trace

    space = paper_design_space()
    trace = get_trace(bench_name, 4096, 0)
    got = []
    for point in PIN_POINTS:
        config = ProcessorConfig.from_design_point(space.resolve(point))
        got.append(repr(Simulator(config).run(trace).cpi))
    assert got == PIN_CPIS[bench_name]
