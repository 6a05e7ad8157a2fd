"""Radial basis function networks built from regression trees.

This is the paper's core modeling machinery (Sec. 2.3-2.6), a from-scratch
reimplementation of the scheme Orr et al. (2000) call ``rbf_rt``:

* The network computes ``f(x) = sum_j w_j h_j(x)`` (Eq. 1) with Gaussian
  basis functions ``h(x) = exp(-sum_k (x_k - c_k)^2 / r_k^2)`` (Eq. 2) —
  note the per-dimension radius vector, so basis functions are axis-aligned
  ellipsoids, not spheres.
* A regression tree partitions the design space into hyper-rectangles of
  similar CPI; every tree node proposes a candidate RBF centered at its
  hyper-rectangle's center with radii ``r = alpha * s`` (Eq. 8), ``s`` being
  the rectangle's edge lengths.
* A subset of candidates is selected by descending the tree: starting from
  the root, each step considers the 8 include/exclude combinations of a
  node and its two children and keeps the combination that most decreases
  the model selection criterion (AICc, Eq. 9).
* Weights are fitted by linear least squares on the sample.

The method parameters ``p_min`` (tree leaf size) and ``alpha`` (radius
scale) are chosen per benchmark by grid search for the lowest AICc
(:func:`search_rbf_model`), exactly as the paper's Sec. 2.6 describes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.models.base import (Model, Uncertainty, _residual_band,
                               design_dot, training_hull)
from repro.models.selection import get_criterion
from repro.models.tree import RegressionTree, TreeNode

#: Radii are clipped below this to keep basis functions non-degenerate.
_MIN_RADIUS = 1e-3

#: Slack on the training sample's worst scaled center distance before a
#: query point counts as extrapolation on the distance signal alone.
_CENTER_DISTANCE_SLACK = 1.25


def gaussian_design_matrix(
    points: np.ndarray, centers: np.ndarray, radii: np.ndarray
) -> np.ndarray:
    """Design matrix ``H[i, j] = h_j(x_i)`` for Gaussian RBFs (Eq. 2)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    radii = np.atleast_2d(np.asarray(radii, dtype=float))
    if centers.shape != radii.shape:
        raise ValueError("centers and radii must have matching shapes")
    if centers.shape[0] == 0:
        return np.zeros((len(points), 0))
    diff = points[:, None, :] - centers[None, :, :]
    return _design_from_diff(diff, radii)


def _design_from_diff(diff: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Design matrix from precomputed ``points - centers`` differences.

    Shared by :func:`gaussian_design_matrix` and the per-tree candidate
    cache so both produce bitwise-identical matrices: ``diff`` is
    radius-independent and can be reused across the alpha grid.
    """
    z = (diff / radii[None, :, :]) ** 2
    return np.exp(-z.sum(axis=2))


def _fit_weights(h: np.ndarray, y: np.ndarray, ridge: float = 1e-9):
    """Least-squares weights with a tiny ridge for numerical conditioning.

    Returns ``(weights, sse)`` where ``sse`` is the residual sum of squares
    on the training sample.
    """
    if h.shape[1] == 0:
        return np.zeros(0), float(np.dot(y, y))
    gram = h.T @ h
    # Strided view of the diagonal; same elementwise add as indexing by
    # diag_indices_from, without rebuilding the index arrays per call.
    gram.flat[:: gram.shape[0] + 1] += ridge
    try:
        weights = np.linalg.solve(gram, h.T @ y)
    except np.linalg.LinAlgError:
        weights = np.linalg.lstsq(h, y, rcond=None)[0]
    resid = y - h @ weights
    return weights, float(resid @ resid)


class RBFNetwork(Model):
    """A fitted radial basis function network (paper Eq. 1-2).

    Attributes
    ----------
    centers, radii:
        ``(m, n)`` arrays describing the Gaussian units.
    weights:
        ``(m,)`` output-layer weights.
    """

    def __init__(self, centers: np.ndarray, radii: np.ndarray, weights: np.ndarray):
        self.centers = np.atleast_2d(np.asarray(centers, dtype=float))
        self.radii = np.atleast_2d(np.asarray(radii, dtype=float))
        self.weights = np.asarray(weights, dtype=float).ravel()
        if self.centers.shape != self.radii.shape:
            raise ValueError("centers and radii must have matching shapes")
        if len(self.weights) != len(self.centers):
            raise ValueError("one weight per center is required")

    @property
    def num_centers(self) -> int:
        return len(self.centers)

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]

    def hidden_responses(self, points: np.ndarray) -> np.ndarray:
        """Responses of the hidden layer (one column per RBF)."""
        points = self._as_points(points, self.dimension)
        return gaussian_design_matrix(points, self.centers, self.radii)

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Network output ``f(x)`` at unit-cube points (Eq. 1).

        The hidden-layer/weight product goes through
        :func:`repro.models.base.design_dot`, so a batched call returns
        exactly the bits sequential single-point calls would.
        """
        return design_dot(self.hidden_responses(points), self.weights)

    def diagnostics(self) -> dict:
        """Structure numbers for the model card: centers, radii, weights."""
        return {
            "family": "rbf",
            "dimension": self.dimension,
            "num_centers": self.num_centers,
            "weight_l2": float(np.sqrt(self.weights @ self.weights)),
            "radius_min": float(self.radii.min()),
            "radius_max": float(self.radii.max()),
        }

    def _scaled_center_distances(self, points: np.ndarray) -> np.ndarray:
        """Per-point distance to the *nearest* center in radius units.

        ``min_j sqrt(sum_k ((x_k - c_jk) / r_jk)^2)`` — small means the
        point sits inside some basis function's footprint, large means
        every unit has decayed to ~0 there and the network output is just
        the sum of far tails: classic silent extrapolation.
        """
        diff = points[:, None, :] - self.centers[None, :, :]
        z2 = ((diff / self.radii[None, :, :]) ** 2).sum(axis=2)
        return np.sqrt(z2.min(axis=1))

    def calibrate(self, points: np.ndarray,
                  responses: np.ndarray) -> Uncertainty:
        """Calibrate with exact leave-one-out residuals (hat-matrix form).

        Holding centers and radii fixed, the weight fit is linear
        regression, so the LOO residual is ``e_i / (1 - H_ii)`` with
        ``H = A (A^T A + ridge I)^{-1} A^T`` — no refit loop.  (The same
        identity as :func:`repro.core.crossval.loo_rbf_error`, restated
        here because that module imports this one.)  LOO residuals lack
        the training fit's optimism, so the q10–q90 band is honest on
        unseen points.  Also records the training sample's worst scaled
        center distance, the reference for the RBF-specific extrapolation
        signal.
        """
        points = self._as_points(points, self.dimension)
        responses = np.asarray(responses, dtype=float).ravel()
        a = gaussian_design_matrix(points, self.centers, self.radii)
        gram = a.T @ a
        gram.flat[:: gram.shape[0] + 1] += 1e-9
        inner = np.linalg.solve(gram, a.T)
        hat_diag = np.einsum("ij,ji->i", a, inner)
        weights = inner @ responses
        resid = responses - a @ weights
        loo_resid = resid / np.clip(1.0 - hat_diag, 1e-6, None)
        lower, upper, sigma, quantiles = _residual_band(loo_resid)
        hull_lo, hull_hi = training_hull(points)
        train_dist = self._scaled_center_distances(points)
        self._uncertainty = Uncertainty(
            kind="loo-quantile",
            lower_offset=lower,
            upper_offset=upper,
            sigma=sigma,
            residual_quantiles=quantiles,
            hull_lower=hull_lo,
            hull_upper=hull_hi,
            center_distance_cap=float(train_dist.max()
                                      * _CENTER_DISTANCE_SLACK),
        )
        return self._uncertainty

    def _extrapolation_flags(self, points: np.ndarray,
                             unc: Uncertainty) -> np.ndarray:
        """Hull flags plus the scaled distance-to-nearest-center signal."""
        flags = super()._extrapolation_flags(points, unc)
        if unc.center_distance_cap is not None:
            distances = self._scaled_center_distances(points)
            flags = flags | (distances > unc.center_distance_cap)
        return flags

    def describe(self) -> str:
        """Textual rendering of the network structure (the paper's Fig. 3)."""
        lines = [
            f"RBF network: {self.dimension} inputs -> {self.num_centers} "
            "Gaussian units -> linear output",
        ]
        for j, (c, r, w) in enumerate(zip(self.centers, self.radii, self.weights)):
            c_txt = ", ".join(f"{v:.2f}" for v in c)
            r_txt = ", ".join(f"{v:.2f}" for v in r)
            lines.append(f"  unit {j}: w={w:+.3f} center=[{c_txt}] radius=[{r_txt}]")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"RBFNetwork(m={self.num_centers}, n={self.dimension})"


@dataclass
class CandidateSet:
    """Alpha-independent geometry of a breadth-first list of tree nodes.

    Everything here (the nodes, their center coordinates, rectangle edge
    lengths and the ``points - centers`` differences feeding the design
    matrix) depends only on the tree and the sample, so it is computed
    once and reused for every alpha instead of being rebuilt per network.
    """

    nodes: List[TreeNode]
    centers: np.ndarray  #: ``(m, n)`` candidate center coordinates.
    sizes: np.ndarray  #: ``(m, n)`` hyper-rectangle edge lengths.
    diff: np.ndarray  #: ``(p, m, n)`` sample-to-center differences.


def tree_candidates(
    points: np.ndarray, tree: RegressionTree, max_candidates: int = 255
) -> CandidateSet:
    """Geometry of the first ``max_candidates`` nodes of ``tree``, breadth first."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    nodes = tree.nodes_breadth_first()[:max_candidates]
    centers = np.atleast_2d(np.array([n.center for n in nodes], dtype=float))
    sizes = np.atleast_2d(np.array([n.size for n in nodes], dtype=float))
    diff = points[:, None, :] - centers[None, :, :]
    return CandidateSet(nodes=nodes, centers=centers, sizes=sizes, diff=diff)


@dataclass
class RBFBuildInfo:
    """Diagnostics from a single tree-based RBF construction."""

    p_min: int
    alpha: float
    criterion_name: str
    criterion_value: float
    sse: float
    num_candidates: int
    num_centers: int
    tree_depth: int
    selected_nodes: List[TreeNode] = field(default_factory=list, repr=False)


class _SubsetFits:
    """Criterion of column subsets of one design matrix, each fitted once.

    Subsets are keyed by their column mask.  Every walk sharing one of
    these reuses its fits: a single walk revisits selections (each step
    re-scores the current one, and sibling steps often propose the same
    subset), and at one alpha the walks of the different ``p_min`` trees
    propose many of the same subsets again.
    """

    def __init__(self, h: np.ndarray, responses: np.ndarray, criterion) -> None:
        self.h = h
        self.responses = responses
        self.criterion = criterion
        self.cache: Dict[bytes, float] = {}
        self.fits = 0  #: least-squares fits run
        self.hits = 0  #: subsets answered from the cache

    def fit(self, selected: np.ndarray):
        """``(weights, sse)`` of the columns ``selected`` masks."""
        self.fits += 1
        return _fit_weights(self.h[:, selected], self.responses)

    def __call__(self, selected: np.ndarray, size: int) -> float:
        key = selected.tobytes()
        value = self.cache.get(key)
        if value is not None:
            self.hits += 1
            return value
        p = len(self.responses)
        if size >= p - 1:  # AICc undefined; reject oversized models
            value = np.inf
        else:
            value = self.criterion(p, self.fit(selected)[1], size)
        self.cache[key] = value
        return value


#: A trio's (node, left, right) include bits in the order the walk scores
#: them, each with its count of set bits.
_TRIO_COMBOS = tuple(
    ((bool(c & 4), bool(c & 2), bool(c & 1)), bin(c).count("1")) for c in range(8)
)


class _Walk(NamedTuple):
    """One tree's subset-selection problem over a shared design matrix."""

    p_min: int
    tree_depth: int
    nodes: List[TreeNode]  #: the candidates, breadth first
    columns: Sequence[int]  #: design-matrix column of each candidate
    trios: List[Tuple[int, int, int]]  #: columns of each trio, in visit order


def _walk(p_min: int, tree: RegressionTree, nodes: List[TreeNode],
          columns: Sequence[int]) -> _Walk:
    """Plan the selection walk over ``tree``'s candidates ``nodes``.

    Descending from the root with a FIFO queue, the walk visits exactly the
    internal candidates whose two children are candidates too, in
    breadth-first order: a node's children come after its whole level, so
    a node whose children made the cap has a parent whose children made it
    as well.
    """
    column = {id(node): col for node, col in zip(nodes, columns)}
    trios = []
    for node, col in zip(nodes, columns):
        if node.is_leaf:
            continue
        left, right = column.get(id(node.left)), column.get(id(node.right))
        if left is not None and right is not None:
            trios.append((col, left, right))
    return _Walk(p_min, tree.depth, nodes, columns, trios)


def _select_subset(trios: List[Tuple[int, int, int]], width: int,
                   score: _SubsetFits) -> Tuple[np.ndarray, float]:
    """Tree-ordered subset selection (Orr et al. 2000) over ``width`` columns.

    Include the root (column 0), then for each trio keep the best of its 8
    include/exclude combinations; the first strict minimum wins.  Returns
    the column mask and its criterion value.
    """
    selected = np.zeros(width, dtype=bool)
    selected[0] = True
    size = 1
    best_value = score(selected, size)
    for a, b, c in trios:
        best_bits = (bool(selected[a]), bool(selected[b]), bool(selected[c]))
        rest = size - sum(best_bits)
        for bits, count in _TRIO_COMBOS:
            selected[a], selected[b], selected[c] = bits
            value = score(selected, rest + count)
            if value < best_value:
                best_value, best_bits = value, bits
        selected[a], selected[b], selected[c] = best_bits
        size = rest + sum(best_bits)
    if size == 0:  # degenerate; fall back to the root-only model
        selected[0] = True
        best_value = score(selected, 1)
    return selected, best_value


def _select_network(
    walk: _Walk,
    score: _SubsetFits,
    centers: np.ndarray,
    radii: np.ndarray,
    alpha: float,
    criterion: str,
) -> Tuple[RBFNetwork, RBFBuildInfo]:
    """Select one tree's centers among the columns of ``score``'s matrix."""
    selected, value = _select_subset(walk.trios, len(centers), score)
    weights, sse = score.fit(selected)
    network = RBFNetwork(centers[selected], radii[selected], weights)
    return network, RBFBuildInfo(
        p_min=walk.p_min,
        alpha=alpha,
        criterion_name=criterion,
        criterion_value=float(value),
        sse=float(sse),
        num_candidates=len(walk.nodes),
        num_centers=int(selected.sum()),
        tree_depth=walk.tree_depth,
        selected_nodes=[n for n, col in zip(walk.nodes, walk.columns) if selected[col]],
    )


def _count_fits(score: _SubsetFits) -> None:
    obs.inc("fit/subset_fits", score.fits)
    obs.inc("fit/subset_cache_hits", score.hits)


def build_rbf_from_tree(
    points: np.ndarray,
    responses: np.ndarray,
    p_min: int = 1,
    alpha: float = 6.0,
    criterion: str = "aicc",
    max_candidates: int = 255,
    tree: Optional[RegressionTree] = None,
) -> Tuple[RBFNetwork, RBFBuildInfo]:
    """Build one RBF network for fixed method parameters (Sec. 2.5).

    Parameters
    ----------
    points, responses:
        The sample data (unit-cube coordinates and simulated CPIs).
    p_min:
        Regression-tree leaf capacity.
    alpha:
        Radius scale: each candidate's radii are ``alpha`` times its tree
        node's hyper-rectangle edge lengths (Eq. 8).
    criterion:
        Model selection criterion name (``aicc`` per the paper).
    max_candidates:
        Cap on the number of tree nodes considered as candidate centers
        (breadth-first order), bounding selection cost on large samples.
    tree:
        Optionally, a pre-built regression tree (must match ``p_min``).

    Returns
    -------
    (RBFNetwork, RBFBuildInfo)
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    responses = np.asarray(responses, dtype=float).ravel()
    crit_fn = get_criterion(criterion)
    if tree is None:
        tree = RegressionTree(points, responses, p_min=p_min)
    candidates = tree_candidates(points, tree, max_candidates)
    radii = np.maximum(alpha * candidates.sizes, _MIN_RADIUS)
    score = _SubsetFits(_design_from_diff(candidates.diff, radii), responses, crit_fn)
    walk = _walk(p_min, tree, candidates.nodes, range(len(candidates.nodes)))
    built = _select_network(walk, score, candidates.centers, radii, alpha, criterion)
    _count_fits(score)
    return built


@dataclass
class RBFSearchResult:
    """Outcome of the (p_min, alpha) grid search (paper Sec. 2.6)."""

    network: RBFNetwork
    info: RBFBuildInfo
    tried: List[RBFBuildInfo] = field(default_factory=list, repr=False)


DEFAULT_P_MIN_GRID = (1, 2, 3, 5)
DEFAULT_ALPHA_GRID = (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0)


def _paired_nodes(tree: RegressionTree,
                  base: RegressionTree) -> List[Tuple[TreeNode, TreeNode]]:
    """``tree``'s nodes breadth first, each with its twin in ``base``.

    ``tree`` is ``base`` or a truncation of it, so walking both from the
    root in step pairs every node with the ``base`` node of the same box.
    """
    pairs = []
    queue = deque([(tree.root, base.root)])
    while queue:
        node, twin = queue.popleft()
        pairs.append((node, twin))
        if not node.is_leaf:
            queue.append((node.left, twin.left))
            queue.append((node.right, twin.right))
    return pairs


def search_rbf_model(
    points: np.ndarray,
    responses: np.ndarray,
    p_min_grid: Sequence[int] = DEFAULT_P_MIN_GRID,
    alpha_grid: Sequence[float] = DEFAULT_ALPHA_GRID,
    criterion: str = "aicc",
    max_candidates: int = 255,
) -> RBFSearchResult:
    """Grid-search ``(p_min, alpha)`` and keep the lowest-criterion network.

    Returns bit for bit what a :func:`build_rbf_from_tree` call per grid
    point gives, ``tried`` in ``p_min``-major grid order and the first
    strict minimum in that order chosen, but does each distinct fit once:

    * One regression tree is grown, at the smallest ``p_min``; each larger
      ``p_min`` tree is its exact :meth:`RegressionTree.truncated`.  Every
      candidate of every tree is thus a node of the one tree's breadth-first
      list, and its Gaussian column is computed once per ``alpha``.
    * ``alpha`` is the outer loop.  The ``p_min`` walks at one ``alpha``
      share one fit cache keyed by the selected columns, so a subset that
      two trees both propose is fitted once.  The cache is dropped before
      the next ``alpha``, which bounds its memory.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    responses = np.asarray(responses, dtype=float).ravel()
    if not p_min_grid or not alpha_grid:
        raise ValueError("the (p_min, alpha) grid is empty")
    crit_fn = get_criterion(criterion)
    with obs.span("fit/tree", p_min=min(p_min_grid), points=len(points)) as tsp:
        base = RegressionTree(points, responses, p_min=min(p_min_grid))
        tsp.set(depth=base.depth)
    column = {id(node): j for j, node in enumerate(base.nodes_breadth_first())}
    # Each tree's candidates, as columns of the one tree's list.
    walks = []
    for p_min in p_min_grid:
        tree = base if p_min == base.p_min else base.truncated(p_min)
        pairs = _paired_nodes(tree, base)[:max_candidates]
        walks.append(_walk(p_min, tree, [node for node, _ in pairs],
                           [column[id(twin)] for _, twin in pairs]))
    geometry = tree_candidates(points, base, 1 + max(max(w.columns) for w in walks))

    # ``built[i][a]`` is the network at (p_min_grid[i], alpha_grid[a]).
    built: List[List[Tuple[RBFNetwork, RBFBuildInfo]]] = [[] for _ in walks]
    for alpha in alpha_grid:
        radii = np.maximum(alpha * geometry.sizes, _MIN_RADIUS)
        score = _SubsetFits(_design_from_diff(geometry.diff, radii), responses, crit_fn)
        for row, walk in zip(built, walks):
            row.append(_select_network(walk, score, geometry.centers, radii,
                                       alpha, criterion))
        _count_fits(score)
        del score  # drop this alpha's cache before the next design matrix

    best: Optional[Tuple[RBFNetwork, RBFBuildInfo]] = None
    tried: List[RBFBuildInfo] = []
    for network, info in (entry for row in built for entry in row):
        tried.append(info)
        obs.inc("aicc_iterations")
        if np.isfinite(info.criterion_value):
            obs.observe("fit/criterion", info.criterion_value)
        if best is None or info.criterion_value < best[1].criterion_value:
            best = (network, info)
    assert best is not None
    obs.inc("fit/searches")
    return RBFSearchResult(network=best[0], info=best[1], tried=tried)
