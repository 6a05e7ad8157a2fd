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
    return np.ascontiguousarray(_gaussian_rows(points, centers, radii).T)


#: Elements of ``(x - c) / r`` differences one design-matrix chunk holds.
_CHUNK = 1 << 16


def _gaussian_rows(points: np.ndarray, centers: np.ndarray,
                   radii: np.ndarray) -> np.ndarray:
    """The transposed design matrix ``H.T``: row ``j`` is ``h_j`` at every point.

    Rows are built in chunks of about ``_CHUNK`` difference elements, so no
    ``(p, m, n)`` difference array is ever held.  Each element's sum runs
    over the contiguous last axis exactly as the unchunked broadcast's
    does, so the bits do not depend on the chunking.
    """
    out = np.empty((len(centers), len(points)))
    step = max(1, _CHUNK // max(1, points.size))
    for lo in range(0, len(centers), step):
        diff = points - centers[lo:lo + step, None, :]
        z = (diff / radii[lo:lo + step, None, :]) ** 2
        np.exp(-z.sum(axis=2), out=out[lo:lo + step])
    return out


#: Ridge added to every Gram diagonal for numerical conditioning.
_RIDGE = 1e-9


def _fit_weights(h: np.ndarray, y: np.ndarray):
    """Least-squares weights with a tiny ridge for numerical conditioning.

    Returns ``(weights, sse)`` where ``sse`` is the residual sum of squares
    on the training sample.
    """
    if h.shape[1] == 0:
        return np.zeros(0), float(np.dot(y, y))
    gram = h.T @ h
    # Strided view of the diagonal; same elementwise add as indexing by
    # diag_indices_from, without rebuilding the index arrays per call.
    gram.flat[:: gram.shape[0] + 1] += _RIDGE
    try:
        weights = np.linalg.solve(gram, h.T @ y)
    except np.linalg.LinAlgError:
        weights = np.linalg.lstsq(h, y, rcond=None)[0]
    resid = y - h @ weights
    return weights, float(resid @ resid)


def _stacked_sse(a: np.ndarray, y: np.ndarray) -> List[float]:
    """``_fit_weights(a[i].T, y)[1]`` for every block of a ``(b, k, p)`` stack.

    Bit for bit, because each stacked product sees the memory layout its
    ``_fit_weights`` counterpart does: ``a[i]`` is C-ordered like ``h.T``
    (a column selection ``H[:, mask]`` is F-ordered), so the Gram matrix,
    right-hand side, residual and SSE come from the same BLAS calls on the
    same strides.  If ``solve`` refuses the stack, every block is refitted
    alone, ``lstsq`` fallback included.
    """
    if a.shape[1] == 0:
        return [float(np.dot(y, y))] * len(a)
    gram = a @ a.transpose(0, 2, 1)
    gram.reshape(len(a), -1)[:, :: gram.shape[1] + 1] += _RIDGE
    try:
        weights = np.linalg.solve(gram, (a @ y)[..., None])
    except np.linalg.LinAlgError:
        return [_fit_weights(h.T, y)[1] for h in a]
    resid = y - (a.transpose(0, 2, 1) @ weights)[..., 0]
    return (resid[:, None, :] @ resid[:, :, None]).ravel().tolist()


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

        Points go in blocks of about ``_CHUNK`` difference elements, as in
        :func:`_gaussian_rows`, so no ``(p, m, n)`` difference array is
        ever held, and each block is scaled and squared in place.  Every
        element is computed as by the unchunked broadcast (``z * z`` is
        ``z ** 2``), so the bits do not depend on the blocking.
        """
        out = np.empty(len(points))
        step = max(1, _CHUNK // max(1, self.centers.size))
        for lo in range(0, len(points), step):
            z = points[lo:lo + step, None, :] - self.centers
            z /= self.radii
            z *= z
            np.sqrt(z.sum(axis=2).min(axis=1), out=out[lo:lo + step])
        return out

    def loo_residuals(self, points: np.ndarray,
                      responses: np.ndarray) -> np.ndarray:
        """Exact leave-one-out residuals with centers and radii held fixed.

        Holding the basis fixed, the weight fit is linear regression, so
        the residual at ``x_i`` of a fit without it is ``e_i / (1 - H_ii)``
        with ``H = A (A^T A + ridge I)^{-1} A^T`` — no refit loop.  Both
        :meth:`calibrate` and :func:`repro.core.crossval.loo_rbf_error`
        read their leave-one-out errors from here.
        """
        points = self._as_points(points, self.dimension)
        responses = np.asarray(responses, dtype=float).ravel()
        a = gaussian_design_matrix(points, self.centers, self.radii)
        gram = a.T @ a
        gram.flat[:: gram.shape[0] + 1] += _RIDGE
        inner = np.linalg.solve(gram, a.T)
        hat_diag = np.einsum("ij,ji->i", a, inner)
        weights = inner @ responses
        resid = responses - a @ weights
        return resid / np.clip(1.0 - hat_diag, 1e-6, None)

    def calibrate(self, points: np.ndarray,
                  responses: np.ndarray) -> Uncertainty:
        """Calibrate with exact leave-one-out residuals (hat-matrix form).

        LOO residuals (:meth:`loo_residuals`) lack the training fit's
        optimism, so the q10–q90 band is honest on unseen points.  Also
        records the training sample's worst scaled center distance, the
        reference for the RBF-specific extrapolation signal.
        """
        points = self._as_points(points, self.dimension)
        loo_resid = self.loo_residuals(points, responses)
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

    The nodes, their center coordinates and rectangle edge lengths depend
    only on the tree, so they are computed once and reused for every alpha
    instead of being rebuilt per network.
    """

    nodes: List[TreeNode]
    centers: np.ndarray  #: ``(m, n)`` candidate center coordinates.
    sizes: np.ndarray  #: ``(m, n)`` hyper-rectangle edge lengths.


def tree_candidates(tree: RegressionTree, max_candidates: int = 255) -> CandidateSet:
    """Geometry of the first ``max_candidates`` nodes of ``tree``, breadth first."""
    nodes = tree.nodes_breadth_first()[:max_candidates]
    centers = np.atleast_2d(np.array([n.center for n in nodes], dtype=float))
    sizes = np.atleast_2d(np.array([n.size for n in nodes], dtype=float))
    return CandidateSet(nodes=nodes, centers=centers, sizes=sizes)


def _candidate_radii(candidates: CandidateSet, alphas: Sequence[float]) -> np.ndarray:
    """``(len(alphas), m, n)`` radii of every candidate at every alpha (Eq. 8)."""
    return np.maximum(np.multiply.outer(np.asarray(alphas, dtype=float),
                                        candidates.sizes), _MIN_RADIUS)


def _candidate_design(points: np.ndarray, candidates: CandidateSet,
                      radii: np.ndarray) -> np.ndarray:
    """One transposed design matrix per alpha, stacked: ``(alphas * m, p)``.

    Rows ``a * m`` to ``(a + 1) * m`` are :func:`gaussian_design_matrix`'s
    columns at alpha ``a``, bit for bit.
    """
    centers = np.tile(candidates.centers, (len(radii), 1))
    return _gaussian_rows(points, centers, radii.reshape(len(centers), -1))


def _check_fit_args(alphas: Sequence[float], max_candidates: int) -> None:
    if max_candidates < 1:
        raise ValueError(f"max_candidates must be >= 1, got {max_candidates}")
    for alpha in alphas:
        if not (np.isfinite(alpha) and alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {alpha}")


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


#: A trio's (node, left, right) include bits, one row per combination, in
#: the order the walk scores them.
_TRIO_COMBOS = np.array([(c & 4, c & 2, c & 1) for c in range(8)], dtype=bool)

#: Most same-size subsets one stacked solve fits; bounds the gathered
#: ``(group, size, p)`` block.
_FIT_GROUP = 32


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


class _Selection(NamedTuple):
    """One walk's outcome over one block of the stacked design."""

    selected: np.ndarray  #: column mask of the chosen centers
    value: float  #: its criterion value
    weights: np.ndarray
    sse: float


def _select_subsets(walks: Sequence[_Walk], ht: np.ndarray, width: int,
                    responses: np.ndarray, criterion) -> List[_Selection]:
    """Tree-ordered subset selection (Orr et al. 2000) of every walk in every block.

    ``ht`` stacks blocks of ``width`` design rows, one block per alpha.
    Every (block, walk) run includes the root (column 0), then for each of
    its walk's trios keeps the best of the 8 include/exclude combinations,
    the first strict minimum winning; a run left empty falls back to the
    root alone.  The runs advance in lockstep, one trio per step, and each
    step fits its distinct, uncached subsets together, grouped by size
    into stacked solves (:func:`_stacked_sse`).  Each block has one
    criterion cache shared by its walks; a subset scored again, in the
    same step or a later one, is a cache hit.  Returns one selection per
    run, block-major, with weights refitted by :func:`_fit_weights`.
    """
    p = len(responses)
    blocks = len(ht) // width
    caches: List[Dict[bytes, float]] = [{} for _ in range(blocks)]
    offset = np.repeat(np.arange(blocks) * width, len(walks))
    fits = hits = 0

    def score(masks: np.ndarray, runs: np.ndarray) -> np.ndarray:
        """Criterion of each column mask ``masks[i]`` of run ``runs[i]``."""
        nonlocal fits, hits
        sizes = masks.sum(axis=1).tolist()
        packed = np.packbits(masks, axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()
        owners = (runs // len(walks)).tolist()
        fresh: Dict[int, List[int]] = {}
        for i, (key, block, size) in enumerate(zip(keys, owners, sizes)):
            cache = caches[block]
            if key in cache:
                hits += 1
            elif size >= p - 1:  # AICc undefined; reject oversized models
                cache[key] = np.inf
            else:
                cache[key] = np.nan  # filled below, once the step is fitted
                fresh.setdefault(size, []).append(i)
        for size, members in fresh.items():
            fits += len(members)
            for lo in range(0, len(members), _FIT_GROUP):
                group = np.array(members[lo:lo + _FIT_GROUP])
                cols = np.nonzero(masks[group])[1].reshape(len(group), size)
                sses = _stacked_sse(ht[cols + offset[runs[group], None]], responses)
                for i, sse in zip(group.tolist(), sses):
                    caches[owners[i]][keys[i]] = criterion(p, sse, size)
        return np.array([caches[b][k] for k, b in zip(keys, owners)])

    count = blocks * len(walks)
    selected = np.zeros((count, width), dtype=bool)
    selected[:, 0] = True
    current = score(selected, np.arange(count))  # criterion of each selection
    steps = max(len(walk.trios) for walk in walks)
    trios = np.zeros((len(walks), steps, 3), dtype=np.intp)
    for w, walk in enumerate(walks):
        trios[w, :len(walk.trios)] = np.reshape(walk.trios, (-1, 3))
    lengths = np.array([len(walk.trios) for walk in walks])
    for step in range(steps):
        live = np.flatnonzero(lengths > step)
        runs = (np.arange(blocks)[:, None] * len(walks) + live).ravel()
        trio = np.repeat(np.tile(trios[live, step], (blocks, 1)), 8, axis=0)
        masks = np.repeat(selected[runs], 8, axis=0)
        masks[np.arange(len(masks))[:, None], trio] = np.tile(_TRIO_COMBOS, (len(runs), 1))
        values = score(masks, np.repeat(runs, 8)).reshape(len(runs), 8)
        values[np.isnan(values)] = np.inf  # a NaN never compares less
        pick = values.argmin(axis=1)  # first minimum in _TRIO_COMBOS order
        best = values[np.arange(len(runs)), pick]
        won = np.flatnonzero(best < current[runs])
        selected[runs[won]] = masks[8 * won + pick[won]]
        current[runs[won]] = best[won]
    empty = np.flatnonzero(~selected.any(axis=1))
    if len(empty):  # degenerate; fall back to the root-only model
        selected[empty, 0] = True
        current[empty] = score(selected[empty], empty)

    out = []
    for mask, start, value in zip(selected, offset, current.tolist()):
        weights, sse = _fit_weights(ht[start + np.flatnonzero(mask)].T, responses)
        out.append(_Selection(mask, value, weights, sse))
    obs.inc("fit/subset_fits", fits + count)
    obs.inc("fit/subset_cache_hits", hits)
    return out


def _built(walk: _Walk, chosen: _Selection, centers: np.ndarray,
           radii: np.ndarray, alpha: float,
           criterion: str) -> Tuple[RBFNetwork, RBFBuildInfo]:
    """The network and diagnostics of one walk's selection."""
    mask = chosen.selected
    network = RBFNetwork(centers[mask], radii[mask], chosen.weights)
    return network, RBFBuildInfo(
        p_min=walk.p_min,
        alpha=alpha,
        criterion_name=criterion,
        criterion_value=float(chosen.value),
        sse=float(chosen.sse),
        num_candidates=len(walk.nodes),
        num_centers=int(mask.sum()),
        tree_depth=walk.tree_depth,
        selected_nodes=[n for n, col in zip(walk.nodes, walk.columns) if mask[col]],
    )


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
    _check_fit_args((alpha,), max_candidates)
    crit_fn = get_criterion(criterion)
    if tree is None:
        tree = RegressionTree(points, responses, p_min=p_min)
    candidates = tree_candidates(tree, max_candidates)
    radii = _candidate_radii(candidates, (alpha,))
    width = len(candidates.nodes)
    walk = _walk(p_min, tree, candidates.nodes, range(width))
    [chosen] = _select_subsets([walk], _candidate_design(points, candidates, radii),
                               width, responses, crit_fn)
    return _built(walk, chosen, candidates.centers, radii[0], alpha, criterion)


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
    * All ``p_min`` walks at all ``alpha`` values advance together
      (:func:`_select_subsets`).  The walks at one ``alpha`` share one fit
      cache keyed by the selected columns, so a subset that two trees both
      propose is fitted once.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    responses = np.asarray(responses, dtype=float).ravel()
    if not p_min_grid or not alpha_grid:
        raise ValueError("the (p_min, alpha) grid is empty")
    _check_fit_args(alpha_grid, max_candidates)
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
    width = 1 + max(max(w.columns) for w in walks)
    geometry = tree_candidates(base, width)
    radii = _candidate_radii(geometry, alpha_grid)
    chosen = _select_subsets(walks, _candidate_design(points, geometry, radii),
                             width, responses, crit_fn)

    best: Optional[Tuple[RBFNetwork, RBFBuildInfo]] = None
    tried: List[RBFBuildInfo] = []
    for w, walk in enumerate(walks):
        for a, alpha in enumerate(alpha_grid):
            network, info = _built(walk, chosen[a * len(walks) + w],
                                   geometry.centers, radii[a], alpha, criterion)
            tried.append(info)
            obs.inc("aicc_iterations")
            if np.isfinite(info.criterion_value):
                obs.observe("fit/criterion", info.criterion_value)
            if best is None or info.criterion_value < best[1].criterion_value:
                best = (network, info)
    assert best is not None
    obs.inc("fit/searches")
    return RBFSearchResult(network=best[0], info=best[1], tried=tried)
