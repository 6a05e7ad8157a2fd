"""Regression trees over the design space (paper Sec. 2.4, Eq. 3-7).

A regression tree recursively bifurcates the sample along one input
parameter ``k`` at a boundary ``b``, choosing the ``(k, b)`` pair that
minimises the residual square error

.. math::

    E(k, b) = \\frac{1}{p}\\Big(\\sum_{i \\in S_L} (y_i - \\bar y_L)^2
                              + \\sum_{i \\in S_R} (y_i - \\bar y_R)^2\\Big)

over a discrete search of the ``n`` dimensions and ``p`` sample points.
Splitting continues until every terminal node holds at most ``p_min``
points.  Each node carries the hyper-rectangle of design space it covers
(center and edge lengths), which the RBF construction turns into candidate
basis-function centers and radii.

Parameters that cause the most output variation split earliest and most
often — the basis of the paper's Table 5 and Figure 5 analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.models.base import Model


@dataclass
class Split:
    """A recorded bifurcation: dimension, boundary value, and tree depth."""

    dimension: int
    value: float
    depth: int
    error: float  # E(k, b) achieved by this split


@dataclass
class TreeNode:
    """A node of the regression tree and its design-space hyper-rectangle."""

    lower: np.ndarray  # hyper-rectangle lower corner (unit coordinates)
    upper: np.ndarray  # hyper-rectangle upper corner
    indices: np.ndarray  # sample indices covered by this node
    mean: float
    depth: int
    split: Optional[Split] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    children: Tuple = field(init=False, repr=False, default=())

    @property
    def center(self) -> np.ndarray:
        """Center of the node's hyper-rectangle."""
        return (self.lower + self.upper) / 2.0

    @property
    def size(self) -> np.ndarray:
        """Edge lengths of the node's hyper-rectangle."""
        return self.upper - self.lower

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _truncate(node: TreeNode, p_min: int) -> TreeNode:
    """Copy of the subtree at ``node`` with every node of <= ``p_min`` points a leaf."""
    out = TreeNode(lower=node.lower, upper=node.upper, indices=node.indices,
                   mean=node.mean, depth=node.depth)
    if not node.is_leaf and len(node.indices) > p_min:
        out.split = node.split
        out.left = _truncate(node.left, p_min)
        out.right = _truncate(node.right, p_min)
    return out


class RegressionTree(Model):
    """Recursive binary partition of a sample, minimising within-node variance.

    Parameters
    ----------
    points:
        ``(p, n)`` unit-cube design points.
    responses:
        ``(p,)`` responses (CPI in the paper).
    p_min:
        Maximum number of points allowed in a terminal node; the paper's
        method parameter whose best value is found by experimentation
        (typically 1).
    """

    def __init__(self, points: np.ndarray, responses: np.ndarray, p_min: int = 1):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        responses = np.asarray(responses, dtype=float).ravel()
        if len(points) != len(responses):
            raise ValueError("points and responses must have equal length")
        if len(points) == 0:
            raise ValueError("cannot build a tree from an empty sample")
        if p_min < 1:
            raise ValueError("p_min must be >= 1")
        self.points = points
        self.responses = responses
        self.p_min = p_min
        self._total = len(points)
        self.root = self._build(
            lower=np.zeros(points.shape[1]),
            upper=np.ones(points.shape[1]),
            indices=np.arange(len(points)),
            depth=0,
        )

    # -- construction -------------------------------------------------------

    def _best_split(self, indices: np.ndarray) -> Optional[Tuple[int, float, float]]:
        """Best ``(dimension, boundary, error)`` over all dims and points.

        Uses prefix sums along each sorted dimension so each dimension is
        scanned in O(p log p).  Returns ``None`` when no dimension has two
        distinct values (the node cannot be split).
        """
        x = self.points[indices]
        y = self.responses[indices]
        p = len(indices)
        best: Optional[Tuple[int, float, float]] = None
        for k in range(x.shape[1]):
            order = np.argsort(x[:, k], kind="stable")
            xs = x[order, k]
            ys = y[order]
            # Candidate boundaries lie between consecutive distinct values.
            distinct = np.nonzero(np.diff(xs) > 0)[0]
            if distinct.size == 0:
                continue
            csum = np.cumsum(ys)
            csum2 = np.cumsum(ys**2)
            total, total2 = csum[-1], csum2[-1]
            for cut in distinct:
                p_left = cut + 1
                p_right = p - p_left
                sum_l, sum2_l = csum[cut], csum2[cut]
                sse_l = sum2_l - sum_l**2 / p_left
                sum_r, sum2_r = total - sum_l, total2 - sum2_l
                sse_r = sum2_r - sum_r**2 / p_right
                error = (sse_l + sse_r) / self._total
                if best is None or error < best[2]:
                    boundary = (xs[cut] + xs[cut + 1]) / 2.0
                    best = (k, float(boundary), float(error))
        return best

    def _build(
        self,
        lower: np.ndarray,
        upper: np.ndarray,
        indices: np.ndarray,
        depth: int,
    ) -> TreeNode:
        node = TreeNode(
            lower=lower,
            upper=upper,
            indices=indices,
            mean=float(self.responses[indices].mean()),
            depth=depth,
        )
        if len(indices) <= self.p_min:
            return node
        found = self._best_split(indices)
        if found is None:
            return node
        k, boundary, error = found
        node.split = Split(dimension=k, value=boundary, depth=depth + 1, error=error)
        mask = self.points[indices, k] <= boundary
        left_idx = indices[mask]
        right_idx = indices[~mask]
        left_upper = upper.copy()
        left_upper[k] = boundary
        right_lower = lower.copy()
        right_lower[k] = boundary
        node.left = self._build(lower, left_upper, left_idx, depth + 1)
        node.right = self._build(right_lower, upper, right_idx, depth + 1)
        return node

    def truncated(self, p_min: int) -> "RegressionTree":
        """This tree as if it had been built with the larger leaf capacity ``p_min``.

        Exact: ``p_min`` only decides where recursion stops, and a node's
        split depends only on the points it holds, so cutting every node
        holding at most ``p_min`` points reproduces
        ``RegressionTree(points, responses, p_min)`` node for node without
        searching a single split again.  Boxes, index arrays and splits are
        shared with this tree (none of them is ever mutated).
        """
        if p_min < self.p_min:
            raise ValueError("a truncation cannot lower p_min")
        tree = object.__new__(type(self))
        tree.points, tree.responses = self.points, self.responses
        tree.p_min, tree._total = p_min, self._total
        tree.root = _truncate(self.root, p_min)
        return tree

    # -- traversal ------------------------------------------------------------

    def nodes_breadth_first(self) -> List[TreeNode]:
        """All nodes in breadth-first order (root first)."""
        out: List[TreeNode] = []
        queue = [self.root]
        while queue:
            node = queue.pop(0)
            out.append(node)
            if node.left is not None:
                queue.append(node.left)
                queue.append(node.right)
        return out

    def splits(self) -> List[Split]:
        """All splits in breadth-first order — earliest (shallowest) first.

        The paper's Table 5 reports the first few of these as the "most
        significant splitting points".
        """
        return [n.split for n in self.nodes_breadth_first() if n.split is not None]

    def leaves(self) -> List[TreeNode]:
        """All terminal nodes (each holding at most ``p_min`` points)."""
        return [n for n in self.nodes_breadth_first() if n.is_leaf]

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Piecewise-constant prediction: the mean of each point's leaf.

        One index-array descent for the whole batch: every internal node
        partitions the indices of the points that reached it with one
        boolean mask (``x[k] <= b`` goes left), and each leaf assigns its
        mean to its whole cohort at once.  Leaf means are *assigned*, never
        combined, so a point gets the same bits alone or in any batch.
        """
        points = self._as_points(points, self.dimension)
        out = np.empty(len(points))
        stack: List[Tuple[TreeNode, np.ndarray]] = [
            (self.root, np.arange(len(points)))
        ]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.is_leaf:
                out[idx] = node.mean
                continue
            assert node.split is not None and node.left is not None
            mask = points[idx, node.split.dimension] <= node.split.value
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
        return out

    @property
    def depth(self) -> int:
        """Depth of the deepest node (root = 0)."""
        return max(n.depth for n in self.nodes_breadth_first())

    @property
    def dimension(self) -> int:
        """Number of design-space dimensions the tree partitions."""
        return self.points.shape[1]

    def diagnostics(self) -> dict:
        """Structure numbers for the model card: depth, leaves, splits."""
        return {
            "family": "tree",
            "dimension": self.dimension,
            "p_min": self.p_min,
            "depth": self.depth,
            "num_leaves": len(self.leaves()),
            "num_splits": len(self.splits()),
        }

    def __repr__(self) -> str:
        leaves = len(self.leaves())
        return f"RegressionTree(p={self._total}, p_min={self.p_min}, leaves={leaves})"
