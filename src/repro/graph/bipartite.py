"""The uncertain bipartite weighted network (Definition 1).

:class:`UncertainBipartiteGraph` is the central data structure of the
library.  It stores an immutable edge list in numpy arrays (endpoint
indices, weights, probabilities) and lazily derives the indexes the MPMB
algorithms need: adjacency lists for both partitions, degree-based vertex
priorities, weight-sorted edge order, and the three-largest-weight prune
bound of Section V-B.

Vertices are identified by arbitrary hashable *labels* at the API surface
and by dense integer indices internally; all algorithm code works on
indices and the result types translate back to labels on demand.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import GraphValidationError
from .edges import EdgeSpec, as_edge_specs

#: Adjacency entry: (neighbour vertex index on the other side, edge index).
AdjEntry = Tuple[int, int]


class UncertainBipartiteGraph:
    """An immutable uncertain bipartite weighted network ``G=(V=(L,R),E,p,w)``.

    Construct instances with :meth:`from_edges` (or the incremental
    :class:`~repro.graph.builder.GraphBuilder`); the raw constructor expects
    pre-validated arrays and is considered internal.

    The *backbone graph* ``H`` of the paper is this same object viewed
    deterministically: every accessor that ignores ``probs`` (adjacency,
    weights, degrees) describes the backbone.
    """

    __slots__ = (
        "_left_labels",
        "_right_labels",
        "_edge_left",
        "_edge_right",
        "_weights",
        "_probs",
        "_left_index",
        "_right_index",
        "_adj_left",
        "_adj_right",
        "_edge_lookup",
        "_weight_order",
        "_wedge_indexes",
        "_name",
    )

    def __init__(
        self,
        left_labels: Sequence[Hashable],
        right_labels: Sequence[Hashable],
        edge_left: np.ndarray,
        edge_right: np.ndarray,
        weights: np.ndarray,
        probs: np.ndarray,
        name: str = "",
    ) -> None:
        self._left_labels: List[Hashable] = list(left_labels)
        self._right_labels: List[Hashable] = list(right_labels)
        self._edge_left = np.asarray(edge_left, dtype=np.int64)
        self._edge_right = np.asarray(edge_right, dtype=np.int64)
        self._weights = np.asarray(weights, dtype=np.float64)
        self._probs = np.asarray(probs, dtype=np.float64)
        self._name = name
        self._left_index: Dict[Hashable, int] = {
            label: i for i, label in enumerate(self._left_labels)
        }
        self._right_index: Dict[Hashable, int] = {
            label: i for i, label in enumerate(self._right_labels)
        }
        self._validate()
        # Lazily built caches.
        self._adj_left: List[List[AdjEntry]] | None = None
        self._adj_right: List[List[AdjEntry]] | None = None
        self._edge_lookup: Dict[Tuple[int, int], int] | None = None
        self._weight_order: np.ndarray | None = None
        self._wedge_indexes: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable,
        left_labels: Sequence[Hashable] | None = None,
        right_labels: Sequence[Hashable] | None = None,
        name: str = "",
    ) -> "UncertainBipartiteGraph":
        """Build a graph from ``(left, right, weight, prob)`` tuples.

        Args:
            edges: Iterable of 4-tuples or :class:`EdgeSpec` items.
            left_labels: Optional explicit left-vertex ordering; labels seen
                in the edge list but missing here raise
                :class:`GraphValidationError`.  When omitted, labels are
                collected in first-seen order (so isolated vertices cannot
                exist without explicit label lists).
            right_labels: Same for the right partition.
            name: Optional human-readable dataset name.
        """
        specs = list(as_edge_specs(edges))
        if left_labels is None:
            left_labels = _first_seen(spec.left for spec in specs)
        if right_labels is None:
            right_labels = _first_seen(spec.right for spec in specs)
        left_index = {label: i for i, label in enumerate(left_labels)}
        right_index = {label: i for i, label in enumerate(right_labels)}
        if len(left_index) != len(left_labels):
            raise GraphValidationError("duplicate labels in left partition")
        if len(right_index) != len(right_labels):
            raise GraphValidationError("duplicate labels in right partition")

        m = len(specs)
        edge_left = np.empty(m, dtype=np.int64)
        edge_right = np.empty(m, dtype=np.int64)
        weights = np.empty(m, dtype=np.float64)
        probs = np.empty(m, dtype=np.float64)
        for i, spec in enumerate(specs):
            try:
                edge_left[i] = left_index[spec.left]
            except KeyError:
                raise GraphValidationError(
                    f"edge endpoint {spec.left!r} is not a left-partition label"
                ) from None
            try:
                edge_right[i] = right_index[spec.right]
            except KeyError:
                raise GraphValidationError(
                    f"edge endpoint {spec.right!r} is not a right-partition label"
                ) from None
            weights[i] = spec.weight
            probs[i] = spec.prob
        return cls(
            list(left_labels), list(right_labels),
            edge_left, edge_right, weights, probs, name=name,
        )

    def _validate(self) -> None:
        m = self.n_edges
        arrays = (self._edge_left, self._edge_right, self._weights, self._probs)
        if any(a.shape != (m,) for a in arrays):
            raise GraphValidationError("edge arrays must share one length")
        if m:
            if self._edge_left.min(initial=0) < 0 or (
                self._edge_left.max(initial=-1) >= self.n_left
            ):
                raise GraphValidationError("left endpoint index out of range")
            if self._edge_right.min(initial=0) < 0 or (
                self._edge_right.max(initial=-1) >= self.n_right
            ):
                raise GraphValidationError("right endpoint index out of range")
            if np.any(~np.isfinite(self._weights)) or np.any(self._weights <= 0):
                raise GraphValidationError(
                    "edge weights must be finite and strictly positive "
                    "(the Section V-B prune bound assumes positive weights)"
                )
            if np.any(~np.isfinite(self._probs)) or np.any(
                (self._probs < 0) | (self._probs > 1)
            ):
                raise GraphValidationError("edge probabilities must lie in [0, 1]")
            pairs = set(zip(self._edge_left.tolist(), self._edge_right.tolist()))
            if len(pairs) != m:
                raise GraphValidationError("duplicate (left, right) edge")
        overlap = set(self._left_labels) & set(self._right_labels)
        if overlap:
            raise GraphValidationError(
                f"labels appear in both partitions: {sorted(map(repr, overlap))[:5]}"
            )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Human-readable dataset name (may be empty)."""
        return self._name

    @property
    def n_left(self) -> int:
        """Number of left-partition vertices ``|L|``."""
        return len(self._left_labels)

    @property
    def n_right(self) -> int:
        """Number of right-partition vertices ``|R|``."""
        return len(self._right_labels)

    @property
    def n_vertices(self) -> int:
        """Total vertex count ``|V| = |L| + |R|``."""
        return self.n_left + self.n_right

    @property
    def n_edges(self) -> int:
        """Number of edges ``|E|``."""
        return int(self._weights.shape[0])

    @property
    def weights(self) -> np.ndarray:
        """Read-only weight array indexed by edge index."""
        view = self._weights.view()
        view.flags.writeable = False
        return view

    @property
    def probs(self) -> np.ndarray:
        """Read-only probability array indexed by edge index."""
        view = self._probs.view()
        view.flags.writeable = False
        return view

    @property
    def edge_left(self) -> np.ndarray:
        """Read-only left-endpoint index array, indexed by edge index."""
        view = self._edge_left.view()
        view.flags.writeable = False
        return view

    @property
    def edge_right(self) -> np.ndarray:
        """Read-only right-endpoint index array, indexed by edge index."""
        view = self._edge_right.view()
        view.flags.writeable = False
        return view

    def left_label(self, index: int) -> Hashable:
        """Label of the left vertex at ``index``."""
        return self._left_labels[index]

    def right_label(self, index: int) -> Hashable:
        """Label of the right vertex at ``index``."""
        return self._right_labels[index]

    def left_index(self, label: Hashable) -> int:
        """Dense index of the left vertex with ``label``."""
        try:
            return self._left_index[label]
        except KeyError:
            raise KeyError(f"unknown left-partition label {label!r}") from None

    def right_index(self, label: Hashable) -> int:
        """Dense index of the right vertex with ``label``."""
        try:
            return self._right_index[label]
        except KeyError:
            raise KeyError(f"unknown right-partition label {label!r}") from None

    @property
    def left_labels(self) -> Tuple[Hashable, ...]:
        """All left-partition labels in index order."""
        return tuple(self._left_labels)

    @property
    def right_labels(self) -> Tuple[Hashable, ...]:
        """All right-partition labels in index order."""
        return tuple(self._right_labels)

    def edge_endpoints(self, edge: int) -> Tuple[int, int]:
        """``(left_index, right_index)`` of an edge."""
        return int(self._edge_left[edge]), int(self._edge_right[edge])

    def edge_spec(self, edge: int) -> EdgeSpec:
        """Label-level description of an edge."""
        u, v = self.edge_endpoints(edge)
        return EdgeSpec(
            self._left_labels[u],
            self._right_labels[v],
            float(self._weights[edge]),
            float(self._probs[edge]),
        )

    def iter_edge_specs(self) -> Iterable[EdgeSpec]:
        """Iterate all edges as label-level :class:`EdgeSpec` items."""
        return (self.edge_spec(e) for e in range(self.n_edges))

    # ------------------------------------------------------------------
    # Derived indexes (lazy, cached)
    # ------------------------------------------------------------------

    @property
    def adjacency_left(self) -> List[List[AdjEntry]]:
        """For each left vertex, its ``(right_index, edge_index)`` list."""
        if self._adj_left is None:
            adj: List[List[AdjEntry]] = [[] for _ in range(self.n_left)]
            for e in range(self.n_edges):
                adj[self._edge_left[e]].append((int(self._edge_right[e]), e))
            self._adj_left = adj
        return self._adj_left

    @property
    def adjacency_right(self) -> List[List[AdjEntry]]:
        """For each right vertex, its ``(left_index, edge_index)`` list."""
        if self._adj_right is None:
            adj: List[List[AdjEntry]] = [[] for _ in range(self.n_right)]
            for e in range(self.n_edges):
                adj[self._edge_right[e]].append((int(self._edge_left[e]), e))
            self._adj_right = adj
        return self._adj_right

    def edge_between(self, left: int, right: int) -> int | None:
        """Edge index between two vertex indices, or ``None`` if absent."""
        if self._edge_lookup is None:
            self._edge_lookup = {
                (int(self._edge_left[e]), int(self._edge_right[e])): e
                for e in range(self.n_edges)
            }
        return self._edge_lookup.get((left, right))

    @property
    def edges_by_weight_desc(self) -> np.ndarray:
        """Edge indices sorted by weight descending (Section V-B ordering).

        Ties break by edge index so the order is deterministic.
        """
        if self._weight_order is None:
            # numpy's stable sort on -weights keeps index order within ties.
            self._weight_order = np.argsort(-self._weights, kind="stable")
            self._weight_order.flags.writeable = False
        return self._weight_order

    @property
    def wedge_indexes(self) -> Dict[str, Any]:
        """Per-priority wedge-index memo, filled on first use by
        :func:`repro.kernels.wedge_block.wedge_index_for` (``None``
        records an index that would not fit in memory).  It lives and
        dies with this graph object."""
        return self._wedge_indexes

    def top_weight_sum(self, k: int = 3) -> float:
        """Sum of the ``k`` largest edge weights (``w̄`` with ``k=3``).

        This is the Section V-B prune constant: any butterfly containing an
        edge of weight ``w`` weighs at most ``w + top_weight_sum(3)``.
        """
        if self.n_edges == 0:
            return 0.0
        order = self.edges_by_weight_desc
        return float(self._weights[order[:k]].sum())

    # ------------------------------------------------------------------
    # Degrees
    # ------------------------------------------------------------------

    def degree_left(self, index: int) -> int:
        """Backbone degree of a left vertex."""
        return len(self.adjacency_left[index])

    def degree_right(self, index: int) -> int:
        """Backbone degree of a right vertex."""
        return len(self.adjacency_right[index])

    def degrees_left(self) -> np.ndarray:
        """Backbone degrees of all left vertices."""
        return np.bincount(self._edge_left, minlength=self.n_left)

    def degrees_right(self) -> np.ndarray:
        """Backbone degrees of all right vertices."""
        return np.bincount(self._edge_right, minlength=self.n_right)

    def expected_degrees_left(self) -> np.ndarray:
        """Expected degrees ``d̄(u) = Σ p(e)`` over left vertices (Lemma IV.1)."""
        return np.bincount(
            self._edge_left, weights=self._probs, minlength=self.n_left
        )

    def expected_degrees_right(self) -> np.ndarray:
        """Expected degrees ``d̄(v) = Σ p(e)`` over right vertices."""
        return np.bincount(
            self._edge_right, weights=self._probs, minlength=self.n_right
        )

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self._name!r}" if self._name else ""
        return (
            f"<UncertainBipartiteGraph{label} |L|={self.n_left} "
            f"|R|={self.n_right} |E|={self.n_edges}>"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UncertainBipartiteGraph):
            return NotImplemented
        return (
            self._left_labels == other._left_labels
            and self._right_labels == other._right_labels
            and np.array_equal(self._edge_left, other._edge_left)
            and np.array_equal(self._edge_right, other._edge_right)
            and np.array_equal(self._weights, other._weights)
            and np.array_equal(self._probs, other._probs)
        )

    def __hash__(self) -> int:  # graphs are mutable-cache objects
        return id(self)


def _first_seen(items: Iterable[Hashable]) -> List[Hashable]:
    """Collect unique items preserving first-seen order."""
    seen: Dict[Hashable, None] = {}
    for item in items:
        seen.setdefault(item, None)
    return list(seen)
