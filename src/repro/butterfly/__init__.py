"""Butterfly algorithms on deterministic structure (Definitions 3-4).

* :class:`Butterfly` / :class:`Angle` — canonical value types.
* :func:`count_butterflies`, :func:`enumerate_butterflies` — BFC-VP [50].
* :func:`max_weight_butterflies` — the Section V weight-ordered search
  with the A1/A2 angle index (the per-trial core of Ordering Sampling).
* :func:`max_weight_butterflies_enumerated` — Algorithm 1's
  enumerate-everything per-world search (the MC-VP baseline).
* :func:`brute_force_butterflies` — quadratic reference oracle.
"""

from .bfc_vp import (
    brute_force_butterflies,
    count_butterflies,
    enumerate_butterflies,
    global_adjacency,
    max_weight_butterflies_enumerated,
    world_global_adjacency,
)
from .max_weight import (
    MaxButterflySearch,
    TopTwoAngleIndex,
    max_weight_butterflies,
)
from .probable import most_probable_butterflies, most_probable_butterfly
from .top_weight import top_weight_butterflies
from .model import (
    Angle,
    Butterfly,
    ButterflyKey,
    butterfly_from_labels,
    make_butterfly,
)

__all__ = [
    "Angle",
    "Butterfly",
    "ButterflyKey",
    "make_butterfly",
    "butterfly_from_labels",
    "count_butterflies",
    "enumerate_butterflies",
    "brute_force_butterflies",
    "global_adjacency",
    "world_global_adjacency",
    "MaxButterflySearch",
    "TopTwoAngleIndex",
    "max_weight_butterflies",
    "max_weight_butterflies_enumerated",
    "top_weight_butterflies",
    "most_probable_butterflies",
    "most_probable_butterfly",
]
