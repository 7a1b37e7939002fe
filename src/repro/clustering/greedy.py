"""A static greedy graph-partitioning clustering baseline.

The paper situates DSTC among *graph partitioning* approaches compared by
Tsangaris & Naughton's CLAB ([Tsa92]) and evaluated in the authors' own
survey ([Dar96]); §5 plans to pit DSTC against other techniques inside
VOODB.  This policy is that comparison partner: a classic *static*,
structure-driven clusterer in the WOR/greedy-traversal family.

Unlike DSTC it ignores usage statistics entirely — it walks the
database's reference graph at reorganization time, greedily growing a
cluster from each unvisited object by following references breadth-first
(weighted by reference count when ``use_weights``).  It therefore models
the "a priori placement optimizer" class of techniques: zero runtime
statistics overhead, but blind to the actual access pattern.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.clustering.base import ClusteringPolicy


class GreedyGraphClustering(ClusteringPolicy):
    """Static breadth-first greedy clustering over the reference graph."""

    name = "greedy"
    tracks_accesses = False

    def __init__(self, max_cluster_size: int = 50, use_weights: bool = True) -> None:
        if max_cluster_size < 2:
            raise ValueError("max_cluster_size must be >= 2")
        self.max_cluster_size = max_cluster_size
        self.use_weights = use_weights
        self._transactions = 0
        self._reference_degree: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------
    # No statistics: the hooks are no-ops.
    # ------------------------------------------------------------------
    def on_object_access(self, oid: int, previous_oid: Optional[int]) -> None:
        pass

    def on_transaction_end(self) -> bool:
        self._transactions += 1
        return False  # static technique: external trigger only

    # ------------------------------------------------------------------
    def _in_degrees(self) -> Dict[int, int]:
        if self._reference_degree is None:
            degrees: Dict[int, int] = {}
            for oid in range(len(self.db)):
                for target in self.db.refs(oid):
                    degrees[target] = degrees.get(target, 0) + 1
            self._reference_degree = degrees
        return self._reference_degree

    def build_clusters(self) -> List[List[int]]:
        """Greedy BFS partition of the whole reference graph.

        Seeds are taken in descending in-degree order (hub objects
        first) when ``use_weights``, else in OID order.
        """
        db = self.db
        total = len(db)
        visited = [False] * total
        if self.use_weights:
            degrees = self._in_degrees()
            seeds = sorted(range(total), key=lambda o: (-degrees.get(o, 0), o))
        else:
            seeds = list(range(total))
        clusters: List[List[int]] = []
        for seed in seeds:
            if visited[seed]:
                continue
            cluster = [seed]
            visited[seed] = True
            queue = deque([seed])
            while queue and len(cluster) < self.max_cluster_size:
                current = queue.popleft()
                for target in db.refs(current):
                    if len(cluster) >= self.max_cluster_size:
                        break
                    if not visited[target]:
                        visited[target] = True
                        cluster.append(target)
                        queue.append(target)
            if len(cluster) >= 2:
                clusters.append(cluster)
        return clusters
