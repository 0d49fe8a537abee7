"""Brute-force reference answers.

Every answer the benchmark checks is recomputed here by scanning the
generated objects: a numpy MBR prefilter over all of them, then the
exact :class:`~repro.geometry.feature.SpatialObject` predicate on the
survivors (a window answers every object whose MBR it contains without
one).  Nothing here touches the R*-tree, the organizations or the
I/O stack, so an answer that agrees with this scan is independent
evidence that the system's filter and refinement steps are right.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.rect import Rect


def _mbr_matrix(objects) -> np.ndarray:
    return np.array(
        [(o.mbr.xmin, o.mbr.ymin, o.mbr.xmax, o.mbr.ymax) for o in objects],
        dtype=np.float64,
    ).reshape(-1, 4)


class BruteForce:
    """Reference answers over a fixed list of objects."""

    def __init__(self, objects):
        self.objects = list(objects)
        self.mbrs = _mbr_matrix(self.objects)
        self._windows: dict[tuple, tuple[int, ...]] = {}
        self._points: dict[tuple, tuple[int, ...]] = {}

    def _candidates(self, xmin, ymin, xmax, ymax) -> np.ndarray:
        m = self.mbrs
        hit = (
            (m[:, 0] <= xmax)
            & (xmin <= m[:, 2])
            & (m[:, 1] <= ymax)
            & (ymin <= m[:, 3])
        )
        return np.flatnonzero(hit)

    def window(self, rect: Rect) -> tuple[int, ...]:
        """Sorted ids of the objects sharing points with ``rect``.  An
        object whose MBR lies inside the window shares points with it
        (its geometry lies inside too), so only the others need the
        exact test."""
        key = rect.as_tuple()
        answer = self._windows.get(key)
        if answer is None:
            xmin, ymin, xmax, ymax = key
            candidates = self._candidates(*key)
            m = self.mbrs[candidates]
            inside = (
                (xmin <= m[:, 0])
                & (ymin <= m[:, 1])
                & (m[:, 2] <= xmax)
                & (m[:, 3] <= ymax)
            )
            answer = tuple(
                sorted(
                    self.objects[i].oid
                    for i, contained in zip(candidates.tolist(), inside.tolist())
                    if contained or self.objects[i].intersects_rect(rect)
                )
            )
            self._windows[key] = answer
        return answer

    def point(self, x: float, y: float) -> tuple[int, ...]:
        """Sorted ids of the objects containing the point."""
        key = (x, y)
        answer = self._points.get(key)
        if answer is None:
            answer = tuple(
                sorted(
                    self.objects[i].oid
                    for i in self._candidates(x, y, x, y).tolist()
                    if self.objects[i].contains_point(x, y)
                )
            )
            self._points[key] = answer
        return answer

    def join_counts(self, others, block: int = 1024) -> tuple[int, int]:
        """Intersection join with another object list: the number of
        MBR-intersecting pairs (the filter step's candidates) and the
        number of pairs whose exact geometries intersect."""
        theirs = _mbr_matrix(others)
        candidates = 0
        results = 0
        for lo in range(0, len(self.objects), block):
            mine = self.mbrs[lo : lo + block]
            hit = (
                (mine[:, None, 0] <= theirs[None, :, 2])
                & (theirs[None, :, 0] <= mine[:, None, 2])
                & (mine[:, None, 1] <= theirs[None, :, 3])
                & (theirs[None, :, 1] <= mine[:, None, 3])
            )
            rows, cols = np.nonzero(hit)
            candidates += len(rows)
            for i, j in zip(rows.tolist(), cols.tolist()):
                if self.objects[lo + i].intersects(others[j]):
                    results += 1
        return candidates, results
