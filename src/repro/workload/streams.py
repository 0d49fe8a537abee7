"""Deterministic mixed operation streams.

:func:`mixed_stream` turns a stored map into a batched workload for the
:class:`~repro.workload.engine.WorkloadEngine`: window queries whose
centers follow the MBR distribution (Section 5.4), point queries on the
window centers (Section 5.5), dynamic inserts/deletes, and optionally a
spatial join.  Operation kinds are interleaved round-robin so the
stream exercises the shared buffer pool the way mixed traffic would,
rather than phase by phase.
"""

from __future__ import annotations

from itertools import zip_longest

from repro.data.workload import point_workload, window_workload
from repro.errors import ConfigurationError
from repro.geometry.feature import SpatialObject

__all__ = ["mixed_stream"]


def mixed_stream(
    objects: list[SpatialObject],
    *,
    n_windows: int = 30,
    window_area: float = 1e-3,
    n_points: int = 30,
    inserts: list[SpatialObject] | None = None,
    deletes: list[int] | None = None,
    join_with=None,
    join_technique: str = "complete",
    seed: int = 715,
    data_space: float | None = None,
) -> list[tuple]:
    """Build a deterministic mixed operation stream over a stored map.

    Parameters
    ----------
    objects:
        The objects resident in the database (window centers follow
        their MBR distribution).
    inserts:
        Objects to insert during the stream (must not be stored yet).
    deletes:
        Object ids to delete during the stream.
    join_with:
        Optional second database/organization (sharing the disk); a
        single join operation is appended at the end of the stream.
    """
    if n_windows < 0 or n_points < 0:
        raise ConfigurationError("operation counts must be >= 0")
    extra = {"data_space": data_space} if data_space is not None else {}
    windows = (
        window_workload(objects, window_area, n_queries=n_windows, seed=seed, **extra)
        if n_windows
        else []
    )
    points = point_workload(
        window_workload(
            objects, window_area, n_queries=n_points, seed=seed + 1, **extra
        )
        if n_points
        else []
    )

    queues: list[list[tuple]] = [
        [("window", w) for w in windows],
        [("point", x, y) for x, y in points],
        [("insert", obj) for obj in (inserts or [])],
        [("delete", oid) for oid in (deletes or [])],
    ]
    stream = [op for turn in zip_longest(*queues) for op in turn if op is not None]
    if join_with is not None:
        stream.append(("join", join_with, join_technique))
    return stream
