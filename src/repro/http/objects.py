"""Web-page workloads (paper Sec. 3.3 and Table 2).

The paper deliberately uses *simple* pages — static HTML referencing JPG
images of controlled number and size — so PLT reflects transport
efficiency, not browser compute.  A :class:`WebPage` here is exactly
that: a list of objects with sizes; the grid constructors produce the
Table 2 workload matrix, isolating object size from object count (the
isolation prior work lacked, per Table 1 footnote 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Tuple

KB = 1024


@dataclass(frozen=True)
class WebObject:
    """One fetchable object."""

    obj_id: int
    size_bytes: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("object size must be positive")


@dataclass(frozen=True)
class WebPage:
    """A page: a name plus the objects a client must fetch."""

    name: str
    objects: Tuple[WebObject, ...]

    @cached_property
    def total_bytes(self) -> int:
        # Summed once per page object (the instance is frozen, and a
        # sweep asks every page thousands of times: the executor's miss
        # ordering, then every record's metrics).
        return sum(o.size_bytes for o in self.objects)

    @property
    def object_count(self) -> int:
        return len(self.objects)

    def __str__(self) -> str:
        return self.name


def page(n_objects: int, object_size_bytes: int) -> WebPage:
    """A page of ``n_objects`` equal objects (the paper's workload unit)."""
    if n_objects <= 0:
        raise ValueError("need at least one object")
    objects = tuple(
        WebObject(i, object_size_bytes) for i in range(n_objects)
    )
    kb = object_size_bytes / KB
    return WebPage(f"{n_objects}x{kb:g}KB", objects)


def single_object_page(size_bytes: int) -> WebPage:
    return page(1, size_bytes)


#: Table 2 object sizes (bytes).  210 MB is exercised only by Fig. 11.
SIZE_GRID_BYTES: Tuple[int, ...] = tuple(
    s * KB for s in (5, 10, 100, 200, 500, 1000, 10_000)
)

#: Table 2 object counts; paired with a fixed per-object size so count
#: effects are isolated from size effects.
COUNT_GRID: Tuple[int, ...] = (1, 2, 5, 10, 100, 200)
COUNT_GRID_OBJECT_SIZE: int = 10 * KB


def size_grid_pages() -> List[WebPage]:
    """One single-object page per Table 2 size (Fig. 6a/8a-c workloads)."""
    return [single_object_page(size) for size in SIZE_GRID_BYTES]


def count_grid_pages(object_size_bytes: int = COUNT_GRID_OBJECT_SIZE) -> List[WebPage]:
    """Pages with varying object counts at fixed size (Fig. 6b/8d-f)."""
    return [page(n, object_size_bytes) for n in COUNT_GRID]
