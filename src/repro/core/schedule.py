"""Problem partitioning and overlapping for the linear array.

The contraflow schedule of the linear array only uses every other cycle,
so its utilization saturates at 1/2.  Section 2 of the paper lists three
ways to recover the idle half: grouping pairs of PEs, overlapping the
execution of several problems, or *partitioning the transformed problem
into two disjoint sub-problems* and interleaving them (the dotted line in
Fig. 2.b).  This module implements the partitioning rule and the helpers
the overlapped pipeline uses.

A valid partition must cut the transformed problem at a multiple of
``m_bar`` band block rows, because feedback only ever flows between band
block rows belonging to the same original block row; cutting anywhere else
would sever a feedback chain.  Cutting at original block-row boundaries is
equivalent to splitting the original matrix ``A`` (and ``b``) into a top
and a bottom group of block rows, which is how
:class:`~repro.core.plans.OverlappedMatVecPlan` realizes it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ScheduleError
from ..matrices.padding import block_count, validate_array_size

__all__ = ["OverlapPartition", "plan_overlap_partition"]


@dataclass(frozen=True)
class OverlapPartition:
    """A split of the original problem into two independently transformable halves.

    ``first_rows`` / ``second_rows`` are the number of *original* matrix
    rows assigned to each half.  ``first_block_rows`` / ``second_block_rows``
    are the corresponding numbers of original block rows; the transformed
    halves occupy ``first_block_rows * m_bar`` and
    ``second_block_rows * m_bar`` band block rows respectively.
    """

    w: int
    n: int
    m: int
    first_block_rows: int
    second_block_rows: int

    @property
    def n_bar(self) -> int:
        return self.first_block_rows + self.second_block_rows

    @property
    def m_bar(self) -> int:
        return block_count(self.m, self.w)

    @property
    def first_rows(self) -> int:
        return min(self.n, self.first_block_rows * self.w)

    @property
    def second_rows(self) -> int:
        return self.n - self.first_rows

    @property
    def cut_band_block_row(self) -> int:
        """Band block row index at which the transformed problem is cut."""
        return self.first_block_rows * self.m_bar

    def is_balanced(self) -> bool:
        return abs(self.first_block_rows - self.second_block_rows) <= 1


def plan_overlap_partition(n: int, m: int, w: int) -> OverlapPartition:
    """Split a problem with ``n_bar >= 2`` block rows into two halves.

    The halves are made as equal as possible (``ceil(n_bar / 2)`` and
    ``floor(n_bar / 2)`` original block rows); the larger half determines
    the overlapped execution time.  Problems with a single block row cannot
    be partitioned this way and raise
    :class:`~repro.errors.ScheduleError` — overlapping them requires a
    second, independent problem instead.
    """
    w = validate_array_size(w)
    n_bar = block_count(n, w)
    if n_bar < 2:
        raise ScheduleError(
            "overlapping by partitioning needs at least two original block rows; "
            f"n={n} with w={w} has only {n_bar}"
        )
    first = (n_bar + 1) // 2
    second = n_bar - first
    return OverlapPartition(
        w=w,
        n=n,
        m=m,
        first_block_rows=first,
        second_block_rows=second,
    )
