"""Array builders that only the tests use."""

from typing import Callable

from llnlab.model import INDEPENDENT, ArraySpec, CellGroup, Dependence, DistSpec, tail_of


def identical_array(
    dist: DistSpec,
    *,
    row_length: Callable[[int], int] = lambda n: n,
    dependence: Dependence = INDEPENDENT,
) -> ArraySpec:
    """All cells share one distribution; the Cesaro sup reduces to its tail."""
    tail = tail_of(dist)
    return ArraySpec(
        row_length=row_length,
        groups_fn=lambda n: (CellGroup(row_length(n), dist),),
        dependence=dependence,
        closed_cesaro_sup=tail.fn,
    )
