"""Arrays of random variables, their tails, weights, and norming sequences.

The central object is a triangular array {X[n,i], 1 <= i <= k_n} described
row-by-row as groups of identically distributed cells.  Grouping keeps row
scans cheap: a row with half +-1 cells and half +-n cells is two groups, not n
cells.  An array given cell by cell (a spec's explicit cells) is held as
columns instead (``LawColumns``): a law index per cell into one tuple of
distinct laws, so nothing reads it a cell at a time.  Sequence-shaped arrays
(X[n,i] = X_i with k_n = n) are marked as such so that downstream scans can
use prefix sums and path simulation can realize a whole path from the
longest row.

Tail functions always mean the survival function of the absolute value,
x -> P(|X| > x), with the strict inequality: a unit atom at 5 gives tail 0 at
x = 5.  Purely discrete distributions carry their atom list so expectations
can be computed exactly downstream.

A cell's law is a step law or a Pareto law (``DistSpec``).  A step law, the
symmetric two-point law (+-1 is magnitude 1, prob 1), is its (magnitude,
prob) pair.  ``RowTable`` (the sup_n row scans), ``RowSampler`` and the
series check read cells through one law table (``step_columns``): step laws
as (magnitude, prob) columns, each Pareto law through its tail or quantile.
A sequence array of step laws may give only its formula (``cell_steps``);
its cells are then read from the formula, a run of them as columns, one cell
as a ``SymmetricTwoPoint``.

Sampling is deterministic per (seed, n, ...) address via counter-based Philox
streams, so rows can be drawn concurrently without shared state; the keys of
a row's addresses come from one vectorised pass (``stream_keys``).
``RowSampler`` lays a row out once and then maps each draw's uniforms to cell
values by a sign select (step cells) and one quantile call per Pareto law.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from .errors import RowRangeError, SamplingError

if TYPE_CHECKING:
    from numpy.random import Generator

DEFAULT_N_SUP = 10_000


# ---------------------------------------------------------------------------
# Tail functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailFunction:
    """Queryable survival function x -> P(|X| > x).

    ``atoms`` lists (magnitude, probability) pairs when |X| is purely discrete;
    ``knot_fn(lo, hi)`` enumerates discontinuities inside (lo, hi) for step
    tails whose atom list is unbounded (used to split quadrature segments).
    ``step`` is the one piecewise-constant flag (``tail_of`` sets it on atom
    tails): ``fn`` is constant between consecutive ``knots_in``, so an
    integral of it is a sum over those pieces.  Every sup a condition reads is
    one of these, closed or scanned.
    """

    fn: Callable[[float], float]
    atoms: Optional[tuple[tuple[float, float], ...]] = None
    knot_fn: Optional[Callable[[float, float], tuple[float, ...]]] = None
    step: bool = False

    def eval(self, x) -> float:
        return self.fn(x)

    __call__ = eval

    def knots_in(self, lo: float, hi: float) -> tuple[float, ...]:
        if self.atoms is not None:
            return tuple(m for m, _ in self.atoms if lo < m < hi)
        if self.knot_fn is not None:
            return self.knot_fn(lo, hi)
        return ()


# ---------------------------------------------------------------------------
# Distribution specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetricTwoPoint:
    """P(X = +-magnitude) = prob/2 each, rest of the mass at 0; +-1 is (1.0, 1.0)."""

    magnitude: float
    prob: float = 1.0

    def __post_init__(self):
        if not (0 < self.magnitude < math.inf):
            raise ValueError("magnitude must be finite and positive")
        if not (0.0 < self.prob <= 1.0):
            raise ValueError("prob must lie in (0, 1]")


@dataclass(frozen=True)
class ParetoTail:
    """Symmetric heavy-tailed law with P(|X| > x) = min(1, (x/cutoff)^-alpha)."""

    alpha: float
    cutoff: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ValueError("alpha must be positive")
        if not (self.cutoff >= 1.0):
            raise ValueError("cutoff must be >= 1")


DistSpec = Union[SymmetricTwoPoint, ParetoTail]


def tail_of(spec: DistSpec) -> TailFunction:
    """Exact survival function of |X| for the given spec."""
    if isinstance(spec, SymmetricTwoPoint):
        m, q = spec.magnitude, spec.prob

        def two_point_tail(x: float) -> float:
            if x < 0.0:
                return 1.0
            return q if x < m else 0.0

        atoms = ((m, q),) if q == 1.0 else ((0.0, 1.0 - q), (m, q))
        return TailFunction(fn=two_point_tail, atoms=atoms, step=True)
    if isinstance(spec, ParetoTail):
        a, c = spec.alpha, spec.cutoff

        def pareto_tail(x: float) -> float:
            if x <= c:
                return 1.0
            return (x / c) ** (-a)

        return TailFunction(fn=pareto_tail)
    raise TypeError(f"not a DistSpec: {spec!r}")


def quantile_of(spec: DistSpec) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized inverse-transform sampler u in [0,1) -> X."""
    if isinstance(spec, SymmetricTwoPoint):
        m, q = spec.magnitude, spec.prob

        def two_point_q(u):
            u = np.asarray(u)
            return np.where(u < q / 2.0, -m, np.where(u >= 1.0 - q / 2.0, m, 0.0))

        return two_point_q
    if isinstance(spec, ParetoTail):
        a, c = spec.alpha, spec.cutoff

        def pareto_q(u):
            u = np.asarray(u)
            w = 2.0 * np.abs(u - 0.5)
            mag = c * np.power(np.maximum(1.0 - w, 1e-300), -1.0 / a)
            return np.where(u < 0.5, -mag, mag)

        return pareto_q
    raise TypeError(f"not a DistSpec: {spec!r}")


# ---------------------------------------------------------------------------
# Row dependence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Independent:
    pass


@dataclass(frozen=True)
class GaussianNA:
    """Negatively associated rows via a moving-average Gaussian construction.

    Cells are monotone transforms of Z_i = (W_i + theta * W_{i+1}) / sqrt(1 +
    theta^2) with theta < 0 chosen so neighbours have the declared nonpositive
    correlation (|rho| <= 1/2); non-neighbour covariances are 0.  A Gaussian
    vector with nonpositive covariances is negatively associated, and
    coordinatewise nondecreasing transforms preserve that.
    """

    correlation: float

    def __post_init__(self):
        if not (-0.5 <= self.correlation <= 0.0):
            raise ValueError("correlation must lie in [-1/2, 0]")

    def theta(self) -> float:
        r = self.correlation
        if r == 0.0:
            return 0.0
        return (1.0 - math.sqrt(1.0 - 4.0 * r * r)) / (2.0 * r)


Dependence = Union[Independent, GaussianNA]

INDEPENDENT = Independent()


# ---------------------------------------------------------------------------
# Arrays
# ---------------------------------------------------------------------------


def _row_length(rows, n: int) -> int:
    """k_n of an array or weight scheme, after checking 1 <= n <= its ``n_max``."""
    if n < 1:
        raise RowRangeError(f"row index must be >= 1, got {n}")
    if rows.n_max is not None and n > rows.n_max:
        raise RowRangeError(f"row {n} beyond declared n_max={rows.n_max}")
    return rows.row_length(n)


@dataclass(frozen=True)
class CellGroup:
    count: int
    dist: DistSpec


@dataclass(frozen=True, eq=False)
class LawColumns:
    """The cells of rows 1..n_max held as columns, as ``specio`` loads explicit cells.

    ``laws`` lists each distinct law once.  ``law[j]`` indexes in ``laws``
    the law of cell j, the cells counted in (n, i) order, and ``offsets[n -
    1]`` is the j of cell (n, 1), so row n is ``law[offsets[n - 1]:offsets[n]]``
    (``offsets`` has n_max + 1 entries).  Compared and hashed by identity,
    as its arrays are.
    """

    laws: tuple[DistSpec, ...]
    law: np.ndarray
    offsets: np.ndarray

    def rows(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The law index of each cell of rows lo..hi, and its (n, i, 1) layout entry."""
        off = self.offsets[lo - 1:max(hi, lo - 1) + 1]
        k = np.diff(off)
        j = np.arange(off[0], off[-1])
        layout = np.column_stack((np.repeat(np.arange(lo, lo + len(k)), k),
                                  j - np.repeat(off[:-1], k) + 1, np.ones_like(j)))
        return self.law[j], layout

    def cells(self, lo: int, hi: int) -> np.ndarray:
        """The law index of X_lo..X_hi of a sequence array: cells lo..hi of its last row."""
        last = int(self.offsets[-2])
        return self.law[last + lo - 1:last + hi]


@dataclass(frozen=True)
class ArraySpec:
    """Triangular array of cells given per-row as groups of identical cells.

    ``cell_steps(lo, hi)``, set on a sequence array whose every cell is a step
    law, is the array's formula: the (magnitude, prob) of cells lo..hi as two
    float64 arrays.  ``sequence_cell(i)`` is then the ``SymmetricTwoPoint``
    of the one-cell run i..i (``sequence_array`` builds it), and
    ``step_columns`` reads a run of cells from the formula without building
    a cell object per cell.

    An array given cell by cell is its ``law_columns`` (a sequence one also
    has a ``sequence_cell``, read from the columns): ``step_columns`` reads
    its rows, or the cells of a sequence, from the columns with no cell
    object, and ``row_groups`` gives one group per cell.
    """

    row_length: Callable[[int], int]
    groups_fn: Optional[Callable[[int], tuple[CellGroup, ...]]] = None
    sequence_cell: Optional[Callable[[int], DistSpec]] = None
    dependence: Dependence = INDEPENDENT
    n_max: Optional[int] = None
    closed_cesaro_sup: Optional[Callable[[float], float]] = None
    cell_steps: Optional[Callable[[int, int], tuple[np.ndarray, np.ndarray]]] = None
    law_columns: Optional[LawColumns] = None

    def __post_init__(self):
        if self.groups_fn is None and self.sequence_cell is None and self.law_columns is None:
            raise ValueError("array needs groups_fn, sequence_cell or law_columns")

    @property
    def is_sequence(self) -> bool:
        return self.sequence_cell is not None

    def k(self, n: int) -> int:
        return _row_length(self, n)

    def row_groups(self, n: int) -> tuple[CellGroup, ...]:
        k = self.k(n)
        if self.groups_fn is not None:
            groups = self.groups_fn(n)
        elif self.law_columns is not None:
            laws, law, off = self.law_columns.laws, self.law_columns.law, self.law_columns.offsets
            groups = tuple(CellGroup(1, laws[j]) for j in law[off[n - 1]:off[n]].tolist())
        else:
            groups = tuple(CellGroup(1, self.sequence_cell(i)) for i in range(1, k + 1))
        if sum(g.count for g in groups) != k:
            raise ValueError(f"row {n}: group counts do not sum to k_n={k}")
        return groups

    def cell(self, n: int, i: int) -> DistSpec:
        k = self.k(n)
        if not (1 <= i <= k):
            raise RowRangeError(f"cell index {i} outside 1..{k} in row {n}")
        if self.sequence_cell is not None:
            return self.sequence_cell(i)
        pos = 0
        for g in self.row_groups(n):
            pos += g.count
            if i <= pos:
                return g.dist
        raise RowRangeError(f"cell ({n},{i}) not covered by groups")


def sequence_array(
    cell: Optional[Callable[[int], DistSpec]] = None,
    *,
    closed_cesaro_sup: Optional[Callable[[float], float]] = None,
    cell_steps: Optional[Callable[[int, int], tuple[np.ndarray, np.ndarray]]] = None,
) -> ArraySpec:
    """Array with X[n,i] = X_i and k_n = n, given by ``cell(i)`` or, for a
    sequence of step laws, by its formula ``cell_steps`` alone."""
    if (cell is None) == (cell_steps is None):
        raise ValueError("sequence_array needs one of cell and cell_steps")
    if cell is None:
        def cell(i: int) -> SymmetricTwoPoint:
            (m,), (q,) = (col.tolist() for col in cell_steps(i, i))
            return SymmetricTwoPoint(m, q)

    return ArraySpec(
        row_length=lambda n: n,
        sequence_cell=cell,
        closed_cesaro_sup=closed_cesaro_sup,
        cell_steps=cell_steps,
    )


# ---------------------------------------------------------------------------
# Weight schemes
# ---------------------------------------------------------------------------


class WeightColumn:
    """Explicit weights a(n, i) of rows 1..n_max held as one column, a
    ``range_sum_fn`` that sums a slice of it with ``math.fsum``.

    a(n, i) is ``values[offsets[n - 1] + i - 1]``, the cells counted in (n, i)
    order as in ``LawColumns``; ``specio`` builds one only beside the law
    columns of the same cells.  Compared and hashed by identity.
    """

    def __init__(self, values: np.ndarray, offsets: np.ndarray):
        self.values, self.offsets = values, offsets

    def __call__(self, n: int, lo: int, hi: int) -> float:
        start = int(self.offsets[n - 1]) - 1
        return math.fsum(self.values[start + lo:start + hi + 1].tolist())


@dataclass(frozen=True)
class WeightScheme:
    """Nonnegative weights a(n, i) tied to a row-length map, given by their sums.

    ``range_sum_fn(n, lo, hi)`` is the sum of a(n, i) over lo <= i <= hi, for
    1 <= lo <= hi <= k_n; uniform weights (a = 1/k_n) have none.  A spec's
    table is a ``WeightColumn``, which ``RowTable`` reads as a column.
    ``closed_weighted_sup`` is an exact sup_n sum_i a(n,i) P(|X[n,i]| > x) for
    the array this scheme was built for, and ``closed_c0(top)`` the exact
    (sup, first attaining row) of the row sums over rows 1..top (fixtures
    attach both).
    """

    kind: str  # uniform | explicit
    row_length: Callable[[int], int]
    range_sum_fn: Optional[Callable[[int, int, int], float]] = None
    closed_weighted_sup: Optional[Callable[[float], float]] = None
    closed_c0: Optional[Callable[[int], tuple[float, int]]] = None
    n_max: Optional[int] = None

    def range_sum(self, n: int, lo: int, hi: int) -> float:
        k = _row_length(self, n)
        lo, hi = max(lo, 1), min(hi, k)
        if hi < lo:
            return 0.0
        if self.kind == "uniform":
            return (hi - lo + 1) / k
        return self.range_sum_fn(n, lo, hi)  # type: ignore[misc]

    def c0(self, n_sup: int = DEFAULT_N_SUP) -> tuple[float, int]:
        """sup of row sums over the scan range, with the first attaining row.

        A nonempty scan of a scheme with ``closed_c0`` reads no row.  A uniform
        row sums to k/k = 1.0 when it has k >= 1 cells and to 0.0 when it has
        none, so only the rows up to the first nonempty one are read.  Any
        other row is summed as ``range_sum(n, 1, k)`` sums it, the row bound
        checked once for the whole scan: ``range_sum_fn(n, 1, k)``, and 0.0 for
        a row with no cells.
        """
        rows = range(1, scan_top(n_sup, self.n_max) + 1)  # inside 1..n_max
        if rows and self.closed_c0 is not None:
            best, best_n = self.closed_c0(len(rows))
        elif self.kind == "uniform":
            best_n = next((n for n in rows if self.row_length(n) >= 1), 0)
            best = (1.0 if best_n else 0.0) if rows else -math.inf
        else:
            k_of, closed = self.row_length, self.range_sum_fn

            def row_sum(n: int) -> float:
                k = k_of(n)
                return closed(n, 1, k) if k >= 1 else 0.0

            # sized before the first row is read: a scan too large to hold fails at once
            sums = np.fromiter(map(row_sum, rows), dtype=float, count=len(rows))
            best_n = int(np.argmax(sums)) + 1 if len(sums) else 0
            best = float(sums[best_n - 1]) if len(sums) else -math.inf
        if not (best > 0.0 and math.isfinite(best)):
            raise ValueError(f"row-sum sup {best} violates C0 in (0, inf)")
        return best, best_n


def uniform_weights(row_length: Callable[[int], int] = lambda n: n) -> WeightScheme:
    return WeightScheme(kind="uniform", row_length=row_length)


def explicit_weights(
    range_sum_fn: Callable[[int, int, int], float],
    row_length: Callable[[int], int],
    *,
    closed_weighted_sup: Optional[Callable[[float], float]] = None,
    closed_c0: Optional[Callable[[int], tuple[float, int]]] = None,
    n_max: Optional[int] = None,
) -> WeightScheme:
    return WeightScheme(
        kind="explicit",
        row_length=row_length,
        range_sum_fn=range_sum_fn,
        closed_weighted_sup=closed_weighted_sup,
        closed_c0=closed_c0,
        n_max=n_max,
    )


# ---------------------------------------------------------------------------
# Row tables: the one layout behind every sup_n scan
# ---------------------------------------------------------------------------


def scan_top(n_sup: int, *bounds: Optional[int]) -> int:
    """Last row of a sup_n scan: ``n_sup`` capped by every declared row bound."""
    return min([n_sup, *(b for b in bounds if b is not None)])


def step_law(dist: DistSpec) -> Optional[tuple[float, float]]:
    """(magnitude, prob) of a step law (symmetric two-point); None for others."""
    if isinstance(dist, SymmetricTwoPoint):
        return dist.magnitude, dist.prob
    return None


def _row_laws(arr: ArraySpec, lo: int, hi: int):
    """(law index per entry, laws, layout) of rows lo..hi: the array's columns,
    or its cell groups numbered by one pass over them, each distinct law once."""
    if arr.law_columns is not None:
        law, layout = arr.law_columns.rows(lo, hi)
        return law, arr.law_columns.laws, layout
    ids: dict[DistSpec, int] = {}
    law, layout = [], []
    for n in range(lo, hi + 1):
        pos = 0
        for g in arr.row_groups(n):
            law.append(ids.setdefault(g.dist, len(ids)))
            layout.append((n, pos + 1, g.count))
            pos += g.count
    return (np.array(law, dtype=np.intp), tuple(ids),
            np.array(layout, dtype=np.int64).reshape(-1, 3))


def step_columns(arr: ArraySpec, lo: int, hi: int, *, by_row: bool = False):
    """The one law table: the laws of a run of entries, read once.

    The entries are the cells X_lo..X_hi of a sequence array or, ``by_row``,
    the cell groups of rows lo..hi.  Returns ``(law, others, mag, prob,
    layout)``.  A step law is its (magnitude, prob) pair: ``mag``/``prob``
    hold each distinct pair once, sorted, and are the only record of the
    step laws.  ``others`` lists every other distinct law once, by its first
    entry.  ``law[j]`` numbers the law of entry j, step laws first: below
    ``len(mag)`` it indexes the columns, from there ``others`` (less
    ``len(mag)``).  ``layout`` is None for cells, else one (row, first cell,
    count) per entry.

    Entries arrive as one law index each into a tuple of distinct laws
    (:func:`_row_laws` for rows; the ``law_columns`` of a sequence array for
    cells), so ``step_law`` runs once per law.  A run of cells of an array
    with ``cell_steps`` takes its pairs from that formula and builds no cell
    object.  A run of cells sizes its law index before reading a cell, so a
    run too long to hold fails at once.
    """
    layout = None
    if by_row:
        idx, laws, layout = _row_laws(arr, lo, hi)
    elif arr.law_columns is not None:
        idx, laws = arr.law_columns.cells(lo, hi), arr.law_columns.laws
    elif arr.cell_steps is None:
        ids: dict[DistSpec, int] = {}
        idx = np.fromiter((ids.setdefault(d, len(ids))
                           for d in map(arr.sequence_cell, range(lo, hi + 1))),
                          dtype=np.intp, count=max(hi - lo + 1, 0))
        laws = tuple(ids)
    else:  # every cell is a step law, read from the formula
        idx = None
    law = np.empty(hi - lo + 1 if idx is None else len(idx), dtype=np.intp)
    if idx is None:
        pairs = np.column_stack(arr.cell_steps(lo, hi))
    else:
        pairs = np.array([step_law(d) or (math.nan, math.nan) for d in laws],
                         dtype=float).reshape(-1, 2)[idx]
    is_step = pairs[:, 0] == pairs[:, 0]
    step = np.flatnonzero(is_step)
    step = step[np.lexsort((pairs[step, 1], pairs[step, 0]))]
    mag, prob = pairs[step, 0], pairs[step, 1]
    new = np.ones(len(step), dtype=bool)
    new[1:] = (mag[1:] != mag[:-1]) | (prob[1:] != prob[:-1])
    law[step] = np.cumsum(new) - 1
    n_steps = int(np.count_nonzero(new))
    other, others = np.flatnonzero(~is_step), ()  # none on a formula's run
    if len(other):
        found, first, back = np.unique(idx[other], return_index=True, return_inverse=True)
        order = np.argsort(first)  # the other laws by their first entry
        rank = np.empty(len(order), dtype=np.intp)
        rank[order] = np.arange(len(order))
        law[other] = n_steps + rank[back]
        others = tuple(laws[j] for j in found[order].tolist())
    return law, others, mag[new], prob[new], layout


def less_than(x, mags: np.ndarray) -> np.ndarray:
    """Exact elementwise ``x < mags`` for any real x, ints past 2**53 included."""
    try:
        xf = float(x)
    except OverflowError:
        xf = math.inf if x > 0 else -math.inf
    lt = xf < mags
    if xf != x:
        # x was rounded to xf: a magnitude equal to xf needs the exact compare
        lt |= (mags == xf) & (x < xf)
    return lt


@functools.lru_cache(maxsize=2)
def row_table(arr: ArraySpec, weights: WeightScheme, n_sup: int) -> RowTable:
    """The ``RowTable`` of (arr, weights, n_sup), memoised.  A command checks
    one array under at most two weight schemes (uniform and its own), and
    verify-fixtures one fixture at a time, so the two last built are all a
    command reuses; they are never changed after they are laid out."""
    return RowTable(arr, weights, n_sup)


class RowTable:
    """Cell groups of rows 1..top laid out once, so a sup_n scan is a few array ops.

    A weight scheme gives sum_i a(n,i) f(X[n,i]), each group weighted by its
    ``range_sum``; uniform weights give Cesaro averages (1/k_n) sum_i f(X[n,i]),
    each group weighted by its count and the row sum divided by k_n.  A
    sequence array under uniform weights is one prefix (cell i once, reduced
    by a cumulative sum over i); every other array holds one entry per (row,
    cell group), reduced per row by ``np.bincount``.  Both reductions add in
    row order, exactly as the scalar row loops do, so row values are bitwise
    equal to theirs.

    The entries come from ``step_columns``: each distinct step law is a row
    of the (magnitude, prob) columns ``mag`` and ``prob``, compared with x in
    one vector operation; each other law is listed once in ``others``, read
    through its scalar tail.  Any other per-law value reaches the rows through
    ``split_row_values``: the caller works out one value per step law from
    ``mag`` and ``prob`` (for example g(m) * q), and a scalar function runs
    only on ``others``.

    Each call lays a new table out; the scans read theirs through
    :func:`row_table`, which keeps the two last built.
    """

    def __init__(self, arr: ArraySpec, weights: WeightScheme, n_sup: int = DEFAULT_N_SUP):
        self.top = top = max(scan_top(n_sup, arr.n_max, weights.n_max), 0)
        uniform = weights.kind == "uniform"
        self._prefix = arr.is_sequence and uniform
        self._law, self.others, self.mag, self.prob, layout = step_columns(
            arr, 1, top, by_row=not self._prefix)
        self._tails = tuple(tail_of(d).fn for d in self.others)
        if self._prefix:
            self._div = np.arange(1, top + 1, dtype=float)
            return
        self._entry_row = layout[:, 0] - 1
        counts = layout[:, 2]
        if uniform:
            self._factor = counts.astype(float)
            self._div = np.bincount(self._entry_row, weights=counts, minlength=top)
        else:
            col = weights.range_sum_fn
            if isinstance(col, WeightColumn):
                # a spec's weight column, on its law columns' one entry per cell: the
                # math.fsum of one finite value is that value, but -0.0 comes out 0.0
                self._factor = col.values[col.offsets[self._entry_row] + layout[:, 1] - 1] + 0.0
            else:
                self._factor = np.array([weights.range_sum(n, i, i + c - 1)
                                         for n, i, c in layout.tolist()], dtype=float)
            self._div = None

    def _law_tails(self, x) -> np.ndarray:
        """P(|X| > x) for every law, step laws first."""
        if x < 0.0:
            step = np.ones(len(self.mag))
        else:
            step = np.where(less_than(x, self.mag), self.prob, 0.0)
        other = np.fromiter((fn(x) for fn in self._tails), dtype=float, count=len(self._tails))
        return np.concatenate((step, other))

    def _rows(self, law_values: np.ndarray) -> np.ndarray:
        """Row values for n = 1..top, given one value per law, step laws first."""
        v = law_values[self._law]
        if self._prefix:
            out = np.cumsum(v)
        else:
            out = np.bincount(self._entry_row, weights=self._factor * v, minlength=self.top)
        return out if self._div is None else out / self._div

    def split_row_values(
        self, step_values: np.ndarray, other_value: Callable[[DistSpec], float]
    ) -> np.ndarray:
        """Row values from ``step_values`` (one per step law, aligned with
        ``mag``) and ``other_value``, called once per other law."""
        vals = np.fromiter(map(other_value, self.others), dtype=float, count=len(self.others))
        return self._rows(np.concatenate((step_values, vals)))

    def sup(self, x) -> float:
        """sup_n of the row tail sums at x; 0.0 over an empty scan."""
        return float(np.max(self._rows(self._law_tails(x)), initial=0.0))

    def knots_in(self, lo: float, hi: float) -> tuple[float, ...]:
        """The sorted distinct step magnitudes in (lo, hi).  With no ``others``
        every row value, and so ``sup``, is constant between them."""
        mag = self.mag  # sorted, a magnitude repeated once per prob
        a, b = np.searchsorted(mag, lo, side="right"), np.searchsorted(mag, hi, side="left")
        run = mag[a:b]
        return tuple(run[np.diff(run, prepend=-math.inf) > 0].tolist())


# ---------------------------------------------------------------------------
# Normalizing sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizingSequence:
    """Positive nondecreasing b_n with the convention b_0 = 0.

    ``fn`` may return exact ints for int input (used by closed-form checks far
    beyond float range).  ``floats(lo, hi)`` gives float(b_n) for n = lo..hi
    as one array, bitwise equal to those scalar values.
    """

    fn: Callable[[int], float]
    floats: Callable[[int, int], np.ndarray]

    def eval(self, n):
        if n == 0:
            return 0
        if n < 0:
            raise ValueError("normalizing sequence index must be >= 0")
        return self.fn(n)

    __call__ = eval


EXACT_SQUARES = 1 << 26  # n * n is exact in float below this: n^2 < 2^52
# an exact power n**e is worked out only up to this many bits (x2m-example's kG
# grid reaches 2^1300, at 1/p = 1024 a power of 1.3M bits); past it (1/p = 2^16
# from n = 2^33, 1/p = 1e300 from n = 2) it raises OverflowError, not running for hours
EXACT_POWER_BITS = 1 << 21


def float_powers(lo: int, hi: int, inv: float) -> np.ndarray:
    """float(n) ** inv for n = lo..hi, bitwise equal to Python's scalar ``**``.

    Array arithmetic where it rounds as the scalar does: inv = 1.0 is n
    itself and inv = 2.0 is n * n, both exact for n below ``EXACT_SQUARES``
    (p = 1 and p = 1/2).  Any other exponent is the scalar ``**`` one n at a
    time: numpy's vector power differs from it in the last bit for some n,
    and gives inf where the scalar raises ``OverflowError``.
    """
    if inv in (1.0, 2.0) and hi < EXACT_SQUARES:
        n = np.arange(lo, hi + 1, dtype=float)
        return n if inv == 1.0 else n * n
    return np.fromiter(map(float(inv).__rpow__, map(float, range(lo, hi + 1))),
                       dtype=float, count=max(hi - lo + 1, 0))


def power_norming(p: float, conj=None) -> NormalizingSequence:
    """b_n = n^(1/p) * Lt(n^(1/p)), Lt the conjugate ``conj`` (None for 1).

    With a trivial conjugate and integral 1/p = e the map is integer-exact,
    n**e; the float values of a run lo..hi are one int64 power while hi^e <
    2^53, where the ints and their floats agree exactly.  A power of more than
    ``EXACT_POWER_BITS`` bits raises ``OverflowError``.  Otherwise the bases are
    :func:`float_powers`, each times Lt of itself under a nontrivial
    conjugate.
    """
    inv = 1.0 / p
    trivial = conj is None or conj.family == "constant"
    if trivial and float(inv).is_integer():
        e = int(inv)

        def int_fn(n):
            if e * (int(n).bit_length() - 1) > EXACT_POWER_BITS:  # n**e >= 2^that
                raise OverflowError(f"b_{n} = {n}^(1/p) has over {EXACT_POWER_BITS} bits")
            return n**e

        def int_floats(lo, hi):
            if int_fn(hi) < 2**53:
                return (np.arange(lo, hi + 1, dtype=np.int64) ** e).astype(float)
            return np.fromiter(map(float, map(int_fn, range(lo, hi + 1))), dtype=float,
                               count=hi - lo + 1)

        return NormalizingSequence(fn=int_fn, floats=int_floats)

    def fn(n):
        base = float(n) ** inv
        return base if trivial else base * conj.eval(base)

    def floats(lo, hi):
        bases = float_powers(lo, hi, inv)
        if trivial:
            return bases
        return np.fromiter((b * conj.eval(b) for b in bases.tolist()), dtype=float,
                           count=len(bases))

    return NormalizingSequence(fn=fn, floats=floats)


def explicit_norming(values: Sequence[float]) -> NormalizingSequence:
    vals = [float(v) for v in values]

    def fn(n):
        if n > len(vals):
            raise RowRangeError(f"b_{n} beyond declared table of {len(vals)}")
        return vals[n - 1]

    def floats(lo, hi):
        if hi > len(vals):
            raise RowRangeError(f"b_{len(vals) + 1} beyond declared table of {len(vals)}")
        return np.array(vals[lo - 1:hi], dtype=float)

    return NormalizingSequence(fn=fn, floats=floats)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


# numpy's SeedSequence hash: an address (seed, key...) keys the Philox stream
# that Generator(Philox(SeedSequence(entropy=seed, spawn_key=key))) draws from.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # state output
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(x: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int (0 is one word)."""
    x = operator.index(x)
    if x < 0:
        raise ValueError(f"expected non-negative integer, got {x}")
    words = [x & _MASK32]
    while x > _MASK32:
        x >>= 32
        words.append(x & _MASK32)
    return words


# Each step takes Python ints or uint32 arrays, so a column of addresses runs
# the same arithmetic as one address.
def _hash(value, const: int, mult: int):
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def _mix(x, y):
    r = (_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32) & _MASK32
    return r ^ r >> 16


def stream_keys(seed: int, head: Sequence[int], last) -> np.ndarray:
    """Philox keys of the addresses (seed, *head, r) for each r in ``last``.

    Equals ``SeedSequence(entropy=seed, spawn_key=(*head, r))
    .generate_state(2, np.uint64)``: the pool absorbs the seed (padded to four
    words) and ``head`` once as ints, and the last key part as one column.
    ``last`` is an int, or an array of ints below 2^32; the result has shape
    ``np.shape(last) + (2,)``.
    """
    if np.ndim(last) == 0:
        tail = _words(last)
    else:
        col = np.asarray(last)
        if col.size and not (col.min() >= 0 and col.max() <= _MASK32):
            raise ValueError("array key parts must lie in [0, 2^32)")
        tail = [col.astype(np.uint32)]
    run = _words(seed)
    entropy = run + [0] * (4 - len(run)) + [w for h in head for w in _words(h)] + tail
    const, pool = _INIT_A, []
    for word in entropy[:4]:
        value, const = _hash(word, const, _MULT_A)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[4:]:
        for dst in range(4):
            value, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    const, state = _INIT_B, []
    for word in pool:
        value, const = _hash(word, const, _MULT_B)
        state.append(np.asarray(value, dtype="<u4"))
    return np.stack(state, axis=-1).view("<u8").astype(np.uint64)


def philox_generator(key=0) -> Generator:
    """``Generator(Philox(key=key))``, which ``RowSampler.draw_rows`` re-keys.

    The package's one run-time import of ``numpy.random``: it loads when a
    sampler is built, so a run that draws nothing (``check``,
    ``verify-fixtures``) never loads it.
    """
    from numpy.random import Generator, Philox

    return Generator(Philox(key=key))


def rng_for(seed: int, *key: int) -> Generator:
    """Counter-based generator for one (seed, key...) address, order-independent.

    The one-address case of ``stream_keys``: it draws exactly as
    ``Generator(Philox(SeedSequence(entropy=seed, spawn_key=key)))``, though
    its ``bit_generator.seed_seq`` is not that sequence (do not ``spawn`` it).
    """
    if not key:
        raise ValueError("an address needs at least one key part after the seed")
    return philox_generator(stream_keys(seed, key[:-1], key[-1]))


# cephes ndtr.c's tables (Moshier 1989), highest power first: erfc(x) =
# exp(-x^2) P(x)/Q(x) for 1 <= x < 8, R(x)/S(x) in place of P/Q from 8 up, and
# erf(x) = x T(x^2)/U(x^2) for |x| < 1; Q, S and U have a leading 1 left out
_NDTR_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_NDTR_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_NDTR_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_NDTR_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_NDTR_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
           7.00332514112805075473E3, 5.55923013010394962768E4)
_NDTR_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
           2.26290000613890934246E4, 4.92673942608635921086E4)
_MAXLOG = 7.09782712893383996732E2  # cephes' log(DBL_MAX): erfc is 0 once x^2 exceeds it
_SQRT1_2 = 7.07106781186547524401E-1


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """cephes polevl: coef[0] x^N + ... + coef[N] by Horner, a step at a time."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """cephes p1evl: ``_polevl`` with a leading coefficient 1 left out of ``coef``."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def ndtr(a: np.ndarray) -> np.ndarray:
    """The standard normal cdf of each entry of ``a``, as cephes ``ndtr`` computes it.

    With x = a/sqrt(2) and z = x^2: 0.5 + 0.5 erf(x) where z < 1, and
    otherwise 0.5 erfc(|x|), or 1 minus it for x > 0.  Each polynomial keeps
    cephes' order of operations and exp(-z) is ``math.exp``, the libm exp
    cephes calls, so the values equal ``scipy.special.ndtr``'s bit for bit
    (``tests/test_simulate.py::test_ndtr_is_scipy_ndtr_bitwise``) on any CPU:
    numpy picks its own ``exp`` kernel by CPU.  NaN gives NaN.
    """
    x = np.ravel(a) * _SQRT1_2
    z = x * x
    far = np.flatnonzero(z >= 1.0)  # NaN stays with erf, and comes out NaN
    xf, zf = x[far], z[far]
    np.minimum(z, 1.0, out=z)  # erf of the far entries is overwritten: keep it finite
    y = _polevl(z, _NDTR_T)
    y *= x
    y /= _p1evl(z, _NDTR_U)
    y *= 0.5
    y += 0.5
    erfc = np.zeros(len(far))
    live = np.flatnonzero(zf <= _MAXLOG)
    t = np.abs(xf[live])
    e = np.fromiter(map(math.exp, (-zf[live]).tolist()), dtype=float, count=len(live))
    num, den = _polevl(t, _NDTR_P), _p1evl(t, _NDTR_Q)
    big = np.flatnonzero(t >= 8.0)  # |a| >= 8 sqrt(2): no normal draw in 10^14 gets here
    num[big], den[big] = _polevl(t[big], _NDTR_R), _p1evl(t[big], _NDTR_S)
    e *= num
    e /= den
    erfc[live] = e
    erfc *= 0.5
    y[far] = np.where(xf > 0, 1.0 - erfc, erfc)
    return y.reshape(np.shape(a))


class RowSampler:
    """Draws of one row, laid out once per (array, n) from its ``step_columns``.

    Step cells keep per-cell thresholds ``lo = q/2``, ``hi = 1 - q/2`` and
    magnitude m, so a uniform u maps to ``m * ((u >= hi) - (u < lo))``: the
    +-m/0 values of ``quantile_of``, bit for bit.  Every Pareto law keeps the
    indexes of its cells, and its quantile runs once per draw on them, and a
    row with no step law skips the sign select.  Uniforms follow the array's
    dependence: a ``GaussianNA`` row maps its mixed normals through
    :func:`ndtr`, the cephes port, so drawing loads no scipy module.
    """

    def __init__(self, arr: ArraySpec, n: int):
        if not isinstance(arr.dependence, (Independent, GaussianNA)):
            raise SamplingError(f"unsupported dependence {arr.dependence!r}")
        self.k = k = arr.k(n)
        self._arr = arr
        if arr.is_sequence:
            law, others, mag, prob, _ = step_columns(arr, 1, k)
        else:
            law, others, mag, prob, layout = step_columns(arr, n, n, by_row=True)
            law = np.repeat(law, layout[:, 2])  # one entry per cell
        n_steps = len(mag)
        self._mag = None  # a row with no step law keeps no per-cell step arrays
        if n_steps:
            pad = np.zeros(len(others))
            self._mag = np.concatenate((mag, pad))[law]
            half = np.concatenate((prob / 2.0, pad))[law]
            self._lo, self._hi = half, 1.0 - half
        # the cells of each other law, in cell order
        other = np.flatnonzero(law >= n_steps)
        other = other[np.argsort(law[other], kind="stable")]
        cuts = np.searchsorted(law[other], np.arange(n_steps + 1, n_steps + len(others)))
        self._others = tuple(zip(map(quantile_of, others), np.split(other, cuts)))

    def buffers(self, reps: int = 1, store: Optional[list] = None) -> tuple:
        """Caller-owned (uniforms, draws, normals or None) for ``reps`` rows.

        With ``store``, a list of flat arrays the caller keeps (start with
        ``[]``), they are views of its arrays, grown in place when short, so
        one store serves the rows of every length.
        """
        widths = (self.k, self.k, None if isinstance(self._arr.dependence, Independent)
                  else self.k + 1)
        store = [] if store is None else store
        store.extend(np.empty(0) for _ in range(len(widths) - len(store)))
        for i, w in enumerate(widths):
            if w is not None and store[i].size < reps * w:
                store[i] = np.empty(reps * w)
        return tuple(None if w is None else a[:reps * w].reshape(reps, w)
                     for a, w in zip(store, widths))

    def draw_rows(self, keys: np.ndarray, gen: Generator, bufs: tuple) -> np.ndarray:
        """Row i as ``Generator(Philox(key=keys[i]))`` draws it, as a view of the draws.

        ``keys`` is a block of Philox keys, shape (m, 2) with m at most the
        buffers' rows.  ``gen``, a Philox ``Generator`` the caller keeps, is
        re-keyed at counter 0 for each row with its buffered words dropped,
        so earlier draws from it leave no trace.
        """
        raw = bufs[0] if bufs[2] is None else bufs[2]
        keys = np.asarray(keys, dtype=np.uint64).tolist()
        if len(keys) > len(raw):
            raise ValueError(f"{len(keys)} keys for {len(raw)} buffer rows")
        fill = gen.random if bufs[2] is None else gen.standard_normal
        bit = gen.bit_generator
        state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
                 "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for i, key in enumerate(keys):
            state["state"]["key"] = key
            bit.state = state
            fill(out=raw[i])
        return self._values(len(keys), bufs)

    def draw(self, rng: Generator, bufs: Optional[tuple] = None) -> np.ndarray:
        """One realization of the row from ``rng``, into ``bufs`` when given."""
        bufs = self.buffers() if bufs is None else bufs
        if bufs[2] is None:
            rng.random(out=bufs[0][0])
        else:
            rng.standard_normal(out=bufs[2][0])
        return self._values(1, bufs)[0]

    def _values(self, m: int, bufs: tuple) -> np.ndarray:
        """The first m rows of draws, from the uniforms (or, for GaussianNA
        rows, the k + 1 normals, whose neighbours are mixed and mapped
        through the normal cdf) the caller filled."""
        u, x = bufs[0][:m], bufs[1][:m]
        if bufs[2] is not None:
            w, th = bufs[2][:m], self._arr.dependence.theta()
            np.multiply(w[:, 1:], th, out=u)
            u += w[:, :-1]
            u /= math.sqrt(1.0 + th * th)
            u[...] = ndtr(u)
        other = [q(u[:, idx].ravel()) for q, idx in self._others]  # before u is reused
        if self._mag is not None:
            np.greater_equal(u, self._hi, out=x)
            x -= np.less(u, self._lo, out=u)
            x *= self._mag
        for (_, idx), vals in zip(self._others, other):
            x[:, idx] = np.reshape(vals, (m, len(idx)))
        return x


def sample_row_with(arr: ArraySpec, n: int, rng: Generator) -> np.ndarray:
    """Draw one realization of row n using the supplied generator."""
    return RowSampler(arr, n).draw(rng)


def sample_row(arr: ArraySpec, n: int, seed: int) -> np.ndarray:
    """Deterministic row draw: same (seed, n) always gives the same vector."""
    return sample_row_with(arr, n, rng_for(seed, n))
