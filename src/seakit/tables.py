"""Finite effect algebras given by partial addition tables.

Elements are integers 0..n-1 with 0 the neutral element; the table stores
i (+) j, with -1 marking an undefined sum.  Everything here is exact
integer arithmetic, so checks use equality and residuals are always zero.

An algebra's relations (order, pairwise infima, orthosupplement counts,
principal and sharp flags, Mackey compatibility) are computed once, on
first use, as numpy arrays over the table, and every query reads them.
The axiom checks are still exhaustive: they evaluate every pair or triple
of elements at once and report the first failure in lexicographic order.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .report import CheckResult, SuiteReport

UNDEFINED = -1
MAX_TABLE_SIZE = 64


class TableFormatError(ValueError):
    """Table is not a well-formed partial operation."""


class AxiomViolationError(ValueError):
    """Query relies on an axiom the table fails to satisfy."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _greatest(lows: np.ndarray, order: np.ndarray) -> np.ndarray:
    """For masks ``lows[..., k]`` of candidate sets, the one member m that
    every member k is below (``order[k, m]``), or -1 when there is not
    exactly one such member."""
    outside = lows.astype(np.int64) @ (~order).astype(np.int64)
    tops = lows & (outside == 0)
    return np.where(tops.sum(axis=-1) == 1, tops.argmax(axis=-1), UNDEFINED)


class FiniteEffectAlgebra:
    """Partial commutative addition on {0, ..., n-1} with unit `one`.

    Construction validates only the shape and entry range; the axioms are
    checked separately so broken tables can be built as negative controls.
    The relation arrays are built lazily for the same reason.
    """

    def __init__(self, table, one: int, labels: list[str] | None = None):
        arr = np.asarray(table, dtype=int)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise TableFormatError("table must be square")
        n = arr.shape[0]
        if n < 2 or n > MAX_TABLE_SIZE:
            raise TableFormatError(f"size must be in [2, {MAX_TABLE_SIZE}]")
        if arr.min() < UNDEFINED or arr.max() >= n:
            raise TableFormatError("entries must be -1 or element indices")
        if not 0 <= one < n:
            raise TableFormatError("unit must be an element index")
        if labels is not None and len(labels) != n:
            raise TableFormatError("one label per element required")
        self.table = arr
        self.size = n
        self.zero = 0
        self.one = int(one)
        self.labels = list(labels) if labels is not None else None

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return str(i)

    def elements(self) -> range:
        return range(self.size)

    # -- relations, each computed once -----------------------------------

    @cached_property
    def order(self) -> np.ndarray:
        """``order[i, j]``: i <= j, that is i (+) c = j for some c."""
        rows, cols = np.nonzero(self.table != UNDEFINED)
        out = np.zeros((self.size, self.size), dtype=bool)
        out[rows, self.table[rows, cols]] = True
        return _frozen(out)

    @cached_property
    def infima(self) -> np.ndarray:
        """Greatest lower bound of each pair, -1 where none is unique."""
        below = self.order.T                          # below[e, k]: k <= e
        return _frozen(_greatest(below[:, None, :] & below[None, :, :],
                                 self.order))

    @cached_property
    def supplement_counts(self) -> np.ndarray:
        """How many j satisfy i (+) j = 1, per element i."""
        return _frozen((self.table == self.one).sum(axis=1))

    @cached_property
    def sharp(self) -> np.ndarray:
        """Elements whose one orthosupplement meets them only at zero."""
        supplement = (self.table == self.one).argmax(axis=1)
        meet = self.infima[np.arange(self.size), supplement]
        return _frozen((self.supplement_counts == 1) & (meet == self.zero))

    @cached_property
    def principal(self) -> np.ndarray:
        """Elements p such that sums of elements below p stay below p."""
        t, below = self.table, self.order
        summed = np.where(t != UNDEFINED, t, 0)
        escapes = ((t != UNDEFINED)[:, :, None] & below[:, None, :]
                   & below[None, :, :] & ~below[summed])    # [a, b, p]
        return _frozen(~escapes.any(axis=(0, 1)))

    @cached_property
    def compatibility(self) -> np.ndarray:
        """``compatibility[a, b]``: a = a1 (+) c and b = b1 (+) c with
        a1 (+) b1 (+) c defined, for some a1, b1, c."""
        t = self.table
        d = t != UNDEFINED
        summed = np.where(d, t, 0)
        joint = (d[:, None, :] & d[None, :, :] & d[:, :, None]
                 & d[summed])                              # [a1, b1, c]
        a1, b1, c = np.nonzero(joint)
        out = np.zeros((self.size, self.size), dtype=bool)
        out[t[a1, c], t[b1, c]] = True
        return _frozen(out)

    # -- queries ---------------------------------------------------------

    def orthosupplement(self, i: int) -> int:
        count = int(self.supplement_counts[i])
        if count != 1:
            raise AxiomViolationError(
                f"element {self.label(i)} has {count} orthosupplements")
        return int((self.table[i] == self.one).argmax())

    def brute_inf(self, elements) -> int | None:
        """Greatest lower bound by exhaustion; None when it does not exist."""
        elements = list(elements)
        if not elements:
            raise ValueError("infimum of an empty set")
        lows = self.order[:, elements].all(axis=1)
        top = int(_greatest(lows, self.order))
        return None if top == UNDEFINED else top

    def brute_sup(self, elements) -> int | None:
        elements = list(elements)
        if not elements:
            raise ValueError("supremum of an empty set")
        ups = self.order[elements].all(axis=0)
        bottom = int(_greatest(ups, self.order.T))
        return None if bottom == UNDEFINED else bottom

    def is_sharp(self, i: int) -> bool:
        """Whether the element meets its orthosupplement only at zero."""
        self.orthosupplement(i)
        return bool(self.sharp[i])


def _witness(alg: FiniteEffectAlgebra, **parts: int) -> dict:
    return {key: alg.label(val) for key, val in parts.items()}


def _first_failure(fails: np.ndarray) -> tuple[int, tuple[int, ...] | None]:
    """Cases passed before the first failure in C order (all of them when
    none fails), and that failure's index."""
    flat = np.flatnonzero(fails)
    if flat.size == 0:
        return fails.size, None
    where = np.unravel_index(flat[0], fails.shape)
    return int(flat[0]), tuple(int(k) for k in where)


def check_ea_axioms(alg: FiniteEffectAlgebra, name: str = "table"
                    ) -> SuiteReport:
    """Exhaustive check of the four partial-addition axioms."""
    report = SuiteReport(suite="ea-axioms", model=name, seed=0,
                         config={"size": alg.size})
    n, t = alg.size, alg.table
    d = t != UNDEFINED
    summed = np.where(d, t, 0)

    def add(sid: str, fails: np.ndarray, witness) -> None:
        good, where = _first_failure(fails)
        report.add(CheckResult(sid, name, fails.size, good,
                               witness=None if where is None
                               else witness(*where)))

    # E1: the operation is commutative as a partial operation.
    add("E1", t != t.T, lambda i, j: _witness(alg, a=i, b=j))

    # E2: both bracketings agree whenever the inner sums exist.  The
    # entries are [a, b, c]; a (+) (b (+) c) and (a (+) b) (+) c.
    right = t[np.arange(n)[:, None, None], summed[None, :, :]]
    left = t[summed]
    inner = d[None, :, :] & (right != UNDEFINED)
    add("E2", inner & (~d[:, :, None] | (left != right)),
        lambda a, b, c: _witness(alg, a=a, b=b, c=c))

    # E3: every element has exactly one orthosupplement.
    counts = alg.supplement_counts
    add("E3", counts != 1,
        lambda i: {**_witness(alg, a=i), "count": int(counts[i])})

    # E4: only zero can be added to the unit.
    add("E4", d[:, alg.one] & (np.arange(n) != alg.zero),
        lambda i: _witness(alg, a=i))

    return report


def incompatible_pairs(alg: FiniteEffectAlgebra) -> list[tuple[int, int]]:
    rows, cols = np.nonzero(np.triu(~alg.compatibility, k=1))
    return [(int(i), int(j)) for i, j in zip(rows, cols)]


def non_principal_elements(alg: FiniteEffectAlgebra) -> list[int]:
    return np.flatnonzero(~alg.principal).tolist()


def non_sharp_elements(alg: FiniteEffectAlgebra) -> list[int]:
    return [i for i in alg.elements() if not alg.is_sharp(i)]


def lukasiewicz(n: int) -> FiniteEffectAlgebra:
    """Chain 0, 1/(n-1), ..., 1 with truncated addition."""
    if n < 2:
        raise ValueError("chain needs at least two elements")
    table = np.full((n, n), UNDEFINED, dtype=int)
    for i in range(n):
        for j in range(n):
            if i + j <= n - 1:
                table[i, j] = i + j
    labels = [f"{i}/{n - 1}" for i in range(n)]
    labels[0] = "0"
    labels[-1] = "1"
    return FiniteEffectAlgebra(table, one=n - 1, labels=labels)


def boolean_cube(k: int) -> FiniteEffectAlgebra:
    """Subsets of a k-point set; sums are disjoint unions."""
    if not 1 <= k <= 4:
        raise ValueError("cube exponent must be in [1, 4]")
    n = 2 ** k
    table = np.full((n, n), UNDEFINED, dtype=int)
    for i in range(n):
        for j in range(n):
            if i & j == 0:
                table[i, j] = i | j
    labels = ["{" + ",".join(str(b) for b in range(k) if i >> b & 1) + "}"
              for i in range(n)]
    return FiniteEffectAlgebra(table, one=n - 1, labels=labels)


def diamond() -> FiniteEffectAlgebra:
    """Four-element algebra 0 < a, b < 1 with a+a = b+b = 1 and a+b undefined.

    Lattice-ordered but with an incompatible pair and no sharp atoms; it is
    the stock counterexample kept outside the chain/cube families.
    """
    o, a, b, u = 0, 1, 2, 3
    table = np.full((4, 4), UNDEFINED, dtype=int)
    for x in (o, a, b, u):
        table[o, x] = x
        table[x, o] = x
    table[a, a] = u
    table[b, b] = u
    return FiniteEffectAlgebra(table, one=u, labels=["0", "a", "b", "1"])


BUILTIN_NAMES = (
    "lukasiewicz-3",
    "lukasiewicz-5",
    "boolean-2",
    "boolean-3",
    "boolean-4",
    "diamond",
)


def builtin_table(name: str) -> FiniteEffectAlgebra:
    if name.startswith("lukasiewicz-"):
        return lukasiewicz(int(name.split("-")[1]))
    if name.startswith("boolean-"):
        return boolean_cube(int(name.split("-")[1]))
    if name == "diamond":
        return diamond()
    raise KeyError(f"unknown table {name!r}; builtins: {BUILTIN_NAMES}")


def fuzzy_embedding(name: str) -> np.ndarray | None:
    """Element-wise embedding of a builtin table into fuzzy sets: row i of
    the (elements x points) array is element i's values.

    Chains map element i to the constant i/(n-1) on a one-point space;
    cubes map a subset to its indicator vector.  Returns None for tables
    with no such embedding.
    """
    if name.startswith("lukasiewicz-"):
        n = int(name.split("-")[1])
        return np.array([[i / (n - 1)] for i in range(n)])
    if name.startswith("boolean-"):
        k = int(name.split("-")[1])
        return np.array([[float(i >> b & 1) for b in range(k)]
                         for i in range(2 ** k)])
    if name == "diamond":
        return None
    raise KeyError(f"unknown table {name!r}")
