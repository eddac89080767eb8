"""Finite effect algebras given by partial addition tables.

Elements are integers 0..n-1 with 0 the neutral element; the table stores
i (+) j, with -1 marking an undefined sum.  Everything here is exact
integer arithmetic, so checks use equality and residuals are always zero.
"""
from __future__ import annotations

import itertools

import numpy as np

from .report import CheckResult, SuiteReport

UNDEFINED = -1
MAX_TABLE_SIZE = 64


class TableFormatError(ValueError):
    """Table is not a well-formed partial operation."""


class AxiomViolationError(ValueError):
    """Query relies on an axiom the table fails to satisfy."""


class FiniteEffectAlgebra:
    """Partial commutative addition on {0, ..., n-1} with unit `one`.

    Construction validates only the shape and entry range; the axioms are
    checked separately so broken tables can be built as negative controls.
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

    def defined(self, i: int, j: int) -> bool:
        return self.table[i, j] != UNDEFINED

    def oplus(self, i: int, j: int) -> int | None:
        v = int(self.table[i, j])
        return None if v == UNDEFINED else v

    def orthosupplement(self, i: int) -> int:
        hits = [j for j in self.elements() if self.table[i, j] == self.one]
        if len(hits) != 1:
            raise AxiomViolationError(
                f"element {self.label(i)} has {len(hits)} orthosupplements")
        return hits[0]

    def leq(self, i: int, j: int) -> bool:
        return any(self.table[i, c] == j for c in self.elements())

    def brute_inf(self, elements) -> int | None:
        """Greatest lower bound by exhaustion; None when it does not exist."""
        elements = list(elements)
        if not elements:
            raise ValueError("infimum of an empty set")
        lows = [k for k in self.elements()
                if all(self.leq(k, e) for e in elements)]
        tops = [m for m in lows if all(self.leq(k, m) for k in lows)]
        return tops[0] if len(tops) == 1 else None

    def brute_sup(self, elements) -> int | None:
        elements = list(elements)
        if not elements:
            raise ValueError("supremum of an empty set")
        ups = [k for k in self.elements()
               if all(self.leq(e, k) for e in elements)]
        bots = [m for m in ups if all(self.leq(m, k) for k in ups)]
        return bots[0] if len(bots) == 1 else None

    def is_sharp(self, i: int) -> bool:
        """Whether the element meets its orthosupplement only at zero."""
        comp = self.orthosupplement(i)
        return self.brute_inf([i, comp]) == self.zero

    def is_principal(self, p: int) -> bool:
        """Whether sums of orthogonal elements below p stay below p."""
        below = [x for x in self.elements() if self.leq(x, p)]
        for a, b in itertools.product(below, repeat=2):
            if self.defined(a, b) and not self.leq(int(self.table[a, b]), p):
                return False
        return True

    def mackey_compatible(self, a: int, b: int) -> bool:
        """Whether a and b admit a joint orthogonal decomposition."""
        for c in self.elements():
            for a1 in self.elements():
                if self.table[a1, c] != a:
                    continue
                for b1 in self.elements():
                    if self.table[b1, c] != b:
                        continue
                    ab = self.oplus(a1, b1)
                    if ab is not None and self.defined(ab, c):
                        return True
        return False


def _witness(alg: FiniteEffectAlgebra, **parts: int) -> dict:
    return {key: alg.label(val) for key, val in parts.items()}


def check_ea_axioms(alg: FiniteEffectAlgebra, name: str = "table"
                    ) -> SuiteReport:
    """Exhaustive check of the four partial-addition axioms."""
    report = SuiteReport(suite="ea-axioms", model=name, seed=0,
                         config={"size": alg.size})
    n = alg.size

    # E1: the operation is commutative as a partial operation.
    witness = None
    good = 0
    for i, j in itertools.product(range(n), repeat=2):
        if alg.table[i, j] != alg.table[j, i]:
            witness = _witness(alg, a=i, b=j)
            break
        good += 1
    report.add(CheckResult("E1", name, n * n, good, witness=witness))

    # E2: both bracketings agree whenever the inner sums exist.
    witness = None
    good = 0
    for a, b, c in itertools.product(range(n), repeat=3):
        bc = alg.oplus(b, c)
        if bc is not None and alg.defined(a, bc):
            left = alg.oplus(a, b)
            if left is None or alg.oplus(left, c) != alg.oplus(a, bc):
                witness = _witness(alg, a=a, b=b, c=c)
                break
        good += 1
    report.add(CheckResult("E2", name, n ** 3, good, witness=witness))

    # E3: every element has exactly one orthosupplement.
    witness = None
    good = 0
    for i in range(n):
        hits = [j for j in range(n) if alg.table[i, j] == alg.one]
        if len(hits) != 1:
            witness = {**_witness(alg, a=i), "count": len(hits)}
            break
        good += 1
    report.add(CheckResult("E3", name, n, good, witness=witness))

    # E4: only zero can be added to the unit.
    witness = None
    good = 0
    for i in range(n):
        if alg.defined(i, alg.one) and i != alg.zero:
            witness = _witness(alg, a=i)
            break
        good += 1
    report.add(CheckResult("E4", name, n, good, witness=witness))

    return report


def incompatible_pairs(alg: FiniteEffectAlgebra) -> list[tuple[int, int]]:
    out = []
    for i in range(alg.size):
        for j in range(i + 1, alg.size):
            if not alg.mackey_compatible(i, j):
                out.append((i, j))
    return out


def non_principal_elements(alg: FiniteEffectAlgebra) -> list[int]:
    return [i for i in alg.elements() if not alg.is_principal(i)]


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


def fuzzy_embedding(name: str):
    """Element-wise embedding of a builtin table into fuzzy sets.

    Chains map element i to the constant i/(n-1) on a one-point space;
    cubes map a subset to its indicator vector.  Returns None for tables
    with no such embedding.
    """
    from .fuzzy import FuzzySet

    if name.startswith("lukasiewicz-"):
        n = int(name.split("-")[1])
        return [FuzzySet(np.array([i / (n - 1)])) for i in range(n)]
    if name.startswith("boolean-"):
        k = int(name.split("-")[1])
        return [FuzzySet(np.array([float(i >> b & 1) for b in range(k)]))
                for i in range(2 ** k)]
    if name == "diamond":
        return None
    raise KeyError(f"unknown table {name!r}")
