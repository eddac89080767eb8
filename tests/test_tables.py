"""Finite partial-addition tables: axioms, duals, embeddings."""

import numpy as np
import pytest

from seakit import fuzzy as fz
from seakit.tables import (
    BUILTIN_NAMES,
    FiniteEffectAlgebra,
    TableFormatError,
    boolean_cube,
    builtin_table,
    check_ea_axioms,
    diamond,
    fuzzy_embedding,
    incompatible_pairs,
    lukasiewicz,
    non_principal_elements,
    non_sharp_elements,
)


def test_three_chain_sums():
    alg = lukasiewicz(3)
    assert alg.size == 3 and alg.one == 2
    assert alg.oplus(0, 0) == 0
    assert alg.oplus(0, 1) == 1
    assert alg.oplus(1, 1) == 2
    assert alg.oplus(1, 2) is None
    assert alg.oplus(2, 2) is None
    assert alg.orthosupplement(1) == 1
    assert alg.labels == ["0", "1/2", "1"]


def test_boolean_cube_structure():
    alg = boolean_cube(2)
    assert alg.size == 4 and alg.one == 3
    # disjoint subsets add by union, overlapping ones are undefined
    assert alg.oplus(1, 2) == 3
    assert alg.oplus(1, 1) is None
    assert alg.orthosupplement(1) == 2


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_axioms_hold_on_builtins(name):
    report = check_ea_axioms(builtin_table(name), name)
    assert report.verdict
    for r in report.results:
        assert r.passed == r.samples
        assert r.witness is None


def test_diamond_interpretation():
    alg = diamond()
    assert incompatible_pairs(alg) == [(1, 2)]
    assert non_sharp_elements(alg) == [1, 2]
    assert non_principal_elements(alg) == [1, 2]
    assert alg.brute_inf([1, 2]) == 0
    assert alg.brute_sup([1, 2]) == 3


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_principal_implies_sharp(name):
    alg = builtin_table(name)
    assert set(non_sharp_elements(alg)) <= set(non_principal_elements(alg))


def test_broken_commutativity_is_caught():
    table = lukasiewicz(3).table.copy()
    table[0, 1] = 0
    report = check_ea_axioms(FiniteEffectAlgebra(table, one=2,
                                                 labels=["0", "1/2", "1"]),
                             "broken")
    assert not report.verdict
    e1 = next(r for r in report.results if r.statement_id == "E1")
    assert e1.passed < e1.samples
    assert e1.witness == {"a": "0", "b": "1/2"}


def test_broken_zero_one_law_is_caught():
    table = lukasiewicz(3).table.copy()
    table[2, 2] = 2
    report = check_ea_axioms(FiniteEffectAlgebra(table, one=2), "broken")
    assert not report.verdict
    e4 = next(r for r in report.results if r.statement_id == "E4")
    assert e4.passed < e4.samples
    assert e4.witness is not None


def test_table_format_validation():
    with pytest.raises(TableFormatError):
        FiniteEffectAlgebra(np.zeros((2, 3), dtype=int), one=1)
    with pytest.raises(TableFormatError):
        FiniteEffectAlgebra([[0, 1], [1, 5]], one=1)
    with pytest.raises(TableFormatError):
        FiniteEffectAlgebra([[0, 1], [1, -1]], one=4)


def test_embeddings():
    chain = fuzzy_embedding("lukasiewicz-3")
    assert [e.values.tolist() for e in chain] == [[0.0], [0.5], [1.0]]
    cube = fuzzy_embedding("boolean-2")
    assert len(cube) == 4
    assert all(e.space == 2 for e in cube)
    assert cube[3].values.tolist() == [1.0, 1.0]
    assert fuzzy_embedding("diamond") is None
    with pytest.raises(KeyError):
        fuzzy_embedding("pentagon")
    with pytest.raises(KeyError):
        builtin_table("pentagon")


@pytest.mark.parametrize("name", ["lukasiewicz-5", "boolean-3"])
def test_embedding_preserves_sums_and_order(name):
    alg = builtin_table(name)
    emb = fuzzy_embedding(name)
    for i in range(alg.size):
        for j in range(alg.size):
            total = alg.oplus(i, j)
            image = fz.mv_oplus(emb[i], emb[j])
            if total is None:
                assert image is None
            else:
                assert image == emb[total]
            assert alg.leq(i, j) == fz.mv_leq(emb[i], emb[j])
