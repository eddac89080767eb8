"""Finite partial-addition tables: axioms, duals, embeddings."""

import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seakit import fuzzy as fz
from seakit import verify
from seakit.tables import (
    BUILTIN_NAMES,
    AxiomViolationError,
    FiniteEffectAlgebra,
    UNDEFINED,
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

MV = fz.FuzzyContext()


def test_three_chain_sums():
    alg = lukasiewicz(3)
    assert alg.size == 3 and alg.one == 2
    assert alg.table[0, 0] == 0
    assert alg.table[0, 1] == 1
    assert alg.table[1, 1] == 2
    assert alg.table[1, 2] == UNDEFINED
    assert alg.table[2, 2] == UNDEFINED
    assert alg.orthosupplement(1) == 1
    assert alg.labels == ["0", "1/2", "1"]


def test_boolean_cube_structure():
    alg = boolean_cube(2)
    assert alg.size == 4 and alg.one == 3
    # disjoint subsets add by union, overlapping ones are undefined
    assert alg.table[1, 2] == 3
    assert alg.table[1, 1] == UNDEFINED
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
    assert chain.tolist() == [[0.0], [0.5], [1.0]]
    cube = fuzzy_embedding("boolean-2")
    assert cube.shape == (4, 2) and cube.dtype == np.float64
    assert cube[3].tolist() == [1.0, 1.0]
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
            total = alg.table[i, j]
            image = MV.add(emb[i], emb[j])
            if total == UNDEFINED:
                assert not MV.leq(image, MV.one_like(image))
            else:
                assert np.array_equal(image, emb[total])
            assert alg.order[i, j] == MV.leq(emb[i], emb[j])


# ---------------------------------------------------------------------------
# the array relations against their definitions
#
# Each ``ref_*`` below is the definition evaluated by exhaustion, one query
# at a time, as the algebra computed it before its relations became arrays.


def ref_leq(alg, i, j):
    return any(alg.table[i, c] == j for c in alg.elements())


def ref_inf(alg, elements):
    lows = [k for k in alg.elements()
            if all(ref_leq(alg, k, e) for e in elements)]
    tops = [m for m in lows if all(ref_leq(alg, k, m) for k in lows)]
    return tops[0] if len(tops) == 1 else None


def ref_sup(alg, elements):
    ups = [k for k in alg.elements()
           if all(ref_leq(alg, e, k) for e in elements)]
    bots = [m for m in ups if all(ref_leq(alg, m, k) for k in ups)]
    return bots[0] if len(bots) == 1 else None


def ref_supplements(alg, i):
    return [j for j in alg.elements() if alg.table[i, j] == alg.one]


def ref_is_sharp(alg, i):
    """None where the element has no unique orthosupplement (the algebra
    raises there)."""
    hits = ref_supplements(alg, i)
    if len(hits) != 1:
        return None
    return ref_inf(alg, [i, hits[0]]) == alg.zero


def ref_is_principal(alg, p):
    below = [x for x in alg.elements() if ref_leq(alg, x, p)]
    for a, b in itertools.product(below, repeat=2):
        ab = int(alg.table[a, b])
        if ab != UNDEFINED and not ref_leq(alg, ab, p):
            return False
    return True


def ref_mackey_compatible(alg, a, b):
    for c in alg.elements():
        for a1 in alg.elements():
            if alg.table[a1, c] != a:
                continue
            for b1 in alg.elements():
                if alg.table[b1, c] != b:
                    continue
                ab = int(alg.table[a1, b1])
                if ab != UNDEFINED and alg.table[ab, c] != UNDEFINED:
                    return True
    return False


def assert_relations_agree(alg):
    n = alg.size
    for i, j in itertools.product(range(n), repeat=2):
        assert alg.order[i, j] == ref_leq(alg, i, j), (i, j)
        assert alg.compatibility[i, j] == ref_mackey_compatible(
            alg, i, j), (i, j)
        inf, sup = ref_inf(alg, [i, j]), ref_sup(alg, [i, j])
        assert alg.brute_inf([i, j]) == inf, (i, j)
        assert alg.brute_sup([i, j]) == sup, (i, j)
        assert alg.infima[i, j] == (-1 if inf is None else inf)
    for size in (1, 3):
        for subset in itertools.combinations(range(n), size):
            assert alg.brute_inf(subset) == ref_inf(alg, subset), subset
            assert alg.brute_sup(subset) == ref_sup(alg, subset), subset
    for i in range(n):
        hits = ref_supplements(alg, i)
        assert alg.supplement_counts[i] == len(hits)
        sharp = ref_is_sharp(alg, i)
        assert alg.sharp[i] == bool(sharp)
        if sharp is None:
            with pytest.raises(AxiomViolationError,
                               match=f"has {len(hits)} orthosupplements"):
                alg.orthosupplement(i)
            with pytest.raises(AxiomViolationError):
                alg.is_sharp(i)
        else:
            assert alg.orthosupplement(i) == hits[0]
            assert alg.is_sharp(i) == sharp
        assert alg.principal[i] == ref_is_principal(alg, i)
    assert incompatible_pairs(alg) == [
        (i, j) for i in range(n) for j in range(i + 1, n)
        if not ref_mackey_compatible(alg, i, j)]
    assert non_principal_elements(alg) == [
        i for i in range(n) if not ref_is_principal(alg, i)]
    if all(len(ref_supplements(alg, i)) == 1 for i in range(n)):
        assert non_sharp_elements(alg) == [
            i for i in range(n) if not ref_is_sharp(alg, i)]
    else:
        with pytest.raises(AxiomViolationError):
            non_sharp_elements(alg)


@st.composite
def partial_tables(draw):
    """Tables of size 2-6: uniformly random entries (rarely commutative,
    associative or antisymmetric), or a small builtin with a few entries
    overwritten (mostly lawful, so the sharp and principal flags vary)."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 6))
        flat = draw(st.lists(st.integers(-1, n - 1), min_size=n * n,
                             max_size=n * n))
        table = np.array(flat).reshape(n, n)
        one = draw(st.integers(0, n - 1))
        return FiniteEffectAlgebra(table, one=one)
    base = builtin_table(draw(st.sampled_from(
        ["lukasiewicz-3", "lukasiewicz-5", "boolean-2", "diamond"])))
    table = base.table.copy()
    n = base.size
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[i, j] = draw(st.integers(-1, n - 1))
    return FiniteEffectAlgebra(table, one=base.one, labels=base.labels)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_relations_match_definitions_on_builtins(name):
    assert_relations_agree(builtin_table(name))


@pytest.mark.parametrize("factory", [verify._broken_e1_table,
                                     verify._broken_e4_table])
def test_relations_match_definitions_on_control_tables(factory):
    assert_relations_agree(factory())


@settings(max_examples=150)
@given(partial_tables())
def test_relations_match_definitions_on_partial_tables(alg):
    assert_relations_agree(alg)


# ---------------------------------------------------------------------------
# axiom counting against the loop that defines it


def ref_axioms(alg):
    """(statement, samples, passed, witness) per axiom: every case in
    ``itertools.product`` order, stopping at the first failure."""
    n = alg.size
    lab = alg.label
    out = []
    good, witness = 0, None
    for i, j in itertools.product(range(n), repeat=2):
        if alg.table[i, j] != alg.table[j, i]:
            witness = {"a": lab(i), "b": lab(j)}
            break
        good += 1
    out.append(("E1", n * n, good, witness))
    good, witness = 0, None
    for a, b, c in itertools.product(range(n), repeat=3):
        bc = int(alg.table[b, c])
        if bc != UNDEFINED and alg.table[a, bc] != UNDEFINED:
            left = int(alg.table[a, b])
            if (left == UNDEFINED
                    or alg.table[left, c] != alg.table[a, bc]):
                witness = {"a": lab(a), "b": lab(b), "c": lab(c)}
                break
        good += 1
    out.append(("E2", n ** 3, good, witness))
    good, witness = 0, None
    for i in range(n):
        hits = ref_supplements(alg, i)
        if len(hits) != 1:
            witness = {"a": lab(i), "count": len(hits)}
            break
        good += 1
    out.append(("E3", n, good, witness))
    good, witness = 0, None
    for i in range(n):
        if alg.table[i, alg.one] != UNDEFINED and i != alg.zero:
            witness = {"a": lab(i)}
            break
        good += 1
    out.append(("E4", n, good, witness))
    return out


def axiom_rows(alg):
    return [(r.statement_id, r.samples, r.passed, r.witness)
            for r in check_ea_axioms(alg, "t").results]


@settings(max_examples=150)
@given(partial_tables())
def test_axiom_counts_match_the_loop_on_partial_tables(alg):
    assert axiom_rows(alg) == ref_axioms(alg)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_axiom_counts_match_the_loop_on_builtins(name):
    assert axiom_rows(builtin_table(name)) == ref_axioms(builtin_table(name))


def test_control_tables_count_cases_before_the_first_failure():
    """`passed` is the number of cases before the first failure, not the
    number of passing cases: the broken-e1 table satisfies E2 on 24 of its
    27 triples, but its first failure is the fifth."""
    rows = {(r.model, r.statement_id): (r.passed, r.samples, r.witness)
            for r in verify.run_table_suite(seed=1, control=True).results}
    assert rows["broken-e1", "E1"] == (1, 9, {"a": "0", "b": "1/2"})
    assert rows["broken-e1", "E2"] == (
        4, 27, {"a": "0", "b": "1/2", "c": "1/2"})
    assert rows["broken-e4", "E2"] == (
        22, 27, {"a": "1", "b": "1/2", "c": "1/2"})
    assert rows["broken-e4", "E3"] == (2, 3, {"a": "1", "count": 2})
    assert rows["broken-e4", "E4"] == (2, 3, {"a": "1"})
    for factory in (verify._broken_e1_table, verify._broken_e4_table):
        assert axiom_rows(factory()) == ref_axioms(factory())


# ---------------------------------------------------------------------------
# the table suite, pinned


# Re-recorded when the report's tolerances block lost its unread ``trace``
# field; the results in each report are unchanged.
TABLE_GOLDEN = {
    (False, 1): "aae85e7ac221a5d82e18472a7ebb4617fe96bc57de7f37f1a53a048eaea3f0a7",
    (False, 7): "3f4f5d49bc19d2c72578bf2e4b4dcb0a4d948a17f3adc71270f6a39785c492c7",
    (False, 42): "ce7d59e1e982b1627f2ec57a440ac559a2b630dc20bc4cb3b83b45546a775e3f",
    (True, 1): "00f78e247ae4b2178a0b3131ae36cc83bcdea191866f56668156c7c54ee0b78e",
    (True, 7): "2bf60dfd1d69ca4716606a3df30fdc14cb4829deb799a468116965a32a6f5313",
    (True, 42): "7757dadc6a5e7b6a486e65558974d55810dd32827a3711e2903a12fa48aa6904",
}


def table_report_sha256(seed, corrupted):
    doc = verify.run_table_suite(seed=seed, control=corrupted).to_dict()
    text = json.dumps(doc, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("corrupted,seed", sorted(TABLE_GOLDEN))
def test_table_suite_reports_are_golden(corrupted, seed):
    """The table suite is exact integer and dyadic arithmetic, so its report
    does not depend on the host.  Regenerate a hash with
    ``PYTHONPATH=src:tests python -c "import test_tables as t;
    print(t.table_report_sha256(SEED, CORRUPTED))"``."""
    assert table_report_sha256(seed, corrupted) == TABLE_GOLDEN[corrupted,
                                                                 seed]


def test_table_oracle_reports_the_first_failing_clause(monkeypatch):
    """Moving the image of 1/2 in the three-chain to 0.4 breaks exactly its
    orthosupplement and the sum 1/2 + 1/2; the first in tally order is
    reported."""
    real = verify.tb.fuzzy_embedding

    def moved(name):
        image = real(name)
        if name == "lukasiewicz-3":
            image[1] = 0.4
        return image

    monkeypatch.setattr(verify.tb, "fuzzy_embedding", moved)
    oracle = next(r for r in verify.run_table_suite(seed=1).results
                  if r.statement_id == "tables:oracle")
    assert oracle.samples - oracle.passed == 2
    assert oracle.witness == {"table": "lukasiewicz-3", "element": "1/2",
                              "clause": "orthosupplement"}


def test_table_oracle_orders_pair_failures_by_pair_then_clause(monkeypatch):
    """The pair clauses of one table are tallied as one array, pair by
    pair and clause by clause within a pair: with its compatibility
    wrong at (0, 0) and its order wrong at (1, 1), the three-chain
    reports the compatibility clause at (0, 0), though the order clause
    comes first among the clauses."""
    real = verify.tb.builtin_table

    def broken(name):
        alg = real(name)
        if name == "lukasiewicz-3":
            _ = alg.sharp, alg.principal  # read off the order before it moves
            for key, (i, j) in (("compatibility", (0, 0)), ("order", (1, 1))):
                flipped = getattr(alg, key).copy()
                flipped[i, j] = ~flipped[i, j]
                vars(alg)[key] = flipped
        return alg

    monkeypatch.setattr(verify.tb, "builtin_table", broken)
    oracle = next(r for r in verify.run_table_suite(seed=1).results
                  if r.statement_id == "tables:oracle")
    assert oracle.samples - oracle.passed == 2
    assert oracle.witness == {"table": "lukasiewicz-3", "a": "0", "b": "0",
                              "clause": "compatibility"}
