"""Ring classification predicates and the verification suite."""

import importlib

import pytest

from ringscope.classify import (
    STATEMENTS,
    VerifyReport,
    classify_report,
    is_chain_ring,
    is_local,
    is_qf,
    is_semisimple_ring,
    is_super_qf,
    is_uniform_ring,
    socle_homogeneous,
    verify_suite,
)
from ringscope.cli import load_ring
from ringscope.errors import BoundExceededError, InputError
from ringscope.hom import is_injective
from ringscope.ideals import two_sided_ideals
from ringscope.lattice import are_isomorphic, build_lattice
from ringscope.modules import Submodule, factor_module, regular_module, socle
from ringscope.profile import CyclicFingerprint, i_profile, p_profile
from ringscope.ring import product_ring, quotient_ring, units, zmod

from conftest import DIFFERENTIAL_RINGS, GUARD_RINGS, SMALL_CORPUS, corpus
from oracle_utils import (
    add_vectors,
    is_simple_artinian,
    super_qf_by_factor_rings,
)

classify_mod = importlib.import_module("ringscope.classify")
profile_mod = importlib.import_module("ringscope.profile")

# name -> (semisimple, local, chain, uniform, qf, super_qf)
TRUTH = {
    "z8":        (False, True, True, True, True, True),
    "z4xf2":     (False, False, False, False, True, True),
    "t2f2":      (False, False, False, False, False, False),
    "m2f2":      (True, False, False, False, True, True),
    "quiver_f2": (False, False, False, False, False, False),
    "f2xy_j2":   (False, True, False, False, False, False),
    "f2xy_x2y2": (False, True, False, True, True, False),
}


def test_predicate_truth_table():
    for name, row in TRUTH.items():
        ring = corpus(name)
        got = (is_semisimple_ring(ring), is_local(ring), is_chain_ring(ring),
               is_uniform_ring(ring), is_qf(ring), is_super_qf(ring)[0])
        assert got == row, name


def test_predicate_implications():
    for name in SMALL_CORPUS:
        ring = corpus(name)
        if is_super_qf(ring)[0]:
            assert is_qf(ring)
        if is_chain_ring(ring):
            assert is_uniform_ring(ring)
        if is_semisimple_ring(ring):
            assert is_qf(ring)


def test_super_qf_certificate_is_honest():
    ring = corpus("f2xy_x2y2")
    flag, cert = is_super_qf(ring)
    assert not flag
    factor, _, _ = quotient_ring(ring, cert.gens.rows)
    assert not is_qf(factor)


def test_super_qf_closed_under_factors_and_products():
    # factors of Z/8
    for gens in ([(4,)], [(2,)]):
        factor, _, _ = quotient_ring(zmod(8), gens)
        assert is_super_qf(factor)[0]
    # product of two super QF rings
    prod = product_ring([zmod(4), corpus("m2f2")])
    assert is_super_qf(prod)[0]


def test_simple_artinian():
    assert is_simple_artinian(corpus("m2f2"))
    assert is_simple_artinian(zmod(5))
    assert not is_simple_artinian(corpus("z4xf2"))
    assert not is_simple_artinian(corpus("z8"))


def test_socle_homogeneous():
    m2 = corpus("m2f2")
    assert socle_homogeneous(regular_module(m2))
    # Z/4 x F/2 is semisimple-socled with non-isomorphic simple parts
    prod = corpus("z4xf2")
    reg = regular_module(prod)
    soc = Submodule(reg, [(2, 0), (0, 1)])
    from ringscope.modules import submodule_as_module

    assert not socle_homogeneous(submodule_as_module(soc)[0])
    # non-semisimple modules are never homogeneous-socled
    assert not socle_homogeneous(regular_module(corpus("z8")))


def test_classify_report_fields():
    rep = classify_report(corpus("f2xy_x2y2"))
    assert rep["qf"] and not rep["super_qf"]
    assert rep["super_qf_certificate"] == [[0, 0, 0, 1]]
    assert rep["local"] and rep["uniform"] and not rep["chain_ring"]
    assert rep["profile_nodes"] == 6
    assert rep["i_middle_class"] and rep["p_middle_class"]
    assert rep["radical_order"] == 8


def test_verify_suite_passes_on_corpus():
    for name in SMALL_CORPUS:
        rep = verify_suite(corpus(name))
        assert rep.ok(), (name, rep.failed)
        ids = [e["id"] for e in rep.entries]
        assert ids == [f"V{n}" for n in range(1, 17)]


def test_verify_suite_with_product_partner():
    rep = verify_suite(corpus("z8"), product_partner=zmod(2))
    assert rep.ok()
    v3 = next(e for e in rep.entries if e["id"] == "V3")
    assert v3["status"] == "pass"


def test_verify_suite_skip_reasons():
    rep = verify_suite(corpus("m2f2"))
    by_id = {e["id"]: e for e in rep.entries}
    assert by_id["V3"]["status"] == "skipped"
    assert by_id["V5"]["status"] == "skipped"  # not a chain ring
    assert by_id["V15"]["status"] == "skipped"  # not local
    lines = list(rep.lines())
    assert len(lines) == 16
    assert all(line.split()[1] in ("pass", "fail", "skipped")
               for line in lines)


def test_module_checks_skip_when_the_pool_is_out_of_bounds():
    """R² of m2z4 has 65,536 elements, past the enumeration bound: V12
    and V14 check no module, so both say skipped, not pass."""
    rep = verify_suite(corpus("m2z4"), max_free_rank=2)
    by_id = {e["id"]: e for e in rep.entries}
    for check in ("V12", "V14"):
        assert by_id[check]["status"] == "skipped"
        assert by_id[check]["certificate"] == "module enumeration out of bounds"


def test_verify_and_rises_refuse_bounds_below_one():
    """A rank or order bound below 1 is refused, not read as an empty
    module pool."""
    ring = corpus("f2xy_x2y2")
    with pytest.raises(InputError, match="rank 0"):
        verify_suite(ring, max_free_rank=0)
    with pytest.raises(InputError, match="order 0"):
        verify_suite(ring, max_order=0)


def test_verify_report_check_and_skip():
    """check records pass with no certificate, or fail with it; skip
    records the reason.  The statement is the check's own unless another
    is given."""
    rep = VerifyReport()
    rep.check("V4", True, "unused")
    rep.check("V5", False, (3, 4))
    rep.check("V12", False, "bound rank 1", statement="another statement")
    rep.skip("V3", "no partner ring supplied")
    assert [(e["status"], e["certificate"]) for e in rep.entries] == [
        ("pass", None), ("fail", (3, 4)), ("fail", "bound rank 1"),
        ("skipped", "no partner ring supplied")]
    assert list(rep.lines()) == [
        f"V4   pass    {STATEMENTS['V4']}",
        f"V5   fail    {STATEMENTS['V5']}  [(3, 4)]",
        "V12  fail    another statement  [bound rank 1]",
        f"V3   skipped {STATEMENTS['V3']}  (no partner ring supplied)"]
    assert not rep.ok()
    assert [e["id"] for e in rep.failed] == ["V5", "V12"]


@pytest.mark.parametrize("name, v12", [
    ("z8", STATEMENTS["V12"]),
    ("f2xy_x2y2", "non-super QF ring shows a fingerprint discrepancy")],
    ids=["z8", "f2xy_x2y2"])
def test_verify_statements_come_from_the_table(name, v12):
    """Every check but V12 on a QF ring that is not super QF states
    STATEMENTS[id]; that one states the discrepancy it looks for."""
    rep = verify_suite(corpus(name))
    assert [e["id"] for e in rep.entries] == list(STATEMENTS)
    for e in rep.entries:
        assert e["statement"] == (v12 if e["id"] == "V12"
                                  else STATEMENTS[e["id"]])


def test_a_failing_intersection_law_is_reported(monkeypatch):
    """With every direct sum's injectivity fingerprint emptied as the
    suite sees it, V2 fails on the first pair, whose labels its line
    carries as the certificate."""
    real = classify_mod.inj_fingerprint

    def broken(m):
        if " + " in m.label:
            return CyclicFingerprint(m.ring, [])
        return real(m)

    monkeypatch.setattr(classify_mod, "inj_fingerprint", broken)
    rep = verify_suite(load_ring("z8"))
    assert [e["id"] for e in rep.failed] == ["V2"]
    assert list(rep.lines())[1] == (
        "V2   fail    domain of a direct sum is the intersection of domains"
        "  [('Z/8/I', 'Z/8/I')]")


def test_local_means_one_maximal_right_ideal():
    """On nonzero rings this agrees with "the non-units are closed under
    addition"; the zero ring has no maximal right ideal and is not local."""
    rings = [corpus(n) for n in SMALL_CORPUS] + [zmod(n) for n in range(2, 13)]
    for ring in rings:
        unit_set = units(ring)
        non_units = [x for x in ring.elements() if x not in unit_set]
        closed = all(add_vectors(ring.orders, x, y) not in unit_set
                     for x in non_units for y in non_units)
        assert is_local(ring) == closed, ring.label
    assert not is_local(zmod(1))


def test_is_qf_is_computed_once_per_ring(monkeypatch):
    """is_super_qf, V6 and classify_report read one fact, the injectivity
    fingerprint of R: it is built once, and no self-injectivity test of
    the regular module runs."""
    calls = []
    is_injective = classify_mod.is_injective
    fingerprint = profile_mod._fingerprint

    def counted(m):
        calls.append(m)
        return is_injective(m)

    def built(m, relative):
        calls.append((m.key, relative.__name__))
        return fingerprint(m, relative)

    monkeypatch.setattr(classify_mod, "is_injective", counted)
    monkeypatch.setattr(profile_mod, "_fingerprint", built)
    ring = load_ring("z4xf2")
    reg = regular_module(ring)
    classify_report(ring)
    verify_suite(ring)
    assert calls.count((reg.key, "is_relatively_injective")) == 1
    assert not any(m is reg for m in calls)


@pytest.mark.parametrize("group", DIFFERENTIAL_RINGS)
def test_is_qf_matches_the_self_injectivity_test(group):
    """is_qf, read off the injectivity fingerprint of R, equals the direct
    self-injectivity test of the regular module, the route it replaced."""
    answers = set()
    for ring in DIFFERENTIAL_RINGS[group]():
        qf = is_qf(ring)
        assert qf == is_injective(regular_module(ring)), ring.label
        answers.add(qf)
    if group in ("corpus", "drawn_7"):
        assert answers == {True, False}


def test_reports_find_no_i_witness(monkeypatch):
    """classify_report and verify_suite never look for an i-witness: only
    a reader of the i-profile's witnesses does."""
    kinds = []
    find_witness = profile_mod.find_witness

    def counted(ring, ideal, kind):
        kinds.append(kind)
        return find_witness(ring, ideal, kind)

    monkeypatch.setattr(profile_mod, "find_witness", counted)
    for name in ("z8", "t2f2", "f2xy_x2y2"):
        ring = load_ring(name)
        classify_report(ring)
        verify_suite(ring)
        assert "i" not in kinds and "p" in kinds
        rep = i_profile(ring)
        assert "i" not in kinds
        assert len(rep.witnesses) == rep.size
        assert kinds.count("i") == rep.size
        kinds.clear()


def test_super_qf_builds_no_factor_ring(monkeypatch):
    """is_super_qf, V6, V16 and the radical's own check ask their
    questions of R's modules: on Z/8 no ring is built."""
    import ringscope.ring as ring_mod

    ring = load_ring("z8")
    real = ring_mod.quotient_ring
    built = []

    def counted(base, ideal_gens, label=None):
        built.append((base is ring, tuple(map(tuple, ideal_gens))))
        return real(base, ideal_gens, label=label)

    monkeypatch.setattr(ring_mod, "quotient_ring", counted)
    assert is_super_qf(ring) == (True, None)
    assert verify_suite(ring).ok()
    assert built == []


def ideal_lattice(ideals):
    return build_lattice(list(range(len(ideals))),
                         leq=lambda a, b: ideals[b].contains_sub(ideals[a]))


@pytest.mark.parametrize("group", DIFFERENTIAL_RINGS)
def test_super_qf_matches_the_factor_rings(group):
    """is_super_qf gives the flag and certificate of the route that
    rebuilds every R/I.  On each QF ring that is not semisimple, V16's
    cond1 on the R-module R/Soc agrees with is_simple_artinian on the
    rebuilt ring R/Soc, and V6's lattice of the two-sided ideals holding
    Soc is that of the two-sided ideals of R/Soc."""
    for ring in DIFFERENTIAL_RINGS[group]():
        assert is_super_qf(ring) == super_qf_by_factor_rings(ring), ring.label
        if not is_qf(ring) or is_semisimple_ring(ring):
            continue
        soc = socle(regular_module(ring))
        factor = quotient_ring(ring, soc.gens.rows)[0]
        assert (socle_homogeneous(factor_module(ring, soc)[0])
                == is_simple_artinian(factor)), ring.label
        above = [i for i in two_sided_ideals(ring) if i.contains_sub(soc)]
        assert are_isomorphic(ideal_lattice(above),
                              ideal_lattice(two_sided_ideals(factor)))[0], \
            ring.label


@pytest.mark.parametrize("name", GUARD_RINGS)
def test_verify_suite_passes_past_the_old_filter_guard(name):
    """F2^5 (32 right ideals) and T3(F2) (40), which a filter guard of 30
    refused, pass every check of the suite that applies."""
    rep = verify_suite(corpus(name))
    assert rep.ok(), list(rep.lines())
    status = {e["id"]: e["status"] for e in rep.entries}
    assert status["V1"] == status["V2"] == "pass"


@pytest.mark.parametrize("entry", [classify_report, i_profile, p_profile,
                                   verify_suite])
def test_the_filter_guard_comes_before_the_lattice(monkeypatch, entry):
    """F2^9 has 512 right ideals, past the filter guard: each entry point
    that lists the linear filters refuses it from the count alone, before
    it builds the right-ideal lattice or the radical."""
    def refuse(ring):
        raise AssertionError("right-ideal lattice built past the guard")

    for name in ("ideals", "classify", "torsion"):
        monkeypatch.setattr(importlib.import_module(f"ringscope.{name}"),
                            "right_ideal_lattice", refuse)
    ring = product_ring([zmod(2)] * 9)
    with pytest.raises(BoundExceededError,
                       match="512 right ideals exceed the filter guard"):
        entry(ring)
