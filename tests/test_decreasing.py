from collections import Counter

import pytest

from polyco import decreasing
from polyco.branchings import (OVERLAPPING, PEIFFER, LocalBranching,
                               critical_branchings, local_branchings)
from polyco.core import all_words
from polyco.decreasing import (DecreasingDiagram, _closability,
                               _compatibility, _peiffer_audit,
                               check_context_closability,
                               check_context_compatibility,
                               check_decreasing, check_peiffer_decreasing,
                               check_strict, contexts_up_to, decide_peiffer,
                               find_decreasing, peiffer_variants,
                               StrictDiagram)
from polyco.engine import ExplorationBudget, explore
from polyco.fixtures import braid, braid_qnf_map, convergent_braid
from polyco.labelling import (FinitePosetOrder, Labelling, NaturalsOrder,
                              derived_qnf_map, label_path, step_key)


def _peiffer_on(p, word):
    return [b for b in local_branchings(p, word)
            if b.kind == PEIFFER]


def test_peiffer_square_on_aa_needs_reversed_rules(ab_p, ab_g, ab_lab):
    """The naive Peiffer confluence of the two alpha steps on aa carries
    labels 1,1 on its sides and 2,2 on its completions, so it is not
    decreasing; replaying the square with the reversed rule closes it with
    labels 0,0."""
    bs = _peiffer_on(ab_p, ("a", "a"))
    assert len(bs) == 1
    rep = decide_peiffer(ab_lab, ab_g, ab_p, bs[0])
    assert rep.status == "PASS"
    assert rep.variant != "peiffer" and rep.strict
    naive = [a for a in rep.attempts if a["variant"] == "peiffer"]
    assert naive and naive[0]["labels"]["sides"] == [1, 1]
    assert naive[0]["labels"]["completions"] == [[2], [2]]
    assert list(label_path(ab_lab, ab_g, rep.diagram.f_prime)) == [0]
    assert list(label_path(ab_lab, ab_g, rep.diagram.g_prime)) == [0]


def test_all_braid_peiffer_branchings_pass(braid_p, braid_g, braid_lab):
    audit = check_peiffer_decreasing(braid_lab, braid_g, braid_p, 6)
    assert audit.ok and audit.checked and not audit.undecided
    assert sum(audit.variants.values()) == audit.checked == len(audit)


def test_singleton_labels_close_braid_branchings_non_strictly(braid_p,
                                                              braid_g):
    """Under one label nothing reads strict, so find_decreasing passes over
    every strict candidate and cuts the first completion pair that reads
    decreasing: a DecreasingDiagram that check_decreasing accepts."""
    lab = Labelling.singleton()
    crits = critical_branchings(braid_p)
    assert len(crits) == 4
    for b in crits:
        assert find_decreasing(lab, braid_g, b, strict=True) is None
        d = find_decreasing(lab, braid_g, b)
        assert isinstance(d, DecreasingDiagram) and d.branching == b
        ok, violations = check_decreasing(lab, braid_g, d)
        assert ok, violations


def _peiffer_reports(lab, g, p, bound):
    """decide_peiffer on every Peiffer branching on words up to the bound,
    in the order of local_branchings, which the audit enumerates."""
    return [decide_peiffer(lab, g, p, b) for u in all_words(p, bound)
            for b in local_branchings(p, u) if b.kind == PEIFFER]


def test_peiffer_audit_beyond_explored_words_is_undecided(lafont_g):
    p, n = lafont_g.polygraph, lafont_g.budget.max_word_len
    lab = Labelling.qnf(derived_qnf_map(lafont_g))
    audit = check_peiffer_decreasing(lab, lafont_g, p, n + 1)
    reports = _peiffer_reports(lab, lafont_g, p, n + 1)
    undecided = [r for r in reports if r.status == "UNDECIDED"]
    beyond = [r for r in reports if len(r.branching.source) > n]
    assert beyond and [r.branching for r in beyond] == [
        b for u in all_words(p, n + 1) if len(u) > n
        for b in local_branchings(p, u) if b.kind == PEIFFER]
    assert all(r.status == "UNDECIDED" for r in beyond)
    assert all(a.get("error") for r in beyond for a in r.attempts)
    assert audit.variants and not audit.ok
    assert audit.undecided == len(undecided) and audit.checked == len(reports)
    assert audit.first_undecided == undecided[0]
    assert sum(audit.variants.values()) + audit.undecided == audit.checked


def test_peiffer_variants_reject_other_branchings(braid_p):
    crit = critical_branchings(braid_p)[0]
    f, h = crit.first.whisker(("t",), ()), crit.second.whisker(("t",), ())
    assert LocalBranching(f, h).kind == OVERLAPPING
    for b in (LocalBranching(f, f), LocalBranching(f, h),
              LocalBranching(h, f)):
        with pytest.raises(ValueError, match="not a Peiffer branching"):
            list(peiffer_variants(braid_p, b))


def test_alternate_qnf_map_fails_in_context(ab_p, ab_g, ab_alt_lab):
    """Sending the length-3 class to bbb instead of aaa gives a perfectly
    valid labelling on the branching itself, but whiskering by one letter
    breaks the decreasingness of its diagram."""
    b = _peiffer_on(ab_p, ("a", "a"))[0]
    d = find_decreasing(ab_alt_lab, ab_g, b, depth=6)
    assert d is not None
    ok, _ = check_decreasing(ab_alt_lab, ab_g, d)
    assert ok
    rep = check_context_compatibility(ab_alt_lab, ab_g, [d], ctx_bound=1)
    assert not rep.ok
    assert any(sum(len(u) for u in v["context"]) == 1
               for v in rep.violations)
    assert {"diagram": 0, "context": (("b",), ())} in rep.violations


def test_standard_qnf_map_is_context_compatible(ab_p, ab_g, ab_lab):
    b = _peiffer_on(ab_p, ("a", "a"))[0]
    report = decide_peiffer(ab_lab, ab_g, ab_p, b)
    rep = check_context_compatibility(ab_lab, ab_g, [report.diagram],
                                      ctx_bound=1)
    assert rep.ok, rep.violations


def test_braid_criticals_close_strictly(braid_p, braid_g, braid_lab):
    for b in critical_branchings(braid_p):
        d = find_decreasing(braid_lab, braid_g, b, depth=8, strict=True)
        assert d is not None
        ok, violations = check_strict(braid_lab, braid_g, d)
        assert ok, violations


def test_braid_criticals_stay_closable_in_context(braid_p, braid_g,
                                                  braid_lab):
    rep = check_context_closability(braid_lab, braid_g,
                                    critical_branchings(braid_p),
                                    ctx_bound=2)
    assert rep.ok, rep.violations or rep.unverified
    assert rep.checked > len(critical_branchings(braid_p))


def test_context_closability_reads_truncation_as_unverified(braid_p):
    """A whiskered critical branching with no strict closure is a violation
    only at a complete word; elsewhere it is unverified, and its error
    names the word and the option that left it out."""
    g = explore(braid_p, all_words(braid_p, 7), ExplorationBudget(7, 200))
    crits = critical_branchings(braid_p)
    rep = check_context_closability(Labelling.qnf(derived_qnf_map(g)), g,
                                    crits, ctx_bound=2)
    assert rep.violations and rep.unverified and not rep.ok

    def source(record):
        u1, u2 = record["context"]
        return u1 + crits[record["branching"]].source + u2

    assert all(g.is_complete(source(v)) for v in rep.violations)
    errors = Counter()
    for record in rep.unverified:
        u = source(record)
        assert not g.is_complete(u)
        why = (f"is left incomplete by {g.cut_by(u)}" if u in g.vertices
               else "was not explored within --max-states")
        assert record["error"] == f"{' '.join(u)} {why}"
        errors[why] += 1
    assert errors["is left incomplete by --max-states"] and \
        errors["was not explored within --max-states"]


def test_strictness_does_not_survive_whiskering(braid_p, braid_g,
                                                braid_lab):
    """A strict closure of the tstst overlap, whiskered by s on the left,
    fails the strictness check: the whiskered completion labels are no
    longer below the whiskered branching labels."""
    b = [c for c in critical_branchings(braid_p)
         if c.source == ("t", "s", "t", "s", "t")][0]
    d = find_decreasing(braid_lab, braid_g, b, depth=8, strict=True)
    sd = StrictDiagram(b, d.f_prime, d.g_prime)
    wb = LocalBranching(b.first.whisker(("s",), ()),
                        b.second.whisker(("s",), ()))
    whiskered = StrictDiagram(wb, sd.f_prime.whisker(("s",), ()),
                              sd.g_prime.whisker(("s",), ()))
    ok, _ = check_strict(braid_lab, braid_g, sd)
    assert ok
    ok_w, violations = check_strict(braid_lab, braid_g, whiskered)
    assert not ok_w and violations


@pytest.fixture(scope="module")
def braid6(braid_p):
    """Braid explored to length 6 with the qnf map of the same length: the
    whiskered completions of the critical diagrams leave both."""
    budget = ExplorationBudget(max_word_len=6, max_states=100000,
                               max_depth=200)
    g = explore(braid_p, all_words(braid_p, 6), budget=budget)
    return g, Labelling.qnf(braid_qnf_map(max_len=6))


def test_context_compatibility_reports_truncation_as_unverified(braid_p,
                                                                braid6):
    g, lab = braid6
    diagrams = [find_decreasing(lab, g, b)
                for b in critical_branchings(braid_p)]
    rep = check_context_compatibility(lab, g, diagrams, ctx_bound=2)
    assert not rep.ok
    assert rep.checked == 68
    assert len(rep.violations) == 1 and len(rep.unverified) == 24
    first = rep.unverified[0]
    assert set(first) == {"diagram", "context", "error"}
    assert first["diagram"] == 0 and first["context"] == (("s", "s"), ())
    assert "s s t s t t s" in first["error"]


@pytest.mark.parametrize("table", [False, True])
def test_one_peiffer_audit_labels_each_word_or_key_once(ab_p, monkeypatch,
                                                        table):
    """One audit call labels each word, or each step key under a table
    labelling, at most once, also when labelling it fails: the words past
    the explored length have no quasi-normal form or table entry.  The
    failures are reported as their messages, unquoted."""
    g = explore(ab_p, all_words(ab_p, 3), ExplorationBudget(3))
    lab = (Labelling.from_table({step_key(s): 0 for steps in g.out.values()
                                 for s in steps}, FinitePosetOrder([0], []))
           if table else Labelling.qnf(derived_qnf_map(g)))
    calls = Counter()
    for name in ("label_key", "label_target"):
        def counted(lab, *args, fn=getattr(decreasing, name)):
            calls[args[-1]] += 1
            return fn(lab, *args)
        monkeypatch.setattr(decreasing, name, counted)
    audit = check_peiffer_decreasing(lab, g, ab_p, 5)
    assert calls and max(calls.values()) == 1
    # the audit reports its first UNDECIDED branching, and decides every
    # other as decide_peiffer does
    reports = [r for r in _peiffer_reports(lab, g, ab_p, 5)
               if r.status == "UNDECIDED"]
    assert audit.undecided == len(reports)
    assert audit.first_undecided == reports[0]
    errors = {a["error"] for r in reports for a in r.attempts
              if "error" in a}
    assert (("no table entry for step 1|alpha|a a a" if table
             else "no quasi-normal form chosen for b a a a") in errors)
    assert not any(e.startswith("'") for e in errors)


def test_nf_enumerations_find_no_failure_on_convergent_braid():
    """The whiskering lemma the audits rest on under nf labels, against the
    enumerations they skip: on convergent_braid explored to 8, every
    context up to 3 of every critical branching and diagram passes both
    context audits, and every Peiffer square up to length 8 reads strict
    by its plain confluence."""
    p = convergent_braid()
    g = explore(p, all_words(p, 8), ExplorationBudget(8))
    lab = Labelling.nf(g)
    crits = critical_branchings(p)
    diagrams = [find_decreasing(lab, g, b) for b in crits]
    contexts = len(list(contexts_up_to(p, 3)))
    for rep in (_closability(lab, g, crits, 3),
                _compatibility(lab, g, diagrams, 3)):
        assert rep.ok and not rep.violations and not rep.unverified
        assert rep.checked == len(crits) * contexts
    audit = _peiffer_audit(lab, g, p, 8)
    assert audit.ok and audit.checked and not audit.undecided
    assert audit.variants == Counter(peiffer=audit.checked)
    assert audit.strict == audit.checked


@pytest.mark.parametrize("kind", ["nf", "singleton"])
def test_whisker_stable_audits_read_the_empty_context_only(kind):
    """Under nf and singleton labels the context audits check each item at
    the empty context only, and the Peiffer audit enumerates nothing."""
    p = convergent_braid()
    g = explore(p, all_words(p, 6), ExplorationBudget(6))
    lab = Labelling.nf(g) if kind == "nf" else Labelling.singleton()
    assert lab.whisker_stable
    crits = critical_branchings(p)
    diagrams = [d for d in (find_decreasing(lab, g, b) for b in crits) if d]
    for rep, items, enumerated in (
            (check_context_closability(lab, g, crits, 3), crits,
             _closability(lab, g, crits, 0)),
            (check_context_compatibility(lab, g, diagrams, 3), diagrams,
             _compatibility(lab, g, diagrams, 0))):
        assert rep == enumerated and rep.checked == len(items)
    audit = check_peiffer_decreasing(lab, g, p, 8)
    assert (audit.ok, audit.checked, audit.variants, audit.undecided,
            audit.first_undecided) == (True, 0, Counter(), 0, None)


def test_qnf_and_table_labels_are_not_whisker_stable(braid_lab):
    assert not braid_lab.whisker_stable
    assert not Labelling.from_table({}, NaturalsOrder()).whisker_stable


def test_singleton_context_report_lists_braid_criticals_at_empty_context():
    """No critical branching of braid closes strictly under one label: the
    context audit reports each of the four at the empty context, the only
    one it reads."""
    p = braid()
    g = explore(p, all_words(p, 7), ExplorationBudget(7))
    rep = check_context_closability(Labelling.singleton(), g,
                                    critical_branchings(p), ctx_bound=2)
    assert not rep.ok and rep.checked == 4 and not rep.unverified
    assert rep.violations == [{"branching": i, "context": ((), ())}
                              for i in range(4)]
