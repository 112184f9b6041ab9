from collections import Counter

import pytest

from polyco import decreasing
from polyco.branchings import (OVERLAPPING, PEIFFER, LocalBranching,
                               critical_branchings, local_branchings)
from polyco.core import Polygraph, Rule, all_words, parse_polygraph
from polyco.core import word_str
from polyco.decreasing import (PEIFFER_LEMMA, DecreasingDiagram,
                               _closability, _compatibility, _cut,
                               _peiffer_audit, audit_seeds,
                               check_context_closability,
                               check_context_compatibility,
                               check_decreasing, check_peiffer_decreasing,
                               check_strict, closure_cut, contexts_up_to,
                               decide_peiffer, find_decreasing, left_out,
                               peiffer_variants)
from polyco.engine import ExplorationBudget, ReductionGraph, explore
from polyco.fixtures import (braid, braid_qnf_map, convergent_braid,
                             two_letters)
from polyco.labelling import (FinitePosetOrder, Labelling, NaturalsOrder,
                              derived_qnf_map, label_path, step_key)

from conftest import A3, peiffer_witness, read_a_label_error


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
    assert audit.ok and audit.checked and not audit.counts
    assert sum(audit.detail["variants"].values()) == audit.checked == \
        len(audit)


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
    # a square that read a label error is unverified, any other UNDECIDED
    # one a violation
    unread = [r for r in undecided if read_a_label_error(r)]
    read = [r for r in undecided if not read_a_label_error(r)]
    assert audit.detail["variants"] and not audit.ok
    assert audit.counts == Counter(violation=len(read),
                                   unverified=len(unread))
    assert audit.checked == len(reports)
    # its first label error is at a five-letter word that no seed of four
    # letters reaches: no budget option left it out
    assert audit.firsts["unverified"] == (peiffer_witness(unread[0]), None)
    if read:
        assert audit.firsts["violation"] == (peiffer_witness(read[0]), None)
    assert sum(audit.detail["variants"].values()) + len(undecided) == \
        audit.checked


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
    assert rep.status == "violation"
    # each context's words in JSON form, "1" the empty one
    assert any(sum(len(u.split()) for u in v["context"] if u != "1") == 1
               for v in rep.detail["violations"])
    assert {"diagram": 0, "context": ["b", "1"]} in rep.detail["violations"]


def test_standard_qnf_map_is_context_compatible(ab_p, ab_g, ab_lab):
    b = _peiffer_on(ab_p, ("a", "a"))[0]
    report = decide_peiffer(ab_lab, ab_g, ab_p, b)
    rep = check_context_compatibility(ab_lab, ab_g, [report.diagram],
                                      ctx_bound=1)
    assert rep.ok, rep.witness


def test_braid_criticals_close_strictly(braid_p, braid_g, braid_lab):
    for b in critical_branchings(braid_p):
        d = find_decreasing(braid_lab, braid_g, b, depth=8, strict=True)
        assert d is not None
        ok, violations = check_strict(braid_lab, braid_g, d)
        assert ok, violations


@pytest.mark.parametrize("system, length, label", [
    (braid, 8, "qnf"), (lambda: parse_polygraph(A3), 7, "qnf"),
    (two_letters, 6, "qnf"), (convergent_braid, 7, "nf")],
    ids=["braid-8", "A3-7", "two_letters-6", "convergent_braid-7-nf"])
def test_found_diagrams_pass_check_decreasing(system, length, label):
    """Every diagram find_decreasing returns for a critical branching passes
    check_decreasing; one with its strict field set passes check_strict,
    and check_decreasing reads it exactly as check_strict does."""
    p = system()
    g = explore(p, all_words(p, length), ExplorationBudget(length))
    lab = (Labelling.nf(g) if label == "nf"
           else Labelling.qnf(derived_qnf_map(g)))
    for b in critical_branchings(p):
        d = find_decreasing(lab, g, b)
        assert d is not None and d.branching == b
        result = check_decreasing(lab, g, d)
        assert result[0], (b.first, b.second, result[1])
        if d.strict:
            assert result == check_strict(lab, g, d) == (True, [])
            assert not (d.g_dprime or d.h1 or d.f_dprime or d.h2)


def test_braid_criticals_stay_closable_in_context(braid_p, braid_g,
                                                  braid_lab):
    rep = check_context_closability(braid_lab, braid_g,
                                    critical_branchings(braid_p),
                                    ctx_bound=2)
    assert rep.ok, rep.witness
    assert rep.checked > len(critical_branchings(braid_p))


def test_context_closability_builds_no_geodesic_or_step_row(monkeypatch):
    """Under the derived map every whiskered critical branching of braid 8
    closes by the qnf geodesic lemma, decided from labels: the audit asks
    for no geodesic and stores no step row in the graph."""
    p = braid()
    crits = critical_branchings(p)
    g = explore(p, audit_seeds(p, crits, 8, 2, 6), ExplorationBudget(8))
    lab = Labelling.qnf(derived_qnf_map(g))
    calls = []
    geodesic = ReductionGraph.geodesic
    monkeypatch.setattr(ReductionGraph, "geodesic", lambda self, u, v: (
        calls.append((u, v)) or geodesic(self, u, v)))
    rows = set(dict.keys(g.out))
    audit = check_context_closability(lab, g, crits, ctx_bound=2)
    assert audit.ok and audit.checked == 68
    assert calls == [] and set(dict.keys(g.out)) == rows


@pytest.mark.parametrize("seeds, status", [("a", "violation"),
                                           ("bc", "unverified")])
def test_targets_mapped_to_two_forms_are_searched(seeds, status):
    """a => b and a => c leave a with two normal forms, each its own chosen
    form.  Explored from a, the class of b holds c, mapped elsewhere, and
    the search finds no closure; explored from b and c only, each class is
    mapped whole to its form, yet the targets' forms differ, so the
    branching is searched too, and a, never explored, leaves it
    unverified."""
    p = Polygraph("two_forms", ("a", "b", "c"),
                  (Rule("ab", ("a",), ("b",)), Rule("ac", ("a",), ("c",))))
    [b] = critical_branchings(p)
    g = explore(p, [(x,) for x in seeds], ExplorationBudget(1))
    rep = check_context_closability(Labelling.qnf(derived_qnf_map(g)), g,
                                    [b], ctx_bound=0)
    assert (rep.status, rep.checked) == (status, 1)


def test_context_closability_reads_truncation_as_unverified(braid_p):
    """A whiskered critical branching with no strict closure is a violation
    only where every word its closure may need is complete (closure_cut);
    elsewhere it is unverified, and its error names the first such word
    and the option that cut it (left_out).  Braid's whiskered criticals
    all close strictly in a complete region, so under a state cap each one
    left open meets a cut word: at its source, or past it."""
    g = explore(braid_p, all_words(braid_p, 7), ExplorationBudget(7, 200))
    crits = critical_branchings(braid_p)
    lab = Labelling.qnf(derived_qnf_map(g))
    rep = check_context_closability(lab, g, crits, ctx_bound=2)
    left_open = []
    for i, b in enumerate(crits):
        for u1, u2 in contexts_up_to(braid_p, 2):
            wb = LocalBranching(b.first.whisker(u1, u2),
                                b.second.whisker(u1, u2))
            if find_decreasing(lab, g, wb, strict=True) is None:
                left_open.append((i, u1, u2, wb.source, closure_cut(g, wb)))
    assert left_open and all(cut is not None for *_, cut in left_open)
    assert rep.counts == Counter(unverified=len(left_open))
    i, u1, u2, _, cut = left_open[0]
    assert (rep.status, rep.option) == ("unverified", "--max-states")
    assert rep.witness == {"branching": i,
                           "context": [word_str(u1), word_str(u2)],
                           "error": cut[0]}
    assert rep.detail["violations"] == []
    whys = Counter("left incomplete" if " is left incomplete by " in error
                   else "not explored" for *_, (error, _) in left_open)
    assert whys["left incomplete"] and whys["not explored"]
    assert {option for *_, (_, option) in left_open} == {"--max-states"}
    # the cut lies at the whiskered source, or past it at a word one of
    # its targets reaches
    cut_words = [left_out(g, source) == cut for *_, source, cut in left_open]
    assert set(cut_words) == {True, False}


def test_strictness_does_not_survive_whiskering(braid_p, braid_g,
                                                braid_lab):
    """A strict closure of the tstst overlap, whiskered by s on the left,
    fails the strictness check: the whiskered completion labels are no
    longer below the whiskered branching labels."""
    b = [c for c in critical_branchings(braid_p)
         if c.source == ("t", "s", "t", "s", "t")][0]
    d = find_decreasing(braid_lab, braid_g, b, depth=8, strict=True)
    sd = _cut(b, d.f_prime, d.g_prime)
    wb = LocalBranching(b.first.whisker(("s",), ()),
                        b.second.whisker(("s",), ()))
    whiskered = _cut(wb, sd.f_prime.whisker(("s",), ()),
                     sd.g_prime.whisker(("s",), ()))
    ok, _ = check_strict(braid_lab, braid_g, sd)
    assert ok
    ok_w, violations = check_strict(braid_lab, braid_g, whiskered)
    assert not ok_w and violations
    # conditions iii to v hold on its empty parts
    assert check_decreasing(braid_lab, braid_g, whiskered) == (
        ok_w, violations)


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
    assert rep.status == "violation"
    assert rep.checked == 68
    assert rep.counts == Counter(violation=1, unverified=24)
    first, option = rep.firsts["unverified"]
    assert set(first) == {"diagram", "context", "error"}
    assert first["diagram"] == 0 and first["context"] == ["s s", "1"]
    assert "s s t s t t s" in first["error"]
    assert option == "--max-word-len"


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
    assert sum(audit.counts.values()) == len(reports)
    unread = [r for r in reports if read_a_label_error(r)]
    assert audit.counts["unverified"] == len(unread)
    assert audit.firsts["unverified"] == (
        peiffer_witness(unread[0]),
        "--label-table" if table else "--max-word-len")
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
        assert rep.ok and not rep.counts and not rep.detail["violations"]
        assert rep.checked == len(crits) * contexts
    audit = _peiffer_audit(lab, g, p, 8)
    assert audit.ok and audit.checked and not audit.counts
    assert audit.detail == {"variants": Counter(peiffer=audit.checked)}
    # every square reads strict by its plain confluence
    reports = _peiffer_reports(lab, g, p, 8)
    assert all(r.strict and r.variant == "peiffer" for r in reports)


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
    assert (audit.status, audit.checked, audit.counts, audit.witness,
            audit.detail) == ("ok", 0, Counter(), None,
                              {"variants": Counter(),
                               "lemma": PEIFFER_LEMMA})


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
    assert rep.status == "violation" and rep.checked == 4
    assert rep.counts == Counter(violation=4)
    assert rep.detail["violations"] == [
        {"branching": i, "context": ["1", "1"]} for i in range(4)]
