import contextlib
import io
import json

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polyco import serialize_polygraph
from polyco.cli import build_parser, main
from polyco.fixtures import abstract_states, convergent_braid

from conftest import A3, B3

BRAID = """\
polygraph braid
gens s t
rule alpha : s t s => t s t
rule beta : t s t => s t s
"""

CONVERGENT = """\
polygraph upsilon
gens s t a
rule r1 : s t s => a
rule r2 : t s t => a
rule r3 : s a => a t
rule r4 : t a => a s
"""


NO_FDT = """\
polygraph no_fdt
gens a b c d d'
rule r1 : a b => a
rule r2 : a c => d a
rule r3 : d a => d' a
rule r4 : d' a => a c
"""

TWO_LETTERS = """\
polygraph two_letters
gens a b
rule alpha : a => b
rule beta : b => a
"""


@pytest.fixture()
def braid_file(tmp_path):
    f = tmp_path / "braid.poly"
    f.write_text(BRAID)
    return str(f)


@pytest.fixture()
def convergent_file(tmp_path):
    f = tmp_path / "upsilon.poly"
    f.write_text(CONVERGENT)
    return str(f)


@pytest.fixture()
def convergent_braid_file(tmp_path):
    f = tmp_path / "convergent_braid.poly"
    f.write_text(serialize_polygraph(convergent_braid()))
    return str(f)


def test_analyze_text(braid_file, capsys):
    code = main(["analyze", braid_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "critical" in out and "4" in out


def test_analyze_json(braid_file, capsys):
    code = main(["analyze", braid_file, "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["critical_branchings"]) == 4
    assert data["classification"] == "quasi_terminating_not_terminating"
    assert data["elementary_loop_classes"] == 1


def test_analyze_truncated_budget_is_inconclusive(braid_file, capsys):
    code = main(["analyze", braid_file, "--max-states", "3"])
    assert code == 3


def test_analyze_reads_the_loops_of_a_state_cut_graph_as_incomplete(
        braid_file, capsys):
    """analyze reads the loop audit: braid 8 cut at 10 states, none of its
    words complete, has no loop count and its loops are incomplete."""
    argv = ["analyze", braid_file, "--max-word-len", "8", "--max-states", "10"]
    assert main(argv + ["--format", "json"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert (data["elementary_loop_classes"], data["loops_complete"]) == (
        None, False)
    assert main(argv) == 3
    assert "elementary loop classes: None (incomplete)" in \
        capsys.readouterr().out.splitlines()


def test_complete_certifies_braid(braid_file, capsys):
    code = main(["complete", braid_file, "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "CERTIFIED"
    assert len(data["cells"]) == 5


def test_complete_convergent_with_nf_labels(convergent_file, capsys):
    code = main(["complete", convergent_file, "--label", "nf"])
    out = capsys.readouterr().out
    assert code == 0
    assert "CERTIFIED" in out and "D6" in out


@pytest.mark.parametrize("length", [4, 5])
def test_nf_audits_state_the_whiskering_lemma(convergent_braid_file, capsys,
                                              length):
    """Under nf labels the context audits read the empty context and the
    Peiffer audit no square; the JSON states the lemma of each audit, and
    the text names its premise."""
    argv = [convergent_braid_file, "--label", "nf",
            "--max-word-len", str(length)]
    assert main(["check-decreasing", *argv, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["context"]["checked"] == 6 and data["context"]["lemma"]
    assert data["peiffer_ok"] and data["peiffer_lemma"]
    assert main(["complete", *argv, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "CERTIFIED"
    assert data["audits"]["context"]["lemma"] == (
        "the contexts past the empty one follow by whiskering")
    assert data["audits"]["peiffer"]["lemma"] == (
        "every square closes by its plain confluence")
    assert data["audits"]["peiffer"]["checked"] == 0
    assert main(["complete", *argv]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "whiskering lemma: the audits follow from the empty context; under "
        "nf labels this rests on termination, which is checked on the "
        "explored words only")


def test_qnf_audits_state_no_lemma(braid_file, capsys):
    assert main(["complete", braid_file, "--format", "json"]) == 0
    audits = json.loads(capsys.readouterr().out)["audits"]
    assert "lemma" not in audits["context"]
    assert "lemma" not in audits["peiffer"]


def test_check_decreasing_reports_context_fragility(braid_file, capsys):
    # the fixed completion diagrams do not stay decreasing under every
    # whisker, so the literal re-check is inconclusive by design
    code = main(["check-decreasing", braid_file, "--format", "json"])
    assert code == 3
    data = json.loads(capsys.readouterr().out)
    assert data["peiffer_ok"]
    assert all(b["status"] == "strict" for b in data["branchings"])
    assert not data["context"]["ok"]
    assert data["context"]["violations"]


NO_FDT_WITNESS = ("witness: source a c a c, first 1|r2|a c, second "
                  "a c|r2|1, variant peiffer, sides (2, 2), completions "
                  "((4), (4))")


def test_peiffer_failure_names_the_first_undecided_branching(tmp_path,
                                                             capsys):
    poly = tmp_path / "no_fdt.poly"
    poly.write_text(NO_FDT)
    assert main(["complete", str(poly), "--max-word-len", "5"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert "verdict: PARTIAL" in lines
    # of its 2,266 UNDECIDED squares, 2,250 read a label error past the
    # explored words and are unverified; the other 16 are violations
    assert ("audit peiffer: VIOLATION: 16 violation, 2250 unverified of "
            f"2656; {NO_FDT_WITNESS}") in lines
    # the JSON of complete gives the same branching and what it read
    assert main(["complete", str(poly), "--max-word-len", "5",
                 "--format", "json"]) == 3
    peiffer = json.loads(capsys.readouterr().out)["audits"]["peiffer"]
    assert peiffer["witness"] == {
        "source": "a c a c", "first": "1|r2|a c", "second": "a c|r2|1",
        "variant": "peiffer", "sides": [2, 2], "completions": [[4], [4]]}
    assert (peiffer["status"], peiffer["option"]) == ("violation", None)
    assert (peiffer["checked"], peiffer["counts"]) == (
        2656, {"ok": 390, "violation": 16, "unverified": 2250})
    check = ["check-decreasing", str(poly), "--max-word-len", "5",
             "--peiffer-len-bound", "5"]
    assert main(check) == 3
    assert capsys.readouterr().out.splitlines()[-1] == (
        "Peiffer decreasing up to length 5: VIOLATION: 16 violation of "
        f"256; {NO_FDT_WITNESS}")
    # the JSON keeps only whether every Peiffer branching passed
    assert main(check + ["--format", "json"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"branchings", "context", "peiffer_ok", "budget",
                         "explored"}
    assert data["peiffer_ok"] is False


def test_peiffer_failure_names_the_label_error(tmp_path, capsys):
    """Words past the explored length have no quasi-normal form, so the
    first variant of the first branching there cannot be labelled."""
    poly = tmp_path / "two_letters.poly"
    poly.write_text(TWO_LETTERS)
    assert main(["check-decreasing", str(poly), "--max-word-len", "3",
                 "--peiffer-len-bound", "4"]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == (
        "Peiffer decreasing up to length 4: UNVERIFIED under --max-word-len: "
        "96 unverified of 124; witness: source a a a a, first "
        "1|alpha|a a a, second a|alpha|a a, variant peiffer: "
        "no quasi-normal form chosen for b a a a")


def test_complete_json_counts_the_peiffer_branchings(tmp_path, capsys):
    """The JSON of complete counts the Peiffer branchings rather than
    listing them, so its size does not grow with them: 165,204 on
    abstract_states up to length 6, 161,280 of them UNDECIDED because
    their words were not explored."""
    poly = tmp_path / "abstract_states.poly"
    poly.write_text(serialize_polygraph(abstract_states()))
    assert main(["complete", str(poly), "--max-word-len", "4",
                 "--format", "json"]) == 3
    out = capsys.readouterr().out
    assert len(out.encode()) < 10_000
    peiffer = json.loads(out)["audits"]["peiffer"]
    # every UNDECIDED one read a label error: unverified, not a violation
    assert (peiffer["ok"], peiffer["checked"]) == (False, 165204)
    assert peiffer["counts"] == {"ok": 165204 - 161280, "violation": 0,
                                 "unverified": 161280}
    assert sum(peiffer["variants"].values()) == 165204 - 161280
    assert (peiffer["status"], peiffer["option"]) == ("unverified",
                                                      "--max-word-len")
    assert peiffer["witness"] == {
        "source": "a a a a a", "first": "1|ab|a a a a",
        "second": "a|ab|a a a", "variant": "peiffer",
        "error": "no quasi-normal form chosen for b a a a a"}


def test_check_decreasing_json_counts_unverified_contexts(braid_file,
                                                          capsys):
    """At length 6 some whiskered completions leave the explored words:
    beside 3 violations, 24 contexts are unverified, and the JSON counts
    both, lists the violations and gives the first as the witness of the
    audit, a violation."""
    assert main(["check-decreasing", braid_file, "--max-word-len", "6",
                 "--format", "json"]) == 3
    ctx = json.loads(capsys.readouterr().out)["context"]
    assert ctx["ok"] is False and len(ctx["violations"]) == 3
    assert (ctx["status"], ctx["checked"], ctx["counts"]) == (
        "violation", 68, {"ok": 41, "violation": 3, "unverified": 24})
    assert ctx["witness"] == ctx["violations"][0] == {
        "diagram": 0, "context": ["t", "1"]}
    assert ctx["option"] is None


@pytest.mark.parametrize("length", [5, 6])
def test_failed_context_audit_text_names_its_first_witness(braid_file,
                                                           capsys, length):
    """The text of a failed context audit names its status, the option
    that governs it when unverified, its counts and its first witness, as
    the JSON gives them; check-decreasing and complete alike.  With no
    violation (braid at length 5: 56 unverified contexts) the witness is
    the first unverified context with its error.  complete reads a
    whiskered critical branching with no strict closure at a word longer
    than the length bound as unverified: every one of its contexts at
    lengths 5 and 6."""
    argv = ["check-decreasing", braid_file, "--max-word-len", str(length)]
    assert main(argv) == 3
    line = next(x for x in capsys.readouterr().out.splitlines()
                if x.startswith("context compatibility"))
    assert main(argv + ["--format", "json"]) == 3
    ctx = json.loads(capsys.readouterr().out)["context"]
    if length == 5:
        assert ctx["violations"] == [] and ctx["counts"]["unverified"] == 56
        error = "no quasi-normal form chosen for s t s t t s"
        assert ctx["witness"] == {
            "diagram": 0, "context": ["s", "1"], "error": error}
        assert line == (
            "context compatibility up to bound 2: UNVERIFIED under "
            "--max-word-len: 56 unverified of 68; witness: diagram 0, "
            f"context (s, 1): {error}")
    else:
        assert ctx["witness"] == {"diagram": 0, "context": ["t", "1"]}
        assert line == ("context compatibility up to bound 2: VIOLATION: "
                        "3 violation, 24 unverified of 68; witness: "
                        "diagram 0, context (t, 1)")
    argv[0] = "complete"
    assert main(argv) == 3
    line = next(x for x in capsys.readouterr().out.splitlines()
                if x.startswith("audit context"))
    assert main(argv + ["--format", "json"]) == 3
    ctx = json.loads(capsys.readouterr().out)["audits"]["context"]
    left = {5: "s", 6: "s s"}[length]
    count = {5: 56, 6: 24}[length]
    error = f"{left} s t s t s is longer than --max-word-len"
    assert ctx["violations"] == [] and ctx["counts"]["unverified"] == count
    assert (ctx["status"], ctx["option"]) == ("unverified", "--max-word-len")
    assert ctx["witness"] == {
        "branching": 0, "context": [left, "1"], "error": error}
    assert line == (f"audit context: UNVERIFIED under --max-word-len: "
                    f"{count} unverified of 68; witness: branching 0, "
                    f"context ({left}, 1): {error}")


def test_loop_audit_names_the_budget_option_it_hit(braid_file, capsys):
    """A word the state cap left incomplete hides the cycles through the
    words it kept out: the loop audit is unverified and names the word
    and the option, in text and in JSON.  It checks each of the 25 cut
    words, and the 23 seeds the cap refused as one check."""
    argv = ["complete", braid_file, "--max-word-len", "8",
            "--max-states", "120"]
    assert main(argv) == 3
    assert ("audit loops: UNVERIFIED under --max-states: 26 unverified of "
            "26; witness: word t s t s t s: on a cycle, left incomplete by "
            "--max-states") in capsys.readouterr().out.splitlines()
    assert main(argv + ["--format", "json"]) == 3
    loops = json.loads(capsys.readouterr().out)["audits"]["loops"]
    assert loops == {
        "status": "unverified", "ok": False, "checked": 26,
        "counts": {"ok": 0, "violation": 0, "unverified": 26},
        "witness": {"word": "t s t s t s",
                    "error": "on a cycle, left incomplete by --max-states"},
        "option": "--max-states", "complete": False}


I2_5 = """\
polygraph I2_5
gens a b
rule r1 : a b a b a => b a b a b
rule r2 : b a b a b => a b a b a
"""


@pytest.mark.parametrize("text, cells, left_out", [
    (B3, 16, ["a b a b a b a", "b a b a b a b"]),
    (I2_5, 2, ["a b a b a b a b a", "a b a b a b a", "a b a b a b a b",
               "b a b a b a b a", "b a b a b a b a b", "b a b a b a b"])],
    ids=["B3", "I2_5"])
def test_a_critical_source_past_the_cap_is_unverified(tmp_path, capsys,
                                                      text, cells, left_out):
    """At --max-word-len 6, B3 and I2(5) have critical branchings on words
    of 7 to 9 letters.  complete gives them no cell and is PARTIAL, its
    strictness and context audits naming the word and the option;
    check-decreasing lists them unverified.  Neither exits 4."""
    poly = tmp_path / "p.poly"
    poly.write_text(text)
    argv = [str(poly), "--max-word-len", "6"]
    assert main(["complete", *argv, "--format", "json"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "PARTIAL"
    assert sum(c["kind"] == "confluence"
               for c in data["cells"].values()) == cells
    strict = data["audits"]["strict"]
    assert (strict["status"], strict["option"]) == ("unverified",
                                                    "--max-word-len")
    assert strict["counts"]["unverified"] == len(left_out)
    assert strict["witness"]["error"] == (
        f"{left_out[0]} is longer than --max-word-len")
    context = data["audits"]["context"]
    assert (context["status"], context["option"]) == ("unverified",
                                                      "--max-word-len")
    assert context["witness"]["error"].endswith(
        " is longer than --max-word-len")
    assert main(["check-decreasing", *argv, "--format", "json"]) == 3
    rows = json.loads(capsys.readouterr().out)["branchings"]
    unverified = [r for r in rows if r["status"] == "unverified"]
    assert [r["source"] for r in unverified] == left_out
    assert all(r["error"] == f"{r['source']} is longer than --max-word-len"
               for r in unverified)
    assert len(rows) - len(unverified) == cells


def test_a_critical_source_the_states_cap_cut_is_unverified(braid_file,
                                                            capsys):
    """With --max-states below the number of words the audits label, the
    critical sources are explored first but their steps' targets are not:
    the run is PARTIAL and names the option, rather than a failed search."""
    argv = ["complete", braid_file, "--max-word-len", "8",
            "--max-states", "10", "--format", "json"]
    assert main(argv) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "PARTIAL" and not data["cells"]
    assert data["explored"] == {"seeds": 143, "words": 10}
    assert data["audits"]["context"]["witness"] == {
        "branching": 0, "context": ["1", "1"],
        "error": "s t s t s is left incomplete by --max-states"}
    assert {a["status"] for a in data["audits"].values()} == {"unverified"}
    assert {a["option"] for a in data["audits"].values()} == {"--max-states"}


@pytest.mark.parametrize("text, states", [
    (BRAID, 50), (BRAID, 100), (BRAID, 200), (A3, 1500)],
    ids=["braid-50", "braid-100", "braid-200", "A3-1500"])
def test_a_state_cap_reads_as_no_context_violation(tmp_path, capsys, text,
                                                   states):
    """A whiskered critical branching whose strict closure needs a word
    the state cap cut is unverified, not a violation: braid and A3 at
    length 8 close every one strictly at the default budget, and under
    these caps each run is PARTIAL, exits 3 and names --max-states."""
    poly = tmp_path / "p.poly"
    poly.write_text(text)
    argv = ["complete", str(poly), "--max-word-len", "8",
            "--max-states", str(states), "--format", "json"]
    assert main(argv) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "PARTIAL"
    ctx = data["audits"]["context"]
    assert ctx["violations"] == [] and ctx["counts"]["violation"] == 0
    assert (ctx["status"], ctx["option"]) == ("unverified", "--max-states")


CTXCYC = """\
polygraph ctxcyc
gens x a b y
rule r1 : x x x x a => x x x x b
rule r2 : b y y y y => a y y y y
"""


@pytest.mark.parametrize("text, options", [
    (BRAID, ("--max-word-len", "8", "--max-states", "10")),
    (CTXCYC, ("--max-states", "100"))], ids=["braid-8", "ctxcyc"])
def test_a_state_cap_that_cut_the_loop_audit_is_named(tmp_path, capsys,
                                                      text, options):
    """The loop audit is unverified when the state cap cut an explored
    word or refused a seed: braid 8 at 10 states has none of its 10 words
    complete, and ctxcyc at 100 states explores 100 of its 5,461 seeds.
    Both are PARTIAL, exit 3 and name --max-states."""
    poly = tmp_path / "p.poly"
    poly.write_text(text)
    argv = ["complete", str(poly), *options]
    assert main(argv) == 3
    lines = capsys.readouterr().out.splitlines()
    assert "verdict: PARTIAL" in lines
    assert any(line.startswith("audit loops: UNVERIFIED under --max-states: ")
               for line in lines)
    assert main(argv + ["--format", "json"]) == 3
    loops = json.loads(capsys.readouterr().out)["audits"]["loops"]
    assert (loops["status"], loops["option"], loops["complete"]) == (
        "unverified", "--max-states", False)
    if text == CTXCYC:
        # the refused seeds are one check, witnessed by the first of them
        assert (loops["checked"], loops["witness"]) == (1, {
            "word": "x x y y",
            "error": "5361 seeds not explored within --max-states"})


def test_complete_and_check_decreasing_state_their_region(braid_file,
                                                          capsys):
    """Both audited commands give the number of seeds and of explored
    words, as a text line and a JSON key; braid 8 and braid 12 explore the
    same 201 words from 143 seeds."""
    for n in ("8", "12"):
        for command in ("complete", "check-decreasing"):
            argv = [command, braid_file, "--max-word-len", n]
            main(argv)
            assert "explored: 143 seeds, 201 words" in \
                capsys.readouterr().out.splitlines()
            main(argv + ["--format", "json"])
            assert json.loads(capsys.readouterr().out)["explored"] == {
                "seeds": 143, "words": 201}


# the presentations of the monotonicity test, each with its label option
MONOTONE = {"braid": (BRAID, ()),
            "convergent_braid": (CONVERGENT, ("--label", "nf")),
            "two_letters": (TWO_LETTERS, ()),
            "A3": (A3, ())}
CAPS = ("--max-word-len", "--max-states", "--max-depth")


@pytest.fixture(scope="module")
def complete_at(tmp_path_factory):
    """The exit code and text of ``complete`` on a presentation of
    MONOTONE at a word length, each run once."""
    workdir = tmp_path_factory.mktemp("monotone")
    runs = {}

    def run(system, n):
        if (system, n) not in runs:
            text, options = MONOTONE[system]
            poly = workdir / f"{system}.poly"
            poly.write_text(text)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["complete", str(poly), *options,
                             "--max-word-len", str(n)])
            runs[system, n] = code, out.getvalue()
        return runs[system, n]
    return run


@settings(max_examples=40, deadline=None, derandomize=True)
@given(system=st.sampled_from(sorted(MONOTONE)), n=st.integers(1, 10),
       more=st.integers(1, 9))
def test_certified_stays_certified_at_a_longer_cap(complete_at, system, n,
                                                   more):
    """Raising --max-word-len up to 10 never turns CERTIFIED into PARTIAL,
    unless the longer run names a cap it hit."""
    code, _ = complete_at(system, n)
    assume(code == 0)
    code, text = complete_at(system, min(n + more, 10))
    assert code == 0 or any(cap in text for cap in CAPS), text


def test_a_strict_closure_past_the_search_depth_certifies_a3(tmp_path,
                                                            capsys):
    """At --ctx-bound 3 the whiskered critical branchings of A3 include
    branching 12 in context (c c b, 1), whose targets lie 9 steps from
    their chosen quasi-normal form: its geodesics close it strictly, past
    the 8 steps that find_decreasing searches, and the run is CERTIFIED
    with the homology of the braid group B4."""
    poly, cells = tmp_path / "A3.poly", tmp_path / "cells.txt"
    poly.write_text(A3)
    code = main(["complete", str(poly), "--max-word-len", "8",
                 "--ctx-bound", "3", "--peiffer-len-bound", "7",
                 "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert (code, data["verdict"]) == (0, "CERTIFIED")
    assert data["audits"]["context"]["checked"] == 2272
    cells.write_text("".join(f"cell {name} : {c['source']} => "
                             f"{c['target']}\n"
                             for name, c in data["cells"].items()))
    assert main(["homology", str(poly), "--cells", str(cells)]) == 0
    assert "H2 = Z/2" in capsys.readouterr().out.splitlines()


# confluent and terminating: x y z closes only by x y z -> A z -> p1 -> ...
# -> p9 -> q against x y z -> x B -> q, a strict closure of 10 steps
LONGJOIN = ("polygraph longjoin\n"
            "gens x y z A B p1 p2 p3 p4 p5 p6 p7 p8 p9 q\n"
            "rule r1 : x y => A\nrule r2 : y z => B\nrule r3 : A z => p1\n"
            + "".join(f"rule s{i} : p{i} => p{i + 1}\n" for i in range(1, 9))
            + "rule s9 : p9 => q\nrule rb : x B => q\n")


@pytest.mark.parametrize("label", ["qnf", "nf"])
def test_a_strict_closure_past_the_search_depth_certifies_longjoin(
        tmp_path, capsys, label):
    """The one critical branching of longjoin closes only strictly, by a
    completion of 10 steps, past the depth of 8 that bounds the general
    diagram search: complete is CERTIFIED with one confluence cell whose
    first side has 11 steps, H1 = Z^3 and H2 = 0, and check-decreasing
    reads the branching strict."""
    poly, cells = tmp_path / "longjoin.poly", tmp_path / "cells.txt"
    poly.write_text(LONGJOIN)
    bounds = ["--label", label, "--max-word-len", "4",
              "--peiffer-len-bound", "2", "--ctx-bound", "1"]
    code = main(["complete", str(poly), *bounds, "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert (code, data["verdict"]) == (0, "CERTIFIED")
    assert [(c["kind"], len(c["source"].split(" ; ")))
            for c in data["cells"].values()] == [("confluence", 11)]
    cells.write_text("".join(f"cell {name} : {c['source']} => "
                             f"{c['target']}\n"
                             for name, c in data["cells"].items()))
    assert main(["homology", str(poly), "--cells", str(cells)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "H1 = Z + Z + Z" in lines and "H2 = 0" in lines
    assert main(["check-decreasing", str(poly), *bounds]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "x y z: strict"


@pytest.fixture(scope="module")
def complete_json(tmp_path_factory):
    """The exit code and JSON of ``complete`` on a presentation of
    MONOTONE with budget options, each run once."""
    workdir = tmp_path_factory.mktemp("budgets")
    runs = {}

    def run(system, budget):
        if (system, budget) not in runs:
            text, options = MONOTONE[system]
            poly = workdir / f"{system}.poly"
            poly.write_text(text)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["complete", str(poly), *options, *budget,
                             "--format", "json"])
            runs[system, budget] = code, json.loads(out.getvalue())
        return runs[system, budget]
    return run


@settings(max_examples=60, deadline=None, derandomize=True)
@given(system=st.sampled_from(sorted(MONOTONE)),
       # most state caps that cut a run lie below the 2,000 words or so
       # that these presentations explore at length 8
       states=st.integers(1, 2000) | st.integers(1, 100000),
       length=st.integers(1, 8),
       ctx_bound=st.integers(0, 2), peiffer_len_bound=st.integers(0, 6))
# state caps that cut each presentation partway at length 8
@example("braid", 50, 8, 2, 6)
@example("braid", 200, 8, 2, 6)
@example("A3", 1500, 8, 2, 6)
@example("two_letters", 40, 8, 2, 6)
@example("convergent_braid", 300, 8, 2, 6)
def test_a_smaller_budget_reads_ok_or_unverified(complete_json, system,
                                                 states, length, ctx_bound,
                                                 peiffer_len_bound):
    """Missing data is unverified, never a violation.  The audit bounds
    here are at most their defaults, so a run checks part of what the run
    at the default budget checks, on the words the caps let in: whenever
    that run has no violation, every audit reads ok, or unverified naming
    the option that governs it, and the run exits 3 unless all read ok."""
    _, default = complete_json(system, ())
    assume(all(a["counts"]["violation"] == 0
               for a in default["audits"].values()))
    code, data = complete_json(system, (
        "--max-states", str(states), "--max-word-len", str(length),
        "--ctx-bound", str(ctx_bound),
        "--peiffer-len-bound", str(peiffer_len_bound)))
    for name, audit in data["audits"].items():
        assert audit["status"] in ("ok", "unverified"), (name, audit)
        assert audit["status"] == "ok" or audit["option"], (name, audit)
    certified = all(a["ok"] for a in data["audits"].values())
    assert (code, data["verdict"]) == ((0, "CERTIFIED") if certified
                                       else (3, "PARTIAL"))


def test_fill_sphere(braid_file, tmp_path, capsys):
    sphere = tmp_path / "sphere.txt"
    sphere.write_text(
        "sphere : 1|alpha|t => s|beta|1 ; s|alpha|1 ; 1|alpha|t\n")
    code = main(["fill-sphere", braid_file, str(sphere)])
    out = capsys.readouterr().out
    assert code == 0
    assert "D2" in out or "E1" in out


@pytest.mark.parametrize("sphere", [
    "sphere : 1|alpha|t ; 1|alpha|t => s|beta|1",
    "sphere : 1|alpha|t => 1|beta|s",
    "sphere : x|alpha|1 => x|alpha|1 ; x|alpha|1- ; x|alpha|1",
    "sphereXYZ : 1|alpha|t => s|beta|1 ; s|alpha|1 ; 1|alpha|t",
    "sphere two : 1|alpha|t => s|beta|1 ; s|alpha|1 ; 1|alpha|t"],
    ids=["ill_composed", "not_parallel", "unknown_letter", "head_sphereXYZ",
         "head_of_two_words"])
def test_fill_sphere_malformed_sphere_is_input_error(braid_file, tmp_path,
                                                     capsys, sphere):
    path = tmp_path / "sphere.txt"
    path.write_text(f"# a malformed sphere\n{sphere}\n")
    assert main(["fill-sphere", braid_file, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: ")


def test_fill_sphere_rejects_lines_after_the_sphere(braid_file, tmp_path,
                                                   capsys):
    path = tmp_path / "sphere.txt"
    path.write_text("sphere : 1|alpha|t => s|beta|1 ; s|alpha|1 ; 1|alpha|t\n"
                    "\n# a comment\n"
                    "sphere : garbage => more\n"
                    "nonsense line\n")
    assert main(["fill-sphere", braid_file, str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: line 4: unexpected line after the sphere: "
        "'sphere : garbage => more'\n")


@pytest.mark.parametrize("name", ["", "two words"],
                         ids=["empty", "two_words"])
def test_homology_cell_name_of_other_than_one_word_is_input_error(
        braid_file, tmp_path, capsys, name):
    cells = tmp_path / "cells.txt"
    cells.write_text(f"cell {name} : 1|alpha|1 ; 1|beta|1 => id s t s\n")
    assert main(["homology", braid_file, "--cells", str(cells)]) == 2
    assert capsys.readouterr().err == (
        f"error: line 1: a cell name is one word, not {name!r}\n")


def test_homology_cell_declared_twice_is_input_error(braid_file, tmp_path,
                                                    capsys,
                                                    braid_completion):
    """A name given twice would replace its first cell: here the loop
    cell E1 by a copy of D1."""
    from polyco.completion import format_extension
    lines = format_extension(braid_completion).splitlines()[1:]
    assert [line.split()[1] for line in lines] == [
        "D1", "D2", "D3", "D4", "E1"]
    lines.append(lines[0].replace("cell D1 ", "cell E1 "))
    cells = tmp_path / "cells.txt"
    cells.write_text("\n".join(lines) + "\n")
    assert main(["homology", braid_file, "--cells", str(cells)]) == 2
    assert capsys.readouterr().err == (
        "error: line 6: cell 'E1' is declared twice\n")


def test_homology_ill_composed_cell_is_input_error(braid_file, tmp_path,
                                                   capsys):
    cells = tmp_path / "cells.txt"
    cells.write_text("cell D1 : 1|alpha|t ; 1|alpha|t => s|beta|1\n")
    assert main(["homology", braid_file, "--cells", str(cells)]) == 2
    assert capsys.readouterr().err == (
        "error: line 1: step 1|alpha|t does not start at t s t t\n")


def test_homology_cell_over_an_unknown_letter_is_input_error(braid_file,
                                                             tmp_path, capsys):
    cells = tmp_path / "cells.txt"
    cells.write_text("cell X : x|alpha|1 ; x|beta|1 => id x s t s\n")
    assert main(["homology", braid_file, "--cells", str(cells)]) == 2
    assert capsys.readouterr().err == (
        "error: line 1: unknown generator 'x'\n")


def test_homology_reduced(braid_file, capsys):
    code = main(["homology", braid_file, "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["H0"] == "Z" and data["H1"] == "Z" and data["H2"] == "Z"
    assert "2-skeleton without 3-cells" in data["note"]


def test_homology_says_it_omits_3_cells(braid_file, capsys):
    assert main(["homology", braid_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:3] == ["H0 = Z", "H1 = Z", "H2 = Z"]
    assert "2-skeleton without 3-cells" in out


def test_homology_with_cells_file(braid_file, tmp_path, capsys,
                                  braid_completion):
    from polyco.completion import format_extension
    ext = tmp_path / "cells.txt"
    ext.write_text(format_extension(braid_completion))
    code = main(["homology", braid_file, "--cells", str(ext),
                 "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["H2"] == "0" and data["cells3"] == 5
    assert "note" not in data


def test_missing_file_is_input_error(capsys):
    assert main(["analyze", "/nonexistent/x.poly"]) == 2


def test_malformed_file_is_input_error(tmp_path, capsys):
    f = tmp_path / "bad.poly"
    f.write_text("polygraph broken\ngens a\nrule r : a b => a\n")
    assert main(["analyze", str(f)]) == 2


def test_qnf_map_option(braid_file, tmp_path, capsys):
    from polyco.fixtures import braid_qnf_map
    from polyco.labelling import format_qnf_map
    m = tmp_path / "qnf.map"
    m.write_text(format_qnf_map(braid_qnf_map(7)))
    code = main(["complete", braid_file, "--qnf-map", str(m)])
    out = capsys.readouterr().out
    assert code == 0 and "CERTIFIED" in out


def test_complete_under_singleton_labels_lists_non_strict_cells(braid_file,
                                                              capsys):
    """One label makes nothing strict: every critical branching is closed
    by a decreasing diagram, and the strictness audit fails on each."""
    argv = ["complete", braid_file, "--label", "singleton",
            "--max-word-len", "7"]
    assert main(argv) == 3
    lines = capsys.readouterr().out.splitlines()
    assert "verdict: PARTIAL" in lines
    assert ("audit strict: VIOLATION: 4 violation of 4; witness: cell D1"
            in lines)
    assert main(argv + ["--format", "json"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "PARTIAL"
    assert data["audits"]["strict"] == {
        "status": "violation", "ok": False, "checked": 4,
        "counts": {"ok": 0, "violation": 4, "unverified": 0},
        "witness": {"cell": "D1"}, "option": None,
        "non_strict_cells": ["D1", "D2", "D3", "D4"]}


def test_label_table_without_a_table_is_input_error(braid_file, capsys):
    assert main(["complete", braid_file, "--label", "table"]) == 2
    assert capsys.readouterr().err == (
        "error: --label table needs --label-table FILE\n")


def test_singleton_labels_leave_convergent_braid_unclosed(
        convergent_braid_file, capsys):
    """Under one label, no diagram within the search depth closes four of
    the six critical branchings of convergent_braid."""
    argv = [convergent_braid_file, "--label", "singleton",
            "--max-word-len", "6"]
    assert main(["check-decreasing", *argv]) == 4
    rows = capsys.readouterr().out.splitlines()[:6]
    assert [r for r in rows if r.endswith(": NOT FOUND")] == [
        "s t s t s: NOT FOUND", "s t s a: NOT FOUND",
        "t s t s t: NOT FOUND", "t s t a: NOT FOUND"]
    assert main(["complete", *argv]) == 4
    assert capsys.readouterr().err == (
        "search failed: no decreasing diagram for the critical branching "
        "at s t s t s\n")


def test_fill_sphere_past_the_explored_words_is_inconclusive(
        braid_file, tmp_path, capsys):
    step = "1|alpha|t t t t t t t"
    sphere = tmp_path / "sphere.txt"
    sphere.write_text(f"sphere : {step} => {step} ; {step}- ; {step}\n")
    assert main(["fill-sphere", braid_file, str(sphere),
                 "--max-word-len", "6"]) == 3
    assert capsys.readouterr().err == (
        "inconclusive within budget: s t s t t t t t t t was not explored\n")


def test_fill_sphere_under_nf_labels(convergent_braid_file, tmp_path,
                                     capsys):
    """Under the nf labelling the canonical target of a word is its normal
    form, reached by normalizing."""
    sphere = tmp_path / "sphere.txt"
    sphere.write_text("sphere : 1|r1|t => s|r2|1 ; 1|r3|1\n")
    assert main(["fill-sphere", convergent_braid_file, str(sphere),
                 "--label", "nf"]) == 0
    assert capsys.readouterr().out == "[id s t s t] . 1|D2|1 . [id a t]\n"


_BOUND_OPTIONS = [("--ctx-bound", "2"), ("--peiffer-len-bound", "6")]
_AUDIT_OPTIONS = _BOUND_OPTIONS + [("--label", "nf"), ("--qnf-map", "x"),
                                   ("--label-table", "x")]
_BUDGET_OPTIONS = [("--max-word-len", "7"), ("--max-states", "10"),
                   ("--max-depth", "5")]


@pytest.mark.parametrize("command, option", [
    *(("analyze", o) for o in _AUDIT_OPTIONS + [("--cells", "x")]),
    ("complete", ("--cells", "x")), ("check-decreasing", ("--cells", "x")),
    # fill-sphere reports no audit: the bounds change nothing it prints,
    # and it fills in the cells of the completion it builds
    *(("fill-sphere", o) for o in _BOUND_OPTIONS + [("--cells", "x")]),
    *(("homology", o) for o in _BUDGET_OPTIONS + _AUDIT_OPTIONS)],
    ids=lambda x: x if isinstance(x, str) else x[0])
def test_subcommands_refuse_options_they_do_not_read(braid_file, capsys,
                                                     command, option):
    sphere = ["x.sphere"] if command == "fill-sphere" else []
    with pytest.raises(SystemExit) as e:
        main([command, braid_file, *sphere, *option])
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["complete", "check-decreasing",
                                     "fill-sphere"])
@pytest.mark.parametrize("label, option", [
    ("nf", "--qnf-map"), ("singleton", "--qnf-map"), ("table", "--qnf-map"),
    ("qnf", "--label-table"), ("nf", "--label-table"),
    ("singleton", "--label-table")])
def test_labels_refuse_files_they_do_not_read(braid_file, capsys, command,
                                              label, option):
    """A labelling file under a --label that does not read it is an input
    error naming the option; the file is never opened."""
    sphere = ["x.sphere"] if command == "fill-sphere" else []
    assert main([command, braid_file, *sphere, "--label", label,
                 option, "/nonexistent"]) == 2
    want = "qnf" if option == "--qnf-map" else "table"
    assert capsys.readouterr().err == (
        f"error: {option} is read only under --label {want}\n")


@pytest.mark.parametrize("command, budget", [
    ("analyze", {"max_word_len": 7, "max_states": 100000, "max_depth": 200}),
    ("check-decreasing", {"max_word_len": 7, "max_states": 100000,
                          "max_depth": 200, "ctx_bound": 2,
                          "peiffer_len_bound": 6}),
    ("homology", {})])
def test_json_budget_echoes_the_options_read(braid_file, capsys, command,
                                             budget):
    main([command, braid_file, "--format", "json"])
    assert json.loads(capsys.readouterr().out)["budget"] == budget


@pytest.mark.parametrize("command, option", [
    ("complete", "--max-word-len"), ("complete", "--max-states"),
    ("complete", "--max-depth"), ("complete", "--ctx-bound"),
    ("complete", "--peiffer-len-bound"), ("analyze", "--max-word-len"),
    ("check-decreasing", "--peiffer-len-bound")])
def test_negative_bounds_are_refused(braid_file, capsys, command, option):
    with pytest.raises(SystemExit) as e:
        main([command, braid_file, option, "-1"])
    assert e.value.code == 2
    assert f"{option}: must not be negative: -1" in capsys.readouterr().err


def test_a_refused_call_leaves_main_able_to_parse(braid_file, capsys):
    """main parses with one parser per process: a call it refuses with
    exit 2 is followed, in the same process, by a call that reads its
    options, and build_parser still gives a fresh parser."""
    with pytest.raises(SystemExit) as e:
        main(["complete", braid_file, "--max-word-len", "-1"])
    assert e.value.code == 2
    capsys.readouterr()
    assert main(["complete", braid_file, "--max-word-len", "7",
                 "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["budget"]["max_word_len"] == 7
    assert build_parser() is not build_parser()


def test_zero_bounds_are_accepted(braid_file, capsys):
    argv = ["complete", braid_file, "--ctx-bound", "0",
            "--peiffer-len-bound", "0", "--format", "json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["budget"]["ctx_bound"] == 0


def test_qnf_map_over_an_unknown_letter_is_input_error(braid_file, tmp_path,
                                                       capsys):
    m = tmp_path / "qnf.map"
    m.write_text("s -> s\nx -> y\n")
    assert main(["complete", braid_file, "--qnf-map", str(m)]) == 2
    assert capsys.readouterr().err == (
        "error: line 2: unknown generator 'x'\n")


@pytest.mark.parametrize("line, message", [
    ("order:<", "line 1: expected: order: a < b"),
    ("order: a < a", "order is not strict: 'a' < 'a'"),
    ("order: a < b\norder: b < a", "order is not strict: 'a' < 'a'")])
def test_malformed_label_order_is_input_error(braid_file, tmp_path, capsys,
                                              line, message):
    table = tmp_path / "labels.txt"
    table.write_text(line + "\n")
    assert main(["complete", braid_file, "--label", "table",
                 "--label-table", str(table)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
