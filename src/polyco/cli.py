"""Command line front end.

Subcommands: analyze, complete, check-decreasing, fill-sphere, homology.
Exit codes: 0 success (CERTIFIED for complete: every audit ok), 2 input
error, 3 inconclusive: an audit reads a violation or unverified, 4 search
failure (check-decreasing: a critical branching with no diagram where the
budget cut no word its closure may need).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .core import (ParseError, PresentationError, all_words,
                   parse_polygraph, word_str)
from .engine import (ExplorationBudget, IllComposed, TruncatedRegion,
                     Unreachable, classify_termination, explore,
                     INCONCLUSIVE)
from .branchings import critical_branchings
from .labelling import (WHISKER_STABLE, Labelling, LabellingError,
                        derived_qnf_map, parse_label_table, parse_qnf_map,
                        validate_qnf_map)
from .decreasing import (CTX_BOUND, OK, PEIFFER_LEMMA, PEIFFER_LEN_BOUND,
                         UNVERIFIED, VIOLATION, Audit, MeasureError,
                         SearchExhausted, audit_seeds, audit_status,
                         check_context_compatibility,
                         check_peiffer_decreasing, closure_cut,
                         find_decreasing)
from .expressions import check_boundary
from .completion import (CERTIFIED, build_completion, fill_parallel_sphere,
                         fill_zigzag_sphere, format_extension, loop_audit,
                         parse_extension, parse_sphere)
from .homology import abelianize, homology

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_SEARCH = 4

SKELETON_NOTE = ("homology of the 2-skeleton without 3-cells; "
                 "give the completion's cells with --cells")
# why the audits rest on lemmas under Labelling.whisker_stable
LEMMA_NOTE = ("whiskering lemma: the audits follow from the empty context; "
              "under nf labels this rests on termination, which is checked "
              "on the explored words only")


def _bound(text: str) -> int:
    """A budget or bound option's value: an integer, not negative."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    return n


def _add_exploration(sp):
    sp.add_argument("--max-word-len", type=_bound, default=7, help=(
        "a cap on the length of the words explored (default %(default)s): "
        "complete and check-decreasing explore from the words their audits "
        "read, analyze and fill-sphere from every word up to it"))
    sp.add_argument("--max-states", type=_bound, default=100000)
    sp.add_argument("--max-depth", type=_bound, default=200)


def _add_audit_bounds(sp):
    """The bounds of the context and Peiffer audits, which the subcommands
    that report those audits read."""
    sp.add_argument("--ctx-bound", type=_bound, default=CTX_BOUND)
    sp.add_argument("--peiffer-len-bound", type=_bound,
                    default=PEIFFER_LEN_BOUND, help=(
                        "the longest word the Peiffer audit reads (default "
                        "%(default)s); complete and check-decreasing explore "
                        "from every word up to it, so that the loop audit "
                        "reads the cycles through them"))


def _add_labelling(sp):
    """The labelling, which every subcommand that closes critical
    branchings reads."""
    sp.add_argument("--label", choices=["qnf", "nf", "singleton", "table"],
                    default="qnf")
    sp.add_argument("--qnf-map", metavar="FILE")
    sp.add_argument("--label-table", metavar="FILE")


def _add_cells(sp):
    """The completion's cells, which homology reads."""
    sp.add_argument("--cells", metavar="FILE")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polyco",
        description="string rewriting analysis on monoid presentations")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, doc, options in [
            ("analyze", "explore the reduction graph and classify it",
             (_add_exploration,)),
            ("complete", "build a coherent completion with audits",
             (_add_exploration, _add_audit_bounds, _add_labelling)),
            ("check-decreasing", "search decreasing diagrams and audit them",
             (_add_exploration, _add_audit_bounds, _add_labelling)),
            ("fill-sphere", "express a parallel sphere in completion cells",
             (_add_exploration, _add_labelling)),
            ("homology", "integral homology of the presentation",
             (_add_cells,))]:
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("polygraph", help="presentation file (.poly)")
        for add in options:
            add(sp)
        sp.add_argument("--format", choices=["text", "json"], default="text")
        if name == "fill-sphere":
            sp.add_argument("sphere", help="file with a 'sphere : A => B' line")
    return ap


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(str(e))


def _budget(args) -> ExplorationBudget:
    return ExplorationBudget(args.max_word_len, args.max_states,
                             args.max_depth)


def _setup(args):
    """The presentation and its graph explored from every word up to
    --max-word-len, which analyze and fill-sphere read."""
    p = parse_polygraph(_read(args.polygraph))
    g = explore(p, all_words(p, args.max_word_len), budget=_budget(args))
    return p, g


def _setup_audited(args):
    """The presentation, its graph explored from the words the audits read
    (audit_seeds), and the explored region: the number of seeds and of
    explored words.  Under whisker-stable labels the context audit reads
    the unwhiskered critical branchings only."""
    p = parse_polygraph(_read(args.polygraph))
    ctx_bound = 0 if args.label in WHISKER_STABLE else args.ctx_bound
    seeds = audit_seeds(p, critical_branchings(p), args.max_word_len,
                        ctx_bound, args.peiffer_len_bound)
    g = explore(p, seeds, budget=_budget(args))
    return p, g, {"seeds": len(seeds), "words": len(g.vertices)}


def _explored_line(explored: dict) -> str:
    return (f"explored: {explored['seeds']} seeds, "
            f"{explored['words']} words")


def _labelling(args, p, g) -> Labelling:
    for option, label in (("qnf_map", "qnf"), ("label_table", "table")):
        if getattr(args, option) and args.label != label:
            raise ParseError(f"--{option.replace('_', '-')} is read only "
                             f"under --label {label}")
    if args.label == "qnf":
        if not args.qnf_map:
            return Labelling.qnf(derived_qnf_map(g))
        lab = Labelling.qnf(parse_qnf_map(p, _read(args.qnf_map)))
        validate_qnf_map(lab, g)
        return lab
    if args.label == "nf":
        return Labelling.nf(g)
    if args.label == "singleton":
        return Labelling.singleton()
    if not args.label_table:
        raise ParseError("--label table needs --label-table FILE")
    table, order = parse_label_table(p, _read(args.label_table))
    return Labelling.from_table(table, order)


def _emit(args, data: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(text)


def _audit_json(a: Audit) -> dict:
    """An audit as JSON: its status, ``ok``, the number checked and the
    count of each status, its first witness and option, and its own keys."""
    counts = {s: a.counts[s] for s in (VIOLATION, UNVERIFIED)}
    return {"status": a.status, "ok": a.ok, "checked": a.checked,
            "counts": {OK: a.checked - sum(counts.values()), **counts},
            "witness": a.witness, "option": a.option, **a.detail}


def _audit_text(a: Audit) -> str:
    """An audit as one line: "ok", or its status with the option that
    governs it, its counts and its first witness."""
    if a.ok:
        return "ok"
    counts = ", ".join(f"{a.counts[s]} {s}" for s in (VIOLATION, UNVERIFIED)
                       if a.counts[s])
    option = f" under {a.option}" if a.option else ""
    return (f"{a.status.upper()}{option}: {counts} of {a.checked}; "
            f"witness: {_witness_text(a.witness)}")


def _witness_text(w: dict) -> str:
    """A witness as text: each key with its value, then the error."""
    def plain(v):
        return (f"({', '.join(map(plain, v))})" if isinstance(v, list)
                else str(v))
    text = ", ".join(f"{k} {plain(v)}" for k, v in w.items() if k != "error")
    return text + (f": {w['error']}" if "error" in w else "")


def _budget_dict(args):
    """The budget options the subcommand takes, with their values."""
    return {k: getattr(args, k)
            for k in ("max_word_len", "max_states", "max_depth", "ctx_bound",
                      "peiffer_len_bound") if hasattr(args, k)}


def cmd_analyze(args) -> int:
    p, g = _setup(args)
    classification = classify_termination(g)
    crits = critical_branchings(p)
    classes, loops = loop_audit(g)
    loops_complete = loops.ok
    loop_count = len(classes) if loops_complete else None
    data = {
        "generators": list(p.generators),
        "rules": [r.name for r in p.rules],
        "vertices": len(g.vertices),
        "truncated": g.truncated,
        "classification": classification,
        "critical_branchings": [
            {"source": word_str(b.first.source),
             "first": str(b.first), "second": str(b.second)}
            for b in crits],
        "elementary_loop_classes": loop_count,
        "loops_complete": loops_complete,
        "budget": _budget_dict(args),
    }
    lines = [f"generators: {' '.join(p.generators)}",
             f"rules: {len(p.rules)}",
             f"explored words: {len(g.vertices)}"
             + (" (truncated)" if g.truncated else ""),
             f"classification: {classification}",
             f"critical branchings: {len(crits)}"]
    lines += [f"  {word_str(b.first.source)}: {b.first} || {b.second}"
              for b in crits]
    lines.append(f"elementary loop classes: {loop_count}"
                 + ("" if loops_complete else " (incomplete)"))
    _emit(args, data, "\n".join(lines))
    if classification == INCONCLUSIVE or not loops_complete:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_complete(args) -> int:
    p, g, explored = _setup_audited(args)
    lab = _labelling(args, p, g)
    c = build_completion(p, lab, g, ctx_bound=args.ctx_bound,
                         peiffer_len_bound=args.peiffer_len_bound)
    data = {
        "cells": {name: {"kind": cell.kind,
                         "source": str(cell.source),
                         "target": str(cell.target)}
                  for name, cell in c.cells.items()},
        "verdict": c.verdict,
        "audits": {k: _audit_json(a) for k, a in c.audits.items()},
        "budget": _budget_dict(args),
        "explored": explored,
    }
    text = (format_extension(c) + f"\nverdict: {c.verdict}\n"
            + "\n".join(f"audit {k}: {_audit_text(a)}"
                        for k, a in c.audits.items())
            + "\n" + _explored_line(explored))
    if lab.whisker_stable:
        text += f"\n{LEMMA_NOTE}"
    _emit(args, data, text)
    return EXIT_OK if c.verdict == CERTIFIED else EXIT_INCONCLUSIVE


def cmd_check_decreasing(args) -> int:
    p, g, explored = _setup_audited(args)
    lab = _labelling(args, p, g)
    criticals = critical_branchings(p)
    rows = []
    diagrams = []
    # a branching with no diagram is unverified when the budget cut what
    # its closure may need, else a violation, which fails the search
    search = Audit(len(criticals))
    for b in criticals:
        d = find_decreasing(lab, g, b)
        row = {"source": word_str(b.source)}
        if d is not None:
            diagrams.append(d)
            row["status"] = "strict" if d.strict else "decreasing"
        elif (cut := closure_cut(g, b)) is not None:
            row.update(status="unverified", error=cut[0])
            search.add(UNVERIFIED, lambda: (row, cut[1]))
        else:
            row["status"] = "NOT FOUND"
            search.add(VIOLATION, lambda: (row, None))
        rows.append(row)
    ctx = check_context_compatibility(lab, g, diagrams, args.ctx_bound)
    peiffer = check_peiffer_decreasing(lab, g, p, args.peiffer_len_bound)
    data = {"branchings": rows,
            "context": _audit_json(ctx),
            "peiffer_ok": peiffer.ok,
            **({"peiffer_lemma": PEIFFER_LEMMA} if lab.whisker_stable
               else {}),
            "budget": _budget_dict(args),
            "explored": explored}
    lines = [f"{r['source']}: {r['status']}"
             + (f" ({r['error']})" if "error" in r else "") for r in rows]
    lines.append(_explored_line(explored))
    lines.append(f"context compatibility up to bound {args.ctx_bound}: "
                 + _audit_text(ctx))
    lines.append(f"Peiffer decreasing up to length {args.peiffer_len_bound}: "
                 + _audit_text(peiffer))
    if lab.whisker_stable:
        lines.append(LEMMA_NOTE)
    _emit(args, data, "\n".join(lines))
    if search.counts[VIOLATION]:
        return EXIT_SEARCH
    return (EXIT_OK if audit_status((search, ctx, peiffer)) == OK
            else EXIT_INCONCLUSIVE)


def cmd_fill_sphere(args) -> int:
    p, g = _setup(args)
    lab = _labelling(args, p, g)
    # fill-sphere prints no audit, so the completion audits as little as
    # it can: at bound 0 the context audit reads only the unwhiskered
    # critical branchings and the Peiffer audit no word
    c = build_completion(p, lab, g, ctx_bound=0, peiffer_len_bound=0)
    f, h = parse_sphere(p, _read(args.sphere))
    if all(s.forward for s in f.steps) and all(s.forward for s in h.steps):
        expr = fill_parallel_sphere(c, lab, g, f.forward_path(),
                                    h.forward_path())
    else:
        expr = fill_zigzag_sphere(c, lab, g, f, h)
    src, tgt = check_boundary(expr, c.cells)
    data = {"atoms": [str(a) for a in expr.atoms],
            "source": str(f), "target": str(h),
            "boundary_ok": True, "budget": _budget_dict(args)}
    text = "\n".join(str(a) for a in expr.atoms) or "(identity)"
    _emit(args, data, text)
    return EXIT_OK


def cmd_homology(args) -> int:
    p = parse_polygraph(_read(args.polygraph))
    cells = []
    if args.cells:
        cells = list(parse_extension(p, _read(args.cells)).values())
    c = abelianize(p, cells)
    h = homology(c)
    data = {"H0": str(h.h0), "H1": str(h.h1), "H2": str(h.h2),
            "cells3": len(cells), "budget": _budget_dict(args)}
    text = f"H0 = {h.h0}\nH1 = {h.h1}\nH2 = {h.h2}"
    if not cells:
        # without 3-cells, H2 is that of the 2-skeleton, not of the monoid
        data["note"] = SKELETON_NOTE
        text += f"\n({SKELETON_NOTE})"
    _emit(args, data, text)
    return EXIT_OK


COMMANDS = {
    "analyze": cmd_analyze,
    "complete": cmd_complete,
    "check-decreasing": cmd_check_decreasing,
    "fill-sphere": cmd_fill_sphere,
    "homology": cmd_homology,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads its arguments with, built once per
    process: building it takes over twenty times as long as a parse."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (PresentationError, LabellingError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (SearchExhausted, MeasureError, Unreachable, IllComposed) as e:
        print(f"search failed: {e}", file=sys.stderr)
        return EXIT_SEARCH
    except TruncatedRegion as e:
        print(f"inconclusive within budget: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
