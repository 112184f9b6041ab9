"""The names the package exports: the pipeline's functions and the types
and exceptions they take, return or raise, and every name that the
benchmark, the demos and the CI workflow read from the package."""

import ast
import re
import textwrap
from pathlib import Path

import polyco

ROOT = Path(__file__).resolve().parent.parent

API = sorted("""
    Audit CERTIFIED CONFLUENCE ChainComplexZ CoherentPresentation
    ExplorationBudget HomologyResult IllComposed LOOP Labelling
    LabellingError LocalBranching MeasureError MissingLoopClass PARTIAL
    PEIFFER ParseError Path PeifferReport Polygraph ReductionGraph RewriteStep
    SearchExhausted ThreeCell ThreeCellExpression TruncatedRegion Unreachable
    Word ZigzagPath abelianize all_words build_completion check_boundary
    check_peiffer_decreasing critical_branchings decide_peiffer
    derived_qnf_map explore fill_parallel_sphere fill_zigzag_sphere fixtures
    homology local_branchings parse_polygraph parse_sphere
    serialize_polygraph zigzags_equal
""".split())


def test_exports_are_the_chosen_names():
    assert sorted(polyco.__all__) == API


def test_every_exported_name_resolves():
    assert [n for n in polyco.__all__ if not hasattr(polyco, n)] == []


def _package_names(source: str) -> set[str]:
    """The names a script reads from the package: ``from polyco import X``
    and ``polyco.X``, less the submodules it imports as ``polyco.X``."""
    names, modules = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "polyco":
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            modules |= {a.name.split(".")[1] for a in node.names
                        if a.name.startswith("polyco.")}
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "polyco"):
            names.add(node.attr)
    return names - modules - {"__file__"}


def _workflow_scripts(text: str):
    """The Python scripts of the workflow: its here-documents that parse as
    Python and its ``python -c`` arguments."""
    for body in re.findall(r"<<'EOF'\n(.*?)\n\s*EOF\n", text, re.S):
        body = textwrap.dedent(body)
        try:
            ast.parse(body)
        except SyntaxError:
            continue
        yield body
    yield from re.findall(r'python3? -c "(.*?)"', text)


def test_callers_read_only_exported_names():
    sources = [path.read_text() for path in
               sorted((ROOT / "perfbench").glob("*.py"))
               + sorted((ROOT / "demos").glob("*.py"))]
    sources += _workflow_scripts(
        (ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    read = set().union(*map(_package_names, sources))
    # the scripts do read names from the package, so an empty set would
    # mean the reading above is broken
    assert {"build_completion", "derived_qnf_map", "fixtures"} <= read
    # polyco.cli: the benchmark calls the CLI, imported apart by its worker
    assert read - {"cli"} <= set(polyco.__all__), sorted(
        read - {"cli"} - set(polyco.__all__))
