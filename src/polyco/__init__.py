"""String rewriting on monoid presentations: reduction graphs, decreasing
diagrams, coherent completions and low-dimensional homology."""

from .core import (EMPTY, ParseError, Polygraph, Rule, Word, all_words,
                   parse_polygraph, parse_word, serialize_polygraph,
                   word_str)
from .engine import (ExplorationBudget, IllComposed, Path, ReductionGraph,
                     RewriteStep, TerminationReport, TruncatedRegion,
                     Unreachable, ZigzagPath, classify_termination,
                     enumerate_steps, exchange_swap, explore,
                     normalize_zigzag, parse_step, zigzag,
                     zigzags_equal, INCONCLUSIVE,
                     QUASI_TERMINATING_NOT_TERMINATING, TERMINATING)
from .branchings import (ASPHERICAL, CRITICAL, OVERLAPPING, PEIFFER,
                         LocalBranching, classify_branching,
                         critical_branchings, local_branchings,
                         match_critical)
from .labelling import (FinitePosetOrder, Labelling, LabellingError,
                        MissingLabel, NaturalsOrder, NotQuasiNormalForm,
                        ReachabilityOrder, filter_word, format_qnf_map,
                        label_path, label_step, measure_branching,
                        measure_word, multiset_less, parse_label_table,
                        parse_qnf_map, validate_qnf_map)
from .decreasing import (DecreasingDiagram, MeasureError, SearchExhausted,
                         StrictDiagram, Violation, check_context_closability,
                         check_context_compatibility, check_decreasing,
                         check_peiffer_decreasing, check_strict,
                         contexts_up_to, decide_peiffer, find_decreasing,
                         peiffer_variants)
from .loops import (Loop, LoopClass, LoopEnumeration, NotALoop,
                    enumerate_elementary_loops, is_context_minimal,
                    is_elementary, is_minimal_for_composition,
                    strip_whiskers)
from .expressions import (Atom, CONFLUENCE, LOOP, MissingLoopClass,
                          ThreeCell, ThreeCellExpression, check_boundary,
                          concat, conjugate, contract_loop, invert)
from .completion import (CERTIFIED, CoherentPresentation, ConfluenceRecord,
                         PARTIAL, build_completion, fill_parallel_sphere,
                         fill_zigzag_sphere, format_extension,
                         parse_extension, parse_sphere, parse_zigzag)
from .homology import (ChainComplexZ, HomologyGroup, HomologyResult,
                       abelianize, homology, letter_counts, rule_occurrences,
                       smith_normal_form)
from . import fixtures

__all__ = [
    # core
    "EMPTY", "ParseError", "Polygraph", "Rule", "Word", "all_words",
    "parse_polygraph", "parse_word", "serialize_polygraph", "word_str",
    # engine
    "ExplorationBudget", "IllComposed", "Path", "ReductionGraph",
    "RewriteStep", "TerminationReport", "TruncatedRegion", "Unreachable",
    "ZigzagPath", "classify_termination", "enumerate_steps", "exchange_swap",
    "explore", "normalize_zigzag", "parse_step", "zigzag", "zigzags_equal",
    "INCONCLUSIVE", "QUASI_TERMINATING_NOT_TERMINATING", "TERMINATING",
    # branchings
    "ASPHERICAL", "CRITICAL", "OVERLAPPING", "PEIFFER", "LocalBranching",
    "classify_branching", "critical_branchings", "local_branchings",
    "match_critical",
    # labelling
    "FinitePosetOrder", "Labelling", "LabellingError", "MissingLabel",
    "NaturalsOrder", "NotQuasiNormalForm", "ReachabilityOrder", "filter_word",
    "format_qnf_map", "label_path", "label_step", "measure_branching",
    "measure_word", "multiset_less", "parse_label_table", "parse_qnf_map",
    "validate_qnf_map",
    # decreasing
    "DecreasingDiagram", "MeasureError", "SearchExhausted", "StrictDiagram",
    "Violation", "check_context_closability", "check_context_compatibility",
    "check_decreasing", "check_peiffer_decreasing", "check_strict",
    "contexts_up_to", "decide_peiffer", "find_decreasing",
    "peiffer_variants",
    # loops
    "Loop", "LoopClass", "LoopEnumeration", "NotALoop",
    "enumerate_elementary_loops", "is_context_minimal", "is_elementary",
    "is_minimal_for_composition", "strip_whiskers",
    # expressions
    "Atom", "CONFLUENCE", "LOOP", "MissingLoopClass", "ThreeCell",
    "ThreeCellExpression", "check_boundary", "concat", "conjugate",
    "contract_loop", "invert",
    # completion
    "CERTIFIED", "CoherentPresentation", "ConfluenceRecord", "PARTIAL",
    "build_completion", "fill_parallel_sphere", "fill_zigzag_sphere",
    "format_extension", "parse_extension", "parse_sphere", "parse_zigzag",
    # homology
    "ChainComplexZ", "HomologyGroup", "HomologyResult", "abelianize",
    "homology", "letter_counts", "rule_occurrences", "smith_normal_form",
    "fixtures",
]
__version__ = "0.1.0"
