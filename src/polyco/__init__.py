"""String rewriting on monoid presentations: reduction graphs, decreasing
diagrams, coherent completions and low-dimensional homology.

The package exports the functions a caller runs the pipeline with, from a
presentation to its coherent completion, filled spheres and homology, and
the types and exceptions these take, return or raise.  Every other name is
imported from its module."""

from .core import (ParseError, Polygraph, Word, all_words, parse_polygraph,
                   serialize_polygraph)
from .engine import (ExplorationBudget, IllComposed, Path, ReductionGraph,
                     RewriteStep, TruncatedRegion, Unreachable, ZigzagPath,
                     explore, zigzags_equal)
from .branchings import (PEIFFER, LocalBranching, critical_branchings,
                         local_branchings)
from .labelling import Labelling, LabellingError, derived_qnf_map
from .decreasing import (Audit, MeasureError, PeifferReport,
                         SearchExhausted, check_peiffer_decreasing,
                         decide_peiffer)
from .expressions import (CONFLUENCE, LOOP, MissingLoopClass, ThreeCell,
                          ThreeCellExpression, check_boundary)
from .completion import (CERTIFIED, PARTIAL, CoherentPresentation,
                         build_completion, fill_parallel_sphere,
                         fill_zigzag_sphere, parse_sphere)
from .homology import ChainComplexZ, HomologyResult, abelianize, homology
from . import fixtures

__all__ = [
    # core
    "ParseError", "Polygraph", "Word", "all_words", "parse_polygraph",
    "serialize_polygraph",
    # engine
    "ExplorationBudget", "IllComposed", "Path", "ReductionGraph",
    "RewriteStep", "TruncatedRegion", "Unreachable", "ZigzagPath", "explore",
    "zigzags_equal",
    # branchings
    "PEIFFER", "LocalBranching", "critical_branchings", "local_branchings",
    # labelling
    "Labelling", "LabellingError", "derived_qnf_map",
    # decreasing
    "Audit", "MeasureError", "PeifferReport", "SearchExhausted",
    "check_peiffer_decreasing", "decide_peiffer",
    # expressions
    "CONFLUENCE", "LOOP", "MissingLoopClass", "ThreeCell",
    "ThreeCellExpression", "check_boundary",
    # completion
    "CERTIFIED", "PARTIAL", "CoherentPresentation", "build_completion",
    "fill_parallel_sphere", "fill_zigzag_sphere", "parse_sphere",
    # homology
    "ChainComplexZ", "HomologyResult", "abelianize", "homology",
    "fixtures",
]
__version__ = "0.1.0"
