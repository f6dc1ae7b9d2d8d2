"""Logic programs whose Skolem terms carry discrete probability
distributions. Queries run by resolution and build a Bayesian network over
the constrained terms; marginals come from exact inference on that network.
"""

from . import inference, learn, prm
from .engine import Answer, Engine, solve
from .errors import ClpbnError
from .inference import (
    agreement_check,
    agreement_sweep,
    all_marginals,
    ground_program,
    marginal,
    sample,
    sample_csv,
)
from .learn import (
    SampleSet,
    StructureReport,
    bic_score,
    compare_structures,
    fit_cpts,
    remove_cycles,
)
from .network import ConstraintNetwork, Node
from .parser import parse_term, term_to_text
from .prm import compile_prm, load_schema, roundtrip_check
from .program import Program, parse_program, validate

__version__ = "0.1.0"

__all__ = [
    "Answer",
    "ClpbnError",
    "ConstraintNetwork",
    "Engine",
    "Node",
    "Program",
    "SampleSet",
    "StructureReport",
    "agreement_check",
    "agreement_sweep",
    "all_marginals",
    "bic_score",
    "compare_structures",
    "compile_prm",
    "fit_cpts",
    "ground_program",
    "inference",
    "learn",
    "load_schema",
    "marginal",
    "parse_program",
    "parse_term",
    "prm",
    "remove_cycles",
    "roundtrip_check",
    "sample",
    "sample_csv",
    "solve",
    "term_to_text",
    "validate",
    "__version__",
]
