"""Binary lambda calculus toolkit.

Lambda terms in de Bruijn form, their self-delimiting binary codes,
exact counts by size, a rank/unrank bijection with uniform sampling,
simple-type inference, and the singularity analysis behind the growth
rate of the counting sequences.
"""

from .terms import (
    Abs,
    App,
    DecodeError,
    FreeIndexExceeded,
    Index,
    ParseError,
    Term,
    TrailingBits,
    Truncated,
    decode,
    encode,
    max_free_index,
    parse_text,
    render,
    size,
)
from .counting import CountTable, count, count_row, verify_functional_equation
from .enumeration import (
    AttemptsExhausted,
    NoTerms,
    OutOfRange,
    Sampler,
    rank,
    sample,
    sample_typable,
    unrank,
)
from .typecheck import (
    Arrow,
    SimpleType,
    TVar,
    Typing,
    count_typable,
    format_type,
    infer,
    infer_annotated,
    is_typable,
)
from .asymptotics import (
    AsymptoticReport,
    ConvergencePoint,
    IntPolynomial,
    bound_discriminant,
    constants,
    convergence_series,
    real_roots,
    sigma,
)

__version__ = "0.1.0"
