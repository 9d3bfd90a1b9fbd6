"""symcenter: exact computations in finite-dimensional associative algebras.

Algebras are given by structure constants over GF(p), GF(p^k) or Q; the
package computes centers, commutator spaces, verified Jacobson radicals,
socles, Reynolds ideals, Loewy series and symmetrizing forms, decides
whether J(Z(A)), soc(Z(A)) and R(A) are two-sided ideals, and ships a
corpus of worked examples with their expected exact values.
"""

from .algebra import Algebra, AlgebraElement
from .analysis import AnalysisReport, analyze
from .constructions import (
    SkewPresentation,
    TrivExtCriteria,
    from_matrix_generators,
    from_skew_presentation,
    opposite,
    quotient,
    tensor,
    trivial_extension,
    trivext_criteria,
)
from .errors import SymcenterError
from .fields import (
    GF,
    QQ,
    ExtensionField,
    FieldDescriptor,
    FieldScalar,
    PrimeField,
    RationalField,
    element_of_order,
    gf25,
)
from .linalg import (
    Subspace,
    contains,
    kernel,
    rank,
    rref_data,
    subspace_intersect,
    subspace_sum,
)
from .substructures import (
    PropertyVerdicts,
    RadicalCertificate,
    annihilator_in_center,
    is_basic,
    is_local,
    j_of_center,
    property_verdicts,
    radical,
    reynolds,
    soc_of_center,
    socle,
)
from .symmetric import (
    QuotientWitness,
    check_nustar_relations,
    perp,
    symmetric_gram,
    symmetric_ideal,
    symmetric_quotient,
    symmetrize,
    verify_symmetric,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra", "AlgebraElement",
    "AnalysisReport", "analyze",
    "SkewPresentation", "TrivExtCriteria",
    "from_matrix_generators", "from_skew_presentation",
    "opposite", "quotient", "tensor", "trivial_extension", "trivext_criteria",
    "SymcenterError",
    "GF", "QQ", "ExtensionField", "FieldDescriptor", "FieldScalar",
    "PrimeField", "RationalField", "element_of_order", "gf25",
    "Subspace", "contains", "kernel", "rank", "rref_data",
    "subspace_intersect", "subspace_sum",
    "PropertyVerdicts", "RadicalCertificate",
    "annihilator_in_center", "is_basic", "is_local", "j_of_center",
    "property_verdicts", "radical", "reynolds", "soc_of_center", "socle",
    "QuotientWitness", "check_nustar_relations",
    "perp", "symmetric_gram", "symmetric_ideal", "symmetric_quotient", "symmetrize",
    "verify_symmetric",
]
