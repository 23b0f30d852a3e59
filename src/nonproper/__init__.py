"""Exact non-properness sets of polynomial maps, with certified curve
coverings and a numeric limit-curve tracker.

The package computes, for a generically finite polynomial map with
rational coefficients, the set of target points near which the map fails
to be proper; certifies that this set is covered by parametric curves of
bounded degree (with exact minimality proofs where requested); and
realizes the limit-curve construction numerically with exact rational
back-verification.
"""

from .errors import (
    NonproperError,
    ParseError,
    PreconditionError,
    SearchError,
    VerificationError,
)
from .orders import GREVLEX, LEX, block_order
from .mpoly import (
    Context,
    MPoly,
    Scalar,
    exact_div,
    mpoly_gcd,
    resultant,
    squarefree_full,
    squarefree_part,
)
from .parser import parse_poly
from .unipoly import IsolatingInterval, nonneg_on_line, real_roots
from .groebner import Ideal, dimension, eliminate, is_groebner, vanishes_on
from .properness import (
    BOUND_MODES,
    CoordinateData,
    PolyMap,
    SfResult,
    coordinate_min_poly,
    coordinate_min_poly_resultant,
    graph_ideal,
    image_closure,
    is_proper_at,
    sf_components_resultant,
    sf_compute,
    theorem_bound,
)
from .curves import (
    AnsatzSystem,
    CurveReport,
    OneParamAction,
    ParametricCurve,
    UniruledCertificate,
    ansatz_system,
    certify,
    common_inner,
    cover_image_real,
    curve_relations,
    decompose,
    find_curve,
    fixed_locus,
    is_unbounded,
    leading_behavior,
    no_smaller_curve,
    one_param_action,
    substitute_curve,
    verify_curve,
    verify_curve_pointwise,
)
from .tracker import (
    ConstantCurveError,
    FloatCurve,
    LimitTrace,
    PathSpec,
    StepRecord,
    VerifiedLimit,
    image_curve,
    rationalize_verify,
    track,
    unit_normalize,
)

__version__ = "0.1.0"
