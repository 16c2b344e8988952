"""liepair: exact decision procedures for reductive pairs (g, h).

Given exact structure constants for a reductive Lie algebra g, a subalgebra
h, and designated split tori, the library decides temperedness of L²(G/H)
through the piecewise-linear criterion rho_h ≤ rho_{g/h}, certifies real and
complex sphericity through open-orbit rank tests at exact group-element
words, and reports the representation-theoretic consequences with citations.
"""

__version__ = "0.1.0"

from .algebra import (
    LieAlgebra,
    SubalgebraEmbedding,
    Subspace,
    ValidationError,
    ad_matrix,
    bracket,
    subspace_intersect,
    validate,
)
from .catalog import base_algebra, build_fixture, construct, construct_from_spec
from .checks import (
    Pair,
    Verdict,
    check_complex_spherical,
    check_real_spherical,
    check_tempered,
    generic_stabilizer,
    interpret,
    minimal_parabolic,
    verify_certificate,
)
from .pairfile import parse_pair_file, parse_pair_text, serialize_pair
from .polyhedral import (
    build_arrangement,
    decide_dominance,
    enumerate_lines,
)
from .weights import (
    RhoFunction,
    SplitTorus,
    quotient_weights,
    rho_eval,
    rho_from_weights,
    validate_torus,
    weight_decomposition,
)
