"""Exact quantum shuffle computations over finite root systems.

The package realizes the positive half of a quantized enveloping algebra
inside the q-shuffle algebra on words, computes the good Lyndon words
attached to a total order on the simple roots, builds the dual PBW vectors
by bracketing and exact normalization, straightens them into the dual
canonical basis, and compares it against tableau character sums.
"""

from .cartan import CartanDatum, UnsupportedRank, build, parse, positive_roots, kostant_partitions
from .laurent import (
    InexactDivision,
    LaurentPoly,
    NotAPerfectSquare,
    TheoryViolation,
    exact_div,
    q_binom,
    q_factorial,
    q_int,
    sqrt_exact,
)
from .shuffle import (
    DatumMismatch,
    HomogeneityError,
    MembershipWitness,
    ShuffleElt,
    ZeroElement,
    bar_elt,
    coefficient,
    concat,
    e_prime,
    e_prime_dag,
    max_word,
    prepend_letter,
    qshuffle,
    serre_membership,
    shuffle_bracket,
    sigma,
    specialize_q1,
    tau,
)
from .basis import (
    DualCanonicalVector,
    DualPBWVector,
    GoodLyndonTable,
    GoodWord,
    NotGoodLyndon,
    NotGoodWord,
    NotInU,
    StraighteningFailure,
    is_real,
    scan,
)
from .characters import (
    ShapeConstraintViolated,
    ShiftedSkewShape,
    SkewShape,
    shifted_tableau_character,
    skew_tableau_character,
)

__version__ = "0.1.0"
