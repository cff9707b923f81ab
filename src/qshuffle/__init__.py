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

__version__ = "0.1.0"

# `characters` loads on first use of it or of one of these names: a scan never runs it.
_CHARACTER_NAMES = {
    "ShapeConstraintViolated", "ShiftedSkewShape", "SkewShape", "shifted_tableau_character", "skew_tableau_character"
}
# Every public name bound above, the submodules among them, and the lazy ones.
__all__ = sorted({*(name for name in globals() if not name.startswith("_")), "characters", *_CHARACTER_NAMES})


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def __getattr__(name: str):
    if name == "characters" or name in _CHARACTER_NAMES:
        import qshuffle.characters as characters  # `from . import` would ask this hook for it again

        return characters if name == "characters" else getattr(characters, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
