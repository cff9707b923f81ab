"""The value records of the package (Cartan data, good words, membership
witnesses, shapes, basis vectors) and the type-label parser: equality and
hashing by value within one class, their repr text, immutability, and every
validation error with its message, also through `_replace` and `_make`;
and, being tuples, how they unpack, index, order, copy and pickle."""

import copy
import pickle
import warnings

import pytest

from qshuffle import cartan
from qshuffle.basis import (
    DualCanonicalVector,
    DualPBWVector,
    GoodLyndonTable,
    GoodWord,
    ScanReport,
    WeightEntry,
    scan,
)
from qshuffle.cartan import CartanDatum, UnsupportedRank
from qshuffle.characters import (
    ShapeConstraintViolated,
    ShiftedSkewShape,
    SkewShape,
    TableauCharacter,
    shifted_tableau_character,
    skew_tableau_character,
)
from qshuffle.laurent import ONE, monomial
from qshuffle.shuffle import MembershipWitness, ShuffleElt

B2 = cartan.parse("B2")
WITNESS = MembershipWitness(1, 2, (1,), (), monomial(1, 2))


def _b2(**changes):
    fields = {"family": "B", "rank": 2, "cartan": B2.cartan, "d": B2.d, "bilinear": B2.bilinear}
    return CartanDatum(**{**fields, **changes})


# (record, an equal copy built afresh, a record that differs in one field)
CASES = [
    (B2, cartan.build("B", 2), cartan.build("C", 2)),
    (
        GoodWord((2, 1, 1, 2), (((2,), 1), ((1, 1, 2), 1))),
        GoodLyndonTable(B2).good_word((2, 1, 1, 2)),
        GoodWord((2, 1, 1, 2), (((2,), 1), ((1, 1, 2), 2))),
    ),
    (
        WITNESS,
        MembershipWitness(1, 2, (1,), (), monomial(1, 2)),
        MembershipWitness(1, 2, (1,), (), monomial(1, 3)),
    ),
    (SkewShape((3, 1)), SkewShape((3, 1), ()), SkewShape((3, 1), (1,))),
    (ShiftedSkewShape((3, 1)), ShiftedSkewShape((3, 1), ()), ShiftedSkewShape((3, 2))),
]


@pytest.mark.parametrize("record, same, other", CASES, ids=lambda r: type(r).__name__)
def test_records_compare_and_hash_by_value(record, same, other):
    assert record is not same
    assert record == same and not record != same and hash(record) == hash(same)
    assert record != other and not record == other
    assert len({record, same, other}) == 2


FIELDS = {CartanDatum: "rank", GoodWord: "word", MembershipWitness: "total", SkewShape: "lam", ShiftedSkewShape: "mu"}


@pytest.mark.parametrize("record, _same, _other", CASES, ids=lambda r: type(r).__name__)
def test_records_are_immutable(record, _same, _other):
    with pytest.raises(AttributeError):
        setattr(record, FIELDS[type(record)], None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("record, _same, _other", CASES, ids=lambda r: type(r).__name__)
def test_records_never_equal_a_plain_tuple(record, _same, _other):
    assert record != tuple(record) and not record == tuple(record)
    assert tuple(record) != record and not tuple(record) == record


def test_records_of_different_classes_differ_on_equal_fields():
    skew, shifted = SkewShape((2, 1)), ShiftedSkewShape((2, 1))
    assert skew != shifted and not skew == shifted
    assert len({skew, shifted}) == 2 and len({skew: 0, shifted: 1}) == 2
    good = GoodWord((1,), (((1,), 1),))
    elt = ShuffleElt.from_word(B2, (1,))
    assert DualPBWVector(good, elt) != DualCanonicalVector(good, elt)
    assert DualPBWVector(good, elt) == DualPBWVector(good, elt)
    assert len({DualPBWVector(good, elt), DualCanonicalVector(good, elt)}) == 2


def test_basis_vectors_read_kappa_from_their_vector():
    # kappa is no field: it is the vector's coefficient at its own good word
    assert DualPBWVector._fields == DualCanonicalVector._fields == ("good_word", "elt")
    good = GoodWord((1,), (((1,), 1),))
    elt = ShuffleElt.from_word(B2, (1,), monomial(1, 2))
    assert DualPBWVector(good, elt).kappa == DualCanonicalVector(good, elt).kappa == monomial(1, 2)
    with pytest.raises(AttributeError):
        DualPBWVector(good, elt).kappa = ONE


RECORD_FIELDS = {
    CartanDatum: ("family", "rank", "cartan", "d", "bilinear"),
    GoodWord: ("word", "factors"),
    DualPBWVector: ("good_word", "elt"),
    DualCanonicalVector: ("good_word", "elt"),
    WeightEntry: ("weight", "vectors", "violations", "elapsed"),
    ScanReport: ("entries", "elapsed"),
    MembershipWitness: ("i", "j", "left", "right", "total"),
    SkewShape: ("lam", "mu"),
    ShiftedSkewShape: ("lam", "mu"),
    TableauCharacter: ("good_word", "element"),
}


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_records_are_tuples_of_their_named_fields(cls):
    assert issubclass(cls, tuple) and cls._fields == RECORD_FIELDS[cls]


def test_records_unpack_index_and_order_as_tuples():
    table = GoodLyndonTable(B2)
    good = table.good_word((2, 1, 1, 2))
    word, factors = good
    assert (word, factors) == (good.word, good.factors) == (good[0], good[1]) == tuple(good)
    assert good[-1] is good.factors and good[:1] == ((2, 1, 1, 2),) and len(good) == 2
    goods = table.good_words_of_weight((2, 2))
    assert len(goods) > 1 and sorted(goods[::-1]) == sorted(goods, key=tuple) == sorted(goods, key=lambda g: g.word)
    shapes = [SkewShape((3, 1)), SkewShape((2, 1), (1,)), SkewShape((2, 1))]
    assert sorted(shapes) == [SkewShape((2, 1)), SkewShape((2, 1), (1,)), SkewShape((3, 1))]
    assert SkewShape((2, 1)) < SkewShape((3,)) and max(shapes) == SkewShape((3, 1))
    report = scan(table, 2, "positivity")
    entries, elapsed = report
    assert (entries, elapsed) == (report.entries, report.elapsed)
    weight, vectors, violations, _ = entries[0]
    assert (weight, vectors, violations) == (entries[0].weight, 1, ())
    family, rank, *_ = B2
    assert (family, rank) == ("B", 2) and B2[1:2] == (2,)


def test_records_build_by_keyword_and_survive_copy_and_pickle():
    good = GoodWord((1,), (((1,), 1),))
    assert GoodWord(word=(1,), factors=(((1,), 1),)) == GoodWord((1,), factors=(((1,), 1),)) == good
    for values, named in [(((1,),), {}), (((1,), (), ()), {}), (((1,), ()), {"word": (1,)}), (((1,),), {"factor": ()})]:
        with pytest.raises(TypeError, match="^GoodWord takes the fields word, factors$"):
            GoodWord(*values, **named)
    with pytest.raises(ValueError, match="^Got unexpected field names: \\['wrd'\\]$"):
        good._replace(wrd=(2,))
    for record in [B2, good, WITNESS, SkewShape((3, 1), (1,)), ShiftedSkewShape((3, 1))]:
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert twin == record and type(twin) is type(record)


def test_replace_and_make_validate():
    with pytest.raises(ValueError, match="^symmetrizers must lie in {1,2,3}$"):
        B2._replace(d=(1, 4))
    with pytest.raises(ShapeConstraintViolated, match="^partition parts must decrease$"):
        SkewShape((2, 1))._replace(lam=(1, 2))
    with pytest.raises(ShapeConstraintViolated, match="^partition parts must decrease$"):
        ShiftedSkewShape._make(((2, 2), ()))
    assert SkewShape((2, 1))._replace(mu=(1,)) == SkewShape((2, 1), (1,))
    assert type(ShiftedSkewShape((3, 1))._replace(mu=(1,))) is ShiftedSkewShape


def test_record_reprs():
    assert repr(B2) == (
        "CartanDatum(family='B', rank=2, cartan=((2, -2), (-1, 2)), d=(1, 2), bilinear=((2, -2), (-2, 4)))"
    )
    assert str(B2) == "B2"
    good = GoodLyndonTable(B2).good_word((2, 1, 1, 2))
    assert repr(good) == "GoodWord(word=(2, 1, 1, 2), factors=(((2,), 1), ((1, 1, 2), 1)))"
    assert str(good) == "w[2,1,1,2]"
    assert repr(WITNESS) == f"MembershipWitness(i=1, j=2, left=(1,), right=(), total={WITNESS.total!r})"
    assert str(WITNESS) == f"relation i=1 j=2 z=w[1] t=w[] sums to {WITNESS.total}"
    assert repr(SkewShape((3, 1), (1,))) == "SkewShape(lam=(3, 1), mu=(1,))"
    assert repr(SkewShape((2,))) == "SkewShape(lam=(2,), mu=())"
    assert repr(ShiftedSkewShape((3, 1))) == "ShiftedSkewShape(lam=(3, 1), mu=())"


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"cartan": ((3, -2), (-1, 2))}, "Cartan diagonal must be 2"),
        ({"d": (1, 4)}, "symmetrizers must lie in {1,2,3}"),
        ({"bilinear": ((4, -2), (-2, 4))}, "bilinear diagonal must be 2\\*d_i"),
        ({"cartan": ((2, 2), (-1, 2))}, "off-diagonal Cartan entries must be <= 0"),
        ({"bilinear": ((2, -1), (-1, 4))}, "bilinear form must be the symmetrized Cartan matrix"),
        # affine A1: a generalized Cartan matrix, but not of finite type
        (
            {"cartan": ((2, -2), (-2, 2)), "d": (1, 1), "bilinear": ((2, -2), (-2, 2))},
            "bilinear form must be positive definite",
        ),
    ],
)
def test_cartan_datum_validation(changes, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        _b2(**changes)


@pytest.mark.parametrize(
    "cls, lam, mu, message",
    [
        (SkewShape, (2, 0), (), "partition parts must be positive"),
        (SkewShape, (3, 1), (-1,), "partition parts must be positive"),
        (SkewShape, (1, 2), (), "partition parts must decrease"),
        (SkewShape, (3, 2), (1, 2), "partition parts must decrease"),
        (ShiftedSkewShape, (2, 2), (), "partition parts must decrease"),
        (SkewShape, (2,), (3,), "inner shape must fit inside the outer shape"),
        (SkewShape, (1,), (1, 1), "inner shape must fit inside the outer shape"),
        (ShiftedSkewShape, (3,), (2, 1), "inner shape must fit inside the outer shape"),
    ],
)
def test_shape_validation(cls, lam, mu, message):
    with pytest.raises(ShapeConstraintViolated, match=f"^{message}$"):
        cls(lam, mu)


def test_equal_parts_are_allowed_in_skew_shapes():
    assert SkewShape((2, 2)).size() == 4


def test_empty_shapes_have_no_character():
    with pytest.raises(ShapeConstraintViolated, match="^empty shape$"):
        skew_tableau_character(cartan.parse("A3"), SkewShape(()), 1)
    with pytest.raises(ShapeConstraintViolated, match="^empty shape$"):
        shifted_tableau_character(B2, ShiftedSkewShape(()))


@pytest.mark.parametrize("label, family, rank", [("B2", "B", 2), (" G2 ", "G", 2), ("A12", "A", 12)])
def test_parse_accepts_type_labels(label, family, rank):
    datum = cartan.parse(label)
    assert (datum.family, datum.rank) == (family, rank)
    assert datum == cartan.build(family, rank)


@pytest.mark.parametrize("label", ["b2", "B", "B2x", "3B", "B²", ""])
def test_parse_rejects_malformed_labels(label):
    with pytest.raises(UnsupportedRank, match="^cannot parse type label ") as info:
        cartan.parse(label)
    assert str(info.value) == f"cannot parse type label {label!r}"


def test_d3_still_warns():
    with pytest.warns(UserWarning, match="D3 is isomorphic to A3"):
        cartan.build("D", 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cartan.build("D", 4)
