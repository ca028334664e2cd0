"""The value-object contract of every public record: equality, hashing, immutability, repr."""

import copy
import pickle

import pytest

from geode import (
    CheckGroup,
    MarkedSubdigon,
    MarkedTree,
    Mismatch,
    OrderedTree,
    Subdigon,
    TRIVIAL,
    TruncatedSeries,
    TypeVector,
    VerificationReport,
    hyper_catalan_series,
)


def group():
    return CheckGroup("roundtrip", 2, (Mismatch("1,1", 3, 4),))


# (build one value afresh, a different value of the same class, its repr)
VALUES = {
    "TypeVector": (
        lambda: TypeVector((2, 0, 1, 0)),
        TypeVector((2, 1)),
        "TypeVector('2,0,1')",
    ),
    "OrderedTree": (
        lambda: OrderedTree((OrderedTree(), OrderedTree())),
        OrderedTree.parse("(())"),
        "OrderedTree.parse('(()())')",
    ),
    "MarkedTree": (
        lambda: MarkedTree(OrderedTree.parse("(()())"), 0),
        MarkedTree(OrderedTree.parse("(()())"), 1),
        "MarkedTree.parse('(*())')",
    ),
    "Subdigon": (
        lambda: Subdigon((None, None)),
        Subdigon((None,)),
        "Subdigon.parse('(()())')",
    ),
    "MarkedSubdigon": (
        lambda: MarkedSubdigon(Subdigon.parse("(()())"), 1),
        MarkedSubdigon(Subdigon.parse("(()())"), 0),
        "MarkedSubdigon(subdigon=Subdigon.parse('(()())'), mark=1)",
    ),
    "TruncatedSeries": (
        lambda: hyper_catalan_series(3),
        hyper_catalan_series(2),
        "<TruncatedSeries bound=3: 1 + t1 + t1^2 + t2 + t1^3 + 3*t1*t2 + t3>",
    ),
    "Mismatch": (
        lambda: Mismatch("1,1", 3, 4),
        Mismatch("1,1", 3, 5),
        "Mismatch(monomial='1,1', expected=3, actual=4)",
    ),
    "CheckGroup": (
        group,
        CheckGroup("roundtrip", 2),
        "CheckGroup(label='roundtrip', checked=2, "
        "mismatches=(Mismatch(monomial='1,1', expected=3, actual=4),))",
    ),
    "VerificationReport": (
        lambda: VerificationReport("bijections", 3, (group(),)),
        VerificationReport("bijections", 4, (group(),)),
        "VerificationReport(name='bijections', bound=3, groups=(CheckGroup("
        "label='roundtrip', checked=2, "
        "mismatches=(Mismatch(monomial='1,1', expected=3, actual=4),)),))",
    ),
}
PLAIN_CLASSES = ("TypeVector", "OrderedTree", "MarkedTree", "Subdigon", "MarkedSubdigon")


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_are_equal_and_hash_equal(name):
    build, other, _ = VALUES[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b, other}) == 2
    assert a != other


@pytest.mark.parametrize("name", VALUES)
def test_values_are_immutable(name):
    value = VALUES[name][0]()
    for field in ("entries", "word", "tree", "mark", "slots", "subdigon", "label", "x"):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
    assert value == VALUES[name][0]()


@pytest.mark.parametrize("name", VALUES)
def test_values_copy_and_pickle(name):
    value = VALUES[name][0]()
    assert copy.copy(value) == copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("name", VALUES)
def test_reprs(name):
    build, _, text = VALUES[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", PLAIN_CLASSES)
def test_equality_stays_within_the_class(name):
    value = VALUES[name][0]()
    for other in [object(), *(VALUES[n][1] for n in PLAIN_CLASSES if n != name)]:
        assert value.__eq__(other) is NotImplemented
        assert value != other


def test_defaults():
    assert TypeVector() == TypeVector.zero() and TypeVector().entries == ()
    assert Subdigon() == TRIVIAL and Subdigon().slots == ()
    assert OrderedTree().word == (0,)
    assert CheckGroup("x", 0).mismatches == ()


@pytest.mark.parametrize(
    "build",
    [
        lambda: TypeVector((True,)),
        lambda: TypeVector((1, 0.5)),
        lambda: MarkedTree(OrderedTree.parse("(()())"), 2),
        lambda: MarkedTree(OrderedTree.parse("(()())"), -1),
        lambda: MarkedSubdigon(Subdigon.parse("(()())"), 2),
        lambda: MarkedSubdigon(TRIVIAL, 1),
        lambda: Subdigon((None, TRIVIAL)),
    ],
)
def test_bad_input_is_a_value_error(build):
    with pytest.raises(ValueError):
        build()

