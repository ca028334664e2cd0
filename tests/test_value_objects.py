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
    compose_subdigon,
    compose_tree,
    decompose_subdigon,
    decompose_tree,
    hyper_catalan_series,
    subdigon_to_tree,
    tree_to_subdigon,
)
from geode.series import _Value


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
    for field in ("entries", "word", "tree", "mark", "boundary", "subdigon", "label", "x"):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
    assert value == VALUES[name][0]()


@pytest.mark.parametrize("name", VALUES)
def test_values_copy_and_pickle(name):
    value = VALUES[name][0]()
    assert copy.copy(value) == copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("name", ["OrderedTree", "MarkedTree", "Subdigon", "MarkedSubdigon"])
def test_tree_and_subdigon_values_keep_no_instance_dict(name):
    # verify_bijections keeps thousands of marked trees and subdigons alive
    assert not hasattr(VALUES[name][0](), "__dict__")


def bigon_chain(depth):
    return lambda: Subdigon.parse("(" * depth + "()" + ")" * depth)


# every _Value class, and subdigons nested deeper than Python's recursion limit
RESTORED = {
    **{name: VALUES[name][0] for name in VALUES if isinstance(VALUES[name][1], _Value)},
    "Subdigon 3000 deep": bigon_chain(3000),
    "Subdigon 50000 deep": bigon_chain(50_000),
}


@pytest.mark.parametrize("name", RESTORED)
def test_values_restore_their_slots_through_every_protocol_and_copy(name):
    value = RESTORED[name]()
    restored = [copy.copy(value), copy.deepcopy(value)]
    restored += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    assert not hasattr(value, "__dict__")
    set_slots = [slot for slot in type(value).__slots__ if hasattr(value, slot)]
    for other in restored:
        assert type(other) is type(value) and not hasattr(other, "__dict__")
        # checked before any compare: an unset slot stays unset
        assert [slot for slot in type(other).__slots__ if hasattr(other, slot)] == set_slots
    for other in restored:
        assert other == value and hash(other) == hash(value)


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
    assert Subdigon() == TRIVIAL and Subdigon().boundary == (0,)
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


@pytest.mark.parametrize("mark", [1.0, False, "0"])
@pytest.mark.parametrize(
    "cls, parse", [(MarkedTree, OrderedTree.parse), (MarkedSubdigon, Subdigon.parse)]
)
def test_a_mark_that_is_not_an_int_is_a_type_error(cls, parse, mark):
    with pytest.raises(TypeError, match="mark must be an int"):
        cls(parse("(()())"), mark)  # marks 0 and 1 are valid as ints


@pytest.mark.parametrize(
    "build, expected",
    [
        pytest.param(lambda: OrderedTree((1,)), "OrderedTree", id="tree-int"),
        pytest.param(lambda: OrderedTree((OrderedTree(), None)), "OrderedTree", id="tree-None"),
        pytest.param(lambda: Subdigon((1,)), "Subdigon or None", id="subdigon-int"),
        pytest.param(
            lambda: Subdigon((None, OrderedTree())), "Subdigon or None", id="subdigon-tree"
        ),
        pytest.param(lambda: MarkedTree("x", 0), "must be an OrderedTree", id="marked-tree-str"),
        pytest.param(
            lambda: MarkedTree(TRIVIAL, 0), "must be an OrderedTree", id="marked-tree-subdigon"
        ),
        pytest.param(lambda: MarkedSubdigon("x", 0), "must be a Subdigon", id="marked-subdigon-str"),
        pytest.param(
            lambda: MarkedSubdigon(OrderedTree(), 0), "must be a Subdigon", id="marked-subdigon-tree"
        ),
        # a bool child count would be stored in the word as is
        *(
            pytest.param(
                lambda n=n: compose_tree(n, MarkedTree.parse("(*())")),
                "child count must be an int",
                id=f"compose-tree-{type(n).__name__}",
            )
            for n in (True, 2.0, "2")
        ),
        *(
            pytest.param(
                lambda n=n: compose_subdigon(n, MarkedSubdigon(Subdigon.parse("(()())"), 0)),
                "child count must be an int",
                id=f"compose-subdigon-{type(n).__name__}",
            )
            for n in (True, 2.0, "2")
        ),
        # a map handed the wrong class says so, rather than missing an attribute
        pytest.param(lambda: compose_tree(2, "x"), "must be a MarkedTree", id="compose-tree-marked-str"),
        pytest.param(
            lambda: compose_subdigon(1, MarkedTree.parse("(*())")),
            "must be a MarkedSubdigon",
            id="compose-subdigon-marked-tree",
        ),
        pytest.param(lambda: decompose_tree("x"), "must be an OrderedTree", id="decompose-tree-str"),
        pytest.param(lambda: decompose_subdigon("x"), "must be a Subdigon", id="decompose-subdigon-str"),
        pytest.param(
            lambda: tree_to_subdigon(TRIVIAL), "must be an OrderedTree", id="tree-to-subdigon-subdigon"
        ),
        pytest.param(
            lambda: subdigon_to_tree(OrderedTree()), "must be a Subdigon", id="subdigon-to-tree-tree"
        ),
    ],
)
def test_a_child_that_is_not_a_value_is_a_type_error(build, expected):
    with pytest.raises(TypeError, match=expected):
        build()
