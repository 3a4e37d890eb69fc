"""Tests for header types and the header stack."""

import copy
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import (
    EthernetHeader,
    HeaderStack,
    IPv4Header,
    LambdaHeader,
    UDPHeader,
    header_class,
)
from repro.net.headers import STANDARD_HEADERS


def standard_stack():
    return HeaderStack(
        [EthernetHeader(), IPv4Header(src_ip="10.0.0.1", dst_ip="10.0.0.2"), UDPHeader()]
    )


def test_header_sizes():
    assert EthernetHeader().size_bytes == 14
    assert IPv4Header().size_bytes == 20
    assert UDPHeader().size_bytes == 8
    assert LambdaHeader().size_bytes == 16


def test_stack_size_is_sum():
    stack = standard_stack()
    assert stack.size_bytes == 14 + 20 + 8


def test_stack_get_and_require():
    stack = standard_stack()
    assert stack.get("IPv4Header").dst_ip == "10.0.0.2"
    assert stack.get("LambdaHeader") is None
    with pytest.raises(KeyError):
        stack.require("LambdaHeader")


def test_stack_push_and_contains():
    stack = standard_stack()
    stack.push(LambdaHeader(wid=7))
    assert "LambdaHeader" in stack
    assert stack.require("LambdaHeader").wid == 7


def test_insert_after():
    stack = standard_stack()
    stack.insert_after("UDPHeader", LambdaHeader(wid=3))
    names = [header.name for header in stack]
    assert names == ["EthernetHeader", "IPv4Header", "UDPHeader", "LambdaHeader"]


def test_insert_after_missing_raises():
    stack = standard_stack()
    with pytest.raises(KeyError):
        stack.insert_after("TCPHeader", LambdaHeader())


def test_remove():
    stack = standard_stack()
    removed = stack.remove("UDPHeader")
    assert removed.name == "UDPHeader"
    assert "UDPHeader" not in stack
    with pytest.raises(KeyError):
        stack.remove("UDPHeader")


def test_copy_is_independent():
    stack = standard_stack()
    clone = stack.copy()
    clone.require("IPv4Header").dst_ip = "changed"
    assert stack.require("IPv4Header").dst_ip == "10.0.0.2"


def test_header_class_lookup():
    assert header_class("LambdaHeader") is LambdaHeader
    with pytest.raises(KeyError):
        header_class("NoSuchHeader")


def test_field_names():
    assert "wid" in LambdaHeader().field_names()


# -- per-class bookkeeping invariants ----------------------------------------


@pytest.mark.parametrize("cls", STANDARD_HEADERS, ids=lambda c: c.__name__)
def test_name_and_field_names_are_per_class(cls):
    header = cls()
    assert header.name == cls.__name__
    expected = [f.name for f in fields(header)]
    names = header.field_names()
    assert names == expected
    names.append("mutated")
    names.clear()
    assert header.field_names() == expected
    assert cls().field_names() == expected


_header_classes = st.sampled_from(STANDARD_HEADERS)
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _header_classes),
        st.tuples(st.just("insert_after"), _header_classes, _header_classes),
        st.tuples(st.just("remove"), _header_classes),
        st.tuples(st.just("copy")),
    ),
    max_size=40,
)


def _assert_copy_is_independent(source, clone):
    originals = list(source)
    before = [copy.copy(header) for header in originals]
    assert len(clone) == len(source)
    assert clone.size_bytes == source.size_bytes
    for original, cloned, reference in zip(originals, clone, before):
        assert cloned is not original
        assert type(cloned) is type(original)
        assert cloned == reference
        assert vars(cloned) == vars(reference)
    for cloned in clone:
        for name in cloned.field_names():
            setattr(cloned, name, "mutated")
    clone.push(LambdaHeader())
    assert list(source) == before
    assert all(h is o for h, o in zip(source, originals))


@given(initial=st.lists(_header_classes, max_size=6), operations=_operations)
def test_stack_size_tracks_every_mutation(initial, operations):
    stack = HeaderStack([cls() for cls in initial])
    assert stack.size_bytes == sum(h.size_bytes for h in stack)
    for op in operations:
        if op[0] == "push":
            stack.push(op[1]())
        elif op[0] == "insert_after":
            if op[1].__name__ in stack:
                stack.insert_after(op[1].__name__, op[2]())
            else:
                with pytest.raises(KeyError):
                    stack.insert_after(op[1].__name__, op[2]())
        elif op[0] == "remove":
            if op[1].__name__ in stack:
                assert stack.remove(op[1].__name__).name == op[1].__name__
            else:
                with pytest.raises(KeyError):
                    stack.remove(op[1].__name__)
        else:
            clone = stack.copy()
            _assert_copy_is_independent(stack, clone)
            # Go on with the (mutated) copy: its total must hold too.
            stack = clone
        assert stack.size_bytes == sum(h.size_bytes for h in stack)
