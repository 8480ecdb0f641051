"""The result and parameter records are named tuples: positional and keyword
construction, defaults, immutability and a repr naming class and fields."""

import pytest

from degenmatch import (
    EdgeColoring,
    EliminationOrder,
    Matching,
    NiceTreeDecomposition,
    OracleLimits,
)
from degenmatch.chordal import DecompNode
from degenmatch.dp import DPResult

RECORDS = [
    EliminationOrder((1, 0), [[1], []], [1, None]),
    DecompNode("pendant", (0,), (0,), 1, (0,)),
    NiceTreeDecomposition([DecompNode("leaf", ())], 0),
    DPResult(1, Matching([(0, 1)]), 0, 0, "matching"),
    EdgeColoring({(0, 1): 1}, 1, 1, 1),
    OracleLimits(),
]


def test_defaults_and_keyword_construction():
    assert OracleLimits(max_edges=2) == OracleLimits(16, 2, 60_000)
    assert OracleLimits() == (16, 48, 60_000)
    leaf = DecompNode("leaf", ())
    assert (leaf.children, leaf.vertex, leaf.neighbours) == ((), None, ())
    assert DecompNode(kind="forget", bag=(), children=(1,), vertex=0) == \
        DecompNode("forget", (), (1,), 0, ())
    with pytest.raises(TypeError):  # the builder passes both fields
        NiceTreeDecomposition()


@pytest.mark.parametrize("record", RECORDS, ids=lambda rec: type(rec).__name__)
def test_records_are_immutable_with_a_named_repr(record):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1  # __slots__ = () leaves no instance dict
    assert repr(record).startswith(type(record).__name__ + "(")
    for field in record._fields:
        assert field + "=" in repr(record)
    assert record == type(record)(*record)
    assert record == tuple(record)
