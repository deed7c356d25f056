"""The value types are immutable records: construction, immutability,
equality, hashing, repr, pickle and copy."""

import copy
import pickle

import pytest

from growingtrees.enumeration import CountTable, PolySeries, ProbeResult
from growingtrees.oracle import OracleReport
from growingtrees.profiles import Profile
from growingtrees.sequences import CellSet
from growingtrees.tree_core import Tree, TreeStats

# One instance of each record class, with the repr the frozen dataclasses
# wrote for it and whether it hashes (a dict field does not).
RECORDS = [
    (Profile((0, 1, 2)), "Profile(levels=(0, 1, 2))", True),
    (Tree(b"\x00\x03\x03"), "Tree(nodes=b'\\x00\\x03\\x03', step=None)", True),
    (Tree(b"\x01", 0), "Tree(nodes=b'\\x01', step=0)", True),
    (TreeStats(n=1, m=2, ell=0, h=1), "TreeStats(n=1, m=2, ell=0, h=1)", True),
    (CountTable({1: (1,), 2: (0, 2)}), "CountTable(columns={1: (1,), 2: (0, 2)}, h=None)", False),
    (CountTable({}, 3), "CountTable(columns={}, h=3)", False),
    (PolySeries((1, 2, 0), 2), "PolySeries(coeffs=(1, 2, 0), trunc=2)", True),
    (ProbeResult("converged", 1.5, 3), "ProbeResult(status='converged', limit=1.5, iterations=3)", True),
    (ProbeResult(status="undecided"), "ProbeResult(status='undecided', limit=None, iterations=0)", True),
    (CellSet({2: (1, 1)}, 3), "CellSet(columns={2: (1, 1)}, h=3)", False),
    (OracleReport.compare("catalan", 5, 5), "OracleReport(checked='catalan', expected=5, actual=5, passed=True)", True),
]
IDS = [text.split("(")[0] for _, text, _ in RECORDS]


@pytest.mark.parametrize("record, text, hashable", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_text(record, text, hashable):
    assert repr(record) == text


@pytest.mark.parametrize("record, text, hashable", RECORDS, ids=IDS)
def test_pickle_and_copy_give_equal_records(record, text, hashable):
    copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(record), copy.deepcopy(record)]
    for other in copies:
        assert type(other) is type(record)
        assert other == record and not other != record
        assert repr(other) == text
        if hashable:
            assert hash(other) == hash(record)
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(other)


@pytest.mark.parametrize("record, text, hashable", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, text, hashable):
    for name in record.__slots__:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record, text, hashable", RECORDS, ids=IDS)
def test_records_of_another_class_are_unequal(record, text, hashable):
    twin_class = type("Twin", (type(record),), {"__slots__": ()})
    twin = twin_class(*(getattr(record, name) for name in record.__slots__))
    assert repr(twin) == "Twin" + text[text.index("("):]
    assert twin != record and record != twin
    assert not twin == record


def test_equal_fields_in_two_record_classes_compare_unequal():
    assert CountTable({2: (1, 1)}, 3) != CellSet({2: (1, 1)}, 3)
    assert TreeStats(1, 2, 0, 1) != (1, 2, 0, 1)


def test_construction_by_position_keyword_and_default():
    assert CountTable({1: (1,)}) == CountTable(columns={1: (1,)}, h=None) == CountTable({1: (1,)}, None)
    assert ProbeResult("diverged", iterations=4) == ProbeResult("diverged", None, 4)
    assert Tree(b"\x03") == Tree(nodes=b"\x03", step=None)
    assert TreeStats(1, 2, 0, 1) == TreeStats(h=1, ell=0, m=2, n=1)
    with pytest.raises(TypeError, match="missing required arguments: 'm', 'ell', 'h'"):
        TreeStats(1)
    with pytest.raises(TypeError, match="unexpected keyword argument 'k'"):
        TreeStats(1, 2, 0, 1, k=3)
    with pytest.raises(TypeError, match="multiple values for argument 'n'"):
        TreeStats(1, 2, 0, n=1)
    with pytest.raises(TypeError, match="takes 4 arguments but 5 were given"):
        TreeStats(1, 2, 0, 1, 5)


def test_profile_levels_from_a_list_are_the_same_profile():
    assert Profile([0, 2]) == Profile((0, 2))
    assert hash(Profile([0, 2])) == hash(Profile((0, 2)))
    assert Profile([0, 2]).levels == (0, 2)


def test_unpickling_runs_the_profile_checks_again():
    forged = Profile.__new__(Profile)
    object.__setattr__(forged, "levels", (0, 0))
    data = pickle.dumps(forged)
    with pytest.raises(ValueError, match="trailing zero"):
        pickle.loads(data)
    with pytest.raises(ValueError, match="trailing zero"):
        copy.copy(forged)
