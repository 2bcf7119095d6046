"""The value classes as records: the ``==``, ``hash``, ``repr``, copying and
refusal of assignment that they had as dataclasses, and an import of cudlab
that brings in neither ``dataclasses`` nor ``inspect``."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import cudlab
from cudlab.matchings import MatchingPair
from cudlab.oracle import Census
from cudlab.perms import CycleDecomposition, Family, MalformedInput, Permutation
from cudlab.statistics import MinMaxPattern, StatVector

# (builder, the repr each class had as a dataclass, one field); each builder
# returns a new value equal to the last
RECORDS = {
    "Permutation": (lambda: Permutation((2, 5, 1)), "Permutation(word=(2, 5, 1))", "word"),
    "CycleDecomposition": (
        lambda: CycleDecomposition(((1, 3), (2,))),
        "CycleDecomposition(cycles=((1, 3), (2,)))",
        "cycles",
    ),
    "StatVector": (
        lambda: StatVector(3, 1, 2, 1, 2, 5, 3, 3, 2, 1),
        "StatVector(c=3, c_o=1, c_e=2, fp=1, lrm=2, st=5, extr=3, exc=3, ud=2, nud=1)",
        "lrm",
    ),
    "MinMaxPattern": (
        lambda: MinMaxPattern(("max",), ("min", "max")),
        "MinMaxPattern(prefix=('max',), tail=('min', 'max'))",
        "tail",
    ),
    "MatchingPair": (
        lambda: MatchingPair(4, ((1, 3), (2, 4)), ((1, 4), (2, 3))),
        "MatchingPair(n=4, red=((1, 3), (2, 4)), blue=((1, 4), (2, 3)))",
        "blue",
    ),
    "Census": (
        lambda: Census(1, {(3, (1,)): 1}, {Family.UD: [(1,)]}),
        "Census(n=1, tally={(3, (1,)): 1}, words={<Family.UD: 'ud'>: [(1,)]})",
        "tally",
    ),
}
FROZEN = [name for name in RECORDS if name != "Census"]


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_the_dataclass_repr(name):
    make, text, _ = RECORDS[name]
    assert repr(make()) == text and type(make()).__name__ == name


@pytest.mark.parametrize("name", RECORDS)
def test_equal_values_compare_and_hash_equal(name):
    make, _, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if name == "Census":  # mutable, so unhashable, as a plain dataclass
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", RECORDS)
def test_copies_are_equal(name):
    make, text, _ = RECORDS[name]
    for twin in (copy.copy(make()), copy.deepcopy(make()), pickle.loads(pickle.dumps(make()))):
        assert twin == make() and repr(twin) == text


@pytest.mark.parametrize("name", FROZEN)
def test_assigning_a_field_raises(name):
    make, text, field = RECORDS[name]
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.other = 1
    assert repr(value) == text


def test_a_census_stays_assignable():
    # it was a dataclass without frozen=True; only a new name is refused
    cen = RECORDS["Census"][0]()
    cen.n = 2
    assert cen.n == 2
    with pytest.raises(AttributeError):
        cen.other = 1


def test_values_of_different_classes_differ():
    values = [make() for make, _, _ in RECORDS.values()]
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            assert (a == b) == (i == j)
    # a record is not equal to a tuple of its fields, but a StatVector, a
    # NamedTuple, is
    assert Permutation((2, 1)) != ((2, 1),) and Permutation((2, 1)) != (2, 1)
    assert MinMaxPattern((), ("min",)) != ((), ("min",))
    assert StatVector(*range(10)) == tuple(range(10))


def test_trusted_skips_the_checks():
    with pytest.raises(MalformedInput):
        Permutation((1, 1))
    assert Permutation._trusted((1, 1)).word == (1, 1)
    assert CycleDecomposition._trusted(((2, 1),)).cycles == ((2, 1),)


SRC = Path(cudlab.__file__).resolve().parent
# by name, since pkgutil.iter_modules imports inspect; __main__ runs the CLI
MODULES = ["bijections", "catalog", "cli", "matchings", "oracle", "perms", "series", "statistics"]


def test_the_module_list_is_complete():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(MODULES + ["__init__", "__main__"])


def test_import_brings_in_no_dataclasses_or_inspect():
    script = (
        "import sys\n"
        "import cudlab\n"
        f"for name in {MODULES!r}:\n"
        "    __import__('cudlab.' + name)\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
