"""The record contract (``emprint._record``): every record of the package
builds, compares, hashes, prints and refuses assignment as a dataclass
does, and importing the package compiles no generated source."""

import dataclasses
import json
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

import emprint
from emprint.catalog import FamilySpec, TimeGrid, TrainingSet
from emprint.cli import RunConfig
from emprint.diagnostics import DiagnosticsReport, OrderRecord
from emprint.eim import EmpiricalInterpolant, SelectionCriterion, StepRecord, build_interpolant
from emprint.rbm import ReducedBasis

GRID = TimeGrid(0.0, 1.0, 6)
BASIS = ReducedBasis(GRID, np.eye(6, dtype=complex)[:3], np.array([0.5, 0.25, 0.125]),
                     (0, 1, 2), 1e-12)
ITP = build_interpolant(BASIS, SelectionCriterion.CLASSIC, 3)
ORDER = OrderRecord(1, 1.0, 1.0, 0.5, 0.25, (0,))

# One valid call of each record: a value for every field, in declaration
# order, none of them its default.
CALLS = {
    TimeGrid: (0.0, 1.0, 6),
    TrainingSet: (GRID, np.array([[1.0], [2.0]]), np.ones((2, 6), dtype=complex), "ab" * 32),
    FamilySpec: ("damped_chirp", ((1.0, 5.0),), 4, GRID, "random", 3),
    ReducedBasis: (GRID, BASIS.basis, BASIS.greedy_errors, (0, 1, 2), 1e-12),
    StepRecord: (1 + 2j, 1.0, 1.5, 0.5),
    EmpiricalInterpolant: tuple(getattr(ITP, f.name) for f in fields(EmpiricalInterpolant)),
    OrderRecord: (1, 1.0, 1.0, 0.5, 0.25, (0,)),
    DiagnosticsReport: (SelectionCriterion.CLASSIC, (ORDER,), "set", GRID, 1.0),
    RunConfig: ("basis", "t.csv", "damped_chirp", 5, 6, 0.5, 2.0, "1:2", "random", 2,
                "out", 1e-10, 3, 2, "classic", True),
}


def _same(a, b) -> bool:
    """Whether two records of one class hold the same field values."""
    return all(x is y or (np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y)
               for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a)))


@pytest.mark.parametrize("cls", list(CALLS), ids=lambda cls: cls.__name__)
def test_a_record_behaves_as_its_dataclass(cls):
    args = CALLS[cls]
    names = [f.name for f in fields(cls)]
    assert len(args) == len(names)
    record = cls(*args)
    by_keyword = dict(zip(names, args))
    assert _same(record, cls(**by_keyword))
    assert _same(record, cls(args[0], **{name: by_keyword[name] for name in names[1:]}))

    # Left-out fields take their defaults.
    required = [f for f in fields(cls)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    defaulted = cls(*args[:len(required)])
    assert all(getattr(defaulted, f.name) == f.default for f in fields(cls)[len(required):])

    with pytest.raises(TypeError, match=f"missing .*'{required[-1].name}'"):
        cls(*args[:len(required) - 1])
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*args, bogus=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError, match="positional arguments but"):
        cls(*args, None)

    if cls is RunConfig:
        record.seed = 7
        assert record.seed == 7
    else:
        with pytest.raises(FrozenInstanceError):
            setattr(record, names[-1], args[-1])
        with pytest.raises(FrozenInstanceError):
            delattr(record, names[0])
        assert _same(record, cls(*args))

    assert [f.name for f in fields(record)] == names
    copy = replace(record, **{names[-1]: args[-1]})
    assert copy is not record and _same(copy, record)
    assert repr(record) == (f"{cls.__qualname__}("
                            + ", ".join(f"{n}={getattr(record, n)!r}" for n in names) + ")")


@dataclasses.dataclass(frozen=True)
class _Grid:
    t_start: float
    t_end: float
    n_samples: int


@dataclasses.dataclass(frozen=True)
class _Step:
    det_v: complex
    kappa: float
    lebesgue: float
    residual_at_node: float


@pytest.mark.parametrize("cls, reference, args, other", [
    (TimeGrid, _Grid, (0.0, 1.0, 6), (0.0, 1.0, 7)),
    (StepRecord, _Step, (1 + 2j, 1.0, 1.5, 0.5), (1 + 2j, 1.0, 1.5, 0.25)),
], ids=["TimeGrid", "StepRecord"])
def test_equality_hash_and_repr_are_a_dataclass_s(cls, reference, args, other):
    a, b, same = cls(*args), cls(*args), reference(*args)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(same)
    assert a != cls(*other) and hash(a) != hash(cls(*other))
    # A record equals only records of its own class.
    assert a != args and a != same
    assert len({a, b, cls(*other)}) == 2
    assert repr(a) == cls.__qualname__ + repr(same)[len(reference.__qualname__):]


def test_a_run_config_compares_but_does_not_hash():
    assert RunConfig("generate") == RunConfig("generate") != RunConfig("basis")
    with pytest.raises(TypeError, match="unhashable"):
        hash(RunConfig("generate"))


def test_importing_the_package_compiles_no_source_text():
    # A fresh interpreter counts every exec and eval of source text while
    # it imports emprint.cli, and so the package with it. numpy and scipy
    # are imported first: scipy's array-API layer execs source of its own.
    # From Python 3.13 on, dataclasses.dataclass compiles one empty function
    # builder per class, even for a class to which it adds no method; that
    # text defines nothing and is the only one let through.
    code = "\n".join([
        "import builtins, json, sys",
        "import numpy, scipy.linalg, scipy.linalg.blas",
        "sources = []",
        "def counting(real):",
        "    def call(source, globals=None, locals=None, *args, **kwargs):",
        "        if isinstance(source, (str, bytes)):",
        "            sources.append(source if isinstance(source, str) else source.decode())",
        "        if globals is None:",
        "            frame = sys._getframe(1)",
        "            globals, locals = frame.f_globals, frame.f_locals if locals is None else locals",
        "        return real(source, globals, locals, *args, **kwargs)",
        "    return call",
        "builtins.exec, builtins.eval = counting(builtins.exec), counting(builtins.eval)",
        "import emprint.cli",
        "print(json.dumps(sources))",
    ])
    src = str(Path(emprint.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    empty_builder = "def __create_fn__():\n\n return ()"
    assert [s for s in json.loads(out) if s != empty_builder] == []
