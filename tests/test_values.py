"""The value classes: equality, hashing and repr, and no code generation.

Every record type of charsum is a plain __slots__ class.  Each is equal
only to an instance of its own class, hashes as the tuple of its fields
(GammaMonomial as its terms, CycloValue by its trace), and prints the repr
a dataclass with the same fields would print.  The syntax-tree guards
also keep the import layering of identity_engine over norm_algebra.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import charsum
import charsum.cyclotomic as cy
from charsum.characters import MultCharacter
from charsum.cli import Kind
from charsum.cyclotomic import CycloValue
from charsum.field_tower import build_tower
from charsum.identity_engine import GammaMonomial, IdentityRecord
from charsum.monomial_fourier import TransformSolution
from charsum.norm_algebra import (EtaleAlgebra, MonomialDatum, NormCharacter,
                                  NormSolution, VirtualModule)

SRC = Path(charsum.__file__).resolve().parent
T3 = build_tower(3, 1, degrees=(1, 2))
ONE = MultCharacter(1, 0)
CHI = MultCharacter(2, 3)
C = CycloValue(3, (1, -2))

# class, its field names in order, and field values in canonical form
CASES = {
    "MultCharacter": (MultCharacter, ("degree", "index"), (2, 5)),
    "CycloValue": (CycloValue, ("order", "coeffs"), (3, (1, -2))),
    "TransformSolution": (
        TransformSolution,
        ("case", "exponents", "characters", "chi", "b", "c", "twist"),
        (1, (3, -1), (ONE, ONE), ONE, 2, C, 0)),
    "EtaleAlgebra": (EtaleAlgebra, ("tower", "degrees", "base_degree"),
                     (T3, (2, 2), 2)),
    "VirtualModule": (VirtualModule, ("ranks",), ((1, -2),)),
    "NormCharacter": (NormCharacter, ("chars",), ((ONE, CHI),)),
    "MonomialDatum": (MonomialDatum,
                      ("degree", "exponents", "characters", "a"),
                      (1, (3, -1), (ONE, ONE), 1)),
    "NormSolution": (
        NormSolution,
        ("case", "ranks", "characters", "nu", "b", "c", "twist"),
        (1, (1, -2), NormCharacter((ONE, ONE)), ONE, 2, C, 0)),
    "IdentityRecord": (
        IdentityRecord,
        ("zero", "base", "size", "factors", "p_log", "forms",
         "trivial_weight", "orbit", "period"),
        (True, 1, 3, ((1, 2, 2, 0, 2),), 0, ((1, (0,), C, 0),), 1, None,
         2)),
    "_Stage": (cy._Stage, ("degree", "divisor", "inverse", "growth"),
               (2, ((0, 1), (2, 1)), ((0, 1), (2, -1)), 5)),
    "Kind": (Kind, ("keys", "unit", "prepare"),
             (frozenset({"p", "s"}), "tuples", len)),
    "GammaMonomial": (GammaMonomial, ("terms",),
                      (((ONE, 2), (MultCharacter(1, 1), -1)),)),
}


def _hash_of_fields(name, values):
    """The hash each class had as a dataclass or NamedTuple."""
    if name == "GammaMonomial":
        return hash(values[0])
    if name == "CycloValue":
        return hash(2)  # its trace over phi(3): (Tr 1 - 2 Tr zeta_3)/2
    return hash(values)


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_contract(name):
    cls, fields, values = CASES[name]
    v, w = cls(*values), cls(*values)
    assert v is not w and v == w and not v != w
    assert hash(v) == hash(w) == _hash_of_fields(name, values)
    assert tuple(getattr(v, f) for f in fields) == values
    assert v != values and values != v
    assert v.__eq__(values) is NotImplemented
    for other, (ocls, _, ovalues) in CASES.items():
        if other != name:
            assert v != ocls(*ovalues)
    ref = dataclasses.make_dataclass(cls.__name__, fields)
    assert repr(v) == repr(ref(*values))
    assert not hasattr(v, "__dict__")
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(AttributeError):
        v.extra = 1


def test_equal_fields_across_classes_differ():
    assert hash(MultCharacter(2, 5)) == hash((2, 5))
    assert MultCharacter(1, 2) != (1, 2)
    assert VirtualModule((1, 2)) != NormCharacter((1, 2))
    assert hash(VirtualModule((1, 2))) == hash(NormCharacter((1, 2)))
    # a cache keyed by records of several kinds keeps them apart
    cache = {VirtualModule((1, 2)): "module", NormCharacter((1, 2)): "chi"}
    assert len(cache) == 2
    rec = IdentityRecord(False, 1, 3, (), None, None, None, None, None)
    assert rec != (False, 1, 3, (), None, None, None, None, None)
    assert rec != IdentityRecord(True, 1, 3, (), None, None, None, None,
                                 None)


_WRONG_SHAPES = """
from charsum.cyclotomic import CycloValue
from charsum.errors import InternalCheckError
assert False, "asserts must be stripped"
for order, coeffs in ((6, (1,)), (1, (1, 2)), (3, (1, 2, 3)), (0, ())):
    try:
        CycloValue(order, coeffs)
    except InternalCheckError:
        continue
    raise SystemExit(f"{len(coeffs)} coefficients at order {order} built")
"""


def test_wrong_length_cyclo_value_raises_under_optimize():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", _WRONG_SHAPES],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _generated_classes(tree):
    """(line, what) for each dataclass decorator, NamedTuple base and
    namedtuple call in a module's syntax tree."""
    def name(node):
        if isinstance(node, ast.Call):
            node = node.func
        if isinstance(node, ast.Attribute):
            return node.attr
        return node.id if isinstance(node, ast.Name) else None

    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for dec in node.decorator_list:
                if name(dec) == "dataclass":
                    yield node.lineno, f"@dataclass on {node.name}"
            for base in node.bases:
                if name(base) == "NamedTuple":
                    yield node.lineno, f"NamedTuple base of {node.name}"
        elif isinstance(node, ast.Call) and name(node) == "namedtuple":
            yield node.lineno, "namedtuple call"


def test_guard_sees_generated_classes():
    tree = ast.parse("from typing import NamedTuple\n"
                     "import dataclasses, collections\n"
                     "@dataclasses.dataclass(frozen=True)\nclass A: pass\n"
                     "@dataclass\nclass B: pass\n"
                     "class C(NamedTuple): pass\n"
                     "D = collections.namedtuple('D', 'x')\n")
    assert [line for line, _ in _generated_classes(tree)] == [4, 6, 7, 8]


def test_no_class_generates_code_at_import():
    # a dataclass or NamedTuple builds its methods from source text when
    # its module is imported, which every short-lived CLI process pays for
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(SRC.glob("*.py"))
             for line, what in _generated_classes(
                 ast.parse(path.read_text(), str(path)))]
    assert not found, found


def _charsum_imports(tree):
    """(module, name) for each name a module's syntax tree imports from a
    charsum module, the module without its package; an import of a whole
    charsum module gives (module, None)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name.split(".")[1], None) for alias in node.names
                        if alias.name.startswith("charsum."))
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("charsum")):
            module = (node.module or "").removeprefix("charsum").lstrip(".")
            yield from ((module, alias.name) if module else (alias.name, None)
                        for alias in node.names)


def test_import_guard_sees_every_form():
    tree = ast.parse("import math\nfrom fractions import Fraction\n"
                     "from .norm_algebra import _a\n"
                     "from charsum.norm_algebra import b\n"
                     "from . import identity_engine\n"
                     "import charsum.identity_engine as ie\n"
                     "def f():\n    from .stalk_traces import c\n")
    assert list(_charsum_imports(tree)) == [
        ("norm_algebra", "_a"), ("norm_algebra", "b"),
        ("identity_engine", None), ("identity_engine", None),
        ("stalk_traces", "c")]


def test_identity_engine_reads_norm_algebra_one_way():
    # norm_algebra holds the algebras, the solver, the I-sums and the
    # sweeps, and identity_engine every identity route; the route reads the
    # engine and not the reverse, and of its private names only the split
    # algebras (_split_algebra) and the scale on validated data (_scale),
    # whose public route is p_of
    def imports(name):
        path = SRC / f"{name}.py"
        return list(_charsum_imports(ast.parse(path.read_text(), str(path))))

    assert [module for module, _ in imports("norm_algebra")
            if module == "identity_engine"] == []
    read = [name for module, name in imports("identity_engine")
            if module == "norm_algebra"]
    assert None not in read  # a module import would hide its attributes
    assert {name for name in read if name.startswith("_")} <= {
        "_split_algebra", "_scale"}
