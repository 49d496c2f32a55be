"""``Reg`` keeps the ``==``, ``hash`` and ``repr`` of the frozen
dataclass it replaced, and pickles and copies by value."""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass

from hypothesis import given, strategies as st

from repro.ir.instructions import JType, Reg


@dataclass(frozen=True)
class FrozenReg:
    """The dataclass ``Reg`` was, under another name."""

    id: int
    type: JType
    name: str = ""


FrozenReg.__qualname__ = "Reg"

FIELDS = st.tuples(
    st.integers(-5, 10**6), st.sampled_from(list(JType)),
    st.sampled_from(["", "i", "acc", "__len_a_0"]),
)


@given(FIELDS, FIELDS)
def test_same_eq_hash_and_repr_as_frozen_dataclass(f, g):
    assert repr(Reg(*f)) == repr(FrozenReg(*f))
    assert hash(Reg(*f)) == hash(FrozenReg(*f))
    assert (Reg(*f) == Reg(*g)) == (FrozenReg(*f) == FrozenReg(*g))
    assert (Reg(*f) != Reg(*g)) == (FrozenReg(*f) != FrozenReg(*g))
    assert str(Reg(*f)) == f"%{f[2] or f'r{f[0]}'}"


def test_slots_and_no_instance_dict():
    assert Reg.__slots__ == ("id", "type", "name")
    assert not hasattr(Reg(0, JType.INT), "__dict__")


def test_default_name_and_foreign_comparison():
    assert Reg(3, JType.INT) == Reg(3, JType.INT, "")
    assert Reg(3, JType.INT) != FrozenReg(3, JType.INT)
    assert Reg(3, JType.INT) != (3, JType.INT, "")
    assert len({Reg(3, JType.INT), Reg(3, JType.INT), Reg(4, JType.INT)}) == 2


def test_pickle_and_deepcopy_keep_the_value():
    reg = Reg(7, JType.DOUBLE, "t")
    for clone in (pickle.loads(pickle.dumps(reg)), copy.deepcopy(reg)):
        assert clone == reg and clone is not reg
        assert repr(clone) == repr(reg)
