"""Machine-level IR shared by the instruction catalog, isel and codegen.

A MachineFunction starts in SSA form over virtual registers (pre register
allocation) and ends with only physical registers. Operands follow the
operand-role list of the owning instruction definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

ABI_NAMES = (
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1",
    "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7",
    "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
    "t3", "t4", "t5", "t6",
)
REG_INDEX = {name: i for i, name in enumerate(ABI_NAMES)}
REG_INDEX.update({f"x{i}": i for i in range(32)})
REG_INDEX["fp"] = 8

X0 = 0
RA = 1
SP = 2
A0 = 10


def reg_name(i: int) -> str:
    return ABI_NAMES[i]


def parse_reg(tok: str) -> int:
    tok = tok.strip().lower()
    if tok not in REG_INDEX:
        raise ValueError(f"unknown register {tok!r}")
    return REG_INDEX[tok]


class MOp(NamedTuple):
    """Machine operand.

    kind: "vreg" (val = virtual id), "preg" (val = x-index), "imm" (val = int),
    "sym" (val = symbol name, reloc = "hi20" | "lo12").

    It is a named tuple for the reason PatNode is one: a compile makes one
    per operand of every machine instruction, and a named tuple builds in
    about three fifths of the time of a frozen dataclass and compares and
    hashes in C. The 32 physical registers are built once and shared.
    """

    kind: str
    val: int | str = 0
    reloc: str = ""

    @staticmethod
    def vreg(n: int) -> "MOp":
        return MOp("vreg", n)

    @staticmethod
    def preg(n: int) -> "MOp":
        return _PREGS[n]

    @staticmethod
    def imm(v: int) -> "MOp":
        return MOp("imm", v)

    @staticmethod
    def sym(name: str, reloc: str) -> "MOp":
        return MOp("sym", name, reloc)


_PREGS = tuple(MOp("preg", i) for i in range(32))


@dataclass
class MachineInstr:
    mnemonic: str  # catalog name, e.g. "MLA"
    ops: list[MOp]
    is_ret: bool = False


@dataclass
class MachineFunction:
    name: str
    instrs: list[MachineInstr] = field(default_factory=list)
    frame_size: int = 0
    ret_vreg: int | None = None  # pre-RA: vreg that must land in a0
    num_vregs: int = 0
