"""RV32 simulator and IR-level interpreter, the semantic oracles.

The machine simulator executes encoded words against an architectural state
(32 registers, pc, sparse little-endian byte memory). Functions follow the
halt protocol: x1 starts at a sentinel return address and a `jalr` to the
sentinel stops execution. The IR interpreter is the midend's twin: it
evaluates a verified function directly with two's-complement wrapping, so any
pass or lowering can be differentially checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ir
from . import target as tgt
from .mir import reg_name

MASK32 = 0xFFFFFFFF
HALT_SENTINEL = 0xDEAD0000
PROGRAM_BASE = 0x1000
STACK_TOP = 0x0000F000
DEFAULT_FUEL = 10 ** 6


def u32(x: int) -> int:
    return x & MASK32


def s32(x: int) -> int:
    x &= MASK32
    return x - 0x100000000 if x & 0x80000000 else x


def rotr32(x: int, n: int) -> int:
    n &= 31
    x &= MASK32
    return u32((x >> n) | (x << (32 - n)))


class SimTrap(Exception):
    def __init__(self, msg, pc=None):
        super().__init__(msg if pc is None else f"pc=0x{pc:08x}: {msg}")
        self.pc = pc


def mem_read32(mem: dict[int, int], addr: int) -> int:
    if addr & 3:
        raise SimTrap(f"misaligned word load at 0x{addr:08x}")
    addr = u32(addr)
    return (mem.get(addr, 0) | mem.get(addr + 1, 0) << 8
            | mem.get(addr + 2, 0) << 16 | mem.get(addr + 3, 0) << 24)


def mem_write32(mem: dict[int, int], addr: int, value: int):
    if addr & 3:
        raise SimTrap(f"misaligned word store at 0x{addr:08x}")
    addr = u32(addr)
    value = u32(value)
    for i in range(4):
        mem[addr + i] = (value >> (8 * i)) & 0xFF


@dataclass
class SimState:
    regs: list[int] = field(default_factory=lambda: [0] * 32)
    pc: int = PROGRAM_BASE
    mem: dict[int, int] = field(default_factory=dict)
    halted: bool = False

    def read(self, r: int) -> int:
        return 0 if r == 0 else self.regs[r]

    def write(self, r: int, v: int):
        if r != 0:
            self.regs[r] = u32(v)


@dataclass
class TraceStep:
    pc: int
    text: str


def _exec_alu(state: SimState, mn: str, mi) -> None:
    r = state.read
    ops = mi.ops
    if mn in ("ADDI", "XORI", "ORI", "ANDI"):
        rd, rs1, imm = ops[0].val, ops[1].val, ops[2].val
        a = r(rs1)
        res = {"ADDI": a + imm, "XORI": a ^ u32(imm),
               "ORI": a | u32(imm), "ANDI": a & u32(imm)}[mn]
        state.write(rd, res)
    elif mn in ("SLLI", "SRLI", "SRAI", "RORI", "ROTI"):
        rd, rs1, sh = ops[0].val, ops[1].val, ops[2].val
        a = r(rs1)
        if mn == "SLLI":
            state.write(rd, a << sh)
        elif mn == "SRLI":
            state.write(rd, a >> sh)
        elif mn == "SRAI":
            state.write(rd, s32(a) >> sh)
        else:
            state.write(rd, rotr32(a, sh))
    elif mn == "LUI":
        state.write(ops[0].val, ops[1].val << 12)
    elif mn in ("ADD", "SUB", "SLL", "SRL", "SRA", "XOR", "OR", "AND", "MUL",
                "ROR", "SH1ADD", "SH2ADD", "SH3ADD", "SHLXOR"):
        rd, a, b = ops[0].val, r(ops[1].val), r(ops[2].val)
        res = {
            "ADD": a + b, "SUB": a - b, "SLL": a << (b & 31),
            "SRL": a >> (b & 31), "SRA": s32(a) >> (b & 31),
            "XOR": a ^ b, "OR": a | b, "AND": a & b, "MUL": a * b,
            "ROR": rotr32(a, b), "SH1ADD": (a << 1) + b,
            "SH2ADD": (a << 2) + b, "SH3ADD": (a << 3) + b,
            "SHLXOR": u32(a << 1) ^ b,
        }[mn]
        state.write(rd, res)
    elif mn in ("MLA", "NAXOR"):
        rd = ops[0].val
        a, b, c = r(ops[1].val), r(ops[2].val), r(ops[3].val)
        state.write(rd, a * b + c if mn == "MLA" else ((~a) & b) ^ c)
    else:
        raise SimTrap(f"no semantics for {mn}", state.pc)


def step(state: SimState, desc: tgt.TargetDesc,
         ext: frozenset[str] = frozenset(tgt.ALL_EXTENSIONS)) -> TraceStep:
    """Execute one instruction; raises SimTrap on undecodable words or
    misaligned accesses. regs[0] stays zero."""
    if state.pc & 3:
        raise SimTrap("misaligned pc", state.pc)
    word = mem_read32(state.mem, state.pc)
    mi = tgt.decode(word, desc, ext)
    if mi is None:
        raise SimTrap(f"undecodable word 0x{word:08x}", state.pc)
    mn = mi.mnemonic
    trace = TraceStep(state.pc, _disasm_text(mi))
    if mn == "LW":
        rd, rs1, imm = mi.ops[0].val, mi.ops[1].val, mi.ops[2].val
        state.write(rd, mem_read32(state.mem, u32(state.read(rs1) + imm)))
    elif mn == "SW":
        rs2, rs1, imm = mi.ops[0].val, mi.ops[1].val, mi.ops[2].val
        mem_write32(state.mem, u32(state.read(rs1) + imm), state.read(rs2))
    elif mn == "LXR":
        rd, rs1, rs2 = (op.val for op in mi.ops)
        a = mem_read32(state.mem, state.read(rs1))
        b = mem_read32(state.mem, state.read(rs2))
        state.write(rd, a ^ b)
    elif mn == "JALR":
        rd, rs1, imm = mi.ops[0].val, mi.ops[1].val, mi.ops[2].val
        link = u32(state.pc + 4)
        dest = u32(state.read(rs1) + imm) & ~1
        state.write(rd, link)
        if dest == HALT_SENTINEL:
            state.halted = True
        state.pc = dest
        return trace
    else:
        _exec_alu(state, mn, mi)
    state.pc = u32(state.pc + 4)
    return trace


def _disasm_text(mi) -> str:
    parts = []
    for op in mi.ops:
        parts.append(reg_name(op.val) if op.kind == "preg" else str(op.val))
    return f"{mi.mnemonic.lower()} " + ", ".join(parts)


def run_function(program: list[int], args: list[int],
                 mem_init: dict[int, int] | None = None,
                 fuel: int = DEFAULT_FUEL,
                 desc: tgt.TargetDesc | None = None,
                 base: int = PROGRAM_BASE
                 ) -> tuple[int, dict[int, int], list[TraceStep]]:
    """Load encoded words at `base`, seed a0.. with args and x1 with the halt
    sentinel, run to halt. Returns (a0, final memory, trace). The program
    region and the stack region below sp are excluded from the returned
    memory so callers can compare against an IR-level interpretation."""
    if len(args) > 8:
        raise SimTrap("at most 8 register arguments supported")
    desc = desc or tgt.load_default_desc()
    state = SimState(pc=base)
    state.mem.update(mem_init or {})
    for i, w in enumerate(program):
        mem_write32(state.mem, base + 4 * i, w)
    state.regs[1] = HALT_SENTINEL
    state.regs[2] = STACK_TOP
    for i, a in enumerate(args):
        state.regs[10 + i] = u32(a)
    trace: list[TraceStep] = []
    for _ in range(fuel):
        if state.halted:
            break
        trace.append(step(state, desc))
    else:
        raise SimTrap(f"fuel exhausted after {fuel} steps", state.pc)
    prog_end = base + 4 * len(program)
    mem = {a: b for a, b in state.mem.items()
           if not (base <= a < prog_end) and not (STACK_TOP - 0x1000 <= a < STACK_TOP)}
    return state.regs[10], mem, trace


# --------------------------------------------------------------------------
# IR interpreter
# --------------------------------------------------------------------------

ALLOCA_BASE = 0x00070000


class InterpError(Exception):
    pass


def ir_interpret(fn: ir.Function, args: list[int],
                 mem_init: dict[int, int] | None = None,
                 global_addrs: dict[str, int] | None = None
                 ) -> tuple[int | None, dict[int, int]]:
    """Directly evaluate a verified single-block function.

    i32 values wrap in two's complement; shift amounts use the low five bits,
    matching the hardware. Returns (return value or None, final memory);
    alloca storage is function-local and excluded from the final memory.
    """
    global_addrs = global_addrs or {}
    mem = dict(mem_init or {})
    env: dict[str, int] = {}
    for (pname, _), v in zip(fn.params, args):
        env[pname] = u32(v)
    if len(args) != len(fn.params):
        raise InterpError(f"@{fn.name} takes {len(fn.params)} arguments")
    alloca_cells: list[int] = []
    next_slot = ALLOCA_BASE

    def val(v: ir.Value) -> int:
        if v.kind == "const":
            return u32(v.const)
        if v.kind == "global":
            try:
                return global_addrs[v.name]
            except KeyError:
                raise InterpError(f"no address for global @{v.name}") from None
        if v.kind == "undef":
            raise InterpError("read of undefined value")
        return env[v.name]

    ret = None
    for inst in fn.body:
        op = inst.opcode
        if op in ir.BINOPS:
            a, b = val(inst.operands[0]), val(inst.operands[1])
            if op == "add":
                r = a + b
            elif op == "sub":
                r = a - b
            elif op == "mul":
                r = a * b
            elif op == "and":
                r = a & b
            elif op == "or":
                r = a | b
            elif op == "xor":
                r = a ^ b
            elif op == "shl":
                r = a << (b & 31)
            elif op == "lshr":
                r = a >> (b & 31)
            else:  # ashr
                r = s32(a) >> (b & 31)
            env[inst.result] = u32(r)
        elif op in ("fshl", "fshr"):
            a, b, c = (val(o) for o in inst.operands)
            s = c & 31
            if op == "fshl":
                r = (a << s) | (b >> (32 - s)) if s else a
            else:
                r = (a << (32 - s)) | (b >> s) if s else b
            env[inst.result] = u32(r)
        elif op == "load":
            env[inst.result] = mem_read32(mem, val(inst.operands[0]))
        elif op == "store":
            mem_write32(mem, val(inst.operands[1]), val(inst.operands[0]))
        elif op == "getelementptr":
            env[inst.result] = u32(val(inst.operands[0]) + inst.operands[1].const)
        elif op == "alloca":
            env[inst.result] = next_slot
            alloca_cells.append(next_slot)
            next_slot += 4
        elif op == "ret":
            if inst.operands:
                ret = val(inst.operands[0])
            break
        else:
            raise InterpError(f"cannot interpret opcode {op!r}")
    for cell in alloca_cells:
        for i in range(4):
            mem.pop(cell + i, None)
    return ret, mem


def assign_global_addrs(mod: ir.Module, base: int = 0x2000) -> dict[str, int]:
    """Word-aligned addresses for module globals, in declaration order."""
    return {g.name: base + 4 * i for i, g in enumerate(mod.globals)}


def seed_globals(mod: ir.Module, addrs: dict[str, int]) -> dict[int, int]:
    mem: dict[int, int] = {}
    for g in mod.globals:
        mem_write32(mem, addrs[g.name], u32(g.initializer))
    return mem
