"""RV32 simulator and IR-level interpreter, the semantic oracles.

The machine simulator executes encoded words against an architectural state
(32 registers, pc, sparse little-endian byte memory), each as its `sem=` in
the target description says; JALR, the one jump, is implemented here.
Functions follow the halt protocol: x1 starts at a sentinel return address
and a `jalr` to the sentinel stops execution. The IR interpreter is the
midend's twin: it evaluates a verified function directly with two's-complement
wrapping, so any pass or lowering can be differentially checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ir
from . import target as tgt
from .mir import MachineInstr

MASK32 = 0xFFFFFFFF
HALT_SENTINEL = 0xDEAD0000
PROGRAM_BASE = 0x1000
GLOBAL_BASE = 0x2000
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

    def load(self, addr: int) -> int:
        return mem_read32(self.mem, u32(addr))

    def store(self, addr: int, value: int):
        mem_write32(self.mem, u32(addr), value)


@dataclass
class TraceStep:
    pc: int
    mi: MachineInstr


def _eval_sem(node: tgt.PatNode, env: dict[str, int], state: SimState) -> int:
    """Value of a sem tree; `env` maps operand roles to register contents
    and immediates."""
    kids = node.children
    if not kids:
        return node.value if node.kind == "const" else env[node.name]
    op = tgt.SEM_OPS[node.kind]
    if len(kids) == 1:
        return op(state, _eval_sem(kids[0], env, state))
    return op(state, _eval_sem(kids[0], env, state),
              _eval_sem(kids[1], env, state))


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
    d = desc.instrs[mi.mnemonic]
    trace = TraceStep(state.pc, mi)
    env = {role: state.read(op.val) if op.kind == "preg" else op.val
           for role, op in zip(d.ops, mi.ops)}
    if mi.mnemonic == "JALR":
        link = u32(state.pc + 4)
        dest = u32(env["rs1"] + env["imm12"]) & ~1
        state.write(mi.ops[0].val, link)
        if dest == HALT_SENTINEL:
            state.halted = True
        state.pc = dest
        return trace
    if d.sem is None:
        raise SimTrap(f"no semantics for {mi.mnemonic}", state.pc)
    value = _eval_sem(d.sem, env, state)
    if d.ops[0] == "rd":
        state.write(mi.ops[0].val, value)
    state.pc = u32(state.pc + 4)
    return trace


def run_function(program: list[int], args: list[int],
                 mem_init: dict[int, int] | None = None,
                 fuel: int = DEFAULT_FUEL,
                 desc: tgt.TargetDesc | None = None,
                 ext: frozenset[str] = frozenset(tgt.ALL_EXTENSIONS)
                 ) -> tuple[int, dict[int, int], list[TraceStep]]:
    """Load encoded words at PROGRAM_BASE, seed a0.. with args and x1 with
    the halt sentinel, run to halt with the instructions of `ext`. Returns
    (a0, final memory, trace). The program region and the stack region below
    sp are excluded from the returned memory so callers can compare against
    an IR-level interpretation."""
    if len(args) > 8:
        raise SimTrap("at most 8 register arguments supported")
    desc = desc or tgt.load_default_desc()
    state = SimState()
    state.mem.update(mem_init or {})
    for i, w in enumerate(program):
        mem_write32(state.mem, PROGRAM_BASE + 4 * i, w)
    state.regs[1] = HALT_SENTINEL
    state.regs[2] = STACK_TOP
    for i, a in enumerate(args):
        state.regs[10 + i] = u32(a)
    trace: list[TraceStep] = []
    for _ in range(fuel):
        if state.halted:
            break
        trace.append(step(state, desc, ext))
    else:
        raise SimTrap(f"fuel exhausted after {fuel} steps", state.pc)
    prog_end = PROGRAM_BASE + 4 * len(program)
    mem = {a: b for a, b in state.mem.items()
           if not (PROGRAM_BASE <= a < prog_end) and not (STACK_TOP - 0x1000 <= a < STACK_TOP)}
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


def assign_global_addrs(mod: ir.Module) -> dict[str, int]:
    """Word-aligned addresses for module globals from GLOBAL_BASE, in
    declaration order."""
    return {g.name: GLOBAL_BASE + 4 * i for i, g in enumerate(mod.globals)}


def seed_globals(mod: ir.Module, addrs: dict[str, int]) -> dict[int, int]:
    mem: dict[int, int] = {}
    for g in mod.globals:
        mem_write32(mem, addrs[g.name], u32(g.initializer))
    return mem
