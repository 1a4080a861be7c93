"""RV32 simulator and IR-level interpreter, the semantic oracles.

The machine simulator executes encoded words against an architectural state
(32 registers, pc, sparse little-endian byte memory, and the program's own
words), each by calling the function the target description generates from
its `sem=` on the word; JALR, the one jump, is implemented here. One loop,
`_execute`, runs every instruction: `run_function` runs it to halt and
`step` runs one iteration of it. A word is decoded once per description and
extension set (`target.decoded`), and the trace is plain (pc, word, InstrDef)
tuples.
Functions follow the halt protocol: x1 starts at a sentinel return address
and a `jalr` to the sentinel stops execution. The IR interpreter is the
midend's twin: it evaluates a verified function directly with two's-complement
wrapping, so any pass or lowering can be differentially checked against it.

`OPS` is the reference meaning of every operation, one function per sem kind
(load and store aside) and per IR intrinsic: the IR interpreter evaluates
each IR operation through it, and the tests evaluate sems through it. The
simulator runs the expression templates of `target._SEM_EXPRS`, its
independent twin, so comparing a simulated run with `ir_interpret` sets two
definitions of each operation against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ir
from . import target as tgt

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


# What each operation computes from unsigned 32-bit operands, as an unsigned
# 32-bit result: the sem kinds but load and store, which read and write
# memory, and the IR's funnel shifts. A shift or rotate amount is read mod 32.
OPS = {
    "add": lambda a, b: (a + b) & MASK32,
    "sub": lambda a, b: (a - b) & MASK32,
    "mul": lambda a, b: (a * b) & MASK32,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: (a << (b & 31)) & MASK32,
    "srl": lambda a, b: a >> (b & 31),
    "sra": lambda a, b: (s32(a) >> (b & 31)) & MASK32,
    "rotr": lambda a, b: (a >> (b & 31) | a << (32 - (b & 31))) & MASK32,
    # the high word of a:b shifted left, the low word of a:b shifted right
    "fshl": lambda a, b, c: (a << (c & 31) | b >> (32 - (c & 31))) & MASK32,
    "fshr": lambda a, b, c: (a << (32 - (c & 31)) | b >> (c & 31)) & MASK32,
}


class SimTrap(Exception):
    def __init__(self, msg, pc=None):
        super().__init__(msg if pc is None else f"pc=0x{pc:08x}: {msg}")
        self.pc = pc


def mem_read32(mem: dict[int, int], addr: int) -> int:
    addr &= MASK32
    if addr & 3:
        raise SimTrap(f"misaligned word load at 0x{addr:08x}")
    return (mem.get(addr, 0) | mem.get(addr + 1, 0) << 8
            | mem.get(addr + 2, 0) << 16 | mem.get(addr + 3, 0) << 24)


def mem_write32(mem: dict[int, int], addr: int, value: int):
    addr &= MASK32
    if addr & 3:
        raise SimTrap(f"misaligned word store at 0x{addr:08x}")
    mem[addr] = value & 0xFF
    mem[addr + 1] = value >> 8 & 0xFF
    mem[addr + 2] = value >> 16 & 0xFF
    mem[addr + 3] = value >> 24 & 0xFF


@dataclass
class SimState:
    """Registers, pc and memory. The program's words sit in `program`, from
    PROGRAM_BASE, and not in the byte memory: fetch reads them by index, and
    load and store reach them as memory words, so a store into the program
    changes what executes later."""

    regs: list[int] = field(default_factory=lambda: [0] * 32)
    pc: int = PROGRAM_BASE
    mem: dict[int, int] = field(default_factory=dict)
    halted: bool = False
    program: list[int] = field(default_factory=list)

    # load and store are mem_read32 and mem_write32, inlined, in front of
    # the program words: they run for every simulated LW and SW
    def load(self, addr: int) -> int:
        addr &= MASK32
        if addr & 3:
            raise SimTrap(f"misaligned word load at 0x{addr:08x}")
        i = addr - PROGRAM_BASE >> 2
        if 0 <= i < len(self.program):
            return self.program[i]
        get = self.mem.get
        return (get(addr, 0) | get(addr + 1, 0) << 8
                | get(addr + 2, 0) << 16 | get(addr + 3, 0) << 24)

    def store(self, addr: int, value: int):
        addr &= MASK32
        if addr & 3:
            raise SimTrap(f"misaligned word store at 0x{addr:08x}")
        i = addr - PROGRAM_BASE >> 2
        if 0 <= i < len(self.program):
            self.program[i] = value & MASK32
            return
        mem = self.mem
        mem[addr] = value & 0xFF
        mem[addr + 1] = value >> 8 & 0xFF
        mem[addr + 2] = value >> 16 & 0xFF
        mem[addr + 3] = value >> 24 & 0xFF


# one executed instruction: its pc, its word and the InstrDef it decoded to
TraceEntry = tuple[int, int, tgt.InstrDef]


def _execute(state: SimState, desc: tgt.TargetDesc, ext: frozenset[str],
             fuel: int, trace: list[TraceEntry]):
    """The one instruction loop: run up to `fuel` instructions of `ext` from
    state.pc, stopping after a jalr to the halt sentinel, and append each to
    `trace`. A word is fetched from the program by index (from memory
    outside it), decoded through the memo of `desc` under `ext`, looked up
    only when the memo lacks it, and executed as JALR or by one call of its
    instruction's generated `run`, which evaluates the sem and writes rd.
    Raises SimTrap on a misaligned pc, an undecodable or disabled word, an
    instruction without a sem, or a misaligned access. regs[0] stays zero."""
    regs, mem, program = state.regs, state.mem, state.program
    size = len(program)
    memo = tgt.decoded(desc, ext)
    known = memo.get
    append = trace.append
    pc = state.pc
    for _ in range(fuel):
        if pc & 3:
            raise SimTrap("misaligned pc", pc)
        i = (pc - PROGRAM_BASE) >> 2
        word = program[i] if 0 <= i < size else mem_read32(mem, pc)
        d = known(word)
        if d is None:
            d = tgt.lookup(word, desc, ext)
            if d is None:
                raise SimTrap(f"undecodable word 0x{word:08x}", pc)
            memo[word] = d
        run = d.run
        if run is not None:
            run(state, regs, word)
            append((pc, word, d))
            pc = (pc + 4) & MASK32
            continue
        if d.mnemonic != "JALR":
            raise SimTrap(f"no semantics for {d.mnemonic}", pc)
        rd, base, offset = [f.value(word) for f in d.fields]
        dest = (regs[base] + offset) & MASK32 & ~1
        if rd:
            regs[rd] = (pc + 4) & MASK32
        append((pc, word, d))
        pc = dest
        if dest == HALT_SENTINEL:
            state.halted = True
            break
    state.pc = pc


def step(state: SimState, desc: tgt.TargetDesc,
         ext: frozenset[str] = frozenset(tgt.ALL_EXTENSIONS)) -> TraceEntry:
    """Execute one instruction: one iteration of the loop run_function
    runs. Returns its trace entry."""
    trace: list[TraceEntry] = []
    _execute(state, desc, ext, 1, trace)
    return trace[0]


def run_function(program: list[int], args: list[int],
                 mem_init: dict[int, int] | None = None,
                 fuel: int = DEFAULT_FUEL,
                 desc: tgt.TargetDesc | None = None,
                 ext: frozenset[str] = frozenset(tgt.ALL_EXTENSIONS)
                 ) -> tuple[int, dict[int, int], list[TraceEntry]]:
    """Load encoded words at PROGRAM_BASE, seed a0.. with args and x1 with
    the halt sentinel, and run to halt, at most `fuel` instructions, with the
    instructions of `ext`. Returns (a0, final memory, trace). The stack
    region below sp is excluded from the returned memory, and the program
    is never in it, so callers can compare against an IR-level
    interpretation. Raises SimTrap when the program would cover seeded
    memory."""
    if len(args) > 8:
        raise SimTrap("at most 8 register arguments supported")
    mem_init = mem_init or {}
    prog_end = PROGRAM_BASE + 4 * len(program)
    covered = [a for a in mem_init if PROGRAM_BASE <= a < prog_end]
    if covered:
        raise SimTrap(f"program at 0x{PROGRAM_BASE:08x}..0x{prog_end:08x} "
                      f"overlaps seeded memory at 0x{min(covered):08x}")
    desc = desc or tgt.load_default_desc()
    state = SimState(mem=dict(mem_init), program=[w & MASK32 for w in program])
    state.regs[1] = HALT_SENTINEL
    state.regs[2] = STACK_TOP
    for i, a in enumerate(args):
        state.regs[10 + i] = u32(a)
    trace: list[TraceEntry] = []
    _execute(state, desc, ext, fuel, trace)
    if not state.halted:
        raise SimTrap(f"fuel exhausted after {fuel} steps", state.pc)
    mem = {a: b for a, b in state.mem.items()
           if not STACK_TOP - 0x1000 <= a < STACK_TOP}
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

    Each arithmetic, bitwise and funnel-shift operation is its OPS entry,
    read through ir.SEM_KIND. Returns (return value or None, final memory);
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
        return env[v.name]

    ret = None
    for inst in fn.body:
        op = inst.opcode
        kind = ir.SEM_KIND.get(op)
        if kind is not None:
            ops = inst.operands
            a, b, f = val(ops[0]), val(ops[1]), OPS[kind]
            env[inst.result] = (f(a, b) if len(ops) == 2
                                else f(a, b, val(ops[2])))
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
        elif inst.operands:  # the ret that ends the body
            ret = val(inst.operands[0])
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
