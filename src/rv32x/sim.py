"""RV32 simulator and IR-level interpreter, the semantic oracles.

The machine simulator executes encoded words against an architectural state
(32 registers, pc and memory), each by calling the function the target
description generates from its `sem=` on the word; JALR, the one jump, is
implemented here. Memory is the program's own words, the words stores wrote
(by aligned address: a store always writes one aligned word), and the seeded
little-endian bytes, which a run only reads; `byte_view` gives the bytes
they make. A generated load reads a stored word itself, without a method
call, and a block's store writes one itself when its address is aligned and
outside the program; every other access (a misaligned one, a program word, a
seeded word) goes through `SimState.load` and `store`, which trap. One loop,
`_execute`, runs every instruction: `run_function` runs it to halt and
`step` runs one iteration of it. A word is decoded once per description and
extension set (`target.decoded`), and the trace is plain (pc, word,
InstrDef) tuples.
A program's first run goes word by word, so a program run once never pays
for translating it. From its second run under the same words and extension
set on, the loop runs each block of it with one call: a block is the longest
stretch of words with a sem, at most BLOCK_WORDS (64, because Python's
compiler takes memory with the size of the function: run-synth's programs as
whole functions raised its peak memory by a sixth), and ends before a JALR
or a word that does not decode, which run on their own. Its function is the
instructions' sems in order, generated with register numbers and immediates
inlined, and the loop appends the block's prebuilt trace entries, immutable
tuples shared by every run. A block returns before a store it cannot make
itself, which then runs on its own; a store that writes the program sets
`SimState.written`, and the loop translates the new words. Translations are
kept per (words, extension set), for every description that decodes the
words alike.
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

from array import array
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
    """Registers, pc and memory. Memory is three layers, read in this
    order: the program's words in `program`, from PROGRAM_BASE; the words
    stores wrote outside it in `stored`, by aligned address; and the seeded
    bytes in `mem`, which a run never writes (byte_view gives the bytes all
    three make outside the program). Fetch reads the program by index, and
    load and store reach it as memory words, so a store into the program
    changes what executes later. Such a store sets `written`, which tells
    the loop that the program's translation no longer holds."""

    regs: list[int] = field(default_factory=lambda: [0] * 32)
    pc: int = PROGRAM_BASE
    mem: dict[int, int] = field(default_factory=dict)
    halted: bool = False
    program: list[int] = field(default_factory=list)
    written: bool = False
    stored: dict[int, int] = field(default_factory=dict)

    # A generated sem reads a word in `stored` itself and calls load for the
    # rest; a block writes `stored` itself and runs every other store word
    # by word, through store.
    def load(self, addr: int) -> int:
        addr &= MASK32
        if addr & 3:
            raise SimTrap(f"misaligned word load at 0x{addr:08x}")
        i = addr - PROGRAM_BASE >> 2
        if 0 <= i < len(self.program):
            return self.program[i]
        word = self.stored.get(addr)
        return mem_read32(self.mem, addr) if word is None else word

    def store(self, addr: int, value: int):
        addr &= MASK32
        if addr & 3:
            raise SimTrap(f"misaligned word store at 0x{addr:08x}")
        i = addr - PROGRAM_BASE >> 2
        if 0 <= i < len(self.program):
            self.program[i] = value & MASK32
            self.written = True
        else:
            self.stored[addr] = value & MASK32


def byte_view(mem: dict[int, int], stored: dict[int, int], lo: int = 0,
              hi: int = 0) -> dict[int, int]:
    """The byte memory of seeded bytes `mem` and stored words `stored`: the
    four bytes of each stored word over the seeded ones, leaving out the
    stored words from address lo to hi. A byte neither holds is absent."""
    view = dict(mem)
    for addr, word in stored.items():
        if not lo <= addr < hi:
            mem_write32(view, addr, word)
    return view


# one executed instruction: its pc, its word and the InstrDef it decoded to
TraceEntry = tuple[int, int, tgt.InstrDef]

# The most words one block runs. Without it, compiling each run-synth
# program (290 to 720 words) as one function raised the bench's peak memory
# by 17%, most of it Python's compiler; with it, by 3%.
BLOCK_WORDS = 64
# The most programs, translated or run once, that are remembered. Each bench
# workload runs at most 55 distinct programs; a translation keeps about
# 0.25 KB per word.
MAX_TRANSLATIONS = 64


class _Translation(dict):
    """One program's words under one extension set, what each decodes to
    (None for a word that does not), and its blocks by start index, each
    built the first time the loop reaches it. A block is the longest
    stretch of words with a sem from its start, at most BLOCK_WORDS, and
    ends before a JALR or a word that does not decode or has no sem; it is
    kept as (run, length, trace entries, instructions run before each line
    of run), and as None where no such word starts one."""

    def __init__(self, words: tuple[int, ...], defs: list,
                 memo: dict[int, tgt.InstrDef]):
        super().__init__()
        self.words, self.defs = words, defs
        # the decode memo last seen to give `defs`: held, it stays the memo
        # of one description and extension set, and it does not hold the
        # description
        self.memo = memo

    def __missing__(self, i: int):
        words, defs = self.words, self.defs
        end = i
        while (end < len(words) and end - i < BLOCK_WORDS
               and defs[end] is not None and defs[end].sem is not None):
            end += 1
        block = None
        if end > i:
            source, ran = tgt._block_source(list(zip(words[i:end],
                                                     defs[i:end])))
            scope = {"__builtins__": {}}
            exec(source, scope)
            block = (scope["run"], end - i, tuple(
                [(PROGRAM_BASE + 4 * j, words[j], defs[j])
                 for j in range(i, end)]), ran)
        self[i] = block
        return block


# (program words, extension set) -> None after the program's first run, its
# _Translation from the second on, in order of last use; past
# MAX_TRANSLATIONS the least recently used goes.
# A translation holds InstrDefs, generated functions and a decode memo,
# never a description: every description that decodes its words alike
# shares it.
_TRANSLATIONS: dict[tuple[tuple[int, ...], frozenset[str]],
                    _Translation | None] = {}
_UNSEEN = object()  # the entry of a program not run before


def _decode_all(words: tuple[int, ...], desc: tgt.TargetDesc,
                ext: frozenset[str], memo: dict[int, tgt.InstrDef]) -> list:
    """What each word decodes to under `desc` and `ext`, None for a word
    that does not, through their decode memo `memo`."""
    for word in set(words).difference(memo):
        d = tgt.lookup(word, desc, ext)
        if d is not None:
            memo[word] = d
    return list(map(memo.get, words))


def _translation(program: list[int], desc: tgt.TargetDesc,
                 ext: frozenset[str], again: bool = False
                 ) -> _Translation | None:
    """The translation of `program` under `ext`, made on its second run, or
    at once when `again`. None on its first run, and when `desc` decodes a
    word of it otherwise than the translation does: then it runs word by
    word."""
    key = (tuple(program), ext)
    # taken out and put back last: the memo is in order of last use
    trans = _TRANSLATIONS.pop(key, _UNSEEN)
    if trans is _UNSEEN and len(_TRANSLATIONS) >= MAX_TRANSLATIONS:
        del _TRANSLATIONS[next(iter(_TRANSLATIONS))]
    if trans is None or (trans is _UNSEEN and again):
        memo = tgt.decoded(desc, ext)
        trans = _Translation(key[0], _decode_all(key[0], desc, ext, memo),
                             memo)
    elif trans is _UNSEEN:
        trans = None
    _TRANSLATIONS[key] = trans
    if trans is None:
        return None
    memo = tgt.decoded(desc, ext)
    if trans.memo is not memo:
        if _decode_all(key[0], desc, ext, memo) != trans.defs:
            return None
        trans.memo = memo
    return trans


def _execute(state: SimState, desc: tgt.TargetDesc, ext: frozenset[str],
             fuel: int, trace: list[TraceEntry],
             trans: _Translation | None = None):
    """The one instruction loop: run up to `fuel` instructions of `ext` from
    state.pc, stopping after a jalr to the halt sentinel, and append each to
    `trace`; state.pc is left at the next instruction, or at the one that
    trapped. Given the program's translation, a pc in the program at which
    a block starts runs the block with one call, unless fewer than its
    length of instructions remain, and the block's prebuilt trace entries
    are appended. The block is handed the stored words and the program's
    bounds: its loads read a stored word inline, and its stores write one
    inline when the address is aligned and outside the program. It returns
    before any other store, which then runs on its own, and when a store
    wrote the program the loop re-translates from the new words. Any other
    instruction, and every one without a translation, runs on its own: its
    word is fetched from the program by index (through SimState.load
    outside it), decoded through the memo of `desc` under `ext`, looked up
    only when the memo lacks it, and executed as JALR or by one call of its
    instruction's generated `run`, which evaluates the sem and writes rd.
    Raises SimTrap on a misaligned pc, an undecodable or disabled word, an
    instruction without a sem, or a misaligned access. regs[0] stays
    zero."""
    regs, stored, program = state.regs, state.stored, state.program
    size = len(program)
    end = PROGRAM_BASE + 4 * size
    memo = tgt.decoded(desc, ext)
    known = memo.get
    append, extend = trace.append, trace.extend
    pc = state.pc
    left = fuel
    try:
        while left:
            if pc & 3:
                raise SimTrap("misaligned pc", pc)
            i = (pc - PROGRAM_BASE) >> 2
            if trans is not None and 0 <= i < size:
                if state.written:
                    state.written = False
                    trans = _translation(program, desc, ext, again=True)
                    continue
                block = trans[i]
                if block is not None:
                    run, n, entries, ran = block
                    if n <= left:
                        try:
                            k = run(state, regs, stored, PROGRAM_BASE, end)
                        except SimTrap as e:
                            k = ran[e.__traceback__.tb_next.tb_lineno]
                            extend(entries[:k])
                            pc += 4 * k
                            raise
                        extend(entries if k == n else entries[:k])
                        pc += 4 * k
                        left -= k
                        if k == n:
                            continue
                        i += k  # a store the block left to run on its own
                    else:
                        trans = None  # the fuel left runs out in the block
            word = program[i] if 0 <= i < size else state.load(pc)
            d = known(word)
            if d is None:
                d = tgt.lookup(word, desc, ext)
                if d is None:
                    raise SimTrap(f"undecodable word 0x{word:08x}", pc)
                memo[word] = d
            left -= 1
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
    finally:
        state.pc = pc


def step(state: SimState, desc: tgt.TargetDesc,
         ext: frozenset[str] = frozenset(tgt.ALL_EXTENSIONS)) -> TraceEntry:
    """Execute one instruction, on its own: one iteration of the loop
    run_function runs, never a block. Returns its trace entry."""
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
    instructions of `ext`. Returns (a0, final memory, trace). The final
    memory is byte_view's, without the stack region below sp; the program
    is never in it, so callers can compare against an IR-level
    interpretation. `mem_init` is read, never written. Raises SimTrap when
    the program would cover seeded memory."""
    if len(args) > 8:
        raise SimTrap("at most 8 register arguments supported")
    mem_init = mem_init or {}
    prog_end = PROGRAM_BASE + 4 * len(program)
    # the seeded bytes in the program, which it would cover, or in the stack
    inside = [a for a in mem_init if PROGRAM_BASE <= a < prog_end
              or STACK_TOP - 0x1000 <= a < STACK_TOP]
    covered = [a for a in inside if PROGRAM_BASE <= a < prog_end]
    if covered:
        raise SimTrap(f"program at 0x{PROGRAM_BASE:08x}..0x{prog_end:08x} "
                      f"overlaps seeded memory at 0x{min(covered):08x}")
    desc = desc or tgt.load_default_desc()
    try:
        # C unsigned ints, 32 bits wide: a word outside them raises
        array("I", program)
        words = list(program)
    except OverflowError:
        words = [w & MASK32 for w in program]
    state = SimState(mem=mem_init, program=words)
    state.regs[1] = HALT_SENTINEL
    state.regs[2] = STACK_TOP
    for i, a in enumerate(args):
        state.regs[10 + i] = u32(a)
    trace: list[TraceEntry] = []
    _execute(state, desc, ext, fuel, trace,
             _translation(state.program, desc, ext))
    if not state.halted:
        raise SimTrap(f"fuel exhausted after {fuel} steps", state.pc)
    mem = byte_view(mem_init, state.stored, STACK_TOP - 0x1000, STACK_TOP)
    for a in inside:  # the seeded bytes in the stack
        del mem[a]
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
