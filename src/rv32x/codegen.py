"""Register allocation, prologue/epilogue, assembly and object emission.

Allocation is a linear scan over def/last-use intervals with the fixed
preference order a0-a7, t0-t6, s1-s11. Function arguments arrive pinned in
a0..; the return value lands in a0 when a0 is free at its definition and is
moved there before the return otherwise. On pressure overflow the interval
with the furthest next use is spilled to an sp-relative slot and the scan is
redone with three scratch registers reserved for reload sequences.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from heapq import heappop, heappush

from . import target as tgt
from .mir import (ABI_NAMES, MOp, MachineInstr, MachineFunction, REG_INDEX,
                  parse_reg, reg_name, X0, RA, SP, A0)

ALLOC_ORDER = (
    [REG_INDEX[f"a{i}"] for i in range(8)]
    + [REG_INDEX[f"t{i}"] for i in range(7)]
    + [REG_INDEX[f"s{i}"] for i in range(1, 12)]
)
SCRATCH_REGS = (REG_INDEX["s9"], REG_INDEX["s10"], REG_INDEX["s11"])


class CodegenError(Exception):
    pass


# --------------------------------------------------------------------------
# Linear-scan register allocation
# --------------------------------------------------------------------------

@dataclass
class _Interval:
    vreg: int
    born: int
    dies: int
    uses: list[int]

    def next_use(self, after: int) -> int:
        i = bisect_right(self.uses, after)
        return self.uses[i] if i < len(self.uses) else 1 << 30


def _live_ranges(mf: MachineFunction, desc: tgt.TargetDesc):
    """One walk over the instructions: the def/use interval of every
    virtual register, in birth order, and a conservative liveness window per
    physical register already present."""
    born: dict[int, int] = {}
    uses: defaultdict[int, list[int]] = defaultdict(list)
    windows: dict[int, list[int]] = {}
    n = len(mf.instrs)
    for i, mi in enumerate(mf.instrs):
        defines = desc.instr(mi.mnemonic).defines
        for s, (kind, val, _) in enumerate(mi.ops):
            if kind == "vreg":
                if s == 0 and defines:
                    born[val] = i
                else:
                    uses[val].append(i)
            elif kind == "preg" and val not in (X0, RA, SP):
                w = windows.get(val)
                if w is None:
                    windows[val] = [i if s == 0 and defines else -1, i]
                else:
                    w[1] = i
    if mf.ret_vreg is None and A0 in windows \
            and any(mi.is_ret for mi in mf.instrs):
        # a0 already carries the return value; keep it live to the end
        windows[A0][1] = n
    intervals = []
    for v, b in born.items():
        us = uses.get(v, [])  # ascending, as appended
        dies = us[-1] if us else b
        if v == mf.ret_vreg:
            dies = n  # must survive into the return
        intervals.append(_Interval(v, b, dies, us))
    intervals.sort(key=lambda iv: (iv.born, iv.vreg))
    return intervals, windows


def allocate_registers(mf: MachineFunction, desc: tgt.TargetDesc
                       ) -> MachineFunction:
    """Assign physical registers; spill on overflow. Always succeeds. Both
    attempts scan the same intervals, built once."""
    intervals, pwin = _live_ranges(mf, desc)
    assign, spilled = (_allocate(intervals, pwin, reserve_scratch=False)
                       or _allocate(intervals, pwin, reserve_scratch=True))
    return _rewrite(mf, desc, assign, spilled)


# bit i of a register set stands for ALLOC_ORDER[i], so the lowest set bit
# is the preferred free register
_BIT = {r: 1 << i for i, r in enumerate(ALLOC_ORDER)}
_SCRATCH_BITS = sum(_BIT[r] for r in SCRATCH_REGS)


def _allocate(intervals: list[_Interval], pwin: dict[int, list[int]],
              reserve_scratch: bool
              ) -> tuple[dict[int, int], dict[int, int]] | None:
    """The scan keeps the free registers as a bitmask, the assigned
    intervals in a heap by end, and, when spilling, the candidates in a
    max-heap by (next use, vreg). A candidate's key only grows as the scan
    passes its uses, so `due`, a min-heap by recorded next use, says whose
    key to refresh before a victim is taken."""
    free = (1 << len(ALLOC_ORDER)) - 1
    if reserve_scratch:
        free &= ~_SCRATCH_BITS
    wins = [(start, end, _BIT[r]) for r, (start, end) in pwin.items()
            if r in _BIT]
    assign: dict[int, int] = {}
    spilled: dict[int, int] = {}
    live: list[tuple[int, int, int]] = []  # (dies, vreg, bit)
    far: list[tuple[int, int, _Interval]] = []  # (-next use, -vreg, iv)
    due: list[tuple[int, int, _Interval]] = []  # (next use, vreg, iv)

    for iv in intervals:
        at = iv.born
        while live and live[0][0] <= at:
            _, v, bit = heappop(live)
            if v in assign:  # else a spill gave its register away
                free |= bit
        taken = 0  # physical-register windows overlapping this interval
        for start, end, bit in wins:
            if start < iv.dies and at < end:
                taken |= bit
        avail = free & ~taken
        if avail:
            bit = avail & -avail
            free ^= bit
            assign[iv.vreg] = ALLOC_ORDER[bit.bit_length() - 1]
        elif not reserve_scratch:
            return None
        else:
            # spill the interval whose next use is furthest away
            while due and due[0][0] <= at:
                _, v, a = heappop(due)
                if v in assign and a.dies > at:
                    nu = a.next_use(at)
                    heappush(due, (nu, v, a))
                    heappush(far, (-nu, -v, a))
            while far and (-far[0][1] not in assign or far[0][2].dies <= at):
                heappop(far)  # spilled or ended
            if not far or (-iv.next_use(at), -iv.vreg) < far[0][:2]:
                spilled[iv.vreg] = len(spilled)
                continue
            victim = heappop(far)[2]
            assign[iv.vreg] = assign.pop(victim.vreg)
            spilled[victim.vreg] = len(spilled)
            bit = _BIT[assign[iv.vreg]]
        heappush(live, (iv.dies, iv.vreg, bit))
        if reserve_scratch:
            nu = iv.next_use(at)
            heappush(due, (nu, iv.vreg, iv))
            heappush(far, (-nu, -iv.vreg, iv))

    return assign, spilled


def _rewrite(mf: MachineFunction, desc: tgt.TargetDesc,
             assign: dict[int, int], spilled: dict[int, int]
             ) -> MachineFunction:
    out = MachineFunction(mf.name)
    if spilled:
        out.frame_size = (len(spilled) * 4 + 15) & ~15
    # one operand per register and per spill slot, shared by every use
    reg = {MOp.vreg(v): MOp.preg(r) for v, r in assign.items()}
    slot = {MOp.vreg(v): MOp.imm(s * 4) for v, s in spilled.items()}
    sp, a0 = MOp.preg(SP), MOp.preg(A0)
    scratch = [MOp.preg(r) for r in SCRATCH_REGS]
    ret = MOp.vreg(mf.ret_vreg) if mf.ret_vreg is not None else None
    emit = out.instrs.append
    for mi in mf.instrs:
        ops = [reg.get(op, op) for op in mi.ops]
        store = None
        if slot and not slot.keys().isdisjoint(ops):
            defines = desc.instr(mi.mnemonic).defines
            loads = 0
            for s, op in enumerate(ops):
                off = slot.get(op)
                if off is None:
                    continue
                if s == 0 and defines:
                    ops[0] = scratch[0]
                    store = MachineInstr("SW", [scratch[0], sp, off])
                else:
                    ops[s] = scratch[loads]
                    emit(MachineInstr("LW", [scratch[loads], sp, off]))
                    loads += 1
        if mi.is_ret and ret is not None:
            if ret in slot:
                emit(MachineInstr("LW", [a0, sp, slot[ret]]))
            elif reg.get(ret, a0) != a0:
                emit(MachineInstr("ADDI", [a0, reg[ret], MOp.imm(0)]))
        emit(MachineInstr(mi.mnemonic, ops, mi.is_ret))
        if store is not None:
            emit(store)
    return out


# the largest 16-byte aligned frame whose sp adjustments -n and +n both fit
# in an addi imm12: 2032
MAX_FRAME = tgt.IMM_RANGES["imm12"][1] & ~15


def insert_prologue_epilogue(mf: MachineFunction) -> MachineFunction:
    """Leaf functions with no frame get nothing; otherwise a 16-byte aligned
    sp adjustment pair brackets the body."""
    if mf.frame_size == 0:
        return mf
    n = (mf.frame_size + 15) & ~15
    if n > MAX_FRAME:
        raise CodegenError(f"@{mf.name}: stack frame of {n} bytes exceeds "
                           f"{MAX_FRAME}, the most one addi can adjust sp by")
    out = MachineFunction(mf.name, frame_size=n)
    out.instrs.append(MachineInstr("ADDI", [MOp.preg(SP), MOp.preg(SP),
                                            MOp.imm(-n)]))
    for mi in mf.instrs:
        if mi.is_ret:
            out.instrs.append(MachineInstr("ADDI", [MOp.preg(SP), MOp.preg(SP),
                                                    MOp.imm(n)]))
        out.instrs.append(mi)
    return out


# --------------------------------------------------------------------------
# Assembly printing
# --------------------------------------------------------------------------

def _fmt_operand(op: MOp) -> str:
    if op.kind == "preg":
        return reg_name(op.val)
    if op.kind == "imm":
        return str(op.val)
    if op.kind == "sym":
        return f"%{'hi' if op.reloc == 'hi20' else 'lo'}({op.val})"
    return f"v{op.val}"


def format_instr(mi: MachineInstr, desc: tgt.TargetDesc,
                 aliases: bool = True) -> str:
    d = desc.instr(mi.mnemonic)
    ops = mi.ops
    if aliases:
        if mi.is_ret and mi.mnemonic == "JALR":
            return "ret"
        if mi.mnemonic == "ADDI" and ops[1].kind == "preg":
            if ops[1].val == X0 and ops[2].kind == "imm":
                return f"li\t{_fmt_operand(ops[0])}, {ops[2].val}"
            if ops[2].kind == "imm" and ops[2].val == 0:
                return f"mv\t{_fmt_operand(ops[0])}, {_fmt_operand(ops[1])}"
        if mi.mnemonic == "XORI" and ops[2].kind == "imm" and ops[2].val == -1:
            return f"not\t{_fmt_operand(ops[0])}, {_fmt_operand(ops[1])}"
    texts = [ABI_NAMES[op.val] if op.kind == "preg" else _fmt_operand(op)
             for op in ops]
    if d.mem_spelling:
        head, base, off = texts  # rd or rs2, rs1, imm12
        return f"{d.asm}\t{head}, {off}({base})"
    return f"{d.asm}\t" + ", ".join(texts)


def print_asm(mf: MachineFunction, desc: tgt.TargetDesc) -> str:
    lines = [f"{mf.name}:"]
    for mi in mf.instrs:
        lines.append("\t" + format_instr(mi, desc))
    return "\n".join(lines) + "\n"


def mnemonic_histogram(asm: str) -> dict[str, int]:
    hist: dict[str, int] = {}
    for line in asm.splitlines():
        line = line.strip()
        if not line or line.endswith(":") or line.startswith(("#", ";", ".")):
            continue
        mn = line.split()[0]
        hist[mn] = hist.get(mn, 0) + 1
    return hist


# --------------------------------------------------------------------------
# Assembly parsing (the `mc --assemble` front half)
# --------------------------------------------------------------------------

_MEM_RE = re.compile(r"^(-?\d+|%(?:hi|lo)\([-\w.$]+\))\((\w+)\)$")
_SYM_RE = re.compile(r"^%(hi|lo)\(([-\w.$]+)\)$")


class AsmError(Exception):
    pass


def _parse_operand_token(tok: str):
    tok = tok.strip()
    m = _SYM_RE.match(tok)
    if m:
        return MOp.sym(m.group(2), "hi20" if m.group(1) == "hi" else "lo12")
    try:
        return MOp.imm(int(tok, 0))
    except ValueError:
        pass
    try:
        return MOp.preg(parse_reg(tok))
    except ValueError:
        raise AsmError(f"bad operand {tok!r}") from None


# alias -> (instruction, operands); None marks an operand the line supplies
_ALIASES = {
    "ret": ("JALR", (MOp.preg(X0), MOp.preg(RA), MOp.imm(0))),
    "li": ("ADDI", (None, MOp.preg(X0), None)),
    "mv": ("ADDI", (None, None, MOp.imm(0))),
    "not": ("XORI", (None, None, MOp.imm(-1))),
}


def parse_asm_line(line: str, desc: tgt.TargetDesc) -> MachineInstr | None:
    """One instruction or None for blank/label/directive lines."""
    line = line.split("#")[0].split(";")[0].strip()
    if not line or line.endswith(":") or line.startswith("."):
        return None
    parts = line.split(None, 1)
    mn = parts[0].lower()
    rest = parts[1] if len(parts) > 1 else ""
    toks = [t.strip() for t in rest.split(",")] if rest.strip() else []

    if mn in _ALIASES:
        mnemonic, template = _ALIASES[mn]
        written = [_parse_operand_token(t) for t in toks]
        if len(written) != template.count(None):
            raise AsmError(f"{mn}: expected {template.count(None)} operands, "
                           f"got {len(written)}")
        it = iter(written)
        mi = MachineInstr(mnemonic, [next(it) if op is None else op
                                     for op in template], is_ret=mn == "ret")
    else:
        d = desc.by_asm.get(mn)
        if d is None:
            raise AsmError(f"unknown mnemonic {mn!r}")
        if d.mem_spelling:
            if len(toks) != 2:
                raise AsmError(f"{mn}: expected 'reg, imm(base)'")
            m = _MEM_RE.match(toks[1].replace(" ", ""))
            if not m:
                raise AsmError(f"{mn}: bad memory operand {toks[1]!r}")
            toks = [toks[0], m.group(2), m.group(1)]
        ops = [_parse_operand_token(t) for t in toks]
        if len(ops) != len(d.ops):
            raise AsmError(f"{mn}: expected {len(d.ops)} operands, "
                           f"got {len(ops)}")
        mi = MachineInstr(d.mnemonic, ops)
    try:  # each operand's kind and range, by the encoder's own rules
        tgt.encode(mi, desc)
    except tgt.TargetError as e:
        raise AsmError(str(e)) from None
    return mi


def parse_asm(text: str, desc: tgt.TargetDesc) -> list[MachineInstr]:
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        try:
            mi = parse_asm_line(line, desc)
        except AsmError as e:
            raise AsmError(f"line {lineno}: {e}") from None
        if mi is not None:
            out.append(mi)
    return out


# --------------------------------------------------------------------------
# Object emission
# --------------------------------------------------------------------------

def _encode_all(mf: MachineFunction, desc: tgt.TargetDesc
                ) -> tuple[list[int], list[tuple[int, str, str]]]:
    """The words of `mf`, symbol fields zero, and one (index, kind, symbol)
    relocation per symbol operand."""
    words = []
    relocs = []
    for i, mi in enumerate(mf.instrs):
        w = tgt.encode(mi, desc)
        words.append(w.word)
        if w.reloc is not None:
            relocs.append((i, *w.reloc))
    return words, relocs


def emit_words(mf: MachineFunction, desc: tgt.TargetDesc,
               symbol_base_map: dict[str, int]) -> list[int]:
    """One resolved word per instruction; HI20/LO12 use the carry-rounded
    split. Raises on symbols missing from the map."""
    words, relocs = _encode_all(mf, desc)
    return resolve_words(words, relocs, desc, symbol_base_map)


def obj_text(mf: MachineFunction, desc: tgt.TargetDesc) -> str:
    """Unlinked object rendering: one 0xXXXXXXXX word per line plus a
    relocation table, indexed from this function's first word."""
    words, relocs = _encode_all(mf, desc)
    return "\n".join([f"0x{w:08x}" for w in words]
                     + [f"# reloc {i} {kind.upper()} {sym}"
                        for i, kind, sym in relocs]) + "\n"


def parse_obj_text(text: str) -> tuple[list[int], list[tuple[int, str, str]]]:
    """Words and relocations of one or more obj_text chunks, each behind a
    `# function` line; relocation indices become indices into all words."""
    words, relocs, _ = parse_obj_functions(text)
    return words, relocs


def parse_obj_functions(text: str) -> tuple[list[int], list[tuple[int, str, str]],
                                            dict[str, int]]:
    """parse_obj_text, plus the index of each function's first word, by the
    name on its `# function NAME` line, in text order."""
    words = []
    relocs = []
    starts = {}
    base = 0  # words before the current function
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("# function"):
            base = len(words)
            starts[line[len("# function"):].strip()] = base
        elif line.startswith("# reloc"):
            fields = line.split()
            if len(fields) != 5 or not fields[2].isdecimal() \
                    or fields[3] not in ("HI20", "LO12"):
                raise AsmError(f"line {lineno}: expected '# reloc INDEX "
                               f"HI20|LO12 SYMBOL', got {line!r}")
            relocs.append((base + int(fields[2]), fields[3].lower(), fields[4]))
        elif not line.startswith("#"):
            try:
                word = int(line, 16)
            except ValueError:
                word = -1  # rejected below, as out-of-range words are
            if not 0 <= word <= 0xFFFFFFFF:
                raise AsmError(f"line {lineno}: bad object word {line!r}")
            words.append(word)
    return words, relocs, starts


def resolve_words(words: list[int], relocs, desc: tgt.TargetDesc,
                  symbols: dict[str, int],
                  ext: frozenset[str] = frozenset(tgt.ALL_EXTENSIONS)
                  ) -> list[int]:
    """Patch relocation fields into already-encoded words."""
    out = list(words)
    for idx, kind, sym in relocs:
        if sym not in symbols:
            raise CodegenError(f"unresolved symbol {sym!r}")
        hi, lo = tgt.split_hi_lo(symbols[sym])
        mi = tgt.decode(out[idx], desc, ext)
        if mi is None:
            raise CodegenError(f"cannot decode word {idx} to relocate")
        value = hi if kind == "hi20" else lo
        d = desc.instr(mi.mnemonic)
        imm_role = "imm20" if kind == "hi20" else "imm12"
        if imm_role not in d.ops:
            raise CodegenError(f"word {idx} ({d.asm}) has no {imm_role} "
                               f"field for a {kind.upper()} relocation")
        new_ops = [MOp.imm(value) if role == imm_role else op
                   for role, op in zip(d.ops, mi.ops)]
        out[idx] = tgt.encode(MachineInstr(mi.mnemonic, new_ops), desc).word
    return out


def disassemble_text(words: list[int], desc: tgt.TargetDesc,
                     ext: frozenset[str]) -> str:
    """Objdump-style listing; unknown encodings become .word placeholders."""
    lines = []
    for i, w in enumerate(words):
        mi = tgt.decode(w, desc, ext)
        byte_str = " ".join(f"{b:02x}" for b in w.to_bytes(4, "little"))
        if mi is None:
            text = f".word 0x{w:08x}"
        else:
            text = format_instr(mi, desc, aliases=False)
        lines.append(f"{4 * i:8x}: {byte_str}\t{text}")
    return "\n".join(lines) + "\n"
