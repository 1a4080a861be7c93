"""Register allocation, prologue/epilogue, assembly and object emission.

Every function is one straight-line block, so allocation is one forward
walk that treats the registers as a cache of the virtual registers, in the
fixed preference order a0-a7, t0-t6, s1-s11. Function arguments arrive
pinned in a0..; the return value lands in a0 when a0 is free at its
definition and is moved or reloaded there before the return otherwise.
When no register is free the value used furthest in the future is evicted
to an sp-relative slot, and a use of a value that is not resident reloads
it.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from . import target as tgt
from .mir import (ABI_NAMES, MOp, MachineInstr, MachineFunction, REG_INDEX,
                  parse_reg, reg_name, X0, RA, SP, A0)

ALLOC_ORDER = (
    [REG_INDEX[f"a{i}"] for i in range(8)]
    + [REG_INDEX[f"t{i}"] for i in range(7)]
    + [REG_INDEX[f"s{i}"] for i in range(1, 12)]
)


class CodegenError(Exception):
    pass


# --------------------------------------------------------------------------
# Register allocation
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
    virtual register operand, in birth order, and a conservative liveness
    window per physical register already present."""
    born: dict[MOp, int] = {}
    uses: defaultdict[MOp, list[int]] = defaultdict(list)
    windows: dict[int, list[int]] = {}
    n = len(mf.instrs)
    for i, mi in enumerate(mf.instrs):
        defines = desc.instr(mi.mnemonic).defines
        for s, op in enumerate(mi.ops):
            kind, val, _ = op
            if kind == "vreg":
                if s == 0 and defines:
                    born[op] = i
                else:
                    uses[op].append(i)
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
    intervals = {}
    for op, b in born.items():  # one def per instruction: birth order
        us = uses.get(op, [])  # ascending, as appended
        dies = us[-1] if us else b
        if op.val == mf.ret_vreg:
            dies = n  # must survive into the return
        intervals[op] = _Interval(op.val, b, dies, us)
    return intervals, windows


# bit i of a register set stands for ALLOC_ORDER[i], so the lowest set bit
# is the preferred free register
_BIT = {r: 1 << i for i, r in enumerate(ALLOC_ORDER)}
_REG_OF_BIT = {1 << i: MOp.preg(r) for i, r in enumerate(ALLOC_ORDER)}
_VREG = (1 << 32) - 1  # the vreg field of an eviction key


def allocate_registers(mf: MachineFunction, desc: tgt.TargetDesc
                       ) -> MachineFunction:
    """Assign physical registers; always succeeds. Per instruction the walk
    reloads the sources that are not resident, before it and without one
    evicting another; frees the values it reads last; places the def; and
    frees a def that is never read. A value takes the lowest free register
    that no overlapping argument window holds. With none free, the resident
    with the furthest next use gives its register up, ties going to the
    higher vreg, and is stored to its slot on its first eviction only,
    since a vreg is written once. From the first eviction on, `far` is a
    max-heap of keys next use << 32 | vreg, plain ints: a value gets a new
    key where it is placed and where it is read, so the newest key of each
    resident is exact and outranks its stale ones, whose next use passed."""
    ivs, pwin = _live_ranges(mf, desc)
    wins = [(start, end, _BIT[r]) for r, (start, end) in pwin.items()
            if r in _BIT]
    out = MachineFunction(mf.name)
    emit = out.instrs.append
    sp, a0 = MOp.preg(SP), MOp.preg(A0)
    free = (1 << len(ALLOC_ORDER)) - 1
    reg: dict[MOp, MOp] = {}  # resident vreg -> its register
    slot: dict[MOp, MOp] = {}  # stored vreg -> its sp offset
    far: list[int] | None = None  # negated keys

    def place(v: MOp, at: int, i: int, keep) -> MOp:
        """A register for `v` from after position `at` (i - 1 for a reload
        written before instruction i) until it dies."""
        nonlocal free, far
        iv = ivs[v]
        taken = 0  # physical-register windows overlapping that range
        for start, end, bit in wins:
            if start < iv.dies and at < end:
                taken |= bit
        avail = free & ~taken
        if avail:
            bit = avail & -avail
            free ^= bit
            r = _REG_OF_BIT[bit]
        else:
            if far is None:
                far = [-(ivs[u].next_use(i) << 32 | u.val) for u in reg]
                heapify(far)
            aside = []
            while True:
                k = heappop(far)
                u = MOp.vreg(-k & _VREG)
                r = reg.get(u)
                if r is None:
                    continue  # evicted or dead since pushed
                if _BIT[r.val] & taken or u in keep:
                    aside.append(k)
                    continue
                break
            for k in aside:
                heappush(far, k)
            del reg[u]
            if u not in slot:
                slot[u] = MOp.imm(4 * len(slot))
                emit(MachineInstr("SW", [r, sp, slot[u]]))
        reg[v] = r
        if far is not None:
            heappush(far, -(iv.next_use(i) << 32 | iv.vreg))
        return r

    ret = MOp.vreg(mf.ret_vreg) if mf.ret_vreg is not None else None
    for i, mi in enumerate(mf.instrs):
        ops = [reg.get(op, op) for op in mi.ops]
        if slot and not slot.keys().isdisjoint(ops):
            for s, op in enumerate(ops):
                if op in slot:  # a source that is not resident
                    r = reg.get(op)
                    if r is None:
                        r = place(op, i - 1, i, mi.ops)
                        emit(MachineInstr("LW", [r, sp, slot[op]]))
                    ops[s] = r
        for op in mi.ops:  # a source read last is freed, else rekeyed
            if op in reg:
                iv = ivs[op]
                if iv.dies == i:
                    free |= _BIT[reg.pop(op).val]
                elif far is not None:
                    heappush(far, -(iv.next_use(i) << 32 | iv.vreg))
        iv = ivs.get(ops[0])  # a vreg still in ops is the def
        if iv is not None:
            dst = ops[0]
            ops[0] = place(dst, i, i, ())
        if mi.is_ret and ret is not None:
            r = reg.get(ret)
            if r is None:
                emit(MachineInstr("LW", [a0, sp, slot[ret]]))
            elif r is not a0:
                emit(MachineInstr("ADDI", [a0, r, MOp.imm(0)]))
        emit(MachineInstr(mi.mnemonic, ops, mi.is_ret))
        if iv is not None and iv.dies == i:
            free |= _BIT[reg.pop(dst).val]
    if slot:
        out.frame_size = (len(slot) * 4 + 15) & ~15
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
