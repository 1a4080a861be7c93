"""Register allocation, prologue/epilogue, assembly and object emission.

Allocation is a linear scan over def/last-use intervals with the fixed
preference order a0-a7, t0-t6, s1-s11. Function arguments arrive pinned in
a0.., the return value is steered into a0. On pressure overflow the interval
with the furthest next use is spilled to an sp-relative slot and the scan is
redone with three scratch registers reserved for reload sequences.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass

from . import target as tgt
from .mir import (MOp, MachineInstr, MachineFunction, REG_INDEX,
                  parse_reg, reg_name, X0, RA, SP, A0)

ALLOC_ORDER = (
    [REG_INDEX[f"a{i}"] for i in range(8)]
    + [REG_INDEX[f"t{i}"] for i in range(7)]
    + [REG_INDEX[f"s{i}"] for i in range(1, 12)]
)
SCRATCH_REGS = (REG_INDEX["s9"], REG_INDEX["s10"], REG_INDEX["s11"])


class CodegenError(Exception):
    pass


def _inst_def_slot(desc: tgt.TargetDesc, mi: MachineInstr) -> int | None:
    d = desc.instr(mi.mnemonic)
    return 0 if d.ops and d.ops[0] == "rd" else None


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


def _intervals(mf: MachineFunction, desc: tgt.TargetDesc):
    born: dict[int, int] = {}
    uses: dict[int, list[int]] = {}
    n = len(mf.instrs)
    for i, mi in enumerate(mf.instrs):
        dslot = _inst_def_slot(desc, mi)
        for s, op in enumerate(mi.ops):
            if op.kind != "vreg":
                continue
            if s == dslot:
                born[op.val] = i
            else:
                uses.setdefault(op.val, []).append(i)
    out = []
    for v, b in born.items():
        us = uses.get(v, [])  # ascending, as appended
        dies = us[-1] if us else b
        if v == mf.ret_vreg:
            dies = n  # must survive into the return
        out.append(_Interval(v, b, dies, us))
    out.sort(key=lambda iv: (iv.born, iv.vreg))
    return out


def _preg_windows(mf: MachineFunction, desc: tgt.TargetDesc):
    """Conservative liveness window per physical register already present."""
    windows: dict[int, list[int, int]] = {}
    n = len(mf.instrs)
    for i, mi in enumerate(mf.instrs):
        dslot = _inst_def_slot(desc, mi)
        for s, op in enumerate(mi.ops):
            if op.kind != "preg" or op.val in (X0, RA, SP):
                continue
            is_def = s == dslot
            w = windows.get(op.val)
            if w is None:
                windows[op.val] = [i if is_def else -1, i]
            else:
                w[1] = i
    ret_like = any(mi.is_ret for mi in mf.instrs)
    if ret_like and mf.ret_vreg is None and A0 in windows:
        # a0 already carries the return value; keep it live to the end
        windows[A0][1] = n
    return windows


def allocate_registers(mf: MachineFunction, desc: tgt.TargetDesc
                       ) -> MachineFunction:
    """Assign physical registers; spill on overflow. Always succeeds. Both
    attempts scan the same intervals, built once."""
    intervals = _intervals(mf, desc)
    pwin = _preg_windows(mf, desc)
    out = _allocate(mf, desc, intervals, pwin, reserve_scratch=False)
    if out is None:
        out = _allocate(mf, desc, intervals, pwin, reserve_scratch=True)
        if out is None:
            raise CodegenError("register allocation failed even with spilling")
    return out


def _allocate(mf: MachineFunction, desc: tgt.TargetDesc,
              intervals: list[_Interval], pwin: dict[int, list[int]],
              reserve_scratch: bool) -> MachineFunction | None:
    pool = [r for r in ALLOC_ORDER
            if not (reserve_scratch and r in SCRATCH_REGS)]
    assign: dict[int, int] = {}
    spilled: dict[int, int] = {}
    active: list[_Interval] = []  # live at the scan position, all assigned

    for iv in intervals:
        active = [a for a in active if a.dies > iv.born]
        # registers held by live intervals or by physical-register windows
        busy = {assign[a.vreg] for a in active}
        busy.update(r for r, (start, end) in pwin.items()
                    if not (iv.dies <= start or end <= iv.born))
        choices = pool
        if iv.vreg == mf.ret_vreg and A0 not in busy:
            choices = [A0] + pool
        reg = next((r for r in choices if r not in busy), None)
        if reg is None:
            if not reserve_scratch:
                return None
            # spill the interval whose next use is furthest away
            victim = max(active + [iv],
                         key=lambda a: (a.next_use(iv.born), a.vreg))
            if victim is iv:
                spilled[iv.vreg] = len(spilled)
                continue
            reg = assign.pop(victim.vreg)
            spilled[victim.vreg] = len(spilled)
            active = [a for a in active if a is not victim]
        assign[iv.vreg] = reg
        active.append(iv)

    if spilled and not reserve_scratch:
        return None
    return _rewrite(mf, desc, assign, spilled)


def _rewrite(mf: MachineFunction, desc: tgt.TargetDesc,
             assign: dict[int, int], spilled: dict[int, int]
             ) -> MachineFunction:
    out = MachineFunction(mf.name)
    nslots = len(spilled)
    if nslots:
        out.frame_size = (nslots * 4 + 15) & ~15

    def slot_off(v: int) -> int:
        return spilled[v] * 4

    ret_reg = assign.get(mf.ret_vreg) if mf.ret_vreg is not None else None
    for mi in mf.instrs:
        dslot = _inst_def_slot(desc, mi)
        pre: list[MachineInstr] = []
        post: list[MachineInstr] = []
        ops: list[MOp] = []
        scratch_iter = iter(SCRATCH_REGS)
        for s, op in enumerate(mi.ops):
            if op.kind != "vreg":
                ops.append(op)
                continue
            if op.val in spilled:
                if s == dslot:
                    r = SCRATCH_REGS[0]
                    post.append(MachineInstr("SW", [
                        MOp.preg(r), MOp.preg(SP), MOp.imm(slot_off(op.val))]))
                else:
                    r = next(scratch_iter)
                    pre.append(MachineInstr("LW", [
                        MOp.preg(r), MOp.preg(SP), MOp.imm(slot_off(op.val))]))
                ops.append(MOp.preg(r))
            else:
                ops.append(MOp.preg(assign[op.val]))
        new = MachineInstr(mi.mnemonic, ops, mi.is_ret)
        if mi.is_ret and ret_reg is not None and ret_reg != A0:
            pre.append(MachineInstr("ADDI", [MOp.preg(A0), MOp.preg(ret_reg),
                                             MOp.imm(0)]))
        if mi.is_ret and mf.ret_vreg is not None and mf.ret_vreg in spilled:
            pre.append(MachineInstr("LW", [MOp.preg(A0), MOp.preg(SP),
                                           MOp.imm(slot_off(mf.ret_vreg))]))
        out.instrs.extend(pre)
        out.instrs.append(new)
        out.instrs.extend(post)
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


def _memory_spelling(d: tgt.InstrDef) -> bool:
    """Loads, stores and JALR are written `op reg, imm(base)`; LXR, which
    loads through two registers and has no offset, is not."""
    return (d.may_load or d.may_store or d.mnemonic == "JALR") \
        and "imm12" in d.ops


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
    if _memory_spelling(d):
        head, base, off = ops  # rd or rs2, rs1, imm12
        return (f"{d.asm}\t{_fmt_operand(head)}, "
                f"{_fmt_operand(off)}({_fmt_operand(base)})")
    return f"{d.asm}\t" + ", ".join(_fmt_operand(op) for op in ops)


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
        if _memory_spelling(d):
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
