"""Data-driven target description: formats, encodings, patterns, extensions.

The catalog is loaded from a structured text file (see targets/rv32_xcrypt.desc)
with one record per instruction and one per selection pattern, a line-for-line
analog of a .td extension file. Encoding and decoding are bit-exact over the
standard RV32 formats R/R4/I/S/U; shift-immediate instructions are I-format
records that carry a funct7 region above the 5-bit shift amount.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

from .mir import MOp, MachineInstr

ALL_EXTENSIONS = ("I", "M", "Zba", "Zbb", "Xcrypt")

# Field layouts, msb/lsb inclusive. Every format covers bits 31..0 disjointly.
FORMATS = {
    "R": (("funct7", 31, 25), ("rs2", 24, 20), ("rs1", 19, 15),
          ("funct3", 14, 12), ("rd", 11, 7), ("opcode", 6, 0)),
    "R4": (("rs3", 31, 27), ("funct2", 26, 25), ("rs2", 24, 20), ("rs1", 19, 15),
           ("funct3", 14, 12), ("rd", 11, 7), ("opcode", 6, 0)),
    "I": (("imm12", 31, 20), ("rs1", 19, 15), ("funct3", 14, 12),
          ("rd", 11, 7), ("opcode", 6, 0)),
    "S": (("imm_hi", 31, 25), ("rs2", 24, 20), ("rs1", 19, 15),
          ("funct3", 14, 12), ("imm_lo", 11, 7), ("opcode", 6, 0)),
    "U": (("imm20", 31, 12), ("rd", 11, 7), ("opcode", 6, 0)),
}


class TargetError(Exception):
    pass


def _validate_formats():
    for name, fields in FORMATS.items():
        seen: set[int] = set()
        for _, hi, lo in fields:
            bits = set(range(lo, hi + 1))
            if bits & seen:
                raise TargetError(f"format {name}: overlapping fields")
            seen |= bits
        if seen != set(range(32)):
            raise TargetError(f"format {name}: fields do not cover bits 31..0")


_validate_formats()


def _bits(word: int, hi: int, lo: int) -> int:
    return (word >> lo) & ((1 << (hi - lo + 1)) - 1)


def _place(value: int, hi: int, lo: int) -> int:
    width = hi - lo + 1
    if value < 0 or value >= (1 << width):
        raise TargetError(f"field value {value} does not fit in {width} bits")
    return value << lo


def sext(value: int, bits: int) -> int:
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value


@dataclass(frozen=True)
class InstrDef:
    mnemonic: str           # catalog name, e.g. "SH1ADD"
    asm: str                # printed mnemonic, e.g. "sh1add"
    fmt: str                # R | R4 | I | S | U
    opcode: int
    funct3: int | None = None
    funct7: int | None = None   # also the shamt-region for I-format shifts
    funct2: int | None = None   # R4 only
    ops: tuple[str, ...] = ()   # roles: rd rs1 rs2 rs3 imm12 imm20 uimm5
    flags: frozenset[str] = frozenset()
    ext: str = "I"
    sched: tuple[str, ...] = ()  # parsed and stored, never used for ordering

    @property
    def is_shift_imm(self) -> bool:
        return self.fmt == "I" and "uimm5" in self.ops

    @property
    def may_load(self) -> bool:
        return "mayLoad" in self.flags

    @property
    def may_store(self) -> bool:
        return "mayStore" in self.flags


@dataclass(frozen=True)
class PatNode:
    """A node in a selection-pattern tree.

    kind is an operation name ("add", "load", ...), or one of the leaf kinds
    "capture" ($x), "const" (a specific constant), "uimm5" (any 0..31 constant,
    captured). `oneuse` restricts the matched DAG node to a single consumer.
    """

    kind: str
    children: tuple["PatNode", ...] = ()
    name: str = ""
    value: int = 0
    oneuse: bool = False

    def count(self) -> int:
        n = 2 if self.kind in ("const", "uimm5") else 1
        return n + sum(c.count() for c in self.children)


@dataclass(frozen=True)
class SelPattern:
    source: PatNode
    target: PatNode  # kind = instruction mnemonic, children are leaves
    ext: str
    priority: int
    order: int


@dataclass
class TargetDesc:
    instrs: dict[str, InstrDef] = field(default_factory=dict)
    patterns: list[SelPattern] = field(default_factory=list)
    by_asm: dict[str, InstrDef] = field(default_factory=dict)  # printed name

    def instr(self, mnemonic: str) -> InstrDef:
        try:
            return self.instrs[mnemonic]
        except KeyError:
            raise TargetError(f"unknown instruction {mnemonic!r}") from None

    def enabled(self, ext: frozenset[str]):
        return [d for d in self.instrs.values() if d.ext in ext]


def parse_mattr(text: str | None, base=("I", "M")) -> frozenset[str]:
    """Parse "+zba,+xcrypt,-m" style feature strings; I is always on."""
    feats = set(base)
    canon = {e.lower(): e for e in ALL_EXTENSIONS}
    if text:
        for tok in text.split(","):
            tok = tok.strip()
            if not tok:
                continue
            if tok[0] not in "+-" or tok[1:].lower() not in canon:
                raise TargetError(f"unknown feature {tok!r}")
            name = canon[tok[1:].lower()]
            if tok[0] == "+":
                feats.add(name)
            else:
                feats.discard(name)
    feats.add("I")
    return frozenset(feats)


# --------------------------------------------------------------------------
# Description file loader
# --------------------------------------------------------------------------

_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def _parse_sexpr(text: str, where: str) -> PatNode:
    toks = _TOKEN.findall(text)
    pos = 0

    def node() -> PatNode:
        nonlocal pos
        if pos >= len(toks):
            raise TargetError(f"{where}: truncated pattern")
        tok = toks[pos]
        pos += 1
        if tok == "(":
            if pos >= len(toks):
                raise TargetError(f"{where}: truncated pattern")
            head = toks[pos]
            pos += 1
            children = []
            while pos < len(toks) and toks[pos] != ")":
                children.append(node())
            if pos >= len(toks):
                raise TargetError(f"{where}: missing ')'")
            pos += 1
            oneuse = head.endswith("_oneuse")
            if oneuse:
                head = head[: -len("_oneuse")]
            if head == "const":
                if len(children) != 1 or children[0].kind != "capture":
                    raise TargetError(f"{where}: const takes one literal")
                return PatNode("const", value=int(children[0].name))
            if head == "uimm5":
                if len(children) != 1 or children[0].kind != "capture":
                    raise TargetError(f"{where}: uimm5 takes one capture")
                return PatNode("uimm5", name=children[0].name)
            if head == "not":
                if len(children) != 1:
                    raise TargetError(f"{where}: not takes one operand")
                return PatNode("xor", (children[0], PatNode("const", value=-1)),
                               oneuse=oneuse)
            return PatNode(head, tuple(children), oneuse=oneuse)
        if tok.startswith("$"):
            return PatNode("capture", name=tok[1:])
        return PatNode("capture", name=tok)  # bare literal (const payload)

    result = node()
    if pos != len(toks):
        raise TargetError(f"{where}: trailing tokens in pattern")
    return result


_VALID_ROLES = {"rd", "rs1", "rs2", "rs3", "imm12", "imm20", "uimm5"}
_VALID_FLAGS = {"commutable", "mayLoad", "mayStore", "hasSideEffects"}


def load_target_desc(text: str) -> TargetDesc:
    """Parse a target description. Raises TargetError on duplicate mnemonics,
    encoding collisions among any co-enablable defs, or malformed patterns."""
    desc = TargetDesc()
    ext = "I"
    order = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split(";")[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        if line.startswith("extension "):
            ext = line.split()[1]
            if ext not in ALL_EXTENSIONS:
                raise TargetError(f"{where}: unknown extension {ext!r}")
            continue
        if line.startswith("instr "):
            d = _parse_instr(line, ext, where)
            if d.mnemonic in desc.instrs:
                raise TargetError(f"{where}: duplicate mnemonic {d.mnemonic}")
            desc.instrs[d.mnemonic] = d
            desc.by_asm.setdefault(d.asm, d)
            continue
        if line.startswith("pattern "):
            m = re.match(r"pattern\s+(.*)=>(.*)$", line)
            if not m:
                raise TargetError(f"{where}: malformed pattern record")
            src = _parse_sexpr(m.group(1), where)
            tgt = _parse_sexpr(m.group(2), where)
            _check_pattern(src, tgt, desc, where)
            desc.patterns.append(SelPattern(src, tgt, ext, src.count(), order))
            order += 1
            continue
        raise TargetError(f"{where}: unrecognized record {line!r}")
    _check_collisions(desc)
    return desc


def _parse_instr(line: str, ext: str, where: str) -> InstrDef:
    toks = line.split()
    mnemonic = toks[1]
    kw = {}
    flags = set()
    for tok in toks[2:]:
        if "=" in tok:
            k, v = tok.split("=", 1)
            kw[k] = v
        elif tok in _VALID_FLAGS:
            flags.add(tok)
        else:
            raise TargetError(f"{where}: unknown token {tok!r}")
    fmt = kw.get("fmt")
    if fmt not in FORMATS:
        raise TargetError(f"{where}: bad format {fmt!r}")
    ops = tuple(kw.get("ops", "").split(",")) if kw.get("ops") else ()
    if any(o not in _VALID_ROLES for o in ops):
        raise TargetError(f"{where}: bad operand roles {ops}")

    def num(key):
        return int(kw[key], 0) if key in kw else None

    return InstrDef(
        mnemonic=mnemonic,
        asm=kw.get("asm", mnemonic.lower()),
        fmt=fmt,
        opcode=int(kw["opcode"], 0),
        funct3=num("funct3"),
        funct7=num("funct7"),
        funct2=num("funct2"),
        ops=ops,
        flags=frozenset({"commutable": "isCommutable"}.get(f, f) for f in flags),
        ext=ext,
        sched=tuple(kw.get("sched", "").split(",")) if kw.get("sched") else (),
    )


def _captures(node: PatNode, out: set[str]):
    if node.kind in ("capture", "uimm5"):
        out.add(node.name)
    for c in node.children:
        _captures(c, out)


def _check_pattern(src: PatNode, tgt: PatNode, desc: TargetDesc, where: str):
    src_caps: set[str] = set()
    tgt_caps: set[str] = set()
    _captures(src, src_caps)
    _captures(tgt, tgt_caps)
    if not tgt_caps <= src_caps:
        raise TargetError(f"{where}: target captures {tgt_caps - src_caps} "
                          "not bound by source")

    def check_tgt(node: PatNode):
        if node.kind in ("capture", "const"):
            return
        if node.kind not in desc.instrs:
            raise TargetError(f"{where}: pattern target uses unknown "
                              f"instruction {node.kind!r}")
        for c in node.children:
            check_tgt(c)

    check_tgt(tgt)


def _funct_region(d: InstrDef):
    """Normalized (kind, value) of the bits-31..25 discriminator."""
    if d.fmt == "R":
        return ("f7", d.funct7 or 0)
    if d.fmt == "R4":
        return ("f2", d.funct2 or 0)
    if d.fmt == "I" and d.is_shift_imm:
        return ("f7", d.funct7 or 0)
    return ("any", 0)  # full-immediate I, S, U: imm occupies the region


def _collide(a: InstrDef, b: InstrDef) -> bool:
    if a.opcode != b.opcode:
        return False
    if a.fmt == "U" or b.fmt == "U":
        return True  # same opcode, no funct fields to separate
    if a.funct3 != b.funct3:
        return False
    ka, va = _funct_region(a)
    kb, vb = _funct_region(b)
    if ka == "any" or kb == "any":
        return True
    if ka == kb:
        return va == vb
    # R vs R4: funct2 occupies the low 2 bits of the funct7 region
    f7, f2 = (va, vb) if ka == "f7" else (vb, va)
    return (f7 & 0b11) == f2


def _check_collisions(desc: TargetDesc):
    defs = list(desc.instrs.values())
    for i, a in enumerate(defs):
        for b in defs[i + 1:]:
            if _collide(a, b):
                raise TargetError(
                    f"encoding collision between {a.mnemonic} and {b.mnemonic}")


def load_default_desc() -> TargetDesc:
    text = (resources.files("rv32x") / "targets" / "rv32_xcrypt.desc").read_text()
    return load_target_desc(text)


# --------------------------------------------------------------------------
# Encoding / decoding
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EncodedWord:
    word: int
    reloc: tuple[str, str] | None = None  # (kind "hi20"|"lo12", symbol)


def _op_value(op: MOp, role: str, d: InstrDef):
    if op.kind == "vreg":
        raise TargetError(f"{d.mnemonic}: virtual register in encoder")
    if role in ("rd", "rs1", "rs2", "rs3"):
        if op.kind != "preg":
            raise TargetError(f"{d.mnemonic}: {role} must be a register")
        return op.val
    if op.kind == "sym":
        want = "imm20" if op.reloc == "hi20" else "imm12"
        if role != want:
            raise TargetError(f"{d.mnemonic}: {op.reloc} relocation is only "
                              f"valid on {want} operands")
        return None  # relocation, field stays zero
    if op.kind != "imm":
        raise TargetError(f"{d.mnemonic}: {role} must be an immediate")
    v = op.val
    if role == "imm12" and not (-2048 <= v <= 2047):
        raise TargetError(f"{d.mnemonic}: immediate {v} out of imm12 range")
    if role == "uimm5" and not (0 <= v <= 31):
        raise TargetError(f"{d.mnemonic}: shift amount {v} out of range")
    if role == "imm20" and not (0 <= v <= 0xFFFFF):
        raise TargetError(f"{d.mnemonic}: immediate {v} out of imm20 range")
    return v


def encode(mi: MachineInstr, desc: TargetDesc) -> EncodedWord:
    """Pack one machine instruction into its 32-bit word."""
    d = desc.instr(mi.mnemonic)
    if len(mi.ops) != len(d.ops):
        raise TargetError(f"{d.mnemonic}: expected {len(d.ops)} operands")
    vals = {}
    reloc = None
    for role, op in zip(d.ops, mi.ops):
        v = _op_value(op, role, d)
        if v is None:
            reloc = ({"hi20": "hi20", "lo12": "lo12"}[op.reloc], op.val)
            v = 0
        vals[role] = v

    word = _place(d.opcode, 6, 0)
    if d.fmt in ("R", "R4", "I", "S"):
        word |= _place(d.funct3, 14, 12)
    if d.fmt == "R":
        word |= _place(d.funct7, 31, 25)
        word |= _place(vals["rd"], 11, 7) | _place(vals["rs1"], 19, 15)
        word |= _place(vals["rs2"], 24, 20)
    elif d.fmt == "R4":
        word |= _place(d.funct2, 26, 25) | _place(vals["rs3"], 31, 27)
        word |= _place(vals["rd"], 11, 7) | _place(vals["rs1"], 19, 15)
        word |= _place(vals["rs2"], 24, 20)
    elif d.fmt == "I":
        imm = (d.funct7 << 5) | vals["uimm5"] if d.is_shift_imm \
            else vals["imm12"] & 0xFFF
        word |= _place(imm, 31, 20)
        word |= _place(vals["rd"], 11, 7) | _place(vals["rs1"], 19, 15)
    elif d.fmt == "S":
        imm = vals["imm12"] & 0xFFF
        word |= _place(imm >> 5, 31, 25) | _place(imm & 0x1F, 11, 7)
        word |= _place(vals["rs1"], 19, 15) | _place(vals["rs2"], 24, 20)
    elif d.fmt == "U":
        word |= _place(vals["imm20"], 31, 12) | _place(vals["rd"], 11, 7)
    return EncodedWord(word, reloc)


def decode(word: int, desc: TargetDesc, ext: frozenset[str]) -> MachineInstr | None:
    """Inverse of encode over the enabled catalog; None for unknown words."""
    opcode = _bits(word, 6, 0)
    funct3 = _bits(word, 14, 12)
    candidates = []
    for d in desc.enabled(ext):
        if d.opcode != opcode:
            continue
        if d.fmt != "U" and d.funct3 != funct3:
            continue
        if d.fmt == "R" and d.funct7 != _bits(word, 31, 25):
            continue
        if d.fmt == "R4" and d.funct2 != _bits(word, 26, 25):
            continue
        if d.is_shift_imm and d.funct7 != _bits(word, 31, 25):
            continue
        candidates.append(d)
    if not candidates:
        return None
    # disjointness guarantees a single candidate
    d = candidates[0]
    ops = []
    for role in d.ops:
        if role == "rd":
            ops.append(MOp.preg(_bits(word, 11, 7)))
        elif role == "rs1":
            ops.append(MOp.preg(_bits(word, 19, 15)))
        elif role == "rs2":
            ops.append(MOp.preg(_bits(word, 24, 20)))
        elif role == "rs3":
            ops.append(MOp.preg(_bits(word, 31, 27)))
        elif role == "uimm5":
            ops.append(MOp.imm(_bits(word, 24, 20)))
        elif role == "imm20":
            ops.append(MOp.imm(_bits(word, 31, 12)))
        elif role == "imm12":
            if d.fmt == "S":
                imm = (_bits(word, 31, 25) << 5) | _bits(word, 11, 7)
            else:
                imm = _bits(word, 31, 20)
            ops.append(MOp.imm(sext(imm, 12)))
    return MachineInstr(d.mnemonic, ops)


# --------------------------------------------------------------------------
# Immediate materialization
# --------------------------------------------------------------------------

def split_hi_lo(addr: int) -> tuple[int, int]:
    """Standard hi/lo split with carry rounding:
    addr == (hi20 << 12) + sign_extend(lo12) (mod 2^32)."""
    addr &= 0xFFFFFFFF
    hi = ((addr + 0x800) >> 12) & 0xFFFFF
    lo = sext(addr & 0xFFF, 12)
    return hi, lo


def _base_seq(val: int) -> list[tuple[str, int | None]]:
    if -2048 <= val <= 2047:
        return [("ADDI", val)]
    hi, lo = split_hi_lo(val)
    seq: list[tuple[str, int | None]] = [("LUI", hi)]
    if lo:
        seq.append(("ADDI", lo))
    return seq


def materialize_imm(value: int, ext: frozenset[str] = frozenset({"I"}),
                    zba_threshold: int = 2) -> list[tuple[str, int | None]]:
    """Instruction sequence leaving `value` in a register.

    Entries are (mnemonic, immediate); SH*ADD entries carry no immediate and
    mean `shNadd rd, rd, rd`. The Zba shortcut replaces the base sequence only
    when the base sequence is longer than `zba_threshold` and the shortcut is
    strictly shorter, mirroring the upstream guard (threshold 2); on RV32 the
    base sequence never exceeds two instructions, so the shortcut is inert at
    the default threshold.
    """
    val = sext(value, 32)
    res = _base_seq(val)
    if "Zba" in ext and len(res) > zba_threshold:
        for div, op in ((3, "SH1ADD"), (5, "SH2ADD"), (9, "SH3ADD")):
            if val % div == 0:
                tmp = _base_seq(val // div) + [(op, None)]
                if len(tmp) < len(res):
                    res = tmp
                break
    return res
