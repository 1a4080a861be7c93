"""Data-driven target description: formats, encodings, semantics, patterns,
extensions.

The catalog is loaded from a structured text file (see targets/rv32_xcrypt.desc)
with one record per instruction and one per selection pattern, a line-for-line
analog of a .td extension file. An instruction's `sem=` expression is its one
definition of meaning: the simulator runs it as one function per
instruction, generated on first use from a fixed template per node kind
(SEM_OPS is built from the same ones) and the word's field shifts and masks,
and a `pattern <MNEMONIC>` record selects the instruction wherever the DAG
has that shape. Every record kind is parsed once per process: a description
loaded again from the same text reuses the frozen InstrDefs (each with its
parsed sem and, once run, its function) and patterns of the first load, and
only checks them against each other and indexes them. Encoding and
decoding are bit-exact over the standard RV32 formats R/R4/I/S/U;
shift-immediate instructions are I-format records that carry a funct7 region
above the 5-bit shift amount.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .mir import MOp, MachineInstr

ALL_EXTENSIONS = ("I", "M", "Zba", "Zbb", "Xcrypt")

# The values each immediate operand role can hold, inclusive. The encoder,
# the pattern matcher and immediate materialization all read these bounds.
IMM_RANGES = {"imm12": (-2048, 2047), "uimm5": (0, 31), "imm20": (0, 0xFFFFF)}


def fits(role: str, value: int) -> bool:
    lo, hi = IMM_RANGES[role]
    return lo <= value <= hi


# Field layouts, msb/lsb inclusive, from which each operand role's
# OperandField is derived. Every format covers bits 31..0 disjointly.
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


def sext(value: int, bits: int) -> int:
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value


class OperandField(NamedTuple):
    """Where one operand role sits in a word, for encode, decode and the
    simulator. Its value is `word >> shift & mask | word >> lo_shift &
    lo_mask`, sign-extended from bit `sign` when that is not 0. Only the
    S-format imm12 has a low part: its bits 4..0 sit apart, in bits 11..7."""

    reg: bool
    shift: int
    mask: int
    sign: int = 0
    lo_shift: int = 0
    lo_mask: int = 0

    def value(self, word: int) -> int:
        v = word >> self.shift & self.mask | word >> self.lo_shift & self.lo_mask
        return (v ^ self.sign) - self.sign


def _operand_fields() -> dict[tuple[str, str], OperandField]:
    """The field of each operand role in each format that has one."""
    table = {}
    for fmt, layout in FORMATS.items():
        span = {name: (lo, (1 << (hi - lo + 1)) - 1) for name, hi, lo in layout}
        for role in ("rd", "rs1", "rs2", "rs3"):
            if role in span:
                table[fmt, role] = OperandField(True, *span[role])
        if "imm20" in span:
            table[fmt, "imm20"] = OperandField(False, *span["imm20"])
        if "imm12" in span:  # a shift amount is imm12's low five bits
            lsb, mask = span["imm12"]
            table[fmt, "imm12"] = OperandField(False, lsb, mask, 0x800)
            table[fmt, "uimm5"] = OperandField(False, lsb, 31)
        if "imm_hi" in span:
            (hi_lsb, hi_mask), (lo_lsb, lo_mask) = span["imm_hi"], span["imm_lo"]
            width = lo_mask.bit_length()
            table[fmt, "imm12"] = OperandField(
                False, hi_lsb - width, hi_mask << width, 0x800, lo_lsb, lo_mask)
    return table


_OPERAND_FIELDS = _operand_fields()


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
    sem: PatNode | None = None  # meaning over the source operand roles
    # the bits every encoding fixes, and their values: a word is this
    # instruction when word & mask == match
    mask: int = 0
    match: int = 0
    fields: tuple[OperandField, ...] = ()  # one per role of `ops`

    @property
    def may_load(self) -> bool:
        return "mayLoad" in self.flags

    @property
    def may_store(self) -> bool:
        return "mayStore" in self.flags

    # Allocation, printing and the simulator read these per instruction.
    # They are computed on first use, once per process: every description
    # loaded from the same record shares its InstrDef.
    @cached_property
    def defines(self) -> bool:
        """ops[0] is rd, the one operand the instruction writes."""
        return self.ops[:1] == ("rd",)

    @cached_property
    def sources(self) -> tuple[str, ...]:
        """The source operand roles: `ops` without rd."""
        return self.ops[1:] if self.defines else self.ops

    @cached_property
    def source_order(self) -> tuple[int, ...]:
        """The positions of the source operands in register order, rs1
        first: SW lists its rs2 before its rs1."""
        src = self.sources
        return tuple(sorted(range(len(src)), key=src.__getitem__))

    @cached_property
    def mem_spelling(self) -> bool:
        """Written `op reg, imm(base)`: loads, stores and JALR. Not LXR,
        which loads through two registers and has no offset."""
        return (self.may_load or self.may_store or self.mnemonic == "JALR") \
            and "imm12" in self.ops

    @cached_property
    def run(self) -> Callable | None:
        """The sem as one generated function, run(m, regs, word): it reads
        its register operands from `regs` and its immediates from the
        encoded `word`, loads and stores through machine state m, writes the
        value to rd unless rd is x0, and returns it. None without a sem."""
        if self.sem is None:
            return None
        scope = {"__builtins__": {}}
        exec(_run_source(self), scope)
        return scope["run"]


class PatNode(NamedTuple):
    """A node in a pattern or sem tree. It is a named tuple because the
    description loader builds many, and a frozen dataclass takes about
    three times as long to construct.

    kind is an operation name ("add", "load", ...), or one of the leaf kinds
    "capture" ($x), "const" (a specific constant), or an immediate role of
    IMM_RANGES (any constant in that role's range, captured). `oneuse`
    restricts the matched DAG node to a single consumer.
    """

    kind: str
    children: tuple["PatNode", ...] = ()
    name: str = ""
    value: int = 0
    oneuse: bool = False

    def size(self) -> int:
        n = 2 if self.kind == "const" or self.kind in IMM_RANGES else 1
        for c in self.children:
            n += c.size()
        return n


class SelPattern(NamedTuple):
    """One selection pattern; a named tuple for the loader's speed, as
    PatNode is."""

    source: PatNode
    target: PatNode  # kind = instruction mnemonic, children are leaves
    ext: str
    priority: int


@dataclass(frozen=True)
class TargetDesc:
    """A loaded description. It is immutable, so one can be shared by every
    command of a process: the mappings are read-only views and the
    sequences are tuples."""

    instrs: Mapping[str, InstrDef]
    patterns: tuple[SelPattern, ...]  # in record order
    by_asm: Mapping[str, InstrDef]  # printed name
    # defs by opcode | funct3 << 12, the word's bits under SLOT_MASK; U-format
    # defs sit in all eight funct3 slots
    by_opcode: Mapping[int, tuple[InstrDef, ...]]

    def instr(self, mnemonic: str) -> InstrDef:
        try:
            return self.instrs[mnemonic]
        except KeyError:
            raise TargetError(f"unknown instruction {mnemonic!r}") from None


def parse_mattr(text: str | None) -> frozenset[str]:
    """Parse "+zba,+xcrypt,-m" style feature strings over the default I and
    M; I is always on."""
    feats = {"I", "M"}
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
    """Parse one s-expression. Lists are closed bottom-up on a stack; a bare
    token is a capture ($x), except the payload of const and uimm5. No
    other immediate role captures: (imm12 $x) is rejected."""
    stack: list[list] = [[]]
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise TargetError(f"{where}: unbalanced ')'")
            node = _list_node(stack.pop(), where)
            stack[-1].append(node)
        else:
            stack[-1].append(tok)
    if len(stack) > 1 or len(stack[0]) != 1:
        raise TargetError(f"{where}: expected one balanced expression")
    top = stack[0][0]
    return _capture(top) if isinstance(top, str) else top


def _capture(tok: str) -> PatNode:
    name = tok.removeprefix("$")
    return _ROLE_CAPTURES.get(name) or PatNode("capture", name=name)


def _list_node(items: list, where: str) -> PatNode:
    if not items or not isinstance(items[0], str):
        raise TargetError(f"{where}: expression without an operator")
    head, args = items[0], items[1:]
    oneuse = head.endswith("_oneuse")
    if oneuse:
        head = head[: -len("_oneuse")]
    if head in ("const", "uimm5"):
        if len(args) != 1 or not isinstance(args[0], str):
            raise TargetError(f"{where}: {head} takes one literal")
        if head == "const":
            try:
                return PatNode("const", value=int(args[0]))
            except ValueError:
                raise TargetError(f"{where}: const takes an integer literal, "
                                  f"not {args[0]!r}") from None
        return PatNode("uimm5", name=args[0].removeprefix("$"))
    if head in IMM_RANGES:
        raise TargetError(f"{where}: only uimm5 immediates can be captured, "
                          f"not {head}")
    children = tuple([_capture(a) if isinstance(a, str) else a for a in args])
    if head == "not":
        if len(children) != 1:
            raise TargetError(f"{where}: not takes one operand")
        return PatNode("xor", (children[0], PatNode("const", value=-1)),
                       oneuse=oneuse)
    return PatNode(head, children, oneuse=oneuse)


_VALID_ROLES = {"rd", "rs1", "rs2", "rs3", *IMM_RANGES}
# one capture leaf per operand role, shared by every tree that names it
_ROLE_CAPTURES = {r: PatNode("capture", name=r) for r in _VALID_ROLES}
# the `key=value` fields of an instr record, sem= aside
_FIELDS = {"fmt", "opcode", "funct3", "funct7", "funct2", "ops", "asm", "sched"}
# flag tokens and the names InstrDef.flags stores them under
_FLAGS = {"commutable": "isCommutable", "mayLoad": "mayLoad",
          "mayStore": "mayStore", "hasSideEffects": "hasSideEffects"}

# What each `sem=` node kind computes, as a Python expression over its
# operands {0} and {1}, each used once. Operands are register values
# (unsigned 32-bit) and immediates (signed); only the low 32 bits of a result
# are defined, so kinds that read the upper bits mask first. A rotate shifts
# the low word written twice. `m` is the machine state: load(addr) reads and
# store(addr, value) writes a memory word.
_SEM_EXPRS = {
    "add": "({0} + {1})",
    "sub": "({0} - {1})",
    "mul": "({0} * {1})",
    "and": "({0} & {1})",
    "or": "({0} | {1})",
    "xor": "({0} ^ {1})",
    "shl": "({0} << ({1} & 31))",
    "srl": "(({0} & 0xFFFFFFFF) >> ({1} & 31))",
    "sra": "((({0} & 0xFFFFFFFF ^ 0x80000000) - 0x80000000) >> ({1} & 31))",
    "rotr": "(({0} & 0xFFFFFFFF) * 0x100000001 >> ({1} & 31) & 0xFFFFFFFF)",
    "load": "m.load({0})",
    "store": "m.store({1}, {0})",
}
# the same, one callable per kind: SEM_OPS[kind](m, *operands)
SEM_OPS = {kind: eval(("lambda m, a, b: " if "{1}" in e else "lambda m, a: ")
                      + e.format("a", "b")) for kind, e in _SEM_EXPRS.items()}

# The function InstrDef.run generates: `v` is the sem's value and `d` the
# number of its rd, which is never written when it is x0.
_RUN_DEFINES = ("def run(m, r, w):\n    v = {}\n    d = w >> {} & 31\n"
                "    if d:\n        r[d] = v & 0xFFFFFFFF\n    return v\n")
_RUN = "def run(m, r, w):\n    return {}\n"


def _run_source(d: InstrDef) -> str:
    """The source of `d.run`: the templates, the names m, r, w, v and d, and
    integers (field shifts and masks, and `(const N)` values) alone."""
    expr = _sem_expr(d.sem, d.fmt)
    return (_RUN_DEFINES.format(expr, d.fields[0].shift) if d.defines
            else _RUN.format(expr))


def _sem_expr(node: PatNode, fmt: str) -> str:
    """A sem tree as one expression over m, r and w, for format `fmt`. A
    register operand is r[w >> shift & 31] and an immediate its
    OperandField value, with the field's shifts and masks inlined."""
    if node.kind == "const":
        return f"({node.value:d})"
    if node.kind == "capture":
        f = _OPERAND_FIELDS[fmt, node.name]
        if f.reg:
            return f"r[w >> {f.shift:d} & 31]"
        v = f"w >> {f.shift:d} & {f.mask:d}"
        if f.lo_mask:
            v += f" | w >> {f.lo_shift:d} & {f.lo_mask:d}"
        return f"((({v}) ^ {f.sign:d}) - {f.sign:d})" if f.sign else f"({v})"
    return _SEM_EXPRS[node.kind].format(*[_sem_expr(c, fmt)
                                          for c in node.children])


# Every record is parsed once per process, however often a description is
# loaded; the memos hold only immutable values, and never an error, so a bad
# record is diagnosed, with its own line, on every load.
#
# (instr record text, extension) -> its InstrDef, shared by every
# description loaded with that record.
_INSTRS: dict[tuple[str, str], InstrDef] = {}

def load_target_desc(text: str) -> TargetDesc:
    """Parse a target description. Raises TargetError on duplicate mnemonics,
    encoding collisions among any co-enablable defs, or malformed sems and
    patterns. The tables are built here and frozen once, at the end."""
    instrs: dict[str, InstrDef] = {}
    by_asm: dict[str, InstrDef] = {}
    patterns: list[SelPattern] = []
    ext = "I"
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
            d = _INSTRS.get((line, ext))
            if d is None:
                d = _INSTRS[line, ext] = _parse_instr(line, ext, where)
            if d.mnemonic in instrs:
                raise TargetError(f"{where}: duplicate mnemonic {d.mnemonic}")
            instrs[d.mnemonic] = d
            by_asm.setdefault(d.asm, d)
            continue
        if line.startswith("pattern "):
            src, tgt, size = _pattern(line[len("pattern "):].strip(),
                                      instrs, where)
            patterns.append(SelPattern(src, tgt, ext, size))
            continue
        raise TargetError(f"{where}: unrecognized record {line!r}")
    return TargetDesc(MappingProxyType(instrs), tuple(patterns),
                      MappingProxyType(by_asm),
                      MappingProxyType(_index_encodings(instrs)))


# pattern record -> ((source, target, size), source captures). A `pattern
# SRC => TGT` is keyed by its text, and its captures are checked with its
# parse; the instructions of its target, and the operands they are given,
# are checked against each description. A `pattern MNEMONIC` is keyed by the
# instruction's operand roles and sem as well, which it is built from, and
# keeps no captures.
_PATTERNS: dict[tuple, tuple[tuple[PatNode, PatNode, int],
                             dict[str, str] | None]] = {}


def _pattern(body: str, instrs: dict[str, InstrDef], where: str
             ) -> tuple[PatNode, PatNode, int]:
    explicit = "=>" in body
    d = None if explicit else instrs.get(body)
    key = (body, None if d is None else (d.ops, d.sem))
    hit = _PATTERNS.get(key)
    if hit is None:
        caps = None
        if explicit:
            src_text, _, tgt_text = body.partition("=>")
            src = _parse_sexpr(src_text, where)
            tgt = _parse_sexpr(tgt_text, where)
            caps = _check_captures(src, tgt, where)
        else:
            src, tgt = _sem_pattern(body, instrs, where)
        hit = _PATTERNS[key] = (src, tgt, src.size()), caps
    parsed, caps = hit
    if explicit:  # its target names instructions of this description
        src, tgt, _ = parsed
        d = _check_target(tgt, caps, instrs, where)
        if not d.defines and src.kind != "store":
            raise TargetError(f"{where}: pattern target {d.mnemonic} writes "
                              f"no rd, so it cannot give the value of "
                              f"{src.kind!r}")
    return parsed


def _parse_instr(line: str, ext: str, where: str) -> InstrDef:
    line, _, sem_text = line.partition(" sem=")  # sem= comes last
    toks = line.split()
    mnemonic = toks[1]
    kw = {}
    flags = set()
    for tok in toks[2:]:
        key, eq, value = tok.partition("=")
        if eq and key in _FIELDS:
            kw[key] = value
        elif tok in _FLAGS:
            flags.add(_FLAGS[tok])
        else:
            raise TargetError(f"{where}: unknown token {tok!r}")
    fmt = kw.get("fmt")
    if fmt not in FORMATS:
        raise TargetError(f"{where}: bad format {fmt!r}")
    ops = tuple(kw["ops"].split(",")) if kw.get("ops") else ()
    if not _VALID_ROLES.issuperset(ops):
        raise TargetError(f"{where}: bad operand roles {ops}")
    try:
        fields = tuple([_OPERAND_FIELDS[fmt, r] for r in ops])
    except KeyError as e:
        raise TargetError(f"{where}: format {fmt} has no {e.args[0][1]} "
                          "field") from None
    sem = None
    if sem_text:
        sem = _parse_sexpr(sem_text, where)
        _check_sem(sem, tuple(r for r in ops if r != "rd"), where)
    if "opcode" not in kw:
        raise TargetError(f"{where}: missing opcode=")
    # the funct regions of the record's encoding, each given exactly when
    # it exists: funct3 but in U, funct7 in R and in shift immediates (I
    # with uimm5), funct2 in R4
    shift = fmt == "I" and "uimm5" in ops
    for key, has in (("funct3", fmt != "U"), ("funct7", fmt == "R" or shift),
                     ("funct2", fmt == "R4")):
        if has != (key in kw):
            form = f"format {fmt}" + (" with uimm5" if shift else
                                      " without uimm5" if fmt == "I" else "")
            raise TargetError(f"{where}: {form} needs {key}=" if has else
                              f"{where}: {form} has no {key} field")
    opcode, funct3, funct7, funct2 = (
        _int_field(kw, k, where)
        for k in ("opcode", "funct3", "funct7", "funct2"))
    # fixed bits: opcode and the funct regions
    mask, match = 0x7F, opcode
    if funct3 is not None:
        mask, match = mask | 0x7 << 12, match | funct3 << 12
    if funct7 is not None:
        mask, match = mask | 0x7F << 25, match | funct7 << 25
    elif funct2 is not None:
        mask, match = mask | 0x3 << 25, match | funct2 << 25
    if match & ~mask:
        raise TargetError(f"{where}: opcode or funct value too wide")
    return InstrDef(
        mnemonic=mnemonic,
        asm=kw.get("asm", mnemonic.lower()),
        fmt=fmt,
        opcode=opcode,
        funct3=funct3,
        funct7=funct7,
        funct2=funct2,
        ops=ops,
        flags=frozenset(flags),
        ext=ext,
        sched=tuple(kw["sched"].split(",")) if kw.get("sched") else (),
        sem=sem,
        mask=mask,
        match=match,
        fields=fields,
    )


def _int_field(kw: dict[str, str], key: str, where: str) -> int | None:
    if key not in kw:
        return None
    try:
        return int(kw[key], 0)
    except ValueError:
        raise TargetError(f"{where}: {key}={kw[key]} is not an integer") \
            from None


def _check_sem(node: PatNode, roles: tuple[str, ...], where: str):
    """A sem is built from SEM_OPS kinds, constants and source operands."""
    if node.kind == "capture":
        if node.name not in roles:
            raise TargetError(f"{where}: sem operand ${node.name} is not a "
                              f"source operand ({', '.join(roles)})")
        return
    if node.kind == "const":
        return
    if node.kind not in SEM_OPS or node.oneuse:
        raise TargetError(f"{where}: unknown sem node kind {node.kind!r}")
    if len(node.children) != _SEM_EXPRS[node.kind].count("{"):
        raise TargetError(f"{where}: wrong operand count for {node.kind!r}")
    for c in node.children:
        _check_sem(c, roles, where)


def _sem_pattern(mnemonic: str, instrs: dict[str, InstrDef], where: str):
    """`pattern MNEMONIC`: the instruction's sem is the source, and the
    target takes the source operands in record order."""
    d = instrs.get(mnemonic)
    if d is None or d.sem is None:
        raise TargetError(f"{where}: pattern {mnemonic}: no instruction "
                          f"{mnemonic} with a sem")
    if "imm20" in d.ops:
        raise TargetError(f"{where}: pattern {mnemonic}: only imm12 and "
                          "uimm5 immediates can be matched")
    roles = [r for r in d.ops if r != "rd"]
    target = PatNode(d.mnemonic, tuple([_ROLE_CAPTURES[r] for r in roles]))
    src = _imm_matcher(d.sem) if IMM_RANGES.keys() & roles else d.sem
    return src, target


def _imm_matcher(node: PatNode) -> PatNode:
    """The sem with each immediate operand matching a constant in range."""
    if node.kind == "capture" and node.name in IMM_RANGES:
        return PatNode(node.name, name=node.name)
    if not node.children:
        return node
    return PatNode(node.kind, tuple([_imm_matcher(c) for c in node.children]),
                   oneuse=node.oneuse)


def _captures(node: PatNode, out: dict[str, str]):
    """Map each capture name in `node` to its kind: "capture" for a
    register, else the immediate role it matches."""
    if node.kind == "capture" or node.kind in IMM_RANGES:
        out[node.name] = node.kind
    for c in node.children:
        _captures(c, out)


def _check_captures(src: PatNode, tgt: PatNode, where: str
                    ) -> dict[str, str]:
    """The source's captures, which bind every capture of the target."""
    src_caps: dict[str, str] = {}
    tgt_caps: dict[str, str] = {}
    _captures(src, src_caps)
    _captures(tgt, tgt_caps)
    if not tgt_caps.keys() <= src_caps.keys():
        raise TargetError(f"{where}: target captures "
                          f"{tgt_caps.keys() - src_caps.keys()} not bound "
                          "by source")
    return src_caps


def _check_target(node: PatNode, caps: dict[str, str],
                  instrs: dict[str, InstrDef], where: str) -> InstrDef:
    """`node` is an instruction of `instrs`, and each operand suits its
    role: a register role takes a register capture or a nested instruction
    that writes rd; an immediate role takes a constant in its range or an
    immediate capture, which is a `(uimm5 $n)` and fits every immediate
    role. `caps` maps the captures the source binds to their kinds. Returns
    the instruction.

    A module-level function, not a closure over `instrs`: a recursive
    closure is a reference cycle, and it would leave every loaded
    description to the cyclic garbage collector."""
    d = instrs.get(node.kind)
    if d is None:
        raise TargetError(f"{where}: pattern target uses unknown "
                          f"instruction {node.kind!r}")
    roles = d.sources
    if len(node.children) != len(roles):
        raise TargetError(f"{where}: pattern target {d.mnemonic} takes "
                          f"{len(roles)} operands, not "
                          f"{len(node.children)}")
    for role, c in zip(roles, node.children):
        imm = IMM_RANGES.get(role)  # None for a register role
        if c.kind == "capture":
            ok = (caps[c.name] == "capture") == (imm is None)
        elif c.kind == "const":
            ok = imm is not None and imm[0] <= c.value <= imm[1]
        else:
            ok = imm is None and _check_target(c, caps, instrs, where).defines
        if not ok:
            raise _operand_error(where, d.mnemonic, role, c, caps)
    return d


def _operand_error(where: str, mnemonic: str, role: str, c: PatNode,
                   caps: dict[str, str]) -> TargetError:
    imm = IMM_RANGES.get(role)
    need = "a register" if imm is None else \
        f"an immediate in [{imm[0]}, {imm[1]}]"
    if c.kind == "capture":
        kind = caps[c.name]
        what = f"{'register' if kind == 'capture' else kind} ${c.name}"
    elif c.kind == "const":
        what = f"(const {c.value})"
    else:
        what = f"{c.kind}, which writes no rd" if imm is None else c.kind
    return TargetError(f"{where}: pattern target {mnemonic}: {role} takes "
                       f"{need}, not {what}")


def _collide(a: InstrDef, b: InstrDef) -> bool:
    """Some word is both: they agree on every bit that both fix."""
    return not (a.match ^ b.match) & a.mask & b.mask


def _index_encodings(instrs: dict[str, InstrDef]
                     ) -> dict[int, tuple[InstrDef, ...]]:
    """The by_opcode table. Defs can only collide within one (opcode,
    funct3) slot, so each def is checked against the defs of its own
    slots."""
    slots: dict[int, list[InstrDef]] = {}
    for d in instrs.values():
        for funct3 in range(8) if d.fmt == "U" else (d.funct3,):
            slot = slots.setdefault(d.opcode | funct3 << 12, [])
            for other in slot:
                if _collide(other, d):
                    raise TargetError(f"encoding collision between "
                                      f"{other.mnemonic} and {d.mnemonic}")
            slot.append(d)
    return {key: tuple(slot) for key, slot in slots.items()}


def load_default_desc() -> TargetDesc:
    text = (resources.files("rv32x") / "targets" / "rv32_xcrypt.desc").read_text()
    return load_target_desc(text)


# --------------------------------------------------------------------------
# Encoding / decoding
# --------------------------------------------------------------------------

class EncodedWord(NamedTuple):
    word: int
    reloc: tuple[str, str] | None = None  # (kind "hi20"|"lo12", symbol)


def _op_value(op: MOp, role: str, d: InstrDef):
    kind, val, reloc = op
    if kind == "vreg":
        raise TargetError(f"{d.mnemonic}: virtual register in encoder")
    if role in ("rd", "rs1", "rs2", "rs3"):
        if kind != "preg":
            raise TargetError(f"{d.mnemonic}: {role} must be a register")
        if not 0 <= val < 32:
            raise TargetError(f"{d.mnemonic}: no register x{val}")
        return val
    if kind == "sym":
        want = "imm20" if reloc == "hi20" else "imm12"
        if role != want:
            raise TargetError(f"{d.mnemonic}: {reloc} relocation is only "
                              f"valid on {want} operands")
        return None  # relocation, field stays zero
    if kind != "imm":
        raise TargetError(f"{d.mnemonic}: {role} must be an immediate")
    if not fits(role, val):
        what = "shift amount" if role == "uimm5" else "immediate"
        raise TargetError(f"{d.mnemonic}: {what} {val} out of {role} range")
    return val


def encode(mi: MachineInstr, desc: TargetDesc) -> EncodedWord:
    """Pack one machine instruction into its 32-bit word: each operand's
    bits go where its field reads them from."""
    d = desc.instr(mi.mnemonic)
    if len(mi.ops) != len(d.ops):
        raise TargetError(f"{d.mnemonic}: expected {len(d.ops)} operands")
    word = d.match  # the opcode and funct fields
    reloc = None
    for role, f, op in zip(d.ops, d.fields, mi.ops):
        kind, v, _ = op
        # a register in a register field or an immediate in range goes in
        # as it is; _op_value diagnoses the rest, or finds a relocation
        if not (kind == "preg" and f.reg and 0 <= v < 32
                or kind == "imm" and not f.reg and fits(role, v)):
            v = _op_value(op, role, d)
            if v is None:
                reloc = (op.reloc, op.val)
                continue
        word |= (v & f.mask) << f.shift | (v & f.lo_mask) << f.lo_shift
    return EncodedWord(word, reloc)


SLOT_MASK = 0x707F  # the opcode and funct3 bits


def lookup(word: int, desc: TargetDesc, ext: frozenset[str]) -> InstrDef | None:
    """The enabled instruction that encodes as `word`; None for unknown
    words. Disjointness guarantees a single candidate."""
    for d in desc.by_opcode.get(word & SLOT_MASK, ()):
        if word & d.mask == d.match and d.ext in ext:
            return d
    return None


def machine_instr(word: int, d: InstrDef) -> MachineInstr:
    """`word`, an encoding of `d`, with its operands read out."""
    return MachineInstr(d.mnemonic, [MOp("preg" if f.reg else "imm",
                                         f.value(word)) for f in d.fields])


def decode(word: int, desc: TargetDesc, ext: frozenset[str]) -> MachineInstr | None:
    """Inverse of encode over the enabled catalog; None for unknown words."""
    d = lookup(word, desc, ext)
    return None if d is None else machine_instr(word, d)


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
    if fits("imm12", val):
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
    strictly shorter, mirroring the upstream guard (threshold 2). On RV32 the
    base sequence never exceeds two instructions and the shortcut is at least
    two, so the shortcut never replaces it, at any threshold.
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
