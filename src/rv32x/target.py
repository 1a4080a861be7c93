"""Data-driven target description: formats, encodings, semantics, patterns,
extensions.

The catalog is loaded from a structured text file (see targets/rv32_xcrypt.desc)
with one record per instruction, a line-for-line analog of a .td extension
file. An instruction's `sem=` expression is its one definition of meaning:
the simulator runs it as one function per instruction, generated on first
use from a fixed template per node kind and the word's field shifts and
masks; it is the pattern that selects the instruction, and it says whether
the instruction reads or writes memory.
Every record kind is parsed once per process: a description loaded again
from the same text reuses the frozen InstrDefs (each with its parsed sem,
its pattern and, once run, its function) and `pattern` records of the first
load, and only checks them against each other and indexes them. Encoding
and decoding are bit-exact over the standard RV32 formats R/R4/I/S/U. A
record's operands, and the bits it fixes, are its format's regions
(`_regions`): a shift immediate, an I-format record with a uimm5, holds a
funct7 region above its 5-bit shift amount.
"""

from __future__ import annotations

import re
import weakref
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


# The regions of each format's words, msb/lsb inclusive. A region named for
# an operand role holds that operand, and S's imm_hi and imm_lo hold imm12's
# bits 11..5 and 4..0; opcode and the funct regions hold the values the
# record gives, which every word of the instruction has. Every format covers
# bits 31..0 disjointly.
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

SLOT_MASK = 0x707F  # the opcode and funct3 bits, which index by_opcode


def _regions(fmt: str, ops: tuple[str, ...]) -> dict[str, tuple[int, int]]:
    """A record's regions by name, as (lsb, mask): its format's, except in
    a shift immediate (I with uimm5), whose imm12 is a fixed funct7 over its
    upper seven bits and the shift amount in the five below."""
    regions = {name: (lo, (1 << hi - lo + 1) - 1)
               for name, hi, lo in FORMATS[fmt]}
    if fmt == "I" and "uimm5" in ops:
        lsb, _ = regions.pop("imm12")
        regions["funct7"], regions["uimm5"] = (lsb + 5, 0x7F), (lsb, 0x1F)
    return regions


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


def _field(role: str, regions: dict[str, tuple[int, int]]) -> OperandField:
    """Where operand `role` sits among a record's regions; KeyError when it
    has none. An immediate with a signed range sign-extends from its top
    bit, and S's imm12 is imm_hi over imm_lo."""
    sign = -IMM_RANGES.get(role, (0,))[0]
    if role == "imm12" and "imm_hi" in regions:
        hi_lsb, hi_mask = regions["imm_hi"]
        lo_lsb, lo_mask = regions["imm_lo"]
        width = lo_mask.bit_length()
        return OperandField(False, hi_lsb - width, hi_mask << width, sign,
                            lo_lsb, lo_mask)
    return OperandField(role not in IMM_RANGES, *regions[role], sign)


@dataclass(frozen=True)
class InstrDef:
    mnemonic: str           # catalog name, e.g. "SH1ADD"
    asm: str                # printed mnemonic, e.g. "sh1add"
    ops: tuple[str, ...] = ()   # roles: rd rs1 rs2 rs3 imm12 imm20 uimm5
    ext: str = "I"
    sem: PatNode | None = None  # meaning over the source operand roles
    # the bits every encoding fixes, and their values: a word is this
    # instruction when word & mask == match
    mask: int = 0
    match: int = 0
    fields: tuple[OperandField, ...] = ()  # one per role of `ops`

    # Loading, allocation, printing and the simulator read these per
    # instruction. They are computed on first use, once per process: every
    # description loaded from the same record shares its InstrDef.
    @cached_property
    def may_load(self) -> bool:
        """Its sem reads memory: a load anywhere in it."""
        return self.sem is not None and _loads(self.sem)

    @cached_property
    def may_store(self) -> bool:
        """Its sem writes memory: a store, which is only ever the root."""
        return self.sem is not None and self.sem.kind == "store"

    @cached_property
    def pattern(self) -> SelPattern | None:
        """Its sem as the pattern that selects it, under its extension: an
        immediate operand matches a constant in its role's range, and the
        target takes the source operands in record order. None without a
        sem or with an imm20 operand, which is not matched."""
        if self.sem is None or "imm20" in self.ops:
            return None
        roles = self.sources
        src = _imm_matcher(self.sem) if IMM_RANGES.keys() & set(roles) \
            else self.sem
        return SelPattern(src, PatNode(self.mnemonic, tuple(
            [_ROLE_CAPTURES[r] for r in roles])), self.ext, src.size())

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


@dataclass(frozen=True, eq=False)
class TargetDesc:
    """A loaded description. It is immutable, so one can be shared by every
    command of a process: the mappings are read-only views and the
    sequences are tuples. It compares and hashes by identity, so that
    selection can keep tables per description without holding it."""

    instrs: Mapping[str, InstrDef]
    patterns: tuple[SelPattern, ...]  # in record order
    by_asm: Mapping[str, InstrDef]  # printed name
    # defs by the word's bits under SLOT_MASK; a def that leaves some of them
    # open (U has no funct3) sits in every slot they can fill
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
# the `key=value` fields of an instr record, sem= aside; the _FIXED ones
# give the values of the regions named for them
_FIXED = ("opcode", "funct3", "funct7", "funct2")
_FIELDS = {"fmt", "ops", "asm", *_FIXED}

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

# The function InstrDef.run generates: `v` is the sem's value and `d` the
# number of its rd, which is never written when it is x0.
_RUN_DEFINES = ("def run(m, r, w):\n    v = {}\n    d = w >> {} & 31\n"
                "    if d:\n        r[d] = v & 0xFFFFFFFF\n    return v\n")
_RUN = "def run(m, r, w):\n    return {}\n"


def _run_source(d: InstrDef) -> str:
    """The source of `d.run`: the templates, the names m, r, w, v and d, and
    integers (field shifts and masks, and `(const N)` values) alone."""
    expr = _sem_expr(d.sem, dict(zip(d.ops, d.fields)))
    return (_RUN_DEFINES.format(expr, d.fields[0].shift) if d.defines
            else _RUN.format(expr))


def _sem_expr(node: PatNode, fields: dict[str, OperandField]) -> str:
    """A sem tree as one expression over m, r and w, given the field of each
    operand role. A register operand is r[w >> shift & 31] and an immediate
    its OperandField value, with the field's shifts and masks inlined."""
    if node.kind == "const":
        return f"({node.value:d})"
    if node.kind == "capture":
        f = fields[node.name]
        if f.reg:
            return f"r[w >> {f.shift:d} & 31]"
        v = f"w >> {f.shift:d} & {f.mask:d}"
        if f.lo_mask:
            v += f" | w >> {f.lo_shift:d} & {f.lo_mask:d}"
        return f"((({v}) ^ {f.sign:d}) - {f.sign:d})" if f.sign else f"({v})"
    return _SEM_EXPRS[node.kind].format(*[_sem_expr(c, fields)
                                          for c in node.children])


# Every record is parsed once per process, however often a description is
# loaded; the memos hold only immutable values, and never an error, so a bad
# record is diagnosed, with its own line, on every load.
#
# (instr record text, extension) -> its InstrDef, shared by every
# description loaded with that record.
_INSTRS: dict[tuple[str, str], InstrDef] = {}
# (pattern record text, extension) -> its pattern and its source's captures;
# the instructions of its target, and the operands they are given, are
# checked against each description.
_PATTERNS: dict[tuple[str, str], tuple[SelPattern, dict[str, str]]] = {}


def load_target_desc(text: str) -> TargetDesc:
    """Parse a target description. Raises TargetError on duplicate mnemonics,
    encoding collisions among any co-enablable defs, or malformed sems and
    patterns. Each instruction's own pattern takes its record's place among
    the `pattern` records. The tables are built here and frozen once, at
    the end."""
    instrs: dict[str, InstrDef] = {}
    by_asm: dict[str, InstrDef] = {}
    patterns: list[SelPattern] = []
    ext = "I"
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.lstrip()
        if not line or line[0] == ";":  # blank or comment
            continue
        line = line.split(";")[0].rstrip()
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
            if d.pattern is not None:
                patterns.append(d.pattern)
            continue
        if line.startswith("pattern "):
            patterns.append(_pattern(line, ext, instrs, where))
            continue
        raise TargetError(f"{where}: unrecognized record {line!r}")
    return TargetDesc(MappingProxyType(instrs), tuple(patterns),
                      MappingProxyType(by_asm),
                      MappingProxyType(_index_encodings(instrs)))


def _pattern(line: str, ext: str, instrs: dict[str, InstrDef], where: str
             ) -> SelPattern:
    hit = _PATTERNS.get((line, ext))
    if hit is None:
        src_text, arrow, tgt_text = line[len("pattern "):].partition("=>")
        if not arrow:
            raise TargetError(f"{where}: a pattern record is SRC => TGT; an "
                              "instruction is selected by its sem= alone")
        src = _parse_sexpr(src_text, where)
        tgt = _parse_sexpr(tgt_text, where)
        caps = _check_captures(src, tgt, where)
        hit = _PATTERNS[line, ext] = SelPattern(src, tgt, ext, src.size()), caps
    p, caps = hit
    # its target names instructions of this description
    d = _check_target(p.target, caps, instrs, where)
    if not d.defines and p.source.kind != "store":
        raise TargetError(f"{where}: pattern target {d.mnemonic} writes no "
                          f"rd, so it cannot give the value of "
                          f"{p.source.kind!r}")
    return p


def _parse_instr(line: str, ext: str, where: str) -> InstrDef:
    line, _, sem_text = line.partition(" sem=")  # sem= comes last
    toks = line.split()
    if len(toks) < 2 or "=" in toks[1]:
        raise TargetError(f"{where}: an instr record starts with its "
                          "mnemonic")
    mnemonic = toks[1]
    kw = {}
    for tok in toks[2:]:
        key, eq, value = tok.partition("=")
        if not eq or key not in _FIELDS:
            raise TargetError(f"{where}: unknown token {tok!r}")
        kw[key] = value
    fmt = kw.get("fmt")
    if fmt not in FORMATS:
        raise TargetError(f"{where}: bad format {fmt!r}")
    ops = tuple(kw["ops"].split(",")) if kw.get("ops") else ()
    if not _VALID_ROLES.issuperset(ops) or len(set(ops)) < len(ops):
        raise TargetError(f"{where}: bad operand roles {ops}")
    regions = _regions(fmt, ops)
    form = f"format {fmt}"
    if fmt == "I":
        form += " with uimm5" if "uimm5" in ops else " without uimm5"
    try:
        fields = tuple([_field(r, regions) for r in ops])
    except KeyError as e:
        raise TargetError(f"{where}: {form} has no {e.args[0]} field") \
            from None
    sem = None
    if sem_text:
        sem = _parse_sexpr(sem_text, where)
        roles = tuple(r for r in ops if r != "rd")
        _check_sem(sem, roles, where)
        read: dict[str, str] = {}
        _captures(sem, read)
        for r in roles:
            if r not in read:  # its own pattern would emit it unbound
                raise TargetError(f"{where}: sem never reads source operand "
                                  f"${r}")
        if sem.kind == "store" and "rd" in ops:
            raise TargetError(f"{where}: a store sem writes memory, not rd")
        if sem.kind != "store" and ops[:1] != ("rd",):
            raise TargetError(f"{where}: sem {sem.kind!r} gives a value, so "
                              "ops= starts with rd")
    if "opcode" not in kw:
        raise TargetError(f"{where}: missing opcode=")
    # the fixed bits: the record gives a value for each region named for a
    # _FIXED key, and for no other
    for key in _FIXED:
        if (key in regions) != (key in kw):
            raise TargetError(f"{where}: {form} needs {key}=" if key in
                              regions else f"{where}: {form} has no {key} field")
    mask = match = 0
    for key in _FIXED:
        if key in kw:
            try:
                value = int(kw[key], 0)
            except ValueError:
                raise TargetError(f"{where}: {key}={kw[key]} is not an "
                                  "integer") from None
            lsb, ones = regions[key]
            if value & ~ones:
                raise TargetError(f"{where}: opcode or funct value too wide")
            mask, match = mask | ones << lsb, match | value << lsb
    return InstrDef(
        mnemonic=mnemonic,
        asm=kw.get("asm", mnemonic.lower()),
        ops=ops,
        ext=ext,
        sem=sem,
        mask=mask,
        match=match,
        fields=fields,
    )


def _check_sem(node: PatNode, roles: tuple[str, ...], where: str):
    """A sem is built from _SEM_EXPRS kinds, constants and source
    operands."""
    if node.kind == "capture":
        if node.name not in roles:
            raise TargetError(f"{where}: sem operand ${node.name} is not a "
                              f"source operand ({', '.join(roles)})")
        return
    if node.kind == "const":
        return
    if node.kind not in _SEM_EXPRS or node.oneuse:
        raise TargetError(f"{where}: unknown sem node kind {node.kind!r}")
    if len(node.children) != _SEM_EXPRS[node.kind].count("{"):
        raise TargetError(f"{where}: wrong operand count for {node.kind!r}")
    for c in node.children:
        if c.kind == "store":
            raise TargetError(f"{where}: a store is only ever a sem's root")
        _check_sem(c, roles, where)


def _imm_matcher(node: PatNode) -> PatNode:
    """The sem with each immediate operand matching a constant in range."""
    if node.kind == "capture" and node.name in IMM_RANGES:
        return PatNode(node.name, name=node.name)
    if not node.children:
        return node
    return PatNode(node.kind, tuple([_imm_matcher(c) for c in node.children]),
                   oneuse=node.oneuse)


def _loads(node: PatNode) -> bool:
    return node.kind == "load" or any(_loads(c) for c in node.children)


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
    """The by_opcode table. Defs can only collide within one slot, so each
    def is checked against the defs of its own slots: the one its match
    gives, and, for each slot bit its mask leaves open, the same with that
    bit set."""
    slots: dict[int, list[InstrDef]] = {}
    for d in instrs.values():
        keys, free = [d.match & SLOT_MASK], SLOT_MASK & ~d.mask
        while free:
            bit = free & -free
            keys += [k | bit for k in keys]
            free ^= bit
        for key in keys:
            slot = slots.setdefault(key, [])
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


def _reloc(op: MOp, role: str, d: InstrDef) -> tuple[str, str]:
    """The relocation an operand that encode cannot place as it is stands
    for; any other such operand is a TargetError."""
    kind, val, reloc = op
    if kind == "vreg":
        raise TargetError(f"{d.mnemonic}: virtual register in encoder")
    if role in ("rd", "rs1", "rs2", "rs3"):
        raise TargetError(f"{d.mnemonic}: {role} must be a register")
    if kind == "sym":
        want = "imm20" if reloc == "hi20" else "imm12"
        if role != want:
            raise TargetError(f"{d.mnemonic}: {reloc} relocation is only "
                              f"valid on {want} operands")
        return reloc, val
    if kind != "imm":
        raise TargetError(f"{d.mnemonic}: {role} must be an immediate")
    what = "shift amount" if role == "uimm5" else "immediate"
    raise TargetError(f"{d.mnemonic}: {what} {val} out of {role} range")


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
        # as it is; anything else is a relocation, whose field stays zero,
        # or an error
        if not (kind == "preg" and f.reg
                or kind == "imm" and not f.reg and fits(role, v)):
            reloc = _reloc(op, role, d)
            continue
        word |= (v & f.mask) << f.shift | (v & f.lo_mask) << f.lo_shift
    return EncodedWord(word, reloc)


def lookup(word: int, desc: TargetDesc, ext: frozenset[str]) -> InstrDef | None:
    """The enabled instruction that encodes as `word`; None for unknown
    words. Disjointness guarantees a single candidate."""
    for d in desc.by_opcode.get(word & SLOT_MASK, ()):
        if word & d.mask == d.match and d.ext in ext:
            return d
    return None


# description -> extension set -> word -> what lookup gave it; weak, so
# that a dropped description is freed at once, and its memo with it
_DECODED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def decoded(desc: TargetDesc, ext: frozenset[str]) -> dict[int, InstrDef]:
    """The memo of lookup's answers for `desc` under `ext`, kept as long as
    `desc` lives. Its user stores each word that decodes, and only those:
    lookup stays the definition, and an unknown word is looked up again."""
    return _DECODED.setdefault(desc, {}).setdefault(ext, {})


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


def materialize_imm(value: int, ext: frozenset[str] = frozenset({"I"}),
                    zba_threshold: int = 2) -> list[tuple[str, int]]:
    """Instruction sequence leaving `value` in a register: ADDI alone, LUI
    alone, or LUI then ADDI, as (mnemonic, immediate) entries.

    `ext` and `zba_threshold` are read by nothing. They are the inputs of
    the upstream Zba shortcut (value/3, /5 or /9, then one SHnADD, tried
    when the base sequence is longer than the threshold and kept when
    strictly shorter), which no RV32 value takes at any threshold: the
    base sequence is at most two instructions, the shortcut at least two.
    """
    val = sext(value, 32)
    if fits("imm12", val):
        return [("ADDI", val)]
    hi, lo = split_hi_lo(val)
    return [("LUI", hi), ("ADDI", lo)] if lo else [("LUI", hi)]
