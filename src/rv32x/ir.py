"""SSA IR subset: types, text parser, printer and verifier.

The IR is deliberately tiny: i32/ptr scalars, functions of one basic block
(a Function holds it as `body` and `label`; the parser rejects a second),
flat getelementptr with a constant byte offset, bitwise/arith ops, loads and
stores, and the fshl/fshr intrinsics. NOT has no opcode of its own; it is
always spelled xor with -1. The parser accepts the surface syntax of typical
.ll listings (struct types, attribute groups, lifetime intrinsics, align
annotations) and normalizes everything into this canonical core in one pass:
lifetime lines are skipped, and a parameter name is read as that argument,
with its declared type, wherever it is used.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

I32 = "i32"
PTR = "ptr"
VOID = "void"

BINOPS = ("add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr")
COMMUTATIVE = frozenset({"add", "mul", "and", "or", "xor"})
INTRINSICS = ("fshl", "fshr")
OPCODES = BINOPS + INTRINSICS + ("alloca", "load", "store", "getelementptr", "ret")
# The opcodes that make no value. The parser and the verifier both apply the
# result rule: an instruction names a result exactly when it makes a value.
NO_VALUE = frozenset({"store", "ret"})

INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1


class IrError(Exception):
    """Parse or structural error, carrying a source position."""

    def __init__(self, msg, line=0, col=0, source=""):
        super().__init__(msg)
        self.msg = msg
        self.line = line
        self.col = col
        self.source = source

    def __str__(self):
        prefix = f"{self.source}:" if self.source else ""
        if self.line:
            return f"{prefix}{self.line}:{self.col}: {self.msg}"
        return f"{prefix} {self.msg}" if prefix else self.msg


@dataclass(frozen=True)
class Value:
    """An operand: instruction result, argument, global ref, constant or undef."""

    kind: str  # "temp" | "arg" | "global" | "const" | "undef"
    name: str = ""
    const: int = 0
    ty: str = I32

    def __repr__(self):
        if self.kind == "const":
            return f"{self.const}"
        if self.kind == "undef":
            return "undef"
        return self.name


def const(v: int, ty: str = I32) -> Value:
    return Value("const", const=v, ty=ty)


UNDEF = Value("undef", ty=I32)


@dataclass(frozen=True)
class Inst:
    """One SSA instruction. `result` is None for store/ret, which make no
    value, and names the value of every other opcode.

    Operand conventions:
      binops/fshl/fshr  all-i32 operands, i32 result
      load              (ptr)
      store             (value, ptr) - value may be i32 or ptr
      getelementptr     (ptr base, const byte offset) -> ptr
      alloca            () -> ptr, `alloc_ty` records the slot type
      ret               (value)? per function return type
    """

    opcode: str
    result: str | None
    operands: tuple[Value, ...]
    ty: str = I32
    alloc_ty: str = I32


@dataclass(frozen=True)
class Function:
    name: str
    params: tuple[tuple[str, str], ...]  # (name, ty)
    return_type: str
    body: tuple[Inst, ...]
    attributes: frozenset[str] = frozenset()
    label: str = "entry"  # the block's name, kept so print_ir round-trips

    def with_body(self, insts) -> "Function":
        return Function(self.name, self.params, self.return_type,
                        tuple(insts), self.attributes, self.label)

    def with_attributes(self, attrs) -> "Function":
        return Function(self.name, self.params, self.return_type, self.body,
                        frozenset(attrs), self.label)


@dataclass(frozen=True)
class GlobalVar:
    name: str
    value_type: str = I32
    initializer: int = 0


@dataclass(frozen=True)
class Module:
    source_name: str
    globals: tuple[GlobalVar, ...]
    functions: tuple[Function, ...]

    def function(self, name: str) -> Function:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)

    def with_functions(self, funcs) -> "Module":
        return Module(self.source_name, self.globals, tuple(funcs))


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

_NAME = r"[-A-Za-z$._0-9]+"
_RE_GLOBAL = re.compile(
    rf"@({_NAME})\s*=\s*(?:[\w]+\s+)*global\s+(\w+)\s+(-?\d+|zeroinitializer)")
_RE_STRUCT = re.compile(rf"%({_NAME})\s*=\s*type\s*{{(.*)}}")
_RE_DEFINE = re.compile(rf"define\s+(.*?)(\w+)\s+@({_NAME})\s*\((.*)\)\s*(.*){{\s*$")
_RE_LABEL = re.compile(rf"({_NAME}):$")
_RE_ATTRGROUP = re.compile(r"attributes\s+#(\d+)\s*=\s*{(.*)}")
_RE_RESULT = re.compile(rf"^%({_NAME})\s*=\s*(.*)$")
# instruction bodies, compiled once rather than looked up per line
_RE_I64 = re.compile(r"\bi64\b")
# a whole binop line in one match: result, opcode, type and both operands.
# Wrap flags (nsw, nuw, exact) are skipped, and the lookahead after them
# keeps a flag from being read as the type. The result is optional here;
# _parse_inst's result rule then applies to binops as to every opcode.
_FLAG = r"(?:nsw|nuw|exact)\s"
_RE_BINOP = re.compile(
    rf"(?:%({_NAME})\s*=\s*)?({'|'.join(BINOPS)})\s+(?:{_FLAG}\s*)*"
    rf"(?!{_FLAG})(\w+)\s+([^,]+),\s*(\S+)$")
_RE_LOAD = re.compile(r"load\s+(\w+)\s*,\s*ptr\s+(\S+)")
_RE_STORE = re.compile(r"store\s+(\w+)\s+([^,]+),\s*ptr\s+(\S+)")
_RE_ALLOCA = re.compile(r"alloca\s+(\w+)")
_RE_RET = re.compile(r"ret\s+(\w+)\s+(\S+)")
_RE_GEP = re.compile(r"getelementptr\s+(?:inbounds\s+)?(%?[\w.]+)\s*,\s*ptr\s+"
                     r"([^,]+),\s*(.*)$")
_RE_INT = re.compile(r"-?\d+")
_RE_CALL = re.compile(r"(?:tail\s+)?call\s+(\w+)\s+@([\w.]+)\((.*)\)")
_RE_FSH = re.compile(r"llvm\.(fshl|fshr)\.i32")
_SKIP_PREFIXES = ("source_filename", "target datalayout", "target triple",
                  "declare ", "!")


def _lines(text: str):
    """(line number, text) for each non-blank line, its comment cut and its
    whitespace stripped. A whole function written on one line, define ...
    { inst }, comes out in pieces that keep that line's number."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        # ';' starts a comment; the IR never contains string literals with
        # ';' except inside attribute strings, which we do not need to keep.
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("define") and "{" in line and not line.endswith("{"):
            head, rest = line.split("{", 1)
            yield lineno, head + "{"
            rest = rest.strip()
            if rest.endswith("}"):
                body = rest[:-1].strip()
                if body:
                    yield lineno, body
                yield lineno, "}"
            elif rest:
                yield lineno, rest
        else:
            yield lineno, line


class _Parser:
    def __init__(self, text: str, source_name: str):
        self.lines = _lines(text)
        self.source_name = source_name
        self.globals: list[GlobalVar] = []
        self.functions: list[Function] = []
        self.structs: dict[str, int] = {}  # name -> member count (all i32)
        self.attr_groups: dict[str, set[str]] = {}
        self.pending_groups: dict[str, set[str]] = {}  # func name -> group ids
        self.params: dict[str, str] = {}  # current function's name -> type
        # the current function's operands by type and token; a Value is
        # immutable, so every use of a name shares one
        self.values: dict[str, dict[str, Value]] = {}

    def err(self, msg, lineno, col=1):
        raise IrError(msg, lineno, col, self.source_name)

    def parse(self) -> Module:
        for lineno, line in self.lines:
            if line.startswith(_SKIP_PREFIXES):
                continue
            if line.startswith("attributes"):
                m = _RE_ATTRGROUP.match(line)
                if not m:
                    self.err("malformed attributes line", lineno)
                self.attr_groups[m.group(1)] = self._attr_tokens(m.group(2))
                continue
            if line.startswith("@"):
                self._parse_global(line, lineno)
                continue
            m = _RE_STRUCT.match(line)
            if m:
                self._parse_struct(m, lineno)
                continue
            if line.startswith("define"):
                self._parse_function(line, lineno)
                continue
            self.err(f"unrecognized top-level construct: {line!r}", lineno)
        self._apply_attr_groups()
        return Module(self.source_name, tuple(self.globals), tuple(self.functions))

    def _attr_tokens(self, body: str) -> set[str]:
        toks = set()
        for t in re.findall(r'"[^"]*"(?:="[^"]*")?|[\w().:]+(?:\([^)]*\))?', body):
            toks.add(t.strip('"'))
        return toks

    def _parse_global(self, line, lineno):
        m = _RE_GLOBAL.match(line)
        if not m:
            self.err(f"malformed global: {line!r}", lineno)
        name, ty, init = m.group(1), m.group(2), m.group(3)
        if ty == "i64":
            self.err("i64 unsupported", lineno)
        if ty != I32:
            self.err(f"global {name}: only i32 globals are supported", lineno)
        value = 0 if init == "zeroinitializer" else int(init)
        self._check_const(value, lineno)
        self.globals.append(GlobalVar(name, I32, value))

    def _parse_struct(self, m, lineno):
        name, body = m.group(1), m.group(2)
        members = [t.strip() for t in body.split(",") if t.strip()]
        if any(t != I32 for t in members):
            if "i64" in members:
                self.err("i64 unsupported", lineno)
            self.err(f"struct %{name}: only i32 members are supported", lineno)
        self.structs[name] = len(members)

    def _check_const(self, v, lineno):
        if not (INT32_MIN <= v <= INT32_MAX):
            self.err(f"integer constant {v} does not fit in 32 signed bits", lineno)

    def _parse_type(self, tok, lineno):
        if tok == "i64":
            self.err("i64 unsupported", lineno)
        if tok not in (I32, PTR, VOID):
            self.err(f"unknown type {tok!r}", lineno)
        return tok

    def _parse_function(self, header, start):
        """The define on line `start`; its body is the lines that follow."""
        m = _RE_DEFINE.match(header)
        if not m:
            self.err(f"malformed define line: {header!r}", start)
        pre, rett, name, paramstr, post = m.groups()
        return_type = self._parse_type(rett, start)
        attrs = set()
        groups = set()
        for tok in pre.split() + post.split():
            if tok.startswith("#"):
                groups.add(tok[1:])
            else:
                attrs.add(tok)
        params = []
        if paramstr.strip():
            for p in paramstr.split(","):
                toks = p.split()
                pty = self._parse_type(toks[0], start)
                pname = toks[-1]
                if not pname.startswith("%"):
                    self.err(f"unnamed parameter in @{name}", start)
                params.append((pname[1:], pty))
        self.params = dict(params)
        self.values = {}
        insts, label = self._parse_body(name, start)
        fn = Function(name, tuple(params), return_type, tuple(insts),
                      frozenset(attrs), label)
        self.functions.append(fn)
        self.pending_groups[name] = groups

    def _apply_attr_groups(self):
        out = []
        for fn in self.functions:
            tags = set(fn.attributes)
            for g in self.pending_groups.get(fn.name, ()):
                tags |= self.attr_groups.get(g, set())
            out.append(fn.with_attributes(tags))
        self.functions = out

    def _parse_body(self, fname, start):
        insts = []
        label = "entry"
        saw_label = False
        for lineno, line in self.lines:
            if "llvm.lifetime" in line:
                continue  # lifetime markers carry no meaning here
            if line == "}":
                return insts, label
            m = _RE_LABEL.match(line)
            if m:
                if saw_label or insts:
                    self.err("multi-block functions are not supported "
                             "(single basic block only)", lineno)
                label = m.group(1)
                saw_label = True
                continue
            insts.append(self._parse_inst(line, lineno))
        self.err(f"unterminated function @{fname}", start)

    def _value(self, tok, ty, lineno) -> Value:
        tok = tok.strip()
        seen = self.values.setdefault(ty, {})
        v = seen.get(tok)
        if v is None:
            v = seen[tok] = self._new_value(tok, ty, lineno)
        return v

    def _new_value(self, tok, ty, lineno) -> Value:
        if tok.startswith("%"):
            name = tok[1:]
            if name in self.params:
                # the declared type, so a mistyped use fails verification
                return Value("arg", name, ty=self.params[name])
            return Value("temp", name, ty=ty)
        if tok.startswith("@"):
            return Value("global", tok[1:], ty=PTR)
        if tok == "undef":
            return Value("undef", ty=ty)
        try:
            v = int(tok)
        except ValueError:
            self.err(f"bad operand {tok!r}", lineno)
        self._check_const(v, lineno)
        return const(v, ty)

    def _typed_value(self, text, lineno) -> Value:
        toks = text.strip().split(None, 1)
        if len(toks) != 2:
            self.err(f"expected typed operand, got {text!r}", lineno)
        ty = self._parse_type(toks[0], lineno)
        return self._value(toks[1], ty, lineno)

    def _parse_inst(self, line, lineno) -> Inst:
        if "i64" in line and _RE_I64.search(line):
            self.err("i64 unsupported", lineno)
        m = _RE_BINOP.match(line)  # after the i64 check, which comes first
        if m:
            result, op, ty, a, b = m.groups()
            if ty != I32:
                self._parse_type(ty, lineno)
                self.err(f"{op} requires i32 operands", lineno)
            inst = Inst(op, result, (self._value(a, ty, lineno),
                                     self._value(b, ty, lineno)), ty)
        else:
            m = _RE_RESULT.match(line)
            result, rest = (m.group(1), m.group(2).strip()) if m else (None, line)
            if not rest:
                self.err(f"missing instruction after %{result} =", lineno)
            inst = self._parse_op(result, rest, lineno)
        # shape errors above come first; then the result rule
        if (result is None) != (inst.opcode in NO_VALUE):
            self.err(f"{inst.opcode} makes a value, so the line needs %name ="
                     if result is None else f"{inst.opcode} makes no value, "
                     f"so it cannot be named %{result}", lineno)
        return inst

    def _parse_op(self, result, rest, lineno) -> Inst:
        op = rest.split(None, 1)[0]
        if op in ("tail", "call") or rest.startswith("call"):
            return self._parse_call(result, rest, lineno)
        if op in BINOPS:
            self.err(f"malformed {op}: {rest!r}", lineno)
        if op == "load":
            m = _RE_LOAD.match(rest)
            if not m:
                self.err(f"malformed load: {rest!r}", lineno)
            ty = self._parse_type(m.group(1), lineno)
            if ty == VOID:
                self.err("load of void", lineno)
            addr = self._value(m.group(2).rstrip(","), PTR, lineno)
            return Inst("load", result, (addr,), ty)
        if op == "store":
            m = _RE_STORE.match(rest)
            if not m:
                self.err(f"malformed store: {rest!r}", lineno)
            ty = self._parse_type(m.group(1), lineno)
            val = self._value(m.group(2), ty, lineno)
            addr = self._value(m.group(3).rstrip(","), PTR, lineno)
            return Inst("store", None, (val, addr), VOID)
        if op == "getelementptr":
            return self._parse_gep(result, rest, lineno)
        if op == "alloca":
            m = _RE_ALLOCA.match(rest)
            if not m:
                self.err(f"malformed alloca: {rest!r}", lineno)
            ty = self._parse_type(m.group(1), lineno)
            return Inst("alloca", result, (), PTR, alloc_ty=ty)
        if op == "ret":
            if rest == "ret void":
                return Inst("ret", None, (), VOID)
            m = _RE_RET.match(rest)
            if not m:
                self.err(f"malformed ret: {rest!r}", lineno)
            ty = self._parse_type(m.group(1), lineno)
            return Inst("ret", None, (self._value(m.group(2), ty, lineno),), ty)
        self.err(f"unknown opcode {op!r}", lineno)

    def _parse_gep(self, result, rest, lineno) -> Inst:
        m = _RE_GEP.match(rest)
        if not m:
            self.err(f"malformed getelementptr: {rest!r}", lineno)
        elem, basetok, idxstr = m.groups()
        base = self._value(basetok.strip(), PTR, lineno)
        indices = []
        for part in idxstr.split(","):
            t = part.split()
            if len(t) != 2 or not _RE_INT.fullmatch(t[1]):
                self.err("getelementptr indices must be integer constants", lineno)
            indices.append(int(t[1]))
        offset = self._gep_offset(elem, indices, lineno)
        return Inst("getelementptr", result, (base, const(offset, I32)), PTR)

    def _gep_offset(self, elem, indices, lineno) -> int:
        if elem.startswith("%"):
            sname = elem[1:]
            if sname not in self.structs:
                self.err(f"unknown struct type {elem}", lineno)
            nmembers = self.structs[sname]
            if len(indices) != 2:
                self.err("struct getelementptr needs exactly two indices", lineno)
            first, member = indices
            if member < 0 or member >= nmembers:
                self.err(f"struct member index {member} out of range", lineno)
            return first * nmembers * 4 + member * 4
        if len(indices) != 1:
            self.err("scalar getelementptr needs exactly one index", lineno)
        scale = {"i8": 1, "i32": 4}.get(elem)
        if scale is None:
            self.err(f"unsupported getelementptr element type {elem}", lineno)
        return indices[0] * scale

    def _parse_call(self, result, rest, lineno) -> Inst:
        m = _RE_CALL.match(rest)
        if not m:
            self.err(f"malformed call: {rest!r}", lineno)
        rett, callee, argstr = m.groups()
        fsh = _RE_FSH.fullmatch(callee)
        if not fsh:
            self.err(f"only fshl/fshr/lifetime intrinsic calls are supported, "
                     f"got @{callee}", lineno)
        ty = self._parse_type(rett, lineno)
        args = tuple(self._typed_value(a, lineno) for a in argstr.split(","))
        if len(args) != 3:
            self.err(f"{callee} takes three operands", lineno)
        return Inst(fsh.group(1), result, args, ty)


def parse_ir(text: str, source_name: str = "<stdin>") -> Module:
    """Parse IR text into a verified Module. Raises IrError with position."""
    mod = _Parser(text, source_name).parse()
    bad = verify(mod)
    if bad:
        raise IrError("verification failed: " + "; ".join(bad))
    return mod


# --------------------------------------------------------------------------
# Printer
# --------------------------------------------------------------------------

def _fmt_value(v: Value) -> str:
    if v.kind == "const":
        return str(v.const)
    if v.kind == "global":
        return "@" + v.name
    if v.kind == "undef":
        return "undef"
    return "%" + v.name


def _fmt_inst(inst: Inst) -> str:
    op = inst.opcode
    ops = inst.operands
    if op in BINOPS:
        return f"%{inst.result} = {op} {inst.ty} {_fmt_value(ops[0])}, {_fmt_value(ops[1])}"
    if op in INTRINSICS:
        args = ", ".join(f"{o.ty} {_fmt_value(o)}" for o in ops)
        return f"%{inst.result} = call {inst.ty} @llvm.{op}.i32({args})"
    if op == "load":
        return f"%{inst.result} = load {inst.ty}, ptr {_fmt_value(ops[0])}"
    if op == "store":
        return f"store {ops[0].ty} {_fmt_value(ops[0])}, ptr {_fmt_value(ops[1])}"
    if op == "getelementptr":
        return (f"%{inst.result} = getelementptr i8, ptr {_fmt_value(ops[0])}, "
                f"i32 {ops[1].const}")
    if op == "alloca":
        return f"%{inst.result} = alloca {inst.alloc_ty}"
    if op == "ret":
        if not ops:
            return "ret void"
        return f"ret {ops[0].ty} {_fmt_value(ops[0])}"
    raise IrError(f"cannot print opcode {op!r}")


def print_ir(mod: Module) -> str:
    """Render a module in canonical form; parse_ir(print_ir(m)) == m."""
    out = [f"; module: {mod.source_name}"]
    for g in mod.globals:
        out.append(f"@{g.name} = global i32 {g.initializer}")
    for fn in mod.functions:
        out.append("")
        params = ", ".join(f"{t} %{n}" for n, t in fn.params)
        attrs = " ".join(sorted(fn.attributes))
        attrs = (" " + attrs) if attrs else ""
        out.append(f"define {fn.return_type} @{fn.name}({params}){attrs} {{")
        if fn.label != "entry":
            out.append(f"{fn.label}:")
        for inst in fn.body:
            out.append("  " + _fmt_inst(inst))
        out.append("}")
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# Verifier
# --------------------------------------------------------------------------

def verify(mod: Module) -> list[str]:
    """Check structural and type invariants. Returns violations as strings."""
    bad = []
    seen = set()
    gnames = set()
    for g in mod.globals:
        if g.name in seen:
            bad.append(f"duplicate global @{g.name}")
        seen.add(g.name)
        gnames.add(g.name)
        if g.value_type != I32:
            bad.append(f"global @{g.name}: value type must be i32")
    for fn in mod.functions:
        if fn.name in seen:
            bad.append(f"duplicate symbol @{fn.name}")
        seen.add(fn.name)
        bad.extend(_verify_function(fn, gnames))
    return bad


def _verify_function(fn: Function, gnames) -> list[str]:
    bad = []

    def note(idx, msg):
        bad.append(f"@{fn.name}:{idx}: {msg}")

    defined = {}
    for i, (pname, pty) in enumerate(fn.params):
        if pname in defined:
            note(-1, f"duplicate parameter %{pname}")
        defined[pname] = pty
    body = fn.body
    if not body or body[-1].opcode != "ret":
        note(len(body), "function must end with ret")
    types = dict(defined)

    def check_use(idx, v: Value):
        if v.kind == "temp":
            if v.name not in types:
                note(idx, f"use before def: %{v.name}")
            elif types[v.name] != v.ty:
                note(idx, f"%{v.name} used as {v.ty} but defined as {types[v.name]}")
        elif v.kind == "arg":
            if v.name not in defined:
                note(idx, f"unknown argument %{v.name}")
        elif v.kind == "global":
            if v.name not in gnames:
                note(idx, f"unknown global @{v.name}")
        elif v.kind == "undef":
            note(idx, "undefined value read (poison from read-before-write)")
        elif v.kind == "const":
            if not (INT32_MIN <= v.const <= INT32_MAX):
                note(idx, f"constant {v.const} out of 32-bit signed range")

    for idx, inst in enumerate(body):
        ops = inst.operands
        for v in ops:
            # a temp of its defined type, the common case, needs no check
            if v.kind != "temp" or types.get(v.name) != v.ty:
                check_use(idx, v)
        op = inst.opcode
        if op in BINOPS or op in INTRINSICS:
            want = 2 if op in BINOPS else 3
            if len(ops) != want:
                note(idx, f"{op} expects {want} operands")
            # ops[-1] is an intrinsic's third operand
            elif ops[0].ty != I32 or ops[1].ty != I32 or ops[-1].ty != I32 \
                    or inst.ty != I32:
                note(idx, f"{op} operates on i32 only")
        elif op == "load":
            if len(inst.operands) != 1 or inst.operands[0].ty != PTR:
                note(idx, "load takes one ptr operand")
            if inst.ty not in (I32, PTR):
                note(idx, "load result must be i32 or ptr")
        elif op == "store":
            if (len(inst.operands) != 2 or inst.operands[1].ty != PTR
                    or inst.operands[0].ty not in (I32, PTR)):
                note(idx, "store takes (i32|ptr value, ptr address)")
        elif op == "getelementptr":
            if (len(inst.operands) != 2 or inst.operands[0].ty != PTR
                    or inst.operands[1].kind != "const"):
                note(idx, "getelementptr takes (ptr base, constant byte offset)")
        elif op == "alloca":
            if inst.alloc_ty not in (I32, PTR):
                note(idx, "alloca slot must be i32 or ptr")
        elif op == "ret":
            if idx != len(body) - 1:
                note(idx, "ret must be the final instruction")
            if fn.return_type == VOID:
                if inst.operands:
                    note(idx, "ret void must not carry a value")
            elif len(inst.operands) != 1 or inst.operands[0].ty != fn.return_type:
                note(idx, f"ret must return {fn.return_type}")
        else:
            note(idx, f"unknown opcode {op!r}")
        if (inst.result is None) != (op in NO_VALUE):
            note(idx, f"{op} makes a value but names no result"
                 if inst.result is None else
                 f"{op} makes no value but is named %{inst.result}")
        if inst.result is not None:
            if inst.result in types or inst.result in gnames:
                note(idx, f"redefinition of %{inst.result}")
            types[inst.result] = inst.ty
    return bad
