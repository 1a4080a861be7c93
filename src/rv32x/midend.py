"""Optimization pass pipeline: SROA, EarlyCSE, InstCombine, Reassociate, DSE
plus the inert attribute passes. All passes are single-block, function-at-a-
time rewrites over the immutable IR; run_pipeline threads a statistics map
through them and verifies the result.

The alias lattice is deliberately small: two addresses are provably the same
only under literal value identity or identical (base object, constant byte
offset); provably different only for the same base with different offsets or
for distinct globals. Anything else may alias and blocks store-dependent
rewrites.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from . import ir
from .ir import Inst, Value, const

DEFAULT_PIPELINE = (
    "infer-function-attrs",
    "sroa",
    "early-cse",
    "globalopt",
    "instcombine",
    "early-cse",
    "instcombine",
    "reassociate",
    "instcombine",
    "dse",
    "postorder-function-attrs",
)

STAT_DESCRIPTIONS = {
    "sroa.allocas-promoted": "Number of allocas promoted to SSA values",
    "mem2reg.single-store": "Number of alloca's promoted with a single store",
    "early-cse.loads-cse": "Number of load instructions Common Subexpression Eliminated",
    "early-cse.insts-cse": "Number of instructions Common Subexpression Eliminated",
    "instcombine.insts-combined": "Number of insts combined",
    "reassociate.insts-reassociated": "Number of insts reassociated",
    "dse.stores-deleted": "Number of stores deleted",
    "dse.stores-remaining": "Number of stores remaining after DSE",
}


class PassError(Exception):
    pass


@dataclass
class PassStats:
    counters: dict[str, int] = field(default_factory=dict)

    def bump(self, key: str, n: int = 1):
        if n:
            self.counters[key] = self.counters.get(key, 0) + n

    def render(self) -> str:
        lines = []
        for key in sorted(self.counters):
            pass_name, counter = key.split(".", 1)
            desc = STAT_DESCRIPTIONS.get(key, counter.replace("-", " "))
            lines.append(f"{self.counters[key]:>4} {pass_name:<12} - {desc}")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Rename maps and the alias lattice
# --------------------------------------------------------------------------

class _Renames:
    """name -> replacement Value, resolved transitively."""

    def __init__(self):
        self.map: dict[str, Value] = {}

    def add(self, name: str, v: Value):
        self.map[name] = v

    def value(self, v: Value) -> Value:
        while v.kind == "temp" and v.name in self.map:
            v = self.map[v.name]
        return v

    def inst(self, inst: Inst) -> Inst:
        for o in inst.operands:
            if o.kind == "temp" and o.name in self.map:
                return Inst(inst.opcode, inst.result,
                            tuple(map(self.value, inst.operands)), inst.ty,
                            inst.alloc_ty)
        return inst


def _def_map(body) -> dict[str, Inst]:
    return {i.result: i for i in body if i.result is not None}


def resolve_addr(addr: Value, defs: dict[str, Inst]):
    """Resolve an address to (base Value, byte offset) through gep chains."""
    off = 0
    seen = 0
    while addr.kind == "temp" and addr.name in defs and seen < 64:
        d = defs[addr.name]
        if d.opcode != "getelementptr":
            break
        off += d.operands[1].const
        addr = d.operands[0]
        seen += 1
    return addr, off


def _same_addr(a: Value, b: Value, defs) -> bool:
    if a == b:
        return True
    (ba, oa), (bb, ob) = resolve_addr(a, defs), resolve_addr(b, defs)
    return ba == bb and oa == ob


def _diff_addr(a: Value, b: Value, defs) -> bool:
    (ba, oa), (bb, ob) = resolve_addr(a, defs), resolve_addr(b, defs)
    if ba == bb:
        return oa != ob
    if ba.kind == "global" and bb.kind == "global":
        return True
    return False


# --------------------------------------------------------------------------
# SROA / mem2reg
# --------------------------------------------------------------------------

def pass_sroa(fn: ir.Function, stats: PassStats) -> ir.Function:
    """Promote allocas whose only uses are direct loads and stores."""
    body = fn.body
    promotable: set[str] = set()
    for inst in body:
        if inst.opcode == "alloca":
            promotable.add(inst.result)
    for inst in body:
        for pos, op in enumerate(inst.operands):
            if op.kind != "temp" or op.name not in promotable:
                continue
            is_load_addr = inst.opcode == "load" and pos == 0
            is_store_addr = inst.opcode == "store" and pos == 1
            if not (is_load_addr or is_store_addr):
                promotable.discard(op.name)
    if not promotable:
        return fn

    renames = _Renames()
    current: dict[str, Value] = {a: ir.UNDEF for a in promotable}
    store_counts = {a: 0 for a in promotable}
    out = []
    for inst in body:
        inst = renames.inst(inst)
        if inst.opcode == "alloca" and inst.result in promotable:
            continue
        if inst.opcode == "load" and inst.operands[0].kind == "temp" \
                and inst.operands[0].name in promotable:
            renames.add(inst.result, current[inst.operands[0].name])
            continue
        if inst.opcode == "store" and inst.operands[1].kind == "temp" \
                and inst.operands[1].name in promotable:
            slot = inst.operands[1].name
            current[slot] = inst.operands[0]
            store_counts[slot] += 1
            continue
        out.append(inst)
    stats.bump("sroa.allocas-promoted", len(promotable))
    stats.bump("mem2reg.single-store", sum(1 for c in store_counts.values() if c == 1))
    return fn.with_body(out)


# --------------------------------------------------------------------------
# EarlyCSE
# --------------------------------------------------------------------------

_PURE = set(ir.BINOPS) | set(ir.INTRINSICS) | {"getelementptr"}


def _vn_key(inst: Inst):
    ops = inst.operands
    if inst.opcode in ir.COMMUTATIVE:
        a, b = ops
        if (b.kind, b.name, b.const) < (a.kind, a.name, a.const):
            ops = (b, a)
    return (inst.opcode, ops)


def pass_early_cse(fn: ir.Function, stats: PassStats) -> ir.Function:
    """Forward value numbering plus an available-load table with
    store-to-load forwarding. A store invalidates every available load except
    the one for its own literal address value."""
    renames = _Renames()
    table: dict = {}  # value-numbering key -> first instruction with it
    avail: dict[Value, Value] = {}
    out = []
    for inst in fn.body:
        inst = renames.inst(inst)
        if inst.opcode in _PURE:
            first = table.setdefault(_vn_key(inst), inst)
            if first is not inst:
                renames.add(inst.result,
                            Value("temp", first.result, ty=first.ty))
                stats.bump("early-cse.insts-cse")
                continue
            out.append(inst)
        elif inst.opcode == "load":
            addr = inst.operands[0]
            hit = avail.get(addr)
            if hit is not None and hit.ty == inst.ty:
                renames.add(inst.result, hit)
                stats.bump("early-cse.loads-cse")
                continue
            avail[addr] = Value("temp", inst.result, ty=inst.ty)
            out.append(inst)
        elif inst.opcode == "store":
            value, addr = inst.operands
            avail = {addr: value}
            out.append(inst)
        else:
            out.append(inst)
    return fn.with_body(out)


# --------------------------------------------------------------------------
# InstCombine
# --------------------------------------------------------------------------

def _is_not(inst: Inst) -> bool:
    return (inst.opcode == "xor" and len(inst.operands) == 2
            and inst.operands[1].kind == "const" and inst.operands[1].const == -1)


def _use_counts(body) -> Counter[str]:
    return Counter(op.name for inst in body for op in inst.operands
                   if op.kind == "temp")


def _dce(body) -> list[Inst]:
    """Drop pure instructions (loads included) whose results are unused. One
    backward pass: a dropped instruction gives up its operands' uses before
    the walk reaches their definitions, so a dead chain goes at once."""
    uses = _use_counts(body)
    kept = []
    for inst in reversed(body):
        if inst.result is not None and not uses.get(inst.result) \
                and (inst.opcode in _PURE or inst.opcode == "load"):
            for op in inst.operands:
                if op.kind == "temp":
                    uses[op.name] -= 1
            continue
        kept.append(inst)
    kept.reverse()
    return kept


def _forward_load(load: Inst, prior_insts: list[Inst], defs) -> Value | None:
    """Nearest prior same-address store value or load result, scanning
    `prior_insts` backwards past provably different stores; a may-alias
    store blocks."""
    addr = load.operands[0]
    want_ty = load.ty
    for prior in reversed(prior_insts):
        if prior.opcode == "store":
            if _same_addr(prior.operands[1], addr, defs):
                v = prior.operands[0]
                return v if v.ty == want_ty else None
            if not _diff_addr(prior.operands[1], addr, defs):
                return None
        elif prior.opcode == "load":
            if _same_addr(prior.operands[0], addr, defs) and prior.ty == want_ty:
                return Value("temp", prior.result, ty=prior.ty)
    return None


def _combine_once(body: list[Inst], stats: PassStats) -> tuple[list[Inst], bool]:
    changed = False
    defs = _def_map(body)
    uses = _use_counts(body)
    renames = _Renames()
    out: list[Inst] = []

    def emit(inst: Inst):
        out.append(inst)
        if inst.result is not None:
            defs[inst.result] = inst

    for idx, inst in enumerate(body):
        inst = renames.inst(inst)

        # store-to-load forwarding and load CSE over the fine alias lattice
        if inst.opcode == "load":
            fwd = _forward_load(inst, out, defs)
            if fwd is not None:
                renames.add(inst.result, renames.value(fwd))
                stats.bump("instcombine.insts-combined")
                changed = True
                continue
            emit(inst)
            continue

        # constant operand of a commutative op moves to the right
        if inst.opcode in ir.COMMUTATIVE and inst.operands[0].kind == "const" \
                and inst.operands[1].kind != "const":
            inst = Inst(inst.opcode, inst.result,
                        (inst.operands[1], inst.operands[0]), inst.ty)
            stats.bump("instcombine.insts-combined")
            changed = True

        # xor(xor(x, -1), -1) -> x
        if _is_not(inst):
            inner = defs.get(inst.operands[0].name) \
                if inst.operands[0].kind == "temp" else None
            if inner is not None and _is_not(inner):
                renames.add(inst.result, inner.operands[0])
                stats.bump("instcombine.insts-combined")
                changed = True
                continue

        # and(xor(a, b), xor(b, -1)) -> and(a, xor(b, -1)), any commutation
        if inst.opcode == "and":
            new = _combine_and_xor(inst, defs)
            if new is not None:
                inst = new
                stats.bump("instcombine.insts-combined")
                changed = True

        # getelementptr chain folding and zero-offset folding
        if inst.opcode == "getelementptr":
            base, off = inst.operands
            basedef = defs.get(base.name) if base.kind == "temp" else None
            if basedef is not None and basedef.opcode == "getelementptr":
                inst = Inst("getelementptr", inst.result,
                            (basedef.operands[0],
                             const(off.const + basedef.operands[1].const)),
                            ir.PTR)
                stats.bump("instcombine.insts-combined")
                changed = True
            if inst.operands[1].const == 0:
                renames.add(inst.result, inst.operands[0])
                stats.bump("instcombine.insts-combined")
                changed = True
                continue

        # rotate recognition: or(shl(x,c1), lshr(x,c2)), c1+c2 == 32
        if inst.opcode == "or":
            new = _combine_funnel(inst, defs, uses)
            if new is not None:
                inst = new
                stats.bump("instcombine.insts-combined")
                changed = True

        emit(inst)

    # every instruction was renamed above, and in SSA no use precedes the
    # rename of its definition
    return out, changed


def _combine_and_xor(inst: Inst, defs) -> Inst | None:
    for xi, ni in ((0, 1), (1, 0)):
        xop, nop = inst.operands[xi], inst.operands[ni]
        if xop.kind != "temp" or nop.kind != "temp":
            continue
        xdef, ndef = defs.get(xop.name), defs.get(nop.name)
        if xdef is None or ndef is None:
            continue
        if not (_is_not(ndef) and xdef.opcode == "xor" and not _is_not(xdef)):
            continue
        b = ndef.operands[0]
        for ai, bi in ((0, 1), (1, 0)):
            if xdef.operands[bi] == b:
                a = xdef.operands[ai]
                return Inst("and", inst.result, (a, nop), ir.I32)
    return None


def _combine_funnel(inst: Inst, defs, uses) -> Inst | None:
    shl = lshr = None
    for op in inst.operands:
        if op.kind != "temp":
            return None
        d = defs.get(op.name)
        if d is None or d.opcode not in ("shl", "lshr") \
                or d.operands[1].kind != "const":
            return None
        if d.opcode == "shl":
            shl = d
        else:
            lshr = d
    if shl is None or lshr is None:
        return None
    if uses.get(shl.result, 0) != 1 or uses.get(lshr.result, 0) != 1:
        return None
    c1, c2 = shl.operands[1].const, lshr.operands[1].const
    if not (0 < c1 < 32 and 0 < c2 < 32 and c1 + c2 == 32):
        return None
    # only the rotate form: no enabled extension has a two-input funnel shift
    x = shl.operands[0]
    if x != lshr.operands[0]:
        return None
    return Inst("fshr", inst.result, (x, x, const(c2)), ir.I32)


def pass_inst_combine(fn: ir.Function, stats: PassStats,
                      max_iterations: int = 32) -> ir.Function:
    body = list(fn.body)
    for _ in range(max_iterations):
        body, changed = _combine_once(body, stats)
        if not changed:
            break
    else:
        raise PassError(f"instcombine did not reach a fixpoint in "
                        f"{max_iterations} iterations on @{fn.name}")
    return fn.with_body(_dce(body))


# --------------------------------------------------------------------------
# Reassociate
# --------------------------------------------------------------------------

def compute_ranks(fn: ir.Function) -> dict[str, tuple[int, int]]:
    """(rank, order) of each argument and instruction result, by name.
    Constants and undef rank 0, globals 1, argument i ranks i+3, an
    instruction result 1 + max(operand ranks). The order is the position
    of the definition, arguments first. Argument and result names are
    distinct, as the verifier requires."""
    ranks = {name: (i + 3, i) for i, (name, _) in enumerate(fn.params)}
    first = len(fn.params)
    for i, inst in enumerate(fn.body):
        if inst.result is not None:
            best = 0
            for v in inst.operands:
                if v.kind == "arg" or v.kind == "temp":
                    r = ranks.get(v.name, (1,))[0]
                else:
                    r = 1 if v.kind == "global" else 0
                if r > best:
                    best = r
            ranks[inst.result] = (1 + best, first + i)
    return ranks


def _operand_key(v: Value, ranks: dict[str, tuple[int, int]]) -> tuple:
    """Constants first, by value, then globals, then by (rank, order)."""
    if v.kind == "const":
        return (0, -1, v.const)
    if v.kind == "global":
        return (1, -1)
    return ranks.get(v.name, (1, 0))


def pass_reassociate(fn: ir.Function, stats: PassStats) -> ir.Function:
    ranks = compute_ranks(fn)
    out = []
    for inst in fn.body:
        if inst.opcode in ir.COMMUTATIVE:
            a, b = inst.operands
            if _operand_key(b, ranks) < _operand_key(a, ranks):
                stats.bump("reassociate.insts-reassociated")
                inst = Inst(inst.opcode, inst.result, (b, a), inst.ty)
        out.append(inst)
    return fn.with_body(out)


# --------------------------------------------------------------------------
# DSE
# --------------------------------------------------------------------------

def pass_dse(fn: ir.Function, stats: PassStats) -> ir.Function:
    """Backward kill-walk: a store dies when a later store provably targets
    the same address with no intervening may-read of it."""
    body = list(fn.body)
    defs = _def_map(body)
    killers: list[Value] = []  # addresses of later surviving stores
    dead: set[int] = set()
    for idx in range(len(body) - 1, -1, -1):
        inst = body[idx]
        if inst.opcode == "load":
            killers = [k for k in killers
                       if _diff_addr(k, inst.operands[0], defs)]
        elif inst.opcode == "store":
            addr = inst.operands[1]
            if any(_same_addr(k, addr, defs) for k in killers):
                dead.add(idx)
                stats.bump("dse.stores-deleted")
            else:
                killers.append(addr)
    out = [inst for idx, inst in enumerate(body) if idx not in dead]
    stats.bump("dse.stores-remaining",
               sum(1 for i in out if i.opcode == "store"))
    return fn.with_body(out)


# --------------------------------------------------------------------------
# Attribute passes (inert metadata)
# --------------------------------------------------------------------------

def _stores_resolve(fn: ir.Function) -> bool:
    defs = _def_map(fn.body)
    for inst in fn.body:
        if inst.opcode == "store":
            base, _ = resolve_addr(inst.operands[1], defs)
            if base.kind not in ("global", "arg") and \
                    not (base.kind == "temp" and base.name in defs
                         and defs[base.name].opcode == "alloca"):
                return False
    return True


def pass_attr(fn: ir.Function, stats: PassStats, which: str) -> ir.Function:
    tags = set(fn.attributes)
    if which == "infer":
        tags.add("mustprogress")
    elif which == "globalopt":
        tags.add("local_unnamed_addr")
    elif which == "postorder":
        tags |= {"norecurse", "nosync", "nounwind", "willreturn"}
        if _stores_resolve(fn):
            tags.add("nofree")
    else:
        raise PassError(f"unknown attribute pass {which!r}")
    return fn.with_attributes(tags)


# --------------------------------------------------------------------------
# Pipeline
# --------------------------------------------------------------------------

PASSES = {
    "infer-function-attrs": lambda fn, st: pass_attr(fn, st, "infer"),
    "sroa": pass_sroa,
    "early-cse": pass_early_cse,
    "globalopt": lambda fn, st: pass_attr(fn, st, "globalopt"),
    "instcombine": pass_inst_combine,
    "reassociate": pass_reassociate,
    "dse": pass_dse,
    "postorder-function-attrs": lambda fn, st: pass_attr(fn, st, "postorder"),
}


def run_pipeline(mod: ir.Module, pipeline: tuple = ()
                 ) -> tuple[ir.Module, PassStats]:
    """Apply the pass list to every function. The output always verifies."""
    names = tuple(pipeline)
    stats = PassStats()
    for name in names:
        if name not in PASSES:
            raise PassError(f"unknown pass {name!r}")
    funcs = list(mod.functions)
    for name in names:
        funcs = [PASSES[name](fn, stats) for fn in funcs]
    out = mod.with_functions(funcs)
    bad = ir.verify(out)
    if bad:
        raise PassError("pipeline broke the module: " + "; ".join(bad))
    return out, stats
