"""Per-function selection DAG: build, legalize, select, schedule.

The DAG starts target-independent (one node per IR instruction and per
distinct constant and global, memory ops threaded on a linear chain from
EntryToken, the return as the root). Legalize makes a global address g
add(HI(g), LO(g)), two leaves that name its upper and lower halves, and
keeps a rotate when an enabled `rotr` pattern covers it, expanding it into
shifts otherwise. Both stages take their constants from `SelDag.constant`,
which keeps one node per value, so no stage has duplicates to merge.
Selection then covers the DAG with machine nodes, whose immediates, symbols
and fixed registers are inline mir.MOp operands. Edges live only on the
nodes: a node names its operands, and nothing records its users. Every
stage leaves `SelDag.nodes` as exactly the nodes reachable from the root;
legalize collects its rewrites and applies them in one sweep.

Selection reads the generic DAG without changing it and builds a new graph
of machine nodes. At an xor it consults the LXR hook first, then
declarative patterns from the target description by descending priority,
which select every instruction, loads and stores with their address offsets
included; there are no fallbacks. Each pattern runs as one function
generated from it on first use, its selector: it matches the source at a
node, checks that the loads and stores it covers are adjacent on the chain,
and makes the target's machine nodes. Selectors are shared by every
description that has the pattern, and the table of them by root kind is
built once per description and extension set. A register operand that is a
constant or a HI leaf is materialized where it is used: a constant as its
shortest sequence, HI(g) as `lui %hi(g)`, each once per node. An imm12
operand matches LO(g) as `%lo(g)`. Scheduling is a deterministic Kahn
linearization of the machine graph ordered by node creation.
"""

from __future__ import annotations

import copy
import heapq
import weakref
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple

from . import ir
from . import target as tgt
from .mir import MOp, MachineInstr, MachineFunction, X0, RA, A0

# generic kinds that selection never covers on their own: EntryToken and
# Register remain after it (they emit no instruction), and users consume the
# rest, materializing constants and HI as register operands and matching
# constants and LO as immediates
_LEAF_KINDS = {"EntryToken", "Register", "Constant", "HI", "LO"}


class IselError(Exception):
    pass


class DagNode:
    """One DAG node. An edge is the node it names: `ops` and `ret_value`
    name the nodes whose values are read, `chain` the memory node that must
    come first.

    Machine nodes (is_machine) reference an InstrDef mnemonic in `kind`; their
    ops list holds DagNode register operands and mir.MOp inline operands
    (imm, sym or preg), in role order with rd omitted. The DAG's root is the
    return: a generic "ret", and a JALR in the graph selection builds; only
    it carries `ret_value`.
    """

    __slots__ = ("kind", "ops", "chain", "vt", "value", "uid",
                 "is_machine", "ret_value")

    def __init__(self, kind, ops=(), chain=None, vt="i32", value=None, uid=0,
                 is_machine=False):
        self.kind = kind
        self.ops = list(ops)
        self.chain = chain
        self.vt = vt
        self.value = value
        self.uid = uid
        self.is_machine = is_machine
        self.ret_value = None  # the node whose value the return carries

    def __repr__(self):
        return f"<{self.kind}#{self.uid}>"


def _operands(n: DagNode) -> list[DagNode]:
    """`n`'s edges, the one definition of them: its DagNode ops, then its
    chain and returned value."""
    edges = [op for op in n.ops if type(op) is DagNode]
    if n.chain is not None:
        edges.append(n.chain)
    if n.ret_value is not None:
        edges.append(n.ret_value)
    return edges


def _rewrite(nodes: Iterable[DagNode], repl: dict[DagNode, DagNode]):
    """One sweep: point every value edge of `nodes` at a node in `repl` to
    the node that replaces it, following replaced replacements."""
    for n in nodes:
        ops = n.ops
        for i, v in enumerate(ops):
            if v in repl:
                ops[i] = _follow(repl, v)
        if n.ret_value in repl:
            n.ret_value = _follow(repl, n.ret_value)


def _follow(repl: dict[DagNode, DagNode], v: DagNode) -> DagNode:
    while v in repl:
        v = repl[v]
    return v


class SelDag:
    """Nodes in creation order, and the root they are reachable from.

    Edges live only on the nodes (`ops`, `chain`, `ret_value`), so a node
    does not know its users. A stage may add nodes with `new` and repoint
    edges; it ends by pruning, so that `nodes` holds exactly the nodes
    reachable from the root, in creation order. `consts` holds the one
    Constant node of each value, and prune keeps it to the nodes it keeps.
    """

    def __init__(self, name: str):
        self.name = name
        self.nodes: list[DagNode] = []
        self._uid = 0
        self.root: DagNode | None = None
        self.consts: dict[int, DagNode] = {}
        self.entry = self.new("EntryToken", vt="none")

    def new(self, kind, ops=(), chain=None, vt="i32", value=None,
            is_machine=False) -> DagNode:
        n = DagNode(kind, ops, chain, vt, value, self._uid, is_machine)
        self._uid += 1
        self.nodes.append(n)
        return n

    def constant(self, v: int) -> DagNode:
        """The one Constant node of `v` (mod 2**32), made on first use."""
        v &= 0xFFFFFFFF
        n = self.consts.get(v)
        if n is None:
            n = self.consts[v] = self.new("Constant", value=v)
        return n

    def prune(self):
        """Keep the nodes reachable from the root, in creation order: one
        walk."""
        seen = {self.root}
        stack = [self.root]
        while stack:
            for v in _operands(stack.pop()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        self.nodes = [n for n in self.nodes if n in seen]
        self.consts = {v: n for v, n in self.consts.items() if n in seen}


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def build_dag(fn: ir.Function) -> SelDag:
    """One node per IR instruction; loads/stores on a linear chain."""
    dag = SelDag(fn.name)
    chain = dag.entry
    env: dict[str, DagNode] = {}
    globs: dict[str, DagNode] = {}

    if len(fn.params) > 8:  # a0..a7; the psABI passes the rest on the stack
        raise IselError(f"@{fn.name}: {len(fn.params)} parameters; at most 8 "
                        "are passed in registers")
    for i, (pname, pty) in enumerate(fn.params):
        env[pname] = dag.new("Register", value=i, vt=pty)

    def operand(v: ir.Value) -> DagNode:
        if v.kind == "const":
            return dag.constant(v.const)
        if v.kind == "global":
            if v.name not in globs:
                globs[v.name] = dag.new("GlobalAddress", value=v.name, vt="ptr")
            return globs[v.name]
        return env[v.name]

    for inst in fn.body:
        op = inst.opcode
        if op in ir.SEM_KIND:
            env[inst.result] = dag.new(ir.SEM_KIND[op],
                                       [operand(o) for o in inst.operands])
        elif op == "getelementptr":
            env[inst.result] = dag.new("add", [
                operand(inst.operands[0]),
                dag.constant(inst.operands[1].const)], vt="ptr")
        elif op == "load":  # the load's value, and the chain's new end
            env[inst.result] = chain = dag.new(
                "load", [operand(inst.operands[0])], chain=chain, vt=inst.ty)
        elif op == "store":
            chain = dag.new("store", [operand(inst.operands[0]),
                                      operand(inst.operands[1])],
                            chain=chain, vt="none")
        elif op == "alloca":
            raise IselError("alloca reached instruction selection; "
                            "run the optimization pipeline first")
        else:  # ret, which ends the body
            dag.root = dag.new("ret", [], chain=chain, vt="none")
            if inst.operands:
                dag.root.ret_value = operand(inst.operands[0])
    dag.prune()  # values nothing uses, as at -O0
    return dag


# --------------------------------------------------------------------------
# Combine
# --------------------------------------------------------------------------

def combine(dag: SelDag) -> SelDag:
    """The identity, called by no compile: `SelDag.constant` keeps one node
    per constant, so there is nothing left to merge. It exists only because
    perfbench's tracer wraps `isel.combine` (`tracer.WRAPPED`) and
    tests/test_tracer_names.py pins that name."""
    return dag


# --------------------------------------------------------------------------
# Legalize
# --------------------------------------------------------------------------

def legalize(dag: SelDag, desc: tgt.TargetDesc,
             ext: frozenset[str]) -> SelDag:
    """Funnel shifts with equal inputs become rotates; a rotate stays when an
    enabled pattern over leaves, such as `(rotr $rs1 $uimm5)`, matches it,
    and expands to shifts otherwise; a global address g becomes
    add(HI(g), LO(g)). Replacements are collected, each read through those
    before it, and applied in one sweep."""
    rotates = _selectors(desc, ext).rotates
    repl: dict[DagNode, DagNode] = {}
    rots, globs = [], []
    for n in list(dag.nodes):
        if n.kind == "GlobalAddress":
            globs.append(n)
        elif n.kind in ("fshl", "fshr"):
            x, y, amt = (_follow(repl, v) for v in n.ops)
            if x is not y:
                raise IselError(
                    "funnel shift with distinct inputs is unsupported "
                    "(no funnel-shift instruction in any enabled extension)")
            if n.kind == "fshl":
                # rotl(x, c) == rotr(x, 32 - c)
                if amt.kind == "Constant":
                    camt = dag.constant((32 - amt.value) & 31)
                else:
                    sub = dag.new("sub", [dag.constant(32), amt])
                    camt = dag.new("and", [sub, dag.constant(31)])
            elif amt.kind == "Constant" and amt.value > 31:
                camt = dag.constant(amt.value & 31)
            else:
                camt = amt
            rot = dag.new("rotr", [x, camt])
            repl[n] = rot
            rots.append(rot)

    for n in rots:
        # a rotate of two leaves needs no selection state to match
        if any(sel(None, n) for sel in rotates):
            continue
        x, amt = n.ops  # each was read through `repl` when n was made
        if amt.kind == "Constant":
            c = amt.value & 31
            if c == 0:
                repl[n] = x
                continue
            shl = dag.new("shl", [x, dag.constant(32 - c)])
            srl = dag.new("srl", [x, dag.constant(c)])
        else:
            sub = dag.new("sub", [dag.constant(32), amt])
            left = dag.new("and", [sub, dag.constant(31)])
            shl = dag.new("shl", [x, left])
            srl = dag.new("srl", [x, amt])
        repl[n] = dag.new("or", [shl, srl])

    for g in globs:
        hi = dag.new("HI", value=g.value, vt="ptr")
        lo = dag.new("LO", value=g.value)
        repl[g] = dag.new("add", [hi, lo], vt="ptr")
    if repl:
        _rewrite(dag.nodes, repl)
        dag.prune()
    return dag


# --------------------------------------------------------------------------
# Selection
# --------------------------------------------------------------------------

class SelectCtx:
    """Selection state over a generic DAG that it never changes. Machine
    nodes are made in `out`, a new graph with the DAG's name, entry and node
    numbering. `covers` maps a generic node to the machine node that
    replaces it, for its value and its place on the chain alike; `refd`
    holds the generic nodes that some machine node names; `uses` counts each
    node's value users in the generic DAG, the return's included."""

    def __init__(self, dag: SelDag, desc: tgt.TargetDesc, ext: frozenset[str]):
        self.out = copy.copy(dag)
        self.out.nodes = []
        self.out.consts = {}  # it holds machine nodes only
        self.desc = desc
        self.ext = ext
        self.debug_lines: list[str] = []
        self._materialized: dict[DagNode, DagNode] = {}
        self.covers: dict[DagNode, DagNode] = {}
        self.refd: set[DagNode] = set()
        self.uses: dict[DagNode, int] = defaultdict(int)
        self.selectors = _selectors(desc, ext).by_kind

    def make_machine(self, mnemonic: str, ops, chain=None) -> DagNode:
        d = self.desc.instr(mnemonic)
        if d.ext not in self.ext:
            raise IselError(f"{mnemonic} requires extension {d.ext}")
        m = self.out.new(mnemonic, ops, chain,
                         "i32" if "rd" in d.ops else "none", is_machine=True)
        self.refd.update(_operands(m))
        return m

    def reg_operand(self, v: DagNode) -> DagNode:
        """Constants and HI leaves used as register operands are
        materialized here, once per node."""
        kind = v.kind
        if kind != "Constant" and kind != "HI":
            return v
        node = self._materialized.get(v)
        if node is None and kind == "HI":
            node = self.make_machine("LUI", [MOp.sym(v.value, "hi20")])
        elif node is None:
            for mn, imm in tgt.materialize_imm(v.value, self.ext):
                if mn == "LUI":
                    node = self.make_machine("LUI", [MOp.imm(imm)])
                else:  # ADDI
                    src = MOp.preg(X0) if node is None else node
                    node = self.make_machine("ADDI", [src, MOp.imm(imm)])
        self._materialized[v] = node
        return node

    def splice(self, mems: list[DagNode], machine: DagNode):
        """`machine` takes the place of the run of `mems` on the chain."""
        mems = _chain_order(mems)
        machine.chain = mems[0].chain
        self.refd.add(machine.chain)
        self.covers[mems[-1]] = machine


def hook_xor_dependent_loads(ctx: SelectCtx, node: DagNode) -> DagNode | None:
    """Match xor of a load and a load at (same base + 16) and emit ADDI+LXR.

    Five progressive checks; any failure falls through to the declarative
    patterns.
    """
    if "Xcrypt" not in ctx.ext:
        return None
    say = ctx.debug_lines.append
    say(f"xor-loads hook: inspecting {node!r}")
    a, b = node.ops
    if not (a.kind == "load" and b.kind == "load"):
        say("  [1] both operands are loads: no")
        return None
    say("  [1] both operands are loads: yes")
    addr2 = b.ops[0]
    if addr2.kind != "add":
        say("  [2] second load address is an add: no")
        return None
    say("  [2] second load address is an add: yes")
    if addr2.ops[0] is not a.ops[0]:
        say("  [3] add base equals first load address: no")
        return None
    say("  [3] add base equals first load address: yes")
    addend = addr2.ops[1]  # a gep offset or a global's LO: always a constant
    say("  [4] second addend is a constant: yes")
    if (addend.value & 0xFFFFFFFF) != 16:
        say(f"  [5] constant equals 16: no ({addend.value})")
        return None
    say("  [5] constant equals 16: yes")
    if ctx.uses[a] != 1 or ctx.uses[b] != 1:
        say("  loads have other uses, not folding")
        return None
    if not _chain_adjacent([a, b]):
        say("  loads are not adjacent on the chain, not folding")
        return None
    base = a.ops[0]
    addi = ctx.make_machine("ADDI", [ctx.reg_operand(base), MOp.imm(16)])
    lxr = ctx.make_machine("LXR", [ctx.reg_operand(base), addi])
    ctx.splice([a, b], lxr)
    say("  -> emitting ADDI + LXR")
    return lxr


def _chain_order(nodes: list[DagNode]) -> list[DagNode]:
    return sorted(nodes, key=lambda n: n.uid)


def _chain_adjacent(mems: list[DagNode]) -> bool:
    """Covered memory nodes must form a consecutive run on the linear chain."""
    mems = _chain_order(mems)
    for earlier, later in zip(mems, mems[1:]):
        if later.chain is not earlier:
            return False
    return True


# --------------------------------------------------------------------------
# Pattern selectors
# --------------------------------------------------------------------------

class _Selectors(NamedTuple):
    """The selectors of a description's patterns under one extension set."""

    # root kind -> the selectors of the enabled patterns, highest priority
    # first; the sort is stable, so equal priorities keep their record order
    by_kind: dict[str, tuple[Callable, ...]]
    # the selectors of the enabled patterns that cover a rotate of two leaves
    rotates: tuple[Callable, ...]


# description -> extension set -> its selectors; weak, so that a dropped
# description is freed at once
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
# (source, target, source_order of each target instruction) -> the selector
# generated for it, shared by every description that has such a pattern
_SELECTORS: dict[tuple, Callable] = {}


def _selectors(desc: tgt.TargetDesc, ext: frozenset[str]) -> _Selectors:
    """The table of `desc` under `ext`, built on first use."""
    by_ext = _TABLES.setdefault(desc, {})
    table = by_ext.get(ext)
    if table is None:
        by_kind: dict[str, list[Callable]] = {}
        rotates = []
        for p in sorted((p for p in desc.patterns if p.ext in ext),
                        key=lambda p: -p.priority):
            sel = pattern_selector(p, desc)
            by_kind.setdefault(p.source.kind, []).append(sel)
            if p.source.kind == "rotr" and \
                    not any(c.children for c in p.source.children):
                rotates.append(sel)
        table = by_ext[ext] = _Selectors(
            {kind: tuple(sels) for kind, sels in by_kind.items()},
            tuple(rotates))
    return table


def pattern_selector(p: tgt.SelPattern, desc: tgt.TargetDesc) -> Callable:
    """The function `select(ctx, n)` generated for `p` on first use. It
    matches p's source at the generic node n, which has the source's kind,
    and returns the machine node made in ctx that covers n, or None. With
    ctx None it makes nothing and returns n if p matches, which reads no
    selection state when the source's operands are leaves."""
    orders = tuple(desc.instr(t.kind).source_order
                   for t in _instructions(p.target))
    key = (p.source, p.target, orders)
    sel = _SELECTORS.get(key)
    if sel is None:
        scope = {"__builtins__": {}, "len": len, "MOp": MOp,
                 "adjacent": _chain_adjacent}
        where = f"<pattern {p.source.kind} -> {p.target.kind}>"
        exec(compile(_selector_source(p, orders), where, "exec"), scope)
        sel = _SELECTORS[key] = scope["select"]
    return sel


def _instructions(target: tgt.PatNode) -> list[tgt.PatNode]:
    """The instruction nodes of a pattern target, in preorder."""
    out = [target]
    for c in target.children:
        if c.kind != "capture" and c.kind != "const":
            out += _instructions(c)
    return out


# a Constant's value read as a signed 32-bit integer, as tgt.sext reads it
_SEXT = "({}.value & 4294967295 ^ 2147483648) - 2147483648"


def _selector_source(p: tgt.SelPattern, orders: tuple) -> str:
    """The source of p's selector; see _SelectorSource."""
    w = _SelectorSource(p.source)
    match = w.operation(p.source, "n", None, ())
    mems = [w.at[path] if path else "n" for path in w.mems]
    lines = ["def select(ctx, n):", f"    if not ({match}):",
             "        return None"]
    if len(mems) > 1:
        lines += [f"    if not adjacent([{', '.join(mems)}]):",
                  "        return None"]
    lines += ["    if ctx is None:", "        return n",
              "    reg = ctx.reg_operand", "    make = ctx.make_machine"]
    m = w.emit(p.target, iter(orders), lines)
    if mems:
        lines.append(f"    ctx.splice([{', '.join(mems)}], {m})")
    lines.append(f"    return {m}")
    return "\n".join(lines) + "\n"


class _SelectorSource:
    """Writes one pattern's selector as the interpreter of pattern trees
    that it replaced would run it. The match is one expression. Commutative
    operands are tried in order, then swapped: `A or B`, so that once an
    inner node matches, its order is kept. A capture binds at its first
    occurrence in the source, which is the same in either order, and a
    repeated one must be the same node. Every name is chosen here: fixed
    ones, and v1, v2, ... for the nodes at source positions, the captures
    and the machine nodes made. Kinds and mnemonics enter as repr'd
    strings and constants as integers."""

    def __init__(self, source: tgt.PatNode):
        self.nvars = 0
        self.at: dict[tuple, str] = {}  # source position -> its variable
        self.captures: dict[str, str] = {}  # capture name -> its variable
        self.first: dict[str, tuple] = {}  # capture name -> first position
        self.imms: set[str] = set()  # names that some immediate binds
        self.mems: list[tuple] = []  # positions of the loads and stores
        self._survey(source, ())

    def _survey(self, node: tgt.PatNode, path: tuple):
        if node.kind == "capture" or node.kind in tgt.IMM_RANGES:
            self.first.setdefault(node.name, path)
            if node.kind != "capture":
                self.imms.add(node.name)
        elif node.kind == "load" or node.kind == "store":
            self.mems.append(path)
        for i, c in enumerate(node.children):
            self._survey(c, path + (i,))

    def fresh(self) -> str:
        self.nvars += 1
        return f"v{self.nvars}"

    def var(self, table: dict, key) -> str:
        v = table.get(key)
        if v is None:
            v = table[key] = self.fresh()
        return v

    def operation(self, pat: tgt.PatNode, v: str, slot: str | None,
                  path: tuple) -> str:
        """True when the node in `slot`, kept in `v`, matches `pat`; at the
        root (slot None) the node is `n`, of pat's kind, and any number of
        users may read it."""
        kids = pat.children
        ops = self.var(self.at, path + ("ops",))
        tests = [] if slot is None else \
            [f"({v} := {slot}).kind == {pat.kind!r}"]
        tests.append(f"len({ops} := {v}.ops) == {len(kids):d}")
        if slot is not None and (pat.kind == "load" or pat.oneuse):
            tests.append(f"ctx.uses[{v}] == 1")
        slots = [f"{ops}[{i:d}]" for i in range(len(kids))]
        operands = self.operands(kids, slots, path)
        if pat.kind in ir.COMMUTATIVE and len(kids) == 2:
            swapped = self.operands(kids, slots[::-1], path)
            operands = [f"({' and '.join(operands)} or "
                        f"{' and '.join(swapped)})"]
        return " and ".join(tests + operands)

    def operands(self, kids, slots: list[str], path: tuple) -> list[str]:
        tests = []
        for i, (c, slot) in enumerate(zip(kids, slots)):
            at = path + (i,)
            if c.kind == "capture":
                v = self.var(self.captures, c.name)
                tests.append(f"({v} := {slot})" if self.first[c.name] == at
                             else f"{slot} is {v}")
                continue
            t = self.var(self.at, at)
            if c.kind == "const":
                tests.append(f"(({t} := {slot}).kind == 'Constant' and "
                             f"{_SEXT.format(t)} == {c.value:d})")
            elif c.kind in tgt.IMM_RANGES:
                v = self.var(self.captures, c.name)
                imm = self.var(self.at, at + ("imm",))
                lo, hi = tgt.IMM_RANGES[c.kind]
                test = (f"({t} := {slot}).kind == 'Constant' and {lo:d} <= "
                        f"({imm} := {_SEXT.format(t)}) <= {hi:d} and "
                        f"({v} := MOp.imm({imm}))")
                if c.kind == "imm12":  # and LO(g) as %lo(g)
                    test += (f" or {t}.kind == 'LO' and "
                             f"({v} := MOp.sym({t}.value, 'lo12'))")
                tests.append(f"({test})")
            else:
                tests.append(self.operation(c, t, slot, at))
        return tests

    def emit(self, node: tgt.PatNode, orders, lines: list[str]) -> str:
        """Make the machine nodes of target `node`, inner instructions
        first. Its register operands are then materialized in register
        order, rs1 first, so that a store's base is made before the value
        it stores. Returns the variable of the node made."""
        order = next(orders)  # preorder, as _instructions lists them
        args, nodes = [], []  # each operand, and whether it is a DagNode
        for c in node.children:
            if c.kind == "capture":
                args.append(self.captures[c.name])
                nodes.append(c.name not in self.imms)
            elif c.kind == "const":
                args.append(f"MOp.imm({c.value:d})")
                nodes.append(False)
            else:
                args.append(self.emit(c, orders, lines))
                nodes.append(True)
        for i in order:
            if nodes[i]:
                r = self.fresh()
                lines.append(f"    {r} = reg({args[i]})")
                args[i] = r
        m = self.fresh()
        lines.append(f"    {m} = make({node.kind!r}, [{', '.join(args)}])")
        return m


def _select_node(ctx: SelectCtx, node: DagNode) -> DagNode:
    """Select one generic node by the LXR hook, else by pattern; returns the
    machine node for its value."""
    if node.kind == "xor":
        new = hook_xor_dependent_loads(ctx, node)
        if new is not None:
            return new
    for sel in ctx.selectors.get(node.kind, ()):
        new = sel(ctx, node)
        if new is not None:
            ctx.debug_lines.append(
                f"pattern {node.kind} -> {new.kind} matched at {node!r}")
            return new
    # name the disabled instructions that would have covered the node
    needs = {f"{p.target.kind} requires extension {p.ext}": None
             for p in ctx.desc.patterns
             if p.ext not in ctx.ext and p.source.kind == node.kind}
    why = f" ({', '.join(needs)})" if needs else ""
    raise IselError(f"uncovered node kind {node.kind!r}{why}")


def select(dag: SelDag, desc: tgt.TargetDesc,
           ext: frozenset[str]) -> tuple[SelDag, list[str]]:
    """Cover every generic node with machine nodes: the LXR hook first,
    then declarative patterns by priority (maximal munch).

    `dag` is left as it is, and one-use tests read its use counts, taken
    once. Nodes are visited consumers first; a node is skipped when no
    machine node names it or a cover has already mapped it. Returns a new
    graph rooted at the JALR: the machine nodes, their operands resolved
    through the cover map, and the EntryToken and Register leaves they
    reach."""
    ctx = SelectCtx(dag, desc, ext)
    uses = ctx.uses

    root = dag.root
    # consumers before producers: reverse postorder from the root, with an
    # explicit stack, as dependency chains can outgrow the recursion limit
    order: list[DagNode] = []
    seen = {root}
    stack = [(root, iter(_operands(root)))]
    while stack:
        n, edges = stack[-1]
        for v in edges:
            if v not in seen:
                seen.add(v)
                stack.append((v, iter(_operands(v))))
                break
        else:
            stack.pop()
            order.append(n)
            # value users only: a memory node's chain user does not read it
            for v in n.ops:
                uses[v] += 1
    order.pop()  # the root, a generic "ret"

    jalr = ctx.make_machine("JALR", [MOp.preg(X0), MOp.preg(RA), MOp.imm(0)],
                            chain=root.chain)
    jalr.vt = "none"  # rd is pinned to x0, no result to allocate
    if root.ret_value is not None:
        uses[root.ret_value] += 1
        ctx.refd.add(root.ret_value)

    covers, refd = ctx.covers, ctx.refd
    for node in reversed(order):
        if node.kind in _LEAF_KINDS or node not in refd or node in covers:
            continue
        covers[node] = _select_node(ctx, node)

    # ret value may be a bare constant: materialize it now
    if root.ret_value is not None:
        jalr.ret_value = ctx.reg_operand(root.ret_value)
    return _resolve(ctx, jalr), ctx.debug_lines


def _resolve(ctx: SelectCtx, root: DagNode) -> SelDag:
    """Point every machine operand that names a generic node at the machine
    node that covers it; only EntryToken and Register stay generic."""
    covers = ctx.covers
    leaves: set[DagNode] = set()

    def resolve(v: DagNode) -> DagNode:
        m = covers.get(v)
        if m is not None:
            return m
        leaves.add(v)
        return v

    out = ctx.out
    for m in out.nodes:
        ops = m.ops
        for i, v in enumerate(ops):
            if type(v) is DagNode and not v.is_machine:
                ops[i] = resolve(v)
        c = m.chain
        if c is not None and not c.is_machine:
            m.chain = resolve(c)
    rv = root.ret_value
    if rv is not None and not rv.is_machine:
        root.ret_value = resolve(rv)
    out.nodes = sorted(leaves, key=lambda n: n.uid) + out.nodes
    out.root = root
    return out


# --------------------------------------------------------------------------
# Schedule
# --------------------------------------------------------------------------

def schedule(dag: SelDag) -> MachineFunction:
    """Deterministic Kahn topological linearization of the machine graph
    (ready set ordered by node creation index), read from the nodes' own
    edges, then one MachineInstr per machine node over fresh virtual
    registers."""
    nodes = dag.nodes
    # each node's users, and how many of its operand edges are unscheduled
    users: dict[DagNode, list[DagNode]] = {n: [] for n in nodes}
    indeg: dict[DagNode, int] = {}
    for n in nodes:
        edges = _operands(n)
        for v in edges:
            users[v].append(n)
        indeg[n] = len(edges)
    ready = [n.uid for n in nodes if not indeg[n]]  # ascending: a heap
    by_uid = {n.uid: n for n in nodes}
    linear: list[DagNode] = []
    while ready:
        n = by_uid[heapq.heappop(ready)]
        linear.append(n)
        for s in users[n]:
            indeg[s] -= 1
            if not indeg[s]:
                heapq.heappush(ready, s.uid)

    mf = MachineFunction(dag.name)
    vreg_of: dict[DagNode, MOp] = {}  # each result's operand, for every use
    nvreg = 0

    def operand_mop(op) -> MOp:
        if type(op) is DagNode:
            if op.kind == "Register":  # argument i arrives in a<i>
                return MOp.preg(A0 + op.value)
            return vreg_of[op]
        return op

    root = dag.root
    for n in linear:
        if not n.is_machine:
            continue
        if n is root:
            if n.ret_value is not None:
                rv = operand_mop(n.ret_value)
                if rv.kind == "vreg":
                    mf.ret_vreg = rv.val
                elif rv.kind == "preg" and rv.val != A0:
                    # returned argument lives elsewhere: mv a0, <reg>
                    mf.instrs.append(MachineInstr(
                        "ADDI", [MOp.preg(A0), rv, MOp.imm(0)]))
            mf.instrs.append(MachineInstr("JALR", list(n.ops), is_ret=True))
            continue
        ops: list[MOp] = []
        if n.vt != "none":
            vreg_of[n] = MOp.vreg(nvreg)
            ops.append(vreg_of[n])
            nvreg += 1
        for op in n.ops:
            ops.append(operand_mop(op))
        mf.instrs.append(MachineInstr(n.kind, ops))
    mf.num_vregs = nvreg
    return mf


# --------------------------------------------------------------------------
# Dot export
# --------------------------------------------------------------------------

def emit_dot(dag: SelDag, stage_label: str = "") -> str:
    """Graphviz rendering: solid value edges, dashed chain edges."""
    lines = [f'digraph "{dag.name}{":" + stage_label if stage_label else ""}" {{']
    nodes = dag.nodes

    def label(n: DagNode) -> str:
        extra = ""
        if n.kind == "Constant":
            extra = f"<{tgt.sext(n.value, 32)}>"
        elif n.kind in ("GlobalAddress", "HI", "LO"):
            extra = f"<@{n.value}>"
        elif n.kind == "Register":
            extra = f"<arg{n.value}>"
        return f"{n.kind}{extra}:{n.vt}"

    for n in nodes:
        lines.append(f'  n{n.uid} [label="{label(n)}"];')
    for n in nodes:
        for op in n.ops:
            if type(op) is DagNode:
                lines.append(f"  n{op.uid} -> n{n.uid};")
        if n.chain is not None:
            lines.append(f"  n{n.chain.uid} -> n{n.uid} [style=dashed];")
        if n.ret_value is not None:
            lines.append(f"  n{n.ret_value.uid} -> n{n.uid};")
    lines.append("}")
    return "\n".join(lines) + "\n"
