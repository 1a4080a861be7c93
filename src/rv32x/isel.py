"""Per-function selection DAG: build, legalize, combine, select, schedule.

The DAG starts target-independent (one node per IR instruction and per
distinct constant and global, memory ops threaded on a linear chain from
EntryToken, the return as the root). Legalize makes a global address g
add(HI(g), LO(g)), two leaves that name its upper and lower halves, and
keeps a rotate when an enabled `rotr` pattern covers it, expanding it into
shifts otherwise; combine merges the constants that legalize made.
Selection then covers the DAG with machine nodes, whose immediates, symbols
and fixed registers are inline mir.MOp operands. Edges live only on the
nodes: a node names its operands, and nothing records its users. Every
stage leaves `SelDag.nodes` as exactly the nodes reachable from the root;
combine and legalize collect their rewrites and apply them in one sweep.

Selection reads the generic DAG without changing it and builds a new graph
of machine nodes. It consults imperative hooks at their root node kinds
first, then declarative patterns from the target description by descending
priority, which select every instruction, loads and stores with their
address offsets included; there are no fallbacks. A register operand that
is a constant or a HI leaf is materialized where it is used: a constant as
its shortest sequence, HI(g) as `lui %hi(g)`, each once per node. An imm12
operand matches LO(g) as `%lo(g)`. Scheduling is a deterministic Kahn
linearization of the machine graph ordered by node creation.
"""

from __future__ import annotations

import copy
import heapq
from collections import defaultdict
from typing import Iterable, NamedTuple

from . import ir
from . import target as tgt
from .mir import MOp, MachineInstr, MachineFunction, X0, RA, A0

_IR_TO_DAG = {"lshr": "srl", "ashr": "sra"}

# generic kinds that legally remain after selection (they emit no instruction)
NON_INSTR_KINDS = {"EntryToken", "Register"}
# generic kinds that selection never covers on their own: their users
# consume them, materializing constants and HI as register operands and
# matching constants and LO as immediates
_LEAF_KINDS = NON_INSTR_KINDS | {"Constant", "HI", "LO"}


class IselError(Exception):
    pass


class DagNode:
    """One DAG node. Value results are index "val", chain results "ch".

    Machine nodes (is_machine) reference an InstrDef mnemonic in `kind`; their
    ops list holds DagValue register operands and mir.MOp inline operands
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
        self.ret_value = None  # DagValue carried by the return

    def __repr__(self):
        return f"<{self.kind}#{self.uid}>"


class DagValue(NamedTuple):
    """A DAG edge: result `res` ("val" or "ch") of `node`. It is a named
    tuple, as mir.MOp is, because building the DAG and selecting it make one
    per edge: a named tuple builds in about three fifths of the time of a
    frozen dataclass, and its equality and hash over (node, res) compare
    nodes by identity, since DagNode defines neither."""

    node: DagNode
    res: str = "val"


def ch(node: DagNode) -> DagValue:
    return DagValue(node, "ch")


def val(node: DagNode) -> DagValue:
    return DagValue(node, "val")


def _operands(n: DagNode) -> list[DagValue]:
    """`n`'s edges: its DagValue ops, then its chain and returned value."""
    edges = [op for op in n.ops if type(op) is DagValue]
    if n.chain is not None:
        edges.append(n.chain)
    if n.ret_value is not None:
        edges.append(n.ret_value)
    return edges


def _rewrite(nodes: Iterable[DagNode], repl: dict[DagNode, DagValue]):
    """One sweep: point every value edge of `nodes` at a node in `repl` to
    the value that node is replaced by, following replaced replacements."""
    for n in nodes:
        ops = n.ops
        for i, v in enumerate(ops):
            if v.node in repl:
                ops[i] = _follow(repl, v)
        if n.ret_value is not None and n.ret_value.node in repl:
            n.ret_value = _follow(repl, n.ret_value)


def _follow(repl: dict[DagNode, DagValue], v: DagValue) -> DagValue:
    while v.node in repl:
        v = repl[v.node]
    return v


class SelDag:
    """Nodes in creation order, and the root they are reachable from.

    Edges live only on the nodes (`ops`, `chain`, `ret_value`), so a node
    does not know its users. A stage may add nodes with `new` and repoint
    edges; it ends by pruning, so that `nodes` holds exactly the nodes
    reachable from the root, in creation order.
    """

    def __init__(self, name: str):
        self.name = name
        self.nodes: list[DagNode] = []
        self._uid = 0
        self.root: DagNode | None = None
        self.entry = self.new("EntryToken", vt="none")

    def new(self, kind, ops=(), chain=None, vt="i32", value=None,
            is_machine=False) -> DagNode:
        n = DagNode(kind, ops, chain, vt, value, self._uid, is_machine)
        self._uid += 1
        self.nodes.append(n)
        return n

    def live_nodes(self) -> list[DagNode]:
        """Nodes reachable from the root, in creation order: one walk."""
        if self.root is None:
            return list(self.nodes)
        seen = {self.root}
        stack = [self.root]
        while stack:
            n = stack.pop()
            for v in n.ops:
                if type(v) is DagValue and v.node not in seen:
                    seen.add(v.node)
                    stack.append(v.node)
            for v in (n.chain, n.ret_value):
                if v is not None and v.node not in seen:
                    seen.add(v.node)
                    stack.append(v.node)
        return [n for n in self.nodes if n in seen]

    def prune(self):
        self.nodes = self.live_nodes()


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def build_dag(fn: ir.Function, mod: ir.Module) -> SelDag:
    """One node per IR instruction; loads/stores on a linear chain."""
    dag = SelDag(fn.name)
    chain = ch(dag.entry)
    env: dict[str, DagValue] = {}
    consts: dict[int, DagNode] = {}
    globs: dict[str, DagNode] = {}

    def constant(v: int) -> DagValue:
        v = v & 0xFFFFFFFF
        if v not in consts:
            consts[v] = dag.new("Constant", value=v)
        return val(consts[v])

    if len(fn.params) > 8:  # a0..a7; the psABI passes the rest on the stack
        raise IselError(f"@{fn.name}: {len(fn.params)} parameters; at most 8 "
                        "are passed in registers")
    for i, (pname, pty) in enumerate(fn.params):
        env[pname] = val(dag.new("Register", value=i, vt=pty))

    def operand(v: ir.Value) -> DagValue:
        if v.kind == "const":
            return constant(v.const)
        if v.kind == "global":
            if v.name not in globs:
                globs[v.name] = dag.new("GlobalAddress", value=v.name, vt="ptr")
            return val(globs[v.name])
        if v.kind == "undef":
            raise IselError("undef value reached instruction selection")
        return env[v.name]

    for inst in fn.body:
        op = inst.opcode
        if op in ir.BINOPS:
            kind = _IR_TO_DAG.get(op, op)
            n = dag.new(kind, [operand(inst.operands[0]), operand(inst.operands[1])])
            env[inst.result] = val(n)
        elif op in ir.INTRINSICS:
            n = dag.new(op, [operand(o) for o in inst.operands])
            env[inst.result] = val(n)
        elif op == "getelementptr":
            n = dag.new("add", [operand(inst.operands[0]),
                                constant(inst.operands[1].const)], vt="ptr")
            env[inst.result] = val(n)
        elif op == "load":
            n = dag.new("load", [operand(inst.operands[0])], chain=chain,
                        vt=inst.ty)
            env[inst.result] = val(n)
            chain = ch(n)
        elif op == "store":
            n = dag.new("store", [operand(inst.operands[0]),
                                  operand(inst.operands[1])],
                        chain=chain, vt="none")
            chain = ch(n)
        elif op == "ret":
            n = dag.new("ret", [], chain=chain, vt="none")
            if inst.operands:
                n.ret_value = operand(inst.operands[0])
            dag.root = n
        elif op == "alloca":
            raise IselError("alloca reached instruction selection; "
                            "run the optimization pipeline first")
        else:
            raise IselError(f"cannot build DAG node for opcode {op!r}")
    if dag.root is None:
        raise IselError(f"@{fn.name}: no return")
    dag.prune()  # values nothing uses, as at -O0
    return dag


# --------------------------------------------------------------------------
# Combine
# --------------------------------------------------------------------------

def combine(dag: SelDag) -> SelDag:
    """Merge identical Constant nodes, such as those legalize makes, and
    drop unreachable nodes."""
    canon: dict[int, DagNode] = {}
    repl: dict[DagNode, DagValue] = {}
    for n in dag.nodes:
        if n.kind == "Constant":
            first = canon.setdefault(n.value, n)
            if first is not n:
                repl[n] = val(first)
    if repl:
        _rewrite(dag.nodes, repl)
    dag.prune()
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
    # the operand leaves of each enabled pattern that covers a rotate alone
    rotates = [p.source.children for p in desc.patterns
               if p.ext in ext and p.source.kind == "rotr"
               and not any(c.children for c in p.source.children)]
    repl: dict[DagNode, DagValue] = {}
    rots, globs = [], []
    for n in list(dag.nodes):
        if n.kind == "GlobalAddress":
            globs.append(n)
        elif n.kind in ("fshl", "fshr"):
            x, y, amt = (_follow(repl, v) for v in n.ops)
            if x != y:
                raise IselError(
                    "funnel shift with distinct inputs is unsupported "
                    "(no funnel-shift instruction in any enabled extension)")
            if n.kind == "fshl":
                # rotl(x, c) == rotr(x, 32 - c)
                if amt.node.kind == "Constant":
                    c = (32 - amt.node.value) & 31
                    camt = val(dag.new("Constant", value=c))
                else:
                    sub = dag.new("sub", [val(dag.new("Constant", value=32)), amt])
                    camt = val(dag.new("and", [val(sub),
                                               val(dag.new("Constant", value=31))]))
            elif amt.node.kind == "Constant" and amt.node.value > 31:
                camt = val(dag.new("Constant", value=amt.node.value & 31))
            else:
                camt = amt
            rot = dag.new("rotr", [x, camt])
            repl[n] = val(rot)
            rots.append(rot)

    for n in rots:
        x, amt = (_follow(repl, v) for v in n.ops)
        # leaves only: _match_ops needs no selection state to match them
        if any(_match_ops(None, pat, (x, amt), {}, []) for pat in rotates):
            continue
        if amt.node.kind == "Constant":
            c = amt.node.value & 31
            if c == 0:
                repl[n] = x
                continue
            shl = dag.new("shl", [x, val(dag.new("Constant", value=32 - c))])
            srl = dag.new("srl", [x, val(dag.new("Constant", value=c))])
        else:
            sub = dag.new("sub", [val(dag.new("Constant", value=32)), amt])
            left = dag.new("and", [val(sub), val(dag.new("Constant", value=31))])
            shl = dag.new("shl", [x, val(left)])
            srl = dag.new("srl", [x, amt])
        repl[n] = val(dag.new("or", [val(shl), val(srl)]))

    for g in globs:
        hi = dag.new("HI", value=g.value, vt="ptr")
        lo = dag.new("LO", value=g.value)
        repl[g] = val(dag.new("add", [val(hi), val(lo)], vt="ptr"))
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
    numbering. `vals` and `chains` map a generic node's value and chain
    results to the machine results that replace them; `refd` holds the
    generic nodes that some machine node names; `uses` counts each node's
    value users in the generic DAG, the return's included."""

    def __init__(self, dag: SelDag, desc: tgt.TargetDesc, ext: frozenset[str]):
        self.out = copy.copy(dag)
        self.out.nodes = []
        self.desc = desc
        self.ext = ext
        self.debug_lines: list[str] = []
        self._materialized: dict[DagNode, DagNode] = {}
        self.vals: dict[DagNode, DagValue] = {}
        self.chains: dict[DagNode, DagValue] = {}
        self.refd: set[DagNode] = set()
        self.uses: dict[DagNode, int] = defaultdict(int)
        # enabled patterns by root node kind, highest priority first; the
        # sort is stable, so equal priorities keep their record order
        self.patterns: dict[str, list[tgt.SelPattern]] = {}
        for p in sorted((p for p in desc.patterns if p.ext in ext),
                        key=lambda p: -p.priority):
            self.patterns.setdefault(p.source.kind, []).append(p)

    def debug(self, msg: str):
        self.debug_lines.append(msg)

    def make_machine(self, mnemonic: str, ops, chain=None) -> DagNode:
        d = self.desc.instr(mnemonic)
        if d.ext not in self.ext:
            raise IselError(f"{mnemonic} requires extension {d.ext}")
        for op in ops:
            if type(op) is DagValue:
                self.refd.add(op.node)
        if chain is not None:
            self.refd.add(chain.node)
        return self.out.new(mnemonic, ops, chain,
                            "i32" if "rd" in d.ops else "none",
                            is_machine=True)

    def reg_operand(self, v: DagValue) -> DagValue:
        """Constants and HI leaves used as register operands are
        materialized here, once per node."""
        kind = v.node.kind
        if kind != "Constant" and kind != "HI":
            return v
        node = self._materialized.get(v.node)
        if node is None and kind == "HI":
            node = self.make_machine("LUI", [MOp.sym(v.node.value, "hi20")])
        elif node is None:
            for mn, imm in tgt.materialize_imm(v.node.value, self.ext):
                if mn == "LUI":
                    node = self.make_machine("LUI", [MOp.imm(imm)])
                elif mn == "ADDI":
                    src = MOp.preg(X0) if node is None else val(node)
                    node = self.make_machine("ADDI", [src, MOp.imm(imm)])
                else:
                    node = self.make_machine(mn, [val(node), val(node)])
        self._materialized[v.node] = node
        return val(node)


def hook_xor_dependent_loads(ctx: SelectCtx, node: DagNode) -> DagNode | None:
    """Match xor of a load and a load at (same base + 16) and emit ADDI+LXR.

    Five progressive checks; any failure falls through to the declarative
    patterns.
    """
    if "Xcrypt" not in ctx.ext:
        return None
    say = ctx.debug
    say(f"xor-loads hook: inspecting {node!r}")
    if len(node.ops) != 2:
        return None
    a, b = node.ops[0].node, node.ops[1].node
    if not (a.kind == "load" and b.kind == "load"):
        say("  [1] both operands are loads: no")
        return None
    say("  [1] both operands are loads: yes")
    addr2 = b.ops[0].node
    if addr2.kind != "add":
        say("  [2] second load address is an add: no")
        return None
    say("  [2] second load address is an add: yes")
    if addr2.ops[0] != a.ops[0]:
        say("  [3] add base equals first load address: no")
        return None
    say("  [3] add base equals first load address: yes")
    addend = addr2.ops[1].node
    if addend.kind != "Constant":
        say("  [4] second addend is a constant: no")
        return None
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
    lxr = ctx.make_machine("LXR", [ctx.reg_operand(base), val(addi)])
    _splice_chains(ctx, [a, b], lxr)
    say("  -> emitting ADDI + LXR")
    return lxr


# imperative matchers by root node kind, consulted before declarative patterns
HOOKS = {"xor": hook_xor_dependent_loads}


def _chain_order(nodes: list[DagNode]) -> list[DagNode]:
    return sorted(nodes, key=lambda n: n.uid)


def _chain_adjacent(mems: list[DagNode]) -> bool:
    """Covered memory nodes must form a consecutive run on the linear chain."""
    mems = _chain_order(mems)
    for earlier, later in zip(mems, mems[1:]):
        if later.chain is None or later.chain.node is not earlier:
            return False
    return True


def _splice_chains(ctx: SelectCtx, mems: list[DagNode], machine: DagNode):
    """`machine` takes the place of the run of `mems` on the chain."""
    mems = _chain_order(mems)
    machine.chain = mems[0].chain
    ctx.refd.add(machine.chain.node)
    ctx.chains[mems[-1]] = ch(machine)


def _match(ctx: SelectCtx, pat: tgt.PatNode, node: DagNode, binds: dict,
           covered: list, is_root: bool) -> bool:
    """Match the operation `pat` at `node`, adding its captures to `binds`
    and the loads and stores it covers to `covered`. A failed match may
    leave partial additions; the caller discards them, or restores both
    before a commutative retry."""
    kind = pat.kind
    if node.kind != kind:
        return False
    children, ops = pat.children, node.ops
    if len(ops) != len(children):
        return False
    if not is_root and (kind == "load" or pat.oneuse) and ctx.uses[node] != 1:
        return False
    if kind == "load" or kind == "store":
        covered.append(node)
    if kind in ir.COMMUTATIVE and len(children) == 2:
        saved, n_covered = binds.copy(), len(covered)
        if _match_ops(ctx, children, ops, binds, covered):
            return True
        binds.clear()
        binds.update(saved)
        del covered[n_covered:]
        ops = ops[::-1]
    return _match_ops(ctx, children, ops, binds, covered)


def _match_ops(ctx: SelectCtx, children, ops, binds: dict,
               covered: list) -> bool:
    """Match each pattern child at the operand in the same place. Leaves
    are matched here; operations recurse into _match."""
    for pat, v in zip(children, ops):
        kind = pat.kind
        node = v.node
        if kind == "capture":
            bound = binds.setdefault(pat.name, v)
            if bound is not v and bound != v:
                return False
        elif kind == "const":
            if node.kind != "Constant" or \
                    tgt.sext(node.value, 32) != pat.value:
                return False
        elif kind in tgt.IMM_RANGES:
            if node.kind == "Constant":
                imm = tgt.sext(node.value, 32)
                if not tgt.fits(kind, imm):
                    return False
                binds[pat.name] = MOp.imm(imm)
            elif node.kind == "LO" and kind == "imm12":
                binds[pat.name] = MOp.sym(node.value, "lo12")
            else:
                return False
        elif not _match(ctx, pat, node, binds, covered, False):
            return False
    return True


def _emit_target(ctx: SelectCtx, pat: tgt.PatNode, binds: dict) -> DagNode:
    """Make the machine nodes of `pat`, inner instructions first. Captured
    register operands are then materialized in register order, rs1 first,
    so that a store's base is made before the value it stores."""
    ops = []
    for c in pat.children:
        if c.kind == "capture":
            ops.append(binds[c.name])
        elif c.kind == "const":
            ops.append(MOp.imm(c.value))
        else:
            ops.append(val(_emit_target(ctx, c, binds)))
    for i in ctx.desc.instr(pat.kind).source_order:
        if type(ops[i]) is DagValue:
            ops[i] = ctx.reg_operand(ops[i])
    return ctx.make_machine(pat.kind, ops)


def _try_patterns(ctx: SelectCtx, node: DagNode) -> DagNode | None:
    for pat in ctx.patterns.get(node.kind, ()):
        binds: dict = {}
        covered: list[DagNode] = []
        if not _match(ctx, pat.source, node, binds, covered, True):
            continue
        if covered and not _chain_adjacent(covered):
            continue
        new = _emit_target(ctx, pat.target, binds)
        if covered:
            _splice_chains(ctx, covered, new)
        ctx.debug(f"pattern {pat.source.kind} -> {pat.target.kind} "
                  f"matched at {node!r}")
        return new
    return None


def _select_node(ctx: SelectCtx, node: DagNode) -> DagNode:
    """Select one generic node by hook, else by pattern; returns the machine
    node for its value."""
    hook = HOOKS.get(node.kind)
    new = hook(ctx, node) if hook is not None else None
    if new is None:
        new = _try_patterns(ctx, node)
    if new is not None:
        return new
    # name the disabled instructions that would have covered the node
    needs = {f"{p.target.kind} requires extension {p.ext}": None
             for p in ctx.desc.patterns
             if p.ext not in ctx.ext and p.source.kind == node.kind}
    why = f" ({', '.join(needs)})" if needs else ""
    raise IselError(f"uncovered node kind {node.kind!r}{why}")


def select(dag: SelDag, desc: tgt.TargetDesc,
           ext: frozenset[str]) -> tuple[SelDag, list[str]]:
    """Cover every generic node with machine nodes: hooks first, then
    declarative patterns by priority (maximal munch).

    `dag` is left as it is, and one-use tests read its use counts, taken
    once. Nodes are visited consumers first; a node is skipped when no
    machine node names it or a cover has already mapped it. Returns a new
    graph rooted at the JALR: the machine nodes, their operands resolved
    through the value map, and the EntryToken and Register leaves they
    reach."""
    ctx = SelectCtx(dag, desc, ext)
    uses = ctx.uses

    root = dag.root
    # consumers before producers: reverse postorder from the root, with an
    # explicit stack, as dependency chains can outgrow the recursion limit;
    # the same walk counts the value users of every node
    order: list[DagNode] = []
    seen = {root}
    stack = [(root, iter(_operands(root)))]
    while stack:
        n, edges = stack[-1]
        for v in edges:
            if v.res == "val":
                uses[v.node] += 1
            if v.node not in seen:
                seen.add(v.node)
                stack.append((v.node, iter(_operands(v.node))))
                break
        else:
            stack.pop()
            order.append(n)
    order.pop()  # the root, a generic "ret"

    jalr = ctx.make_machine("JALR", [MOp.preg(X0), MOp.preg(RA), MOp.imm(0)],
                            chain=root.chain)
    jalr.vt = "none"  # rd is pinned to x0, no result to allocate
    if root.ret_value is not None:
        ctx.refd.add(root.ret_value.node)

    vals, chains, refd = ctx.vals, ctx.chains, ctx.refd
    for node in reversed(order):
        if (node.kind in _LEAF_KINDS or node not in refd or node in vals
                or node in chains):
            continue
        vals[node] = val(_select_node(ctx, node))

    # ret value may be a bare constant: materialize it now
    if root.ret_value is not None:
        jalr.ret_value = ctx.reg_operand(root.ret_value)
    return _resolve(ctx, jalr), ctx.debug_lines


def _resolve(ctx: SelectCtx, root: DagNode) -> SelDag:
    """Point every machine operand that names a generic node at the machine
    result that replaced it; only EntryToken and Register stay generic."""
    vals, chains = ctx.vals, ctx.chains
    leaves: set[DagNode] = set()

    def leaf(v: DagValue) -> DagValue:
        if v.node.kind not in NON_INSTR_KINDS:
            raise IselError(f"selection left generic node {v.node!r}")
        leaves.add(v.node)
        return v

    out = ctx.out
    for m in out.nodes:
        ops = m.ops
        for i, v in enumerate(ops):
            if type(v) is DagValue and not v.node.is_machine:
                ops[i] = vals.get(v.node) or leaf(v)
        c = m.chain
        if c is not None and not c.node.is_machine:
            m.chain = chains.get(c.node) or leaf(c)
    rv = root.ret_value
    if rv is not None and not rv.node.is_machine:
        root.ret_value = vals.get(rv.node) or leaf(rv)
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
        k = 0
        for v in n.ops:
            if type(v) is DagValue:
                users[v.node].append(n)
                k += 1
        for v in (n.chain, n.ret_value):
            if v is not None:
                users[v.node].append(n)
                k += 1
        indeg[n] = k
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
    if len(linear) != len(nodes):
        raise IselError("cycle in selection DAG")

    mf = MachineFunction(dag.name)
    vreg_of: dict[DagNode, MOp] = {}  # each result's operand, for every use
    nvreg = 0

    def operand_mop(op) -> MOp:
        if isinstance(op, DagValue):
            src = op.node
            if src.kind == "Register":  # argument i arrives in a<i>
                return MOp.preg(A0 + src.value)
            return vreg_of[src]
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
    names = {id(n): f"n{n.uid}" for n in nodes}

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
        lines.append(f'  {names[id(n)]} [label="{label(n)}"];')
    for n in nodes:
        for op in n.ops:
            if isinstance(op, DagValue):
                lines.append(f"  {names[id(op.node)]} -> {names[id(n)]};")
        if n.chain is not None:
            lines.append(f"  {names[id(n.chain.node)]} -> {names[id(n)]} "
                         f"[style=dashed];")
        if n.ret_value is not None:
            lines.append(f"  {names[id(n.ret_value.node)]} -> {names[id(n)]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
