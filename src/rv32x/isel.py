"""Per-function selection DAG: build, combine, legalize, select, schedule.

The DAG starts target-independent (one node per IR instruction, memory ops
threaded on a linear chain from EntryToken, the return as the root), is
legalized for the enabled extensions (global addresses become
ADD_LO(HI(g), g), rotates are kept legal or expanded into shifts), then
covered by machine nodes, whose immediates, symbols and fixed registers are
inline mir.MOp operands. Selection consults imperative hooks at their root
node kinds first, then declarative patterns from the target description by
descending priority, which select every ALU instruction. Fallbacks cover
only loads and stores, with their addressing modes, and the HI/ADD_LO halves
of a global address. Scheduling is a deterministic Kahn linearization
ordered by node creation.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from . import ir
from . import target as tgt
from .mir import MOp, MachineInstr, MachineFunction, X0, RA, A0

_IR_TO_DAG = {"lshr": "srl", "ashr": "sra"}

# generic kinds that legally remain after selection (they emit no instruction)
NON_INSTR_KINDS = {"EntryToken", "Register"}


class IselError(Exception):
    pass


class DagNode:
    """One DAG node. Value results are index "val", chain results "ch".

    Machine nodes (is_machine) reference an InstrDef mnemonic in `kind`; their
    ops list holds DagValue register operands and mir.MOp inline operands
    (imm, sym or preg), in role order with rd omitted. The DAG's root is the
    return: a generic "ret" until selection makes it a JALR, and only it
    carries `ret_value`.
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


# edge slots, as reported by SelDag.uses(): ("op", i), CHAIN or RET
CHAIN = ("chain",)
RET = ("ret",)
_OPS = tuple(("op", i) for i in range(8))  # more operands than any node has


def _edges(n: DagNode):
    """(slot, DagValue) for every operand edge of `n`."""
    for i, op in enumerate(n.ops):
        if isinstance(op, DagValue):
            yield _OPS[i], op
    if n.chain is not None:
        yield CHAIN, n.chain
    if n.ret_value is not None:
        yield RET, n.ret_value


def _edge(n: DagNode, slot):
    if slot[0] == "op":
        return n.ops[slot[1]]
    return n.chain if slot[0] == "chain" else n.ret_value


class SelDag:
    """Nodes in creation order, and the root they are reachable from.

    A node is live when it is the root or has a live user. The DAG keeps the
    use list of every live node: the (user, slot) edges of its live users. A
    node whose last use goes away dies and drops its own operand edges, and
    a dead node that gains a live user comes back with its edges. Node edges
    are therefore changed only through `set_edge`, the `replace_*` helpers
    and `root`; a node fresh from `new` is dead, so its fields may be filled
    in directly until it gains a user. The lists live here rather than on
    the nodes so that nodes hold no references back to their users.
    """

    def __init__(self, name: str):
        self.name = name
        self.nodes: list[DagNode] = []
        self._uid = 0
        self._root: DagNode | None = None
        self._uses: dict[DagNode, dict] = {}  # node -> {(user, slot): None}
        self.entry = self.new("EntryToken", vt="none")

    def new(self, kind, ops=(), chain=None, vt="i32", value=None,
            is_machine=False) -> DagNode:
        n = DagNode(kind, ops, chain, vt, value, self._uid, is_machine)
        self._uid += 1
        self.nodes.append(n)
        return n

    @property
    def root(self) -> DagNode | None:
        return self._root

    @root.setter
    def root(self, n: DagNode | None):
        old, self._root = self._root, n
        if n is not None and n is not old and n not in self._uses:
            self._revive(n)
        if old is not None and old is not n and old not in self._uses:
            self._kill(old)

    def live(self, n: DagNode) -> bool:
        return n is self._root or n in self._uses

    def use_list(self, n: DagNode) -> list[tuple[DagNode, tuple]]:
        """The (user, slot) edges of `n`'s live users."""
        return list(self._uses.get(n, ()))

    def _link(self, user: DagNode, slot, op: DagNode) -> bool:
        """Record an edge from live `user`; True if it revived `op`."""
        uses = self._uses.get(op)
        if uses is not None:
            uses[(user, slot)] = None
            return False
        self._uses[op] = {(user, slot): None}
        return op is not self._root

    def _unlink(self, user: DagNode, slot, op: DagNode) -> bool:
        """Drop an edge from `user`; True if it killed `op`."""
        uses = self._uses[op]
        del uses[(user, slot)]
        if uses:
            return False
        del self._uses[op]
        return op is not self._root

    def _revive(self, n: DagNode):
        """`n` just became live: record its operand edges, transitively."""
        stack = [n]
        while stack:
            user = stack.pop()
            for slot, v in _edges(user):
                if self._link(user, slot, v.node):
                    stack.append(v.node)

    def _kill(self, n: DagNode):
        """`n` just died: drop its operand edges, transitively."""
        stack = [n]
        while stack:
            user = stack.pop()
            for slot, v in _edges(user):
                if self._unlink(user, slot, v.node):
                    stack.append(v.node)

    def set_edge(self, user: DagNode, slot, v: DagValue | None):
        """Point `user`'s operand `slot` at `v`."""
        old = _edge(user, slot)
        if slot[0] == "op":
            user.ops[slot[1]] = v
        elif slot[0] == "chain":
            user.chain = v
        else:
            user.ret_value = v
        if not self.live(user) or (old is not None and v is not None
                                   and old.node is v.node):
            return
        # link the new operand first, so that operands it shares stay live
        if v is not None and self._link(user, slot, v.node):
            self._revive(v.node)
        if old is not None and self._unlink(user, slot, old.node):
            self._kill(old.node)

    def live_nodes(self) -> list[DagNode]:
        """Nodes reachable from the root, in creation order."""
        root, uses = self._root, self._uses
        if root is None:
            return list(self.nodes)
        return [n for n in self.nodes if n is root or n in uses]

    def uses(self) -> dict[int, list[tuple[DagNode, object]]]:
        """Map id(node) -> [(user, slot)] over value, chain and ret edges."""
        out: dict[int, list] = {}
        for n in self.live_nodes():
            for slot, v in _edges(n):
                out.setdefault(id(v.node), []).append((n, slot))
        return out

    def value_use_count(self, node: DagNode) -> int:
        """Value edges from live users, the return's included."""
        return sum(1 for user, slot in self._uses.get(node, ())
                   if slot[0] == "ret"
                   or slot[0] == "op" and user.ops[slot[1]].res == "val")

    def _replace_uses(self, old: DagNode, new: DagValue, res: str):
        for user, slot in self.use_list(old):
            if _edge(user, slot).res == res:
                self.set_edge(user, slot, new)

    def replace_value_uses(self, old: DagNode, new: DagValue):
        self._replace_uses(old, new, "val")

    def replace_chain_uses(self, old: DagNode, new: DagValue):
        self._replace_uses(old, new, "ch")

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
            n = dag.new("Load", [operand(inst.operands[0])], chain=chain,
                        vt=inst.ty)
            env[inst.result] = val(n)
            chain = ch(n)
        elif op == "store":
            n = dag.new("Store", [operand(inst.operands[0]),
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
    return dag


# --------------------------------------------------------------------------
# Combine
# --------------------------------------------------------------------------

def combine(dag: SelDag) -> SelDag:
    """Merge identical Constant/GlobalAddress nodes, drop unreachable nodes.
    Often a no-op post-legalize."""
    canon: dict = {}
    for n in dag.live_nodes():
        if n.kind in ("Constant", "GlobalAddress"):
            key = (n.kind, n.value)
            if key in canon and canon[key] is not n:
                dag.replace_value_uses(n, val(canon[key]))
            else:
                canon[key] = n
    dag.prune()
    return dag


# --------------------------------------------------------------------------
# Legalize
# --------------------------------------------------------------------------

def _rotate_legal(amt: DagValue, ext: frozenset[str]) -> bool:
    """RORI (Zbb) and ROTI (Xcrypt) rotate by a constant; only ROR (Zbb)
    rotates by a register."""
    if amt.node.kind == "Constant":
        return "Zbb" in ext or "Xcrypt" in ext
    return "Zbb" in ext


def legalize(dag: SelDag, ext: frozenset[str]) -> SelDag:
    """Funnel shifts with equal inputs become rotates; a rotate stays when an
    enabled instruction takes its amount and expands to shifts otherwise;
    global addresses become ADD_LO(HI(g), g)."""
    rots = []
    for n in list(dag.live_nodes()):
        if n.kind in ("fshl", "fshr"):
            x, y, amt = n.ops
            if not (isinstance(x, DagValue) and isinstance(y, DagValue)
                    and x == y):
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
            dag.replace_value_uses(n, val(rot))
            rots.append(rot)

    for n in rots:
        if _rotate_legal(n.ops[1], ext):
            continue
        x, amt = n.ops
        if amt.node.kind == "Constant":
            c = amt.node.value & 31
            if c == 0:
                dag.replace_value_uses(n, x)
                continue
            shl = dag.new("shl", [x, val(dag.new("Constant", value=32 - c))])
            srl = dag.new("srl", [x, val(dag.new("Constant", value=c))])
        else:
            sub = dag.new("sub", [val(dag.new("Constant", value=32)), amt])
            left = dag.new("and", [val(sub), val(dag.new("Constant", value=31))])
            shl = dag.new("shl", [x, val(left)])
            srl = dag.new("srl", [x, amt])
        orn = dag.new("or", [val(shl), val(srl)])
        dag.replace_value_uses(n, val(orn))

    for n in list(dag.live_nodes()):
        if n.kind == "GlobalAddress":
            users = [(u, slot) for u, slot in dag.use_list(n)
                     if u.kind not in ("HI", "ADD_LO")]
            if not users:
                continue
            hi = dag.new("HI", [val(n)], vt="ptr")
            addlo = dag.new("ADD_LO", [val(hi), val(n)], vt="ptr")
            for u, slot in users:
                dag.set_edge(u, slot, val(addlo))
    dag.prune()
    return dag


# --------------------------------------------------------------------------
# Selection
# --------------------------------------------------------------------------

class SelectCtx:
    def __init__(self, dag: SelDag, desc: tgt.TargetDesc, ext: frozenset[str],
                 zba_threshold: int = 2):
        self.dag = dag
        self.desc = desc
        self.ext = ext
        self.zba_threshold = zba_threshold
        self.debug_lines: list[str] = []
        self._materialized: dict[int, DagNode] = {}
        # enabled patterns by root node kind, highest priority first; the
        # sort is stable, so equal priorities keep their record order
        self.patterns: dict[str, list[tgt.SelPattern]] = {}
        for p in sorted((p for p in desc.patterns if p.ext in ext),
                        key=lambda p: -p.priority):
            self.patterns.setdefault(_root_kind(p), []).append(p)

    def debug(self, msg: str):
        self.debug_lines.append(msg)

    def make_machine(self, mnemonic: str, ops, chain=None) -> DagNode:
        d = self.desc.instr(mnemonic)
        if d.ext not in self.ext:
            raise IselError(f"{mnemonic} requires extension {d.ext}")
        return self.dag.new(mnemonic, ops, chain,
                            "i32" if "rd" in d.ops else "none", is_machine=True)

    def reg_operand(self, v: DagValue) -> DagValue:
        """Constants used as register operands are materialized here."""
        if v.node.kind != "Constant":
            return v
        node = self._materialized.get(id(v.node))
        if node is None:
            seq = tgt.materialize_imm(v.node.value, self.ext,
                                      self.zba_threshold)
            for mn, imm in seq:
                if mn == "LUI":
                    node = self.make_machine("LUI", [MOp.imm(imm)])
                elif mn == "ADDI":
                    src = MOp.preg(X0) if node is None else val(node)
                    node = self.make_machine("ADDI", [src, MOp.imm(imm)])
                else:
                    node = self.make_machine(mn, [val(node), val(node)])
            self._materialized[id(v.node)] = node
        return val(node)


def _root_kind(p: tgt.SelPattern) -> str:
    """The DAG node kind a pattern's source is rooted at."""
    return "Load" if p.source.kind == "load" else p.source.kind


def hook_xor_dependent_loads(ctx: SelectCtx, node: DagNode) -> DagNode | None:
    """Match xor of a load and a load at (same base + 16) and emit ADDI+LXR.

    Five progressive checks; any failure falls through to the declarative
    patterns.
    """
    if "Xcrypt" not in ctx.ext:
        return None
    dag = ctx.dag
    say = ctx.debug
    say(f"xor-loads hook: inspecting {node!r}")
    if len(node.ops) != 2:
        return None
    a, b = node.ops[0].node, node.ops[1].node
    if not (a.kind == "Load" and b.kind == "Load"):
        say("  [1] both operands are loads: no")
        return None
    say("  [1] both operands are loads: yes")
    addr2 = b.ops[0].node
    if addr2.kind != "add":
        say("  [2] second load address is an add: no")
        return None
    say("  [2] second load address is an add: yes")
    if not (isinstance(addr2.ops[0], DagValue) and addr2.ops[0] == a.ops[0]):
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
    if dag.value_use_count(a) != 1 or dag.value_use_count(b) != 1:
        say("  loads have other uses, not folding")
        return None
    if not _chain_adjacent(dag, [a, b]):
        say("  loads are not adjacent on the chain, not folding")
        return None
    base = a.ops[0]
    addi = ctx.make_machine("ADDI", [ctx.reg_operand(base), MOp.imm(16)])
    lxr = ctx.make_machine("LXR", [ctx.reg_operand(base), val(addi)])
    _splice_chains(dag, [a, b], lxr)
    say("  -> emitting ADDI + LXR")
    return lxr


# imperative matchers by root node kind, consulted before declarative patterns
HOOKS = {"xor": hook_xor_dependent_loads}


def _chain_order(nodes: list[DagNode]) -> list[DagNode]:
    return sorted(nodes, key=lambda n: n.uid)


def _chain_adjacent(dag: SelDag, mems: list[DagNode]) -> bool:
    """Covered memory nodes must form a consecutive run on the linear chain."""
    mems = _chain_order(mems)
    for earlier, later in zip(mems, mems[1:]):
        if later.chain is None or later.chain.node is not earlier:
            return False
    return True


def _splice_chains(dag: SelDag, mems: list[DagNode], machine: DagNode):
    mems = _chain_order(mems)
    dag.set_edge(machine, CHAIN, mems[0].chain)
    dag.replace_chain_uses(mems[-1], ch(machine))


def _match(ctx: SelectCtx, pat: tgt.PatNode, node: DagNode, binds: dict,
           covered: list, is_root: bool) -> bool:
    """Match the operation `pat` at `node`, adding its captures to `binds`
    and the loads it covers to `covered`. A failed match may leave partial
    additions; the caller discards them, or restores both before a
    commutative retry."""
    kind = pat.kind
    if node.kind != ("Load" if kind == "load" else kind) or node.is_machine:
        return False
    children, ops = pat.children, node.ops
    if len(ops) != len(children):
        return False
    if not is_root and (kind == "load" or pat.oneuse):
        if ctx.dag.value_use_count(node) != 1:
            return False
    if kind == "load":
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
            if node.kind != "Constant":
                return False
            imm = tgt.sext(node.value, 32)
            if not tgt.fits(kind, imm):
                return False
            binds[pat.name] = MOp.imm(imm)
        elif not _match(ctx, pat, node, binds, covered, False):
            return False
    return True


def _emit_target(ctx: SelectCtx, pat: tgt.PatNode, binds: dict) -> DagNode:
    ops = []
    for c in pat.children:
        if c.kind == "capture":
            b = binds[c.name]
            ops.append(ctx.reg_operand(b) if isinstance(b, DagValue) else b)
        elif c.kind == "const":
            ops.append(MOp.imm(c.value))
        else:
            ops.append(val(_emit_target(ctx, c, binds)))
    return ctx.make_machine(pat.kind, ops)


def _try_patterns(ctx: SelectCtx, node: DagNode) -> DagNode | None:
    for pat in ctx.patterns.get(node.kind, ()):
        binds: dict = {}
        covered: list[DagNode] = []
        if not _match(ctx, pat.source, node, binds, covered, True):
            continue
        if covered and not _chain_adjacent(ctx.dag, covered):
            continue
        new = _emit_target(ctx, pat.target, binds)
        if covered:
            _splice_chains(ctx.dag, covered, new)
        ctx.debug(f"pattern {pat.source.kind} -> {pat.target.kind} "
                  f"matched at {node!r}")
        return new
    return None


def _fold_addr(ctx: SelectCtx, addr: DagValue):
    """Addressing-mode selection: returns (base operand, offset operand)."""
    node = addr.node
    if node.kind == "ADD_LO":
        hi, g = node.ops
        lui = _select_node(ctx, hi.node)
        return val(lui), MOp.sym(g.node.value, "lo12")
    if node.kind == "add":
        base, off = node.ops
        if off.node.kind == "Constant":
            imm = tgt.sext(off.node.value, 32)
            if tgt.fits("imm12", imm) and base.node.kind != "Constant":
                return ctx.reg_operand(base), MOp.imm(imm)
    return ctx.reg_operand(addr), MOp.imm(0)


def _select_fallback(ctx: SelectCtx, node: DagNode) -> DagNode:
    kind = node.kind
    if kind == "Load":
        base, off = _fold_addr(ctx, node.ops[0])
        lw = ctx.make_machine("LW", [base, off], chain=node.chain)
        ctx.dag.replace_chain_uses(node, ch(lw))
        return lw
    if kind == "Store":
        value, addr = node.ops
        base, off = _fold_addr(ctx, addr)
        sw = ctx.make_machine("SW", [ctx.reg_operand(value), base, off],
                              chain=node.chain)
        ctx.dag.replace_chain_uses(node, ch(sw))
        return sw
    if kind == "HI":
        g = node.ops[0].node
        return ctx.make_machine("LUI", [MOp.sym(g.value, "hi20")])
    if kind == "ADD_LO":
        hi, g = node.ops
        return ctx.make_machine("ADDI", [ctx.reg_operand(hi),
                                         MOp.sym(g.node.value, "lo12")])
    # name the disabled instructions that would have covered the node
    needs = {f"{p.target.kind} requires extension {p.ext}": None
             for p in ctx.desc.patterns
             if p.ext not in ctx.ext and _root_kind(p) == kind}
    why = f" ({', '.join(needs)})" if needs else ""
    raise IselError(f"uncovered node kind {kind!r}{why}")


def _select_node(ctx: SelectCtx, node: DagNode) -> DagNode:
    """Select one generic node; returns its machine replacement."""
    if node.is_machine:
        return node
    replacement = _try_patterns(ctx, node)
    if replacement is None:
        replacement = _select_fallback(ctx, node)
    ctx.dag.replace_value_uses(node, val(replacement))
    return replacement


def select(dag: SelDag, desc: tgt.TargetDesc, ext: frozenset[str],
           zba_threshold: int = 2) -> tuple[SelDag, list[str]]:
    """Cover every generic node with machine nodes. Hooks first, then
    declarative patterns by priority, then fallbacks."""
    ctx = SelectCtx(dag, desc, ext, zba_threshold)

    root = dag.root
    # consumers before producers: reverse postorder from the root, with an
    # explicit stack, as dependency chains can outgrow the recursion limit
    order: list[DagNode] = []
    seen = {id(root)}
    stack = [(root, _edges(root))]
    while stack:
        n, edges = stack[-1]
        for _, v in edges:
            if id(v.node) not in seen:
                seen.add(id(v.node))
                stack.append((v.node, _edges(v.node)))
                break
        else:
            stack.pop()
            order.append(n)

    for node in reversed(order):
        if node.is_machine or node.kind in NON_INSTR_KINDS:
            continue
        if not dag.live(node):
            continue
        if node.kind == "ret":
            jalr = ctx.make_machine("JALR", [MOp.preg(X0), MOp.preg(RA),
                                             MOp.imm(0)])
            jalr.vt = "none"  # rd is pinned to x0, no result to allocate
            dag.set_edge(jalr, CHAIN, node.chain)
            dag.set_edge(jalr, RET, node.ret_value)
            dag.root = jalr
            continue
        if node.kind in ("Constant", "GlobalAddress"):
            continue  # consumed by users; materialized on demand
        hook = HOOKS.get(node.kind)
        matched = hook(ctx, node) if hook is not None else None
        if matched is not None:
            dag.replace_value_uses(node, val(matched))
        else:
            _select_node(ctx, node)

    # ret value may be a bare constant: materialize it now
    if dag.root.ret_value is not None:
        dag.set_edge(dag.root, RET, ctx.reg_operand(dag.root.ret_value))
    dag.prune()
    for n in dag.live_nodes():
        if not n.is_machine and n.kind not in NON_INSTR_KINDS:
            raise IselError(f"selection left generic node {n!r}")
    return dag, ctx.debug_lines


# --------------------------------------------------------------------------
# Schedule
# --------------------------------------------------------------------------

def schedule(dag: SelDag) -> MachineFunction:
    """Deterministic Kahn topological linearization (ready set ordered by
    node creation index), then one MachineInstr per machine node over fresh
    virtual registers."""
    nodes = dag.live_nodes()
    # each node's operand edges not yet scheduled, counted from the use
    # lists, which hold every edge of a live node
    indeg = dict.fromkeys(nodes, 0)
    for users in dag._uses.values():
        for user, _ in users:
            indeg[user] += 1
    ready = [n.uid for n in nodes if indeg[n] == 0]
    heapq.heapify(ready)
    by_uid = {n.uid: n for n in nodes}
    linear: list[DagNode] = []
    while ready:
        n = by_uid[heapq.heappop(ready)]
        linear.append(n)
        for s, _ in dag._uses.get(n, ()):
            indeg[s] -= 1
            if indeg[s] == 0:
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
    nodes = dag.live_nodes()
    names = {id(n): f"n{n.uid}" for n in nodes}

    def label(n: DagNode) -> str:
        extra = ""
        if n.kind == "Constant":
            extra = f"<{tgt.sext(n.value, 32)}>"
        elif n.kind == "GlobalAddress":
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
