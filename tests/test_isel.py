import ast
import collections
import dataclasses
import io
import itertools
import random
import re
import sys
import tokenize

import pytest

from rv32x import codegen, driver, ir, isel, sim
from rv32x import target as tgt
from rv32x.mir import MOp, MachineInstr

from conftest import (ALL_MATTRS, CORPUS_SHAPES, PKG_ROOT, assert_runs_like_ir,
                      compile_corpus, compile_fn, corpus_module, corpus_text,
                      eval_pattern, histogram, rotr32)
from test_fuzz import (gen_arith_fn, gen_large_fn, gen_memory_fn,
                       gen_shift_pair_fn)
from test_golden import _synth_gen_function


def build(name, fname=None, opt=False):
    mod = corpus_module(name)
    if opt:
        from rv32x import midend
        mod, _ = midend.run_pipeline(mod, midend.DEFAULT_PIPELINE)
    fn = mod.function(fname) if fname else mod.functions[0]
    return isel.build_dag(fn), mod


# --------------------------------------------------------------------------
# build_dag
# --------------------------------------------------------------------------

def test_build_madd_dag_shape():
    dag, _ = build("madd.ll")
    kinds = [n.kind for n in dag.nodes]
    assert "mul" in kinds and "add" in kinds and "store" in kinds
    # the mul feeds the add which feeds a store, all on one chain
    addn = next(n for n in dag.nodes if n.kind == "add")
    assert any(isinstance(op, isel.DagNode) and op.kind == "mul"
               for op in addn.ops)


def test_build_ret_only():
    dag, _ = build("identity.ll")
    kinds = sorted(n.kind for n in dag.nodes)
    assert kinds == ["EntryToken", "Register", "ret"]


def test_two_loads_of_same_global_share_address_node():
    text = """
@g = global i32 0
define i32 @f() {
  %a = load i32, ptr @g
  %b = load i32, ptr @g
  %r = add i32 %a, %b
  ret i32 %r
}
"""
    mod = ir.parse_ir(text)
    dag = isel.build_dag(mod.functions[0])
    nodes = dag.nodes
    assert sum(1 for n in nodes if n.kind == "load") == 2
    assert sum(1 for n in nodes if n.kind == "GlobalAddress") == 1


def test_node_count_matches_ir_walk():
    # oracle: one node per instruction, plus one per distinct constant,
    # distinct global, argument and the entry token
    for name in ("sbox.ll", "madd.ll", "rori.ll", "mul6.ll"):
        mod = corpus_module(name)
        fn = mod.functions[0]
        dag = isel.build_dag(fn)
        consts = set()
        globs = set()
        for inst in fn.body:
            for op in inst.operands:
                if op.kind == "const":
                    consts.add(op.const & 0xFFFFFFFF)
                elif op.kind == "global":
                    globs.add(op.name)
            if inst.opcode == "getelementptr":
                consts.add(inst.operands[1].const & 0xFFFFFFFF)
        want = len(fn.body) + len(consts) + len(globs) + len(fn.params) + 1
        assert len(dag.nodes) == want, name


def test_chain_threads_memory_ops():
    dag, _ = build("sbox.ll")
    mems = [n for n in dag.nodes if n.kind in ("load", "store")]
    assert mems
    mems.sort(key=lambda n: n.uid)
    assert dag.nodes[0].kind == "EntryToken"
    prev = dag.entry
    for m in mems:
        assert m.chain is not None and m.chain is prev
        prev = m


# --------------------------------------------------------------------------
# combine
# --------------------------------------------------------------------------

def test_combine_post_legalize_is_noop_on_minimal_dag(desc):
    dag, _ = build("shlxor.ll")
    isel.legalize(dag, desc, tgt.parse_mattr("+xcrypt"))
    before = [(n.uid, n.kind) for n in dag.nodes]
    isel.combine(dag)
    assert [(n.uid, n.kind) for n in dag.nodes] == before


# --------------------------------------------------------------------------
# legalize
# --------------------------------------------------------------------------

def test_global_address_becomes_add_lo_hi(desc):
    dag, _ = build("madd.ll")
    isel.legalize(dag, desc, tgt.parse_mattr(None))
    store = next(n for n in dag.nodes if n.kind == "store")
    addr = store.ops[1]
    assert addr.kind == "add"
    assert addr.ops[0].kind == "HI"
    assert addr.ops[1].kind == "LO"
    assert addr.ops[0].value == addr.ops[1].value == "a"


@pytest.mark.parametrize("level", ["O0", "O2"])
def test_accesses_of_one_global_share_one_lui(desc, level):
    # the loads and the store of @g share one add(HI, LO), and the HI leaf
    # is materialized once
    text = ("@g = global i32 5\n"
            "define i32 @f(i32 %a) {\n"
            "  %x = load i32, ptr @g\n  %y = load i32, ptr @g\n"
            "  %s = add i32 %x, %y\n  store i32 %s, ptr @g\n"
            "  ret i32 %s\n}\n")
    cm = driver.compile_ir_text(text, "g", desc, tgt.parse_mattr(None), level)
    asm = cm.functions["f"].asm
    assert histogram(asm)["lui"] == 1, asm
    assert asm.count("%lo(g)") == 3 - (level == "O2"), asm


# a store and a load through a constant pointer plus a gep offset
CONST_PTR_IR = """
define i32 @f(i32 %v) {
  %p = getelementptr i32, ptr 16384, i32 1
  store i32 %v, ptr %p
  %x = load i32, ptr %p
  %r = add i32 %x, 1
  ret i32 %r
}
"""

# a global's address used as a value: stored through a pointer, stored into
# another global, and offset by a gep
GLOBAL_VALUE_IR = """
@g = global i32 7
@h = global i32 0
define i32 @f(ptr %p) {
  store ptr @g, ptr %p
  store ptr @g, ptr @h
  %q = getelementptr i32, ptr @g, i32 3
  store i32 5, ptr %q
  %a = load i32, ptr %p
  %b = load i32, ptr @h
  %s = add i32 %a, %b
  ret i32 %s
}
"""


def _compile_and_run(desc, text, mattr, level, inputs):
    """Compile `text` and check that it runs like the IR interpreter."""
    cm = driver.compile_ir_text(text, "t.ll", desc, tgt.parse_mattr(mattr),
                                level)
    mod = ir.parse_ir(text)
    gaddrs = sim.assign_global_addrs(mod)
    for _, mem in inputs:
        mem.update(sim.seed_globals(mod, gaddrs))
    cf = cm.functions["f"]
    assert_runs_like_ir(mod.functions[0], cf.mf, desc, inputs, gaddrs)
    return cf


@pytest.mark.parametrize("mattr", [None, "+zba,+zbb,+xcrypt"])
@pytest.mark.parametrize("level", ["O0", "O2"])
def test_constant_pointer_offset_folds_into_the_access(desc, mattr, level):
    # the LW and SW patterns match (add $rs1 $imm12) with a constant base
    # too: the base is materialized and the gep offset is the immediate
    cf = _compile_and_run(desc, CONST_PTR_IR, mattr, level,
                          [([v], {}) for v in (0, 1, 0xFFFFFFFF, 1234567)])
    mems = [mi for mi in cf.mf.instrs if mi.mnemonic in ("LW", "SW")]
    assert mems and all(mi.ops[-1] == MOp.imm(4) for mi in mems), cf.asm
    assert len(cf.mf.instrs) == 5, cf.asm


@pytest.mark.parametrize("mattr", [None, "+zba,+zbb,+xcrypt"])
@pytest.mark.parametrize("level", ["O0", "O2"])
def test_global_address_used_as_a_value(desc, mattr, level):
    cf = _compile_and_run(desc, GLOBAL_VALUE_IR, mattr, level,
                          [([0x4000], {}), ([0x4010], {0x4010: 9})])
    # one lui per global; @g's full address is made once, by one addi, and
    # the gep's offset folds into the store through it
    assert histogram(cf.asm)["lui"] == 2, cf.asm
    assert cf.asm.count("%lo(g)") == 1 and "12(" in cf.asm, cf.asm


def test_rotr_kept_legal_under_zbb(desc):
    dag, _ = build("rori.ll", opt=True)
    isel.legalize(dag, desc, tgt.parse_mattr("+zbb"))
    assert any(n.kind == "rotr" for n in dag.nodes)


def test_rotr_expands_without_rotate_support(desc):
    dag, _ = build("rori.ll", opt=True)
    isel.legalize(dag, desc, tgt.parse_mattr(None))
    kinds = [n.kind for n in dag.nodes]
    assert "rotr" not in kinds
    assert "shl" in kinds and "srl" in kinds and "or" in kinds


def test_rotr_expansion_matches_simulator(desc):
    # compiled base expansion agrees with the rotate oracle on 1000 inputs
    _, _, mf, _ = compile_corpus("rori.ll", desc, None)
    words = codegen.emit_words(mf, desc, {})
    rng = random.Random(17)
    for _ in range(1000):
        x = rng.getrandbits(32)
        got, _, _ = sim.run_function(words, [x], {}, desc=desc)
        assert got == rotr32(x, 2)


def test_funnel_with_distinct_inputs_rejected(desc):
    text = """
define i32 @f(i32 %a, i32 %b) {
  %r = call i32 @llvm.fshr.i32(i32 %a, i32 %b, i32 2)
  ret i32 %r
}
"""
    mod = ir.parse_ir(text)
    dag = isel.build_dag(mod.functions[0])
    with pytest.raises(isel.IselError, match="funnel shift"):
        isel.legalize(dag, desc, tgt.parse_mattr(None))


def test_negative_gep_offset_folds_and_simulates(desc):
    text = """
define i32 @f(ptr %p) {
  %q = getelementptr i8, ptr %p, i32 -4
  %v = load i32, ptr %q
  ret i32 %v
}
"""
    mod = ir.parse_ir(text)
    mf, _ = compile_fn(mod.functions[0], desc_cache, None)
    asm = codegen.print_asm(mf, desc_cache)
    assert "-4(" in asm
    words = codegen.emit_words(mf, desc_cache, {})
    mem = {}
    sim.mem_write32(mem, 0x4000 - 4, 0xCAFEF00D)
    got, _, _ = sim.run_function(words, [0x4000], mem, desc=desc_cache)
    assert got == 0xCAFEF00D


def test_oversized_rotate_amount_masks_to_five_bits(desc):
    text = """
define i32 @f(i32 %a) {
  %r = call i32 @llvm.fshr.i32(i32 %a, i32 %a, i32 35)
  ret i32 %r
}
"""
    mod = ir.parse_ir(text)
    for mattr in (None, "+zbb", "+xcrypt"):
        mf, _ = compile_fn(mod.functions[0], desc, mattr)
        words = codegen.emit_words(mf, desc, {})
        rng = random.Random(71)
        for _ in range(64):
            x = rng.getrandbits(32)
            got, _, _ = sim.run_function(words, [x], {}, desc=desc)
            want, _ = sim.ir_interpret(mod.functions[0], [x])
            assert got == want == rotr32(x, 3)


def test_fshr_with_equal_inputs_becomes_rotr(desc):
    text = """
define i32 @f(i32 %a) {
  %r = call i32 @llvm.fshr.i32(i32 %a, i32 %a, i32 7)
  ret i32 %r
}
"""
    mod = ir.parse_ir(text)
    dag = isel.build_dag(mod.functions[0])
    isel.legalize(dag, desc, tgt.parse_mattr("+zbb"))
    rot = [n for n in dag.nodes if n.kind == "rotr"]
    assert len(rot) == 1


# --------------------------------------------------------------------------
# select
# --------------------------------------------------------------------------

def test_mla_selected_for_mul_add(desc):
    _, _, _, asm = compile_corpus("madd.ll", desc, "+xcrypt")
    h = histogram(asm)
    assert h.get("mla") == 1
    assert "mul" not in h and "add" not in h


def test_sh1add_chain_for_mul_by_six(desc):
    _, _, _, asm = compile_corpus("mul6.ll", desc, "+zba")
    h = histogram(asm)
    assert h.get("sh1add") == 2 and "mul" not in h
    body = [l for l in asm.splitlines()[1:] if l.strip()]
    assert len(body) == 3  # two sh1add + ret


def test_one_use_predicate_keeps_reused_mul(desc):
    _, _, _, asm = compile_corpus("mul6_reuse.ll", desc, "+zba")
    h = histogram(asm)
    assert h.get("mul") == 1
    assert "sh1add" not in h


def test_mul_by_ten_and_eighteen(desc):
    for k, inner in ((10, "sh2add"), (18, "sh3add")):
        text = (f"define i32 @f(i32 %x, i32 %y) {{\n"
                f"  %m = mul i32 %x, {k}\n  %a = add i32 %m, %y\n"
                f"  ret i32 %a\n}}")
        mod = ir.parse_ir(text)
        mf, _ = compile_fn(mod.functions[0], desc_cache, "+zba")
        h = histogram(codegen.print_asm(mf, desc_cache))
        assert h.get("sh1add") == 1 and h.get(inner) == 1


def test_naxor_matches_not_in_either_operand_order(desc):
    # (not x) matches xor(x, -1) and the commuted and/xor forms
    for and_ops, xor_ops in (("%n, %b", "%a2, %c"), ("%b, %n", "%c, %a2")):
        text = f"""
define i32 @f(i32 %x, i32 %b, i32 %c) {{
  %n = xor i32 %x, -1
  %a2 = and i32 {and_ops}
  %r = xor i32 {xor_ops}
  ret i32 %r
}}
"""
        mod = ir.parse_ir(text)
        mf, _ = compile_fn(mod.functions[0], desc, "+xcrypt")
        assert histogram(codegen.print_asm(mf, desc)).get("naxor") == 1


def test_shlxor_pattern(desc):
    _, _, _, asm = compile_corpus("shlxor.ll", desc, "+xcrypt")
    h = histogram(asm)
    assert h.get("shlxor") == 1 and "slli" not in h and "xor" not in h


def test_rori_vs_roti_priority(desc):
    # both Zbb and Xcrypt enabled: RORI wins by declaration order
    _, _, _, asm = compile_corpus("rori.ll", desc, "+zbb,+xcrypt")
    h = histogram(asm)
    assert h.get("rori") == 1 and "roti" not in h
    _, _, _, asm = compile_corpus("rori.ll", desc, "+xcrypt")
    h = histogram(asm)
    assert h.get("roti") == 1


def test_variable_rotate_selects_ror_or_rejects(desc):
    text = """
define i32 @f(i32 %a, i32 %n) {
  %r = call i32 @llvm.fshr.i32(i32 %a, i32 %a, i32 %n)
  ret i32 %r
}
"""
    mod = ir.parse_ir(text)
    fn = mod.functions[0]
    mf, _ = compile_fn(fn, desc, "+zbb")
    assert histogram(codegen.print_asm(mf, desc)).get("ror") == 1
    # Xcrypt's ROTI takes only an immediate amount, so the rotate expands
    mf, _ = compile_fn(fn, desc, "+xcrypt")
    h = histogram(codegen.print_asm(mf, desc))
    assert "ror" not in h and "roti" not in h
    assert h.get("sll") == 1 and h.get("srl") == 1 and h.get("or") == 1
    rng = random.Random(29)
    inputs = [([rng.getrandbits(32), n], {})
              for n in (0, 1, 7, 31, 32, 35, rng.getrandbits(32))]
    assert_runs_like_ir(fn, mf, desc, inputs)


_FUNNEL_AMOUNTS = ("0", "7", "32", "35", "%n")


def test_funnel_rotates_run_like_ir(desc):
    # fshl/fshr with equal inputs, by constant and register amounts, under
    # every extension set: legalized to a rotate instruction or expanded
    fns = [f"define i32 @{op}_{amt.strip('%')}(i32 %a, i32 %n) {{\n"
           f"  %r = call i32 @llvm.{op}.i32(i32 %a, i32 %a, i32 {amt})\n"
           f"  ret i32 %r\n}}\n"
           for op in ("fshl", "fshr") for amt in _FUNNEL_AMOUNTS]
    text = "\n".join(fns)
    ref = ir.parse_ir(text)
    rng = random.Random(41)
    inputs = [([rng.getrandbits(32), n], {})
              for n in (0, 1, 7, 31, 32, 35, 63, rng.getrandbits(32))]
    for mattr, level in itertools.product(ALL_MATTRS, ("O0", "O2")):
        cm = driver.compile_ir_text(text, "funnel.ll", desc,
                                    tgt.parse_mattr(mattr), level)
        for fn in ref.functions:
            assert_runs_like_ir(fn, cm.functions[fn.name].mf, desc, inputs)


# IR binop: (register form, immediate form, the immediate form's range)
_IMM_FORMS = {
    "add": ("ADD", "ADDI", (-2048, 2047)),
    "sub": ("SUB", None, None),
    "mul": ("MUL", None, None),
    "and": ("AND", "ANDI", (-2048, 2047)),
    "or": ("OR", "ORI", (-2048, 2047)),
    "xor": ("XOR", "XORI", (-2048, 2047)),
    "shl": ("SLL", "SLLI", (0, 31)),
    "lshr": ("SRL", "SRLI", (0, 31)),
    "ashr": ("SRA", "SRAI", (0, 31)),
}


@pytest.mark.parametrize("op", ir.BINOPS)
def test_selection_at_immediate_boundaries(desc, op):
    # a constant operand in range selects the immediate form; out of range,
    # it is materialized (li, or lui+addi) and the register form is selected
    rr, ri, bounds = _IMM_FORMS[op]
    consts = [-2049, -2048, 2047, 2048]
    if bounds == (0, 31):
        consts += [31, 32]
    sides = ["right", "left"] if op in ir.COMMUTATIVE else ["right"]
    rng = random.Random(13)
    inputs = [([x], {}) for x in (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)]
    inputs += [([rng.getrandbits(32)], {}) for _ in range(11)]
    for c in consts:
        for side in sides:
            operands = f"%a, {c}" if side == "right" else f"{c}, %a"
            mod = ir.parse_ir(f"define i32 @f(i32 %a) {{\n"
                              f"  %r = {op} i32 {operands}\n"
                              f"  ret i32 %r\n}}\n")
            fn = mod.functions[0]
            mf, _ = compile_fn(fn, desc)
            if ri is not None and bounds[0] <= c <= bounds[1]:
                want = [ri]
            else:
                want = ["ADDI"] if -2048 <= c <= 2047 else ["LUI", "ADDI"]
                want.append(rr)
            assert [mi.mnemonic for mi in mf.instrs] == want + ["JALR"], \
                (op, c, side)
            assert_runs_like_ir(fn, mf, desc, inputs)


def test_lxr_requires_single_use_loads(desc):
    text = """
define i32 @f(ptr %p, ptr %q) {
  %a = load i32, ptr %p
  %b = load i32, ptr %q
  %x = xor i32 %a, %b
  %r = add i32 %x, %a
  ret i32 %r
}
"""
    mod = ir.parse_ir(text)
    mf, _ = compile_fn(mod.functions[0], desc, "+xcrypt")
    h = histogram(codegen.print_asm(mf, desc))
    assert "lxr" not in h and h.get("lw") == 2


def test_lxr_not_folded_across_intervening_store(desc):
    # a store between the two loads blocks the fold: the fused LXR would
    # move the first load past the store. At %p+16 the loads have the
    # hook's shape, and the hook rejects their places on the chain.
    for second in ("%q", "%p16"):
        text = f"""
define i32 @f(ptr %p, ptr %q, i32 %v) {{
  %p16 = getelementptr i8, ptr %p, i32 16
  %a = load i32, ptr %p
  store i32 %v, ptr %p
  %b = load i32, ptr {second}
  %x = xor i32 %a, %b
  ret i32 %x
}}
"""
        mod = ir.parse_ir(text)
        mf, debug = compile_fn(mod.functions[0], desc, "+xcrypt")
        h = histogram(codegen.print_asm(mf, desc))
        assert "lxr" not in h
        # semantics check under aliasing p == q
        mem = {}
        sim.mem_write32(mem, 0x4000, 0xAAAA5555)
        assert_runs_like_ir(mod.functions[0], mf, desc,
                            [([0x4000, 0x4000, 0x1234], mem)])
    assert "  loads are not adjacent on the chain, not folding" in debug


# --------------------------------------------------------------------------
# the imperative hook
# --------------------------------------------------------------------------

def _debug_compile(name, mattr, desc):
    mod = corpus_module(name)
    return compile_fn(mod.functions[0], desc, mattr)


def test_hook_no_match_on_independent_pointers(desc):
    _, debug = _debug_compile("lxr.ll", "+xcrypt", desc)
    text = "\n".join(debug)
    assert "[2] second load address is an add: no" in text
    assert any("pattern xor -> LXR" in l for l in debug)


def test_hook_precedence_over_declarative(desc):
    # on the offset-16 fixture both the hook and the declarative pattern
    # could fire; the hook wins
    _, debug = _debug_compile("lxr_dep16.ll", "+xcrypt", desc)
    hook_line = next(i for i, l in enumerate(debug) if "emitting" in l)
    assert not any("pattern" in l for l in debug[:hook_line])


# --------------------------------------------------------------------------
# schedule
# --------------------------------------------------------------------------

def test_schedule_madd_order(desc):
    _, _, mf, asm = compile_corpus("madd.ll", desc, "+xcrypt")
    names = [mi.mnemonic for mi in mf.instrs]
    # the multiply-add result is computed before the store that consumes it
    last_sw = max(i for i, n in enumerate(names) if n == "SW")
    assert names.index("MLA") < last_sw
    assert "LW" not in names  # all loads were forwarded away by the midend


def test_schedule_single_ret(desc):
    _, _, mf, _ = compile_corpus("identity.ll", desc, None)
    assert [mi.mnemonic for mi in mf.instrs] == ["JALR"]


def test_schedule_deterministic(desc):
    for name in ("sbox.ll", "madd.ll", "mul6.ll"):
        a = compile_corpus(name, desc, "+xcrypt")[3]
        b = compile_corpus(name, desc, "+xcrypt")[3]
        assert a == b


def test_memory_order_preserved(desc):
    mod, _, mf, _ = compile_corpus("sbox.ll", desc, "+xcrypt")
    fn = mod.function("sbox")
    ir_seq = [(i.opcode, i.operands[-1].name if i.opcode == "load"
               else i.operands[1].name)
              for i in fn.body if i.opcode in ("load", "store")]
    # collect memory ops from the machine function in emission order
    mem_ops = [mi for mi in mf.instrs if mi.mnemonic in ("LW", "SW")]
    assert len(mem_ops) == len([x for x in ir_seq])
    kinds = [("load" if mi.mnemonic == "LW" else "store") for mi in mem_ops]
    assert kinds == [k for k, _ in ir_seq]
    offsets = [mi.ops[2].val for mi in mem_ops]
    # the IR addresses resolve to these byte offsets in program order
    from rv32x.midend import resolve_addr, _def_map
    defs = _def_map(fn.body)
    want = []
    for inst in fn.body:
        if inst.opcode == "load":
            want.append(resolve_addr(inst.operands[0], defs)[1])
        elif inst.opcode == "store":
            want.append(resolve_addr(inst.operands[1], defs)[1])
    assert offsets == want


def test_extension_monotonicity(desc):
    # enabling extensions never increases the instruction count
    chains = [None, "+zba", "+zba,+zbb", "+zba,+zbb,+xcrypt"]
    for name in sorted(CORPUS_SHAPES):
        counts = []
        for mattr in chains:
            _, _, mf, _ = compile_corpus(name, desc, mattr)
            counts.append(len(mf.instrs))
        assert all(a >= b for a, b in zip(counts, counts[1:])), (name, counts)


# --------------------------------------------------------------------------
# pattern/semantics agreement
# --------------------------------------------------------------------------

def _run_target_tree(node: tgt.PatNode, env, mem, desc):
    """Execute the machine-instruction tree bottom-up in the simulator.
    Returns the root's result (None for a store) and the memory after."""
    state = sim.SimState()
    state.mem = dict(mem)
    reg = iter(range(10, 28))

    def emit(n):
        if n.kind == "capture" or n.kind in tgt.IMM_RANGES:
            v = env[n.name]
            if isinstance(v, tuple):
                return v  # ("imm", k)
            r = next(reg)
            state.regs[r] = v
            return ("reg", r)
        if n.kind == "const":
            return ("imm", n.value)
        srcs = [emit(c) for c in n.children]
        d = desc.instr(n.kind)
        rd = next(reg) if d.defines else None
        ops = [] if rd is None else [MOp.preg(rd)]
        for s in srcs:
            ops.append(MOp.preg(s[1]) if s[0] == "reg" else MOp.imm(s[1]))
        state.program.append(tgt.encode(MachineInstr(n.kind, ops), desc).word)
        sim.step(state, desc)
        return ("reg", rd)

    kind, r = emit(node)
    assert kind == "reg"
    return (None if r is None else state.regs[r]), state.mem


def test_every_pattern_agrees_with_simulator(desc):
    """Each pattern's target, run in the simulator, computes what its source
    does: the same value, and for a store the same memory."""
    rng = random.Random(41)
    for pat in desc.patterns:
        caps = {}  # capture name -> "capture" or its immediate role
        tgt._captures(pat.source, caps)
        addrs = []  # (base capture, offset capture or None) per access

        def find_addrs(node):
            if node.kind in ("load", "store"):
                a = node.children[-1]
                if a.kind == "capture":
                    addrs.append((a.name, None))
                else:
                    assert a.kind == "add", pat
                    addrs.append((a.children[0].name, a.children[1].name))
            for c in node.children:
                find_addrs(c)

        find_addrs(pat.source)
        for trial in range(1000):
            env = {}
            mem = {}
            for c in sorted(caps):
                if caps[c] != "capture":
                    env[c] = ("imm", rng.randint(*tgt.IMM_RANGES[caps[c]]))
                else:
                    env[c] = rng.getrandbits(32)
            # each access reaches its own word: the base is what the offset
            # needs to land there
            for k, (base, off) in enumerate(addrs):
                addr = 0x4000 + 16 * k
                sim.mem_write32(mem, addr, rng.getrandbits(32))
                env[base] = (addr - (env[off][1] if off else 0)) & 0xFFFFFFFF
            src_env = {c: (env[c][1] if isinstance(env[c], tuple) else env[c])
                       for c in env}
            want_mem = dict(mem)
            want = eval_pattern(pat.source, src_env, want_mem)
            got, got_mem = _run_target_tree(pat.target, env, mem, desc)
            assert (got, got_mem) == (want, want_mem), \
                (pat.source.kind, pat.target.kind, trial)
    # the memory patterns were checked: LW and SW, with and without offset
    assert sorted(p.target.kind for p in desc.patterns
                  if p.source.kind in ("load", "store")) == \
        ["LW", "LW", "SW", "SW"]


# --------------------------------------------------------------------------
# generated selectors against a reference matcher
# --------------------------------------------------------------------------

def _match(uses, pat, node, binds, covered, is_root):
    """Reference: the pattern-tree interpreter that selection ran before
    it generated a selector per pattern. Match the operation `pat` at
    `node`, adding its captures to `binds` and the loads and stores it
    covers to `covered`. A failed match may leave partial additions; the
    caller discards them, or restores both before a commutative retry."""
    kind = pat.kind
    if node.kind != kind:
        return False
    children, ops = pat.children, node.ops
    if len(ops) != len(children):
        return False
    if not is_root and (kind == "load" or pat.oneuse) and uses[node] != 1:
        return False
    if kind == "load" or kind == "store":
        covered.append(node)
    if kind in ir.COMMUTATIVE and len(children) == 2:
        saved, n_covered = binds.copy(), len(covered)
        if _match_ops(uses, children, ops, binds, covered):
            return True
        binds.clear()
        binds.update(saved)
        del covered[n_covered:]
        ops = ops[::-1]
    return _match_ops(uses, children, ops, binds, covered)


def _match_ops(uses, children, ops, binds, covered):
    """Match each pattern child at the operand in the same place. Leaves
    are matched here; operations recurse into _match."""
    for pat, node in zip(children, ops):
        kind = pat.kind
        if kind == "capture":
            if binds.setdefault(pat.name, node) is not node:
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
        elif not _match(uses, pat, node, binds, covered, False):
            return False
    return True


def _emit_target(ctx, pat, binds, desc):
    """Reference: make the machine nodes of `pat`, inner instructions
    first, then materialize its register operands in register order."""
    ops = []
    for c in pat.children:
        if c.kind == "capture":
            ops.append(binds[c.name])
        elif c.kind == "const":
            ops.append(MOp.imm(c.value))
        else:
            ops.append(_emit_target(ctx, c, binds, desc))
    for i in desc.instr(pat.kind).source_order:
        if type(ops[i]) is isel.DagNode:
            ops[i] = ctx.reg_operand(ops[i])
    return ctx.make_machine(pat.kind, ops)


class _Probe:
    """Stands in for a SelectCtx and logs what is done with it: each
    operand materialized, each machine node made and the loads and stores
    spliced. A machine node logs as its place in the log, so that two logs
    compare."""

    def __init__(self, uses):
        self.uses = uses
        self.log = []

    def reg_operand(self, v):
        self.log.append(("reg", self.plain(v)))
        return v

    def make_machine(self, mnemonic, ops, chain=None):
        self.log.append(("make", mnemonic, [self.plain(op) for op in ops]))
        return isel.DagNode(mnemonic, ops, uid=len(self.log), is_machine=True)

    def splice(self, mems, machine):
        self.log.append(("splice", sorted(n.uid for n in mems),
                         self.plain(machine)))

    @staticmethod
    def plain(op):
        return ("made", op.uid) if getattr(op, "is_machine", False) else op


def _reference_outcome(p, node, uses, desc):
    """What the reference does with pattern `p` at `node`: None, or the
    probe's log of the cover it makes. The log shows the binds as the
    target reads them and the loads and stores covered."""
    binds, covered = {}, []
    if not _match(uses, p.source, node, binds, covered, True):
        return None
    order = sorted(covered, key=lambda n: n.uid)
    if any(later.chain is not earlier
           for earlier, later in zip(order, order[1:])):
        return None
    probe = _Probe(uses)
    m = _emit_target(probe, p.target, binds, desc)
    if covered:
        probe.splice(covered, m)
    return probe.log + [("return", probe.plain(m))]


def _generated_outcome(p, node, uses, desc):
    probe = _Probe(uses)
    m = isel.pattern_selector(p, desc)(probe, node)
    if m is None:
        assert probe.log == [], p  # a selector that fails makes nothing
        return None
    return probe.log + [("return", probe.plain(m))]


def _compare_selectors(dag, desc, ext, seen):
    """At every generic node of `dag`, each enabled pattern of its kind
    gives the same outcome through its selector as through the reference,
    and the selection table lists the selectors in priority order."""
    uses = collections.Counter()  # value users, the return's included
    for n in dag.nodes:
        uses.update(n.ops)
    if dag.root.ret_value is not None:
        uses[dag.root.ret_value] += 1
    enabled = sorted((p for p in desc.patterns if p.ext in ext),
                     key=lambda p: -p.priority)
    table = isel._selectors(desc, ext)
    for n in dag.nodes:
        pats = [p for p in enabled if p.source.kind == n.kind]
        assert list(table.by_kind.get(n.kind, ())) == \
            [isel.pattern_selector(p, desc) for p in pats]
        for p in pats:
            want = _reference_outcome(p, n, uses, desc)
            assert _generated_outcome(p, n, uses, desc) == want, (p, n)
            seen["matched" if want else "failed"] += 1
            if want and n.kind in ir.COMMUTATIVE and \
                    n.ops[0].kind == "Constant":
                seen["constant on the left"] += 1
        if n.kind == "rotr":  # legalize's test, without selection state
            for p in pats:
                if not any(c.children for c in p.source.children):
                    sel = isel.pattern_selector(p, desc)
                    assert bool(sel(None, n)) == bool(
                        _match(uses, p.source, n, {}, [], True)), (p, n)
                    seen["rotate tests"] += 1


# Patterns that the shipped description lacks, for the comparison alone
# (selection does not run them): a capture repeated in one commutative node
# and across two, an immediate capture repeated (the later one binds), a
# name captured as a register and then as an immediate and the other way
# round, loads at two depths, two loads of one address, and capture names
# that are not identifiers. WIDE_IR gives each of them a node to match, but
# the one that can never match, and two loads apart on the chain.
_WIDE_PATTERNS = """
pattern (add $a $a) => (SLLI $a (const 1))
pattern (or (and $a $b) (and $b $a)) => (AND $a $b)
pattern (add (shl $a (uimm5 $n)) (shl $b (uimm5 $n))) => (SLLI (ADD $a $b) $n)
pattern (add (sub $a $n) (uimm5 $n)) => (ADDI $a $n)
pattern (add (uimm5 $n) (sub $a $n)) => (ADD $a $n)
pattern (xor (load $a) (xor (load $b) $c)) => (XOR (LXR $a $b) $c)
pattern (xor (load $a) (load $a)) => (LXR $a $a)
pattern (sub $a.b $c") => (SUB $a.b $c")
"""

WIDE_IR = """
define i32 @wide(ptr %p, i32 %a, i32 %b) {
  %d = add i32 %a, %a
  %s1 = shl i32 %a, 3
  %s2 = shl i32 %b, 3
  %s3 = shl i32 %b, 4
  %e1 = add i32 %s1, %s2
  %e2 = add i32 %s2, %s3
  %x = and i32 %a, %b
  %y = and i32 %b, %a
  %o = or i32 %x, %y
  %u = sub i32 %a, %b
  %v = add i32 %u, 7
  %w = add i32 9, %u
  %l1 = load i32, ptr %p
  %q = getelementptr i8, ptr %p, i32 4
  %l2 = load i32, ptr %q
  %z1 = xor i32 %l2, %b
  %z2 = xor i32 %l1, %z1
  %l3 = load i32, ptr %q
  %l4 = load i32, ptr %q
  %z3 = xor i32 %l3, %l4
  %l5 = load i32, ptr %p
  %t = getelementptr i8, ptr %p, i32 8
  store i32 %a, ptr %t
  %l6 = load i32, ptr %q
  %z4 = xor i32 %l5, %l6
  %r1 = xor i32 %d, %e1
  %r2 = xor i32 %r1, %e2
  %r3 = xor i32 %r2, %o
  %r4 = xor i32 %r3, %v
  %r5 = xor i32 %r4, %w
  %r6 = xor i32 %r5, %z2
  %r7 = xor i32 %r6, %z3
  %r8 = xor i32 %r7, %z4
  ret i32 %r8
}
"""


def test_generated_selectors_agree_with_the_reference_matcher(
        monkeypatch, desc):
    text = (PKG_ROOT / "targets" / "rv32_xcrypt.desc").read_text()
    wide = tgt.load_target_desc(text + _WIDE_PATTERNS)  # under Xcrypt
    seen = collections.Counter()
    real_select = isel.select

    def checked(dag, desc, ext):
        out = real_select(dag, desc, ext)
        # select leaves dag as it is
        _compare_selectors(dag, desc, ext, seen)
        _compare_selectors(dag, wide, ext, collections.Counter())
        return out

    monkeypatch.setattr(isel, "select", checked)
    cases = [(corpus_text(name), mattr, level)
             for name in sorted(CORPUS_SHAPES) for mattr in ALL_MATTRS
             for level in ("O0", "O2")
             if not (name == "sbox_unopt.ll" and level == "O0")]  # allocas
    full = "+zba,+zbb,+xcrypt"
    rng = random.Random(11)
    gen_synth = _synth_gen_function()
    cases += [(gen_synth(rng, f"synth{n}", n), mattr, "O2")
              for n in (100, 200, 400) for mattr in (None, full)]
    cases += [(gen_large_fn(random.Random(n), n, n), mattr, level)
              for n in (100, 200) for mattr in (None, full)
              for level in ("O0", "O2")]
    rng = random.Random(24)
    cases += [(text, mattr, level)
              for text in [gen_shift_pair_fn(rng, i) for i in range(4)]
              + [WIDE_IR]
              for mattr in ALL_MATTRS for level in ("O0", "O2")]
    for text, mattr, level in cases:
        driver.compile_ir_text(text, "t", desc, tgt.parse_mattr(mattr), level)
    # -O0 keeps constants on the left, so commutative retries happen
    assert min(seen.values()) > 0 and len(seen) == 4, seen


# the names a selector's source may hold besides v1, v2, ...
_SELECTOR_NAMES = {"def", "select", "ctx", "n", "if", "not", "return", "None",
                   "and", "or", "is", "len", "MOp", "imm", "sym", "kind",
                   "ops", "value", "uses", "adjacent", "reg", "make",
                   "reg_operand", "make_machine", "splice"}


def _assert_generated_only(source):
    """`source` holds the fixed names, v1, v2, ..., integer literals and
    string literals: nothing of a record's text runs as code."""
    kinds = {tokenize.NAME, tokenize.NUMBER, tokenize.STRING, tokenize.OP,
             tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        assert tok.type in kinds, (tok, source)
        if tok.type == tokenize.NAME:
            assert tok.string in _SELECTOR_NAMES or \
                re.fullmatch(r"v[1-9][0-9]*", tok.string), (tok, source)
        elif tok.type == tokenize.NUMBER:
            assert type(ast.literal_eval(tok.string)) is int, (tok, source)
        elif tok.type == tokenize.STRING:
            assert type(ast.literal_eval(tok.string)) is str, (tok, source)


@pytest.fixture
def selector_sources(monkeypatch):
    """Generate every selector afresh and record its source."""
    sources = []
    real = isel._selector_source

    def recording(p, orders):
        sources.append(real(p, orders))
        return sources[-1]

    monkeypatch.setattr(isel, "_SELECTORS", {})
    monkeypatch.setattr(isel, "_selector_source", recording)
    return sources


def test_generated_selector_source_holds_no_record_text(selector_sources):
    text = (PKG_ROOT / "targets" / "rv32_xcrypt.desc").read_text()
    desc = tgt.load_target_desc(text + _WIDE_PATTERNS)
    assert selector_sources == []  # loading generates nothing
    table = isel._selectors(desc, frozenset(tgt.ALL_EXTENSIONS))
    assert len(selector_sources) == len(desc.patterns)
    for source in selector_sources:
        _assert_generated_only(source)
    for sels in table.by_kind.values():
        for sel in sels:
            assert sel.__globals__["__builtins__"] == {}


# Zbkb's andn (funct7 0b0100000, funct3 0b111), added as text only
ANDN_DESC = """
instr ANDN fmt=R opcode=0b0110011 funct3=0b111 funct7=0b0100000 ops=rd,rs1,rs2 asm=andn sem=(and $rs1 (not $rs2))
"""

ANDN_IR = """
define i32 @andn(i32 %a, i32 %b) {
  %nb = xor i32 %b, -1
  %r = and i32 %a, %nb
  ret i32 %r
}
"""


def test_new_instruction_is_one_desc_edit():
    """An instruction added to the description text alone is selected,
    printed, encoded and simulated like the IR says."""
    text = (PKG_ROOT / "targets" / "rv32_xcrypt.desc").read_text()
    desc = tgt.load_target_desc(text + ANDN_DESC)  # under extension Xcrypt
    assert desc.instrs["ANDN"].ext == "Xcrypt"
    ext = tgt.parse_mattr("+xcrypt")
    cm = driver.compile_ir_text(ANDN_IR, "andn.ll", desc, ext)
    cf = cm.functions["andn"]
    assert [mi.mnemonic for mi in cf.mf.instrs] == ["ANDN", "JALR"]
    assert "andn\ta0, a0, a1" in cf.asm
    fn = ir.parse_ir(ANDN_IR).functions[0]
    rng = random.Random(3)
    inputs = [([rng.getrandbits(32), rng.getrandbits(32)], {})
              for _ in range(64)]
    assert_runs_like_ir(fn, cf.mf, desc, inputs)
    # without the extension the base sequence is selected
    base = driver.compile_ir_text(ANDN_IR, "andn.ll", desc,
                                  tgt.parse_mattr(None))
    assert "ANDN" not in [mi.mnemonic for mi in base.functions["andn"].mf.instrs]


# a register rotate in the custom-0 opcode space, added as text only
RORX_DESC = """
instr RORX fmt=R opcode=0b0001011 funct3=0b101 funct7=0b0000000 ops=rd,rs1,rs2 asm=rorx sem=(rotr $rs1 $rs2)
"""

RORX_IR = """
define i32 @rorx(i32 %a, i32 %b) {
  %r = call i32 @llvm.fshr.i32(i32 %a, i32 %a, i32 %b)
  ret i32 %r
}
"""


def test_new_rotate_is_one_desc_edit():
    """A rotate instruction added to the description text alone keeps the
    rotate legal and is selected: legalize reads the enabled patterns."""
    text = (PKG_ROOT / "targets" / "rv32_xcrypt.desc").read_text()
    desc = tgt.load_target_desc(text + RORX_DESC)  # under extension Xcrypt
    assert desc.instrs["RORX"].ext == "Xcrypt"

    def mnemonics(mattr):
        cm = driver.compile_ir_text(RORX_IR, "rorx.ll", desc,
                                    tgt.parse_mattr(mattr))
        return cm.functions["rorx"].mf, \
            [mi.mnemonic for mi in cm.functions["rorx"].mf.instrs]

    mf, got = mnemonics("+xcrypt")
    assert got == ["RORX", "JALR"]
    fn = ir.parse_ir(RORX_IR).functions[0]
    rng = random.Random(4)
    inputs = [([rng.getrandbits(32), rng.getrandbits(32)], {})
              for _ in range(64)]
    assert_runs_like_ir(fn, mf, desc, inputs)
    # without a register rotate the rotate expands into shifts
    _, base = mnemonics(None)
    assert "RORX" not in base and {"SLL", "SRL", "OR"} <= set(base)
    assert mnemonics("+zbb")[1] == ["ROR", "JALR"]


def test_a_pattern_listed_before_its_targets_extension_is_diagnosed():
    """A pattern is enabled with the extension it is listed under, and its
    target needs its own: one under I that makes MUL matches a mul under
    -m, and selection rejects it there, naming the extension."""
    text = (PKG_ROOT / "targets" / "rv32_xcrypt.desc").read_text()
    desc = tgt.load_target_desc(
        text + "extension I\npattern (mul $a $b) => (MUL $a $b)\n")
    with pytest.raises(isel.IselError, match="^MUL requires extension M$"):
        driver.compile_ir_text(corpus_text("mul6.ll"), "mul6.ll", desc,
                               tgt.parse_mattr("-m"))


# capture names that are not identifiers, some of them code
_ODD_NAMES = ["a;x=1", "a.b", 'a"', "a'", "a\\", "__import__", "n", "ctx",
              "v1", "len", "a+b", "f()", "a,b", "{a}", "a:=1"]


@pytest.mark.parametrize("name", _ODD_NAMES)
def test_an_odd_capture_name_selects_or_is_rejected(name, selector_sources):
    """A pattern whose capture name is not an identifier either selects
    as its record says or is rejected, with its line named; its name never
    becomes code."""
    text = (PKG_ROOT / "targets" / "rv32_xcrypt.desc").read_text() + ANDN_DESC
    record = f"pattern (and ${name} (not $b)) => (ANDN ${name} $b)"
    line = len((text + record).splitlines())
    try:
        desc = tgt.load_target_desc(text + record)  # under extension Xcrypt
    except tgt.TargetError as e:
        assert str(e).startswith(f"line {line}: "), e
        return
    odd = desc.patterns[-1]
    assert odd.source.children[0].name == name
    # ANDN's sem gives it a pattern of the same size earlier in the file,
    # which would select it first: drop it, so only the odd record does
    own = desc.instrs["ANDN"].pattern
    desc = dataclasses.replace(
        desc, patterns=tuple(p for p in desc.patterns if p is not own))
    assert [p for p in desc.patterns if p.target.kind == "ANDN"] == [odd]
    cm = driver.compile_ir_text(ANDN_IR, "andn.ll", desc,
                                tgt.parse_mattr("+xcrypt"))
    mf = cm.functions["andn"].mf
    assert [mi.mnemonic for mi in mf.instrs] == ["ANDN", "JALR"]
    fn = ir.parse_ir(ANDN_IR).functions[0]
    rng = random.Random(5)
    inputs = [([rng.getrandbits(32), rng.getrandbits(32)], {})
              for _ in range(16)]
    assert_runs_like_ir(fn, mf, desc, inputs)
    assert selector_sources
    for source in selector_sources:
        _assert_generated_only(source)


# --------------------------------------------------------------------------
# coverage and dot
# --------------------------------------------------------------------------

def test_selection_covers_all_corpus_inputs(desc):
    for name in sorted(CORPUS_SHAPES):
        for mattr in ALL_MATTRS:
            compile_corpus(name, desc, mattr)  # raises on uncovered nodes


def test_dot_export(desc):
    dag, _ = build("madd.ll")
    dot = isel.emit_dot(dag, "built")
    assert dot.startswith("digraph")
    assert '"mul' in dot or 'label="mul' in dot
    assert "style=dashed" in dot


def test_dot_empty_function():
    text = "define void @f() {\n  ret void\n}"
    mod = ir.parse_ir(text)
    dag = isel.build_dag(mod.functions[0])
    dot = isel.emit_dot(dag)
    assert dot.count("label=") == 2  # EntryToken + ret


def test_post_select_sbox_dot_has_five_naxors(desc):
    mod = corpus_module("sbox.ll")
    cf = driver.compile_function(mod.functions[0], desc,
                                 tgt.parse_mattr("+xcrypt"), want_dots=True)
    assert cf.dots["selected"].count('label="NAXOR') == 5


# --------------------------------------------------------------------------
# the DAG between stages
# --------------------------------------------------------------------------

def assert_nodes_exactly_reachable(dag):
    """`dag.nodes` holds each node reachable from the root once, in
    creation order, and no other node; it holds one Constant node per
    value, the one `dag.consts` names."""
    reach, stack = set(), [dag.root]
    while stack:
        n = stack.pop()
        if id(n) not in reach:
            reach.add(id(n))
            stack += [op for op in n.ops if isinstance(op, isel.DagNode)]
            stack += [v for v in (n.chain, n.ret_value) if v is not None]
    assert len(dag.nodes) == len(reach)
    assert {id(n) for n in dag.nodes} == reach
    assert [n.uid for n in dag.nodes] == sorted(n.uid for n in dag.nodes)
    consts = [n for n in dag.nodes if n.kind == "Constant"]
    assert len({n.value for n in consts}) == len(consts)
    assert dag.consts == {n.value: n for n in consts}


def dag_edges(dag):
    return dag.root, [(n, list(n.ops), n.chain, n.ret_value)
                      for n in dag.nodes]


ISEL_STAGES = ["build_dag", "legalize", "select"]

# two rotates left by 3: legalize makes each a rotate right by 29 and, under
# base, expands it to shifts by 3 and 29; each value must stay one node
TWO_ROTATES = """define i32 @two_rotates(i32 %x, i32 %y) {
  %a = call i32 @llvm.fshl.i32(i32 %x, i32 %x, i32 3)
  %b = call i32 @llvm.fshl.i32(i32 %y, i32 %y, i32 3)
  %r = xor i32 %a, %b
  ret i32 %r
}
"""


def test_stages_keep_reachable_nodes_and_select_leaves_its_input(
        monkeypatch, desc):
    seen = []
    for name in set(ISEL_STAGES):
        def checked(*args, stage=getattr(isel, name), name=name, **kwargs):
            if name == "select":
                before = dag_edges(args[0])
            out = stage(*args, **kwargs)
            if name == "select":
                assert dag_edges(args[0]) == before
                assert out[0] is not args[0]
            assert_nodes_exactly_reachable(out[0] if name == "select" else out)
            seen.append(name)
            return out
        monkeypatch.setattr(isel, name, checked)

    rng = random.Random(5000)
    generated = [gen(rng, i) for i in range(6)
                 for gen in (gen_arith_fn, gen_memory_fn, gen_shift_pair_fn)]
    cases = [(corpus_text(name), "O2") for name in sorted(CORPUS_SHAPES)]
    cases += [(text, level) for text in generated + [TWO_ROTATES]
              for level in ("O0", "O2")]
    fn = ir.parse_ir(TWO_ROTATES).functions[0]
    rotate_inputs = [([x, y], {}) for x, y in
                     [(0, 0), (1, 0x80000000), (0x12345678, 0xDEADBEEF)]]
    for (text, level), mattr in itertools.product(cases, ALL_MATTRS):
        seen.clear()
        cm = driver.compile_ir_text(text, "t", desc, tgt.parse_mattr(mattr),
                                    level)
        assert seen == ISEL_STAGES * len(cm.functions)
        if text is TWO_ROTATES:
            assert_runs_like_ir(fn, cm.functions[fn.name].mf, desc,
                                rotate_inputs)


def test_select_walks_the_dag_a_fixed_number_of_times(monkeypatch, desc):
    # a full walk per selected node made select quadratic in function size;
    # a sweep per rewrite would do the same to legalize
    walks = collections.Counter()  # whole-DAG walks per stage
    reads = collections.Counter()  # edge reads per node in the running stage
    stage = None
    real_operands, real_prune = isel._operands, isel.SelDag.prune

    class CountedNodes(list):
        def __iter__(self):
            if stage is not None:
                walks[stage] += 1
            return super().__iter__()

    def operands(n):
        reads[n] += 1
        return real_operands(n)

    def prune(dag):
        real_prune(dag)
        dag.nodes = CountedNodes(dag.nodes)

    def counted(name, real):
        def run(dag, *args, **kwargs):
            nonlocal stage
            dag.nodes = CountedNodes(dag.nodes)
            stage = name
            reads.clear()
            try:
                return real(dag, *args, **kwargs)
            finally:
                # a walk along the edges reads each node's edges once
                walks[name] += max(reads.values(), default=0)
                stage = None
        return run

    monkeypatch.setattr(isel, "_operands", operands)
    monkeypatch.setattr(isel.SelDag, "prune", prune)
    for name in ("legalize", "select"):
        monkeypatch.setattr(isel, name, counted(name, getattr(isel, name)))

    def stage_walks(size, mattr):
        # rotates, one per 50 instructions, and a global, so that legalize
        # rewrites; 8 and 24, so that legalize reuses the rotates' amounts
        text = gen_large_fn(random.Random(size), size, size)
        head, ret = text.rsplit("\n  ret i32 ", 1)
        acc = ret.split("\n")[0]
        lines = ["@g = global i32 0", head]
        for i in range(size // 50):
            lines += [f"  %t{i} = xor i32 {acc}, %x",
                      f"  %r{i} = call i32 @llvm.fshl.i32(i32 %t{i}, "
                      f"i32 %t{i}, i32 8)"]
            acc = f"%r{i}"
        lines += ["  %gv = load i32, ptr @g", "  store i32 24, ptr @g",
                  "  store i32 8, ptr %p", f"  %out = xor i32 {acc}, %gv",
                  "  ret i32 %out", "}"]
        text = "\n".join(lines)
        walks.clear()
        driver.compile_ir_text(text, "t", desc, tgt.parse_mattr(mattr))
        return dict(walks)

    for mattr in (None, "+zba,+zbb,+xcrypt"):
        small, large = stage_walks(100, mattr), stage_walks(400, mattr)
        assert sorted(small) == ["legalize", "select"]
        assert all(small.values()) and small == large, (small, large)


def test_select_takes_chains_deeper_than_the_recursion_limit(desc):
    depth = sys.getrecursionlimit() + 200
    body = [f"  %v{i} = add i32 {f'%v{i - 1}' if i else '%x'}, {i}"
            for i in range(depth)]
    text = "\n".join(["define i32 @chain(i32 %x) {", *body,
                      f"  ret i32 %v{depth - 1}", "}"])
    fn = ir.parse_ir(text).functions[0]
    cm = driver.compile_ir_text(text, "chain", desc, tgt.parse_mattr(None),
                                "O0")
    assert_runs_like_ir(fn, cm.functions["chain"].mf, desc, [([7], {})])


desc_cache = tgt.load_default_desc()
