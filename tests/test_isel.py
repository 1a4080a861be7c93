import collections
import itertools
import random
import sys

import pytest

from rv32x import codegen, driver, ir, isel, sim
from rv32x import target as tgt
from rv32x.mir import MOp, MachineInstr

from conftest import (ALL_MATTRS, CORPUS_SHAPES, PKG_ROOT, assert_runs_like_ir,
                      compile_corpus, compile_fn, corpus_module, corpus_text,
                      histogram)
from test_fuzz import (gen_arith_fn, gen_large_fn, gen_memory_fn,
                       gen_shift_pair_fn)


def build(name, fname=None, opt=False):
    mod = corpus_module(name)
    if opt:
        from rv32x import midend
        mod, _ = midend.run_pipeline(mod, midend.DEFAULT_PIPELINE)
    fn = mod.function(fname) if fname else mod.functions[0]
    return isel.build_dag(fn, mod), mod


# --------------------------------------------------------------------------
# build_dag
# --------------------------------------------------------------------------

def test_build_madd_dag_shape():
    dag, _ = build("madd.ll")
    kinds = [n.kind for n in dag.live_nodes()]
    assert "mul" in kinds and "add" in kinds and "store" in kinds
    # the mul feeds the add which feeds a store, all on one chain
    addn = next(n for n in dag.live_nodes() if n.kind == "add")
    assert any(isinstance(op, isel.DagValue) and op.node.kind == "mul"
               for op in addn.ops)


def test_build_ret_only():
    dag, _ = build("identity.ll")
    kinds = sorted(n.kind for n in dag.live_nodes())
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
    dag = isel.build_dag(mod.functions[0], mod)
    nodes = dag.live_nodes()
    assert sum(1 for n in nodes if n.kind == "load") == 2
    assert sum(1 for n in nodes if n.kind == "GlobalAddress") == 1


def test_node_count_matches_ir_walk():
    # oracle: one node per instruction, plus one per distinct constant,
    # distinct global, argument and the entry token
    for name in ("sbox.ll", "madd.ll", "rori.ll", "mul6.ll"):
        mod = corpus_module(name)
        fn = mod.functions[0]
        dag = isel.build_dag(fn, mod)
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
        assert len(dag.live_nodes()) == want, name


def test_chain_threads_memory_ops():
    dag, _ = build("sbox.ll")
    mems = [n for n in dag.live_nodes() if n.kind in ("load", "store")]
    assert mems
    mems.sort(key=lambda n: n.uid)
    assert dag.live_nodes()[0].kind == "EntryToken"
    prev = dag.entry
    for m in mems:
        assert m.chain is not None and m.chain.node is prev
        prev = m


# --------------------------------------------------------------------------
# combine
# --------------------------------------------------------------------------

def test_combine_drops_orphan_constant():
    dag = isel.SelDag("t")
    ret = dag.new("ret", [], chain=isel.ch(dag.entry), vt="none")
    dag.root = ret
    dag.new("Constant", value=0)  # orphan
    isel.combine(dag)
    assert all(n.kind != "Constant" for n in dag.nodes)


def test_combine_merges_duplicate_constants():
    dag = isel.SelDag("t")
    c1 = dag.new("Constant", value=4)
    c2 = dag.new("Constant", value=4)
    add = dag.new("add", [isel.val(c1), isel.val(c2)])
    ret = dag.new("ret", [], chain=isel.ch(dag.entry), vt="none")
    ret.ret_value = isel.val(add)
    dag.root = ret
    isel.combine(dag)
    consts = [n for n in dag.nodes if n.kind == "Constant"]
    assert len(consts) == 1
    assert add.ops[0].node is add.ops[1].node


def test_combine_post_legalize_is_noop_on_minimal_dag(desc):
    dag, _ = build("shlxor.ll")
    isel.legalize(dag, desc, tgt.parse_mattr("+xcrypt"))
    before = [(n.uid, n.kind) for n in dag.live_nodes()]
    isel.combine(dag)
    assert [(n.uid, n.kind) for n in dag.live_nodes()] == before


# --------------------------------------------------------------------------
# legalize
# --------------------------------------------------------------------------

def test_global_address_becomes_add_lo_hi(desc):
    dag, _ = build("madd.ll")
    isel.legalize(dag, desc, tgt.parse_mattr(None))
    store = next(n for n in dag.live_nodes() if n.kind == "store")
    addr = store.ops[1].node
    assert addr.kind == "add"
    assert addr.ops[0].node.kind == "HI"
    assert addr.ops[1].node.kind == "LO"
    assert addr.ops[0].node.value == addr.ops[1].node.value == "a"


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
    assert any(n.kind == "rotr" for n in dag.live_nodes())


def test_rotr_expands_without_rotate_support(desc):
    dag, _ = build("rori.ll", opt=True)
    isel.legalize(dag, desc, tgt.parse_mattr(None))
    kinds = [n.kind for n in dag.live_nodes()]
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
        assert got == sim.rotr32(x, 2)


def test_funnel_with_distinct_inputs_rejected(desc):
    text = """
define i32 @f(i32 %a, i32 %b) {
  %r = call i32 @llvm.fshr.i32(i32 %a, i32 %b, i32 2)
  ret i32 %r
}
"""
    mod = ir.parse_ir(text)
    dag = isel.build_dag(mod.functions[0], mod)
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
    mf, _ = compile_fn(mod.functions[0], mod, desc_cache, None)
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
        mf, _ = compile_fn(mod.functions[0], mod, desc, mattr)
        words = codegen.emit_words(mf, desc, {})
        rng = random.Random(71)
        for _ in range(64):
            x = rng.getrandbits(32)
            got, _, _ = sim.run_function(words, [x], {}, desc=desc)
            want, _ = sim.ir_interpret(mod.functions[0], [x])
            assert got == want == sim.rotr32(x, 3)


def test_fshr_with_equal_inputs_becomes_rotr(desc):
    text = """
define i32 @f(i32 %a) {
  %r = call i32 @llvm.fshr.i32(i32 %a, i32 %a, i32 7)
  ret i32 %r
}
"""
    mod = ir.parse_ir(text)
    dag = isel.build_dag(mod.functions[0], mod)
    isel.legalize(dag, desc, tgt.parse_mattr("+zbb"))
    rot = [n for n in dag.live_nodes() if n.kind == "rotr"]
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
        mf, _ = compile_fn(mod.functions[0], mod, desc_cache, "+zba")
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
        mf, _ = compile_fn(mod.functions[0], mod, desc, "+xcrypt")
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
    mf, _ = compile_fn(fn, mod, desc, "+zbb")
    assert histogram(codegen.print_asm(mf, desc)).get("ror") == 1
    # Xcrypt's ROTI takes only an immediate amount, so the rotate expands
    mf, _ = compile_fn(fn, mod, desc, "+xcrypt")
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
            mf, _ = compile_fn(fn, mod, desc)
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
    mf, _ = compile_fn(mod.functions[0], mod, desc, "+xcrypt")
    h = histogram(codegen.print_asm(mf, desc))
    assert "lxr" not in h and h.get("lw") == 2


def test_lxr_not_folded_across_intervening_store(desc):
    # a store between the two loads blocks the fold: the fused LXR would
    # move the first load past the store
    text = """
define i32 @f(ptr %p, ptr %q, i32 %v) {
  %a = load i32, ptr %p
  store i32 %v, ptr %p
  %b = load i32, ptr %q
  %x = xor i32 %a, %b
  ret i32 %x
}
"""
    mod = ir.parse_ir(text)
    mf, _ = compile_fn(mod.functions[0], mod, desc, "+xcrypt")
    h = histogram(codegen.print_asm(mf, desc))
    assert "lxr" not in h
    # semantics check under aliasing p == q
    mem = {}
    sim.mem_write32(mem, 0x4000, 0xAAAA5555)
    assert_runs_like_ir(mod.functions[0], mf, desc,
                        [([0x4000, 0x4000, 0x1234], mem)])


# --------------------------------------------------------------------------
# the imperative hook
# --------------------------------------------------------------------------

def _debug_compile(name, mattr, desc):
    mod = corpus_module(name)
    return compile_fn(mod.functions[0], mod, desc, mattr)


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

def _eval_pattern(node: tgt.PatNode, env, mem):
    M = 0xFFFFFFFF
    if node.kind == "capture":
        return env[node.name]
    if node.kind == "const":
        return node.value & M
    if node.kind in tgt.IMM_RANGES:
        return env[node.name] & M
    args = [_eval_pattern(c, env, mem) for c in node.children]
    if node.kind == "add":
        return (args[0] + args[1]) & M
    if node.kind == "sub":
        return (args[0] - args[1]) & M
    if node.kind == "mul":
        return (args[0] * args[1]) & M
    if node.kind == "xor":
        return args[0] ^ args[1]
    if node.kind == "and":
        return args[0] & args[1]
    if node.kind == "or":
        return args[0] | args[1]
    if node.kind == "shl":
        return (args[0] << (args[1] & 31)) & M
    if node.kind == "srl":
        return args[0] >> (args[1] & 31)
    if node.kind == "sra":
        return (tgt.sext(args[0], 32) >> (args[1] & 31)) & M
    if node.kind == "rotr":
        return sim.rotr32(args[0], args[1])
    if node.kind == "load":
        return sim.mem_read32(mem, args[0])
    if node.kind == "store":
        sim.mem_write32(mem, args[1], args[0])
        return None
    raise AssertionError(f"no evaluator for {node.kind}")


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
        caps = set()
        tgt._captures(pat.source, caps)
        imm_caps = {}  # capture name -> immediate role

        def find_imm(node):
            if node.kind in tgt.IMM_RANGES:
                imm_caps[node.name] = node.kind
            for c in node.children:
                find_imm(c)

        find_imm(pat.source)
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
                if c in imm_caps:
                    env[c] = ("imm", rng.randint(*tgt.IMM_RANGES[imm_caps[c]]))
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
            want = _eval_pattern(pat.source, src_env, want_mem)
            got, got_mem = _run_target_tree(pat.target, env, mem, desc)
            assert (got, got_mem) == (want, want_mem), \
                (pat.source.kind, pat.target.kind, trial)
    # the memory patterns were checked: LW and SW, with and without offset
    assert sorted(p.target.kind for p in desc.patterns
                  if p.source.kind in ("load", "store")) == \
        ["LW", "LW", "SW", "SW"]


# Zbkb's andn (funct7 0b0100000, funct3 0b111), added as text only
ANDN_DESC = """
instr ANDN fmt=R opcode=0b0110011 funct3=0b111 funct7=0b0100000 ops=rd,rs1,rs2 asm=andn sem=(and $rs1 (not $rs2))
pattern ANDN
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
pattern RORX
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
    dag = isel.build_dag(mod.functions[0], mod)
    dot = isel.emit_dot(dag)
    assert dot.count("label=") == 2  # EntryToken + ret


def test_post_select_sbox_dot_has_five_naxors(desc):
    mod = corpus_module("sbox.ll")
    cf = driver.compile_function(mod.functions[0], mod, desc,
                                 tgt.parse_mattr("+xcrypt"), want_dots=True)
    assert cf.dots["selected"].count('label="NAXOR') == 5


# --------------------------------------------------------------------------
# the DAG between stages
# --------------------------------------------------------------------------

def assert_nodes_exactly_reachable(dag):
    """`dag.nodes` holds each node reachable from the root once, in
    creation order, and no other node."""
    reach, stack = set(), [dag.root]
    while stack:
        n = stack.pop()
        if id(n) not in reach:
            reach.add(id(n))
            stack += [op.node for op in n.ops if isinstance(op, isel.DagValue)]
            stack += [v.node for v in (n.chain, n.ret_value) if v is not None]
    assert len(dag.nodes) == len(reach)
    assert {id(n) for n in dag.nodes} == reach
    assert [n.uid for n in dag.nodes] == sorted(n.uid for n in dag.nodes)


def dag_edges(dag):
    return dag.root, [(n, list(n.ops), n.chain, n.ret_value)
                      for n in dag.nodes]


ISEL_STAGES = ["build_dag", "legalize", "combine", "select"]


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
    cases += [(text, level) for text in generated for level in ("O0", "O2")]
    for (text, level), mattr in itertools.product(cases, ALL_MATTRS):
        seen.clear()
        cm = driver.compile_ir_text(text, "t", desc, tgt.parse_mattr(mattr),
                                    level)
        assert seen == ISEL_STAGES * len(cm.functions)


def test_dag_values_compare_their_nodes_by_identity():
    a, b = isel.DagNode("Constant", value=7), isel.DagNode("Constant", value=7)
    assert isel.val(a) == isel.val(a) and hash(isel.val(a)) == hash(isel.val(a))
    assert isel.val(a) != isel.val(b)
    assert isel.val(a) != isel.ch(a)
    assert len({isel.val(a), isel.val(b), isel.ch(a), isel.val(a)}) == 3


def test_select_walks_the_dag_a_fixed_number_of_times(monkeypatch, desc):
    # a full walk per selected node made select quadratic in function size;
    # a sweep per rewrite would do the same to combine and legalize
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
    for name in ("combine", "legalize", "select"):
        monkeypatch.setattr(isel, name, counted(name, getattr(isel, name)))

    def stage_walks(size, mattr):
        # rotates, one per 50 instructions, and a global, so that legalize
        # rewrites; 8 and 24, so that combine merges the rotates' amounts
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
        assert sorted(small) == ["combine", "legalize", "select"]
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
