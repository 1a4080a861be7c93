import random

import pytest

from rv32x import ir, midend, sim

from conftest import CORPUS, CORPUS_SHAPES, corpus_module, synth_args


def run_pass(name, mod):
    stats = midend.PassStats()
    funcs = [midend.PASSES[name](fn, stats) for fn in mod.functions]
    return mod.with_functions(funcs), stats


def parse_fn(text):
    return ir.parse_ir(text).functions[0]


# --------------------------------------------------------------------------
# SROA
# --------------------------------------------------------------------------

def test_sroa_promotes_six_sbox_allocas():
    mod, stats = run_pass("sroa", corpus_module("sbox_unopt.ll"))
    assert stats.counters["sroa.allocas-promoted"] == 6
    assert stats.counters["mem2reg.single-store"] == 1
    assert all(i.opcode != "alloca" for i in mod.functions[0].body)


def test_sroa_no_alloca_unchanged():
    mod = corpus_module("shlxor.ll")
    out, stats = run_pass("sroa", mod)
    assert out.functions == mod.functions
    assert "sroa.allocas-promoted" not in stats.counters


def test_sroa_store_once_load_twice():
    text = """
define i32 @f(i32 %a) {
  %slot = alloca i32
  store i32 %a, ptr %slot
  %x = load i32, ptr %slot
  %y = load i32, ptr %slot
  %r = add i32 %x, %y
  ret i32 %r
}
"""
    mod = ir.parse_ir(text)
    out, _ = run_pass("sroa", mod)
    body = out.functions[0].body
    assert [i.opcode for i in body] == ["add", "ret"]
    # both loads replaced by the stored value
    assert body[0].operands == (ir.Value("arg", "a", ty="i32"),) * 2
    # oracle: interpreting both versions gives the same result
    for v in (0, 1, 0xFFFFFFFF, 12345):
        r1, _ = sim.ir_interpret(mod.functions[0], [v])
        r2, _ = sim.ir_interpret(out.functions[0], [v])
        assert r1 == r2 == (2 * v) & 0xFFFFFFFF


def test_sroa_escaping_alloca_kept():
    text = """
define void @f(ptr %p) {
  %slot = alloca i32
  store ptr %slot, ptr %p
  ret void
}
"""
    out, stats = run_pass("sroa", ir.parse_ir(text))
    assert any(i.opcode == "alloca" for i in out.functions[0].body)


def test_sroa_idempotent_on_corpus():
    for name in sorted(p.name for p in CORPUS.glob("*.ll")):
        once, _ = run_pass("sroa", corpus_module(name))
        twice, _ = run_pass("sroa", once)
        assert once.functions == twice.functions


# --------------------------------------------------------------------------
# EarlyCSE
# --------------------------------------------------------------------------

def test_early_cse_seven_sbox_loads():
    mod, _ = run_pass("sroa", corpus_module("sbox_unopt.ll"))
    _, stats = run_pass("early-cse", mod)
    assert stats.counters["early-cse.loads-cse"] == 7


def test_early_cse_duplicate_pure_op():
    fn = parse_fn("""
define i32 @f(i32 %a, i32 %b) {
  %x = xor i32 %a, %b
  %y = xor i32 %a, %b
  %r = and i32 %x, %y
  ret i32 %r
}
""")
    out = midend.pass_early_cse(fn, midend.PassStats())
    ops = [i.opcode for i in out.body]
    assert ops.count("xor") == 1


def test_early_cse_commutated_duplicate():
    fn = parse_fn("""
define i32 @f(i32 %a, i32 %b) {
  %x = xor i32 %a, %b
  %y = xor i32 %b, %a
  %r = and i32 %x, %y
  ret i32 %r
}
""")
    out = midend.pass_early_cse(fn, midend.PassStats())
    assert [i.opcode for i in out.body].count("xor") == 1


def _two_cell_eval(fn, cells):
    """Brute-force oracle: interpret with a 2-cell memory and report the
    final cells plus the return value."""
    mem = {}
    sim.mem_write32(mem, 0x4000, cells[0])
    sim.mem_write32(mem, 0x4004, cells[1])
    r, m = sim.ir_interpret(fn, [0x4000], mem)
    return r, sim.mem_read32(m, 0x4000), sim.mem_read32(m, 0x4004)


def test_early_cse_store_invalidation_is_conservative():
    # load p; store to q (a different literal address); load p again:
    # the second load survives because the store kills the whole table
    # except its own address
    text = """
define i32 @f(ptr %p) {
  %q = getelementptr i8, ptr %p, i32 4
  %a = load i32, ptr %p
  store i32 7, ptr %q
  %b = load i32, ptr %p
  %r = add i32 %a, %b
  ret i32 %r
}
"""
    fn = parse_fn(text)
    out = midend.pass_early_cse(fn, midend.PassStats())
    assert [i.opcode for i in out.body].count("load") == 2
    rng = random.Random(3)
    for _ in range(32):
        cells = (rng.getrandbits(32), rng.getrandbits(32))
        assert _two_cell_eval(fn, cells) == _two_cell_eval(out, cells)


def test_early_cse_store_to_load_forwarding_same_address():
    text = """
define i32 @f(ptr %p) {
  %q = getelementptr i8, ptr %p, i32 4
  store i32 7, ptr %q
  %b = load i32, ptr %q
  ret i32 %b
}
"""
    fn = parse_fn(text)
    out = midend.pass_early_cse(fn, midend.PassStats())
    assert [i.opcode for i in out.body].count("load") == 0
    rng = random.Random(4)
    for _ in range(16):
        cells = (rng.getrandbits(32), rng.getrandbits(32))
        assert _two_cell_eval(fn, cells) == _two_cell_eval(out, cells)


# --------------------------------------------------------------------------
# InstCombine
# --------------------------------------------------------------------------

def test_instcombine_and_xor_rule():
    fn = parse_fn("""
define i32 @f(i32 %a, i32 %b, i32 %c) {
  %x = xor i32 %a, %b
  %n = xor i32 %b, -1
  %r = and i32 %x, %n
  %keep = xor i32 %x, %c
  %out = xor i32 %r, %keep
  ret i32 %out
}
""")
    out = midend.pass_inst_combine(fn, midend.PassStats())
    and_inst = next(i for i in out.body if i.opcode == "and")
    assert and_inst.operands[0] == ir.Value("arg", "a", ty="i32")
    assert and_inst.operands[1] == ir.Value("temp", "n", ty="i32")


def test_instcombine_and_xor_exhaustive_8bit():
    # and(xor(a, b), xor(b, -1)) == and(a, xor(b, -1)) on all 65536 pairs
    fn = parse_fn("""
define i32 @f(i32 %a, i32 %b) {
  %x = xor i32 %a, %b
  %n = xor i32 %b, -1
  %r = and i32 %x, %n
  ret i32 %r
}
""")
    out = midend.pass_inst_combine(fn, midend.PassStats())
    assert [i.opcode for i in out.body] == ["xor", "and", "ret"]
    for a in range(256):
        for b in range(256):
            r1, _ = sim.ir_interpret(fn, [a, b])
            r2, _ = sim.ir_interpret(out, [a, b])
            assert r1 == r2


def test_instcombine_constant_moves_right():
    fn = parse_fn("define i32 @f(i32 %x) {\n  %r = xor i32 5, %x\n"
                  "  ret i32 %r\n}")
    out = midend.pass_inst_combine(fn, midend.PassStats())
    inst = out.body[0]
    assert inst.operands[0].kind == "arg" and inst.operands[1].const == 5


def test_instcombine_double_negation():
    fn = parse_fn("""
define i32 @f(i32 %x) {
  %n1 = xor i32 %x, -1
  %n2 = xor i32 %n1, -1
  ret i32 %n2
}
""")
    out = midend.pass_inst_combine(fn, midend.PassStats())
    assert [i.opcode for i in out.body] == ["ret"]
    assert out.body[0].operands[0] == ir.Value("arg", "x", ty="i32")


def test_instcombine_gep_chain_folding():
    fn = parse_fn("""
define i32 @f(ptr %p) {
  %q = getelementptr i8, ptr %p, i32 8
  %r = getelementptr i8, ptr %q, i32 8
  %v = load i32, ptr %r
  ret i32 %v
}
""")
    out = midend.pass_inst_combine(fn, midend.PassStats())
    geps = [i for i in out.body if i.opcode == "getelementptr"]
    assert len(geps) == 1 and geps[0].operands[1].const == 16


def test_instcombine_funnel_shift_recognition():
    fn = parse_fn("""
define i32 @f(i32 %a) {
  %hi = shl i32 %a, 30
  %lo = lshr i32 %a, 2
  %r = or i32 %hi, %lo
  ret i32 %r
}
""")
    out = midend.pass_inst_combine(fn, midend.PassStats())
    fsh = [i for i in out.body if i.opcode == "fshr"]
    assert len(fsh) == 1
    assert fsh[0].operands[2].const == 2
    assert fsh[0].operands[0] == fsh[0].operands[1]  # rotate form


def test_instcombine_funnel_requires_one_use():
    fn = parse_fn("""
define i32 @f(i32 %a) {
  %hi = shl i32 %a, 30
  %lo = lshr i32 %a, 2
  %r = or i32 %hi, %lo
  %keep = add i32 %hi, %r
  ret i32 %keep
}
""")
    out = midend.pass_inst_combine(fn, midend.PassStats())
    assert not any(i.opcode == "fshr" for i in out.body)


def test_instcombine_fixpoint_within_ten_iterations():
    for name in sorted(p.name for p in CORPUS.glob("*.ll")):
        mod, _ = run_pass("sroa", corpus_module(name))
        for fn in mod.functions:
            midend.pass_inst_combine(fn, midend.PassStats(),
                                     max_iterations=10)


def test_instcombine_removes_forwardable_load():
    fn = parse_fn("""
define i32 @f(ptr %p, ptr %q) {
  store i32 3, ptr %p
  store i32 4, ptr %q
  %v = load i32, ptr %p
  ret i32 %v
}
""")
    out = midend.pass_inst_combine(fn, midend.PassStats())
    # %p and %q may alias: the intervening store blocks forwarding
    assert any(i.opcode == "load" for i in out.body)

    fn2 = parse_fn("""
define i32 @f(ptr %p) {
  %q = getelementptr i8, ptr %p, i32 4
  store i32 3, ptr %p
  store i32 4, ptr %q
  %v = load i32, ptr %p
  ret i32 %v
}
""")
    out2 = midend.pass_inst_combine(fn2, midend.PassStats())
    # same base, different offsets: provably different, forwarding fires
    assert not any(i.opcode == "load" for i in out2.body)


def test_dce_drops_a_dead_chain_in_one_call():
    fn = parse_fn("""
define i32 @f(ptr %p, i32 %a) {
  %l = load i32, ptr %p
  %x = add i32 %l, %a
  %y = xor i32 %x, %x
  %k = add i32 %a, 1
  store i32 %k, ptr %p
  %z = shl i32 %y, 2
  store i32 %a, ptr %p
  ret i32 %a
}
""")
    # %z uses %y uses %x uses the load: each is dead only once its user is
    kept = midend._dce(fn.body)
    assert [i.opcode for i in kept] == ["add", "store", "store", "ret"]
    assert kept[0].result == "k"


# --------------------------------------------------------------------------
# Reassociate
# --------------------------------------------------------------------------

def test_rank_of_first_argument_is_three():
    fn = parse_fn("define i32 @f(i32 %state, i32 %b) {\n"
                  "  %x = add i32 %state, %b\n  ret i32 %x\n}")
    ranks = midend.compute_ranks(fn)  # name -> (rank, order)
    assert ranks["state"] == (3, 0)
    assert ranks["b"] == (4, 1)
    assert ranks["x"] == (5, 2)


def test_reassociate_sorts_by_rank():
    fn = parse_fn("""
define i32 @f(i32 %a, i32 %b) {
  %x = add i32 %a, %b
  %r = xor i32 %x, %a
  ret i32 %r
}
""")
    out = midend.pass_reassociate(fn, midend.PassStats())
    r = next(i for i in out.body if i.result == "r")
    # rank(%a) = 3 < rank(%x) = 5: the lower-ranked operand moves left
    assert r.operands[0] == ir.Value("arg", "a", ty="i32")


def test_reassociate_already_sorted_unchanged():
    fn = parse_fn("""
define i32 @f(i32 %a, i32 %b) {
  %x = add i32 %a, %b
  %r = xor i32 %a, %x
  ret i32 %r
}
""")
    stats = midend.PassStats()
    out = midend.pass_reassociate(fn, stats)
    assert out.body == fn.body
    assert "reassociate.insts-reassociated" not in stats.counters


def test_reassociate_preserves_operand_multisets():
    mod = corpus_module("sbox.ll")
    out, _ = run_pass("reassociate", mod)

    def shape(fn):
        return sorted((i.opcode, tuple(sorted(map(repr, i.operands))))
                      for i in fn.body)

    assert shape(mod.functions[0]) == shape(out.functions[0])


# --------------------------------------------------------------------------
# DSE
# --------------------------------------------------------------------------

def _sbox_at_dse_stage():
    mod = corpus_module("sbox_unopt.ll")
    for name in midend.DEFAULT_PIPELINE[:-2]:  # everything before dse
        mod, _ = run_pass(name, mod)
    return mod


def test_dse_sbox_deletes_seven_keeps_five():
    stats = midend.PassStats()
    mod = _sbox_at_dse_stage()
    funcs = [midend.pass_dse(fn, stats) for fn in mod.functions]
    assert stats.counters["dse.stores-deleted"] == 7
    assert stats.counters["dse.stores-remaining"] == 5
    assert sum(1 for i in funcs[0].body if i.opcode == "store") == 5


def test_dse_store_store_kill():
    fn = parse_fn("""
define void @f(ptr %p, i32 %x, i32 %y) {
  store i32 %x, ptr %p
  store i32 %y, ptr %p
  ret void
}
""")
    out = midend.pass_dse(fn, midend.PassStats())
    stores = [i for i in out.body if i.opcode == "store"]
    assert len(stores) == 1
    assert stores[0].operands[0] == ir.Value("arg", "y", ty="i32")


def test_dse_intervening_load_blocks():
    text = """
define i32 @f(ptr %p, i32 %x, i32 %y) {
  store i32 %x, ptr %p
  %v = load i32, ptr %p
  store i32 %y, ptr %p
  ret i32 %v
}
"""
    fn = parse_fn(text)
    out = midend.pass_dse(fn, midend.PassStats())
    assert sum(1 for i in out.body if i.opcode == "store") == 2
    # 1-cell memory oracle
    rng = random.Random(5)
    for _ in range(32):
        mem = {}
        sim.mem_write32(mem, 0x4000, rng.getrandbits(32))
        a, b = rng.getrandbits(32), rng.getrandbits(32)
        r1, m1 = sim.ir_interpret(fn, [0x4000, a, b], mem)
        r2, m2 = sim.ir_interpret(out, [0x4000, a, b], mem)
        assert (r1, m1) == (r2, m2)


def test_dse_provably_different_load_does_not_block():
    fn = parse_fn("""
define i32 @f(ptr %p, i32 %x, i32 %y) {
  %q = getelementptr i8, ptr %p, i32 4
  store i32 %x, ptr %p
  %v = load i32, ptr %q
  store i32 %y, ptr %p
  ret i32 %v
}
""")
    out = midend.pass_dse(fn, midend.PassStats())
    assert sum(1 for i in out.body if i.opcode == "store") == 1


def test_dse_idempotent_on_corpus():
    mod = _sbox_at_dse_stage()
    once, _ = run_pass("dse", mod)
    twice, _ = run_pass("dse", once)
    assert once.functions == twice.functions


# --------------------------------------------------------------------------
# Attribute passes
# --------------------------------------------------------------------------

def test_attr_passes_inert():
    mod = corpus_module("sbox.ll")
    for which in ("infer-function-attrs", "globalopt",
                  "postorder-function-attrs"):
        out, _ = run_pass(which, mod)
        assert out.functions[0].body == mod.functions[0].body
    out, _ = run_pass("infer-function-attrs", mod)
    assert "mustprogress" in out.functions[0].attributes
    out, _ = run_pass("globalopt", mod)
    assert "local_unnamed_addr" in out.functions[0].attributes
    out, _ = run_pass("postorder-function-attrs", mod)
    assert {"norecurse", "nounwind", "willreturn",
            "nosync", "nofree"} <= set(out.functions[0].attributes)


# --------------------------------------------------------------------------
# Pipeline
# --------------------------------------------------------------------------

def test_default_pipeline_is_the_eleven_pass_sequence():
    assert midend.DEFAULT_PIPELINE == (
        "infer-function-attrs", "sroa", "early-cse", "globalopt",
        "instcombine", "early-cse", "instcombine", "reassociate",
        "instcombine", "dse", "postorder-function-attrs")
    assert len(midend.DEFAULT_PIPELINE) == 11


def test_empty_pipeline_is_identity():
    mod = corpus_module("sbox.ll")
    out, stats = midend.run_pipeline(mod, ())
    assert out == mod
    assert stats.counters == {}


def test_identity_function_unchanged_by_default_pipeline():
    mod = corpus_module("identity.ll")
    out, _ = midend.run_pipeline(mod, midend.DEFAULT_PIPELINE)
    assert out.functions[0].body == mod.functions[0].body


def test_unknown_pass_rejected():
    with pytest.raises(midend.PassError, match="unknown pass"):
        midend.run_pipeline(corpus_module("identity.ll"), ("loop-unroll",))


def test_unoptimized_sbox_reaches_optimized_shape():
    out, _ = midend.run_pipeline(corpus_module("sbox_unopt.ll"),
                                 midend.DEFAULT_PIPELINE)
    ref = corpus_module("sbox.ll")

    def opcount(fn):
        d = {}
        for i in fn.body:
            d[i.opcode] = d.get(i.opcode, 0) + 1
        return d

    assert opcount(out.functions[0]) == opcount(ref.functions[0])


def test_optimized_corpus_is_the_frozen_pipeline_output():
    # the shipped sbox.ll is the exact pipeline output for sbox_unopt.ll;
    # any drift in the passes shows up here first
    out, _ = midend.run_pipeline(corpus_module("sbox_unopt.ll"),
                                 midend.DEFAULT_PIPELINE)
    ref = corpus_module("sbox.ll")
    assert out.functions == ref.functions


def test_pipeline_idempotent_on_corpus():
    for name in sorted(p.name for p in CORPUS.glob("*.ll")):
        once, _ = midend.run_pipeline(corpus_module(name),
                                      midend.DEFAULT_PIPELINE)
        twice, _ = midend.run_pipeline(once, midend.DEFAULT_PIPELINE)
        assert once.functions == twice.functions, name


@pytest.mark.parametrize("name", sorted(CORPUS_SHAPES))
def test_semantic_preservation_per_pass(name):
    """Every pass preserves ir_interpret results on >= 256 random memories."""
    fname, n_ptrs, n_ints = CORPUS_SHAPES[name]
    mod = corpus_module(name)
    gaddrs = sim.assign_global_addrs(mod)
    rng = random.Random(11)
    inputs = [synth_args(rng, n_ptrs, n_ints) for _ in range(256)]
    staged = [mod]
    for pname in midend.DEFAULT_PIPELINE:
        staged.append(run_pass(pname, staged[-1])[0])
    fn_before = staged[0].function(fname)
    baseline = []
    for args, mem in inputs:
        mem = dict(mem)
        mem.update(sim.seed_globals(mod, gaddrs))
        baseline.append(sim.ir_interpret(fn_before, args, mem, gaddrs))
    for stage_idx, stage in enumerate(staged[1:], 1):
        fn = stage.function(fname)
        for (args, mem), expect in zip(inputs, baseline):
            mem = dict(mem)
            mem.update(sim.seed_globals(mod, gaddrs))
            got = sim.ir_interpret(fn, args, mem, gaddrs)
            assert got == expect, (name, midend.DEFAULT_PIPELINE[stage_idx - 1])
