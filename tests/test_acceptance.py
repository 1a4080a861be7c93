"""Acceptance suite: every criterion at its stated tolerance.

Each test prints into the summary table (see conftest). Two assertions are
known-red and documented in the project notes: the base-build S-box histogram
pins 5 complement instructions where the corpus produces 6, and the lowered
materialization threshold demands an sh1add sequence that is never the
shortest one on a 32-bit target. Both tests state the pinned values verbatim
and fail honestly rather than bending the implementation.
"""

import random

import pytest

from rv32x import codegen, ir, midend, sim, testkit
from rv32x import target as tgt
from rv32x.driver import run_command

from conftest import (ALL_MATTRS, CORPUS_SHAPES, LIT_TESTS, compile_corpus,
                      compile_fn, corpus_module, differential_run, histogram)
from test_target import assert_roundtrips, bfs_shortest, mat_value


# --------------------------------------------------------------------------
# 1. NAXOR fusion
# --------------------------------------------------------------------------

def test_criterion_1_naxor_fusion(desc):
    _, _, _, asm = compile_corpus("sbox.ll", desc, "+xcrypt")
    h = histogram(asm)
    assert h.get("naxor", 0) == 5
    assert h.get("not", 0) == 1        # the surviving complement (xori -1)
    assert h.get("and", 0) == 0
    assert h.get("xor", 0) == 6
    assert h.get("lw", 0) == 5
    assert h.get("sw", 0) == 5

    _, _, _, asm = compile_corpus("sbox.ll", desc, None)
    h = histogram(asm)
    assert h.get("and", 0) == 5
    assert h.get("xor", 0) == 11
    # pinned at 5; the corpus's base build emits 6 complement instructions
    # (five feeding the fused patterns plus the final state complement)
    assert h.get("not", 0) == 5


# --------------------------------------------------------------------------
# 2. LXR
# --------------------------------------------------------------------------

def test_criterion_2_lxr(desc):
    _, _, mf, asm = compile_corpus("lxr.ll", desc, "+xcrypt")
    body = [l.strip() for l in asm.splitlines()[1:] if l.strip()]
    assert len(body) == 2
    assert body[0].startswith("lxr") and body[1] == "ret"

    _, _, mf, asm = compile_corpus("lxr.ll", desc, None)
    h = histogram(asm)
    assert h == {"lw": 2, "xor": 1, "ret": 1}
    assert len(mf.instrs) == 4


# --------------------------------------------------------------------------
# 3. MLA
# --------------------------------------------------------------------------

def test_criterion_3_mla(desc):
    mod, fname, mf, asm = compile_corpus("madd.ll", desc, "+xcrypt")
    h = histogram(asm)
    assert h.get("mla", 0) == 1
    assert "mul" not in h and "add" not in h
    gaddrs = sim.assign_global_addrs(mod)
    words = codegen.emit_words(mf, desc, gaddrs)
    _, mem, _ = sim.run_function(words, [], sim.seed_globals(mod, gaddrs),
                                 desc=desc)
    assert sim.mem_read32(mem, gaddrs["a"]) == 436  # 3 * 103 + 127


# --------------------------------------------------------------------------
# 4. SHLXOR
# --------------------------------------------------------------------------

def test_criterion_4_shlxor(desc):
    _, _, _, asm = compile_corpus("shlxor.ll", desc, "+xcrypt")
    assert histogram(asm).get("shlxor", 0) == 1
    report = testkit.run_lit([str(LIT_TESTS / "llc" / "shlxor.ll")],
                             executor=run_command)
    assert report.total == 1 and report.failed == 0


# --------------------------------------------------------------------------
# 5. RORI
# --------------------------------------------------------------------------

def test_criterion_5_rori(desc):
    _, _, mf_zbb, asm = compile_corpus("rori.ll", desc, "+zbb")
    body = [l.strip() for l in asm.splitlines()[1:] if l.strip()]
    assert len(body) == 2
    assert body[0].startswith("rori") and body[0].endswith(", 2")
    assert body[1] == "ret"

    _, _, mf_base, asm = compile_corpus("rori.ll", desc, None)
    h = histogram(asm)
    assert h == {"srli": 1, "slli": 1, "or": 1, "ret": 1}
    assert len(mf_base.instrs) == 4

    words_zbb = codegen.emit_words(mf_zbb, desc, {})
    words_base = codegen.emit_words(mf_base, desc, {})
    rng = random.Random(101)
    inputs = [15] + [rng.getrandbits(32) for _ in range(1000)]
    for x in inputs:
        want = sim.rotr32(x, 2)
        got_zbb, _, _ = sim.run_function(words_zbb, [x], {}, desc=desc)
        got_base, _, _ = sim.run_function(words_base, [x], {}, desc=desc)
        assert got_zbb == got_base == want
    assert sim.rotr32(15, 2) == 0xC0000003


# --------------------------------------------------------------------------
# 6. SH1ADD patterns
# --------------------------------------------------------------------------

def test_criterion_6_sh1add_one_use(desc):
    _, _, _, asm = compile_corpus("mul6.ll", desc, "+zba")
    body = [l.strip() for l in asm.splitlines()[1:] if l.strip()]
    assert len(body) == 3 and body[2] == "ret"
    assert all(l.startswith("sh1add") for l in body[:2])

    _, _, _, asm = compile_corpus("mul6_reuse.ll", desc, "+zba")
    h = histogram(asm)
    assert h.get("mul", 0) == 1  # the reused product survives
    assert "sh1add" not in h


# --------------------------------------------------------------------------
# 7. Dependent-load hook
# --------------------------------------------------------------------------

def _isel_debug(name, desc):
    mod = corpus_module(name)
    mf, debug = compile_fn(mod.functions[0], mod, desc, "+xcrypt")
    return mf, "\n".join(debug)


def test_criterion_7_dependent_load_hook(desc):
    mf, trace = _isel_debug("lxr_dep16.ll", desc)
    assert "[5] constant equals 16: yes" in trace
    assert "emitting ADDI + LXR" in trace
    assert "pattern xor -> LXR" not in trace  # declarative path did not fire
    assert [mi.mnemonic for mi in mf.instrs] == ["ADDI", "LXR", "JALR"]

    mf, trace = _isel_debug("lxr_dep8.ll", desc)
    assert "[5] constant equals 16: no" in trace
    assert "pattern xor -> LXR" in trace  # falls through to declarative LXR
    assert "LXR" in [mi.mnemonic for mi in mf.instrs]


# --------------------------------------------------------------------------
# 8. Midend equivalence to the documented trace
# --------------------------------------------------------------------------

def test_criterion_8_midend_trace(desc):
    mod, stats = midend.run_pipeline(corpus_module("sbox_unopt.ll"),
                                     midend.DEFAULT_PIPELINE)
    body = mod.functions[0].body
    assert sum(1 for i in body if i.opcode == "load") == 5
    assert sum(1 for i in body if i.opcode == "store") == 5
    assert sum(1 for i in body if i.opcode == "alloca") == 0
    c = stats.counters
    assert c["sroa.allocas-promoted"] == 6
    assert c["early-cse.loads-cse"] == 7
    assert c["dse.stores-deleted"] == 7
    assert c["dse.stores-remaining"] == 5
    rendered = stats.render()
    for frag in ("6 sroa", "7 early-cse", "7 dse", "5 dse"):
        assert any(frag in line for line in rendered.splitlines()), frag


# --------------------------------------------------------------------------
# 9. Algebraic rewrite soundness
# --------------------------------------------------------------------------

def test_criterion_9_and_xor_exhaustive():
    fn = ir.parse_ir("""
define i32 @f(i32 %a, i32 %b) {
  %x = xor i32 %a, %b
  %n = xor i32 %b, -1
  %r = and i32 %x, %n
  ret i32 %r
}
""").functions[0]
    rewritten = midend.pass_inst_combine(fn, midend.PassStats())
    and_inst = next(i for i in rewritten.body if i.opcode == "and")
    assert and_inst.operands[0] == ir.Value("arg", "a", ty="i32")
    mismatches = 0
    for a in range(256):
        for b in range(256):
            want = (a ^ b) & (b ^ 0xFFFFFFFF)
            got, _ = sim.ir_interpret(rewritten, [a, b])
            if got != want:
                mismatches += 1
    assert mismatches == 0  # 65 536 cases


# --------------------------------------------------------------------------
# 10. Encode/decode bijectivity
# --------------------------------------------------------------------------

def test_criterion_10_encode_decode(desc):
    assert_roundtrips(desc, 103, 10_000)
    all_defs = list(desc.instrs.values())
    for i, a in enumerate(all_defs):
        for b in all_defs[i + 1:]:
            assert not tgt._collide(a, b), (a.mnemonic, b.mnemonic)


# --------------------------------------------------------------------------
# 11. End-to-end differential oracle
# --------------------------------------------------------------------------

@pytest.mark.parametrize("mattr", ALL_MATTRS)
def test_criterion_11_differential(mattr, desc):
    for name in sorted(CORPUS_SHAPES):
        assert differential_run(name, desc, mattr, trials=256) == 256


# --------------------------------------------------------------------------
# 12. Immediate materialization
# --------------------------------------------------------------------------

def test_criterion_12_materialization(desc):
    zba = frozenset({"I", "Zba"})
    seq = tgt.materialize_imm(12291, zba, zba_threshold=1)
    assert mat_value(seq) == 12291
    assert len(seq) <= 3
    assert len(seq) == bfs_shortest(12291)
    # pinned: the sequence goes through sh1add; the shortest sequence for
    # 12291 is lui+addi (two instructions), so the shortcut is never kept
    assert any(mn == "SH1ADD" for mn, _ in seq)


def test_criterion_12_default_threshold_never_fires(desc):
    zba = frozenset({"I", "Zba"})
    rng = random.Random(104)
    for _ in range(10_000):
        v = rng.getrandbits(32)
        seq = tgt.materialize_imm(v, zba)  # faithful default threshold
        assert all(mn in ("LUI", "ADDI") for mn, _ in seq)
        assert mat_value(seq) == v


# --------------------------------------------------------------------------
# 13. Test harness self-check
# --------------------------------------------------------------------------

def test_criterion_13_harness(tmp_path):
    report = testkit.run_lit([str(LIT_TESTS)], executor=run_command)
    assert report.failed == 0 and report.passed == report.total > 0
    assert f"Passed: {report.passed}" in report.text

    import shutil
    for src in sorted(LIT_TESTS.rglob("*")):
        if src.suffix not in (".ll", ".s"):
            continue
        dst = tmp_path / src.name
        shutil.copy(src, dst)
        changed = testkit.update_checks(str(dst), executor=run_command)
        assert not changed, f"update_checks not idempotent on {src.name}"
        assert dst.read_text() == src.read_text()
