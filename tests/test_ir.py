import random

import pytest

from rv32x import ir, midend

from conftest import CORPUS, corpus_module, corpus_text
from test_fuzz import (gen_arith_fn, gen_large_fn, gen_memory_fn,
                       gen_shift_pair_fn)


def test_identity_one_liner():
    m = ir.parse_ir("define i32 @f(i32 %a){ ret i32 %a }")
    assert len(m.functions) == 1
    fn = m.functions[0]
    assert fn.params == (("a", "i32"),)
    assert [i.opcode for i in fn.body] == ["ret"]
    assert fn.body[0].operands[0] == ir.Value("arg", "a", ty="i32")


def test_parameters_resolve_per_function_with_declared_type():
    with pytest.raises(ir.IrError, match="add operates on i32 only"):
        ir.parse_ir("define i32 @f(ptr %p) {\n  %a = add i32 %p, 1\n"
                    "  ret i32 %a\n}")
    m = ir.parse_ir("define i32 @f(i32 %a) {\n  ret i32 %a\n}\n"
                    "define i32 @g(i32 %b) {\n  %a = add i32 %b, 1\n"
                    "  ret i32 %a\n}")
    add, ret = m.function("g").body
    assert add.operands[0] == ir.Value("arg", "b", ty="i32")
    assert ret.operands[0] == ir.Value("temp", "a", ty="i32")


def test_optimized_sbox_shape():
    m = corpus_module("sbox.ll")
    fn = m.functions[0]
    ops = [i.opcode for i in fn.body]
    assert ops.count("load") == 5
    assert ops.count("store") == 5
    assert ops.count("alloca") == 0
    assert ops.count("xor") == 17
    assert ops.count("and") == 5


def test_i64_rejected():
    with pytest.raises(ir.IrError, match="i64 unsupported"):
        ir.parse_ir("define i64 @t(i64 %a) {\n  ret i64 %a\n}")
    with pytest.raises(ir.IrError, match="i64 unsupported"):
        ir.parse_ir("define i32 @t(i32 %a) {\n  %b = add i64 %a, 1\n"
                    "  ret i32 %a\n}")
    with pytest.raises(ir.IrError, match="i64 unsupported"):
        ir.parse_ir("define i32 @t(i32 %a) {\n  %b = add i32 %a, i64\n"
                    "  ret i32 %a\n}")


def test_wrap_flags_separated_by_tabs():
    spaced = ir.parse_ir("define i32 @f(i32 %a, i32 %b) {\n"
                         "  %x = add nuw nsw i32 %a, %b\n  ret i32 %x\n}")
    tabbed = ir.parse_ir("define i32 @f(i32 %a, i32 %b) {\n"
                         "\t%x = add\tnuw\tnsw\ti32\t%a,%b\n\tret i32 %x\n}")
    assert tabbed.functions == spaced.functions
    # a flag is still never read as the type
    with pytest.raises(ir.IrError, match="malformed add"):
        ir.parse_ir("define i32 @f(i32 %a) {\n"
                    "  %x = add\tnsw\t%a,%a\n  ret i32 %x\n}")


@pytest.mark.parametrize("line,msg", [
    ("add i32 %a, 1", "2:1: add makes a value, so the line needs %name ="),
    ("add nsw i32 %a, 1", "2:1: add makes a value, so the line needs %name ="),
    ("load i32, ptr %p", "2:1: load makes a value, so the line needs %name ="),
    ("getelementptr i8, ptr %p, i32 4",
     "2:1: getelementptr makes a value, so the line needs %name ="),
    ("alloca i32", "2:1: alloca makes a value, so the line needs %name ="),
    ("call i32 @llvm.fshl.i32(i32 %a, i32 %a, i32 3)",
     "2:1: fshl makes a value, so the line needs %name ="),
    ("%s = store i32 %a, ptr %p",
     "2:1: store makes no value, so it cannot be named %s"),
    ("%r = ret i32 %a", "2:1: ret makes no value, so it cannot be named %r"),
    ("%r = ret void", "2:1: ret makes no value, so it cannot be named %r"),
    # the shape is checked before the name
    ("xor", "2:1: malformed xor: 'xor'"),
    ("add ptr %p, 1", "2:1: add requires i32 operands"),
    ("%s = store i32 %a", "2:1: malformed store: 'store i32 %a'"),
    ("frob i32 %a", "2:1: unknown opcode 'frob'"),
], ids=["binop", "binop-flag", "load", "gep", "alloca", "call", "store",
        "ret", "ret-void", "bare-xor", "binop-ptr", "store-shape", "frob"])
def test_a_line_is_named_exactly_when_it_makes_a_value(line, msg):
    with pytest.raises(ir.IrError) as e:
        ir.parse_ir(f"define void @f(i32 %a, ptr %p) {{\n  {line}\n"
                    "  ret void\n}")
    assert str(e.value) == "<stdin>:" + msg


def test_lifetime_intrinsics_discarded():
    m = corpus_module("sbox_unopt.ll")
    assert all(i.opcode != "lifetime" for i in m.functions[0].body)
    # their i64 size operand must not trip the i64 rejection
    assert m.functions[0].body[0].opcode == "alloca"


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.ll")))
def test_roundtrip_fixed_point(name):
    m1 = ir.parse_ir(corpus_text(name), name)
    text = ir.print_ir(m1)
    m2 = ir.parse_ir(text, name)
    assert m1.globals == m2.globals
    assert m1.functions == m2.functions
    assert ir.print_ir(m2) == text


def test_generator_output_prints_back_to_itself():
    """print_ir of every fuzz generator's output, as parsed and after -O2,
    parses back to an equal module."""
    rng = random.Random(7000)
    texts = [gen(rng, i) for i in range(15)
             for gen in (gen_arith_fn, gen_memory_fn, gen_shift_pair_fn)]
    for text in texts + [gen_large_fn(rng, i, 150) for i in range(2)]:
        m = ir.parse_ir(text)
        opt, _ = midend.run_pipeline(m, midend.DEFAULT_PIPELINE)
        for mod in (m, opt):
            back = ir.parse_ir(ir.print_ir(mod))
            assert (back.globals, back.functions) == \
                (mod.globals, mod.functions), text


def test_print_globals_before_functions():
    text = ir.print_ir(corpus_module("madd.ll"))
    assert text.index("@a = global") < text.index("define")


def test_attribute_tags_print_on_define_line():
    m = ir.parse_ir("define void @f() local_unnamed_addr mustprogress "
                    "{\n  ret void\n}")
    line = next(l for l in ir.print_ir(m).splitlines() if "define" in l)
    assert "local_unnamed_addr" in line and "mustprogress" in line


def test_attribute_groups_merge():
    text = ("define void @f() #0 {\n  ret void\n}\n"
            "attributes #0 = { mustprogress nounwind }\n")
    m = ir.parse_ir(text)
    assert {"mustprogress", "nounwind"} <= set(m.functions[0].attributes)


def test_multi_block_rejected():
    text = "define i32 @f(i32 %a) {\nentry:\n  ret i32 %a\nnext:\n  ret i32 %a\n}"
    with pytest.raises(ir.IrError, match="single basic block"):
        ir.parse_ir(text)


def test_verifier_accepts_corpus():
    for name in sorted(p.name for p in CORPUS.glob("*.ll")):
        assert ir.verify(corpus_module(name)) == []


def test_use_before_def():
    m = ir.Module("t", (), (ir.Function(
        "f", (), "i32", (
            ir.Inst("add", "y", (ir.Value("temp", "x", ty="i32"),
                                 ir.const(1)), "i32"),
            ir.Inst("ret", None, (ir.Value("temp", "y", ty="i32"),), "i32"),
        )),))
    bad = ir.verify(m)
    assert any("use before def: %x" in v for v in bad)


def test_store_address_type_violation():
    m = ir.Module("t", (), (ir.Function(
        "f", (("a", "i32"),), "void", (
            ir.Inst("store", None, (ir.const(1),
                                    ir.Value("arg", "a", ty="i32")), "void"),
            ir.Inst("ret", None, (), "void"),
        )),))
    bad = ir.verify(m)
    assert any("store takes" in v for v in bad)


A = ir.Value("arg", "a", ty=ir.I32)
P = ir.Value("arg", "p", ty=ir.PTR)
RET0 = ir.Inst("ret", None, (ir.const(0),), ir.I32)


def _module(*body, params=(("a", ir.I32), ("p", ir.PTR)), ret=ir.I32,
            globals_=()):
    return ir.Module("t", globals_, (ir.Function("f", params, ret, body),))


def _add(result, a, b):
    return ir.Inst("add", result, (a, b), ir.I32)


@pytest.mark.parametrize("mod,msg", [
    (_module(RET0, globals_=(ir.GlobalVar("g"), ir.GlobalVar("g"))),
     "duplicate global @g"),
    (_module(RET0, globals_=(ir.GlobalVar("g", ir.PTR),)),
     "global @g: value type must be i32"),
    (_module(RET0, globals_=(ir.GlobalVar("f"),)), "duplicate symbol @f"),
    (_module(RET0, params=(("a", ir.I32), ("a", ir.I32))),
     "@f:-1: duplicate parameter %a"),
    (_module(_add("x", A, A)), "@f:1: function must end with ret"),
    (_module(), "@f:0: function must end with ret"),
    (_module(RET0, RET0), "@f:0: ret must be the final instruction"),
    (_module(RET0, ret=ir.VOID), "@f:0: ret void must not carry a value"),
    (_module(ir.Inst("ret", None, (), ir.VOID)), "@f:0: ret must return i32"),
    (_module(ir.Inst("ret", None, (P,), ir.PTR)), "@f:0: ret must return i32"),
    (_module(_add("x", A, A), ir.Inst("load", "y", (ir.Value(
        "temp", "x", ty=ir.PTR),), ir.I32), RET0),
     "@f:1: %x used as ptr but defined as i32"),
    (_module(_add("x", ir.Value("arg", "b", ty=ir.I32), A), RET0),
     "@f:0: unknown argument %b"),
    (_module(ir.Inst("load", "x", (ir.Value("global", "h", ty=ir.PTR),),
                     ir.I32), RET0), "@f:0: unknown global @h"),
    (_module(ir.Inst("ret", None, (ir.UNDEF,), ir.I32)),
     "@f:0: undefined value read (poison from read-before-write)"),
    (_module(ir.Inst("ret", None, (ir.const(1 << 31),), ir.I32)),
     "@f:0: constant 2147483648 out of 32-bit signed range"),
    (_module(ir.Inst("add", "x", (A,), ir.I32), RET0),
     "@f:0: add expects 2 operands"),
    (_module(ir.Inst("fshl", "x", (A, A), ir.I32), RET0),
     "@f:0: fshl expects 3 operands"),
    (_module(ir.Inst("load", "x", (A,), ir.I32), RET0),
     "@f:0: load takes one ptr operand"),
    (_module(ir.Inst("load", "x", (P,), ir.VOID), RET0),
     "@f:0: load result must be i32 or ptr"),
    (_module(ir.Inst("getelementptr", "q", (P, A), ir.PTR), RET0),
     "@f:0: getelementptr takes (ptr base, constant byte offset)"),
    (_module(ir.Inst("alloca", "s", (), ir.PTR, alloc_ty=ir.VOID), RET0),
     "@f:0: alloca slot must be i32 or ptr"),
    (_module(ir.Inst("frob", "x", (A,), ir.I32), RET0),
     "@f:0: unknown opcode 'frob'"),
    # the parser's result rule holds for a module built in code too
    (_module(_add(None, A, A), RET0),
     "@f:0: add makes a value but names no result"),
    (_module(ir.Inst("store", "s", (A, P), ir.VOID), RET0),
     "@f:0: store makes no value but is named %s"),
], ids=["duplicate-global", "global-type", "duplicate-symbol",
        "duplicate-parameter", "no-final-ret", "empty-body", "early-ret",
        "ret-void-value", "ret-no-value", "ret-wrong-type", "type-mismatch",
        "unknown-argument", "unknown-global", "undef-read", "constant-range",
        "binop-operand-count", "intrinsic-operand-count", "load-operand",
        "load-result", "gep-operands", "alloca-slot", "unknown-opcode",
        "unnamed-value", "named-store"])
def test_each_verifier_diagnostic(mod, msg):
    """A malformed module for each verify() message that the tests around
    this one do not produce, reporting exactly that message."""
    assert ir.verify(mod) == [msg]


def test_redefinition_violation():
    text = ("define i32 @f(i32 %a) {\n"
            "  %x = add i32 %a, 1\n  %x = add i32 %a, 2\n  ret i32 %x\n}")
    with pytest.raises(ir.IrError, match="redefinition"):
        ir.parse_ir(text)


def test_not_spelled_as_xor_minus_one():
    # there is no distinct NOT opcode anywhere: ~x parses only as xor x, -1
    m = ir.parse_ir("define i32 @f(i32 %a) {\n"
                    "  %n = xor i32 %a, -1\n  ret i32 %n\n}")
    assert m.functions[0].body[0].opcode == "xor"
    assert "not" not in ir.OPCODES


def test_constant_out_of_range():
    with pytest.raises(ir.IrError, match="32 signed bits"):
        ir.parse_ir("define i32 @f() {\n  ret i32 4294967295\n}")


def test_gep_struct_offsets():
    m = corpus_module("lxr_dep16.ll")
    gep = next(i for i in m.functions[0].body
               if i.opcode == "getelementptr")
    assert gep.operands[1].const == 16


def test_unknown_opcode_diagnostic():
    with pytest.raises(ir.IrError, match="unknown opcode"):
        ir.parse_ir("define i32 @f(i32 %a) {\n  %x = frob i32 %a, 1\n"
                    "  ret i32 %x\n}")


@pytest.mark.parametrize("text,where", [
    ("define i32 @f(i32 %a) { ret i32 %a }\n"
     "define i32 @g(i32 %a) {\n  %x = frob i32 %a, 1\n  ret i32 %x\n}\n",
     "<stdin>:3:1: unknown opcode 'frob'"),
    ("\ndefine i32 @f(i32 %a) { %x = frob i32 %a, 1 }\n",
     "<stdin>:2:1: unknown opcode 'frob'"),
], ids=["after", "inside"])
def test_position_of_a_one_line_define(text, where):
    """The pieces of a one-line define keep its line number, and the lines
    after it keep theirs."""
    with pytest.raises(ir.IrError) as e:
        ir.parse_ir(text)
    assert str(e.value) == where


def test_parse_error_carries_position():
    try:
        ir.parse_ir("define i32 @f(i32 %a) {\n  %x = add i37 %a, 1\n"
                    "  ret i32 %x\n}")
    except ir.IrError as e:
        assert e.line == 2
    else:
        pytest.fail("expected a parse error")
