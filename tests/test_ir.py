import pytest

from rv32x import ir

from conftest import CORPUS, corpus_module, corpus_text


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
