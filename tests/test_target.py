import ast
import dataclasses
import io
import random
import tokenize
import weakref

import pytest


from rv32x import driver, isel, sim
from rv32x import target as tgt
from rv32x.mir import MOp, MachineInstr

from conftest import PKG_ROOT


# --------------------------------------------------------------------------
# Independent bit-packing oracle: places each field with shifts only.
# --------------------------------------------------------------------------

def oracle_pack(fields: dict[str, tuple[int, int, int]]) -> int:
    word = 0
    for _, (value, hi, lo) in fields.items():
        assert 0 <= value < (1 << (hi - lo + 1))
        word |= value << lo
    return word


# The RISC-V unprivileged ISA manual's base formats, for words written from
# its field values (RV32I, M, Zba and Zbb chapters), not from the .desc.
_OP, _OP_IMM, _LOAD, _STORE = 0b0110011, 0b0010011, 0b0000011, 0b0100011
_LUI, _JALR = 0b0110111, 0b1100111


def _r(funct7, rs2, rs1, funct3, rd, opcode=_OP):
    return oracle_pack({"funct7": (funct7, 31, 25), "rs2": (rs2, 24, 20),
                        "rs1": (rs1, 19, 15), "funct3": (funct3, 14, 12),
                        "rd": (rd, 11, 7), "opcode": (opcode, 6, 0)})


def _i(imm, rs1, funct3, rd, opcode=_OP_IMM):
    return oracle_pack({"imm[11:0]": (imm & 0xFFF, 31, 20),
                        "rs1": (rs1, 19, 15), "funct3": (funct3, 14, 12),
                        "rd": (rd, 11, 7), "opcode": (opcode, 6, 0)})


def _shift(imm_11_5, shamt, rs1, funct3, rd):
    """I-type with imm[11:5] fixed and the shift amount in imm[4:0]."""
    return _i(imm_11_5 << 5 | shamt, rs1, funct3, rd)


def _s(imm, rs2, rs1, funct3=0b010):
    imm &= 0xFFF
    return oracle_pack({"imm[11:5]": (imm >> 5, 31, 25), "rs2": (rs2, 24, 20),
                        "rs1": (rs1, 19, 15), "funct3": (funct3, 14, 12),
                        "imm[4:0]": (imm & 0x1F, 11, 7),
                        "opcode": (_STORE, 6, 0)})


def _u(imm20, rd, opcode=_LUI):
    return oracle_pack({"imm[31:12]": (imm20, 31, 12), "rd": (rd, 11, 7),
                        "opcode": (opcode, 6, 0)})


def _fixed(funct7, funct3, opcode=_OP, funct7_mask=0x7F):
    """(mask, match) of an R word's funct7, funct3 and opcode, and of an I
    shift's, whose imm[11:5] is funct7. R4's funct2 is funct7's low two
    bits: funct7_mask 0b11."""
    return (_r(funct7_mask, 0, 0, 0b111, 0, 0x7F),
            _r(funct7, 0, 0, funct3, 0, opcode))


def test_format_layouts_disjoint_and_complete():
    for name, fields in tgt.FORMATS.items():
        seen = set()
        for _, hi, lo in fields:
            bits = set(range(lo, hi + 1))
            assert not (bits & seen), name
            seen |= bits
        assert seen == set(range(32)), name


def test_relocation_kind_must_match_role(desc):
    from rv32x.mir import MOp, MachineInstr
    with pytest.raises(tgt.TargetError, match="hi20 relocation"):
        tgt.encode(MachineInstr("ADDI", [MOp.preg(1), MOp.preg(1),
                                         MOp.sym("a", "hi20")]), desc)
    with pytest.raises(tgt.TargetError, match="lo12 relocation"):
        tgt.encode(MachineInstr("LUI", [MOp.preg(1),
                                        MOp.sym("a", "lo12")]), desc)


def test_catalog_contents(desc):
    base = {"LUI", "ADDI", "ANDI", "ORI", "XORI", "SLLI", "SRLI", "SRAI",
            "ADD", "SUB", "SLL", "SRL", "SRA", "AND", "OR", "XOR",
            "LW", "SW", "JALR"}
    assert base <= set(desc.instrs)
    assert desc.instrs["MUL"].ext == "M"

    def fixed(mnemonic):
        return desc.instrs[mnemonic].mask, desc.instrs[mnemonic].match

    assert fixed("MLA") == _fixed(0b10, 0b100, funct7_mask=0b11)
    assert desc.instrs["MLA"].asm == "mla"
    assert fixed("NAXOR") == _fixed(0b11, 0b100, funct7_mask=0b11)
    assert fixed("SH1ADD") == _fixed(0b0010000, 0b010)
    assert fixed("SH2ADD") == _fixed(0b0010000, 0b100)
    assert fixed("SH3ADD") == _fixed(0b0010000, 0b110)
    assert fixed("ROR") == _fixed(0b0110000, 0b101)
    assert fixed("SHLXOR") == _fixed(0b0011000, 0b111)
    assert fixed("LXR") == _fixed(0b0011011, 0b101)
    assert desc.instrs["LXR"].may_load
    assert fixed("ROTI") == _fixed(0b0011000, 0b101, _OP_IMM)


def test_duplicate_mnemonic_rejected():
    text = """
extension I
instr ADD fmt=R opcode=0b0110011 funct3=0b000 funct7=0b0000000 ops=rd,rs1,rs2
instr ADD fmt=R opcode=0b0110011 funct3=0b001 funct7=0b0000000 ops=rd,rs1,rs2
"""
    with pytest.raises(tgt.TargetError, match="duplicate mnemonic"):
        tgt.load_target_desc(text)


def test_encoding_collision_rejected():
    text = """
extension I
instr FOO fmt=R opcode=0b0110011 funct3=0b000 funct7=0b0000000 ops=rd,rs1,rs2
instr BAR fmt=R opcode=0b0110011 funct3=0b000 funct7=0b0000000 ops=rd,rs1,rs2
"""
    with pytest.raises(tgt.TargetError, match="collision"):
        tgt.load_target_desc(text)


def test_r_vs_r4_collision_detected():
    # an R def whose funct7 low bits equal an R4 def's funct2 is ambiguous
    text = """
extension I
instr FOO fmt=R  opcode=0b0110011 funct3=0b100 funct7=0b0000010 ops=rd,rs1,rs2
instr BAR fmt=R4 opcode=0b0110011 funct3=0b100 funct2=0b10 ops=rd,rs1,rs2,rs3
"""
    with pytest.raises(tgt.TargetError, match="collision"):
        tgt.load_target_desc(text)


def test_malformed_pattern_rejected():
    text = """
extension I
instr FOO fmt=R opcode=0b0110011 funct3=0b000 funct7=0b0000000 ops=rd,rs1,rs2
pattern (add $a $b) => (FOO $a $c)
"""
    with pytest.raises(tgt.TargetError, match="not bound"):
        tgt.load_target_desc(text)


def test_a_pattern_target_takes_an_immediate_capture_within_its_role():
    # a uimm5 capture fits imm12; the target's operands are checked on
    # every load, also after the record is memoized
    text = (f"extension I\n{_ADD_ADDI_SW}\n"
            "pattern (sub (xor $a (uimm5 $b)) $c) => (ADDI $a $b)\n")
    for _ in range(2):
        pat = tgt.load_target_desc(text).patterns[0]
        assert (pat.source.kind, pat.target.kind) == ("sub", "ADDI")


def test_a_parsed_pattern_is_checked_against_each_description(desc):
    # the shipped description has parsed its records once already; the
    # same record in a description without SH1ADD is still rejected
    shipped = (PKG_ROOT / "targets" / "rv32_xcrypt.desc").read_text()
    record = next(line for line in shipped.splitlines()
                  if line.startswith("pattern (add (mul_oneuse"))
    with pytest.raises(tgt.TargetError, match="unknown instruction 'SH1ADD'"):
        tgt.load_target_desc(f"extension I\n{record}\n")


_FOO = ("instr FOO fmt=R opcode=0b0110011 funct3=0b000 funct7=0b0000000 "
        "ops=rd,rs1,rs2")
_LUI_FOO = ("instr FOO fmt=U opcode=0b0110111 ops=rd,imm20 "
            "sem=(shl $imm20 (const 12))")
_SHIFT_FOO = "instr FOO fmt=I opcode=0b0010011 funct3=0b001 ops=rd,rs1,uimm5"
_ADDI = "instr ADDI fmt=I opcode=0b0010011 funct3=0b000 ops=rd,rs1,imm12"
_ADD_ADDI_SW = "\n".join([
    "instr ADD fmt=R opcode=0b0110011 funct3=0b000 funct7=0b0000000 "
    "ops=rd,rs1,rs2", _ADDI,
    "instr SW fmt=S opcode=0b0100011 funct3=0b010 ops=rs2,rs1,imm12"])
_XOR_SUB = "\npattern (sub (xor $a $b) $c) => "
_BAD_RECORDS = {
    "unknown-kind": (_FOO + " sem=(nand $rs1 $rs2)",
                     "unknown sem node kind 'nand'"),
    "oneuse": (_FOO + " sem=(add_oneuse $rs1 $rs2)",
               "unknown sem node kind 'add'"),
    "uimm5-matcher": (_FOO + " sem=(uimm5 $rs1)",
                      "unknown sem node kind 'uimm5'"),
    "undeclared-operand": (_FOO + " sem=(add $rs1 $rs3)",
                           r"\$rs3 is not a source operand"),
    "destination-operand": (_FOO + " sem=(add $rd $rs2)",
                            r"\$rd is not a source operand"),
    "arity": (_FOO + " sem=(load $rs1 $rs2)",
              "wrong operand count for 'load'"),
    "pattern-without-target": (_FOO + " sem=(add $rs1 $rs2)\npattern FOO",
                               "a pattern record is SRC => TGT"),
    "value-sem-without-rd": (
        "instr FOO fmt=R4 opcode=0b0110011 funct3=0b100 funct2=0b10 "
        "ops=rs1,rs2,rs3 sem=(xor (add $rs1 $rs2) $rs3)",
        "sem 'xor' gives a value, so ops= starts with rd"),
    "store-sem-with-rd": (_ADDI + " sem=(store $rs1 $imm12)",
                          "a store sem writes memory, not rd"),
    "nested-store": (_FOO + " sem=(add (store $rs1 $rs2) $rs1)",
                     "a store is only ever a sem's root"),
    "repeated-role": (_FOO.replace("rd,rs1,rs2", "rd,rd,rs2")
                      + " sem=(add $rs2 $rs2)",
                      r"bad operand roles \('rd', 'rd', 'rs2'\)"),
    "funct3-too-wide": (_FOO.replace("funct3=0b000", "funct3=0b1000"),
                        "opcode or funct value too wide"),
    "funct7-too-wide": (_FOO.replace("funct7=0b0000000", "funct7=0b10000000"),
                        "opcode or funct value too wide"),
    "role-outside-format": (_FOO.replace("rd,rs1,rs2", "rd,rs1,imm12"),
                            "format R has no imm12 field"),
    "missing-opcode": (_FOO.replace("opcode=0b0110011 ", ""),
                       "missing opcode="),
    "non-integer-opcode": (_FOO.replace("opcode=0b0110011", "opcode=zz"),
                           "opcode=zz is not an integer"),
    "non-integer-funct3": (_FOO.replace("funct3=0b000", "funct3=9x"),
                           "funct3=9x is not an integer"),
    "misspelled-field": (_FOO.replace("funct7=", "funtc7="),
                         "unknown token 'funtc7=0b0000000'"),
    "missing-funct3": (_FOO.replace("funct3=0b000 ", ""),
                       "format R needs funct3="),
    "const-not-integer": (_FOO + "\npattern (add $a (const x)) => (FOO $a $a)",
                          "const takes an integer literal, not 'x'"),
    "pattern-too-few-operands": (
        _FOO + "\npattern (sub (xor $a $b) $c) => (FOO $a)",
        "pattern target FOO takes 2 operands, not 1"),
    "pattern-too-many-operands": (
        _FOO + "\npattern (sub (xor $a $b) $c) => (FOO $a $b $c)",
        "pattern target FOO takes 2 operands, not 3"),
    "nested-pattern-operands": (
        _FOO + "\npattern (sub (xor $a $b) $c) => (FOO (FOO $a) $c)",
        "pattern target FOO takes 2 operands, not 1"),
    "r-without-funct7": (_FOO.replace(" funct7=0b0000000", ""),
                         "format R needs funct7="),
    "r4-without-funct2": (
        "instr FOO fmt=R4 opcode=0b0110011 funct3=0b100 ops=rd,rs1,rs2,rs3",
        "format R4 needs funct2="),
    "shift-without-funct7": (_SHIFT_FOO, "format I with uimm5 needs funct7="),
    "funct2-on-r": (_FOO.replace("ops=", "funct2=0b01 ops="),
                    "format R has no funct2 field"),
    "funct7-on-i-without-uimm5": (
        _ADDI.replace("ops=", "funct7=0 ops="),
        "format I without uimm5 has no funct7 field"),
    "funct3-on-u": (_LUI_FOO.replace("ops=", "funct3=0 ops="),
                    "format U has no funct3 field"),
    "pattern-const-in-register-role": (
        _ADD_ADDI_SW + _XOR_SUB + "(ADD $a (const 3))",
        r"pattern target ADD: rs2 takes a register, not \(const 3\)"),
    "pattern-nested-without-rd": (
        _ADD_ADDI_SW + _XOR_SUB + "(ADD (SW $a $b (const 0)) $c)",
        "pattern target ADD: rs1 takes a register, not SW, which writes "
        "no rd"),
    "pattern-root-without-rd": (
        _ADD_ADDI_SW + _XOR_SUB + "(SW $a $b (const 0))",
        "pattern target SW writes no rd, so it cannot give the value of "
        "'sub'"),
    "pattern-register-in-immediate-role": (
        _ADD_ADDI_SW + _XOR_SUB + "(ADDI $a $b)",
        r"ADDI: imm12 takes an immediate in \[-2048, 2047\], not register "
        r"\$b"),
    "pattern-const-out-of-range": (
        _ADD_ADDI_SW + _XOR_SUB + "(ADDI $a (const 2048))",
        r"ADDI: imm12 takes an immediate in \[-2048, 2047\], not "
        r"\(const 2048\)"),
    "pattern-instruction-in-immediate-role": (
        _ADD_ADDI_SW + _XOR_SUB + "(ADDI $a (ADD $b $c))",
        r"ADDI: imm12 takes an immediate in \[-2048, 2047\], not ADD$"),
    "pattern-imm12-capture": (
        _ADD_ADDI_SW + "\npattern (sub $a (imm12 $b)) => (ADD $a $b)",
        "only uimm5 immediates can be captured, not imm12"),
    "pattern-immediate-in-register-role": (
        _ADD_ADDI_SW + "\npattern (sub (xor $a (uimm5 $b)) $c) => (ADD $a $b)",
        r"ADD: rs2 takes a register, not uimm5 \$b"),
    "unbalanced-close": (_FOO + " sem=(add $rs1 $rs2))", r"unbalanced '\)'"),
    "two-expressions": (_FOO + " sem=(add $rs1 $rs2) (sub $rs1 $rs2)",
                        "expected one balanced expression"),
    "const-two-literals": (_FOO + " sem=(add $rs1 (const 1 2))",
                           "const takes one literal"),
    "not-two-operands": (_FOO + " sem=(not $rs1 $rs2)",
                         "not takes one operand"),
    "unknown-extension": ("extension Zzz", "unknown extension 'Zzz'"),
    "unrecognized-record": ("frob FOO", "unrecognized record 'frob FOO'"),
    "unknown-format": (_FOO.replace("fmt=R", "fmt=Q"), "bad format 'Q'"),
    "unread-register": (_FOO + " sem=(rotr $rs1 $rs1)",
                        r"sem never reads source operand \$rs2"),
    "unread-immediate": (_ADDI + " sem=(add $rs1 $rs1)",
                         r"sem never reads source operand \$imm12"),
    "instr-without-mnemonic": ("instr sem=(add $rs1 $rs2)",
                               "an instr record starts with its mnemonic"),
}


@pytest.mark.parametrize("text, message", list(_BAD_RECORDS.values()),
                         ids=list(_BAD_RECORDS))
def test_bad_record_rejected(text, message):
    # the bad record is the last line; it is diagnosed, with its own line
    # number, on every load, since the record memos never hold an error
    for pad in ("", "\n", "\n\n"):
        line = text.count("\n") + pad.count("\n") + 2
        with pytest.raises(tgt.TargetError,
                           match=f"^line {line}: .*{message}"):
            tgt.load_target_desc("extension I\n" + pad + text + "\n")


def test_a_reload_parses_no_instr_record(monkeypatch):
    monkeypatch.setattr(tgt, "_INSTRS", {})  # as in a fresh process
    calls = []
    parse_instr = tgt._parse_instr

    def counting_parse_instr(*args):
        calls.append(args)
        return parse_instr(*args)

    monkeypatch.setattr(tgt, "_parse_instr", counting_parse_instr)
    first = tgt.load_default_desc()
    assert len(calls) == len(first.instrs)
    second = tgt.load_default_desc()
    assert len(calls) == len(first.instrs)
    # a new description, as immutable as the first, over the same defs
    assert second is not first
    with pytest.raises(TypeError):
        second.instrs["ADD"] = first.instrs["SUB"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        second.instrs["ADD"].match = 0
    assert all(second.instrs[m] is d for m, d in first.instrs.items())
    assert second.patterns == first.patterns


def test_a_record_under_two_extensions_gives_two_defs():
    record = _FOO + " sem=(add $rs1 $rs2)"
    under_i = tgt.load_target_desc(f"extension I\n{record}\n").instrs["FOO"]
    under_zba = tgt.load_target_desc(f"extension Zba\n{record}\n"
                                     ).instrs["FOO"]
    assert (under_i.ext, under_zba.ext) == ("I", "Zba")
    assert tgt.load_target_desc(f"extension Zba\n{record}\n"
                                ).instrs["FOO"] is under_zba


def test_a_duplicate_of_a_memoized_record_reports_its_own_line():
    record = _FOO + " sem=(add $rs1 $rs2)"
    tgt.load_target_desc(f"extension I\n{record}\n")
    with pytest.raises(tgt.TargetError,
                       match="^line 4: duplicate mnemonic FOO"):
        tgt.load_target_desc(f"extension I\n{record}\n\n{record}\n")


def test_a_dropped_description_is_freed_at_once():
    # no reference cycle: a description that is loaded per call, as
    # run_function without `desc` does, is not left to the cyclic collector
    desc = tgt.load_default_desc()
    ref = weakref.ref(desc)
    del desc
    assert ref() is None
    # nor once it has compiled: the selection table kept for it holds
    # generated selectors, which hold no description, and goes with it
    tables = len(isel._TABLES)
    desc = tgt.load_default_desc()
    driver.compile_ir_text("define i32 @f(i32 %a) {\n  %b = add i32 %a, 1\n"
                           "  ret i32 %b\n}\n", "f.ll", desc,
                           tgt.parse_mattr("+zba,+zbb,+xcrypt"))
    assert len(isel._TABLES) == tables + 1
    ref = weakref.ref(desc)
    del desc
    assert ref() is None
    assert len(isel._TABLES) == tables
    # nor once it has run: the decode memo kept for it holds InstrDefs,
    # which hold no description, and goes with it
    memos = len(tgt._DECODED)
    desc = tgt.load_default_desc()
    nop = tgt.encode(MachineInstr("ADDI", [MOp.preg(0), MOp.preg(0),
                                           MOp.imm(0)]), desc).word
    ret = tgt.encode(MachineInstr("JALR", [MOp.preg(0), MOp.preg(1),
                                           MOp.imm(0)]), desc).word
    assert sim.run_function([nop, ret], [5], {}, desc=desc)[0] == 5
    assert len(tgt._DECODED) == memos + 1
    ref = weakref.ref(desc)
    del desc
    assert ref() is None
    assert len(tgt._DECODED) == memos


def test_a_loaded_description_is_immutable():
    desc = tgt.load_default_desc()
    add = desc.instrs["ADD"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        desc.instrs = {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        desc.patterns = ()
    for table, key in ((desc.instrs, "ADD"), (desc.by_asm, "add"),
                       (desc.by_opcode, 0x33)):
        with pytest.raises(TypeError):
            table[key] = add
        with pytest.raises(TypeError):
            del table[key]
        with pytest.raises(AttributeError):
            table.clear()
    with pytest.raises(TypeError):
        desc.patterns[0] = desc.patterns[1]
    with pytest.raises(AttributeError):
        desc.patterns.append(desc.patterns[0])
    with pytest.raises(AttributeError):
        desc.by_opcode[0x33].append(add)
    assert all(type(slot) is tuple for slot in desc.by_opcode.values())


def test_generated_sem_source_holds_no_record_text(monkeypatch):
    """The source each instruction's `run` is generated from holds only the
    templates' tokens, the parameter and local names and integer literals,
    and is generated only for a sem that _check_sem has accepted, on first
    use rather than at load."""
    monkeypatch.setattr(tgt, "_INSTRS", {})  # parse every record afresh
    accepted, sources = [], []
    check_sem, run_source = tgt._check_sem, tgt._run_source

    def recording_check_sem(node, *args):
        check_sem(node, *args)
        accepted.append(node)

    def recording_run_source(d):
        assert any(node is d.sem for node in accepted), d.mnemonic
        sources.append(run_source(d))
        return sources[-1]

    monkeypatch.setattr(tgt, "_check_sem", recording_check_sem)
    monkeypatch.setattr(tgt, "_run_source", recording_run_source)
    desc = tgt.load_default_desc()
    assert sources == []
    defs = [d for d in desc.instrs.values() if d.sem is not None]
    assert all(callable(d.run) for d in defs) and len(sources) == len(defs)
    names = {"def", "run", "m", "r", "w", "v", "d", "if", "return", "load",
             "store"}
    kinds = {tokenize.NAME, tokenize.NUMBER, tokenize.OP, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    for d, source in zip(defs, sources):
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            assert tok.type in kinds, (d.mnemonic, tok)
            if tok.type == tokenize.NAME:
                assert tok.string in names, (d.mnemonic, tok)
            elif tok.type == tokenize.NUMBER:
                assert type(ast.literal_eval(tok.string)) is int, d.mnemonic
    # a sem that _check_sem rejects never reaches the generator
    for sem in ("(__import__ $rs1 $rs2)", "(add $rs1 $rd)"):
        with pytest.raises(tgt.TargetError):
            tgt.load_target_desc(f"extension I\n{_FOO} sem={sem}\n")
    assert len(sources) == len(defs)


def test_every_instruction_but_jalr_has_a_sem(desc):
    assert [d.mnemonic for d in desc.instrs.values() if d.sem is None] == \
        ["JALR"]


def test_sem_pattern_takes_the_sem_as_its_source(desc):
    rori = next(p for p in desc.patterns if p.target.kind == "RORI")
    # the shift amount of the sem becomes a 5-bit constant match
    assert rori.source == tgt.PatNode("rotr", (
        tgt.PatNode("capture", name="rs1"), tgt.PatNode("uimm5", name="uimm5")))
    assert rori.target == tgt.PatNode("RORI", (
        tgt.PatNode("capture", name="rs1"), tgt.PatNode("capture", name="uimm5")))
    # an imm12 operand becomes a signed 12-bit constant match; its size puts
    # ADDI ahead of ADD
    addi = next(p for p in desc.patterns if p.target.kind == "ADDI")
    assert addi.source == tgt.PatNode("add", (
        tgt.PatNode("capture", name="rs1"), tgt.PatNode("imm12", name="imm12")))
    add = next(p for p in desc.patterns if p.target.kind == "ADD")
    assert addi.priority > add.priority
    mla = next(p for p in desc.patterns if p.target.kind == "MLA")
    assert mla.source is desc.instrs["MLA"].sem
    assert [c.name for c in mla.target.children] == ["rs1", "rs2", "rs3"]


def test_every_instruction_with_a_sem_has_a_pattern(desc):
    # selection reads what an instruction computes from its sem alone. LUI
    # is left out, as imm20 operands are not matched
    targets = {p.target for p in desc.patterns}
    missing = [d.mnemonic for d in desc.instrs.values()
               if d.sem is not None and "imm20" not in d.ops
               and tgt.PatNode(d.mnemonic, tuple(
                   tgt.PatNode("capture", name=r) for r in d.ops if r != "rd"))
               not in targets]
    assert missing == []


def test_every_instruction_with_a_sem_is_selectable_in_its_extension(desc):
    # selection makes instructions through patterns, hooks and operand
    # materialization only: a pattern of the instruction's own extension
    # must target it, except for LUI, whose imm20 is not matched and which
    # materialization makes
    targets = {(p.target.kind, p.ext) for p in desc.patterns}
    missing = [d.mnemonic for d in desc.instrs.values()
               if d.sem is not None and d.mnemonic != "LUI"
               and (d.mnemonic, d.ext) not in targets]
    assert missing == []


def test_add_x0_encodes_to_0x33(desc):
    w = tgt.encode(MachineInstr("ADD", [MOp.preg(0)] * 3), desc)
    assert w.word == 0x00000033


# standard words, each written with the manual's layouts above
RA, SP, S0, A0, A1, A2 = 1, 2, 8, 10, 11, 12
SPEC_WORDS = {  # asm: (mnemonic, operand values in `ops` order, word)
    "addi a0, a0, 1": ("ADDI", (A0, A0, 1), _i(1, A0, 0b000, A0)),
    "addi sp, sp, -16": ("ADDI", (SP, SP, -16), _i(-16, SP, 0b000, SP)),
    "xori a0, a1, -1": ("XORI", (A0, A1, -1), _i(-1, A1, 0b100, A0)),
    "ori a0, a0, 255": ("ORI", (A0, A0, 255), _i(255, A0, 0b110, A0)),
    "andi a0, a1, 2047": ("ANDI", (A0, A1, 2047), _i(2047, A1, 0b111, A0)),
    "slli a0, a0, 1": ("SLLI", (A0, A0, 1), _shift(0, 1, A0, 0b001, A0)),
    "srli a0, a1, 31": ("SRLI", (A0, A1, 31), _shift(0, 31, A1, 0b101, A0)),
    "srai a0, a0, 3": ("SRAI", (A0, A0, 3),
                       _shift(0b0100000, 3, A0, 0b101, A0)),
    "lw ra, 12(sp)": ("LW", (RA, SP, 12), _i(12, SP, 0b010, RA, _LOAD)),
    "lw a0, -4(s0)": ("LW", (A0, S0, -4), _i(-4, S0, 0b010, A0, _LOAD)),
    "jalr zero, 0(ra)": ("JALR", (0, RA, 0), _i(0, RA, 0b000, 0, _JALR)),
    "add a0, a0, a1": ("ADD", (A0, A0, A1), _r(0, A1, A0, 0b000, A0)),
    "sub a0, a1, a2": ("SUB", (A0, A1, A2),
                       _r(0b0100000, A2, A1, 0b000, A0)),
    "sll a0, a0, a1": ("SLL", (A0, A0, A1), _r(0, A1, A0, 0b001, A0)),
    "srl a0, a0, a1": ("SRL", (A0, A0, A1), _r(0, A1, A0, 0b101, A0)),
    "sra a0, a0, a1": ("SRA", (A0, A0, A1),
                       _r(0b0100000, A1, A0, 0b101, A0)),
    "xor a0, a0, a1": ("XOR", (A0, A0, A1), _r(0, A1, A0, 0b100, A0)),
    "or a0, a0, a1": ("OR", (A0, A0, A1), _r(0, A1, A0, 0b110, A0)),
    "and a0, a0, a1": ("AND", (A0, A0, A1), _r(0, A1, A0, 0b111, A0)),
    "sw a0, 4(a1)": ("SW", (A0, A1, 4), _s(4, A0, A1)),
    "sw ra, -4(sp)": ("SW", (RA, SP, -4), _s(-4, RA, SP)),
    "lui a0, 0x12345": ("LUI", (A0, 0x12345), _u(0x12345, A0)),
    "lui a0, 0xfffff": ("LUI", (A0, 0xFFFFF), _u(0xFFFFF, A0)),
    "mul a0, a0, a1": ("MUL", (A0, A0, A1), _r(0b0000001, A1, A0, 0b000, A0)),
    "sh1add a0, a0, a1": ("SH1ADD", (A0, A0, A1),
                          _r(0b0010000, A1, A0, 0b010, A0)),
    "sh2add a0, a0, a1": ("SH2ADD", (A0, A0, A1),
                          _r(0b0010000, A1, A0, 0b100, A0)),
    "sh3add a0, a0, a1": ("SH3ADD", (A0, A0, A1),
                          _r(0b0010000, A1, A0, 0b110, A0)),
    "ror a0, a0, a1": ("ROR", (A0, A0, A1), _r(0b0110000, A1, A0, 0b101, A0)),
    "rori a0, a0, 7": ("RORI", (A0, A0, 7),
                       _shift(0b0110000, 7, A0, 0b101, A0)),
}


def test_spec_words_match_the_manual_layouts():
    # the oracle's layouts give the words quoted in the manual and by
    # standard assemblers
    assert SPEC_WORDS["addi a0, a0, 1"][2] == 0x00150513
    assert SPEC_WORDS["sw a0, 4(a1)"][2] == 0x00a5a223
    assert SPEC_WORDS["ror a0, a0, a1"][2] == 0x60b55533
    assert SPEC_WORDS["addi sp, sp, -16"][2] == 0xff010113
    assert SPEC_WORDS["jalr zero, 0(ra)"][2] == 0x00008067


@pytest.mark.parametrize("asm", list(SPEC_WORDS))
def test_shipped_encoding_is_the_spec_word(desc, asm):
    mnemonic, values, word = SPEC_WORDS[asm]
    d = desc.instrs[mnemonic]
    ops = [MOp.preg(v) if role in ("rd", "rs1", "rs2") else MOp.imm(v)
           for role, v in zip(d.ops, values)]
    assert tgt.encode(MachineInstr(mnemonic, ops), desc).word == word
    back = tgt.decode(word, desc, frozenset(tgt.ALL_EXTENSIONS))
    assert back.mnemonic == mnemonic
    assert [(o.kind, o.val) for o in back.ops] == [(o.kind, o.val)
                                                   for o in ops]


def test_naxor_field_level_oracle(desc):
    # naxor a1, a2, a3, a4: rd=x11 rs1=x12 rs2=x13 rs3=x14
    mi = MachineInstr("NAXOR", [MOp.preg(11), MOp.preg(12), MOp.preg(13),
                                MOp.preg(14)])
    got = tgt.encode(mi, desc).word
    want = oracle_pack({
        "rs3": (14, 31, 27), "funct2": (0b11, 26, 25), "rs2": (13, 24, 20),
        "rs1": (12, 19, 15), "funct3": (0b100, 14, 12), "rd": (11, 11, 7),
        "opcode": (0b0110011, 6, 0)})
    assert got == want
    back = tgt.decode(got, desc, frozenset({"I", "Xcrypt"}))
    assert back.mnemonic == "NAXOR"
    assert [op.val for op in back.ops] == [11, 12, 13, 14]


def test_shlxor_normative_bytes(desc):
    mi = MachineInstr("SHLXOR", [MOp.preg(18), MOp.preg(18), MOp.preg(24)])
    w = tgt.encode(mi, desc).word
    assert list(w.to_bytes(4, "little")) == [0x33, 0x79, 0x89, 0x31]


def test_rori_shift_region(desc):
    mi = MachineInstr("RORI", [MOp.preg(10), MOp.preg(10), MOp.imm(2)])
    w = tgt.encode(mi, desc).word
    # the Zbb shamt layout merges funct7 0b0110000 into the imm field
    assert (w >> 25) & 0x7F == 0b0110000
    assert (w >> 20) & 0x1F == 2
    back = tgt.decode(w, desc, frozenset({"I", "Zbb"}))
    assert back.mnemonic == "RORI" and back.ops[2].val == 2


def _random_operands(rng, d):
    ops = []
    for role in d.ops:
        if role in ("rd", "rs1", "rs2", "rs3"):
            ops.append(MOp.preg(rng.randrange(32)))
        elif role == "imm12":
            ops.append(MOp.imm(rng.randrange(-2048, 2048)))
        elif role == "uimm5":
            ops.append(MOp.imm(rng.randrange(32)))
        elif role == "imm20":
            ops.append(MOp.imm(rng.randrange(1 << 20)))
    return ops


def assert_roundtrips(desc, seed: int, n: int):
    """decode(encode(mi)) == mi for n random instructions of the catalog."""
    rng = random.Random(seed)
    defs = sorted(desc.instrs.values(), key=lambda d: d.mnemonic)
    ext = frozenset(tgt.ALL_EXTENSIONS)
    for _ in range(n):
        d = rng.choice(defs)
        mi = MachineInstr(d.mnemonic, _random_operands(rng, d))
        w = tgt.encode(mi, desc)
        back = tgt.decode(w.word, desc, ext)
        assert back is not None and back.mnemonic == d.mnemonic
        assert [(o.kind, o.val) for o in back.ops] == \
            [(o.kind, o.val) for o in mi.ops]


def test_encode_decode_roundtrip_randomized(desc):
    assert_roundtrips(desc, 99, 2000)


def test_decode_unknown_word_is_none(desc):
    assert tgt.decode(0xFFFFFFFF, desc, frozenset(tgt.ALL_EXTENSIONS)) is None


def test_decode_respects_extension_gating(desc):
    w = tgt.encode(MachineInstr("MUL", [MOp.preg(1)] * 3), desc).word
    assert tgt.decode(w, desc, frozenset({"I"})) is None
    assert tgt.decode(w, desc, frozenset({"I", "M"})).mnemonic == "MUL"


def test_catalog_disjointness(desc):
    defs = list(desc.instrs.values())
    for i, a in enumerate(defs):
        for b in defs[i + 1:]:
            assert not tgt._collide(a, b), (a.mnemonic, b.mnemonic)


def test_imm_range_errors(desc):
    with pytest.raises(tgt.TargetError, match="imm12"):
        tgt.encode(MachineInstr("ADDI", [MOp.preg(1), MOp.preg(1),
                                         MOp.imm(2048)]), desc)
    with pytest.raises(tgt.TargetError, match="shift amount"):
        tgt.encode(MachineInstr("SLLI", [MOp.preg(1), MOp.preg(1),
                                         MOp.imm(32)]), desc)
    with pytest.raises(tgt.TargetError, match="virtual register"):
        tgt.encode(MachineInstr("ADD", [MOp.vreg(1), MOp.preg(1),
                                        MOp.preg(2)]), desc)


def test_encode_checks_what_a_caller_hands_it(desc):
    with pytest.raises(tgt.TargetError, match="ADD: expected 3 operands"):
        tgt.encode(MachineInstr("ADD", [MOp.preg(1), MOp.preg(2)]), desc)
    with pytest.raises(tgt.TargetError, match="unknown instruction 'FROB'"):
        tgt.encode(MachineInstr("FROB", []), desc)


# --------------------------------------------------------------------------
# Immediate materialization
# --------------------------------------------------------------------------

def mat_value(seq) -> int:
    """Evaluate a materialization sequence."""
    rd = 0
    for i, (mn, imm) in enumerate(seq):
        if mn == "LUI":
            rd = (imm << 12) & 0xFFFFFFFF
        elif mn == "ADDI":
            src = 0 if i == 0 else rd
            rd = (src + imm) & 0xFFFFFFFF
        else:
            k = {"SH1ADD": 1, "SH2ADD": 2, "SH3ADD": 3}[mn]
            rd = ((rd << k) + rd) & 0xFFFFFFFF
    return rd


def _reachable_in_one(value: int) -> bool:
    # ADDI from x0 covers the sign-extended imm12 span; LUI covers every
    # value whose low twelve bits are zero
    s = value - (1 << 32) if value & 0x80000000 else value
    return -2048 <= s <= 2047 or (value & 0xFFF) == 0


def _preimages(value: int):
    """All rd states from which one op reaches `value` (backward step)."""
    preds = set()
    for immv in range(-2048, 2048):  # ADDI rd, rd, immv
        preds.add((value - immv) & 0xFFFFFFFF)
    for d in (3, 5, 9):  # SHkADD rd, rd, rd computes (d * rd) mod 2^32
        inv = pow(d, -1, 1 << 32)  # d is odd, invertible mod 2^32
        preds.add((value * inv) & 0xFFFFFFFF)
    return preds


def bfs_shortest(value: int, max_len: int = 3) -> int:
    """Exhaustive breadth-first search (backward, over pre-images) across
    {LUI, ADDI, SH1ADD, SH2ADD, SH3ADD} sequences up to max_len."""
    value &= 0xFFFFFFFF
    frontier = {value}
    for depth in range(1, max_len + 1):
        if any(_reachable_in_one(v) for v in frontier):
            return depth
        frontier = set().union(*(_preimages(v) for v in frontier))
    raise AssertionError(f"no sequence of length <= {max_len} for {value}")


def test_materialize_small_and_boundary():
    assert tgt.materialize_imm(0) == [("ADDI", 0)]
    assert tgt.materialize_imm(2047) == [("ADDI", 2047)]
    assert tgt.materialize_imm(-2048) == [("ADDI", -2048)]
    assert tgt.materialize_imm(2048) == [("LUI", 1), ("ADDI", -2048)]
    assert tgt.materialize_imm(4096) == [("LUI", 1)]


def test_materialize_correct_on_random_values():
    rng = random.Random(21)
    zba = frozenset({"I", "Zba"})
    for _ in range(2000):
        v = rng.getrandbits(32)
        assert mat_value(tgt.materialize_imm(v)) == v
        assert mat_value(tgt.materialize_imm(v, zba, 1)) == v


def test_materialize_all_16bit_sign_extended_values():
    for v in range(-(1 << 15), 1 << 15):
        assert mat_value(tgt.materialize_imm(v)) == v & 0xFFFFFFFF


def test_materialize_base_never_exceeds_two_instructions():
    rng = random.Random(22)
    for _ in range(4000):
        assert len(tgt.materialize_imm(rng.getrandbits(32))) <= 2


def test_zba_path_inert_at_default_threshold():
    # with the faithful guard (> 2) the base sequence never exceeds two
    # instructions on RV32, so the shortcut can never be consulted
    rng = random.Random(23)
    zba = frozenset({"I", "Zba"})
    for _ in range(2000):
        v = rng.getrandbits(32)
        seq = tgt.materialize_imm(v, zba)  # default threshold
        assert all(mn in ("LUI", "ADDI") for mn, _ in seq)
        assert seq == tgt.materialize_imm(v)


def test_materialize_12291_analysis():
    # 12291 = 3 * 4097; with the threshold lowered to 1 the Zba path is
    # consulted, but its 3-instruction sequence is not shorter than the
    # 2-instruction LUI+ADDI base sequence, so the base form is kept.
    seq = tgt.materialize_imm(12291, frozenset({"I", "Zba"}), 1)
    assert seq == [("LUI", 3), ("ADDI", 3)]
    assert mat_value(seq) == 12291
    assert bfs_shortest(12291) == 2 == len(seq)


def test_materialize_zba_replaces_when_strictly_shorter():
    # Synthetic demonstration of the replacement rule: at threshold 0 a
    # divisible imm12 value would re-derive through the base sequence, and
    # the guard keeps the shorter form only.
    seq = tgt.materialize_imm(300, frozenset({"I", "Zba"}), 0)
    assert seq == [("ADDI", 300)]  # tmp (2) is not shorter than base (1)


def test_split_hi_lo_identity():
    rng = random.Random(31)
    for _ in range(10_000):
        addr = rng.getrandbits(32)
        hi, lo = tgt.split_hi_lo(addr)
        assert 0 <= hi < (1 << 20) and -2048 <= lo <= 2047
        assert ((hi << 12) + lo) & 0xFFFFFFFF == addr


def test_parse_mattr():
    assert tgt.parse_mattr(None) == frozenset({"I", "M"})
    assert tgt.parse_mattr("+zba,+xcrypt") == \
        frozenset({"I", "M", "Zba", "Xcrypt"})
    assert tgt.parse_mattr("-m") == frozenset({"I"})
    assert tgt.parse_mattr("+zba,,+zbb") == \
        frozenset({"I", "M", "Zba", "Zbb"})  # an empty token is skipped
    with pytest.raises(tgt.TargetError, match="unknown feature"):
        tgt.parse_mattr("+avx")
