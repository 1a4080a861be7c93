import functools
import itertools
import random

import pytest

from rv32x import codegen, ir, sim
from rv32x import target as tgt
from rv32x.mir import MOp, MachineInstr

from conftest import ALL_MATTRS, CORPUS_SHAPES, PKG_ROOT, compile_corpus, \
    corpus_module, differential_run, eval_pattern, rotr32, synth_args
from test_target import _random_operands


def _word(desc, mnemonic, *ops):
    return tgt.encode(MachineInstr(mnemonic, list(ops)), desc).word


def _ret(desc):
    return _word(desc, "JALR", MOp.preg(0), MOp.preg(1), MOp.imm(0))


def exec_one(desc, mnemonic, ops, regs=None, mem=None):
    state = sim.SimState()
    if regs:
        for r, v in regs.items():
            state.regs[r] = v
    if mem:
        state.mem.update(mem)
    word = tgt.encode(MachineInstr(mnemonic, ops), desc).word
    sim.mem_write32(state.mem, state.pc, word)
    sim.step(state, desc)
    return state


def test_shlxor_worked_example(desc):
    # RS1: 0x0101  RS2: 0xFFFF  ->  RD: 0xFDFD
    st = exec_one(desc, "SHLXOR", [MOp.preg(10), MOp.preg(11), MOp.preg(12)],
                  {11: 0x0101, 12: 0xFFFF})
    assert st.regs[10] == 0xFDFD


def test_naxor_with_zero_first_source(desc):
    st = exec_one(desc, "NAXOR",
                  [MOp.preg(10), MOp.preg(11), MOp.preg(12), MOp.preg(13)],
                  {11: 0, 12: 0x1234, 13: 0x00FF})
    assert st.regs[10] == 0x1234 ^ 0x00FF


def test_rori_of_15_by_2(desc):
    st = exec_one(desc, "RORI", [MOp.preg(10), MOp.preg(11), MOp.imm(2)],
                  {11: 15})
    assert st.regs[10] == 0xC0000003
    # independent bit-rotation oracle
    assert st.regs[10] == ((15 >> 2) | (15 << 30)) & 0xFFFFFFFF


def test_naxor_truth_table_exhaustive(desc):
    # all 2^12 4-bit triples against an independent formula
    for a in range(16):
        for b in range(16):
            for c in range(16):
                st = exec_one(desc, "NAXOR",
                              [MOp.preg(10), MOp.preg(11), MOp.preg(12),
                               MOp.preg(13)],
                              {11: a, 12: b, 13: c})
                want = (((~a) & 0xFFFFFFFF) & b) ^ c
                assert st.regs[10] == want


def test_mla_wraps(desc):
    st = exec_one(desc, "MLA",
                  [MOp.preg(10), MOp.preg(11), MOp.preg(12), MOp.preg(13)],
                  {11: 0x80000000, 12: 3, 13: 5})
    assert st.regs[10] == (0x80000000 * 3 + 5) & 0xFFFFFFFF


def test_lxr_loads_and_xors(desc):
    rng = random.Random(61)
    for _ in range(64):
        a, b = rng.getrandbits(32), rng.getrandbits(32)
        mem = {}
        sim.mem_write32(mem, 0x4000, a)
        sim.mem_write32(mem, 0x4010, b)
        st = exec_one(desc, "LXR",
                      [MOp.preg(10), MOp.preg(11), MOp.preg(12)],
                      {11: 0x4000, 12: 0x4010}, mem)
        assert st.regs[10] == a ^ b


def test_sh_add_family(desc):
    for mn, k in (("SH1ADD", 1), ("SH2ADD", 2), ("SH3ADD", 3)):
        st = exec_one(desc, mn, [MOp.preg(10), MOp.preg(11), MOp.preg(12)],
                      {11: 5, 12: 100})
        assert st.regs[10] == (5 << k) + 100


def test_x0_stays_zero_under_fuzzed_instructions(desc):
    rng = random.Random(62)
    defs = sorted(desc.instrs.values(), key=lambda d: d.mnemonic)
    for _ in range(500):
        d = rng.choice(defs)
        if d.mnemonic == "JALR":
            continue
        ops = _random_operands(rng, d)
        state = sim.SimState()
        for r in range(1, 32):
            state.regs[r] = rng.getrandbits(32)
        state.regs[2] = 0x8000  # keep loads/stores in sane memory
        for r in (10, 11, 12, 13, 14, 15):
            state.regs[r] = 0x4000 + 8 * r
        word = tgt.encode(MachineInstr(d.mnemonic, ops), desc).word
        sim.mem_write32(state.mem, state.pc, word)
        try:
            sim.step(state, desc)
        except sim.SimTrap:
            continue  # misaligned access from random registers
        assert state.regs[0] == 0


def _reference_step(state, desc):
    """One instruction through decode and the sem tree, evaluated by the
    reference evaluator, which shares no code with the generated `run`."""
    mi = tgt.decode(sim.mem_read32(state.mem, state.pc), desc,
                    frozenset(tgt.ALL_EXTENSIONS))
    d = desc.instrs[mi.mnemonic]
    env = {role: state.regs[op.val] if op.kind == "preg" else op.val
           for role, op in zip(d.ops, mi.ops)}
    value = eval_pattern(d.sem, env, state.mem)
    if d.ops[0] == "rd" and mi.ops[0].val:
        state.regs[mi.ops[0].val] = value
    state.pc += 4


def _random_state(rng, memory: bool) -> sim.SimState:
    """Random registers and memory; for an instruction that accesses memory,
    every register holds an aligned address inside the random words."""
    state = sim.SimState()
    for r in range(1, 32):
        state.regs[r] = (0x4000 + 4 * rng.randrange(64) if memory
                         else rng.getrandbits(32))
    for addr in range(0x3F00, 0x4200, 4):
        sim.mem_write32(state.mem, addr, rng.getrandbits(32))
    return state


# register values where generated masking and sign extension could drift
# from the sem tree; 31 and 0 are also the extreme shift and rotate amounts
EDGE_VALUES = (0, 1, 31, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)


def _address_roles(node) -> set[str]:
    """The operand roles a sem reads as part of a memory address: the last
    operand of a load or a store."""
    caps = {}
    if node.kind in ("load", "store"):
        tgt._captures(node.children[-1], caps)
    return set(caps).union(*map(_address_roles, node.children))


def _edge_cases(d):
    """Operands and a state for each combination of edge values of `d`'s
    sources: each immediate at both ends of its IMM_RANGES range, each
    register one of EDGE_VALUES. A register that forms an address instead
    points, with the immediate added, at one of the words from 0x4000, which
    hold EDGE_VALUES (every shipped address is a register plus at most one
    immediate)."""
    addr = _address_roles(d.sem)
    slots = range(len(EDGE_VALUES))
    choices = [tgt.IMM_RANGES[r] if r in tgt.IMM_RANGES
               else slots if r in addr else EDGE_VALUES for r in d.sources]
    regs = {"rd": 10, "rs1": 11, "rs2": 12, "rs3": 13}
    for combo in itertools.product(*choices):
        vals = dict(zip(d.sources, combo))
        offset = sum(v for r, v in vals.items()
                     if r in addr and r in tgt.IMM_RANGES)
        state = sim.SimState()
        for k, v in enumerate(EDGE_VALUES):
            sim.mem_write32(state.mem, 0x4000 + 4 * k, v)
        for r, v in vals.items():
            if r in regs:
                state.regs[regs[r]] = (0x4000 + 4 * v - offset if r in addr
                                       else v) & sim.MASK32
        ops = [MOp.preg(regs[r]) if r in regs else MOp.imm(vals[r])
               for r in d.ops]
        yield ops, state


def test_step_agrees_with_sem_tree_for_every_instruction(desc):
    rng = random.Random(63)
    defs = [d for _, d in sorted(desc.instrs.items()) if d.sem is not None]
    assert {"LUI", "LW", "SW", "LXR"} <= {d.mnemonic for d in defs}

    def agrees(d, ops, state):
        word = tgt.encode(MachineInstr(d.mnemonic, ops), desc).word
        sim.mem_write32(state.mem, state.pc, word)
        want = sim.SimState(list(state.regs), state.pc, dict(state.mem))
        sim.step(state, desc)
        _reference_step(want, desc)
        assert (state.regs, state.mem, state.pc) == \
            (want.regs, want.mem, want.pc), (d.mnemonic, ops)

    edge_trials = 0
    for d in defs:
        memory = d.may_load or d.may_store
        for trial in range(40):
            ops = _random_operands(rng, d)
            if memory and "imm12" in d.ops:
                ops[d.ops.index("imm12")] = MOp.imm(4 * rng.randrange(-16, 17))
            if d.ops[0] == "rd" and trial == 0:
                ops[0] = MOp.preg(0)
            elif d.ops[0] == "rd" and trial == 1 and d.ops[1] == "rs1":
                ops[0] = ops[1]  # rd aliases a source
            agrees(d, ops, _random_state(rng, memory))
        for ops, state in _edge_cases(d):
            agrees(d, ops, state)
            edge_trials += 1
    # every combination, in every format: R, R4, I, U (LUI) and S (SW)
    assert edge_trials == 15 * 36 + 2 * 216 + 10 * 12 + 2 + 72


def test_reloaded_description_runs_identically(desc):
    again = tgt.load_default_desc()
    assert again is not desc
    rng = random.Random(65)
    for name, d in sorted(desc.instrs.items()):
        d2 = again.instrs[name]
        assert d2 == d and d2.sem == d.sem
        if d.sem is None:
            assert d.run is None and d2.run is None
            continue
        for _ in range(20):
            base = _random_state(rng, True)
            states = [sim.SimState(list(base.regs), mem=dict(base.mem))
                      for _ in range(3)]
            ops = [MOp.imm(4 * rng.randrange(8)) if op.kind == "imm" else op
                   for op in _random_operands(rng, d)]
            word = tgt.encode(MachineInstr(name, ops), desc).word
            env = {role: base.regs[op.val] if op.kind == "preg" else op.val
                   for role, op in zip(d.ops, ops) if role != "rd"}
            # run returns the sem's value before its upper bits are dropped
            got = [None if v is None else v & sim.MASK32 for v in (
                d.run(states[0], states[0].regs, word),
                d2.run(states[1], states[1].regs, word))]
            want = eval_pattern(d2.sem, env, states[2].mem)
            assert got == [want, want], name
            assert states[0].mem == states[1].mem == states[2].mem, name


@pytest.mark.parametrize("mattr", ALL_MATTRS)
def test_trace_steps_decode_like_decode(mattr, monkeypatch):
    """Each trace entry (pc, word, d) holds what lookup gives its word, and
    decodes as decode does; the trace has one entry per executed
    instruction; lookup runs at most once per distinct word of a
    description and extension set."""
    desc = tgt.load_default_desc()
    ext = tgt.parse_mattr(mattr)
    rng = random.Random(64)
    inputs = []
    for name, (fname, n_ptrs, n_ints) in sorted(CORPUS_SHAPES.items()):
        mod = corpus_module(name)
        gaddrs = sim.assign_global_addrs(mod)
        _, _, mf, _ = compile_corpus(name, desc, mattr, fname)
        words = codegen.emit_words(mf, desc, gaddrs)
        args, mem = synth_args(rng, n_ptrs, n_ints)
        mem.update(sim.seed_globals(mod, gaddrs))
        inputs.append((name, words, args, mem))
    looked_up = []
    real_lookup = tgt.lookup
    monkeypatch.setattr(tgt, "lookup",
                        lambda w, *a: looked_up.append(w) or real_lookup(w, *a))
    runs = [(name, words, sim.run_function(words, args, mem, desc=desc,
                                           ext=ext)[2])
            for name, words, args, mem in inputs]
    monkeypatch.undo()
    # nothing had run on desc, so each word run was looked up, once
    assert len(looked_up) == len(set(looked_up))
    assert set(looked_up) == {w for _, words, _ in runs for w in words}
    for name, words, trace in runs:
        assert len(trace) == len(words), name
        for pc, word, d in trace:
            assert word == words[(pc - sim.PROGRAM_BASE) // 4]
            assert d is tgt.lookup(word, desc, ext), (name, pc)
            mi = tgt.machine_instr(word, d)
            assert mi == tgt.decode(word, desc, ext), (name, pc)
            assert mi.mnemonic == d.mnemonic


def test_a_second_run_looks_nothing_up(monkeypatch):
    desc = tgt.load_default_desc()
    _, _, mf, _ = compile_corpus("sbox.ll", desc, "+xcrypt")
    words = codegen.emit_words(mf, desc, {})
    args, mem = synth_args(random.Random(3), 1, 0)
    calls = []
    real_lookup = tgt.lookup
    monkeypatch.setattr(tgt, "lookup",
                        lambda *a: calls.append(1) or real_lookup(*a))
    first = sim.run_function(words, args, dict(mem), desc=desc)
    assert len(calls) == len(set(words))
    calls.clear()
    second = sim.run_function(words, args, dict(mem), desc=desc)
    assert calls == []
    assert first == second


def test_the_memo_is_kept_per_extension_set(desc):
    """A +zbb word runs under +zbb and traps under base, whichever ran
    first."""
    a0, a1 = MOp.preg(10), MOp.preg(11)
    program = [_word(desc, "ROR", a0, a0, a1), _ret(desc)]
    zbb, base = tgt.parse_mattr("+zbb"), tgt.parse_mattr(None)
    for _ in range(2):
        got, _, _ = sim.run_function(program, [0x12345678, 8], {}, desc=desc,
                                     ext=zbb)
        assert got == rotr32(0x12345678, 8)
        with pytest.raises(sim.SimTrap, match="undecodable word"):
            sim.run_function(program, [0x12345678, 8], {}, desc=desc,
                             ext=base)


def test_the_memo_is_kept_per_description(desc):
    """One word, three descriptions: the shipped one runs it as ADD, one
    with ADD's and SUB's funct7 swapped runs it as SUB, and one without
    ROR does not decode a ROR word. Each runs its own, in any order."""
    text = (PKG_ROOT / "targets" / "rv32_xcrypt.desc").read_text()
    lines = text.splitlines(keepends=True)
    swapped = "".join(
        line.replace("funct7=0b0000000", "funct7=0b0100000")
        if line.startswith("instr ADD ") else
        line.replace("funct7=0b0100000", "funct7=0b0000000")
        if line.startswith("instr SUB ") else line for line in lines)
    no_ror = "".join(line for line in lines
                     if not line.startswith("instr ROR "))
    swapped, no_ror = tgt.load_target_desc(swapped), \
        tgt.load_target_desc(no_ror)
    a0, a1 = MOp.preg(10), MOp.preg(11)
    add = [_word(desc, "ADD", a0, a0, a1), _ret(desc)]
    ror = [_word(desc, "ROR", a0, a0, a1), _ret(desc)]
    base = tgt.parse_mattr(None)
    assert tgt.lookup(add[0], swapped, base).mnemonic == "SUB"
    for _ in range(2):
        for d, want in ((desc, 7 + 5), (swapped, 7 - 5)):
            got, _, _ = sim.run_function(add, [7, 5], {}, desc=d)
            assert got == want
        got, _, _ = sim.run_function(ror, [1, 1], {}, desc=desc)
        assert got == 0x80000000
        with pytest.raises(sim.SimTrap, match="undecodable word"):
            sim.run_function(ror, [1, 1], {}, desc=no_ror)


def test_an_instruction_without_a_sem_traps(desc):
    """A record with no sem= that is not JALR has no meaning to run."""
    text = (PKG_ROOT / "targets" / "rv32_xcrypt.desc").read_text()
    bare = tgt.load_target_desc(
        text + "instr BARE fmt=R opcode=0b0001011 funct3=0b000 "
        "funct7=0b0000000 ops=rd,rs1,rs2\n")
    a0 = MOp.preg(10)
    program = [_word(bare, "BARE", a0, a0, a0), _ret(desc)]
    with pytest.raises(sim.SimTrap,
                       match="^pc=0x00001000: no semantics for BARE$"):
        sim.run_function(program, [1], {}, desc=bare)


def test_program_over_seeded_memory_traps(desc):
    # 1102 words reach past GLOBAL_BASE: without the check the program
    # silently overwrote the word seeded there
    nop = _word(desc, "ADDI", MOp.preg(0), MOp.preg(0), MOp.imm(0))
    lw = _word(desc, "LW", MOp.preg(10), MOp.preg(10), MOp.imm(0))
    ret = _ret(desc)
    mem = {}
    sim.mem_write32(mem, sim.GLOBAL_BASE, 1234)
    with pytest.raises(sim.SimTrap, match="program at 0x00001000..0x00002138 "
                       "overlaps seeded memory at 0x00002000"):
        sim.run_function([nop] * 1100 + [lw, ret], [sim.GLOBAL_BASE], mem,
                         desc=desc)
    got, _, _ = sim.run_function([nop] * 1000 + [lw, ret], [sim.GLOBAL_BASE],
                                 mem, desc=desc)
    assert got == 1234


def test_misaligned_word_access_traps(desc):
    with pytest.raises(sim.SimTrap, match="misaligned"):
        sim.mem_read32({}, 0x4002)
    st = sim.SimState()
    st.regs[11] = 0x4001
    word = _word(desc, "LW", MOp.preg(10), MOp.preg(11), MOp.imm(0))
    sim.mem_write32(st.mem, st.pc, word)
    with pytest.raises(sim.SimTrap, match="misaligned"):
        sim.step(st, desc)


@pytest.mark.parametrize("addr", [0x4002, sim.PROGRAM_BASE + 2])
def test_misaligned_word_store_traps(desc, addr):
    """A misaligned SW traps, in data memory and inside the program."""
    a0, a1 = MOp.preg(10), MOp.preg(11)
    program = [_word(desc, "SW", a0, a1, MOp.imm(0)), _ret(desc)]
    with pytest.raises(sim.SimTrap,
                       match=f"^misaligned word store at 0x{addr:08x}$"):
        sim.run_function(program, [7, addr], {}, desc=desc)


def test_undecodable_word_traps(desc):
    st = sim.SimState()
    sim.mem_write32(st.mem, st.pc, 0xFFFFFFFF)
    with pytest.raises(sim.SimTrap, match="undecodable"):
        sim.step(st, desc)


def test_fuel_exhaustion(desc):
    # an infinite loop: jalr x0, 0(a0) with a0 pointing at itself
    loop = _word(desc, "JALR", MOp.preg(0), MOp.preg(10), MOp.imm(0))
    with pytest.raises(sim.SimTrap, match="fuel exhausted after 100 steps"):
        sim.run_function([loop], [sim.PROGRAM_BASE], {}, fuel=100, desc=desc)
    # fuel counts instructions: n of them run to halt on fuel n
    nop = _word(desc, "ADDI", MOp.preg(0), MOp.preg(0), MOp.imm(0))
    ret = _ret(desc)
    got, _, trace = sim.run_function([nop, ret], [5], {}, fuel=2, desc=desc)
    assert got == 5 and len(trace) == 2
    with pytest.raises(sim.SimTrap, match="fuel exhausted after 1 steps"):
        sim.run_function([nop, ret], [5], {}, fuel=1, desc=desc)


def test_program_words_are_memory(desc):
    """A store into the program changes what executes later, a load from
    it reads code, and neither shows in the returned memory."""
    word = functools.partial(_word, desc)
    a0, a1, a2 = MOp.preg(10), MOp.preg(11), MOp.preg(12)
    addi_42 = word("ADDI", a0, MOp.preg(0), MOp.imm(42))
    program = [word("SW", a0, a1, MOp.imm(8)),  # word 2 := a0
               word("LW", a2, a1, MOp.imm(0)),  # a2 := word 0
               word("ADDI", a0, MOp.preg(0), MOp.imm(7)),
               word("ADD", a0, a0, a2),
               word("JALR", MOp.preg(0), MOp.preg(1), MOp.imm(0))]
    got, mem, trace = sim.run_function(program, [addi_42, sim.PROGRAM_BASE],
                                       {}, desc=desc)
    assert got == (42 + program[0]) & sim.MASK32
    assert mem == {}
    assert trace[2][1] == addi_42


def test_jalr_writes_the_return_address_to_a_nonzero_rd(desc):
    """JALR jumps to rs1 + imm12 with bit 0 cleared and writes pc + 4 to
    an rd other than x0."""
    word = functools.partial(_word, desc)
    zero, a0, a1, a2 = MOp.preg(0), MOp.preg(10), MOp.preg(11), MOp.preg(12)
    program = [word("JALR", a1, a2, MOp.imm(9)),  # to word 2: 0x1009 & ~1
               word("ADDI", a0, zero, MOp.imm(99)),  # jumped over
               word("ADD", a0, a1, zero),
               word("JALR", zero, MOp.preg(1), MOp.imm(0))]
    got, _, trace = sim.run_function(program, [0, 0, sim.PROGRAM_BASE],
                                     {}, desc=desc)
    assert got == sim.PROGRAM_BASE + 4
    assert [pc - sim.PROGRAM_BASE for pc, _, _ in trace] == [0, 8, 12]


def test_run_function_identity(desc):
    _, _, mf, _ = compile_corpus("identity.ll", desc, None)
    words = codegen.emit_words(mf, desc, {})
    got, _, trace = sim.run_function(words, [7], {})
    assert got == 7
    assert len(trace) == 1 and trace[0][2].mnemonic == "JALR"


def test_run_function_too_many_args(desc):
    with pytest.raises(sim.SimTrap, match="8 register arguments"):
        sim.run_function([], list(range(9)), {})


def test_trace_is_bounded_and_descriptive(desc):
    _, _, mf, _ = compile_corpus("madd.ll", desc, "+xcrypt")
    mod = corpus_module("madd.ll")
    g = sim.assign_global_addrs(mod)
    words = codegen.emit_words(mf, desc, g)
    _, _, trace = sim.run_function(words, [], sim.seed_globals(mod, g),
                                    desc=desc)
    assert len(trace) == len(words)
    assert any(d.mnemonic == "MLA" for _, _, d in trace)


def test_ir_interpret_identity():
    mod = corpus_module("identity.ll")
    r, mem = sim.ir_interpret(mod.functions[0], [41])
    assert r == 41 and mem == {}


@pytest.mark.parametrize("text,args,error,match", [
    ("define i32 @f(i32 %a) {\n  ret i32 %a\n}\n", [], sim.InterpError,
     "^@f takes 1 arguments$"),
    ("@g = global i32 5\ndefine i32 @f() {\n  %v = load i32, ptr @g\n"
     "  ret i32 %v\n}\n", [], sim.InterpError, "^no address for global @g$"),
    ("define void @f(ptr %p) {\n  %q = getelementptr i8, ptr %p, i32 2\n"
     "  store i32 1, ptr %q\n  ret void\n}\n", [0x4000], sim.SimTrap,
     "^misaligned word store at 0x00004002$"),
], ids=["argument-count", "global-address", "misaligned-store"])
def test_ir_interpret_rejects_what_it_cannot_run(text, args, error, match):
    fn = ir.parse_ir(text).functions[0]
    with pytest.raises(error, match=match):
        sim.ir_interpret(fn, args)


def test_ops_gives_every_operation_one_meaning():
    """sim.OPS holds each sem kind but load and store, and the IR's
    intrinsics, and every IR binop and intrinsic reaches it through
    ir.SEM_KIND: no kind or opcode lands without its reference."""
    assert set(sim.OPS) == \
        set(tgt._SEM_EXPRS) - {"load", "store"} | set(ir.INTRINSICS)
    assert {ir.SEM_KIND[op] for op in ir.BINOPS + ir.INTRINSICS} <= \
        set(sim.OPS)


def test_fshr_equals_rotate_oracle():
    fn = ir.parse_ir("""
define i32 @f(i32 %x) {
  %r = call i32 @llvm.fshr.i32(i32 %x, i32 %x, i32 2)
  ret i32 %r
}
""").functions[0]
    for x in range(1 << 16):
        r, _ = sim.ir_interpret(fn, [x])
        assert r == rotr32(x, 2)


def test_sbox_cross_build_equivalence(desc):
    # the base build and the NAXOR build agree on the classic input state
    results = []
    mod = corpus_module("sbox.ll")
    for mattr in (None, "+xcrypt"):
        _, _, mf, _ = compile_corpus("sbox.ll", desc, mattr)
        words = codegen.emit_words(mf, desc, {})
        mem = {}
        for i, v in enumerate([1, 2, 3, 4, 5]):
            sim.mem_write32(mem, 0x4000 + 4 * i, v)
        _, m, _ = sim.run_function(words, [0x4000], mem, desc=desc)
        results.append([sim.mem_read32(m, 0x4000 + 4 * i) for i in range(5)])
    assert results[0] == results[1]


@pytest.mark.parametrize("name", sorted(CORPUS_SHAPES))
@pytest.mark.parametrize("mattr", ALL_MATTRS)
def test_differential_corpus(name, mattr, desc):
    """ir_interpret == run_function(compiled) on random inputs: the module's
    central property (a smaller sweep; the acceptance suite runs 256)."""
    differential_run(name, desc, mattr, trials=24)
