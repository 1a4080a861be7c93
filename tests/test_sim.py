import itertools
import random

import pytest

from rv32x import codegen, ir, sim
from rv32x import target as tgt
from rv32x.mir import MOp, MachineInstr

from conftest import ALL_MATTRS, CORPUS_SHAPES, compile_corpus, \
    corpus_module, differential_run, synth_args
from test_target import _random_operands


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
        assert state.read(0) == 0


def _eval_sem(node, env, state):
    """A sem tree walked node by node, as the simulator did before sems
    were compiled: the reference for the compiled ones. `env` maps operand
    roles to register contents and immediates."""
    if not node.children:
        return node.value if node.kind == "const" else env[node.name]
    return tgt.SEM_OPS[node.kind](
        state, *[_eval_sem(k, env, state) for k in node.children])


def _reference_step(state, desc):
    """One instruction through decode and the sem tree."""
    mi = tgt.decode(sim.mem_read32(state.mem, state.pc), desc,
                    frozenset(tgt.ALL_EXTENSIONS))
    d = desc.instrs[mi.mnemonic]
    env = {role: state.read(op.val) if op.kind == "preg" else op.val
           for role, op in zip(d.ops, mi.ops)}
    value = _eval_sem(d.sem, env, state)
    if d.ops[0] == "rd" and mi.ops[0].val:
        state.regs[mi.ops[0].val] = value & sim.MASK32
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
            env = {role: base.read(op.val) if op.kind == "preg" else op.val
                   for role, op in zip(d.ops, ops) if role != "rd"}
            got = [d.run(states[0], states[0].regs, word),
                   d2.run(states[1], states[1].regs, word),
                   _eval_sem(d2.sem, env, states[2])]
            assert got[0] == got[1] == got[2], name
            assert states[0].mem == states[1].mem == states[2].mem, name


@pytest.mark.parametrize("mattr", ALL_MATTRS)
def test_trace_steps_decode_like_decode(mattr, desc, monkeypatch):
    """Each TraceStep decodes its word on demand exactly as decode does,
    and the trace has one entry per executed instruction, each looked up
    once."""
    ext = tgt.parse_mattr(mattr)
    steps = []
    real_lookup = tgt.lookup
    monkeypatch.setattr(tgt, "lookup",
                        lambda *a: steps.append(1) or real_lookup(*a))
    rng = random.Random(64)
    for name, (fname, n_ptrs, n_ints) in sorted(CORPUS_SHAPES.items()):
        mod = corpus_module(name)
        gaddrs = sim.assign_global_addrs(mod)
        _, _, mf, _ = compile_corpus(name, desc, mattr, fname)
        words = codegen.emit_words(mf, desc, gaddrs)
        args, mem = synth_args(rng, n_ptrs, n_ints)
        mem.update(sim.seed_globals(mod, gaddrs))
        steps.clear()
        _, _, trace = sim.run_function(words, args, mem, desc=desc, ext=ext)
        assert len(trace) == len(steps) == len(words), name
        for s in trace:
            assert s.word == words[(s.pc - sim.PROGRAM_BASE) // 4]
            assert s.mi == tgt.decode(s.word, desc, ext), (name, s.pc)
            assert s.mi.mnemonic == s.d.mnemonic


def test_program_over_seeded_memory_traps(desc):
    # 1102 words reach past GLOBAL_BASE: without the check the program
    # silently overwrote the word seeded there
    nop = tgt.encode(MachineInstr(
        "ADDI", [MOp.preg(0), MOp.preg(0), MOp.imm(0)]), desc).word
    lw = tgt.encode(MachineInstr(
        "LW", [MOp.preg(10), MOp.preg(10), MOp.imm(0)]), desc).word
    ret = tgt.encode(MachineInstr(
        "JALR", [MOp.preg(0), MOp.preg(1), MOp.imm(0)]), desc).word
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
    word = tgt.encode(MachineInstr(
        "LW", [MOp.preg(10), MOp.preg(11), MOp.imm(0)]), desc).word
    sim.mem_write32(st.mem, st.pc, word)
    with pytest.raises(sim.SimTrap, match="misaligned"):
        sim.step(st, desc)


@pytest.mark.parametrize("addr", [0x4002, sim.PROGRAM_BASE + 2])
def test_misaligned_word_store_traps(desc, addr):
    """A misaligned SW traps, in data memory and inside the program."""
    a0, a1 = MOp.preg(10), MOp.preg(11)
    program = [tgt.encode(MachineInstr(mnemonic, ops), desc).word
               for mnemonic, ops in (("SW", [a0, a1, MOp.imm(0)]),
                                     ("JALR", [MOp.preg(0), MOp.preg(1),
                                               MOp.imm(0)]))]
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
    loop = tgt.encode(MachineInstr(
        "JALR", [MOp.preg(0), MOp.preg(10), MOp.imm(0)]), desc).word
    with pytest.raises(sim.SimTrap, match="fuel exhausted after 100 steps"):
        sim.run_function([loop], [sim.PROGRAM_BASE], {}, fuel=100, desc=desc)
    # fuel counts instructions: n of them run to halt on fuel n
    nop = tgt.encode(MachineInstr(
        "ADDI", [MOp.preg(0), MOp.preg(0), MOp.imm(0)]), desc).word
    ret = tgt.encode(MachineInstr(
        "JALR", [MOp.preg(0), MOp.preg(1), MOp.imm(0)]), desc).word
    got, _, trace = sim.run_function([nop, ret], [5], {}, fuel=2, desc=desc)
    assert got == 5 and len(trace) == 2
    with pytest.raises(sim.SimTrap, match="fuel exhausted after 1 steps"):
        sim.run_function([nop, ret], [5], {}, fuel=1, desc=desc)


def test_program_words_are_memory(desc):
    """A store into the program changes what executes later, a load from
    it reads code, and neither shows in the returned memory."""
    def word(mnemonic, *ops):
        return tgt.encode(MachineInstr(mnemonic, list(ops)), desc).word
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
    assert trace[2].word == addi_42


def test_run_function_identity(desc):
    _, _, mf, _ = compile_corpus("identity.ll", desc, None)
    words = codegen.emit_words(mf, desc, {})
    got, _, trace = sim.run_function(words, [7], {})
    assert got == 7
    assert len(trace) == 1 and trace[0].mi.mnemonic == "JALR"


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
    assert any(s.mi.mnemonic == "MLA" for s in trace)


def test_ir_interpret_identity():
    mod = corpus_module("identity.ll")
    r, mem = sim.ir_interpret(mod.functions[0], [41])
    assert r == 41 and mem == {}


def test_ir_interpret_undef_read_errors():
    fn = ir.Function("f", (), "i32", (
        ir.Inst("ret", None, (ir.UNDEF,), "i32"),))
    with pytest.raises(sim.InterpError, match="undefined value"):
        sim.ir_interpret(fn, [])


def test_fshr_equals_rotate_oracle():
    fn = ir.parse_ir("""
define i32 @f(i32 %x) {
  %r = call i32 @llvm.fshr.i32(i32 %x, i32 %x, i32 2)
  ret i32 %r
}
""").functions[0]
    for x in range(1 << 16):
        r, _ = sim.ir_interpret(fn, [x])
        assert r == sim.rotr32(x, 2)


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
