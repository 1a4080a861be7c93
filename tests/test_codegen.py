import random

import pytest

from rv32x import codegen, ir, midend, sim
from rv32x import target as tgt
from rv32x.mir import A0, MOp, MachineInstr, MachineFunction, REG_INDEX

from conftest import (assert_runs_like_ir, compile_corpus, compile_fn,
                      corpus_module, make_ptr_args)


def used_regs(asm: str) -> set[str]:
    regs = set()
    for line in asm.splitlines():
        for tok in line.replace(",", " ").replace("(", " ").replace(")", " ").split():
            if tok in REG_INDEX:
                regs.add(tok)
    return regs


def test_sbox_allocates_within_a_and_t_registers(desc):
    _, _, mf, asm = compile_corpus("sbox.ll", desc, None)
    assert mf.frame_size == 0
    assert all(r.startswith(("a", "t")) or r == "zero"
               for r in used_regs(asm)), used_regs(asm)


def test_identity_in_and_out_through_a0(desc):
    _, _, mf, asm = compile_corpus("identity.ll", desc, None)
    assert asm == "ident:\n\tret\n"
    assert mf.frame_size == 0


def test_lxr_demo_exact_output(desc):
    _, _, _, asm = compile_corpus("lxr.ll", desc, "+xcrypt")
    assert asm == "foo:\n\tlxr\ta0, a0, a1\n\tret\n"


def test_returned_second_argument_moves_to_a0(desc):
    mod = ir.parse_ir("define i32 @f(i32 %a, i32 %b) {\n  ret i32 %b\n}")
    mf, _ = compile_fn(mod.functions[0], desc, None)
    asm = codegen.print_asm(mf, desc)
    assert "mv\ta0, a1" in asm
    words = codegen.emit_words(mf, desc, {})
    got, _, _ = sim.run_function(words, [5, 9], {}, desc=desc)
    assert got == 9


def _many_live_values_fn(n: int) -> ir.Module:
    """n loads all live simultaneously, then folded down with xors."""
    lines = [f"define i32 @wide(ptr %p) {{"]
    for i in range(n):
        lines.append(f"  %g{i} = getelementptr i8, ptr %p, i32 {4 * i}")
        lines.append(f"  %v{i} = load i32, ptr %g{i}")
    acc = "%v0"
    for i in range(1, n):
        lines.append(f"  %acc{i} = xor i32 {acc}, %v{i}")
        acc = f"%acc{i}"
    # keep every load live past the last load by using them again
    for i in range(n):
        lines.append(f"  %re{i} = xor i32 {acc}, %v{i}")
        acc = f"%re{i}"
    lines.append(f"  ret i32 {acc}")
    lines.append("}")
    return ir.parse_ir("\n".join(lines))


def test_spilling_preserves_semantics(desc):
    mod = _many_live_values_fn(40)
    fn = mod.functions[0]
    mf, _ = compile_fn(fn, desc, None)
    assert mf.frame_size > 0  # 40 simultaneously-live values must spill
    asm = codegen.print_asm(mf, desc)
    assert "addi\tsp, sp, -" in asm
    rng = random.Random(55)
    inputs = [make_ptr_args(rng, 1, 40) for _ in range(32)]
    assert_runs_like_ir(fn, mf, desc, inputs)


def test_allocation_builds_intervals_once(monkeypatch, desc):
    # one walk over the instructions gives the intervals and the argument
    # windows, also when the function spills
    calls = []
    real = codegen._live_ranges
    monkeypatch.setattr(codegen, "_live_ranges",
                        lambda *args: calls.append(args) or real(*args))
    mod = _many_live_values_fn(40)
    mf, _ = compile_fn(mod.functions[0], desc, None)
    assert mf.frame_size > 0
    assert len(calls) == 1


# the registers the replaced allocator's spilling scan handed out: it held
# s9-s11 back for its reload and store sequences
_SPILL_SCAN_POOL = codegen.ALLOC_ORDER[:-3]


def _reference_scan(mf, intervals, pwin, pool):
    """The linear scan as first written: it rebuilds the live set and the
    busy registers for every interval, and evaluates every live interval to
    pick a spill victim. Where it spills nothing, the allocator must assign
    exactly as this does over the full ALLOC_ORDER."""
    assign, spilled, active = {}, {}, []
    for iv in intervals:
        active = [a for a in active if a.dies > iv.born]
        busy = {assign[a.vreg] for a in active}
        busy.update(r for r, (start, end) in pwin.items()
                    if not (iv.dies <= start or end <= iv.born))
        choices = pool
        if iv.vreg == mf.ret_vreg and A0 not in busy:
            choices = [A0] + pool
        reg = next((r for r in choices if r not in busy), None)
        if reg is None:
            victim = max(active + [iv],
                         key=lambda a: (a.next_use(iv.born), a.vreg))
            if victim is iv:
                spilled[iv.vreg] = len(spilled)
                continue
            reg = assign.pop(victim.vreg)
            spilled[victim.vreg] = len(spilled)
            active = [a for a in active if a is not victim]
        assign[iv.vreg] = reg
        active.append(iv)
    return assign, spilled


def _check_allocation(mf, out, desc) -> int:
    """Walk the allocated code next to the vreg code and track what each
    register and each spill slot holds: every operand must read the vreg or
    incoming register value it names, and the return value must reach a0.
    A move (an ADDI of 0) gives its def the value it reads; the allocator
    drops one whose def takes the register it reads, so a move with no
    matching move in the allocated code is taken as dropped, and the reads
    of its def check that the value is where they look.
    Returns the number of reloads."""
    sp, a0, zero = MOp.preg(codegen.SP), MOp.preg(A0), MOp.imm(0)
    held = {r: ("in", r) for r in range(32)}  # allocated code's registers
    named = dict(held)  # the vreg code's physical registers
    copied = {}  # a move's vreg -> the value it reads
    slots = {}
    reloads = 0
    a0_carries_result = mf.ret_vreg is None and any(
        a0 in mi.ops for mi in mf.instrs)

    def value(op):
        if op.kind == "preg":
            return named[op.val]
        return copied.get(op.val, ("vreg", op.val))

    it = iter(out.instrs)
    got = None
    for j, mi in enumerate(mf.instrs):
        got = got or next(it)
        while True:  # spill code, and the return value's move to a0
            if got.mnemonic in ("LW", "SW") and got.ops[1] == sp:
                off = got.ops[2].val
                assert 0 <= off < out.frame_size and off % 4 == 0, got
                if got.mnemonic == "SW":
                    slots[off] = held[got.ops[0].val]
                else:
                    held[got.ops[0].val] = slots[off]
                    reloads += 1
            elif mi.is_ret and not got.is_ret:
                assert got.mnemonic == "ADDI" and got.ops[0] == a0 \
                    and got.ops[2] == MOp.imm(0), got
                held[A0] = held[got.ops[1].val]
            else:
                break
            got = next(it)
        move = mi.mnemonic == "ADDI" and mi.ops[2] == zero
        if move and not (got.mnemonic == "ADDI" and got.ops[2] == zero
                         and held[got.ops[1].val] == value(mi.ops[1])):
            if mi.ops[0].kind == "vreg":  # dropped: a self-move
                copied[mi.ops[0].val] = value(mi.ops[1])
            else:
                named[mi.ops[0].val] = value(mi.ops[1])
            continue
        assert (got.mnemonic, got.is_ret) == (mi.mnemonic, mi.is_ret), \
            (j, got, mi)
        if mi.is_ret and mf.ret_vreg is not None:
            assert held[A0] == value(MOp.vreg(mf.ret_vreg)), \
                (mf.name, held[A0])
        elif mi.is_ret and a0_carries_result:
            assert held[A0] == named[A0], (mf.name, held[A0])
        defines = desc.instr(mi.mnemonic).defines
        for s, (want, have) in enumerate(zip(mi.ops, got.ops)):
            if s == 0 and defines:
                continue
            if want.kind == "vreg":
                assert have.kind == "preg" and \
                    held[have.val] == value(want), (j, s, got, mi)
            elif want.kind == "preg":
                assert have == want and held[want.val] == named[want.val], \
                    (j, s, got, mi)
            else:
                assert have == want, (j, s, got, mi)
        if defines:
            want, have = mi.ops[0], got.ops[0]
            assert have.kind == "preg" and have.val in codegen.ALLOC_ORDER \
                or have == want, (j, got, mi)
            new = value(mi.ops[1]) if move else (
                ("vreg", want.val) if want.kind == "vreg" else ("def", j))
            if want.kind == "vreg":
                copied[want.val] = held[have.val] = new
            else:
                held[have.val] = named[want.val] = new
        got = None
    assert next(it, None) is None
    assert out.frame_size % 16 == 0 and out.frame_size >= 4 * len(slots)
    return reloads


def _rewritten(mf, assign):
    """The allocated code of a function that does not spill, under the
    assignment `assign`, without the moves it makes self-moves."""
    reg = {MOp.vreg(v): MOp.preg(r) for v, r in assign.items()}
    out = []
    for mi in mf.instrs:
        if mi.is_ret and mf.ret_vreg is not None \
                and assign[mf.ret_vreg] != A0:
            out.append(MachineInstr("ADDI", [MOp.preg(A0),
                                             reg[MOp.vreg(mf.ret_vreg)],
                                             MOp.imm(0)]))
        ops = [reg.get(op, op) for op in mi.ops]
        if not (mi.mnemonic == "ADDI" and ops[0] == ops[1]
                and ops[2] == MOp.imm(0)):
            out.append(MachineInstr(mi.mnemonic, ops, mi.is_ret))
    return out


def _assert_allocates_as_the_reference(mf, desc):
    """Check the allocated code. Where the reference scan spills nothing,
    the assignment must be the scan's. Otherwise the replaced allocator's
    count, a reload at every use of an interval its scan spilled, bounds
    the reloads. Returns whether the function spilled."""
    out = codegen.allocate_registers(mf, desc)
    reloads = _check_allocation(mf, out, desc)
    intervals, pwin = codegen._live_ranges(mf, desc)
    ivs = list(intervals.values())
    assign, spilled = _reference_scan(mf, ivs, pwin, codegen.ALLOC_ORDER)
    assert bool(spilled) == (out.frame_size > 0), mf.name
    if not spilled:
        assert out.instrs == _rewritten(mf, assign), mf.name
        return False
    _, spilled = _reference_scan(mf, ivs, pwin, _SPILL_SCAN_POOL)
    uses = {iv.vreg: len(iv.uses) for iv in ivs}
    bound = sum(uses[v] + (v == mf.ret_vreg) for v in spilled)
    assert reloads <= bound, (mf.name, reloads, bound)
    return True


def _random_machine_fn(rng: random.Random, n: int) -> MachineFunction:
    """SSA over virtual registers: arguments pinned in a0.., values used
    at random distances, dead values, stores, and either a value steered
    into a0 or a0 written directly before the return."""
    nargs = rng.randrange(0, 9)
    args = [MOp.preg(A0 + i) for i in range(nargs)]
    vals = []
    mf = MachineFunction(f"r{n}")

    def src():
        pool = vals[-rng.choice((3, 12, 60)):] + args
        return rng.choice(pool) if pool else MOp.preg(0)

    for _ in range(n):
        r = rng.random()
        if r < 0.15:
            mf.instrs.append(MachineInstr(
                "SW", [src(), src(), MOp.imm(4 * rng.randrange(8))]))
            continue
        v = MOp.vreg(len(vals))
        if r < 0.3:
            mf.instrs.append(MachineInstr("ADDI", [v, src(), MOp.imm(1)]))
        else:
            mf.instrs.append(MachineInstr("ADD", [v, src(), src()]))
        vals.append(v)
    if vals and rng.random() < 0.6:
        mf.ret_vreg = rng.choice(vals).val
    elif vals:
        mf.instrs.append(MachineInstr("ADDI", [MOp.preg(A0), vals[-1],
                                               MOp.imm(0)]))
    mf.instrs.append(MachineInstr("JALR", [MOp.preg(0), MOp.preg(1),
                                           MOp.imm(0)], is_ret=True))
    mf.num_vregs = len(vals)
    return mf


def test_scan_decides_as_the_reference_on_random_functions(desc):
    rng = random.Random(91)
    spilled = 0
    for _ in range(120):
        mf = _random_machine_fn(rng, rng.randrange(1, 160))
        spilled += _assert_allocates_as_the_reference(mf, desc)
    assert 10 < spilled < 110  # both outcomes are exercised


@pytest.mark.parametrize("size", [100, 200, 400, 800])
def test_scan_decides_as_the_reference_on_large_functions(monkeypatch, desc,
                                                          size):
    from test_fuzz import gen_large_fn
    seen = []
    real = codegen.allocate_registers
    monkeypatch.setattr(codegen, "allocate_registers",
                        lambda mf, d: seen.append(mf) or real(mf, d))
    mod = ir.parse_ir(gen_large_fn(random.Random(size), size, size))
    opt, _ = midend.run_pipeline(mod, midend.DEFAULT_PIPELINE)
    for mattr in (None, "+zba,+zbb,+xcrypt"):
        compile_fn(opt.functions[0], desc, mattr)
    monkeypatch.undo()
    assert len(seen) == 2
    for mf in seen:
        _assert_allocates_as_the_reference(mf, desc)


def test_a_reload_keeps_clear_of_an_argument_its_instruction_reads(desc):
    # v0 is evicted at the 26th value, as its use comes last; the sw that
    # uses it is a0's last read, under full pressure from v1..v25. A reload
    # written before that sw must not land in a0.
    a0, x0 = MOp.preg(A0), MOp.preg(0)
    mf = MachineFunction("press")
    for k in range(26):
        mf.instrs.append(MachineInstr("ADDI", [MOp.vreg(k), x0,
                                               MOp.imm(100 if k == 0 else k)]))
    for k in range(1, 26):
        mf.instrs.append(MachineInstr("SW", [MOp.vreg(k), a0, MOp.imm(4)]))
    mf.instrs.append(MachineInstr("SW", [MOp.vreg(0), a0, MOp.imm(0)]))
    acc = MOp.vreg(1)
    for k in range(2, 26):
        nxt = MOp.vreg(24 + k)
        mf.instrs.append(MachineInstr("ADD", [nxt, acc, MOp.vreg(k)]))
        acc = nxt
    mf.instrs.append(MachineInstr("JALR", [x0, MOp.preg(1), MOp.imm(0)],
                                  is_ret=True))
    mf.ret_vreg, mf.num_vregs = acc.val, acc.val + 1
    out = codegen.allocate_registers(mf, desc)
    _check_allocation(mf, out, desc)
    i = next(i for i, mi in enumerate(out.instrs)
             if mi.mnemonic == "SW" and mi.ops[1:] == [a0, MOp.imm(0)])
    reload = out.instrs[i - 1]
    assert reload.mnemonic == "LW" and reload.ops[1] == MOp.preg(codegen.SP)
    assert reload.ops[0] != a0
    words = codegen.emit_words(codegen.insert_prologue_epilogue(out), desc, {})
    got, mem, _ = sim.run_function(words, [0x4000], {}, desc=desc)
    want = {}
    sim.mem_write32(want, 0x4000, 100)
    sim.mem_write32(want, 0x4004, 25)
    assert (got, mem) == (sum(range(1, 26)), want)


def test_sources_of_one_instruction_never_evict_each_other(desc):
    # v0 and v1 are evicted as 28 values fill the 26 registers, and both are
    # reloaded for one add. After v0's reload, v0 is the value used
    # furthest ahead, yet v1's reload must take another register.
    x0 = MOp.preg(0)
    mf = MachineFunction("pair")
    for k in range(28):
        mf.instrs.append(MachineInstr("ADDI", [MOp.vreg(k), x0,
                                               MOp.imm(k + 1)]))
    for k in range(2, 28):
        mf.instrs.append(MachineInstr("SW", [MOp.vreg(k), x0,
                                             MOp.imm(4 * k)]))
    mf.instrs.append(MachineInstr("ADD", [MOp.vreg(28), MOp.vreg(0),
                                          MOp.vreg(1)]))
    acc = MOp.vreg(2)
    for n, k in enumerate([*range(3, 28), 0, 28], 29):  # v0 is read last
        mf.instrs.append(MachineInstr("ADD", [MOp.vreg(n), acc, MOp.vreg(k)]))
        acc = MOp.vreg(n)
    mf.instrs.append(MachineInstr("JALR", [x0, MOp.preg(1), MOp.imm(0)],
                                  is_ret=True))
    mf.ret_vreg = acc.val
    out = codegen.allocate_registers(mf, desc)
    _check_allocation(mf, out, desc)
    add = next(mi for mi in out.instrs if mi.mnemonic == "ADD")
    assert add.ops[1] != add.ops[2]
    words = codegen.emit_words(codegen.insert_prologue_epilogue(out), desc, {})
    got, mem, _ = sim.run_function(words, [], {}, desc=desc)
    want = {}
    for k in range(2, 28):
        sim.mem_write32(want, 4 * k, k + 1)
    assert (got, mem) == (sum(range(3, 29)) + 1 + (1 + 2), want)


def test_a_physical_register_operand_is_shared():
    assert MOp.preg(5) is MOp.preg(5)
    assert MOp.preg(5) == MOp("preg", 5)
    assert hash(MOp.preg(5)) == hash(MOp("preg", 5))
    assert MOp.preg(5) != MOp.imm(5) and MOp.vreg(5) != MOp.preg(5)


def test_random_synthetic_blocks_survive_allocation(desc):
    """Pressure fuzz: random-width xor trees, simulator equivalence."""
    rng = random.Random(56)
    for trial in range(25):
        n = rng.randrange(2, 34)
        mod = _many_live_values_fn(n)
        fn = mod.functions[0]
        mf, _ = compile_fn(fn, desc, None)
        assert_runs_like_ir(fn, mf, desc, [make_ptr_args(rng, 1, n)])


def test_x0_never_written_meaningfully(desc):
    for name, mattr in (("sbox.ll", "+xcrypt"), ("madd.ll", "+xcrypt"),
                        ("mul6.ll", "+zba")):
        _, _, mf, _ = compile_corpus(name, desc, mattr)
        for mi in mf.instrs:
            d = desc.instr(mi.mnemonic)
            if d.ops and d.ops[0] == "rd" and not mi.is_ret:
                assert mi.ops[0].val != 0, mi


def test_prologue_epilogue_rules(desc):
    _, _, mf, asm = compile_corpus("rori.ll", desc, "+zbb")
    assert "sp" not in asm  # leaf with no frame gets nothing
    mf = MachineFunction("f", [MachineInstr(
        "JALR", [MOp.preg(0), MOp.preg(1), MOp.imm(0)], is_ret=True)],
        frame_size=16)  # allocation rounds a frame to 16 bytes
    out = codegen.insert_prologue_epilogue(mf)
    assert out.frame_size == 16
    asm = codegen.print_asm(out, desc)
    assert "addi\tsp, sp, -16" in asm and "addi\tsp, sp, 16" in asm
    assert asm.index("-16") < asm.index("sp, 16")


def test_prologue_rejects_frames_beyond_imm12(desc):
    ret = MachineInstr("JALR", [MOp.preg(0), MOp.preg(1), MOp.imm(0)],
                       is_ret=True)
    # 2032 is the largest aligned frame whose -n and +n both fit in imm12
    out = codegen.insert_prologue_epilogue(
        MachineFunction("f", [ret], frame_size=2032))
    assert len(codegen.emit_words(out, desc, {})) == 3
    with pytest.raises(codegen.CodegenError, match="2400"):
        codegen.insert_prologue_epilogue(
            MachineFunction("f", [ret], frame_size=2400))


def test_global_store_uses_lo_relocation(desc):
    _, _, _, asm = compile_corpus("madd.ll", desc, "+xcrypt")
    assert "%lo(" in asm and "%hi(" in asm


def test_ret_prints_as_alias(desc):
    _, _, _, asm = compile_corpus("identity.ll", desc, None)
    assert "jalr" not in asm and asm.rstrip().endswith("ret")


def test_empty_void_function_is_label_plus_ret(desc):
    mod = ir.parse_ir("define void @nop() {\n  ret void\n}")
    mf, _ = compile_fn(mod.functions[0], desc, None)
    assert codegen.print_asm(mf, desc) == "nop:\n\tret\n"


def test_asm_obj_agreement(desc):
    # decode(emit_words(f)) printed through the same printer equals
    # print_asm(f) for functions without relocations
    for name, mattr in (("sbox.ll", "+xcrypt"), ("rori.ll", "+zbb"),
                        ("mul6.ll", "+zba"), ("lxr.ll", "+xcrypt")):
        _, _, mf, asm = compile_corpus(name, desc, mattr)
        words = codegen.emit_words(mf, desc, {})
        redecoded = [tgt.decode(w, desc, frozenset(tgt.ALL_EXTENSIONS))
                     for w in words]
        lines = [asm.splitlines()[0]]
        for mi, orig in zip(redecoded, mf.instrs):
            mi.is_ret = orig.is_ret
            lines.append("\t" + codegen.format_instr(mi, desc))
        assert "\n".join(lines) + "\n" == asm, name


def test_emit_words_resolves_hi_lo(desc):
    mod = corpus_module("madd.ll")
    _, _, mf, _ = compile_corpus("madd.ll", desc, "+xcrypt")
    symbols = {"a": 0x1000, "b": 0x2000, "c": 0x3000}
    words = codegen.emit_words(mf, desc, symbols)
    ext = frozenset(tgt.ALL_EXTENSIONS)
    luis = [tgt.decode(w, desc, ext) for w in words
            if tgt.decode(w, desc, ext).mnemonic == "LUI"]
    assert {mi.ops[1].val for mi in luis} == {1, 2, 3}
    sws = [tgt.decode(w, desc, ext) for w in words
           if tgt.decode(w, desc, ext).mnemonic == "SW"]
    assert all(mi.ops[2].val == 0 for mi in sws)


def test_emit_words_unresolved_symbol(desc):
    _, _, mf, _ = compile_corpus("madd.ll", desc, "+xcrypt")
    with pytest.raises(codegen.CodegenError, match="unresolved symbol 'a'"):
        codegen.emit_words(mf, desc, {"b": 0x2000, "c": 0x3000})


def test_hi_lo_split_round_trips_through_encoding(desc):
    # lui+lw pair against an address: hi field 0x1, lo field 0x000
    mf = MachineFunction("f", [
        MachineInstr("LUI", [MOp.preg(10), MOp.sym("a", "hi20")]),
        MachineInstr("LW", [MOp.preg(11), MOp.preg(10), MOp.sym("a", "lo12")]),
    ])
    words = codegen.emit_words(mf, desc, {"a": 0x1000})
    ext = frozenset(tgt.ALL_EXTENSIONS)
    lui = tgt.decode(words[0], desc, ext)
    lw = tgt.decode(words[1], desc, ext)
    assert lui.ops[1].val == 0x1 and lw.ops[2].val == 0x000


def test_obj_text_roundtrip(desc):
    _, _, mf, _ = compile_corpus("madd.ll", desc, "+xcrypt")
    text = codegen.obj_text(mf, desc)
    words, relocs = codegen.parse_obj_text(text)
    assert len(words) == len(mf.instrs)
    assert any(k == "hi20" for _, k, _ in relocs)
    resolved = codegen.resolve_words(words, relocs, desc,
                                     {"a": 0x2000, "b": 0x2004, "c": 0x2008})
    assert resolved != words


def test_multi_function_obj_resolves_like_emit_words(desc):
    # each function's relocations are numbered from its own first word; the
    # second function's %hi/%lo must patch its own lui and lw
    from rv32x.driver import compile_ir_text, run_command
    text = ("@g = global i32 5\n"
            "define i32 @f(i32 %a) {\n  %r = add i32 %a, 1\n  ret i32 %r\n}\n"
            "define i32 @h() {\n  %v = load i32, ptr @g\n  ret i32 %v\n}\n")
    cm = compile_ir_text(text, "two.ll", desc, tgt.parse_mattr(None))
    code, obj, err = run_command(["llc", "--emit=obj", "-"], stdin_text=text)
    assert code == 0, err
    words, relocs = codegen.parse_obj_text(obj)
    first = len(cm.functions["f"].mf.instrs)
    assert relocs and all(idx >= first for idx, _, _ in relocs)
    want = [w for cf in cm.functions.values()
            for w in codegen.emit_words(cf.mf, desc, cm.global_addrs)]
    assert codegen.resolve_words(words, relocs, desc, cm.global_addrs) == want


def test_relocation_on_a_word_without_its_field_is_an_error(desc):
    addi = tgt.encode(MachineInstr("ADDI", [MOp.preg(10), MOp.preg(10),
                                            MOp.imm(1)]), desc).word
    with pytest.raises(codegen.CodegenError, match="no imm20 field"):
        codegen.resolve_words([addi], [(0, "hi20", "g")], desc, {"g": 0x2000})


def test_relocation_on_a_word_that_does_not_decode_is_an_error(desc):
    with pytest.raises(codegen.CodegenError, match="cannot decode word 1"):
        codegen.resolve_words([0x13, 0xFFFFFFFF], [(1, "lo12", "g")], desc,
                              {"g": 0x2000})


def test_parse_asm_aliases_and_mem_operands(desc):
    text = """
    # a comment
label:
    li a0, 42
    mv a1, a0
    not a2, a1
    lw a3, 8(a1)
    sw a3, %lo(g)(a1)
    ret
"""
    instrs = codegen.parse_asm(text, desc)
    assert [mi.mnemonic for mi in instrs] == \
        ["ADDI", "ADDI", "XORI", "LW", "SW", "JALR"]
    assert instrs[0].ops[1].val == 0  # li reads x0
    assert instrs[3].ops[2].val == 8
    assert instrs[4].ops[2] == MOp.sym("g", "lo12")


def test_parse_asm_unknown_mnemonic(desc):
    with pytest.raises(codegen.AsmError, match="unknown mnemonic"):
        codegen.parse_asm("frobnicate a0, a1\n", desc)


def test_disassemble_unknown_word_placeholder(desc):
    out = codegen.disassemble_text([0xFFFFFFFF], desc,
                                   frozenset(tgt.ALL_EXTENSIONS))
    assert ".word 0xffffffff" in out


@pytest.mark.parametrize("aliases", [False, True])
def test_assembler_printer_roundtrip_whole_catalog(desc, aliases):
    # print -> parse -> encode -> decode -> print again, over random operands
    # of every instruction and the operands that print as li, mv and not
    from test_target import _random_operands
    rng = random.Random(77)
    instrs = [MachineInstr(d.mnemonic, _random_operands(rng, d))
              for d in sorted(desc.instrs.values(), key=lambda x: x.mnemonic)
              for _ in range(25)]
    instrs += [MachineInstr("ADDI", [MOp.preg(10), MOp.preg(0), MOp.imm(-7)]),
               MachineInstr("ADDI", [MOp.preg(10), MOp.preg(11), MOp.imm(0)]),
               MachineInstr("XORI", [MOp.preg(10), MOp.preg(11), MOp.imm(-1)])]
    spelled = set()
    for mi in instrs:
        text = codegen.format_instr(mi, desc, aliases=aliases)
        spelled.add(text.split()[0])
        back = codegen.parse_asm_line(text, desc)
        assert back.mnemonic == mi.mnemonic, text
        w = tgt.encode(back, desc).word
        again = tgt.decode(w, desc, frozenset(tgt.ALL_EXTENSIONS))
        assert codegen.format_instr(again, desc, aliases=aliases) == text
    assert ({"li", "mv", "not"} <= spelled) == aliases


def test_print_parse_compile_composition(desc):
    # compiling re-parsed printed IR is byte-identical to compiling directly
    from rv32x import midend
    from conftest import CORPUS_SHAPES, corpus_module
    for name in sorted(CORPUS_SHAPES):
        for mattr in (None, "+zba,+zbb,+xcrypt"):
            opt, _ = midend.run_pipeline(corpus_module(name),
                                         midend.DEFAULT_PIPELINE)
            reparsed = ir.parse_ir(ir.print_ir(opt), name)
            for fn in opt.functions:
                mf1, _ = compile_fn(fn, desc, mattr)
                mf2, _ = compile_fn(reparsed.function(fn.name), desc, mattr)
                assert codegen.print_asm(mf1, desc) == \
                    codegen.print_asm(mf2, desc), (name, mattr)


def test_allocation_order_preference(desc):
    # with arguments pinned in a0/a1, fresh values prefer the remaining
    # argument registers before temporaries
    mod = ir.parse_ir("""
define i32 @f(i32 %a, i32 %b) {
  %x = add i32 %a, %b
  %y = xor i32 %x, %a
  %z = and i32 %y, %b
  ret i32 %z
}
""")
    mf, _ = compile_fn(mod.functions[0], desc, None)
    asm = codegen.print_asm(mf, desc)
    assert not any(r.startswith("s") for r in used_regs(asm))
