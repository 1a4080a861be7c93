"""Randomized whole-pipeline fuzz: generated IR through -O2, selection under
every extension set, then simulator-vs-interpreter comparison. Catches
interactions the hand-written corpus cannot: patterns nested inside each
other, canonicalization flips feeding the matchers, materialized constants as
pattern operands."""

import itertools
import random

import pytest

from rv32x import driver, ir, midend
from rv32x import target as tgt

from conftest import ALL_MATTRS, assert_runs_like_ir, compile_fn, make_ptr_args

BINOPS = ["add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr"]
CONST_POOL = [-1, 0, 1, 2, 3, 6, 10, 16, 30, 31, 127, 2047, -2048,
              4097, 12291, 0x7FFFFFFF, -0x80000000]
LARGE_CELLS = 8  # words gen_large_fn reaches through %p


def gen_arith_fn(rng: random.Random, idx: int) -> str:
    nargs = rng.randrange(1, 4)
    params = ", ".join(f"i32 %a{i}" for i in range(nargs))
    vals = [f"%a{i}" for i in range(nargs)]
    lines = [f"define i32 @fz{idx}({params}) {{"]
    for n in range(rng.randrange(1, 13)):
        op = rng.choice(BINOPS)

        def operand():
            if rng.random() < 0.3:
                return str(rng.choice(CONST_POOL))
            return rng.choice(vals)

        a, b = operand(), operand()
        if a.lstrip("-").isdigit() and b.lstrip("-").isdigit():
            a = rng.choice(vals)  # keep at least one register operand
        lines.append(f"  %v{n} = {op} i32 {a}, {b}")
        vals.append(f"%v{n}")
    lines.append(f"  ret i32 {vals[-1]}")
    lines.append("}")
    return "\n".join(lines)


def gen_memory_fn(rng: random.Random, idx: int) -> str:
    """Loads from struct-style offsets, a bitwise mixing body, then stores."""
    ncells = rng.randrange(2, 6)
    lines = [f"define void @fm{idx}(ptr %p) {{"]
    vals = []
    for i in range(ncells):
        lines.append(f"  %g{i} = getelementptr i8, ptr %p, i32 {4 * i}")
        lines.append(f"  %l{i} = load i32, ptr %g{i}")
        vals.append(f"%l{i}")
    for n in range(rng.randrange(1, 9)):
        op = rng.choice(["and", "or", "xor", "add", "shl", "lshr"])
        a = rng.choice(vals)
        b = rng.choice(vals + [str(rng.choice([1, 2, -1, 16, 30]))])
        lines.append(f"  %m{n} = {op} i32 {a}, {b}")
        vals.append(f"%m{n}")
    for i in rng.sample(range(ncells), rng.randrange(1, ncells + 1)):
        lines.append(f"  store i32 {rng.choice(vals)}, ptr %g{i}")
    lines.append("  ret void")
    lines.append("}")
    return "\n".join(lines)


def gen_shift_pair_fn(rng: random.Random, idx: int) -> str:
    """or(shl a, c), (lshr b, 32-c) with a and b drawn independently: the
    rotate form when they coincide, a two-input funnel shift otherwise."""
    nargs = rng.randrange(1, 4)
    params = ", ".join(f"i32 %a{i}" for i in range(nargs))
    vals = [f"%a{i}" for i in range(nargs)]
    lines = [f"define i32 @fp{idx}({params}) {{"]
    for n in range(rng.randrange(1, 4)):
        c = rng.randrange(1, 32)
        lines.append(f"  %s{n} = shl i32 {rng.choice(vals)}, {c}")
        lines.append(f"  %r{n} = lshr i32 {rng.choice(vals)}, {32 - c}")
        lines.append(f"  %o{n} = or i32 %s{n}, %r{n}")
        vals.append(f"%o{n}")
    lines.append(f"  ret i32 {vals[-1]}")
    lines.append("}")
    return "\n".join(lines)


def gen_large_fn(rng: random.Random, idx: int, size: int) -> str:
    """About `size` instructions of loads and stores through %p and binops
    over them, every value xor-folded into the return: all stay live to the
    end, so the register allocator has to spill."""
    lines = [f"define i32 @fl{idx}(ptr %p, i32 %x, i32 %y) {{"]
    addrs = ["%p"]
    for c in range(1, LARGE_CELLS):
        lines.append(f"  %g{c} = getelementptr i8, ptr %p, i32 {4 * c}")
        addrs.append(f"%g{c}")
    vals = ["%x", "%y"]
    # body + one fold per value after the first + ret come to `size`
    while len(lines) + len(vals) < size:
        r = rng.random()
        if r < 0.1:
            lines.append(f"  store i32 {rng.choice(vals)}, "
                         f"ptr {rng.choice(addrs)}")
            continue
        res = f"%v{len(vals)}"
        if r < 0.25:
            lines.append(f"  {res} = load i32, ptr {rng.choice(addrs)}")
        else:
            op = rng.choice(BINOPS)
            if op in ("shl", "lshr", "ashr"):
                b = str(rng.randrange(1, 32))
            elif rng.random() < 0.25:
                b = str(rng.choice(CONST_POOL))
            else:
                b = rng.choice(vals)
            lines.append(f"  {res} = {op} i32 {rng.choice(vals)}, {b}")
        vals.append(res)
    acc = vals[-1]
    for i, v in enumerate(reversed(vals[:-1])):
        lines.append(f"  %f{i} = xor i32 {acc}, {v}")
        acc = f"%f{i}"
    lines.append(f"  ret i32 {acc}")
    lines.append("}")
    return "\n".join(lines)


def int_inputs(rng: random.Random, fn, n: int):
    return [([rng.getrandbits(32) for _ in fn.params], {}) for _ in range(n)]


@pytest.mark.parametrize("seed", range(3))
def test_fuzz_O0_and_O2_agree_on_shift_pairs(seed, desc):
    # -O0 compiles every one of these, so -O2 must compile it too
    rng = random.Random(3000 + seed)
    for idx in range(6):
        text = gen_shift_pair_fn(rng, idx)
        fn0 = ir.parse_ir(text).functions[0]
        inputs = int_inputs(rng, fn0, 4)
        for mattr, level in itertools.product(ALL_MATTRS, ("O0", "O2")):
            cm = driver.compile_ir_text(text, fn0.name, desc,
                                        tgt.parse_mattr(mattr), level)
            assert_runs_like_ir(fn0, cm.functions[fn0.name].mf, desc, inputs)


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_arith_functions(seed, desc):
    rng = random.Random(1000 + seed)
    for idx in range(12):
        text = gen_arith_fn(rng, idx)
        mod = ir.parse_ir(text, f"fuzz{seed}_{idx}")
        opt, _ = midend.run_pipeline(mod, midend.DEFAULT_PIPELINE)
        inputs = int_inputs(rng, mod.functions[0], 8)
        for mattr in ALL_MATTRS:
            mf, _ = compile_fn(opt.functions[0], opt, desc, mattr)
            assert_runs_like_ir(mod.functions[0], mf, desc, inputs)


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_memory_functions(seed, desc):
    rng = random.Random(2000 + seed)
    for idx in range(8):
        text = gen_memory_fn(rng, idx)
        mod = ir.parse_ir(text, f"fuzzm{seed}_{idx}")
        opt, _ = midend.run_pipeline(mod, midend.DEFAULT_PIPELINE)
        for mattr in (None, "+zba,+zbb,+xcrypt"):
            mf, _ = compile_fn(opt.functions[0], opt, desc, mattr)
            inputs = [make_ptr_args(rng, 1, 8) for _ in range(6)]
            assert_runs_like_ir(mod.functions[0], mf, desc, inputs)


@pytest.mark.parametrize("seed", range(2))
def test_fuzz_large_functions_spill_and_run_like_ir(seed, desc):
    rng = random.Random(4000 + seed)
    text = gen_large_fn(rng, seed, rng.randrange(200, 401))
    fn0 = ir.parse_ir(text).functions[0]
    inputs = []
    for _ in range(3):
        args, mem = make_ptr_args(rng, 1, LARGE_CELLS)
        inputs.append((args + [rng.getrandbits(32), rng.getrandbits(32)], mem))
    for mattr, level in itertools.product(ALL_MATTRS, ("O0", "O2")):
        cm = driver.compile_ir_text(text, fn0.name, desc,
                                    tgt.parse_mattr(mattr), level)
        mf = cm.functions[fn0.name].mf
        assert mf.frame_size > 0, (mattr, level)  # every value live: spills
        assert_runs_like_ir(fn0, mf, desc, inputs)
