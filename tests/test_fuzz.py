"""Randomized whole-pipeline fuzz: generated IR through -O2, selection under
every extension set, then simulator-vs-interpreter comparison. Catches
interactions the hand-written corpus cannot: patterns nested inside each
other, canonicalization flips feeding the matchers, materialized constants as
pattern operands. Then mutation fuzz: inputs a few edits away from the
corpus, the description, the lit asm and object text must each give a result
or exactly one clean error."""

import collections
import functools
import itertools
import random
import re

import pytest

from rv32x import driver, ir, midend
from rv32x import target as tgt

from conftest import (ALL_MATTRS, CORPUS_SHAPES, LIT_TESTS, PKG_ROOT,
                      assert_runs_like_ir, compile_fn, corpus_text,
                      interpreted, make_ptr_args)

CONST_POOL = [-1, 0, 1, 2, 3, 6, 10, 16, 30, 31, 127, 2047, -2048,
              4097, 12291, 0x7FFFFFFF, -0x80000000]
LARGE_CELLS = 8  # words gen_large_fn reaches through %p


def gen_arith_fn(rng: random.Random, idx: int) -> str:
    nargs = rng.randrange(1, 4)
    params = ", ".join(f"i32 %a{i}" for i in range(nargs))
    vals = [f"%a{i}" for i in range(nargs)]
    lines = [f"define i32 @fz{idx}({params}) {{"]
    for n in range(rng.randrange(1, 13)):
        op = rng.choice(ir.BINOPS)

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
            op = rng.choice(ir.BINOPS)
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
            mf, _ = compile_fn(opt.functions[0], desc, mattr)
            assert_runs_like_ir(mod.functions[0], mf, desc, inputs)


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_memory_functions(seed, desc):
    rng = random.Random(2000 + seed)
    for idx in range(8):
        text = gen_memory_fn(rng, idx)
        mod = ir.parse_ir(text, f"fuzzm{seed}_{idx}")
        opt, _ = midend.run_pipeline(mod, midend.DEFAULT_PIPELINE)
        for mattr in (None, "+zba,+zbb,+xcrypt"):
            mf, _ = compile_fn(opt.functions[0], desc, mattr)
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


# --------------------------------------------------------------------------
# Mutation fuzz: the two-outcome contract on malformed input
# --------------------------------------------------------------------------

# a number (decimal or hex, with its sign), a word with its sigil, or one
# other character
_TOKEN = re.compile(r"-?\d\w*|[%@$]?[\w.]+|\S")
# out of range for a 32-bit value, an imm12, a uimm5, or just inside
_WIDE = ["2147483648", "4294967296", "-2147483649", "2147483647",
         "-2147483648", "0xffffffff", "0x100000000", "2048", "-2049", "4095",
         "32", "-1", "0"]
_FULL = "+zba,+zbb,+xcrypt"
_FUEL = "--fuel=1000"  # a mutated jump can loop; straight-line code cannot


def _token_class(tok: str) -> str:
    if tok[0] in "%@$":
        return tok[0]
    if re.match(r"-?\d", tok):
        return "number"
    return "word" if tok[0].isalnum() or tok[0] == "_" else "mark"


def mutate(rng: random.Random, text: str) -> str:
    """`text` with one to three edits: a line duplicated, dropped or swapped
    with another; a token deleted; a number replaced by one out of range; a
    token replaced by another of its class (opcode, type, keyword, name or
    mark) from the same text."""
    lines = text.split("\n")
    pool = collections.defaultdict(list)
    for tok in _TOKEN.findall(text):
        pool[_token_class(tok)].append(tok)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        edit = rng.randrange(6)
        if edit == 0:
            lines.insert(i, lines[i])
        elif edit == 1 and len(lines) > 1:
            del lines[i]
        elif edit == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            toks = list(_TOKEN.finditer(lines[i]))
            if not toks:
                continue
            if edit == 4:  # prefer a number
                toks = [m for m in toks
                        if _token_class(m[0]) == "number"] or toks
            k = rng.randrange(len(toks))
            start, end = toks[k].start(), toks[k].end()
            if edit == 3:  # a token, or it and the next, as `i32 %b`
                end = toks[min(k + rng.randrange(2), len(toks) - 1)].end()
                new = ""
            elif edit == 4:
                new = rng.choice(_WIDE)
            else:  # an earlier edit may have made a token of a new class
                new = rng.choice(pool[_token_class(toks[k][0])] or [""])
            lines[i] = lines[i][:start] + new + lines[i][end:]
    return "\n".join(lines)


def run_contract(argv, text):
    """Run one command on `text`: it exits 0, or 1 with exactly one error
    line; an exception escaping run_command fails the test."""
    try:
        code, out, err = driver.run_command(argv, text)
    except Exception as e:
        pytest.fail(f"{argv} raised {e!r} on:\n{text}")
    assert code == 0 or code == 1 and err.startswith("rv32x: error:") \
        and err.count("\n") == 1, (argv, code, err, text)
    return code, out, err


def _records(text: str, comment: str) -> str:
    """`text` without its comment lines, where an edit tests nothing."""
    return "\n".join(line for line in text.split("\n")
                     if not line.lstrip().startswith(comment))


def _ir_mutant(rng, texts, monkeypatch) -> bool:
    """opt and llc at -O0 and -O2 keep the contract, -O2 accepts what -O0
    accepts, and a first function of i32 parameters, run at either level,
    prints what ir_interpret gives, as -O0 and -O2 both do when -O0 runs.
    (A load that traps may be dead, and deleted, at -O2.) True when it
    ran."""
    text = mutate(rng, rng.choice(texts))
    run_contract(["opt", "-"], text)
    flags = ["--mattr=" + (rng.choice(ALL_MATTRS) or "")]
    o0, _, _ = run_contract(["llc", "-O0", *flags, "-"], text)
    o2, _, _ = run_contract(["llc", "-O2", *flags, "-"], text)
    assert not (o0 == 0 and o2 != 0), ("-O2 rejects what -O0 accepts", text)
    if o0 != 0:
        return False
    mod = ir.parse_ir(text)
    params = mod.functions[0].params if mod.functions else None
    if params is None or any(ty != ir.I32 for _, ty in params):
        return False
    args = [3 + 7 * i for i in range(len(params))]
    flags.append("--args=" + ",".join(map(str, args)))
    want = interpreted(mod, args)
    ran = [run_contract(["run", level, *flags, "-"], text)
           for level in ("-O0", "-O2")]
    assert ran[0][0] != 0 or ran[1] == ran[0], (ran, text)
    for level, (code, out, _) in zip(("-O0", "-O2"), ran):
        assert code != 0 or out == want or want is None and level == "-O2", \
            (level, out, want, text)
    return True


def _desc_mutant(rng, texts, monkeypatch) -> bool:
    """A description either is a TargetError or compiles every corpus file
    to words or to one clean error. True when it loaded."""
    try:
        desc = tgt.load_target_desc(mutate(rng, texts[0]))
    except tgt.TargetError:
        return False
    monkeypatch.setattr(driver, "_desc", desc)  # as if the shipped one
    for text in _corpus():
        run_contract(["llc", "--emit=obj", "--mattr=" + _FULL, "-"], text)
    return True


def _asm_mutant(rng, texts, monkeypatch) -> bool:
    """mc assembles to text, encodings or words, or to one clean error.
    True when it assembled."""
    text = mutate(rng, texts[0])
    for flags in ([], ["--show-encoding"], ["--emit=obj"]):
        code, _, _ = run_contract(
            ["mc", "--assemble", *flags, "--mattr=" + _FULL, "-"], text)
    return code == 0


def _obj_mutant(rng, texts, monkeypatch) -> bool:
    """mc disassembles object text and run simulates it, or each gives one
    clean error. True when it ran."""
    text = mutate(rng, rng.choice(texts))
    run_contract(["mc", "--disassemble", "--mattr=" + _FULL, "-"], text)
    code, _, _ = run_contract(["run", "--mattr=" + _FULL, _FUEL, "-"], text)
    return code == 0


@functools.cache
def _corpus() -> tuple[str, ...]:
    return tuple(corpus_text(name) for name in sorted(CORPUS_SHAPES))


def _mutated_texts(kind: str) -> list[str]:
    """The texts that mutants of `kind` are made from."""
    if kind == "ir":
        return [_records(text, ";") for text in _corpus()]
    if kind == "desc":
        path = PKG_ROOT / "targets" / "rv32_xcrypt.desc"
        return [_records(path.read_text(), ";")]
    if kind == "asm":
        return [_records((LIT_TESTS / "mc" / "crypt.s").read_text(), "#")]
    return [driver.run_command(["llc", "--emit=obj", "--mattr=" + _FULL, "-"],
                               text)[1] for text in _corpus()]


# kind -> mutant count and check; the counts keep the four under 2 s, and a
# longer search raises them
MUTANTS = {"ir": (600, _ir_mutant), "desc": (200, _desc_mutant),
           "asm": (400, _asm_mutant), "obj": (800, _obj_mutant)}


@pytest.mark.parametrize("kind", list(MUTANTS))
def test_mutants_end_in_a_result_or_one_clean_error(kind, monkeypatch):
    # ROADMAP aim 3's two outcomes, on inputs one to three edits away from
    # the corpus, the shipped description, the lit asm and llc's object text
    count, check = MUTANTS[kind]
    texts = _mutated_texts(kind)
    rng = random.Random(28)
    accepted = sum(check(rng, texts, monkeypatch) for _ in range(count))
    assert 0 < accepted < count, accepted  # both outcomes are reached
