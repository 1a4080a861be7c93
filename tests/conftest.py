import pathlib
import random
import re

import pytest

from rv32x import codegen, driver, ir, midend, sim
from rv32x import target as tgt

# ---------------------------------------------------------------------------
# acceptance reporting: one pass/fail line per criterion at session end
# ---------------------------------------------------------------------------

_ACCEPTANCE: dict[int, str] = {}
_CRIT_RE = re.compile(r"test_criterion_(\d+)")
_CRIT_TITLES = {
    1: "NAXOR fusion opcode histograms",
    2: "LXR two-instruction form",
    3: "MLA selection and simulated result 436",
    4: "SHLXOR selection and shipped LLC test",
    5: "RORI vs shift expansion, rotation oracle",
    6: "SH1ADD multiply patterns, one-use predicate",
    7: "dependent-load hook vs declarative LXR",
    8: "midend statistics and final S-box shape",
    9: "and/xor rewrite, 8-bit exhaustive",
    10: "encode/decode bijectivity and disjointness",
    11: "end-to-end differential oracle",
    12: "immediate materialization thresholds",
    13: "lit harness self-check and update idempotence",
}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    m = _CRIT_RE.search(report.nodeid)
    if not m:
        return
    num = int(m.group(1))
    outcome = "PASS" if report.passed else "FAIL"
    if _ACCEPTANCE.get(num) == "FAIL":
        outcome = "FAIL"
    _ACCEPTANCE[num] = outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        title = _CRIT_TITLES.get(num, "")
        terminalreporter.write_line(
            f"criterion {num:2d}: {_ACCEPTANCE[num]}  {title}")

PKG_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "rv32x"
CORPUS = PKG_ROOT / "corpus"
LIT_TESTS = PKG_ROOT / "tests"

ALL_MATTRS = [None, "+zba", "+zbb", "+xcrypt", "+zba,+zbb,+xcrypt"]


@pytest.fixture(scope="session")
def desc():
    return tgt.load_default_desc()


def corpus_text(name: str) -> str:
    return (CORPUS / name).read_text()


def corpus_module(name: str) -> ir.Module:
    return ir.parse_ir(corpus_text(name), name)


def optimized(name: str) -> ir.Module:
    mod, _ = midend.run_pipeline(corpus_module(name), midend.DEFAULT_PIPELINE)
    return mod


def compile_fn(fn, desc, mattr=None):
    cf = driver.compile_function(fn, desc, tgt.parse_mattr(mattr))
    return cf.mf, cf.debug_lines


def compile_corpus(name: str, desc, mattr=None, fname=None):
    """Returns (module, function name, MachineFunction, asm text). The
    module is as parsed; the function is compiled at -O2."""
    mod = corpus_module(name)
    fname = fname or mod.functions[0].name
    opt, _ = midend.run_pipeline(mod, midend.DEFAULT_PIPELINE)
    cf = driver.compile_function(opt.function(fname), desc,
                                 tgt.parse_mattr(mattr))
    return mod, fname, cf.mf, cf.asm


def histogram(asm: str) -> dict[str, int]:
    """How often each mnemonic occurs in assembly text."""
    hist: dict[str, int] = {}
    for line in asm.splitlines():
        line = line.strip()
        if not line or line.endswith(":") or line.startswith(("#", ";", ".")):
            continue
        mn = line.split()[0]
        hist[mn] = hist.get(mn, 0) + 1
    return hist


def rotr32(x: int, n: int) -> int:
    """x rotated right by n mod 32 bits, the reference for every rotate."""
    return sim.OPS["rotr"](x & sim.MASK32, n)


def make_ptr_args(rng: random.Random, n_ptrs: int, words_each: int = 5):
    mem = {}
    args = []
    for i in range(n_ptrs):
        base = 0x4000 + 0x100 * i
        args.append(base)
        for j in range(words_each):
            sim.mem_write32(mem, base + 4 * j, rng.getrandbits(32))
    return args, mem


# signature-aware argument synthesis for differential runs
CORPUS_SHAPES = {
    "sbox.ll": ("sbox", 1, 0),
    "sbox_unopt.ll": ("sbox", 1, 0),
    "lxr.ll": ("foo", 2, 0),
    "lxr_dep16.ll": ("xor_first_fifth", 1, 0),
    "lxr_dep8.ll": ("xor_first_third", 1, 0),
    "rori.ll": ("rotimm", 0, 1),
    "shlxor.ll": ("shlxor", 0, 2),
    "mul6.ll": ("mul6", 0, 2),
    "mul6_reuse.ll": ("mul6_reuse", 0, 2),
    "madd.ll": ("maddFunc", 0, 0),
    "identity.ll": ("ident", 0, 1),
}


def synth_args(rng: random.Random, n_ptrs: int, n_ints: int):
    args, mem = make_ptr_args(rng, n_ptrs)
    args += [rng.getrandbits(32) for _ in range(n_ints)]
    return args, mem


def assert_runs_like_ir(fn, mf, desc, inputs, gaddrs=None):
    """Simulate the compiled `mf` on each (args, mem) input and compare with
    the IR interpreter on `fn`: the return value unless void, and memory."""
    words = codegen.emit_words(mf, desc, gaddrs or {})
    for args, mem in inputs:
        want, want_mem = sim.ir_interpret(fn, args, dict(mem), gaddrs)
        got, got_mem, _ = sim.run_function(words, args, dict(mem), desc=desc)
        if fn.return_type != "void":
            assert got == want, f"@{fn.name}{args}: ret {got} != {want}"
        assert got_mem == want_mem, f"@{fn.name}{args}: memory diverged"


def eval_pattern(node: tgt.PatNode, env, mem):
    """A pattern source or a sem, evaluated node by node through sim.OPS:
    the reference for what the target's expression templates generate, and
    so written apart from them. `env` maps capture names to values and
    `mem` is byte memory. Returns the 32-bit result, or None for a store."""
    if node.kind == "capture" or node.kind in tgt.IMM_RANGES:
        return env[node.name] & sim.MASK32
    if node.kind == "const":
        return node.value & sim.MASK32
    args = [eval_pattern(c, env, mem) for c in node.children]
    if node.kind == "load":
        return sim.mem_read32(mem, args[0])
    if node.kind == "store":
        sim.mem_write32(mem, args[1], args[0])
        return None
    return sim.OPS[node.kind](*args)


def interpreted(mod: ir.Module, args) -> str | None:
    """What `run` prints for the first function of `mod` on `args`, as
    sim.ir_interpret gives it with the globals placed and seeded as `run`
    places and seeds them; None when the interpreter traps."""
    fn = mod.functions[0]
    addrs = sim.assign_global_addrs(mod)
    try:
        a0, mem = sim.ir_interpret(fn, args, sim.seed_globals(mod, addrs),
                                   addrs)
    except sim.SimTrap:
        return None
    lines = [] if fn.return_type == ir.VOID else [f"a0 = {a0}"]
    lines += [f"@{g.name} = {sim.mem_read32(mem, addrs[g.name])}"
              for g in mod.globals]
    return "".join(line + "\n" for line in lines)


def differential_run(name: str, desc, mattr, trials: int, seed: int = 7
                     ) -> int:
    """Compare ir_interpret against the simulator on the compiled function.
    Returns the number of trials executed; raises AssertionError on any
    divergence."""
    fname, n_ptrs, n_ints = CORPUS_SHAPES[name]
    mod0 = corpus_module(name)
    gaddrs = sim.assign_global_addrs(mod0)
    _, _, mf, _ = compile_corpus(name, desc, mattr, fname)
    rng = random.Random(seed)
    inputs = [synth_args(rng, n_ptrs, n_ints) for _ in range(trials)]
    for _, mem in inputs:
        mem.update(sim.seed_globals(mod0, gaddrs))
    assert_runs_like_ir(mod0.function(fname), mf, desc, inputs, gaddrs)
    return trials
