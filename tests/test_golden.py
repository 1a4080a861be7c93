"""Byte identity of emitted code: SHA-256 digests of `llc` asm and obj output
for every corpus file under every --mattr, and for two large spilling
functions, of instruction selection's other outputs: the DAG dumped at each
stage and the --debug-isel trace, of the midend's `opt -O2` text with its
pass statistics, and of what `run --trace` prints. A change meant to alter these outputs updates these
constants and says which and why; any other change must leave them as they
are."""

import hashlib
import random

import pytest

from rv32x import target as tgt
from rv32x.driver import compile_ir_text, run_command

from conftest import (ALL_MATTRS, CORPUS, CORPUS_SHAPES, PKG_ROOT,
                      corpus_text, synth_args)
from test_fuzz import (gen_arith_fn, gen_large_fn, gen_memory_fn,
                       gen_shift_pair_fn)

# per corpus file: asm then obj under each of ALL_MATTRS, in order
CORPUS_DIGESTS = {
    "identity.ll":
        "974af2ce5474cc744ef15e0e0470984baf45e7258b60d0fc48c630adac1c8fa4",
    "lxr.ll":
        "5a67f3aca05797f14139dc856ae73d6d1b7f99fc05905fcd88195abcbd0e22f9",
    "lxr_dep16.ll":
        "69beae9302e1ad175c4e93c654b632cef4645d6ad07caacdd62cc057c3b6a870",
    "lxr_dep8.ll":
        "27809cc90fb2cec7a814a9af096ae05606fcbef968a7ac17f8fc1b5ea34e3274",
    "madd.ll":
        "be6a6565f4387d55b25c646b21bf03140a0400ab485256dd31773ded6a8ab98b",
    "mul6.ll":
        "8d1f6cd328002945bf7724bb3c755e81df8e0e3eaba06a09fd1aa306891d4148",
    "mul6_reuse.ll":
        "97edff17cca6e6cde5f4686eeb36804075dd14a21305489cc5e39756490fbfff",
    "rori.ll":
        "8e88a9e61e16c5d8d20b55ecbd30c32f998cb01cbeb2c7d6a359c7e991548768",
    "sbox.ll":
        "978f30398c91679f2b747c5bbd839ab906e94509b2a270d309e73e2c312d74d0",
    "sbox_unopt.ll":
        "978f30398c91679f2b747c5bbd839ab906e94509b2a270d309e73e2c312d74d0",
    "shlxor.ll":
        "17df1f64611693a3e40d924808feb5c64b299839da02bad4a7807de68d598407",
}
# gen_large_fn(Random(size), size, size), asm then obj, under base and all
LARGE_MATTRS = (None, "+zba,+zbb,+xcrypt")
LARGE_DIGESTS = {
    200:
        "a156627da062659bf51cd4e55ec0ab2b38d64f7c1cbb0232798f6d16a923d57f",
    800:
        "b20d27e6d808b8efd0f65229696f77412bc8562742f2ca7d205ee1d99b15a090",
}

# `llc --emit=dot --dag-stage=S` for every stage, then the `llc --debug-isel`
# lines, for every corpus file under every --mattr at -O2, and for six
# generated functions under base and all extensions at -O0 and -O2 (at -O0
# dead values reach the DAG)
ISEL_DUMPS_DIGEST = \
    "e1fbed4ca8493c3fc9301a30080d73aa998b404b647537a14ed4fa62f1441006"
DAG_STAGES = ("built", "legalized", "selected")

# `opt --stats` (the -O2 text, then PassStats.render()) for every corpus
# file, the bench's synthetic functions of 100-800 instructions at seeds 11
# and 29, and outputs of the four fuzz generators at one seed
OPT_DIGEST = \
    "aa8ae4550cee9beb70c1993d750bb7d296465c401de24dac1ce9a91127524b29"
SYNTH = PKG_ROOT.parent.parent / "perfbench" / "synth.py"

# `run --trace` (each executed instruction, a0 and the globals) for every
# corpus file under every --mattr, on arguments and memory drawn from
# Random(7000) in file order
RUN_TRACE_DIGEST = \
    "046a795e7ac85bab5a432cd11473facf3c024b5aa2e621f9046b4c40041f2151"


def _digest(text: str, mattrs) -> str:
    h = hashlib.sha256()
    for mattr in mattrs:
        for emit in ("asm", "obj"):
            argv = ["llc", f"--emit={emit}", "-"]
            if mattr:
                argv.append(f"--mattr={mattr}")
            code, out, err = run_command(argv, stdin_text=text)
            assert code == 0, err
            h.update(out.encode())
    return h.hexdigest()


def test_every_corpus_file_is_listed():
    assert sorted(p.name for p in CORPUS.glob("*.ll")) == \
        sorted(CORPUS_DIGESTS)


@pytest.mark.parametrize("name", sorted(CORPUS_DIGESTS))
def test_corpus_output_is_byte_identical(name):
    assert _digest(corpus_text(name), ALL_MATTRS) == CORPUS_DIGESTS[name]


@pytest.mark.parametrize("size", sorted(LARGE_DIGESTS))
def test_large_function_output_is_byte_identical(size):
    text = gen_large_fn(random.Random(size), size, size)
    assert _digest(text, LARGE_MATTRS) == LARGE_DIGESTS[size]


def test_isel_dumps_are_identical(desc):
    # one compile per case gives what llc prints for each --dag-stage
    cases = [(corpus_text(p.name), mattr, "O2")
             for p in sorted(CORPUS.glob("*.ll")) for mattr in ALL_MATTRS]
    rng = random.Random(5000)
    for text in [gen(rng, i) for i in range(2)
                 for gen in (gen_arith_fn, gen_memory_fn, gen_shift_pair_fn)]:
        cases += [(text, mattr, level) for mattr in LARGE_MATTRS
                  for level in ("O0", "O2")]
    h = hashlib.sha256()
    for text, mattr, level in cases:
        cm = compile_ir_text(text, "-", desc, tgt.parse_mattr(mattr), level,
                             want_dots=True)
        for stage in DAG_STAGES:
            for cf in cm.functions.values():
                h.update(cf.dots[stage].encode())
        for fname, cf in cm.functions.items():
            for line in cf.debug_lines:
                h.update(f"[isel:{fname}] {line}\n".encode())
    assert h.hexdigest() == ISEL_DUMPS_DIGEST


def _synth_gen_function():
    # run the bench's generator source in a fresh namespace: no import
    # machinery, so nothing is cached or written next to it
    namespace: dict = {"__name__": "synth"}
    exec(compile(SYNTH.read_text(), str(SYNTH), "exec"), namespace)
    return namespace["gen_function"]


def test_opt_output_is_identical():
    texts = [corpus_text(p.name) for p in sorted(CORPUS.glob("*.ll"))]
    gen_function = _synth_gen_function()
    for seed in (11, 29):
        rng = random.Random(seed)
        texts += [gen_function(rng, f"synth{n}", n)
                  for n in (100, 200, 400, 800)]
    rng = random.Random(6000)
    for i in range(20):
        texts += [gen(rng, i)
                  for gen in (gen_arith_fn, gen_memory_fn, gen_shift_pair_fn)]
    texts += [gen_large_fn(rng, i, rng.randrange(100, 301)) for i in range(2)]
    h = hashlib.sha256()
    for text in texts:
        code, out, err = run_command(["opt", "--stats", "-"], stdin_text=text)
        assert code == 0, err
        h.update(out.encode())
    assert h.hexdigest() == OPT_DIGEST


def _mem_flags(mem: dict[int, int]) -> list[str]:
    """`--mem` flags for byte memory, one per run of consecutive bytes."""
    flags, start, data = [], None, b""
    for addr in sorted(mem):
        if start is None or addr != start + len(data):
            if data:
                flags.append(f"--mem=0x{start:x}:{data.hex()}")
            start, data = addr, b""
        data += bytes([mem[addr]])
    if data:
        flags.append(f"--mem=0x{start:x}:{data.hex()}")
    return flags


def test_run_trace_output_is_identical():
    rng = random.Random(7000)
    h = hashlib.sha256()
    for name, (fname, n_ptrs, n_ints) in sorted(CORPUS_SHAPES.items()):
        args, mem = synth_args(rng, n_ptrs, n_ints)
        argv = ["run", "--trace", f"--entry={fname}", "-"] + _mem_flags(mem)
        if args:
            argv.append("--args=" + ",".join(map(str, args)))
        for mattr in ALL_MATTRS:
            code, out, err = run_command(
                argv + ([f"--mattr={mattr}"] if mattr else []),
                stdin_text=corpus_text(name))
            assert code == 0, err
            h.update(out.encode())
    assert h.hexdigest() == RUN_TRACE_DIGEST
