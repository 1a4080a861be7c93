"""Byte identity of emitted code: SHA-256 digests of `llc` asm and obj output
for every corpus file under every --mattr, and for two large spilling
functions. A change meant to alter emitted bytes updates these constants
and says which and why; any other change must leave them as they are."""

import hashlib
import random

import pytest

from rv32x.driver import run_command

from conftest import ALL_MATTRS, CORPUS, corpus_text
from test_fuzz import gen_large_fn

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
