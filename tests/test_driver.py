
import random
import sys

import pytest

from rv32x import codegen, driver, ir, sim
from rv32x import target as tgt
from rv32x.driver import main, run_command

from conftest import CORPUS, CORPUS_SHAPES, LIT_TESTS, corpus_text, \
    interpreted, synth_args


def path(name):
    return str(CORPUS / name)


def test_no_arguments_prints_usage_status_2():
    code, out, err = run_command([])
    assert code == 2
    assert "usage:" in err


def test_unknown_flag_is_hard_error():
    code, _, err = run_command(["llc", "--frobnicate", path("identity.ll")])
    assert code == 2
    assert "frobnicate" in err


def test_llc_sbox_naxor_lines():
    code, out, _ = run_command(["llc", path("sbox.ll"), "--mattr=+xcrypt",
                                "--emit=asm"])
    assert code == 0
    assert sum(1 for l in out.splitlines() if "naxor" in l) == 5


def test_opt_stats_include_dse_lines():
    code, out, _ = run_command(["opt", path("sbox_unopt.ll"), "-O2",
                                "--stats"])
    assert code == 0
    assert "7 dse" in out.replace("   7 dse", " 7 dse")
    assert "Number of stores deleted" in out
    assert "5 dse" in out.replace("   5 dse", " 5 dse")


def test_opt_passes_flag():
    code, out, _ = run_command(["opt", path("sbox_unopt.ll"),
                                "--passes=sroa,early-cse", "--stats"])
    assert code == 0
    assert "sroa" in out and "dse" not in out


def test_opt_unknown_pass():
    code, _, err = run_command(["opt", path("identity.ll"),
                                "--passes=gvn"])
    assert code == 1
    assert "unknown pass" in err


def test_staged_pipeline_composition_identity():
    _, printed, _ = run_command(["opt", path("sbox_unopt.ll"), "-O2"])
    _, asm_staged, _ = run_command(["llc", "-", "-O0", "--mattr=+xcrypt",
                                    "--emit=asm"], stdin_text=printed)
    _, asm_direct, _ = run_command(["llc", path("sbox_unopt.ll"), "-O2",
                                    "--mattr=+xcrypt", "--emit=asm"])
    assert asm_staged == asm_direct


def test_opt_O0_runs_no_pass():
    code, out, _ = run_command(["opt", "-O0", path("sbox_unopt.ll")])
    assert code == 0
    assert out == ir.print_ir(ir.parse_ir(corpus_text("sbox_unopt.ll"),
                                          path("sbox_unopt.ll")))
    assert "alloca" in out


# a slot that one load reads before any store: an i32, and a ptr that a
# second load then reads through
_READ_BEFORE_STORE = {
    "i32": ("  %p = alloca i32\n  %v = load i32, ptr %p\n"
            "  %r = add i32 %v, %a\n  store i32 %r, ptr %p\n  ret i32 %r\n"),
    "ptr": ("  %p = alloca ptr\n  %q = load ptr, ptr %p\n"
            "  %v = load i32, ptr %q\n  %r = add i32 %v, %a\n  ret i32 %r\n"),
}


@pytest.mark.parametrize("slot", list(_READ_BEFORE_STORE))
def test_a_slot_read_before_its_store_runs_like_ir(slot):
    """sroa reads such a slot as 0, the value ir_interpret reads from it,
    whether run compiles at -O2 or runs opt -O2's output at -O0."""
    text = "define i32 @f(i32 %a) {\n" + _READ_BEFORE_STORE[slot] + "}\n"
    want = interpreted(ir.parse_ir(text), [5])
    assert want == "a0 = 5\n"
    assert run_command(["run", "-O2", "--args=5", "-"], text) == (0, want, "")
    code, optimized, _ = run_command(["opt", "-O2", "-"], text)
    assert code == 0 and "alloca" not in optimized
    assert run_command(["run", "-O0", "--args=5", "-"], optimized) == \
        (0, want, "")


# an add of 0 that allocation turns into a self-move, and what llc prints
_SELF_MOVES = {
    "one-argument": ("define i32 @f(i32 %a) {\n  %r = add i32 %a, 0\n"
                     "  ret i32 %r\n}\n", "f:\n\tret\n", "7"),
    "two-arguments": ("define i32 @f(i32 %a, i32 %b) {\n"
                      "  %r = add i32 %b, 0\n  %s = xor i32 %r, %a\n"
                      "  ret i32 %s\n}\n", "f:\n\txor\ta0, a0, a1\n\tret\n",
                      "6,3"),
}


@pytest.mark.parametrize("name", list(_SELF_MOVES))
def test_an_add_of_zero_leaves_no_self_move(name):
    """`mv a0, a0` and `mv a1, a1` are dropped, and the code still runs
    like ir_interpret."""
    text, asm, args = _SELF_MOVES[name]
    assert run_command(["llc", "-O2", "-"], text) == (0, asm, "")
    want = interpreted(ir.parse_ir(text), [int(a) for a in args.split(",")])
    assert run_command(["run", "-O2", f"--args={args}", "-"], text) == \
        (0, want, "")


@pytest.mark.parametrize("token", ["undef", "poison"])
def test_undef_and_poison_are_not_operands(token):
    text = ("define i32 @f(i32 %a) {\n"
            f"  %r = add i32 %a, {token}\n  ret i32 %r\n}}\n")
    err = f"rv32x: error: <stdin>:2:1: bad operand '{token}'\n"
    for cmd in ("opt", "llc", "run"):
        for level in ("-O0", "-O2"):
            argv = [cmd, level, "-", *(["--args=1"] if cmd == "run" else [])]
            assert run_command(argv, text) == (1, "", err)


def test_run_madd_writes_436():
    code, out, _ = run_command(["run", path("madd.ll"), "--mattr=+xcrypt"])
    assert code == 0
    assert "@a = 436" in out


def test_run_args_and_trace():
    code, out, _ = run_command(["run", path("rori.ll"), "--mattr=+zbb",
                                "--args=15", "--trace"])
    assert code == 0
    assert "a0 = 3221225475" in out  # 0xC0000003
    assert any(l.startswith("0x") and "rori" in l for l in out.splitlines())


def test_run_mem_flag():
    code, out, _ = run_command(["run", path("lxr.ll"), "--mattr=+xcrypt",
                                "--args=0x4000,0x4004",
                                "--mem=0x4000:0f000000f0000000"])
    assert code == 0
    assert f"a0 = {0x0F ^ 0xF0}" in out
    # an empty part, as after a trailing ';', places nothing
    assert run_command(["run", path("lxr.ll"), "--mattr=+xcrypt",
                        "--args=0x4000,0x4004",
                        "--mem=0x4000:0f000000;;0x4004:f0000000;"]) == \
        (code, out, "")


def test_compile_ir_text_rejects_an_unknown_level(desc):
    with pytest.raises(driver.DriverError, match="unknown optimization "
                                                 "level 'O3'"):
        driver.compile_ir_text(corpus_text("rori.ll"), "rori.ll", desc,
                               tgt.parse_mattr(None), "O3")


def test_i64_input_is_a_diagnosed_error():
    code, _, err = run_command(["llc", "-"],
                               stdin_text="define i64 @t(i64 %a) {\n"
                                          "  ret i64 %a\n}\n")
    assert code == 1
    assert "i64 unsupported" in err


def test_mc_assemble_show_encoding():
    code, out, _ = run_command(
        ["mc", "--assemble", "--show-encoding", "--mattr=+xcrypt", "-"],
        stdin_text="shlxor s2, s2, s8\n")
    assert code == 0
    assert "shlxor\ts2, s2, s8" in out
    assert "encoding: [0x33,0x79,0x89,0x31]" in out


def test_mc_requires_extension():
    code, _, err = run_command(["mc", "--assemble", "-"],
                               stdin_text="naxor a0, a1, a2, a3\n")
    assert code == 1
    assert "Xcrypt" in err


def test_llc_names_the_extension_a_node_needs():
    # with M disabled no pattern covers the mul; the error names MUL and M
    code, out, err = run_command(["llc", path("mul6.ll"), "--mattr=-m"])
    assert code == 1 and out == ""
    assert err.startswith("rv32x: error:")
    assert "MUL requires extension M" in err


def test_mc_obj_disassemble_pipeline():
    _, obj, _ = run_command(["mc", "--assemble", "--emit=obj",
                             "--mattr=+xcrypt", "-"],
                            stdin_text="lxr a0, a0, a1\nret\n")
    code, out, _ = run_command(["mc", "--disassemble", "--mattr=+xcrypt",
                                "-"], stdin_text=obj)
    assert code == 0
    assert "lxr" in out and "jalr" in out  # no-alias disassembly


def test_llc_dot_stages():
    for stage, want in (("built", "GlobalAddress"), ("legalized", "LO"),
                        ("selected", "MLA")):
        code, out, _ = run_command(
            ["llc", path("madd.ll"), "--mattr=+xcrypt", "--emit=dot",
             f"--dag-stage={stage}"])
        assert code == 0
        assert want in out, stage


def test_debug_isel_trace_on_stderr():
    code, out, err = run_command(["llc", path("lxr_dep16.ll"),
                                  "--mattr=+xcrypt", "--debug-isel"])
    assert code == 0
    assert "constant equals 16: yes" in err
    assert "emitting ADDI + LXR" in err


def test_mattr_env_var_default(monkeypatch):
    monkeypatch.setenv("RV32X_MATTR", "+xcrypt")
    code, out, _ = run_command(["llc", path("lxr.ll")])
    assert code == 0 and "lxr" in out
    monkeypatch.delenv("RV32X_MATTR")
    code, out, _ = run_command(["llc", path("lxr.ll")])
    assert code == 0 and "lxr" not in out


def test_a_process_builds_one_parser_and_loads_one_description(monkeypatch):
    builds, loads = [], []
    build, load = driver._build_parser, tgt.load_target_desc
    monkeypatch.setattr(driver, "_parser", None)
    monkeypatch.setattr(driver, "_desc", None)
    monkeypatch.setattr(driver, "_build_parser",
                        lambda: builds.append(1) or build())
    monkeypatch.setattr(tgt, "load_target_desc",
                        lambda text: loads.append(1) or load(text))
    codes = [run_command(argv, stdin_text=stdin)[0] for argv, stdin in (
        (["llc", path("sbox.ll"), "--mattr=+xcrypt"], ""),
        (["mc", "--show-encoding", "-"], "addi a0, a0, 1\nret\n"),
        (["run", path("rori.ll"), "--args=1"], ""),
        (["llc", "--frobnicate", path("rori.ll")], ""),
        (["lit"], ""),
        (["llc", path("madd.ll"), "--emit=obj"], ""))]
    assert codes == [0, 0, 0, 2, 0, 0]
    assert len(builds) == 1
    assert len(loads) <= 1


def test_the_shared_parser_keeps_no_state_between_commands(monkeypatch):
    # a repeated --mem appends to a fresh list on every command
    lxr = ["run", path("lxr.ll"), "--args=0x4000,0x4004"]
    both = lxr + ["--mem=0x4000:0f000000", "--mem=0x4004:f0000000"]
    assert run_command(both) == run_command(both) == (0, "a0 = 255\n", "")
    assert run_command(lxr + ["--mem=0x4004:f0000000"]) == \
        (0, "a0 = 240\n", "")
    # after a usage error, a command runs as in a fresh process
    sbox = ["llc", path("sbox.ll"), "--mattr=+xcrypt", "--emit=obj"]
    monkeypatch.setattr(driver, "_parser", None)
    monkeypatch.setattr(driver, "_desc", None)
    fresh = run_command(sbox)
    assert run_command(["llc", "--emit=elf", path("sbox.ll")])[0] == 2
    assert run_command(["run", path("rori.ll"), "--fuel=lots"])[0] == 2
    assert run_command(sbox) == fresh
    for argv in (["--help"], ["run", "--help"]):
        first = run_command(argv)
        assert first[0] == 0 and "usage:" in first[1]
        assert run_command(argv) == first


def test_lit_subcommand_end_to_end():
    code, out, _ = run_command(["lit", str(LIT_TESTS), "-v"])
    assert code == 0
    assert "Passed:" in out and "FAIL" not in out


def test_filecheck_subcommand(tmp_path):
    check = tmp_path / "c.txt"
    check.write_text("; CHECK: hello world\n")
    code, _, _ = run_command(["filecheck", str(check)],
                             stdin_text="   hello   world\n")
    assert code == 0
    code, _, err = run_command(["filecheck", str(check)],
                               stdin_text="goodbye\n")
    assert code == 1 and "hello" in err


def test_filecheck_names_its_check_file(tmp_path):
    check = tmp_path / "c.txt"
    check.write_text("; CHECK: hello\n; CHECK-NEXT: world\n")
    code, out, err = run_command(["filecheck", str(check)],
                                 stdin_text="hello\nthere\n")
    assert code == 1 and out == ""
    assert err.startswith(f"{check}:2: CHECK-NEXT expected"), err


def test_filecheck_of_a_check_file_that_is_not_utf8(tmp_path):
    check = tmp_path / "c.txt"
    check.write_bytes(b"\xff; CHECK: hello\n")
    code, out, err = run_command(["filecheck", str(check)],
                                 stdin_text="hello\n")
    assert code == 1 and out == ""
    assert err.startswith(f"rv32x: error: {check}: not UTF-8 text") \
        and err.count("\n") == 1, err


def test_missing_input_file():
    code, _, err = run_command(["llc", "/nonexistent/x.ll"])
    assert code == 1


def test_O0_rejects_alloca_ir():
    code, _, err = run_command(["llc", path("sbox_unopt.ll"), "-O0",
                                "--mattr=+xcrypt"])
    assert code == 1
    assert "alloca" in err and "optimization pipeline" in err


def test_llc_obj_feeds_disassembler():
    _, obj, _ = run_command(["llc", path("shlxor.ll"), "--mattr=+xcrypt",
                             "--emit=obj"])
    code, out, _ = run_command(["mc", "--disassemble", "--mattr=+xcrypt",
                                "-"], stdin_text=obj)
    assert code == 0 and "shlxor" in out


def test_run_accepts_object_words():
    _, obj, _ = run_command(["llc", path("rori.ll"), "--mattr=+zbb",
                             "--emit=obj"])
    code, out, _ = run_command(["run", "-", "--mattr=+zbb", "--args=15"],
                               stdin_text=obj)
    assert code == 0
    assert "a0 = 3221225475" in out


def test_run_decodes_only_the_mattr_extensions():
    _, obj, _ = run_command(["llc", path("shlxor.ll"), "--mattr=+xcrypt",
                             "--emit=obj"])
    code, out, err = run_command(["run", "-"], stdin_text=obj)
    assert code == 1 and out == ""
    assert err.startswith("rv32x: error: trap: ")
    assert "undecodable word 0x30b57533" in err
    code, out, _ = run_command(["run", "-", "--mattr=+xcrypt",
                                "--args=1,2"], stdin_text=obj)
    assert code == 0 and "a0 = 0" in out  # (1 << 1) ^ 2


@pytest.mark.parametrize("mattr", [None, "+zba,+zbb,+xcrypt"])
def test_run_trace_lines_reassemble_to_the_executed_words(mattr, desc):
    """Each `run --trace` line is assembler syntax for the word it ran."""
    ext = tgt.parse_mattr(mattr)
    flags = [f"--mattr={mattr}"] if mattr else []
    rng = random.Random(5)
    seen = set()
    for name, (fname, n_ptrs, n_ints) in sorted(CORPUS_SHAPES.items()):
        args, _ = synth_args(rng, n_ptrs, n_ints)
        cm = driver.compile_ir_text(corpus_text(name), name, desc, ext)
        words = codegen.emit_words(cm.functions[fname].mf, desc,
                                   cm.global_addrs)
        code, out, err = run_command(
            ["run", path(name), f"--entry={fname}", "--trace",
             "--args=" + ",".join(map(str, args))] + flags)
        assert code == 0, err
        trace = [l for l in out.splitlines() if l.startswith("0x")]
        assert len(trace) == len(words)
        for line in trace:
            pc, text = line.split(": ", 1)
            mi = codegen.parse_asm_line(text, desc)
            word = words[(int(pc, 16) - sim.PROGRAM_BASE) // 4]
            assert tgt.encode(mi, desc).word == word, line
            seen.add(mi.mnemonic)
    assert {"LW", "SW", "JALR"} <= seen


def test_run_object_with_relocations_is_an_error():
    _, obj, _ = run_command(["llc", path("madd.ll"), "--mattr=+xcrypt",
                             "--emit=obj"])
    code, _, err = run_command(["run", "-"], stdin_text=obj)
    assert code == 1 and "unresolved symbol" in err


def test_run_object_runs_the_entry_function():
    text = ("define i32 @f(i32 %a) {\n  %r = add i32 %a, 1\n  ret i32 %r\n}\n"
            "define i32 @h(i32 %a) {\n  %r = xor i32 %a, 7\n  ret i32 %r\n}\n")
    _, obj, _ = run_command(["llc", "--emit=obj", "-"], stdin_text=text)
    for flags, want in (([], "a0 = 2"), (["--entry=f"], "a0 = 2"),
                        (["--entry=h"], "a0 = 6")):
        code, out, err = run_command(["run", "-", "--args=1", "--trace"]
                                     + flags, stdin_text=obj)
        assert code == 0, err
        assert out.splitlines()[-1] == want
        assert len([l for l in out.splitlines() if l.startswith("0x")]) == 2
    code, _, err = run_command(["run", "-", "--entry=g", "--args=1"],
                               stdin_text=obj)
    assert code == 1 and "no entry function 'g'" in err


def test_run_program_over_a_seeded_global_is_an_error():
    # 1100 chained adds at -O0 make a program longer than the 4 KiB below
    # GLOBAL_BASE, so its words would cover @g
    body = "".join(f"  %v{i} = add i32 %v{i - 1}, 1\n" for i in range(1, 1100))
    text = ("@g = global i32 5\ndefine i32 @big(i32 %x) {\n"
            "  %v0 = add i32 %x, 1\n" + body
            + "  store i32 %v1099, ptr @g\n  ret i32 %v1099\n}\n")
    code, out, err = run_command(["run", "-O0", "-", "--args=1"],
                                 stdin_text=text)
    assert code == 1 and out == ""
    assert "overlaps seeded memory at 0x00002000" in err


def test_multi_function_module():
    text = ("define i32 @first(i32 %a) {\n  ret i32 %a\n}\n"
            "define i32 @second(i32 %a, i32 %b) {\n"
            "  %x = xor i32 %a, %b\n  ret i32 %x\n}\n")
    code, out, _ = run_command(["llc", "-"], stdin_text=text)
    assert code == 0
    assert "first:" in out and "second:" in out
    code, out, _ = run_command(["run", "-", "--entry=second",
                                "--args=12,10"], stdin_text=text)
    assert code == 0 and "a0 = 6" in out


def test_outputs_deterministic_across_invocations():
    for argv in (["llc", path("sbox.ll"), "--mattr=+xcrypt", "--emit=asm"],
                 ["llc", path("madd.ll"), "--mattr=+xcrypt", "--emit=obj"],
                 ["llc", path("madd.ll"), "--emit=dot",
                  "--dag-stage=selected"]):
        a = run_command(list(argv))
        b = run_command(list(argv))
        assert a == b


def test_help_documents_every_flag():
    for sub, flags in {
        "opt": ["--passes", "--stats", "-O0", "-O2"],
        "llc": ["--emit", "--dag-stage", "--mattr", "--debug-isel"],
        "mc": ["--assemble", "--disassemble", "--show-encoding", "--mattr"],
        "run": ["--entry", "--args", "--mem", "--trace"],
        "lit": ["-v"],
        "filecheck": ["--check-prefixes"],
    }.items():
        code, out, err = run_command([sub, "--help"])
        text = out + err
        for flag in flags:
            assert flag in text, (sub, flag)


def test_removed_isel_options_are_usage_errors():
    # the Zba threshold changed no output, combined1 printed the built DAG,
    # combined2 became the one combined stage, and that printed the
    # legalized DAG again once legalize made no duplicate constant
    for argv in (["llc", path("madd.ll"), "--zba-threshold=1"],
                 ["llc", path("madd.ll"), "--emit=dot",
                  "--dag-stage=combined1"],
                 ["llc", path("madd.ll"), "--emit=dot",
                  "--dag-stage=combined2"],
                 ["llc", path("madd.ll"), "--emit=dot",
                  "--dag-stage=combined"]):
        code, out, err = run_command(argv)
        assert code == 2 and out == "", argv
        assert "rv32x: error:" in err, err


def test_main_leaves_stdin_unread_for_a_file_input(monkeypatch, capsys):
    class OpenPipe:
        def isatty(self):
            return False

        def read(self, *_):
            pytest.fail("stdin read for a file input")

    monkeypatch.setattr(sys, "stdin", OpenPipe())
    assert main(["run", "-O0", path("rori.ll"), "--args=1"]) == 0
    assert capsys.readouterr().out == "a0 = 1073741824\n"


def _params_sum(n: int) -> str:
    """A function of n parameters that returns the first plus the last."""
    params = ", ".join(f"i32 %a{i}" for i in range(n))
    return (f"define i32 @f({params}) {{\n  %s = add i32 %a0, %a{n - 1}\n"
            "  ret i32 %s\n}\n")


def _in_f(body, pre=""):
    """`pre`, then a function of (i32 %a, ptr %p) whose body starts with
    `body`, on line 2 when `pre` is empty."""
    return (f"{pre}define i32 @f(i32 %a, ptr %p) {{\n{body}\n"
            "  ret i32 %a\n}\n")


_STRUCT = "%s = type { i32, i32 }\n"
_FSHL = "  %x = call i32 @llvm.fshl.i32"
# IR the parser rejects, each with the position and text of its error
_BAD_IR = {
    "attributes": ("attributes #0 nounwind\n",
                   "1:1: malformed attributes line"),
    "top-level": ("frob\n", "1:1: unrecognized top-level construct: 'frob'"),
    "global": ("@g = global\n", "1:1: malformed global: '@g = global'"),
    "global-i64": ("@g = global i64 0\n", "1:1: i64 unsupported"),
    "global-i8": ("@g = global i8 0\n",
                  "1:1: global g: only i32 globals are supported"),
    "struct-i64": ("%s = type { i32, i64 }\n", "1:1: i64 unsupported"),
    "struct-i8": ("%s = type { i32, i8 }\n",
                  "1:1: struct %s: only i32 members are supported"),
    "define": ("define i32 f(i32 %a) {\n  ret i32 %a\n}\n",
               "1:1: malformed define line"),
    "unnamed-parameter": ("define i32 @f(i32) {\n  ret i32 0\n}\n",
                          "1:1: unnamed parameter in @f"),
    "empty-parameter": ("define i32 @f(i32 %a, , i32 %b) {\n"
                        "  ret i32 %a\n}\n", "1:1: empty parameter in @f"),
    "one-line-empty-body": ("define i32 @f() {}\n", "1:1: verification "
                            "failed: @f:0: function must end with ret"),
    "unterminated": ("define i32 @f(i32 %a) {\n  ret i32 %a\n",
                     "1:1: unterminated function @f"),
    "operand": (_in_f("  %x = add i32 %a, foo"), "2:1: bad operand 'foo'"),
    "call-untyped": (_in_f(_FSHL + "(i32 %a, %a, i32 1)"),
                     "2:1: expected typed operand, got ' %a'"),
    "load": (_in_f("  %x = load i32 %p"), "2:1: malformed load"),
    "alloca": (_in_f("  %x = alloca"), "2:1: malformed alloca"),
    "ret": ("define i32 @f(i32 %a) {\n  ret\n}\n", "2:1: malformed ret"),
    "gep": (_in_f("  %q = getelementptr i32 %p"),
            "2:1: malformed getelementptr"),
    "call": (_in_f("  %x = call @foo"), "2:1: malformed call"),
    "load-void": (_in_f("  %x = load void, ptr %p"), "2:1: load of void"),
    "gep-variable-index": (
        _in_f("  %q = getelementptr i32, ptr %p, i32 %a"),
        "2:1: getelementptr indices must be integer constants"),
    "gep-unknown-struct": (
        _in_f("  %q = getelementptr %t, ptr %p, i32 0, i32 0"),
        "2:1: unknown struct type %t"),
    "gep-struct-one-index": (
        _in_f("  %q = getelementptr %s, ptr %p, i32 0", _STRUCT),
        "3:1: struct getelementptr needs exactly two indices"),
    "gep-struct-member": (
        _in_f("  %q = getelementptr %s, ptr %p, i32 0, i32 2", _STRUCT),
        "3:1: struct member index 2 out of range"),
    "gep-scalar-two-indices": (
        _in_f("  %q = getelementptr i32, ptr %p, i32 0, i32 1"),
        "2:1: scalar getelementptr needs exactly one index"),
    "gep-i16": (_in_f("  %q = getelementptr i16, ptr %p, i32 1"),
                "2:1: unsupported getelementptr element type i16"),
    "call-foo": (_in_f("  %x = call i32 @foo(i32 %a)"),
                 "2:1: only fshl/fshr/lifetime intrinsic calls are "
                 "supported, got @foo"),
    "fshl-two-operands": (_in_f(_FSHL + "(i32 %a, i32 %a)"),
                          "2:1: llvm.fshl.i32 takes three operands"),
}


@pytest.mark.parametrize("argv,stdin,named", [
    (["run", path("rori.ll"), "--args=zz"], "", "'zz'"),
    (["run", path("rori.ll"), "--args=1,,2"], "", "''"),
    (["run", path("rori.ll"), "--args=99999999999"], "", "99999999999"),
    (["run", path("rori.ll"), "--args=-2147483649"], "", "-2147483649"),
    (["run", path("rori.ll"), "--mem=0x10:zz"], "", "'zz'"),
    (["run", path("rori.ll"), "--mem=zz:00"], "", "'zz'"),
    (["run", path("rori.ll"), "--mem=-4:00"], "", "-4"),
    (["run", path("rori.ll"), "--mem=0x10"], "", "'0x10'"),
    (["run", "-"], "0x00000013\n0xzz\n", "line 2: bad object word '0xzz'"),
    (["mc", "--disassemble", "-"], "0xzz\n", "'0xzz'"),
    (["run", "-"], "0x00000013\n# reloc 0\n", "line 2:"),
    (["mc", "--disassemble", "-"], "0x1ffffffff\n", "'0x1ffffffff'"),
    (["run", "-"], "0x1ffffffff\n", "'0x1ffffffff'"),
    (["run", "-", "--args=1"], "define i32 @f(i32 %a) {\n  xor\n"
     "  ret i32 %a\n}\n", "2:1: malformed xor"),
    (["llc", "-"], "define i32 @f(i32 %a) {\n  %x =\n  ret i32 %a\n}\n",
     "2:1: missing instruction after %x ="),
    (["run", "-"], "define i32 @f(i32 %a, i32 %b) { ret i32 %b }",
     "@f takes 2 arguments, --args gives 0"),
    (["llc", "-"], _params_sum(9), "@f: 9 parameters; at most 8"),
    (["run", "-", "--args=" + ",".join("1" * 9)], _params_sum(9),
     "@f: 9 parameters; at most 8"),
    (["llc", "-"], _params_sum(23), "@f: 23 parameters; at most 8"),
    (["run", "-"], _params_sum(23), "@f: 23 parameters; at most 8"),
    (["lit", path("missing")], "", "no such test path"),
    (["update-checks", path("missing.ll")], "", "missing.ll"),
    (["filecheck", "-"], "; CHECK: a\na\n", "check file must be a named file"),
    (["mc", "--assemble", "-"], "lw a0\n", "lw: expected 'reg, imm(base)'"),
    (["mc", "--assemble", "-"], "lw a0, 4[a1]\n",
     "lw: bad memory operand '4[a1]'"),
    (["mc", "--assemble", "-"], "add a0, a1\n",
     "add: expected 3 operands, got 2"),
    (["run", "-"], "0x00200067\n", "pc=0x00000002: misaligned pc"),
    (["run", path("identity.ll"), "--entry=nope"], "",
     "no entry function 'nope'"),
    *[([cmd, "-"], text, f"<stdin>:{named}")
      for text, named in _BAD_IR.values() for cmd in ("opt", "llc")],
], ids=["args-word", "args-empty", "args-wide", "args-negative", "mem-bytes",
        "mem-address", "mem-negative", "mem-no-colon", "obj-word-run",
        "obj-word-mc", "obj-reloc", "obj-wide-mc", "obj-wide-run",
        "bare-opcode", "bare-result", "args-missing", "params-9-llc",
        "params-9-run", "params-23-llc", "params-23-run", "lit-missing",
        "update-checks-missing", "filecheck-stdin", "mc-memory-operand",
        "mc-memory-brackets", "mc-operand-count", "run-misaligned-pc",
        "run-ir-entry", *[f"{cmd}-{name}" for name in _BAD_IR
                          for cmd in ("opt", "llc")]])
def test_malformed_input_is_a_diagnosed_error(argv, stdin, named):
    # rejected: exit 1, nothing on stdout, and one error line
    code, out, err = run_command(argv, stdin_text=stdin)
    assert code == 1 and out == ""
    assert err.startswith("rv32x: error:") and named in err, err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("data,named", [
    (b"; RUN: llc < %s | filecheck %s\n"
     b"define i32 @f(i32 %a) {\n  %x = frob i32 %a, 1\n  ret i32 %a\n}\n",
     "RUN pipeline failed while updating checks:\n"
     "rv32x: error: <stdin>:3:1: unknown opcode 'frob'"),
    (b"\xff; RUN: llc < %s | filecheck %s\n", "can't decode byte 0xff"),
], ids=["failing-pipeline", "not-utf8"])
def test_update_checks_of_a_bad_file_is_a_diagnosed_error(tmp_path, data,
                                                          named):
    p = tmp_path / "t.ll"
    p.write_bytes(data)
    code, out, err = run_command(["update-checks", str(p)])
    assert code == 1 and out == ""
    assert err.startswith("rv32x: error:") and named in err, err


def test_update_checks_reports_each_file(tmp_path):
    shipped = (LIT_TESTS / "llc" / "shlxor.ll").read_text()
    p = tmp_path / "shlxor.ll"
    p.write_text(shipped)
    assert run_command(["update-checks", str(p)]) == \
        (0, f"unchanged: {p}\n", "")
    p.write_text(shipped.replace("shlxor a0, a0, a1", "add a0, a0, a1"))
    assert run_command(["update-checks", str(p), str(p)]) == \
        (0, f"updated: {p}\nunchanged: {p}\n", "")
    assert p.read_text() == shipped


@pytest.mark.parametrize("cmd", ["llc", "opt", "run", "mc"])
def test_input_that_is_not_utf8_is_a_diagnosed_error(tmp_path, cmd):
    p = tmp_path / "t.ll"
    p.write_bytes(b"\xffdefine i32 @f(i32 %a) {\n  ret i32 %a\n}\n")
    code, out, err = run_command([cmd, str(p)])
    assert code == 1 and out == ""
    assert err.startswith(f"rv32x: error: {p}: not UTF-8 text") \
        and err.count("\n") == 1, err


def test_run_fuel_must_be_positive():
    for fuel in ("0", "-3"):
        code, out, err = run_command(["run", path("identity.ll"), "--args=1",
                                      f"--fuel={fuel}"])
        assert code == 2 and out == ""
        assert f"argument --fuel: must be positive, got {fuel}" in err, err
    assert run_command(["run", path("identity.ll"), "--args=1",
                        "--fuel=2"]) == (0, "a0 = 1\n", "")


def test_run_prints_no_a0_for_a_void_function():
    text = ("@g = global i32 5\n"
            "define void @f(ptr %p) {\n  store i32 7, ptr %p\n"
            "  store i32 9, ptr @g\n  ret void\n}\n")
    for level in ("-O0", "-O2"):
        assert run_command(["run", "-", level, "--args=4096"], text) == \
            (0, "@g = 9\n", "")


def test_args_span_signed_and_unsigned_32_bits():
    for value in ("-1", "4294967295", "-2147483648"):
        code, out, err = run_command(["run", path("identity.ll"),
                                      f"--args={value}"])
        assert code == 0, err
        assert out == f"a0 = {int(value) & 0xFFFFFFFF}\n"


@pytest.mark.parametrize("line,why", [
    ("addi a0, a0, 99999", "immediate 99999 out of imm12 range"),
    ("slli a0, a0, 40", "shift amount 40 out of uimm5 range"),
    ("lw a0, 5000(a1)", "immediate 5000 out of imm12 range"),
    ("lui a0, -1", "immediate -1 out of imm20 range"),
    ("add a0, a1, 5", "rs2 must be a register"),
    ("sw 5, 0(a1)", "rs2 must be a register"),
    ("lw a0, 0(zz)", "bad operand 'zz'"),
    ("addi a0, a0, %hi(g)", "hi20 relocation is only valid on imm20"),
    ("li a0", "li: expected 2 operands, got 1"),
    ("mv a0", "mv: expected 2 operands, got 1"),
    ("not", "not: expected 2 operands, got 0"),
    ("ret a0", "ret: expected 0 operands, got 1"),
])
def test_mc_rejects_what_it_cannot_encode(line, why):
    # nothing prints asm that --emit=obj would reject
    for emit in ("asm", "obj"):
        code, out, err = run_command(["mc", f"--emit={emit}", "-"],
                                     stdin_text=f"mv a0, a1\n{line}\n")
        assert code == 1 and out == ""
        assert err.startswith("rv32x: error: line 2: ") and why in err, err
