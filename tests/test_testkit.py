import pathlib

import pytest

from rv32x import testkit
from rv32x.driver import run_command

from conftest import LIT_TESTS


def test_filecheck_plain_match():
    out = testkit.filecheck("\tshlxor s2, s2, s8 # encoding: [...]\n",
                            "# CHECK-ASM-AND-OBJ: shlxor s2, s2, s8\n",
                            ("CHECK-ASM-AND-OBJ",))
    assert out.ok


def test_filecheck_whitespace_insensitive():
    out = testkit.filecheck("   shlxor    s2,   s2, s8\n",
                            "; CHECK: shlxor s2, s2, s8\n", ("CHECK",))
    assert out.ok


def test_filecheck_two_patterns_same_line():
    inp = "\tshlxor s2, s2, s8 # encoding: [0x33]\n"
    checks = ("# A: shlxor s2, s2, s8\n"
              "# B: encoding: [0x33]\n")
    assert testkit.filecheck(inp, checks, ("A", "B")).ok


def test_filecheck_next_requires_adjacent_line():
    inp = "foo:\n\tshlxor a0, a0, a1\n\tnop\n\tret\n"
    good = "; C-LABEL: foo:\n; C-NEXT: shlxor a0, a0, a1\n"
    bad = "; C-LABEL: foo:\n; C-NEXT: ret\n"
    assert testkit.filecheck(inp, good, ("C",)).ok
    res = testkit.filecheck(inp, bad, ("C",))
    assert not res.ok and "C-NEXT" in res.detail and "ret" in res.detail


def test_filecheck_label_partitions():
    inp = "f:\n\tadd a0, a0, a1\ng:\n\tsub a0, a0, a1\n"
    checks = ("; C-LABEL: g:\n; C: sub\n; C-LABEL: f:\n")
    # labels must appear in order: f after g fails
    assert not testkit.filecheck(inp, checks, ("C",)).ok
    checks = "; C-LABEL: f:\n; C: sub\n; C-LABEL: g:\n"
    # 'sub' is outside f's section
    assert not testkit.filecheck(inp, checks, ("C",)).ok
    checks = "; C-LABEL: f:\n; C: add\n; C-LABEL: g:\n; C: sub\n"
    assert testkit.filecheck(inp, checks, ("C",)).ok


def test_filecheck_disabled_prefixes_ignored():
    inp = "nothing here\n"
    checks = "; OTHER: will not be found\n; CHECK: nothing\n"
    assert testkit.filecheck(inp, checks, ("CHECK",)).ok


def test_filecheck_no_directives_is_error():
    with pytest.raises(testkit.TestkitError):
        testkit.filecheck("x", "; CHECK: x", ())
    res = testkit.filecheck("x", "no directives at all", ("CHECK",))
    assert not res.ok


def test_filecheck_positions_monotonic():
    inp = "a\nb\na\n"
    assert testkit.filecheck(inp, "; C: b\n; C: a\n", ("C",)).ok
    assert not testkit.filecheck(inp, "; C: b\n; C: b\n", ("C",)).ok


def test_run_line_continuation_parses():
    tf = testkit.parse_test_file("t.s", "# RUN: mc --assemble \\\n"
                                        "# RUN:   | filecheck %s\n")
    assert len(tf.run_lines) == 1
    assert tf.run_lines[0].split() == \
        ["mc", "--assemble", "|", "filecheck", "%s"]


def test_discover_ignores_files_without_run_lines(tmp_path):
    (tmp_path / "a.ll").write_text("define void @f() {\n  ret void\n}\n")
    (tmp_path / "b.ll").write_text("; RUN: opt %s\ndefine void @f() "
                                   "{\n  ret void\n}\n")
    found = testkit.discover_tests([str(tmp_path)])
    assert [pathlib.Path(f).name for f in found] == ["b.ll"]


def test_a_named_file_that_is_no_test_is_an_error(tmp_path):
    # a directory walk skips them; named on the command line, each is an
    # error rather than a run of 0 tests
    (tmp_path / "plain.ll").write_text("define void @f() {\n  ret void\n}\n")
    (tmp_path / "bytes.ll").write_bytes(b"\xff; RUN: opt %s\n")
    assert testkit.discover_tests([str(tmp_path)]) == []
    for name, named in (("plain.ll", "not a test: it has no RUN lines"),
                        ("bytes.ll", "not UTF-8 text")):
        code, out, err = run_command(["lit", str(tmp_path / name)])
        assert code == 1 and out == ""
        assert err.startswith("rv32x: error:") and named in err, err


def test_shipped_corpus_passes():
    report = testkit.run_lit([str(LIT_TESTS)], executor=run_command)
    assert report.failed == 0
    assert report.passed == report.total >= 6
    assert f"Passed: {report.passed}" in report.text


def test_failing_check_is_reported(tmp_path):
    p = tmp_path / "bad.ll"
    p.write_text(
        "; RUN: llc --mattr=+xcrypt --emit=asm < %s | "
        "filecheck --check-prefixes=C %s\n"
        "define i32 @f(i32 %a, i32 %b) {\n"
        "; C: frobnozzle a0, a0, a1\n"
        "  %x = xor i32 %a, %b\n  ret i32 %x\n}\n")
    report = testkit.run_lit([str(p)], verbose=True, executor=run_command)
    assert report.failed == 1
    assert "frobnozzle" in report.text


def test_empty_directory_reports_zero(tmp_path):
    report = testkit.run_lit([str(tmp_path)], executor=run_command)
    assert "Testing: 0 tests" in report.text


def test_malformed_run_line(tmp_path):
    p = tmp_path / "bad.s"
    p.write_text("# RUN: mc | | filecheck %s\nnop\n")
    ok, detail = testkit.run_one_test(str(p), run_command)
    assert not ok


def test_update_checks_idempotent_on_shipped_tests(tmp_path):
    import shutil
    for src in sorted(LIT_TESTS.rglob("*.ll")):
        dst = tmp_path / src.name
        shutil.copy(src, dst)
        assert not testkit.update_checks(str(dst), executor=run_command), \
            src.name
        # and the rewrite is byte-identical when forced through again
        assert dst.read_text() == src.read_text()


def test_update_checks_populates_skeleton(tmp_path):
    p = tmp_path / "t.ll"
    p.write_text(
        "; RUN: llc --mattr=+xcrypt --emit=asm < %s | "
        "filecheck --check-prefixes=RV32R %s\n"
        "define i32 @shlxor(i32 %a, i32 %b) {\n"
        "  %shl = shl i32 %a, 1\n  %xor = xor i32 %shl, %b\n"
        "  ret i32 %xor\n}\n")
    assert testkit.update_checks(str(p), executor=run_command)
    text = p.read_text()
    assert "; RV32R-LABEL: shlxor:" in text
    assert "; RV32R-NEXT: shlxor a0, a0, a1" in text
    assert "; RV32R-NEXT: ret" in text
    # the populated test passes and a second update changes nothing
    assert testkit.run_lit([str(p)], executor=run_command).failed == 0
    assert not testkit.update_checks(str(p), executor=run_command)


def test_update_checks_refuses_nondeterminism(tmp_path):
    p = tmp_path / "t.ll"
    p.write_text(
        "; RUN: llc --emit=asm < %s | filecheck --check-prefixes=C %s\n"
        "define i32 @f(i32 %a) {\n  ret i32 %a\n}\n")
    calls = {"n": 0}

    def flaky(argv, stdin_text=""):
        if argv[0] == "llc":
            calls["n"] += 1
            return 0, f"f:\n\taddi a0, a0, {calls['n']}\n\tret\n", ""
        return run_command(argv, stdin_text)

    with pytest.raises(testkit.TestkitError, match="nondeterministic"):
        testkit.update_checks(str(p), executor=flaky)

    def longer(argv, stdin_text=""):  # the second run adds lines
        calls["n"] += 1
        return 0, "f:\n\tret\n" * calls["n"], ""

    calls["n"] = 0
    with pytest.raises(testkit.TestkitError, match="lengths differ: 8 vs 16"):
        testkit.update_checks(str(p), executor=longer)


_F = "define i32 @f(i32 %a) {\n  ret i32 %a\n}\n"


@pytest.mark.parametrize("text,named", [
    ("; RUN: llc < %s \\\n" + _F,
     ":2: RUN continuation must itself be a RUN: line"),
    (_F + "; RUN: llc < %s \\\n", ": dangling RUN continuation"),
], ids=["continuation-without-run", "dangling-continuation"])
def test_lit_rejects_a_broken_run_continuation(tmp_path, text, named):
    p = tmp_path / "t.ll"
    p.write_text(text)
    assert run_command(["lit", str(p)]) == \
        (1, "", f"rv32x: error: {p}{named}\n")


def test_lit_fails_a_less_than_without_a_file(tmp_path):
    # a failing test prints its detail only under -v
    p = tmp_path / "t.ll"
    p.write_text("; RUN: llc <\n" + _F)
    code, out, err = run_command(["lit", str(p)])
    assert (code, err) == (1, "") and f"FAIL: rv32x :: {p} (1 of 1)\n" in out
    assert "RUN:" not in out
    code, out, err = run_command(["lit", "-v", str(p)])
    assert (code, err) == (1, "")
    assert "    malformed RUN line: '<' needs a file operand\n" in out


def test_run_one_test_fails_a_file_without_run_lines(tmp_path):
    p = tmp_path / "t.ll"
    p.write_text(_F)
    assert testkit.run_one_test(str(p), run_command) == (False, "no RUN lines")


def test_update_checks_leaves_a_run_line_without_filecheck(tmp_path):
    p = tmp_path / "t.ll"
    p.write_text("; RUN: llc < %s\n" + _F)
    assert run_command(["update-checks", str(p)]) == \
        (0, f"unchanged: {p}\n", "")
    assert p.read_text() == "; RUN: llc < %s\n" + _F


def test_update_checks_writes_a_block_per_function(tmp_path):
    p = tmp_path / "t.ll"
    g = ("define i32 @g(i32 %a, i32 %b) {\n  %x = xor i32 %a, %b\n"
         "  ret i32 %x\n}\n")
    p.write_text("; RUN: llc < %s | filecheck %s\n" + _F + g)
    assert run_command(["update-checks", str(p)]) == \
        (0, f"updated: {p}\n", "")
    assert p.read_text() == (
        "; RUN: llc < %s | filecheck %s\n"
        "define i32 @f(i32 %a) {\n; CHECK-LABEL: f:\n; CHECK-NEXT: ret\n"
        "  ret i32 %a\n}\n"
        "define i32 @g(i32 %a, i32 %b) {\n; CHECK-LABEL: g:\n"
        "; CHECK-NEXT: xor a0, a0, a1\n; CHECK-NEXT: ret\n"
        "  %x = xor i32 %a, %b\n  ret i32 %x\n}\n")
    assert run_command(["lit", str(p)])[0] == 0
    assert run_command(["update-checks", str(p)]) == \
        (0, f"unchanged: {p}\n", "")
