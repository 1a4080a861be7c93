"""lit-style RUN-line test runner and FileCheck-style output verifier.

Test files carry RUN comment lines naming this artifact's own subcommands,
composed with `|` pipes and `<` stdin redirects, plus CHECK directives whose
patterns match output lines with whitespace runs collapsed. Pipelines execute
in-process, one test after another in the calling thread; no shell is
involved. Threads would not be safe: the driver swaps the process-wide
sys.stdout and sys.stderr while it parses arguments.
"""

from __future__ import annotations

import pathlib
import re
import shlex
import time
from dataclasses import dataclass
from importlib import resources

SUITE = "rv32x"


class TestkitError(Exception):
    pass


def shipped_tests_dir() -> pathlib.Path:
    return pathlib.Path(str(resources.files("rv32x") / "tests"))


# --------------------------------------------------------------------------
# Test file model
# --------------------------------------------------------------------------

_RUN_RE = re.compile(r"^\s*[;#]\s*RUN:\s*(.*)$")
_CHECK_RE = re.compile(
    r"^\s*[;#]\s*([A-Za-z][-A-Za-z0-9_]*?)(-NEXT|-LABEL)?:\s?(.*)$")


@dataclass
class CheckDirective:
    prefix: str
    kind: str  # "plain" | "NEXT" | "LABEL"
    pattern: str
    lineno: int


@dataclass
class TestFile:
    path: str
    run_lines: list[str]
    checks: list[CheckDirective]


def parse_test_file(path: str, text: str | None = None) -> TestFile:
    if text is None:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    run_lines: list[str] = []
    checks: list[CheckDirective] = []
    pending = ""
    for lineno, line in enumerate(text.splitlines(), 1):
        m = _RUN_RE.match(line)
        if m:
            part = m.group(1).strip()
            if part.endswith("\\"):
                pending += part[:-1] + " "
                continue
            run_lines.append((pending + part).strip())
            pending = ""
            continue
        if pending:
            # continuation lines keep the RUN: marker in front
            raise TestkitError(f"{path}:{lineno}: RUN continuation must "
                               "itself be a RUN: line")
        m = _CHECK_RE.match(line)
        if m and m.group(1) != "RUN":
            kind = {"-NEXT": "NEXT", "-LABEL": "LABEL", None: "plain"}
            checks.append(CheckDirective(m.group(1), kind[m.group(2)],
                                         m.group(3).strip(), lineno))
    if pending:
        raise TestkitError(f"{path}: dangling RUN continuation")
    return TestFile(path, run_lines, checks)


# --------------------------------------------------------------------------
# FileCheck
# --------------------------------------------------------------------------

@dataclass
class CheckResult:
    ok: bool
    detail: str = ""


def _collapse(s: str) -> str:
    return " ".join(s.split())


def filecheck(input_text: str, check_text: str,
              prefixes: tuple[str, ...] = ("CHECK",),
              check_path: str = "<check>") -> CheckResult:
    """Scanning match with position monotonicity; LABEL directives partition
    the input; NEXT requires the line immediately after the previous match."""
    if not prefixes:
        raise TestkitError("no check prefixes enabled")
    tf = parse_test_file(check_path, check_text)
    directives = [d for d in tf.checks if d.prefix in prefixes]
    if not directives:
        return CheckResult(False, f"{check_path}: no {'/'.join(prefixes)} "
                                  "directives found")
    lines = [_collapse(l) for l in input_text.splitlines()]

    # match LABEL directives first to partition the input
    label_positions: dict[int, int] = {}
    pos = -1
    for i, d in enumerate(directives):
        if d.kind != "LABEL":
            continue
        pat = _collapse(d.pattern)
        found = next((j for j in range(pos + 1, len(lines))
                      if pat in lines[j]), None)
        if found is None:
            return CheckResult(False, f"{check_path}:{d.lineno}: "
                                      f"{d.prefix}-LABEL not found: "
                                      f"{d.pattern!r}")
        label_positions[i] = found
        pos = found

    label_idxs = sorted(label_positions)
    # position is (line, column) in collapsed coordinates; a plain CHECK may
    # match later on the same line as the previous match
    pos_line, pos_col = -1, 0
    section_end = len(lines)
    for i, d in enumerate(directives):
        if d.kind == "LABEL":
            pos_line = label_positions[i]
            pos_col = len(lines[pos_line])
            later = [label_positions[j] for j in label_idxs if j > i]
            section_end = later[0] if later else len(lines)
            continue
        pat = _collapse(d.pattern)
        if d.kind == "NEXT":
            target = pos_line + 1
            if target >= section_end or pat not in lines[target]:
                got = lines[target] if 0 <= target < len(lines) else "<eof>"
                return CheckResult(
                    False,
                    f"{check_path}:{d.lineno}: {d.prefix}-NEXT expected "
                    f"{d.pattern!r} on the line after match at input line "
                    f"{pos_line + 1}, got {got!r}")
            pos_line, pos_col = target, lines[target].find(pat) + len(pat)
        else:
            found = None
            for j in range(max(pos_line, 0), section_end):
                start = pos_col if j == pos_line else 0
                idx = lines[j].find(pat, start)
                if idx >= 0:
                    found = (j, idx + len(pat))
                    break
            if found is None:
                return CheckResult(
                    False,
                    f"{check_path}:{d.lineno}: {d.prefix} not found: "
                    f"{d.pattern!r}")
            pos_line, pos_col = found
    return CheckResult(True)


# --------------------------------------------------------------------------
# RUN pipeline execution
# --------------------------------------------------------------------------

def _split_pipeline(run_line: str, test_path: str) -> list[list[str]]:
    stages = []
    for stage_text in run_line.split("|"):
        toks = shlex.split(stage_text.replace("%s", test_path))
        if not toks:
            raise TestkitError(f"{test_path}: empty pipeline stage in "
                               f"RUN line {run_line!r}")
        stages.append(toks)
    return stages


def _run_pipeline(stages: list[list[str]], executor) -> tuple[int, str, str]:
    data = ""
    for toks in stages:
        toks = list(toks)
        if "<" in toks:
            i = toks.index("<")
            if i + 1 >= len(toks):
                raise TestkitError("'<' needs a file operand")
            with open(toks[i + 1], "r", encoding="utf-8") as f:
                data = f.read()
            del toks[i:i + 2]
        code, out, err = executor(toks, data)
        if code != 0:
            return code, out, err
        data = out
    return 0, data, ""


@dataclass
class LitReport:
    total: int = 0
    passed: int = 0
    failed: int = 0
    text: str = ""


def discover_tests(paths) -> list[str]:
    """The tests under `paths`: the .s and .ll files of a directory that
    carry RUN lines, and each file named directly, which must be a test."""
    found: list[str] = []
    for p in paths:
        path = pathlib.Path(p)
        if path.is_dir():
            for f in sorted(path.rglob("*")):
                if f.suffix not in (".s", ".ll") or not f.is_file():
                    continue
                try:
                    if parse_test_file(str(f)).run_lines:
                        found.append(str(f))
                except (OSError, UnicodeDecodeError):
                    continue  # not a test
        elif path.is_file():
            try:
                run_lines = parse_test_file(str(path)).run_lines
            except UnicodeDecodeError as e:
                raise TestkitError(f"{p}: not UTF-8 text: {e}") from None
            if not run_lines:
                raise TestkitError(f"{p}: not a test: it has no RUN lines")
            found.append(str(path))
        else:
            raise TestkitError(f"no such test path: {p}")
    return sorted(dict.fromkeys(found))


def run_one_test(path: str, executor) -> tuple[bool, str]:
    tf = parse_test_file(path)
    if not tf.run_lines:
        return False, "no RUN lines"
    for run_line in tf.run_lines:
        try:
            stages = _split_pipeline(run_line, path)
            code, out, err = _run_pipeline(stages, executor)
        except (TestkitError, OSError, ValueError) as e:
            return False, f"RUN: {run_line}\nmalformed RUN line: {e}"
        if code != 0:
            detail = err.strip() or out.strip() or f"exit status {code}"
            return False, f"RUN: {run_line}\n{detail}"
    return True, ""


def run_lit(paths, executor, verbose: bool = False) -> LitReport:
    """Execute each test's RUN pipelines, one test after another in path
    order; report 'PASS/FAIL: suite :: file' lines plus a timing summary."""
    tests = discover_tests(paths)
    report = LitReport(total=len(tests))
    started = time.monotonic()
    lines = [f"-- Testing: {len(tests)} tests --"]
    for i, t in enumerate(tests, 1):
        ok, detail = run_one_test(t, executor)
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status}: {SUITE} :: {t} ({i} of {len(tests)})")
        if ok:
            report.passed += 1
        else:
            report.failed += 1
            if verbose and detail:
                lines.extend("    " + l for l in detail.splitlines())
    elapsed = time.monotonic() - started
    lines.append("")
    lines.append(f"Testing Time: {elapsed:.2f}s")
    if report.passed:
        lines.append(f"Passed: {report.passed}")
    if report.failed:
        lines.append(f"Failed: {report.failed}")
    report.text = "\n".join(lines) + "\n"
    return report


# --------------------------------------------------------------------------
# update_checks
# --------------------------------------------------------------------------

_DEFINE_RE = re.compile(r"^\s*define\b.*@([-\w.$]+)\s*\(")
_LABEL_LINE_RE = re.compile(r"^([-\w.$]+):\s*$")


def _strip_filecheck_stage(stages: list[list[str]]):
    """Returns (producing stages, first check prefix) for a RUN pipeline
    ending in a filecheck stage, else (None, None)."""
    if len(stages) < 2 or stages[-1][0] != "filecheck":
        return None, None
    prefix = "CHECK"
    for tok in stages[-1][1:]:
        if tok.startswith("--check-prefixes="):
            prefix = tok.split("=", 1)[1].split(",")[0]
    return stages[:-1], prefix


def update_checks(path: str, executor) -> bool:
    """Regenerate CHECK bodies from the current compiler output, preserving
    RUN lines and function labels. Only .ll codegen tests are rewritten;
    hand-authored .s tests are left untouched. Refuses with a diff when the
    producing pipeline is nondeterministic across two runs. Returns whether
    the file changed."""
    if not path.endswith(".ll"):
        return False
    with open(path, "r", encoding="utf-8") as f:
        original = f.read()
    tf = parse_test_file(path, original)

    blocks: dict[str, list[tuple[str, list[str]]]] = {}
    prefixes: set[str] = set()
    for run_line in tf.run_lines:
        stages = _split_pipeline(run_line, path)
        producing, prefix = _strip_filecheck_stage(stages)
        if producing is None:
            continue
        prefixes.add(prefix)
        outputs = []
        for _ in range(2):
            code, out, err = _run_pipeline(producing, executor)
            if code != 0:
                raise TestkitError(f"{path}: RUN pipeline failed while "
                                   f"updating checks:\n{err}")
            outputs.append(out)
        if outputs[0] != outputs[1]:
            diff = _first_diff(outputs[0], outputs[1])
            raise TestkitError(f"{path}: output is nondeterministic, "
                               f"refusing to update checks ({diff})")
        for fname, body in _split_functions(outputs[0]).items():
            blocks.setdefault(fname, []).append((prefix, body))

    new_lines: list[str] = []
    for line in original.splitlines():
        m = _CHECK_RE.match(line)
        if m and m.group(1) in prefixes:
            continue  # regenerated below
        new_lines.append(line)
        m = _DEFINE_RE.match(line)
        if m and m.group(1) in blocks:
            for prefix, body in blocks[m.group(1)]:
                new_lines.append(f"; {prefix}-LABEL: {m.group(1)}:")
                for bl in body:
                    new_lines.append(f"; {prefix}-NEXT: {_collapse(bl)}")
    new_text = "\n".join(new_lines) + "\n"
    if new_text != original:
        with open(path, "w", encoding="utf-8") as f:
            f.write(new_text)
        return True
    return False


def _split_functions(asm: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    current = None
    for line in asm.splitlines():
        m = _LABEL_LINE_RE.match(line)
        if m:
            current = m.group(1)
            out[current] = []
            continue
        if current is not None and line.strip():
            out[current].append(line.strip())
        else:  # a blank line ends the function
            current = None
    return out


def _first_diff(a: str, b: str) -> str:
    for i, (la, lb) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if la != lb:
            return f"line {i}: {la!r} vs {lb!r}"
    return f"lengths differ: {len(a)} vs {len(b)}"
