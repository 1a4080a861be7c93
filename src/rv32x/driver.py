"""The rv32x command line: opt / llc / mc / run / lit / filecheck.

Every subcommand is callable in-process through run_command, which the
lit-style test runner uses to execute RUN pipelines without a shell. A
process builds one argument parser and loads one target description, on
the first command that needs each, and every later command reuses them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from dataclasses import dataclass, field

from . import ir, midend, isel, codegen, sim
from . import target as tgt

PROG = "rv32x"

# Built on first use and shared by every later command of the process:
# parse_args keeps no state between calls, and a TargetDesc is immutable.
_parser: argparse.ArgumentParser | None = None
_desc: tgt.TargetDesc | None = None


class DriverError(Exception):
    pass


@dataclass
class CompiledFunction:
    mf: object
    asm: str
    dots: dict[str, str] = field(default_factory=dict)
    debug_lines: list[str] = field(default_factory=list)


@dataclass
class CompiledModule:
    module: ir.Module
    functions: dict[str, CompiledFunction]
    global_addrs: dict[str, int]


def compile_function(fn: ir.Function, desc: tgt.TargetDesc,
                     ext: frozenset[str],
                     want_dots: bool = False) -> CompiledFunction:
    dots = {}
    dag = isel.build_dag(fn)
    if want_dots:
        dots["built"] = isel.emit_dot(dag, "built")
    isel.legalize(dag, desc, ext)
    if want_dots:
        dots["legalized"] = isel.emit_dot(dag, "legalized")
    dag, debug_lines = isel.select(dag, desc, ext)
    if want_dots:
        dots["selected"] = isel.emit_dot(dag, "selected")
    mf = isel.schedule(dag)
    mf = codegen.allocate_registers(mf, desc)
    mf = codegen.insert_prologue_epilogue(mf)
    return CompiledFunction(mf, codegen.print_asm(mf, desc), dots, debug_lines)


def compile_ir_text(text: str, source: str, desc: tgt.TargetDesc,
                    ext: frozenset[str], opt_level: str = "O2",
                    want_dots: bool = False) -> CompiledModule:
    mod = ir.parse_ir(text, source)
    if opt_level == "O2":
        mod, _ = midend.run_pipeline(mod, midend.DEFAULT_PIPELINE)
    elif opt_level != "O0":
        raise DriverError(f"unknown optimization level {opt_level!r}")
    funcs = {}
    for fn in mod.functions:
        funcs[fn.name] = compile_function(fn, desc, ext, want_dots)
    return CompiledModule(mod, funcs, sim.assign_global_addrs(mod))


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _read_input(path: str | None, stdin: io.TextIOBase) -> tuple[str, str]:
    name = "<stdin>" if path in (None, "-") else path
    try:
        if name == "<stdin>":
            return stdin.read(), name
        with open(path, "r", encoding="utf-8") as f:
            return f.read(), path
    except OSError as e:
        raise DriverError(str(e)) from None
    except UnicodeDecodeError as e:
        raise DriverError(f"{name}: not UTF-8 text: {e}") from None


def _default_desc() -> tgt.TargetDesc:
    global _desc
    if _desc is None:
        _desc = tgt.load_default_desc()
    return _desc


def _mattr(args) -> frozenset[str]:
    text = args.mattr if args.mattr is not None else os.environ.get("RV32X_MATTR")
    return tgt.parse_mattr(text)


def cmd_opt(args, stdin, stdout, stderr) -> int:
    text, source = _read_input(args.input, stdin)
    mod = ir.parse_ir(text, source)
    if args.passes is not None:
        pipeline = tuple(p for p in args.passes.split(",") if p)
    elif args.O0:
        pipeline = ()
    else:
        pipeline = midend.DEFAULT_PIPELINE
    mod, stats = midend.run_pipeline(mod, pipeline)
    stdout.write(ir.print_ir(mod))
    if args.stats:
        stdout.write("\n" + stats.render() + "\n")
    return 0


def cmd_llc(args, stdin, stdout, stderr) -> int:
    text, source = _read_input(args.input, stdin)
    desc = _default_desc()
    ext = _mattr(args)
    cm = compile_ir_text(text, source, desc, ext, "O0" if args.O0 else "O2",
                         want_dots=args.emit == "dot")
    if args.debug_isel:
        for fname, cf in cm.functions.items():
            for line in cf.debug_lines:
                stderr.write(f"[isel:{fname}] {line}\n")
    if args.emit == "asm":
        stdout.write("\n".join(cf.asm for cf in cm.functions.values()))
    elif args.emit == "obj":
        chunks = []
        for name, cf in cm.functions.items():
            chunks.append(f"# function {name}\n"
                          + codegen.obj_text(cf.mf, desc))
        stdout.write("".join(chunks))
    else:  # dot, the last of --emit's choices
        for cf in cm.functions.values():
            stdout.write(cf.dots[args.dag_stage])
    return 0


def cmd_mc(args, stdin, stdout, stderr) -> int:
    desc = _default_desc()
    ext = _mattr(args)
    text, source = _read_input(args.input, stdin)
    if args.disassemble:
        words, relocs = codegen.parse_obj_text(text)
        stdout.write(codegen.disassemble_text(words, desc, ext))
        return 0
    instrs = codegen.parse_asm(text, desc)
    for mi in instrs:
        d = desc.instr(mi.mnemonic)
        if d.ext not in ext:
            raise DriverError(f"{d.asm} requires extension {d.ext} "
                              f"(enable with --mattr)")
    if args.emit == "obj":
        mf = codegen.MachineFunction("input", list(instrs))
        stdout.write(codegen.obj_text(mf, desc))
        return 0
    for mi in instrs:
        line = codegen.format_instr(mi, desc)
        if args.show_encoding:
            w = tgt.encode(mi, desc)
            enc = ",".join(f"0x{b:02x}" for b in w.word.to_bytes(4, "little"))
            stdout.write(f"\t{line} # encoding: [{enc}]\n")
        else:
            stdout.write(f"\t{line}\n")
    return 0


def _parse_mem_flag(flag: str) -> dict[int, int]:
    """`addr:hexbytes`, `;`-separated, as one byte per address."""
    mem = {}
    for part in flag.split(";"):
        if not part:
            continue
        addr_s, colon, hexbytes = part.partition(":")
        if not colon:
            raise DriverError(f"--mem: expected addr:hexbytes, got {part!r}")
        try:
            addr = int(addr_s, 0)
        except ValueError:
            raise DriverError(f"--mem: bad address {addr_s!r}") from None
        try:
            data = bytes.fromhex(hexbytes)
        except ValueError:
            raise DriverError(f"--mem: bad hex bytes {hexbytes!r}") from None
        if addr < 0 or addr + len(data) > 1 << 32:
            raise DriverError(f"--mem: address {addr_s} out of range")
        for i, b in enumerate(data):
            mem[addr + i] = b
    return mem


def _positive_int(text: str) -> int:
    """An argparse type: a usage error unless `text` is an integer > 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if n <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {n}")
    return n


def _parse_args_flag(flag: str) -> list[int]:
    """Comma-separated integers, each a signed or unsigned 32-bit value."""
    values = []
    for tok in flag.split(","):
        try:
            v = int(tok, 0)
        except ValueError:
            raise DriverError(f"--args: bad integer {tok!r}") from None
        if not -(1 << 31) <= v < 1 << 32:
            raise DriverError(f"--args: {tok} does not fit in 32 bits")
        values.append(v)
    return values


def cmd_run(args, stdin, stdout, stderr) -> int:
    text, source = _read_input(args.input, stdin)
    desc = _default_desc()
    ext = _mattr(args)
    mem: dict[int, int] = {}
    for flag in args.mem or ():
        mem.update(_parse_mem_flag(flag))
    run_args = _parse_args_flag(args.args) if args.args else []

    stripped = text.lstrip()
    if stripped.startswith("0x") or stripped.startswith("# function"):
        words, relocs, starts = codegen.parse_obj_functions(text)
        words = codegen.resolve_words(words, relocs, desc, {}, ext)
        mod = None
        returns = True  # object words have no signature: a0 is printed
        entry = args.entry or next(iter(starts), None)
        if entry is not None:  # without `# function` lines, run every word
            if entry not in starts:
                raise DriverError(f"no entry function {entry!r}")
            begin = starts[entry]
            end = min([s for s in starts.values() if s > begin],
                      default=len(words))
            words = words[begin:end]
    else:
        cm = compile_ir_text(text, source, desc, ext,
                             "O0" if args.O0 else "O2")
        mod = cm.module
        entry = args.entry or (mod.functions[0].name if mod.functions else None)
        if entry is None or entry not in cm.functions:
            raise DriverError(f"no entry function {entry!r}")
        fn = mod.function(entry)
        if len(run_args) != len(fn.params):
            raise DriverError(f"@{entry} takes {len(fn.params)} arguments, "
                              f"--args gives {len(run_args)}")
        returns = fn.return_type != ir.VOID  # else a0 means nothing
        mem.update(sim.seed_globals(mod, cm.global_addrs))
        words = codegen.emit_words(cm.functions[entry].mf, desc,
                                   cm.global_addrs)
    try:
        a0, final_mem, trace = sim.run_function(words, run_args, mem,
                                                fuel=args.fuel, desc=desc,
                                                ext=ext)
    except sim.SimTrap as e:
        raise DriverError(f"trap: {e}") from None
    if args.trace:
        for pc, word, d in trace:
            text = codegen.format_instr(tgt.machine_instr(word, d), desc,
                                        aliases=False)
            stdout.write(f"0x{pc:08x}: {text}\n")
    if returns:
        stdout.write(f"a0 = {a0}\n")
    if mod is not None:
        for g in mod.globals:
            addr = cm.global_addrs[g.name]
            stdout.write(f"@{g.name} = {sim.mem_read32(final_mem, addr)}\n")
    return 0


def cmd_lit(args, stdin, stdout, stderr) -> int:
    from . import testkit
    paths = args.paths or [str(testkit.shipped_tests_dir())]
    try:
        report = testkit.run_lit(paths, run_command, args.verbose)
    except (testkit.TestkitError, OSError) as e:
        raise DriverError(str(e)) from None
    stdout.write(report.text)
    return 0 if report.failed == 0 else 1


def cmd_filecheck(args, stdin, stdout, stderr) -> int:
    from . import testkit
    if args.checkfile == "-":
        raise DriverError("filecheck reads its input from stdin, so the "
                          "check file must be a named file")
    check_text, check_path = _read_input(args.checkfile, stdin)
    prefixes = tuple(p for p in args.check_prefixes.split(",") if p)
    result = testkit.filecheck(stdin.read(), check_text, prefixes, check_path)
    if result.ok:
        return 0
    stderr.write(result.detail + "\n")
    return 1


def cmd_update_checks(args, stdin, stdout, stderr) -> int:
    from . import testkit
    for path in args.paths:
        try:
            changed = testkit.update_checks(path, run_command)
        except (testkit.TestkitError, OSError, UnicodeDecodeError) as e:
            raise DriverError(str(e)) from None
        stdout.write(f"{'updated' if changed else 'unchanged'}: {path}\n")
    return 0


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog=PROG, description=__doc__)
    sub = p.add_subparsers(dest="command")

    def common_compile(sp):
        sp.add_argument("input", nargs="?", help="IR file ('-' for stdin)")
        sp.add_argument("-O0", dest="O0", action="store_true",
                        help="no midend passes")
        sp.add_argument("-O2", dest="O2", action="store_true",
                        help="default pipeline (default)")
        sp.add_argument("--mattr", help="extensions, e.g. +zba,+zbb,+xcrypt")

    sp = sub.add_parser("opt", help="run midend passes over IR")
    sp.add_argument("input", nargs="?")
    sp.add_argument("-O0", dest="O0", action="store_true")
    sp.add_argument("-O2", dest="O2", action="store_true")
    sp.add_argument("--passes", help="comma-separated pass list")
    sp.add_argument("--stats", action="store_true",
                    help="print per-pass statistics")
    sp.set_defaults(fn=cmd_opt)

    sp = sub.add_parser("llc", help="compile IR to assembly/object/dot")
    common_compile(sp)
    sp.add_argument("--emit", choices=("asm", "obj", "dot"), default="asm")
    sp.add_argument("--dag-stage", dest="dag_stage", default="selected",
                    choices=("built", "legalized", "selected"))
    sp.add_argument("--debug-isel", dest="debug_isel", action="store_true",
                    help="print selection hook decisions")
    sp.set_defaults(fn=cmd_llc)

    sp = sub.add_parser("mc", help="assemble or disassemble")
    sp.add_argument("input", nargs="?")
    sp.add_argument("--assemble", action="store_true", default=False)
    sp.add_argument("--disassemble", action="store_true")
    sp.add_argument("--show-encoding", dest="show_encoding",
                    action="store_true")
    sp.add_argument("--emit", choices=("asm", "obj"), default="asm")
    sp.add_argument("--mattr")
    sp.set_defaults(fn=cmd_mc)

    sp = sub.add_parser("run", help="simulate a compiled function")
    common_compile(sp)
    sp.add_argument("--entry", help="function to run (default: first)")
    sp.add_argument("--args", help="comma-separated integer arguments")
    sp.add_argument("--mem", action="append",
                    help="addr:hexbytes memory image (repeatable)")
    sp.add_argument("--trace", action="store_true")
    sp.add_argument("--fuel", type=_positive_int, default=sim.DEFAULT_FUEL,
                    help="steps to simulate before giving up")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("lit", help="run RUN-line regression tests")
    sp.add_argument("paths", nargs="*", help="test files or directories "
                    "(default: the shipped corpus)")
    sp.add_argument("-v", dest="verbose", action="store_true")
    sp.set_defaults(fn=cmd_lit)

    sp = sub.add_parser("filecheck", help="match CHECK directives "
                        "against stdin")
    sp.add_argument("checkfile")
    sp.add_argument("--check-prefixes", dest="check_prefixes",
                    default="CHECK")
    sp.set_defaults(fn=cmd_filecheck)

    sp = sub.add_parser("update-checks", help="regenerate CHECK lines "
                        "from current output")
    sp.add_argument("paths", nargs="+")
    sp.set_defaults(fn=cmd_update_checks)
    return p


def run_command(argv: list[str], stdin_text: str = "") -> tuple[int, str, str]:
    """Execute one subcommand in-process; returns (status, stdout, stderr)."""
    return _run(argv, io.StringIO(stdin_text))


def _run(argv: list[str], stdin) -> tuple[int, str, str]:
    """run_command over a stdin stream, read only by the subcommands that
    take their input from it."""
    global _parser
    out, err = io.StringIO(), io.StringIO()
    if _parser is None:
        _parser = _build_parser()
    parser = _parser
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except _UsageError as e:
        err.write(f"{PROG}: error: {e}\n")
        return 2, out.getvalue(), err.getvalue()
    except SystemExit as e:  # --help
        return int(e.code or 0), out.getvalue(), err.getvalue()
    if getattr(args, "command", None) is None:
        parser.print_usage(err)
        return 2, out.getvalue(), err.getvalue()
    try:
        code = args.fn(args, stdin, out, err)
    except (ir.IrError, tgt.TargetError, midend.PassError, isel.IselError,
            codegen.CodegenError, codegen.AsmError, DriverError) as e:
        err.write(f"{PROG}: error: {e}\n")
        return 1, out.getvalue(), err.getvalue()
    return code, out.getvalue(), err.getvalue()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    code, out, err = _run(argv, sys.stdin)
    sys.stdout.write(out)
    sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
