"""Per-layer tracing from outside the program.

The tracer replaces public functions of the rv32x modules, and the entries
of `midend.PASSES`, with wrappers that record a span per call. Calls inside
the package go through module attributes (`isel.select`, `tgt.decode`,
`PASSES[name]`), so they reach the wrappers too. Spans stay in memory; self
times (a span's duration minus its children's) and counters are computed
when a traced section ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name)
WRAPPED = (
    ("ir", "parse_ir", "ir.parse"),
    ("ir", "verify", "ir.verify"),
    ("midend", "run_pipeline", "midend.pipeline"),
    ("isel", "build_dag", "isel.build_dag"),
    ("isel", "combine", "isel.combine"),
    ("isel", "legalize", "isel.legalize"),
    ("isel", "select", "isel.select"),
    ("isel", "schedule", "isel.schedule"),
    ("codegen", "allocate_registers", "codegen.regalloc"),
    ("codegen", "insert_prologue_epilogue", "codegen.prologue"),
    ("codegen", "print_asm", "codegen.print_asm"),
    ("codegen", "emit_words", "codegen.emit_words"),
    ("target", "load_default_desc", "target.load_desc"),
    ("target", "decode", "target.decode"),
    ("target", "encode", "target.encode"),
    ("sim", "run_function", "sim.run_function"),
    ("sim", "step", "sim.step"),
    ("sim", "ir_interpret", "sim.ir_interpret"),
    ("driver", "compile_ir_text", "driver.compile_ir_text"),
    ("driver", "run_command", "driver.run_command"),
)


def _insts(mod) -> int:
    return sum(len(fn.body) for fn in mod.functions)


class Tracer:
    def __init__(self, rv):
        self.rv = rv
        self.spans: list = []
        self._stack = [-1]
        self.counters = defaultdict(float)
        self._saved: list = []
        self._hooks = {
            "ir.parse": self._on_parse,
            "midend.pipeline": self._on_pipeline,
            "isel.build_dag": self._on_build_dag,
            "isel.select": self._on_select,
            "codegen.regalloc": self._on_regalloc,
            "codegen.prologue": self._on_prologue,
            "driver.compile_ir_text": self._on_compile,
            "driver.run_command": self._on_command,
        }

    # -- installation -----------------------------------------------------

    def install(self):
        for mod_name, attr, name in WRAPPED:
            owner = getattr(self.rv, mod_name)
            self._patch(owner.__dict__, attr, name)
        passes = self.rv.midend.PASSES
        for key in list(passes):
            self._patch(passes, key, f"midend.{key}")

    def uninstall(self):
        while self._saved:
            table, key, fn = self._saved.pop()
            table[key] = fn

    def _patch(self, table: dict, key: str, name: str):
        fn = table[key]
        self._saved.append((table, key, fn))
        table[key] = self._wrap(fn, name, self._hooks.get(name))

    def _wrap(self, fn, name: str, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if hook is not None:
                hook(args, out, t1 - t0)
            return out

        return traced

    # -- counters at layer boundaries -------------------------------------

    def _on_parse(self, args, mod, seconds):
        self.counters["ir.insts_in"] += _insts(mod)

    def _on_pipeline(self, args, out, seconds):
        mod, stats = out
        self.counters["midend.insts_out"] += _insts(mod)
        for key, n in stats.counters.items():
            self.counters[f"midend.{key}"] += n

    def _on_build_dag(self, args, dag, seconds):
        self.counters["isel.dag_nodes"] += len(dag.nodes)

    def _on_select(self, args, out, seconds):
        dag, debug_lines = out
        self.counters["isel.machine_nodes"] += sum(
            1 for n in dag.nodes if n.is_machine)
        self.counters["isel.debug_lines"] += len(debug_lines)

    def _on_regalloc(self, args, mf, seconds):
        sp = self.rv.codegen.SP
        self.counters["codegen.vregs"] += args[0].num_vregs
        self.counters["codegen.spill_insts"] += sum(
            1 for mi in mf.instrs if mi.mnemonic in ("LW", "SW")
            and mi.ops[1].kind == "preg" and mi.ops[1].val == sp)

    def _on_prologue(self, args, mf, seconds):
        self.counters["codegen.frame_bytes"] += mf.frame_size

    def _on_compile(self, args, cm, seconds):
        source = args[1]
        if source.startswith("synth-"):
            self.counters[f"driver.compile_s.{source[6:]}"] += seconds

    def _on_command(self, args, out, seconds):
        argv = args[0]
        kind = ("run" if argv[0] == "run" else
                "llc_obj" if "--emit=obj" in argv else "llc_asm")
        self.counters[f"driver.{kind}_n"] += 1
        self.counters[f"driver.{kind}_s"] += seconds

    # -- results ----------------------------------------------------------

    def collect(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded so far."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, t0, t1, _) in enumerate(spans):
            self_s[name] += t1 - t0 - child[i]
            calls[name] += 1
        c = self.counters
        out = dict(c)
        for _, _, name in WRAPPED:
            out[f"{name}_s"] = self_s[name]
        for key in self.rv.midend.PASSES:
            out[f"midend.{key}_s"] = self_s[f"midend.{key}"]
        out["codegen.regalloc_s"] = self_s["codegen.regalloc"]
        out["target.load_desc_calls"] = calls["target.load_desc"]
        out["target.decode_calls"] = calls["target.decode"]
        out["sim.steps"] = calls["sim.step"]
        out["sim.step_us"] = (1e6 * self_s["sim.step"] / calls["sim.step"]
                              if calls["sim.step"] else 0.0)
        for kind in ("llc_asm", "llc_obj", "run"):
            n = c.get(f"driver.{kind}_n", 0)
            out[f"driver.{kind}_ms"] = 1e3 * c[f"driver.{kind}_s"] / n if n else 0.0
        return out

    def write(self, path):
        """Write the spans as JSON: [name, start_us, duration_us, parent]."""
        base = self.spans[0][1] if self.spans else 0.0
        rows = [[name, round((t0 - base) * 1e6, 3), round((t1 - t0) * 1e6, 3),
                 parent] for name, t0, t1, parent in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}, separators=(",", ":")))

    def reset(self):
        self.spans.clear()
        self.counters.clear()
