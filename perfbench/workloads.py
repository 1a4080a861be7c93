"""The four workloads and the meter that turns their samples into metrics.

Every workload is closed loop: one caller on one thread, and the next
operation starts when the previous one returns. A workload has a `once` part,
made once per run (its seeded inputs, plus any work the workload does only
once), and a `round` of fixed work that the run repeats until its time is up.
Each round repeats the same operations on the same inputs, so a per-job
median over rounds damps phases of host slowness, and every round checks its
outputs against the first round's.

Every output is checked: simulated results against `sim.ir_interpret` on the
unoptimized source, and asm/obj text by assembling or relocating it and
simulating the words.
"""

from __future__ import annotations

import hashlib
import random
import statistics
from collections import defaultdict

import synth
from hostclock import HostClock

FULL = "+zba,+zbb,+xcrypt"
ALL_MATTRS = (None, "+zba", "+zbb", "+xcrypt", FULL)

# corpus file -> (function, pointer arguments, integer arguments),
# the same signatures the differential tests use
CORPUS_SHAPES = {
    "identity.ll": ("ident", 0, 1),
    "lxr.ll": ("foo", 2, 0),
    "lxr_dep16.ll": ("xor_first_fifth", 1, 0),
    "lxr_dep8.ll": ("xor_first_third", 1, 0),
    "madd.ll": ("maddFunc", 0, 0),
    "mul6.ll": ("mul6", 0, 2),
    "mul6_reuse.ll": ("mul6_reuse", 0, 2),
    "rori.ll": ("rotimm", 0, 1),
    "sbox.ll": ("sbox", 1, 0),
    "sbox_unopt.ll": ("sbox", 1, 0),
    "shlxor.ll": ("shlxor", 0, 2),
}
PTR_BASE = 0x4000


def mattr_label(mattr: str | None) -> str:
    return mattr or "base"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def ptr_inputs(rng: random.Random, n_ptrs: int, n_ints: int,
               words_each: int = 5) -> tuple[list[int], dict[int, int]]:
    """Pointer arguments at 0x4000 + 0x100*i, each over `words_each` random
    words, then random integers: the differential tests' argument shapes."""
    args, mem = [], {}
    for i in range(n_ptrs):
        base = PTR_BASE + 0x100 * i
        args.append(base)
        for j in range(words_each):
            for k, b in enumerate(rng.getrandbits(32).to_bytes(4, "little")):
                mem[base + 4 * j + k] = b
    return args + [rng.getrandbits(32) for _ in range(n_ints)], mem


class Meter:
    """Samples of one run, in reference seconds (see hostclock). A rate is
    the work of all jobs over the sum of each job's median seconds across
    rounds, so that one slow moment does not set it and each job weighs by
    its cost, as in total work per total time; latency percentiles are taken
    over the per-job median latencies.

    `attempted` and `failed` count distinct operations: one compile or
    trial of one job on one input, or one command. A round that repeats an
    operation for timing does not count it again, so both numbers, and the
    share that failed, depend only on the seed, not on how many rounds fit
    in the run; an operation counts as failed if any of its repeats
    raised."""

    def __init__(self):
        self.clock = HostClock()
        self.seconds = defaultdict(lambda: defaultdict(list))
        self.work = defaultdict(dict)
        self.latency = defaultdict(list)
        self.static: dict[str, int] = {}
        self.dyn: dict[str, int] = {}
        self.digests: dict[str, tuple[str, str]] = {}
        self.ops: set[str] = set()
        self.failures: dict[str, str] = {}
        self.wrong: list[str] = []
        self.report: list[str] = []

    def sample(self, kind: str, job: str, work: float, seconds: float):
        self.seconds[kind][job].append(seconds)
        self.work[kind][job] = work

    def op(self, job: str, seconds: float):
        self.latency[job].append(seconds)

    def rate(self, kind: str) -> float:
        jobs = self.seconds[kind]
        return (sum(self.work[kind][job] for job in jobs)
                / sum(statistics.median(s) for s in jobs.values()))

    def latency_ms(self) -> tuple[float, float]:
        per_job = sorted(statistics.median(s) for s in self.latency.values())
        p90 = statistics.quantiles(per_job, n=10, method="inclusive")[8]
        return 1e3 * statistics.median(per_job), 1e3 * p90

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def attempt(self, op: str):
        self.ops.add(op)

    def fail(self, op: str, err: Exception):
        self.failures.setdefault(op, f"{type(err).__name__}: {err}")

    def check(self, ok: bool, what: str):
        if not ok:
            self.wrong.append(what)

    def outputs(self, job: str, asm: str, obj: str, static: int):
        """Record one compile's outputs; a later round must repeat them."""
        digests = (sha256(asm), sha256(obj))
        first = self.digests.setdefault(job, digests)
        self.check(first == digests, f"{job}: output changed between rounds")
        first = self.static.setdefault(job, static)
        self.check(first == static, f"{job}: size changed between rounds")

    def steps(self, job: str, steps: int):
        first = self.dyn.setdefault(job, steps)
        self.check(first == steps, f"{job}: steps changed between rounds")


class Workload:
    name = ""

    def __init__(self, rv, seed: int, meter: Meter, root, desc):
        self.rv = rv
        self.seed = seed
        self.m = meter
        self.root = root
        self.desc = desc
        self.errors = (rv.ir.IrError, rv.target.TargetError,
                       rv.midend.PassError, rv.isel.IselError,
                       rv.codegen.CodegenError, rv.codegen.AsmError,
                       rv.sim.InterpError, rv.sim.SimTrap,
                       rv.driver.DriverError)

    def once(self):
        raise NotImplementedError

    def round(self, r: int):
        raise NotImplementedError

    def corpus_text(self, name: str) -> str:
        return (self.root / "src" / "rv32x" / "corpus" / name).read_text()

    def rows(self) -> list[str]:
        """Emitted-code rows: static and per-trial dynamic instructions."""
        trials = getattr(self, "TRIALS", 1)
        dyn = self.m.dyn
        return [f"row {job} static={static} "
                f"dynamic={dyn[job] // trials if job in dyn else '-'}"
                for job, static in sorted(self.m.static.items())]

    def compile(self, job: str, text: str, source: str, mattr, insts: int,
                gaddrs=None, latency: str = ""):
        """parse -> -O2 -> select -> allocate -> emit, timed as one
        operation; returns (optimized module, words) or None on failure.
        A `latency` key records the time as one operation of that key."""
        rv, m = self.rv, self.m
        ext = rv.target.parse_mattr(mattr)
        op = f"{job}/compile"
        m.attempt(op)
        t0 = m.clock.mark()
        try:
            cm = rv.driver.compile_ir_text(text, source, self.desc, ext)
        except self.errors as e:
            m.fail(op, e)
            return None
        (cf,) = cm.functions.values()
        gaddrs = cm.global_addrs if gaddrs is None else gaddrs
        try:
            words = rv.codegen.emit_words(cf.mf, self.desc, gaddrs)
            err = None
        except self.errors as e:
            words, err = None, e
        seconds = m.clock.since(t0)
        obj = (f"error: {err}" if words is None
               else "".join(f"0x{w:08x}\n" for w in words))
        m.outputs(job, cf.asm, obj, len(cf.mf.instrs))
        if err is not None:
            m.fail(op, err)
            return None
        m.sample("compile", job, insts, seconds)
        if latency:
            m.op(latency, seconds)
        return cm.module, words

    def trials(self, job: str, ref, words, inputs, gaddrs=None,
               with_desc: bool = True, latency: str = ""):
        """Interpret the source and simulate the words on each input, and
        compare return value and memory. Samples one batch per call."""
        rv, m = self.rv, self.m
        kw = {"desc": self.desc} if with_desc else {}
        done = steps = 0
        sim_s = total_s = 0.0
        for i, (args, mem) in enumerate(inputs):
            op = f"{job}/trial{i}"
            m.attempt(op)
            t0 = m.clock.mark()
            try:
                want, want_mem = rv.sim.ir_interpret(ref, args, dict(mem),
                                                     gaddrs)
                t1 = m.clock.mark()
                got, got_mem, trace = rv.sim.run_function(words, args,
                                                          dict(mem), **kw)
                sim = m.clock.since(t1)
            except self.errors as e:
                m.fail(op, e)
                continue
            m.check((ref.return_type == "void" or want == got)
                    and want_mem == got_mem, f"{job}: {args} diverged")
            total = m.clock.since(t0)
            done += 1
            steps += len(trace)
            sim_s += sim
            total_s += total
            if latency == "trial":
                m.op(job, total)
            elif latency == "sim":
                m.op(job, sim)
        if done:
            m.sample("trial", job, done, total_s)
            m.sample("sim", job, steps, sim_s)
            m.steps(job, steps)


class _Synth:
    """One synthetic function, compiled under one --mattr, with its seeded
    inputs."""

    def __init__(self, rv, rng: random.Random, size: int, mattr,
                 n_inputs: int, copy: int = 0):
        self.size = size
        self.mattr = mattr
        self.source = f"synth-n{size}"
        self.job = f"{self.source}-{copy}/{mattr_label(mattr)}"
        self.text = synth.gen_function(rng, f"synth{size}", size)
        self.ref = rv.ir.parse_ir(self.text, self.source).functions[0]
        self.inputs = [ptr_inputs(rng, 1, synth.N_INTS, synth.CELLS)
                       for _ in range(n_inputs)]


class CompileSynth(Workload):
    """Synthetic functions at doubling sizes through -O2 and emission, under
    base and the full extension set; one checked simulation each."""

    name = "compile-synth"
    SIZES = (100, 200, 400, 800)
    MATTRS = (None, FULL)
    # the smallest doubling of the family whose spill frame passes the
    # 2047-byte immediate range (800 stays under 1400 bytes); compiled
    # once per run and reported, never filtered out
    PROBE = 1600

    def once(self):
        rng = random.Random(self.seed)
        self.funcs = [_Synth(self.rv, rng, n, mattr, 1)
                      for n in self.SIZES for mattr in self.MATTRS]
        probe = _Synth(self.rv, rng, self.PROBE, None, 1)
        for f in self.funcs + [probe]:
            self.m.report.append(
                f"synth {f.job} source_insts={len(f.ref.body)}")
        self.probe(probe)

    def probe(self, f: _Synth):
        """Compile the frame-overflow probe and report the outcome. It is
        not one of the run's operations: a run has no operation that fails
        at every seed. Once it compiles, its result is checked."""
        rv, m = self.rv, self.m
        try:
            cm = rv.driver.compile_ir_text(f.text, f.source, self.desc,
                                           rv.target.parse_mattr(f.mattr))
            (cf,) = cm.functions.values()
            words = rv.codegen.emit_words(cf.mf, self.desc, cm.global_addrs)
        except self.errors as e:
            m.report.append(f"probe {f.job} frame-overflow "
                            f"{type(e).__name__}: {e}")
            return
        m.report.append(f"probe {f.job} compiled static={len(words)}")
        args, mem = f.inputs[0]
        want = rv.sim.ir_interpret(f.ref, args, dict(mem))
        got, got_mem, _ = rv.sim.run_function(words, args, dict(mem),
                                              desc=self.desc)
        m.check((got, got_mem) == want, f"{f.job}: {args} diverged")

    def round(self, r: int):
        for f in self.funcs:
            out = self.compile(f.job, f.text, f.source, f.mattr,
                               len(f.ref.body), latency=f.source)
            if out is None:
                continue
            if r == 0:
                self.m.report.append(
                    f"synth {f.job} optimized_insts="
                    f"{len(out[0].functions[0].body)}")
            self.trials(f.job, f.ref, out[1], f.inputs)


class OracleCorpus(Workload):
    """The differential oracle: every corpus file under every extension set,
    compiled once, then N seeded trials that call the simulator without a
    target description, as the tier-1 differential test does."""

    name = "oracle-corpus"
    TRIALS = 16

    def once(self):
        rv = self.rv
        self.jobs = []
        for name, (fname, n_ptrs, n_ints) in sorted(CORPUS_SHAPES.items()):
            text = self.corpus_text(name)
            mod0 = rv.ir.parse_ir(text, name)
            gaddrs = rv.sim.assign_global_addrs(mod0)
            for mattr in ALL_MATTRS:
                job = f"{name}/{mattr_label(mattr)}"
                rng = random.Random(f"{self.seed}/{job}")
                inputs = []
                for _ in range(self.TRIALS):
                    args, mem = ptr_inputs(rng, n_ptrs, n_ints)
                    mem.update(rv.sim.seed_globals(mod0, gaddrs))
                    inputs.append((args, mem))
                self.jobs.append((job, text, name, mattr,
                                  mod0.function(fname), gaddrs, inputs))

    def round(self, r: int):
        for job, text, name, mattr, ref, gaddrs, inputs in self.jobs:
            out = self.compile(job, text, name, mattr, len(ref.body), gaddrs)
            if out is not None:
                self.trials(job, ref, out[1], inputs, gaddrs,
                            with_desc=False, latency="trial")


class RunSynth(Workload):
    """Spill-heavy synthetic functions, compiled once, then simulated many
    times with the target description passed in, as `rv32x run` does. Each
    round recompiles one of them, so compile time is sampled across the run
    without dominating it."""

    name = "run-synth"
    SIZES = (200, 400)
    MATTRS = (None, FULL)
    COPIES = 2  # independent functions per size and --mattr
    TRIALS = 5

    def once(self):
        rng = random.Random(self.seed)
        self.funcs = [_Synth(self.rv, rng, n, mattr, self.TRIALS, k)
                      for n in self.SIZES for mattr in self.MATTRS
                      for k in range(self.COPIES)]
        self.words = {}
        for f in self.funcs:
            out = self.compile(f.job, f.text, f.source, f.mattr,
                               len(f.ref.body))
            if out is not None:
                self.words[f.job] = out[1]

    def round(self, r: int):
        f = self.funcs[r % len(self.funcs)]
        self.compile(f.job, f.text, f.source, f.mattr, len(f.ref.body))
        for f in self.funcs:
            if f.job in self.words:
                self.trials(f.job, f.ref, self.words[f.job], f.inputs,
                            latency="sim")


class CliCorpus(Workload):
    """`llc --emit=asm`, `llc --emit=obj` and `run` on every corpus file
    under every extension set, in-process through `driver.run_command`."""

    name = "cli-corpus"

    def once(self):
        rv = self.rv
        self.jobs = []
        self.first: dict[str, str] = {}
        for name, (fname, n_ptrs, n_ints) in sorted(CORPUS_SHAPES.items()):
            path = str(self.root / "src" / "rv32x" / "corpus" / name)
            text = self.corpus_text(name)
            mod0 = rv.ir.parse_ir(text, name)
            gaddrs = rv.sim.assign_global_addrs(mod0)
            insts = sum(len(fn.body) for fn in mod0.functions)
            for mattr in ALL_MATTRS:
                job = f"{name}/{mattr_label(mattr)}"
                rng = random.Random(f"{self.seed}/{job}")
                args, mem = ptr_inputs(rng, n_ptrs, n_ints)
                flags = [f"--mattr={mattr}"] if mattr else []
                run_flags = list(flags)
                if args:
                    run_flags.append("--args=" + ",".join(map(str, args)))
                for i in range(n_ptrs):
                    base = PTR_BASE + 0x100 * i
                    data = bytes(mem[base + k] for k in range(20))
                    run_flags.append(f"--mem={base:#x}:{data.hex()}")
                full_mem = dict(mem)
                full_mem.update(rv.sim.seed_globals(mod0, gaddrs))
                ref = mod0.function(fname)
                want = rv.sim.ir_interpret(ref, args, dict(full_mem), gaddrs)
                self.jobs.append(dict(
                    job=job, mattr=mattr, ref=ref, mod=mod0, gaddrs=gaddrs,
                    args=args, mem=full_mem, want=want, insts=insts,
                    argv={"asm": ["llc", path, "--emit=asm"] + flags,
                          "obj": ["llc", path, "--emit=obj"] + flags,
                          "run": ["run", path] + run_flags}))

    def round(self, r: int):
        m = self.m
        for j in self.jobs:
            for kind, argv in j["argv"].items():
                key = f"{j['job']}/{kind}"
                m.attempt(key)
                t0 = m.clock.mark()
                code, out, err = self.rv.driver.run_command(argv)
                seconds = m.clock.since(t0)
                m.op(key, seconds)
                if code != 0:
                    m.fail(key, RuntimeError(err.strip()))
                    continue
                first = self.first.setdefault(key, out)
                if first is out:
                    try:
                        self.verify(j, kind, out)
                    except self.errors as e:
                        m.check(False, f"{key}: output does not run: {e}")
                else:
                    m.check(out == first, f"{key}: output changed")
                if kind == "obj":
                    m.sample("compile", key, j["insts"], seconds)
                elif kind == "run":
                    m.sample("trial", key, 1, seconds)
                    m.sample("sim", key, m.dyn.get(j["job"], 0), seconds)

    def verify(self, j: dict, kind: str, out: str):
        """Check one command's first output against the IR interpreter."""
        rv, m, key = self.rv, self.m, f"{j['job']}/{kind}"
        want, want_mem = j["want"]
        if kind == "run":
            got = dict(line.split(" = ") for line in out.splitlines())
            ok = j["ref"].return_type == "void" or int(got["a0"]) == want
            for g in j["mod"].globals:
                ok &= int(got[f"@{g.name}"]) == rv.sim.mem_read32(
                    want_mem, j["gaddrs"][g.name])
            m.check(ok, f"{key}: result differs from ir_interpret")
            return
        if kind == "asm":
            mf = rv.codegen.MachineFunction(
                j["ref"].name, rv.codegen.parse_asm(out, self.desc))
            words = rv.codegen.emit_words(mf, self.desc, j["gaddrs"])
        else:
            words, relocs = rv.codegen.parse_obj_text(out)
            words = rv.codegen.resolve_words(
                words, relocs, self.desc, j["gaddrs"],
                rv.target.parse_mattr(j["mattr"]))
        got, got_mem, trace = rv.sim.run_function(
            words, j["args"], dict(j["mem"]), desc=self.desc)
        m.check((j["ref"].return_type == "void" or got == want)
                and got_mem == want_mem, f"{key}: differs from ir_interpret")
        if kind == "obj":
            m.steps(j["job"], len(trace))
            m.outputs(j["job"], self.first.get(f"{j['job']}/asm", ""), out,
                      len(words))


WORKLOADS = {w.name: w for w in (CompileSynth, OracleCorpus, RunSynth,
                                 CliCorpus)}
