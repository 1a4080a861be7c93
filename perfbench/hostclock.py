"""Host-speed correction for timings on a shared machine.

On a shared host the same Python code runs at speeds that swing by half
within a second and drift by a third over minutes (other tenants on the
physical cores). Every timing the benchmark reports is therefore scaled to
a reference host speed. A fixed pure-Python probe, independent of rv32x, is
timed from a timer signal every TICK_S seconds, also in the middle of a long
operation. An operation that took `s` host seconds, the probes' own time
taken out, counts as `s * PROBE_NOMINAL_S / p`, where `p` is the median
probe time during the operation (or, for a short one, of the last few
probes). A faster rv32x still reads faster; a slower host does not read as
a slower rv32x.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PROBE_NOMINAL_S = 0.0005  # the probe's time at the reference host speed
TICK_S = 0.05


class _Node:
    def __init__(self, kind: str, ops: tuple, value: int):
        self.kind = kind
        self.ops = ops
        self.value = value

    def key(self):
        return (self.kind, self.ops, self.value)


def host_probe() -> float:
    """Seconds for a fixed interpreter-bound job: object creation, method
    calls, dict and list traffic, string formatting and 32-bit arithmetic,
    the operations a compiler written in Python spends its time on."""
    t0 = perf_counter()
    seen: dict = {}
    nodes = []
    acc = 0
    for i in range(400):
        node = _Node(("add", "xor", "and", "shl")[i & 3], (i >> 2, i >> 3),
                     (i * 2654435761) & 0xFFFFFFFF)
        k = node.key()
        seen[k] = seen.get(k, 0) + 1
        nodes.append(node)
        acc ^= (node.value << (i & 7)) & 0xFFFFFFFF
        if i % 16 == 0:
            acc += len(f"{node.kind} x{node.ops[0]}, {node.value}")
    live = [n for n in nodes if n.value & 1]
    acc += sum(len(seen) for _ in live[:8]) + len(live)
    if acc < 0:
        raise AssertionError("unreachable")
    return perf_counter() - t0


class HostClock:
    """Marks and reference-second intervals. While `ticking`, a timer
    signal probes the host every TICK_S; otherwise `since` probes on demand
    when the last probe is older than TICK_S."""

    def __init__(self):
        self._probes: list[tuple[float, float]] = []  # (start, seconds)
        self._spent = 0.0  # host seconds spent probing from the timer

    def _probe(self):
        t0 = perf_counter()
        self._probes.append((t0, host_probe()))
        return perf_counter() - t0

    def _tick(self, signum, frame):
        self._spent += self._probe()

    def start_ticking(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop_ticking(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float]:
        return perf_counter(), self._spent

    def since(self, mark: tuple[float, float]) -> float:
        """Reference seconds from `mark` to now."""
        t1 = perf_counter()
        t0, spent0 = mark
        host = t1 - t0 - (self._spent - spent0)
        probes = []  # those during the interval, and the one before
        for start, seconds in reversed(self._probes):
            probes.append(seconds)
            if start < t0:
                break
        if len(probes) < 2:  # none during: the last few
            if not self._probes or t1 - self._probes[-1][0] > TICK_S:
                self._probe()
            probes = [s for _, s in self._probes[-3:]]
        return host * PROBE_NOMINAL_S / statistics.median(probes)
