"""Seeded synthetic IR: the scaling family used by the compile and run workloads.

Each function is a straight-line random mix of add/xor/and/or/mul/shl/lshr
over two integer arguments and words loaded through a `ptr` argument, with
stores back through the same pointer. Every value is xor-folded into the
return, so none is dead and all stay live to the end: register pressure,
and with it the spill frame, grows with the size.
Inputs that expose a known compiler defect are kept, not filtered.
"""

from __future__ import annotations

import random

OPS = ("add", "xor", "and", "or", "mul", "shl", "lshr")
CONST_POOL = (1, 2, 3, 5, 6, 9, 12, 255, 4097, 12291, 0xFF00, -1,
              0x7FFFFFFF)
CELLS = 8  # words reachable through %p
N_INTS = 2  # integer arguments after %p


def gen_function(rng: random.Random, name: str, size: int) -> str:
    """IR text of one function of `size` source instructions (or one fewer)."""
    lines = [f"define i32 @{name}(ptr %p, i32 %x, i32 %y) {{"]
    addrs = ["%p"]
    for c in range(1, CELLS):
        lines.append(f"  %g{c} = getelementptr i8, ptr %p, i32 {4 * c}")
        addrs.append(f"%g{c}")
    vals = ["%x", "%y"]
    # body + one fold per value after the first + ret must come to `size`
    while len(lines) + len(vals) < size:
        r = rng.random()
        res = f"%v{len(vals)}"
        if r < 0.12:
            lines.append(f"  {res} = load i32, ptr {rng.choice(addrs)}")
        elif r < 0.2:
            lines.append(f"  store i32 {rng.choice(vals)}, "
                         f"ptr {rng.choice(addrs)}")
            continue
        else:
            op = rng.choice(OPS)
            a = rng.choice(vals)
            if op in ("shl", "lshr") and rng.random() < 0.8:
                b = str(rng.randrange(1, 32))
            elif rng.random() < 0.25:
                b = str(rng.choice(CONST_POOL))
            else:
                b = rng.choice(vals)
            lines.append(f"  {res} = {op} i32 {a}, {b}")
        vals.append(res)
    # newest first, so every value stays live until the fold chain
    acc = vals[-1]
    for i, v in enumerate(reversed(vals[:-1])):
        lines.append(f"  %f{i} = xor i32 {acc}, {v}")
        acc = f"%f{i}"
    lines.append(f"  ret i32 {acc}")
    lines.append("}")
    return "\n".join(lines) + "\n"

