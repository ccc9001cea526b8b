"""f2linalg microbenchmarks on operands captured from workload items.

Operands are the arguments of the largest call the tracer saw while a
source item ran through `platcube.cli.main`: the d1 of 4-strand s2^8 for
`matmul` and `transpose`, the largest weight block and the assembled COO of
s2^9 for `rank` and `from_coo`, and the largest window of the first
five higher-maps complexes for `rref` and `kernel_basis`.

Op counts and bytes are computed from operand shapes, not measured:
bytes are operand plus result array sizes, ops the word operations of the
loops as written (an upper bound for the eliminations).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from spans import KERNELS, nbytes

S2_8 = "4:s2 s2 s2 s2 s2 s2 s2 s2"
S2_9 = "4:s2 s2 s2 s2 s2 s2 s2 s2 s2"
HIGHER = tuple(f"h{i:03d}" for i in range(5))
# kernel -> (source items, kernel whose captured arguments are used)
SOURCES = {
    "matmul": ((S2_8,), "matmul"),
    "transpose": ((S2_8,), "matmul"),
    "rank": ((S2_9,), "rank"),
    "from_coo": ((S2_9,), "from_coo"),
    "rref": (HIGHER, "rref"),
    "kernel_basis": (HIGHER, "kernel_basis"),
}
SOURCE_ITEMS = {S2_8, S2_9, *HIGHER}


def _nwords(cols: int) -> int:
    return (cols + 63) // 64


def _elimination_ops(m, rk: int) -> int:
    return m.cols * m.rows + rk * m.rows * _nwords(m.cols)


def operands(name: str, by_item: dict):
    """Arguments of the largest call of the kernel among its source items."""
    items, kernel = SOURCES[name]
    _, args = max((by_item[i][kernel] for i in items if kernel in by_item.get(i, {})),
                  key=lambda c: c[0])
    return args[:1] if name == "transpose" else args


def _ops_and_bytes(name: str, args, result) -> tuple[int, int]:
    if name == "matmul":
        a, b = args
        nnz = int(np.bitwise_count(a.words).sum())
        return a.cols * a.rows + nnz * _nwords(b.cols), nbytes(a) + nbytes(b) + nbytes(result)
    if name == "transpose":
        (m,) = args
        return m.rows * m.cols, nbytes(m) + nbytes(result)
    if name == "rank":
        (m,) = args
        return _elimination_ops(m, result), nbytes(m)
    if name == "rref":
        (m,) = args
        return _elimination_ops(m, result[1]), nbytes(m) + nbytes(result[0])
    if name == "kernel_basis":
        (m,) = args
        rk = m.cols - result.dim
        return _elimination_ops(m, rk) + result.dim * rk, nbytes(m) + nbytes(result.basis)
    _cls, rows, cols, ri, ci = args
    return len(ri), nbytes(result) + 16 * len(ri)


def _callable(name: str, f2):
    if name == "transpose":
        return f2.F2Matrix.transpose
    if name == "from_coo":
        return f2.F2Matrix.from_coo.__func__
    return getattr(f2, name)


def run(by_item: dict, min_seconds: float = 0.25, min_reps: int = 3) -> dict[str, float]:
    """Median seconds per call, computed ops and bytes, per kernel."""
    from platcube import f2linalg as f2

    out = {}
    for name in KERNELS:
        fn = _callable(name, f2)
        args = operands(name, by_item)
        times = []
        start = time.perf_counter()
        while len(times) < min_reps or time.perf_counter() - start < min_seconds:
            t0 = time.perf_counter()
            result = fn(*args)
            times.append(time.perf_counter() - t0)
            if len(times) >= 50:
                break
        ops, size = _ops_and_bytes(name, args, result)
        out[f"micro.{name}_s"] = statistics.median(times)
        out[f"micro.{name}_ops"] = ops
        out[f"micro.{name}_bytes"] = size
    return out
