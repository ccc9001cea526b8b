"""Per-layer spans recorded from outside the program.

`Tracer.install()` wraps the public calls `platcube.cli.run` makes, plus
the f2linalg kernels, by rebinding module and class attributes; `src/` is
not changed and nothing is wrapped unless a traced run asks for it.

Two span stacks are kept.  Stage spans (parse, cube, assemble, ...) report
self time: a stage's duration minus the stage spans nested inside it, so
the stage times of one item add up to its `cli.main` time.  f2linalg spans
report self time among f2linalg calls (an `rref` inside `kernel_basis`
counts as `rref`) and overlap the stage times they run under.
"""

from __future__ import annotations

import time
import types
from collections import defaultdict

# stage name -> names in platcube.cli's namespace that cli.run calls
_CLI_STAGES = {
    "tangle.parse": ("parse_braid_word", "mirror", "parse_plat"),
    "cube.build": ("braid_to_twists", "add_aux_unknot", "build_cube"),
    "tqft.assemble": ("assemble_complex",),
    "cli.parse_higher": ("parse_higher_maps_text",),
    "specseq.load_higher": ("load_higher_maps",),
    "specseq.pages": ("compute_pages",),
    "specseq.bounds": ("rank_bounds",),
    "invariants.goeritz": ("goeritz_data",),
}
STAGES = (
    "cli.main",
    "cli.report",
    "tangle.parse",
    "cube.build",
    "tqft.assemble",
    "specseq.filter",
    "cli.parse_higher",
    "specseq.load_higher",
    "specseq.d2",
    "specseq.pages",
    "specseq.bounds",
    "invariants.goeritz",
    "cli.json",
)
KERNELS = ("matmul", "rank", "rref", "kernel_basis", "from_coo", "transpose")


def nbytes(m) -> int:
    return int(m.words.nbytes)


def _kernel_bytes(name: str, args, result) -> int:
    """Computed footprint: bytes of the operand and result arrays."""
    if name == "matmul":
        return nbytes(args[0]) + nbytes(args[1]) + nbytes(result)
    if name == "rank":
        return nbytes(args[0])
    if name == "rref":
        return nbytes(args[0]) + nbytes(result[0])
    if name == "kernel_basis":
        return nbytes(args[0]) + nbytes(result.basis)
    if name == "from_coo":
        return nbytes(result) + 16 * len(args[-2])  # ri and ci as int64
    return nbytes(args[0]) + nbytes(result)  # transpose


class Tracer:
    def __init__(self):
        self.stage_s = defaultdict(float)
        self.kernel_s = defaultdict(float)
        self.kernel_calls = defaultdict(int)
        self.kernel_bytes = defaultdict(int)
        self.captured = {}  # kernel name -> (bytes, args) of its largest call
        self.assemble_coo = None  # args of the last from_coo inside assembly: d1
        self._stages = []  # [name, start, child time]
        self._kernels = []
        self._undo = []

    def reset(self):
        for d in (self.stage_s, self.kernel_s, self.kernel_calls, self.kernel_bytes):
            d.clear()

    # -- span bookkeeping -------------------------------------------------

    def _stage(self, name, fn):
        stack = self._stages
        acc = self.stage_s

        def wrapper(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[1]
                stack.pop()
                acc[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur

        return wrapper

    def _kernel(self, name, fn):
        stack = self._kernels

        def wrapper(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[1]
                stack.pop()
                self.kernel_s[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            size = _kernel_bytes(name, args, result)
            self.kernel_calls[name] += 1
            self.kernel_bytes[name] += size
            best = self.captured.get(name)
            if best is None or size > best[0]:
                self.captured[name] = (size, args)
            if name == "from_coo" and self._stages and self._stages[-1][0] == "tqft.assemble":
                self.assemble_coo = args
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import json

        from platcube import cli, f2linalg, specseq, tqft

        for stage, attrs in _CLI_STAGES.items():
            for attr in attrs:
                self._rebind(cli, attr, self._stage(stage, getattr(cli, attr)))
        self._rebind(cli, "run", self._stage("cli.report", cli.run))
        dumps = self._stage("cli.json", json.dumps)
        self._rebind(cli, "json", types.SimpleNamespace(dumps=dumps))
        self._rebind(
            tqft.ChainComplexF2,
            "to_filtered",
            self._stage("specseq.filter", tqft.ChainComplexF2.to_filtered),
        )
        self._rebind(specseq, "verify_d_squared", self._stage("specseq.d2", specseq.verify_d_squared))
        for name in ("matmul", "rank", "rref", "kernel_basis"):
            wrapped = self._kernel(name, getattr(f2linalg, name))
            self._rebind(f2linalg, name, wrapped)
            if name in specseq.__dict__:
                self._rebind(specseq, name, wrapped)
        mat = f2linalg.F2Matrix
        from_coo = self._kernel("from_coo", mat.from_coo.__func__)
        self._rebind(mat, "from_coo", classmethod(from_coo))
        self._rebind(mat, "transpose", self._kernel("transpose", mat.transpose))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def wrap_main(self, main):
        """platcube.cli.main, timed as the cli.main stage."""
        return self._stage("cli.main", main)
