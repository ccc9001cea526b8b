"""platcube benchmark: seeded CLI workloads timed end to end.

    python3 perfbench/run.py --workload higher-maps --seed 3 --seconds 48 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

Run from the repository root.  One workload runs in this process, which
the caller starts fresh, so `ru_maxrss` is that workload's own peak;
`--workload all` starts one such process per workload and mode and prints
their metric lines.  Load model: a closed loop on one thread, each input
sent after the previous report is done, as a researcher sweeps words.
BLAS and OpenMP are pinned to one thread.

Each item is one `platcube.cli.main([... "--json"])` call with stdout
captured; its report is checked (see workloads.check_report) on every
pass.  The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
Metric meanings and the predictions that tie them together are in
perfbench/README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
SPEC = json.loads(SPEC_FILE.read_text()) if SPEC_FILE.is_file() else None

# Samples of each set-up step per run; their medians add up to setup_s.
# The import is cheap and the noisiest, so it gets more.
IMPORT_SAMPLES = 5
SETUP_SAMPLES = 3


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


# -- one item --------------------------------------------------------------


class ItemResult:
    """One input's outcome.  Reports are dropped once checked, keeping only
    the sizes the metrics need, so memory does not grow with passes."""

    __slots__ = ("rc", "report", "seconds", "problems", "sizes")

    def __init__(self, rc, report, seconds, problems=()):
        self.rc = rc
        self.report = report
        self.seconds = seconds
        self.problems = list(problems)
        self.sizes = None

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.problems)


def run_item(main, argv) -> ItemResult:
    """One CLI call.  Exit codes and escaping exceptions become failures."""
    out = io.StringIO()
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(list(argv))
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001 - a crash is one failed input
        dt = time.perf_counter() - t0
        return ItemResult(-1, None, dt, [f"{type(exc).__name__}: {exc}"])
    dt = time.perf_counter() - t0
    if rc != 0:
        return ItemResult(rc, None, dt, [f"exit code {rc}"])
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        return ItemResult(rc, None, dt, ["stdout is not one JSON report"])
    return ItemResult(rc, report, dt)


def sizes(report: dict) -> dict[str, int]:
    n = len(report["twists"]["sequence"])
    return {
        "dims": report["vertices"]["total_dim"],
        "vertices": report["vertices"]["count"],
        "twists": n,
        "pages": len(report["pages"]),
        "max_block": max(report["e1"]["per_weight"].values(), default=0),
    }


def check_pass(items, results, pins) -> None:
    from workloads import check_report

    for it, r in zip(items, results):
        if r.report is None:
            continue
        try:
            r.problems.extend(check_report(it, r.report, pins))
            r.sizes = sizes(r.report)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            r.problems.append(f"report is malformed: {exc!r}")
    for r in results:
        r.report = None


class Pass:
    def __init__(self, results, wall):
        self.results = results
        self.wall = wall


def run_pass(main, items, pins) -> Pass:
    t0 = time.perf_counter()
    results = [run_item(main, it.argv) for it in items]
    wall = time.perf_counter() - t0
    check_pass(items, results, pins)
    return Pass(results, wall)


def run_passes(seconds: float, one_pass) -> list[Pass]:
    """Repeat whole passes for about `seconds`: at least one, and no new
    pass once it would end more than half a pass past the budget."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass())
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * statistics.median(p.wall for p in passes) >= seconds:
            return passes


# -- set-up ------------------------------------------------------------------


def import_samples(first: float) -> list[float]:
    """The import this process paid, plus fresh processes importing again."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import platcube.cli; print(time.perf_counter() - t)"
    )
    samples = [first]
    for _ in range(IMPORT_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            check=True, capture_output=True, text=True, timeout=60,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def write_inputs(workdir: Path, items, files) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (workdir / name).write_text(text)
    for it in items:
        it.argv = [str(workdir / a) if a in files else a for a in it.argv]


def self_check(main, warm: ItemResult, workdir: Path) -> list[str]:
    """The harness itself.  A corrupted copy of a report and CLI exit codes
    1 and 2 must each count as one failed input without stopping the run;
    fields added to a report must not."""
    from workloads import Item, digest

    def counted_failed(report) -> bool:
        r = ItemResult(0, report, 0.0)
        check_pass([Item("probe", [])], [r], {"probe": digest(warm.report)})
        return r.failed

    errors = []
    bad = copy.deepcopy(warm.report)
    first = next(iter(bad["pages"][0]["per_weight"]))
    bad["pages"][0]["per_weight"][first] += 1
    if not counted_failed(bad):
        errors.append("a corrupted report was not counted as failed")
    extended = copy.deepcopy(warm.report)
    extended["added_field"] = {"x": 1}
    extended["pages"][0]["added_field"] = 1
    if counted_failed(extended):
        errors.append("a report with an added field was counted as failed")

    trefoil = run_item(main, ["--strands", "4", "--word", "s2 s2 s2", "--json"])
    dims = {b: 1 << c for b, c in trefoil.report["vertices"]["circle_counts"].items()}
    # one shift-2 entry on the trefoil cube breaks D^2 = 0: exit 2
    rows = ["1" + "0" * (dims["000"] - 1)] + ["0" * dims["000"]] * (dims["011"] - 1)
    broken = workdir / "broken_d2.txt"
    broken.write_text("2 000 011\n" + "\n".join(rows) + "\n")
    cases = (
        (1, ["--strands", "3", "--word", "s1", "--json"]),
        (2, ["--strands", "4", "--word", "s2 s2 s2", "--higher-maps", str(broken), "--json"]),
        (2, ["--strands", "4", "--max-page", "x", "--json"]),  # argparse exits
    )
    for want, argv in cases:
        r = run_item(main, argv)
        if r.rc != want or not r.failed:
            errors.append(f"CLI exit {r.rc} (expected {want}) was not counted as a failure")
    return errors


# -- machine record ------------------------------------------------------------


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        return _read(ROOT / ".git" / head[5:]) or "unknown"
    return head or "unknown (checkout is not a git repository)"


def machine() -> dict:
    import numpy

    mem_kib = None
    for line in (_read(Path("/proc/meminfo")) or "").splitlines():
        if line.startswith("MemTotal:"):
            mem_kib = int(line.split()[1])
    llc = _read(Path("/sys/devices/system/cpu/cpu0/cache/index3/size"))
    llc_bytes = int(llc[:-1]) * 1024 if llc and llc.endswith("K") else None
    # s2^9: 19,686 generators, dense d1 rows of ceil(19686/64) words
    d1_bytes = 19686 * ((19686 + 63) // 64) * 8
    return {
        "nproc": os.cpu_count(),
        "ram_mib": None if mem_kib is None else mem_kib // 1024,
        "llc": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "s2^9_d1_bytes_computed": d1_bytes,
        "note": (
            "twist-tower is not a bandwidth measurement: the largest dense d1 "
            f"({d1_bytes / 1e6:.1f} MB, s2^9) is "
            + ("smaller" if llc_bytes and d1_bytes < 4 * llc_bytes else "not known to be smaller")
            + " than 4x the last-level cache"
        ),
    }


# -- metrics -------------------------------------------------------------------


def item_medians(passes: list[Pass]) -> list[float]:
    """Each input's median latency over the run's passes.

    Inputs keep their order from pass to pass, so the i-th result of every
    pass is the same input.  Taking each input's median before pooling
    keeps one slow spell of the shared host, which hits a few inputs of
    one pass, out of every metric.
    """
    return [statistics.median(p.results[i].seconds for p in passes)
            for i in range(len(passes[0].results))]


def latency_stats(lat: list[float]) -> tuple[float, float, int]:
    lat = sorted(lat)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return statistics.median(lat), p90, sum(x > p90 for x in lat)


def end_to_end(passes, setup_s) -> dict[str, float]:
    lat = item_medians(passes)
    wall = sum(lat)
    dims = sum(r.sizes["dims"] for r in passes[0].results if r.sizes)
    p50, p90, beyond = latency_stats(lat)
    print(f"item latency: {len(lat)} inputs x {len(passes)} passes, "
          f"{beyond} inputs beyond p90")
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "dims_per_s": dims / wall,
        "item_p50_ms": p50 * 1e3,
        "item_p90_ms": p90 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_counts(results) -> dict[str, int]:
    """Sizes read off one pass's reports; tqft.nnz comes from the trace."""
    out = {}
    got = [r.sizes for r in results if r.sizes]
    out["cube.vertices"] = sum(z["vertices"] for z in got)
    out["cube.edges"] = sum(n * 2 ** (n - 1) for n in (z["twists"] for z in got) if n)
    out["tqft.faces"] = sum(n * (n - 1) // 2 * 2 ** (n - 2) for n in (z["twists"] for z in got) if n > 1)
    out["tqft.total_dim"] = sum(z["dims"] for z in got)
    out["tqft.d1_bytes"] = sum(d * ((d + 63) // 64) * 8 for d in (z["dims"] for z in got))
    out["specseq.pages_computed"] = sum(z["pages"] for z in got)
    out["specseq.max_block_cols"] = max((z["max_block"] for z in got), default=0)
    return out


def coo_nnz(args) -> int:
    """Entries of a from_coo result: coordinates hit an odd number of times."""
    import numpy as np

    _cls, _rows, cols, ri, ci = args
    keys = np.asarray(ri, dtype=np.int64) * cols + np.asarray(ci, dtype=np.int64)
    _, counts = np.unique(keys, return_counts=True)
    return int((counts & 1).sum())


def traced_run(main, items, pins, seconds, extra_sources) -> tuple[dict, list[Pass]]:
    """Untraced passes, then traced ones; per-layer sums over one pass.

    Stage and kernel times are medians over traced passes of per-pass
    sums; sizes come from the reports.  The microbenchmarks run last, on
    operands captured from their source items (run here if the workload
    does not hold them).
    """
    import micro
    from platcube import cli
    from spans import KERNELS, STAGES, Tracer

    untraced = run_passes(seconds / 2, lambda: run_pass(main, items, pins))
    tracer = Tracer()
    tracer.install()
    traced_main = tracer.wrap_main(cli.main)
    by_item = {}  # source item -> its captured kernel arguments
    per_pass = []
    nnz = []  # d1 entries per input of the current pass

    def traced_item(it) -> ItemResult:
        tracer.captured = {}
        tracer.assemble_coo = None
        r = run_item(traced_main, it.argv)
        if it.name in micro.SOURCE_ITEMS:
            by_item[it.name] = tracer.captured
        nnz.append(coo_nnz(tracer.assemble_coo) if tracer.assemble_coo else 0)
        return r

    def one_pass() -> Pass:
        tracer.reset()
        nnz.clear()
        t0 = time.perf_counter()
        results = [traced_item(it) for it in items]
        wall = time.perf_counter() - t0
        check_pass(items, results, pins)
        sums = {f"{k}_s": v for k, v in tracer.stage_s.items()}
        for k in KERNELS:
            sums[f"f2linalg.{k}_s"] = tracer.kernel_s.get(k, 0.0)
            sums[f"f2linalg.{k}_calls"] = tracer.kernel_calls.get(k, 0)
            sums[f"f2linalg.{k}_bytes"] = tracer.kernel_bytes.get(k, 0)
        sums["tqft.nnz"] = sum(nnz)
        per_pass.append(sums)
        return Pass(results, wall)

    traced = run_passes(seconds / 2, one_pass)
    for it in extra_sources:
        if it.name in micro.SOURCE_ITEMS and it.name not in by_item:
            traced_item(it)
    tracer.uninstall()

    keys = {f"{k}_s" for k in STAGES}.union(*per_pass)
    metrics = {k: statistics.median(p.get(k, 0) for p in per_pass) for k in keys}
    metrics.update(layer_counts(traced[0].results))
    wall_traced = sum(item_medians(traced))
    wall_untraced = sum(item_medians(untraced))
    metrics["trace.wall_s"] = wall_traced
    metrics["trace.untraced_wall_s"] = wall_untraced
    metrics["trace.overhead_s"] = wall_traced - wall_untraced
    metrics.update(micro.run(by_item))
    return metrics, untraced + traced


def run_workload(args) -> int:
    if not (SRC / "platcube" / "cli.py").is_file():
        return fail(f"no platcube sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import platcube.cli

    first_import = time.perf_counter() - t0
    if not Path(platcube.cli.__file__).resolve().is_relative_to(SRC):
        return fail(f"imported platcube from {platcube.cli.__file__}, not {SRC}")
    import workloads

    main = platcube.cli.main
    setup_t = {"import": import_samples(first_import), "inputs": [], "warmup": []}
    generated = []
    for _ in range(SETUP_SAMPLES):
        t = time.perf_counter()
        generated.append(workloads.WORKLOADS[args.workload](args.seed))
        setup_t["inputs"].append(time.perf_counter() - t)
    if any(g != generated[0] for g in generated[1:]):
        return fail(f"seed {args.seed} did not reproduce the {args.workload} inputs")
    items, files, warm_item = generated[0]
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        t = time.perf_counter()
        write_inputs(workdir, items + [warm_item], files)
        write_s = time.perf_counter() - t
        for _ in range(SETUP_SAMPLES):
            warm = run_item(main, warm_item.argv)
            setup_t["warmup"].append(warm.seconds)
            if warm.failed:
                return fail(f"warm-up input failed: {warm.problems}")
        errors = self_check(main, warm, workdir)
        if errors:
            return fail("harness self-check failed: " + "; ".join(errors))
        setup_s = write_s + sum(statistics.median(v) for v in setup_t.values())

        pinned = json.loads((HERE / "pinned.json").read_text())
        pins = pinned.get(args.workload) if (
            args.seed == pinned["seed"] or args.workload == "twist-tower") else None
        if args.trace:
            extra = []
            if args.workload != "twist-tower":
                extra += workloads.twist_tower(args.seed)[0]
            if args.workload != "higher-maps":
                hm_items, hm_files, _ = workloads.higher_maps(args.seed, count=5)
                write_inputs(workdir, hm_items, hm_files)
                extra += hm_items
            metrics, passes = traced_run(main, items, pins, args.seconds, extra)
            listed = SPEC["per_layer"]
        else:
            passes = run_passes(args.seconds, lambda: run_pass(main, items, pins))
            metrics = end_to_end(passes, setup_s)
            listed = SPEC["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [(it.name, r.problems) for p in passes for it, r in zip(items, p.results) if r.failed]
    attempted = sum(len(p.results) for p in passes)
    for name, problems in failures[:10]:
        print(f"FAILED {name}: {'; '.join(problems)}")
    print(json.dumps({"machine": machine(), "workload": args.workload, "seed": args.seed}))
    print(f"failed_frac: {len(failures) / attempted} ({len(failures)}/{attempted})")
    for m in listed:
        print(f"{m['name']}: {metrics[m['name']]} {m['unit']}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced."""
    names = [w["name"] for w in SPEC["workloads"]]
    ok = True
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"== {name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            print(f"== {name} (trace={trace})")
            print("\n".join(lines[:-1]))
            ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"] if SPEC else 30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if SPEC is None:
        return fail("BENCHMARK.json not found at the repository root")
    if args.workload == "all":
        return run_all(args)
    if args.workload not in {w["name"] for w in SPEC["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
