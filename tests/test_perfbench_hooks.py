"""The names perfbench's tracer rebinds still exist and are still called.

`perfbench/spans.py` times the pipeline from outside by rebinding module
and class attributes, and `perfbench/micro.py` reruns the kernels on the
arguments it captured.  A rename, or a stage that stops calling a hooked
kernel, would otherwise only show when a traced benchmark run fails.
The benchmark's pinned report digests are checked here too, on its
smaller inputs.
"""

import json
import sys
from pathlib import Path

from platcube import cli, f2linalg, specseq, tqft

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HOOKED = (cli, f2linalg, specseq, tqft.ChainComplexF2, f2linalg.F2Matrix)
# twist-tower's two smallest complexes: 6,564 and 11,676 generators
SMALLEST_TOWER = ("4:s2 s2 s2 s2 s2 s2 s2 s2", "4:s2 s2 s1^-1 s1^-1 s2 s2 s1^-1 s1^-1 s2 s2")


def _traced_main(monkeypatch, argv):
    """Run cli.main under an installed tracer; check it uninstalls cleanly."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    before = [dict(vars(owner)) for owner in HOOKED]
    original_d2 = specseq.verify_d_squared
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert specseq.verify_d_squared is not original_d2
        code = tracer.wrap_main(cli.main)(argv)
    finally:
        tracer.uninstall()
    for owner, attrs in zip(HOOKED, before):
        assert vars(owner).keys() == attrs.keys()
        for name, value in attrs.items():
            assert vars(owner)[name] is value, f"{owner.__name__}.{name} not restored"
    return tracer, code


def test_tracer_records_d2_and_matmul(monkeypatch, capsys):
    tracer, code = _traced_main(monkeypatch, ["--strands", "4", "--word", "s2 s2 s2", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["e2"]["total"] == 6
    assert tracer.stage_s["specseq.d2"] > 0
    assert tracer.kernel_calls["matmul"] >= 1
    assert tracer.kernel_calls["rank"] >= 1  # the pure-d1 block ranks


def test_tracer_records_general_page_kernels(monkeypatch, capsys, tmp_path):
    # the s2 s2 table of test_cli.py::test_higher_maps_accepted
    table = tmp_path / "maps.txt"
    table.write_text("\n".join(["2 00 11", "1000"] + ["0000"] * 3) + "\n")
    argv = ["--strands", "4", "--word", "s2 s2", "--higher-maps", str(table), "--pages", "--json"]
    tracer, code = _traced_main(monkeypatch, argv)
    assert code == 0
    assert [p["r"] for p in json.loads(capsys.readouterr().out)["pages"]] == [1, 2, 3]
    for name in ("rank", "rref", "kernel_basis"):
        assert tracer.kernel_calls[name] >= 1, name
    assert {"rref", "kernel_basis"} <= tracer.captured.keys()


def test_reports_match_pinned_digests(monkeypatch, capsys, tmp_path):
    """The benchmark's pinned report digests hold without running it.

    The two smallest twist-tower inputs and the first five higher-maps
    inputs, made by perfbench/workloads.py and run through cli.main.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import workloads

    pins = json.loads((PERFBENCH / "pinned.json").read_text())
    assert pins["seed"] == workloads.DEFAULT_SEED
    tower, _, _ = workloads.twist_tower(workloads.DEFAULT_SEED)
    smallest = [item for item in tower if item.name in SMALLEST_TOWER]
    assert len(smallest) == 2
    higher, files, _ = workloads.higher_maps(workloads.DEFAULT_SEED, count=5)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    checked = []
    for workload, items in (("twist-tower", smallest), ("higher-maps", higher)):
        for item in items:
            assert cli.main(item.argv) == 0, item.name
            report = json.loads(capsys.readouterr().out)
            assert workloads.check_report(item, report, pins[workload]) == [], item.name
            assert workloads.digest(report) == pins[workload][item.name], item.name
            checked.append(item.name)
    assert len(checked) == 7


def test_traced_sources_feed_every_microbenchmark(monkeypatch, capsys, tmp_path):
    """A traced pass over micro.SOURCE_ITEMS captures operands for every
    kernel micro.py replays, and one replay of each runs.  A kernel call
    that the pipeline stops making would otherwise show only in a
    `--trace 1` benchmark run, as max() of an empty sequence."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import micro
    import spans
    import workloads

    tower, _, _ = workloads.twist_tower(workloads.DEFAULT_SEED)
    higher, files, _ = workloads.higher_maps(workloads.DEFAULT_SEED, count=5)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    sources = [item for item in tower + higher if item.name in micro.SOURCE_ITEMS]
    assert {item.name for item in sources} == micro.SOURCE_ITEMS
    tracer = spans.Tracer()
    tracer.install()
    by_item = {}
    try:
        traced_main = tracer.wrap_main(cli.main)
        for item in sources:
            tracer.captured = {}
            assert traced_main(item.argv) == 0, item.name
            by_item[item.name] = tracer.captured
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for name in spans.KERNELS:
        assert micro.operands(name, by_item), name
    metrics = micro.run(by_item, min_seconds=0, min_reps=1)
    assert {f"micro.{name}_s" for name in spans.KERNELS} <= metrics.keys()
