"""The names perfbench's tracer rebinds still exist and are still called.

`perfbench/spans.py` times the pipeline from outside by rebinding module
and class attributes, and `perfbench/micro.py` reruns the kernels on the
arguments it captured.  A rename, or a stage that stops calling a hooked
kernel, would otherwise only show when a traced benchmark run fails.
"""

import json
from pathlib import Path

from platcube import cli, f2linalg, specseq, tqft

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HOOKED = (cli, f2linalg, specseq, tqft.ChainComplexF2, f2linalg.F2Matrix)


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
