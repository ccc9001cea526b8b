"""The names perfbench's tracer rebinds still exist and are still called.

`perfbench/spans.py` times the pipeline from outside by rebinding module
and class attributes.  A rename, or a stage that stops calling a hooked
kernel, would otherwise only show when a traced benchmark run fails.
"""

import json
from pathlib import Path

from platcube import cli, f2linalg, specseq, tqft

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HOOKED = (cli, f2linalg, specseq, tqft.ChainComplexF2, f2linalg.F2Matrix)


def test_tracer_records_d2_and_matmul(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    before = [dict(vars(owner)) for owner in HOOKED]
    original_d2 = specseq.verify_d_squared
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert specseq.verify_d_squared is not original_d2
        code = tracer.wrap_main(cli.main)(["--strands", "4", "--word", "s2 s2 s2", "--json"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["e2"]["total"] == 6
    assert tracer.stage_s["specseq.d2"] > 0
    assert tracer.kernel_calls["matmul"] >= 1
    for owner, attrs in zip(HOOKED, before):
        assert vars(owner).keys() == attrs.keys()
        for name, value in attrs.items():
            assert vars(owner)[name] is value, f"{owner.__name__}.{name} not restored"
