"""Write pinned.json: digests of the report fields perf changes must keep.

    python3 perfbench/pin.py

Runs every workload's inputs once at workloads.DEFAULT_SEED and records,
per item, the digest of workloads.pinned_fields.  Re-pin only when the
report contents are meant to change; run.py compares against this file.
"""

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import platcube.cli
    import workloads

    out = {"seed": workloads.DEFAULT_SEED}
    workdir = run.ROOT / ".perfbench_work" / "pin"
    try:
        for name, make in workloads.WORKLOADS.items():
            items, files, _ = make(workloads.DEFAULT_SEED)
            run.write_inputs(workdir, items, files)
            digests = {}
            for it in items:
                r = run.run_item(platcube.cli.main, it.argv)
                if r.failed:
                    print(f"{name} {it.name}: {r.problems}", file=sys.stderr)
                    return 1
                digests[it.name] = workloads.digest(r.report)
            out[name] = digests
    finally:
        run.shutil.rmtree(workdir, ignore_errors=True)
    (run.HERE / "pinned.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
