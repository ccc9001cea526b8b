"""The command-line front end: reports, exit codes, file formats."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import platcube
from platcube.cli import main, parse_higher_maps_text, run
from platcube.cube import braid_to_twists, build_cube
from platcube.tangle import parse_braid_word
from platcube.tqft import assemble_complex

from oracles import naive_table_blocks

REPO = Path(__file__).resolve().parent.parent

TREFOIL = ["--strands", "4", "--word", "s2 s2 s2"]


def invoke(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- report content ---------------------------------------------------


def test_cube_path_builds_no_n_by_n_matrix(monkeypatch, capsys):
    """A pure-d1 run keeps the differential in weight blocks throughout."""
    from platcube.f2linalg import F2Matrix

    shapes = []
    original = F2Matrix.__init__

    def recording(self, rows, cols, words):
        shapes.append((rows, cols))
        original(self, rows, cols, words)

    monkeypatch.setattr(F2Matrix, "__init__", recording)
    code, out, _ = invoke(["--strands", "4", "--word", "s2 s2 s2 s2 s2", "--json"], capsys)
    assert code == 0
    n = json.loads(out)["vertices"]["total_dim"]
    assert n == 246 and shapes
    assert not [s for s in shapes if n in s]


def test_trefoil_report():
    rep = run(strands=4, word="s2 s2 s2")
    assert rep["schema_version"] == 1
    assert rep["vertices"]["count"] == 8
    assert rep["vertices"]["total_dim"] == 30
    assert rep["e1"]["total"] == 30
    assert rep["e2"]["total"] == 6
    assert rep["stabilization"] == 2
    assert rep["e_infinity"] == {"determined": True, "total": 6, "per_weight": {"-3": 2, "-2": 0, "-1": 2, "0": 2}}
    assert rep["determinant"] == {"value": 3, "split": False, "expected_e2": 6, "e2_matches": True}
    assert rep["bounds"]["chain"] == [["E_inf", 6], ["E_2", 6], ["E_1", 30]]
    assert rep["bounds"]["first_page_bound"] == 30
    assert rep["twists"]["sequence"] == [[2, -1], [2, -1], [2, -1]]
    assert rep["twists"]["n_minus"] == 3
    assert rep["input"]["plat"] == {"cups": [[1, 2], [3, 4]], "caps": [[1, 2], [3, 4]]}
    assert rep["vertices"]["circle_counts"]["000"] == 2
    assert rep["vertices"]["weights"]["111"] == 0


def test_unknot_report():
    rep = run(strands=2, word="")
    assert rep["e1"]["total"] == 2
    assert rep["e2"]["total"] == 2
    assert rep["determinant"]["value"] == 1
    assert rep["stabilization"] == 1


def test_aux_unknot_doubles():
    rep = run(strands=4, word="s2 s2 s2", aux_unknot=True)
    assert rep["e2"]["total"] == 12
    assert rep["determinant"]["value"] == 3  # of the base word
    assert rep["determinant"]["expected_e2"] == 12
    assert rep["determinant"]["e2_matches"] is True


def test_mirror_flag():
    rep = run(strands=4, word="s2 s2 s2", use_mirror=True)
    assert rep["e2"]["total"] == 6
    assert rep["twists"]["n_minus"] == 0  # mirrored letters give positive twists


def test_split_word_report():
    rep = run(strands=4, word="")
    assert rep["determinant"] == {
        "value": 0,
        "split": True,
        "expected_e2": None,
        "e2_matches": None,
    }
    assert rep["e2"]["total"] == 4  # two free circles


def test_max_page_truncation():
    rep = run(strands=4, word="s2 s2 s2", max_page=1)
    assert [p["r"] for p in rep["pages"]] == [1]
    assert rep["stabilization"] == 2
    assert rep["e_infinity"]["determined"] is False
    assert rep["e_infinity"]["total"] is None


def test_report_fields_are_documented():
    schema = json.loads((REPO / "report_schema.json").read_text())
    rep = run(strands=4, word="s2 s2")
    assert set(rep) == set(schema["fields"])
    assert set(rep["determinant"]) == set(schema["fields"]["determinant"])
    assert set(rep["input"]) == set(schema["fields"]["input"])


# -- output channels --------------------------------------------------


def test_json_reproducible(capsys):
    code1, out1, err1 = invoke([*TREFOIL, "--json"], capsys)
    code2, out2, err2 = invoke([*TREFOIL, "--json"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-for-byte
    rep = json.loads(out1)
    assert rep["e2"]["total"] == 6
    # timing never contaminates the report stream
    assert "elapsed" not in out1 and "elapsed" in err1


def test_text_output(capsys):
    code, out, err = invoke(TREFOIL, capsys)
    assert code == 0
    assert "E_1: total 30" in out
    assert "E_2: total 6" in out
    assert "determinant: 3" in out
    assert "stabilization: E_2" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["--strands", "4", "--word", "s2"],
        TREFOIL,
        TREFOIL + ["--pages"],
        TREFOIL + ["--max-page", "1"],
        ["--strands", "6", "--word", "s1 s3 s2^-1 s4", "--pages"],
        ["--strands", "4", "--word", ""],
    ],
)
def test_text_bound_chain_reads_upward(argv, capsys):
    """The printed chain is a true chain of inequalities: from E_inf out to E_1."""
    code, out, _ = invoke(argv, capsys)
    assert code == 0
    (line,) = [ln for ln in out.splitlines() if ln.startswith("bound chain: ")]
    links = line.removeprefix("bound chain: ").split(" <= ")
    totals = [int(link.split(":")[1]) for link in links]
    assert links[-1].startswith("E_1:")
    assert all(a <= b for a, b in zip(totals, totals[1:])), line
    if argv[3] == "s2":
        assert line == "bound chain: E_inf:2 <= E_2:2 <= E_1:6"


def test_selftest(capsys):
    code, out, err = invoke(["--selftest", "--seed", "1"], capsys)
    assert code == 0
    assert "selftest" in out


def test_selftest_compares_derived_ranks(monkeypatch, capsys):
    """--selftest ranks the whole stored (1, w) blocks and fails when the
    d_1 ranks read off the reduced half disagree with them."""
    import platcube.cli as cli
    from platcube.f2linalg import rank

    monkeypatch.setattr(cli, "rank", lambda m: rank(m) + 1)
    code, out, err = invoke(["--selftest", "--seed", "1"], capsys)
    assert code == 2
    assert err.startswith("selftest FAILED: word ") and "d_1 ranks" in err
    assert "random words checked" not in out


def test_page_invariant_is_a_consistency_failure(monkeypatch, capsys):
    """A d_r rank beyond its pages exits 2 with a consistency failure line."""
    from platcube import specseq

    # cycle dimensions that grow with the window would give d_1 a negative rank
    monkeypatch.setattr(specseq, "_cycle_dims", lambda fc: lambda w, r: fc.low_index(w + r))
    code, out, err = invoke(["--strands", "4", "--word", "s2 s2"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("consistency failure: d_1 at weight -2 has rank -4")


# -- exit code 1: input errors ----------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["--strands", "5", "--word", ""],
        ["--strands", "4", "--word", "s9"],
        ["--strands", "4", "--word", "q2"],
        ["--word", "s2 s2"],  # no --strands
        ["--strands", "4", "--word", "s2", "--plat", "1-2/3-4"],
        ["--strands", "4", "--word", "s2", "--plat", "1-2,3-4/1-3,2-4"],
        ["--strands", "4", "--word", "s2", "--higher-maps", "/no/such/file"],
        ["--strands", "4", "--word", "s2 s2", "--max-page", "0"],
    ],
)
def test_input_errors(argv, capsys):
    code, out, err = invoke(argv, capsys)
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("value", ["0", "-1"])
def test_max_page_is_checked_first(value, monkeypatch, capsys):
    """The flag is named in the error, and nothing is built before the check."""
    from platcube import cli

    def refuse(*args, **kwargs):
        raise AssertionError("the input was parsed")

    monkeypatch.setattr(cli, "parse_braid_word", refuse)
    code, out, err = invoke(["--strands", "4", "--word", "s2 s2", "--max-page", value], capsys)
    assert (code, out, err) == (1, "", "error: --max-page must be at least 1\n")


def test_many_strand_cube_fails_fast(monkeypatch, capsys):
    """16 twists on one circle of 40 strands leave 19 circles untouched, and a
    --plat closure of 400 strands 199: at least 2^(16 + F + 1) generators,
    refused before any vertex is resolved."""

    def refuse(*args, **kwargs):
        raise AssertionError("a vertex was resolved")

    monkeypatch.setattr("platcube.cube.CubeVertex", refuse)
    word = " ".join(["s1"] * 16)
    pairs = ",".join(f"{i}-{i + 1}" for i in range(1, 400, 2))
    for argv, least in (
        (["--strands", "40", "--word", word], 36),
        (["--strands", "400", "--word", word, "--plat", f"{pairs}/{pairs}"], 216),
    ):
        started = time.monotonic()
        code, out, err = invoke(argv, capsys)
        assert time.monotonic() - started < 1.0
        assert code == 1 and out == ""
        assert err.startswith(f"error: {argv[1]} strands and 16 twists give at least 2^{least} generators")


def test_huge_word_fails_fast(capsys):
    """A 40-twist cube would never finish; it is refused before it is built."""
    started = time.monotonic()
    code, out, err = invoke(["--strands", "4", "--word", " ".join(["s2"] * 40)], capsys)
    assert time.monotonic() - started < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error: 40 twists exceed the limit of 16")


def test_oversized_block_fails_fast(monkeypatch, capsys):
    """One twist on 32 strands needs a 1 GiB dense block; nothing is allocated."""
    from platcube.f2linalg import F2Matrix

    def refuse(self, *args):
        raise AssertionError("an F2Matrix was built")

    monkeypatch.setattr(F2Matrix, "__init__", refuse)
    started = time.monotonic()
    code, out, err = invoke(["--strands", "32", "--word", "s1"], capsys)
    assert time.monotonic() - started < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error: the differential block out of weight -1 needs 1024 MiB")


def test_absurd_strand_count_fails_fast(monkeypatch, capsys):
    """The standard closure of 10^9 strands is refused from the count alone.

    Every vertex keeps at least strands/2 - N circles, so 2^(strands/2 - N)
    generators; a --plat closure is refused by the assembly guard instead.
    """
    import numpy as np

    from platcube.tangle import PlatClosure

    code, out, err = invoke(["--strands", "40", "--word", "", "--json"], capsys)
    assert code == 0 and json.loads(out)["e2"]["total"] == 2**20  # 2^20 generators still run

    def refuse(*args, **kwargs):
        raise AssertionError("the closure or an array was built")

    monkeypatch.setattr(PlatClosure, "standard", refuse)
    for name in ("arange", "cumsum", "repeat", "unique", "zeros"):
        monkeypatch.setattr(np, name, refuse)
    for strands, least in (("1000000000", 500000000), ("64", 32)):
        code, out, err = invoke(["--strands", strands, "--word", ""], capsys)
        assert code == 1 and out == ""
        assert err == f"error: {strands} strands and 0 twists give at least 2^{least} generators, over the limit of 512 MiB per array\n"
    code, out, err = invoke(["--strands", "60", "--word", "s2 s2 s2"], capsys)
    assert code == 1 and err.startswith("error: 60 strands and 3 twists give at least 2^27")
    pairs = ",".join(f"{i}-{i + 1}" for i in range(1, 64, 2))
    code, out, err = invoke(["--strands", "64", "--word", "", "--plat", f"{pairs}/{pairs}"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: the arrays of 4294967296 generators need 131072 MiB")


def test_memory_error_is_an_input_error(monkeypatch, capsys):
    from platcube import cli

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 256. GiB")

    monkeypatch.setattr(cli, "assemble_complex", exhausted)
    code, out, err = invoke(TREFOIL, capsys)
    assert (code, out) == (1, "")
    assert err == "error: out of memory: Unable to allocate 256. GiB\n"


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from(["2", "4", "6"]),
    st.text(alphabet="s123456^-1 ,/\t", max_size=24),
    st.none() | st.text(alphabet="123456-,/ x", max_size=24),
)
def test_parser_fuzz_never_tracebacks(strands, word, plat):
    """Arbitrary short --word/--plat strings end in an exit code, never a traceback."""
    argv = ["--strands", strands, "--word", word, "--json"]
    if plat is not None:
        argv += ["--plat", plat]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a value that looks like a flag
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


# -- higher-map tables ------------------------------------------------


def write_table(tmp_path, text):
    path = tmp_path / "maps.txt"
    path.write_text(text)
    return str(path)


def test_higher_maps_accepted(tmp_path, capsys):
    # "s2 s2" spreads two weights; a bottom-to-top block always loads
    table = "\n".join(
        ["# one shift-2 block", "2 00 11", "1000"] + ["0000"] * 3
    )
    path = write_table(tmp_path, table)
    code, out, err = invoke(
        ["--strands", "4", "--word", "s2 s2", "--higher-maps", path, "--pages", "--json"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert [p["r"] for p in rep["pages"]] == [1, 2, 3]
    assert rep["stabilization"] is not None
    assert rep["e_infinity"]["determined"] is True


def test_higher_maps_d2_failure_dumps_witness(tmp_path, capsys):
    # mid-filtration arrow on a spread-3 word: breaks D^2
    table = "2 000 110\n1000\n0000\n0000\n0000\n"
    path = write_table(tmp_path, table)
    code, out, err = invoke([*TREFOIL, "--higher-maps", path], capsys)
    assert code == 2
    assert "consistency failure" in err
    assert "witness generator:" in err
    assert "witness image generators:" in err
    assert out == ""


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("2 00", "ended early"),
        ("2 000 11", "binary digits"),
        ("x 00 11", "bad shift token"),
        # shifts int() would read as 2, 2 and 10: only ASCII digits are a shift
        ("\u0662 00 11" + " 0000" * 4, "bad shift token '\u0662'"),
        ("+2 00 11" + " 0000" * 4, "bad shift token '+2'"),
        ("1_0 00 11" + " 0000" * 4, "bad shift token '1_0'"),
        ("3 00 11" + " 0000" * 8, "shifts weight by 2, not 3"),
        ("2 00 11 0000", "ended early"),
        ("2 00 11 00001" + " 0000" * 7, "binary digits"),
        ("2 00 11 0000 00001", "row '00001' is not 4 binary digits"),  # before the early end
        ("1 00 01 0000 0000", ">= 2"),  # parses, then the loader rejects r=1
    ],
)
def test_higher_maps_parse_errors(text, fragment, tmp_path, capsys):
    word = "s2 s2 s2" if "000" in text.split()[1:3] else "s2 s2"
    strands_word = ["--strands", "4", "--word", word]
    path = write_table(tmp_path, text)
    code, out, err = invoke([*strands_word, "--higher-maps", path], capsys)
    assert code == 1
    assert fragment in err


def test_higher_maps_comments_and_spacing(tmp_path, capsys):
    messy = """
    # comment line
    2   00   11   # trailing comment
    0000 0000
      0000
    0000
    """
    path = write_table(tmp_path, messy)
    code, out, err = invoke(["--strands", "4", "--word", "s2 s2", "--higher-maps", path], capsys)
    assert code == 0  # an all-zero block is a no-op


def test_higher_maps_rows_are_ascii_binary():
    """A row is checked before the table's end is, and a digit outside ASCII
    is not a binary digit, in a row or a bitstring."""
    cc = assemble_complex(build_cube(braid_to_twists(parse_braid_word("s2 s2", 4)), 4))
    for row in ("00001", "0020", "00\u0661\u0660", "\uff10000", "00\u00b90"):
        with pytest.raises(ValueError, match=f"row {row!r} is not 4 binary digits"):
            parse_higher_maps_text(f"2 00 11 0000 {row}", cc)
        with pytest.raises(ValueError, match=f"row {row!r} is not 4 binary digits"):
            parse_higher_maps_text(f"2 00 11 {row} 0000 0000 0000", cc)
    with pytest.raises(ValueError, match="ended early: expected row 2 of block 00->11"):
        parse_higher_maps_text("2 00 11 0000 0001", cc)
    with pytest.raises(ValueError, match="source bitstring '0\u0660' is not 2 binary digits"):
        parse_higher_maps_text("2 0\u0660 11 0000 0000 0000 0000", cc)


def test_table_blocks_match_per_character_oracle(monkeypatch):
    """parse_higher_maps_text gives the blocks of a per-character reading on
    the benchmark's 50 higher-maps tables, also with every record given twice
    (each block cancels to zero) and with the first record repeated."""
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import workloads

    items, files, _ = workloads.higher_maps(workloads.DEFAULT_SEED)
    assert len(items) == 50
    for item in items:
        argv = item.argv
        strands, word = int(argv[argv.index("--strands") + 1]), argv[argv.index("--word") + 1]
        text = files[argv[argv.index("--higher-maps") + 1]]
        layout, _, _ = workloads._cube_complex(strands, word)
        cc = assemble_complex(build_cube(braid_to_twists(parse_braid_word(word, strands)), strands))
        lines = text.splitlines()
        first = next((i for i in range(1, len(lines)) if " " in lines[i]), len(lines))
        for table in (text, text + text, text + "\n".join(lines[:first]) + "\n"):
            blocks = parse_higher_maps_text(table, cc)
            want = naive_table_blocks(table, layout)
            assert blocks.keys() == want.keys(), item.name
            for key, block in blocks.items():
                assert np.array_equal(block.to_matrix().to_dense(), want[key]), (item.name, key)


def _vertex_table(strands, word):
    """(bitstring, weight, dim) of every vertex of the word's cube."""
    from platcube.cube import braid_to_twists, build_cube
    from platcube.tangle import parse_braid_word

    cube = build_cube(braid_to_twists(parse_braid_word(word, strands)), strands)
    return [(cube.bitstring(v), cube.weight(v), 1 << cube.circle_count(v)) for v in sorted(cube.vertices)]


FUZZ_WORDS = [(4, "s2 s2"), (4, "s2 s2 s2"), (4, "s2 s1^-1 s2")]
FUZZ_VERTICES = {word: _vertex_table(strands, word) for strands, word in FUZZ_WORDS}


@st.composite
def higher_maps_tables(draw):
    """A word and a table of structurally valid records, some slightly off.

    Bitstrings name real vertices; the shift, the row count or the row
    width may be one off; entries are random; comments and blank space are
    strewn in.
    """
    strands, word = draw(st.sampled_from(FUZZ_WORDS))
    vertices = FUZZ_VERTICES[word]
    # mostly a pair that a shift >= 2 block may join
    raising = [(a, b) for a in vertices for b in vertices if b[1] >= a[1] + 2]
    any_pair = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        pair = draw(st.sampled_from([st.sampled_from(raising)] * 3 + [any_pair]))
        (src_bits, src_w, src_dim), (tgt_bits, tgt_w, tgt_dim) = draw(pair)
        # at most one of shift, row count and width is one off
        slip = draw(st.sampled_from([None, None, None, "shift", "rows", "cols"]))
        off = {slip: draw(st.sampled_from([1, -1]))}
        shift = tgt_w - src_w + off.get("shift", 0)
        rows, cols = tgt_dim + off.get("rows", 0), src_dim + off.get("cols", 0)
        lines.append(f"{shift} {src_bits}  {tgt_bits}" + draw(st.sampled_from(["", " # block", "\t"])))
        for _ in range(rows):
            bits = draw(st.lists(st.sampled_from("0001"), min_size=cols, max_size=cols))
            lines.append("".join(bits) + draw(st.sampled_from(["", "  ", " # row"])))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# comment", "   "])))
    return strands, word, "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n  "]))


@settings(deadline=None, max_examples=150)
@given(higher_maps_tables())
def test_higher_maps_fuzz_never_tracebacks(case):
    """Near-valid tables end in an exit code, never a traceback; accepted ones run the pages."""
    strands, word, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "maps.txt")
        with open(path, "w") as fh:
            fh.write(text)
        argv = ["--strands", str(strands), "--word", word, "--higher-maps", path, "--pages", "--json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (text, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["stabilization"] is not None


# -- console entry point ----------------------------------------------


def declared_entry_point():
    """The `platcube` target declared in `[project.scripts]` of pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["scripts"]["platcube"]


def test_console_script_runs():
    # Run the declared target in a fresh interpreter the way pip's generated
    # `platcube` wrapper does, so no install is needed.  The child imports the
    # same copy of the package as this test process.
    module, _, func = declared_entry_point().partition(":")
    wrapper = f'import sys; sys.argv[0] = "platcube"; from {module} import {func}; sys.exit({func}())'
    env = dict(os.environ)
    package_root = str(Path(platcube.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, *TREFOIL, "--json"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["e2"]["total"] == 6


# A run whose arrays raise glibc's mmap threshold: without malloc_trim the
# process keeps ~14 MB of freed heap after it, with it ~2 MB.
_HELD_AFTER_RUN = """
import contextlib, io, sys
from platcube.cli import main

def rss_mb():
    with open("/proc/self/status") as f:
        return next(int(l.split()[1]) for l in f if l.startswith("VmRSS:")) / 1024

def quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0

quiet(["--strands", "4", "--word", "s2 s2 s2"])
before = rss_mb()
quiet(["--strands", "6", "--word", "s1 s3 s5 s2 s4 s1 s3 s5", "--json"])
print(rss_mb() - before)
"""


def test_main_returns_freed_memory():
    from platcube import cli

    if cli._malloc_trim is None or not Path("/proc/self/status").is_file():
        pytest.skip("needs glibc's malloc_trim and /proc")
    env = dict(os.environ)
    package_root = str(Path(platcube.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _HELD_AFTER_RUN], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 5.0
