"""Command-line front end: one run, one machine-checkable report.

The JSON report (--json) is byte-for-byte reproducible for identical
inputs: keys are sorted, no timestamps or host data appear on stdout,
and timing goes to stderr.  Field names are frozen in
report_schema.json at the repository root.

Exit codes: 0 success, 1 input error (an input too large to hold in
memory included), 2 internal consistency failure (a differential that
fails to square to zero, a non-commuting cube face, d_1 ranks read
off the reduced subcomplex that cannot be right, or page ranks that do
not fit their pages), the latter with a witness dump on stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import random
import sys
import time
from collections import Counter

import numpy as np

from .cube import MAX_BLOCK_BYTES, ConsistencyError, add_aux_unknot, braid_to_twists, build_cube
from .f2linalg import F2Matrix, rank
from .invariants import goeritz_data
from .specseq import HigherMapError, compute_pages, load_higher_maps, rank_bounds
from .tangle import BraidWord, PlatClosure, mirror, parse_braid_word, parse_plat
from .tqft import ChainComplexF2, assemble_complex

SCHEMA_VERSION = 1

# glibc raises its mmap threshold to the size of each large block it frees
# (up to 32 MiB), so after a big run the next runs' arrays come from the
# heap, and freed heap pages mostly stay mapped.  How much stays then
# depends on which runs came before, and with it the peak memory of a
# process that calls main() repeatedly.  malloc_trim(0) hands the free
# pages back; other C libraries have no such call and are left alone.
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="platcube",
        description="Resolution cube, filtered pages, and determinant cross-checks "
        "for plat-closed braid words.",
    )
    p.add_argument("--strands", type=int, help="number of strands (even)")
    p.add_argument("--word", default="", help="braid word, e.g. 's2 s1^-1 s2 s2'")
    p.add_argument("--plat", help="cups/caps pairing, 1-based: '1-2,3-4/1-2,3-4'")
    p.add_argument("--mirror", action="store_true", help="run on the mirror word")
    p.add_argument(
        "--aux-unknot", action="store_true", help="add two unlinked strands closed into a circle"
    )
    p.add_argument(
        "--pages", action="store_true", help="compute pages out to stabilization, not just E_2"
    )
    p.add_argument("--max-page", type=int, help="hard cap on the last page computed")
    p.add_argument("--higher-maps", metavar="FILE", help="external higher differential table")
    p.add_argument("--json", action="store_true", help="emit the canonical JSON report")
    p.add_argument("--seed", type=int, help="seed for --selftest")
    p.add_argument("--selftest", action="store_true", help="run randomized internal checks")
    return p


def parse_higher_maps_text(text: str, cc: ChainComplexF2) -> dict[tuple[int, int], F2Matrix]:
    """Parse the whitespace-delimited block table into weight blocks.

    Record: shift r, source and target vertex bitstrings, then one 0/1
    row string per target basis vector (leftmost character is column 0
    of the block).  '#' starts a comment running to end of line.  The
    result is keyed (r, source weight) like ``FilteredComplex.blocks``.
    """
    tokens = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    n_twists = cc.cube.n
    size = Counter(cc.filtered.weights)
    coords: dict[tuple[int, int], tuple[list[np.ndarray], list[np.ndarray]]] = {}
    pos = 0

    def ended(what: str) -> ValueError:
        return ValueError(f"higher-maps table ended early: expected {what}")

    def take(what: str) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ended(what)
        tok = tokens[pos]
        pos += 1
        return tok

    while pos < len(tokens):
        tok = take("a shift")
        try:
            r = int(tok)
        except ValueError:
            raise ValueError(f"higher-maps table: bad shift token {tok!r}") from None
        src_bits = take("a source bitstring")
        tgt_bits = take("a target bitstring")
        for name, bits in (("source", src_bits), ("target", tgt_bits)):
            if len(bits) != n_twists or set(bits) - {"0", "1"}:
                raise ValueError(
                    f"higher-maps table: {name} bitstring {bits!r} is not {n_twists} binary digits"
                )
        src = sum(1 << i for i, ch in enumerate(src_bits) if ch == "1")
        tgt = sum(1 << i for i, ch in enumerate(tgt_bits) if ch == "1")
        shift = cc.cube.weight(tgt) - cc.cube.weight(src)
        if shift != r:
            raise ValueError(
                f"higher-maps table: block {src_bits}->{tgt_bits} shifts weight by {shift}, not {r}"
            )
        rows = cc.spaces[tgt].dim
        cols = cc.spaces[src].dim
        block = tokens[pos : pos + rows]
        pos += rows
        for row in block:  # a bad row is reported before the table's end
            if len(row) != cols or row.strip("01"):
                raise ValueError(
                    f"higher-maps table: row {row!r} is not {cols} binary digits"
                )
        if len(block) < rows:
            raise ended(f"row {len(block)} of block {src_bits}->{tgt_bits}")
        ones = np.frombuffer("".join(block).encode("ascii"), dtype=np.uint8) == ord("1")
        q, p = np.divmod(np.flatnonzero(ones), cols)
        ri, ci = coords.setdefault((r, cc.cube.weight(src)), ([], []))
        ri.append(cc.offsets[tgt] + q)
        ci.append(cc.offsets[src] + p)
    return {
        (r, w): F2Matrix.from_coo(size[w + r], size[w], np.concatenate(ri), np.concatenate(ci))
        for (r, w), (ri, ci) in sorted(coords.items())
    }


def _per_weight(dims: dict[int, int]) -> dict[str, int]:
    return {str(w): dims[w] for w in sorted(dims)}


def _page_entry(page, r: int) -> dict:
    return {"r": r, "total": page.total, "per_weight": _per_weight(page.dims), "d_ranks": _per_weight(page.d_ranks)}


def _pairs_1based(pairs) -> list[list[int]]:
    return [[a + 1, b + 1] for a, b in pairs]


def run(
    strands: int,
    word: str = "",
    plat_text: str | None = None,
    use_mirror: bool = False,
    aux_unknot: bool = False,
    all_pages: bool = False,
    max_page: int | None = None,
    higher_maps_path: str | None = None,
    seed: int | None = None,
) -> dict:
    """Full pipeline for one word; returns the report dictionary."""
    if strands is None:
        raise ValueError("--strands is required")
    if max_page is not None and max_page < 1:
        raise ValueError("--max-page must be at least 1")
    b = parse_braid_word(word, strands)
    if use_mirror:
        b = mirror(b)
    # the standard closure has strands/2 circles, and each twist changes a count by one
    least = strands // 2 - len(b)
    if not plat_text and least >= (MAX_BLOCK_BYTES // 8).bit_length():  # 2^least int64s exceed it
        raise ValueError(
            f"{strands} strands and {len(b)} twists give at least 2^{least} generators, "
            f"over the limit of {MAX_BLOCK_BYTES >> 20} MiB per array"
        )
    plat = parse_plat(plat_text, strands) if plat_text else PlatClosure.standard(strands)
    if plat.strands != strands:
        raise ValueError("plat closure strand count does not match --strands")

    ts = braid_to_twists(b)
    if aux_unknot:
        eff_strands, eff_plat = add_aux_unknot(strands, plat)
    else:
        eff_strands, eff_plat = strands, plat
    cube = build_cube(ts, eff_strands, eff_plat, aux_unknot=aux_unknot)
    cc = assemble_complex(cube)
    fc = cc.to_filtered()

    if higher_maps_path is not None:
        with open(higher_maps_path) as fh:
            table = parse_higher_maps_text(fh.read(), cc)
        fc = load_higher_maps(fc, table)

    if all_pages:
        r_max = max_page
    else:
        r_max = min(2, max_page) if max_page is not None else 2
    pages = compute_pages(fc, r_max=r_max)
    bounds = rank_bounds(pages)

    gd = goeritz_data(b, plat)

    page_list = [_page_entry(page, page.r) for page in pages.pages]
    e1 = page_list[0]
    e2 = next((p for p in page_list if p["r"] == 2), None)
    inf_known = pages.stabilization is not None and pages.stabilization <= len(pages.pages)
    if e2 is None and inf_known:
        e2 = _page_entry(pages.page(2), 2)  # stabilization before page 2: E_2 replays the stable page

    e_inf = (
        {"total": pages.e_infinity_total, "per_weight": _per_weight(pages.e_infinity)}
        if inf_known
        else {"total": None, "per_weight": None}
    )
    e_inf["determined"] = inf_known

    if gd.is_split:
        expected = None
        match = None
    else:
        expected = 2 * gd.determinant * (2 if aux_unknot else 1)
        match = (e2["total"] == expected) if e2 is not None else None

    report = {
        "schema_version": SCHEMA_VERSION,
        "input": {
            "strands": strands,
            "word": word,
            "plat": {
                "cups": _pairs_1based(plat.cups),
                "caps": _pairs_1based(plat.caps),
            },
            "mirror": use_mirror,
            "aux_unknot": aux_unknot,
            "pages": all_pages,
            "max_page": max_page,
            "higher_maps": higher_maps_path,
            "seed": seed,
        },
        "twists": {
            "sequence": [[k, s] for k, s in ts.twists],
            "n_minus": ts.n_minus,
        },
        "vertices": {
            "count": len(cube.vertices),
            "total_dim": cc.filtered.n,
            "circle_counts": {cube.bitstring(v): cube.circle_count(v) for v in sorted(cube.vertices)},
            "weights": {cube.bitstring(v): cube.weight(v) for v in sorted(cube.vertices)},
        },
        "e1": e1,
        "e2": e2,
        "pages": page_list,
        "stabilization": pages.stabilization,
        "e_infinity": e_inf,
        "bounds": {
            "chain": [[name, total] for name, total in bounds.chain],
            "per_weight": {
                str(w): [[name, val] for name, val in chain]
                for w, chain in bounds.per_weight.items()
            },
            "first_page_bound": bounds.first_page_bound,
        },
        "determinant": {
            "value": gd.determinant,
            "split": gd.is_split,
            "expected_e2": expected,
            "e2_matches": match,
        },
    }
    return report


def selftest(seed: int | None) -> bool:
    """Random structural checks: faces, d^2, the d_1 ranks read off the
    reduced half against the ranks of the whole blocks, mirror symmetry of E_2."""
    rng = random.Random(0 if seed is None else seed)
    checked = 0
    for _ in range(12):
        strands = rng.choice([4, 6])
        length = rng.randint(1, 6)
        letters = tuple(
            (rng.randint(1, strands - 1), rng.choice([-1, 1])) for _ in range(length)
        )
        b = BraidWord(strands, letters)
        e2 = []
        for x in (b, mirror(b)):
            fc = assemble_complex(build_cube(braid_to_twists(x), strands)).to_filtered()
            pages = compute_pages(fc, r_max=2)
            full = {w: rank(fc.blocks[(1, w)]) if (1, w) in fc.blocks else 0 for w in fc.weight_values}
            if pages.page(1).d_ranks != full:
                print(
                    f"selftest FAILED: word {x.as_text()!r} has d_1 ranks {pages.page(1).d_ranks} "
                    f"but its blocks have ranks {full}",
                    file=sys.stderr,
                )
                return False
            e2.append(pages.total(2))
        if e2[0] != e2[1]:
            print(f"selftest FAILED: word {b.as_text()!r} has E_2 {e2[0]} but mirror has {e2[1]}", file=sys.stderr)
            return False
        checked += 1
    print(f"selftest: {checked} random words checked, all invariants hold")
    return True


def _emit_text(report: dict) -> None:
    det = report["determinant"]
    print(f"word: {report['input']['word']!r} on {report['input']['strands']} strands")
    print(
        f"twists: {len(report['twists']['sequence'])} (n_minus={report['twists']['n_minus']}), "
        f"vertices: {report['vertices']['count']}, total dim: {report['vertices']['total_dim']}"
    )
    for page in report["pages"]:
        pw = ", ".join(f"{w}:{d}" for w, d in page["per_weight"].items())
        print(f"E_{page['r']}: total {page['total']}  [{pw}]")
    print(f"stabilization: E_{report['stabilization']}" if report["stabilization"] else "stabilization: undetermined")
    chain = " <= ".join(f"{name}:{total}" for name, total in report["bounds"]["chain"])
    print(f"bound chain: {chain}")
    if det["split"]:
        print("determinant: 0 (split diagram)")
    else:
        extra = "" if det["e2_matches"] is None else f", E_2 match: {det['e2_matches']}"
        print(f"determinant: {det['value']} (expected E_2 {det['expected_e2']}{extra})")


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)

    if ns.selftest:
        return 0 if selftest(ns.seed) else 2

    started = time.monotonic()
    try:
        report = run(
            strands=ns.strands,
            word=ns.word,
            plat_text=ns.plat,
            use_mirror=ns.mirror,
            aux_unknot=ns.aux_unknot,
            all_pages=ns.pages,
            max_page=ns.max_page,
            higher_maps_path=ns.higher_maps,
            seed=ns.seed,
        )
    except HigherMapError as err:
        print(f"consistency failure: {err}", file=sys.stderr)
        if err.witness is not None:
            hits = [str(i) for i in range(err.image.bit_length()) if err.image >> i & 1]
            print(f"witness generator: {err.witness}", file=sys.stderr)
            print(f"witness image generators: {', '.join(hits)}", file=sys.stderr)
        return 2
    except ConsistencyError as err:
        print(f"consistency failure: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"error: out of memory{f': {err}' if str(err) else ''}", file=sys.stderr)
        return 1
    finally:
        if _malloc_trim is not None:
            _malloc_trim(0)  # the run's matrices are freed by now

    if ns.json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        _emit_text(report)
    print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
