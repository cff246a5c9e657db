"""The desk golden: the exact outcome of every desk row.

The desk is every row of the paper's tables t1..t10 at order 256 or
less, each run through ``run_method`` as ``matrixopt bench`` runs it.
``desk_golden.json`` holds, per row, its iteration count, termination,
residual-history length and final residual by ``float.hex``, plus every
field of a CARE row's certificate, or the class name of the error the
row raised.  A change to the order of any solver's arithmetic shows here
as a changed bit.

Run from the repository root::

    python tests/desk_golden.py            # re-run every row, print each difference
    python tests/desk_golden.py --record   # re-run every row and rewrite the golden

``test_desk_golden.py`` checks every row but the two slowest.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from matrixopt.errors import MatrixOptError  # noqa: E402
from matrixopt.harness.manifest import run_method  # noqa: E402
from matrixopt.problems import DESK_SCALE_MAX_ORDER, SUITE_IDS, paper_suite  # noqa: E402

GOLDEN_PATH = Path(__file__).with_name("desk_golden.json")


def desk_rows() -> dict:
    """Row id (``t8[6]-admm-n128``: table, index in it, method, order) ->
    suite row, for every desk row in catalogue order."""
    return {
        f"{table}[{index}]-{row.method}-n{row.source.order}": row
        for table in SUITE_IDS
        for index, row in enumerate(paper_suite(table))
        if row.source.order <= DESK_SCALE_MAX_ORDER
    }


def _bits(value):
    """A float by ``float.hex``; a string or None as it is."""
    return value if value is None or isinstance(value, str) else float(value).hex()


def outcome(row) -> dict:
    """The golden entry of one suite row, from a fresh run."""
    try:
        report = run_method(row.method, row.source.build(), row.params)
    except MatrixOptError as exc:
        return {"error": type(exc).__name__}
    entry = {
        "iterations": report.iterations,
        "termination": report.termination,
        "history": len(report.residual_history),
        "final_residual": _bits(report.final_residual),
    }
    if "certificate" in report.detail:
        entry["certificate"] = {k: _bits(v) for k, v in report.detail["certificate"].items()}
    return entry


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def differences(golden: dict, got: dict) -> list[str]:
    """One line per row missing from either side and per field that differs."""
    lines = [f"{row_id}: not in the golden" for row_id in got.keys() - golden.keys()]
    lines += [f"{row_id}: not run" for row_id in golden.keys() - got.keys()]
    for row_id in golden.keys() & got.keys():
        want, have = golden[row_id], got[row_id]
        for key in dict.fromkeys([*want, *have]):
            if want.get(key) != have.get(key):
                lines.append(f"{row_id} {key}: {want.get(key)!r} -> {have.get(key)!r}")
    return sorted(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true", help="rewrite the golden from this run")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    got = {row_id: outcome(row) for row_id, row in desk_rows().items()}
    seconds = time.perf_counter() - start
    if args.record:
        GOLDEN_PATH.write_text(json.dumps(got, indent=1) + "\n")
        print(f"recorded {len(got)} rows in {seconds:.1f} s to {GOLDEN_PATH}")
        return 0
    lines = differences(load_golden(), got)
    for line in lines:
        print(line)
    print(f"{len(got)} rows run in {seconds:.1f} s; {len(lines)} differences from the golden")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
