"""Untimed correctness checks for the end-to-end benchmark.

Exported CSVs are compared cell by cell with the CSVs the reference
tuple-at-a-time chase exported for the same input; a query's printed
roll-up is compared with the same roll-up recomputed from the reference
CSV.  Only the standard library is used, so checking in the benchmark
parent warms none of the program's caches.  The reference is exported
by the program's own CSV writer, so the checks cover computation,
routing, incremental update and persistence, not the writer itself.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Dict, List, Tuple

#: tolerance for exported measures: backends may fold sums in another
#: order than the reference chase
CELL_REL_TOL = 1e-9
CELL_ABS_TOL = 1e-9
#: ``exl query`` prints measures with 6 significant digits
QUERY_REL_TOL = 1e-5

Cells = Dict[Tuple[str, ...], float]


def parse_cells(text: str) -> Cells:
    """A CSV text's cells: dimension texts -> measure."""
    rows = csv.reader(text.splitlines())
    next(rows)
    return {tuple(row[:-1]): float(row[-1]) for row in rows if row}


def read_cells(path: Path) -> Cells:
    return parse_cells(path.read_text())


def compare_cells(actual: Cells, expected: Cells, what: str) -> List[str]:
    problems = []
    missing = expected.keys() - actual.keys()
    extra = actual.keys() - expected.keys()
    if missing:
        problems.append(f"{what}: {len(missing)} cells missing, e.g. {min(missing)}")
    if extra:
        problems.append(f"{what}: {len(extra)} unexpected cells, e.g. {min(extra)}")
    for key in sorted(expected.keys() & actual.keys()):
        a, e = actual[key], expected[key]
        if math.isnan(e) and math.isnan(a):
            continue
        if not math.isclose(a, e, rel_tol=CELL_REL_TOL, abs_tol=CELL_ABS_TOL):
            problems.append(f"{what}: cell {key} is {a!r}, reference {e!r}")
            break
    return problems


def compare_outputs(out_dir: Path, ref_texts: Dict[str, str]) -> List[str]:
    """Every exported cube of ``out_dir`` against its reference CSV text.

    References are kept as text, which the garbage collector does not
    track, so the benchmark parent's heap stays small for the children
    it forks.  A byte-identical export passes without parsing.
    """
    problems = []
    for name, text in ref_texts.items():
        path = out_dir / f"{name}.csv"
        if not path.exists():
            problems.append(f"{name}.csv was not exported")
            continue
        exported = path.read_text()
        if exported != text:
            problems.extend(compare_cells(
                parse_cells(exported), parse_cells(text), f"{name}.csv"))
    return problems


def recompute_rollup(path: Path, keep: Dict[str, str]) -> Cells:
    """Sum a CSV's measure over every dimension not in ``keep``.

    ``keep`` maps a kept dimension to ``"base"`` or, for a time
    dimension, ``"year"`` (the first four characters of its text).
    """
    with open(path, newline="") as handle:
        rows = csv.reader(handle)
        header = next(rows)
        slots = [(header.index(dim), level) for dim, level in keep.items()]
        sums: Cells = {}
        for row in rows:
            if not row:
                continue
            key = tuple(
                row[i][:4] if level == "year" else row[i] for i, level in slots
            )
            sums[key] = sums.get(key, 0.0) + float(row[-1])
    return sums


def parse_rollup(text: str) -> Cells:
    """The rows of a printed roll-up table: key columns, then the measure.

    Raises ``ValueError`` on a line that is not a table row.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    dashes = next(i for i, line in enumerate(lines) if set(line) <= {"-", " "})
    answer: Cells = {}
    for line in lines[dashes + 1:]:
        parts = line.split()
        answer[tuple(parts[:-1])] = float(parts[-1])
    return answer


def compare_query(text: str, expected: Cells) -> List[str]:
    try:
        answer = parse_rollup(text)
    except (StopIteration, ValueError, IndexError) as exc:
        return [f"query answer unreadable: {exc!r}"]
    problems = []
    if answer.keys() != expected.keys():
        problems.append(
            f"query answer groups {sorted(answer)[:3]}... differ from "
            f"recomputed {sorted(expected)[:3]}..."
        )
        return problems
    for key, value in expected.items():
        if not math.isclose(answer[key], value, rel_tol=QUERY_REL_TOL):
            problems.append(
                f"query group {key} is {answer[key]!r}, recomputed {value!r}")
            break
    return problems


def self_test(out_dir: Path, ref_texts: Dict[str, str], query_text: str,
              expected_query: Cells) -> List[str]:
    """Show the checks catch damage: one cell and one query line.

    Called with a session's correct outputs; returns the checks that
    failed to flag the damaged copy (empty when both were caught).
    """
    failures = []
    name = next(iter(ref_texts))
    cells = read_cells(out_dir / f"{name}.csv")
    key = sorted(cells)[len(cells) // 2]
    cells[key] = cells[key] * (1 + 1e-6) + 1e-6
    if not compare_cells(cells, parse_cells(ref_texts[name]), f"{name}.csv"):
        failures.append(f"a damaged cell {key} of {name}.csv went unnoticed")
    lines = query_text.splitlines()
    row = len(lines) - 1
    parts = lines[row].split()
    wrong = float(parts[-1]) * 1.001 + 1.0
    lines[row] = lines[row].replace(parts[-1], f"{wrong:.6g}")
    if not compare_query("\n".join(lines), expected_query):
        failures.append(f"a wrong query line {lines[row]!r} went unnoticed")
    return failures
