"""Seeded project generators for the end-to-end benchmark.

Each workload is an ``exl`` project directory: ``project.json``, the
input CSV, a seeded 1% revision of it, and a reference project that
pins every derived cube to the tuple-at-a-time chase.  Generation uses
``repro`` itself (``random_cube``, ``write_cube_csv``), so it must run
in a forked child: the benchmark parent only imports ``repro.cli`` and
keeps every program cache cold for the timed commands.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

#: the ROADMAP program over the panel S(m, r)
PANEL_PROGRAM = [
    ("A", "A := S * 2 + 1"),
    ("B", "B := A + S"),
    ("C", "C := (B - A) * 100 / B"),
    ("Q", "Q := avg(C, group by quarter(m) as q, r)"),
    ("T", "T := sum(Q, group by q)"),
]
#: panel size: 40 months x 60 regions = 2.4k cells, small enough that a
#: 35 s run holds about ten sessions, so that run medians are steady on
#: a shared host, and large enough that per-cell work dominates
PANEL_MONTHS = 40
PANEL_REGIONS = 60

#: series-mix: BASE(m, u) of 300 months x 20 units = 6k cells
SERIES_MONTHS = 300
SERIES_UNITS = 20
SERIES_CHAIN = 24
SERIES_TARGETS = ["r", "matlab", "etl", "sql", "chase"]

#: share of input cells a revision rewrites
REVISION_SHARE = 0.01

WORKLOADS = ("panel-chase", "panel-sql", "series-mix")


def _series_program() -> List[tuple]:
    """W (one wide group-by) plus a chain of SERIES_CHAIN statements."""
    statements = [
        ("W", "W := avg(BASE, group by year(m) as y, u)"),
        ("C1", "C1 := sum(BASE, group by m)"),
    ]
    for i in range(2, SERIES_CHAIN + 1):
        prev = f"C{i - 1}"
        step = i % 5
        if step == 0:
            text = f"C{i} := ma({prev}, 3)"
        elif step == 1:
            text = f"C{i} := cumsum({prev}) / 100"
        elif step == 2:
            text = f"C{i} := {prev} - shift({prev}, 1)"
        elif step == 3:
            text = f"C{i} := stl_t({prev})"
        else:
            text = f"C{i} := {prev} * 0.5 + C1"
        statements.append((f"C{i}", text))
    return statements


def program_for(workload: str) -> List[tuple]:
    if workload == "series-mix":
        return _series_program()
    return list(PANEL_PROGRAM)


def query_for(workload: str) -> Dict[str, object]:
    """The ``exl query`` the sessions ask, and how to recompute it.

    ``keep`` maps each dimension the roll-up keeps to the level it is
    kept at (see :func:`check.recompute_rollup`); every other dimension
    is summed out (level ``all``).
    """
    if workload == "series-mix":
        return {"cube": "W", "levels": "u=all", "keep": {"y": "base"}}
    return {"cube": "C", "levels": "m=year,r=all", "keep": {"m": "year"}}


def _targets(workload: str, names: List[str]) -> Dict[str, str]:
    if workload == "panel-chase":
        return {name: "chase" for name in names}
    if workload == "series-mix":
        return {
            name: SERIES_TARGETS[i % len(SERIES_TARGETS)]
            for i, name in enumerate(names)
        }
    return {}  # panel-sql: default routing, which sends every cube to sql


def generate(workload: str, seed: int, directory: Path) -> None:
    """Write the project, its revision and its reference project.

    Files written under ``directory``: ``input.csv`` (pristine input),
    ``revised.csv`` (the same cells with 1% of measures rewritten),
    ``project.json`` (reads ``data.csv``, the session's live copy) and
    ``reference.json`` (same program, every cube on ``chase``).
    """
    import numpy as np

    from repro.model import CubeSchema, Dimension
    from repro.model.io import write_cube_csv
    from repro.model.time import Frequency, month
    from repro.model.types import STRING, TIME
    from repro.workloads.datagen import random_cube

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "series-mix":
        name, member_dim, measure = "BASE", "u", "v"
        n_months, n_members = SERIES_MONTHS, SERIES_UNITS
        labels = [f"u{k:02d}" for k in range(n_members)]
    else:
        name, member_dim, measure = "S", "r", "v"
        n_months, n_members = PANEL_MONTHS, PANEL_REGIONS
        labels = [f"r{k:03d}" for k in range(n_members)]
    schema = CubeSchema(
        name,
        [Dimension("m", TIME(Frequency.MONTH)), Dimension(member_dim, STRING)],
        measure,
    )
    start = month(1990, 1)
    domains = {"m": [start + i for i in range(n_months)], member_dim: labels}
    cube = random_cube(schema, domains, seed=seed)
    write_cube_csv(cube, directory / "input.csv")

    rng = np.random.default_rng([seed, 1])
    keys = sorted(cube.keys())
    picked = rng.choice(len(keys), size=max(1, int(len(keys) * REVISION_SHARE)),
                        replace=False)
    revised = cube.copy()
    for index in sorted(picked):
        revised.set(keys[index], float(rng.uniform(1.0, 100.0)), overwrite=True)
    write_cube_csv(revised, directory / "revised.csv")

    program = program_for(workload)
    names = [cube_name for cube_name, _ in program]
    spec = {
        "elementary": [{
            "name": name,
            "dimensions": [["m", "time:M"], [member_dim, "string"]],
            "measure": measure,
            "csv": "data.csv",
        }],
        "program": "\n".join(text for _, text in program),
        "outputs": names,
    }
    targets = _targets(workload, names)
    if targets:
        spec["preferred_targets"] = targets
    (directory / "project.json").write_text(json.dumps(spec, indent=1))
    spec["preferred_targets"] = {cube_name: "chase" for cube_name in names}
    (directory / "reference.json").write_text(json.dumps(spec, indent=1))
