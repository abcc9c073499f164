"""The per-layer metrics of the traced run, and what each should move.

A per-layer metric is named ``<command>.<layer>.<quantity>``; the layer
is the ``repro`` module (``.`` -> ``_``) whose entry points
:mod:`spans` wraps.  ``PREDICTIONS`` records, before any optimisation
is measured, which end-to-end metric a change to the layer should move
on which workload, and where it should stay flat.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

COMMANDS = ("run", "update_rev", "update_noop", "query_cold", "query_warm")

#: layer -> (quantity, unit, better)
LAYERS: Dict[str, List[Tuple[str, str, str]]] = {
    "model_io": [("self_s", "s", "lower"), ("rows_parsed", "count", "lower"),
                 ("bytes_serialized", "bytes", "lower")],
    "model_cube": [("self_s", "s", "lower")],
    "exl": [("self_s", "s", "lower")],
    "mappings": [("self_s", "s", "lower")],
    "engine_determination": [("self_s", "s", "lower"), ("subgraphs", "count", "lower")],
    "engine_translation": [("self_s", "s", "lower")],
    "engine_dispatcher": [("self_s", "s", "lower")],
    "backends_chase": [("self_s", "s", "lower"), ("calls", "count", "lower"),
                       ("delta_full_ratio", "ratio", "lower")],
    "backends_sql": [("self_s", "s", "lower")],
    "backends_r": [("self_s", "s", "lower")],
    "backends_matlab": [("self_s", "s", "lower")],
    "backends_etl": [("self_s", "s", "lower")],
    "engine_journal": [("self_s", "s", "lower"), ("records", "count", "lower")],
    "chase_atomic": [("self_s", "s", "lower"), ("files", "count", "lower"),
                     ("bytes", "bytes", "lower")],
    "chase_persist": [("self_s", "s", "lower"), ("attach_hits", "count", "higher")],
    "olap": [("self_s", "s", "lower"), ("lattice_builds", "count", "lower")],
    "cli": [("self_s", "s", "lower")],
}

#: per-command quantities that are not a layer's
COMMAND_QUANTITIES = [("coverage", "ratio", "higher"),
                      ("trace_overhead", "ratio", "lower")]

#: metrics measured zero on every workload (no journal or backend in a
#: query, no olap in a run or update, no dispatch in a no-op update);
#: left out so that the list stays within 128 names
ZERO_EVERYWHERE = frozenset({
    "run.backends_chase.delta_full_ratio",
    "run.chase_persist.attach_hits",
    "run.olap.self_s",
    "run.olap.lattice_builds",
    "update_rev.olap.self_s",
    "update_rev.olap.lattice_builds",
    "update_noop.mappings.self_s",
    "update_noop.engine_determination.subgraphs",
    "update_noop.engine_translation.self_s",
    "update_noop.backends_chase.self_s",
    "update_noop.backends_chase.calls",
    "update_noop.backends_chase.delta_full_ratio",
    "update_noop.backends_sql.self_s",
    "update_noop.backends_r.self_s",
    "update_noop.backends_matlab.self_s",
    "update_noop.backends_etl.self_s",
    "update_noop.olap.self_s",
    "update_noop.olap.lattice_builds",
    "query_cold.model_io.bytes_serialized",
    "query_cold.mappings.self_s",
    "query_cold.engine_determination.self_s",
    "query_cold.engine_determination.subgraphs",
    "query_cold.engine_translation.self_s",
    "query_cold.engine_dispatcher.self_s",
    "query_cold.backends_chase.self_s",
    "query_cold.backends_chase.calls",
    "query_cold.backends_chase.delta_full_ratio",
    "query_cold.backends_sql.self_s",
    "query_cold.backends_r.self_s",
    "query_cold.backends_matlab.self_s",
    "query_cold.backends_etl.self_s",
    "query_cold.engine_journal.self_s",
    "query_cold.engine_journal.records",
    "query_warm.model_io.bytes_serialized",
    "query_warm.mappings.self_s",
    "query_warm.engine_determination.self_s",
    "query_warm.engine_determination.subgraphs",
    "query_warm.engine_translation.self_s",
    "query_warm.engine_dispatcher.self_s",
    "query_warm.backends_chase.self_s",
    "query_warm.backends_chase.calls",
    "query_warm.backends_chase.delta_full_ratio",
    "query_warm.backends_sql.self_s",
    "query_warm.backends_r.self_s",
    "query_warm.backends_matlab.self_s",
    "query_warm.backends_etl.self_s",
    "query_warm.engine_journal.self_s",
    "query_warm.engine_journal.records",
    "query_warm.chase_atomic.self_s",
    "query_warm.chase_atomic.files",
    "query_warm.chase_atomic.bytes",
    "query_warm.olap.lattice_builds",
})

#: layer -> (what it should move, where it should stay flat)
PREDICTIONS: Dict[str, Tuple[str, str]] = {
    "model_io": ("run_cold_s, update_* and query_* on panel-chase and panel-sql",
                 "little on series-mix"),
    "model_cube": ("run_cold_s and update_rev_s on panel-chase",
                   "panel-sql and series-mix"),
    "exl": ("every command on series-mix (long program)", "the panels"),
    "mappings": ("every command on series-mix (long program)", "the panels"),
    "engine_determination": ("run_cold_s on series-mix", "the panels"),
    "engine_translation": ("run_cold_s on series-mix", "the panels"),
    "engine_dispatcher": ("run_cold_s on series-mix and panel-chase", "panel-sql"),
    "backends_chase": ("run_cold_s and update_rev_s on panel-chase",
                       "zero on panel-sql"),
    "backends_sql": ("run_cold_s and update_rev_s on panel-sql",
                     "zero on panel-chase"),
    "backends_r": ("run_cold_s on series-mix", "zero on the panels"),
    "backends_matlab": ("run_cold_s on series-mix", "zero on the panels"),
    "backends_etl": ("run_cold_s on series-mix", "zero on the panels"),
    "engine_journal": ("run_cold_s on series-mix and update_rev_s on panel-chase",
                       "query_*, which keeps no journal"),
    "chase_atomic": ("disk_bytes_per_input_byte everywhere and update_noop_s",
                     "query_warm_s"),
    "chase_persist": ("update_noop_s and query_warm_s on panel-chase",
                      "run_cold_s"),
    "olap": ("query_cold_s", "query_warm_s, run_cold_s and update_*"),
    "cli": ("every command, as the time no span covers", "-"),
}


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    metrics = []
    for command in COMMANDS:
        for layer, quantities in LAYERS.items():
            for quantity, unit, better in quantities:
                metrics.append((f"{command}.{layer}.{quantity}", unit, better))
        for quantity, unit, better in COMMAND_QUANTITIES:
            metrics.append((f"{command}.{quantity}", unit, better))
    return [m for m in metrics if m[0] not in ZERO_EVERYWHERE]


def layer_values(totals: Dict, wall_s: float) -> Dict[str, float]:
    """One traced command's per-layer values, keyed ``layer.quantity``."""
    self_s = totals["self_s"]
    counts = totals["counts"]
    values: Dict[str, float] = {}
    for layer, quantities in LAYERS.items():
        for quantity, _, _ in quantities:
            key = f"{layer}.{quantity}"
            if quantity == "self_s":
                values[key] = self_s.get(layer, 0.0)
            elif key == "backends_chase.delta_full_ratio":
                delta_calls = counts.get("backends_chase.delta_calls", 0)
                values[key] = (counts.get("backends_chase.full_in_delta", 0)
                               / delta_calls if delta_calls else 0.0)
            else:
                values[key] = float(counts.get(key, 0))
    values["cli.self_s"] = max(0.0, wall_s - totals["covered_s"])
    values["coverage"] = totals["covered_s"] / wall_s if wall_s > 0 else 0.0
    return values
