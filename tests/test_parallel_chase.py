"""Equivalence suite for the stratum-parallel chase scheduler.

The load-bearing guarantee: ``ParallelStratifiedChase`` computes the
*same solution instance* as the paper's sequential ``StratifiedChase``,
tuple for tuple, for every valid EXL program.  The suite checks this
property over ≥50 seeded-random programs (aggregations, time shifts,
outer vectorials and table functions included) plus hand-picked DAG
shapes, and pins the schedule statistics the benchmark relies on.

Run with ``--jobs N`` to choose the worker count (CI runs 1 and 4).
"""

import pytest

from repro.chase import (
    ParallelStratifiedChase,
    StratifiedChase,
    instance_from_cubes,
    is_solution,
    schedule_waves,
    stratum_dag,
)
from repro.errors import ChaseError, ChaseSourceError, MappingError
from repro.exl import Program
from repro.mappings import (
    Atom,
    Egd,
    SchemaMapping,
    Tgd,
    TgdKind,
    Var,
    generate_mapping,
    simplify_mapping,
)
from repro.model import (
    TIME,
    CubeSchema,
    Dimension,
    Frequency,
    Schema,
    month,
    quarter,
)
from repro.workloads import gdp_example, random_workload
from repro.workloads.datagen import random_cube


def _both_runs(workload, jobs, simplify=False):
    program = Program.compile(workload.source, workload.schema)
    mapping = generate_mapping(program)
    if simplify:
        mapping = simplify_mapping(mapping)
    source = instance_from_cubes(workload.data)
    sequential = StratifiedChase(mapping).run(source)
    parallel = ParallelStratifiedChase(mapping, max_workers=jobs).run(source)
    return mapping, source, sequential, parallel


def _assert_identical(sequential, parallel):
    """Tuple-for-tuple equality of the two solution instances."""
    assert sorted(sequential.instance.relations()) == sorted(
        parallel.instance.relations()
    )
    for relation in sequential.instance.relations():
        assert sequential.instance.facts(relation) == parallel.instance.facts(
            relation
        ), f"relation {relation} differs between sequential and parallel chase"


class TestRandomProgramEquivalence:
    @pytest.mark.parametrize("seed", range(50))
    def test_parallel_equals_sequential(self, seed, chase_jobs):
        workload = random_workload(
            seed, n_statements=7, n_periods=10, n_regions=2
        )
        _, _, sequential, parallel = _both_runs(workload, chase_jobs)
        _assert_identical(sequential, parallel)

    @pytest.mark.parametrize("seed", range(6))
    def test_parallel_output_is_a_solution(self, seed, chase_jobs):
        workload = random_workload(
            seed + 500, n_statements=6, n_periods=10, n_regions=2
        )
        mapping, source, _, parallel = _both_runs(workload, chase_jobs)
        assert is_solution(mapping, source, parallel.instance)

    @pytest.mark.parametrize("seed", range(4))
    def test_simplified_mapping_equivalence(self, seed, chase_jobs):
        workload = random_workload(
            seed + 900, n_statements=5, n_periods=10, allow_table_functions=False
        )
        _, _, sequential, parallel = _both_runs(
            workload, chase_jobs, simplify=True
        )
        _assert_identical(sequential, parallel)

    def test_gdp_workload_with_aggregations_and_shift(self, chase_jobs):
        workload = gdp_example(n_quarters=10, regions=("north", "south"), seed=3)
        _, _, sequential, parallel = _both_runs(workload, chase_jobs)
        _assert_identical(sequential, parallel)
        assert sequential.stats.tuples_generated == parallel.stats.tuples_generated
        assert sequential.stats.per_tgd == parallel.stats.per_tgd


class TestScheduleShape:
    def _mapping(self, source):
        schema = Schema(
            [CubeSchema("S", [Dimension("m", TIME(Frequency.MONTH))], "v")]
        )
        return generate_mapping(Program.compile(source, schema)), schema

    def test_independent_statements_share_a_wave(self, chase_jobs):
        mapping, schema = self._mapping(
            "A := S * 2\nB := S * 3\nC := S * 4\nD := S * 5"
        )
        chase = ParallelStratifiedChase(mapping, max_workers=chase_jobs)
        assert chase.waves == [[0, 1, 2, 3]]
        data = {
            "S": random_cube(
                schema["S"], {"m": [month(2020, 1) + i for i in range(6)]}, 1
            )
        }
        result = chase.run(instance_from_cubes(data))
        assert result.stats.waves == 1
        assert result.stats.max_wave_width == 4

    def test_chain_is_one_stratum_per_wave(self, chase_jobs):
        mapping, _ = self._mapping("A := S * 2\nB := A * 3\nC := B * 4")
        chase = ParallelStratifiedChase(mapping, max_workers=chase_jobs)
        assert chase.waves == [[0], [1], [2]]

    def test_diamond_schedules_two_waves_wide_middle(self, chase_jobs):
        mapping, _ = self._mapping(
            "A := S * 2\nL := A + 1\nR := A * 3\nJ := L + R"
        )
        chase = ParallelStratifiedChase(mapping, max_workers=chase_jobs)
        assert chase.waves == [[0], [1, 2], [3]]

    def test_sequential_stats_one_tgd_per_wave(self):
        mapping, schema = self._mapping("A := S * 2\nB := S * 3")
        data = {
            "S": random_cube(
                schema["S"], {"m": [month(2020, 1) + i for i in range(6)]}, 2
            )
        }
        result = StratifiedChase(mapping).run(instance_from_cubes(data))
        assert result.stats.waves == len(mapping.target_tgds)
        assert result.stats.max_wave_width == 1


class TestSchedulerGuards:
    def test_missing_source_relation_raises_chase_source_error(self, chase_jobs):
        mapping, _ = self._mapping_one()
        with pytest.raises(ChaseSourceError, match="absent from the source"):
            ParallelStratifiedChase(mapping, max_workers=chase_jobs).run(
                instance_from_cubes({})
            )

    def _mapping_one(self):
        schema = Schema(
            [CubeSchema("S", [Dimension("m", TIME(Frequency.MONTH))], "v")]
        )
        return generate_mapping(Program.compile("A := S * 2", schema)), schema

    def test_schedule_waves_rejects_duplicate_producers(self):
        from repro.mappings import Atom, Tgd, TgdKind, Var

        tgds = [
            Tgd(
                [Atom("S", (Var("q"), Var("v")))],
                Atom("D", (Var("q"), Var("v"))),
                TgdKind.COPY,
                label="D",
            ),
            Tgd(
                [Atom("S", (Var("q"), Var("v")))],
                Atom("D", (Var("q"), Var("v"))),
                TgdKind.COPY,
                label="D2",
            ),
        ]
        with pytest.raises(MappingError, match="defined once"):
            schedule_waves(tgds)

    def test_stratum_dag_reports_operand_producers(self):
        from repro.mappings import Atom, Tgd, TgdKind, Var

        tgds = [
            Tgd(
                [Atom("S", (Var("q"), Var("v")))],
                Atom("A", (Var("q"), Var("v"))),
                TgdKind.COPY,
                label="A",
            ),
            Tgd(
                [Atom("A", (Var("q"), Var("v")))],
                Atom("B", (Var("q"), Var("v"))),
                TgdKind.COPY,
                label="B",
            ),
        ]
        assert stratum_dag(tgds) == [set(), {0}]


class TestEgdDetection:
    """Both schedulers fail a run whose data violates a target egd.

    Mappings generated from valid programs never violate functionality
    (Section 4.2), so the check is defensive; this hand-built mapping
    projects the time dimension away without aggregating, and two
    source tuples with different measures collide in ``OUT``.
    """

    def _broken_projection_mapping(self):
        series = CubeSchema("S", [Dimension("q", TIME(Frequency.QUARTER))], "v")
        target = Schema([series, CubeSchema("OUT", (), "v")])
        registry = generate_mapping(
            Program.compile("C := S", Schema([series]))
        ).registry
        copy = Tgd(
            [Atom("S", (Var("q"), Var("v")))],
            Atom("S", (Var("q"), Var("v"))),
            TgdKind.COPY,
            label="S",
        )
        tgd = Tgd(
            [Atom("S", (Var("q"), Var("v")))],
            Atom("OUT", (Var("v"),)),
            TgdKind.TUPLE_LEVEL,
            label="OUT",
        )
        return SchemaMapping(
            Schema([series]), target, [copy], [tgd], [Egd("OUT", 0)], registry
        )

    def test_second_run_over_violating_data_raises(self, chase_jobs):
        mapping = self._broken_projection_mapping()
        clean = instance_from_cubes({})
        clean.ensure("S")
        clean.add("S", (quarter(2020, 1), 1.0))
        # run 1: a single tuple cannot violate functionality
        result = StratifiedChase(mapping).run(clean)
        assert result.instance.facts("OUT") == {(1.0,)}
        # run 2: new source data introduces the violation
        dirty = clean.copy()
        dirty.add("S", (quarter(2020, 2), 2.0))
        with pytest.raises(ChaseError, match="egd violation"):
            StratifiedChase(mapping).run(dirty)
        with pytest.raises(ChaseError, match="egd violation"):
            ParallelStratifiedChase(mapping, max_workers=chase_jobs).run(dirty)
