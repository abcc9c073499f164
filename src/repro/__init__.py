"""repro — a reproduction of *EXLEngine: executable schema mappings for
statistical data processing* (Atzeni, Bellomarini, Bugiotti; EDBT 2013).

The package implements the full pipeline of the paper:

* :mod:`repro.model` — the Matrix data model (cubes, time points,
  metadata catalog with historicity);
* :mod:`repro.exl` — the EXL specification language (parser, semantic
  analysis, single-operator normalization);
* :mod:`repro.mappings` — generation of extended schema mappings from
  EXL programs, and their simplification into complex tgds;
* :mod:`repro.chase` — the stratified chase solving the induced data
  exchange problem (the reference executor);
* :mod:`repro.backends` — executable translations: SQL (on
  :mod:`repro.sqlengine`), R (on :mod:`repro.frames`), Matlab (on
  :mod:`repro.matrixengine`), ETL (on :mod:`repro.etl`);
* :mod:`repro.engine` — the EXLEngine architecture: determination,
  translation, dispatch, historicity;
* :mod:`repro.workloads` — synthetic data and canned programs,
  including the paper's GDP example.

Quickstart::

    from repro import EXLEngine
    from repro.workloads import gdp_example

    w = gdp_example()
    engine = EXLEngine()
    for name in w.schema.names:
        engine.declare_elementary(w.schema[name])
    engine.add_program(w.source)
    for cube in w.data.values():
        engine.load(cube)
    engine.run()
    print(engine.data("PCHNG").to_rows())
"""

from .backends import (
    ChaseBackend,
    EtlBackend,
    MatlabBackend,
    RBackend,
    SqlBackend,
    all_backends,
)
from .chase import (
    ParallelStratifiedChase,
    StratifiedChase,
    cubes_from_instance,
    instance_from_cubes,
)
from .engine import EXLEngine
from .errors import ReproError
from .exl import Program, default_registry, normalize_program, parse_program
from .mappings import SchemaMapping, generate_mapping, simplify_mapping
from .model import (
    Cube,
    CubeSchema,
    Dimension,
    Frequency,
    MetadataCatalog,
    Schema,
    TimePoint,
    day,
    month,
    quarter,
    week,
    year,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "Cube",
    "CubeSchema",
    "Dimension",
    "Schema",
    "Frequency",
    "TimePoint",
    "day",
    "week",
    "month",
    "quarter",
    "year",
    "MetadataCatalog",
    "Program",
    "parse_program",
    "normalize_program",
    "default_registry",
    "SchemaMapping",
    "generate_mapping",
    "simplify_mapping",
    "StratifiedChase",
    "ParallelStratifiedChase",
    "instance_from_cubes",
    "cubes_from_instance",
    "SqlBackend",
    "RBackend",
    "MatlabBackend",
    "EtlBackend",
    "ChaseBackend",
    "all_backends",
    "EXLEngine",
]
