"""Per-layer spans recorded from outside the program.

:func:`install` wraps the public entry points of each layer — module
functions at every module that bound them by name, methods on their
class — with a span that records wall time.  A layer's self time is
its spans' time minus the time of the spans nested inside them, so the
layers of one command add up to the time they cover, and ``cli`` is
what remains of ``cli.main``.  Spans live in memory; the forked child
returns the totals when its command ends.  Install only in a forked
child: the wrappers stay for the rest of the process.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Optional

#: backend class -> layer, for the shared ``Backend.run_mapping`` (the
#: chase backend falls back to it from its own ``run_mapping``)
BACKEND_LAYERS = {
    "ChaseBackend": "backends_chase",
    "SqlBackend": "backends_sql",
    "RBackend": "backends_r",
    "RScriptBackend": "backends_r",
    "MatlabBackend": "backends_matlab",
    "MScriptBackend": "backends_matlab",
    "EtlBackend": "backends_etl",
}

_CHASE_DELTA = "ChaseBackend.run_mapping_delta"


class Recorder:
    """Self time per layer and counters, for one command."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: wall covered by outermost spans (the named layers' total)
        self.covered_s = 0.0
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer, fn: Callable, name: str,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span of ``layer`` (a name, or a function of
        the call's arguments returning one)."""
        recorder = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = recorder._stack()
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                which = layer(args) if callable(layer) else layer
                recorder.self_s[which] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    recorder.covered_s += elapsed
            if on_result is not None:
                on_result(stack, args, kwargs, result)
            return result

        return spanned

    def inside(self, stack: list, name: str) -> bool:
        return any(frame[0] == name for frame in stack)

    def totals(self) -> Dict[str, Any]:
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "covered_s": self.covered_s,
        }


def _patch_function(module, attr: str, wrapper_for: Callable) -> None:
    """Replace ``module.attr`` at every ``repro`` module that binds it."""
    original = getattr(module, attr)
    wrapper = wrapper_for(original)
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapper)


def _patch_method(cls, attr: str, wrapper_for: Callable) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(wrapper_for(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(wrapper_for(raw.__func__)))
    else:
        setattr(cls, attr, wrapper_for(raw))


def install(rec: Recorder) -> None:
    """Wrap every traced entry point of the program with spans."""
    import repro.cli  # noqa: F401  (binds the names patched below)
    from repro.backends.base import Backend
    from repro.backends.chasebackend import ChaseBackend
    from repro.chase import atomic, persist
    from repro.engine.determination import DependencyGraph
    from repro.engine.dispatcher import Dispatcher
    from repro.engine.exlengine import EXLEngine
    from repro.engine.journal import RunJournal
    from repro.engine.translation import TranslationEngine
    from repro.exl.program import Program
    from repro.mappings import generator
    from repro.model import io
    from repro.model.cube import Cube
    from repro.olap.lattice import CubeLattice
    from repro.olap.query import OlapService

    counts = rec.counts

    def span(layer, name, on_result=None):
        return lambda fn: rec.wrap(layer, fn, name, on_result)

    def rows_parsed(stack, args, kwargs, cube):
        counts["model_io.rows_parsed"] += len(cube)

    def text_serialized(stack, args, kwargs, text):
        counts["model_io.bytes_serialized"] += len(text)

    def file_serialized(stack, args, kwargs, result):
        destination = args[1] if len(args) > 1 else kwargs["destination"]
        if isinstance(destination, (str, os.PathLike)):
            counts["model_io.bytes_serialized"] += os.path.getsize(destination)

    for attr, hook in (
        ("read_cube_csv", rows_parsed),
        ("cube_from_csv_text", None),
        ("cube_to_csv_text", text_serialized),
        ("write_cube_csv", file_serialized),
    ):
        _patch_function(io, attr, span("model_io", f"io.{attr}", hook))

    for attr in ("from_rows", "to_rows", "delta", "patched"):
        _patch_method(Cube, attr, span("model_cube", f"Cube.{attr}"))

    _patch_method(Program, "compile", span("exl", "Program.compile"))
    _patch_function(generator, "generate_mapping",
                    span("mappings", "generate_mapping"))

    def subgraphs(stack, args, kwargs, result):
        counts["engine_determination.subgraphs"] += len(result)

    for attr in ("__init__", "affected_by"):
        _patch_method(DependencyGraph, attr,
                      span("engine_determination", f"DependencyGraph.{attr}"))
    _patch_method(DependencyGraph, "partition", span(
        "engine_determination", "DependencyGraph.partition", subgraphs))
    _patch_method(EXLEngine, "plan", span("engine_determination", "EXLEngine.plan"))
    _patch_method(TranslationEngine, "translate",
                  span("engine_translation", "TranslationEngine.translate"))
    _patch_method(Dispatcher, "dispatch",
                  span("engine_dispatcher", "Dispatcher.dispatch"))

    def chase_full(stack, args, kwargs, result):
        if rec.inside(stack, _CHASE_DELTA):
            counts["backends_chase.full_in_delta"] += 1
        else:
            counts["backends_chase.calls"] += 1

    def chase_delta(stack, args, kwargs, result):
        counts["backends_chase.calls"] += 1
        counts["backends_chase.delta_calls"] += 1

    _patch_method(ChaseBackend, "run_mapping", span(
        "backends_chase", "ChaseBackend.run_mapping", chase_full))
    _patch_method(ChaseBackend, "run_mapping_delta", span(
        "backends_chase", _CHASE_DELTA, chase_delta))
    _patch_method(Backend, "run_mapping", span(
        lambda args: BACKEND_LAYERS.get(type(args[0]).__name__, "backends_other"),
        "Backend.run_mapping"))

    def journal_record(stack, args, kwargs, result):
        counts["engine_journal.records"] += 1

    _patch_method(RunJournal, "append",
                  span("engine_journal", "RunJournal.append", journal_record))
    _patch_method(RunJournal, "commit_subgraph",
                  span("engine_journal", "RunJournal.commit_subgraph"))

    def file_written(stack, args, kwargs, path):
        counts["chase_atomic.files"] += 1
        counts["chase_atomic.bytes"] += os.path.getsize(path)

    _patch_function(atomic, "atomic_write",
                    span("chase_atomic", "atomic_write", file_written))

    def attach_hit(stack, args, kwargs, attached):
        counts["chase_persist.attach_hits"] += bool(attached)

    for attr in ("write_store_sidecar", "write_lattice_sidecar"):
        _patch_function(persist, attr, span("chase_persist", f"persist.{attr}"))
    for attr in ("attach_store_sidecar", "attach_lattice_sidecar"):
        _patch_function(persist, attr,
                        span("chase_persist", f"persist.{attr}", attach_hit))

    def lattice_built(stack, args, kwargs, result):
        counts["olap.lattice_builds"] += 1

    for attr in ("lattice", "rollup", "point", "crosstab"):
        _patch_method(OlapService, attr, span("olap", f"OlapService.{attr}"))
    _patch_method(CubeLattice, "build",
                  span("olap", "CubeLattice.build", lattice_built))
