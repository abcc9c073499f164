"""End-to-end benchmark of the ``exl`` command line.

Run from the root of a source checkout::

    python3 exlbench/run.py --workload panel-chase --seed 1 --seconds 35 --trace 0

One client in a closed loop drives sessions back to back for
``--seconds``.  A session resets the project generated from ``--seed``
and runs five commands in order: ``run`` into an empty out dir, a 1%
revision of the input then ``update``, a no-op ``update``, and the same
``query`` twice (cold: no lattice sidecar yet; warm: attached).  Each
command runs in a child forked from this process, which has imported
``repro.cli`` and run no command, so every child starts with cold
program caches; the child calls ``repro.cli.main`` with default flags.
Wall time comes from ``perf_counter`` in the child, CPU time and peak
RSS from ``os.wait4``.  Outputs are checked after each command, outside
the timed window, against the tuple-at-a-time reference chase.

Host speed.  On a shared host the same command's wall time drifts by
10-30% over minutes as other tenants load the machine, and more samples
in a run do not remove drift between runs.  So the parent times a fixed
stretch of pure-Python work (:func:`calibrate`) between commands, and
each timed metric is the median of ``wall * CALIBRATION_NOMINAL_S /
calibration``: the command's wall time rescaled to a host on which the
calibration takes ``CALIBRATION_NOMINAL_S``.  The raw wall medians and
the median calibration are printed beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced sessions and prints the per-layer metrics (see
:mod:`layers`).  Every metric is printed with its unit, median, high
percentile and sample count; the last line of output is one JSON
object.  Nothing is pinned to a CPU and only one child is alive at a
time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import check
import layers
import projects

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".exlbench-work"

#: fresh interpreters timed for ``setup_s`` (after one untimed warm-up
#: that compiles the bytecode caches)
SETUP_SAMPLES = 7
#: :func:`calibrate` on the uncontended 2-vCPU Xeon host (CPython 3.11)
#: the benchmark was tuned on
CALIBRATION_NOMINAL_S = 0.080
#: a forked child still running after this long is killed (SIGALRM) and
#: its command counted as failed, so a hang cannot stall the benchmark
CHILD_TIMEOUT_S = 60

COMMANDS = layers.COMMANDS
#: command -> end-to-end metric of its median wall time
WALL_METRICS = {
    "run": "run_cold_s",
    "update_rev": "update_rev_s",
    "update_noop": "update_noop_s",
    "query_cold": "query_cold_s",
    "query_warm": "query_warm_s",
}
END_TO_END = [
    ("setup_s", "s"),
    ("run_cold_s", "s"),
    ("update_rev_s", "s"),
    ("update_noop_s", "s"),
    ("query_cold_s", "s"),
    ("query_warm_s", "s"),
    ("peak_rss_mb", "MB"),
    ("disk_bytes_per_input_byte", "ratio"),
    ("success_rate", "ratio"),
]


def calibrate() -> float:
    """Seconds taken by a fixed stretch of pure-Python work.

    The mix — tuple keys into a dict, float arithmetic and ``repr`` —
    is the program's own, so contention slows both alike.
    """
    start = time.perf_counter()
    sums: Dict[tuple, float] = {}
    width = 0
    for i in range(80000):
        key = (i % 997, "r%03d" % (i % 60))
        sums[key] = sums.get(key, 0.0) + i * 0.5
        width += len(repr(i * 1.1))
    return time.perf_counter() - start


def rescale(wall: float, before: float, after: float) -> float:
    """A wall rescaled by the calibrations taken before and after it."""
    return wall * CALIBRATION_NOMINAL_S * 2 / (before + after)


# -- forked children -------------------------------------------------------

def in_child(body: Callable[[], dict]) -> Tuple[Optional[dict], object]:
    """Run ``body`` in a forked child; its JSON-able result and rusage.

    The result is None when the child raised or died.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(CHILD_TIMEOUT_S)
            os.close(read_fd)
            payload = json.dumps(body()).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status, rusage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        return None, rusage
    return json.loads(data), rusage


def cli_body(argv: List[str], stdout: Path, traced: bool) -> Callable[[], dict]:
    """A child body running ``exl <argv>`` with output to ``stdout``."""

    def body() -> dict:
        import repro.cli

        fd = os.open(stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(fd, 1)
        os.dup2(fd, 2)
        os.close(fd)
        recorder = None
        if traced:
            import spans

            recorder = spans.Recorder()
            spans.install(recorder)
        start = time.perf_counter()
        code = repro.cli.main(argv)
        wall = time.perf_counter() - start
        sys.stdout.flush()
        return {
            "code": code,
            "wall_s": wall,
            "totals": recorder.totals() if recorder else None,
        }

    return body


# -- the benchmark ---------------------------------------------------------

class Bench:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.base = WORK / workload
        self.project_dir = self.base / "project"
        self.out = self.base / "out"
        self.query = projects.query_for(workload)
        self.names = [name for name, _ in projects.program_for(workload)]
        self.attempted = 0
        self.failures: List[str] = []

    # set-up -------------------------------------------------------------
    def prepare(self) -> None:
        """Generate the seeded project and the reference outputs."""
        shutil.rmtree(self.base, ignore_errors=True)
        self.project_dir.mkdir(parents=True)
        done, _ = in_child(lambda: projects.generate(
            self.workload, self.seed, self.project_dir) or {})
        if done is None:
            raise SystemExit("project generation failed")
        self.ref_texts = {}
        for phase, csv_name in (("orig", "input.csv"), ("rev", "revised.csv")):
            ref = self.base / f"ref-{phase}"
            ref.mkdir()
            shutil.copy(self.project_dir / "reference.json", ref / "project.json")
            shutil.copy(self.project_dir / csv_name, ref / "data.csv")
            argv = ["run", str(ref / "project.json"), "--out", str(ref / "out"),
                    "--no-vectorize"]
            result, _ = in_child(cli_body(argv, ref / "stdout.txt", False))
            if result is None or result["code"] != 0:
                raise SystemExit(f"reference run failed; see {ref / 'stdout.txt'}")
            self.ref_texts[phase] = {
                name: (ref / "out" / f"{name}.csv").read_text()
                for name in self.names
            }
        self.ref_query = check.recompute_rollup(
            self.base / "ref-rev" / "out" / f"{self.query['cube']}.csv",
            self.query["keep"],
        )

    def argv(self, command: str) -> List[str]:
        project = str(self.project_dir / "project.json")
        out = str(self.out)
        if command == "run":
            return ["run", project, "--out", out]
        if command.startswith("update"):
            return ["update", project, "--out", out]
        return ["query", project, self.query["cube"], "--out", out,
                "--levels", self.query["levels"]]

    # one session ----------------------------------------------------------
    def session(self, traced: bool, self_test: bool = False) -> Dict:
        """Reset the project and run the five commands in order."""
        shutil.rmtree(self.out, ignore_errors=True)
        shutil.copy(self.project_dir / "input.csv", self.project_dir / "data.csv")
        samples: Dict[str, dict] = {}
        peak_kb = 0
        calibration = calibrate()
        for command in COMMANDS:
            if command == "update_rev":
                shutil.copy(self.project_dir / "revised.csv",
                            self.project_dir / "data.csv")
            stdout = self.base / f"{command}.txt"
            self.attempted += 1
            result, rusage = in_child(cli_body(self.argv(command), stdout, traced))
            before, calibration = calibration, calibrate()
            peak_kb = max(peak_kb, rusage.ru_maxrss)
            problems = self.verify(command, result, stdout, self_test)
            if problems:
                self.failures.append(f"{command}: {problems[0]}")
                continue
            samples[command] = {
                "wall_s": result["wall_s"],
                "scaled_s": rescale(result["wall_s"], before, calibration),
                "calibration_s": (before + calibration) / 2,
                "cpu_s": rusage.ru_utime + rusage.ru_stime,
                "totals": result["totals"],
            }
        input_bytes = (self.project_dir / "data.csv").stat().st_size
        out_bytes = sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())
        return {
            "samples": samples,
            "peak_rss_mb": peak_kb / 1024.0,
            "disk_ratio": out_bytes / input_bytes,
        }

    def verify(self, command: str, result: Optional[dict], stdout: Path,
               self_test: bool) -> List[str]:
        if result is None or result["code"] != 0:
            code = None if result is None else result["code"]
            return [f"exit {code}; see {stdout}"]
        if command.startswith("query"):
            text = stdout.read_text()
            problems = check.compare_query(text, self.ref_query)
            if self_test and command == "query_cold" and not problems:
                problems = check.self_test(
                    self.out, self.ref_texts["rev"], text, self.ref_query)
                print(f"self-test: damaged output cell and wrong query line "
                      f"{'caught' if not problems else 'NOT caught'}")
            return problems
        phase = "orig" if command == "run" else "rev"
        return check.compare_outputs(self.out, self.ref_texts[phase])


def measure_setup(samples: int) -> Tuple[List[float], List[float]]:
    """Walls of fresh interpreters running ``import repro.cli``, raw and
    rescaled to the nominal host speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import repro.cli"]
    subprocess.run(argv, env=env, check=True)
    walls, calibrations = [], [calibrate()]
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True)
        walls.append(time.perf_counter() - start)
        calibrations.append(calibrate())
    return walls, [rescale(wall, before, after) for wall, before, after
                   in zip(walls, calibrations, calibrations[1:])]


# -- statistics and report -------------------------------------------------

def high_percentile(values: List[float]) -> Optional[Tuple[float, float]]:
    """The highest of p50..p99.9 with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return p, ordered[max(0, math.ceil(p / 100 * n) - 1)]
    return None


def row(name: str, unit: str, values: List[float]) -> Tuple[str, dict]:
    median = statistics.median(values) if values else 0.0
    high = high_percentile(values)
    tail = f"p{high[0]:g} {high[1]:.6g}" if high else "p-high n/a (<20 samples)"
    print(f"  {name:<44} {median:>14.6g} {unit:<6} {tail:<28} n={len(values)}")
    return name, {"value": median, "unit": unit}


def fingerprint() -> None:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    commit = "n/a (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.exists() else ref
        commit = ref
    fs = "unknown"
    try:
        best = ""
        with open("/proc/mounts") as mounts:
            for line in mounts:
                parts = line.split()
                point = parts[1]
                if str(WORK).startswith(point) and len(point) > len(best):
                    best, fs = point, f"{parts[2]} on {point}"
    except OSError:
        pass
    print(f"host: nproc={os.cpu_count()} cpu={cpu!r} "
          f"python={platform.python_version()} "
          f"numpy={numpy_version} commit={commit} out-dir fs={fs}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=projects.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no program source at {SRC / 'repro'}: run from the root of "
              f"a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    fingerprint()
    setup_raw, setup_scaled = ([], []) if args.trace else measure_setup(SETUP_SAMPLES)
    import repro.cli  # noqa: F401  (the forked children inherit it)

    bench = Bench(args.workload, args.seed)
    prepare_start = time.perf_counter()
    bench.prepare()
    print(f"workload {args.workload} seed {args.seed}: project and reference "
          f"outputs ready in {time.perf_counter() - prepare_start:.1f}s (untimed)")

    plain: List[Dict] = []
    traced: List[Dict] = []
    durations: List[float] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        plain.append(bench.session(traced=False, self_test=not plain))
        if args.trace:
            traced.append(bench.session(traced=True))
        durations.append(time.perf_counter() - began)
        for kind, done in (("plain", plain), ("traced", traced)):
            if done and len(done) == len(durations):
                print(f"  session {len(durations)} {kind} (wall/calibration s): "
                      + " ".join(f"{c}={s['wall_s']:.3f}/{s['calibration_s']:.4f}"
                                 for c, s in done[-1]["samples"].items()))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > args.seconds:
            break
    print(f"{len(durations)} session(s) in {time.perf_counter() - start:.1f}s, "
          f"{bench.attempted} commands, {len(bench.failures)} failed")
    for failure in bench.failures[:10]:
        print(f"  FAILED {failure}")

    def walls(sessions: List[Dict], command: str,
              field: str = "scaled_s") -> List[float]:
        return [s["samples"][command][field]
                for s in sessions if command in s["samples"]]

    metrics: Dict[str, dict] = {}
    if not args.trace:
        print("end-to-end metrics (median over samples):")
        values = {
            "setup_s": setup_scaled,
            "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
            "disk_bytes_per_input_byte": [s["disk_ratio"] for s in plain],
            "success_rate": [1 - len(bench.failures) / bench.attempted],
        }
        for command, metric in WALL_METRICS.items():
            values[metric] = walls(plain, command)
        for name, unit in END_TO_END:
            key, entry = row(name, unit, values[name])
            metrics[key] = entry
        print(f"  unscaled wall medians (s): setup={statistics.median(setup_raw):.4f} "
              + " ".join(f"{c}={statistics.median(raw):.4f}" for c in COMMANDS
                         if (raw := walls(plain, c, "wall_s"))))
        print("  cpu time medians (s): " + " ".join(
            f"{c}={statistics.median(cpu):.4f}" for c in COMMANDS
            if (cpu := walls(plain, c, "cpu_s"))))
        calibrations = [c for cmd in COMMANDS
                        for c in walls(plain, cmd, "calibration_s")]
        if calibrations:
            print(f"  calibration median (s): {statistics.median(calibrations):.5f} "
                  f"(nominal {CALIBRATION_NOMINAL_S})")
    else:
        print("per-layer metrics (median over traced sessions):")
        for name, unit, _ in layers.per_layer_metrics():
            command, _, quantity = name.partition(".")
            if quantity == "trace_overhead":
                untraced, spanned = walls(plain, command), walls(traced, command)
                values = ([statistics.median(spanned) / statistics.median(untraced)]
                          if untraced and spanned else [])
            else:
                values = [
                    layers.layer_values(s["samples"][command]["totals"],
                                        s["samples"][command]["wall_s"])[quantity]
                    for s in traced if command in s["samples"]
                ]
            key, entry = row(name, unit, values)
            metrics[key] = entry
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
