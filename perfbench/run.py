"""metalfilm benchmark: CLI request latency and throughput, with a traced layer breakdown.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload diffuse_oscillatory --seed 1 --seconds 15 --trace 0

One client in one process issues requests in a closed loop through
``metalfilm.cli.main(argv)``; a request ends when its CSV is on disk.  Each
request's output is checked outside the timed section (see ``checks.py``).
The package is imported from ``src/`` of the checkout; the script exits with
status 2 when it is not there.

``--trace 0`` times the package untouched and prints the end-to-end metrics.
``--trace 1`` runs a fixed, seeded set of requests with the layer wrappers
of ``tracing.py`` installed, each paired with an untraced request of the
same kind, and prints the per-layer metrics; the spans go to
``.perfbench_out/``.  ``--emit DIR`` writes the CSVs of the first requests
of a workload to DIR for ``csvdiff.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (points), ``failed`` (points) and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads: the machine has two cores
# and the batched matrix products in the quadrature must not spread over both.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
from checks import check_request  # noqa: E402
from generator import WORKLOADS, RequestStream, cycle_length  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_REQUESTS = 100      # so that ten samples lie beyond p90
SETUP_SAMPLES = 7       # fresh processes timed for setup_s
#: cycles of request kinds in a traced run (traced + as many untraced)
TRACE_CYCLES = {"diffuse_oscillatory": 12, "diffuse_edges": 8,
                "specular_large": 2, "validate_report": 8}

SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import metalfilm, metalfilm.cli; "
    "metalfilm.cli.build_parser(); t1 = time.perf_counter(); print(metalfilm.__file__); print(t1 - t0)"
)
MAIN_CODE = "import sys; from metalfilm.cli import main; sys.exit(main(sys.argv[1:]))"


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import metalfilm from the checkout's src/, or exit 2."""
    if not (SRC / "metalfilm" / "__init__.py").is_file():
        _fail(f"no package at {SRC / 'metalfilm'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import metalfilm.cli

    if SRC not in Path(metalfilm.__file__).resolve().parents:
        _fail(f"imported metalfilm from {metalfilm.__file__}, not from {SRC}")
    return metalfilm.cli


def measure_setup() -> tuple[list[float], list[float]]:
    """import metalfilm + build_parser() in fresh processes: (seconds, scaled seconds).

    Each sample is scaled by the calibration kernel run just before and
    just after its fresh process.
    """
    samples, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        before = calibration.kernel()
        res = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_child_env(),
                             capture_output=True, text=True, timeout=120, check=True)
        after = calibration.kernel()
        where, seconds = res.stdout.split()
        if SRC not in Path(where).resolve().parents:
            _fail(f"fresh process imported metalfilm from {where}")
        samples.append(float(seconds))
        scaled.append(calibration.scaled(float(seconds), before, after))
    return samples, scaled


def fresh_process_bytes(argv, path: Path) -> bytes | None:
    """Run one request in a fresh process; its CSV bytes, or None if it failed."""
    path.unlink(missing_ok=True)
    res = subprocess.run([sys.executable, "-c", MAIN_CODE, *argv, "--out", str(path)],
                         cwd=ROOT, env=_child_env(), capture_output=True, timeout=170)
    return path.read_bytes() if res.returncode == 0 and path.exists() else None


class Runner:
    """Issues requests through ``cli.main`` and checks what they wrote."""

    def __init__(self, cli, workload: str, seed: int):
        self.cli = cli
        self.csv = OUT / f"{workload}-{seed}.csv"
        self.check_rng = np.random.default_rng([seed, 99])
        self.attempted = self.failed = self.rows = self.oracle_points = 0
        self.known = []
        self.problems = []
        self.last_kernel = None

    def issue(self, req, call=None) -> tuple[float, float, object]:
        """One timed request: (seconds, seconds at the reference speed, exit status or exception).

        Garbage left by the checks is collected first, so that it is not
        collected inside the timed call.  The calibration kernel runs just
        after each call; its time also serves as the "before" of the next.
        """
        self.csv.unlink(missing_ok=True)
        argv = [*req.argv, "--out", str(self.csv)]
        gc.collect()
        before = self.last_kernel or calibration.kernel()
        t0 = time.perf_counter()
        try:
            rc = call(argv) if call else self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # the request failed: all its points count as failed
            rc = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - t0
        self.last_kernel = calibration.kernel()
        return seconds, calibration.scaled(seconds, before, self.last_kernel), rc

    def check(self, req, rc):
        outcome = check_request(req, self.csv, rc, self.check_rng)
        self.attempted += outcome.points
        self.failed += outcome.failed
        self.rows += outcome.rows
        self.oracle_points += outcome.oracle_points
        self.known += outcome.known
        self.problems += outcome.problems
        return outcome

    def determinism(self, req, first: bytes | None) -> bool:
        again = fresh_process_bytes(req.argv, OUT / "determinism.csv")
        (OUT / "determinism.csv").unlink(missing_ok=True)
        ok = first is not None and again == first
        if not ok:
            self.problems.append(f"{req.kind}: CSV bytes differ in a fresh process")
        return ok

    def report_failures(self):
        for w, p, err in self.known:
            print(f"known small-|w| defect: w={w:.6e} p={p:.6f} sigma_d/drude rel err {err:.2e}")
        for line in self.problems:
            print(f"FAILED {line}")

    def fail_share_line(self):
        failed = self.failed + len(self.known)
        return (f"fail_share {failed / self.attempted:.6g} ratio ({failed} failed of "
                f"{self.attempted} points; {self.oracle_points} oracle-checked, "
                f"{len(self.known)} of them in the known small-|w| defect)")


def warm_up(runner, stream):
    """One untraced cycle, so lazy set-up is done before timing."""
    for _ in range(len(stream.kinds)):
        runner.issue(next(stream))


def timed_run(cli, workload, seed, seconds):
    setup_raw, setup = measure_setup()
    seen = set()
    runner = Runner(cli, workload, seed)
    warm_up(runner, RequestStream(workload, seed, 1, seen))
    stream = RequestStream(workload, seed, 0, seen)
    cycle = cycle_length(workload)
    times, scaled, first, n = [], [], None, 0
    while n < MIN_REQUESTS or n % cycle or sum(times) < seconds:
        req = next(stream)
        dt, dt_ref, rc = runner.issue(req)
        times.append(dt)
        scaled.append(dt_ref)
        runner.check(req, rc)
        if n == 0:
            first_req, first = req, runner.csv.read_bytes() if rc == 0 else None
        n += 1
    deterministic = runner.determinism(first_req, first)
    runner.csv.unlink(missing_ok=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh processes"),
        "request_ms_p50": (1e3 * statistics.median(scaled), "ms", f"{n} requests"),
        "request_ms_p90": (1e3 * statistics.quantiles(scaled, n=10)[8], "ms", f"{n} requests"),
        "points_per_s": (runner.rows / sum(scaled), "1/s",
                         f"{runner.rows} CSV rows in {sum(scaled):.3f} s of requests, "
                         f"{runner.rows / n:.1f} points per request"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of this process"),
        "pass_share": (1.0 - (runner.failed + len(runner.known)) / runner.attempted, "ratio",
                       f"1 - fail_share over {runner.attempted} points"),
    }
    runner.report_failures()
    print(f"workload {workload}, seed {seed}: {n} requests, closed loop, one client")
    for name, (value, unit, base) in metrics.items():
        print(f"{name} {value:.6g} {unit} ({base})")
    print(runner.fail_share_line())
    print(f"unscaled wall time: setup_s {statistics.median(setup_raw):.6g} s, "
          f"request p50 {1e3 * statistics.median(times):.6g} ms, "
          f"p90 {1e3 * statistics.quantiles(times, n=10)[8]:.6g} ms, "
          f"{runner.rows / sum(times):.6g} points/s; the machine ran at "
          f"{sum(scaled) / sum(times):.4g} of the reference speed")
    return runner, deterministic, {k: v[:2] for k, v in metrics.items()}


def traced_run(cli, workload, seed):
    from tracing import Tracer, layer_metrics

    seen = set()
    runner = Runner(cli, workload, seed)
    warm_up(runner, RequestStream(workload, seed, 1, seen))
    traced = RequestStream(workload, seed, 0, seen)
    plain = RequestStream(workload, seed, 2, seen)
    tracer = Tracer()
    t_traced = t_plain = 0.0
    points_traced = points_plain = 0
    first = None
    for i in range(TRACE_CYCLES[workload] * cycle_length(workload)):
        req = next(traced)
        tracer.request = i
        tracer.install()
        try:
            raw, dt, rc = runner.issue(req, lambda argv: tracer.call("cli.main", cli.main, (argv,)))
        finally:
            tracer.uninstall()
        tracer.speed[i] = dt / raw
        t_traced += dt
        outcome = runner.check(req, rc)
        points_traced += outcome.rows
        if i == 0:
            first_req, first = req, runner.csv.read_bytes() if rc == 0 else None
        req = next(plain)
        _, dt, rc = runner.issue(req)
        t_plain += dt
        points_plain += runner.check(req, rc).rows
    deterministic = runner.determinism(first_req, first)
    runner.csv.unlink(missing_ok=True)
    tracer.write(OUT / f"trace-{workload}-{seed}.csv")

    values, absent = layer_metrics(tracer, points_traced)
    ratio = (t_traced / points_traced) / (t_plain / points_plain) if points_plain else 0.0
    values["trace.overhead_ratio"] = (ratio, "ratio")
    runner.report_failures()
    print(f"workload {workload}, seed {seed}: {traced.count} traced requests "
          f"({points_traced} points) paired with {plain.count} untraced ({points_plain} points); "
          f"{len(tracer.spans)} spans")
    for name, (value, unit) in values.items():
        print(f"{name} {value:.6g} {unit}")
    for name in absent:
        print(f"{name} absent (a wrapped name is missing from the package)")
    print(runner.fail_share_line())
    return runner, deterministic, values


def emit(cli, workload, seed, directory: Path):
    """Write the CSVs of the first two cycles of requests to ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    stream = RequestStream(workload, seed)
    for i in range(2 * cycle_length(workload)):
        req = next(stream)
        rc = cli.main([*req.argv, "--out", str(directory / f"{workload}-{i:03d}-{req.kind}.csv")])
        if rc != 0:
            _fail(f"request {i} ended with {rc}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--emit", type=Path, help="write the first requests' CSVs here and exit")
    args = parser.parse_args(argv)

    cli = _import_package()
    OUT.mkdir(exist_ok=True)
    if args.emit:
        emit(cli, args.workload, args.seed, args.emit)
        return 0
    if args.trace:
        runner, deterministic, metrics = traced_run(cli, args.workload, args.seed)
    else:
        runner, deterministic, metrics = timed_run(cli, args.workload, args.seed, args.seconds)
    result = {
        "correct": runner.failed == 0 and deterministic,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
