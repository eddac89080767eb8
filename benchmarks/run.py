"""seakit benchmark: one command, three closed-loop workloads.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn, each in its own process.

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures untraced requests first, then wraps every layer
and reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output check passed.  See ``README.md`` for the workloads and the
metric map.
"""
from __future__ import annotations

import os

# BLAS and OpenMP read these once, when numpy loads.  The workloads are
# single-client loops over small matrices, so one thread is both the
# fastest and the steadiest choice; more than ``nproc`` only adds noise.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 9
# The probe imports numpy on its own first and reports how long that took.
# Process start-up speed on a shared 2-vCPU Xeon VM varies by 20-30% from
# probe to probe; the numpy import inside the same process varies with it,
# so each probe is scaled by SETUP_NUMPY_NOMINAL_S / (its numpy import
# time), which leaves a spread of a few percent.  No change to seakit can
# move the numpy import itself.
SETUP_NUMPY_NOMINAL_S = 0.075
PROBE = ("import sys, time\n"
         "t0 = time.perf_counter()\n"
         "import numpy\n"
         "t1 = time.perf_counter()\n"
         "import seakit.cli\n"
         "seakit.cli.build_parser()\n"
         "sys.stdout.write(f'{t1 - t0!r}\\n')\n"
         "sys.stdout.flush()\n")
# Share of --seconds given to untraced requests in a --trace 1 run; the
# traced requests that follow repeat the same inputs for the overhead ratio.
UNTRACED_SHARE = 0.35
WARMUP = {"re": [[0.25, 0.0], [0.0, 0.75]]}
# Host speed on a shared 2-vCPU Xeon VM drifts by up to 2x over minutes,
# for every process alike.  A run therefore times a fixed reference before its
# first request and then about every REFERENCE_EVERY_S, and scales each
# request by REFERENCE_NOMINAL_S over the mean of the two reference timings
# around it: timed metrics read as if the host ran the reference in
# REFERENCE_NOMINAL_S throughout.  Raw times are printed too.
REFERENCE_NOMINAL_S = 0.035
REFERENCE_EVERY_S = 0.5


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):    # numpy before 1.26
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "numba": importlib.util.find_spec("numba") is not None,
    }


def rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class Reference:
    """A fixed random walk over 200,000 small Python objects (about 30 MB).

    The workloads slow down most when other tenants contend for the shared
    cache and memory; a walk that misses the cache slows down with them,
    while a loop that stays in cache does not.  Over 20-36 s windows on a
    shared 2-vCPU Xeon VM, scaling by this walk left a spread (standard
    deviation of log medians) of 2-7% across the three workloads, against
    2-12% for a cache-resident arithmetic loop and 7-26% unscaled.  It
    calls nothing in ``seakit``, so no change to the package can move it.
    """

    CELLS = 200_000
    STEPS = 60_000

    def __init__(self):
        before = rss_bytes()
        self._cells = [[float(i), str(i)] for i in range(self.CELLS)]
        order = list(range(self.CELLS))
        random.Random(0).shuffle(order)
        self._walk = order[:self.STEPS]
        self.footprint = max(0, rss_bytes() - before)

    def seconds(self) -> float:
        cells = self._cells
        t0 = time.perf_counter()
        acc = 0.0
        for k in self._walk:
            acc += cells[k][0]
        return time.perf_counter() - t0


def measure_setup(count: int) -> tuple[list[float], list[float]]:
    """Fresh interpreters: time until ``seakit.cli`` is imported and its
    parser built.  Returns raw times and their numpy-import scales."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times, scales = [], []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", PROBE], env=env,
                                stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if proc.returncode != 0 or not line.strip():
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        scales.append(SETUP_NUMPY_NOMINAL_S / float(line))
    return times, scales


@dataclass
class Timing:
    """Request times of one loop, raw and scaled to the reference speed."""

    raw: list[float]
    scale: list[float]
    by_verb: dict            # verb -> [(request index, raw seconds)]
    refs: list[float]

    def scaled(self) -> list[float]:
        return [t * k for t, k in zip(self.raw, self.scale)]

    def verb_scaled(self, verb: str) -> list[float]:
        return [t * self.scale[i] for i, t in self.by_verb[verb]]


class Runner:
    """Closed loop over a plan's requests; checks every output."""

    def __init__(self, cli, plan, reference: Reference):
        self.cli = cli
        self.plan = plan
        self.reference = reference
        self.attempted = 0
        self.errors: list[str] = []
        self.out_bytes: list[int] = []     # per call, in call order

    def call(self, c, tracer=None) -> float:
        argv = list(c.argv)
        sink = io.StringIO()
        c.out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        error = None
        try:
            with contextlib.redirect_stdout(sink):
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    rc = tracer.call(f"bench.{c.verb}", self.cli.main, argv)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed call
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        if error is None:
            try:
                error = c.check(rc, c.out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error is not None:
            self.errors.append(f"{c.verb}: {error}")
        size = c.out.stat().st_size if c.out.exists() else 0
        csv = c.out.with_suffix(".csv")
        if c.verb == "spectrum" and csv.exists():
            size += csv.stat().st_size
        self.out_bytes.append(size)
        return elapsed

    def loop(self, seconds: float, min_requests: int = 1,
             tracer=None) -> Timing:
        """Requests 0, 1, ... until the next one would end past the
        deadline, with reference timings in between."""
        deadline = time.perf_counter() + seconds
        raw, ref_before, by_verb = [], [], {}
        refs = [self.reference.seconds()]
        last_ref = time.perf_counter()
        i = 0
        while True:
            if i >= min_requests and raw:
                expected = sorted(raw)[len(raw) // 2]
                if time.perf_counter() + expected > deadline:
                    break
            total = 0.0
            for c in self.plan.request(i):
                t = self.call(c, tracer)
                by_verb.setdefault(c.verb, []).append((i, t))
                total += t
            raw.append(total)
            ref_before.append(len(refs) - 1)
            i += 1
            if time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
                refs.append(self.reference.seconds())
                last_ref = time.perf_counter()
        if ref_before[-1] == len(refs) - 1:
            refs.append(self.reference.seconds())
        scale = [2.0 * REFERENCE_NOMINAL_S / (refs[k] + refs[k + 1])
                 for k in ref_before]
        return Timing(raw, scale, by_verb, refs)


def latency_lines(timing: Timing, m) -> list[str]:
    raw_ms = [t * 1e3 for t in timing.raw]
    lines = [f"requests: {len(raw_ms)}",
             f"reference_s: median {m.median(timing.refs):.5f} s "
             f"of {len(timing.refs)}",
             f"request_ms raw: p50 {m.median(raw_ms):.3f} "
             f"p90 {m.percentile(raw_ms, 90):.3f}",
             "scaled to the reference speed:"]
    for verb in sorted(timing.by_verb):
        times = timing.verb_scaled(verb)
        if verb == "verify":
            lines.append(f"verify_s: {m.median(times):.4f} s "
                         f"(n={len(times)})")
            continue
        ms = [t * 1e3 for t in times]
        lines.append(f"{verb}_ms.p50: {m.median(ms):.3f} ms (n={len(ms)})")
        lines.append(f"{verb}_ms.p90: {m.percentile(ms, 90):.3f} ms "
                     f"(n={len(ms)}, {len(ms) - int(0.9 * len(ms))} beyond)")
    return lines


def run_plain(runner: Runner, seconds: float, m) -> tuple[dict, list[str]]:
    setup, setup_scale = measure_setup(SETUP_PROBES)
    timing = runner.loop(seconds)
    # ru_maxrss is in KiB; the reference's objects stay resident all run.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    rss_mb = (peak - runner.reference.footprint) / 2.0 ** 20
    ms = [t * 1e3 for t in timing.scaled()]
    metrics = {
        "setup_s": m.median([t * k for t, k in zip(setup, setup_scale)]),
        "request_ms.p50": m.median(ms),
        "request_ms.p90": m.percentile(ms, 90),
        "peak_rss_mb": rss_mb,
    }
    lines = [f"setup_s raw: {' '.join(f'{t:.4f}' for t in setup)}"]
    lines += latency_lines(timing, m)
    facts = runner.plan.facts() if runner.plan.facts is not None else {}
    if facts:
        verify_s = m.median(timing.verb_scaled("verify"))
        lines.append(f"checks: {facts['checks']}")
        lines.append(f"checks_per_s: {facts['checks'] / verify_s:.2f} 1/s")
        lines.append(f"report_sha256: {facts['report_sha256']}")
    return metrics, lines


def run_traced(runner: Runner, seconds: float, m, tracer_mod, work: Path
               ) -> tuple[dict, list[str]]:
    plan = runner.plan
    t_start = time.perf_counter()
    plain = runner.loop(seconds * UNTRACED_SHARE).scaled()

    tracer = tracer_mod.Tracer()
    notes = {name: m.is_control for name in m.SUITES.values()}
    inst = tracer_mod.install(tracer, notes)
    leftovers = tracer_mod.unwrapped_bindings(inst)
    if leftovers:
        inst.uninstall()
        raise RuntimeError("unwrapped originals remain: "
                           + ", ".join(leftovers))
    absent = tracer_mod.missing_targets(inst, m.span_targets())
    calls_before = runner.attempted
    bytes_before = len(runner.out_bytes)
    remaining = seconds - (time.perf_counter() - t_start)
    try:
        traced = runner.loop(remaining, plan.count_window, tracer).scaled()
    finally:
        inst.uninstall()

    spans = tracer_mod.Spans(tracer)
    op_roots = spans.roots().tolist()
    if len(op_roots) != runner.attempted - calls_before:
        raise RuntimeError("traced calls and root spans disagree")
    calls_per_request = len(plan.request(0))
    window_ops = plan.count_window * calls_per_request
    window_bytes = runner.out_bytes[bytes_before:bytes_before + window_ops]
    facts = plan.facts() if plan.facts is not None else {}
    facts["report_bytes"] = sum(window_bytes)
    metrics = m.layer_metrics(spans, tracer.notes, op_roots, window_ops,
                              facts)
    matched = min(len(plain), len(traced))
    metrics["trace.overhead_ratio"] = (
        sum(traced[:matched]) / sum(plain[:matched]) - 1.0)
    metrics["trace.absent_targets"] = len(absent)

    spans.save(work.parent / f"spans-{work.name}.npz")
    lines = [f"untraced requests: {len(plain)}",
             f"traced requests: {len(traced)}",
             f"spans: {len(spans)}",
             f"linalg.eigh.calls_per_op: "
             f"{metrics['linalg.eigh.calls_per_op']:.6g} count/op"]
    if "checks" in facts:
        lines.append(f"checks: {facts['checks']}")
        lines.append(f"report_sha256: {facts['report_sha256']}")
    lines += [f"absent target: {name}" for name in absent]
    return metrics, lines


def run_every_workload(names, args) -> int:
    """Each workload in its own process, one after another; the exit code
    is the worst of theirs."""
    worst = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        for line in proc.stdout.splitlines():
            print(f"[{name}] {line}")
        worst = max(worst, proc.returncode)
    return worst


def declared_metrics(trace: int) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry["unit"] for entry in doc[key]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seakit" / "__init__.py").is_file():
        print(f"error: no seakit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import metrics as m
    import tracer as tracer_mod
    from workloads import WORKLOADS
    from seakit import cli

    if args.workload == "all":
        return run_every_workload(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    produced = m.PER_LAYER if args.trace else m.END_TO_END
    if declared != produced:
        print("error: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        print("env: " + json.dumps(environment(), sort_keys=True))
        plan = WORKLOADS[args.workload](args.seed, work)
        runner = Runner(cli, plan, Reference())
        warm = work / "warmup.json"
        warm.write_text(json.dumps(WARMUP))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["validate", "--input", str(warm)])
        if args.trace:
            values, lines = run_traced(runner, args.seconds, m, tracer_mod,
                                       work)
        else:
            values, lines = run_plain(runner, args.seconds, m)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.errors)
    for line in lines:
        print(line)
    for error in runner.errors[:20]:
        print(f"FAILED {error}")
    print(f"failed_ratio: {failed / max(1, runner.attempted):.4g} "
          f"({failed}/{runner.attempted})")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in produced.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
