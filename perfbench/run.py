#!/usr/bin/env python3
"""The sl2ab benchmark: one client in a closed loop calling sl2ab.cli.run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Each run starts fresh worker processes: a
few that only set up (interpreter start, import of sl2ab from ./src, input
generation) to time set-up, then one that sets up, sends the seeded request
pool pass after pass until --seconds have gone by, and checks every reply.
With --trace 1 the worker then sends one more pass with every layer wrapped
and reports per-layer metrics instead of end-to-end ones.  The last line of
standard output is the result as one JSON object; the line before it holds
the run's context (seed, git revision, Python, nproc, why the workload).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("cli-requests", "formula-sweep", "poly-split", "oracle-cold")
SETUP_ONLY_RUNS = 5
RUN_TIMEOUT_S = 170
TAIL_MIN_ABOVE = 10

# The machine this runs on shares its processors: for minutes at a time the
# same work can take up to 1.8 times as long, in CPU time as in wall time.
# A fixed probe of standard-library work slows down with it.  An interval
# timer runs the probe every PROBE_EVERY_S, also in the middle of a request,
# and the probe's own time is taken off that request's latency.  Times are
# then reported at the speed at which the probe takes REFERENCE_PROBE_MS:
# measured time * REFERENCE_PROBE_MS / median of the probes taken during the
# request and just before and after it.  One median over the whole run was
# tried too; it was noisier wherever requests are long.
REFERENCE_PROBE_MS = 2.0
PROBE_EVERY_S = 0.05
SETUP_PROBES = 7


# ---------------------------------------------------------------------------
# worker side


def _import_package():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import sl2ab
    import sl2ab.cli

    if not Path(sl2ab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"sl2ab imported from {sl2ab.__file__}, not from {SRC}")
    return sl2ab


def _set_up(workload: str, seed: int, spawned_ns: int):
    _import_package()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    pool = workloads.build(workload, seed, OUT_DIR)
    return pool, (time.monotonic_ns() - spawned_ns) / 1e9


def _probe() -> int:
    """Time a fixed piece of interpreter work like the package's own:
    argument parsing, JSON output, fractions, tuples in a dict."""
    start = time.perf_counter_ns()
    parser = argparse.ArgumentParser(prog="probe")
    sub = parser.add_subparsers(dest="command")
    for k in range(4):
        cmd = sub.add_parser(f"c{k}")
        for j in range(6):
            cmd.add_argument(f"--a{j}", type=int, default=0)
    parser.parse_args(["c1", "--a2", "5"])
    json.dumps(
        {"k": [Fraction(i, 7) * 3 == 1 for i in range(50)], "v": list(range(200))},
        sort_keys=True, indent=2,
    )
    table = {}
    for i in range(2000):
        table[(i * 7919) % 1009] = tuple(range(i % 5))
    return time.perf_counter_ns() - start


class SpeedProbe:
    """Probe times taken by an interval timer: (end ns, duration ns)."""

    def __init__(self) -> None:
        self.samples: list[tuple[int, int]] = []
        self.spent_ns = 0  # total time inside the timer handler

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        took = _probe()
        end = time.perf_counter_ns()
        self.samples.append((end, took))
        self.spent_ns += end - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def _speed_scale(probes_ns: list[int]) -> float:
    """Factor that turns a time measured now into one at reference speed."""
    return REFERENCE_PROBE_MS * 1e6 / statistics.median(probes_ns)


def _empty_caches(oracle) -> None:
    for name, value in vars(oracle).items():
        if name.endswith("_cache") and isinstance(value, dict):
            value.clear()


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.rows = 0
        self.failed = 0
        self.mismatches: list[str] = []


def _run_pass(pool, tally: Tally, probe: SpeedProbe, tracer=None) -> list[tuple]:
    """Send every request of the pool once; return (start, end, latency) in
    ns per request, the latency without time spent in the probe."""
    import sl2ab.cli
    import sl2ab.oracle
    import workloads

    clock = time.perf_counter_ns
    latency: list[tuple] = []
    for req in pool.requests:
        if pool.cold:
            _empty_caches(sl2ab.oracle)
        tally.attempted += 1
        if tracer is not None:
            tracer.request_id = tally.attempted
        out = io.StringIO()
        spent = probe.spent_ns
        start = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = sl2ab.cli.run(req.argv)
        except Exception:  # a crash is a failed request, not a failed run
            rc = None
        end = clock()
        latency.append((start, end, end - start - (probe.spent_ns - spent)))
        ok, rows = workloads.check(req.expect, rc, out.getvalue())
        tally.rows += rows
        if not ok:
            tally.failed += 1
            if len(tally.mismatches) < 5:
                tally.mismatches.append(
                    f"{' '.join(req.argv)} -> exit {rc}, expected {req.expect[:2]!r}"[:300]
                )
    return latency


def _tail(sorted_ns: list[int]) -> tuple[float, int]:
    """The highest whole percentile with at least TAIL_MIN_ABOVE samples above
    it (nearest rank), as (value, percentile)."""
    n = len(sorted_ns)
    for pct in range(99, 0, -1):
        rank = max(1, math.ceil(pct * n / 100))
        if n - rank >= TAIL_MIN_ABOVE:
            return sorted_ns[rank - 1], pct
    return sorted_ns[-1], 100


def worker(args) -> int:
    pool, setup_s = _set_up(args.workload, args.seed, args.spawned_ns)
    import workloads

    setup_probes = [_probe() for _ in range(SETUP_PROBES)]
    setup_s *= _speed_scale(setup_probes)
    if args.worker == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Each request is timed once per pass; its latency is the median of its
    # times, each scaled to reference speed by the probes taken during it and
    # just before and after it.
    tally = Tally()
    passes: list[list[tuple]] = []
    probe = SpeedProbe()
    probe.start()
    try:
        begin = time.perf_counter()
        while not passes or time.perf_counter() - begin < args.seconds:
            passes.append(_run_pass(pool, tally, probe))
    finally:
        probe.stop()
    probe_ends = [end for end, _ in probe.samples]
    probe_ns = [took for _, took in probe.samples]
    scale = _speed_scale(probe_ns)
    margin = int(PROBE_EVERY_S * 1e9)

    def local(start: int, end: int) -> float:
        lo = bisect.bisect_left(probe_ends, start - margin)
        hi = bisect.bisect_right(probe_ends, end + margin)
        return _speed_scale(probe_ns[lo:hi] or probe_ns)

    latency = [
        statistics.median(ns * local(start, end) for start, end, ns in times)
        for times in zip(*passes)
    ]
    busy_s = sum(latency) / 1e9
    ordered = sorted(latency)
    tail, tail_pct = _tail(ordered)
    result = {
        "why": workloads.WHY[args.workload],
        "setup_s": setup_s,
        "probe_median_ms": statistics.median(probe_ns) / 1e6,
        "probes": len(probe_ns),
        "run_speed_scale": scale,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "mismatches": tally.mismatches,
        "passes": len(passes),
        "pass_s": [sum(ns for _, _, ns in p) / 1e9 for p in passes],
        "pool_size": len(pool.requests),
        "ops_per_s": len(latency) / busy_s,
        "rows_per_s": tally.rows / len(passes) / busy_s,
        "latency_p50_ms": statistics.median(ordered) / 1e6,
        "latency_tail_ms": tail / 1e6,
        "latency_tail_pct": tail_pct,
        "latency_samples": len(ordered),
        "correct_frac": 1 - tally.failed / tally.attempted,
        "failed_frac": tally.failed / tally.attempted,
    }
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = Tally()
        around = [_probe() for _ in range(SETUP_PROBES)]
        traced_s = sum(ns for _, _, ns in _run_pass(pool, traced, SpeedProbe(), tracer)) / 1e9
        around += [_probe() for _ in range(SETUP_PROBES)]
        # times at reference speed, like the end-to-end ones
        traced_scale = _speed_scale(around)
        layers = {
            k: (v * traced_scale if unit == "ms" else v, unit)
            for k, (v, unit) in tracing.per_layer_metrics(tracer).items()
        }
        untraced_s = statistics.median(result["pass_s"]) * scale
        layers["trace.overhead_pct"] = (100 * (traced_s * traced_scale / untraced_s - 1), "%")
        self_ms = {layer: layers[f"{layer}.self_ms"][0] for layer in tracing.LAYERS}
        result["per_layer"] = layers
        result["dominant_layer"] = max(self_ms, key=self_ms.get)
        result["layer_self_share"] = {
            k: round(v / (sum(self_ms.values()) or 1), 4) for k, v in self_ms.items()
        }
        result["traced_failed"] = traced.failed
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["attempted"] += traced.attempted
        result["failed"] += traced.failed
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if pool.known_defects:
        # after every measurement, so that they move no metric
        defects = Tally()
        _run_pass(workloads.Pool(pool.known_defects), defects, SpeedProbe())
        result["known_defect"] = {
            "sent": defects.attempted,
            "still_wrong": defects.failed,
            "examples": defects.mismatches[:2],
        }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# parent side


def _spawn(args, role: str, timeout: float) -> dict:
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--worker", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    spawned = time.monotonic_ns()
    proc = subprocess.run(
        [*argv, "--spawned-ns", str(spawned)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def _git(*cmd: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=20,
            # a checkout that is not a repository must not report an outer one
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def parent(args) -> int:
    if not (SRC / "sl2ab" / "__init__.py").is_file():
        print(f"error: no sl2ab package under {SRC}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # All workers on one processor, the same one every run: on a shared
        # 2-vCPU machine this cut the pass-to-pass spread of oracle-cold,
        # after speed scaling, by about half in three paired tries.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        setups = [
            _spawn(args, "setup", deadline - time.monotonic())["setup_s"]
            for _ in range(SETUP_ONLY_RUNS)
        ]
        run = _spawn(args, "measure", deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(run["setup_s"])
    defect = run.get("known_defect")
    if defect and defect["still_wrong"]:
        print(
            f"known defect: {defect['still_wrong']} of {defect['sent']} untimed "
            f"requests still answered wrongly, e.g. {defect['examples'][0]}",
            file=sys.stderr,
        )

    status = _git("status", "--porcelain")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "client": "one client, closed loop, in-process sl2ab.cli.run",
        "setup_samples_s": setups,
        **{k: v for k, v in run.items() if k not in ("per_layer", "setup_s")},
    }
    print(json.dumps({"info": info}))

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in run["per_layer"].items()}
    else:
        values = {
            "ops_per_s": (run["ops_per_s"], "1/s"),
            "rows_per_s": (run["rows_per_s"], "1/s"),
            "latency_p50_ms": (run["latency_p50_ms"], "ms"),
            "latency_tail_ms": (run["latency_tail_ms"], "ms"),
            "correct_frac": (run["correct_frac"], "fraction"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# self-test


def self_test() -> int:
    """One seed always gives the same inputs, another seed other inputs; the
    rule-based quadratic reference agrees with verify's table; and the checker
    passes a true reply and flags one whose group was changed on purpose."""
    sl2ab = _import_package()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    problems: list[str] = []
    for name in WORKLOADS:
        a, b = (workloads.build(name, 7, OUT_DIR) for _ in range(2))
        c = workloads.build(name, 8, OUT_DIR)
        if a != b:
            problems.append(f"{name}: seed 7 gave two different pools")
        if [r.argv for r in a.requests] == [r.argv for r in c.requests]:
            problems.append(f"{name}: seeds 7 and 8 gave the same pool")

    for d in range(-3000, 3001):
        if d not in (0, 1) and workloads.squarefree(d):
            if workloads.quadratic_torsion(d) != workloads.quadratic_table(d):
                problems.append(f"quadratic rule and table disagree at d = {d}")

    rng = random.Random(0)
    for name in WORKLOADS:
        pool = workloads.build(name, 7, OUT_DIR)
        cheap = [r for r in pool.requests if r.expect[0] != "exit"]
        cheap.sort(key=lambda r: len(" ".join(r.argv)))
        for req in cheap[:3] + rng.sample(cheap, 2) if name != "oracle-cold" else cheap[:2]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = sl2ab.cli.run(req.argv)
            text = out.getvalue()
            if not workloads.check(req.expect, rc, text)[0]:
                problems.append(f"{name}: true reply rejected: {req.argv}")
            if req.expect[0] == "table":
                lines = text.splitlines()
                lines[-1] = lines[-1].rsplit(" ", 1)[0] + " Z/5"
                bad = "\n".join(lines)
            else:
                doc = json.loads(text)
                doc["group"]["invariant_factors"].append(5)
                bad = json.dumps(doc)
            if workloads.check(req.expect, rc, bad)[0]:
                problems.append(f"{name}: changed group not flagged: {req.argv}")
            if workloads.check(req.expect, rc + 1, text)[0]:
                problems.append(f"{name}: changed exit code not flagged: {req.argv}")
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--worker", choices=("setup", "measure"), help=argparse.SUPPRESS)
    ap.add_argument("--spawned-ns", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if args.worker:
        return worker(args)
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
