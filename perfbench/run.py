"""dpfcolor benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload planar_fan --seed 1 --seconds 20 --trace 0

The client sends the next operation only when the previous one has
returned, with no threads or pools.  With `--trace 0` the run sets up
several times, keeps the median set-up time, then loops over whole rounds
of the corpus until `--seconds` have passed and prints the end-to-end
metrics.  With `--trace 1` it runs a fixed set of rounds once untraced and
once with wrappers around each layer's boundary functions, and prints the
per-layer metrics plus the tracing overhead.  Every output is checked by
`perfbench/check.py`.  The last line of standard output is one JSON object.

The library is imported from `src/` next to this directory and treated as
a black box: only its public functions are called.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
SETUP_REPEATS = 3
TAIL_BEYOND = 10   # samples the tail percentile must leave above it

sys.path.insert(0, str(ROOT))
from perfbench import tracing  # noqa: E402
from perfbench.check import Digest  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "vertices_per_s": "vertices/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def layer_unit(name: str) -> str:
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_exp"):
        return "exponent"
    if name.endswith(("_ratio", "_per_vertex")):
        return "ratio"
    if name.endswith("depth_max"):
        return "frames"
    return "count"


def load_library():
    """Import dpfcolor afresh from this checkout's src/, never from elsewhere."""
    if not (SRC / "dpfcolor" / "__init__.py").is_file():
        raise BenchError(f"no dpfcolor sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "dpfcolor" or m.startswith("dpfcolor.")]:
        del sys.modules[name]
    dp = importlib.import_module("dpfcolor")
    importlib.import_module("dpfcolor.cli")
    if Path(dp.__file__).resolve().parent != (SRC / "dpfcolor").resolve():
        raise BenchError(f"dpfcolor was imported from {dp.__file__}, not from {SRC}")
    return dp


class Client:
    """Runs operations one after another and checks each output."""

    def __init__(self, workload):
        self.wl = workload
        self.digest = Digest(inst.key for rnd in workload.rounds[:workload.digest_rounds]
                             for inst in rnd)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, inst) -> tuple[float, bool]:
        """Latency in seconds and whether the output passed its check."""
        t0 = time.perf_counter()
        try:
            out = self.wl.op(inst)
        except Exception as exc:  # a failed operation is counted, not fatal
            dt = time.perf_counter() - t0
            err = f"{type(exc).__name__}: {str(exc)[:200]}"
        else:
            dt = time.perf_counter() - t0
            err, text = self.wl.check(inst, out)
            if err is None and not self.digest.add(inst.key, text):
                err = "output differs from an earlier run of the same instance"
        self.attempted += 1
        if err is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"instance {inst.key} ({inst.kind}, n={inst.n}): {err}")
        return dt, err is None


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _calibration_loop() -> int:
    """Fixed interpreter work, half tight arithmetic and half allocation.

    Under contention for the host's cores the arithmetic half slows less
    than the library does, and the half that builds frozensets, walks them
    and sorts tuples slows more; their sum tracks the library's slowdown.
    """
    table = dict.fromkeys(range(256), 0)
    acc = 0
    for i in range(6000):
        table[i & 255] = i
        acc += table[(i * 7) & 255] & 3
    adj = {v: frozenset((v * 7 + k * 13) % 300 for k in range(6)) for v in range(300)}
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return acc + len(seen) + len(sorted((v, w) for v in adj for w in adj[v] if v < w))


class Speedometer:
    """Measures how fast the interpreter runs right now.

    On a shared host the speed of one core drifts by up to a factor of two
    within seconds, which swamps any change in the program.  A fixed calibration
    loop is timed before every operation, and each latency is rescaled to
    the reference speed, at which the loop takes REFERENCE_S.  An
    operation's scale uses the mean of the calibrations just before and
    just after it.
    """

    REFERENCE_S = 0.0014

    def __init__(self):
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> int:
        """Time the calibration loop now; returns the sample's index."""
        t0 = time.perf_counter()
        _calibration_loop()
        self.samples.append(time.perf_counter() - t0)
        return len(self.samples) - 1

    def scale(self, before: int) -> float:
        """Factor for work done between sample `before` and the next sample."""
        return 2 * self.REFERENCE_S / (self.samples[before] + self.samples[before + 1])


def run_e2e(cls, seed: int, seconds: float, notes: list[str]) -> tuple[Client, dict]:
    speed = Speedometer()
    setup_raw, setup_times = [], []
    for rep in range(SETUP_REPEATS):
        before = len(speed.samples) - 1
        t0 = STARTED if rep == 0 else time.perf_counter()
        wl = cls(load_library(), seed, str(WORK_DIR / cls.name))
        client = Client(wl)
        client.run(wl.rounds[0][0])  # warm-up, checked but not timed
        setup_raw.append(time.perf_counter() - t0)
        speed.sample()
        setup_times.append(setup_raw[-1] * speed.scale(before))
    ops: list[tuple[float, int, bool, int]] = []   # (raw latency, sample, ok, vertices)
    start = time.perf_counter()
    r = 0
    # Whole rounds only, so every run measures the same mix of sizes.
    while time.perf_counter() - start < seconds:
        for inst in wl.rounds[r % len(wl.rounds)]:
            before = speed.sample()
            dt, ok = client.run(inst)
            ops.append((dt, before, ok, inst.n))
        r += 1
    speed.sample()
    raw = [dt for dt, _, _, _ in ops]
    latencies = [dt * speed.scale(before) for dt, before, _, _ in ops]
    ok_vertices = sum(n for _, _, ok, n in ops if ok)
    tail_s, tail_pct = tail(latencies)
    notes.append(f"rounds {r}, operations {len(latencies)}, "
                 f"tail at p{tail_pct:.2f} with {TAIL_BEYOND} samples above it")
    notes.append(f"unscaled: op_ms_p50 {1e3 * statistics.median(raw):.3f}, op_ms_tail "
                 f"{1e3 * tail(raw)[0]:.3f}, setup_s {statistics.median(setup_raw):.4f}; "
                 f"calibration loop median {1e3 * statistics.median(speed.samples):.4f} ms "
                 f"against {1e3 * speed.REFERENCE_S} ms reference")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "vertices_per_s": ok_vertices / sum(latencies),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_tail": 1e3 * tail_s,
        "ok_frac": 1.0 - client.failed / client.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return client, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}


def run_traced(cls, seed: int, notes: list[str]) -> tuple[Client, dict]:
    dp = load_library()
    setup = tracing.Tracer()
    setup.install()
    try:
        wl = cls(dp, seed, str(WORK_DIR / cls.name))
    finally:
        setup.restore()
    client = Client(wl)
    client.run(wl.rounds[0][0])  # warm-up
    ops = [inst for rnd in wl.rounds[:wl.trace_rounds] for inst in rnd]
    traced = tracing.Tracer()
    plain: list[tuple[int, float]] = []
    traced_s = 0.0
    # Each operation runs once untraced and once traced, alternating which
    # goes first, so drift over the run cancels out of the overhead.
    for k, inst in enumerate(ops):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append((inst.n, client.run(inst)[0]))
                continue
            traced.install()
            try:
                traced_s += client.run(inst)[0]
            finally:
                traced.restore()
    plain_s = sum(dt for _, dt in plain)
    notes.append(f"traced {len(ops)} operations: {traced_s:.4f} s traced, "
                 f"{plain_s:.4f} s untraced")
    metrics = tracing.layer_metrics(
        setup, traced, sum(inst.n for inst in ops),
        plain if cls.planar else [], traced_s / plain_s)
    return client, {k: (v, layer_unit(k)) for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cls = WORKLOADS[args.workload]
    notes = [f"workload {cls.name}, seed {args.seed}, trace {args.trace}",
             f"inputs: {cls.sizes_note}",
             "load: closed loop, one client in one process, no threads"]
    try:
        if args.trace:
            client, metrics = run_traced(cls, args.seed, notes)
        else:
            client, metrics = run_e2e(cls, args.seed, args.seconds, notes)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK_DIR / cls.name, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    notes.append(f"output digest sha256 {client.digest.hexdigest()} over "
                 f"{client.digest.covered()} of {len(client.digest.keys)} instances")
    for err in client.errors:
        print(f"FAILED {err}", file=sys.stderr)
    for line in notes:
        print("# " + line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
