"""horomod benchmark: one closed-loop client running ``horomod`` subprocesses.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each request is one ``python -m horomod`` process, started when the
previous one has exited.  A run makes round(S / pass_s) passes over the
workload's requests (see workloads.py), in an order drawn from the seed,
and checks every answer.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics, with every time scaled by a
reference task run next to it (see Clock).  --trace 1 alternates untraced
passes with passes whose requests run under traced.py, and reports the
per-layer metrics: calls and self time of each layer's public functions,
their counters, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from math import exp, log, log1p
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import traced  # noqa: E402
from workloads import WORKLOADS, PostContext, Request, write_defect_inputs  # noqa: E402

# `horomod --version` calls before every pass and after the last, so that
# setup_s, their median, samples the same stretch of time as the requests.
SETUP_PER_PASS = 2
REQUEST_LIMIT_S = 60.0
# Stop starting passes past this point so that a run ends within 180 s
# even when the program has become several times slower.
RUN_LIMIT_S = 120.0
TAIL_BEYOND = 10
# The host's speed drifts by a quarter within seconds, and every process
# on it drifts together.  Times are therefore scaled by a reference task
# that uses Fraction arithmetic like horomod but none of its code (see
# Clock).  REFERENCE_S is about the task's median wall time on the
# 2-core x86 container where the benchmark was defined.
REFERENCE_CMD = [
    sys.executable, "-c",
    "from fractions import Fraction\ns = Fraction(0)\nfor i in range(1, 8000):\n    s += Fraction(1, i % 97 + 1)",
]
REFERENCE_S = 0.1
TRACEBACK = b"Traceback (most recent call last)"


@dataclass
class Outcome:
    rc: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_mb: float
    timed_out: bool


class _Timeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise _Timeout


class Runner:
    """Starts one request process at a time and reaps it with wait4, which
    gives the child's own peak RSS."""

    def __init__(self, root: Path, workdir: Path):
        self.src = root / "src"
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.out_path = workdir / ".stdout"
        self.err_path = workdir / ".stderr"
        signal.signal(signal.SIGALRM, _alarm)

    def run(self, argv, spans_path: Optional[Path] = None) -> Outcome:
        if spans_path is None:
            cmd = [sys.executable, "-m", "horomod", *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced.py"), str(spans_path), str(self.src), "--", *argv]
        return self.spawn(cmd)

    def spawn(self, cmd: List[str]) -> Outcome:
        with open(self.out_path, "w+b") as out, open(self.err_path, "w+b") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.workdir, env=self.env)
            timed_out = False
            signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _Timeout:
                timed_out = True
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Outcome(proc.returncode, out.read(), err.read(), wall, usage.ru_maxrss / 1024.0, timed_out)


class Clock:
    """Scales wall times to the host's speed at the reference task.

    The reference task runs after every timed process, so each process
    sits between two reference runs.  Its wall time times REFERENCE_S over
    the mean wall time of those two runs is what it would have taken while
    the reference task took REFERENCE_S."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.before = self._reference()

    def _reference(self) -> float:
        res = self.runner.spawn(REFERENCE_CMD)
        if res.rc != 0 or res.timed_out:
            raise SystemExit(f"reference task failed: {res.stderr.decode(errors='replace')}")
        return res.wall_s

    def scale(self, wall_s: float) -> float:
        after = self._reference()
        speed = (self.before + after) / 2
        self.before = after
        return wall_s * REFERENCE_S / speed


def judge(req: Request, res: Outcome, workdir: Path) -> Tuple[Optional[str], Optional[dict]]:
    """Failure reason (or None) and the parsed envelope."""
    if res.timed_out:
        return f"no exit within {REQUEST_LIMIT_S:.0f} s", None
    if TRACEBACK in res.stderr:
        return "traceback: " + res.stderr.decode(errors="replace").strip().splitlines()[-1], None
    if res.rc != req.rc:
        return f"exit {res.rc}, expected {req.rc}", None
    text = res.stdout.decode("utf-8", errors="replace")
    if not text.endswith("\n") or text.count("\n") != 1:
        return "stdout is not exactly one line", None
    try:
        env = json.loads(text)
    except ValueError:
        return "stdout is not JSON", None
    if not isinstance(env, dict) or env.get("status") != ("ok" if req.rc == 0 else "error"):
        return "envelope status does not match the exit code", None
    if req.rc == 0 and "payload" not in env:
        return "envelope has no payload", env
    try:
        return req.check(env, workdir), env
    except Exception as exc:  # a malformed answer must not stop the run
        return f"answer check raised {type(exc).__name__}: {exc}", env


class Run:
    def __init__(self, runner: Runner):
        self.runner = runner
        self.attempted = 0
        self.failed = 0

    def request(self, req: Request, spans_path: Optional[Path] = None) -> Tuple[Outcome, Optional[dict]]:
        res = self.runner.run(req.argv, spans_path)
        reason, env = judge(req, res, self.runner.workdir)
        self.attempted += 1
        if reason:
            self.failed += 1
            print(f"FAIL {' '.join(req.argv)}: {reason}", file=sys.stderr)
        return res, env

    def untimed(self, req: Request) -> Optional[str]:
        """Runs a post-timing request; the caller counts its failure."""
        self.attempted += 1
        return judge(req, self.runner.run(req.argv), self.runner.workdir)[0]


def version_times(runner: Runner, clock: Clock, count: int) -> List[float]:
    times = []
    for _ in range(count):
        res = runner.run(["--version"])
        if res.rc != 0 or not res.stdout.startswith(b"horomod "):
            raise SystemExit(f"horomod --version failed: {res.stderr.decode(errors='replace')}")
        times.append(clock.scale(res.wall_s))
    return times


def quantile(values: List[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass of their
    slot.  A workload has a few request kinds, each timed a few times, and
    a single order statistic jumps from one kind to the next between runs;
    this estimate moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    if n < 3:
        return statistics.median(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    mode = (a - 1) / (a + b - 2)
    peak = (a - 1) * log(mode) + (b - 1) * log1p(-mode)
    steps = 64
    weights = []
    for i in range(n):
        grid = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(exp((a - 1) * log(x) + (b - 1) * log1p(-x) - peak) for x in grid))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def passes_for(workload, seconds: float) -> int:
    return max(1, round(seconds / workload.pass_s))


def finish_checks(run: Run, workload, payloads: Dict[tuple, dict]) -> None:
    ctx = PostContext(run.runner.workdir, payloads, run.untimed)
    for reason in workload.post(ctx):
        run.failed += 1
        print(f"FAIL post-run check: {reason}", file=sys.stderr)
    if workload.known_defects:
        write_defect_inputs(run.runner.workdir)
    for req in workload.known_defects:
        reason, _ = judge(req, run.runner.run(req.argv), run.runner.workdir)
        state = f"still fails ({reason})" if reason else "now passes"
        print(f"known defect, not counted: {' '.join(req.argv)}: {state}", file=sys.stderr)


def end_to_end(run: Run, workload, rng: random.Random, seconds: float) -> dict:
    run.runner.run(["--version"])  # writes the bytecode cache
    clock = Clock(run.runner)
    setup: List[float] = []
    times: List[float] = []
    peak = 0.0
    payloads: Dict[tuple, dict] = {}
    t0 = perf_counter()
    for _ in range(passes_for(workload, seconds)):
        if perf_counter() - t0 > RUN_LIMIT_S:
            print("run limit reached; fewer passes than planned", file=sys.stderr)
            break
        setup += version_times(run.runner, clock, SETUP_PER_PASS)
        payloads = {}
        for req in workload.make_pass(rng):
            res, env = run.request(req)
            times.append(clock.scale(res.wall_s))
            peak = max(peak, res.maxrss_mb)
            if env is not None:
                payloads[req.argv] = env.get("payload")
    setup += version_times(run.runner, clock, SETUP_PER_PASS)
    finish_checks(run, workload, payloads)
    n = len(times)
    return {
        "requests_per_s": (n / sum(times), "1/s"),
        "request_s.p50": (quantile(times, 0.5), "s"),
        # Centred on the (TAIL_BEYOND + 1)-th largest time.
        "request_s.tail": (quantile(times, max(0.5, (n - TAIL_BEYOND) / (n + 1))), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak, "MB"),
    }


# --------------------------------------------------------------- per layer

SPAN_LAYERS = list(traced.SPANS) + list(traced.WHOLE_MODULES)


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = [("cli.import_s", "s"), ("cli.output_bytes", "B")]
    for span in SPAN_LAYERS:
        out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    out += [
        ("linalg.rref.entries", "count"),
        ("linalg.rref.rank_ratio", "ratio"),
        ("linalg.rowspace_add.grew_ratio", "ratio"),
        ("mulaw.unknowns", "count"),
        ("mulaw.equations", "count"),
        ("mulaw.orbit_law.coeffs", "count"),
        ("liealg.chevalley_matrices.reuse_ratio", "ratio"),
        ("liealg.module_dim.max", "count"),
        ("trace.requests", "count"),
        ("trace.wall_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def add_spans(blob: dict, calls: Dict[str, float], self_s: Dict[str, float], counters: Dict[str, float]) -> None:
    """Fold one traced request into the run totals.  A span's self time
    is its duration minus the durations of its direct children."""
    child = [0.0] * len(blob["spans"])
    for _nid, parent, start, end in blob["spans"]:
        if parent >= 0:
            child[parent] += end - start
    for i, (nid, _parent, start, end) in enumerate(blob["spans"]):
        name = blob["names"][nid]
        calls[name] += 1
        self_s[name] += end - start - child[i]
    for key, val in blob["counters"].items():
        merge = max if key == "module_dim_max" else (lambda a, b: a + b)
        counters[key] = merge(counters.get(key, 0), val)


def layers(run: Run, workload, rng: random.Random, seconds: float) -> dict:
    calls: Dict[str, float] = {s: 0 for s in SPAN_LAYERS}
    self_s: Dict[str, float] = {s: 0.0 for s in SPAN_LAYERS}
    counters: Dict[str, float] = {}
    import_s = traced_wall = untraced_wall = 0.0
    out_bytes = requests = 0
    spans_path = run.runner.workdir / ".spans.json"
    payloads: Dict[tuple, dict] = {}
    t0 = perf_counter()
    for _ in range(max(1, passes_for(workload, seconds) // 2)):
        if perf_counter() - t0 > RUN_LIMIT_S:
            print("run limit reached; fewer passes than planned", file=sys.stderr)
            break
        reqs = workload.make_pass(rng)
        plain, payloads = {}, {}
        for req in reqs:
            res, env = run.request(req)
            untraced_wall += res.wall_s
            plain[req.argv] = res.stdout
            if env is not None:
                payloads[req.argv] = env.get("payload")
        for req in reqs:
            res, _ = run.request(req, spans_path)
            traced_wall += res.wall_s
            out_bytes += len(res.stdout)
            requests += 1
            if res.stdout != plain[req.argv]:
                run.failed += 1
                print(f"FAIL traced stdout differs: {' '.join(req.argv)}", file=sys.stderr)
            try:
                with open(spans_path, encoding="utf-8") as fh:
                    blob = json.load(fh)
            except (OSError, ValueError):
                run.failed += 1
                print(f"FAIL no spans written: {' '.join(req.argv)}", file=sys.stderr)
                continue
            finally:
                spans_path.unlink(missing_ok=True)
            import_s += blob["import_s"]
            add_spans(blob, calls, self_s, counters)
    finish_checks(run, workload, payloads)
    attributed = sum(self_s.values())
    m = {"cli.import_s": import_s, "cli.output_bytes": out_bytes}
    for span in SPAN_LAYERS:
        m[f"{span}.calls"] = calls[span]
        m[f"{span}.self_s"] = self_s[span]
    c = counters.get
    m.update({
        "linalg.rref.entries": c("rref_entries", 0),
        "linalg.rref.rank_ratio": _ratio(c("rref_rank", 0), c("rref_rows", 0)),
        "linalg.rowspace_add.grew_ratio": _ratio(c("rowspace_grew", 0), calls["linalg.rowspace_add"]),
        "mulaw.unknowns": c("unknowns", 0),
        "mulaw.equations": c("equations", 0),
        "mulaw.orbit_law.coeffs": c("orbit_law_coeffs", 0),
        "liealg.chevalley_matrices.reuse_ratio": _ratio(c("chevalley_modules", 0), calls["liealg.chevalley_matrices"]),
        "liealg.module_dim.max": c("module_dim_max", 0),
        "trace.requests": requests,
        "trace.wall_s": traced_wall,
        "trace.unattributed_s": traced_wall - attributed - import_s,
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
    })
    return {name: (m[name], unit) for name, unit in per_layer_names()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "horomod" / "cli.py").is_file():
        print("run from the root of a horomod checkout: src/horomod/cli.py is missing", file=sys.stderr)
        return 2
    workdir = root / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        run = Run(Runner(root, workdir))
        workload = WORKLOADS[args.workload]
        rng = random.Random(args.seed)
        measure = layers if args.trace else end_to_end
        metrics = measure(run, workload, rng, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
