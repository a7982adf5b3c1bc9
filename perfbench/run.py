"""screengame benchmark: seeded workloads through `screengame.cli.main`, in process.

Run from the repository root:

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One process runs one workload as a closed loop with a single client: each
instance (one `cli.main` call on generated model files) starts when the
previous one returns. Rounds of a fixed composition repeat a fixed number of
times: about `--seconds` of loop at nominal machine speed, and at least
MIN_INSTANCES instance slots. Every instance has a deadline, enforced with
SIGALRM in this same thread; an instance past it counts as failed. Every output is checked against a reference, and the run
reports `correct: false` and exits 1 on any wrong output.

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` the same rounds run once untraced and once traced, and it holds
the per-layer metrics. `--workload all` runs every workload, both ways, each
in a fresh process, prints their logs and ends with one JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import CHECKS, WORKLOADS, CheckError, Outcome  # noqa: E402

MIN_INSTANCES = 100
SETUP_REPS = 25
REF_NOMINAL_S = 0.0005  # reference_chunk() time at the nominal speed of the machine the benchmark was built on
WORK_DIR = ".perfbench_work"  # under the checkout root; removed after each run


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM in the middle of an instance that ran past its deadline.

    A BaseException so that no `except Exception` in the program swallows it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded


# ----------------------------------------------------------------------
# machine speed


def reference_chunk() -> int:
    """Fixed pure-Python work of the program's kind: payoff sums over tuples, bit masks."""
    table = [[(i * 7 + j * 3) % 5 - 2 for j in range(4)] for i in range(4)]
    seqs = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
    mask = 0
    for x in seqs[:6]:
        own = sum(table[s][s] for s in x)
        for y in seqs:
            if sum(table[r][t] for r, t in zip(y, x)) >= own:
                mask |= 1 << (y[0] * 4 + x[1])
    return mask


class Speed:
    """Scales a timed span to the nominal speed of the machine.

    On a shared machine the CPU speed swings by up to 2x over seconds, and the
    program's speed swings with it. A reference chunk timed just before and
    just after a span tracks those swings; a window over many earlier chunks
    lags them. So each untraced span is scaled by REF_NOMINAL_S over the mean
    of the two chunks that bracket it.
    """

    def __init__(self):
        self.chunks: list[float] = []

    def sample(self) -> float:
        started = time.perf_counter()
        reference_chunk()
        elapsed = time.perf_counter() - started
        self.chunks.append(elapsed)
        return elapsed

    def bracket(self, before: float) -> float:
        """Factor for a span that `before` preceded and that has just ended."""
        return 2 * REF_NOMINAL_S / (before + self.sample())


# ----------------------------------------------------------------------
# set-up


def _import_cli():
    for name in [m for m in sys.modules if m == "screengame" or m.startswith("screengame.")]:
        del sys.modules[name]
    return importlib.import_module("screengame.cli")


def measure_setup(model_files: list[Path], speed: Speed) -> tuple[float, object]:
    """Median seconds to import screengame and parse the workload's model files.

    Each repetition drops screengame from the module cache first, so it pays
    the package import again (standard-library modules stay loaded). Times
    are scaled to nominal machine speed.
    """
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()  # free the previous repetition's modules outside the timing
        before = speed.sample()
        started = time.perf_counter()
        cli = _import_cli()
        for path in model_files:
            cli.parse_model(path.read_text(encoding="utf-8"))
        elapsed = time.perf_counter() - started
        times.append(elapsed * speed.bracket(before))
    return statistics.median(times), cli


# ----------------------------------------------------------------------
# the loop


class Loop:
    """Runs instances and accumulates what the metrics need."""

    def __init__(self, cli, deadline_s: float, speed: Speed | None = None):
        self.cli = cli
        self.deadline_s = deadline_s
        self.speed = speed  # scales times to nominal machine speed when set
        self.latencies: list[float] = []  # per instance slot: the median of its passes
        self.attempted = 0  # cli.main calls
        self.failed = 0
        self.misses: list[str] = []  # deadline misses, by instance name
        self.errors: list[str] = []  # wrong outputs, exceptions, bad exit codes
        self.certified = 0
        self.flags = 0

    def call(self, inst) -> float:
        """One checked `cli.main` call; returns its seconds at nominal machine speed.

        A deadline miss returns its wall-clock time, unscaled: the deadline is
        a wall-clock limit.
        """
        gc.collect()  # outside the timing; cheap, as run_workload froze the benchmark's objects
        before = self.speed.sample() if self.speed is not None else 0.0
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        code: int | None = None
        exc: BaseException | None = None
        started = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(inst.argv)
        except DeadlineExceeded as caught:
            exc = caught
        except SystemExit as caught:  # argparse usage errors
            code = caught.code if isinstance(caught.code, int) else 2
        except Exception as caught:  # noqa: BLE001 - the instance failed; keep running
            exc = caught
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - started
        if isinstance(exc, DeadlineExceeded):
            self.failed += 1
            self.misses.append(inst.name)
            self.flags += 2 if inst.kind == "bounds" else 0
            return elapsed
        if self.speed is not None:
            elapsed *= self.speed.bracket(before)
        try:
            if exc is not None:
                raise CheckError(f"raised {type(exc).__name__}: {exc}")
            outcome: Outcome = CHECKS[inst.kind](inst, code, out.getvalue(), err.getvalue())
        except (CheckError, KeyError, ValueError) as problem:
            self.failed += 1
            self.errors.append(f"{inst.name} {' '.join(inst.argv)}: {type(problem).__name__}: {problem}")
        else:
            self.certified += outcome.certified
            self.flags += outcome.flags
        return elapsed


def round_count(workload, seconds: float) -> int:
    """Rounds in a measured run: about `seconds` of loop at nominal machine speed.

    The count depends only on `seconds` and the workload, never on how fast
    this run goes, so every run of a workload makes the same calls and a
    failure fraction compares exactly from run to run and commit to commit.
    """
    return max(math.ceil(MIN_INSTANCES / workload.round_size), round(seconds / workload.round_s))


def run_rounds(loop: Loop, workload, count: int, *, repeat: bool) -> float:
    """Run `count` whole rounds; returns the loop's wall-clock seconds.

    With `repeat`, each slot runs `inst.passes` times, reshuffled between
    passes, and counts the median of its runs. Which slots repeat is fixed by
    the workload, not by this run's timings.
    """
    rounds = workload.rounds()
    started = time.perf_counter()
    for _ in range(count):
        batch = next(rounds)
        runs: list[list[float]] = [[] for _ in batch]
        order = list(range(len(batch)))
        for done_passes in range(max(inst.passes for inst in batch) if repeat else 1):
            for i in order:
                if done_passes < batch[i].passes:
                    runs[i].append(loop.call(batch[i]))
            workload.rng.shuffle(order)
        loop.latencies.extend(statistics.median(times) for times in runs)
    return time.perf_counter() - started


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(loop: Loop, setup_s: float) -> dict[str, tuple[float, str]]:
    completed = len(loop.latencies) - len(loop.misses)
    return {
        "instances_per_s": (completed / sum(loop.latencies), "1/s"),
        "instance_p50_ms": (percentile(loop.latencies, 50) * 1000, "ms"),
        "instance_p90_ms": (percentile(loop.latencies, 90) * 1000, "ms"),
        "completed_frac": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (setup_s, "s"),
    }


# ----------------------------------------------------------------------
# one workload in this process


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, list[str]]:
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = root / WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, workdir)
        speed = Speed()
        setup_s, cli = measure_setup(workload.model_files, speed)
        twin = WORKLOADS[name](seed, workdir) if trace else None  # the same rounds, for the untraced loop
        # The pool, the models and the loaded package stay for the whole run.
        # Frozen, they are left out of every later collection, so the
        # program's own collections cost what they would in a fresh CLI
        # process.
        gc.collect()
        gc.freeze()
        loop = Loop(cli, workload.deadline_s, None if trace else speed)
        if not trace:
            rounds_done = round_count(workload, seconds)
            loop_s = run_rounds(loop, workload, rounds_done, repeat=True)
            metrics = end_to_end(loop, setup_s)
            extra = [f"  failed_frac = {loop.failed / loop.attempted:.6f} ratio (n={loop.attempted})"]
            if loop.flags:
                extra.append(f"  certified_frac = {loop.certified / loop.flags:.6f} ratio (n={loop.flags} flags)")
            else:
                extra.append("  certified_frac = n/a (no certification flags in this workload's outputs)")
            extra.append(f"  instance slots = {len(loop.latencies)}; a slot with several passes counts their median")
            extra.append(
                f"  machine speed: reference chunk mean {statistics.fmean(speed.chunks) * 1000:.4f} ms "
                f"(nominal {REF_NOMINAL_S * 1000:.4f} ms); times above are scaled to nominal"
            )
        else:
            # The same rounds, one pass each, untraced then traced, in this process.
            rounds_done = math.ceil(MIN_INSTANCES / workload.round_size)
            untraced = Loop(cli, workload.deadline_s)
            untraced_s = run_rounds(untraced, twin, rounds_done, repeat=False)
            tracer = Tracer(DeadlineExceeded)
            tracer.install()
            try:
                loop_s = run_rounds(loop, workload, rounds_done, repeat=False)
            finally:
                tracer.uninstall()
            metrics = tracer.layer_metrics(loop_s, untraced_s)
            loop.errors.extend(untraced.errors)
            extra = [f"  missing traced functions: {', '.join(tracer.missing) or 'none'}"]
            extra += tracer.span_table()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [
        f"workload {name} seed {seed} trace {int(trace)}: {loop.attempted} instances in "
        f"{rounds_done} rounds of {workload.round_size}, {loop_s:.3f} s loop, deadline {workload.deadline_s} s"
    ]
    for key, (value, unit) in metrics.items():
        samples = {"setup_s": SETUP_REPS, "completed_frac": loop.attempted}.get(key, len(loop.latencies))
        lines.append(f"  {key} = {value:.6g} {unit} (n={samples})")
    lines += extra
    lines.append(f"  deadline misses ({len(loop.misses)}): {', '.join(loop.misses) or 'none'}")
    for problem in loop.errors:
        lines.append(f"  WRONG OUTPUT: {problem}")
    result = {
        "correct": not loop.errors,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return result, lines


# ----------------------------------------------------------------------
# every workload, each in a fresh process


def run_all(seed: int, seconds: int) -> int:
    summary = {}
    ok = True
    for name in WORKLOADS:
        summary[name] = {}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            ok = ok and proc.returncode == 0 and bool(result and result["correct"])
            summary[name]["per_layer" if trace else "end_to_end"] = result
            if not trace:
                misses = [ln for ln in lines if ln.strip().startswith("deadline misses")]
                summary[name]["deadline_misses"] = misses[0].split(": ", 1)[1] if misses else None
    print(json.dumps({"seed": seed, "seconds": seconds, "workloads": summary}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "screengame" / "__init__.py").is_file():
        print(f"error: no screengame sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args.seed, int(args.seconds))
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
