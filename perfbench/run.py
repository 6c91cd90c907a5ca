"""stacksortlab benchmark: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload image-scan --seed 1 \
        --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from `src/`
and needs nothing installed.  With `--trace 0` it reports the end-to-end
metrics; with `--trace 1` it alternates untraced and traced passes and
reports the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import itertools
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import types
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

import plans
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("image-scan", "verify-grid", "perm-queries", "cli-session")
MODULES = ("lab", "stacksort", "patterns", "constructions", "cli", "perm")
SETUP_REPEATS = 9
PROBE_REPEATS = 7
# The yardstick: one stack-sorting pass over every eighth permutation of
# [8], each image put in a set, then the recursive pass and the stack
# machine events of the oracles in plans.py on every fifth of those.  It
# is the benchmark's own code, shares none with the package, and does what
# the package's scan loops and single-permutation calls do, so its time
# tracks the speed the host gives the run, which on a shared host swings
# by up to 2x for seconds to minutes at a time.  A reading is taken about
# every YARDSTICK_EVERY_S and each latency is scaled to a host on which one
# yardstick takes YARDSTICK_S (see `Yardstick.scaled`).  `cli-session` is
# not scaled: the start of a child interpreter follows the yardstick less
# than it varies, and scaling widened its spread.
YARDSTICK_PERMS = tuple(itertools.islice(
    itertools.permutations(range(1, 9)), 0, None, 8))
YARDSTICK_S = 0.02
YARDSTICK_EVERY_S = 0.2
YARDSTICK_WINDOW_S = 1.0
# Where a scaled workload's operations stand still, so that a reading can
# be taken without the program running beside it:
# - "anywhere": they run in this thread, so an interval timer takes the
#   readings, also in the middle of an operation;
# - "engine calls": `verify_all` runs its image questions on worker
#   processes that live only within `lab.image_of_iterate`, so a reading
#   is taken as such a call starts, and between operations.
STILL_POINTS = {"image-scan": "anywhere", "perm-queries": "anywhere",
                "verify-grid": "engine calls"}
END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac",
    "perms_per_s": "1/s", "verify_s": "s", "query_p50_us": "us",
    "query_p99_us": "us", "queries_per_s": "1/s", "cli_p50_ms": "ms",
    "cli_p90_ms": "ms",
}
# A small call per workload that loads every code path the timed passes use.
# `verify-grid`'s runs in this thread: every engine call in a pass starts
# its own worker processes, so starting them is not set-up.
WARM_UP = {
    "image-scan": lambda mods, ops: mods.lab.image_of_iterate(7, 2),
    "verify-grid": lambda mods, ops: mods.lab.verify_all(5),
    "perm-queries": lambda mods, ops: [op.call() for op in ops[:200]],
    "cli-session": lambda mods, ops: ops[0].call(),
}


def import_package(mods: types.SimpleNamespace) -> None:
    """A fresh import of the package's modules into `mods`, so that every
    set-up pays for the import.  The plan's operations look their module up
    in `mods` at call time, so they use the latest import."""
    for name in [n for n in sys.modules
                 if n == "stacksortlab" or n.startswith("stacksortlab.")]:
        del sys.modules[name]
    for m in MODULES:
        setattr(mods, m, importlib.import_module(f"stacksortlab.{m}"))


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "STACKSORT_MAX_N"}
    env["PYTHONPATH"] = str(SRC)
    return env


def build_plan(workload: str, seed: int, mods, in_process: bool):
    """The seeded operations and their expected answers.  This is the
    benchmark's own work, so it is not part of `setup_s`."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cli-session":
        return plans.cli_session(rng, mods,
                                 None if in_process else cli_env())
    return plans.BUILDERS[workload](rng, mods)


class Yardstick:
    """Readings of the yardstick as (start, end) pairs of `perf_counter`
    times, and the scaling of timings by them."""

    def __init__(self, still_points: str):
        self.readings: list[tuple[float, float]] = []
        self.on_timer = still_points == "anywhere"
        self._busy = False

    def take(self, *_signal_args) -> None:
        """One reading, with the collector off so that the program's heap
        does not reach into it.  Also the interval timer's handler."""
        if self._busy:  # the timer fired again within a slow reading
            return
        self._busy = True
        gc_was_on = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        seen: set[bytes] = set()
        for w in YARDSTICK_PERMS:
            out: list[int] = []
            stack: list[int] = []
            for x in w:
                while stack and stack[-1] < x:
                    out.append(stack.pop())
                stack.append(x)
            while stack:
                out.append(stack.pop())
            seen.add(bytes(out))
        for w in YARDSTICK_PERMS[::5]:
            plans.s_rec(w)
            plans.machine_events(w)
        self.readings.append((t0, perf_counter()))
        if gc_was_on:
            gc.enable()
        self._busy = False

    def take_if_due(self) -> None:
        """A reading, if YARDSTICK_EVERY_S has gone by since the last."""
        if perf_counter() - self.readings[-1][1] >= YARDSTICK_EVERY_S:
            self.take()

    def before(self, fn):
        """`fn`, taking a reading first when one is due."""
        def wrapper(*args, **kwargs):
            self.take_if_due()
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def every_interval(self):
        """A reading at the start and at the end.  In between, one wherever
        `take_if_due` finds YARDSTICK_EVERY_S gone by since the last, and
        one every YARDSTICK_EVERY_S from an interval timer when operations
        stand still anywhere.  An operation stands still while a reading is
        taken; `scaled` takes its time out again."""
        self.take()
        if self.on_timer:
            previous = signal.signal(signal.SIGALRM, self.take)
            signal.setitimer(signal.ITIMER_REAL, YARDSTICK_EVERY_S,
                             YARDSTICK_EVERY_S)
        try:
            yield
        finally:
            if self.on_timer:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self.take()

    def scaled(self, t0: float, t1: float) -> float:
        """The time from t0 to t1, less the readings taken inside it,
        multiplied by YARDSTICK_S over the mean of the readings that start
        within YARDSTICK_WINDOW_S of it, and at least the nearest one on
        either side."""
        def first_from(t):
            return bisect.bisect_left(self.readings, t, key=lambda r: r[0])
        i, j = first_from(t0), first_from(t1)
        inside = self.readings[i:j]
        around = self.readings[
            min(first_from(t0 - YARDSTICK_WINDOW_S), max(i - 1, 0)):
            max(first_from(t1 + YARDSTICK_WINDOW_S), j + 1)]
        net = t1 - t0 - sum(end - begin for begin, end in inside)
        return net * YARDSTICK_S / statistics.fmean(
            end - begin for begin, end in around)

    def durations(self) -> list[float]:
        return [end - begin for begin, end in self.readings]


def timed(spans: list, stick: Yardstick | None) -> list[float]:
    """The (start, end) spans' wall times, or as `stick.scaled` gives them
    when there is a stick."""
    if stick is None:
        return [t1 - t0 for t0, t1 in spans]
    return [stick.scaled(t0, t1) for t0, t1 in spans]


def readings(stick: Yardstick | None):
    return stick.every_interval() if stick is not None else nullcontext()


def set_ups(workload: str, mods, ops, stick: Yardstick | None) -> list:
    """SETUP_REPEATS set-ups of the program, as `setup_s` times them: each
    imports the package afresh and makes the warm-up call."""
    spans = []
    with readings(stick):
        for _ in range(SETUP_REPEATS):
            if stick is not None:
                stick.take_if_due()
            t0 = perf_counter()
            import_package(mods)
            WARM_UP[workload](mods, ops)
            spans.append((t0, perf_counter()))
    return timed(spans, stick)


class Tally:
    """Answers attempted, wrong and failed, with a few examples to print."""

    def __init__(self):
        self.attempted = self.wrong = self.errors = 0
        self.examples: list[str] = []

    def add(self, op: plans.Op, result) -> None:
        self.attempted += op.answers
        if isinstance(result, Exception):
            wrong, errors = 0, op.answers
        else:
            wrong, errors = op.check(result)
        self.wrong += wrong
        self.errors += errors
        if (wrong or errors) and len(self.examples) < 5:
            self.examples.append(f"{op.kind}: {repr(result)[:300]}")


def one_pass(ops, tally: Tally, stick: Yardstick | None = None,
             tracer=None, op_base: int = 0):
    """Run every operation once as a single closed-loop client.  Returns
    the pass's wall time, readings included, and each operation's latency
    (see `timed`).  Answers are checked after the pass, outside the timed
    region."""
    spans, results = [], []
    start = perf_counter()
    with readings(stick):
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = op_base + i
            if stick is not None:
                stick.take_if_due()
            t0 = perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a failed answer; the run goes on
                result = exc
            spans.append((t0, perf_counter()))
            results.append(result)
    wall = perf_counter() - start
    for op, result in zip(ops, results):
        tally.add(op, result)
    return wall, timed(spans, stick)


def another_fits(walls: list[float], seconds: float) -> bool:
    """Whole passes only: a run makes at least one, then starts another
    while it should end in time."""
    return not walls or sum(walls) + statistics.mean(walls) <= seconds


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (KiB on
    Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def end_to_end(ops, seconds: float, tally: Tally, stick: Yardstick | None,
               setup_s: float, record: dict) -> dict:
    walls, per_pass = [], []
    while another_fits(walls, seconds):
        wall, lat = one_pass(ops, tally, stick)
        walls.append(wall)
        per_pass.append(lat)
    # Each operation's latency is its median over the passes, and the rates
    # use the median pass, so that a burst of load from outside the run
    # moves neither.  A pass's time is the sum of its latencies.
    latencies = sorted(map(statistics.median, zip(*per_pass)))
    pass_s = statistics.median(map(sum, per_pass))
    record["passes_s"] = walls
    failed = tally.wrong + tally.errors
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1 - failed / tally.attempted,
        "perms_per_s": sum(op.perms for op in ops) / pass_s,
        "verify_s": pass_s,
        "query_p50_us": percentile(latencies, 50) * 1e6,
        "query_p99_us": percentile(latencies, 99) * 1e6,
        "queries_per_s": len(ops) / pass_s,
        "cli_p50_ms": percentile(latencies, 50) * 1e3,
        "cli_p90_ms": percentile(latencies, 90) * 1e3,
    }


def startup_probes() -> tuple[float, float]:
    """Median ms of a bare interpreter, and of importing the CLI on top."""
    env = cli_env()
    bare, imported = [], []
    for _ in range(PROBE_REPEATS):
        for code, sink in (("pass", bare),
                           ("import stacksortlab.cli", imported)):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           timeout=plans.CLI_TIMEOUT_S)
            sink.append(perf_counter() - t0)
    b, i = statistics.median(bare), statistics.median(imported)
    return b * 1e3, (i - b) * 1e3


def traced_run(workload, mods, ops, seconds, tally, record) -> tuple:
    """Alternate untraced and traced passes; per-layer metrics come from
    the traced ones, the overhead from comparing the two.  All in wall
    time: no yardstick, so that no span holds a reading."""
    tracer = tracing.Tracer()
    plain, traced, per_pass_counts = [], [], []
    while another_fits([a + b for a, b in zip(plain, traced)], seconds):
        plain.append(one_pass(ops, tally)[0])
        before = Counter(tracer.counts)
        tracer.install(mods)
        try:
            traced.append(one_pass(ops, tally, tracer=tracer,
                                   op_base=len(traced) * len(ops))[0])
        finally:
            tracer.remove()
        per_pass_counts.append(tracer.counts - before)
    metrics = tracing.layer_metrics(tracer, len(traced))
    metrics["trace.overhead_pct"] = (sum(traced) / sum(plain) - 1) * 100, "%"
    bare_ms, import_ms = startup_probes() if workload == "cli-session" \
        else (0.0, 0.0)
    metrics["cli.bare_python_ms"] = bare_ms, "ms"
    metrics["cli.import_ms"] = import_ms, "ms"

    counts = tracing.exact_counts(tracer, len(traced))
    repeat = all(c == per_pass_counts[0] for c in per_pass_counts)
    # the plan's own enumeration figures, which `perms_per_s` divides, must
    # agree with what the traced passes saw the program asked for
    planned = sum(op.perms for op in ops)
    if counts.get("lab.perms_scanned", 0) != planned:
        print(f"perfbench: the plan expects {planned} permutations "
              f"scanned per pass, the trace counted "
              f"{counts.get('lab.perms_scanned', 0)}", file=sys.stderr)
        repeat = False
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{record['seed']}"
    known = OUT / f"counts-{stem}-{record['source'][:16]}.json"
    if known.exists():
        repeat = repeat and json.loads(known.read_text()) == counts
    else:
        known.write_text(json.dumps(counts, indent=1, sort_keys=True))
    with open(OUT / f"spans-{stem}.jsonl", "w") as fh:
        fh.write(json.dumps({"record": record,
                             "fields": ["name", "start", "end", "parent",
                                        "op"]}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    record["counts"] = counts
    record["counts_repeat"] = repeat
    return metrics, repeat


def environment(args) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    # identifies the code measured: the package and the benchmark itself
    digest = hashlib.sha256()
    files = [*(SRC / "stacksortlab").rglob("*"), *HERE.glob("*.py")]
    for path in sorted(files):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "loadavg": os.getloadavg(), "commit": commit,
            "source": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stacksortlab" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = environment(args)
    print(f"perfbench: {json.dumps(record)}", file=sys.stderr)

    mods = types.SimpleNamespace()
    import_package(mods)
    ops = build_plan(args.workload, args.seed, mods,
                     in_process=bool(args.trace))
    # the yardstick scales the untraced runs
    still_points = None if args.trace else STILL_POINTS.get(args.workload)
    stick = Yardstick(still_points) if still_points else None
    setups = set_ups(args.workload, mods, ops, stick)
    # keep the plan and its expected answers out of the collector's scans
    gc.collect()
    gc.freeze()
    tally = Tally()
    if args.trace:
        metrics, repeat = traced_run(args.workload, mods, ops, args.seconds,
                                     tally, record)
    else:
        if still_points == "engine calls":
            mods.lab.image_of_iterate = stick.before(
                mods.lab.image_of_iterate)
        values = end_to_end(ops, args.seconds, tally, stick,
                            statistics.median(setups), record)
        record["yardsticks_s"] = stick.durations() if stick else []
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        repeat = True

    for example in tally.examples:
        print(f"perfbench: failed answer: {example}", file=sys.stderr)
    if not repeat:
        print("perfbench: exact counts differ between passes or runs, "
              "or from the plan", file=sys.stderr)
    result = {"correct": tally.wrong == 0 and repeat,
              "attempted": tally.attempted,
              "failed": tally.wrong + tally.errors,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record.update(setups_s=setups, wrong=tally.wrong, errors=tally.errors,
                  result=result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
