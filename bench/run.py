"""Benchmark runner for the modulidim CLI.

Usage, from the root of a checkout::

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload's corpus as one closed-loop client: one CLI
child at a time (``python -m modulidim.cli`` under the resolved interpreter,
``PYTHONPATH=<checkout>/src``), command after command in corpus order,
round after round, until ``--seconds`` is used up, and reports the
end-to-end metrics.
``--trace 1`` runs the same corpus in this process through
``modulidim.cli.main``, alternating untraced and traced passes, and reports
the per-layer metrics. Either way every output is checked by
``checker.py``, which does not import modulidim.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the metric names and units are read from
``BENCHMARK.json``. A full record (interpreter, per-command stdout sha256
and byte counts, sample counts, ``fail_ratio``, the ``src/`` line count)
goes to ``bench/.work/<workload>-seed<n>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
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

import checker
import corpus
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Untimed child run during set-up: loads the program and, in a fresh
# checkout, compiles its bytecode, so the first timed command does not.
WARMUP = ("report", "toy", "--m", "1", "--n", "-1")
SETUPS = 7
STARTUP_SAMPLES = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import modulidim.cli; "
    "print(time.perf_counter() - t)"
)


def python_executable() -> str:
    """The interpreter itself, not a version-manager shim in front of it."""
    return os.path.realpath(sys.executable)


class ChildRunner:
    """Runs one CLI child at a time and reads its own resource usage."""

    def __init__(self, work: Path):
        self.python = python_executable()
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, argv: list[str], index: int) -> tuple[int, float, float]:
        """Run ``argv``; return (exit code, seconds, peak RSS in MB).

        Peak RSS comes from ``wait4`` on this child alone: the running
        maximum over all children (``RUSAGE_CHILDREN``) would hide a drop
        in later commands.
        """
        with open(self.stdout_path(index), "wb") as out, \
                open(self.work / f"err-{index}.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, elapsed, usage.ru_maxrss / 1024.0

    def cli(self, args: tuple[str, ...], index: int) -> tuple[int, float, float]:
        return self.spawn([self.python, "-m", "modulidim.cli", *args], index)

    def stdout_path(self, index: int) -> Path:
        return self.work / f"out-{index}.txt"

    def stdout(self, index: int) -> bytes:
        return self.stdout_path(index).read_bytes()


class Checks:
    """Checks each output once per distinct (command, exit code, stdout)."""

    def __init__(self, commands: list[checker.Command]):
        self.commands = commands
        self.attempted = 0
        self.failed = 0
        self.problems: list[dict] = []
        self.records: list[dict] | None = None
        self._seen: dict[tuple, bool] = {}

    def record(self, i: int, code: int, out: bytes):
        """Count one run of command ``i``; check its output if not seen yet."""
        digest = hashlib.sha256(out).hexdigest()
        key = (i, code, digest)
        if key not in self._seen:
            found = checker.check(self.commands[i], code, out)
            self._seen[key] = not found
            if found and len(self.problems) < 20:
                self.problems.append({"args": list(self.commands[i].args), "problems": found})
        self.attempted += 1
        self.failed += not self._seen[key]
        if self.records is None:
            self.records = [None] * len(self.commands)
        if self.records[i] is None:
            self.records[i] = {"args": list(self.commands[i].args), "exit": code,
                               "bytes": len(out), "sha256": digest}

    def record_pass(self, outcomes: list[tuple[int, bytes]]):
        for i, (code, out) in enumerate(outcomes):
            self.record(i, code, out)


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive interpolation)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(commands, runner: ChildRunner, seconds: float) -> tuple[Checks, dict, dict]:
    """Run the corpus in order, round after round, until ``seconds`` is used.

    After the first full round the loop stops before a command whose last
    latency would overrun ``seconds``, not before a whole round, so a long
    round leaves no idle tail and commands later in the corpus may have one
    sample fewer than earlier ones.
    """
    checks = Checks(commands)
    latencies = [[] for _ in commands]
    peaks = [[] for _ in commands]
    start = time.perf_counter()
    for n in itertools.count():
        i = n % len(commands)
        if n >= len(commands) and time.perf_counter() - start + latencies[i][-1] > seconds:
            break
        code, elapsed, rss = runner.cli(commands[i].args, i)
        latencies[i].append(elapsed)
        peaks[i].append(rss)
        checks.record(i, code, runner.stdout(i))
    per_command_ms = [statistics.median(lat) * 1000.0 for lat in latencies]
    metrics = {
        # Time to run the corpus once, from each command's median latency:
        # a burst of machine noise during one command of one round moves
        # that sample only, where it would move a whole round's wall time.
        "wall_s": sum(per_command_ms) / 1000.0,
        "cmd_p50_ms": _percentile(per_command_ms, 50),
        "cmd_p90_ms": _percentile(per_command_ms, 90),
        "peak_rss_mb": max(statistics.median(rss) for rss in peaks),
    }
    samples = {
        "commands": len(commands),
        "latency_samples": n,
        "latency_ms": [[x * 1000.0 for x in lat] for lat in latencies],
        "peak_rss_mb": peaks,
    }
    return checks, metrics, samples


def _in_process_pass(commands, on_command=None) -> tuple[float, list[tuple[int, bytes]]]:
    outcomes = []
    start = time.perf_counter()
    for i, cmd in enumerate(commands):
        if on_command is not None:
            on_command(i)
        outcomes.append(_guarded(cmd.args))
    return time.perf_counter() - start, outcomes


def _guarded(args) -> tuple[int, bytes]:
    """One in-process command; an escaping exception is a failed command."""
    try:
        return tracer.run_in_process(args)
    except Exception:
        traceback.print_exc()
        return -1, b""


def _startup_ms(runner: ChildRunner) -> dict:
    interp, imports = [], []
    for _ in range(STARTUP_SAMPLES):
        _, elapsed, _ = runner.spawn([runner.python, "-c", "pass"], 0)
        interp.append(elapsed * 1000.0)
        runner.spawn([runner.python, "-c", IMPORT_PROBE], 0)
        imports.append(float(runner.stdout(0)) * 1000.0)
    return {"startup.interp_ms": statistics.median(interp),
            "startup.import_ms": statistics.median(imports)}


def traced_run(commands, runner: ChildRunner, seconds: float) -> tuple[Checks, dict, dict]:
    """Untraced and traced in-process passes, in alternating order.

    One untimed pass first lets allocator arenas and lazy imports settle,
    so neither side of the first pair pays for them.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    checks = Checks(commands)
    metrics = _startup_ms(runner)
    checks.record_pass(_in_process_pass(commands)[1])

    walls = {False: [], True: []}
    layers = []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        for traced in (False, True) if len(layers) % 2 == 0 else (True, False):
            if traced:
                spans = tracer.Tracer()
                with spans:
                    wall, outcomes = _in_process_pass(
                        commands, lambda i: setattr(spans, "command", i))
                layer = spans.layer_metrics()
                layer["cli.bytes_out"] = sum(len(out) for _, out in outcomes)
                layers.append(layer)
                if len(layers) == 1:
                    spans.dump(runner.work / "spans.jsonl")
            else:
                wall, outcomes = _in_process_pass(commands)
            walls[traced].append(wall)
            checks.record_pass(outcomes)
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    for name in layers[0]:
        metrics[name] = statistics.median(layer[name] for layer in layers)
    metrics["trace.overhead_ratio"] = statistics.median(walls[True]) / statistics.median(walls[False])
    samples = {"pairs": len(layers), "untraced_wall_s": walls[False], "traced_wall_s": walls[True]}
    return checks, metrics, samples


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "modulidim").glob("*.py")))


def _terminated(signum, frame):
    # Raising here lets ``ChildRunner.spawn`` kill and reap a running child.
    sys.exit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminated)

    if not (SRC / "modulidim" / "cli.py").is_file():
        print(f"bench: no modulidim sources in {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = BENCH / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = ChildRunner(work)

    setup_times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        commands = corpus.build(args.workload, args.seed, work)
        code, _, _ = runner.cli(WARMUP, 0)
        setup_times.append(time.perf_counter() - start)
        if code != 0:
            print(f"bench: warm-up command exited {code}:\n"
                  + (work / "err-0.txt").read_text(errors="replace"), file=sys.stderr)
            return 2

    run = traced_run if args.trace else timed_run
    checks, measured, samples = run(commands, runner, args.seconds)
    measured["setup_s"] = statistics.median(setup_times)

    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    fail_ratio = checks.failed / checks.attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "interpreter": {"path": runner.python, "version": platform.python_version()},
        "src_lines": src_lines(),
        "corpus": corpus.describe(commands),
        "corpus_sha256": hashlib.sha256(
            "".join(r["sha256"] for r in checks.records).encode()).hexdigest(),
        "setup_s_samples": setup_times,
        "samples": samples,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "fail_ratio": fail_ratio,
        "problems": checks.problems,
        "metrics": metrics,
        "commands": checks.records,
    }
    for path in work.glob("*.txt"):
        path.unlink()
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"bench: {args.workload} seed={args.seed} trace={args.trace} "
          f"fail_ratio={fail_ratio} ({checks.failed}/{checks.attempted}) "
          f"record={work.relative_to(ROOT) / 'result.json'}")
    for item in checks.problems[:3]:
        print(f"bench: FAILED {' '.join(item['args'])}: {item['problems'][:3]}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
