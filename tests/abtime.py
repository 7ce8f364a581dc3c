"""Interleaved in-process A/B timing of two source trees over one workload.

Loads this checkout's ``src`` (A) and ``OTHER_SRC`` (B) in one process: each
is imported with ``sys.modules["modulidim*"]`` cleared before it, and keeps
its own modules. The seeded corpus of ``WORKLOAD`` from ``bench/corpus.py``
is then run through each tree's ``cli.main``, command by command, A and B
interleaved with the side that goes first alternating, and the process CPU
time of each call recorded. The first round is untimed: it warms both trees
up and checks that their stdout is identical. Usage, from the root of a
checkout::

    python tests/abtime.py OTHER_SRC WORKLOAD [--seed 1] [--rounds 9]

It prints, per command, the median CPU milliseconds of A and B and their
ratio A / B, the same for the whole corpus, and whether stdout and exit
codes were identical on every call. Not collected by the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_main(src: Path):
    """``modulidim.cli.main`` imported from ``src``."""
    for name in [n for n in sys.modules if n == "modulidim" or n.startswith("modulidim.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        return importlib.import_module("modulidim.cli").main
    finally:
        sys.path.remove(str(src))


class _Discard:
    """A text stream that keeps nothing."""

    def write(self, text):
        return len(text)


def call(main, args, out) -> tuple[int, float]:
    """Exit code and process CPU seconds of ``main(args)`` writing to ``out``;
    argparse refuses malformed usage with ``SystemExit``."""
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.process_time()
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        return code, time.process_time() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=9)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "bench"))
    import corpus

    sides = {"A": load_main(ROOT / "src"), "B": load_main(args.other_src.resolve())}
    with tempfile.TemporaryDirectory() as work:
        commands = corpus.build(args.workload, args.seed, Path(work))
        identical = True
        for cmd in commands:
            outs = {}
            for side, side_main in sides.items():
                out = io.StringIO()
                outs[side] = (call(side_main, cmd.args, out)[0], out.getvalue())
            identical &= outs["A"] == outs["B"]
        cpu = {side: [[] for _ in commands] for side in sides}
        totals = {side: [] for side in sides}
        for r in range(args.rounds):
            for side in sides:
                totals[side].append(0.0)
            for i, cmd in enumerate(commands):
                codes = {}
                for side in ("A", "B") if (r + i) % 2 == 0 else ("B", "A"):
                    codes[side], seconds = call(sides[side], cmd.args, _Discard())
                    cpu[side][i].append(seconds)
                    totals[side][-1] += seconds
                identical &= codes["A"] == codes["B"]

    print(f"{'ms A':>9} {'ms B':>9} {'A/B':>6}  command ({args.rounds} rounds, median CPU)")
    for i, cmd in enumerate(commands):
        a, b = (statistics.median(cpu[side][i]) * 1000 for side in sides)
        print(f"{a:9.2f} {b:9.2f} {a / b if b else float('nan'):6.3f}  {' '.join(cmd.args)}")
    a, b = (statistics.median(totals[side]) * 1000 for side in sides)
    print(f"{a:9.2f} {b:9.2f} {a / b:6.3f}  corpus total")
    print(f"stdout and exit codes identical: {identical}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
