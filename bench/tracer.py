"""Spans around modulidim's public functions, recorded from outside.

:class:`Tracer` wraps a fixed list of public functions and rebinds every
module-level name that refers to the original, so a call made through any
``from .x import f`` copy is counted (``h0_h1`` alone is bound in
``curves``, ``surface``, ``kuranishi`` and the package). Each call becomes a
span with a name, start, end, parent span and command id; spans stay in
memory until :meth:`Tracer.dump`. A span's self time is its duration minus
the time its child spans cover.

The two hottest leaves, ``h0_h1`` and ``kunneth_h`` (hundreds of thousands
of calls on the sweep grid), are aggregated into a call count and a self
time instead of one span per call; their time still counts as child time
of the enclosing span. Counts that are not calls (``Dim`` constructions,
enumerated strata, matrix entries) are recorded at the same boundaries.

Importing this module imports no part of modulidim.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from collections import Counter
from pathlib import Path

# (module, attribute) of every wrapped function, in layer order.
TRACED = (
    ("curves", "h0_h1"),
    ("surface", "kunneth_h"),
    ("kuranishi", "component_report"),
    ("kuranishi", "nonfiltrable_report"),
    ("kuranishi", "homology_comparison_report"),
    ("kuranishi", "enumerate_strata"),
    ("unstable", "validate"),
    ("unstable", "select_twist"),
    ("oracle", "cech_h_p1"),
    ("oracle", "cech_h_product"),
    ("oracle", "koszul_ext"),
    ("linalg", "sparse_rank"),
    ("linalg", "dense_rank"),
    ("cli", "build_parser"),
    ("cli", "parse_sweep_config"),
    ("cli", "render_json"),
    ("cli", "render_markdown"),
    ("cli", "main"),
)
AGGREGATED = frozenset({"curves.h0_h1", "surface.kunneth_h"})
COUNTS = (
    "dims.Dim.constructed",
    "kuranishi.strata_mixed",
    "kuranishi.strata_excluded",
    "linalg.sparse_rank.entries",
    "linalg.dense_rank.cells",
)


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "modulidim" or name.startswith("modulidim."))]


class Tracer:
    """Install with ``with tracer:``; originals are restored on exit."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, command)
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.command: int | None = None
        self._stack: list[list] = []  # per open span: [span id, child ns]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        import modulidim.cli  # noqa: F401  (loads every traced module)
        from modulidim.dims import Dim

        modules = _package_modules()
        for module_name, attr in TRACED:
            original = getattr(sys.modules[f"modulidim.{module_name}"], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)

        post_init = Dim.__post_init__
        counts = self.counts

        def counted_post_init(dim):
            counts["dims.Dim.constructed"] += 1
            post_init(dim)

        self._restore.append((Dim, "__post_init__", post_init))
        Dim.__post_init__ = counted_post_init
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        return False

    def _wrap(self, name: str, fn):
        stack, spans, calls, self_ns = self._stack, self.spans, self.calls, self.self_ns
        aggregated = name in AGGREGATED
        count = _COUNTERS.get(name)
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if count is not None:
                args = count(tracer.counts, args)
            frame = [tracer._next_id, 0]
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_ns[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if not aggregated:
                    spans.append((frame[0], name, start, end,
                                  None if parent is None else parent[0], tracer.command))
            if name == "kuranishi.enumerate_strata":
                tracer.counts["kuranishi.strata_mixed"] += len(result[0])
                tracer.counts["kuranishi.strata_excluded"] += len(result[1])
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """``<module>.<function>.{calls,self_ms}`` for every traced function,
        plus the non-call counts."""
        out: dict[str, float] = {}
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self.self_ns[name] / 1e6
        for name in COUNTS:
            out[name] = self.counts[name]
        return out

    def dump(self, path: Path):
        """Write the spans as JSON lines, then the aggregated leaves."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, command in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "command": command}) + "\n")
            for name in sorted(AGGREGATED):
                fh.write(json.dumps({"aggregate": name, "calls": self.calls[name],
                                     "self_ns": self.self_ns[name]}) + "\n")


def _count_sparse_entries(counts: Counter, args: tuple) -> tuple:
    rows = list(args[0])
    counts["linalg.sparse_rank.entries"] += sum(len(r) for r in rows)
    return (rows,) + args[1:]


def _count_dense_cells(counts: Counter, args: tuple) -> tuple:
    rows = args[0]
    counts["linalg.dense_rank.cells"] += len(rows) * (len(rows[0]) if rows else 0)
    return args


_COUNTERS = {
    "linalg.sparse_rank": _count_sparse_entries,
    "linalg.dense_rank": _count_dense_cells,
}


def run_in_process(args: tuple[str, ...]) -> tuple[int, bytes]:
    """Call ``modulidim.cli.main(args)`` with stdout and stderr captured.

    The entry point is looked up on every call, so it is the traced wrapper
    while a :class:`Tracer` is installed.
    """
    import modulidim.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = modulidim.cli.main(list(args))
        except SystemExit as exc:  # argparse refuses malformed usage this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue().encode("utf-8")
