"""Seeded command corpora for the four benchmark workloads.

The seed picks inputs; the program only ever sees argv and the sweep config
files written here. Every workload keeps the amount of work per corpus
fixed across seeds: the seed varies genera, polarizations, signs and
offsets, while the sizes that set the cost (grid shape, enumeration bound,
chart window, Koszul length, command counts per kind) come from fixed
slots. Run-to-run spread across seeds therefore measures the machine, not
the draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from pathlib import Path

from checker import Command, precondition_holds

WORKLOADS = ("sweep-grid", "compare-scan", "oracle-ranks", "cli-oneshot")

SWEEP_KEYS = ("g1", "g2", "m_range", "n_range", "l_range", "alpha", "beta")

# The grid of the ROADMAP baseline: 39,600 rows, 20,130 ledgers.
ROADMAP_GRID = {
    "g1": 2,
    "g2": 2,
    "m_range": (1, 60),
    "n_range": (-60, -1),
    "l_range": (0, 10),
    "alpha": 1,
    "beta": 1,
}


def _argv(*words, **flags) -> tuple[str, ...]:
    out = list(words)
    for key, value in flags.items():
        if isinstance(value, tuple):
            # ``--R=-3,2``: a pair led by a minus sign must be attached.
            out.append(f"--{key}={value[0]},{value[1]}")
        else:
            out += [f"--{key}", str(value)]
    return tuple(out)


def _command(kind, words, params, fmt="json", **flags) -> Command:
    args = _argv(*words, **flags)
    if fmt != "json":
        args += ("--format", fmt)
    return Command(kind, args, params, fmt)


def _config_text(config: dict) -> str:
    lines = []
    for key in SWEEP_KEYS:
        if key not in config:
            continue
        value = config[key]
        lines.append(f"{key} = {value[0]}..{value[1]}" if isinstance(value, tuple) else f"{key} = {value}")
    return "\n".join(lines) + "\n"


def sweep_command(config: dict, path: Path, fmt: str = "json") -> Command:
    """A ``sweep`` over ``config`` (ranges as inclusive ``(lo, hi)``)."""
    params = {
        k: list(range(v[0], v[1] + 1)) if isinstance(v, tuple) else v
        for k, v in config.items()
    }
    args = ("sweep", "--config", str(path))
    if fmt != "json":
        args += ("--format", fmt)
    return Command("sweep", args, params, fmt, False, _config_text(config))


def ledger_command(kind, g1, g2, m, n, alpha, beta, l=0, fmt="json"):
    flags = dict(g1=g1, g2=g2, m=m, n=n, alpha=alpha, beta=beta)
    if kind == "nonfiltrable":
        flags["l"] = l
    return _command(kind, ("report", kind), dict(flags, l=l), fmt, **flags)


def compare_command(g1, g2, c2, alpha, beta, bound, fmt="json"):
    flags = dict(g1=g1, g2=g2, c2=c2, alpha=alpha, beta=beta, bound=bound)
    return _command("compare", ("report", "compare"), dict(flags), fmt, **flags)


def _oracle(kind, **flags) -> Command:
    return _command(kind, ("oracle", kind), dict(flags), **flags)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _sweep_grid(rng: random.Random, work: Path) -> list[Command]:
    """The ROADMAP grid as JSON, then a seeded 25 x 20 x 10 markdown grid.

    Every row of the seeded grid is inside the validity region (m >= 1 and
    a nonnegative polarization degree), so its ledger count is a fixed
    5,000 whatever the seed.
    """
    alpha, beta = rng.randint(1, 3), rng.randint(1, 3)
    n0 = rng.randint(1, 20)
    n_max = n0 + 19
    m0 = math.ceil(beta * n_max / alpha) + rng.randint(0, 10)
    l0 = rng.randint(0, 20)
    seeded = {
        "g1": rng.randint(0, 3),
        "g2": rng.randint(0, 3),
        "m_range": (m0, m0 + 24),
        "n_range": (-n_max, -n0),
        "l_range": (l0, l0 + 9),
        "alpha": alpha,
        "beta": beta,
    }
    return [
        sweep_command(ROADMAP_GRID, work / "roadmap-grid.cfg"),
        sweep_command(seeded, work / "seeded-grid.cfg", fmt="markdown"),
    ]


def _genera_polarization(rng: random.Random) -> dict:
    return dict(
        g1=rng.randint(0, 3), g2=rng.randint(0, 3),
        alpha=rng.randint(1, 3), beta=rng.randint(1, 3),
    )


def _compare_scan(rng: random.Random, work: Path) -> list[Command]:
    """Six deep and six wide ``report compare`` commands.

    Deep: c2 near 300..600 with bound 40, hundreds of mixed strata of both
    orientations (ledger-bound). Wide: c2 <= 10 with bound 100..200, an
    O(bound^2) enumeration and a multi-MB ``excluded`` list (enumeration-
    and render-bound). The mixed-stratum count of the box does not depend
    on the polarization (standard and swapped strata tile the same
    hyperbola region), so seeding genera and polarization keeps the cost.
    One slot of each half renders markdown.
    """
    commands = []
    for i, c2 in enumerate((300, 360, 420, 480, 540, 600)):
        commands.append(compare_command(
            c2=c2 + rng.randint(-5, 5), bound=40,
            fmt="markdown" if i == 2 else "json", **_genera_polarization(rng),
        ))
    for i, bound in enumerate((100, 120, 140, 160, 180, 200)):
        commands.append(compare_command(
            c2=rng.randint(1, 10), bound=bound,
            fmt="markdown" if i == 2 else "json", **_genera_polarization(rng),
        ))
    rng.shuffle(commands)
    return commands


def _oracle_ranks(rng: random.Random, work: Path) -> list[Command]:
    """Four each of large ``oracle product``, ``koszul`` and ``p1``.

    Chart sizes depend on the signs of the degrees, so each sign pattern
    appears a fixed number of times; magnitudes vary in a narrow band.
    """
    commands = []
    for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        big, other = 40, rng.randint(34, 40)
        a, b = (big, other) if rng.random() < 0.5 else (other, big)
        commands.append(_oracle("product", a=sa * a, b=sb * b))
    for length in (576, 640, 704, 768):
        a = rng.randint(20, 32)
        commands.append(_oracle("koszul", a=a, b=round(length / a)))
    for sign in (1, 1, -1, -1):
        commands.append(_oracle("p1", k=sign * rng.randint(8000, 9000)))
    rng.shuffle(commands)
    return commands


def _destabilizing(rng: random.Random, m_range, n_range) -> dict:
    while True:
        draw = dict(_genera_polarization(rng), m=rng.randint(*m_range), n=rng.randint(*n_range))
        if draw["alpha"] * draw["m"] + draw["beta"] * draw["n"] >= 0:
            return draw


def _pair(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    return (rng.randint(lo, hi), rng.randint(lo, hi))


def _oneshot_valid(rng: random.Random, work: Path) -> list[Command]:
    out: list[Command] = []
    for _ in range(8):
        out.append(ledger_command("split", **_destabilizing(rng, (1, 6), (-6, -1))))
    for _ in range(8):
        out.append(ledger_command(
            "nonfiltrable", l=rng.randint(0, 8), **_destabilizing(rng, (1, 6), (-6, 2))
        ))
    for _ in range(6):
        m, n = rng.randint(1, 9), rng.randint(-9, -1)
        out.append(_command("toy", ("report", "toy"), {"m": m, "n": n}, m=m, n=n))
    for _ in range(8):
        flags = dict(
            g1=rng.randint(0, 3), g2=rng.randint(0, 3), H=_pair(rng, 1, 3),
            R=_pair(rng, -3, 3), L=_pair(rng, 0, 4), c2=rng.randint(0, 20),
        )
        out.append(_command("unstable", ("report", "unstable"), dict(flags), **flags))
    for _ in range(8):
        flags = dict(
            g1=rng.randint(0, 3), g2=rng.randint(0, 3), H=_pair(rng, 1, 3),
            R=_pair(rng, -3, 3), c2=rng.randint(1, 20), a=rng.randint(1, 30),
        )
        out.append(_command(
            "select_t", ("report", "unstable", "--select-t"), dict(flags), **flags
        ))
    for _ in range(12):
        out.append(compare_command(
            c2=rng.randint(1, 30), bound=rng.randint(1, 8), **_genera_polarization(rng)
        ))
    for _ in range(8):
        k = rng.randint(-30, 30)
        window = abs(k) + 2 + rng.randint(0, 3) if rng.random() < 0.5 else None
        flags = {"k": k} if window is None else {"k": k, "window": window}
        out.append(_oracle("p1", **flags))
    for _ in range(6):
        out.append(_oracle("product", a=rng.randint(-8, 8), b=rng.randint(-8, 8)))
    for _ in range(6):
        out.append(_oracle("koszul", a=rng.randint(1, 6), b=rng.randint(1, 6)))
    for i in range(6):
        m0, n0, l0 = rng.randint(-2, 3), rng.randint(-3, 1), rng.randint(0, 3)
        config = dict(
            _genera_polarization(rng),
            m_range=(m0, m0 + 2), n_range=(n0, n0 + 2), l_range=(l0, l0 + 1),
        )
        out.append(sweep_command(config, work / f"tiny-{i}.cfg"))
    return out


def _oneshot_errors(rng: random.Random, work: Path) -> list[Command]:
    """Inputs the program must refuse with exit code 1."""
    out: list[Command] = []
    for i in range(2):
        gp = _genera_polarization(rng)
        m, n = -rng.randint(0, 3), rng.randint(-3, 3)
        out.append(_command("toy", ("report", "toy"), {"m": m, "n": n}, m=m, n=n))
        # m < 1 while destabilizing: the ledger's validity condition
        out.append(ledger_command("split", m=0, n=rng.randint(1, 4), **gp))
        # negative polarization degree: the stratum destabilizes nothing
        out.append(ledger_command("split", m=1, n=-rng.randint(4, 6), **dict(gp, alpha=1, beta=3)))
        out.append(compare_command(c2=-rng.randint(0, 5), bound=rng.randint(1, 5), **gp))
        k = rng.randint(3, 30)
        out.append(_oracle("p1", k=k, window=rng.randint(1, k)))
        a = rng.randint(3, 8)
        out.append(_oracle("product", a=a, b=-a, window=rng.randint(1, a)))
        out.append(_oracle("koszul", a=0, b=rng.randint(1, 5)))
        missing = {key: v for key, v in ROADMAP_GRID.items() if key != SWEEP_KEYS[i + 5]}
        out.append(sweep_command(missing, work / f"missing-key-{i}.cfg"))
        out.append(sweep_command(dict(ROADMAP_GRID, alpha=0), work / f"zero-alpha-{i}.cfg"))
        flags = dict(g1=1, g2=1, H=(0, rng.randint(1, 3)), R=(1, 1), L=(1, 1), c2=5)
        out.append(_command("unstable", ("report", "unstable"), dict(flags), **flags))
        out.append(Command("usage", ("report", "split", "--g1", str(gp["g1"])), {}))
        flags = dict(g1=1, g2=1, H=(1, 1), R=(0, 0), c2=3)
        out.append(_command(
            "select_t", ("report", "unstable", "--select-t"), dict(flags, a=None), **flags
        ))
    return out


def _cli_oneshot(rng: random.Random, work: Path) -> list[Command]:
    """76 short valid commands over every subcommand plus 24 refused ones.

    100 commands give p90 ten commands beyond it, and two passes fit in a
    32-second run unless a command takes more than about 155 ms.

    Every other valid command renders markdown; every fourth one that can
    carry an interval-free document also passes ``--require-exact``.
    """
    valid = _oneshot_valid(rng, work)
    for i, cmd in enumerate(valid):
        if i % 2:
            cmd = replace(cmd, args=cmd.args + ("--format", "markdown"), fmt="markdown")
        if i % 4 == 3 and cmd.kind != "sweep":
            cmd = replace(cmd, args=cmd.args + ("--require-exact",), require_exact=True)
        valid[i] = cmd
    commands = valid + _oneshot_errors(rng, work)
    rng.shuffle(commands)
    return commands


_CORPORA = {
    "sweep-grid": _sweep_grid,
    "compare-scan": _compare_scan,
    "oracle-ranks": _oracle_ranks,
    "cli-oneshot": _cli_oneshot,
}


def build(workload: str, seed: int, work: Path) -> list[Command]:
    """The workload's corpus for ``seed``; sweep configs are written to ``work``."""
    rng = random.Random(f"{workload}/{seed}")
    commands = _CORPORA[workload](rng, work)
    for cmd in commands:
        if cmd.config is not None:
            Path(cmd.args[2]).write_text(cmd.config, encoding="utf-8")
    return commands


def describe(commands: list[Command]) -> dict:
    """Counts per kind, and how many commands the program must refuse."""
    kinds: dict[str, int] = {}
    for cmd in commands:
        kinds[cmd.kind] = kinds.get(cmd.kind, 0) + 1
    return {
        "commands": len(commands),
        "kinds": dict(sorted(kinds.items())),
        "markdown": sum(1 for c in commands if c.fmt == "markdown"),
        "require_exact": sum(1 for c in commands if c.require_exact),
        "must_exit_1": sum(1 for c in commands if not precondition_holds(c)),
    }
