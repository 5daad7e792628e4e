"""The benchmark's workloads: CLI argv lists made from a seed.

A workload is an ordered list of commands, run one at a time in fresh
processes. Each command carries its argv, whether it reads and writes
the metric-space cache, and the check its output must pass. `tiny=True`
gives the same commands at sizes that finish in well under a second,
for the self-test.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable

import checks

NAMES = ("certify", "generate", "transport")

# support points per side of the four kantorovich queries; the last pair's
# union passes the 64-point exact cap
SUPPORT_SIZES = (4, 16, 32, 40)
TINY_SUPPORT_SIZES = (2, 4)


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[bytes], None]
    uses_cache: bool = False

    @property
    def label(self) -> str:
        return " ".join(a if len(a) <= 24 else a[:21] + "..." for a in self.argv)


def _random_measure(rng: random.Random, n_points: int, k: int) -> str:
    """k distinct vertices with integer weights 1..9 over their total."""
    chosen = rng.sample(range(n_points), k)
    raw = [rng.randint(1, 9) for _ in chosen]
    total = sum(raw)
    return ",".join("%d:%d/%d" % (p, r, total) for p, r in zip(chosen, raw))


def certify(seed: int, tiny: bool = False) -> list[Command]:
    # gh-table takes no seed; the seed only varies the other workloads
    max_level, m = (2, 3) if tiny else (6, 9)
    argv = ["gh-table"] + (["--max-level", str(max_level), "--m", str(m)] if tiny else [])
    return [Command(tuple(argv), functools.partial(checks.check_gh_table,
                                                   max_level=max_level, m=m))]


def generate(seed: int, tiny: bool = False) -> list[Command]:
    sg_json, harm, sg_svg, spec_level = (2, 2, 2, 2) if tiny else (9, 6, 7, 6)
    cutoff, lam_max, grid, trials = ("50", "1e3", 10, 5) if tiny else ("2000", "1e5", 200, 500)
    P = functools.partial
    return [
        Command(("gen", "--geometry", "sg", "--level", str(sg_json), "--format", "json"),
                P(checks.check_gen_sg, level=sg_json)),
        Command(("gen", "--geometry", "harmonic", "--level", str(harm), "--format", "json"),
                P(checks.check_gen_harmonic, level=harm, tol=1e-6)),
        Command(("gen", "--geometry", "sg", "--level", str(sg_svg), "--format", "svg"),
                P(checks.check_gen_svg, level=sg_svg)),
        Command(("spectrum", "--level", str(spec_level), "--cutoff", cutoff, "--format", "csv"),
                P(checks.check_spectrum, level=spec_level, cutoff=float(cutoff))),
        Command(("dimension", "--infinite", "--lambda-min", "10", "--lambda-max", lam_max,
                 "--grid", str(grid)),
                P(checks.check_dimension, grid=grid)),
        Command(("covariant", "--n", "2", "--epsilon", "0.1", "--trials", str(trials),
                 "--seed", str(seed)),
                P(checks.check_covariant, trials=trials)),
    ]


def transport(seed: int, tiny: bool = False) -> list[Command]:
    level, sizes, (n, m, trials) = ((3, TINY_SUPPORT_SIZES, (1, 2, 2)) if tiny
                                    else (5, SUPPORT_SIZES, (4, 8, 5)))
    graph = checks.gasket_graph(level)
    n_points = graph[0]
    rng = random.Random(seed)
    cmds = []
    for k in sizes:
        mu = _random_measure(rng, n_points, k)
        nu = _random_measure(rng, n_points, k)
        cmds.append(Command(
            ("kantorovich", "--level", str(level), "--mu", mu, "--nu", nu),
            functools.partial(checks.check_kantorovich, level=level, mu_text=mu,
                              nu_text=nu, graph=graph),
            uses_cache=True))
    cmds.append(Command(
        ("extent", "--n", str(n), "--m", str(m), "--trials", str(trials), "--seed", str(seed)),
        functools.partial(checks.check_extent, n=n, m=m)))
    return cmds


def commands(name: str, seed: int, tiny: bool = False) -> list[Command]:
    return {"certify": certify, "generate": generate, "transport": transport}[name](seed, tiny)
