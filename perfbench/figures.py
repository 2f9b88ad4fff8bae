"""Stage times of decisions too long to sample steadily, each measured once.

Run from the root of a checkout (takes a few minutes):

    python3 perfbench/figures.py

Prints one Markdown table row per input, in seconds, for README.md.  Each
decision runs once in a forked child through ``ocsp.cli.main`` with the
spans of ``traced.py`` installed, so these are single samples, not the
benchmark's low order statistic.  Stage columns are self times.
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction

from run import WORK, forked, load_program, traced_sample
from workloads import MAS, kernel_core, render

COLUMNS = (
    ("instance.parse", "parse"),
    ("efron_stein.decompose", "decompose"),
    ("efron_stein.variance", "m2"),
    ("efron_stein.fourth_moment", "m4 and C"),
    ("decider.certificate", "certificate"),
    ("decider.kernel_enum", "kernel enum"),
    ("total", "total"),
)


def inputs():
    """(label, n, constraints, t) for each figure."""
    rng = random.Random(0)
    n = 10_000
    mas = [(tuple(rng.sample(range(n), 2)), MAS) for _ in range(100_000)]
    yield "mas n=1e4 m=1e5", n, mas, Fraction(1, 40)
    s3 = list(itertools.permutations(range(3)))
    random3 = [(tuple(rng.sample(range(n), 3)), frozenset(p for p in s3 if rng.random() < 0.5) or frozenset(s3[:1]))
               for _ in range(100_000)]
    yield "random-3 n=1e4 m=1e5", n, random3, Fraction(1, 1000)
    s4 = list(itertools.permutations(range(4)))
    yield "one arity-4 shape (12 of 24 orders)", 4, [((0, 1, 2, 3), frozenset(s4[::2]))], Fraction(1, 10**6)
    for size in (8, 9):
        core = tuple(range(size))
        yield f"kernel of {size} variables", size, kernel_core(random.Random(size), core), Fraction(1, 100)


def main() -> int:
    cli = load_program()

    folder = WORK / "figures"
    folder.mkdir(parents=True, exist_ok=True)
    print("| input | " + " | ".join(label for _, label in COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 1) + "|")
    for i, (label, n, cons, t) in enumerate(inputs()):
        path = folder / f"figure{i}.ocsp"
        path.write_text(render(n, cons), encoding="utf-8")

        argv = ["decide", "--input", str(path), "--t", str(t), "--json"]

        def sample():
            result = traced_sample(cli, argv)
            return {**result["stages"], "total": result["seconds"]}

        times, _ = forked(sample, timeout_s=900)
        cells = ["failed"] * len(COLUMNS) if times is None else [f"{times[k]:.2f}" for k, _ in COLUMNS]
        print(f"| {label} | " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
