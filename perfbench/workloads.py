"""Seeded instance generators for the three benchmark workloads.

Neither this module nor ``reference`` imports ``ocsp``: the inputs depend
only on the workload name and the seed, so a change to the program cannot
change them.  A constraint is a pair ``(vars, allowed)``: ``vars`` is a
tuple of distinct 0-based variables and ``allowed`` a set of permutations
of positions into ``vars``, each listed smallest value first (the program's
own convention).

Each generator returns a list of ``Decision`` records.  The amount of work a
decision asks for is fixed by the workload (sizes, shapes, constraint
patterns); the seed moves only which variables the constraints touch.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from reference import kernel_facts, parse_text

S3 = tuple(itertools.permutations(range(3)))

MAS = frozenset({(0, 1)})

# Arity-3 shapes for the sparse instances: allowed sets with six or seven
# nonzero canonical parts, so every shape costs a comparable set-up.
SPARSE_SHAPES = (
    frozenset({(0, 1, 2)}),
    frozenset({(0, 1, 2), (0, 2, 1)}),
    frozenset({(0, 1, 2), (1, 0, 2), (2, 1, 0)}),
    frozenset({(0, 2, 1), (1, 2, 0)}),
    frozenset({(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1)}),
    frozenset({(1, 0, 2), (1, 2, 0), (2, 1, 0), (0, 2, 1), (2, 0, 1)}),
)

Constraint = tuple[tuple[int, ...], frozenset]


@dataclass(frozen=True)
class Decision:
    """One ``ocsp decide`` call: its input, its flags and what its construction fixes."""

    name: str
    n: int
    constraints: tuple[Constraint, ...]
    t: Fraction
    witness: bool
    # kernel-enumeration only: the 0-based core variables, which are the
    # kernel by construction (the padding sums to a constant)
    core: tuple[int, ...] | None = None

    def argv(self, path: str) -> list[str]:
        args = ["decide", "--input", path, "--t", str(self.t), "--json"]
        return args + ["--witness"] if self.witness else args


def render(n: int, constraints) -> str:
    """The instance text format: one ``con`` line per constraint, 1-based."""
    lines = ["ocsp 1", f"nvars {n}"]
    for vars_, allowed in constraints:
        seqs = (" ".join(str(vars_[i] + 1) for i in perm) for perm in sorted(allowed))
        lines.append("con " + " | ".join(seqs))
    return "\n".join(lines) + "\n"


# -- sparse-certified ---------------------------------------------------------

SPARSE_N = 60_000
SPARSE_MAS_M = 1_600
SPARSE_MIXED_MAS_M = 500
SPARSE_MIXED_R3_M = 250
SPARSE_INSTANCES = 12
SPARSE_T_MAS = Fraction(1, 40)
SPARSE_T_R3 = Fraction(1, 1000)


def sparse_certified(seed: int) -> list[Decision]:
    """Large sparse instances, n >> m: even ones mas, odd ones mas plus one arity-3 shape.

    The arity-3 shape of odd instance i is ``SPARSE_SHAPES[i // 2]``.  t sits
    far below the firing threshold: sigma^2 / (4 b) was at least 13 t^2 on
    mas and 20 t^2 with arity 3 (seeds 1-3), so every outcome is
    yes-certified.
    """
    out = []
    pool = range(SPARSE_N)
    for i in range(SPARSE_INSTANCES):
        rng = random.Random(seed * 1_000 + i)
        if i % 2 == 0:
            cons = [(tuple(rng.sample(pool, 2)), MAS) for _ in range(SPARSE_MAS_M)]
            t = SPARSE_T_MAS
        else:
            shape = SPARSE_SHAPES[i // 2 % len(SPARSE_SHAPES)]
            cons = [(tuple(rng.sample(pool, 2)), MAS) for _ in range(SPARSE_MIXED_MAS_M)]
            cons += [(tuple(rng.sample(pool, 3)), shape) for _ in range(SPARSE_MIXED_R3_M)]
            rng.shuffle(cons)
            t = SPARSE_T_R3
        out.append(Decision(f"sparse{i:02d}", SPARSE_N, tuple(cons), t, witness=False))
    return out


# -- dense-moments --------------------------------------------------------------

DENSE_N = 4
DENSE_PER_SET = 6
DENSE_T = Fraction(1, 10**9)


def _compose(g: tuple[int, ...], p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(g[i] for i in p)


def _inverse(g: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(g.index(i) for i in range(len(g)))


def dense_orbits() -> list[list[tuple[tuple[int, ...], frozenset]]]:
    """The 63 nonempty allowed sets of a sorted triple, as 15 program shapes.

    A set A of orders (permutations of the sorted triple's positions) is
    written on the variable tuple ``g`` with allowed set ``R = g^-1 A``,
    where g is the member of A that makes R least.  Sets related by
    relabelling the variables then share R, which is the program's cache
    key, so the 63 sets cost 15 shape set-ups rather than 32.  Each orbit is
    a list of (g, R), and every set A is ``g R`` for exactly one entry.
    """
    orbits: dict[frozenset, list] = {}
    for mask in range(1, 64):
        allowed = [p for b, p in enumerate(S3) if mask >> b & 1]
        g, shape = min(
            ((g, frozenset(_compose(_inverse(g), a) for a in allowed)) for g in allowed),
            key=lambda gr: sorted(gr[1]),
        )
        orbits.setdefault(shape, []).append((g, shape))
    return sorted(orbits.values(), key=lambda orbit: sorted(orbit[0][1]))


def dense_moments(seed: int) -> list[Decision]:
    """Small n, many arity-3 constraints; all 63 nonempty allowed sets appear.

    Each instance holds the sets of one shape of ``dense_orbits``, so each
    shape is set up once per round.  The set of all six orders is a
    constant with no parts; it joins the first instance rather than make a
    decision with zero variance.  Copy c of the k-th set of a shape goes on
    triple (k + c) mod 4 of the four variables, so every set meets every
    triple, every subset is shared and the parts are materialised sums.  The
    seed only relabels the variables and orders the shapes, which keeps the
    work the same for every seed.  ``--witness`` runs the witness search.
    """
    rng = random.Random(seed)
    orbits = [orbit for orbit in dense_orbits() if len(orbit[0][1]) < len(S3)]
    full = [orbit for orbit in dense_orbits() if len(orbit[0][1]) == len(S3)]
    rng.shuffle(orbits)
    orbits[0] = orbits[0] + full[0]
    triples = list(itertools.combinations(range(DENSE_N), 3))
    out = []
    for i, orbit in enumerate(orbits):
        labels = rng.sample(range(DENSE_N), DENSE_N)
        cons = []
        for k, (g, shape) in enumerate(orbit):
            for c in range(DENSE_PER_SET):
                triple = triples[(k + c) % len(triples)]
                cons.append((tuple(labels[triple[j]] for j in g), shape))
        rng.shuffle(cons)
        out.append(Decision(f"dense{i:02d}", DENSE_N, tuple(cons), DENSE_T, witness=True))
    return out


# -- kernel-enumeration ----------------------------------------------------------

KERNEL_SIZES = (7, 6, 7, 6)
KERNEL_N = 5_000
KERNEL_PAD_PAIRS = 150
KERNEL_ABOVE = Fraction(1, 1000)
# cheap three-part shapes for the core's arity-3 constraints, and one
# six-part shape for the padding
CORE_SHAPES = (frozenset({(0, 1, 2), (0, 2, 1), (1, 0, 2)}), frozenset({(0, 1, 2), (1, 2, 0), (2, 0, 1)}))
PAD_SHAPE = SPARSE_SHAPES[2]


def complement(allowed: frozenset, arity: int) -> frozenset:
    return frozenset(itertools.permutations(range(arity))) - allowed


def kernel_core(rng: random.Random, core: tuple[int, ...]) -> list[Constraint]:
    """Precedence edges along the core in a random order, one chord, two arity-3 constraints.

    The pattern is fixed on positions of the shuffled core: edges
    (0,1) ... (v-2,v-1) each in a random direction, the chord (0, v-1), and
    the triples (0,2,4) and (1,3,5) with the two ``CORE_SHAPES``.  The path
    makes every core variable matter.
    """
    order = list(core)
    rng.shuffle(order)

    def edge(a, b):
        return ((order[a], order[b]) if rng.random() < 0.5 else (order[b], order[a]), MAS)

    cons = [edge(j, j + 1) for j in range(len(order) - 1)]
    cons.append(edge(0, len(order) - 1))
    for positions, shape in zip(((0, 2, 4), (1, 3, 5)), CORE_SHAPES):
        cons.append((tuple(order[j] for j in rng.sample(positions, 3)), shape))
    return cons


def kernel_padding(rng: random.Random, pool: list[int]) -> list[Constraint]:
    """Pairs of a constraint and its complement on disjoint triples of ``pool``.

    Each pair sums to the constant 1.  The complement is written on a
    reordered tuple, so it is a constraint of its own shape rather than a
    copy of the first.
    """
    cons: list[Constraint] = []
    for p in range(KERNEL_PAD_PAIRS):
        vars_ = tuple(pool[3 * p:3 * p + 3])
        other = tuple(rng.sample(vars_, 3))
        flip = tuple(vars_.index(v) for v in other)
        comp = frozenset(tuple(flip.index(i) for i in perm) for perm in complement(PAD_SHAPE, 3))
        cons += [(vars_, PAD_SHAPE), (other, comp)]
    return cons


def kernel_enumeration(seed: int) -> list[Decision]:
    """6-7-variable cores padded by cancelling pairs; t at OPT-AVG and just above.

    The seed picks the variables, the order of the core and the directions;
    the pattern of constraints, and with it the work, is the same for every
    seed.  The reference enumeration confirms that the kernel is the core.
    """
    out = []
    for i, size in enumerate(KERNEL_SIZES):
        rng = random.Random(seed * 1_000 + i)
        ids = rng.sample(range(KERNEL_N), KERNEL_N)
        core = tuple(sorted(ids[:size]))
        cons = kernel_core(rng, core) + kernel_padding(rng, ids[size:size + 3 * KERNEL_PAD_PAIRS])
        rng.shuffle(cons)
        facts = kernel_facts(parse_text(render(KERNEL_N, cons))[1])
        if facts is None or facts.kernel != core:
            raise AssertionError(f"kernel core {i} of seed {seed} is not its own kernel")
        for tag, t in (("at", facts.gap), ("above", facts.gap + KERNEL_ABOVE)):
            out.append(Decision(f"kernel{i}-{tag}", KERNEL_N, tuple(cons), t, witness=False, core=core))
    return out


WORKLOADS = {
    "sparse-certified": sparse_certified,
    "dense-moments": dense_moments,
    "kernel-enumeration": kernel_enumeration,
}
