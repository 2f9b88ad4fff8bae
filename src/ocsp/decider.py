"""Decide whether some ordering beats the average value by at least t.

Pipeline: decompose the objective, try the fourth-moment certificate
(variance large against t implies a positive-probability tail beyond t,
hence a witness exists), and otherwise restrict to the variables that carry
any nonzero part and decide that kernel exhaustively.  Everything on the
decision path is exact rational arithmetic.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator

from .efron_stein import ESDecomposition, decompose_instance
from .errors import CapExceededError
from .instance import Instance, Ordering, order_index, swaps

YES_CERTIFIED = "yes-certified"
YES_KERNEL = "yes-kernel"
NO_KERNEL = "no-kernel"
UNDECIDED = "undecided"

DEFAULT_CAP = 10
DEFAULT_BUDGET = 10_000
DEFAULT_SEED = 0


@dataclass(frozen=True)
class DecideConfig:
    cap: int = DEFAULT_CAP
    witness: bool = False
    budget: int = DEFAULT_BUDGET
    seed: int = DEFAULT_SEED


@dataclass(frozen=True)
class CertificateReport:
    sigma2: Fraction
    C: Fraction
    b: Fraction
    t: Fraction
    fires: bool


@dataclass(frozen=True)
class Witness:
    ordering: Ordering
    value: int


@dataclass(frozen=True)
class KernelReport:
    kernel_vars: tuple[int, ...]
    dec: ESDecomposition
    opt_minus_avg: Fraction | None = None
    best_ordering: Ordering | None = None


@dataclass(frozen=True)
class DecisionReport:
    outcome: str
    certificate: CertificateReport
    kernel: KernelReport | None
    witness: Witness | None


def certify_above_average(dec: ESDecomposition, t: Fraction) -> CertificateReport:
    """Variance test: fires when sigma^2 >= 4*b*t^2 with b = 81^k * C + 1.

    The objective minus its mean has fourth moment at most (b - 1) * sigma^4,
    so it exceeds sigma / (2 sqrt(b)) with positive probability; firing means
    that tail bound already clears t.  Comparing squares keeps it rational.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    sigma2 = dec.variance()
    big_c = dec.local_fourth_moment_ratio()
    b = Fraction(81) ** dec.arity * big_c + 1
    fires = sigma2 >= 4 * b * t * t
    return CertificateReport(sigma2=sigma2, C=big_c, b=b, t=t, fires=fires)


def kernelize(inst: Instance, dec: ESDecomposition | None = None) -> KernelReport:
    """Restrict to the variables appearing in some nonzero part.

    The objective is a function of those variables alone, so any ordering
    question above the average is decided inside the kernel.
    """
    if dec is None:
        dec = decompose_instance(inst)
    return KernelReport(kernel_vars=tuple(sorted(dec.dependency_set())), dec=dec)


# per constraint holding a pair: its index, the order index each of its
# order indices steps to when the pair swaps, and its allowed bits
_Entry = tuple[int, tuple[int, ...], tuple[int, ...]]


def _pairs(inst: Instance) -> dict[tuple[int, int], list[_Entry]]:
    """Per pair of variables sharing a constraint, an entry for each constraint holding both.

    Both orientations of a pair map to one list.  Swapping adjacent a and b
    changes only their relative order, so it steps the order index of the
    constraints in ``pairs[a, b]`` alone, through their ``instance.swaps``
    column for the pair.
    """
    pairs: dict[tuple[int, int], list[_Entry]] = {}
    for ci, c in enumerate(inst.constraints):
        bits = c.shape.bits
        for step, (a, b) in zip(swaps(len(c.vars)), itertools.combinations(c.vars, 2)):
            held = pairs.get((a, b))
            if held is None:
                held = pairs[a, b] = pairs[b, a] = []
            held.append((ci, step, bits))
    return pairs


def _order_indices(inst: Instance, position) -> tuple[list[int], int]:
    """The index of the order ``position`` induces on each constraint, and how many are allowed."""
    state = [order_index(len(c.vars))[c.order_at(position)] for c in inst.constraints]
    return state, sum(c.shape.bits[i] for c, i in zip(inst.constraints, state))


def _plain_changes(v: int) -> Iterator[int]:
    """Left positions p of the adjacent swaps (p, p + 1) walking all v! orderings.

    Steinhaus-Johnson-Trotter order from the identity, as Knuth's
    Algorithm P (TAOCP 4A, 7.2.1.2): v! - 1 swaps in all.
    """
    if v < 2:
        return
    c = [0] * (v + 1)
    o = [1] * (v + 1)
    while True:
        j, s = v, 0
        q = c[j] + o[j]
        while q < 0 or q == j:
            if q == j:
                if j == 1:
                    return
                s += 1
            o[j] = -o[j]
            j -= 1
            q = c[j] + o[j]
        yield j - max(c[j], q) + s - 1
        c[j] = q


def brute_force_kernel(inst: Instance, kernel: KernelReport, cap: int = DEFAULT_CAP) -> KernelReport:
    """Maximize the objective over all kernel orderings by counting, in integers.

    The non-kernel variables sit after the kernel in id order; the objective
    does not depend on them.  The v! kernel orderings are walked in
    Steinhaus-Johnson-Trotter order, so each step is one adjacent swap (a, b).
    It steps the order index of each constraint holding both a and b
    through its swap table, and the count changes by their allowed bits;
    nothing is sorted after the first ordering.  Ties go
    to the lexicographically first ordering.  ``opt_minus_avg`` is the best
    count minus the exact mean.
    """
    kvars = kernel.kernel_vars
    v = len(kvars)
    if v > cap:
        raise CapExceededError(f"kernel size {v} exceeds the enumeration cap {cap}")
    pairs = _pairs(inst)
    # positions of the variables that occur in some constraint, the only ones looked up
    position = {var: v + var for c in inst.constraints for var in c.vars}
    for rank, var in enumerate(kvars):
        position[var] = rank
    state, score = _order_indices(inst, position)
    best = score
    perm = list(kvars)
    best_ordering = tuple(perm)
    for p in _plain_changes(v):
        a, b = perm[p], perm[p + 1]
        perm[p], perm[p + 1] = b, a
        for ci, step, bits in pairs.get((a, b), ()):
            was = state[ci]
            now = state[ci] = step[was]
            score += bits[now] - bits[was]
        if score > best:
            best = score
            best_ordering = tuple(perm)
        elif score == best and tuple(perm) < best_ordering:
            best_ordering = tuple(perm)
    return replace(kernel, opt_minus_avg=best - kernel.dec.mean, best_ordering=best_ordering)


def extend_ordering(partial: Ordering, n: int) -> Ordering:
    """Append the missing variables in id order; the objective ignores them."""
    present = set(partial)
    return tuple(partial) + tuple(v for v in range(n) if v not in present)


def find_witness(
    inst: Instance,
    t: Fraction,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
) -> Witness | None:
    """Random restarts plus steepest-ascent adjacent swaps until value >= avg + t.

    ``budget`` counts restarts.  A step takes the largest gain of the n - 1
    adjacent swaps, the leftmost on a tie; only positive gains are kept, by
    position.  A pair sharing no constraint gains 0, so a restart scores
    only the positions of variables in the pair table.  Swapping (a, b)
    steps the order index of the constraints in ``pairs[a, b]``, and only
    the gains at positions p - 1 and p of their variables, p being each
    variable's position, can change.
    Returns None when the budget runs out; a returned witness is always
    exactly verified.
    """
    target = inst.average_value() + Fraction(t)
    rng = random.Random(seed)
    constraints = inst.constraints
    pairs = _pairs(inst)
    # a swap of two variables that share no constraint gains 0, and the left
    # variable of any pair that shares one is in the pair table
    paired = {a for a, _ in pairs}
    base = list(range(inst.n))
    position = [0] * inst.n

    def score(j: int) -> None:
        delta = 0
        for ci, step, bits in pairs.get((current[j], current[j + 1]), ()):
            was = state[ci]
            delta += bits[step[was]] - bits[was]
        if delta > 0:
            gains[j] = delta
        else:
            gains.pop(j, None)

    for _ in range(max(budget, 0)):
        rng.shuffle(base)
        current = list(base)
        for rank, var in enumerate(current):
            position[var] = rank
        state, value = _order_indices(inst, position)
        gains: dict[int, int] = {}
        for var in paired:
            if position[var] < inst.n - 1:
                score(position[var])
        while value < target and gains:
            best = max(gains.values())
            i = min(j for j, g in gains.items() if g == best)
            a, b = current[i], current[i + 1]
            current[i], current[i + 1] = b, a
            position[a], position[b] = i + 1, i
            held = pairs[a, b]
            for ci, step, _ in held:
                state[ci] = step[state[ci]]
            stale = {position[var] - d for ci, _, _ in held for var in constraints[ci].vars for d in (1, 0)}
            for j in stale - {-1, inst.n - 1}:
                score(j)
            value += best
        if value >= target:
            return Witness(tuple(current), value)
    return None


def decide(
    inst: Instance,
    t: Fraction,
    config: DecideConfig = DecideConfig(),
    dec: ESDecomposition | None = None,
) -> DecisionReport:
    """Full decision: certificate first, kernel enumeration second.

    Outcomes: ``yes-certified`` (certificate fired; witness search optional),
    ``yes-kernel`` / ``no-kernel`` (kernel enumerated and compared to t
    exactly), ``undecided`` (kernel bigger than the cap).
    """
    t = Fraction(t)
    if dec is None:
        dec = decompose_instance(inst)
    certificate = certify_above_average(dec, t)
    if certificate.fires:
        witness = None
        if config.witness:
            witness = find_witness(inst, t, budget=config.budget, seed=config.seed)
        return DecisionReport(YES_CERTIFIED, certificate, None, witness)
    kernel = kernelize(inst, dec)
    if len(kernel.kernel_vars) > config.cap:
        return DecisionReport(UNDECIDED, certificate, kernel, None)
    kernel = brute_force_kernel(inst, kernel, config.cap)
    assert kernel.opt_minus_avg is not None and kernel.best_ordering is not None
    if kernel.opt_minus_avg >= t:
        full = extend_ordering(kernel.best_ordering, inst.n)
        witness = Witness(full, inst.evaluate(full))
        return DecisionReport(YES_KERNEL, certificate, kernel, witness)
    return DecisionReport(NO_KERNEL, certificate, kernel, None)
