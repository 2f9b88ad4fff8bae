"""Corpus sweep: decisions against brute force, plus the fourth-moment chain.

Generates a deterministic mixed corpus, decides each instance at every
requested t, compares the yes/no answer with exhaustive enumeration, and runs
the numeric fourth-moment checks.  Every kernel decision must also report
OPT - AVG exactly, and its witness must attain that gap.  Every certified
decision also runs the witness search with a small budget; a witness it
returns must recount to its value, and that value must lie in
[AVG + t, OPT].  Exits nonzero on any disagreement or failed check, so the
sweep can gate a batch job.
"""

import argparse
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from ocsp.bonami import verify_chain
from ocsp.decider import NO_KERNEL, UNDECIDED, YES_CERTIFIED, YES_KERNEL, decide, find_witness
from ocsp.efron_stein import decompose_instance
from ocsp.instance import generate
from ocsp.oracle import brute_force_opt, exact_central_moment

WITNESS_BUDGET = 20


@dataclass(frozen=True)
class SweepConfig:
    count: int
    seed: int
    max_n: int
    max_m: int
    ts: tuple[Fraction, ...]


def corpus(config: SweepConfig):
    rng = random.Random(config.seed)
    for i in range(config.count):
        model = ("mas", "betweenness", "random-k")[i % 3]
        k = {"mas": 2, "betweenness": 3}.get(model, rng.randint(2, 3))
        yield generate(
            model,
            n=rng.randint(max(k, 3), config.max_n),
            m=rng.randint(1, config.max_m),
            k=k if model == "random-k" else None,
            allowed_fraction=Fraction(1, 2),
            seed=rng.randrange(1 << 30),
        )


def run(config: SweepConfig) -> int:
    decisions = mismatches = gap_mismatches = certified = chain_failures = 0
    witnesses = witness_failures = 0
    for index, inst in enumerate(corpus(config)):
        dec = decompose_instance(inst)
        opt, avg = brute_force_opt(inst, cap=config.max_n)
        for t in config.ts:
            report = decide(inst, t, dec=dec)
            if report.outcome == UNDECIDED:
                continue
            decisions += 1
            said_yes = report.outcome in (YES_CERTIFIED, YES_KERNEL)
            if said_yes != (opt - avg >= t):
                mismatches += 1
                print(f"instance {index}: decide({t}) = {report.outcome}, "
                      f"but opt - avg = {opt - avg}")
            if report.outcome == YES_CERTIFIED:
                certified += 1
                found = find_witness(inst, t, budget=WITNESS_BUDGET, seed=index)
                if found is not None:
                    witnesses += 1
                    recount = inst.evaluate(found.ordering)
                    if not (recount == found.value and avg + t <= found.value <= opt):
                        witness_failures += 1
                        print(f"instance {index}: find_witness({t}) gave value {found.value} "
                              f"recounting to {recount}, outside [avg + t, opt] = [{avg + t}, {opt}]")
            if report.outcome in (YES_KERNEL, NO_KERNEL):
                gaps = [report.kernel.opt_minus_avg]
                if report.witness is not None:
                    gaps.append(report.witness.value - avg)
                if any(gap != opt - avg for gap in gaps):
                    gap_mismatches += 1
                    print(f"instance {index}: decide({t}) reports gaps {gaps}, "
                          f"but opt - avg = {opt - avg}")
        witness = verify_chain(dec, exact_central_moment(inst, 4))
        if not witness.all_passed:
            chain_failures += 1
            failed = [name for name, c in witness.checks.items() if not c.passed]
            print(f"instance {index}: fourth-moment chain failed: {failed}")
    print(
        f"{config.count} instances, {decisions} decisions, "
        f"{mismatches} mismatches, {gap_mismatches} gap mismatches, "
        f"{certified} certified, {chain_failures} chain failures, "
        f"{witnesses} witnesses, {witness_failures} witness failures"
    )
    return 1 if mismatches or gap_mismatches or chain_failures or witness_failures else 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-n", type=int, default=7)
    parser.add_argument("--max-m", type=int, default=6)
    parser.add_argument(
        "--t",
        type=Fraction,
        action="append",
        help="advantage threshold, repeatable (default: 1/1000000, 1/2, 1, 2; "
        "the tiny threshold lets the fourth-moment certificate fire)",
    )
    args = parser.parse_args()
    default_ts = (Fraction(1, 10**6), Fraction(1, 2), Fraction(1), Fraction(2))
    ts = tuple(args.t) if args.t else default_ts
    config = SweepConfig(
        count=args.count, seed=args.seed, max_n=args.max_n, max_m=args.max_m, ts=ts
    )
    sys.exit(run(config))


if __name__ == "__main__":
    main()
