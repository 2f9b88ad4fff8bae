"""Command-line entry points.

``decide`` prints a human summary by default and the exact JSON report with
``--json``; the other report commands always print JSON.  Exit codes: 0 for a
decided outcome (and for successful auxiliary commands), 2 when the decision
is ``undecided``, 1 on any error (running out of memory included), and 130
when interrupted.  Output depends only on the input bytes, the flags, and
the seed.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import __version__
from .bonami import verify_chain
from .decider import UNDECIDED, DecideConfig, decide, kernelize
from .decider import DEFAULT_BUDGET, DEFAULT_CAP, DEFAULT_SEED
from .efron_stein import decompose_instance
from .errors import OcspError
from .instance import MODELS, decode_text, generate, parse_instance, render_instance
from .oracle import brute_force_opt, exact_central_moment
from .report import (
    analyze_report_dict,
    bonami_report_dict,
    decision_report_dict,
    dump_json,
    kernel_report_dict,
    oracle_report_dict,
    rational_str,
)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "rb") as handle:
        return decode_text(handle.read())


def _load(path: str):
    return parse_instance(_read_input(path))


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _cmd_decide(args) -> int:
    inst = _load(args.input)
    config = DecideConfig(cap=args.cap, witness=args.witness, budget=args.budget, seed=args.seed)
    report = decide(inst, args.t, config)
    if args.json:
        _emit(dump_json(decision_report_dict(report)))
    else:
        cert = report.certificate
        lines = [
            f"outcome: {report.outcome}",
            "certificate: sigma2={} C={} b={} t={} fires={}".format(
                rational_str(cert.sigma2),
                rational_str(cert.C),
                rational_str(cert.b),
                rational_str(cert.t),
                "yes" if cert.fires else "no",
            ),
        ]
        if report.kernel is not None:
            kvars = [v + 1 for v in report.kernel.kernel_vars]
            lines.append(f"kernel: size={len(kvars)} vars={kvars}")
            if report.kernel.opt_minus_avg is not None:
                lines.append(f"kernel opt-avg: {rational_str(report.kernel.opt_minus_avg)}")
            else:
                lines.append(f"kernel exceeds cap {args.cap}")
        if report.witness is not None:
            ordering = [v + 1 for v in report.witness.ordering]
            lines.append(f"witness: {ordering} value={report.witness.value}")
        _emit("\n".join(lines) + "\n")
    return 2 if report.outcome == UNDECIDED else 0


def _cmd_kernelize(args) -> int:
    inst = _load(args.input)
    kernel = kernelize(inst)
    _emit(dump_json(kernel_report_dict(kernel)))
    return 0


def _cmd_analyze(args) -> int:
    inst = _load(args.input)
    dec = decompose_instance(inst)
    _emit(dump_json(analyze_report_dict(inst, dec, include_m4=args.m4, include_pieces=args.pieces)))
    return 0


def _cmd_gen(args) -> int:
    inst = generate(
        args.model,
        n=args.n,
        m=args.m,
        k=args.k,
        allowed_fraction=args.frac,
        seed=args.seed,
    )
    _emit(render_instance(inst))
    return 0


def _cmd_oracle(args) -> int:
    inst = _load(args.input)
    opt, avg = brute_force_opt(inst)
    wanted = set(args.moment) if args.moment else {2, 4}
    moment2 = exact_central_moment(inst, 2) if 2 in wanted else None
    moment4 = exact_central_moment(inst, 4) if 4 in wanted else None
    _emit(dump_json(oracle_report_dict(opt, avg, moment2, moment4)))
    return 0


def _cmd_bonami(args) -> int:
    inst = _load(args.input)
    dec = decompose_instance(inst)
    ef4 = exact_central_moment(inst, 4)
    witness = verify_chain(dec, ef4)
    _emit(dump_json(bonami_report_dict(witness)))
    return 0 if witness.all_passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocsp",
        description="Decide whether some ordering beats the average value by t.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"ocsp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="run the certificate, then the kernel decision")
    p.add_argument("--input", required=True, help="instance file ('-' for stdin)")
    p.add_argument("--t", required=True, type=_fraction, help="advantage over average, positive rational like 3/2")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="largest kernel enumerated exhaustively")
    p.add_argument("--witness", action="store_true", help="search for an explicit ordering when the certificate fires")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="witness search restarts")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="witness search seed")
    p.add_argument("--json", action="store_true", help="print the JSON report instead of a summary")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("kernelize", help="report the variables the objective depends on")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_kernelize)

    p = sub.add_parser("analyze", help="report every decomposition part with its moments")
    p.add_argument("--input", required=True)
    p.add_argument("--m4", action="store_true", help="include fourth moments per part")
    p.add_argument("--pieces", action="store_true", help="include cell-by-cell polynomials")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("gen", help="print a random instance in the text format")
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--k", type=int, default=None, help="arity for random-k")
    p.add_argument("--frac", type=_fraction, default=Fraction(1, 2), help="allowed fraction for random-k")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle", help="brute-force optimum, average, and exact central moments")
    p.add_argument("--input", required=True)
    p.add_argument("--moment", type=int, action="append", choices=[2, 4], help="restrict to one moment order (repeatable)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bonami", help="check the fourth-moment bound chain numerically")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_bonami)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version and 2 for usage errors;
        # usage errors must not collide with the undecided exit code
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except OcspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
