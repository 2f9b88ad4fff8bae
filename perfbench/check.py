"""Check one ``ocsp decide --json`` report against the reference values."""

from __future__ import annotations

from fractions import Fraction

from reference import Reference, objective
from workloads import Decision


def _rational(text) -> Fraction | None:
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
        return None


def _witness_errors(ref: Reference, witness, target: Fraction) -> list[str]:
    if not isinstance(witness, dict):
        return ["no witness printed"]
    ordering = [v - 1 for v in witness.get("ordering") or []]
    if sorted(ordering) != list(range(ref.n)):
        return ["witness ordering is not a permutation of all variables"]
    value = objective(ref.tables, ordering)
    errors = []
    if witness.get("value") != value:
        errors.append(f"witness value {witness.get('value')} != recount {value}")
    if value < target:
        errors.append(f"witness value {value} is below AVG + t = {target}")
    return errors


def check_report(decision: Decision, ref: Reference, report: dict) -> list[str]:
    """Every disagreement between ``report`` and the reference, as text."""
    errors: list[str] = []
    cert = report.get("certificate") or {}
    sigma2, big_c, t = (_rational(cert.get(k)) for k in ("sigma2", "C", "t"))
    if t != decision.t:
        errors.append(f"t {cert.get('t')} != {decision.t}")
    if sigma2 != ref.sigma2:
        errors.append(f"sigma2 {cert.get('sigma2')} != reference {ref.sigma2}")
    if big_c != ref.big_c:
        errors.append(f"C {cert.get('C')} != reference {ref.big_c}")
    b = 81**ref.arity * ref.big_c + 1
    if _rational(cert.get("b")) != b:
        errors.append(f"b {cert.get('b')} != 81^{ref.arity} * C + 1 = {b}")
    fires = ref.sigma2 >= 4 * b * decision.t**2
    if cert.get("fires") is not fires:
        errors.append(f"fires {cert.get('fires')} but sigma2 >= 4 b t^2 is {fires}")
    # the paper's fourth-moment bound, where the central moment was enumerated
    if ref.m4 is not None and ref.m4 > (b - 1) * ref.sigma2**2:
        errors.append(f"E[(phi-AVG)^4] = {ref.m4} exceeds (b-1) sigma^4")
    target = ref.avg + decision.t
    outcome = report.get("outcome")
    if decision.core is None:
        if outcome != "yes-certified":
            errors.append(f"outcome {outcome} != yes-certified")
        if ref.proof is None or objective(ref.tables, ref.proof) < target:
            errors.append("the reference search found no ordering reaching AVG + t")
        if report.get("kernel") is not None:
            errors.append("a certified decision printed a kernel")
        if decision.witness:
            errors += _witness_errors(ref, report.get("witness"), target)
        return errors
    facts = ref.kernel
    expected = "yes-kernel" if facts.gap >= decision.t else "no-kernel"
    if outcome != expected:
        errors.append(f"outcome {outcome} != {expected}")
    kernel = report.get("kernel") or {}
    kvars = [v + 1 for v in facts.kernel]
    if kernel.get("kernel_vars") != kvars or kernel.get("size") != len(kvars):
        errors.append(f"kernel {kernel.get('kernel_vars')} != {kvars}")
    if _rational(kernel.get("opt_minus_avg")) != facts.gap:
        errors.append(f"opt_minus_avg {kernel.get('opt_minus_avg')} != reference {facts.gap}")
    best = tuple(v - 1 for v in kernel.get("best_ordering") or [])
    if best not in facts.values or facts.values[best] - facts.avg != facts.gap:
        errors.append(f"best_ordering {kernel.get('best_ordering')} does not reach OPT")
    if expected == "yes-kernel":
        errors += _witness_errors(ref, report.get("witness"), target)
    elif report.get("witness") is not None:
        errors.append("a no-kernel decision printed a witness")
    return errors
