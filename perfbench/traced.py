"""Spans around the calls ``ocsp decide`` makes, for the CLI's own code path.

``install`` replaces the module globals that ``ocsp.cli._cmd_decide`` and
``ocsp.decider.decide`` look up at call time, and two methods of
``ESDecomposition``, with wrappers that time each call.  The traced sample
then runs ``ocsp.cli.main`` unchanged, so it prints the CLI's report bytes
and takes the CLI's branches.  Install only in a forked child: the wrappers
stay for the life of the process.

A stage's time is its self time: the time inside its calls minus the time
of traced calls nested in them.  ``certify_above_average`` calls
``variance`` and ``local_fourth_moment_ratio``, so ``decider.certificate``
is the certificate's own arithmetic.  A stage the decision's path does not
call reads 0.
"""

from __future__ import annotations

import functools
import importlib
import time

STAGES = (
    "instance.parse",
    "efron_stein.decompose",
    "efron_stein.variance",
    "efron_stein.fourth_moment",
    "decider.certificate",
    "decider.kernelize",
    "decider.kernel_enum",
    "decider.witness",
    "report.render",
)

# (module, attribute, stage); ``extend_ordering`` is the kernel path's witness
TARGETS = (
    ("ocsp.cli", "parse_instance", "instance.parse"),
    ("ocsp.decider", "decompose_instance", "efron_stein.decompose"),
    ("ocsp.efron_stein", "ESDecomposition.variance", "efron_stein.variance"),
    ("ocsp.efron_stein", "ESDecomposition.local_fourth_moment_ratio", "efron_stein.fourth_moment"),
    ("ocsp.decider", "certify_above_average", "decider.certificate"),
    ("ocsp.decider", "kernelize", "decider.kernelize"),
    ("ocsp.decider", "brute_force_kernel", "decider.kernel_enum"),
    ("ocsp.decider", "find_witness", "decider.witness"),
    ("ocsp.decider", "extend_ordering", "decider.witness"),
    ("ocsp.cli", "decision_report_dict", "report.render"),
    ("ocsp.cli", "dump_json", "report.render"),
)


class Tracer:
    """Spans as (name, start, end, parent) with ``perf_counter`` times, and self time per stage."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, str | None]] = []
        self.self_s = dict.fromkeys(STAGES, 0.0)
        self.parts = 0
        self._open: list[list] = []  # [name, seconds of nested spans]

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = self._open[-1][0] if self._open else None
            self._open.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                if self._open:
                    self._open[-1][1] += end - start
                if name in self.self_s:
                    self.self_s[name] += end - start - frame[1]
                self.spans.append((name, start, end, parent))

        return traced

    def install(self) -> None:
        """Wrap every target, and count the parts of each decomposition outside its span."""
        for module_name, path, stage in TARGETS:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for name in classes:
                owner = getattr(owner, name)
            setattr(owner, attr, self.wrap(stage, getattr(owner, attr)))
        decider = importlib.import_module("ocsp.decider")
        decompose = decider.decompose_instance

        def counted(inst):
            dec = decompose(inst)
            self.parts = len(dec.subsets())
            return dec

        decider.decompose_instance = counted
