"""Benchmark of ``ocsp decide`` on one named workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sparse-certified --seed 0 --seconds 40 --trace 0

Workloads: sparse-certified, dense-moments, kernel-enumeration (see
README.md).  The inputs come from ``workloads.py`` and the seed alone.

On the shared 2-vCPU host this was tuned on, CPU speed switches between
two levels about 1.8x apart, so every timed sample is short (a few tenths
of a second at most), each decision is sampled once per round over the
whole run, and a decision's time is the fastest of its samples.  The
parent imports ``ocsp`` once and never decides; each sample is a forked
child that times ``ocsp.cli.main(["decide", ..., "--json"])`` with stdout
captured, so it starts, like every CLI call, with an empty canonical-shape
cache.  Each round also times two fixed calibrations that do not touch
``ocsp``: a ``Fraction`` loop in a forked child and a bare interpreter
launch.  Every reported time is scaled by the geometric mean of
``CALIBRATION_REF_S / fastest loop`` and ``INTERPRETER_REF_S / fastest
launch``.

--trace 0 reports the end-to-end metrics:
  decide_s     sum over decisions of the fastest sample
  setup_s      fastest ``python -m ocsp --version`` launch (one per round,
               after one untimed launch that writes the bytecode)
  peak_rss_mb  largest ru_maxrss of any decision child
--trace 1 alternates traced and untraced samples.  A traced sample runs the
same ``ocsp.cli.main`` with the spans of ``traced.py`` installed around the
calls it makes.  It reports per-stage self times (sum over decisions of the
fastest), exact counts and ``trace.overhead_s``; spans go to
perfbench/work/trace-<workload>-<seed>.jsonl.

Every report is checked against reference values computed without
``ocsp``.  The last line of stdout is the JSON result, with ``correct``
false when any check failed.  Exit code 0 when a result is printed, 2 when
the program cannot be loaded.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import signal
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from check import check_report
from reference import input_counts, reference
from traced import STAGES, Tracer
from workloads import WORKLOADS, render

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

MIN_ROUNDS = 3
SAMPLE_TIMEOUT_S = 60
LAUNCH_TIMEOUT_S = 30
CALIBRATION_REPS = 120
# about the fastest calibration samples seen on the host this was tuned on;
# times are reported as seconds at the speed where the calibrations take
# this long
CALIBRATION_REF_S = 0.085
INTERPRETER_REF_S = 0.055
# the bare launch: an isolated interpreter that imports what ``ocsp`` imports
# from the standard library, and nothing of ``ocsp``
INTERPRETER_ARGS = ("-I", "-c", "import argparse, fractions, itertools, json")


def load_program():
    """Import ``ocsp`` from this checkout's ``src``; exit 2 if it is not there."""
    if not (SRC / "ocsp" / "__init__.py").is_file():
        sys.stderr.write(f"error: no ocsp package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ocsp.cli

    if Path(ocsp.__file__).resolve().parent != SRC / "ocsp":
        sys.stderr.write(f"error: imported ocsp from {ocsp.__file__}, not {SRC}\n")
        sys.exit(2)
    return ocsp.cli


def forked(fn, timeout_s: int = SAMPLE_TIMEOUT_S) -> tuple[dict | None, int]:
    """Run ``fn`` in a forked child: (its JSON-able result or None, ru_maxrss in KiB)."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            signal.alarm(timeout_s)
            data = json.dumps(fn()).encode()
            with os.fdopen(write_fd, "wb") as out:
                out.write(data)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    result = json.loads(data) if status == 0 and data else None
    return result, usage.ru_maxrss


def calibration_sample() -> dict:
    """A fixed piece of pure-Python work that does not touch ``ocsp``.

    Products and sums of small ``Fraction`` polynomials held in dicts, the
    kind of work ``decide`` spends its time on.
    """
    start = time.perf_counter()
    p = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}
    for _ in range(CALIBRATION_REPS):
        q: dict = {}
        for (a, b), x in p.items():
            for (c, d), y in p.items():
                q[a + c, b + d] = q.get((a + c, b + d), 0) + x * y
    return {"rc": 0, "seconds": time.perf_counter() - start}


def cli_sample(main, argv: list[str]) -> dict:
    """Time ``main(argv)``, that is ``ocsp.cli.main``, with stdout captured."""
    buf = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buf):
        rc = main(argv)
    return {"rc": rc, "seconds": time.perf_counter() - start, "report": buf.getvalue()}


def traced_sample(cli, argv: list[str]) -> dict:
    """``cli_sample`` with spans around the calls ``cli.main`` makes; call in a forked child."""
    tracer = Tracer()
    tracer.install()
    result = cli_sample(tracer.wrap("cli.main", cli.main), argv)
    return {**result, "stages": tracer.self_s, "spans": tracer.spans, "parts": tracer.parts}


def launch_seconds(args=("-m", "ocsp", "--version"), expect: str = "ocsp ") -> float | None:
    """Wall time of one ``python <args>`` whose stdout starts with ``expect``; None if it fails.

    By default ``python -m ocsp --version``.  Bytecode writing is left on,
    so every launch after the first loads cached bytecode, whatever the
    caller's environment says.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=LAUNCH_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    seconds = time.perf_counter() - start
    return seconds if done.returncode == 0 and done.stdout.startswith(expect) else None


def write_inputs(workload: str, seed: int, decisions) -> list[str]:
    folder = WORK / f"{workload}-{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for d in decisions:
        path = folder / f"{d.name}.ocsp"
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(render(d.n, d.constraints), encoding="utf-8")
        os.replace(tmp, path)
        paths.append(str(path))
    return paths


class Samples:
    """Per-decision results of one kind of sample (untraced or traced)."""

    def __init__(self, count: int):
        self.best = [math.inf] * count
        self.reports: list[str | None] = [None] * count
        self.mismatch = [False] * count
        self.attempted = 0
        self.failed = 0
        self.peak_kib = 0

    def add(self, i: int, result: dict | None, maxrss_kib: int) -> dict | None:
        self.attempted += 1
        self.peak_kib = max(self.peak_kib, maxrss_kib)
        if result is None or result["rc"] != 0:
            self.failed += 1
            return None
        self.best[i] = min(self.best[i], result["seconds"])
        if self.reports[i] is None:
            self.reports[i] = result["report"]
        elif self.reports[i] != result["report"]:
            self.mismatch[i] = True
        return result


def check_all(decisions, texts, reports, mismatch) -> bool:
    """Check each decision's report once; later samples were compared byte for byte."""
    refs: dict[str, object] = {}
    ok = True
    for i, d in enumerate(decisions):
        if reports[i] is None:
            sys.stderr.write(f"{d.name}: no sample printed a report\n")
            ok = False
            continue
        try:
            ref = refs.get(texts[i])
            if ref is None:
                ref = refs[texts[i]] = reference(texts[i], d.t, kernel=d.core is not None, seed=i)
            errors = check_report(d, ref, json.loads(reports[i]))
        except Exception as exc:  # a malformed report, or references that disagree
            errors = [f"check failed: {exc!r}"]
        if mismatch[i]:
            errors.append("samples printed different reports")
        for e in errors:
            sys.stderr.write(f"{d.name}: {e}\n")
        ok = ok and not errors
    return ok


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = load_program()

    decisions = WORKLOADS[workload](seed)
    paths = write_inputs(workload, seed, decisions)
    texts = [Path(p).read_text(encoding="utf-8") for p in paths]

    if not trace:
        launch_seconds()  # untimed: writes the bytecode
    plain = Samples(len(decisions))
    traced = Samples(len(decisions))
    stage_best = [dict.fromkeys(STAGES, math.inf) for _ in decisions]
    parts = [0] * len(decisions)
    spans = []
    launches: list[float] = []
    calibration = interpreter = math.inf
    gc.collect()
    gc.freeze()
    deadline = time.perf_counter() + seconds
    rounds = 0
    round_s = 0.0
    # whole rounds only, and none that would end past the deadline
    while rounds < MIN_ROUNDS or time.perf_counter() + round_s <= deadline:
        round_start = time.perf_counter()
        for i, d in enumerate(decisions):
            argv = d.argv(paths[i])
            # traced samples go before the untraced one in odd rounds, after it in even ones
            for kind in (("traced", "plain") if rounds % 2 else ("plain", "traced")):
                if kind == "plain":
                    plain.add(i, *forked(lambda: cli_sample(cli.main, argv)))
                elif trace:
                    result = traced.add(i, *forked(lambda: traced_sample(cli, argv)))
                    if result is not None:
                        parts[i] = result["parts"]
                        for name, value in result["stages"].items():
                            stage_best[i][name] = min(stage_best[i][name], value)
                        for name, start, end, parent in result["spans"]:
                            spans.append({"trace": f"{d.name}/{rounds}", "span": name, "start": start,
                                          "end": end, "parent": parent})
        sample, _ = forked(calibration_sample)
        if sample is not None:
            calibration = min(calibration, sample["seconds"])
        interpreter = min(interpreter, launch_seconds(INTERPRETER_ARGS, "") or math.inf)
        if not trace:
            launches.append(launch_seconds())
        rounds += 1
        round_s = time.perf_counter() - round_start

    correct = check_all(decisions, texts, plain.reports, plain.mismatch)
    if trace:
        for i, d in enumerate(decisions):
            if traced.reports[i] != plain.reports[i] or traced.mismatch[i]:
                sys.stderr.write(f"{d.name}: traced report differs from the CLI report\n")
                correct = False
    if None in launches:
        sys.stderr.write("python -m ocsp --version failed\n")
        correct = False
    launches = [s for s in launches if s is not None]
    if not trace and not launches:
        launches = [LAUNCH_TIMEOUT_S]  # reported as the timeout; the run is already not correct
    if math.inf in (calibration, interpreter):
        sys.stderr.write("every sample of a calibration failed; times are not scaled\n")
        correct = False
        calibration, interpreter = CALIBRATION_REF_S, INTERPRETER_REF_S
    scale = math.sqrt(CALIBRATION_REF_S / calibration * INTERPRETER_REF_S / interpreter)
    # a decision no sample decided is already not correct; its time is left out
    raw = {"decide": sum(b for b in plain.best if b < math.inf), "setup": min(launches, default=0.0),
           "calibration": calibration, "interpreter": interpreter}
    if trace:
        metrics = trace_metrics(texts, plain, traced, stage_best, parts, scale)
        (WORK / f"trace-{workload}-{seed}.jsonl").write_text(
            "".join(json.dumps(s) + "\n" for s in spans), encoding="utf-8")
    else:
        metrics = {
            "decide_s": {"value": raw["decide"] * scale, "unit": "s"},
            "setup_s": {"value": raw["setup"] * scale, "unit": "s"},
            "peak_rss_mb": {"value": plain.peak_kib / 1024, "unit": "MB"},
        }
    return {
        "raw": raw,
        "correct": correct,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": metrics,
    }


def trace_metrics(texts, plain, traced, stage_best, parts, scale: float) -> dict:
    metrics = {}
    for stage in STAGES:
        value = sum(best[stage] for best in stage_best if best[stage] < math.inf) * scale
        metrics[f"{stage}_s"] = {"value": value, "unit": "s"}
    pairs = [(t, p) for t, p in zip(traced.best, plain.best) if max(t, p) < math.inf]
    overhead = sum(t - p for t, p in pairs) * scale
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    counts = dict.fromkeys(
        ("instance.constraints", "efron_stein.shapes", "efron_stein.parts",
         "efron_stein.shared_subsets", "decider.kernel_vars", "decider.kernel_orderings",
         "report.bytes"), 0)
    for i, text in enumerate(texts):
        constraints, shapes, shared = input_counts(text)
        counts["instance.constraints"] += constraints
        counts["efron_stein.shapes"] += shapes
        counts["efron_stein.shared_subsets"] += shared
        counts["efron_stein.parts"] += parts[i]
        report = json.loads(plain.reports[i] or "{}")
        kernel = report.get("kernel") or {}
        counts["decider.kernel_vars"] += kernel.get("size", 0)
        if kernel.get("opt_minus_avg") is not None:
            counts["decider.kernel_orderings"] += math.factorial(kernel["size"])
        counts["report.bytes"] += len((plain.reports[i] or "").encode())
    metrics.update({k: {"value": v, "unit": "count"} for k, v in counts.items()})
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    raw = result.pop("raw")
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']:.6f} {metric['unit']}")
    setup = "" if args.trace else f"setup {raw['setup']:.6f} s, "
    print(f"unscaled: decide {raw['decide']:.6f} s, {setup}fastest calibration {raw['calibration']:.6f} s,"
          f" fastest interpreter launch {raw['interpreter']:.6f} s")
    print(f"decisions: attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
