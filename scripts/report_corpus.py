"""Print every report the CLI gives on a set of inputs, for byte-identity checks.

For each ``.ocsp`` file named (a directory stands for the ``*.ocsp`` files
under it, sorted) and each threshold t, runs ``ocsp.cli.main`` in this
process on

    decide --input F --t T --json
    decide --input F --t T --witness
    analyze --input F --m4 --pieces
    kernelize --input F

and prints each command, its exit code, its stdout and its stderr.  Run it
once against each of two versions of ``src/`` and diff the outputs: no
difference means every report, and every error message for a malformed
input, is byte-identical.

    PYTHONPATH=src python scripts/report_corpus.py inputs/ --t 1/2 > after.txt
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

from ocsp.cli import main as ocsp_main


def input_files(paths: list[str]) -> list[Path]:
    out: list[Path] = []
    for path in map(Path, paths):
        out.extend(sorted(path.rglob("*.ocsp")) if path.is_dir() else [path])
    return out


def commands(path: Path, ts: list[str]) -> list[list[str]]:
    out = []
    for t in ts:
        out.append(["decide", "--input", str(path), "--t", t, "--json"])
        out.append(["decide", "--input", str(path), "--t", t, "--witness"])
    out.append(["analyze", "--input", str(path), "--m4", "--pieces"])
    out.append(["kernelize", "--input", str(path)])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="instance files or directories of them")
    parser.add_argument("--t", action="append", dest="ts", help="threshold for decide (repeatable; default 1/2)")
    args = parser.parse_args()
    count = 0
    for path in input_files(args.paths):
        for argv in commands(path, args.ts or ["1/2"]):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = ocsp_main(argv)
            print(f"$ ocsp {' '.join(argv)}\nexit {code}\n{stdout.getvalue()}stderr:\n{stderr.getvalue()}", flush=True)
            count += 1
    print(f"{count} commands", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
