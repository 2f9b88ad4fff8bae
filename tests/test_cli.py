import io
import json
import resource
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from ocsp.cli import main

TRIANGLE = "ocsp 1\nnvars 3\ncon 1 2\ncon 2 3\ncon 3 1\n"
SINGLE_MAS = "ocsp 1\nnvars 2\ncon 1 2\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _raiser(exc_type):
    def fail(*args, **kwargs):
        raise exc_type()

    return fail


def validate(schema_name: str, payload: dict) -> None:
    text = (resources.files("ocsp") / "schemas" / schema_name).read_text()
    schema = json.loads(text)
    jsonschema.Draft202012Validator.check_schema(schema)
    jsonschema.Draft202012Validator(schema).validate(payload)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.ocsp"
    path.write_text(TRIANGLE)
    return str(path)


class TestDecide:
    def test_human_summary(self, capsys, triangle_file):
        code, out, err = run_cli(capsys, "decide", "--input", triangle_file, "--t", "1/2")
        assert code == 0
        assert err == ""
        assert "outcome: yes-kernel" in out
        assert "witness: [1, 2, 3] value=2" in out
        assert "fires=no" in out

    def test_json_report(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "decide", "--input", triangle_file, "--t", "1/2", "--json")
        assert code == 0
        payload = json.loads(out)
        validate("decision_report.schema.json", payload)
        assert payload["outcome"] == "yes-kernel"
        assert payload["certificate"]["sigma2"] == "1/4"
        assert payload["certificate"]["b"] == "59054/5"
        assert payload["kernel"]["kernel_vars"] == [1, 2, 3]
        assert payload["kernel"]["opt_minus_avg"] == "1/2"
        assert payload["witness"] == {"ordering": [1, 2, 3], "value": 2}

    def test_no_outcome(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "decide", "--input", triangle_file, "--t", "2/3", "--json")
        assert code == 0
        payload = json.loads(out)
        validate("decision_report.schema.json", payload)
        assert payload["outcome"] == "no-kernel"
        assert payload["witness"] is None

    def test_undecided_exit_code(self, capsys, tmp_path):
        gen_code, text, _ = run_cli(capsys, "gen", "--model", "mas", "--n", "22", "--m", "11", "--seed", "3")
        assert gen_code == 0
        path = tmp_path / "big.ocsp"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "decide", "--input", str(path), "--t", "1/2", "--json")
        payload = json.loads(out)
        validate("decision_report.schema.json", payload)
        assert payload["outcome"] == "undecided"
        assert code == 2
        assert payload["kernel"]["size"] == 13
        assert payload["kernel"]["opt_minus_avg"] is None

    def test_huge_nvars_without_constraints_stays_small(self, tmp_path):
        # 10^9 variables and no constraints: the kernel is empty, and the
        # decision must not allocate per variable (2 GB address-space limit)
        path = tmp_path / "huge.ocsp"
        path.write_text("ocsp 1\nnvars 1000000000\n")

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "ocsp", "decide", "--input", str(path), "--t", "1", "--json"],
            capture_output=True,
            text=True,
            preexec_fn=limit_memory,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["outcome"] == "no-kernel"

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(TRIANGLE))
        code, out, _ = run_cli(capsys, "decide", "--input", "-", "--t", "1/2")
        assert code == 0
        assert "yes-kernel" in out

    def test_byte_identical_reruns(self, capsys, triangle_file):
        args = ("decide", "--input", triangle_file, "--t", "1/2", "--json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestKernelize:
    def test_report(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "kernelize", "--input", triangle_file)
        assert code == 0
        payload = json.loads(out)
        validate("kernel_report.schema.json", payload)
        assert payload == {
            "degree": 2,
            "kernel_vars": [1, 2, 3],
            "mean": "3/2",
            "size": 3,
            "variance": "1/4",
        }


class TestAnalyze:
    def test_report(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "analyze", "--input", triangle_file)
        assert code == 0
        payload = json.loads(out)
        validate("analyze_report.schema.json", payload)
        assert payload["n"] == 3
        assert payload["m"] == 3
        assert payload["variance"] == "1/4"
        assert [p["vars"] for p in payload["parts"]] == [[1, 2], [1, 3], [2, 3]]
        assert all("m4" not in p and "pieces" not in p for p in payload["parts"])

    def test_optional_fields(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "analyze", "--input", triangle_file, "--m4", "--pieces")
        assert code == 0
        payload = json.loads(out)
        validate("analyze_report.schema.json", payload)
        for part in payload["parts"]:
            assert "m4" in part
            assert part["pieces"]
            for piece in part["pieces"]:
                assert isinstance(piece["poly"], str)

    def test_empty_instance(self, capsys, tmp_path):
        path = tmp_path / "empty.ocsp"
        path.write_text("ocsp 1\nnvars 4\n")
        code, out, _ = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 0
        payload = json.loads(out)
        validate("analyze_report.schema.json", payload)
        assert payload["parts"] == []
        assert payload["min_m2"] is None
        assert payload["variance"] == "0"


class TestGen:
    def test_deterministic_and_parseable(self, capsys, tmp_path):
        args = ("gen", "--model", "random-k", "--n", "8", "--m", "5", "--k", "3", "--frac", "1/3", "--seed", "11")
        code, first, _ = run_cli(capsys, *args)
        assert code == 0
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        path = tmp_path / "gen.ocsp"
        path.write_text(first)
        code, out, _ = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 0
        assert json.loads(out)["n"] == 8

    def test_different_seeds_differ(self, capsys):
        base = ("gen", "--model", "random-k", "--n", "8", "--m", "5", "--k", "3")
        _, a, _ = run_cli(capsys, *base, "--seed", "1")
        _, b, _ = run_cli(capsys, *base, "--seed", "2")
        assert a != b


class TestOracle:
    def test_default_reports_both_moments(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "oracle", "--input", triangle_file)
        assert code == 0
        payload = json.loads(out)
        validate("oracle_report.schema.json", payload)
        assert payload["opt"] == 2
        assert payload["avg"] == "3/2"
        assert payload["moment2"] == "1/4"
        assert payload["moment4"] is not None

    def test_moment_selection(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "oracle", "--input", triangle_file, "--moment", "2")
        assert code == 0
        payload = json.loads(out)
        validate("oracle_report.schema.json", payload)
        assert payload["moment2"] == "1/4"
        assert payload["moment4"] is None
        code, out, _ = run_cli(
            capsys, "oracle", "--input", triangle_file, "--moment", "2", "--moment", "4"
        )
        assert json.loads(out)["moment4"] is not None


class TestBonami:
    def test_passes_on_triangle(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "bonami", "--input", triangle_file)
        assert code == 0
        payload = json.loads(out)
        validate("bonami_report.schema.json", payload)
        assert payload["all_passed"] is True
        assert payload["z_moments"] == {"1": "0", "2": "3", "3": "6", "4": "21"}
        assert set(payload["checks"]) == {
            "fourth_moment_vs_surrogate",
            "surrogate_hypercontractivity",
            "second_moment_identity",
        }

    def test_byte_identical_reruns(self, capsys, triangle_file):
        _, first, _ = run_cli(capsys, "bonami", "--input", triangle_file)
        _, second, _ = run_cli(capsys, "bonami", "--input", triangle_file)
        assert first == second


class TestErrorsAndMeta:
    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "decide", "--input", "/nonexistent.ocsp", "--t", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_parse_error_carries_position(self, capsys, tmp_path):
        path = tmp_path / "bad.ocsp"
        path.write_text("ocsp 1\nnvars 2\ncon 1 5\n")
        code, _, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 1
        assert "line 3" in err

    def test_undecodable_byte_carries_position(self, capsys, tmp_path):
        path = tmp_path / "bad.ocsp"
        path.write_bytes(b"ocsp 1\nnvars 2\ncon 1 \xff\n")
        code, out, err = run_cli(capsys, "decide", "--input", str(path), "--t", "1")
        assert code == 1
        assert out == ""
        assert err == "error: line 3, col 7: cannot decode byte 0xff as UTF-8: invalid start byte\n"

    def test_nonpositive_t(self, capsys, tmp_path):
        path = tmp_path / "one.ocsp"
        path.write_text(SINGLE_MAS)
        code, _, err = run_cli(capsys, "decide", "--input", str(path), "--t", "0")
        assert code == 1
        assert "positive" in err

    def test_bad_rational(self, capsys, triangle_file):
        code, _, _ = run_cli(capsys, "decide", "--input", triangle_file, "--t", "nope")
        assert code == 1

    def test_out_of_memory_answers_cleanly(self, capsys, monkeypatch, triangle_file):
        monkeypatch.setattr("ocsp.cli.decide", _raiser(MemoryError))
        code, out, err = run_cli(capsys, "decide", "--input", triangle_file, "--t", "1/2")
        assert (code, out, err) == (1, "", "error: out of memory\n")

    def test_interrupt_answers_cleanly(self, capsys, monkeypatch, triangle_file):
        monkeypatch.setattr("ocsp.cli.decide", _raiser(KeyboardInterrupt))
        code, out, err = run_cli(capsys, "decide", "--input", triangle_file, "--t", "1/2")
        assert (code, out, err) == (130, "", "error: interrupted\n")

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_version_and_help(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert out.startswith("ocsp ")
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "decide" in out

    def test_module_entry_point(self, tmp_path):
        path = tmp_path / "triangle.ocsp"
        path.write_text(TRIANGLE)
        proc = subprocess.run(
            [sys.executable, "-m", "ocsp", "decide", "--input", str(path), "--t", "1/2", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["outcome"] == "yes-kernel"
