import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import portraits.cli
from portraits import (InvariantViolationError, analyze, parse_portrait,
                       render_report)
from portraits.cli import main

DEGREE5 = "degree 5\nset 0 3/4\nset 1/8 5/8\nset 1/4\nset 1/2\n"
BAD_P4 = "degree 3\nset 0\nset 1/2\nset 1/8 3/8\nset 5/8 7/8\n"
BAD_P3 = "degree 5\nset 1/8 5/8\n"
BAD_P2 = "degree 5\nset 0 1/2\nset 1/4 3/4\n"
BAD_P1 = "degree 5\nset 1/8 1/4\n"
# the degree-5 example with one angle of its rotating pair moved
P1_MUTATED = "degree 5\nset 0 3/4\nset 1/8 7/8\nset 1/4\nset 1/2\n"


@pytest.fixture
def d5_file(tmp_path):
    path = tmp_path / "d5.txt"
    path.write_text(DEGREE5)
    return str(path)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestValidate:
    def test_ok(self, d5_file, capsys):
        assert main(["validate", d5_file]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_p4_code(self, tmp_path, capsys):
        assert main(["validate", write(tmp_path, "p4.txt", BAD_P4)]) == 1
        assert capsys.readouterr().out.startswith("P4")

    def test_p3_code(self, tmp_path, capsys):
        assert main(["validate", write(tmp_path, "p3.txt", BAD_P3)]) == 1
        assert capsys.readouterr().out.startswith("P3-missing")

    def test_p2_code(self, tmp_path, capsys):
        assert main(["validate", write(tmp_path, "p2.txt", BAD_P2)]) == 1
        assert capsys.readouterr().out.startswith("P2-linked")

    def test_p1_code(self, tmp_path, capsys):
        assert main(["validate", write(tmp_path, "p1.txt", BAD_P1)]) == 1
        assert capsys.readouterr().out.startswith("P1")

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.txt", "set 1/8\n")
        with pytest.raises(SystemExit) as exc:
            main(["validate", path])
        assert exc.value.code == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("text, error", [
        ("degree ２\nset 0/1\n", "line 1: degree must be an integer, got '２'"),
        ("degree 2\nset 1_0/3\n", "line 2: bad fraction '1_0/3'"),
    ])
    def test_non_ascii_decimal_exits_2(self, tmp_path, capsys, text, error):
        path = write(tmp_path, "bad.txt", text)
        with pytest.raises(SystemExit) as exc:
            main(["validate", path])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {error}\n"

    def test_degree_beyond_the_listed_angles_exits_2(self, tmp_path, capsys):
        # validation would materialise 10**11 - 1 fixed angles; the parser
        # refuses a file that lists far fewer
        path = write(tmp_path, "huge.txt", "degree 100000000000\nset 0\n")
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["validate", path])
        assert time.perf_counter() - start < 1.0
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line 1: degree 100000000000 has 99999999999 fixed "
            f"angles, more than the 1 angles listed\n")

    def test_missing_file_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "/nonexistent/portrait.txt"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(
            "error: cannot read /nonexistent/portrait.txt: ")

    @pytest.mark.parametrize("command", ["validate", "build", "roundtrip"])
    def test_file_not_utf8_exits_2_naming_it(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"degree 2\nset 0\n# \xff\n")
        with pytest.raises(SystemExit) as exc:
            main([command, str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")
        assert "usage error" not in err


class TestBuild:
    def test_report_shows_fixed_points(self, d5_file, capsys):
        assert main(["build", d5_file]) == 0
        out = capsys.readouterr().out
        assert "fixed points: 5" in out
        assert "round trip: ok" in out

    def test_invalid_portrait_fails(self, tmp_path, capsys):
        assert main(["build", write(tmp_path, "p4.txt", BAD_P4)]) == 1
        assert "P4" in capsys.readouterr().out

    def test_artifacts_written(self, d5_file, tmp_path, capsys):
        svg = tmp_path / "out.svg"
        report = tmp_path / "report.txt"
        data = tmp_path / "report.json"
        assert main(["build", d5_file, "--svg", str(svg),
                     "--report", str(report), "--json", str(data)]) == 0
        assert svg.read_text().startswith("<?xml")
        assert "fixed points: 5" in report.read_text()
        payload = json.loads(data.read_text())
        assert payload["fixed_points"] == 5
        assert payload["round_trip_ok"] is True
        assert payload["total_degree"] == 5

    @pytest.mark.parametrize("flag", ["--report", "--json", "--svg"])
    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_output_exits_2(self, d5_file, tmp_path, capsys, flag, where):
        path = str(tmp_path / "missing" / "out" if where == "missing directory"
                   else tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["build", d5_file, flag, path])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")


class TestFailingInput:
    """build and roundtrip print each violation as "{code}: {message}" on
    stdout, nothing on stderr, write no files and exit 1."""

    CASES = [
        (P1_MUTATED,
         "P1: set 2 {1/8 7/8} is not a degree-5 rotation set\n"
         "P2-linked: sets 1 and 2 cross (neither lies in one gap of the other)\n"),
        (BAD_P4,
         "P4: rotating sets 2 and 4 are separated by no rotation-number-zero set\n"),
    ]

    @pytest.mark.parametrize("text, expected", CASES)
    def test_build(self, tmp_path, capsys, text, expected):
        outputs = [tmp_path / name for name in ("r.txt", "r.json", "t.svg")]
        args = ["build", write(tmp_path, "bad.txt", text)]
        for flag, path in zip(("--report", "--json", "--svg"), outputs):
            args += [flag, str(path)]
        assert main(args) == 1
        assert capsys.readouterr() == (expected, "")
        assert not any(path.exists() for path in outputs)

    @pytest.mark.parametrize("text, expected", CASES)
    def test_roundtrip(self, tmp_path, capsys, text, expected):
        assert main(["roundtrip", write(tmp_path, "bad.txt", text)]) == 1
        assert capsys.readouterr() == (expected, "")


class TestLibraryError:
    """A ``PortraitsError`` from inside the pipeline reaches ``main``, which
    prints it on stderr and exits 1; build writes no file."""

    # the command line imports each stage when it runs, from its own module
    @pytest.mark.parametrize("command, module, stage", [
        ("build", "report", "analyze"),
        ("roundtrip", "recovery", "recover_portrait"),
    ], ids=["build-analyze", "roundtrip-recover_portrait"])
    def test_error_line_and_exit_1(self, d5_file, tmp_path, capsys, monkeypatch,
                                   command, module, stage):
        def fail(*args):
            raise InvariantViolationError("gap count at v1 differs from degree")

        monkeypatch.setattr(f"portraits.{module}.{stage}", fail)
        outputs = [tmp_path / name for name in ("r.txt", "r.json", "t.svg")]
        args = [command, d5_file]
        if command == "build":
            for flag, path in zip(("--report", "--json", "--svg"), outputs):
                args += [flag, str(path)]
        assert main(args) == 1
        assert capsys.readouterr() == (
            "", "error: gap count at v1 differs from degree\n")
        assert not any(path.exists() for path in outputs)


class TestReportFailLines:
    """No valid portrait fails expansion or the round trip, so the report's
    lines for those are read off analyses edited to fail."""

    def analysis(self):
        return analyze(parse_portrait(DEGREE5))

    def test_expanding_fail_names_the_edge(self):
        an = self.analysis()._replace(expanding=False, expanding_witness=("v1", "w1"))
        assert "\nexpanding: FAIL at edge ('v1', 'w1')\n" in render_report(an)

    def test_round_trip_fail_prints_the_recovered_portrait(self):
        other = parse_portrait("degree 2\nset 0\nset 1/3 2/3\n")
        an = self.analysis()._replace(recovered=other, round_trip_ok=False)
        assert render_report(an).endswith(
            "\nround trip: FAIL\nrecovered portrait:\n"
            "  degree 2\n  set 0/1\n  set 1/3 2/3\n")


class TestRoundtrip:
    def test_output_is_normalized_input(self, d5_file, capsys):
        assert main(["roundtrip", d5_file]) == 0
        out = capsys.readouterr().out
        assert out == "degree 5\nset 0/1 3/4\nset 1/8 5/8\nset 1/4\nset 1/2\n"

    def test_unnormalized_input(self, tmp_path, capsys):
        path = write(tmp_path, "u.txt", "degree 5\nset 6/8 0\nset 5/8 1/8\nset 2/8\nset 1/2\n")
        assert main(["roundtrip", path]) == 0
        out = capsys.readouterr().out
        assert out == "degree 5\nset 0/1 3/4\nset 1/8 5/8\nset 1/4\nset 1/2\n"


class TestEnumerate:
    def test_rotation_sets(self, capsys):
        assert main(["enumerate", "--degree", "2", "--max-period", "2"]) == 0
        out = capsys.readouterr().out
        assert "n=2 m=1 deployment=2 angles 1/3 2/3" in out

    def test_oversized_request_is_an_error(self, capsys):
        assert main(["enumerate", "--degree", "10", "--max-period", "10"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_max_cardinality_with_portraits_is_a_usage_error(self, capsys):
        # --max-cardinality bounds rotation sets only; with --portraits it
        # would be ignored, so the combination is refused
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--degree", "2", "--max-period", "3",
                  "--portraits", "--max-cardinality", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "not allowed with" in err

    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_nonpositive_max_cardinality_is_a_usage_error(self, capsys, bound):
        assert main(["enumerate", "--degree", "2", "--max-period", "2",
                     "--max-cardinality", bound]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: max_cardinality must be >= 1, got {bound}\n"

    @pytest.mark.parametrize("argv, flag, value", [
        (["--degree", "３", "--max-period", "1_0"], "--degree", "３"),
        (["--degree", "2", "--max-period", "1_0"], "--max-period", "1_0"),
        (["--degree", "٢", "--max-period", "1", "--portraits"], "--degree", "٢"),
        (["--degree", "3", "--max-period", "٣"], "--max-period", "٣"),
        (["--degree", "2", "--max-period", "2", "--max-cardinality", "２"],
         "--max-cardinality", "２"),
        (["--degree", "2", "--max-period", " 2"], "--max-period", " 2"),
    ], ids=["fullwidth-degree", "underscore-period", "arabic-indic-degree",
            "arabic-indic-period", "fullwidth-cardinality", "spaced-period"])
    def test_non_ascii_decimal_flag_is_a_usage_error(self, capsys, argv, flag, value):
        # the flags read integers as the portrait file does: ASCII digits
        # and an optional sign, not everything int() takes
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ")
        assert captured.err.endswith(
            f"error: argument {flag}: invalid int value: {value!r}\n")

    def test_signed_flags_are_read(self, capsys):
        assert main(["enumerate", "--degree", "+2", "--max-period", "+2"]) == 0
        assert capsys.readouterr().out.endswith("# total: 2 rotation sets\n")

    @pytest.mark.parametrize("listing", [[], ["--portraits"]],
                             ids=["rotation-sets", "portraits"])
    def test_zero_max_period_is_named(self, capsys, listing):
        assert main(["enumerate", "--degree", "2", "--max-period", "0",
                     *listing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: max_period must be >= 1, got 0\n"

    @pytest.mark.parametrize("degree, max_period, digest", [
        (3, 4, "9ea78cf69cfdb5331a72044d93e19501238e5b413bc523ae9227d068e732d21b"),
        (4, 3, "85d0a24e4c41507d9c0c425a2022f6087eb2a6c50cb18d8abdc0326a93164554"),
        (5, 2, "c7fbc90f4e8214568f855dd759ef0d4a9094b1ba929a85eb947c6bf6feaebc2e"),
    ])
    def test_rotation_set_listing_is_pinned(self, capsys, degree, max_period, digest):
        # the listing's bytes, its order included, as the Fraction-sorted
        # enumeration printed them before the sort moved to integers
        assert main(["enumerate", "--degree", str(degree),
                     "--max-period", str(max_period)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("degree, max_period, digest", [
        (3, 4, "54169a1890c963690034a4ed6b4aa6f7f971ffae85a935a22d02972ed87d24dd"),
        (4, 3, "a0288cd96c12e602fc442bc622e4027bf940bbe81e42893974c5293e91f761ef"),
        (5, 2, "807d238eaa7cb4953fefd97377ec8d8c5c1b716d42625c0d50e03d169338c8ef"),
    ])
    def test_portrait_listing_is_pinned(self, capsys, degree, max_period, digest):
        # the listing's bytes, its order included, as enumeration printed
        # them before it ordered families by set rank
        assert main(["enumerate", "--degree", str(degree),
                     "--max-period", str(max_period), "--portraits"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_portraits_reparse(self, capsys):
        assert main(["enumerate", "--degree", "2", "--max-period", "3",
                     "--portraits"]) == 0
        out = capsys.readouterr().out
        assert "# total: 4 portraits" in out
        # the listing itself is valid portrait syntax
        from portraits import parse_portrait, validate_portrait
        blocks = [b for b in out.split("# portrait")[1:]]
        for block in blocks:
            body = "\n".join(line for line in block.splitlines()[1:]
                             if line and not line.startswith("#"))
            assert validate_portrait(parse_portrait(body)).ok


def _modules_loaded_by(code):
    """Names in sys.modules after running code in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        check=True)
    return set(done.stdout.split())


def test_cli_import_leaves_out_heavy_stdlib_modules():
    # against a bare interpreter, so that modules site preloads do not count
    bare = _modules_loaded_by("pass")
    cli = _modules_loaded_by("import portraits.cli")
    assert "portraits.cli" in cli
    heavy = {"dataclasses", "inspect", "ast", "dis", "pathlib"}
    assert heavy & (cli - bare) == set()
