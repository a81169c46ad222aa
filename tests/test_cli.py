"""Spec parsing, subcommand output, exit codes, and JSON stability."""

import contextlib
import hashlib
import io
import json
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lclab
from lclab.cli import MAX_DEGREES, MAX_RANDOM, CliError, emit_spec, main, parse_spec
from lclab.monocech import normalize
from lclab.verify import VerificationReport

CASES = pathlib.Path(__file__).resolve().parent.parent / "cases"
MIXED_SPEC = str(CASES / "mixed-pinch.json")
MAXX2_SPEC = str(CASES / "maximal-x2.json")
FREE_SPEC = str(CASES / "free-line.json")


def write_spec(tmp_path, text, name="spec.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# parse_spec
# ---------------------------------------------------------------------------


def test_parse_spec_reads_the_worked_example():
    ideal = parse_spec(MIXED_SPEC)
    assert ideal.context.deg0 == ("Y1", "Y2")
    assert ideal.context.deg1 == ("X1",)
    assert ideal.generators == ((1, 1, 0), (1, 0, 1))


def test_parse_spec_adds_duplicate_exponents(tmp_path):
    path = write_spec(
        tmp_path,
        '{"deg0_vars": [], "deg1_vars": ["X1", "X2"], "generators": ["X1 * X1^2 * X2"]}',
    )
    assert parse_spec(path).generators == ((3, 1),)


def test_parse_spec_reports_undeclared_variable_position(tmp_path):
    path = write_spec(
        tmp_path,
        '{"deg0_vars": ["Y1"],\n "deg1_vars": ["X1"],\n "generators": ["Y1*Z9"]}',
    )
    with pytest.raises(CliError) as err:
        parse_spec(path)
    assert err.value.code == 2
    # the generator literal opens at line 3 column 17; Z9 is 3 chars in
    assert f"{path}:3:21: undeclared variable 'Z9'" in err.value.message


def test_parse_spec_locates_the_generator_inside_its_list(tmp_path):
    # an equal string earlier in the file (here the key itself) is not it
    path = write_spec(
        tmp_path,
        '{"deg0_vars": [], "deg1_vars": ["X1"], "generators": ["X1", "generators"]}',
    )
    with pytest.raises(CliError) as err:
        parse_spec(path)
    assert err.value.message == f"{path}:1:62: undeclared variable 'generators'"
    # a literal written with escapes has no plain column: the fallback
    # names the generator and the column in its text
    path = write_spec(
        tmp_path,
        '{"deg0_vars": [], "deg1_vars": ["X1"], "generators": ["X1", "X1*\\u005a9"]}',
    )
    with pytest.raises(CliError) as err:
        parse_spec(path)
    assert err.value.message == f"{path}: generator 2, column 4: undeclared variable 'Z9'"


def test_parse_spec_reports_grammar_errors(tmp_path):
    for gen, fragment in [
        ('"X1^0"', "positive exponent"),
        ('"X1*"', "dangling"),
        ('"X1 X1"', "expected '*'"),
        ('"^2"', "variable name"),
        ('""', "empty monomial"),
    ]:
        path = write_spec(
            tmp_path,
            f'{{"deg0_vars": [], "deg1_vars": ["X1"], "generators": [{gen}]}}',
        )
        with pytest.raises(CliError) as err:
            parse_spec(path)
        assert err.value.code == 2
        assert fragment in err.value.message


def test_parse_spec_structural_errors(tmp_path):
    bad = [
        ('{"deg0_vars": [], "deg1_vars": [], "generators": ["X1"]}', "nonempty"),
        ('{"deg0_vars": [], "deg1_vars": ["X1"], "generators": []}', "nonempty"),
        ('{"deg1_vars": ["X1"], "generators": ["X1"]}', "deg0_vars"),
        ('{"deg0_vars": [], "deg1_vars": ["X1"]}', "generators"),
        ('{"deg0_vars": ["X1"], "deg1_vars": ["X1"], "generators": ["X1"]}', ""),
        ('{"deg0_vars": [], "deg1_vars": ["2bad"], "generators": ["X1"]}', "invalid variable name"),
        ("[1, 2]", "object"),
        ('{"deg0_vars": [], "deg1_vars": "X1", "generators": ["X1"]}', "list of strings"),
    ]
    for text, fragment in bad:
        path = write_spec(tmp_path, text)
        with pytest.raises(CliError) as err:
            parse_spec(path)
        assert err.value.code == 2
        assert fragment in err.value.message


def test_parse_spec_bad_json_has_position(tmp_path):
    path = write_spec(tmp_path, '{"deg0_vars": [,]}')
    with pytest.raises(CliError) as err:
        parse_spec(path)
    assert err.value.code == 2
    assert f"{path}:1:16" in err.value.message


def test_parse_spec_missing_file():
    with pytest.raises(CliError) as err:
        parse_spec("/nonexistent/spec.json")
    assert err.value.code == 2


def test_parse_spec_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(CliError) as err:
        parse_spec(str(path))
    assert err.value.code == 2
    assert err.value.message.startswith(f"{path}: ")


def test_main_on_a_file_that_is_not_utf8_prints_no_traceback(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    code, _, err = run_cli(capsys, "pattern", str(path), "--all")
    assert code == 2
    assert str(path) in err and "Traceback" not in err


# an interpreter with no int() digit limit reads the long number, and the
# spec then fails on its unknown field
_LONG_NUMBER_ERROR = "too many digits" if hasattr(sys, "get_int_max_str_digits") else "unknown field"


@pytest.mark.parametrize("argv", [["pattern", "--all"], ["verify"]], ids=["pattern", "verify"])
@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[" * 200_000 + "]" * 200_000, "nested too deeply"),
        (
            '{"deg0_vars": [], "deg1_vars": ["X1"], "generators": ["X1"], "n": ' + "1" * 5000 + "}",
            _LONG_NUMBER_ERROR,
        ),
    ],
    ids=["deep", "long-number"],
)
def test_unreadable_json_spec_exits_two_with_no_traceback(tmp_path, capsys, argv, text, fragment):
    # json.loads gives up with RecursionError on deep nesting, and with a
    # plain ValueError on an integer past int()'s digit limit, neither of
    # them a JSONDecodeError
    path = tmp_path / "spec.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"lclab: {path}: ") and fragment in err and "Traceback" not in err


def test_parse_spec_rejects_unknown_fields(tmp_path, capsys):
    path = write_spec(
        tmp_path,
        '{"deg0_vars": [], "deg1_vars": ["X1"], "generators": ["X1"], '
        '"generator": ["X1"], "comment": "typo"}',
    )
    with pytest.raises(CliError) as err:
        parse_spec(path)
    assert err.value.code == 2
    assert "'comment', 'generator'" in err.value.message
    code, out, stderr = run_cli(capsys, "pattern", path, "--all")
    assert code == 2 and out == ""
    assert "unknown field" in stderr and "'generator'" in stderr
    for case in CASES.glob("*.json"):
        parse_spec(str(case))


def test_import_pulls_in_no_thread_pool():
    src = str(pathlib.Path(lclab.__file__).resolve().parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import lclab.cli; "
        "print('concurrent.futures' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_cold_start_loads_no_dataclasses_or_inspect(monkeypatch):
    bench = pathlib.Path(__file__).resolve().parent.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))
    import run  # bench/run.py, for the environment its commands run in

    for args, module in ((("-c", "import lclab"), "lclab"), (("-m", "lclab", "--help"), "lclab.cli")):
        result = subprocess.run(
            [sys.executable, "-X", "importtime", *args], env=run.child_env(), capture_output=True, text=True
        )
        # each line of -X importtime ends in the name of a module imported
        lines = result.stderr.splitlines()
        imported = {line.rsplit("|", 1)[-1].strip() for line in lines if line.startswith("import time:")}
        assert module in imported, args
        assert not imported & {"dataclasses", "inspect"}, args


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_a_closed_stdout_exits_141_with_a_clean_stderr(monkeypatch, json_flag):
    bench = pathlib.Path(__file__).resolve().parent.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))
    import run  # bench/run.py, whose environment leaves stdout buffered

    # about 180 KB of text, well past a 64 KB pipe buffer
    argv = [sys.executable, "-m", "lclab", "dim", MAXX2_SPEC, "-i", "2", "-n", "-9999..0", *json_flag]
    proc = subprocess.Popen(argv, env=run.child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.read(1)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 141
    assert b"Traceback" not in err and b"Exception ignored" not in err


def test_verify_spec_with_many_raw_generators_returns(monkeypatch, tmp_path):
    bench = pathlib.Path(__file__).resolve().parent.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))
    import run  # bench/run.py, for the environment its commands run in

    # five variables, but 22 raw generators: the oracle box would take
    # minutes, so the suite skips it
    generators = [f"X1^{k}*X2" for k in range(1, 21)] + ["X3*X4", "X5"]
    spec = {"deg0_vars": [], "deg1_vars": [f"X{v}" for v in range(1, 6)], "generators": generators}
    path = write_spec(tmp_path, json.dumps(spec))
    argv = [sys.executable, "-m", "lclab", "verify", path, "--json"]
    result = subprocess.run(argv, env=run.child_env(), capture_output=True, text=True, timeout=30)
    assert result.returncode == 0, result.stderr
    checks = json.loads(result.stdout)["report"]["checks"]
    [oracle] = [c for c in checks if c["name"] == "oracle-box"]
    assert oracle["status"] == "skip"
    assert oracle["witness"] == {"reason": "window sweep capped at 10 raw generators"}


def test_module_entry_freezes_the_heap_and_runs_atexit_hooks(monkeypatch, capsys):
    bench = pathlib.Path(__file__).resolve().parent.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))
    import run  # bench/run.py, for the environment its commands run in

    argv = ["pattern", MIXED_SPEC, "--all", "--json"]
    probe = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: sys.stderr.write(f'frozen {gc.get_freeze_count()}'))\n"
        f"sys.argv = ['lclab', *{argv!r}]\n"
        "runpy.run_module('lclab', run_name='__main__')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=run.child_env(), capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.startswith("frozen ") and int(result.stderr.split()[1]) > 0
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and result.stdout == out


def test_round_trip_is_identity(tmp_path):
    for name in ("mixed-pinch", "maximal-x2", "free-line", "y-plane", "cross-tails"):
        first = parse_spec(str(CASES / f"{name}.json"))
        path = write_spec(tmp_path, emit_spec(first), f"{name}-echo.json")
        second = parse_spec(path)
        assert first == second
        assert normalize(first) == normalize(second)


# ---------------------------------------------------------------------------
# subcommands (driven in-process through main)
# ---------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pattern_all_matches_worked_example(capsys):
    code, out, _ = run_cli(capsys, "pattern", MIXED_SPEC, "--all")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ideal: (Y1*Y2, Y1*X1) in K[Y1,Y2][X1]"
    assert lines[1] == "i=0: none"
    assert lines[2].startswith("i=1: n >= 0")
    assert "pattern {Y1} rank 1" in lines[2]
    assert lines[3].startswith("i=2: n <= -1")


def test_pattern_single_index_free_module(capsys):
    code, out, _ = run_cli(capsys, "pattern", FREE_SPEC, "-i", "1")
    assert code == 0
    assert "i=1: all n" in out


def test_pattern_json_shape(capsys):
    code, out, _ = run_cli(capsys, "pattern", MAXX2_SPEC, "--all", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["schema_version"] == 1
    assert blob["command"] == "pattern"
    assert blob["ideal"]["generators"] == ["X1", "X2"]
    tops = {row["i"]: row for row in blob["patterns"]}
    assert tops[2]["shape"] == "NegTailOnly"
    assert tops[2]["contributors"] == [{"k": 2, "pattern": ["X1", "X2"], "rank": 1}]
    assert tops[0]["shape"] == "Empty"


def test_dim_matches_counting_formula(capsys):
    code, out, _ = run_cli(capsys, "dim", MAXX2_SPEC, "-i", "2", "-n", "-3")
    assert code == 0
    assert "i=2 n=-3: 2" in out


def test_dim_range_and_json(capsys):
    code, out, _ = run_cli(capsys, "dim", MAXX2_SPEC, "-i", "2", "--degree=-4..-2", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["dims"] == [
        {"dim": 3, "n": -4},
        {"dim": 2, "n": -3},
        {"dim": 1, "n": -2},
    ]


def test_dim_infinite_renders_as_string(capsys):
    code, out, _ = run_cli(capsys, "dim", FREE_SPEC, "-i", "1", "-n", "0", "--json")
    assert code == 0
    assert json.loads(out)["dims"] == [{"dim": "infinite", "n": 0}]


def test_dim_requires_strand_with_deg0_vars(capsys):
    code, _, err = run_cli(capsys, "dim", MIXED_SPEC, "-i", "1", "-n", "0")
    assert code == 2
    assert "--strand" in err


def test_dim_strand_values(capsys):
    code, out, _ = run_cli(capsys, "dim", MIXED_SPEC, "-i", "1", "-n", "0..2", "--strand", "-1,0")
    assert code == 0
    assert out.count(": 1") == 3
    code, _, err = run_cli(capsys, "dim", MIXED_SPEC, "-i", "1", "-n", "0", "--strand", "-1")
    assert code == 2
    assert "2 entries" in err
    code, _, err = run_cli(capsys, "dim", MAXX2_SPEC, "-i", "2", "-n", "0", "--strand", "1")
    assert code == 2


def test_negative_index_reads_zero(capsys):
    code, out, _ = run_cli(capsys, "dim", MAXX2_SPEC, "-i", "-1", "-n", "-3")
    assert code == 0
    assert "i=-1 n=-3: 0" in out
    code, out, _ = run_cli(capsys, "pattern", MAXX2_SPEC, "-i", "-1")
    assert code == 0
    assert "i=-1: none" in out
    code, out, _ = run_cli(capsys, "support", MIXED_SPEC, "-i", "-1", "-n", "0")
    assert code == 0
    assert "zero piece" in out
    code, out, _ = run_cli(capsys, "hilbert", MAXX2_SPEC, "-i", "-1")
    assert code == 0
    assert "f: 0  for n <= -2" in out and "g: 0  for n >= 0" in out
    for kind in ("mult", "derham"):
        argv = ("koszul", MAXX2_SPEC, "-i", "-1", "-n", "-2..2", "--var", "X1", "--kind", kind)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("n=")] == [
            f"n={n}: H1=0 H0=0" for n in range(-2, 3)
        ]


def test_koszul_checks_degrees_before_building_the_module(capsys, monkeypatch):
    def no_module(*args):
        raise AssertionError("LocalCohomologyModule built for a bad degree range")

    monkeypatch.setattr("lclab.cli.LocalCohomologyModule", no_module)
    for degrees, message in (
        ("5..1", "empty degree range"),
        (f"0..{MAX_DEGREES}", f"at most {MAX_DEGREES}"),
    ):
        argv = ("koszul", MAXX2_SPEC, "-i", "1", "-n", degrees, "--var", "X1", "--kind", "mult")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err


def test_bad_degree_flags(capsys):
    code, _, err = run_cli(capsys, "dim", MAXX2_SPEC, "-i", "2", "-n", "5..1")
    assert code == 2 and "empty degree range" in err
    code, _, err = run_cli(capsys, "dim", MAXX2_SPEC, "-i", "2", "-n", "x")
    assert code == 2 and "bad degree" in err


def test_huge_degree_ranges_exit_two(capsys):
    for command in (("dim",), ("support",), ("koszul", "--var", "X1", "--kind", "mult")):
        argv = (command[0], MAXX2_SPEC, "-i", "2", "-n", "0..1000000000000", *command[1:])
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "spans 1000000000001 degrees" in err and "Traceback" not in err
    code, _, _ = run_cli(capsys, "dim", MAXX2_SPEC, "-i", "2", "-n", f"1..{MAX_DEGREES}")
    assert code == 0
    code, _, err = run_cli(capsys, "dim", MAXX2_SPEC, "-i", "2", "-n", f"0..{MAX_DEGREES}")
    assert code == 2 and f"at most {MAX_DEGREES}" in err


def test_huge_random_batteries_exit_two(capsys):
    for count in (str(MAX_RANDOM + 1), "99999999999999999999"):
        code, out, err = run_cli(capsys, "verify", "--random", count)
        assert code == 2 and out == ""
        assert f"at most {MAX_RANDOM} allowed" in err and "Traceback" not in err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this interpreter has no int() digit limit"
)
def test_numbers_beyond_int_conversion_exit_two(capsys, tmp_path):
    digits = "1" + "0" * 5000  # longer than int() converts from a string
    code, _, err = run_cli(capsys, "dim", MAXX2_SPEC, "-i", "2", "-n", digits)
    assert code == 2 and "too many digits" in err
    yplane = str(CASES / "y-plane.json")
    code, _, err = run_cli(capsys, "dim", yplane, "-i", "1", "-n", "0", "--strand", digits)
    assert code == 2 and "too many digits" in err
    spec = {"deg0_vars": [], "deg1_vars": ["X1"], "generators": [f"X1^{digits}"]}
    path = write_spec(tmp_path, json.dumps(spec))
    code, _, err = run_cli(capsys, "pattern", path, "--all")
    assert code == 2 and "exponent has too many digits" in err


def test_hilbert_matches_worked_example(capsys):
    code, out, _ = run_cli(capsys, "hilbert", MAXX2_SPEC, "-i", "2")
    assert code == 0
    assert "f: -n - 1  for n <= -2" in out
    assert "g: 0  for n >= 0" in out


def test_hilbert_json_coefficients(capsys):
    code, out, _ = run_cli(capsys, "hilbert", MAXX2_SPEC, "-i", "2", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["f"] == {
        "binomial_coeffs": [0, -1],
        "bound": -2,
        "render": "-n - 1",
        "side": "le",
    }
    assert blob["g"]["binomial_coeffs"] == []


def test_hilbert_infinite_is_a_report_not_an_error(capsys):
    code, out, _ = run_cli(capsys, "hilbert", FREE_SPEC, "-i", "1", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["infinite"] is True
    assert "pattern {X1}" in blob["reason"]


def test_hilbert_rejects_deg0_vars(capsys):
    code, _, err = run_cli(capsys, "hilbert", MIXED_SPEC, "-i", "1")
    assert code == 2
    assert "d = 0" in err


def test_support_matches_worked_example(capsys):
    code, out, _ = run_cli(capsys, "support", MIXED_SPEC, "-i", "1", "-n", "0")
    assert code == 0
    assert "primes (Y1); dim 1" in out


def test_support_zero_piece_and_json(capsys):
    code, out, _ = run_cli(capsys, "support", MIXED_SPEC, "-i", "1", "--degree=-1..0", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["supports"] == [
        {"min_primes": [], "n": -1, "support_dim": -1},
        {"min_primes": [["Y1"]], "n": 0, "support_dim": 1},
    ]


def test_koszul_mult_tail(capsys):
    code, out, _ = run_cli(
        capsys, "koszul", MAXX2_SPEC, "--var", "X2", "--kind", "mult", "-i", "2", "-n", "-2..0"
    )
    assert code == 0
    assert "n=-2: H1=1 H0=0" in out
    assert "n=-1: H1=1 H0=0" in out
    assert "n=0: H1=0 H0=0" in out


def test_koszul_derham_json(capsys):
    code, out, _ = run_cli(
        capsys, "koszul", FREE_SPEC, "--var", "X2", "--kind", "derham",
        "-i", "1", "--degree=-3..-1", "--json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["kind"] == "derham"
    assert blob["koszul"] == [
        {"h0": 0, "h1": 1, "n": -3},
        {"h0": 0, "h1": 1, "n": -2},
        {"h0": 0, "h1": 0, "n": -1},
    ]


def test_koszul_flag_errors(capsys):
    code, _, err = run_cli(
        capsys, "koszul", MIXED_SPEC, "--var", "Y1", "--kind", "derham", "-i", "1", "-n", "0"
    )
    assert code == 2
    assert "degree-1" in err
    code, _, err = run_cli(
        capsys, "koszul", MIXED_SPEC, "--var", "Q", "--kind", "mult", "-i", "1", "-n", "0"
    )
    assert code == 2
    assert err.strip() == "lclab: unknown variable 'Q'"


# ---------------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------------


def test_verify_spec_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", MIXED_SPEC)
    assert code == 0
    assert "[PASS] oracle-box" in out
    assert "failed: 0" in out


def test_verify_random_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--random", "3", "--seed", "9")
    assert code == 0
    assert "failed: 0" in out


def test_verify_requires_exactly_one_target(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", MIXED_SPEC, "--corpus")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--random", "0")
    assert code == 2


def test_verify_seed_needs_random(capsys):
    for target in (["--corpus"], [MIXED_SPEC]):
        code, out, err = run_cli(capsys, "verify", *target, "--seed", "5")
        assert code == 2 and not out
        assert "--seed only applies to --random N" in err
    # --random alone still means seed 0
    assert run_cli(capsys, "verify", "--random", "3", "--json") == run_cli(
        capsys, "verify", "--random", "3", "--seed", "0", "--json"
    )


def test_verify_failure_exits_one(capsys, monkeypatch):
    broken = VerificationReport()
    broken.add("probe", "a law that fails", "fail", {"n": 1})
    monkeypatch.setattr("lclab.cli.theorem_suite", lambda ideal: broken)
    code, out, _ = run_cli(capsys, "verify", MIXED_SPEC)
    assert code == 1
    assert "[FAIL] probe" in out
    assert '"n": 1' in out


def test_verify_json_report(capsys):
    code, out, _ = run_cli(capsys, "verify", MIXED_SPEC, "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["report"]["passed"] is True
    assert blob["ideal"]["generators"] == ["Y1*Y2", "Y1*X1"]
    names = [check["name"] for check in blob["report"]["checks"]]
    assert "five-shapes" in names and "oracle-box" in names


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_json_output_is_byte_stable(capsys):
    outputs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "pattern", MIXED_SPEC, "--all", "--json")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


# SHA-256 of stdout captured at commit 586f0b4, before the oracle loop, the
# normal form and the Euler check were made faster; speed-ups keep every byte
VERIFY_DIGESTS = {
    ("verify", "--random", "50", "--seed", "3", "--json"):
        "c0fd73dcd640d5ce14877df05219df9f4d7f34c36334a39bbe6a5089ff9f9a38",
    ("verify", "--corpus", "--json"):
        "203f626ba142891e516fd9ebc741558b6a570bc68f709d2b56e5c5109069869b",
    # four 5-variable ideals with 4-5 generators, the widest oracle boxes;
    # captured at commit c67bbd6, before the witnesses were decided by bitsets
    ("verify", "--random", "50", "--seed", "368688", "--json"):
        "6cb25379cf20a13a5c702d63b825c48ec243b7ab28a8163b878cb829d7934d3c",
}


@pytest.mark.parametrize(
    "argv",
    sorted(VERIFY_DIGESTS),
    ids=["corpus", "random-50-seed-3", "random-50-seed-368688"],
)
def test_verify_json_is_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_DIGESTS[argv]


# the text report prints every check's statement; captured at commit f9c72f7,
# before the statements were gathered into one table
VERIFY_TEXT_DIGEST = "8b77223071c15ce1097fb6325149d94d1712a2795e8372df3297762c12e226b3"


def test_verify_text_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify", "--corpus")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_TEXT_DIGEST


def test_negative_short_flag_values_are_absorbed(capsys):
    # "-n -5..5" with a separate token must parse as a range, not a flag
    code, out, _ = run_cli(capsys, "dim", MAXX2_SPEC, "-i", "2", "-n", "-3..-2")
    assert code == 0
    assert "n=-3: 2" in out and "n=-2: 1" in out


# ---------------------------------------------------------------------------
# fuzzing main(argv)
# ---------------------------------------------------------------------------


@st.composite
def spec_texts(draw):
    """Small spec texts (at most 4 variables, 4 generators); about one in
    three is broken on purpose."""
    deg1 = draw(st.lists(st.sampled_from(["X1", "X2", "X3"]), min_size=1, max_size=3, unique=True))
    deg0 = draw(st.lists(st.sampled_from(["Y1", "Y2"]), max_size=4 - len(deg1), unique=True))
    factor = st.tuples(st.sampled_from(deg0 + deg1), st.sampled_from(["", "", "^2", "^3"]))
    monomial = st.lists(factor, min_size=1, max_size=3).map(
        lambda fs: " * ".join(n + e for n, e in fs)
    )
    generators = draw(st.lists(monomial, min_size=1, max_size=4))
    doc = {"deg0_vars": deg0, "deg1_vars": deg1, "generators": generators}
    damages = ["drop", "extra", "retype", "name", "monomial", "truncate"]
    damage = draw(st.sampled_from(["none"] * 12 + damages))
    if damage == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif damage == "extra":
        doc["deg2_vars"] = []
    elif damage == "retype":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(st.sampled_from([None, 3, "X1", [1], []]))
    elif damage == "name":
        doc["deg0_vars"] = doc["deg0_vars"] + [draw(st.sampled_from(["X1", "1Y", ""]))]
    elif damage == "monomial":
        bad = ["", "Z9", "X1^0", "X1^", "X1 *", "1", "X1**X1"]
        doc["generators"][0] = draw(st.sampled_from(bad))
    text = json.dumps(doc)
    if damage == "truncate":
        text = text[: draw(st.integers(min_value=0, max_value=len(text) - 1))]
    return text, deg0, deg1


DEGREE_VALUE = st.integers(min_value=-6, max_value=6).map(str)
DEGREE_RANGE = st.tuples(
    st.integers(min_value=-6, max_value=6), st.integers(min_value=0, max_value=6)
).map(lambda t: f"{t[0]}..{t[0] + t[1]}")
DEGREE_JUNK = st.sampled_from(["x", "1..", "3..2", "0..1000000000000"])
DEGREES = st.one_of(DEGREE_VALUE, DEGREE_RANGE, DEGREE_RANGE, DEGREE_JUNK)


@st.composite
def argvs(draw, spec, deg0, deg1):
    command = draw(st.sampled_from(["pattern", "dim", "hilbert", "support", "koszul", "verify"]))
    argv = [command, spec]
    index = ["-i", str(draw(st.integers(min_value=-2, max_value=6)))]
    if command == "pattern":
        argv += draw(st.sampled_from([["--all"], index]))
    elif command in ("dim", "hilbert", "support", "koszul"):
        argv += index
    if command in ("dim", "support", "koszul"):
        argv += ["-n", draw(DEGREES)]
    if command == "dim" and (deg0 or draw(st.integers(min_value=0, max_value=4)) == 0):
        size = draw(st.sampled_from([len(deg0)] * 4 + [0, 1, 3]))
        entry = st.integers(min_value=-3, max_value=3)
        strand = draw(st.lists(entry, min_size=size, max_size=size))
        argv += ["--strand", ",".join(map(str, strand)) or "x"]
    if command == "koszul":
        argv += ["--var", draw(st.sampled_from(deg0 + deg1 + ["Q"]))]
        argv += ["--kind", draw(st.sampled_from(["mult", "derham"]))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_main_exits_cleanly_on_fuzzed_specs_and_flags(data):
    with tempfile.TemporaryDirectory() as tmp:
        spec = pathlib.Path(tmp) / "spec.json"
        text, deg0, deg1 = data.draw(spec_texts(), label="spec")
        spec.write_text(text)
        argv = data.draw(argvs(str(spec), deg0, deg1), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
