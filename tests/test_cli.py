"""Spec parsing, subcommand output, exit codes, and JSON stability."""

import contextlib
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
from lclab.cli import MAX_DEGREES, CliError, emit_spec, main, parse_spec
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
    code, _, err = run_cli(
        capsys, "koszul", MAXX2_SPEC, "--var", "X1", "--kind", "mult", "-i", "-1", "-n", "0"
    )
    assert code == 2
    assert err.strip() == "lclab: cohomological index must be nonnegative, got -1"


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
