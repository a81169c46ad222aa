"""Every subcommand's --json output validates against docs/schema.json."""

import json
import pathlib

import jsonschema
import pytest

from lclab.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
CASES = ROOT / "cases"
MIXED_SPEC = str(CASES / "mixed-pinch.json")
MAXX2_SPEC = str(CASES / "maximal-x2.json")
FREE_SPEC = str(CASES / "free-line.json")

SCHEMA = json.loads((ROOT / "docs" / "schema.json").read_text(encoding="utf-8"))

COMMANDS = {
    "pattern-all": ("pattern", MIXED_SPEC, "--all"),
    "pattern-negative-index": ("pattern", MAXX2_SPEC, "-i", "-1"),
    "dim": ("dim", MAXX2_SPEC, "-i", "2", "-n", "-3..1"),
    "dim-strand": ("dim", MIXED_SPEC, "-i", "1", "-n", "-1..1", "--strand", "-1,0"),
    "dim-negative-index": ("dim", MAXX2_SPEC, "-i", "-1", "-n", "-3"),
    "hilbert": ("hilbert", MAXX2_SPEC, "-i", "2"),
    "hilbert-infinite": ("hilbert", FREE_SPEC, "-i", "1"),
    "hilbert-negative-index": ("hilbert", MAXX2_SPEC, "-i", "-3"),
    "support": ("support", MIXED_SPEC, "-i", "1", "-n", "-1..1"),
    "support-negative-index": ("support", MIXED_SPEC, "-i", "-1", "-n", "0"),
    "koszul-mult": ("koszul", MAXX2_SPEC, "-i", "2", "-n", "-3..1", "--var", "X2", "--kind", "mult"),
    "koszul-derham": ("koszul", FREE_SPEC, "-i", "1", "-n", "-3..1", "--var", "X2", "--kind", "derham"),
    "koszul-negative-index": ("koszul", MAXX2_SPEC, "-i", "-1", "-n", "-3..1", "--var", "X1", "--kind", "mult"),
    "verify-spec": ("verify", MIXED_SPEC),
    "verify-corpus": ("verify", "--corpus"),
    "verify-random": ("verify", "--random", "5", "--seed", "1"),
}


def test_schema_is_a_valid_draft_7_schema():
    jsonschema.Draft7Validator.check_schema(SCHEMA)


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_json_output_validates_against_the_schema(capsys, argv):
    code = main([*argv, "--json"])
    assert code == 0
    jsonschema.Draft7Validator(SCHEMA).validate(json.loads(capsys.readouterr().out))
