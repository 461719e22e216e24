"""The ``python -m repro.analysis`` command line front end."""

import io
import json
from pathlib import Path

import pytest

from repro.analysis.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path):
        module = tmp_path / "ok.py"
        module.write_text("x = 1\n")
        code, output = run_cli(str(module))
        assert code == 0
        assert "0 violation(s)" in output

    def test_violations_exit_one_with_location(self, tmp_path):
        module = tmp_path / "bad.py"
        module.write_text("print('x')\n")
        code, output = run_cli(str(module))
        assert code == 1
        assert "bad.py:1:0 [banned-name]" in output

    def test_json_format(self, tmp_path):
        module = tmp_path / "bad.py"
        module.write_text("print('x')\n")
        code, output = run_cli(str(module), "--format", "json")
        payload = json.loads(output)
        assert code == 1 and payload["ok"] is False
        [violation] = payload["violations"]
        assert violation["rule"] == "banned-name"
        assert violation["line"] == 1

    def test_list_rules(self):
        # Every id a run can report: per-file, whole-program and the
        # pragma check itself.
        code, output = run_cli("--list-rules")
        assert code == 0
        for rule_id in (
            "layering",
            "broad-except",
            "rowid-mint",
            "private-mutation",
            "banned-name",
            "bad-pragma",
            "exception-flow",
            "shared-state",
        ):
            assert rule_id in output

    def test_nonexistent_path_is_usage_error(self, tmp_path):
        code, output = run_cli(str(tmp_path / "no-such-dir"))
        assert code == 2
        assert "no such path" in output

    def test_baseline_options_are_usage_errors(self, tmp_path, capsys):
        # The pragma is the one escape hatch: the three options that
        # parked findings in a file are gone, not ignored.
        module = tmp_path / "ok.py"
        module.write_text("x = 1\n")
        for option in (
            ["--baseline", str(tmp_path / "parked.json")],
            ["--no-baseline"],
            ["--write-baseline"],
        ):
            with pytest.raises(SystemExit) as usage:
                run_cli(str(module), *option)
            assert usage.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_repo_invocation_matches_ci(self):
        """The exact invocation CI runs, from wherever pytest started."""
        code, output = run_cli(str(REPO_ROOT / "src"), "--format", "json")
        payload = json.loads(output)
        assert code == 0 and payload["ok"], payload["violations"]
        assert payload["guarded_state"]

    def test_json_output_carries_the_guarded_inventory(self, tmp_path):
        module = tmp_path / "state.py"
        module.write_text(
            "# repro: guarded-by(gil) swapped whole before traffic\n"
            "REGISTRY = {}\n"
        )
        code, output = run_cli(str(module), "--format", "json")
        payload = json.loads(output)
        assert code == 0
        [entry] = payload["guarded_state"]
        assert entry["lock"] == "gil"
        assert entry["line"] == 1
        assert "swapped whole" in entry["rationale"]
