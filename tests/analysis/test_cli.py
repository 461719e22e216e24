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
        assert "bad.py:1:0 [print-call]" in output

    def test_json_format(self, tmp_path):
        module = tmp_path / "bad.py"
        module.write_text("print('x')\n")
        code, output = run_cli(str(module), "--format", "json")
        payload = json.loads(output)
        assert code == 1 and payload["ok"] is False
        [violation] = payload["violations"]
        assert violation["rule"] == "print-call"
        assert violation["line"] == 1

    def test_list_rules(self):
        code, output = run_cli("--list-rules")
        assert code == 0
        for rule_id in (
            "layering",
            "broad-except",
            "rowid-mint",
            "private-mutation",
            "wallclock",
            "unseeded-random",
            "print-call",
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
        code, output = run_cli(str(REPO_ROOT / "src"))
        assert code == 0, output

    def test_dataflow_report_runs_only_that_family(self, tmp_path):
        # print() is outside the dataflow family, so the focused report
        # must not flag it; the unguarded class dict must still fire.
        module = tmp_path / "mixed.py"
        module.write_text(
            "print('x')\n"
            "\n"
            "\n"
            "class Table:\n"
            "    rows = {}\n"
        )
        code, output = run_cli(str(module), "--report", "dataflow")
        assert code == 1
        assert "shared-class-state" in output
        assert "print-call" not in output

    def test_dataflow_report_matches_ci(self):
        """The dataflow gate CI runs: zero findings in src."""
        code, output = run_cli(
            str(REPO_ROOT / "src"), "--report", "dataflow"
        )
        assert code == 0, output

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
