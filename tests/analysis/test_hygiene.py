"""The banned-name rule on print(): library code never writes to stdout."""


class TestPrintCall:
    def test_fires_on_print(self, run_fixture):
        [violation] = run_fixture(
            "print_call_violation.py",
            "src/repro/apps/report.py",
            "banned-name",
        )
        assert violation.rule == "banned-name"
        assert violation.path == "src/repro/apps/report.py"
        assert violation.line == 5

    def test_silent_on_returns_and_explicit_streams(self, run_fixture):
        assert (
            run_fixture(
                "print_call_clean.py",
                "src/repro/apps/report.py",
                "banned-name",
            )
            == []
        )
