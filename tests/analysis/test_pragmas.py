"""Pragma parsing and suppression semantics."""

from repro.analysis import analyze_source
from repro.analysis.comments import scan_comments


class TestPragmaParsing:
    def test_extracts_rule_reason_and_line(self):
        source = "x = 1  # lint: allow-banned-name(demo reason)\n"
        comments = scan_comments(source)
        [pragma] = comments.pragmas
        assert (pragma.rule, pragma.reason, pragma.line) == (
            "banned-name",
            "demo reason",
            1,
        )
        assert comments.malformed_pragma_lines == []

    def test_pragma_in_string_literal_is_ignored(self):
        source = 'x = "# lint: allow-banned-name(nope)"\n'
        comments = scan_comments(source)
        assert comments.pragmas == []
        assert comments.malformed_pragma_lines == []

    def test_malformed_pragma_detected(self):
        source = "x = 1  # lint: allow-banned-name\n"
        comments = scan_comments(source)
        assert comments.pragmas == []
        assert comments.malformed_pragma_lines == [1]


class TestPragmaSuppression:
    def test_pragma_suppresses_same_line_same_rule(self):
        source = "print('x')  # lint: allow-banned-name(CLI demo)\n"
        assert analyze_source(source, "src/repro/apps/x.py") == []

    def test_pragma_for_other_rule_does_not_suppress(self):
        source = "print('x')  # lint: allow-broad-except(wrong rule)\n"
        violations = analyze_source(source, "src/repro/apps/x.py")
        assert [v.rule for v in violations] == ["banned-name"]

    def test_reasonless_pragma_does_not_suppress_and_is_reported(self):
        source = "print('x')  # lint: allow-banned-name()\n"
        violations = analyze_source(source, "src/repro/apps/x.py")
        assert sorted(v.rule for v in violations) == [
            "bad-pragma",
            "banned-name",
        ]

    def test_malformed_pragma_is_reported(self):
        source = "x = 1  # lint: allow-banned-name\n"
        violations = analyze_source(source, "src/repro/apps/x.py")
        assert [v.rule for v in violations] == ["bad-pragma"]
