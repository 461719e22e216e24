"""Lock annotations: the guarded-by rule."""


class TestGuardedByRule:
    def test_broken_annotations_are_findings(self, run_fixture):
        violations = run_fixture(
            "guarded_by_violation.py",
            "src/repro/obs/example.py",
            "guarded-by",
        )
        assert [v.line for v in violations] == [3, 6, 9, 12]
        assert "malformed" in violations[0].message
        assert "lock name" in violations[1].message
        assert "rationale" in violations[2].message

    def test_well_formed_annotations_pass(self, run_fixture):
        assert (
            run_fixture(
                "guarded_by_clean.py",
                "src/repro/obs/example.py",
                "guarded-by",
            )
            == []
        )
