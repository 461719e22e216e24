"""Resource lifecycle: every resource is owned where it is opened."""


class TestResourceLifecycle:
    def test_leaky_paths_fire_at_the_open_line(self, run_fixture):
        violations = run_fixture(
            "resource_lifecycle_violation.py",
            "src/repro/store/example.py",
            "resource-lifecycle",
        )
        assert [v.line for v in violations] == [5, 13, 17, 22, 31, 39]
        by_line = {v.line: v.message for v in violations}
        # A close on only one branch is no owner for the other path.
        assert "open" in by_line[5] and "close" in by_line[5]
        # An inline construction has no name anything could release.
        assert "inline" in by_line[13]
        # A snapshot pin that nothing releases.
        assert "open_snapshot" in by_line[17] and "release" in by_line[17]
        # The three leaks a path analysis without implicit exception
        # edges misses: a name rebound before its finally, a close
        # after a call that can raise, and a reopen in a loop body.
        for line in (22, 31, 39):
            assert "'fh'" in by_line[line] and "close" in by_line[line]

    def test_with_finally_transfer_and_generators_pass(self, run_fixture):
        assert (
            run_fixture(
                "resource_lifecycle_clean.py",
                "src/repro/store/example.py",
                "resource-lifecycle",
            )
            == []
        )
