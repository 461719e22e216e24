"""The banned-name rule on clocks and randomness: determinism."""

from repro.analysis import analyze_source


def findings(run_fixture, name, about):
    """Line numbers of ``banned-name`` findings whose message says ``about``."""
    return [
        violation.line
        for violation in run_fixture(
            name, "src/repro/store/clock.py", "banned-name"
        )
        if about in violation.message
    ]


class TestWallClock:
    def test_fires_on_every_clock_read(self, run_fixture):
        assert findings(
            run_fixture, "determinism_violation.py", "wall clock"
        ) == [7, 11, 15, 19, 27]

    def test_silent_on_timestamp_parameters(self, run_fixture):
        assert findings(
            run_fixture, "determinism_clean.py", "wall clock"
        ) == []


class TestUnseededRandom:
    def test_fires_on_global_generator(self, run_fixture):
        assert findings(
            run_fixture, "determinism_violation.py", "random"
        ) == [23]

    def test_silent_on_seeded_random(self, run_fixture):
        assert findings(run_fixture, "determinism_clean.py", "random") == []

    def test_from_import_of_global_function_fires(self):
        source = "from random import choice\n"
        [violation] = analyze_source(source, "src/repro/store/x.py")
        assert violation.rule == "banned-name"

    def test_from_import_of_random_class_is_fine(self):
        source = "from random import Random\nrng = Random(7)\n"
        assert analyze_source(source, "src/repro/store/x.py") == []
