"""Concurrency-readiness: shared-state and shared-class-state."""

from repro.analysis import analyze_project_sources
from repro.analysis.rules.sharedstate import SharedModuleStateRule

STATE = "src/repro/pkga/state.py"
USER = "src/repro/pkga/user.py"


def run_shared(sources):
    return [
        v
        for v in analyze_project_sources(
            sources, project_rules=[SharedModuleStateRule()]
        )
        if v.rule == "shared-state"
    ]


class TestSharedClassState:
    def test_fires_on_mutable_class_attributes(self, run_fixture):
        violations = run_fixture(
            "shared_class_state_violation.py",
            "src/repro/server/sessions.py",
            "shared-class-state",
        )
        assert [v.line for v in violations] == [5, 12, 13]
        assert "shared by every instance" in violations[0].message

    def test_silent_on_instance_state_and_annotations(self, run_fixture):
        assert (
            run_fixture(
                "shared_class_state_clean.py",
                "src/repro/server/sessions.py",
                "shared-class-state",
            )
            == []
        )


class TestSharedModuleState:
    def test_unannotated_mutated_state_fires_at_the_binding(self):
        [violation] = run_shared(
            {
                STATE: "CACHE = {}\n",
                USER: (
                    "from repro.pkga import state\n"
                    "\n"
                    "\n"
                    "def remember(key, value):\n"
                    "    state.CACHE[key] = value\n"
                ),
            }
        )
        assert violation.path == STATE
        assert violation.line == 1
        assert "pkga.state.CACHE" in violation.message
        assert "user.py:5" in violation.message

    def test_guarded_by_annotation_suppresses(self):
        assert (
            run_shared(
                {
                    STATE: (
                        "# repro: guarded-by(gil) one dict store, "
                        "swapped whole before traffic\n"
                        "CACHE = {}\n"
                    ),
                    USER: (
                        "from repro.pkga import state\n"
                        "\n"
                        "\n"
                        "def remember(key, value):\n"
                        "    state.CACHE[key] = value\n"
                    ),
                }
            )
            == []
        )

    def test_unmutated_bindings_stay_silent(self):
        # Read-only tables are presumed import-time constants: the rule
        # keys off observed writes, not off type shape.
        assert (
            run_shared(
                {
                    STATE: "TABLE = {\"a\": 1}\n",
                    USER: (
                        "from repro.pkga import state\n"
                        "\n"
                        "\n"
                        "def lookup(key):\n"
                        "    return state.TABLE.get(key)\n"
                    ),
                }
            )
            == []
        )

    def test_locks_themselves_are_exempt(self):
        assert (
            run_shared(
                {
                    STATE: (
                        "import threading\n"
                        "\n"
                        "_READY = threading.Event()\n"
                    ),
                    USER: (
                        "from repro.pkga import state\n"
                        "\n"
                        "\n"
                        "def arm():\n"
                        "    state._READY.set()\n"
                    ),
                }
            )
            == []
        )
