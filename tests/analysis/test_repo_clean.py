"""Meta-test: the analyzer passes over this repository's own source.

This is the enforcement point — CI runs the CLI, but even a bare
``pytest`` run refuses to go green if someone introduces an upward
import, a naked ``raise ValueError``, a minted ROWID, a wall-clock
read, unguarded shared state or a leaked resource.  Nothing is parked:
a finding is fixed or carries a pragma with its reason.
"""

from pathlib import Path

from repro.analysis import analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The shared-state audit must stay inventoried: at least the metrics
#: registry, the enable flag, the converter registry and the SQL keyword
#: table carry guarded-by declarations today.
MIN_GUARDED_ANNOTATIONS = 4

#: Findings silenced by a pragma.  Pinned exactly, so a suppression
#: cannot quietly come back: a new one raises it on purpose, a fix lowers
#: it.
PRAGMA_SUPPRESSED = 9


class TestRepositoryInvariants:
    def _report(self):
        return analyze_paths([REPO_ROOT / "src"])

    def test_source_tree_is_clean(self):
        report = self._report()
        rendered = "\n".join(v.render() for v in report.violations)
        assert report.violations == [], f"new violations:\n{rendered}"

    def test_every_pragma_carries_a_reason(self):
        # analyze_paths already reports reason-less pragmas through the
        # bad-pragma rule; this asserts the whole tree was scanned.
        report = self._report()
        assert report.files_checked > 90

    def test_pragma_suppressed_count_is_pinned(self):
        suppressed = self._report().pragma_suppressed
        rendered = "\n".join(v.render() for v in suppressed)
        assert len(suppressed) == PRAGMA_SUPPRESSED, rendered

    def test_shared_state_inventory_is_annotated(self):
        report = self._report()
        assert len(report.guarded_inventory) >= MIN_GUARDED_ANNOTATIONS
        for path, annotation in report.guarded_inventory:
            assert annotation.lock.strip(), path
            assert annotation.rationale.strip(), path
