"""Meta-test: the analyzer passes over this repository's own source.

This is the enforcement point — CI runs the CLI, but even a bare
``pytest`` run refuses to go green if someone introduces an upward
import, a naked ``raise ValueError``, a minted ROWID, a wall-clock
read, unguarded shared state or a leaked resource.  Nothing is parked:
a finding is fixed or carries a pragma with its reason.
"""

from pathlib import Path

from repro.analysis import analyze_paths
from repro.analysis.callgraph import build_index
from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.core import build_context

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The shared-state audit must stay inventoried: at least the metrics
#: registry, the enable flag, the converter registry and the SQL keyword
#: table carry guarded-by declarations today.
MIN_GUARDED_ANNOTATIONS = 4


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

    def test_shared_state_inventory_is_annotated(self):
        report = self._report()
        assert len(report.guarded_inventory) >= MIN_GUARDED_ANNOTATIONS
        for path, annotation in report.guarded_inventory:
            assert annotation.lock.strip(), path
            assert annotation.rationale.strip(), path

    def test_cross_path_roots_name_real_functions(self):
        # The ingest/read roots in the config are dotted qualnames; a
        # rename that orphans one silently blinds cross-path-state.
        contexts = []
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            ctx = build_context(path.read_text(), path)
            if ctx is not None:
                contexts.append(ctx)
        index = build_index(contexts, DEFAULT_CONFIG.mutator_methods)
        roots = DEFAULT_CONFIG.ingest_roots | DEFAULT_CONFIG.read_roots
        missing = sorted(
            root for root in roots if root not in index.functions
        )
        assert missing == [], f"config roots not in the index: {missing}"
