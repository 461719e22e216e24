"""The layering rule: the repro.* import DAG and the module contracts."""

import re
from pathlib import Path

from repro.analysis import analyze_paths, analyze_source
from repro.analysis.config import DEFAULT_LAYERS, DEFAULT_MODULE_LAYERS
from repro.analysis.rules.layering import LayeringRule

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestLayering:
    def test_fires_on_upward_import(self, run_fixture):
        violations = run_fixture(
            "layering_violation.py", "src/repro/ordbms/peek.py", "layering"
        )
        [violation] = violations
        assert violation.rule == "layering"
        assert violation.path == "src/repro/ordbms/peek.py"
        assert violation.line == 3
        assert "ordbms may not import repro.store" in violation.message

    def test_silent_on_downward_imports(self, run_fixture):
        assert (
            run_fixture(
                "layering_clean.py", "src/repro/store/ok.py", "layering"
            )
            == []
        )

    def test_federation_restricted_to_server_and_apps(self):
        federation = "from repro.federation.router import Router\n"
        converters = "from repro.converters import convert\n"
        for source, unit, expected in (
            (federation, "server", 0),
            (federation, "apps", 0),
            (federation, "query", 1),
            (federation, "store", 1),
            # Experiment support sits beside ``apps`` (see the leaf
            # property below).
            (federation, "costmodel", 0),
            (federation, "workloads", 0),
            # A store is written by its own node and reaches the others
            # as shipped WAL records: the cluster never converts.
            (converters, "store", 0),
            (converters, "cluster", 1),
        ):
            violations = analyze_source(
                source, f"src/repro/{unit}/mod.py"
            )
            layering = [v for v in violations if v.rule == "layering"]
            assert len(layering) == expected, (unit, source)

    def test_root_facade_import_restricted(self):
        source = "from repro import Netmark\n"
        [violation] = analyze_source(source, "src/repro/ordbms/mod.py")
        assert violation.rule == "layering"
        assert "__root__" in violation.message

    def test_apps_may_import_the_facade(self):
        source = "from repro import Netmark\n"
        assert analyze_source(source, "src/repro/apps/mod.py") == []

    def test_relative_imports_ignored(self):
        source = "from .table import Table\n"
        assert analyze_source(source, "src/repro/ordbms/mod.py") == []

    def test_unknown_unit_must_be_mapped(self):
        violations = analyze_source(
            "x = 1\n", "src/repro/newtier/mod.py"
        )
        [violation] = violations
        assert violation.rule == "layering"
        assert "layer map" in violation.message

    def test_files_outside_repro_are_exempt(self):
        source = "from repro.federation.router import Router\n"
        assert analyze_source(source, "tests/helpers/mod.py") == []


class TestExperimentSupportLeaves:
    """``workloads`` and ``costmodel`` may see ``federation`` because no
    runtime unit sees *them*: a leaf cannot close a cycle."""

    LEAVES = frozenset({"workloads", "costmodel"})

    def test_no_other_unit_is_granted_a_leaf(self):
        for unit, grants in DEFAULT_LAYERS.items():
            if unit not in self.LEAVES:
                assert not grants & self.LEAVES, unit

    def test_no_module_reaches_one_by_pragma(self):
        report = analyze_paths(
            [REPO_ROOT / "src"], rules=[LayeringRule()], project_rules=[]
        )
        assert report.violations == []
        reaching = {
            violation.path.rsplit("/repro/", 1)[1]
            for violation in report.pragma_suppressed
            for leaf in self.LEAVES
            if re.search(rf"may not import repro\.{leaf}\b", violation.message)
        }
        assert reaching == set()


class TestObsLayering:
    """obs is a base layer: importable from everywhere, imports nothing.

    The observability layer only works if every tier can report into it
    — so, like ``errors``, it is a *universal unit* in the DAG.  The
    price of that position: obs itself may import nothing above the
    error vocabulary, or the DAG would silently invert.
    """

    def layering(self, source: str, virtual_path: str):
        return [
            violation
            for violation in analyze_source(source, virtual_path)
            if violation.rule == "layering"
        ]

    def test_every_unit_may_import_obs(self):
        source = "from repro import obs\nfrom repro.obs import Tracer\n"
        for unit in (
            "sgml", "ordbms", "store", "query", "xslt", "server",
            "federation", "resilience", "converters", "analysis",
        ):
            assert self.layering(source, f"src/repro/{unit}/mod.py") == [], unit

    def test_module_contracted_files_may_import_obs(self):
        # wal, recovery, plan and the accessor carry module-granular
        # contracts; the universal grant must reach them too.
        source = "from repro import obs\n"
        for path in (
            "src/repro/ordbms/wal.py",
            "src/repro/ordbms/recovery.py",
            "src/repro/query/plan.py",
            "src/repro/store/accessor.py",
        ):
            assert self.layering(source, path) == [], path

    def test_obs_may_import_only_errors(self):
        source = "from repro.errors import ObservabilityError\n"
        assert self.layering(source, "src/repro/obs/metrics.py") == []

    def test_obs_may_not_import_upward(self):
        for source in (
            "from repro.ordbms import Database\n",
            "from repro.query.engine import QueryEngine\n",
            "from repro.resilience.clock import LogicalClock\n",
            "from repro.server.http import NetmarkHttpApi\n",
        ):
            violations = self.layering(source, "src/repro/obs/trace.py")
            assert violations, source
            assert "obs may not import" in violations[0].message


class TestModuleLayering:
    """Module-granular contracts for the read-path hot spots."""

    def check(self, source: str, virtual_path: str):
        return [
            violation
            for violation in analyze_source(source, virtual_path)
            if violation.rule == "layering"
        ]

    def test_contracts_narrow_their_unit(self):
        # What makes one rule enough: a contracted module's grants lie
        # inside its unit's, so an import the unit DAG forbids is also
        # outside the contract, and checking the contract alone misses
        # nothing the unit check would catch.
        for module, grants in DEFAULT_MODULE_LAYERS.items():
            unit = module.split(".")[0]
            for grant in grants:
                assert grant.split(".")[0] in DEFAULT_LAYERS[unit] | {unit}, (
                    module, grant,
                )

    def test_accessor_may_not_import_composition(self):
        source = "from repro.store.compose import compose_node\n"
        [violation] = self.check(source, "src/repro/store/accessor.py")
        assert (
            "store.accessor may not import repro.store.compose"
            in violation.message
        )

    def test_accessor_may_not_import_store_facade(self):
        # The whole-unit grant is absent on purpose: only the schema
        # module is granted, so the facade import stays a violation.
        source = "from repro.store import XmlStore\n"
        [violation] = self.check(source, "src/repro/store/accessor.py")
        assert "repro.store" in violation.message

    def test_accessor_granted_imports_are_clean(self):
        source = (
            "from repro.ordbms import Database, RowId\n"
            "from repro.ordbms.textindex import TextIndex\n"
            "from repro.sgml.nodetypes import NodeType\n"
            "from repro.store.schema import XML_TABLE\n"
            "from repro.errors import StoreError\n"
        )
        assert self.check(source, "src/repro/store/accessor.py") == []

    def test_plan_may_not_import_the_engine(self):
        # compile/execute is a one-way street: the engine compiles
        # queries into plans, never the other way around.
        source = "from repro.query.engine import QueryEngine\n"
        [violation] = self.check(source, "src/repro/query/plan.py")
        assert (
            "query.plan may not import repro.query.engine"
            in violation.message
        )

    def test_plan_may_not_import_the_parser(self):
        source = "from repro.query.language import parse_query\n"
        [violation] = self.check(source, "src/repro/query/plan.py")
        assert "query.language" in violation.message

    def test_plan_whole_unit_store_grant_covers_submodules(self):
        source = (
            "from repro.store.xmlstore import XmlStore\n"
            "from repro.store.accessor import NodeAccessor\n"
            "from repro.store.compose import compose_section\n"
            "from repro.query.ast import ContentSpec\n"
            "from repro.query.results import SectionMatch\n"
        )
        assert self.check(source, "src/repro/query/plan.py") == []

    def test_unlisted_modules_are_exempt(self):
        # The engine sits above the plan algebra; only the modules named
        # in DEFAULT_MODULE_LAYERS carry a module-granular contract.
        source = "from repro.query.language import parse_query\n"
        assert self.check(source, "src/repro/query/engine.py") == []
