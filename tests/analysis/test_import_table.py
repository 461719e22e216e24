"""The one import table, module identity and name qualifier on FileContext.

Every rule that reads imports — ``banned-name``, ``layering`` and the
project index — reads ``FileContext.imports`` / ``names``; these cases
are the forms the rules depend on.
"""

import ast

import pytest

from repro.analysis import analyze_source
from repro.analysis.core import build_context

PLAIN = "src/repro/store/accessor.py"
PACKAGE = "src/repro/store/__init__.py"


@pytest.mark.parametrize(
    "source, path, expected",
    [
        ("import a.b as c\n", PLAIN, {"c": "a.b"}),
        # A plain ``import a.b`` binds only ``a``.
        ("import a.b\n", PLAIN, {"a": "a"}),
        ("import datetime as dt, time\n", PLAIN, {"dt": "datetime", "time": "time"}),
        ("from x import y as z\n", PLAIN, {"z": "x.y"}),
        ("from repro import obs\n", PLAIN, {"obs": "repro.obs"}),
        # Relative imports resolve from the file's package: a package's
        # ``__init__`` is its own package, a plain module is in its parent.
        ("from . import x\n", PACKAGE, {"x": "repro.store.x"}),
        ("from . import x\n", PLAIN, {"x": "repro.store.x"}),
        ("from .schema import XML_TABLE\n", PLAIN,
         {"XML_TABLE": "repro.store.schema.XML_TABLE"}),
        ("from ..store import schema\n", "src/repro/query/__init__.py",
         {"schema": "repro.store.schema"}),
        ("from ..store import schema\n", "src/repro/query/engine.py",
         {"schema": "repro.store.schema"}),
        ("from . import obs\n", "src/repro/netmark.py", {"obs": "repro.obs"}),
        # Outside the repro package a relative import binds nothing here.
        ("from . import helpers\n", "tests/store/test_x.py", {}),
        # The module-granted layer: the accessor may import the schema
        # module by name (see the layering assertions below).
        ("from repro.store import schema\n", PLAIN,
         {"schema": "repro.store.schema"}),
        # A later binding of the same name wins, in walk order.
        ("import time\nfrom time import time\n", PLAIN, {"time": "time.time"}),
    ],
)
def test_the_import_table(source, path, expected):
    ctx = build_context(source, path)
    assert {name: imp.qualified for name, imp in ctx.names.items()} == expected


def test_every_binding_keeps_its_statement():
    ctx = build_context(
        "from repro.store import schema, XmlStore\nimport time\n", PLAIN
    )
    assert [
        (imp.name, imp.module, imp.symbol, imp.node.lineno)
        for imp in ctx.imports
    ] == [
        ("schema", "repro.store", "schema", 1),
        ("XmlStore", "repro.store", "XmlStore", 1),
        ("time", "time", None, 2),
    ]


def test_layering_reads_the_module_grant_from_the_table():
    def layering(source):
        return [
            violation.message
            for violation in analyze_source(source, PLAIN)
            if violation.rule == "layering"
        ]

    assert layering("from repro.store import schema\n") == []
    [message] = layering("from repro.store import XmlStore\n")
    assert "store.accessor may not import repro.store " in message


@pytest.mark.parametrize(
    "path, module, unit",
    [
        ("src/repro/store/accessor.py", "store.accessor", "store"),
        ("src/repro/obs/__init__.py", "obs", "obs"),
        ("src/repro/netmark.py", "netmark", "netmark"),
        ("src/repro/__init__.py", "", "__root__"),
        ("src/repro/query/plan/ops.py", "query.plan.ops", "query"),
        # The last ``repro`` directory counts.
        ("home/repro/src/repro/sgml/parser.py", "sgml.parser", "sgml"),
        ("tests/store/test_x.py", None, None),
    ],
)
def test_one_module_identity(path, module, unit):
    ctx = build_context("", path)
    assert (ctx.module, ctx.unit) == (module, unit)


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import datetime as dt\ndt.datetime.now\n", "datetime.datetime.now"),
        ("from time import perf_counter as clock\nclock\n", "time.perf_counter"),
        ("print\n", "print"),  # an unbound bare name is itself
        ("rng.random\n", None),  # an attribute of an unbound name
        ("f().x\n", None),  # not a Name/Attribute chain
    ],
)
def test_the_name_qualifier(source, expected):
    ctx = build_context(source, PLAIN)
    expr = ctx.tree.body[-1].value
    assert isinstance(expr, ast.expr)
    assert ctx.qualify(expr) == expected
