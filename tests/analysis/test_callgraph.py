"""The project index: symbols, resolution, call targets, mutation sites."""

import ast

from repro.analysis.callgraph import (
    CONSTANT,
    CONTAINER,
    LOCK,
    build_index,
)
from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.core import build_context


def index_of(sources):
    contexts = [
        build_context(source, path)
        for path, source in sorted(sources.items())
    ]
    return build_index(contexts, DEFAULT_CONFIG.mutator_methods)


def callees(index, caller):
    """What ``caller``'s call sites resolve to, as exception-flow reads it."""
    return {
        index.call_targets[node]
        for node in ast.walk(index.functions[caller].node)
        if node in index.call_targets
    }


class TestSymbolTable:
    def test_variable_kinds(self):
        index = index_of(
            {
                "src/repro/pkga/state.py": (
                    "import threading\n"
                    "\n"
                    "CACHE = {}\n"
                    "_LOCK = threading.Lock()\n"
                    "LIMIT = 8\n"
                ),
            }
        )
        assert index.variables["pkga.state.CACHE"].kind == CONTAINER
        assert index.variables["pkga.state._LOCK"].kind == LOCK
        assert index.variables["pkga.state.LIMIT"].kind == CONSTANT

    def test_functions_classes_and_methods_get_qualnames(self):
        index = index_of(
            {
                "src/repro/pkga/mod.py": (
                    "def free():\n"
                    "    return 1\n"
                    "\n"
                    "\n"
                    "class Thing:\n"
                    "    def ping(self):\n"
                    "        return 2\n"
                ),
            }
        )
        assert "pkga.mod.free" in index.functions
        assert "pkga.mod.Thing" in index.classes
        assert index.functions["pkga.mod.Thing.ping"].cls == "pkga.mod.Thing"
        assert index.method("pkga.mod.Thing", "ping") == "pkga.mod.Thing.ping"


class TestResolution:
    SOURCES = {
        "src/repro/pkgb/impl.py": (
            "class Widget:\n"
            "    def ping(self):\n"
            "        return 1\n"
        ),
        "src/repro/pkgb/__init__.py": (
            "from repro.pkgb.impl import Widget\n"
        ),
        "src/repro/pkgb/use.py": (
            "from repro.pkgb import Widget\n"
            "\n"
            "\n"
            "def make():\n"
            "    return Widget()\n"
            "\n"
            "\n"
            "def poke(widget: Widget):\n"
            "    return widget.ping()\n"
        ),
    }

    def test_reexport_chain_resolves_to_the_defining_module(self):
        index = index_of(self.SOURCES)
        assert index.resolve("pkgb.use", "Widget") == (
            "def", "pkgb.impl.Widget",
        )

    def test_constructor_call_makes_an_edge(self):
        index = index_of(self.SOURCES)
        assert "pkgb.impl.Widget" in callees(index, "pkgb.use.make")

    def test_annotated_parameter_resolves_method_calls(self):
        index = index_of(self.SOURCES)
        assert "pkgb.impl.Widget.ping" in callees(index, "pkgb.use.poke")

    def test_self_attribute_type_resolves_method_calls(self):
        index = index_of(
            {
                **self.SOURCES,
                "src/repro/pkgb/svc.py": (
                    "from repro.pkgb import Widget\n"
                    "\n"
                    "\n"
                    "class Service:\n"
                    "    def __init__(self):\n"
                    "        self.widget = Widget()\n"
                    "\n"
                    "    def run(self):\n"
                    "        return self.widget.ping()\n"
                ),
            }
        )
        assert index.attr_type("pkgb.svc.Service", "widget") == (
            "pkgb.impl.Widget"
        )
        assert "pkgb.impl.Widget.ping" in callees(index, "pkgb.svc.Service.run")


class TestMutations:
    def test_mutator_call_global_rebind_and_subscript(self):
        index = index_of(
            {
                "src/repro/pkga/state.py": (
                    "CACHE = {}\n"
                    "COUNT = 0\n"
                    "\n"
                    "\n"
                    "def remember(key):\n"
                    "    CACHE.setdefault(key, [])\n"
                    "\n"
                    "\n"
                    "def bump():\n"
                    "    global COUNT\n"
                    "    COUNT = COUNT + 1\n"
                    "\n"
                    "\n"
                    "def stash(key, value):\n"
                    "    CACHE[key] = value\n"
                ),
            }
        )
        hows = {
            (site.var, site.how, site.function)
            for site in index.mutations
        }
        assert hows == {
            ("pkga.state.CACHE", "setdefault()", "pkga.state.remember"),
            ("pkga.state.COUNT", "global-rebind", "pkga.state.bump"),
            ("pkga.state.CACHE", "subscript", "pkga.state.stash"),
        }

    def test_import_time_mutation_has_no_function(self):
        index = index_of(
            {
                "src/repro/pkga/boot.py": (
                    "TABLE = {}\n"
                    "TABLE.update(a=1)\n"
                ),
            }
        )
        [site] = index.mutations
        assert site.var == "pkga.boot.TABLE"
        assert site.function is None
