"""Project-wide symbol table and call graph over ``repro.*`` sources.

:func:`build_index` turns the full set of parsed :class:`FileContext`\\ s
into a :class:`ProjectIndex`: per-module symbol tables (functions,
classes, module-level variables; imports are the context's own table)
keyed by dotted qualnames (``server.daemon.NetmarkDaemon.poll``), the
inventory of module-state mutation sites, and the call graph as
per-call-site resolution results for the exception-flow rule.

Resolution is deliberately static and conservative:

* ``repro``-internal imports only — the standard library is opaque.
* Calls resolve through names, import aliases, re-export chains
  (``obs.Tracer`` -> ``obs.trace.Tracer``), ``self``/``cls`` receivers,
  typed attributes (``self.store.lookup(...)`` via the owning class's
  attribute types), and constructor-typed locals.
* Anything else — duck-typed parameters, higher-order callbacks —
  resolves to nothing and contributes no edges.  Whole-program rules
  built on this index are therefore *may*-analyses over the resolved
  subgraph, not soundness proofs; the precision contract is documented
  per rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.analysis.core import FileContext, dotted_name, walk_scope

#: Constructors whose result is a plain mutable container.
CONTAINER_CALLS = frozenset(
    {"dict", "list", "set", "bytearray", "deque", "defaultdict",
     "Counter", "OrderedDict", "ChainMap"}
)
#: Constructors whose result is immutable — never a shared-state hazard.
_IMMUTABLE_CALLS = frozenset(
    {"frozenset", "tuple", "str", "bytes", "int", "float", "bool",
     "compile", "property", "namedtuple", "TypeVar"}
)
#: Constructors that produce a synchronization device.
_LOCK_CALLS = frozenset({"Lock", "RLock", "Condition", "Semaphore",
                         "BoundedSemaphore", "Event"})

#: Variable kinds (:attr:`VariableInfo.kind`).
CONTAINER = "container"
INSTANCE = "instance"
LOCK = "lock"
CONSTANT = "constant"
OTHER = "other"


@dataclass
class VariableInfo:
    """One module-level binding."""

    qualname: str
    name: str
    module: str
    line: int
    kind: str  # CONTAINER | INSTANCE | LOCK | CONSTANT | OTHER
    ctor: ast.expr | None = None  # the constructor called, for INSTANCE
    type: str | None = None  # resolved class qualname, for INSTANCE


@dataclass
class FunctionInfo:
    """One function or method."""

    qualname: str
    name: str
    module: str
    cls: str | None  # owning class qualname, None for free functions
    node: ast.FunctionDef | ast.AsyncFunctionDef


@dataclass
class ClassInfo:
    """One class: resolved bases, methods, and typed attributes."""

    qualname: str
    name: str
    module: str
    node: ast.ClassDef
    #: Resolved base qualnames, or bare names for foreign/builtin bases.
    bases: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)
    #: Attribute name -> class qualname (AnnAssign in the class body, or
    #: ``self.x = Ctor(...)`` in any method).
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class MutationSite:
    """One place a module-level variable is mutated or rebound."""

    var: str  # variable qualname
    function: str | None  # enclosing function qualname; None = import time
    path: str
    line: int
    how: str  # "global-rebind" | "subscript" | "augassign" | "<method>()"


@dataclass
class ModuleInfo:
    """One module's local symbol table."""

    id: str
    ctx: FileContext
    functions: dict[str, str] = field(default_factory=dict)
    classes: dict[str, str] = field(default_factory=dict)
    variables: dict[str, VariableInfo] = field(default_factory=dict)


@dataclass
class ProjectIndex:
    """The whole-program view the project rules run against."""

    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    variables: dict[str, VariableInfo] = field(default_factory=dict)
    #: resolved target per call site, for the exception-flow walk.
    call_targets: dict[ast.Call, str] = field(default_factory=dict)
    mutations: list[MutationSite] = field(default_factory=list)

    # -- symbol resolution --------------------------------------------------

    def resolve(
        self, module: str, name: str, _seen: set | None = None
    ) -> tuple[str, str] | None:
        """Resolve ``name`` as seen from ``module``.

        Returns ``("module", module_id)`` or ``("def", qualname)`` where
        the qualname keys :attr:`functions`, :attr:`classes` or
        :attr:`variables` — or ``None`` for foreign/unresolvable names.
        Re-export chains are followed with a cycle guard.
        """
        info = self.modules.get(module)
        if info is None:
            return None
        if name in info.functions:
            return ("def", info.functions[name])
        if name in info.classes:
            return ("def", info.classes[name])
        if name in info.variables:
            return ("def", info.variables[name].qualname)
        bound = info.ctx.names.get(name)
        if bound is None or not bound.qualified.startswith("repro."):
            return None
        if bound.symbol is None or bound.module == "repro":
            # A module binding; the package root is not indexed, so
            # ``from repro import obs`` names module ``obs`` too.
            return ("module", bound.qualified[len("repro."):])
        source = bound.module[len("repro."):]
        seen = _seen if _seen is not None else set()
        key = (source, bound.symbol)
        if key in seen:
            return None
        seen.add(key)
        resolved = self.resolve(source, bound.symbol, seen)
        if resolved is not None:
            return resolved
        # ``from repro.pkg import sub`` where sub is itself a module.
        submodule = f"{source}.{bound.symbol}"
        if submodule in self.modules:
            return ("module", submodule)
        return None

    def _mro(self, class_qualname: str) -> Iterator[ClassInfo]:
        """The class, then its resolved bases, breadth first."""
        seen: set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop(0)
            info = self.classes.get(current)
            if current in seen or info is None:
                continue
            seen.add(current)
            yield info
            stack.extend(info.bases)

    def method(self, class_qualname: str, name: str) -> str | None:
        """Look ``name`` up through the class and its resolved bases."""
        return next((info.methods[name] for info in self._mro(class_qualname)
                     if name in info.methods), None)

    def attr_type(self, class_qualname: str, attr: str) -> str | None:
        """The declared/inferred type of ``self.<attr>`` through the MRO."""
        return next((info.attr_types[attr]
                     for info in self._mro(class_qualname)
                     if attr in info.attr_types), None)

    def definition_of(self, module: str, expr: ast.expr) -> str | None:
        """The definition a Name/Attribute chain in ``module`` names,
        one module hop at a time (None for a module or a foreign name)."""
        target, rest = module, dotted_name(expr)
        while rest:
            head, _, rest = rest.partition(".")
            resolved = self.resolve(target, head)
            if resolved is None:
                return None
            kind, target = resolved
            if kind == "def":
                return None if rest else target
        return None

    def class_of(self, module: str, expr: ast.expr) -> str | None:
        """The class qualname a Name/Attribute chain in ``module`` names."""
        target = self.definition_of(module, expr)
        return target if target in self.classes else None


# -- pass 1: per-module symbol tables ---------------------------------------


def _classify_value(value: ast.expr | None) -> tuple[str, ast.expr | None]:
    """``(kind, constructor)`` for a module-level assignment's RHS."""
    if value is None:
        return OTHER, None
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return CONTAINER, None
    if isinstance(value, ast.Call):
        tail = (dotted_name(value.func) or "").rpartition(".")[2]
        if tail in CONTAINER_CALLS:
            return CONTAINER, value.func
        if tail in _LOCK_CALLS:
            return LOCK, value.func
        if tail in _IMMUTABLE_CALLS:
            return OTHER, value.func
        return INSTANCE, value.func
    if isinstance(value, ast.Constant):
        return CONSTANT, None
    return OTHER, None


def _assigned_names(stmt: ast.stmt) -> list[tuple[str, ast.expr | None]]:
    if isinstance(stmt, ast.Assign):
        return [
            (target.id, stmt.value)
            for target in stmt.targets
            if isinstance(target, ast.Name)
        ]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [(stmt.target.id, stmt.value)]
    return []


def _collect_module(index: ProjectIndex, ctx: FileContext,
                    module_id: str) -> None:
    info = ModuleInfo(id=module_id, ctx=ctx)
    index.modules[module_id] = info
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[stmt.name] = _add_function(
                index, module_id, None, stmt
            )
        elif isinstance(stmt, ast.ClassDef):
            _collect_class(index, info, stmt)
        else:
            for name, value in _assigned_names(stmt):
                if name in info.variables:
                    continue  # first binding wins
                kind, ctor = _classify_value(value)
                qualname = f"{module_id}.{name}"
                variable = VariableInfo(
                    qualname=qualname, name=name, module=module_id,
                    line=stmt.lineno, kind=kind, ctor=ctor,
                )
                info.variables[name] = variable
                index.variables[qualname] = variable


def _collect_class(index: ProjectIndex, info: ModuleInfo,
                   stmt: ast.ClassDef) -> None:
    qualname = f"{info.id}.{stmt.name}"
    info.classes[stmt.name] = qualname
    class_info = ClassInfo(
        qualname=qualname, name=stmt.name, module=info.id, node=stmt,
    )
    index.classes[qualname] = class_info
    for item in stmt.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            class_info.methods[item.name] = _add_function(
                index, info.id, qualname, item
            )


def _add_function(index: ProjectIndex, module: str, cls: str | None,
                  node: ast.FunctionDef | ast.AsyncFunctionDef) -> str:
    qualname = f"{cls or module}.{node.name}"
    index.functions[qualname] = FunctionInfo(
        qualname=qualname, name=node.name, module=module, cls=cls, node=node,
    )
    return qualname


# -- pass 2: cross-module resolution ----------------------------------------


def _resolve_annotation(index: ProjectIndex, module: str,
                        annotation: ast.expr | None) -> str | None:
    """A class qualname out of a simple annotation form, if any.

    Handles ``T``, ``mod.T``, ``"T"`` strings, ``Optional[T]``,
    ``T | None`` — list/dict element types are not tracked.
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.BinOp) and isinstance(
        annotation.op, ast.BitOr
    ):
        for side in (annotation.left, annotation.right):
            if not (isinstance(side, ast.Constant) and side.value is None):
                return _resolve_annotation(index, module, side)
        return None
    if isinstance(annotation, ast.Subscript):
        base = dotted_name(annotation.value)
        if base and base.rsplit(".", 1)[-1] == "Optional":
            return _resolve_annotation(index, module, annotation.slice)
        return None
    return index.class_of(module, annotation)


def _resolve_bases(index: ProjectIndex, class_info: ClassInfo) -> None:
    for base in class_info.node.bases:
        resolved = index.class_of(class_info.module, base)
        if resolved is not None:
            class_info.bases.append(resolved)
        else:
            dotted = dotted_name(base)
            if dotted is not None:
                class_info.bases.append(dotted.rsplit(".", 1)[-1])


def _typed_targets(index: ProjectIndex, module: str,
                   node: ast.AST) -> Iterator[tuple[ast.expr, str]]:
    """``(target, class qualname)`` for an assignment that declares its
    targets' class: by annotation, or by a constructor call as value."""
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
        resolved = _resolve_annotation(index, module, node.annotation)
    elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
        targets = node.targets
        resolved = index.class_of(module, node.value.func)
    else:
        return
    if resolved is not None:
        for target in targets:
            yield target, resolved


def _collect_attr_types(index: ProjectIndex, class_info: ClassInfo) -> None:
    module = class_info.module
    for item in class_info.node.body:
        for target, resolved in _typed_targets(index, module, item):
            if isinstance(item, ast.AnnAssign) and isinstance(target, ast.Name):
                class_info.attr_types[target.id] = resolved
    for node in ast.walk(class_info.node):
        for target, resolved in _typed_targets(index, module, node):
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                class_info.attr_types.setdefault(target.attr, resolved)


# -- pass 3: call targets and mutation sites --------------------------------


def _local_types(index: ProjectIndex, function: FunctionInfo) -> dict:
    """Flow-insensitive name -> class-qualname map for one function."""
    env: dict[str, str] = {}
    module = function.module
    node = function.node
    args = node.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        resolved = _resolve_annotation(index, module, arg.annotation)
        if resolved is not None:
            env[arg.arg] = resolved
    for stmt in ast.walk(node):
        for target, resolved in _typed_targets(index, module, stmt):
            if isinstance(target, ast.Name):
                env.setdefault(target.id, resolved)
    return env


def _receiver(index: ProjectIndex, module: str, cls: str | None,
              env: dict, expr: ast.expr) -> tuple[str, str] | None:
    """``("module", id)`` or ``("class", qualname)`` for a receiver."""
    if isinstance(expr, ast.Name):
        if cls is not None and expr.id in ("self", "cls"):
            return ("class", cls)
        if expr.id in env:
            return ("class", env[expr.id])
        return _named(index, index.resolve(module, expr.id))
    if isinstance(expr, ast.Attribute):
        inner = _receiver(index, module, cls, env, expr.value)
        if inner is None:
            return None
        inner_kind, inner_target = inner
        if inner_kind == "module":
            return _named(index, index.resolve(inner_target, expr.attr))
        attr_type = index.attr_type(inner_target, expr.attr)
        return None if attr_type is None else ("class", attr_type)
    return None


def _named(index: ProjectIndex, resolved: tuple[str, str] | None) -> tuple[str, str] | None:
    """The receiver a resolved name denotes: a module, a class, or a
    module variable of a known class."""
    if resolved is None:
        return None
    kind, target = resolved
    if kind == "module":
        return ("module", target)
    if target in index.classes:
        return ("class", target)
    variable = index.variables.get(target)
    if variable is not None and variable.type is not None:
        return ("class", variable.type)
    return None


def _as_callable(index: ProjectIndex, qualname: str | None) -> str | None:
    if qualname in index.functions:
        return qualname
    if qualname in index.classes:
        init = index.method(qualname, "__init__")
        return init if init is not None else qualname
    return None


def _call_target(index: ProjectIndex, module: str, cls: str | None,
                 env: dict, call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return _as_callable(index, index.definition_of(module, func))
    if not isinstance(func, ast.Attribute):
        return None
    receiver = _receiver(index, module, cls, env, func.value)
    if receiver is None:
        return None
    kind, target = receiver
    if kind == "class":
        return index.method(target, func.attr)
    resolved = index.resolve(target, func.attr)
    if resolved is None or resolved[0] != "def":
        return None
    return _as_callable(index, resolved[1])


def _mutation_receiver(index: ProjectIndex, module: str, cls: str | None,
                       expr: ast.expr) -> VariableInfo | None:
    """The module-level variable a mutation's receiver names, if any."""
    if isinstance(expr, ast.Name) and cls is not None and (
        expr.id in ("self", "cls")
    ):
        return None
    return index.variables.get(index.definition_of(module, expr))


def _scan_body(index: ProjectIndex, info: ModuleInfo, function: str | None,
               cls: str | None, env: dict, nodes: Iterator[ast.AST],
               mutators: frozenset[str]) -> None:
    """One scope's call targets and mutation sites (``function`` is
    None for a module's import-time code)."""
    declared_global: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Call):
            target = _call_target(index, info.id, cls, env, node)
            if target is not None:
                index.call_targets[node] = target
            if isinstance(node.func, ast.Attribute) and (
                node.func.attr in mutators
            ):
                variable = _mutation_receiver(
                    index, info.id, cls, node.func.value
                )
                if variable is not None:
                    index.mutations.append(MutationSite(
                        var=variable.qualname, function=function,
                        path=info.ctx.path, line=node.lineno,
                        how=f"{node.func.attr}()",
                    ))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            _scan_store(index, info, function, cls, node, declared_global)


def _scan_store(index: ProjectIndex, info: ModuleInfo,
                function: str | None, cls: str | None, node: ast.stmt,
                declared_global: set[str]) -> None:
    """Rebinding / subscript-store mutations of module-level variables."""
    if isinstance(node, ast.Assign):
        targets, how = node.targets, "rebind"
    elif isinstance(node, ast.AugAssign):
        targets, how = [node.target], "augassign"
    else:
        targets, how = node.targets, "delete"
    for target in targets:
        if isinstance(target, ast.Subscript):
            variable = _mutation_receiver(index, info.id, cls, target.value)
            if variable is not None:
                index.mutations.append(MutationSite(
                    var=variable.qualname, function=function,
                    path=info.ctx.path, line=node.lineno, how="subscript",
                ))
        elif isinstance(target, ast.Name):
            is_module_level = function is None
            if not (is_module_level or target.id in declared_global):
                continue
            if is_module_level and how == "rebind":
                continue  # the defining assignment itself
            variable = info.variables.get(target.id)
            if variable is not None:
                index.mutations.append(MutationSite(
                    var=variable.qualname, function=function,
                    path=info.ctx.path, line=node.lineno,
                    how="global-rebind" if function else how,
                ))


def build_index(contexts: Iterable[FileContext],
                mutator_methods: frozenset[str]) -> ProjectIndex:
    """Index the project: symbols, call graph, mutation inventory."""
    index = ProjectIndex()
    ordered: list[tuple[str, FileContext]] = []
    for ctx in contexts:
        # The package root (module "") is a facade of re-exports: not
        # indexed, so ``from repro import X`` names module X.
        if not ctx.module or ctx.module in index.modules:
            continue
        ordered.append((ctx.module, ctx))
        _collect_module(index, ctx, ctx.module)
    for class_info in index.classes.values():
        _resolve_bases(index, class_info)
    for class_info in index.classes.values():
        _collect_attr_types(index, class_info)
    # Resolve module-variable instance types now that classes exist.
    for variable in index.variables.values():
        if variable.kind == INSTANCE:
            variable.type = index.class_of(variable.module, variable.ctor)
    for function in index.functions.values():
        env = _local_types(index, function)
        info = index.modules[function.module]
        _scan_body(
            index, info, function.qualname, function.cls, env,
            ast.walk(function.node), mutator_methods,
        )
    for module_id, ctx in ordered:
        _scan_body(
            index, index.modules[module_id], None, None, {},
            (node for node, _ in walk_scope(ctx.tree)), mutator_methods,
        )
    return index
