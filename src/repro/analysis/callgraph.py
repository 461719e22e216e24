"""Project-wide symbol table and call graph over ``repro.*`` sources.

:func:`build_index` turns the full set of parsed :class:`FileContext`\\ s
into a :class:`ProjectIndex`: per-module symbol tables (functions,
classes, module-level variables, import aliases) keyed by dotted
qualnames (``server.daemon.NetmarkDaemon.poll``), the inventory of
module-state mutation sites, and the call graph as per-call-site
resolution results for the exception-flow rule.

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

from repro.analysis.core import FileContext, module_id_of

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


@dataclass(frozen=True)
class ImportedName:
    """One imported binding: a module alias, or a symbol from a module."""

    module: str  # repro-relative dotted module id ("obs.metrics")
    symbol: str | None = None  # None: the binding is the module itself


@dataclass
class VariableInfo:
    """One module-level binding."""

    qualname: str
    name: str
    module: str
    line: int
    kind: str  # CONTAINER | INSTANCE | LOCK | CONSTANT | OTHER
    ctor: str | None = None  # dotted constructor text, for INSTANCE
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
    package: str  # enclosing package id ("" at the repro root)
    ctx: FileContext
    imports: dict[str, ImportedName] = field(default_factory=dict)
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
        imported = info.imports.get(name)
        if imported is None:
            return None
        if imported.symbol is None:
            return ("module", imported.module)
        seen = _seen if _seen is not None else set()
        key = (imported.module, imported.symbol)
        if key in seen:
            return None
        seen.add(key)
        resolved = self.resolve(imported.module, imported.symbol, seen)
        if resolved is not None:
            return resolved
        # ``from repro.pkg import sub`` where sub is itself a module.
        submodule = f"{imported.module}.{imported.symbol}"
        if submodule in self.modules:
            return ("module", submodule)
        return None

    def method(self, class_qualname: str, name: str) -> str | None:
        """Look ``name`` up through the class and its resolved bases."""
        seen: set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if name in info.methods:
                return info.methods[name]
            stack.extend(info.bases)
        return None

    def attr_type(self, class_qualname: str, attr: str) -> str | None:
        """The declared/inferred type of ``self.<attr>`` through the MRO."""
        seen: set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if attr in info.attr_types:
                return info.attr_types[attr]
            stack.extend(info.bases)
        return None

    def context_of(self, module: str) -> FileContext | None:
        info = self.modules.get(module)
        return info.ctx if info is not None else None


# -- pass 1: per-module symbol tables ---------------------------------------


def _package_of(module_id: str, path: str) -> str:
    if path.endswith("/__init__.py") or path == "__init__.py":
        return module_id
    return module_id.rsplit(".", 1)[0] if "." in module_id else ""


def _record_imports(info: ModuleInfo) -> None:
    for node in ast.walk(info.ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if not alias.name.startswith("repro."):
                    continue
                target = alias.name[len("repro."):]
                if alias.asname:
                    info.imports[alias.asname] = ImportedName(target)
                # A plain ``import repro.x`` binds only ``repro``; the
                # attribute chain is too rare here to model.
        elif isinstance(node, ast.ImportFrom):
            base = _import_base(info, node)
            if base is None:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name
                if base == "":
                    info.imports[bound] = ImportedName(alias.name)
                else:
                    info.imports[bound] = ImportedName(base, alias.name)


def _import_base(info: ModuleInfo, node: ast.ImportFrom) -> str | None:
    """The repro-relative module a ``from X import ...`` reads from.

    Returns ``""`` for the package root (``from repro import obs``) and
    ``None`` for foreign modules.
    """
    if node.level:
        base = info.package
        for _ in range(node.level - 1):
            base = base.rsplit(".", 1)[0] if "." in base else ""
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base
    module = node.module or ""
    if module == "repro":
        return ""
    if module.startswith("repro."):
        return module[len("repro."):]
    return None


def _classify_value(value: ast.expr | None) -> tuple[str, str | None]:
    """``(kind, ctor-text)`` for a module-level assignment's RHS."""
    if value is None:
        return OTHER, None
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return CONTAINER, None
    if isinstance(value, ast.Call):
        ctor = _dotted(value.func)
        tail = ctor.rsplit(".", 1)[-1] if ctor else ""
        if tail in CONTAINER_CALLS:
            return CONTAINER, ctor
        if tail in _LOCK_CALLS:
            return LOCK, ctor
        if tail in _IMMUTABLE_CALLS:
            return OTHER, ctor
        return INSTANCE, ctor
    if isinstance(value, ast.Constant):
        return CONSTANT, None
    return OTHER, None


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` as text for Name/Attribute chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


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
    info = ModuleInfo(
        id=module_id,
        package=_package_of(module_id, ctx.path),
        ctx=ctx,
    )
    index.modules[module_id] = info
    _record_imports(info)
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{module_id}.{stmt.name}"
            info.functions[stmt.name] = qualname
            index.functions[qualname] = FunctionInfo(
                qualname=qualname, name=stmt.name, module=module_id,
                cls=None, node=stmt,
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
            method_qual = f"{qualname}.{item.name}"
            class_info.methods[item.name] = method_qual
            index.functions[method_qual] = FunctionInfo(
                qualname=method_qual, name=item.name, module=info.id,
                cls=qualname, node=item,
            )


# -- pass 2: cross-module resolution ----------------------------------------


def _resolve_class_ref(index: ProjectIndex, module: str,
                       expr: ast.expr) -> str | None:
    """Resolve a Name/Attribute expression to a class qualname."""
    dotted = _dotted(expr)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    resolved = index.resolve(module, head)
    if resolved is None:
        return None
    kind, target = resolved
    if kind == "def":
        return target if not rest and target in index.classes else None
    # Module alias: resolve the remainder inside it, one hop at a time.
    while rest:
        head, _, rest = rest.partition(".")
        resolved = index.resolve(target, head)
        if resolved is None:
            return None
        kind, target = resolved
        if kind == "def":
            return target if not rest and target in index.classes else None
    return None


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
        base = _dotted(annotation.value)
        if base and base.rsplit(".", 1)[-1] == "Optional":
            return _resolve_annotation(index, module, annotation.slice)
        return None
    return _resolve_class_ref(index, module, annotation)


def _resolve_bases(index: ProjectIndex, class_info: ClassInfo) -> None:
    for base in class_info.node.bases:
        resolved = _resolve_class_ref(index, class_info.module, base)
        if resolved is not None:
            class_info.bases.append(resolved)
        else:
            dotted = _dotted(base)
            if dotted is not None:
                class_info.bases.append(dotted.rsplit(".", 1)[-1])


def _collect_attr_types(index: ProjectIndex, class_info: ClassInfo) -> None:
    module = class_info.module
    for item in class_info.node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(
            item.target, ast.Name
        ):
            resolved = _resolve_annotation(index, module, item.annotation)
            if resolved is not None:
                class_info.attr_types[item.target.id] = resolved
    for node in ast.walk(class_info.node):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if target.attr in class_info.attr_types:
                continue
            if isinstance(node, ast.AnnAssign):
                resolved = _resolve_annotation(
                    index, module, node.annotation
                )
            elif isinstance(node.value, ast.Call):
                resolved = _resolve_class_ref(index, module, node.value.func)
            else:
                resolved = None
            if resolved is not None:
                class_info.attr_types[target.attr] = resolved


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
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            resolved = _resolve_annotation(index, module, stmt.annotation)
            if resolved is not None:
                env.setdefault(stmt.target.id, resolved)
        elif isinstance(stmt, ast.Assign) and isinstance(
            stmt.value, ast.Call
        ):
            resolved = _resolve_class_ref(index, module, stmt.value.func)
            if resolved is None:
                continue
            for target in stmt.targets:
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
        if attr_type is not None:
            return ("class", attr_type)
        return None
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


def _as_callable(index: ProjectIndex, qualname: str) -> str | None:
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
        resolved = index.resolve(module, func.id)
        if resolved is None or resolved[0] != "def":
            return None
        return _as_callable(index, resolved[1])
    if isinstance(func, ast.Attribute):
        receiver = _receiver(index, module, cls, env, func.value)
        if receiver is None:
            return None
        kind, target = receiver
        if kind == "module":
            resolved = index.resolve(target, func.attr)
            if resolved is None or resolved[0] != "def":
                return None
            return _as_callable(index, resolved[1])
        method = index.method(target, func.attr)
        if method is not None:
            return method
        return None
    return None


def _mutation_receiver(index: ProjectIndex, module: str, cls: str | None,
                       expr: ast.expr) -> VariableInfo | None:
    """The module-level variable a mutation's receiver names, if any."""
    if isinstance(expr, ast.Name):
        if cls is not None and expr.id in ("self", "cls"):
            return None
        resolved = index.resolve(module, expr.id)
    elif (isinstance(expr, ast.Attribute)
          and isinstance(expr.value, ast.Name)):
        base = index.resolve(module, expr.value.id)
        if base is None or base[0] != "module":
            return None
        resolved = index.resolve(base[1], expr.attr)
    else:
        return None
    if resolved is None or resolved[0] != "def":
        return None
    return index.variables.get(resolved[1])


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


def _module_level_nodes(tree: ast.Module) -> Iterator[ast.AST]:
    """Every node not inside a function def (class bodies included)."""
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield child
            stack.append(child)


def build_index(contexts: Iterable[FileContext],
                mutator_methods: frozenset[str]) -> ProjectIndex:
    """Index the project: symbols, call graph, mutation inventory."""
    index = ProjectIndex()
    ordered: list[tuple[str, FileContext]] = []
    for ctx in contexts:
        module_id = module_id_of(ctx.path)
        if module_id is None or module_id in index.modules:
            continue
        ordered.append((module_id, ctx))
        _collect_module(index, ctx, module_id)
    for class_info in index.classes.values():
        _resolve_bases(index, class_info)
    for class_info in index.classes.values():
        _collect_attr_types(index, class_info)
    # Resolve module-variable instance types now that classes exist.
    for variable in index.variables.values():
        if variable.kind == INSTANCE and variable.ctor is not None:
            head, _, rest = variable.ctor.partition(".")
            expr: ast.expr = ast.Name(id=head)
            for part in rest.split("."):
                if part:
                    expr = ast.Attribute(value=expr, attr=part)
            variable.type = _resolve_class_ref(index, variable.module, expr)
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
            _module_level_nodes(ctx.tree), mutator_methods,
        )
    return index
