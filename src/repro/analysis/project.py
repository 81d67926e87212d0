"""Whole-program layer of ``repro.analysis``: cross-module facts.

Per-module AST rules (:mod:`repro.analysis.rules`) can only see one file
at a time, which is exactly why PR 6 shipped two checkpoint-identity bugs
a reviewer had to find by hand: whether a class restores every key its
``state_dict`` writes, whether a pool-submitted callable is module-level,
or whether a metric name is declared centrally are *project* properties.

This module builds the project view once per scan:

:class:`ModuleSummary`
    Everything the project rules need to know about one module, extracted
    in a single AST pass and **JSON-serialisable** — summaries are what
    the on-disk incremental cache stores, so an unchanged module is never
    re-parsed (see :mod:`repro.analysis.cache`).
:class:`ProjectContext`
    The project: summaries keyed by dotted module name, the project
    import graph, a symbol table with re-export chasing, and a
    conservative call index (named calls only — method dispatch is out of
    scope on purpose; the rules built on top never *prove* safety from
    the index, they only report what it can see).

Everything here is deliberately conservative: resolution that fails
returns ``None`` and the querying rule stays silent, so growing the
codebase can only ever *reveal* findings, not fabricate them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.engine import (
    ModuleContext,
    Suppression,
    dotted_name,
)

__all__ = [
    "ClassSummary",
    "FunctionSummary",
    "GlobalWrite",
    "ModuleSummary",
    "ObsDeclaration",
    "ObsUse",
    "ProjectContext",
    "Site",
    "SubmitSite",
    "build_summary",
]

#: The obs module-level helpers whose first argument is a metric name.
OBS_HELPERS: FrozenSet[str] = frozenset({"span", "inc", "observe", "gauge"})

#: Kind of series each obs helper records into.
OBS_HELPER_KINDS: Mapping[str, str] = {
    "inc": "counter",
    "gauge": "gauge",
    "observe": "histogram",
    "span": "span",
}

#: Dotted module holding the central metric-name catalogue.
OBS_NAMES_MODULE: Tuple[str, ...] = ("repro", "obs", "names")

#: ``names.py`` container variable -> series kind.
OBS_DECLARATION_VARS: Mapping[str, str] = {
    "COUNTERS": "counter",
    "GAUGES": "gauge",
    "HISTOGRAMS": "histogram",
    "SPANS": "span",
}

#: Method names that mutate their receiver in place.
MUTATING_METHODS: FrozenSet[str] = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)

#: Constructor names whose result is a mutable container.
_MUTABLE_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {
        "dict",
        "list",
        "set",
        "bytearray",
        "defaultdict",
        "deque",
        "Counter",
        "OrderedDict",
        "collections.defaultdict",
        "collections.deque",
        "collections.Counter",
        "collections.OrderedDict",
    }
)

#: Constructors of ``numpy.random`` stream state (fork-unsafe across a
#: process-pool boundary: both sides continue the same bit stream).
_RNG_CONSTRUCTORS: FrozenSet[str] = frozenset({"default_rng", "SeedSequence"})

#: Methods whose body is allowed to write ``self.*`` without making the
#: class "mutable" for STATE001: construction and restore sites.
_CONSTRUCTION_METHODS: FrozenSet[str] = frozenset(
    {"__init__", "__new__", "__post_init__", "__init_subclass__"}
)


# --------------------------------------------------------------------- #
# Summary records (all JSON round-trippable via to_json/from_json)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Site:
    """One anchored source position: line, column and stripped line text."""

    line: int
    col: int
    text: str

    def to_json(self) -> Dict[str, object]:
        return {"line": self.line, "col": self.col, "text": self.text}

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "Site":
        return cls(
            line=int(data["line"]), col=int(data["col"]), text=str(data["text"])
        )


@dataclass(frozen=True)
class ObsUse:
    """One ``obs.<helper>("literal.name", ...)`` call site."""

    helper: str
    name: str
    site: Site

    def to_json(self) -> Dict[str, object]:
        return {"helper": self.helper, "name": self.name, "site": self.site.to_json()}

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "ObsUse":
        return cls(
            helper=str(data["helper"]),
            name=str(data["name"]),
            site=Site.from_json(data["site"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class ObsDeclaration:
    """One name declared in the central catalogue (``repro.obs.names``)."""

    kind: str
    name: str
    site: Site

    def to_json(self) -> Dict[str, object]:
        return {"kind": self.kind, "name": self.name, "site": self.site.to_json()}

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "ObsDeclaration":
        return cls(
            kind=str(data["kind"]),
            name=str(data["name"]),
            site=Site.from_json(data["site"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class SubmitSite:
    """One ``<pool>.submit`` call site (a callable plus its arguments).

    ``callable_kind`` is what the first argument syntactically is:
    ``"lambda"``, ``"nested"`` (a function defined inside the enclosing
    function), ``"self"`` (a bound ``self.x`` attribute), ``"name"`` /
    ``"attribute"`` (resolvable against the project symbol table), or
    ``"opaque"`` (anything the summary cannot classify — never flagged).
    """

    callable_kind: str
    callable_name: Optional[str]
    generator_args: Tuple[str, ...]
    site: Site

    def to_json(self) -> Dict[str, object]:
        return {
            "callable_kind": self.callable_kind,
            "callable_name": self.callable_name,
            "generator_args": list(self.generator_args),
            "site": self.site.to_json(),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "SubmitSite":
        name = data.get("callable_name")
        return cls(
            callable_kind=str(data["callable_kind"]),
            callable_name=str(name) if name is not None else None,
            generator_args=tuple(str(a) for a in data.get("generator_args", [])),
            site=Site.from_json(data["site"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class GlobalWrite:
    """One write/mutation of a module-level name inside a function."""

    target: str
    via: str  # "assign" | "subscript" | "attribute" | "method:<name>"
    site: Site

    def to_json(self) -> Dict[str, object]:
        return {"target": self.target, "via": self.via, "site": self.site.to_json()}

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "GlobalWrite":
        return cls(
            target=str(data["target"]),
            via=str(data["via"]),
            site=Site.from_json(data["site"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class FunctionSummary:
    """Project-relevant facts about one module-level function."""

    name: str
    line: int
    calls: Tuple[str, ...]
    global_writes: Tuple[GlobalWrite, ...]
    generator_params: Tuple[str, ...]

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "line": self.line,
            "calls": list(self.calls),
            "global_writes": [w.to_json() for w in self.global_writes],
            "generator_params": list(self.generator_params),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "FunctionSummary":
        return cls(
            name=str(data["name"]),
            line=int(data["line"]),
            calls=tuple(str(c) for c in data.get("calls", [])),
            global_writes=tuple(
                GlobalWrite.from_json(w) for w in data.get("global_writes", [])
            ),
            generator_params=tuple(
                str(p) for p in data.get("generator_params", [])
            ),
        )


@dataclass(frozen=True)
class ClassSummary:
    """Project-relevant facts about one module-level class.

    ``state_keys`` / ``load_keys`` are the literal keys the class's
    ``state_dict`` returns / its ``load_state_dict`` reads; ``None`` when
    the method does not exist, paired with a ``*_dynamic`` flag when it
    exists but builds its keys dynamically (key matching is then skipped).
    """

    name: str
    bases: Tuple[str, ...]
    methods: Tuple[str, ...]
    site: Site
    mutated_attrs: Tuple[str, ...]
    mutation_site: Optional[Site]
    state_keys: Optional[Tuple[str, ...]]
    state_dynamic: bool
    state_site: Optional[Site]
    load_keys: Optional[Tuple[str, ...]]
    load_dynamic: bool
    load_site: Optional[Site]

    def has_method(self, name: str) -> bool:
        return name in self.methods

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "bases": list(self.bases),
            "methods": list(self.methods),
            "site": self.site.to_json(),
            "mutated_attrs": list(self.mutated_attrs),
            "mutation_site": (
                self.mutation_site.to_json() if self.mutation_site else None
            ),
            "state_keys": (
                list(self.state_keys) if self.state_keys is not None else None
            ),
            "state_dynamic": self.state_dynamic,
            "state_site": self.state_site.to_json() if self.state_site else None,
            "load_keys": (
                list(self.load_keys) if self.load_keys is not None else None
            ),
            "load_dynamic": self.load_dynamic,
            "load_site": self.load_site.to_json() if self.load_site else None,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "ClassSummary":
        def opt_site(value: object) -> Optional[Site]:
            return Site.from_json(value) if value is not None else None  # type: ignore[arg-type]

        def opt_keys(value: object) -> Optional[Tuple[str, ...]]:
            if value is None:
                return None
            return tuple(str(k) for k in value)  # type: ignore[union-attr]

        return cls(
            name=str(data["name"]),
            bases=tuple(str(b) for b in data.get("bases", [])),
            methods=tuple(str(m) for m in data.get("methods", [])),
            site=Site.from_json(data["site"]),  # type: ignore[arg-type]
            mutated_attrs=tuple(str(a) for a in data.get("mutated_attrs", [])),
            mutation_site=opt_site(data.get("mutation_site")),
            state_keys=opt_keys(data.get("state_keys")),
            state_dynamic=bool(data.get("state_dynamic", False)),
            state_site=opt_site(data.get("state_site")),
            load_keys=opt_keys(data.get("load_keys")),
            load_dynamic=bool(data.get("load_dynamic", False)),
            load_site=opt_site(data.get("load_site")),
        )


@dataclass
class ModuleSummary:
    """One module's contribution to the project view (cache-serialisable)."""

    path: str
    module: Tuple[str, ...]
    #: Local binding -> dotted target ("numpy", "repro.sim.parallel",
    #: "repro.sim.parallel.run_item_on_world", ...).
    imports: Dict[str, str] = field(default_factory=dict)
    #: Every dotted import target (module side), for the import graph.
    import_targets: Tuple[str, ...] = ()
    #: Top-level name -> kind ("class" | "function" | "assign" | "import").
    top_names: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    #: Module-level names bound to a mutable container at import time.
    mutable_globals: Dict[str, Site] = field(default_factory=dict)
    obs_uses: Tuple[ObsUse, ...] = ()
    obs_declarations: Tuple[ObsDeclaration, ...] = ()
    submit_sites: Tuple[SubmitSite, ...] = ()
    #: Names passed as ``initializer=`` to a pool constructor.
    pool_initializers: Tuple[str, ...] = ()
    suppressions: Tuple[Suppression, ...] = ()

    @property
    def dotted(self) -> str:
        return ".".join(self.module)

    def to_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "module": list(self.module),
            "imports": dict(self.imports),
            "import_targets": list(self.import_targets),
            "top_names": dict(self.top_names),
            "functions": {k: v.to_json() for k, v in self.functions.items()},
            "classes": {k: v.to_json() for k, v in self.classes.items()},
            "mutable_globals": {
                k: v.to_json() for k, v in self.mutable_globals.items()
            },
            "obs_uses": [u.to_json() for u in self.obs_uses],
            "obs_declarations": [d.to_json() for d in self.obs_declarations],
            "submit_sites": [s.to_json() for s in self.submit_sites],
            "pool_initializers": list(self.pool_initializers),
            "suppressions": [
                {
                    "line": s.line,
                    "rules": list(s.rules),
                    "justification": s.justification,
                    "own_line": s.own_line,
                    "text": s.text,
                }
                for s in self.suppressions
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "ModuleSummary":
        return cls(
            path=str(data["path"]),
            module=tuple(str(p) for p in data["module"]),
            imports={str(k): str(v) for k, v in data.get("imports", {}).items()},
            import_targets=tuple(
                str(t) for t in data.get("import_targets", [])
            ),
            top_names={
                str(k): str(v) for k, v in data.get("top_names", {}).items()
            },
            functions={
                str(k): FunctionSummary.from_json(v)
                for k, v in data.get("functions", {}).items()
            },
            classes={
                str(k): ClassSummary.from_json(v)
                for k, v in data.get("classes", {}).items()
            },
            mutable_globals={
                str(k): Site.from_json(v)
                for k, v in data.get("mutable_globals", {}).items()
            },
            obs_uses=tuple(ObsUse.from_json(u) for u in data.get("obs_uses", [])),
            obs_declarations=tuple(
                ObsDeclaration.from_json(d)
                for d in data.get("obs_declarations", [])
            ),
            submit_sites=tuple(
                SubmitSite.from_json(s) for s in data.get("submit_sites", [])
            ),
            pool_initializers=tuple(
                str(n) for n in data.get("pool_initializers", [])
            ),
            suppressions=tuple(
                Suppression(
                    line=int(s["line"]),
                    rules=tuple(str(r) for r in s["rules"]),
                    justification=str(s["justification"]),
                    own_line=bool(s["own_line"]),
                    text=str(s.get("text", "")),
                )
                for s in data.get("suppressions", [])
            ),
        )


# --------------------------------------------------------------------- #
# Summary extraction (one AST pass per module)
# --------------------------------------------------------------------- #


def _site(ctx: ModuleContext, node: ast.AST) -> Site:
    lineno = getattr(node, "lineno", 1)
    return Site(
        line=lineno,
        col=getattr(node, "col_offset", 0),
        text=ctx.line_text(lineno),
    )


def _import_bindings(
    module_parts: Tuple[str, ...], node: ast.stmt
) -> List[Tuple[str, str]]:
    """``(local_name, dotted_target)`` pairs introduced by an import stmt."""
    bindings: List[Tuple[str, str]] = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            bindings.append((local, target))
    elif isinstance(node, ast.ImportFrom):
        if node.level:
            # Relative import: anchor on this module's package.
            package = list(module_parts[:-1]) if module_parts else []
            up = node.level - 1
            base = package[: len(package) - up] if up else package
            prefix = ".".join(base + ([node.module] if node.module else []))
        else:
            prefix = node.module or ""
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            target = f"{prefix}.{alias.name}" if prefix else alias.name
            bindings.append((local, target))
    return bindings


def _is_mutable_container(node: ast.expr) -> bool:
    if isinstance(
        node,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name in _MUTABLE_CONSTRUCTORS or (
            name is not None and name.split(".")[-1] in _MUTABLE_CONSTRUCTORS
        )
    return False


def _assigned_names(target: ast.expr) -> Iterable[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _assigned_names(element)
    elif isinstance(target, ast.Starred):
        yield from _assigned_names(target.value)


def _local_bindings(fn: ast.AST) -> Set[str]:
    """Names bound inside a function body (params, assignments, defs)."""
    names: Set[str] = set()
    args = fn.args  # type: ignore[attr-defined]
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        names.add(arg.arg)
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(_assigned_names(target))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
            names.update(_assigned_names(node.target))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    names.update(_assigned_names(item.optional_vars))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not fn:
                names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                names.update(_assigned_names(generator.target))
    return names


def _nested_function_names(fn: ast.AST) -> Set[str]:
    return {
        node.name
        for node in ast.walk(fn)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node is not fn
    }


def _is_generator_annotation(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.split(".")[-1].split("[")[0] == "Generator"
    name = dotted_name(annotation)
    return name is not None and name.split(".")[-1] == "Generator"


def _rng_locals(fn: ast.AST) -> Set[str]:
    """Local names bound to a freshly constructed numpy RNG inside ``fn``."""
    names: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            callee = dotted_name(node.value.func)
            if callee and callee.split(".")[-1] in _RNG_CONSTRUCTORS:
                for target in node.targets:
                    names.update(_assigned_names(target))
    args = fn.args  # type: ignore[attr-defined]
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        if _is_generator_annotation(arg.annotation):
            names.add(arg.arg)
    return names


def _collect_global_writes(
    ctx: ModuleContext, fn: ast.AST, module_level: Set[str]
) -> List[GlobalWrite]:
    """Writes/mutations of module-level names lexically inside ``fn``."""
    local = _local_bindings(fn)
    declared_global: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    # A name declared ``global`` is module state even though assignments
    # to it appear in the local-bindings scan above.
    local -= declared_global
    writes: List[GlobalWrite] = []

    def module_name_of(expr: ast.expr) -> Optional[str]:
        """Base name of an expression when it is a module-level binding."""
        current = expr
        while isinstance(current, (ast.Subscript, ast.Attribute)):
            current = current.value
        if isinstance(current, ast.Name) and current.id not in local:
            if current.id in module_level or current.id in declared_global:
                return current.id
        return None

    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        for target in targets:
            for element in _flatten(target):
                if isinstance(element, ast.Name):
                    if element.id in declared_global:
                        writes.append(
                            GlobalWrite(element.id, "assign", _site(ctx, node))
                        )
                elif isinstance(element, ast.Subscript):
                    base = module_name_of(element)
                    if base is not None:
                        writes.append(
                            GlobalWrite(base, "subscript", _site(ctx, node))
                        )
                elif isinstance(element, ast.Attribute):
                    base = module_name_of(element)
                    if base is not None:
                        writes.append(
                            GlobalWrite(base, "attribute", _site(ctx, node))
                        )
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
        ):
            base = module_name_of(node.func.value)
            if base is not None:
                writes.append(
                    GlobalWrite(
                        base, f"method:{node.func.attr}", _site(ctx, node)
                    )
                )
    return writes


def _flatten(target: ast.expr) -> Iterable[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten(element)
    elif isinstance(target, ast.Starred):
        yield from _flatten(target.value)
    else:
        yield target


def _collect_calls(fn: ast.AST) -> Tuple[str, ...]:
    calls: List[str] = []
    seen: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None and name not in seen:
                seen.add(name)
                calls.append(name)
    return tuple(calls)


def _classify_submitted(
    arg: ast.expr, nested: Set[str], local: Set[str], top: Set[str]
) -> Tuple[str, Optional[str]]:
    """What the first ``submit`` argument syntactically is."""
    if isinstance(arg, ast.Lambda):
        return "lambda", None
    if isinstance(arg, ast.Call):
        # functools.partial(f, ...) wraps f: classify the wrapped callable.
        callee = dotted_name(arg.func)
        if callee and callee.split(".")[-1] == "partial" and arg.args:
            return _classify_submitted(arg.args[0], nested, local, top)
        return "opaque", None
    if isinstance(arg, ast.Name):
        if arg.id in nested:
            return "nested", arg.id
        if arg.id in local and arg.id not in top:
            return "opaque", arg.id  # a local rebinding: cannot resolve
        return "name", arg.id
    if isinstance(arg, ast.Attribute):
        name = dotted_name(arg)
        if name is None:
            return "opaque", None
        if name.split(".")[0] == "self":
            return "self", name
        return "attribute", name
    return "opaque", None


def _collect_submit_sites(
    ctx: ModuleContext, fn: ast.AST, top: Set[str]
) -> List[SubmitSite]:
    nested = _nested_function_names(fn)
    local = _local_bindings(fn)
    rng_names = _rng_locals(fn)
    sites: List[SubmitSite] = []
    for node in ast.walk(fn):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            and node.args
        ):
            continue
        kind, name = _classify_submitted(node.args[0], nested, local, top)
        generator_args: List[str] = []
        for extra in list(node.args[1:]) + [kw.value for kw in node.keywords]:
            if isinstance(extra, ast.Call):
                callee = dotted_name(extra.func)
                if callee and callee.split(".")[-1] in _RNG_CONSTRUCTORS:
                    generator_args.append(callee)
            elif isinstance(extra, ast.Name) and extra.id in rng_names:
                generator_args.append(extra.id)
        sites.append(
            SubmitSite(
                callable_kind=kind,
                callable_name=name,
                generator_args=tuple(generator_args),
                site=_site(ctx, node),
            )
        )
    return sites


def _collect_pool_initializers(ctx: ModuleContext) -> Tuple[str, ...]:
    names: List[str] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        callee = dotted_name(node.func)
        if callee is None or callee.split(".")[-1] not in (
            "ProcessPoolExecutor",
            "make_worker_pool",
        ):
            continue
        for kw in node.keywords:
            if kw.arg == "initializer" and isinstance(kw.value, ast.Name):
                names.append(kw.value.id)
    return tuple(names)


def _bare_obs_helpers(ctx: ModuleContext) -> Dict[str, str]:
    """Local names bound to obs helpers via ``from repro.obs import inc``."""
    bare: Dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module in (
            "repro.obs",
            "repro.obs.registry",
        ):
            for alias in node.names:
                if alias.name in OBS_HELPERS:
                    bare[alias.asname or alias.name] = alias.name
    return bare


def _collect_obs_uses(ctx: ModuleContext) -> Tuple[ObsUse, ...]:
    bare = _bare_obs_helpers(ctx)
    uses: List[ObsUse] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        helper: Optional[str] = None
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in OBS_HELPERS
            and isinstance(func.value, ast.Name)
            and func.value.id == "obs"
        ):
            helper = func.attr
        elif isinstance(func, ast.Name) and func.id in bare:
            helper = bare[func.id]
        if helper is None:
            continue
        name_arg = node.args[0]
        if isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str):
            uses.append(
                ObsUse(helper=helper, name=name_arg.value, site=_site(ctx, node))
            )
    return tuple(uses)


def _collect_obs_declarations(ctx: ModuleContext) -> Tuple[ObsDeclaration, ...]:
    if ctx.module != OBS_NAMES_MODULE:
        return ()
    declarations: List[ObsDeclaration] = []
    for stmt in ctx.tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target = stmt.target
        else:
            continue
        if not isinstance(target, ast.Name):
            continue
        kind = OBS_DECLARATION_VARS.get(target.id)
        if kind is None:
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and value.args:
            value = value.args[0]
        if not isinstance(value, (ast.Set, ast.Tuple, ast.List)):
            continue
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(
                element.value, str
            ):
                declarations.append(
                    ObsDeclaration(
                        kind=kind,
                        name=element.value,
                        site=_site(ctx, element),
                    )
                )
    return tuple(declarations)


def _state_dict_keys(
    fn: ast.AST,
) -> Tuple[Optional[Tuple[str, ...]], bool]:
    """Literal keys of every dict a ``state_dict`` returns.

    Returns ``(keys, dynamic)``; dynamic means at least one return is not
    a fully literal-keyed dict display, so key matching must be skipped.
    """
    keys: List[str] = []
    dynamic = False
    saw_return = False
    for node in ast.walk(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn:
            continue
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        saw_return = True
        value = node.value
        if not isinstance(value, ast.Dict):
            dynamic = True
            continue
        for key in value.keys:
            if key is None:  # ``**spread``
                dynamic = True
            elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                if key.value not in keys:
                    keys.append(key.value)
            else:
                dynamic = True
    if not saw_return:
        dynamic = True
    return (tuple(keys), dynamic)


def _load_state_keys(fn: ast.AST) -> Tuple[Optional[Tuple[str, ...]], bool]:
    """Literal keys ``load_state_dict`` reads off its state parameter."""
    args = fn.args  # type: ignore[attr-defined]
    positional = args.posonlyargs + args.args
    if len(positional) < 2:
        return ((), True)
    state_name = positional[1].arg
    keys: List[str] = []
    dynamic = False
    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript):
            base = node.value
            if isinstance(base, ast.Name) and base.id == state_name:
                index = node.slice
                if isinstance(index, ast.Constant) and isinstance(
                    index.value, str
                ):
                    if index.value not in keys:
                        keys.append(index.value)
                else:
                    dynamic = True
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            base = node.func.value
            if (
                isinstance(base, ast.Name)
                and base.id == state_name
                and node.func.attr in ("get", "pop")
                and node.args
            ):
                key = node.args[0]
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    if key.value not in keys:
                        keys.append(key.value)
                else:
                    dynamic = True
        elif isinstance(node, ast.Name) and node.id == state_name:
            parent_types = ()  # plain reads of the whole dict are dynamic use
            del parent_types
    # Whole-dict uses (iteration, ``state.items()``, passing it on) make
    # the read set open-ended: treat any non-subscript/get use as dynamic.
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            base = node.func.value
            if (
                isinstance(base, ast.Name)
                and base.id == state_name
                and node.func.attr in ("items", "keys", "values")
            ):
                dynamic = True
        elif isinstance(node, (ast.For, ast.comprehension)):
            iter_expr = node.iter
            if isinstance(iter_expr, ast.Name) and iter_expr.id == state_name:
                dynamic = True
    return (tuple(keys), dynamic)


def _summarise_class(ctx: ModuleContext, node: ast.ClassDef) -> ClassSummary:
    bases = tuple(
        name for name in (dotted_name(base) for base in node.bases) if name
    )
    methods: List[str] = []
    mutated: List[str] = []
    mutation_site: Optional[Site] = None
    state_keys: Optional[Tuple[str, ...]] = None
    state_dynamic = False
    state_site: Optional[Site] = None
    load_keys: Optional[Tuple[str, ...]] = None
    load_dynamic = False
    load_site: Optional[Site] = None
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        methods.append(stmt.name)
        if stmt.name == "state_dict":
            state_keys, state_dynamic = _state_dict_keys(stmt)
            state_site = _site(ctx, stmt)
        elif stmt.name == "load_state_dict":
            load_keys, load_dynamic = _load_state_keys(stmt)
            load_site = _site(ctx, stmt)
        if stmt.name in _CONSTRUCTION_METHODS or stmt.name == "load_state_dict":
            continue
        positional = stmt.args.posonlyargs + stmt.args.args
        if not positional:
            continue
        self_name = positional[0].arg
        for inner in ast.walk(stmt):
            attr: Optional[str] = None
            if isinstance(inner, ast.Assign):
                targets = [t for target in inner.targets for t in _flatten(target)]
            elif isinstance(inner, (ast.AugAssign, ast.AnnAssign)):
                targets = list(_flatten(inner.target))
            else:
                targets = []
            for target in targets:
                attr = _self_attr(target, self_name)
                if attr is not None:
                    break
            if attr is None and isinstance(inner, ast.Call):
                if (
                    isinstance(inner.func, ast.Attribute)
                    and inner.func.attr in MUTATING_METHODS
                ):
                    attr = _self_attr(inner.func.value, self_name)
            if attr is not None and not attr.startswith("__"):
                if attr not in mutated:
                    mutated.append(attr)
                if mutation_site is None:
                    mutation_site = _site(ctx, inner)
    return ClassSummary(
        name=node.name,
        bases=bases,
        methods=tuple(methods),
        site=_site(ctx, node),
        mutated_attrs=tuple(mutated),
        mutation_site=mutation_site,
        state_keys=state_keys,
        state_dynamic=state_dynamic,
        state_site=state_site,
        load_keys=load_keys,
        load_dynamic=load_dynamic,
        load_site=load_site,
    )


def _self_attr(expr: ast.expr, self_name: str) -> Optional[str]:
    """``attr`` when ``expr`` is ``self.attr`` or a view into it."""
    current = expr
    while isinstance(current, ast.Subscript):
        current = current.value
    if (
        isinstance(current, ast.Attribute)
        and isinstance(current.value, ast.Name)
        and current.value.id == self_name
    ):
        return current.attr
    return None


def build_summary(ctx: ModuleContext) -> ModuleSummary:
    """Extract one module's :class:`ModuleSummary` from its parsed AST."""
    from repro.analysis.engine import parse_suppressions

    summary = ModuleSummary(path=ctx.path, module=ctx.module)
    import_targets: List[str] = []
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for local, target in _import_bindings(ctx.module, stmt):
                summary.imports[local] = target
                summary.top_names[local] = "import"
                import_targets.append(target)
            if isinstance(stmt, ast.Import):
                # ``import a.b`` binds ``a`` but imports the module
                # ``a.b`` — the graph needs the full dotted name.
                import_targets.extend(
                    alias.name for alias in stmt.names if "." in alias.name
                )
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.top_names[stmt.name] = "function"
        elif isinstance(stmt, ast.ClassDef):
            summary.top_names[stmt.name] = "class"
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            value = stmt.value
            for target in targets:
                for name in _assigned_names(target):
                    summary.top_names.setdefault(name, "assign")
                    if value is not None and _is_mutable_container(value):
                        summary.mutable_globals.setdefault(name, _site(ctx, stmt))
    summary.import_targets = tuple(import_targets)

    top = set(summary.top_names)
    module_level_fns: List[Tuple[str, ast.AST]] = [
        (stmt.name, stmt)
        for stmt in ctx.tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    submit_sites: List[SubmitSite] = []
    for name, fn in module_level_fns:
        summary.functions[name] = FunctionSummary(
            name=name,
            line=fn.lineno,
            calls=_collect_calls(fn),
            global_writes=tuple(_collect_global_writes(ctx, fn, top)),
            generator_params=tuple(
                arg.arg
                for arg in (
                    fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                )
                if _is_generator_annotation(arg.annotation)
            ),
        )
        submit_sites.extend(_collect_submit_sites(ctx, fn, top))
    for stmt in ctx.tree.body:
        if isinstance(stmt, ast.ClassDef):
            summary.classes[stmt.name] = _summarise_class(ctx, stmt)
            for method in stmt.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    submit_sites.extend(
                        _collect_submit_sites(ctx, method, top)
                    )
    summary.obs_uses = _collect_obs_uses(ctx)
    summary.obs_declarations = _collect_obs_declarations(ctx)
    summary.submit_sites = tuple(submit_sites)
    summary.pool_initializers = _collect_pool_initializers(ctx)
    summary.suppressions = tuple(parse_suppressions(ctx.source))
    return summary


# --------------------------------------------------------------------- #
# The project view
# --------------------------------------------------------------------- #


class ProjectContext:
    """Cross-module indexes over a set of :class:`ModuleSummary` objects.

    All resolution helpers are *conservative*: they return ``None`` (or
    an empty set) whenever the answer cannot be established from the
    summaries, and rules must stay silent in that case.
    """

    #: Bound on import/re-export chains (cycles are also cut by the
    #: visited set; the bound keeps pathological chains cheap).
    _MAX_CHAIN = 16

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        for summary in summaries:
            if summary.module:
                self.modules[summary.dotted] = summary
        self._import_graph: Optional[Dict[str, Set[str]]] = None
        self._transitive: Dict[str, FrozenSet[str]] = {}
        self._call_graph: Optional[
            Dict[Tuple[str, str], Set[Tuple[str, str]]]
        ] = None

    # ---- import graph ------------------------------------------------- #

    def _module_of_target(self, target: str) -> Optional[str]:
        """Longest known-module prefix of a dotted import target."""
        parts = target.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.modules:
                return candidate
        return None

    @property
    def import_graph(self) -> Dict[str, Set[str]]:
        """Project-internal import edges: module -> imported modules."""
        if self._import_graph is None:
            graph: Dict[str, Set[str]] = {name: set() for name in self.modules}
            for name, summary in self.modules.items():
                for target in summary.import_targets:
                    resolved = self._module_of_target(target)
                    if resolved is not None and resolved != name:
                        graph[name].add(resolved)
            self._import_graph = graph
        return self._import_graph

    def transitive_imports(self, module: str) -> FrozenSet[str]:
        """Every project module reachable from ``module`` via imports."""
        cached = self._transitive.get(module)
        if cached is not None:
            return cached
        seen: Set[str] = set()
        stack = [module]
        graph = self.import_graph
        while stack:
            current = stack.pop()
            for neighbour in graph.get(current, ()):
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        result = frozenset(seen)
        self._transitive[module] = result
        return result

    # ---- symbol resolution -------------------------------------------- #

    def resolve(
        self, module: str, name: str
    ) -> Optional[Tuple[str, str, str]]:
        """Resolve a dotted ``name`` used in ``module``.

        Returns ``(defining_module, symbol, kind)`` — ``kind`` one of
        ``"class"``/``"function"``/``"assign"``/``"module"`` — following
        import bindings and re-export chains, or ``None`` when the name
        does not resolve inside the project.
        """
        summary = self.modules.get(module)
        if summary is None:
            return None
        parts = name.split(".")
        head, rest = parts[0], parts[1:]
        kind = summary.top_names.get(head)
        if kind is None:
            return None
        if kind != "import":
            # Defined here.  A trailing attribute path on a local symbol
            # (``Foo.bar``) resolves to the symbol itself.
            return (module, head, kind)
        target = summary.imports[head] + ("." + ".".join(rest) if rest else "")
        return self._resolve_dotted(target, hops=0)

    def _resolve_dotted(
        self, target: str, hops: int
    ) -> Optional[Tuple[str, str, str]]:
        if hops > self._MAX_CHAIN:
            return None
        owner = self._module_of_target(target)
        if owner is None:
            return None
        remainder = target[len(owner):].lstrip(".")
        if not remainder:
            return (owner, "", "module")
        symbol = remainder.split(".")[0]
        summary = self.modules[owner]
        kind = summary.top_names.get(symbol)
        if kind is None:
            return None
        if kind == "import":
            return self._resolve_dotted(summary.imports[symbol], hops + 1)
        return (owner, symbol, kind)

    def resolve_class(
        self, module: str, name: str
    ) -> Optional[Tuple[str, ClassSummary]]:
        resolved = self.resolve(module, name)
        if resolved is None:
            return None
        owner, symbol, kind = resolved
        if kind != "class":
            return None
        summary = self.modules[owner].classes.get(symbol)
        if summary is None:
            return None
        return (owner, summary)

    def class_provides(
        self, module: str, cls: ClassSummary, method: str
    ) -> bool:
        """Whether ``cls`` (or a project-resolvable ancestor) defines
        ``method``.  Unresolvable bases count as *not* providing — the
        conservative direction for a coverage rule, with inline
        suppressions as the escape hatch."""
        seen: Set[Tuple[str, str]] = set()
        stack: List[Tuple[str, ClassSummary]] = [(module, cls)]
        while stack:
            owner, current = stack.pop()
            key = (owner, current.name)
            if key in seen:
                continue
            seen.add(key)
            if current.has_method(method):
                return True
            for base in current.bases:
                resolved = self.resolve_class(owner, base)
                if resolved is not None:
                    stack.append(resolved)
        return False

    # ---- call index ---------------------------------------------------- #

    @property
    def call_graph(self) -> Dict[Tuple[str, str], Set[Tuple[str, str]]]:
        """Named-call edges: ``(module, fn) -> {(module, fn), ...}``.

        Only direct calls to names that resolve to project module-level
        functions are indexed; method dispatch and higher-order calls are
        invisible (conservative by design).
        """
        if self._call_graph is None:
            graph: Dict[Tuple[str, str], Set[Tuple[str, str]]] = {}
            for name, summary in self.modules.items():
                for fn_name, fn in summary.functions.items():
                    edges: Set[Tuple[str, str]] = set()
                    for called in fn.calls:
                        resolved = self.resolve(name, called)
                        if resolved is None:
                            continue
                        owner, symbol, kind = resolved
                        if kind == "function":
                            edges.add((owner, symbol))
                    graph[(name, fn_name)] = edges
            self._call_graph = graph
        return self._call_graph

    def worker_entry_functions(self) -> Set[Tuple[str, str]]:
        """Module-level functions handed to a pool (``submit`` target or
        pool ``initializer=``), resolved project-wide."""
        entries: Set[Tuple[str, str]] = set()
        for name, summary in self.modules.items():
            for site in summary.submit_sites:
                if site.callable_kind in ("name", "attribute") and site.callable_name:
                    resolved = self.resolve(name, site.callable_name)
                    if resolved is not None and resolved[2] == "function":
                        entries.add((resolved[0], resolved[1]))
            for initializer in summary.pool_initializers:
                resolved = self.resolve(name, initializer)
                if resolved is not None and resolved[2] == "function":
                    entries.add((resolved[0], resolved[1]))
        return entries

    def worker_reachable_functions(self) -> Set[Tuple[str, str]]:
        """Transitive closure of :meth:`worker_entry_functions` over the
        named-call index: everything that may run inside a pool worker."""
        reachable = set(self.worker_entry_functions())
        graph = self.call_graph
        stack = list(reachable)
        while stack:
            current = stack.pop()
            for callee in graph.get(current, ()):
                if callee not in reachable:
                    reachable.add(callee)
                    stack.append(callee)
        return reachable

    # ---- obs index ----------------------------------------------------- #

    def obs_declarations(self) -> Dict[str, Dict[str, ObsDeclaration]]:
        """Declared metric names by kind, from ``repro.obs.names``."""
        declared: Dict[str, Dict[str, ObsDeclaration]] = {
            kind: {} for kind in OBS_DECLARATION_VARS.values()
        }
        names_module = self.modules.get(".".join(OBS_NAMES_MODULE))
        if names_module is not None:
            for declaration in names_module.obs_declarations:
                declared[declaration.kind][declaration.name] = declaration
        return declared

    def has_obs_names_module(self) -> bool:
        return ".".join(OBS_NAMES_MODULE) in self.modules
