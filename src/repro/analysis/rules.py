"""The rule pack: this repository's invariants, encoded as AST checks.

Every rule exists because the test suite can only *spot-check* the
invariant while a static pass can enforce it at every call site.  Three of
them are direct generalisations of real bugs fixed in PRs 1–3 (see
``docs/STATIC_ANALYSIS.md`` for the full rationale and the suppression /
baseline workflow):

* PR 1 fixed commutative-XOR seed derivation in ``RngRegistry.child`` —
  the determinism rules (``DET001``–``DET005``) police how randomness is
  created and threaded.
* PR 2's churn miscount hid inside aggregate statistics — the obs-hygiene
  rule (``OBS001``) keeps telemetry keys static so snapshots stay
  deterministic and the disabled path allocation-free.
* PR 3's fused kernels rely on ``Tensor.data`` never being mutated or
  read mid-graph outside ``repro.nn`` — the autograd rules (``AG001``,
  ``AG002``) fence that contract.

Scopes
------
``PROTECTED_PACKAGES`` are the seed-deterministic subsystems: everything
whose outputs the paper's figures pin.  ``THREADED_RNG_PACKAGES`` must
*receive* ``numpy.random.Generator`` objects (threaded from
``repro.utils.seeding.RngRegistry``) and never construct their own;
``repro.mec`` / ``repro.workload`` are the sanctioned counter-based
derivation sites (``default_rng((stored_seed, slot))``) and are exempt
from ``DET005`` only.
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.analysis.engine import (
    Finding,
    ModuleContext,
    ProjectRule,
    Rule,
    dotted_name,
)
from repro.analysis.project import (
    OBS_DECLARATION_VARS,
    OBS_HELPER_KINDS,
    OBS_NAMES_MODULE,
    ModuleSummary,
    ProjectContext,
)

__all__ = [
    "HOT_PATH_MODULES",
    "PROTECTED_PACKAGES",
    "STATE_PACKAGES",
    "THREADED_RNG_PACKAGES",
    "all_rules",
    "rule_by_id",
    "rules_table",
]

#: Seed-deterministic subsystems: a wall clock or unseeded RNG anywhere in
#: these invalidates the paper's figure-level reproducibility claims.
PROTECTED_PACKAGES: FrozenSet[str] = frozenset(
    {"core", "mec", "sim", "nn", "gan", "bandits", "workload"}
)

#: Packages (plus the CLI module) that must take Generators as parameters
#: rather than constructing their own.
THREADED_RNG_PACKAGES: FrozenSet[str] = frozenset(
    {"core", "gan", "bandits", "nn", "sim", "cli"}
)

#: The modern, explicitly-seeded part of ``numpy.random`` — everything
#: else on that namespace is the legacy *global-state* API.
_ALLOWED_NP_RANDOM = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

_RULE_CLASSES: List[Type[Rule]] = []


def _register(cls: Type[Rule]) -> Type[Rule]:
    _RULE_CLASSES.append(cls)
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in registration order."""
    return [cls() for cls in _RULE_CLASSES]


def rule_by_id(rule_id: str) -> Rule:
    """The registered rule with ``rule_id`` (raises ``KeyError`` if none)."""
    for cls in _RULE_CLASSES:
        if cls.rule_id == rule_id:
            return cls()
    raise KeyError(f"no rule with id {rule_id!r}")


def _np_random_member(node: ast.expr) -> Optional[str]:
    """``"default_rng"`` for ``np.random.default_rng`` / ``numpy.random...``."""
    name = dotted_name(node)
    if name is None:
        return None
    parts = name.split(".")
    if len(parts) == 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
        return parts[2]
    return None


# --------------------------------------------------------------------- #
# Determinism
# --------------------------------------------------------------------- #


@_register
class ModuleLevelRngRule(Rule):
    """Import-time RNG construction makes stream layout depend on import
    order — the same class of silent cross-contamination PR 1 removed
    from ``RngRegistry.child``."""

    rule_id = "DET001"
    name = "module-level-rng"
    summary = "no numpy RNG calls at module import time"
    paths = "src/repro/**"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_repro()

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        yield from self._scan(ctx, ctx.tree.body)

    def _scan(
        self, ctx: ModuleContext, body: Sequence[ast.stmt]
    ) -> Iterator[Finding]:
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                # Bodies run at call time, not import time — but decorators
                # and default expressions still evaluate on import.
                if not isinstance(node, ast.Lambda):
                    stack.extend(node.decorator_list)
                stack.extend(node.args.defaults)
                stack.extend(d for d in node.args.kw_defaults if d is not None)
                continue
            if isinstance(node, ast.Call):
                member = _np_random_member(node.func)
                if member is not None:
                    yield self.finding(
                        ctx,
                        node,
                        f"np.random.{member} called at module scope; "
                        "construct RNG state inside functions and thread "
                        "it from repro.utils.seeding.RngRegistry",
                    )
            stack.extend(ast.iter_child_nodes(node))


@_register
class LegacyGlobalRngRule(Rule):
    """The legacy ``np.random.*`` API draws from hidden global state: any
    component using it reshuffles every other component's stream."""

    rule_id = "DET002"
    name = "legacy-global-rng"
    summary = "no legacy global-state numpy.random API"
    paths = "all scanned files"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            member = _np_random_member(node)
            if member is not None and member not in _ALLOWED_NP_RANDOM:
                yield self.finding(
                    ctx,
                    node,
                    f"np.random.{member} uses the hidden global generator; "
                    "draw from an explicit np.random.Generator instead",
                )


@_register
class StdlibRandomRule(Rule):
    """``random`` shares one process-global Mersenne Twister and is not
    covered by the RngRegistry's named-stream isolation."""

    rule_id = "DET003"
    name = "stdlib-random"
    summary = "no stdlib random module in seed-deterministic packages"
    paths = "src/repro/{core,mec,sim,nn,gan,bandits,workload}"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_packages(PROTECTED_PACKAGES)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            ctx,
                            node,
                            "stdlib random is process-global state; use a "
                            "numpy Generator from the RngRegistry",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        ctx,
                        node,
                        "stdlib random is process-global state; use a "
                        "numpy Generator from the RngRegistry",
                    )


@_register
class WallClockRule(Rule):
    """Wall-clock reads inside the simulated system leak real time into
    seed-deterministic outputs (``perf_counter`` for *measuring* runtime
    panels is fine — it never feeds simulation state)."""

    rule_id = "DET004"
    name = "wall-clock-entropy"
    summary = "no time.time()/datetime.now() in seed-deterministic packages"
    paths = "src/repro/{core,mec,sim,nn,gan,bandits,workload}"

    _CLOCK_TAILS = frozenset({"now", "utcnow", "today"})

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_packages(PROTECTED_PACKAGES)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            is_time = name in ("time.time", "time.time_ns")
            is_datetime = parts[-1] in self._CLOCK_TAILS and any(
                part in ("datetime", "date") for part in parts[:-1]
            )
            if is_time or is_datetime:
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() reads the wall clock inside a "
                    "seed-deterministic package; thread simulated time or "
                    "measure runtime with time.perf_counter or repro.obs",
                )


@_register
class RngConstructionRule(Rule):
    """Controllers, bandits, the NN stack, the engine and the CLI must
    *receive* Generators threaded from the RngRegistry.  Constructing one
    locally bypasses the named-stream isolation that keeps repetitions
    independent (the PR 1 child-derivation bug was exactly such a bypass)."""

    rule_id = "DET005"
    name = "rng-construction"
    summary = "no default_rng/SeedSequence construction outside sanctioned sites"
    paths = "src/repro/{core,gan,bandits,nn,sim} + repro/cli.py"

    _CONSTRUCTORS = frozenset({"default_rng", "SeedSequence"})

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_packages(THREADED_RNG_PACKAGES)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            member = _np_random_member(node.func)
            if member is None and isinstance(node.func, ast.Name):
                if node.func.id in self._CONSTRUCTORS:
                    member = node.func.id
            if member in self._CONSTRUCTORS:
                yield self.finding(
                    ctx,
                    node,
                    f"np.random.{member} constructed in a package that must "
                    "thread Generators; get a named stream from "
                    "repro.utils.seeding.RngRegistry instead",
                )


# --------------------------------------------------------------------- #
# Autograd safety
# --------------------------------------------------------------------- #


def _data_attribute_in_target(target: ast.expr) -> Optional[ast.Attribute]:
    """The ``.data`` attribute node buried in an assignment target, if any.

    Catches ``x.data = v``, ``x.data[i] = v``, ``x.data[i][j] = v`` and
    ``x.data.flat[i] = v`` — all writes that reach the tensor's buffer.
    """
    current: ast.expr = target
    while isinstance(current, (ast.Subscript, ast.Attribute)):
        if isinstance(current, ast.Attribute) and current.attr == "data":
            return current
        current = current.value
    return None


@_register
class TensorDataMutationRule(Rule):
    """In-place writes to ``Tensor.data`` outside ``repro.nn`` corrupt the
    recorded graph: backward replays stale values.  The fused kernels
    (PR 3) are bit-identical only because nothing mutates buffers behind
    the tape's back."""

    rule_id = "AG001"
    name = "tensor-data-mutation"
    summary = "no .data mutation outside repro.nn / no_grad()"
    paths = "src/repro/** except repro/nn/**"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_repro() and ctx.repro_subpackage != "nn"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                for element in _flatten_targets(target):
                    attribute = _data_attribute_in_target(element)
                    if attribute is not None and not ctx.in_no_grad(node):
                        yield self.finding(
                            ctx,
                            attribute,
                            ".data mutated outside repro.nn and outside "
                            "no_grad(); the autograd tape would replay "
                            "stale values on backward",
                        )


def _flatten_targets(target: ast.expr) -> Iterator[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten_targets(element)
    elif isinstance(target, ast.Starred):
        yield from _flatten_targets(target.value)
    else:
        yield target


@_register
class TensorDataReadRule(Rule):
    """Reading ``.data`` mid-graph silently detaches the value from
    autograd — gradients stop flowing with no error.  Outside ``repro.nn``
    raw buffers may only be read under ``no_grad()`` (metadata like
    ``.data.dtype`` / ``.data.shape`` is always safe)."""

    rule_id = "AG002"
    name = "tensor-data-read"
    summary = "no .data reads outside repro.nn unless under no_grad()"
    paths = "src/repro/** except repro/nn/**"

    _METADATA = frozenset({"dtype", "shape", "ndim", "size"})

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_repro() and ctx.repro_subpackage != "nn"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute) or node.attr != "data":
                continue
            if not isinstance(node.ctx, ast.Load):
                continue  # stores are AG001's concern
            parent = ctx.parent(node)
            if (
                isinstance(parent, ast.Attribute)
                and parent.attr in self._METADATA
            ):
                continue
            if ctx.in_no_grad(node):
                continue
            yield self.finding(
                ctx,
                node,
                ".data read outside repro.nn detaches the value from "
                "autograd; wrap the read in no_grad() (or suppress with a "
                "justification if this is not a Tensor)",
            )


# --------------------------------------------------------------------- #
# Obs hygiene
# --------------------------------------------------------------------- #


@_register
class ObsLiteralNameRule(Rule):
    """Metric/span names must be string literals.  A constructed name
    (f-string, ``%``, ``.format``, concatenation, variable) allocates on
    every call even when telemetry is disabled — breaking the measured
    zero-cost-when-off contract — and risks unbounded, run-dependent key
    sets that defeat snapshot merging."""

    rule_id = "OBS001"
    name = "obs-literal-name"
    summary = "obs.span/inc/observe/gauge names must be string literals"
    paths = "all scanned files"

    _HELPERS = frozenset({"span", "inc", "observe", "gauge"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        bare_helpers = self._bare_imports(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            helper = self._helper_name(node.func, bare_helpers)
            if helper is None or not node.args:
                continue
            name_arg = node.args[0]
            if isinstance(name_arg, ast.Constant) and isinstance(
                name_arg.value, str
            ):
                continue
            yield self.finding(
                ctx,
                name_arg,
                f"obs.{helper} name must be a string literal so the "
                "disabled path stays allocation-free and metric keys stay "
                f"deterministic; got {type(name_arg).__name__}",
            )

    def _helper_name(
        self, func: ast.expr, bare_helpers: FrozenSet[str]
    ) -> Optional[str]:
        if (
            isinstance(func, ast.Attribute)
            and func.attr in self._HELPERS
            and isinstance(func.value, ast.Name)
            and func.value.id == "obs"
        ):
            return func.attr
        if isinstance(func, ast.Name) and func.id in bare_helpers:
            return func.id
        return None

    def _bare_imports(self, ctx: ModuleContext) -> FrozenSet[str]:
        """Helper names imported directly via ``from repro.obs import ...``."""
        names = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "repro.obs",
                "repro.obs.registry",
            ):
                for alias in node.names:
                    if alias.name in self._HELPERS:
                        names.add(alias.asname or alias.name)
        return frozenset(names)


# --------------------------------------------------------------------- #
# API hygiene
# --------------------------------------------------------------------- #


@_register
class MutableDefaultRule(Rule):
    """A mutable default is created once at def-time and shared by every
    call — state leaks across invocations (and across test cases)."""

    rule_id = "API001"
    name = "mutable-default"
    summary = "no mutable default arguments"
    paths = "all scanned files"

    _MUTABLE_CALLS = frozenset(
        {
            "list",
            "dict",
            "set",
            "bytearray",
            "collections.defaultdict",
            "collections.deque",
            "collections.OrderedDict",
            "collections.Counter",
            "defaultdict",
            "deque",
            "OrderedDict",
            "Counter",
        }
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                default
                for default in node.args.kw_defaults
                if default is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx,
                        default,
                        "mutable default argument is shared across calls; "
                        "default to None and construct inside the function",
                    )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name in self._MUTABLE_CALLS
        return False


@_register
class PublicAnnotationRule(Rule):
    """The controller/engine layer is the library's contract surface; a
    missing annotation there is an undocumented degree of freedom (and
    what let the stale-capacity LP bug of PR 1 hide behind an untyped
    ``b_ub`` hand-off)."""

    rule_id = "API002"
    name = "public-annotations"
    summary = (
        "public repro.core/repro.sim/repro.serve/repro.api functions need "
        "full annotations"
    )
    paths = "src/repro/{core,sim,serve,api.py}"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_packages({"core", "sim", "serve", "api"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, stmt, is_method=False)
            elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield from self._check_function(ctx, sub, is_method=True)

    def _check_function(
        self,
        ctx: ModuleContext,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        is_method: bool,
    ) -> Iterator[Finding]:
        if node.name.startswith("_"):
            return  # private helpers and dunders are out of scope
        missing: List[str] = []
        args = node.args
        positional = args.posonlyargs + args.args
        for index, arg in enumerate(positional):
            if is_method and index == 0 and arg.arg in ("self", "cls"):
                continue
            if arg.annotation is None:
                missing.append(arg.arg)
        missing.extend(
            arg.arg for arg in args.kwonlyargs if arg.annotation is None
        )
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append(f"*{args.vararg.arg}")
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append(f"**{args.kwarg.arg}")
        if node.returns is None:
            missing.append("return")
        if missing:
            yield self.finding(
                ctx,
                node,
                f"public function {node.name!r} is missing annotations "
                f"for: {', '.join(missing)}",
            )


@_register
class KeywordOnlyFlagsRule(Rule):
    """Boolean and None-default parameters are flags: at a positional call
    site (``run_simulation(n, m, c, 100, True, False)``) nothing says
    which flag is which, and inserting a new parameter silently reshuffles
    every caller's meaning.  Once a signature accumulates two or more of
    them, they must sit behind ``*`` — this is the contract the
    checkpoint/resume API relies on (``demands_known``, ``resume``,
    ``compute_optimal``... are only safe to evolve as keywords)."""

    rule_id = "API003"
    name = "keyword-only-flags"
    summary = (
        "public repro.core/repro.sim/repro.serve/repro.api functions with "
        ">=2 bool/None-default parameters must declare them keyword-only"
    )
    paths = "src/repro/{core,sim,serve,api.py}"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_packages({"core", "sim", "serve", "api"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not stmt.name.startswith("_"):
                    yield from self._check_function(ctx, stmt)
            elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if sub.name == "__init__" or not sub.name.startswith("_"):
                            yield from self._check_function(ctx, sub)

    @staticmethod
    def _is_flag_default(node: ast.expr) -> bool:
        return isinstance(node, ast.Constant) and (
            node.value is None or isinstance(node.value, bool)
        )

    def _check_function(
        self,
        ctx: ModuleContext,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
    ) -> Iterator[Finding]:
        args = node.args
        # Positional parameters carrying a bool/None default: the defaults
        # list right-aligns against posonlyargs + args.
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        positional_flags = [
            arg.arg
            for arg, default in zip(defaulted, args.defaults, strict=True)
            if self._is_flag_default(default)
        ]
        keyword_flags = [
            arg.arg
            for arg, default in zip(args.kwonlyargs, args.kw_defaults, strict=True)
            if default is not None and self._is_flag_default(default)
        ]
        if len(positional_flags) + len(keyword_flags) < 2:
            return
        if positional_flags:
            yield self.finding(
                ctx,
                node,
                f"{node.name!r} has {len(positional_flags) + len(keyword_flags)}"
                " bool/None-default parameters but "
                f"{', '.join(repr(a) for a in positional_flags)} "
                "can still be passed positionally; move them behind '*'",
            )


# --------------------------------------------------------------------- #
# STATE pack: checkpoint coverage (project scope)
# --------------------------------------------------------------------- #

#: Packages whose classes participate in checkpoint/resume (PR 5): any
#: mutable state here that the state_dict pair misses silently breaks
#: bit-identical resume — the exact class of bug PR 6 fixed by hand.
STATE_PACKAGES: FrozenSet[str] = frozenset(
    {"core", "gan", "prediction", "bandits", "workload"}
)


def _in_state_scope(summary: ModuleSummary) -> bool:
    return (
        len(summary.module) >= 2
        and summary.module[0] == "repro"
        and summary.module[1] in STATE_PACKAGES
    )


@_register
class CheckpointPairRule(ProjectRule):
    """A class that mutates instance attributes after construction holds
    run state; if it lives in a checkpointed package it must offer the
    ``state_dict`` / ``load_state_dict`` pair (own or inherited via a
    project-resolvable base) or resume silently drops that state."""

    rule_id = "STATE001"
    name = "checkpoint-pair"
    summary = (
        "mutable classes in checkpointed packages need both state_dict "
        "and load_state_dict"
    )
    paths = "src/repro/{core,gan,prediction,bandits,workload}"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for module_name, summary in sorted(project.modules.items()):
            if not _in_state_scope(summary):
                continue
            for cls in summary.classes.values():
                if not cls.mutated_attrs:
                    continue
                has_state = project.class_provides(module_name, cls, "state_dict")
                has_load = project.class_provides(
                    module_name, cls, "load_state_dict"
                )
                if has_state and has_load:
                    continue
                missing = [
                    method
                    for method, present in (
                        ("state_dict", has_state),
                        ("load_state_dict", has_load),
                    )
                    if not present
                ]
                attrs = ", ".join(cls.mutated_attrs[:4])
                yield self.project_finding(
                    summary.path,
                    cls.site,
                    f"class {cls.name!r} mutates instance state ({attrs}) "
                    f"but provides no {' / '.join(missing)}; checkpoint "
                    "resume would silently drop that state",
                )


@_register
class CheckpointKeysRule(ProjectRule):
    """``load_state_dict`` must restore exactly the literal keys
    ``state_dict`` writes.  A key written but never restored is lost on
    resume; a key restored but never written raises (or silently
    defaults) on every real checkpoint.  Dynamically-keyed pairs are
    skipped — the rule only reasons about literal key sets."""

    rule_id = "STATE002"
    name = "checkpoint-keys"
    summary = "state_dict / load_state_dict literal key sets must match"
    paths = "src/repro/{core,gan,prediction,bandits,workload}"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for _, summary in sorted(project.modules.items()):
            if not _in_state_scope(summary):
                continue
            for cls in summary.classes.values():
                if cls.state_keys is None or cls.load_keys is None:
                    continue  # the pair rule's concern, not ours
                if cls.state_dynamic or cls.load_dynamic:
                    continue
                written = set(cls.state_keys)
                restored = set(cls.load_keys)
                if written == restored:
                    continue
                problems: List[str] = []
                lost = sorted(written - restored)
                if lost:
                    problems.append(
                        "written but never restored: " + ", ".join(lost)
                    )
                phantom = sorted(restored - written)
                if phantom:
                    problems.append(
                        "restored but never written: " + ", ".join(phantom)
                    )
                site = cls.load_site or cls.state_site or cls.site
                yield self.project_finding(
                    summary.path,
                    site,
                    f"{cls.name}.state_dict/load_state_dict key sets "
                    f"disagree ({'; '.join(problems)}); resume would not "
                    "round-trip this class",
                )


# --------------------------------------------------------------------- #
# MP pack: worker-pool safety (project scope)
# --------------------------------------------------------------------- #


@_register
class PoolCallableRule(ProjectRule):
    """Callables crossing the pool boundary are pickled by reference:
    lambdas and nested functions fail outright under spawn, and bound
    methods drag their whole instance through pickle.  The repo contract
    (PR 1/PR 8) is module-level, closure-free worker entry points."""

    rule_id = "MP001"
    name = "pool-callable"
    summary = "pool.submit targets must be module-level, closure-free functions"
    paths = "all scanned files"

    _MESSAGES = {
        "lambda": (
            "a lambda submitted to a worker pool cannot be pickled under "
            "spawn; hoist it to a module-level function"
        ),
        "nested": (
            "nested function {name!r} submitted to a worker pool closes "
            "over its defining frame; hoist it to module level"
        ),
        "self": (
            "bound method {name!r} submitted to a worker pool pickles the "
            "whole instance; use a module-level function taking explicit "
            "arguments"
        ),
    }

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for _, summary in sorted(project.modules.items()):
            for site in summary.submit_sites:
                template = self._MESSAGES.get(site.callable_kind)
                if template is None:
                    continue
                yield self.project_finding(
                    summary.path,
                    site.site,
                    template.format(name=site.callable_name),
                )


@_register
class WorkerGlobalWriteRule(ProjectRule):
    """Writes to module-global mutable state from functions that run
    inside pool workers mutate the *worker's* copy: the parent never sees
    it and results start depending on which worker ran what.  Reachability
    is the transitive closure of submitted entry points (plus pool
    initializers) over the project call index."""

    rule_id = "MP002"
    name = "worker-global-write"
    summary = "no module-global mutable state written from worker-invoked functions"
    paths = "all scanned files"

    _VIA = {
        "assign": "rebinds",
        "subscript": "writes into",
        "attribute": "mutates an attribute of",
    }

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for module_name, fn_name in sorted(project.worker_reachable_functions()):
            summary = project.modules.get(module_name)
            fn = summary.functions.get(fn_name) if summary else None
            if summary is None or fn is None:
                continue
            for write in fn.global_writes:
                if (
                    write.via != "assign"
                    and write.target not in summary.mutable_globals
                ):
                    continue
                if write.via.startswith("method:"):
                    action = f"calls .{write.via.split(':', 1)[1]}() on"
                else:
                    action = self._VIA.get(write.via, "writes")
                yield self.project_finding(
                    summary.path,
                    write.site,
                    f"{fn_name!r} runs inside pool workers and {action} "
                    f"module global {write.target!r}; the mutation stays in "
                    "one worker process and diverges from the parent",
                )


@_register
class PoolGeneratorRule(ProjectRule):
    """A ``numpy.random.Generator`` must never cross the pool boundary:
    after fork (or pickling) parent and worker continue the *same* bit
    stream, which is exactly the cross-contamination the RngRegistry's
    named streams exist to prevent.  Pass an integer seed and construct
    the Generator inside the worker."""

    rule_id = "MP003"
    name = "pool-generator"
    summary = "no numpy Generator objects across the process-pool boundary"
    paths = "all scanned files"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for module_name, summary in sorted(project.modules.items()):
            for site in summary.submit_sites:
                if site.generator_args:
                    streams = ", ".join(site.generator_args)
                    yield self.project_finding(
                        summary.path,
                        site.site,
                        f"Generator state ({streams}) passed through "
                        "pool.submit; parent and worker would continue the "
                        "same bit stream — pass an integer seed and build "
                        "the Generator inside the worker",
                    )
                    continue
                if site.callable_kind not in ("name", "attribute"):
                    continue
                if not site.callable_name:
                    continue
                resolved = project.resolve(module_name, site.callable_name)
                if resolved is None or resolved[2] != "function":
                    continue
                target = project.modules[resolved[0]].functions.get(resolved[1])
                if target is None or not target.generator_params:
                    continue
                params = ", ".join(target.generator_params)
                yield self.project_finding(
                    summary.path,
                    site.site,
                    f"{site.callable_name!r} declares Generator parameter(s) "
                    f"({params}) and is submitted to a worker pool; pass an "
                    "integer seed across the boundary instead",
                )


# --------------------------------------------------------------------- #
# OBS pack: project-wide metric-name consistency (project scope)
# --------------------------------------------------------------------- #


def _declaration_var(kind: str) -> str:
    for var, var_kind in OBS_DECLARATION_VARS.items():
        if var_kind == kind:
            return var
    return kind  # pragma: no cover - kinds and vars are defined together


@_register
class UndeclaredMetricRule(ProjectRule):
    """Every metric/span name the library emits must appear in the
    central catalogue (``repro/obs/names.py``).  Without this, a typo'd
    name silently creates a brand-new series and every dashboard keeps
    reading the stale one.  The rule is skipped when the catalogue module
    is not part of the scan (partial scans would otherwise over-report)."""

    rule_id = "OBS002"
    name = "undeclared-metric"
    summary = "obs names used in src/repro must be declared in repro.obs.names"
    paths = "src/repro/** against src/repro/obs/names.py"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        if not project.has_obs_names_module():
            return
        declared = project.obs_declarations()
        for _, summary in sorted(project.modules.items()):
            if not summary.module or summary.module[0] != "repro":
                continue
            if summary.module == OBS_NAMES_MODULE:
                continue
            for use in summary.obs_uses:
                kind = OBS_HELPER_KINDS[use.helper]
                if use.name in declared[kind]:
                    continue
                yield self.project_finding(
                    summary.path,
                    use.site,
                    f"obs.{use.helper}({use.name!r}) is not declared in "
                    f"repro/obs/names.py:{_declaration_var(kind)}; a typo "
                    "here would silently create a new series",
                )


@_register
class UnusedMetricRule(ProjectRule):
    """The reverse direction: a name declared in the catalogue that no
    scanned module emits is dead weight — usually a renamed metric whose
    declaration was left behind, which is exactly how dashboards end up
    watching series that stopped updating."""

    rule_id = "OBS003"
    name = "unused-metric"
    summary = "names declared in repro.obs.names must be emitted somewhere"
    paths = "src/repro/obs/names.py against all scanned files"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        if not project.has_obs_names_module():
            return
        used: Dict[str, set] = {kind: set() for kind in OBS_HELPER_KINDS.values()}
        for summary in project.modules.values():
            for use in summary.obs_uses:
                used[OBS_HELPER_KINDS[use.helper]].add(use.name)
        names_summary = project.modules[".".join(OBS_NAMES_MODULE)]
        for declaration in names_summary.obs_declarations:
            if declaration.name in used[declaration.kind]:
                continue
            yield self.project_finding(
                names_summary.path,
                declaration.site,
                f"{declaration.kind} {declaration.name!r} is declared in the "
                "catalogue but never emitted by any scanned module; drop it "
                "or wire the call site",
            )


# --------------------------------------------------------------------- #
# DTYPE pack: the float32 hot path (module scope)
# --------------------------------------------------------------------- #

#: The modules on the opt-in float32 hot path (PR 3 kernels, PR 6 slot
#: loop): one dtype-less constructor here silently upcasts every
#: downstream array back to float64.
HOT_PATH_MODULES: FrozenSet[Tuple[str, ...]] = frozenset(
    {
        ("repro", "core", "assignment"),
        ("repro", "core", "fastlp"),
        ("repro", "nn", "fused"),
        ("repro", "sim", "engine"),
        ("repro", "sim", "step"),
    }
)


@_register
class DtypeRequiredRule(Rule):
    """``np.zeros(n)`` defaults to float64; in a hot-path module that
    default is a silent widening of the float32 pipeline.  Every array
    constructor here must say which dtype it means (``*_like`` and
    ``asarray`` preserve their input's dtype and are exempt)."""

    rule_id = "DTYPE001"
    name = "dtype-required"
    summary = "numpy array constructors in hot-path modules need an explicit dtype"
    paths = "src/repro/{core/assignment,core/fastlp,nn/fused,sim/engine,sim/step}.py"

    #: Constructor -> positional index its dtype parameter sits at.
    _CONSTRUCTORS = {"zeros": 1, "ones": 1, "empty": 1, "full": 2, "array": 1}

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module in HOT_PATH_MODULES

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if len(parts) != 2 or parts[0] not in ("np", "numpy"):
                continue
            dtype_index = self._CONSTRUCTORS.get(parts[1])
            if dtype_index is None:
                continue
            if len(node.args) > dtype_index:
                continue  # dtype passed positionally
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            yield self.finding(
                ctx,
                node,
                f"np.{parts[1]} without an explicit dtype defaults to "
                "float64 and silently upcasts the opt-in float32 hot path; "
                "pass dtype= (the evaluator's dtype, np.float32 or "
                "np.float64) explicitly",
            )


@_register
class ImplicitFloat64Rule(Rule):
    """``dtype=float`` and ``dtype="float64"`` *are* float64 — but they
    read as "generic float", so a float32 audit greps right past them.
    Hot-path modules must spell the width (``np.float64`` /
    ``np.float32``) or thread a dtype variable, making every deliberate
    widening visible."""

    rule_id = "DTYPE002"
    name = "implicit-float64"
    summary = "hot-path dtype= arguments must spell np.float32/np.float64"
    paths = "src/repro/{core/assignment,core/fastlp,nn/fused,sim/engine,sim/step}.py"

    _IMPLICIT_STRINGS = frozenset({"float", "float64", "double"})

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module in HOT_PATH_MODULES

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            for keyword in node.keywords:
                if keyword.arg != "dtype":
                    continue
                value = keyword.value
                implicit: Optional[str] = None
                if isinstance(value, ast.Name) and value.id == "float":
                    implicit = "float"
                elif isinstance(value, ast.Constant) and (
                    isinstance(value.value, str)
                    and value.value in self._IMPLICIT_STRINGS
                ):
                    implicit = repr(value.value)
                if implicit is not None:
                    yield self.finding(
                        ctx,
                        value,
                        f"dtype={implicit} is an implicit float64 that a "
                        "float32 audit cannot see; spell np.float64 (or "
                        "thread the evaluator's dtype) to make the "
                        "widening explicit",
                    )


def rules_table() -> List[Dict[str, str]]:
    """Id/name/summary/scope/paths rows for ``--list-rules`` and the docs."""
    return [
        {
            "id": cls.rule_id,
            "name": cls.name,
            "summary": cls.summary,
            "scope": cls.scope,
            "paths": cls.paths,
        }
        for cls in _RULE_CLASSES
    ]
