"""The rule pack: this repository's invariants as ``RPAxxx`` checks.

Each rule encodes one convention PRs 1-3 threaded through the solvers
(cooperative budgets, span hygiene, the :mod:`repro.runtime.errors`
taxonomy, determinism).  Nothing here imports
solver code — the rules inspect the AST only, so they run on trees
that do not import.

The catalog with rationales is rendered by ``picola lint
--list-rules`` and mirrored in ``docs/static-analysis.md``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .engine import FileContext, Finding, Rule

__all__ = ["DEFAULT_RULES", "RULE_CLASSES", "rules_by_id"]

#: the packages holding solver kernels (budget/determinism scope)
KERNEL_PACKAGES = (
    "repro/core/",
    "repro/encoding/",
    "repro/espresso/",
    "repro/baselines/",
)

#: where raising builtin exceptions is banned (ReproError taxonomy)
TAXONOMY_PACKAGES = KERNEL_PACKAGES + (
    "repro/cubes/",
    "repro/fsm/",
    "repro/stateassign/",
)

#: determinism scope: the kernels plus the replay-critical generators
#: (fsm simulation/synthesis and the fuzz subsystem promise that every
#: run is a pure function of its recorded seeds)
DETERMINISM_PACKAGES = KERNEL_PACKAGES + (
    "repro/fsm/",
    "repro/fuzz/",
)

#: functions whose invocation marks a loop as "doing solver work"
KERNEL_CALLS = frozenset(
    {
        "espresso",
        "espresso_pla",
        "exact_minimize",
        "expand",
        "expand_cube",
        "reduce_cover",
        "reduce_cube",
        "irredundant",
        "complement",
        "tautology",
        "cubes_for_codes",
        "cubes_for_constraint",
        "candidate_columns",
        "classify",
        "polish_encoding",
        "minimize_symbolic",
    }
)

#: parameter/variable names treated as cooperative budget handles
BUDGET_NAMES = ("budget", "deadline")


def _call_name(node: ast.Call) -> Optional[str]:
    """The bare function name of a call, if syntactically obvious."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_kernel_call(node: ast.Call) -> bool:
    if not isinstance(node.func, ast.Name):
        return False
    name = node.func.id
    return name in KERNEL_CALLS or (
        name.endswith("_encode") and not name.startswith("_")
    )


class BudgetThreadingRule(Rule):
    """RPA001 — kernel loops must tick a reachable Budget/Deadline."""

    rule_id = "RPA001"
    title = "budget-threading: kernel loop never ticks its budget"
    rationale = """
        PICOLA, espresso and the baselines are cooperative: a loop that
        calls solver kernels without ticking the in-scope Budget (or
        forwarding it to the callee) can run unbounded, silently
        defeating --timeout and the harness fault isolation (PR 1).
    """
    scope = KERNEL_PACKAGES

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._scan_body(ctx, ctx.tree, frozenset())

    def _scan_body(
        self,
        ctx: FileContext,
        node: ast.AST,
        budget_names: frozenset,
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                inherited = budget_names | self._bound_budgets(child)
                yield from self._scan_body(ctx, child, inherited)
            elif isinstance(child, (ast.For, ast.While)):
                if budget_names and not self._loop_is_covered(
                    child, budget_names
                ):
                    if self._calls_kernel(child):
                        yield ctx.finding(
                            self,
                            child,
                            "loop calls solver kernels but neither "
                            "ticks nor forwards the in-scope budget "
                            f"({', '.join(sorted(budget_names))}); "
                            "add budget.tick()/budget.check() at the "
                            "loop head or pass the budget down",
                        )
                yield from self._scan_body(ctx, child, budget_names)
            else:
                yield from self._scan_body(ctx, child, budget_names)

    @staticmethod
    def _bound_budgets(
        fn: "ast.FunctionDef | ast.AsyncFunctionDef",
    ) -> Set[str]:
        names: Set[str] = set()
        args = fn.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
        ):
            if arg.arg in BUDGET_NAMES:
                names.add(arg.arg)
        return names

    @staticmethod
    def _calls_kernel(loop: ast.AST) -> bool:
        for node in ast.walk(loop):
            if isinstance(node, ast.Call) and _is_kernel_call(node):
                return True
        return False

    @staticmethod
    def _loop_is_covered(
        loop: ast.AST, budget_names: frozenset
    ) -> bool:
        for node in ast.walk(loop):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("tick", "check")
                and isinstance(func.value, ast.Name)
                and func.value.id in budget_names
            ):
                return True
            for value in list(node.args) + [
                kw.value for kw in node.keywords
            ]:
                if (
                    isinstance(value, ast.Name)
                    and value.id in budget_names
                ):
                    return True
        return False


class SpanHygieneRule(Rule):
    """RPA002 — ``tracer.span(...)`` only as a ``with`` context."""

    rule_id = "RPA002"
    title = "span hygiene: span() used outside a with statement"
    rationale = """
        A span stored in a variable can be entered late, twice, or
        never exited on an exception path, corrupting the span stack
        and the per-phase histograms; `with tracer.span(...):` makes
        closure structural.
    """
    exempt = ("repro/obs/",)  # the framework defining span()

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        allowed: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    allowed.add(id(item.context_expr))
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "span"
                and id(node) not in allowed
            ):
                yield ctx.finding(
                    self,
                    node,
                    "span() must be used directly as a context "
                    "manager (`with tracer.span(...):`), not stored "
                    "or left open",
                )


class ExceptHygieneRule(Rule):
    """RPA003 — no silently swallowed broad exception handlers."""

    rule_id = "RPA003"
    title = "error taxonomy: broad except swallows failures"
    rationale = """
        A bare `except:` / `except Exception:` that does not re-raise
        hides BudgetExceeded, SolverTimeout and genuine bugs from the
        harness fault isolation, turning TIMEOUT/FAILED cells into
        silently wrong numbers.  Catch a ReproError subclass or
        re-raise.
    """

    _BROAD = ("Exception", "BaseException")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_name(node.type)
            if broad is None:
                continue
            if any(
                isinstance(inner, ast.Raise)
                for stmt in node.body
                for inner in ast.walk(stmt)
            ):
                continue  # converts/re-raises: a legitimate boundary
            label = broad if broad != "bare" else "bare except:"
            yield ctx.finding(
                self,
                node,
                f"broad handler ({label}) swallows the failure; "
                "catch a repro.runtime.errors class or re-raise",
            )

    def _broad_name(self, type_node) -> Optional[str]:
        if type_node is None:
            return "bare"
        if (
            isinstance(type_node, ast.Name)
            and type_node.id in self._BROAD
        ):
            return type_node.id
        if isinstance(type_node, ast.Tuple):
            for elt in type_node.elts:
                name = self._broad_name(elt)
                if name not in (None, "bare"):
                    return name
        return None


class RaiseTaxonomyRule(Rule):
    """RPA004 — solver modules raise ReproError, not builtins."""

    rule_id = "RPA004"
    title = "error taxonomy: builtin exception raised from solver code"
    rationale = """
        The CLI and per-benchmark isolation degrade gracefully only on
        ReproError; a bare ValueError/RuntimeError escaping a solver
        bypasses the taxonomy.  Use ParseError, InfeasibleError,
        InvalidSpecError, InvariantViolation or another
        repro.runtime.errors class (each doubles as the builtin it
        replaces, so callers keep working).
    """
    scope = TAXONOMY_PACKAGES

    _BANNED = ("ValueError", "RuntimeError", "Exception")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name: Optional[str] = None
            if isinstance(exc, ast.Call) and isinstance(
                exc.func, ast.Name
            ):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in self._BANNED:
                yield ctx.finding(
                    self,
                    node,
                    f"raise of builtin {name} from a solver module; "
                    "use the repro.runtime.errors taxonomy "
                    "(ParseError / InfeasibleError / InvalidSpecError "
                    "/ InvariantViolation / ...)",
                )


class DeterminismRule(Rule):
    """RPA005 — no hidden nondeterminism in encoding kernels."""

    rule_id = "RPA005"
    title = "determinism: unseeded randomness or order-dependent sets"
    rationale = """
        Encoding comparisons (Tables I/II, the sweep, the regression
        gate) are only reproducible if every kernel is a pure function
        of its inputs and seeds: module-level random, wall-clock
        branching and iterating a bare set (its order varies with
        PYTHONHASHSEED) all break replay.  Seed a random.Random, and
        sorted() any set before iterating.
    """
    scope = DETERMINISM_PACKAGES

    _RANDOM_FNS = frozenset(
        {
            "random",
            "randint",
            "randrange",
            "choice",
            "choices",
            "shuffle",
            "sample",
            "uniform",
            "getrandbits",
        }
    )
    _CLOCK = {
        "time": ("time", "time_ns"),
        "datetime": ("now", "utcnow", "today"),
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, ast.For):
                yield from self._check_iter(ctx, node, node.iter)
            elif isinstance(node, ast.comprehension):
                yield from self._check_iter(ctx, node.iter, node.iter)

    def _check_call(
        self, ctx: FileContext, node: ast.Call
    ) -> Iterator[Finding]:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
        ):
            return
        owner, attr = func.value.id, func.attr
        if owner == "random" and attr in self._RANDOM_FNS:
            yield ctx.finding(
                self,
                node,
                f"module-level random.{attr}() is unseeded; use a "
                "random.Random(seed) instance threaded through the "
                "solver",
            )
        elif attr in self._CLOCK.get(owner, ()):
            yield ctx.finding(
                self,
                node,
                f"wall-clock {owner}.{attr}() in a kernel makes runs "
                "irreproducible; clocks belong to Deadline/Tracer "
                "seams only",
            )

    def _check_iter(
        self, ctx: FileContext, at, iter_node
    ) -> Iterator[Finding]:
        if isinstance(iter_node, (ast.Set, ast.SetComp)) or (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id in ("set", "frozenset")
        ):
            yield ctx.finding(
                self,
                at,
                "iteration order of a bare set depends on "
                "PYTHONHASHSEED; wrap it in sorted() to keep column "
                "and intruder choices deterministic",
            )


class BulkKernelRule(Rule):
    """RPA008 — bulk-kernel modules stay columnar."""

    rule_id = "RPA008"
    title = "bulk kernel: per-cube Python loop or wrapper allocation"
    rationale = """
        Modules marked ``__bulk_kernel__ = True`` are the hot paths
        written on the cube-list primitives of ``repro.cubes.bulk``:
        they touch a cover only through whole-cover primitives, never
        cube by cube.  A `for cube in cover:` loop or a Cover()/Cube()
        wrapper allocation sneaking back in costs speed, not results,
        so every correctness test still passes.  Loop over index lists
        (`for idx in order:`) or call a bulk primitive instead.
    """

    _WRAPPERS = ("Cover", "Cube")
    #: iteration wrappers looked through before classifying the iterable
    _UNWRAP = frozenset({"enumerate", "sorted", "reversed", "list", "tuple"})
    #: variable names conventionally holding covers / cube lists
    _COVER_NAMES = frozenset(
        {
            "cover",
            "cubes",
            "onset",
            "dcset",
            "off",
            "offset",
            "primes",
            "care",
            "rest",
            "pieces",
            "branch",
            "comp",
            "cofactored",
            "expanded",
            "merged",
            "lowered",
            "result",
            "keep",
            "packed",
        }
    )
    #: calls whose return value is a cover (iterating one is a scalar loop)
    _COVER_PRODUCERS = frozenset(
        {
            "complement",
            "cube_complement",
            "sharp",
            "absorb",
            "espresso",
            "expand",
            "reduce_cover",
            "irredundant",
        }
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not self._is_marked(ctx.tree):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._WRAPPERS
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"{node.func.id}() wrapper allocated inside a "
                    "bulk-kernel module; hot paths work on cube lists "
                    "and bare ints only",
                )
            elif isinstance(node, ast.For):
                yield from self._check_iter(ctx, node, node.iter)
            elif isinstance(node, ast.comprehension):
                yield from self._check_iter(ctx, node.iter, node.iter)

    @staticmethod
    def _is_marked(tree: ast.Module) -> bool:
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == "__bulk_kernel__"
                        and isinstance(node.value, ast.Constant)
                        and bool(node.value.value)
                    ):
                        return True
        return False

    def _check_iter(
        self, ctx: FileContext, at, iter_node
    ) -> Iterator[Finding]:
        expr = iter_node
        while (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in self._UNWRAP
            and expr.args
        ):
            expr = expr.args[0]
        label = self._cover_label(expr)
        if label is not None:
            yield ctx.finding(
                self,
                at,
                f"per-cube Python loop over {label} in a bulk-kernel "
                "module; replace it with a bulk primitive "
                "(contains/void masks, folds, cofactors) or iterate "
                "an index list",
            )

    def _cover_label(self, expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            name = expr.id
            if (
                name in self._COVER_NAMES
                or name.endswith("cubes")
                or name.endswith("cover")
            ):
                return f"cover {name!r}"
        elif isinstance(expr, ast.Attribute):
            if expr.attr == "cubes" or expr.attr in self._COVER_NAMES:
                return f"cover attribute '.{expr.attr}'"
        elif isinstance(expr, ast.Call):
            name = _call_name(expr)
            if name in self._COVER_PRODUCERS:
                return f"cover-producing call {name}()"
        return None


#: the full pack, in catalog order
RULE_CLASSES: Tuple[type, ...] = (
    BudgetThreadingRule,
    SpanHygieneRule,
    ExceptHygieneRule,
    RaiseTaxonomyRule,
    DeterminismRule,
    BulkKernelRule,
)


def DEFAULT_RULES() -> List[Rule]:
    """Fresh instances of the rule pack."""
    return [cls() for cls in RULE_CLASSES]


def rules_by_id() -> Dict[str, type]:
    return {cls.rule_id: cls for cls in RULE_CLASSES}
