"""Flow rules RPA010–RPA014: concurrency and fork safety, proved
whole-program on the :mod:`repro.analysis.callgraph` layer.

Each rule is a :class:`~repro.analysis.engine.ProjectRule`: the engine
hands it every scanned file, one :class:`~repro.analysis.callgraph.Program`
is built (and shared — the builder caches on the context list), and
findings come out anchored to real source locations, so
``# repro: noqa`` suppressions work exactly as for the per-file rules.

The rules are deliberately conservative: an unresolved call is never
evidence, an unknown type never counts as a lock or as fork-unsafe,
and a function every caller enters with a lock held counts as guarded
(the ``always-locked`` fixpoint), so helper methods factored out of a
``with self._lock:`` block do not trip RPA010.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .callgraph import (
    FORK_UNSAFE_TAGS,
    SYNCHRONIZED_TAGS,
    ClassInfo,
    FunctionInfo,
    Program,
    build_program,
)
from .engine import FileContext, Finding, ProjectRule

__all__ = [
    "FLOW_RULE_CLASSES",
    "BudgetFlowRule",
    "CacheCoherenceRule",
    "ForkCaptureRule",
    "LockBlockingRule",
    "SharedStateRule",
    "program_for",
    "thread_roots",
]

# one-slot program cache: every flow rule in one analyze() run receives
# the same context list object-for-object, so the program is built once
_cache_contexts: Optional[Tuple[FileContext, ...]] = None
_cache_program: Optional[Program] = None


def program_for(contexts: Sequence[FileContext]) -> Program:
    """Build (or reuse) the whole-program view for this context list."""
    global _cache_contexts, _cache_program
    frozen = tuple(contexts)
    if (
        _cache_program is not None
        and _cache_contexts is not None
        and len(frozen) == len(_cache_contexts)
        and all(a is b for a, b in zip(frozen, _cache_contexts))
    ):
        return _cache_program
    program = build_program(frozen)
    _cache_contexts = frozen
    _cache_program = program
    return program


def thread_roots(program: Program) -> Dict[str, str]:
    """Thread entry points: ``{function qual: why it is a root}``.

    Roots are ``run`` methods of ``threading.Thread`` subclasses,
    ``do_*`` handlers of HTTP request-handler subclasses, and every
    callable handed to ``Thread(target=...)``.  Process-pool payloads
    (``executor.submit`` / :class:`repro.harness.parallel.Unit`) run
    in forked children with no shared memory, so they only become
    roots when the *spawning* function is itself on a thread path —
    the pool degrades to serial execution on the submitter's thread,
    so those payloads can run concurrently after all.  Computed as a
    fixpoint over the call graph.
    """
    roots: Dict[str, str] = {}
    for qual in sorted(program.classes):
        cls = program.classes[qual]
        if program.is_threadlike(qual):
            run = program.lookup_method(cls, "run")
            if run is not None:
                roots.setdefault(run.qual, f"thread class {cls.name}")
        if program.is_handlerlike(qual):
            for name in sorted(cls.methods):
                if name.startswith("do_"):
                    roots.setdefault(
                        cls.methods[name].qual,
                        f"request handler {cls.name}.{name}",
                    )
    for qual in sorted(program.functions):
        for spawn in program.functions[qual].spawns:
            if spawn.kind != "thread":
                continue
            for target in spawn.targets:
                roots.setdefault(
                    target, f"thread target spawned by {qual}"
                )
    while True:
        closure = program.reachable(sorted(roots))
        added = False
        for qual in sorted(closure):
            for spawn in program.functions[qual].spawns:
                if spawn.kind not in ("submit", "unit"):
                    continue
                for target in spawn.targets:
                    if target not in roots:
                        roots[target] = (
                            f"{spawn.kind} target spawned on a "
                            f"thread path by {qual}"
                        )
                        added = True
        if not added:
            return roots


def always_locked(program: Program) -> Set[str]:
    """Functions whose *every* resolved call site holds a lock.

    Greatest fixpoint over the call graph: a function with no callers
    is never always-locked (it could be an entry point), and a cycle
    only stays locked if some lock-holding site feeds it.
    """
    incoming = program.incoming()
    locked: Dict[str, bool] = {
        qual: bool(incoming.get(qual)) for qual in program.functions
    }
    changed = True
    while changed:
        changed = False
        for qual in sorted(program.functions):
            if not locked[qual]:
                continue
            ok = all(
                site.lock_depth > 0 or locked.get(site.caller, False)
                for site in incoming.get(qual, [])
            )
            if not ok:
                locked[qual] = False
                changed = True
    return {qual for qual, flag in locked.items() if flag}


class _FlowRule(ProjectRule):
    """Shared plumbing: receive every context, emit scoped findings."""

    def __init__(self) -> None:
        self._contexts: Tuple[FileContext, ...] = ()

    def see_everything(
        self, contexts: Sequence[FileContext]
    ) -> None:
        self._contexts = tuple(contexts)

    def finalize(
        self, contexts: Sequence[FileContext]
    ) -> Iterator[Finding]:
        program = program_for(self._contexts)
        scoped = {ctx.path for ctx in contexts}
        emitted: Set[Tuple[str, int, int, str]] = set()
        for finding in self.check_program(program):
            key = (finding.path, finding.line, finding.col, finding.message)
            if finding.path in scoped and key not in emitted:
                emitted.add(key)
                yield finding

    def check_program(self, program: Program) -> Iterator[Finding]:
        raise NotImplementedError

    def _finding(
        self, program: Program, path: str, node: ast.AST, message: str
    ) -> Optional[Finding]:
        ctx = program.contexts_by_path.get(path)
        if ctx is None:
            return None
        return ctx.finding(self, node, message)


class SharedStateRule(_FlowRule):
    """RPA010 — shared mutable state reachable from threads is locked."""

    rule_id = "RPA010"
    title = "concurrency: unlocked shared mutable state on a thread path"
    rationale = """
        `picola serve` runs handler threads, a batching thread and the
        process-pool feeder against shared objects; a mutation of a
        module-level global or of an attribute on a lock-owning class
        performed without that lock is a data race (lost counter
        updates, dicts resized mid-iteration).  Mutate under the
        object's lock, make the state immutable, or route it through
        an internally synchronized structure (queue / Event /
        threading.local).
    """

    def check_program(self, program: Program) -> Iterator[Finding]:
        roots = thread_roots(program)
        closure = program.reachable(sorted(roots))
        locked = always_locked(program)

        # arm A: module-global mutation on a thread-reachable path
        for qual in sorted(closure):
            fn = program.functions[qual]
            if qual in locked:
                continue
            for site in fn.mutations:
                if site.kind != "global" or site.lock_depth > 0:
                    continue
                found = self._finding(
                    program,
                    fn.path,
                    site.node,
                    f"{qual}() mutates module global "
                    f"'{site.name}' without a lock, and is reachable "
                    "from a thread entry point; guard the mutation or "
                    "make the state immutable",
                )
                if found is not None:
                    yield found

        # arm B: classes that declare a lock promise a locking
        # discipline — every post-__init__ attribute mutation must hold
        # it (closure-independent: instances of such classes are built
        # to be shared, and indirection through resolve_tracer-style
        # seams hides them from the call graph)
        for cls_qual in sorted(program.classes):
            cls = program.classes[cls_qual]
            if not cls.has_lock_attr:
                continue
            yield from self._check_lock_owner(program, cls, locked)

        # arm C: a lockless class with any method on a thread path is
        # accessed concurrently; once that is established, *every*
        # in-place mutation of its attributes (dict/list updates,
        # += counters — not atomic rebinds) is a candidate race, even
        # in methods the graph cannot prove reachable (instances cross
        # untyped seams like resolve_tracer).  Declaring a lock moves
        # the class to the stricter arm B.
        for cls_qual in sorted(program.classes):
            cls = program.classes[cls_qual]
            if cls.has_lock_attr:
                continue
            if not any(
                method.qual in closure
                for method in cls.methods.values()
            ):
                continue
            for name in sorted(cls.methods):
                yield from self._check_method(
                    program,
                    cls,
                    cls.methods[name],
                    locked,
                    inplace_only=True,
                )

    def _check_lock_owner(
        self, program: Program, cls: ClassInfo, locked: Set[str]
    ) -> Iterator[Finding]:
        for name in sorted(cls.methods):
            yield from self._check_method(
                program, cls, cls.methods[name], locked
            )

    def _check_method(
        self,
        program: Program,
        cls: ClassInfo,
        method: FunctionInfo,
        locked: Set[str],
        inplace_only: bool = False,
    ) -> Iterator[Finding]:
        if method.name in ("__init__", "__post_init__", "__new__"):
            return  # construction happens-before sharing
        if method.qual in locked:
            return
        for site in method.mutations:
            if site.kind != "self" or site.lock_depth > 0:
                continue
            if inplace_only and site.op == "store":
                continue  # a plain rebind is atomic under the GIL
            attr_type = cls.attr_types.get(site.name)
            if attr_type in SYNCHRONIZED_TAGS:
                continue  # queue/Event/local/lock: internally safe
            if site.op == "deep" and attr_type is None:
                continue  # unknown holder: not provably shared state
            if inplace_only:
                message = (
                    f"{cls.name}.{method.name}() mutates "
                    f"'self.{site.name}' in place, and {cls.name} "
                    "instances run on thread paths (picola serve "
                    "handlers / batcher); add an instance lock and "
                    "take it around every mutation"
                )
            else:
                message = (
                    f"{cls.name}.{method.name}() mutates shared "
                    f"attribute 'self.{site.name}' without holding "
                    "the instance lock; wrap the mutation in "
                    "`with self._lock:` (or document the attribute "
                    "as immutable)"
                )
            found = self._finding(
                program, method.path, site.node, message
            )
            if found is not None:
                yield found


class ForkCaptureRule(_FlowRule):
    """RPA011 — no live locks/sockets/files cross into pool workers."""

    rule_id = "RPA011"
    title = "fork safety: live resource captured into a pool submission"
    rationale = """
        The parallel engine forks; a lock, socket, open file, executor
        or live Tracer captured into an executor.submit / Unit payload
        is duplicated mid-state in the child (a lock can be born held,
        a socket shared byte-stream), deadlocking or corrupting the
        worker.  Ship plain data (to_dict() payloads) and rebuild live
        objects worker-side.
    """

    def check_program(self, program: Program) -> Iterator[Finding]:
        for qual in sorted(program.functions):
            fn = program.functions[qual]
            for spawn in fn.spawns:
                if spawn.kind not in ("submit", "unit"):
                    continue
                for label, type_ref in spawn.arg_types:
                    held = program.holds_fork_unsafe(type_ref)
                    if held is None:
                        continue
                    found = self._finding(
                        program,
                        fn.path,
                        spawn.node,
                        f"{qual}() captures '{label}' into a "
                        f"process-pool submission, but it holds a "
                        f"live {held}; pass plain data and rebuild "
                        "the resource in the worker",
                    )
                    if found is not None:
                        yield found


class BudgetFlowRule(_FlowRule):
    """RPA012 — budgets thread through every solver call chain."""

    rule_id = "RPA012"
    title = "budget flow: call chain from Solver.solve drops the budget"
    rationale = """
        RPA001 proves each kernel loop ticks *a* budget; this rule
        proves the budget actually arrives: on every call path from a
        registry Solver.solve to the kernels, a caller holding a
        budget/deadline parameter must pass it to any callee that
        accepts one.  A dropped hop re-creates the unbounded-runtime
        hole the whole budget system exists to close.
    """

    _SOLVER_CLASS = "repro.solvers.Solver"

    def check_program(self, program: Program) -> Iterator[Finding]:
        roots: List[str] = []
        for cls_qual in [self._SOLVER_CLASS] + program.subclasses_of(
            self._SOLVER_CLASS
        ):
            cls = program.classes.get(cls_qual)
            if cls is None:
                continue
            for name in ("solve", "_run"):
                if name in cls.methods:
                    roots.append(cls.methods[name].qual)
        closure = program.reachable(roots)
        for qual in sorted(closure):
            fn = program.functions[qual]
            if not fn.budget_params:
                continue
            for site in fn.calls:
                if site.callee is None or site.is_ctor or site.partial:
                    continue
                callee = program.functions.get(site.callee)
                if callee is None or not callee.budget_params:
                    continue
                if site.passes_budget:
                    continue
                found = self._finding(
                    program,
                    fn.path,
                    site.node,
                    f"{qual}() holds "
                    f"{'/'.join(fn.budget_params)} but calls "
                    f"{callee.qual}() without passing it, on a path "
                    "from Solver.solve to the kernels; forward "
                    "budget=/deadline= so the allowance stays shared",
                )
                if found is not None:
                    yield found


class CacheCoherenceRule(_FlowRule):
    """RPA013 — cached derived state is invalidated on every exit."""

    rule_id = "RPA013"
    title = "cache coherence: mutation without unconditional invalidation"
    rationale = """
        Classes that memoize derived state (canonical forms, minterm
        counts) pair every mutator with an _invalidate()-style reset;
        a mutator that skips the reset — or only reaches it on some
        branches — serves stale answers whose wrongness surfaces far
        from the bug.  Call the invalidator unconditionally (top level
        of the method or in a finally:) on every mutation.
    """

    def check_program(self, program: Program) -> Iterator[Finding]:
        for cls_qual in sorted(program.classes):
            cls = program.classes[cls_qual]
            invalidators, cache_attrs = self._invalidators(cls)
            if not invalidators or not cache_attrs:
                continue
            for name in sorted(cls.methods):
                if name in invalidators or name in (
                    "__init__", "__post_init__", "__new__",
                ):
                    continue
                method = cls.methods[name]
                yield from self._check_mutator(
                    program, cls, method, invalidators, cache_attrs
                )

    @staticmethod
    def _invalidators(
        cls: ClassInfo,
    ) -> Tuple[Set[str], Set[str]]:
        """Methods whose whole body resets cache attrs to ``None``."""
        invalidators: Set[str] = set()
        cache_attrs: Set[str] = set()
        for name, method in cls.methods.items():
            if "invalidate" not in name:
                continue
            attrs = CacheCoherenceRule._none_resets(method.node.body)
            if attrs:
                invalidators.add(name)
                cache_attrs.update(attrs)
        return invalidators, cache_attrs

    @staticmethod
    def _none_resets(body: Sequence[ast.stmt]) -> Optional[Set[str]]:
        """``{attr, ...}`` if the body is purely ``self.X = None``."""
        attrs: Set[str] = set()
        for stmt in body:
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue  # docstring
            if not (
                isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is None
            ):
                return None
            for target in stmt.targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    return None
                attrs.add(target.attr)
        return attrs or None

    def _check_mutator(
        self,
        program: Program,
        cls: ClassInfo,
        method: FunctionInfo,
        invalidators: Set[str],
        cache_attrs: Set[str],
    ) -> Iterator[Finding]:
        mutates = [
            site
            for site in method.mutations
            if site.kind == "self"
            and site.name not in cache_attrs
            and site.op in ("store", "aug", "subscript")
        ]
        if not mutates:
            return
        top = self._invalidates_at_top(
            method.node.body, invalidators, cache_attrs
        )
        if top:
            return
        anywhere = any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in invalidators
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
            for node in ast.walk(method.node)
        )
        inv = sorted(invalidators)[0]
        if anywhere:
            message = (
                f"{cls.name}.{method.name}() mutates cached state but "
                f"only calls self.{inv}() conditionally; invalidate "
                "unconditionally (method top level or a finally:) so "
                "no exit path serves stale derived state"
            )
        else:
            message = (
                f"{cls.name}.{method.name}() mutates state the "
                f"memoized attributes ({', '.join(sorted(cache_attrs))}) "
                f"are derived from without calling self.{inv}(); "
                "stale canonical forms will be served"
            )
        found = self._finding(
            program, method.path, mutates[0].node, message
        )
        if found is not None:
            yield found

    def _invalidates_at_top(
        self,
        body: Sequence[ast.stmt],
        invalidators: Set[str],
        cache_attrs: Set[str],
    ) -> bool:
        reset: Set[str] = set()
        for stmt in body:
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Call
            ):
                call = stmt.value
                if (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr in invalidators
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id == "self"
                ):
                    return True
            if (
                isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is None
            ):
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        reset.add(target.attr)
            if isinstance(stmt, ast.Try) and self._invalidates_at_top(
                stmt.finalbody, invalidators, cache_attrs
            ):
                return True
        return bool(cache_attrs) and cache_attrs <= reset


class LockBlockingRule(_FlowRule):
    """RPA014 — nothing blocks indefinitely while holding a lock."""

    rule_id = "RPA014"
    title = "concurrency: indefinite blocking call while holding a lock"
    rationale = """
        A .join(), unbounded queue.get()/put(), Event.wait() or socket
        operation without a timeout, performed inside `with lock:`,
        turns one stuck peer into a system-wide deadlock — every other
        thread piles up on the lock.  Release the lock first, or give
        the call a timeout and handle expiry.
    """

    def check_program(self, program: Program) -> Iterator[Finding]:
        may_block = self._may_block(program)
        for qual in sorted(program.functions):
            fn = program.functions[qual]
            for block in fn.blocking:
                if block.lock_depth <= 0:
                    continue
                found = self._finding(
                    program,
                    fn.path,
                    block.node,
                    f"{qual}() performs {block.what} while holding a "
                    "lock; release the lock first or add a timeout",
                )
                if found is not None:
                    yield found
            for site in fn.calls:
                if (
                    site.lock_depth <= 0
                    or site.callee is None
                    or site.callee not in may_block
                ):
                    continue
                found = self._finding(
                    program,
                    fn.path,
                    site.node,
                    f"{qual}() calls {site.callee}() — which can "
                    "block indefinitely — while holding a lock; "
                    "restructure so the lock is released around the "
                    "blocking call",
                )
                if found is not None:
                    yield found

    @staticmethod
    def _may_block(program: Program) -> Set[str]:
        blocking = {
            qual
            for qual in program.functions
            if program.functions[qual].blocking
        }
        changed = True
        while changed:
            changed = False
            for qual in sorted(program.functions):
                if qual in blocking:
                    continue
                fn = program.functions[qual]
                if any(
                    site.callee in blocking
                    for site in fn.calls
                    if site.callee is not None
                ):
                    blocking.add(qual)
                    changed = True
        return blocking


FLOW_RULE_CLASSES: Tuple[type, ...] = (
    SharedStateRule,
    ForkCaptureRule,
    BudgetFlowRule,
    CacheCoherenceRule,
    LockBlockingRule,
)
