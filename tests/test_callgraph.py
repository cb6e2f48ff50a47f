"""Tests for the whole-program call-graph builder (PR 9) and the
flow rules RPA010-RPA014 built on top of it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import DEFAULT_RULES, analyze
from repro.analysis.callgraph import LOCK, build_program
from repro.analysis.cli import _load_contexts, main as lint_main
from repro.analysis.engine import FileContext
from repro.analysis.flow import always_locked, thread_roots
from repro.analysis.rules import KERNEL_PACKAGES


def _program(files):
    """Build a Program straight from ``{path: source}`` (no disk)."""
    contexts = [
        FileContext(path, source, ast.parse(source))
        for path, source in sorted(files.items())
    ]
    return build_program(contexts)


def _callees(program, caller):
    return [
        site.callee
        for site in program.functions[caller].calls
        if site.callee is not None
    ]


def _tree(tmp_path, files):
    root = tmp_path / "repro"
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return root


def _lint(tmp_path, files):
    return analyze(_tree(tmp_path, files), DEFAULT_RULES())


UTIL = "def helper():\n    return 1\n"


class TestResolution:
    """Name resolution fixtures: the graph edges we promise to find."""

    def test_module_alias_import(self):
        program = _program({
            "repro/util.py": UTIL,
            "repro/a.py": (
                "from repro import util as u\n"
                "\n"
                "def f():\n"
                "    return u.helper()\n"
            ),
        })
        assert "repro.util.helper" in _callees(program, "repro.a.f")

    def test_import_module_as(self):
        program = _program({
            "repro/util.py": UTIL,
            "repro/a.py": (
                "import repro.util as ru\n"
                "\n"
                "def f():\n"
                "    return ru.helper()\n"
            ),
        })
        assert "repro.util.helper" in _callees(program, "repro.a.f")

    def test_from_import_function_alias(self):
        program = _program({
            "repro/util.py": UTIL,
            "repro/a.py": (
                "from repro.util import helper as h\n"
                "\n"
                "def g():\n"
                "    return h()\n"
            ),
        })
        assert "repro.util.helper" in _callees(program, "repro.a.g")

    def test_relative_import(self):
        program = _program({
            "repro/util.py": UTIL,
            "repro/a.py": (
                "from .util import helper\n"
                "\n"
                "def g():\n"
                "    return helper()\n"
            ),
        })
        assert "repro.util.helper" in _callees(program, "repro.a.g")

    def test_package_reexport(self):
        program = _program({
            "repro/pkg/__init__.py": "from .impl import helper\n",
            "repro/pkg/impl.py": UTIL,
            "repro/a.py": (
                "from repro.pkg import helper\n"
                "\n"
                "def g():\n"
                "    return helper()\n"
            ),
        })
        assert "repro.pkg.impl.helper" in _callees(program, "repro.a.g")

    def test_method_call_via_annotation(self):
        program = _program({
            "repro/model.py": (
                "class Model:\n"
                "    def fit(self):\n"
                "        return 0\n"
            ),
            "repro/use.py": (
                "from repro.model import Model\n"
                "\n"
                "def train(m: Model):\n"
                "    return m.fit()\n"
            ),
        })
        assert "repro.model.Model.fit" in _callees(
            program, "repro.use.train"
        )

    def test_method_call_via_ctor_inference(self):
        program = _program({
            "repro/model.py": (
                "class Model:\n"
                "    def fit(self):\n"
                "        return 0\n"
            ),
            "repro/use.py": (
                "from repro.model import Model\n"
                "\n"
                "def build():\n"
                "    m = Model()\n"
                "    return m.fit()\n"
            ),
        })
        assert "repro.model.Model.fit" in _callees(
            program, "repro.use.build"
        )

    def test_inherited_method_resolves_to_base(self):
        program = _program({
            "repro/model.py": (
                "class Model:\n"
                "    def fit(self):\n"
                "        return 0\n"
            ),
            "repro/sub.py": (
                "from repro.model import Model\n"
                "\n"
                "class Sub(Model):\n"
                "    pass\n"
                "\n"
                "def run(s: Sub):\n"
                "    return s.fit()\n"
            ),
        })
        assert "repro.model.Model.fit" in _callees(
            program, "repro.sub.run"
        )

    def test_self_and_super_calls(self):
        program = _program({
            "repro/m.py": (
                "class Base:\n"
                "    def step(self):\n"
                "        return 0\n"
                "\n"
                "class Child(Base):\n"
                "    def step(self):\n"
                "        return super().step()\n"
                "    def go(self):\n"
                "        return self.step()\n"
            ),
        })
        assert "repro.m.Base.step" in _callees(
            program, "repro.m.Child.step"
        )
        assert "repro.m.Child.step" in _callees(
            program, "repro.m.Child.go"
        )

    def test_plain_decorators_recorded(self):
        program = _program({
            "repro/d.py": (
                "def wrap(fn):\n"
                "    return fn\n"
                "\n"
                "@wrap\n"
                "def inner():\n"
                "    return 2\n"
                "\n"
                "@staticmethod\n"
                "def lonely():\n"
                "    return inner()\n"
            ),
        })
        assert program.functions["repro.d.inner"].decorators == ("wrap",)
        assert program.functions["repro.d.lonely"].decorators == (
            "staticmethod",
        )
        # decoration does not break edge extraction from the body
        assert "repro.d.inner" in _callees(program, "repro.d.lonely")

    def test_functools_partial_edge(self):
        program = _program({
            "repro/p.py": (
                "import functools\n"
                "\n"
                "def worker(x):\n"
                "    return x\n"
                "\n"
                "def submitter():\n"
                "    return functools.partial(worker, 1)\n"
            ),
        })
        partials = [
            site
            for site in program.functions["repro.p.submitter"].calls
            if site.partial
        ]
        assert [site.callee for site in partials] == ["repro.p.worker"]

    def test_bare_partial_import(self):
        program = _program({
            "repro/p.py": (
                "from functools import partial\n"
                "\n"
                "def worker(x):\n"
                "    return x\n"
                "\n"
                "def submitter():\n"
                "    return partial(worker)\n"
            ),
        })
        assert any(
            site.partial and site.callee == "repro.p.worker"
            for site in program.functions["repro.p.submitter"].calls
        )

    def test_unresolved_external_call_is_counted_not_guessed(self):
        program = _program({
            "repro/a.py": (
                "import os.path\n"
                "\n"
                "def f():\n"
                "    return os.path.join('a', 'b')\n"
            ),
        })
        (site,) = program.functions["repro.a.f"].calls
        assert site.callee is None
        assert program.to_dict()["unresolved_calls"] == 1

    def test_nested_function_addressable(self):
        program = _program({
            "repro/n.py": (
                "def outer():\n"
                "    def inner():\n"
                "        return 1\n"
                "    return inner()\n"
            ),
        })
        assert "repro.n.outer.inner" in _callees(program, "repro.n.outer")


class TestEscapeSummaries:
    """Lock tracking, thread roots, and the always-locked fixpoint."""

    def test_with_lock_depth_tracked(self):
        program = _program({
            "repro/m.py": (
                "import threading\n"
                "\n"
                "class C:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self.n = 0\n"
                "    def locked(self):\n"
                "        with self._lock:\n"
                "            self.n += 1\n"
                "    def unlocked(self):\n"
                "        self.n += 1\n"
            ),
        })
        cls = program.classes["repro.m.C"]
        assert cls.attr_types["_lock"] == LOCK
        assert cls.has_lock_attr
        (locked,) = [
            s for s in cls.methods["locked"].mutations if s.name == "n"
        ]
        (unlocked,) = [
            s for s in cls.methods["unlocked"].mutations if s.name == "n"
        ]
        assert locked.lock_depth > 0
        assert unlocked.lock_depth == 0

    def test_thread_roots(self):
        program = _program({
            "repro/t.py": (
                "import threading\n"
                "\n"
                "class Pump(threading.Thread):\n"
                "    def run(self):\n"
                "        return 0\n"
                "\n"
                "def payload():\n"
                "    return 1\n"
                "\n"
                "def start():\n"
                "    threading.Thread(target=payload).start()\n"
            ),
        })
        roots = thread_roots(program)
        assert "repro.t.Pump.run" in roots
        assert "repro.t.payload" in roots
        assert "repro.t.start" not in roots

    def test_handler_do_methods_are_roots(self):
        program = _program({
            "repro/h.py": (
                "from http.server import BaseHTTPRequestHandler\n"
                "\n"
                "class H(BaseHTTPRequestHandler):\n"
                "    def do_GET(self):\n"
                "        return 0\n"
                "    def helper(self):\n"
                "        return 1\n"
            ),
        })
        roots = thread_roots(program)
        assert "repro.h.H.do_GET" in roots
        assert "repro.h.H.helper" not in roots

    def test_always_locked_helper(self):
        program = _program({
            "repro/m.py": (
                "import threading\n"
                "\n"
                "_LOCK = threading.Lock()\n"
                "\n"
                "def _bump(state):\n"
                "    state['n'] = 1\n"
                "\n"
                "def public(state):\n"
                "    with _LOCK:\n"
                "        _bump(state)\n"
            ),
        })
        locked = always_locked(program)
        assert "repro.m._bump" in locked
        assert "repro.m.public" not in locked


# sources shared by the determinism and --graph tests; unprefixed keys
# are written under a ``repro`` tree root by ``_tree``, prefixed ones
# feed ``_program`` directly — both name the modules ``repro.*``
GRAPH_SOURCES = {
    "util.py": UTIL,
    "a.py": (
        "from repro import util as u\n"
        "\n"
        "def f():\n"
        "    return u.helper()\n"
    ),
    "b.py": (
        "from repro.a import f\n"
        "\n"
        "def g():\n"
        "    return f() + 1\n"
    ),
}


class TestDeterminism:
    """Graph output is a pure function of the sources."""

    FILES = {f"repro/{rel}": src for rel, src in GRAPH_SOURCES.items()}

    def test_two_builds_byte_identical(self):
        first = json.dumps(
            _program(self.FILES).to_dict(), indent=2, sort_keys=True
        )
        second = json.dumps(
            _program(self.FILES).to_dict(), indent=2, sort_keys=True
        )
        assert first == second

    def test_real_tree_two_builds_byte_identical(self):
        root = Path(repro.__file__).parent / "analysis"
        first = build_program(_load_contexts([root])).to_dict()
        second = build_program(_load_contexts([root])).to_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_stable_across_hash_seeds(self):
        """The JSON dump must not depend on PYTHONHASHSEED."""
        root = Path(repro.__file__).parent / "analysis"
        src_dir = Path(repro.__file__).parent.parent
        code = (
            "import hashlib, json, sys\n"
            "from pathlib import Path\n"
            "from repro.analysis.cli import _load_contexts\n"
            "from repro.analysis.callgraph import build_program\n"
            "program = build_program(_load_contexts([Path(sys.argv[1])]))\n"
            "doc = json.dumps(program.to_dict(), indent=2, sort_keys=True)\n"
            "print(hashlib.sha256(doc.encode()).hexdigest())\n"
        )
        digests = set()
        for seed in ("0", "1"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = str(src_dir)
            proc = subprocess.run(
                [sys.executable, "-c", code, str(root)],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            digests.add(proc.stdout.strip())
        assert len(digests) == 1


class TestSolverSelfCheck:
    """Every registry solver must reach at least one kernel loop."""

    @pytest.fixture(scope="class")
    def program(self):
        return build_program(
            _load_contexts([Path(repro.__file__).parent])
        )

    @pytest.mark.parametrize(
        "solver",
        ["PicolaSolver", "ExactSolver", "NovaSolver",
         "MustangSolver", "EncSolver"],
    )
    def test_solver_reaches_kernel_loop(self, program, solver):
        root = f"repro.solvers.{solver}._run"
        assert root in program.functions
        closure = program.reachable([root])
        looped = [
            qual
            for qual in closure
            if any(
                program.functions[qual].path.startswith(pkg)
                for pkg in KERNEL_PACKAGES
            )
            and any(
                isinstance(node, (ast.For, ast.While))
                for node in ast.walk(program.functions[qual].node)
            )
        ]
        assert looped, f"{root} reaches no kernel loop"

    def test_graph_covers_whole_package(self, program):
        doc = program.to_dict()
        assert len(doc["modules"]) > 50
        assert len(doc["edges"]) > 500


THREADED_GLOBAL_BAD = (
    "import threading\n"
    "\n"
    "COUNTS = {}\n"
    "\n"
    "def payload():\n"
    "    COUNTS['n'] = COUNTS.get('n', 0) + 1\n"
    "\n"
    "def start():\n"
    "    threading.Thread(target=payload).start()\n"
)

THREADED_GLOBAL_GOOD = (
    "import threading\n"
    "\n"
    "COUNTS = {}\n"
    "_LOCK = threading.Lock()\n"
    "\n"
    "def payload():\n"
    "    with _LOCK:\n"
    "        COUNTS['n'] = COUNTS.get('n', 0) + 1\n"
    "\n"
    "def start():\n"
    "    threading.Thread(target=payload).start()\n"
)

LOCK_OWNER_BAD = (
    "import threading\n"
    "\n"
    "class Stats:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self.total = 0\n"
    "    def bump(self):\n"
    "        self.total += 1\n"
)

LOCK_OWNER_GOOD = (
    "import threading\n"
    "\n"
    "class Stats:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self.total = 0\n"
    "    def bump(self):\n"
    "        with self._lock:\n"
    "            self.total += 1\n"
)


class TestSharedStateRule:
    """RPA010 fixtures."""

    def test_unlocked_global_on_thread_path(self, tmp_path):
        report = _lint(tmp_path, {"svc/m.py": THREADED_GLOBAL_BAD})
        (finding,) = report.findings_for("RPA010")
        assert "COUNTS" in finding.message

    def test_locked_global_is_clean(self, tmp_path):
        report = _lint(tmp_path, {"svc/m.py": THREADED_GLOBAL_GOOD})
        assert report.findings_for("RPA010") == []

    def test_global_off_thread_path_is_clean(self, tmp_path):
        source = (
            "COUNTS = {}\n"
            "\n"
            "def payload():\n"
            "    COUNTS['n'] = 1\n"
        )
        report = _lint(tmp_path, {"svc/m.py": source})
        assert report.findings_for("RPA010") == []

    def test_lock_owner_unlocked_mutation(self, tmp_path):
        report = _lint(tmp_path, {"svc/m.py": LOCK_OWNER_BAD})
        (finding,) = report.findings_for("RPA010")
        assert "self.total" in finding.message

    def test_lock_owner_guarded_mutation_clean(self, tmp_path):
        report = _lint(tmp_path, {"svc/m.py": LOCK_OWNER_GOOD})
        assert report.findings_for("RPA010") == []

    def test_lock_owner_init_exempt(self, tmp_path):
        # __init__ happens-before sharing: only bump() may be flagged
        report = _lint(tmp_path, {"svc/m.py": LOCK_OWNER_BAD})
        (finding,) = report.findings_for("RPA010")
        assert "bump" in finding.message

    def test_helper_called_only_under_lock_is_clean(self, tmp_path):
        source = (
            "import threading\n"
            "\n"
            "class Stats:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.total = 0\n"
            "    def _bump_locked(self):\n"
            "        self.total += 1\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._bump_locked()\n"
        )
        report = _lint(tmp_path, {"svc/m.py": source})
        assert report.findings_for("RPA010") == []

    def test_lockless_class_on_thread_path(self, tmp_path):
        source = (
            "import threading\n"
            "\n"
            "class Meter:\n"
            "    def __init__(self):\n"
            "        self.counts = {}\n"
            "    def bump(self, key):\n"
            "        self.counts[key] = self.counts.get(key, 0) + 1\n"
            "\n"
            "def start(m: Meter):\n"
            "    threading.Thread(target=m.bump).start()\n"
        )
        report = _lint(tmp_path, {"svc/m.py": source})
        (finding,) = report.findings_for("RPA010")
        assert "Meter" in finding.message and "counts" in finding.message


class TestForkCaptureRule:
    """RPA011 fixtures."""

    def test_lock_holder_captured_into_submit(self, tmp_path):
        source = (
            "import threading\n"
            "\n"
            "class Holder:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "\n"
            "def work(h):\n"
            "    return h\n"
            "\n"
            "def feed(pool):\n"
            "    h = Holder()\n"
            "    pool.submit(work, h)\n"
        )
        report = _lint(tmp_path, {"svc/m.py": source})
        (finding,) = report.findings_for("RPA011")
        assert "lock" in finding.message

    def test_plain_data_capture_is_clean(self, tmp_path):
        source = (
            "def work(payload):\n"
            "    return payload\n"
            "\n"
            "def feed(pool):\n"
            "    pool.submit(work, {'n': 1})\n"
        )
        report = _lint(tmp_path, {"svc/m.py": source})
        assert report.findings_for("RPA011") == []

    def test_transitive_resource_through_attribute(self, tmp_path):
        source = (
            "class Sink:\n"
            "    def __init__(self):\n"
            "        self.fh = open('x')\n"
            "\n"
            "class Wrapper:\n"
            "    def __init__(self, sink: Sink):\n"
            "        self.sink = sink\n"
            "\n"
            "def work(w):\n"
            "    return w\n"
            "\n"
            "def feed(pool, w: Wrapper):\n"
            "    pool.submit(work, w)\n"
        )
        report = _lint(tmp_path, {"svc/m.py": source})
        (finding,) = report.findings_for("RPA011")
        assert "file" in finding.message


class TestBudgetFlowRule:
    """RPA012 fixtures (solver fixture shadows repro.solvers)."""

    BAD = (
        "class Solver:\n"
        "    def solve(self, cset, budget=None):\n"
        "        return run_kernel(cset, budget)\n"
        "\n"
        "def run_kernel(cset, budget=None):\n"
        "    return helper(cset)\n"
        "\n"
        "def helper(cset, budget=None):\n"
        "    return cset\n"
    )

    GOOD = (
        "class Solver:\n"
        "    def solve(self, cset, budget=None):\n"
        "        return run_kernel(cset, budget)\n"
        "\n"
        "def run_kernel(cset, budget=None):\n"
        "    return helper(cset, budget=budget)\n"
        "\n"
        "def helper(cset, budget=None):\n"
        "    return cset\n"
    )

    def test_dropped_budget_hop(self, tmp_path):
        report = _lint(tmp_path, {"solvers.py": self.BAD})
        (finding,) = report.findings_for("RPA012")
        assert "helper" in finding.message

    def test_forwarded_budget_is_clean(self, tmp_path):
        report = _lint(tmp_path, {"solvers.py": self.GOOD})
        assert report.findings_for("RPA012") == []

    def test_off_solver_path_not_flagged(self, tmp_path):
        source = (
            "def run_kernel(cset, budget=None):\n"
            "    return helper(cset)\n"
            "\n"
            "def helper(cset, budget=None):\n"
            "    return cset\n"
        )
        report = _lint(tmp_path, {"solvers.py": source})
        assert report.findings_for("RPA012") == []


class TestCacheCoherenceRule:
    """RPA013 fixtures."""

    HEAD = (
        "class Cover:\n"
        "    def __init__(self):\n"
        "        self.cubes = []\n"
        "        self._canon = None\n"
        "    def _invalidate(self):\n"
        "        self._canon = None\n"
    )

    def test_mutator_without_invalidation(self, tmp_path):
        source = self.HEAD + (
            "    def add(self, cube):\n"
            "        self.cubes += [cube]\n"
        )
        report = _lint(tmp_path, {"cubes/m.py": source})
        (finding,) = report.findings_for("RPA013")
        assert "_invalidate" in finding.message

    def test_conditional_invalidation_flagged(self, tmp_path):
        source = self.HEAD + (
            "    def add(self, cube):\n"
            "        self.cubes += [cube]\n"
            "        if cube:\n"
            "            self._invalidate()\n"
        )
        report = _lint(tmp_path, {"cubes/m.py": source})
        (finding,) = report.findings_for("RPA013")
        assert "conditionally" in finding.message

    def test_unconditional_invalidation_clean(self, tmp_path):
        source = self.HEAD + (
            "    def add(self, cube):\n"
            "        self.cubes += [cube]\n"
            "        self._invalidate()\n"
        )
        report = _lint(tmp_path, {"cubes/m.py": source})
        assert report.findings_for("RPA013") == []

    def test_finally_invalidation_clean(self, tmp_path):
        source = self.HEAD + (
            "    def add(self, cube):\n"
            "        try:\n"
            "            self.cubes += [cube]\n"
            "        finally:\n"
            "            self._invalidate()\n"
        )
        report = _lint(tmp_path, {"cubes/m.py": source})
        assert report.findings_for("RPA013") == []

    def test_inline_none_reset_clean(self, tmp_path):
        source = self.HEAD + (
            "    def add(self, cube):\n"
            "        self.cubes += [cube]\n"
            "        self._canon = None\n"
        )
        report = _lint(tmp_path, {"cubes/m.py": source})
        assert report.findings_for("RPA013") == []


class TestLockBlockingRule:
    """RPA014 fixtures."""

    def test_unbounded_get_under_lock(self, tmp_path):
        source = (
            "import queue\n"
            "import threading\n"
            "\n"
            "_LOCK = threading.Lock()\n"
            "_Q = queue.Queue()\n"
            "\n"
            "def drain():\n"
            "    with _LOCK:\n"
            "        return _Q.get()\n"
        )
        report = _lint(tmp_path, {"svc/m.py": source})
        (finding,) = report.findings_for("RPA014")
        assert "queue.get" in finding.message

    def test_get_with_timeout_clean(self, tmp_path):
        source = (
            "import queue\n"
            "import threading\n"
            "\n"
            "_LOCK = threading.Lock()\n"
            "_Q = queue.Queue()\n"
            "\n"
            "def drain():\n"
            "    with _LOCK:\n"
            "        return _Q.get(timeout=1.0)\n"
        )
        report = _lint(tmp_path, {"svc/m.py": source})
        assert report.findings_for("RPA014") == []

    def test_blocking_call_outside_lock_clean(self, tmp_path):
        source = (
            "import queue\n"
            "\n"
            "_Q = queue.Queue()\n"
            "\n"
            "def drain():\n"
            "    return _Q.get()\n"
        )
        report = _lint(tmp_path, {"svc/m.py": source})
        assert report.findings_for("RPA014") == []

    def test_transitive_blocking_call_under_lock(self, tmp_path):
        source = (
            "import queue\n"
            "import threading\n"
            "\n"
            "_LOCK = threading.Lock()\n"
            "_Q = queue.Queue()\n"
            "\n"
            "def fetch():\n"
            "    return _Q.get()\n"
            "\n"
            "def locked_fetch():\n"
            "    with _LOCK:\n"
            "        return fetch()\n"
        )
        report = _lint(tmp_path, {"svc/m.py": source})
        findings = report.findings_for("RPA014")
        assert any("locked_fetch" in f.message for f in findings)

    def test_thread_join_under_lock(self, tmp_path):
        source = (
            "import threading\n"
            "\n"
            "_LOCK = threading.Lock()\n"
            "\n"
            "def stop(worker: threading.Thread):\n"
            "    with _LOCK:\n"
            "        worker.join()\n"
        )
        report = _lint(tmp_path, {"svc/m.py": source})
        (finding,) = report.findings_for("RPA014")
        assert "join" in finding.message


class TestFlowCliIntegration:
    """Flow findings through the CLI: noqa, --graph, --format github."""

    def test_same_line_noqa_suppresses_flow_finding(self, tmp_path):
        suppressed = LOCK_OWNER_BAD.replace(
            "self.total += 1",
            "self.total += 1  # repro: noqa[RPA010] -- test fixture",
        )
        report = _lint(tmp_path, {"svc/m.py": suppressed})
        assert report.findings_for("RPA010") == []
        assert any(
            f.rule == "RPA010" for f, _ in report.suppressed
        )

    def test_graph_json_dump(self, tmp_path, capsys):
        root = _tree(tmp_path, GRAPH_SOURCES)
        assert lint_main([str(root), "--graph", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {
            "modules", "functions", "classes", "edges",
            "unresolved_calls",
        }
        edges = {
            (e["caller"], e["callee"]) for e in doc["edges"]
        }
        assert ("repro.a.f", "repro.util.helper") in edges
        assert ("repro.b.g", "repro.a.f") in edges

    def test_github_format(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        root = _tree(tmp_path, {"fsm/m.py": "raise ValueError('x')\n"})
        assert lint_main(
            ["repro", "--format", "github"]
        ) == 1
        out = capsys.readouterr().out
        assert (
            "::error file=repro/fsm/m.py,line=1,col=1,"
            "title=RPA004::" in out
        )
        assert out.rstrip().splitlines()[-1].endswith("1 finding")

    def test_github_format_prefix(self, tmp_path, capsys, monkeypatch):
        # the prefix is the scan root's parent relative to the cwd,
        # e.g. src/ when linting src/repro from the repository root
        monkeypatch.chdir(tmp_path)
        _tree(tmp_path / "src", {"fsm/m.py": "raise ValueError('x')\n"})
        assert lint_main(["src/repro", "--format", "github"]) == 1
        assert "::error file=src/repro/fsm/m.py," in capsys.readouterr().out

    def test_github_format_escapes_message(self, tmp_path, capsys):
        # a message containing % or newlines must not break the
        # workflow-command framing
        from repro.analysis.engine import AnalysisReport, Finding
        from repro.analysis.report import render_github

        finding = Finding(
            rule="RPA999",
            path="repro/x.py",
            line=1,
            col=1,
            message="100% bad\nsecond line",
        )
        text = render_github(
            AnalysisReport(findings=[finding], files_checked=1)
        )
        (command,) = [
            line for line in text.splitlines()
            if line.startswith("::error")
        ]
        assert "\n" not in command
        assert "100%25 bad%0Asecond line" in command
