"""Pass 3 — project-specific AST lint rules (codes ``RSC3xx``).

A small set of rules, each born from an invariant the rest of the
codebase relies on, enforced with :mod:`ast` visitors — no third-party
linter needed, so the gate runs anywhere the package imports:

``RSC301`` — no unseeded randomness.
    Every experiment and simulation in this repository must be
    reproducible from its seed. Calling module-level ``random.random()``
    / ``random.choice`` etc. (or constructing ``random.Random()`` /
    ``random.SystemRandom()`` without a seed) draws from hidden global
    or OS state; randomness must flow from an explicitly seeded
    ``random.Random(seed)`` injected into the consumer.

``RSC302`` — no wall-clock inside ``repro.sim`` / ``repro.runtime`` /
    ``repro.obs``.
    Simulated time is the only clock those layers may observe
    (``Simulator.now``); reading ``time.time()`` or ``datetime.now()``
    there makes runs machine-dependent and unrepeatable — and for
    ``repro.obs`` it would break the byte-identical trace guarantee.
    The rule is scoped to those packages — benchmarks may measure real
    time.

``RSC303`` — message-passing discipline.
    Inter-node effects must travel through the message bus: a message
    handler may not call another process's ``handle_message`` directly
    (re-entrant delivery skips the bus's ordering and accounting) and
    may not reach into ``hosts[...]`` to touch another node's state.
    The rule is scoped to handler *contexts*: ``handle_message`` /
    ``_handle*`` methods of classes that define ``handle_message``,
    plus closures registered as asynchronous continuations — assigned
    into a ``_pending`` reply table or passed as ``on_undeliverable``
    / ``on_timeout`` to ``bus.send``/``call`` — which run later, in
    message-delivery context. Test drivers and the bus itself deliver
    directly by design.

``RSC304`` — no mutable default arguments.
    The classic Python footgun; every occurrence in a long-lived
    system is a latent cross-call state leak.

``RSC307`` — pooled hot-path records are constructed only in their
    home module.
    The bus's ``Envelope`` is freelist-pooled: its home module resets
    every mutable field on reuse and stamps a ``generation`` so stale
    references are detectable. A direct ``Envelope(...)`` call anywhere
    else in ``repro.*`` bypasses the pool — the record never recycles,
    the pool's created/reused accounting lies, and a future field
    added to the class gets initialised in one place but not the
    other. Let the bus build envelopes. Tests and fixtures are exempt
    — the rule is scoped to ``repro.*``.

``RSC308`` — committed scenario specs must validate.
    The declarative scenario library (``repro.scenarios``) is data the
    smoke matrix and the sanitizer both load at run time; a spec
    file under a ``scenarios/library/`` directory that fails schema
    validation would otherwise only surface when the matrix runs. The
    lint walk validates every ``.json``/``.toml`` spec it finds there
    (and any spec file passed to it directly) through the same
    validator ``repro smoke`` uses, reporting each schema problem as
    its own finding with the validator's actionable dotted-path
    message.

``RSC306`` — no eager string formatting at observability record calls.
    ``repro.obs`` hook sites run on the simulator/runtime hot paths and
    are designed to cost one attribute load and a truthiness test when
    instrumentation is off — but an f-string, ``"..." % x`` or
    ``"...".format(x)`` in the *argument list* of a record call is
    evaluated before the call regardless of whether the recorder is
    enabled, silently re-introducing per-event allocation. Metrics are
    keyed by name + label *tuples* and trace args carry raw values;
    formatting belongs in the exporters, at export time.

Use :func:`lint_source` for one buffer, :func:`lint_paths` for files
and directory trees.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.staticcheck.diagnostics import Report

#: ``time`` functions that read the host clock.
_WALL_CLOCK_TIME = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "localtime",
    "gmtime",
    "ctime",
}

#: ``datetime``/``date`` constructors that read the host clock.
_WALL_CLOCK_DATETIME = {"now", "utcnow", "today"}

#: Packages in which RSC302 applies.
_SIM_TIME_PACKAGES = ("repro.sim", "repro.runtime", "repro.obs")

#: Names whose zero-argument call still yields seeded behaviour.
_SEEDABLE_CLASSES = {"Random"}

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_BUILTINS = {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter"}

#: Keyword arguments that register a closure as a message-time callback.
_CALLBACK_KWARGS = ("on_undeliverable", "on_timeout")

#: Receiver-name fragments that mark a method call as an observability
#: record call for RSC306 (``obs.token_hop``, ``recorder.bus_sent``,
#: ``self.metrics.counter``, ``trace.add``, ``_obs.ACTIVE...``).
_OBS_RECEIVER_FRAGMENTS = ("obs", "recorder", "metrics", "trace")

#: Freelist-pooled record types and the one module allowed to construct
#: each (RSC307). Exact class names — subclasses or lookalikes in tests
#: are out of scope, as is any module outside ``repro.``.
_POOLED_TYPES: Dict[str, str] = {
    "Envelope": "repro.sim.node",
}


def _is_obs_receiver(node: ast.expr) -> bool:
    """Whether a call receiver names an observability object."""
    for sub in ast.walk(node):
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        if name is None:
            continue
        if name == "ACTIVE":
            return True
        lowered = name.lower()
        if any(fragment in lowered for fragment in _OBS_RECEIVER_FRAGMENTS):
            return True
    return False


def _eager_format(node: ast.expr) -> Optional[Tuple[str, int]]:
    """The first eager string-formatting expression under ``node``.

    Returns ``(description, line)`` for an f-string, a ``%`` format on
    a string literal, or a ``str.format`` call — all of which execute
    *before* the enclosing record call, whether or not the recorder is
    enabled. Bodies of nested lambdas/defs are skipped (deferred code
    is not evaluated at the call site).
    """
    if isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
        return None
    if isinstance(node, ast.JoinedStr):
        return ("f-string", node.lineno)
    if (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mod)
        and isinstance(node.left, ast.Constant)
        and isinstance(node.left.value, str)
    ):
        return ("%-formatted string", node.lineno)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "format"
        and isinstance(node.func.value, ast.Constant)
        and isinstance(node.func.value.value, str)
    ):
        return ("str.format() call", node.lineno)
    for child in ast.iter_child_nodes(node):
        found = _eager_format(child)
        if found is not None:
            return found
    return None


def _registered_closures(tree: ast.AST) -> Set[int]:
    """``id()``s of closures that will run in message-delivery context.

    A closure is *registered* when it is assigned into a ``_pending``
    reply table (``self._pending[call_id] = fn``) or passed as an
    ``on_undeliverable`` / ``on_timeout`` keyword — from then on it is
    a message handler in everything but name, and RSC303 applies inside
    it. Both lambdas and nested ``def``s referenced by name count.
    """
    marked: Set[int] = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nested = {
            fn.name: fn
            for fn in ast.walk(scope)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn is not scope
        }

        def resolve(value: ast.expr) -> Optional[ast.AST]:
            if isinstance(value, ast.Lambda):
                return value
            if isinstance(value, ast.Name):
                return nested.get(value.id)
            return None

        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Attribute)
                        and target.value.attr == "_pending"
                    ):
                        closure = resolve(node.value)
                        if closure is not None:
                            marked.add(id(closure))
            elif isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg in _CALLBACK_KWARGS:
                        closure = resolve(keyword.value)
                        if closure is not None:
                            marked.add(id(closure))
    return marked


def _module_name(filename: str) -> str:
    """Dotted module path of a file, rooted at the ``repro`` package
    when present (``.../src/repro/sim/node.py`` -> ``repro.sim.node``)."""
    parts = os.path.normpath(filename).split(os.sep)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    stem = [p for p in parts if p]
    if stem and stem[-1].endswith(".py"):
        stem[-1] = stem[-1][:-3]
    return ".".join(stem)


class _LintVisitor(ast.NodeVisitor):
    """One traversal applying all rules; context-aware via stacks."""

    def __init__(self, filename: str, module: str, report: Report):
        self.filename = filename
        self.module = module
        self.report = report
        self.sim_scoped = module.startswith(_SIM_TIME_PACKAGES)
        #: Aliases of the random/time/datetime modules in this file.
        self.random_modules: Set[str] = set()
        self.time_modules: Set[str] = set()
        self.datetime_modules: Set[str] = set()
        #: Bare names bound by ``from random import X as Y`` (Y -> X),
        #: and likewise for time/datetime.
        self.random_names: Dict[str, str] = {}
        self.time_names: Dict[str, str] = {}
        self.datetime_classes: Set[str] = set()
        self.class_stack: List[ast.ClassDef] = []
        self.handler_depth = 0
        #: Closures registered as message-time callbacks (filled in
        #: visit_Module); RSC303 treats their bodies as handler code.
        self.closure_handlers: Set[int] = set()

    def visit_Module(self, node: ast.Module) -> None:
        self.closure_handlers = _registered_closures(node)
        self.generic_visit(node)

    # -- imports --------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self.random_modules.add(bound)
            elif alias.name == "time":
                self.time_modules.add(bound)
            elif alias.name == "datetime":
                self.datetime_modules.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name
            if node.module == "random":
                self.random_names[bound] = alias.name
            elif node.module == "time":
                self.time_names[bound] = alias.name
            elif node.module == "datetime" and alias.name in ("datetime", "date"):
                self.datetime_classes.add(bound)
        self.generic_visit(node)

    # -- context tracking ----------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node)
        try:
            handler_class = any(
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "handle_message"
                for item in node.body
            )
            for item in node.body:
                if (
                    handler_class
                    and isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and (item.name == "handle_message" or item.name.startswith("_handle"))
                ):
                    self.handler_depth += 1
                    self.visit(item)
                    self.handler_depth -= 1
                else:
                    self.visit(item)
        finally:
            self.class_stack.pop()

    def _check_defaults(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + [d for d in args.kw_defaults if d is not None]:
            mutable = isinstance(default, _MUTABLE_LITERALS) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_BUILTINS
                and not default.args
                and not default.keywords
            )
            if mutable:
                name = getattr(node, "name", "<lambda>")
                self.report.add(
                    "RSC304",
                    "mutable default argument in %s(); use None and create "
                    "inside the body" % name,
                    self.filename,
                    line=default.lineno,
                )

    def _visit_function(self, node) -> None:
        self._check_defaults(node)
        if id(node) in self.closure_handlers:
            self.handler_depth += 1
            try:
                self.generic_visit(node)
            finally:
                self.handler_depth -= 1
        else:
            self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_function(node)

    # -- calls ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            self._check_attribute_call(node, func)
            self._check_pooled_construction(node, func.attr)
        elif isinstance(func, ast.Name):
            self._check_name_call(node, func)
            self._check_pooled_construction(node, func.id)
        self.generic_visit(node)

    def _check_pooled_construction(self, node: ast.Call, name: str) -> None:
        """RSC307: ``Envelope(...)`` outside the home module bypasses
        the freelist pool (and its field-reset and generation-stamp
        discipline). Scoped to ``repro.*`` so tests and fixtures may
        build records directly."""
        home = _POOLED_TYPES.get(name)
        if home is None or not self.module.startswith("repro."):
            return
        if self.module == home:
            return
        self.report.add(
            "RSC307",
            "direct %s(...) construction outside its home module %s "
            "bypasses the freelist pool; acquire through the pool API "
            "instead" % (name, home),
            self.filename,
            line=node.lineno,
        )

    def _check_attribute_call(self, node: ast.Call, func: ast.Attribute) -> None:
        base = func.value
        # RSC301: random.<fn>(...) on the module object.
        if isinstance(base, ast.Name) and base.id in self.random_modules:
            if func.attr in _SEEDABLE_CLASSES:
                if not node.args and not node.keywords:
                    self.report.add(
                        "RSC301",
                        "random.%s() constructed without a seed; pass an "
                        "explicit seed" % func.attr,
                        self.filename,
                        line=node.lineno,
                    )
            else:
                self.report.add(
                    "RSC301",
                    "module-level random.%s() draws from unseeded global "
                    "state; use an injected random.Random(seed)" % func.attr,
                    self.filename,
                    line=node.lineno,
                )
        # RSC302: wall-clock reads inside sim/runtime.
        if self.sim_scoped:
            if (
                isinstance(base, ast.Name)
                and base.id in self.time_modules
                and func.attr in _WALL_CLOCK_TIME
            ):
                self.report.add(
                    "RSC302",
                    "wall-clock time.%s() inside %s; use simulated time "
                    "(Simulator.now)" % (func.attr, self.module),
                    self.filename,
                    line=node.lineno,
                )
            if func.attr in _WALL_CLOCK_DATETIME:
                if isinstance(base, ast.Name) and (
                    base.id in self.datetime_classes or base.id in self.datetime_modules
                ):
                    self.report.add(
                        "RSC302",
                        "wall-clock %s.%s() inside %s; use simulated time"
                        % (base.id, func.attr, self.module),
                        self.filename,
                        line=node.lineno,
                    )
                elif (
                    isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id in self.datetime_modules
                ):
                    self.report.add(
                        "RSC302",
                        "wall-clock datetime.%s.%s() inside %s; use simulated "
                        "time" % (base.attr, func.attr, self.module),
                        self.filename,
                        line=node.lineno,
                    )
        # RSC306: eager label/message formatting at an observability
        # record call — evaluated even when instrumentation is off.
        if _is_obs_receiver(base):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                found = _eager_format(arg)
                if found is not None:
                    description, line = found
                    self.report.add(
                        "RSC306",
                        "%s built eagerly in the arguments of the "
                        "observability record call .%s(); pass label tuples "
                        "and raw values instead — formatting belongs in the "
                        "exporters" % (description, func.attr),
                        self.filename,
                        line=line,
                    )
        # RSC303a: re-entrant handle_message() delivery from inside a
        # handler. Scoped to handler methods: the bus and test drivers
        # deliver directly by design.
        if func.attr == "handle_message" and self.handler_depth:
            in_bus = any(cls.name == "MessageBus" for cls in self.class_stack)
            to_self = isinstance(base, ast.Name) and base.id == "self"
            if not in_bus and not to_self:
                self.report.add(
                    "RSC303",
                    "direct handle_message() call bypasses the message bus; "
                    "send through MessageBus.send instead",
                    self.filename,
                    line=node.lineno,
                )

    def _check_name_call(self, node: ast.Call, func: ast.Name) -> None:
        original = self.random_names.get(func.id)
        if original is not None:
            if original in _SEEDABLE_CLASSES:
                if not node.args and not node.keywords:
                    self.report.add(
                        "RSC301",
                        "%s() (random.%s) constructed without a seed"
                        % (func.id, original),
                        self.filename,
                        line=node.lineno,
                    )
            else:
                self.report.add(
                    "RSC301",
                    "%s() (random.%s) draws from unseeded global state; use "
                    "an injected random.Random(seed)" % (func.id, original),
                    self.filename,
                    line=node.lineno,
                )
        if self.sim_scoped:
            time_fn = self.time_names.get(func.id)
            if time_fn in _WALL_CLOCK_TIME:
                self.report.add(
                    "RSC302",
                    "wall-clock %s() (time.%s) inside %s; use simulated time"
                    % (func.id, time_fn, self.module),
                    self.filename,
                    line=node.lineno,
                )

    # -- subscripts (RSC303b) -------------------------------------------
    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self.handler_depth and isinstance(node.value, ast.Attribute):
            if node.value.attr == "hosts":
                self.report.add(
                    "RSC303",
                    "message handler reaches into hosts[...] — cross-node "
                    "state must be affected via messages only",
                    self.filename,
                    line=node.lineno,
                )
        self.generic_visit(node)


def lint_source(
    source: str,
    filename: str = "<string>",
    module: Optional[str] = None,
    report: Optional[Report] = None,
) -> Report:
    """Lint one Python source buffer; returns (or extends) a report."""
    if report is None:
        report = Report()
    if module is None:
        module = _module_name(filename)
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        report.add(
            "RSC300",
            "syntax error: %s" % exc.msg,
            filename,
            line=exc.lineno or 1,
        )
        return report
    _LintVisitor(filename, module, report).visit(tree)
    return report


#: Suffixes the RSC308 scenario-spec check accepts (mirrors
#: ``repro.scenarios.spec.SPEC_SUFFIXES``; duplicated literally so the
#: walk needs no import when no spec file is ever encountered).
_SPEC_SUFFIXES = (".json", ".toml")


def _is_spec_library_dir(dirpath: str) -> bool:
    """Whether a directory is a scenario library (``.../scenarios/library``)."""
    head, tail = os.path.split(os.path.normpath(dirpath))
    return tail == "library" and os.path.basename(head) == "scenarios"


def lint_spec_file(path: str, report: Report) -> None:
    """RSC308: validate one scenario spec file into the report.

    Emits one finding per schema problem, using the same validator and
    messages ``repro smoke`` would fail with.
    """
    from repro.scenarios.spec import spec_file_problems

    for problem in spec_file_problems(path):
        report.add(
            "RSC308",
            "invalid scenario spec: %s" % problem,
            path,
            line=1,
        )


def _iter_python_files(
    paths: Iterable[str], exclude_dirs: Sequence[str], report: Report
) -> Tuple[List[str], List[str]]:
    """Collect lintable files: ``(.py files, scenario spec files)``.

    Spec files are picked up from ``scenarios/library/`` directories
    during the walk, or when passed as an explicit file argument with a
    spec suffix.
    """
    files: List[str] = []
    spec_files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(_SPEC_SUFFIXES):
                spec_files.append(path)
            else:
                files.append(path)
            continue
        if not os.path.isdir(path):
            report.add("RSC300", "no such file or directory", path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in exclude_dirs and not d.startswith(".")
            )
            in_library = _is_spec_library_dir(dirpath)
            for name in sorted(filenames):
                if name.endswith(".py"):
                    files.append(os.path.join(dirpath, name))
                elif in_library and name.endswith(_SPEC_SUFFIXES):
                    spec_files.append(os.path.join(dirpath, name))
    return files, spec_files


def lint_paths(
    paths: Iterable[str],
    exclude_dirs: Tuple[str, ...] = ("fixtures", "__pycache__", "results"),
    report: Optional[Report] = None,
) -> Report:
    """Lint files and directory trees (recursively, ``.py`` only).

    ``exclude_dirs`` prunes directories by name — fixture trees hold
    deliberate violations for the test suite.
    """
    if report is None:
        report = Report()
    files, spec_files = _iter_python_files(paths, exclude_dirs, report)
    for filename in files:
        try:
            with open(filename, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            report.add("RSC300", "cannot read file: %s" % exc, filename)
            continue
        lint_source(source, filename, report=report)
    for filename in spec_files:
        lint_spec_file(filename, report)
    return report
