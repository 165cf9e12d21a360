#!/usr/bin/env python3
"""AST lint for the kernel/stream contracts the dataflow engine depends on.

A solved run (``dataflow/schedule.py``) must equal the engine's reference
loop bit for bit — counters, FIFO state and event traces (DESIGN.md §4.1).
That equality rests on behavioural contracts the type system cannot
express; this linter enforces them statically so a new kernel cannot
silently break it or the integer-only datapath:

KC001  ``tick()`` must return a stall classification or None — i.e. every
       return inside a Kernel subclass's ``tick`` is bare, ``None``, or one
       of ``self._starved(...)`` / ``self._blocked(...)`` / ``self._idle(...)``.
       Each helper counts the stall it returns, so every cycle a kernel
       waits lands in exactly one stall counter.  A solved run derives
       those counters, and every trace span, from the op times and the
       kernel's ``stall_order``, and the trace oracle classifies each
       ticked cycle by the counter that moved; a stall returned any other
       way would go uncounted, and the two runs could not be equal.
KC002  Kernels must not mutate streams outside ``push``/``pop``: no calls
       to mutators on a ``._fifo`` deque, and no assignments through
       attribute chains that are not rooted at ``self`` (reading
       ``stream._fifo`` on the hot path is allowed and idiomatic here).
       A solved run derives every FIFO's counters, residual elements and
       push/pop events from the op program's one push or pop per element;
       an out-of-band mutation changes the ticked FIFO in a way the solve
       cannot see, so the two runs would differ.
KC003  No float arithmetic inside ``tick`` bodies (the quantized hot
       control path): no float literals, no true division, no ``float()``
       calls.  Numeric lowering lives in helpers like ``_compute_outputs``
       and ``batch_compute``, out of the per-cycle path.  Their GEMMs are
       exact by magnitude: float32 when the layer's accumulator bound is
       below 2**24, float64 (exact below 2**53) otherwise.
KC004  ``@dataclass`` declarations in hot-path modules must pass
       ``slots=True`` — per-cycle attribute access on stats/trace records
       is measurably faster and catches typo'd fields.
KC005  A kernel's slots-dataclass state (its ``stats`` record, or any
       attribute holding a same-file slots dataclass) may only be mutated
       from ``tick()`` / ``batch_compute()`` or helpers (transitively)
       called from them.  Mutation from anywhere else — a property, a
       reporting accessor, ``render()`` — means *observing* a kernel
       changes its counters, so a ticked run's stats would no longer equal
       the solved run's, which are derived from op times alone.
KC006  A Kernel subclass that defines ``tick()`` must also define
       ``op_program()``: the timing replay solves every op's cycle from
       the op program instead of ticking, so a kernel without one has no
       schedule.
KC007  A Kernel subclass that defines ``tick()`` must declare its
       ``stall_order`` in its class body: the schedule path classifies
       every cycle a kernel waits by the first of its checks still failing
       (idle arrival, starved input, blocked output), in the order tick()
       makes them, so an inherited or missing order misclassifies stalls.

F401   An import its scope never reads (ruff's rule of that name, so hosts
       without ruff can run it): a module-level import is used when the
       module reads the name, a string annotation names it, or ``__all__``
       lists it; an import inside a function only counts uses in that
       function.  ``from __future__`` imports and lines marked
       ``# noqa`` or ``# noqa: F401`` are exempt.  It applies to any
       module, so CI runs it alone over ``src tests benchmarks``.

Usage: ``python tools/lint_kernels.py [--select KC001,KC005] [paths...]``
(default paths: the kernel and hot-path dataflow/fleet/planner modules).
Exits 1 when any violation is found.  Wired into CI next to ruff.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

DEFAULT_PATHS = [
    "src/repro/kernels",
    "src/repro/dataflow/stream.py",
    "src/repro/dataflow/kernel.py",
    "src/repro/dataflow/trace.py",
    "src/repro/fleet",
    "src/repro/planner",
]

# Base-class names that mark a class as a streaming kernel.
KERNEL_BASES = {"Kernel"}

# deque/list mutators that would bypass the stream push/pop contract.
FIFO_MUTATORS = {
    "append",
    "appendleft",
    "clear",
    "extend",
    "extendleft",
    "insert",
    "pop",
    "popleft",
    "remove",
    "rotate",
}

ALLOWED_TICK_HELPERS = {"_starved", "_blocked", "_idle"}

# KC005: entry points from which state mutation is legitimate, and attribute
# names known (by convention) to hold slots-dataclass state even when the
# dataclass is defined in another module.
KC005_ROOTS = {"tick", "batch_compute"}
KNOWN_SLOTS_STATE = {"stats"}
# Constructors may initialize state fields before the engine ever runs.
KC005_EXEMPT = {"__init__", "__post_init__"}

# KC006: the method the schedule solver reads instead of ticking.
OP_PROGRAM = "op_program"
# KC007: the class attribute the schedule path's stall derivation reads.
STALL_ORDER = "stall_order"


class Violation:
    __slots__ = ("path", "line", "code", "message")

    def __init__(self, path: Path, line: int, code: str, message: str) -> None:
        self.path = path
        self.line = line
        self.code = code
        self.message = message

    def render(self) -> str:
        try:
            shown = self.path.relative_to(REPO_ROOT)
        except ValueError:
            shown = self.path
        return f"{shown}:{self.line}: {self.code} {self.message}"


def _attr_root(node: ast.expr) -> ast.expr:
    """Innermost expression of an attribute/subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node


def _is_self_rooted(node: ast.expr) -> bool:
    root = _attr_root(node)
    return isinstance(root, ast.Name) and root.id == "self"


def _is_allowed_tick_return(node: ast.expr | None) -> bool:
    if node is None:
        return True  # bare return
    if isinstance(node, ast.Constant) and node.value is None:
        return True  # return None
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        func = node.func
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and func.attr in ALLOWED_TICK_HELPERS
        ):
            return True
    return False


def _kernel_classes(tree: ast.Module) -> list[ast.ClassDef]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for base in node.bases:
                name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)
                if name in KERNEL_BASES:
                    found.append(node)
                    break
    return found


def _check_tick_returns(path: Path, cls: ast.ClassDef, out: list[Violation]) -> None:
    for item in cls.body:
        if not (isinstance(item, ast.FunctionDef) and item.name == "tick"):
            continue
        for node in ast.walk(item):
            if isinstance(node, ast.Return) and not _is_allowed_tick_return(node.value):
                out.append(
                    Violation(
                        path,
                        node.lineno,
                        "KC001",
                        f"{cls.name}.tick must return a stall classification "
                        "(self._starved/_blocked/_idle(...)) or None",
                    )
                )


def _chain_attrs(node: ast.expr) -> set[str]:
    """Attribute names along an attribute/subscript chain."""
    attrs: set[str] = set()
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        node = node.value
    return attrs


def _is_stream_expr(node: ast.expr, stream_aliases: set[str]) -> bool:
    """Does this expression denote a stream (not the kernel's own state)?

    Streams are reached through ``self.inputs`` / ``self.outputs`` (possibly
    via a local alias like ``inp = self.inputs[0]``); everything else rooted
    at ``self`` is the kernel's own state and free to mutate.
    """
    root = _attr_root(node)
    if isinstance(root, ast.Name) and root.id in stream_aliases:
        return True
    if isinstance(root, ast.Name) and root.id == "self":
        attrs = _chain_attrs(node)
        return bool(attrs & {"inputs", "outputs"})
    return False


def _collect_aliases(func: ast.FunctionDef) -> tuple[set[str], set[str]]:
    """Local names aliasing streams and fifo deques (fixpoint over assigns)."""
    stream_aliases: set[str] = set()
    fifo_aliases: set[str] = set()
    assigns: list[tuple[ast.expr, ast.expr]] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                assigns.extend(zip(target.elts, value.elts))
            elif isinstance(target, ast.Tuple):
                assigns.extend((elt, value) for elt in target.elts)
            else:
                assigns.append((target, value))
    changed = True
    while changed:
        changed = False
        for target, value in assigns:
            if not isinstance(target, ast.Name):
                continue
            is_fifo = isinstance(value, ast.Attribute) and value.attr == "_fifo"
            if is_fifo:
                if target.id not in fifo_aliases:
                    fifo_aliases.add(target.id)
                    changed = True
            elif _is_stream_expr(value, stream_aliases):
                if target.id not in stream_aliases:
                    stream_aliases.add(target.id)
                    changed = True
    return stream_aliases, fifo_aliases


def _check_stream_mutation(path: Path, cls: ast.ClassDef, out: list[Violation]) -> None:
    for item in cls.body:
        if not isinstance(item, ast.FunctionDef):
            continue
        stream_aliases, fifo_aliases = _collect_aliases(item)

        def touches_fifo(node: ast.expr) -> bool:
            root = _attr_root(node)
            if isinstance(root, ast.Name) and root.id in fifo_aliases:
                return True
            return "_fifo" in _chain_attrs(node)

        for node in ast.walk(item):
            # Mutator call on a fifo deque: X._fifo.append(...) / fifo.popleft().
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                func = node.func
                if func.attr in FIFO_MUTATORS and touches_fifo(func.value):
                    out.append(
                        Violation(
                            path,
                            node.lineno,
                            "KC002",
                            f"{cls.name}.{item.name} mutates a stream FIFO directly "
                            f"(._fifo.{func.attr}); use Stream.push/pop",
                        )
                    )
            # Assignment into a stream or its FIFO: out.capacity = ..., fifo[0] = ...
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if not isinstance(target, (ast.Attribute, ast.Subscript)):
                    continue
                if _is_stream_expr(target, stream_aliases) or touches_fifo(target):
                    out.append(
                        Violation(
                            path,
                            node.lineno,
                            "KC002",
                            f"{cls.name}.{item.name} mutates stream state outside "
                            "Stream.push/pop",
                        )
                    )


def _check_float_free_tick(path: Path, cls: ast.ClassDef, out: list[Violation]) -> None:
    for item in cls.body:
        if not (isinstance(item, ast.FunctionDef) and item.name == "tick"):
            continue
        for node in ast.walk(item):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                out.append(
                    Violation(
                        path,
                        node.lineno,
                        "KC003",
                        f"float literal {node.value!r} in {cls.name}.tick "
                        "(quantized hot path must stay integer)",
                    )
                )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                out.append(
                    Violation(
                        path,
                        node.lineno,
                        "KC003",
                        f"true division in {cls.name}.tick "
                        "(quantized hot path must stay integer; use //)",
                    )
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                out.append(
                    Violation(
                        path,
                        node.lineno,
                        "KC003",
                        f"float() call in {cls.name}.tick (quantized hot path must stay integer)",
                    )
                )


def _dataclass_decorator(cls: ast.ClassDef) -> ast.expr | None:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return dec
    return None


def _has_slots_kwarg(dec: ast.expr) -> bool:
    return isinstance(dec, ast.Call) and any(
        kw.arg == "slots"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in dec.keywords
    )


def _check_slots_dataclasses(path: Path, tree: ast.Module, out: list[Violation]) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        dec = _dataclass_decorator(node)
        if dec is None:
            continue
        if not _has_slots_kwarg(dec):
            out.append(
                Violation(
                    path,
                    node.lineno,
                    "KC004",
                    f"dataclass {node.name} must declare slots=True in hot-path modules",
                )
            )


def _slots_dataclass_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            dec = _dataclass_decorator(node)
            if dec is not None and _has_slots_kwarg(dec):
                names.add(node.name)
    return names


def _check_state_mutation_scope(
    path: Path, cls: ast.ClassDef, slots_classes: set[str], out: list[Violation]
) -> None:
    """KC005: slots-dataclass state mutates only under tick/batch_compute."""
    methods = {
        item.name: item for item in cls.body if isinstance(item, ast.FunctionDef)
    }
    roots = KC005_ROOTS & methods.keys()
    if not roots:
        # No local entry point — mutation scope belongs to the base class
        # that defines tick(); nothing to anchor the reachability walk to.
        return

    # Which self attributes hold slots-dataclass state: the conventional
    # names, plus anything assigned a same-file slots-dataclass instance.
    state_attrs = set(KNOWN_SLOTS_STATE)
    for item in methods.values():
        for node in ast.walk(item):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and isinstance(node.value, ast.Call)
            ):
                continue
            func = node.value.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in slots_classes:
                state_attrs.add(target.attr)

    # Methods transitively reachable from the entry points via self.X() calls.
    reachable = set(roots)
    changed = True
    while changed:
        changed = False
        for name in list(reachable):
            for node in ast.walk(methods[name]):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                func = node.func
                if (
                    isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and func.attr in methods
                    and func.attr not in reachable
                ):
                    reachable.add(func.attr)
                    changed = True

    for name, item in methods.items():
        if name in reachable or name in KC005_EXEMPT:
            continue
        for node in ast.walk(item):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                # Flag self.<state>.<field> = ... (any depth below the state
                # attribute), where <state> is a slots-dataclass record.
                if not isinstance(target, (ast.Attribute, ast.Subscript)):
                    continue
                inner = target
                while isinstance(inner.value, (ast.Attribute, ast.Subscript)):  # type: ignore[union-attr]
                    inner = inner.value  # type: ignore[assignment]
                if (
                    isinstance(inner, ast.Attribute)
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id == "self"
                    and inner.attr in state_attrs
                    and inner is not target
                ):
                    out.append(
                        Violation(
                            path,
                            node.lineno,
                            "KC005",
                            f"{cls.name}.{name} mutates slots state "
                            f"self.{inner.attr} outside the tick/batch_compute "
                            "call graph",
                        )
                    )


def _check_op_program(path: Path, cls: ast.ClassDef, out: list[Violation]) -> None:
    methods = {item.name: item for item in cls.body if isinstance(item, ast.FunctionDef)}
    if "tick" in methods and OP_PROGRAM not in methods:
        out.append(
            Violation(
                path,
                methods["tick"].lineno,
                "KC006",
                f"{cls.name} defines tick() but no {OP_PROGRAM}() for the timing replay",
            )
        )


def _class_attributes(cls: ast.ClassDef) -> set[str]:
    """Names assigned (plainly or annotated) in the class body itself."""
    names: set[str] = set()
    for item in cls.body:
        if isinstance(item, ast.Assign):
            names.update(t.id for t in item.targets if isinstance(t, ast.Name))
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            names.add(item.target.id)
    return names


def _check_stall_order(path: Path, cls: ast.ClassDef, out: list[Violation]) -> None:
    methods = {item.name: item for item in cls.body if isinstance(item, ast.FunctionDef)}
    if "tick" in methods and STALL_ORDER not in _class_attributes(cls):
        out.append(
            Violation(
                path,
                methods["tick"].lineno,
                "KC007",
                f"{cls.name} defines tick() but does not declare its {STALL_ORDER}",
            )
        )


_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z]+[0-9]+(?:[\s,]+[A-Z]+[0-9]+)*))?", re.IGNORECASE)


def _noqa_lines(source: str, code: str) -> set[int]:
    """Lines whose ``# noqa`` comment is bare or names ``code``."""
    lines = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match and (match["codes"] is None or code in re.split(r"[\s,]+", match["codes"].upper())):
            lines.add(lineno)
    return lines


def _exported_names(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` (assigned or extended)."""
    names: set[str] = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        value = getattr(node, "value", None)
        if isinstance(value, (ast.List, ast.Tuple)):
            names.update(e.value for e in value.elts if isinstance(e, ast.Constant) and isinstance(e.value, str))
    return names


def _used_names(scope: ast.AST) -> set[str]:
    """Names ``scope`` reads, counting those inside string annotations."""
    used: set[str] = set()
    pending: list[ast.AST] = [scope]
    while pending:
        root = pending.pop()
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            annotation = None
            if isinstance(node, (ast.arg, ast.AnnAssign)):
                annotation = node.annotation
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                annotation = node.returns
            for const in ast.walk(annotation) if annotation is not None else ():
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    try:
                        pending.append(ast.parse(const.value, mode="eval"))
                    except SyntaxError:
                        pass
    return used


def _scope_imports(scope: ast.AST) -> list[ast.Import | ast.ImportFrom]:
    """The import statements that bind in ``scope``, not in a function nested in it."""
    found: list[ast.Import | ast.ImportFrom] = []
    pending = list(ast.iter_child_nodes(scope))
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            pending.extend(ast.iter_child_nodes(node))
    return found


def _check_unused_imports(path: Path, tree: ast.Module, source: str, out: list[Violation]) -> None:
    """F401: an import its scope (the module, or the function importing it) never reads."""
    noqa = _noqa_lines(source, "F401")
    exported = _exported_names(tree)
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for scope in [tree, *functions]:
        imports = _scope_imports(scope)
        if not imports:
            continue
        used = _used_names(scope) | (exported if scope is tree else set())
        for node in imports:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name == "*" or bound in used or {alias.lineno, node.lineno} & noqa:
                    continue
                out.append(Violation(path, alias.lineno, "F401", f"`{alias.name}` imported but unused"))


def lint_file(path: Path) -> list[Violation]:
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Violation(path, exc.lineno or 0, "KC000", f"syntax error: {exc.msg}")]
    out: list[Violation] = []
    slots_classes = _slots_dataclass_names(tree)
    for cls in _kernel_classes(tree):
        _check_tick_returns(path, cls, out)
        _check_stream_mutation(path, cls, out)
        _check_float_free_tick(path, cls, out)
        _check_state_mutation_scope(path, cls, slots_classes, out)
        _check_op_program(path, cls, out)
        _check_stall_order(path, cls, out)
    _check_slots_dataclasses(path, tree, out)
    _check_unused_imports(path, tree, source, out)
    out.sort(key=lambda v: (str(v.path), v.line, v.code))
    return out


def lint_paths(paths: list[str]) -> list[Violation]:
    out: list[Violation] = []
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = REPO_ROOT / path
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                out.extend(lint_file(file))
        elif path.exists():
            out.extend(lint_file(path))
        else:
            out.append(Violation(path, 0, "KC000", "path does not exist"))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        nargs="*",
        default=DEFAULT_PATHS,
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated violation codes to report (e.g. KC001,KC005; KC000 always); default: all",
    )
    args = parser.parse_args(argv)
    violations = lint_paths(list(args.paths))
    if args.select:
        # KC000 (a missing path, a syntax error) means a file went unchecked: always shown.
        wanted = {code.strip().upper() for code in args.select.split(",") if code.strip()} | {"KC000"}
        violations = [v for v in violations if v.code in wanted]
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"{len(violations)} kernel-contract violation(s)", file=sys.stderr)
        return 1
    print(f"kernel-contract lint clean ({len(list(args.paths))} path(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
