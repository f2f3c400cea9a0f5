"""Spans and counters recorded from outside the program.

`Tracer` wraps the public functions and methods of every `qonsager` module
and records one span per call: name, start, end and parent. Start and end
are read from the thread's CPU clock, so time the process spends
descheduled on a busy machine does not show up in any span. The wrappers are
put into every module namespace that holds the original object, so calls
through `from .linalg import rref` are seen as well, and everything is put
back on `restore()`. Spans stay in memory until the call ends. A single
stack gives each span its parent, so the workloads must run on one thread.

`OpCounter` is the counting pass: it counts the rational kernels of
`fractions.Fraction` (`_add`, `_sub`, `_mul`, `_div`) and the largest
numerator or denominator of any `Matrix` or `Subspace` the program builds.
It installs no spans, and its run is used for counts only.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import operator
import pkgutil
import statistics
import time
from array import array
from collections import defaultdict
from fractions import Fraction

PACKAGE = "qonsager"

# Dunder methods wrapped besides public names: construction and arithmetic.
TRACED_DUNDERS = frozenset({"__init__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__pow__"})

# Check-id prefix of each suite in the JSONL report.
SUITE_OF_PREFIX = {
    "scalars": "scalars",
    "model": "model",
    "lusztig": "lusztig",
    "split": "splitmaps",
    "equitable": "equitable",
    "diagrams": "diagrams",
}

# (kernel, forward operator, reverse operator, fallback) of Fraction.
FRACTION_KERNELS = (
    ("_add", "__add__", "__radd__", operator.add),
    ("_sub", "__sub__", "__rsub__", operator.sub),
    ("_mul", "__mul__", "__rmul__", operator.mul),
    ("_div", "__truediv__", "__rtruediv__", operator.truediv),
)


def package_modules():
    """The package and each of its modules, imported."""
    root = importlib.import_module(PACKAGE)
    mods = [root]
    for info in pkgutil.iter_modules(root.__path__):
        if not info.name.startswith("_"):  # a __main__ module would run the CLI on import
            mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return mods


def _defined_here(fn, mod) -> bool:
    return inspect.isfunction(fn) and fn.__code__.co_filename == mod.__file__


def public_callables():
    """(owner, attribute, original, span name) for each traced function or method.

    Span names are `<module>.<qualname>`, e.g. `linalg.rref` and
    `linalg.Matrix.__mul__`. Exceptions and generated dataclass methods are
    skipped; so are properties.
    """
    out = []
    for mod in package_modules()[1:]:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if _defined_here(obj, mod):
                out.append((mod, name, obj, f"{layer}.{name}"))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr not in TRACED_DUNDERS:
                        continue
                    fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                    if _defined_here(fn, mod):
                        out.append((obj, attr, member, f"{layer}.{obj.__name__}.{attr}"))
    return out


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value) -> None:
        # vars(), not getattr(): getattr would turn a classmethod into a bound method.
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, replacement, modules) -> None:
        """Rebind every module-level name that refers to `original`."""
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, name, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """Records a span per call of each public function of the package."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches = _Patches()

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        clock, stack = time.thread_time, self._stack
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def install(self) -> None:
        modules = package_modules()
        for owner, attr, original, name in public_callables():
            if inspect.ismodule(owner):
                self._patches.replace_everywhere(original, self._wrap(name, original), modules)
            elif isinstance(original, (classmethod, staticmethod)):
                self._patches.set(owner, attr, type(original)(self._wrap(name, original.__func__)))
            else:
                self._patches.set(owner, attr, self._wrap(name, original))

    def restore(self) -> None:
        self._patches.restore()

    def spans(self) -> list[tuple[str, float, float, int]]:
        """(name, start, end, parent index) in call order; a parent precedes its children."""
        names = self.names
        return [
            (names[n], s, e, p)
            for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)
        ]


SPANS_HEADER = "id\tname\tstart\tend\tparent"


def write_spans(spans, path) -> None:
    """A gzipped TSV, one span per line: id, name, start, end, parent (-1 at the root).

    Start and end are thread CPU seconds.
    """
    lines = [SPANS_HEADER]
    lines.extend(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}" for i, (name, start, end, parent) in enumerate(spans))
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("\n".join(lines) + "\n")


def read_spans(path) -> list[tuple[str, float, float, int]]:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    if header != SPANS_HEADER:
        raise ValueError(f"{path}: not a span file")
    spans = []
    for row in rows:
        _, name, start, end, parent = row.split("\t")
        spans.append((name, float(start), float(end), int(parent)))
    return spans


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to their parent and overlapping children are merged,
    so time is never subtracted twice.
    """
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for cs, ce in sorted((max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]):
            if ce <= cs:
                continue
            if run_end is None or cs > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = cs, ce
            else:
                run_end = max(run_end, ce)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def span_metrics(spans) -> dict[str, float]:
    """Per function: calls, inclusive s and self_s; per module: calls and self_s.

    Inclusive time counts only the outermost span of a name, so recursion
    does not count time twice.
    """
    selfs = self_times(spans)
    metrics: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        module = name.split(".", 1)[0]
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.self_s"] += selfs[i]
        metrics[f"{module}.calls"] += 1
        metrics[f"{module}.self_s"] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            metrics[f"{name}.s"] += end - start
    return dict(metrics)


def suite_metrics(spans, records) -> dict[str, float]:
    """Suite time and the time `run_target` spends outside its checks.

    `records` are the check records of an untraced call: suite time sums
    their `elapsed_ms`. The time outside checks is the `suite.run_target`
    spans minus the `report.Report.run` spans, which each time one check;
    both come from the same clock.
    """
    metrics = {f"suite.{suite}.s": 0.0 for suite in SUITE_OF_PREFIX.values()}
    for rec in records:
        suite = SUITE_OF_PREFIX.get(str(rec["check"]).split(".", 1)[0])
        if suite is not None:
            metrics[f"suite.{suite}.s"] += float(rec.get("elapsed_ms", 0.0)) / 1000
    targets = [end - start for name, start, end, _ in spans if name == "suite.run_target"]
    checked = sum(end - start for name, start, end, _ in spans if name == "report.Report.run")
    metrics["suite.untimed.s"] = sum(targets) - checked
    metrics["suite.run_target.p50_s"] = statistics.median(targets) if targets else 0.0
    metrics["suite.run_target.max_s"] = max(targets, default=0.0)
    return metrics


class OpCounter:
    """Counts Fraction kernel calls and the widest entry of each built matrix."""

    def __init__(self):
        self.ops = {kernel: 0 for kernel, *_ in FRACTION_KERNELS}
        self.max_entry_bits = 0
        self._patches = _Patches()

    def _counted(self, kernel: str):
        fn = getattr(Fraction, kernel)
        ops = self.ops

        def counted(a, b):
            ops[kernel] += 1
            return fn(a, b)

        return counted

    def _measured(self, init, rows_attr: str):
        def measured(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            for row in getattr(obj, rows_attr, ()):
                for e in row:
                    bits = max(e.numerator.bit_length(), e.denominator.bit_length())
                    if bits > self.max_entry_bits:
                        self.max_entry_bits = bits

        return measured

    def install(self) -> None:
        # Fraction builds each operator pair around a kernel with
        # _operator_fallbacks; rebuilding the pair around a counting kernel
        # counts exactly the calls a profiler would attribute to the kernel.
        for kernel, forward, reverse, fallback in FRACTION_KERNELS:
            fwd, rev = Fraction._operator_fallbacks(self._counted(kernel), fallback)
            self._patches.set(Fraction, forward, fwd)
            self._patches.set(Fraction, reverse, rev)
        linalg = importlib.import_module(f"{PACKAGE}.linalg")
        for cls_name, rows_attr in (("Matrix", "entries"), ("Subspace", "basis")):
            cls = getattr(linalg, cls_name, None)
            if cls is not None and "__init__" in vars(cls):
                self._patches.set(cls, "__init__", self._measured(cls.__init__, rows_attr))

    def restore(self) -> None:
        self._patches.restore()

    def metrics(self) -> dict[str, float]:
        out = {f"fractions.{kernel}": float(n) for kernel, n in self.ops.items()}
        out["fractions.ops"] = float(sum(self.ops.values()))
        out["linalg.max_entry_bits"] = float(self.max_entry_bits)
        return out
