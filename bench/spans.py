"""Layer tracing from outside the package.

The benchmark calls the program through a namespace of the public
functions of each layer (`load_api`). Untraced, those are the functions
themselves. Traced, each is wrapped to record a span, and the same
wrappers replace the names one commcheck module imported from another
(`cli` calling `parser.parse_protocol`, `checker` calling
`projection.project`, ...), so calls made inside the package are
traced at the same layer boundaries. No code of the package changes.

A span is (name, start, end, parent, operation id). A layer's busy time
is the sum of its spans' self time: duration minus the time covered by
child spans, so the layers add up to the traced operations' time.
Counts are taken from the call results after the operation has ended,
outside every timed region.
"""

from __future__ import annotations

import importlib
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from time import perf_counter
from types import SimpleNamespace

LAYERS = {
    "lexer": ("tokenize",),
    "parser": ("parse_protocol", "parse_local_term"),
    "program": ("parse_program",),
    "wf": ("check_wf",),
    "projection": ("project", "project_all"),
    "checker": ("check_compliance",),
    "sim": ("explore_all_tapes", "simulate", "replay", "parse_trail", "format_trail"),
    "printer": ("format_term", "format_protocol"),
    "cli": ("main",),
}
MEMORY_LAYERS = ("projection", "checker", "sim")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int


def load_api() -> SimpleNamespace:
    """The untraced public functions, keyed `<layer>_<function>`."""
    api = SimpleNamespace()
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"commcheck.{layer}")
        for name in names:
            setattr(api, f"{layer}_{name}", getattr(module, name))
    return api


def tree_size(root, keep=None) -> int:
    """Nodes of a tree of frozen dataclasses and tuples, walked without
    recursion. Fields that take no part in equality (source positions)
    are skipped. `keep(node, in_tuple)` selects which nodes count."""
    count = 0
    stack = [(root, False)]
    while stack:
        node, in_tuple = stack.pop()
        if isinstance(node, tuple):
            stack.extend((item, True) for item in node)
        elif is_dataclass(node) and not isinstance(node, type):
            if keep is None or keep(node, in_tuple):
                count += 1
            stack.extend((getattr(node, f.name), False) for f in fields(node) if f.compare)
    return count


def _is_prefix(node, _in_tuple) -> bool:
    return type(node).__name__ == "Prefix"


def _is_statement(node, in_tuple) -> bool:
    # Program bodies, loop bodies and branches are tuples of statements;
    # no other tuple of a program holds dataclass nodes.
    return in_tuple


class Tracer:
    """Span and count recorder for the traced passes of one run."""

    def __init__(self, api: SimpleNamespace):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.state_time = 0.0  # seconds in searches that report a state count
        self.replay_time = 0.0
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self.op = -1
        self._memory = False
        self._stack: list[int] = []
        self._mem_stack: list[list[int]] = []
        self._pending: list[tuple[str, str, object, float]] = []
        self._wrappers = {}
        self.api = SimpleNamespace()
        for key, fn in vars(api).items():
            layer, name = key.split("_", 1)
            self._wrappers[fn] = self._wrap(layer, name, fn)
            setattr(self.api, key, self._wrappers[fn])

    # -- instrumentation --

    @contextmanager
    def active(self, memory: bool):
        """Route every cross-module call of the package through the wrappers."""
        patched = []
        for layer in LAYERS:
            module = importlib.import_module(f"commcheck.{layer}")
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if callable(value) else None
                if wrapper is not None and value.__module__ != module.__name__:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        self._memory = memory
        if memory:
            tracemalloc.start()
        try:
            yield self.api
        finally:
            if memory:
                tracemalloc.stop()
            self._memory = False
            for module, attr, value in patched:
                setattr(module, attr, value)

    def _wrap(self, layer: str, name: str, fn):
        label = f"{layer}.{name}"

        def traced(*args, **kwargs):
            if self._memory:
                return self._call_measuring_memory(layer, fn, args, kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                self.counts[f"{layer}.failed"] += 1
                raise
            else:
                end = perf_counter()
                self._pending.append((layer, name, result, end - start))
                return result
            finally:
                self._stack.pop()
                self.spans[index] = Span(label, start, end, parent, self.op)

        return traced

    def _call_measuring_memory(self, layer, fn, args, kwargs):
        # tracemalloc has one peak counter: fold it into every open call
        # before resetting it for this one.
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._mem_stack:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        frame = [current, current]
        self._mem_stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            self._mem_stack.pop()
            frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
            self.peak_bytes[layer] = max(self.peak_bytes[layer], frame[1] - frame[0])

    # -- counts, taken after each operation --

    def end_op(self) -> None:
        for layer, name, result, seconds in self._pending:
            self._count(layer, name, result, seconds)
        self._pending.clear()

    def _count(self, layer: str, name: str, result, seconds: float) -> None:
        c = self.counts
        if layer == "lexer":
            c["lexer.tokens"] += len(result)
        elif layer == "parser":
            c["parser.nodes"] += tree_size(result)
        elif layer == "program":
            c["program.stmts"] += tree_size(result.body, _is_statement)
        elif layer == "projection":
            views = result.by_rank if name == "project_all" else (result,)
            c["projection.local_atoms"] += sum(tree_size(v, _is_prefix) for v in views)
        elif layer == "checker":
            c["checker.ranks"] += len(result.ranks)
        elif layer == "printer":
            c["printer.bytes"] += len(result)
        elif layer == "cli":
            c["cli.calls"] += 1
        elif name in ("explore_all_tapes", "simulate"):
            c["sim.searches"] += 1
            states = getattr(result, "states_explored", None)
            if states is not None:
                c["sim.states"] += states
                self.state_time += seconds
            c["sim.witness_steps"] += len(getattr(result, "trail", ()))
        elif name == "replay":
            self.replay_time += seconds

    # -- per-layer busy time --

    def busy_seconds(self, first_span: int = 0, last_span: int | None = None) -> Counter:
        """Self time per layer over a slice of the recorded spans."""
        chosen = self.spans[first_span:last_span]
        busy: Counter = Counter()
        for span in chosen:
            busy[span.name.split(".")[0]] += span.end - span.start
        for span in chosen:
            if span.parent >= first_span:
                parent = self.spans[span.parent]
                busy[parent.name.split(".")[0]] -= span.end - span.start
        return busy
