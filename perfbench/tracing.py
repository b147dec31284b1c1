"""Layer spans recorded from outside the program.

`Tracer.install` replaces each public function of the eight layer
modules, and the operator and constructor methods of their public
classes, with a wrapper that records a span: layer, start, end, parent
span, op id and whether an exception left the call.  A span opens only
when the call enters a layer from outside it, so recursion and calls
within one layer (ordinal into ordinal, hfset into hfset) cost one stack
check and no record.  Spans stay in memory until the round ends.

`cli.render` and the `__str__` of cli values are their own layer,
`cli.render`, so that printing results shows apart from evaluation.
"""

import enum
import importlib
import inspect
import time

LAYERS = ("syntax", "cli", "hfset", "ordinal", "surreal", "wforder", "linorder", "numtower")
RENDER = "cli.render"
REPORTED = LAYERS + (RENDER,)

# Dunder methods that do work worth attributing; __hash__, __len__,
# __iter__ and __repr__ are O(1) or unused and stay unwrapped.
_DUNDERS = {
    "__init__", "__post_init__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__",
    "__contains__", "__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__neg__",
    "__pow__", "__divmod__", "__or__", "__and__", "__str__",
}

_DONE = object()
_PAUSED = "paused"

# span record fields
LAYER, START, END, PARENT, OP, ERR = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [(_PAUSED, None)]
        self.op = None

    def resume(self, op):
        """Record spans for op `op` until the next pause."""
        self.op = op
        self.stack[0] = (None, None)

    def pause(self):
        self.stack[0] = (_PAUSED, None)

    def wrap(self, fn, layer):
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            top = stack[-1][0]
            if top is layer or top is _PAUSED:
                return fn(*args, **kwargs)
            rec = [layer, 0.0, 0.0, stack[-1][1], self.op, 0]
            stack.append((layer, len(spans)))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[ERR] = 1
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, layer):
        """Each resumption of the generator is a span of its own."""
        step = self.wrap(lambda it: next(it, _DONE), layer)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    value = step(it)
                    if value is _DONE:
                        return
                    yield value
            finally:
                it.close()

        return traced

    def _wrap_any(self, fn, layer):
        if inspect.isgeneratorfunction(fn):
            return self.wrap_generator(fn, layer)
        return self.wrap(fn, layer)

    def install(self):
        """Wrap the public surface of every layer module, in place."""
        for name in LAYERS:
            mod = importlib.import_module(f"setkernel.{name}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    layer = RENDER if (name, attr) == ("cli", "render") else name
                    setattr(mod, attr, self._wrap_any(obj, layer))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and _plain_class(obj):
                    self._install_class(obj, name)

    def _install_class(self, cls, name):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            layer = RENDER if name == "cli" and attr == "__str__" else name
            if isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self._wrap_any(obj.__func__, layer)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self._wrap_any(obj, layer))


def _plain_class(cls):
    return not issubclass(cls, (BaseException, enum.Enum))


def self_times(spans):
    """Per-span self time: duration minus the union of its children."""
    children = {}
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s[START]
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][START]):
            lo, hi = max(spans[c][START], reach), spans[c][END]
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def layer_totals(spans):
    """{layer: (calls, self seconds, errors)} over all spans."""
    totals = {layer: [0, 0.0, 0] for layer in REPORTED}
    for s, own in zip(spans, self_times(spans)):
        t = totals[s[LAYER]]
        t[0] += 1
        t[1] += own
        t[2] += s[ERR]
    return totals


def top_level_time(spans):
    """{op: seconds covered by spans the benchmark itself opened}."""
    out = {}
    for s in spans:
        if s[PARENT] is None:
            out[s[OP]] = out.get(s[OP], 0.0) + s[END] - s[START]
    return out
