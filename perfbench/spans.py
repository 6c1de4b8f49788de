"""Span shim for the traced run.

``Tracer.install`` wraps spinnerlab's public functions, and the class
methods listed in ``METHODS``, with a recorder.  A module-level function
is replaced at every import site: in its own module and wherever another
spinnerlab module bound it with ``from ... import`` (``suites`` holding
``finite_grid_stabilizer``, ``cli`` holding ``parse_query``, ...).  Methods
are replaced on the class, which every importer shares.

Each call becomes a span (name, start, end, parent) kept in flat arrays and
written out by ``dump``.  Calls, inclusive time and self time (inclusive
minus the time of direct child spans) are summed per span name as the run
goes.  The program itself is not changed.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("field", "intervals", "cantor", "spinner", "lottery", "query",
          "suites", "cli")

# class -> {attribute: span name}; aliases such as __radd__ = __add__ share
# one wrapper and one name
METHODS = {
    ("field", "NonArchValue"): {
        "__init__": "new", "__add__": "add", "__radd__": "add",
        "__sub__": "sub", "__rsub__": "rsub", "__neg__": "neg",
        "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div",
        "__rtruediv__": "rdiv", "compare": "compare",
        "standard_part": "standard_part", "classify": "classify"},
    ("intervals", "IntervalSet"): {
        "__init__": "normalize", "union": "union", "intersect": "intersect",
        "complement": "complement", "translate_mod1": "translate"},
    ("cantor", "CantorEvent"): {
        "__init__": "event", "union": "union", "intersect": "intersect",
        "complement": "complement"},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]          # open span indices; -1 is the harness
        self.child = [0.0]         # time of direct children, per open span
        self.agg: list[list[float]] = []   # per name: calls, total, self
        self.hooks: dict[str, object] = {}  # span name -> fn(args, result)
        # "sum:<key>" values add up and "max:<key>" values keep the largest,
        # also when several processes are merged
        self.counters: dict[str, float] = {}
        self.witness_call = None   # (sort key, args) of the largest witness
        self._undo: list[tuple[object, str, object]] = []
        self._plan = None

    # -- recording --------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.agg.append([0, 0.0, 0.0])
        return self.ids[name]

    def wrap(self, fn, name: str):
        nid = self._id(name)
        agg = self.agg[nid]
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, child = self.stack, self.child
        hook = self.hooks.get(name)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                kids = child.pop()
                starts[idx] = t0
                ends[idx] = t1
                d = t1 - t0
                child[-1] += d
                agg[0] += 1
                agg[1] += d
                agg[2] += d - kids
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- patching -----------------------------------------------------------------

    def install(self):
        if self._plan is None:
            self._plan = self._wrappers()
        for owner, attr, wrapper in self._plan:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def _wrappers(self):
        """(owner, attribute, wrapper) for every patch ``install`` makes."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "spinnerlab" or name.startswith("spinnerlab.")}
        plan, wrappers = [], {}
        for layer in LAYERS:
            mod = mods[f"spinnerlab.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
        for mod in mods.values():
            for attr, obj in vars(mod).items():
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    plan.append((mod, attr, wrappers[id(obj)][1]))
        for (layer, cls_name), table in METHODS.items():
            cls = getattr(mods[f"spinnerlab.{layer}"], cls_name)
            done = {}
            for attr, short in table.items():
                fn = cls.__dict__[attr]
                if id(fn) not in done:
                    done[id(fn)] = self.wrap(fn, f"{layer}.{cls_name}.{short}")
                plan.append((cls, attr, done[id(fn)]))
        return plan

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------------

    def stats(self, name: str):
        """(calls, inclusive seconds, self seconds) of one span name."""
        nid = self.ids.get(name)
        return tuple(self.agg[nid]) if nid is not None else (0, 0.0, 0.0)

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in zip(self.names, self.agg):
            out[name.split(".", 1)[0]] += self_s
        return out

    def summary(self) -> dict:
        return {"names": self.names, "agg": self.agg,
                "counters": self.counters}

    def dump(self, path) -> None:
        """Write every span: a JSON header line, then the raw arrays
        (name id, parent index, start, end) in that order."""
        header = {"names": self.names, "count": len(self.span_start),
                  "arrays": [["name", "H"], ["parent", "l"], ["start", "d"],
                             ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)


def read_spans(path):
    """Inverse of ``Tracer.dump``: (names, [(name, parent, start, end), ...])."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = []
        for _, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            cols.append(arr)
    return header["names"], [(header["names"][n], p, s, e)
                             for n, p, s, e in zip(*cols)]


def merge(summaries) -> "Tracer":
    """Sum the per-name totals of several traced processes."""
    total = Tracer()
    for s in summaries:
        for name, (calls, incl, self_s) in zip(s["names"], s["agg"]):
            agg = total.agg[total._id(name)]
            agg[0] += calls
            agg[1] += incl
            agg[2] += self_s
        for key, value in s["counters"].items():
            old = total.counters.get(key, 0)
            total.counters[key] = max(old, value) if key.startswith("max:") \
                else old + value
    return total


def add_counter_hooks(tracer: Tracer) -> None:
    """Counts taken where the work happens: operand and result sizes."""
    c = tracer.counters

    def bump(key, value):
        c[key] = c.get(key, 0) + value

    def field_result(args, result):
        if result is NotImplemented:
            return
        coeffs = result.num.coeffs + result.den.coeffs
        c["max:field.result_degree"] = max(
            c.get("max:field.result_degree", 0),
            result.num.degree(), result.den.degree())
        c["max:field.coeff_bits"] = max(
            [c.get("max:field.coeff_bits", 0)]
            + [max(x.numerator.bit_length(), x.denominator.bit_length())
               for x in coeffs])

    def interval_operands(args, result):
        for a in args[:2]:
            if not hasattr(a, "components"):
                continue  # the offset of translate_mod1
            bump("sum:intervals.components_in", len(a.components))
            bump("sum:intervals.operands", 1)

    def witness(args, result):
        # the largest 1/eps, and on a tie the orbit form, allocates most
        key = (1 / args[0], args[1:] == ("rational_orbit",))
        if tracer.witness_call is None or key > tracer.witness_call[0]:
            tracer.witness_call = (key, args)

    for op in ("add", "mul", "div"):
        tracer.hooks[f"field.NonArchValue.{op}"] = field_result
    for op in ("union", "intersect", "complement", "translate"):
        tracer.hooks[f"intervals.IntervalSet.{op}"] = interval_operands
    tracer.hooks["query.parse_query"] = \
        lambda args, result: bump("sum:query.chars", len(args[0]))
    tracer.hooks["spinner.finite_grid_stabilizer"] = \
        lambda args, result: bump("sum:spinner.stabilizer_points",
                                  len(args[0].points))
    tracer.hooks["lottery.archimedean_regularity_witness"] = witness
