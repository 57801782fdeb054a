"""The traced run: nested spans around the program's public layer functions.

Tracer.install() replaces each function in TRACED wherever a cyclosum
module's namespace binds it, so calls from one layer into another are
timed as well as the benchmark's own calls.  Spans nest on a stack; a
span's self time is its duration minus the time its child spans cover.
Spans are folded into per-function totals as they close instead of being
stored, since the irreducibility test alone runs thousands of times in a
sweep.  Only the traced run installs a tracer; the runs that give the
end-to-end metrics leave the program untouched.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
import weakref

TRACED = (
    "gf.build_field",
    "gf.lex_least_irreducible",
    "gf.is_irreducible",
    "weights.compute_weight_set",
    "weights.field_weight_set",
    "cyclotomic.factor_xm_minus_1",
    "traces.trace_profile",
    "bounds.predicted_tails",
    "bounds.closed_form_weight_set",
    "diagonal.solve_good",
    "audit.verify_constructive_window",
)

COUNTS = (
    "gf.tables_built",
    "weights.bound_layers",
    "diagonal.coords",
    "diagonal.solved",
    "diagonal.no_solution",
)


class _FirstSeen:
    """Tells whether an object is returned for the first time, holding it
    only weakly so the trace does not keep program objects alive."""

    def __init__(self):
        self._refs = {}

    def add(self, obj) -> bool:
        key = id(obj)
        ref = self._refs.get(key)
        if ref is not None and ref() is obj:
            return False
        self._refs[key] = weakref.ref(obj, lambda _, key=key: self._refs.pop(key, None))
        return True


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in TRACED}  # calls, busy, self
        self.counts = dict.fromkeys(COUNTS, 0)
        self.marks = []  # (time, message) from the program's log callback
        self._stack = []  # time covered by the children of each open span
        self._tables = _FirstSeen()
        self._weight_sets = _FirstSeen()
        self._patched = []
        self._observers = {
            "gf.build_field": self._saw_table,
            "weights.compute_weight_set": self._saw_weight_set,
            "weights.field_weight_set": self._saw_weight_set,
            "diagonal.solve_good": self._saw_solution,
        }

    def mark(self, message: str) -> None:
        self.marks.append((time.perf_counter(), message))

    # -- observers of results ------------------------------------------------

    def _saw_table(self, table) -> None:
        if self._tables.add(table):
            self.counts["gf.tables_built"] += 1

    def _saw_weight_set(self, ws) -> None:
        if self._weight_sets.add(ws):
            self.counts["weights.bound_layers"] += ws.bound

    def _saw_solution(self, result) -> None:
        values = getattr(result, "values", None)
        if values is None:
            self.counts["diagonal.no_solution"] += 1
        else:
            self.counts["diagonal.solved"] += 1
            self.counts["diagonal.coords"] += len(values)

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        observe = self._observers.get(name)
        stack = self._stack
        depth = [0]  # open spans of this function, so recursion is busy once

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            depth[0] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                depth[0] -= 1
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat[0] += 1
                if depth[0] == 0:
                    stat[1] += elapsed
                stat[2] += elapsed - children
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self) -> None:
        import cyclosum

        for info in pkgutil.iter_modules(cyclosum.__path__):
            importlib.import_module(f"cyclosum.{info.name}")
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "cyclosum" or key.startswith("cyclosum.")]
        for name in TRACED:
            home, attr = name.split(".")
            original = getattr(sys.modules[f"cyclosum.{home}"], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def metrics(self) -> dict:
        out = {}
        for name, (calls, busy, self_s) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.busy_s"] = (busy, "s")
            out[f"{name}.self_s"] = (self_s, "s")
        for name, value in self.counts.items():
            out[name] = (value, "count")
        return out
