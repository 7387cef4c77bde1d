"""Per-layer tracing of nevpick from outside the package.

:class:`Tracer` replaces every public function of the layer modules with a
wrapper that counts calls and measures self time (its duration minus the
duration of wrapped functions it called).  A wrapper is installed under
every name that refers to the function in any loaded ``nevpick`` module,
because callers look names up in their own module: ``nevpick.continuation``
calls ``build_S`` through its own global, and ``nevpick.analysis`` calls
``solve`` through its own import.  Leaving the tracer restores them all.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

#: The modules of ``src/nevpick`` whose public functions are traced.  The CLI
#: is measured as a subprocess instead.
LAYERS = ("problem", "polyalg", "cee_core", "continuation", "ingestion", "analysis")


class FunctionStats:
    __slots__ = ("calls", "returns", "self_s")

    def __init__(self):
        self.calls = 0
        self.returns = 0
        self.self_s = 0.0


class Tracer:
    """Context manager that traces the public functions of :data:`LAYERS`.

    ``stats`` maps ``"<layer>.<function>"`` to :class:`FunctionStats` and
    accumulates over every call made while the tracer is active.
    """

    def __init__(self):
        self.stats: dict[str, FunctionStats] = {}
        self._children: list[float] = []
        self._restore: list = []

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"nevpick.{layer}")
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "nevpick" and not mod_name.startswith("nevpick."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, entry[1])
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()
        return False

    def _wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, FunctionStats())
        children = self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                stats.returns += 1
                return result
            finally:
                elapsed = clock() - start
                stats.calls += 1
                stats.self_s += elapsed - children.pop()
                if children:
                    children[-1] += elapsed

        traced.__wrapped__ = fn
        return traced

    def counters(self) -> dict:
        """Path-following counters derived from exact call counts."""
        s = self.stats
        steps = s["continuation.dG_dnu"].calls
        corrector = s["continuation.corrector"]
        accepted = corrector.returns
        return {
            "continuation.states_accepted": accepted,
            "continuation.steps_attempted": steps,
            "continuation.step_accept_ratio": accepted / steps if steps else 0.0,
            "continuation.band_rejects": steps - corrector.calls,
            "continuation.corrector_failures": corrector.calls - accepted,
            "continuation.newton_steps": s["continuation.jac_G"].calls - steps,
        }
