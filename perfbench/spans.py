"""Span tracing of the package's layers, from outside the package.

``Tracer.install`` wraps every public function defined in a layer module,
plus ``Portrait.create``, and rebinds each wrapper under every name that
held the original in any ``portraits`` module, so calls through
``from .x import f`` are caught too.  ``angles`` is left alone: its helpers
run hundreds of thousands of times per pass and would swamp the trace; its
cost shows in its callers' self time.

Spans are kept in memory as (name, start, end, parent) and written out
by ``dump``.  Self time is a span's duration minus that of its child spans.

Run as a script, it executes one traced ``portraits`` command line and
writes the spans and per-function totals to a file::

    python3 perfbench/spans.py OUT.json build F --report R --json J --svg S
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

LAYERS = ("rotation", "portrait", "builder", "tree", "recovery", "report",
          "render", "fileio", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple] = []
        # name -> [calls, self seconds, truthy results, errors]
        self.totals: dict[str, list] = {}
        self._stack: list[float] = []   # child time accumulated per open span
        self._open: list[int] = []      # span index per open span
        self._rebound: list[tuple] = []
        self._wrappers: dict[int, tuple] = {}
        self._create: tuple = ()

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        totals = self.totals.setdefault(name, [0, 0.0, 0, 0])
        spans, stack, open_ = self.spans, self._stack, self._open

        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            open_.append(len(spans))
            spans.append(None)
            stack.append(0.0)
            start = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                child = stack.pop()
                spans[open_.pop()] = (name_id, start, end, parent)
                if stack:
                    stack[-1] += end - start
                totals[0] += 1
                totals[1] += end - start - child
                if not ok:
                    totals[3] += 1
            if result:
                totals[2] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the layers' public functions in every module that binds them."""
        import portraits
        if not self._wrappers:
            for layer in LAYERS:
                module = importlib.import_module(f"portraits.{layer}")
                for attr, fn in vars(module).items():
                    if (inspect.isfunction(fn) and not attr.startswith("_")
                            and fn.__module__ == module.__name__):
                        self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
            create = portraits.portrait.Portrait.__dict__["create"]
            self._create = (create, classmethod(
                self._wrap("portrait.Portrait.create", create.__func__)))
        for name, module in list(sys.modules.items()):
            if name != "portraits" and not name.startswith("portraits."):
                continue
            for attr, value in list(vars(module).items()):
                found = self._wrappers.get(id(value))
                if found is not None and found[0] is value:
                    setattr(module, attr, found[1])
                    self._rebound.append((module, attr, value))
        cls = portraits.portrait.Portrait
        cls.create = self._create[1]
        self._rebound.append((cls, "create", self._create[0]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound.clear()

    def merge(self, totals: dict) -> None:
        for name, (calls, self_s, truthy, errors) in totals.items():
            mine = self.totals.setdefault(name, [0, 0.0, 0, 0])
            mine[0] += calls
            mine[1] += self_s
            mine[2] += truthy
            mine[3] += errors

    def dump(self, path: Path) -> None:
        """Write names, spans (times relative to the first span) and totals."""
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [[n, round(s - t0, 7), round(e - t0, 7), p]
                 for n, s, e, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": self.names, "spans": spans,
                                    "totals": self.totals}), encoding="utf-8")


def _traced_cli(out: str, argv: list[str]) -> int:
    import portraits.cli
    tracer = Tracer()
    tracer.install()
    try:
        code = portraits.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(Path(out))
    return code


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))
