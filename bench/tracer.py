"""Run one ``bernsing`` CLI command in this process with layer spans.

Usage (from the repository root)::

    PYTHONPATH=src python3 bench/tracer.py SUMMARY.json SPANS.npz -- lemmas --xi 0.5 --alpha 1

The CLI writes its normal output to stdout.  Tracing happens entirely
here; no file under ``src/`` is instrumented:

* an import hook opens a span around the execution of each layer
  module, so a cold import is charged to the layer that pays it;
* every function that one ``bernsing`` module imports from another is
  rebound, in the importing module's namespace, to a timing wrapper
  (this catches ``from .basis import bernstein_apply`` in ``operator``
  and the private ``_window_weights`` that ``checks`` imports);
* the ``eval``/``d1``/``d2`` callables of every ``TestFunction`` that
  ``corpus()`` returns are wrapped as ``corpus`` spans;
* ``run_cli`` itself is the ``cli`` span.

Spans (layer, start, end, parent) are kept in memory and written to
SPANS.npz at the end.  A layer's self time is its span time minus its
child spans' time.  Work counts (basis values, modulus pairs, corpus
points) are worked out from the recorded call arguments after the
command has finished, so they cost the traced run nothing.
"""
from __future__ import annotations

import dataclasses
import importlib.abc
import importlib.machinery
import inspect
import json
import math
import pkgutil
import sys
from time import perf_counter

import numpy as np  # imported before the hook: numpy is no bernsing layer

LAYER_OF_MODULE = {
    "bernsing.basis": "basis",
    "bernsing.weights": "weights",
    "bernsing.blending": "blending",
    "bernsing.operator": "operator",
    "bernsing.moduli": "moduli",
    "bernsing.harness.corpus": "corpus",
    "bernsing.harness.checks": "checks",
    "bernsing.harness.rates": "rates",
    "bernsing.harness.cli": "cli",
}
LAYERS = tuple(LAYER_OF_MODULE.values())
# Hoeffding: the basis mass at |k - n x| > sqrt(n ln(1e17) / 2) is below
# 2e-17, so values beyond that radius cannot change a float64 sum.
HOEFFDING_LOG = math.log(1e17)

_layer: list[int] = []
_parent: list[int] = []
_start: list[float] = []
_end: list[float] = []
_is_import: list[bool] = []
_stack: list[int] = [-1]
_calls: dict[str, int] = {f"{layer}.calls": 0 for layer in LAYERS}
_counts = {"corpus.evals": 0, "corpus.points": 0}
_recorded: list[tuple] = []  # (layer, function, args, kwargs) for basis and moduli
_wrappers: dict = {}  # original function -> its wrapper


def _open(layer_id: int, is_import: bool = False) -> int:
    i = len(_layer)
    _layer.append(layer_id)
    _parent.append(_stack[-1])
    _start.append(perf_counter())
    _end.append(0.0)
    _is_import.append(is_import)
    _stack.append(i)
    return i


def _close(i: int) -> None:
    _end[i] = perf_counter()
    _stack.pop()


class _ImportSpans(importlib.abc.MetaPathFinder):
    """Open a span of the module's layer around each layer module's body."""

    def find_spec(self, name, path, target=None):
        layer = LAYER_OF_MODULE.get(name)
        if layer is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None:
            return None
        layer_id = LAYERS.index(layer)
        exec_module = spec.loader.exec_module

        def timed_exec(module):
            i = _open(layer_id, is_import=True)
            try:
                exec_module(module)
            finally:
                _close(i)

        spec.loader.exec_module = timed_exec
        return spec


def _wrap_eval(fn):
    layer_id = LAYERS.index("corpus")

    def traced_eval(x):
        _counts["corpus.evals"] += 1
        _counts["corpus.points"] += np.size(x)
        i = _open(layer_id)
        try:
            return fn(x)
        finally:
            _close(i)

    return traced_eval


def _wrap(fn, layer: str):
    """Timing wrapper for a function of ``layer``, shared by every
    namespace that imported it."""
    if fn in _wrappers:
        return _wrappers[fn]
    layer_id = LAYERS.index(layer)
    key = f"{layer}.calls"
    record = layer in ("basis", "moduli")
    returns_function = layer == "corpus" and fn.__name__ == "corpus"

    def traced(*args, **kwargs):
        _calls[key] += 1
        if record:
            _recorded.append((layer, fn, args, kwargs))
        i = _open(layer_id)
        try:
            out = fn(*args, **kwargs)
        finally:
            _close(i)
        if returns_function:
            out = dataclasses.replace(out, **{
                k: _wrap_eval(getattr(out, k))
                for k in ("eval", "d1", "d2") if getattr(out, k) is not None
            })
        return out

    _wrappers[fn] = traced
    return traced


def _import_all() -> None:
    import bernsing

    for info in pkgutil.walk_packages(bernsing.__path__, "bernsing."):
        importlib.import_module(info.name)


def _rebind_cross_module_functions() -> None:
    for name, module in list(sys.modules.items()):
        if name != "bernsing" and not name.startswith("bernsing."):
            continue
        for attr, value in list(vars(module).items()):
            if not inspect.isfunction(value) or value.__module__ == name:
                continue
            layer = LAYER_OF_MODULE.get(value.__module__)
            if layer is not None:
                setattr(module, attr, _wrap(value, layer))


def _basis_window(a: dict):
    """(n, klo, khi, x) of a basis call from its bound arguments."""
    if "x" not in a:
        return None
    if "samples" in a:
        n = np.size(a["samples"]) - 1
    elif "n" in a:
        n = int(a["n"])
    else:
        return None
    if "k" in a:
        return n, int(a["k"]), int(a["k"]), a["x"]
    return n, int(a.get("klo", 0)), int(a.get("khi", n)), a["x"]


def _useful(n, klo, khi, x):
    """(values, useful values) for basis indices klo..khi at abscissae
    x; the arguments broadcast against each other."""
    n, klo, khi, x = np.broadcast_arrays(*map(np.asarray, (n, klo, khi, x)))
    r = np.sqrt(n * HOEFFDING_LOG / 2.0)
    lo = np.maximum(klo, np.ceil(n * x - r))
    hi = np.minimum(khi, np.floor(n * x + r))
    return int((khi - klo + 1).sum()), int(np.maximum(hi - lo + 1, 0).sum())


def _work_counts() -> dict:
    """Basis values and modulus (h, x) pairs implied by the recorded
    call arguments."""
    params = {}
    scalar_calls = []
    values = useful = pairs = 0
    for layer, fn, args, kwargs in _recorded:
        if fn not in params:
            params[fn] = tuple(inspect.signature(fn).parameters)
        a = dict(zip(params[fn], args), **kwargs)
        if layer == "basis":
            window = _basis_window(a)
            if window is None:
                continue
            if isinstance(window[3], (float, int)):
                scalar_calls.append(window)
                continue
            v, u = _useful(*window)
            values += v
            useful += u
        elif "cfg" in a:
            cfg = a["cfg"]
            scales = len(cfg.t_values)
            if "t" in a:
                scales = sum(1 for t in cfg.t_values if t < a["t"]) + 1
            pairs += scales * cfg.h_steps * cfg.x_grid.points.size
        elif "h" in a and "x" in a:
            pairs += 1
    if scalar_calls:
        v, u = _useful(*(np.array(c, dtype=float) for c in zip(*scalar_calls)))
        values += v
        useful += u
    return {
        "basis.values": values,
        "basis.useful_frac": useful / values if values else 0.0,
        "moduli.pairs": pairs,
    }


def _self_times(layer, parent, dur) -> np.ndarray:
    child = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return np.bincount(layer, weights=dur - child, minlength=len(LAYERS))


def trace_cli(argv) -> tuple[int, float]:
    """Import, wrap and run the CLI once; returns (exit code, traced
    wall time), the wall time covering the imports and the command but
    not the rebinding between them."""
    hook = _ImportSpans()
    sys.meta_path.insert(0, hook)
    t0 = perf_counter()
    try:
        _import_all()
    finally:
        sys.meta_path.remove(hook)
    t1 = perf_counter()
    _rebind_cross_module_functions()
    run_cli = _wrap(sys.modules["bernsing.harness.cli"].run_cli, "cli")
    _calls["cli.calls"] -= 1  # the benchmark's own call is not a layer crossing
    t2 = perf_counter()
    code = run_cli(argv)
    sys.stdout.flush()
    return code, (t1 - t0) + (perf_counter() - t2)


def _spans() -> dict:
    return {
        "layer": np.asarray(_layer, dtype=np.int64),
        "parent": np.asarray(_parent, dtype=np.int64),
        "start": np.asarray(_start),
        "end": np.asarray(_end),
        "is_import": np.asarray(_is_import, dtype=bool),
    }


def summarise(spans: dict, wall: float) -> dict:
    layer, is_import = spans["layer"], spans["is_import"]
    self_s = _self_times(layer, spans["parent"], spans["end"] - spans["start"])
    call_spans = np.bincount(layer[~is_import], minlength=len(LAYERS))
    return {
        "wall_s": wall,
        "unattributed_s": wall - float(self_s.sum()),
        "layers": {
            name: {"self_s": float(self_s[j]), "call_spans": int(call_spans[j])}
            for j, name in enumerate(LAYERS)
        },
        "counts": {**_calls, **_counts, **_work_counts()},
    }


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        sys.stderr.write(__doc__)
        return 2
    summary_path, spans_path, cli_argv = argv[0], argv[1], argv[3:]
    code, wall = trace_cli(cli_argv)
    t_done = perf_counter()
    spans = _spans()
    np.savez(spans_path, layers=np.asarray(LAYERS), **spans)
    summary = summarise(spans, wall)
    summary["exit_code"] = code
    # time spent after the command (counting, writing spans), which the
    # benchmark subtracts when it states the cost of tracing
    summary["post_s"] = perf_counter() - t_done
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
