"""Spans around the program's public functions, recorded from outside it.

The tracer swaps each function named in TRACED for a timing wrapper in every
`matchgates` module that holds it (the home module and every module that
imported it with `from ... import`), only for the duration of one request,
and puts the originals back afterwards.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter


def _gates_in(args, kwargs, _out):
    circuit = args[0] if args else next(iter(kwargs.values()))
    return {"gates": len(circuit.gates)}


def _gates_out(_args, _kwargs, out):
    return {"gates": len(out.gates)}


def _added(args, kwargs, out):
    return {"added": len(out.gates) - _gates_in(args, kwargs, out)["gates"]}


def _factors(_args, _kwargs, out):
    return {"factors": len(out)}


# (module, function, span name, counter of the call's work or None)
TRACED = (
    ("matchgates.cli", "main", "cli", None),
    ("matchgates.circuits", "parse_circuit", "circuits.parse", _gates_out),
    ("matchgates.circuits", "validate", "circuits.validate", _gates_in),
    ("matchgates.circuits", "serialize_circuit", "circuits.serialize", _gates_in),
    ("matchgates.simulate", "simulate_expectation", "simulate.expectation", _gates_in),
    ("matchgates.simulate", "output_distribution", "simulate.output_distribution", None),
    ("matchgates.standardize", "standardize", "standardize", _added),
    ("matchgates.compress", "pad_to_power_of_two", "compress.pad", None),
    ("matchgates.compress", "compress_circuit", "compress.circuit", _gates_out),
    ("matchgates.algebra", "givens_factor", "algebra.givens_factor", _factors),
    ("matchgates.expand", "expand_circuit", "expand.circuit", _gates_out),
    ("matchgates.expand", "two_level_to_matchgates", "expand.two_level", None),
    ("matchgates.oracle", "run_statevector", "oracle.run_statevector", _gates_in),
)


class Tracer:
    """Records [name, start, end, parent index, request, counts] per call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = -1
        self._patches = []
        for module, name, span, count in TRACED:
            fn = getattr(importlib.import_module(module), name, None)
            if not callable(fn):
                raise RuntimeError(f"{module}.{name} no longer exists: its span would be lost")
            wrapper = self._wrap(fn, span, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "matchgates" or mod_name.startswith("matchgates."):
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, attr, fn, wrapper))

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self._request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def request(self, request_id: int):
        """Trace the calls made inside the block as one request."""
        self._request = request_id
        for mod, attr, _fn, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, fn, _wrapper in self._patches:
                setattr(mod, attr, fn)


def per_request(spans: list[list]) -> dict[int, dict[str, dict[str, float]]]:
    """{request: {span name: {"self": s, "calls": n, <counter>: total}}}.

    A span's self time is its duration minus the durations of its direct
    children; calls in one request run on one thread, so children never
    overlap.
    """
    child = [0.0] * len(spans)
    for _name, start, end, parent, _req, _counts in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[int, dict[str, dict[str, float]]] = {}
    for i, (name, start, end, _parent, req, counts) in enumerate(spans):
        row = out.setdefault(req, {}).setdefault(name, {"self": 0.0, "calls": 0})
        row["self"] += end - start - child[i]
        row["calls"] += 1
        for key, value in (counts or {}).items():
            row[key] = row.get(key, 0) + value
    return out


def layer_metrics(
    spans: list[list], in_gates: dict[int, int], scales: dict[int, float]
) -> dict[str, float]:
    """Per-layer metrics over the traced requests (keys of `in_gates`).

    Self times are multiplied by their request's factor in `scales`.
    `<span>.self_s` and `<span>.calls` are medians per request; rates divide
    totals over all traced requests.  A layer that does not run reports 0.
    """
    rows = per_request(spans)
    reqs = sorted(in_gates)

    def values(span, key):
        per = [rows.get(r, {}).get(span, {}).get(key, 0) for r in reqs]
        return [v * scales[r] for v, r in zip(per, reqs)] if key == "self" else per

    def median(span, key):
        return float(statistics.median(values(span, key)))

    def rate(span, key):
        busy = sum(values(span, "self"))
        return sum(values(span, key)) / busy if busy > 0 else 0.0

    return {
        "cli.self_s": median("cli", "self"),
        "circuits.parse.self_s": median("circuits.parse", "self"),
        "circuits.parse.gates_per_s": rate("circuits.parse", "gates"),
        "circuits.validate.calls": median("circuits.validate", "calls"),
        "circuits.validate.self_s": median("circuits.validate", "self"),
        "circuits.validate.gates_per_in_gate": sum(values("circuits.validate", "gates"))
        / sum(in_gates.values()),
        "circuits.serialize.self_s": median("circuits.serialize", "self"),
        "circuits.serialize.gates_per_s": rate("circuits.serialize", "gates"),
        "simulate.expectation.calls": median("simulate.expectation", "calls"),
        "simulate.expectation.self_s": median("simulate.expectation", "self"),
        "simulate.gates_per_s": rate("simulate.expectation", "gates"),
        "simulate.output_distribution.self_s": median("simulate.output_distribution", "self"),
        "standardize.self_s": median("standardize", "self"),
        "standardize.added_gates": median("standardize", "added"),
        "compress.pad.self_s": median("compress.pad", "self"),
        "compress.circuit.self_s": median("compress.circuit", "self"),
        "compress.out_gates": median("compress.circuit", "gates"),
        "compress.out_gates_per_s": rate("compress.circuit", "gates"),
        "algebra.givens_factor.calls": median("algebra.givens_factor", "calls"),
        "algebra.givens_factor.factors": median("algebra.givens_factor", "factors"),
        "algebra.givens_factor.self_s": median("algebra.givens_factor", "self"),
        "expand.circuit.self_s": median("expand.circuit", "self"),
        "expand.two_level.calls": median("expand.two_level", "calls"),
        "expand.out_gates": median("expand.circuit", "gates"),
        "oracle.run_statevector.calls": median("oracle.run_statevector", "calls"),
        "oracle.run_statevector.self_s": median("oracle.run_statevector", "self"),
        "oracle.gates_per_s": rate("oracle.run_statevector", "gates"),
    }
