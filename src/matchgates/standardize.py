"""Reduce any matchgate-circuit instance to all-zero input and line-1 readout.

Given a width-n circuit with basis input x and measured line k, build a
circuit on all-zero input whose line-1 output distribution matches the
original's line-k distribution:

  * the ones of x, in line order, are raised in consecutive pairs (an odd
    count borrows one extra line, n + 1, which stays outside the original
    circuit's action): for a pair at lines a < b, one G(X, X) on lines a and
    a + 1, then fermionic swaps W on lines a + 1 .. b - 1 walk the second one
    down to b; every swap acts on a |10> pair, so no minus signs arise,
  * the original gates run unchanged,
  * a suffix ladder of W gates conjugates Z_k down to Z_1.

A pair (a, b) costs b - a gates, so the prefix costs at most n and the
whole overhead at most 2n - 1, within STANDARD_SIZE_CONSTANT * n^2 + n.
The added gates are table rows: no GateApp is built (see `circuits`).
"""

from __future__ import annotations

from .circuits import (
    MatchgateCircuit,
    _ParsedGates,
    _mark_valid,
    _require_flavor,
    _table_of,
    validate_or_raise,
)

STANDARD_SIZE_CONSTANT = 2


def standardize(circuit: MatchgateCircuit) -> MatchgateCircuit:
    """Equivalent circuit with all-zero input and measure line 1.

    The output distribution on line 1 of the result equals the input
    circuit's distribution on its measure line.
    """
    _require_flavor(circuit, "mg")
    validate_or_raise(circuit)
    n = circuit.width
    k = circuit.measure_line
    targets = [i + 1 for i, c in enumerate(circuit.input) if c == "1"]
    r = len(targets)

    if r == 0 and k == 1:
        return circuit

    odd = r % 2 == 1
    width = n + 1 if odd else n
    idle = circuit.allow_idle or odd

    if odd:
        targets.append(width)
    # Raise each consecutive pair (a, b) of targets at a and a + 1, then walk
    # the second one down to b through lines that are still zero.
    pairs = zip(targets[::2], targets[1::2])
    prefix = [("gxx" if j == a else "w", (j,), ()) for a, b in pairs for j in range(a, b)]
    suffix = [("w", (j,), ()) for j in range(k - 1, 0, -1)]
    gates = _ParsedGates(_table_of(prefix), circuit.gates, _table_of(suffix))
    added = len(gates) - len(circuit.gates)
    bound = STANDARD_SIZE_CONSTANT * n * n + n
    if added > bound:
        raise RuntimeError(f"standardizer emitted {added} extra gates, bound {bound}")
    return _mark_valid(MatchgateCircuit(width, gates, "0" * width, 1, idle))
