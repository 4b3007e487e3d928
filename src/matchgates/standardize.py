"""Reduce any matchgate-circuit instance to all-zero input and line-1 readout.

Given a width-n circuit with basis input x and measured line k, build a
circuit on all-zero input whose line-1 output distribution matches the
original's line-k distribution:

  * a prefix of G(X, X) gates raises the required ones pairwise on the
    bottom lines (an odd count of ones borrows one extra line, which stays
    outside the original circuit's action),
  * a network of fermionic swaps W walks those ones up into position x; every
    swap acts on a |01> / |10> pair, so no minus signs arise,
  * the original gates run unchanged,
  * a suffix ladder of W gates conjugates Z_k down to Z_1.

The gate overhead is at most STANDARD_SIZE_CONSTANT * n^2 + n.
"""

from __future__ import annotations

from .circuits import (
    GateApp,
    MatchgateCircuit,
    _ParsedGates,
    _gate,
    _mark_valid,
    _require_flavor,
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

    prefix: list[GateApp] = []
    pairs = (r + 1) // 2
    for i in range(pairs):
        prefix.append(_gate("gxx", (width - 1 - 2 * i,), ()))
    # Ones now occupy the bottom lines; the movable ones sit at n-r+1 .. n
    # (an odd count leaves its partner parked on the borrowed line n+1).

    swaps: list[GateApp] = []
    for i, target in enumerate(targets, start=1):
        source = n - r + i
        for j in range(source, target, -1):
            swaps.append(_gate("w", (j - 1,), ()))

    suffix = [_gate("w", (j,), ()) for j in range(k - 1, 0, -1)]

    gates = _ParsedGates(prefix + swaps, circuit.gates, suffix)
    added = len(gates) - len(circuit.gates)
    bound = STANDARD_SIZE_CONSTANT * n * n + n
    if added > bound:
        raise RuntimeError(f"standardizer emitted {added} extra gates, bound {bound}")
    return _mark_valid(MatchgateCircuit(width, gates, "0" * width, 1, idle))
