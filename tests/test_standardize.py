"""Reduction of arbitrary basis inputs and readout lines to the standard form."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchgates import circuits, randgen
from matchgates.circuits import GateApp, MatchgateCircuit
from matchgates.compress import compress_circuit, pad_to_power_of_two
from matchgates.oracle import verify_equivalent
from matchgates.simulate import simulate_expectation
from matchgates.standardize import STANDARD_SIZE_CONSTANT, standardize


def test_already_standard_circuits_pass_through(rng):
    c = randgen.random_matchgate_circuit(4, 15, rng, input_bits="0000", measure_line=1)
    assert standardize(c) == c


def test_two_line_example_structure():
    core = (GateApp("w", (1,), ()),)
    c = MatchgateCircuit(2, core, "11", measure_line=2)
    std = standardize(c)
    assert std.width == 2
    assert std.input == "00"
    assert std.measure_line == 1
    assert std.gates == (GateApp("gxx", (1,)),) + core + (GateApp("w", (1,)),)


def test_odd_weight_input_borrows_one_extra_line():
    core = (GateApp("w", (1,), ()), GateApp("w", (2,), ()))
    c = MatchgateCircuit(3, core, "100", measure_line=1)
    std = standardize(c)
    assert std.width == 4
    assert std.input == "0000"
    assert std.allow_idle
    # The one on line 1 pairs with the borrowed line 4: raised on lines 1
    # and 2, the second one walked down to line 4.
    assert std.gates[:3] == (
        GateApp("gxx", (1,)),
        GateApp("w", (2,)),
        GateApp("w", (3,)),
    )
    assert std.gates[3:] == core


@st.composite
def _instances(draw):
    # Any input bits and measure line on widths 2..10, covering or not.
    n = draw(st.integers(2, 10))
    bits = "".join(draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n)))
    k = draw(st.integers(1, n))
    size = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return randgen.random_matchgate_circuit(n, size, rng, bits, k, cover=draw(st.booleans()))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_instances())
@example(randgen.random_matchgate_circuit(10, 12, np.random.default_rng(1), "1" * 10, 10))
# One odd one on line 1 walks to the borrowed line: the 2n - 1 bound, met.
@example(randgen.random_matchgate_circuit(10, 12, np.random.default_rng(2), "1" + "0" * 9, 10))
def test_standard_form_preserves_the_readout_distribution(c):
    n = c.width
    std = standardize(c)
    assert std.input == "0" * std.width
    assert std.measure_line == 1
    added = len(std.gates) - len(c.gates)
    assert added <= 2 * n - 1
    assert added <= STANDARD_SIZE_CONSTANT * n * n + n
    # Fast simulation path on both sides.
    assert abs(simulate_expectation(c) - simulate_expectation(std)) <= 1e-10
    if n <= 8:
        # Dense statevector oracle on both sides.
        report = verify_equivalent(c, std, tol=1e-10)
        assert report.passed, report.line()
        # Cross-engine: streaming simulation against the oracle.
        cross = verify_equivalent(c, std, tol=1e-10, engine_a="mgsim", engine_b="oracle")
        assert cross.passed, cross.line()


def test_gate_overhead_respects_the_quadratic_bound(rng):
    for n in (2, 3, 5, 8, 12):
        bits = "1" * n  # worst case: every line needs raising
        c = randgen.random_matchgate_circuit(
            n, 10, rng, input_bits=bits, measure_line=n
        )
        std = standardize(c)
        added = len(std.gates) - len(c.gates)
        assert added <= STANDARD_SIZE_CONSTANT * n * n + n


def test_idempotent_on_its_own_output(rng):
    c = randgen.random_matchgate_circuit(4, 12, rng, input_bits="1010", measure_line=3)
    std = standardize(c)
    assert standardize(std) == std


def test_standardizing_a_parsed_circuit_reads_its_table(rng, monkeypatch):
    built = randgen.random_matchgate_circuit(6, 40, rng, input_bits="010110", measure_line=4)
    parsed = circuits.parse_circuit(circuits.serialize_circuit(built))
    want = circuits.serialize_circuit(compress_circuit(pad_to_power_of_two(standardize(built))))

    def refuse(cols):
        raise AssertionError("the parsed gates were turned into GateApps")

    monkeypatch.setattr(circuits, "_gate_apps", refuse)
    std = standardize(parsed)
    assert circuits.serialize_circuit(compress_circuit(pad_to_power_of_two(std))) == want
