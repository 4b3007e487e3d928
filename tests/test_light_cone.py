"""The backward light cone of a readout: the gates compress and expand keep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgates import randgen
from matchgates.circuits import (
    GateApp,
    GeneralCircuit,
    MatchgateCircuit,
    light_cone,
    parse_circuit,
    reals_from_complex,
    serialize_circuit,
    validate,
)
from matchgates.cli import main
from matchgates.compress import compress_circuit, pad_to_power_of_two
from matchgates.expand import EXPAND_MAX_GATES, expand_circuit
from matchgates.oracle import expectation_z, run_statevector
from matchgates.simulate import simulate_expectation, simulate_expectation_reference
from matchgates.standardize import standardize


def _mask(gates, width: int, line: int, flavor: str = "mg") -> list[bool]:
    kind = MatchgateCircuit if flavor == "mg" else GeneralCircuit
    args = (width, tuple(gates), "0" * width) + ((line, True) if flavor == "mg" else ())
    return light_cone(kind(*args).gates, width, line).tolist()


def _rot(k: int, plane: int, theta: float = 0.7) -> GateApp:
    return GateApp("rot", (k,), (float(plane), theta))


def _u(d: int, rng) -> tuple[float, ...]:
    return reals_from_complex(randgen.haar_unitary(d, rng))


def test_light_cone_masks_hand_written_cases(rng):
    # Each list is in circuit order; the scan reads it last gate first.
    # `w` moves line 1's support to line 2, then to line 3, so a gate on
    # pair 1 before them is dropped; without the swaps it is kept.
    assert _mask([_rot(1, 2), GateApp("w", (2,)), GateApp("w", (1,))], 4, 1) == [False, True, True]
    assert _mask([_rot(1, 2), _rot(2, 2), _rot(1, 2)], 4, 1) == [True, True, True]
    # `gxx` and a rot in plane 1 or 6 keep the support: the gate on pair 2
    # before them is dropped.  A rot in plane 2, or an mg gate, spreads it.
    for keeper in (GateApp("gxx", (1,)), _rot(1, 1), _rot(1, 6)):
        assert _mask([_rot(2, 3), keeper], 4, 1) == [False, True]
    mg = GateApp("mg", (1,), randgen.random_matchgate_params(rng))
    for spreader in (_rot(1, 2), _rot(1, 5), mg):
        assert _mask([_rot(2, 3), spreader], 4, 1) == [True, True]
    # A gate outside the support is dropped whatever its kind.
    assert _mask([mg, GateApp("w", (3,)), _rot(2, 2)], 4, 4) == [False, True, False]
    # qc: a one-qubit gate keeps the support, a two-qubit gate adds both lines.
    u2, cu1, u1 = GateApp("u2", (2, 3), _u(4, rng)), GateApp("cu1", (1, 2), _u(2, rng)), _u(2, rng)
    gates = [u2, GateApp("h", (3,)), cu1, GateApp("x", (3,))]
    assert _mask(gates, 3, 1, "qc") == [True, False, True, False]
    assert _mask([u2, GateApp("u1", (1,), u1)], 3, 1, "qc") == [False, True]
    assert _mask([], 3, 1, "qc") == []


# Every mg kind and rot plane; "edge" places a gate on the pair with exactly
# one line in the support, where a wrong rule would show.
_MG_KINDS = ["w", "gxx", "mg", *(f"rot{p}" for p in range(1, 7))]


@st.composite
def _mg_circuits(draw, min_line: int = 1):
    """An mg circuit on n <= 10 lines, with a random input, measured on k,
    drawn last gate first so that many gates sit at the edge of line k's
    backward light cone (tracked here by the rule `light_cone` states)."""
    n = draw(st.integers(max(2, min_line), 10))
    k = draw(st.integers(min_line, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support, gates = {k}, []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(_MG_KINDS))
        edges = [j for j in range(1, n) if (j in support) != (j + 1 in support)]
        at_edge = edges and draw(st.booleans())
        j = draw(st.sampled_from(edges) if at_edge else st.integers(1, n - 1))
        if kind == "mg":
            gates.append(GateApp("mg", (j,), randgen.random_matchgate_params(rng)))
        elif kind.startswith("rot"):
            angles = [0.0, -0.0, 1e-300, np.pi, 1e6, float(rng.uniform(-4, 4))]
            theta = draw(st.sampled_from(angles))
            gates.append(_rot(j, int(kind[3:]), theta))
        else:
            gates.append(GateApp(kind, (j,)))
        if {j, j + 1} & support:
            if kind == "w":
                support ^= {j, j + 1} if len({j, j + 1} & support) == 1 else set()
            elif kind not in ("gxx", "rot1", "rot6"):
                support |= {j, j + 1}
    bits = "".join(draw(st.sampled_from("01")) for _ in range(n))
    return MatchgateCircuit(n, tuple(gates[::-1]), bits, k, allow_idle=True)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_mg_circuits())
def test_the_cone_of_every_line_keeps_the_readout(circuit):
    # Dropping the gates outside line j's cone leaves <Z_j> as the dense
    # oracle, the fast path and the reference path read it on all gates.
    state = run_statevector(circuit)
    for j in range(1, circuit.width + 1):
        cone = light_cone(circuit.gates, circuit.width, j)
        kept = [g for g, keep in zip(circuit.gates, cone) if keep]
        pruned = MatchgateCircuit(circuit.width, tuple(kept), circuit.input, j, allow_idle=True)
        want = expectation_z(state, j)
        assert abs(simulate_expectation(pruned) - want) <= 1e-9
        assert abs(simulate_expectation(circuit, j) - want) <= 1e-9
        assert abs(simulate_expectation_reference(circuit, j) - want) <= 1e-9


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_mg_circuits(min_line=2))
def test_compress_keeps_the_readout_where_the_ladder_meets_the_cone(circuit):
    # standardize's w ladder carries line k's readout to line 1, so the cone
    # compress takes from line 1 runs back through it to line k's.
    out = compress_circuit(pad_to_power_of_two(standardize(circuit)))
    want = expectation_z(run_statevector(circuit), circuit.measure_line)
    assert abs(expectation_z(run_statevector(out), 1) - want) <= 1e-9


@settings(max_examples=30, derandomize=True, deadline=None)
@given(m=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), size=st.integers(1, 8))
def test_expand_drops_gates_outside_the_cone_and_keeps_the_readout(m, seed, size):
    # The closing gates on lines 2..m never reach line 1: expand drops them
    # and the x of any input bit they alone touch.
    rng = np.random.default_rng(seed)
    bits = "".join(rng.choice(["0", "1"], m))
    c = randgen.random_general_circuit(m, size, rng, bits)
    tail = (GateApp("u2", (m, 2), _u(4, rng)) if m > 2 else GateApp("u1", (2,), _u(2, rng)),)
    c = GeneralCircuit(m, (*c.gates, *tail), bits)
    assert not light_cone(c.gates, m, 1).all()
    want = expectation_z(run_statevector(c), 1)
    assert abs(simulate_expectation(expand_circuit(c)) - want) <= 1e-9


# Invalid gates, as text and as built in code.
_NOT_UNITARY = (
    "mg 3 a=2,0,0,0,0,0,1,0 b=1,0,0,0,0,0,1,0",
    GateApp("mg", (3,), (2, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0)),
)
_NAN_ROT = ("rot 3 plane=2 theta=nan", _rot(3, 2, float("nan")))


def _refusal(circuit) -> str:
    """What the CLI prints for an invalid circuit: validate's violations."""
    return f"invalid circuit: {'; '.join(validate(circuit))}\n"


@pytest.mark.parametrize("bad", [_NOT_UNITARY, _NAN_ROT], ids=["not-unitary", "nan"])
@pytest.mark.parametrize("command", ["simulate", "compress"])
def test_an_invalid_gate_outside_the_cone_is_still_refused(tmp_path, capsys, bad, command):
    # Line 1's cone never reaches pair 3, yet validation reads every gate.
    text, gate = bad
    c = MatchgateCircuit(4, (gate, _rot(1, 1, 0.3), GateApp("w", (2,))), "0000", 1)
    assert light_cone(c.gates, 4, 1).tolist() == [False, True, False]
    src, out = tmp_path / "c.mg", tmp_path / "c.qc"
    src.write_text(f"circuit mg width=4 input=0000 measure=1\n{text}\nrot 1 plane=1 theta=0.3\nw 2\n")
    args = [command, str(src)] + ([str(out)] if command == "compress" else [])
    assert main(args) == 2
    assert capsys.readouterr().err == _refusal(c)
    assert not out.exists()


def test_an_infinite_qc_gate_outside_the_cone_is_still_refused(tmp_path, capsys):
    c = GeneralCircuit(2, (GateApp("u1", (2,), (np.inf, 0, 0, 0, 0, 0, 1, 0)), GateApp("h", (1,))), "00")
    assert light_cone(c.gates, 2, 1).tolist() == [False, True]
    src, out = tmp_path / "c.qc", tmp_path / "c.mg"
    src.write_text("circuit qc width=2 input=00\nu1 2 m=inf,0,0,0,0,0,1,0\nh 1\n")
    assert main(["expand", str(src), str(out)]) == 2
    assert capsys.readouterr().err == _refusal(c)
    assert not out.exists()


def test_the_expand_guard_counts_the_gates_in_the_cone(tmp_path, capsys, rng):
    # 500 Haar u2 gates on lines 2..8 would emit over EXPAND_MAX_GATES, but
    # a closing h on line 1 never reaches them: --force expands the circuit
    # as if they were not there.  A closing cu1 on lines 1 and 2 brings them
    # into the cone, and the guard refuses it before emitting anything.  (The
    # expansion keeps only their block copies on the pairs whose qubit-1 bit
    # is 0, about half, so 200 such gates no longer reach the guard.)
    heavy = tuple(
        GateApp("u2", tuple(int(q) + 2 for q in rng.choice(7, 2, replace=False)), _u(4, rng))
        for _ in range(500)
    )
    h = GateApp("h", (1,))
    src, out = tmp_path / "c.qc", tmp_path / "c.mg"
    src.write_text(serialize_circuit(GeneralCircuit(8, (*heavy, h), "0" * 8)))
    assert main(["expand", str(src), str(out), "--force"]) == 0
    alone = expand_circuit(GeneralCircuit(8, (h,), "0" * 8), width_guard=8)
    assert f"out_gates={len(alone.gates)} " in capsys.readouterr().out
    assert parse_circuit(out.read_text()) == alone
    out.unlink()
    cu1 = GateApp("cu1", (1, 2), _u(2, rng))
    src.write_text(serialize_circuit(GeneralCircuit(8, (*heavy, cu1), "0" * 8)))
    assert main(["expand", str(src), str(out), "--force"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("guard: expanding would emit ") and f"guard is {EXPAND_MAX_GATES}" in err
    assert not out.exists()
