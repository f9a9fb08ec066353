"""End-to-end checks of the optical fusion apparatus.

The randomized properties (branch probabilities, feed-forward fidelity, the
Hong-Ou-Mandel filter, spectator entanglement) are ``fockfuse.verify``
checks, run by ``test_acceptance.py``; this file pins specific inputs and
the runner API.
"""

import copy
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import fockfuse
from fockfuse import circuits
from fockfuse.circuits import (
    Circuit,
    PhotonIn,
    apply_feed_forward,
    build_fusion_circuit,
    fission_success_target,
    fused_target,
    fusion_input,
    initial_state,
    run_circuit,
    run_fission,
    run_fusion,
)
from fockfuse.elements import Hwp, Pbs, SigmaX, Unfold, apply_elements
from fockfuse.rails import qubit_on
from fockfuse.states import (
    BRANCH_MODE,
    H,
    INV_SQRT2,
    V,
    DetectionPattern,
    MemoRules,
    MixedState,
    PureState,
    fidelity,
    normalized_amplitudes,
    planned,
    superpose,
)
from fockfuse.verify import random_qubit


class TestStructure:
    def test_element_sequence(self):
        # fusion.lop's elements, spelled out independently of the parser
        circuit = build_fusion_circuit()
        assert circuit.elements == (
            Hwp("a", 22.5),
            Pbs("c", "a", "c", "a"),
            Hwp("a", 22.5),
            Hwp("c", 22.5),
            Unfold("t", "t1", "t2"),
            Hwp("t1", 22.5),
            SigmaX("t2"),
            Hwp("t2", 22.5),
            Pbs("a", "t1", "a", "t1"),
            Pbs("c", "t2", "c", "t2"),
            Hwp("a", 22.5),
            Hwp("c", 22.5),
            Hwp("t1", 22.5),
            Hwp("t2", 22.5),
        )

    def test_output_modes(self):
        assert build_fusion_circuit().output_modes() == {"a", "c", "t1", "t2"}

    def test_patterns_mutually_exclusive(self):
        circuit = build_fusion_circuit()
        kets = []
        state = PureState.vacuum()
        for pa in (H, V):
            for pc in (H, V):
                for pt in (H, V):
                    for tmode in ("t1", "t2"):
                        kets.append(
                            state.create("a", pa).create("c", pc).create(tmode, pt)
                        )
        for k in kets:
            matches = sum(
                1 for pattern in circuit.patterns
                for occ, _ in k.items()
                if pattern.matches(occ)
            )
            assert matches == 1


class TestLogicalBasis:
    def test_hh_input_gives_t1h(self):
        outcome = run_fusion((1, 0), (1, 0))[0]
        assert outcome.probability == pytest.approx(1 / 32, abs=1e-12)
        assert fidelity(apply_feed_forward(outcome), fused_target((1, 0, 0, 0))) == pytest.approx(1.0)

    def test_vv_input_gives_t2v(self):
        outcome = run_fusion((0, 1), (0, 1))[0]
        assert fidelity(apply_feed_forward(outcome), fused_target((0, 0, 0, 1))) == pytest.approx(1.0)

    def test_plus_plus_input(self):
        # hand expansion of the tensor product: all four amplitudes 1/2
        plus = (INV_SQRT2, INV_SQRT2)
        outcome = run_fusion(plus, plus)[0]
        target = fused_target((0.5, 0.5, 0.5, 0.5))
        assert fidelity(apply_feed_forward(outcome), target) == pytest.approx(1.0)


class TestGenericRunner:
    def test_runner_matches_run_fusion(self):
        rng = random.Random(46)
        psi, phi = random_qubit(rng), random_qubit(rng)
        circuit = build_fusion_circuit()
        via_runner = run_circuit(circuit, bindings={"psi": psi, "phi": phi})
        via_fusion = run_fusion(psi, phi)
        for x, y in zip(via_runner, via_fusion):
            assert x.probability == pytest.approx(y.probability, abs=1e-15)
            assert fidelity(x.state, y.state) == pytest.approx(1.0)

    def test_empty_circuit_projects_the_input(self):
        circuit = Circuit(
            modes=("a",),
            inputs=(PhotonIn("a", H),),
            elements=(),
            patterns=(DetectionPattern.of({"a": H}), DetectionPattern.of({"a": V})),
        )
        outcomes = run_circuit(circuit)
        assert outcomes[0].probability == pytest.approx(1.0)
        assert outcomes[1].probability == 0.0

    def test_mixture_input_is_weighted(self):
        rng = random.Random(47)
        circuit = build_fusion_circuit()
        psi, phi = random_qubit(rng), random_qubit(rng)
        plain = initial_state(circuit, {"psi": psi, "phi": phi})
        tagged = initial_state(circuit, {"psi": psi, "phi": phi}, tags={"a": "A"})
        mixed = MixedState(((0.4, plain), (0.6, tagged)))
        outcomes = run_circuit(circuit, mixed)
        for idx in range(4):
            expected = (
                0.4 * run_circuit(circuit, plain)[idx].probability
                + 0.6 * run_circuit(circuit, tagged)[idx].probability
            )
            assert outcomes[idx].probability == pytest.approx(expected, abs=1e-15)

    def test_a_circuit_is_validated_once_per_process(self, monkeypatch):
        """Building a circuit validates it; running it validates nothing."""
        calls = []
        validate = Circuit.validate
        monkeypatch.setattr(Circuit, "validate", lambda circuit: calls.append(circuit) or validate(circuit))
        circuits._heralded_map.cache_clear()
        circuit = build_fusion_circuit.__wrapped__()  # parsed afresh, not taken from the cache
        assert calls == [circuit]
        for _ in range(10):
            run_circuit(circuit, bindings={"psi": (1, 0), "phi": (0.6, 0.8)})
            initial_state(circuit, {"psi": (1, 0), "phi": (0.6, 0.8)})
        assert calls == [circuit]

    @pytest.mark.parametrize("requirement", [H, V, "any", "none"])
    @pytest.mark.parametrize("group", ["a", ("a", "b")])
    def test_rail_photon_on_a_detected_mode_is_never_heralded(self, requirement, group):
        pattern = DetectionPattern.of({group: requirement})
        circuit = Circuit(("a", "b"), (PhotonIn("b", H),), (Hwp("b", 22.5),), (pattern,))
        rail = PureState.vacuum().create("a", "")
        rules = circuits._heralded_map(circuit)
        for state in (rail, initial_state(circuit).create("a", "")):
            assert all(not rules.image(occ)[1] for occ, _amp in state.items())
            (outcome,) = run_circuit(circuit, state)
            assert outcome.probability == 0.0 and outcome.state.is_zero

    def test_input_state_and_bindings_are_exclusive(self):
        circuit = build_fusion_circuit()
        bindings = {"psi": (1, 0), "phi": (0, 1)}
        with pytest.raises(ValueError, match="^give either input_state or bindings$"):
            run_circuit(circuit, initial_state(circuit, bindings), bindings=bindings)

    def test_unbound_slot_raises(self):
        with pytest.raises(ValueError, match="unbound"):
            initial_state(build_fusion_circuit(), {"psi": (1, 0)})

    @pytest.mark.parametrize("tags, message", [
        ({"t1": "A"}, "^no input on mode 't1'$"),
        ({"a": "A", "ghost": "B", "c1": ""}, "^no input on mode 'ghost', 'c1'$"),
    ], ids=["internal-mode", "undeclared-and-internal"])
    def test_a_tag_on_a_mode_no_input_occupies_raises(self, tags, message):
        with pytest.raises(ValueError, match=message):
            initial_state(build_fusion_circuit(), {"psi": (1, 0), "phi": (0, 1)}, tags=tags)


class TestInputErrors:
    @pytest.mark.parametrize("bindings, message", [
        ({"phi": (0, 0), "ghost": (1,)}, "^unbound input slots: psi$"),
        ({"psi": (1, 0, 0), "phi": (0, 0), "ghost": (1,)}, "^no input slot named 'ghost'$"),
        ({"psi": (1, 0, 0), "phi": (0, 0)}, "^slot 'psi': expected 2 amplitudes, got 3$"),
        ({"psi": (1, 0), "phi": (0, 0)}, "^slot 'phi': amplitudes are all zero$"),
        ({"psi": (1, 0), "phi": (0, 1)}, "^no input on mode 't1'$"),
    ], ids=["missing", "unknown", "first-bad-slot", "second-bad-slot", "stray-tag"])
    def test_each_error_is_raised_before_the_later_ones(self, bindings, message):
        """Missing slots, then unknown ones, then each bad slot in input order,
        then a stray tag: each row also breaks every later rule, and the
        refusal is raised on every call."""
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                initial_state(build_fusion_circuit(), bindings, tags={"t1": "A"})

    def test_a_warm_call_makes_no_plan_miss(self):
        circuit = build_fusion_circuit()
        initial_state(circuit, {"psi": (1, 0), "phi": (0.6, 0.8)}, tags={"a": "A"})
        misses = circuits._input_plan.cache_info().misses, planned.cache_info().misses
        state = initial_state(circuit, {"psi": (0.6, 0.8j), "phi": (0, 1)}, tags={"a": "A"})
        assert (circuits._input_plan.cache_info().misses, planned.cache_info().misses) == misses
        assert len(state) == 2


def outcome_bits(outcomes):
    """Each outcome's pattern, probability and terms, signed zeros included."""
    return [
        (o.pattern, o.probability.hex(), [(occ, a.real.hex(), a.imag.hex()) for occ, a in o.state.items()])
        for o in outcomes
    ]


class TestRouting:
    """``run_circuit`` routes each heralded term, in one pass, to every
    pattern that admits it; each outcome must equal, bit for bit, the
    projection of the full output onto its pattern."""

    def projected(self, circuit, state):
        full = apply_elements(state, circuit.elements)
        return [full.project(pattern) for pattern in circuit.patterns]

    def test_overlapping_patterns_both_receive_a_term(self):
        either, h_only = DetectionPattern.of({"a": "any"}), DetectionPattern.of({"a": H})
        circuit = Circuit(("a", "b"), (PhotonIn("a", H), PhotonIn("b", V)), (Hwp("a", 22.5),), (either, h_only))
        state = initial_state(circuit)
        got = run_circuit(circuit, state)
        assert outcome_bits(got) == outcome_bits(self.projected(circuit, state))
        assert got[0].probability == pytest.approx(1.0) and got[1].probability == pytest.approx(0.5)
        routes = {occ: route for occ, route, _amp in circuits._heralded_map(circuit).replay(state)}
        (h_term, _amp), = got[1].state.items()
        assert routes[h_term] == (0, 1) and h_term in dict(got[0].state.items())

    def test_a_pattern_that_admits_no_term_is_empty(self):
        patterns = (DetectionPattern.of({"a": "any"}), DetectionPattern.of({"a": "none"}))
        circuit = Circuit(("a",), (PhotonIn("a", H),), (Hwp("a", 22.5),), patterns)
        state = initial_state(circuit)
        admitted, empty = run_circuit(circuit, state)
        assert admitted.probability == pytest.approx(1.0)
        assert empty.probability == 0.0 and empty.state.is_zero and list(empty.state.items()) == []
        assert outcome_bits([admitted, empty]) == outcome_bits(self.projected(circuit, state))

    def test_a_warm_run_equals_a_cold_one(self):
        circuit = build_fusion_circuit()
        bindings = {"psi": (0.6, 0.8j), "phi": (INV_SQRT2, -INV_SQRT2)}
        earlier = initial_state(circuit, {"psi": (1, 0), "phi": (0, 1)}, tags={"a": "A"})
        circuits._heralded_map.cache_clear()
        run_circuit(circuit, earlier)  # fills the map's memos with other occupations
        warm = run_circuit(circuit, bindings=bindings)
        circuits._heralded_map.cache_clear()
        cold = run_circuit(circuit, bindings=bindings)
        assert outcome_bits(warm) == outcome_bits(cold)

    def test_a_mixture_routes_like_its_flattened_branches(self):
        circuit = build_fusion_circuit()
        bindings = {"psi": (0.6, 0.8j), "phi": (INV_SQRT2, INV_SQRT2)}
        plain = initial_state(circuit, bindings)
        tagged = initial_state(circuit, bindings, tags={"a": "A", "t": "B"})
        mixed = MixedState(((0.25, plain), (0.75, tagged)))
        flat = PureState(dict(mixed.items()))
        assert type(flat) is PureState
        got = run_circuit(circuit, mixed)
        assert outcome_bits(got) == outcome_bits(run_circuit(circuit, flat))
        assert outcome_bits(got) == outcome_bits(self.projected(circuit, flat))
        labels = {occ[0][0] for outcome in got for occ, _amp in outcome.state.items()}
        assert labels == {(BRANCH_MODE, "", "0"), (BRANCH_MODE, "", "1")}

    def test_an_occupation_no_pattern_admits_is_not_memoized(self):
        # an element-free circuit's map sends each input term to itself
        circuit = Circuit(("a", "b"), (PhotonIn("a", H),), (), (DetectionPattern.of({"a": H}),))
        heralded = circuits._heralded_map(circuit)
        state = PureState.vacuum()
        for _ in range(5):
            state = state.create("b", V)
            (outcome,) = run_circuit(circuit, state)
            assert outcome.probability == 0.0
            assert list(heralded.replay(state)) == []
            (occ, _amp), = state.items()
            hits = MemoRules.image.cache_info().hits
            assert heralded.image(occ)[1] == ()  # kept, with no term
            assert MemoRules.image.cache_info().hits == hits + 1

    def test_an_element_free_circuit_keeps_each_amplitude(self):
        """The identity map routes each admitted term with its own bits."""
        double, single = ((("a", H, ""), 2),), ((("a", H, ""), 1), (("b", V, ""), 1))
        state = PureState({double: complex(-0.0, 0.6), single: complex(0.8, -0.0)})
        patterns = (DetectionPattern.of({"b": "none"}), DetectionPattern.of({"b": V}))
        circuit = Circuit(("a", "b"), (PhotonIn("a", H),), (), patterns)
        got = run_circuit(circuit, state)
        assert outcome_bits(got) == outcome_bits(self.projected(circuit, state))

    def test_an_overflowing_output_is_refused(self):
        """Two finite terms that add past the float range give an infinite
        heralded amplitude, which the conditioned outcome refuses."""
        circuit = Circuit(("a",), (PhotonIn("a", H),), (Hwp("a", 22.5),), (DetectionPattern.of({"a": H}),))
        state = PureState({((("a", H, ""), 1),): 1.5e308, ((("a", V, ""), 1),): 1.5e308})
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            run_circuit(circuit, state)


def field_values(circuit):
    """Each field of a circuit by name: compared by value, so unlike ``repr``
    it does not depend on the order in which a frozenset prints."""
    return {name: getattr(circuit, name) for name in circuit.__match_args__}


class TestCircuitHash:
    def test_each_instance_hashes_once(self, monkeypatch):
        circuit = build_fusion_circuit.__wrapped__()
        assert hash(circuit) == hash(build_fusion_circuit.__wrapped__())
        monkeypatch.setattr(Circuit, "patterns", property(lambda self: pytest.fail("rehashed")), raising=False)
        assert hash(circuit) == hash(circuit)

    def test_copies_hash_afresh(self):
        circuit = build_fusion_circuit.__wrapped__()
        hash(circuit)
        fresh = build_fusion_circuit.__wrapped__()
        for twin in (pickle.loads(pickle.dumps(circuit)), copy.copy(circuit), copy.deepcopy(circuit)):
            assert "_hash" not in vars(twin)
            assert twin == circuit and hash(twin) == hash(fresh)
            assert field_values(twin) == field_values(fresh)
            assert "_hash" not in repr(twin) and "_hash" not in repr(fresh)
        fewer = circuit.replace(patterns=circuit.patterns[:2], feed_forward=circuit.feed_forward[:2])
        assert "_hash" not in vars(fewer) and fewer != circuit
        twin = fresh.replace(patterns=fresh.patterns[:2], feed_forward=fresh.feed_forward[:2])
        assert hash(fewer) == hash(twin) != hash(circuit)

    def test_a_circuit_pickled_in_another_process_hashes_here(self):
        """``str`` hashes differ between processes, so a loaded circuit must
        not keep the hash of the process that pickled it."""
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = str(Path(fockfuse.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        script = (
            "import pickle, sys; from fockfuse.circuits import build_fusion_circuit as build; "
            "circuit = build(); hash(circuit); sys.stdout.buffer.write(pickle.dumps(circuit))"
        )
        child = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, check=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        )
        loaded = pickle.loads(child.stdout)
        assert loaded == build_fusion_circuit() and hash(loaded) == hash(build_fusion_circuit.__wrapped__())
        assert circuits._heralded_map(loaded) is circuits._heralded_map(build_fusion_circuit())


class TestAmplitudes:
    @pytest.mark.parametrize("run", [
        lambda: run_fusion((math.nan, 1), (1, 0)),
        lambda: run_fusion((1, 0), (1, math.inf)),
        lambda: run_fusion(entangled=(1, 0, 0, math.nan)),
        lambda: run_fission((math.nan, 0, 0, 1)),
    ])
    def test_non_finite_amplitude_raises(self, run):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            run()

    def test_zero_and_miscounted_amplitudes_raise(self):
        with pytest.raises(ValueError, match="all zero"):
            normalized_amplitudes((0, 0), 2)
        with pytest.raises(ValueError, match="expected 4 amplitudes, got 2"):
            normalized_amplitudes((1, 0), 4)

    @pytest.mark.parametrize("build, amps, message", [
        (fused_target, (1, 0, 0), "expected 4 amplitudes, got 3"),
        (fused_target, (0, 0, 0, 0, 5), "expected 4 amplitudes, got 5"),
        (fission_success_target, (1,), "expected 4 amplitudes, got 1"),
        (fusion_input, (1, 0), "expected 4 amplitudes, got 2"),
        (lambda amps: qubit_on(("r0", "r1"), amps), (1, 0, 7), "expected 2 amplitudes, got 3"),
        (lambda amps: superpose(PureState.vacuum(), amps, ((("a", H),),)), (), "expected 1 amplitudes, got 0"),
    ], ids=["fused_target-short", "fused_target-long", "fission_target", "fusion_input", "qubit_on", "superpose"])
    def test_a_miscounted_ket_amplitude_list_raises(self, build, amps, message):
        """One amplitude per ket, not a silently truncated ``zip``."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(amps)

    def test_library_inputs_are_normalized(self):
        unit = run_fusion((0.6, 0.8j), (INV_SQRT2, INV_SQRT2))
        for scale in (1.0, 1e200, 1e-200):
            scaled = run_fusion((3 * scale, 4j * scale), (2 * scale, 2 * scale))
            for got, want in zip(scaled, unit):
                assert got.probability == pytest.approx(want.probability, abs=1e-15)
                assert fidelity(got.state, want.state) == pytest.approx(1.0, abs=1e-12)
