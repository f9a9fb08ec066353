import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockfuse.elements import (
    Hwp,
    Merge,
    Pbs,
    Relabel,
    SigmaX,
    SignFlipV,
    Unfold,
    apply_element,
    apply_relabel,
    apply_sigma_x,
    apply_sign_flip_v,
)
from fockfuse.states import H, V, PureState, fidelity

SQRT2 = math.sqrt(2.0)


def ket(*photons):
    state = PureState.vacuum()
    for mode, pol, *tag in photons:
        state = state.create(mode, pol, tag[0] if tag else "")
    return state


def occupied_modes(state):
    """The sorted modes that some term of ``state`` holds a photon on."""
    return sorted({mode for occ, _amp in state.items() for (mode, _ch, _tag), _n in occ})


def random_two_photon_state(rng):
    kets = [ket(("a", pa), ("c", pc)) for pa in (H, V) for pc in (H, V)]
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = PureState.zero()
    for z, k in zip(coeffs, kets):
        state = state + z * k
    return state.normalized()


class TestHwp:
    def test_hadamard_angle(self):
        out = apply_element(ket(("a", H)), Hwp("a", 22.5))
        expected = (ket(("a", H)) + ket(("a", V))) * (1 / SQRT2)
        assert fidelity(out, expected) == pytest.approx(1.0)
        assert abs(out.inner(expected) - 1.0) < 1e-12  # exact phase

    def test_not_angle(self):
        out = apply_element(ket(("t", H)), Hwp("t", 45.0))
        assert abs(out.inner(ket(("t", V))) - 1.0) < 1e-12

    def test_zero_angle_flips_v_sign(self):
        out = apply_element(ket(("t", V)), Hwp("t", 0.0))
        assert abs(out.inner(ket(("t", V))) + 1.0) < 1e-12

    @given(st.floats(-90, 90, allow_nan=False))
    @settings(max_examples=40)
    def test_involution(self, theta):
        state = (ket(("a", H)) + 2j * ket(("a", V))).normalized()
        twice = apply_element(apply_element(state, Hwp("a", theta)), Hwp("a", theta))
        assert abs(twice.inner(state) - 1.0) < 1e-12

    @pytest.mark.parametrize("theta", [22.5, -67.5, 1e3, 1e308, -1e308])
    def test_period_is_180_degrees(self, theta):
        state = (ket(("a", H)) + 2j * ket(("a", V))).normalized()
        once = apply_element(state, Hwp("a", theta))
        turned = apply_element(state, Hwp("a", math.fmod(theta, 180.0) + 180.0))
        assert abs(once.inner(turned) - 1.0) < 1e-12

    def test_acts_per_tag_sector(self):
        mixed_tags = ket(("a", H, "A"), ("a", H, "B"))
        out = apply_element(mixed_tags, Hwp("a", 22.5))
        # each tag transforms independently: (H+V)_A (H+V)_B / 2
        expected = (
            ket(("a", H, "A"), ("a", H, "B"))
            + ket(("a", H, "A"), ("a", V, "B"))
            + ket(("a", V, "A"), ("a", H, "B"))
            + ket(("a", V, "A"), ("a", V, "B"))
        ) * 0.5
        assert fidelity(out, expected) == pytest.approx(1.0, abs=1e-12)


class TestPbs:
    def test_transmits_h(self):
        out = apply_element(ket(("x", H)), Pbs("x", "y", "x", "y"))
        assert abs(out.inner(ket(("x", H))) - 1.0) < 1e-12

    def test_reflects_v(self):
        out = apply_element(ket(("x", V)), Pbs("x", "y", "x", "y"))
        assert abs(out.inner(ket(("y", V))) - 1.0) < 1e-12

    def test_two_photon_product_substitution(self):
        # H and V on the same input split pairwise with amplitude preserved
        out = apply_element(ket(("x", H), ("x", V)), Pbs("x", "y", "x", "y"))
        assert abs(out.inner(ket(("x", H), ("y", V))) - 1.0) < 1e-12

    def test_preserves_inner_products(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x, y = random_two_photon_state(rng), random_two_photon_state(rng)
            before = x.inner(y)
            pbs = Pbs("a", "c", "a", "c")
            after = apply_element(x, pbs).inner(apply_element(y, pbs))
            assert abs(before - after) < 1e-12

    def test_rejects_an_occupied_output_that_is_not_an_input(self):
        # x H -> z H would add to the photon already on z, which is not unitary
        state = (ket(("x", H)) + ket(("z", H))).normalized()
        with pytest.raises(ValueError, match="pbs target 'z' already carries photons"):
            apply_element(state, Pbs("x", "y", "z", "y"))
        assert occupied_modes(apply_element(ket(("x", H)), Pbs("x", "y", "z", "y"))) == ["z"]


class TestUnfoldMerge:
    def test_unfold_splits_by_polarization(self):
        state = (0.6 * ket(("t", H)) + 0.8 * ket(("t", V)))
        out = apply_element(state, Unfold("t", "t1", "t2"))
        expected = 0.6 * ket(("t1", H)) + 0.8 * ket(("t2", V))
        assert abs(out.inner(expected) - 1.0) < 1e-12

    def test_unfold_vacuum(self):
        out = apply_element(PureState.vacuum(), Unfold("t", "t1", "t2"))
        assert out.amplitudes(((),)) == (1.0,)

    def test_merge_inverts_unfold(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            state = (amps[0] * ket(("t", H)) + amps[1] * ket(("t", V))).normalized()
            unfolded = apply_element(state, Unfold("t", "t1", "t2"))
            out = apply_element(unfolded, Merge("t1", "t2", "t"))
            assert abs(out.inner(state) - 1.0) < 1e-12

    def test_merge_rejects_an_occupied_output(self):
        state = ket(("t1", H), ("t", V))
        with pytest.raises(ValueError, match="merge target 't' already carries photons"):
            apply_element(state, Merge("t1", "t2", "t"))
        merged = apply_element(ket(("t1", H)), Merge("t1", "t2", "t1"))
        assert abs(merged.inner(ket(("t1", H))) - 1.0) < 1e-12

    def test_unfold_rejects_occupied_targets(self):
        with pytest.raises(ValueError):
            apply_element(ket(("t", H), ("t1", H)), Unfold("t", "t1", "t2"))

    def test_merge_rejects_wrong_polarization(self):
        with pytest.raises(ValueError):
            apply_element(ket(("t1", V)), Merge("t1", "t2", "t"))


class TestSmallElements:
    def test_sigma_x(self):
        assert abs(apply_sigma_x(ket(("t1", H)), "t1").inner(ket(("t1", V))) - 1.0) < 1e-12

    def test_sign_flip_v(self):
        out = apply_sign_flip_v(ket(("t", V)), "t")
        assert abs(out.inner(ket(("t", V))) + 1.0) < 1e-12
        assert abs(apply_sign_flip_v(ket(("t", H)), "t").inner(ket(("t", H))) - 1.0) < 1e-12

    def test_relabel(self):
        out = apply_relabel(ket(("t", H)), "t", "u")
        assert abs(out.inner(ket(("u", H))) - 1.0) < 1e-12
        with pytest.raises(ValueError):
            apply_relabel(ket(("t", H), ("u", V)), "t", "u")

    def test_relabel_moves_rail_photons(self):
        rail = PureState.vacuum().create("r0", "")
        out = apply_element(rail, Relabel("r0", "r1"))
        assert abs(out.inner(PureState.vacuum().create("r1", "")) - 1.0) < 1e-12
        assert occupied_modes(out) == ["r1"]

    @pytest.mark.parametrize("element", [
        Unfold("a", "b", "c"), Merge("a", "b", "c"), Merge("b", "a", "c"), Pbs("a", "b", "c", "d"),
    ], ids=["unfold", "merge-h-input", "merge-v-input", "pbs"])
    def test_rail_photon_on_an_emptied_mode_is_an_error(self, element):
        rail = PureState.vacuum().create("a", "")
        with pytest.raises(ValueError, match=r"cannot move the rail photon on 'a'$"):
            apply_element(rail, element)

    @pytest.mark.parametrize("element", [
        Pbs("a", "b", "a", "c"), Merge("a", "b", "a"), Hwp("a", 22.5), SigmaX("a"), SignFlipV("a"),
    ], ids=["pbs-output", "merge-output", "hwp", "sigmax", "signflipv"])
    def test_rail_photon_stays_on_a_mode_that_is_refilled(self, element):
        rail = PureState.vacuum().create("a", "")
        assert occupied_modes(apply_element(rail, element)) == ["a"]

    def test_dispatch_matches_direct_calls(self):
        state = (ket(("a", H)) + ket(("c", V))).normalized()
        pairs = [
            (SigmaX("a"), apply_sigma_x(state, "a")),
            (SignFlipV("c"), apply_sign_flip_v(state, "c")),
            (Relabel("a", "b"), apply_relabel(state, "a", "b")),
        ]
        for element, direct in pairs:
            assert abs(apply_element(state, element).inner(direct) - 1.0) < 1e-12


class TestConservation:
    @given(st.sampled_from(["hwp", "pbs", "sigmax", "signflipv"]), st.integers(0, 1000))
    @settings(max_examples=50)
    def test_norm_and_photon_number(self, kind, seed):
        rng = np.random.default_rng(seed)
        state = random_two_photon_state(rng)
        element = {
            "hwp": Hwp("a", float(rng.uniform(-90, 90))),
            "pbs": Pbs("a", "c", "a", "c"),
            "sigmax": SigmaX("a"),
            "signflipv": SignFlipV("c"),
        }[kind]
        out = apply_element(state, element)
        assert abs(out.squared_norm() - 1.0) < 1e-12
        assert out.max_photons() == state.max_photons()
