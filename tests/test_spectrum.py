import math
from dataclasses import replace

import numpy as np
import pytest

from amproj import spectrum
from amproj.angmom import clebsch_gordan
from amproj.fock import FockSpace
from amproj.manybody import (Model, OneBodyOperator, SlaterState, TwoBodyOperator,
                             make_slater_state)
from amproj.spectrum import (NormTooSmall, SpectrumRequest, allowed_two_j, compare_routes,
                             energy_spectrum, energy_spectrum_brillouin,
                             energy_spectrum_lowdin, norm_kernel)
from tests.support import (TWO_SHELL_EPS_SUM, TWO_SHELL_G, random_model,
                           stretched_m2_model, two_shell_m1_model)


def cg_norm_oracle(two_j1, two_m1, two_j2, two_m2, two_j):
    """n_J of a two-orbital product state: (2/(2J+1)) CG^2."""
    c = clebsch_gordan(two_j1, two_m1, two_j2, two_m2, two_j, two_m1 + two_m2)
    return 2.0 * c * c / (two_j + 1)


class TestNormKernel:
    def test_single_stretched_orbital(self):
        # |j, m=j>: pure J = j component
        phi = make_slater_state([("f", 5, m) for m in (5, 3, 1, -1, -3, -5)], occupied=(1,))
        t = OneBodyOperator(np.zeros((6, 6)))
        model = Model(state=phi, t=t, v=TwoBodyOperator())
        norms = norm_kernel(SpectrumRequest(model=model, points=48, route="lowdin"))
        assert norms[5] == pytest.approx(2.0 / 6.0, abs=1e-12)
        assert all(abs(norms[tj]) < 1e-12 for tj in norms if tj != 5)

    def test_stretched_two_orbital_model(self):
        model = stretched_m2_model()
        norms = norm_kernel(SpectrumRequest(model=model))
        assert set(norms) == {4}
        assert norms[4] == pytest.approx(cg_norm_oracle(3, 3, 1, 1, 4), abs=1e-12)

    def test_mixed_two_orbital_model(self):
        model = two_shell_m1_model()
        norms = norm_kernel(SpectrumRequest(model=model))
        for two_j in (2, 4):
            want = cg_norm_oracle(3, 1, 1, 1, two_j)
            assert norms[two_j] == pytest.approx(want, abs=1e-9)

    def test_completeness(self):
        for model in (two_shell_m1_model(), stretched_m2_model()):
            norms = norm_kernel(SpectrumRequest(model=model))
            total = sum((tj + 1) / 2 * n for tj, n in norms.items())
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_allowed_range(self):
        model = two_shell_m1_model()
        assert allowed_two_j(model.state) == (2, 4)

    def test_allowed_range_stops_at_pauli_limit(self):
        # six j=15/2 particles at 2M = -8: 2J_max = 15+13+11+9+7+5 = 60,
        # where the sum of the occupied 2j would give 90
        phi = make_slater_state([("j15", 15, m) for m in range(15, -16, -2)],
                                occupied=(16, 15, 12, 6, 4, 2))
        assert phi.total_two_m() == -8
        assert allowed_two_j(phi) == tuple(range(8, 61, 2))
        assert len(allowed_two_j(phi)) == 27
        # two shells count separately: (3/2)^2 (1/2)^1 reaches 3 + 1 + 1
        labels = [("d", 3, m) for m in (3, 1, -1, -3)] + [("s", 1, 1), ("s", 1, -1)]
        two = make_slater_state(labels, occupied=(1, 4, 6))
        assert allowed_two_j(two) == (1, 3, 5)


class TestEnergySpectrum:
    def test_two_shell_fixture_both_routes(self):
        model = two_shell_m1_model()
        res = energy_spectrum(SpectrumRequest(model=model, route="both"))
        assert res.brillouin_residual_max == 0.0
        assert res.warnings == ()
        for two_j in (2, 4):
            want = TWO_SHELL_EPS_SUM + TWO_SHELL_G[two_j]
            e = res.entry(two_j)
            assert e.energy_brillouin == pytest.approx(want, abs=1e-8)
            assert e.energy_lowdin == pytest.approx(want, abs=1e-8)

    def test_cg_oracle_energies(self):
        model = two_shell_m1_model()
        space = FockSpace(6, 2)
        m_of = {1: 3, 2: 1, 3: -1, 4: -3, 5: 1, 6: -1}
        res = energy_spectrum(SpectrumRequest(model=model, route="lowdin"))
        for two_j in (2, 4):
            vec = space.zeros()
            for p in (1, 2, 3, 4):
                for q in (5, 6):
                    c = clebsch_gordan(3, m_of[p], 1, m_of[q], two_j, 2)
                    if c:
                        vec += c * space.determinant_vector([p, q])
            hvec = (space.apply_one_body(vec, model.t.matrix)
                    + space.apply_two_body(vec, model.v))
            want = space.inner(vec, hvec) / space.inner(vec, vec)
            assert res.entry(two_j).energy_lowdin == pytest.approx(want, abs=1e-8)

    def test_interaction_free_gives_hf_energy(self):
        labels = [("d32", 3, 3), ("d32", 3, 1), ("d32", 3, -1), ("d32", 3, -3),
                  ("s12", 1, 1), ("s12", 1, -1)]
        phi = make_slater_state(labels, occupied=(2, 5))
        t = OneBodyOperator(np.diag([0.9, 0.9, 0.9, 0.9, -0.2, -0.2]))
        model = Model(state=phi, t=t, v=TwoBodyOperator())
        res = energy_spectrum(SpectrumRequest(model=model, route="both"))
        for e in res.entries:
            assert e.energy_brillouin == pytest.approx(0.7, abs=1e-10)
            assert e.energy_lowdin == pytest.approx(0.7, abs=1e-10)

    def test_scalar_one_body_shifts_all_j(self):
        model = two_shell_m1_model()
        shifted = Model(state=model.state,
                        t=OneBodyOperator(model.t.matrix + 0.37 * np.eye(6)),
                        v=model.v, name=model.name)
        base = energy_spectrum(SpectrumRequest(model=model, route="both"))
        res = energy_spectrum(SpectrumRequest(model=shifted, route="both"))
        for two_j in (2, 4):
            for attr in ("energy_brillouin", "energy_lowdin"):
                b = getattr(base.entry(two_j), attr)
                s = getattr(res.entry(two_j), attr)
                assert s - b == pytest.approx(2 * 0.37, abs=1e-10)

    def test_j_eigenstate_input(self):
        # stretched M=2 state is a pure J=2 eigenstate: E_J = E_HF exactly
        model = stretched_m2_model()
        res = energy_spectrum(SpectrumRequest(model=model, route="both"))
        from amproj.manybody import hf_energy
        e_hf = hf_energy(model.state, model.t, model.v)
        assert res.entry(4).energy_lowdin == pytest.approx(e_hf, abs=1e-10)
        assert res.entry(4).energy_brillouin == pytest.approx(e_hf, abs=1e-10)

    def test_quadrature_convergence(self):
        model = two_shell_m1_model()
        res32 = energy_spectrum(SpectrumRequest(model=model, points=32, route="both"))
        res64 = energy_spectrum(SpectrumRequest(model=model, points=64, route="both"))
        for two_j in (2, 4):
            assert res32.entry(two_j).norm == pytest.approx(
                res64.entry(two_j).norm, abs=1e-10)
            assert res32.entry(two_j).energy_lowdin == pytest.approx(
                res64.entry(two_j).energy_lowdin, abs=1e-10)

    def test_quadrature_convergence_high_j_shell(self):
        # j = 9/2 shell, three particles: integrand bandwidth at its stated cap
        labels = [("g92", 9, m) for m in range(9, -10, -2)]
        phi = make_slater_state(labels, occupied=(1, 4, 6))
        t = OneBodyOperator(np.diag(np.linspace(-1.0, 1.0, 10)))
        v = TwoBodyOperator([((1, 4, 2, 3), 0.4), ((1, 6, 2, 5), -0.7),
                             ((4, 6, 3, 7), 0.2)])
        model = Model(state=phi, t=t, v=v)
        res32 = energy_spectrum(SpectrumRequest(model=model, points=32, route="both"))
        res64 = energy_spectrum(SpectrumRequest(model=model, points=64, route="both"))
        for e32, e64 in zip(res32.entries, res64.entries):
            assert e32.norm == pytest.approx(e64.norm, abs=1e-10)
            for attr in ("energy_brillouin", "energy_lowdin"):
                a, b = getattr(e32, attr), getattr(e64, attr)
                if a is not None and b is not None:
                    assert a == pytest.approx(b, abs=1e-10)
                else:
                    assert a is None and b is None

    def test_absent_component_reported_as_none(self):
        model = stretched_m2_model()
        res = energy_spectrum(SpectrumRequest(model=model, route="both"))
        # J components above the stretched value carry no weight
        for e in res.entries:
            if e.two_j != 4:
                assert abs(e.norm) < 1e-12
                assert e.energy_brillouin is None and e.energy_lowdin is None

    def test_request_above_pauli_limit_is_absent(self):
        # no quadrature is run for a J the state cannot hold, however large
        model = two_shell_m1_model()
        res = energy_spectrum(SpectrumRequest(model=model, two_j_list=(4, 10 ** 12)))
        high = res.entry(10 ** 12)
        assert (high.norm, high.energy_brillouin, high.energy_lowdin) == (0.0, None, None)
        full = energy_spectrum(SpectrumRequest(model=model))
        assert res.entry(4) == full.entry(4)
        assert norm_kernel(SpectrumRequest(model=model, two_j_list=(10 ** 12,)))[10 ** 12] == 0.0

    def test_all_below_floor_raises(self):
        model = stretched_m2_model()
        with pytest.raises(NormTooSmall):
            energy_spectrum(SpectrumRequest(model=model, two_j_list=(6,), route="both"))

    def test_request_validation(self):
        model = two_shell_m1_model()
        with pytest.raises(ValueError):
            SpectrumRequest(model=model, points=4)
        with pytest.raises(ValueError):
            SpectrumRequest(model=model, route="fastest")
        with pytest.raises(ValueError):
            SpectrumRequest(model=model, two_j_list=(3,))  # parity breaks M = 1

    @pytest.mark.parametrize("field", ["norm_floor_factor", "brillouin_warn"])
    @pytest.mark.parametrize("value", [-1.0, -1e-300, math.nan, math.inf])
    def test_thresholds_must_be_finite_and_non_negative(self, field, value):
        model = two_shell_m1_model()
        with pytest.raises(ValueError, match=field):
            SpectrumRequest(model=model, **{field: value})
        assert SpectrumRequest(model=model, **{field: 0.0}).route == "both"


class TestRoutes:
    def test_routes_agree_on_stable_model(self):
        model = two_shell_m1_model()
        cmp = compare_routes(SpectrumRequest(model=model, route="both"))
        assert cmp.brillouin_residual_max <= 1e-10
        assert cmp.deltas and all(d <= 1e-8 for d in cmp.deltas.values())

    def test_interaction_free_routes_identical(self):
        labels = [("s12", 1, 1), ("s12", 1, -1), ("p32", 3, 1), ("p32", 3, -1),
                  ("p32", 3, 3), ("p32", 3, -3)]
        phi = make_slater_state(labels, occupied=(1, 3))
        model = Model(state=phi, t=OneBodyOperator(np.diag([1.0, 1, 2, 2, 2, 2])),
                      v=TwoBodyOperator())
        cmp = compare_routes(SpectrumRequest(model=model))
        assert all(d <= 1e-12 for d in cmp.deltas.values())

    def test_unstable_model_warns_but_reports(self, rng):
        model = random_model(rng, 6, 2)
        cmp = compare_routes(SpectrumRequest(model=model, points=48))
        assert cmp.brillouin_residual_max > 1e-10
        assert cmp.result.warnings
        assert cmp.deltas  # deltas reported, not asserted small

    def test_norm_identical_across_routes(self):
        model = two_shell_m1_model()
        nb = energy_spectrum_brillouin(SpectrumRequest(model=model)).norms()
        nl = energy_spectrum_lowdin(SpectrumRequest(model=model)).norms()
        assert nb == nl  # bit-for-bit: same integrand, same sweep


class TestKeptProjection:
    """The state-only part of a spectrum is kept for the last (state, points) pair."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        real = spectrum.kernel_sweep

        def counting(state, betas):
            calls.append(state)
            return real(state, betas)

        monkeypatch.setattr(spectrum, "kernel_sweep", counting)
        spectrum._projection.cache_clear()
        return calls

    def test_equal_states_share_one_sweep(self, monkeypatch):
        calls = self.counted(monkeypatch)
        first, second = two_shell_m1_model(), two_shell_m1_model()
        assert first.state is not second.state and first.state == second.state
        a = energy_spectrum(SpectrumRequest(model=first))
        b = energy_spectrum(SpectrumRequest(model=second))
        assert len(calls) == 1 and a == b
        # a different rule is a different projection
        energy_spectrum(SpectrumRequest(model=second, points=64))
        assert len(calls) == 2

    def test_interleaved_states_match_fresh_results(self, rng):
        a, b = two_shell_m1_model(), random_model(rng, 6, 2)
        requests = [SpectrumRequest(model=m, points=32) for m in (a, b, a)]
        kept = [energy_spectrum(r) for r in requests]
        for request, got in zip(requests, kept):
            spectrum._projection.cache_clear()
            assert energy_spectrum(request) == got  # bitwise, float by float

    def test_kept_arrays_are_read_only(self):
        model = two_shell_m1_model()
        sweep, wj, _ = spectrum._projection(model.state, 48)
        for a in (sweep.rho, sweep.lu.lu, next(iter(wj.values()))):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0

    def test_returned_norms_are_fresh(self):
        request = SpectrumRequest(model=two_shell_m1_model())
        norms = norm_kernel(request)
        want = dict(norms)
        norms[2] = 99.0
        norms[100] = 1.0
        assert norm_kernel(request) == want

    def test_absent_request_rows_do_not_persist(self):
        model = two_shell_m1_model()
        energy_spectrum(SpectrumRequest(model=model, two_j_list=(4, 10)))
        auto = energy_spectrum(SpectrumRequest(model=model))
        assert [e.two_j for e in auto.entries] == [2, 4]
        assert set(norm_kernel(SpectrumRequest(model=model))) == {2, 4}

    def test_list_occupied_projects_like_tuple(self):
        model = two_shell_m1_model()
        listed = SlaterState(orbitals=list(model.state.orbitals),
                             occupied=list(model.state.occupied))
        assert listed == model.state and hash(listed) == hash(model.state)
        got = energy_spectrum(SpectrumRequest(model=replace(model, state=listed)))
        spectrum._projection.cache_clear()
        assert got == energy_spectrum(SpectrumRequest(model=model))
