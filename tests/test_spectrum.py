import math
import re
from dataclasses import replace

import numpy as np
import pytest

from amproj import lalg, manybody, spectrum
from amproj.angmom import clebsch_gordan, gauss_legendre_cos, small_d_diagonal
from amproj.manybody import (Model, OneBodyOperator, SlaterState, TwoBodyOperator, hf_energy,
                             jz_violation, kernel_sweep, make_slater_state,
                             one_body_numerators, two_body_numerators)
from amproj.spectrum import (NormTooSmall, SpectrumRequest, allowed_two_j, compare_routes,
                             energy_spectrum, norm_kernel)
from tests.fock import FockSpace
from tests.support import (TWO_SHELL_EPS_SUM, TWO_SHELL_G, h11_six_model, legendre_beta_rule,
                           pair_coupled_model, random_model, scan_j15_model, stretched_m2_model, two_shell_m1_model)


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
        with pytest.raises(ValueError, match="exact rule needs 3"):
            SpectrumRequest(model=model, points=2)  # 2J_max = 4 needs 3 nodes
        with pytest.raises(ValueError):
            SpectrumRequest(model=model, route="fastest")
        with pytest.raises(ValueError):
            SpectrumRequest(model=model, two_j_list=(3,))  # parity breaks M = 1
        # a repeated 2J would print its row twice; no 2J at all reads as an absent state
        for two_j_list in [(2, 2, 4), [4, 2, 4], ()]:
            with pytest.raises(ValueError, match="must be distinct and at least one, got "
                               + re.escape(str(tuple(two_j_list)))):
                SpectrumRequest(model=model, two_j_list=two_j_list)

    def test_request_refuses_h_that_changes_jz(self):
        # T_12 couples the s12 orbitals 2m = 1 and -1 of the random basis
        model = random_model(np.random.default_rng(3), 6, 2)
        with pytest.raises(ValueError, match=r"one_body element \(1, 2\) changes 2M from -1 to 1"):
            SpectrumRequest(model=model)
        assert jz_violation(random_model(np.random.default_rng(3), 6, 2, True)) is None
        fixture = two_shell_m1_model()  # 2m = 3, 1, -1, -3 on ids 1-4
        changed = replace(fixture, v=TwoBodyOperator([((3, 4, 1, 2), 0.5)]))
        with pytest.raises(ValueError, match=r"two_body element \(1, 2, 3, 4\) changes 2M "
                                             r"from -4 to 4: H must conserve J_z"):
            SpectrumRequest(model=changed)

    @pytest.mark.parametrize("field", ["norm_floor_factor", "brillouin_warn"])
    @pytest.mark.parametrize("value", [-1.0, -1e-300, math.nan, math.inf])
    def test_thresholds_must_be_finite_and_non_negative(self, field, value):
        model = two_shell_m1_model()
        with pytest.raises(ValueError, match=field):
            SpectrumRequest(model=model, **{field: value})
        assert SpectrumRequest(model=model, **{field: 0.0}).route == "both"


def beta_rule_reference(model, points=160):
    """Per allowed 2J: n_J and the numerators n_J E_J of both routes, by a beta-interval rule."""
    nodes, weights = legendre_beta_rule(points)
    state = model.state
    sweep = kernel_sweep(state, nodes)
    rows = weights * np.sin(nodes) * small_d_diagonal(
        state.total_two_m(), allowed_two_j(state), nodes)
    kernel = one_body_numerators(sweep, model.t) + two_body_numerators(sweep, model.v)
    ph = hf_energy(state, model.t, model.v) * sweep.overlap + two_body_numerators(
        sweep, model.v, particle_hole=True)
    return rows @ sweep.overlap, rows @ kernel, rows @ ph


class TestExactRule:
    """The default rule, Gauss-Legendre in cos(beta) with 2J_max // 2 + 1 nodes, is exact."""

    @pytest.mark.parametrize("make", [two_shell_m1_model, scan_j15_model, h11_six_model])
    def test_matches_160_node_beta_rule(self, make):
        # numerators, not energies, are compared: a ratio to a norm near the
        # absence floor magnifies the last bit of either quadrature sum
        model = make()
        res = energy_spectrum(SpectrumRequest(model=model))
        norms, kernel, ph = beta_rule_reference(model)
        assert [e.two_j for e in res.entries] == list(allowed_two_j(model.state))
        for e, n_ref, kernel_ref, ph_ref in zip(res.entries, norms, kernel, ph):
            assert abs(e.norm - n_ref) <= 1e-13
            if e.energy_lowdin is not None:
                assert abs(e.norm * e.energy_lowdin - kernel_ref) <= 1e-13
                assert abs(e.norm * e.energy_brillouin - ph_ref) <= 1e-13

    def test_default_size_follows_j_max(self):
        for make, two_j_max in ((two_shell_m1_model, 4), (scan_j15_model, 60),
                                (h11_six_model, 36)):
            state = make().state
            assert spectrum.exact_points(state) == two_j_max // 2 + 1
            sweep, _, _ = spectrum._projection(state, None)
            assert len(sweep.beta) == two_j_max // 2 + 1

    def test_override_above_exact_size_agrees(self):
        model = scan_j15_model()
        exact = norm_kernel(SpectrumRequest(model=model))
        more = norm_kernel(SpectrumRequest(model=model, points=spectrum.exact_points(
            model.state) + 9))
        assert max(abs(exact[tj] - more[tj]) for tj in exact) <= 1e-14

    def test_override_below_exact_size_rejected(self):
        model = h11_six_model()
        with pytest.raises(spectrum.BadNodeCount, match="exact rule needs 19"):
            SpectrumRequest(model=model, points=18)


class TestSingularNodes:
    """A flagged beta node takes the canonical form of its occupied block."""

    def test_flagged_node_needs_no_cofactor_table(self):
        # p1 orbitals 2m = 2 and -2 occupied: det A = cos(beta), flagged at x = cos(beta) = 0
        phi = make_slater_state([("p1", 2, 2), ("p1", 2, 0), ("p1", 2, -2), ("x", 1, 1)],
                                occupied=(1, 3))
        v = TwoBodyOperator([((1, 3, 1, 3), -0.7), ((1, 4, 1, 4), 0.3), ((2, 4, 2, 4), 0.2)])
        model = Model(state=phi, t=OneBodyOperator(np.diag([1.0, 2.0, 3.0, 0.5])), v=v)
        assert kernel_sweep(phi, gauss_legendre_cos(3).nodes).flagged.tolist() == [
            False, True, False]

        assert not hasattr(lalg, "cofactors")  # the cofactor tables are a test oracle only
        spectrum._projection.cache_clear()
        flagged = energy_spectrum(SpectrumRequest(model=model, points=3))
        regular = energy_spectrum(SpectrumRequest(model=model, points=4))  # no node at x = 0
        for a, b in zip(flagged.entries, regular.entries):
            assert a.norm == pytest.approx(b.norm, abs=1e-14)
            for got, want in ((a.energy_brillouin, b.energy_brillouin),
                              (a.energy_lowdin, b.energy_lowdin)):
                assert got == pytest.approx(want, abs=1e-12)

    def test_regular_sweep_makes_no_svd(self, monkeypatch):
        # the fixture's determinants certify every node, so neither the rank check
        # nor the canonical form runs an SVD
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.svd called on a sweep with no flagged node")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        spectrum._projection.cache_clear()
        model = two_shell_m1_model()
        result = energy_spectrum(SpectrumRequest(model=model))
        sweep, _, _ = spectrum._projection(model.state, None)
        assert not sweep.flagged.any() and sweep.canonical_u.shape == (0, 2, 2)
        assert result.entry(2).energy_lowdin == pytest.approx(TWO_SHELL_EPS_SUM + TWO_SHELL_G[2])


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
        model = random_model(rng, 6, 2, conserve_jz=True)
        # hole (s12, 2m = 1) and particle (p32, 2m = 1) share 2m, so T and V mix them
        labels = [(o.shell, o.two_j, o.two_m) for o in model.state.orbitals]
        assert labels[0] == ("s12", 1, 1) and labels[3] == ("p32", 3, 1)
        model = replace(model, state=make_slater_state(labels, occupied=(1, 3)))
        cmp = compare_routes(SpectrumRequest(model=model, points=48))
        assert cmp.brillouin_residual_max > 1e-10
        assert cmp.result.warnings
        assert cmp.deltas  # deltas reported, not asserted small

    def test_norm_identical_across_routes(self):
        model = two_shell_m1_model()
        nb = energy_spectrum(SpectrumRequest(model=model, route="brillouin")).norms()
        nl = energy_spectrum(SpectrumRequest(model=model, route="lowdin")).norms()
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
        a, b = two_shell_m1_model(), random_model(rng, 6, 2, conserve_jz=True)
        requests = [SpectrumRequest(model=m, points=32) for m in (a, b, a)]
        kept = [energy_spectrum(r) for r in requests]
        for request, got in zip(requests, kept):
            spectrum._projection.cache_clear()
            assert energy_spectrum(request) == got  # bitwise, float by float

    def test_kept_arrays_are_read_only(self):
        model = two_shell_m1_model()
        sweep, wj, _ = spectrum._projection(model.state, 48)
        for a in (sweep.rho, sweep.smallest_singular, wj[1]):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0

    def test_sweep_makes_no_lu_factorization(self, monkeypatch):
        # with the rotation stack kept, a cold state costs exactly one batched det
        # and one batched inverse of the (Q, n, n) occupied blocks, no column
        # elimination, and a kept state none of them
        model = two_shell_m1_model()
        want = energy_spectrum(SpectrumRequest(model=model))
        spectrum._projection.cache_clear()
        calls = []
        for module, name in ((np.linalg, "det"), (np.linalg, "inv"), (lalg, "eliminate_columns")):
            def counted(*args, _name=name, _real=getattr(module, name), **kwargs):
                calls.append((_name, args[0].shape))
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        assert energy_spectrum(SpectrumRequest(model=model)) == want
        q = len(spectrum._projection(model.state, None)[0].beta)
        assert sorted(calls) == [("det", (q, 2, 2)), ("inv", (q, 2, 2))]
        assert energy_spectrum(SpectrumRequest(model=model)) == want
        assert len(calls) == 2

    def test_models_sharing_a_key_pattern_match_fresh_results(self, monkeypatch):
        # the kept key pattern and block plan serve tables with equal keys and other values
        base = two_shell_m1_model()
        labels = [(o.shell, o.two_j, o.two_m) for o in base.state.orbitals]
        states = [base.state, make_slater_state(labels, occupied=(1, 6))]

        def model(scale, occupied):
            entries = [(key, scale * value) for key, value in base.v.canonical_items()]
            return Model(state=states[occupied], t=base.t, v=TwoBodyOperator(entries))

        monkeypatch.setattr(TwoBodyOperator, "_last", (None, None, None))
        cases = [(1.0, 0), (-0.3, 0), (1.0, 1), (-0.3, 1), (1.0, 0), (2.5, 1)]
        models = [model(*case) for case in cases]
        assert all(m.v._pattern is models[0].v._pattern for m in models)
        kept = [energy_spectrum(SpectrumRequest(model=m)) for m in models]
        for case, got in zip(cases, kept):
            spectrum._projection.cache_clear()
            monkeypatch.setattr(TwoBodyOperator, "_last", (None, None, None))
            assert energy_spectrum(SpectrumRequest(model=model(*case))) == got  # bitwise

    def test_every_kept_slot_matches_fresh_results(self, monkeypatch):
        # A, B, A and A with new strengths: the orbitals, the J_z verdict, the image
        # plan, the two-body kernel and the projection each hit or miss, and every
        # result is a fresh one's.  The kernel also misses on a new rule for a kept
        # state (same plan, new sweep) and hits on a state with a flagged node.
        first = {0: -1.0, 4: -0.3, 8: 0.2, 12: 0.1, 16: -0.15, 20: 0.05}
        second = {two_jp: 0.5 - g for two_jp, g in first.items()}
        a, b = (11, 9, 1, -3, -7, -11), (11, 7, 3, -1, -5, -9)
        h11 = [(a, first, None), (b, second, None), (a, first, None), (a, second, None),
               (a, second, None, 40), (a, first, None, 40), (a, first, None),
               (b, first, (40, 6, 18)), (a, second, (2, 36, 0))]
        # j = 2, 2m = 4 and -4 occupied: det A = cos(beta), flagged at the node x = 0 of 5
        d2 = [((4, -4), {2: -1.0, 6: 0.3}, None, 5), ((4, -4), {2: 0.4, 6: -0.2}, None, 5)]
        cases = [("h11", 11, *case) for case in h11] + [("d2", 4, *case) for case in d2]
        flagged = kernel_sweep(pair_coupled_model("d2", 4, *d2[0][:2]).state,
                               gauss_legendre_cos(5).nodes).flagged
        assert flagged.tolist() == [False, False, True, False, False]

        def result(case):
            shell, two_j, occupied, strengths, two_j_list, *points = case
            model = pair_coupled_model(shell, two_j, occupied, strengths)
            got = _bits(energy_spectrum(SpectrumRequest(model=model, two_j_list=two_j_list,
                                                        points=(points or [None])[0])))
            _, _, scale, kernel = model.v._pattern.kernel
            assert not scale.flags.writeable and not kernel.flags.writeable
            return got

        def clear_kept():
            for cache in (manybody._kept_orbitals, manybody._basis_rotations,
                          spectrum._projection, spectrum._weight_rows):
                cache.cache_clear()
            monkeypatch.setattr(TwoBodyOperator, "_last", (None, None, None))

        builds, real = [], manybody._image_kernel
        monkeypatch.setattr(manybody, "_image_kernel",
                            lambda sweep, images: builds.append(sweep) or real(sweep, images))
        clear_kept()
        kept = [result(case) for case in cases]
        assert len(builds) == 8  # a new strength set on a kept state and rule builds no kernel
        for case, got in zip(cases, kept):
            clear_kept()
            assert result(case) == got

    def test_auto_request_on_a_kept_state_derives_no_j_list(self, monkeypatch):
        # a cold state derives its allowed 2J once; a kept one reads the kept weight rows
        calls = []
        real = spectrum.allowed_two_j

        def counting(state, two_m=None):
            calls.append(state)
            return real(state, two_m)

        monkeypatch.setattr(spectrum, "allowed_two_j", counting)
        spectrum._projection.cache_clear()
        model = scan_j15_model()
        first = energy_spectrum(SpectrumRequest(model=model))
        assert len(calls) == 1
        assert [e.two_j for e in first.entries] == list(real(model.state))
        halved = Model(state=model.state, t=model.t,
                       v=TwoBodyOperator([(k, 0.5 * x) for k, x in model.v.canonical_items()]))
        for request in (SpectrumRequest(model=halved), SpectrumRequest(model=model),
                        SpectrumRequest(model=model, two_j_list=(60, 8, 62))):
            energy_spectrum(request)
            norm_kernel(request)
        assert len(calls) == 1
        spectrum._projection.cache_clear()
        assert energy_spectrum(SpectrumRequest(model=model)) == first
        assert len(calls) == 2

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


def test_rows_are_immutable_tuples():
    """JEntry: named fields in order, keyword construction, None energies by default."""
    assert spectrum.JEntry._fields == ("two_j", "norm", "energy_brillouin", "energy_lowdin")
    row = spectrum.JEntry(two_j=4, norm=0.3)
    assert row == (4, 0.3, None, None) and row.energy_brillouin is row.energy_lowdin is None
    assert spectrum.JEntry(norm=0.5, energy_lowdin=1.25, two_j=2) == (2, 0.5, None, 1.25)
    for field in (*spectrum.JEntry._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(row, field, 1.0)
    result = energy_spectrum(SpectrumRequest(model=two_shell_m1_model()))
    assert all(type(e) is spectrum.JEntry for e in result.entries)
    assert hash(result) == hash(energy_spectrum(SpectrumRequest(model=two_shell_m1_model())))


def _hex(x):
    return None if x is None else float(x).hex()


def _row_bits(entries):
    return [(e.two_j, _hex(e.norm), _hex(e.energy_brillouin), _hex(e.energy_lowdin))
            for e in entries]


def _bits(result):
    """A SpectrumResult with every float as its hex string, for bitwise comparison."""
    return (_row_bits(result.entries), result.route, _hex(result.brillouin_residual_max),
            result.warnings)


def _rows_by_loop(request):
    """The rows of energy_spectrum, built one 2J at a time from its numerators."""
    want_b, want_l = request.route in ("brillouin", "both"), request.route in ("lowdin", "both")
    model = request.model
    js = request.two_j_list or allowed_two_j(model.state)
    sweep, (span, weights), _ = spectrum._projection(model.state, request.points)

    def integrate(values):  # {2J: sum_q w_q d^J_{MM}(beta_q) values_q} over every allowed 2J
        return dict(zip(span, (weights @ values).tolist()))

    norms = integrate(sweep.overlap)  # a 2J above 2J_max holds no norm
    e_hf = hf_energy(model.state, model.t, model.v) if want_b else None
    floor = request.norm_floor_factor * max(abs(v) for v in norms.values())
    num_b = integrate(two_body_numerators(sweep, model.v, particle_hole=True)) if want_b else None
    num_l = integrate(one_body_numerators(sweep, model.t)
                      + two_body_numerators(sweep, model.v)) if want_l else None
    rows = []
    for two_j in js:
        n_j, eb, el = norms.get(two_j, 0.0), None, None
        if n_j > floor:
            if want_b:
                eb = e_hf + num_b[two_j] / n_j
            if want_l:
                el = num_l[two_j] / n_j
        rows.append(spectrum.JEntry(two_j=two_j, norm=n_j, energy_brillouin=eb, energy_lowdin=el))
    return rows


@pytest.mark.parametrize("route", ["both", "brillouin", "lowdin"])
@pytest.mark.parametrize("two_j_list,floor", [(None, 1e-8), ((36, 2, 40, 0), 1e-8),
                                              (None, 0.02), ((38,), 0.0)])
def test_rows_match_the_per_row_loop(route, two_j_list, floor):
    """Rows in bulk are bitwise the per-row loop, in request order, absent rows included."""
    request = SpectrumRequest(model=h11_six_model(), two_j_list=two_j_list, route=route,
                              norm_floor_factor=floor)
    want = _rows_by_loop(request)
    if all(e.energy_brillouin is None and e.energy_lowdin is None for e in want):
        with pytest.raises(NormTooSmall):
            energy_spectrum(request)
        return
    got = energy_spectrum(request)
    assert _row_bits(got.entries) == _row_bits(want)
    if floor == 0.02:  # rows the state holds, below a raised floor
        assert any(e.energy_lowdin is None and 0.0 < e.norm for e in want)
