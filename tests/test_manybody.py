import itertools
import math
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from amproj import manybody
from amproj.lalg import SizeLimitExceeded, brute_force_determinant
from amproj.manybody import (BadIndex, Model, OneBodyOperator, Orbital, SlaterState,
                             TwoBodyOperator, VanishingOverlap, brillouin_check,
                             hf_energy, jz_violation, kernel_sweep, make_slater_state,
                             one_body_numerators, ph_amplitude, sweep_from_rotations,
                             thouless_expand, two_body_numerators, two_ph_kernel)
from tests.fock import FockSpace, fock_oracle
from tests.support import (adjugate, closure_oracle, closure_oracle_block, cofactors,
                           cs_rotation, image_block, jz_oracle, random_model, random_one_body,
                           random_state, random_two_body, sign_orbit_key, small_d_expm,
                           two_body_table, two_shell_m1_model)

TWO_SHELL_LABELS = [("d32", 3, 3), ("d32", 3, 1), ("d32", 3, -1), ("d32", 3, -3),
                    ("s12", 1, 1), ("s12", 1, -1)]


@pytest.fixture
def phi6():
    return make_slater_state(TWO_SHELL_LABELS, occupied=(2, 5))


class TestTypes:
    def test_state_validation(self):
        with pytest.raises(ValueError):
            make_slater_state(TWO_SHELL_LABELS, occupied=(2, 2))
        with pytest.raises(ValueError):
            make_slater_state(TWO_SHELL_LABELS, occupied=(7,))
        state = make_slater_state(TWO_SHELL_LABELS, occupied=(1, 2))
        assert state.unoccupied == (3, 4, 5, 6)
        assert state.total_two_m() == 4

    def test_one_body_must_be_symmetric(self):
        with pytest.raises(ValueError):
            OneBodyOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        # the bound is 1e-10 relative to max(1, max |T|): 1e-11 passes, 1e-9 does not;
        # at scale 1e3 the passing gap is 1e-8, which an absolute 1e-10 bound would refuse
        for scale in (1.0, 1e3):
            for rel, ok in ((1e-11, True), (1e-9, False)):
                m = scale * np.array([[1.0, 1.0], [1.0 + rel, 0.5]])
                if ok:
                    assert OneBodyOperator(m).matrix.tobytes() == m.tobytes()
                else:
                    with pytest.raises(ValueError, match="must be symmetric"):
                        OneBodyOperator(m)
        # NaN compares false, so the check lets it through, as it always has
        assert np.isnan(OneBodyOperator(np.array([[np.nan, 1.0], [0.0, 0.0]])).matrix[0, 0])

    def test_two_body_closure_and_signs(self):
        v = TwoBodyOperator([((1, 2, 3, 4), 0.5)])
        table = two_body_table(v)
        assert table.get((1, 2, 3, 4), 0.0) == 0.5
        assert table.get((2, 1, 3, 4), 0.0) == -0.5
        assert table.get((1, 2, 4, 3), 0.0) == -0.5
        assert table.get((2, 1, 4, 3), 0.0) == 0.5
        assert table.get((3, 4, 1, 2), 0.0) == 0.5
        assert table.get((4, 3, 2, 1), 0.0) == 0.5
        assert table.get((1, 3, 2, 4), 0.0) == 0.0
        assert len(list(v.canonical_items())) == 1

    def test_two_body_conflict_rejected(self):
        with pytest.raises(ValueError):
            TwoBodyOperator([((1, 2, 3, 4), 0.5), ((2, 1, 3, 4), 0.5)])
        with pytest.raises(ValueError):
            TwoBodyOperator([((1, 1, 3, 4), 0.25)])

    def test_two_body_consistent_duplicates_ok(self):
        v = TwoBodyOperator([((1, 2, 3, 4), 0.5), ((3, 4, 1, 2), 0.5)])
        assert two_body_table(v).get((1, 2, 3, 4), 0.0) == 0.5

    def test_operators_hold_read_only_arrays(self):
        # a model's J_z verdict is kept, so its operators cannot change under it
        m = np.eye(2)
        t = OneBodyOperator(m)
        m[0, 0] = 5.0
        assert t.matrix[0, 0] == 1.0
        v = TwoBodyOperator([((1, 2, 3, 4), 0.5)])
        for a in (t.matrix, v.keys()):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 2


class TestFockSpace:
    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded):
            FockSpace(13, 2)

    def test_anticommutation(self, rng):
        """c_i+ c_j + c_j c_i+ acts as delta_ij on the number-preserving sector."""
        space = FockSpace(6, 3)
        vec = rng.uniform(-1, 1, space.dim)
        for i in range(1, 7):
            for j in range(1, 7):
                term1 = space.apply_string(vec, [("+", i), ("-", j)])
                term2 = space.apply_string(vec, [("-", j), ("+", i)])
                want = vec if i == j else 0.0 * vec
                assert np.abs(term1 + term2 - want).max() <= 1e-14

    def test_overlap_at_beta_zero(self, phi6):
        assert fock_oracle(phi6, u=np.eye(6)) == pytest.approx(1.0)

    def test_determinant_vector_ordering_sign(self):
        space = FockSpace(4, 2)
        forward = space.determinant_vector([1, 3])
        swapped = space.determinant_vector([3, 1])
        assert np.array_equal(forward, -swapped)


class TestOverlapKernel:
    def test_beta_zero(self, phi6):
        s = kernel_sweep(phi6, [0.0])
        assert s.overlap[0] == pytest.approx(1.0, abs=1e-15)
        assert np.abs(s.rho[0, np.array(phi6.unoccupied) - 1]).max() == 0.0

    def test_single_spin_half(self):
        phi = make_slater_state([("s12", 1, 1), ("s12", 1, -1)], occupied=(1,))
        for beta in (0.0, 0.4, 1.9, 3.0):
            s = kernel_sweep(phi, [beta])
            assert s.overlap[0] == pytest.approx(math.cos(beta / 2), abs=1e-14)

    def test_two_occupied_in_one_shell(self):
        phi = make_slater_state([("d32", 3, m) for m in (3, 1, -1, -3)], occupied=(1, 2))
        beta = math.pi / 2
        s = kernel_sweep(phi, [beta])
        d = small_d_expm(3, beta)
        want = d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0]
        assert s.overlap[0] == pytest.approx(want, abs=1e-13)

    def test_matches_fock_on_random_models(self, rng):
        for _ in range(6):
            n_basis = int(rng.integers(4, 9))
            n_part = int(rng.integers(1, min(4, n_basis) + 1))
            phi = random_state(rng, n_basis, n_part)
            for beta in rng.uniform(0.05, 3.1, 3):
                s = kernel_sweep(phi, [float(beta)])
                want = fock_oracle(phi, u=s.rotation[0])
                assert s.overlap[0] == pytest.approx(want, abs=1e-12)

    def test_transpose_symmetry(self, phi6):
        # d^j(-beta) = d^j(beta)^T, so the overlap is invariant under it
        beta = 1.13
        fwd = kernel_sweep(phi6, [beta])
        labels = [o.label for o in phi6.orbitals]
        shells = [(o.shell, o.two_j) for o in phi6.orbitals]
        from amproj.angmom import rotation_matrix
        back = rotation_matrix(labels, -beta, shells=shells)
        assert np.abs(back - fwd.rotation[0].T).max() <= 1e-12
        s2 = sweep_from_rotations(phi6, back[None], [-beta])
        assert s2.overlap[0] == pytest.approx(fwd.overlap[0], abs=1e-12)

    def test_singular_overlap_flagged_not_fatal(self):
        # j=1 shell, m = +1 and -1 occupied: the occupied block at beta = pi/2
        # is [[1/2, 1/2], [1/2, 1/2]] up to roundoff, i.e. rank one
        phi = make_slater_state([("p1", 2, 2), ("p1", 2, 0), ("p1", 2, -2)],
                                occupied=(1, 3))
        s = kernel_sweep(phi, [math.pi / 2])
        assert s.flagged[0]
        assert s.overlap[0] == 0.0
        assert np.abs(s.rho[0, 1]).max() == 0.0
        assert ph_amplitude(s, 0, 2, 1) == 0.0
        assert two_ph_kernel(s, 0, 1, 3, 2, 2) == 0.0


# j=1 shell with m = +1, -1 occupied: rank-one occupied block at beta = pi/2
SINGULAR_LABELS = [("p1", 2, 2), ("p1", 2, 0), ("p1", 2, -2), ("x", 1, 1)]


class TestTwoPhKernel:
    def test_singular_sample_is_exact(self):
        # U maps c1+ -> c3+ and c2+ -> c4+ (and back): the occupied block is 0,
        # yet U|Phi> is exactly the 2p-2h state b4+ b3+ a2 a1 |Phi> up to sign
        phi = make_slater_state([("d32", 3, m) for m in (3, 1, -1, -3)], occupied=(1, 2))
        u = np.zeros((4, 4))
        u[2, 0] = u[3, 1] = u[0, 2] = u[1, 3] = 1.0
        s = sweep_from_rotations(phi, u[None], [math.nan])
        assert s.flagged[0] and s.overlap[0] == 0.0
        want = fock_oracle(phi, left=([1, 2], [4, 3]), u=u)
        assert want == 1.0
        # the occupied block with both rows replaced by rows 3 and 4 of u
        assert brute_force_determinant(u[np.ix_([2, 3], [0, 1])]) == 1.0
        assert two_ph_kernel(s, 0, 1, 2, 3, 4) == pytest.approx(1.0, abs=1e-15)
        assert two_ph_kernel(s, 0, 2, 1, 3, 4) == pytest.approx(-1.0, abs=1e-15)

    def test_singular_rotation_matches_fock(self):
        phi = make_slater_state(SINGULAR_LABELS + [("x", 1, -1)], occupied=(1, 3, 4))
        s = kernel_sweep(phi, [math.pi / 2])
        assert s.flagged[0]
        for i, j in itertools.permutations(phi.occupied, 2):
            for k, l in itertools.permutations(phi.unoccupied, 2):
                want = fock_oracle(phi, left=([i, j], [l, k]), u=s.rotation[0])
                assert two_ph_kernel(s, 0, i, j, k, l) == pytest.approx(want, abs=1e-12)

    def test_beta_zero_vanishes(self, phi6):
        s = kernel_sweep(phi6, [0.0])
        assert two_ph_kernel(s, 0, 2, 5, 1, 3) == 0.0

    def test_repeated_index_is_zero(self, phi6):
        s = kernel_sweep(phi6, [0.9])
        assert two_ph_kernel(s, 0, 2, 2, 1, 3) == 0.0
        assert two_ph_kernel(s, 0, 2, 5, 3, 3) == 0.0

    def test_occupancy_violations(self, phi6):
        s = kernel_sweep(phi6, [0.9])
        with pytest.raises(BadIndex, match="orbital 1 is not occupied"):
            two_ph_kernel(s, 0, 1, 5, 3, 4)
        # an occupied id, and ids outside 1..N (0 would wrap to the last row of rho)
        for k in (5, 0, 7):
            with pytest.raises(BadIndex, match=f"orbital {k} is not unoccupied"):
                two_ph_kernel(s, 0, 2, 5, k, 3)
            with pytest.raises(BadIndex, match=f"orbital {k} is not unoccupied"):
                two_ph_kernel(s, 0, 2, 5, 3, k)

    def test_antisymmetry_is_exact(self, phi6):
        s = kernel_sweep(phi6, [1.2])
        base = two_ph_kernel(s, 0, 2, 5, 1, 3)
        assert two_ph_kernel(s, 0, 5, 2, 1, 3) == -base
        assert two_ph_kernel(s, 0, 2, 5, 3, 1) == -base
        assert two_ph_kernel(s, 0, 5, 2, 3, 1) == base

    def test_matches_fock_on_random_models(self, rng):
        for _ in range(5):
            n_basis = int(rng.integers(5, 9))
            n_part = int(rng.integers(2, min(4, n_basis - 2) + 1))
            phi = random_state(rng, n_basis, n_part)
            for beta in rng.uniform(0.05, 3.1, 2):
                s = kernel_sweep(phi, [float(beta)])
                for i, j in itertools.combinations(phi.occupied, 2):
                    for k, l in itertools.combinations(phi.unoccupied, 2):
                        got = two_ph_kernel(s, 0, i, j, k, l)
                        want = fock_oracle(phi, left=([i, j], [l, k]), u=s.rotation[0])
                        assert got == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))


class TestPhAmplitude:
    def test_beta_zero(self, phi6):
        s = kernel_sweep(phi6, [0.0])
        assert ph_amplitude(s, 0, 2, 2) == 1.0
        assert ph_amplitude(s, 0, 5, 2) == 0.0
        assert ph_amplitude(s, 0, 1, 2) == 0.0

    def test_unoccupied_hole_rejected(self, phi6):
        s = kernel_sweep(phi6, [0.4])
        with pytest.raises(BadIndex, match="orbital 3 is not occupied"):
            ph_amplitude(s, 0, 1, 3)

    def test_ids_outside_the_basis_rejected(self, phi6):
        # k = 0 would otherwise wrap to the last row of rho
        s = kernel_sweep(phi6, [0.4])
        for k in (0, 7):
            with pytest.raises(BadIndex, match=f"orbital {k} is not unoccupied"):
                ph_amplitude(s, 0, k, 2)

    def test_ratio_definition(self, rng):
        phi = random_state(rng, 7, 3)
        for beta in (0.3, 1.7):
            s = kernel_sweep(phi, [beta])
            for k in range(1, 8):
                for i in phi.occupied:
                    num = fock_oracle(phi, left=([i], [k]), u=s.rotation[0])
                    assert ph_amplitude(s, 0, k, i) == pytest.approx(
                        num / s.overlap[0], abs=1e-10)


class TestLowdinKernels:
    def test_beta_zero_limits(self, rng, phi6):
        t = random_one_body(rng, 6)
        v = random_two_body(rng, 6)
        s = kernel_sweep(phi6, [0.0])
        e1_want = sum(t.matrix[i - 1, i - 1] for i in phi6.occupied)
        assert one_body_numerators(s, t)[0] == pytest.approx(e1_want, abs=1e-12)
        table = two_body_table(v)
        e2_want = sum(table.get((a, b, a, b), 0.0)
                      for a, b in itertools.combinations(phi6.occupied, 2))
        assert two_body_numerators(s, v)[0] == pytest.approx(e2_want, abs=1e-12)
        assert hf_energy(phi6, t, v) == pytest.approx(e1_want + e2_want, abs=1e-12)

    def test_identity_operator_gives_n_overlap(self, phi6):
        s = kernel_sweep(phi6, [1.1])
        ident = OneBodyOperator(np.eye(6))
        assert one_body_numerators(s, ident)[0] == pytest.approx(2 * s.overlap[0], abs=1e-12)

    def test_zero_interaction(self, phi6):
        s = kernel_sweep(phi6, [1.1])
        assert two_body_numerators(s, TwoBodyOperator())[0] == 0.0

    def test_matches_fock_on_random_models(self, rng):
        for _ in range(5):
            n_basis = int(rng.integers(4, 9))
            n_part = int(rng.integers(1, min(4, n_basis) + 1))
            model = random_model(rng, n_basis, n_part)
            phi = model.state
            for beta in rng.uniform(0.05, 3.1, 2):
                s = kernel_sweep(phi, [float(beta)])
                got1 = one_body_numerators(s, model.t)[0]
                want1 = fock_oracle(phi, left=model.t, u=s.rotation[0])
                assert got1 == pytest.approx(want1, abs=1e-9 * max(1.0, abs(want1)))
                got2 = two_body_numerators(s, model.v)[0]
                want2 = fock_oracle(phi, left=model.v, u=s.rotation[0])
                assert got2 == pytest.approx(want2, abs=1e-9 * max(1.0, abs(want2)))

    def test_singular_sample_keeps_kernels_finite(self, rng):
        # j=1 shell with m = +1, -1 occupied: rank-one block at beta = pi/2
        phi = make_slater_state([("p1", 2, 2), ("p1", 2, 0), ("p1", 2, -2), ("x", 1, 1)],
                                occupied=(1, 3))
        s = kernel_sweep(phi, [math.pi / 2])
        assert s.flagged[0]
        t = random_one_body(rng, 4)
        v = random_two_body(rng, 4, density=1.0)
        got1 = one_body_numerators(s, t)[0]
        want1 = fock_oracle(phi, left=t, u=s.rotation[0])
        assert got1 == pytest.approx(want1, abs=1e-9)
        got2 = two_body_numerators(s, v)[0]
        want2 = fock_oracle(phi, left=v, u=s.rotation[0])
        assert got2 == pytest.approx(want2, abs=1e-9)


class TestKernelSweep:
    def test_stack_matches_single_nodes(self, rng):
        # flagged nodes among regular ones: batching must not mix nodes
        cases = [
            (SINGULAR_LABELS, (1, 3), [0.3, math.pi / 2, 1.2, 2.9]),
            # det A = cos(beta) cos(beta/2): two flagged nodes in one stack
            (SINGULAR_LABELS + [("x", 1, -1)], (1, 3, 4), [0.3, math.pi / 2, 1.2, 2.9, math.pi]),
        ]
        for labels, occupied, betas in cases:
            phi = make_slater_state(labels, occupied=occupied)
            t = random_one_body(rng, phi.n_basis)
            v = random_two_body(rng, phi.n_basis, density=1.0)
            sweep, table = kernel_sweep(phi, betas), two_body_table(v)
            flagged = [beta in (math.pi / 2, math.pi) for beta in betas]
            assert sweep.flagged.tolist() == flagged
            assert (len(sweep.canonical_cv) == len(sweep.canonical_u) == len(sweep.canonical_w)
                    == sum(flagged))
            e1 = one_body_numerators(sweep, t)
            e2 = two_body_numerators(sweep, v)
            ph = two_body_numerators(sweep, v, particle_hole=True)
            for q, beta in enumerate(betas):
                s = kernel_sweep(phi, [beta])
                assert s.flagged[0] == sweep.flagged[q]
                assert sweep.overlap[q] == s.overlap[0]
                assert np.array_equal(sweep.rotation[q], s.rotation[0])
                assert e1[q] == pytest.approx(one_body_numerators(s, t)[0], abs=1e-14)
                assert e2[q] == pytest.approx(two_body_numerators(s, v)[0], abs=1e-14)
                want_ph = sum(table.get((i, j, k, l), 0.0) * two_ph_kernel(s, 0, i, j, k, l)
                              for i, j in itertools.combinations(phi.occupied, 2)
                              for k, l in itertools.combinations(phi.unoccupied, 2))
                assert ph[q] == pytest.approx(want_ph, abs=1e-14)
                if not flagged[q]:
                    continue
                rot = s.rotation[0]
                assert e1[q] == pytest.approx(fock_oracle(phi, left=t, u=rot), abs=1e-12)
                assert e2[q] == pytest.approx(fock_oracle(phi, left=v, u=rot), abs=1e-12)
                for i, j in itertools.permutations(phi.occupied, 2):
                    for k, l in itertools.permutations(phi.unoccupied, 2):
                        want = fock_oracle(phi, left=([i, j], [l, k]), u=rot)
                        assert two_ph_kernel(s, 0, i, j, k, l) == pytest.approx(want, abs=1e-12)

    def test_kernels_at_every_node_match_fock(self):
        # two flagged nodes, q = 1 and q = 4: the second reads canonical slot 1
        phi = make_slater_state(SINGULAR_LABELS + [("x", 1, -1)], occupied=(1, 3, 4))
        sweep = kernel_sweep(phi, [0.3, math.pi / 2, 1.2, 2.9, math.pi])
        assert np.flatnonzero(sweep.flagged).tolist() == sweep.flagged_nodes.tolist() == [1, 4]
        assert sweep.occupied_index.tolist() == [0, 2, 3]
        for q, rot in enumerate(sweep.rotation):
            for i, j in itertools.permutations(phi.occupied, 2):
                for k, l in itertools.permutations(phi.unoccupied, 2):
                    want = fock_oracle(phi, left=([i, j], [l, k]), u=rot)
                    assert two_ph_kernel(sweep, q, i, j, k, l) == pytest.approx(want, abs=1e-12)
            overlap = fock_oracle(phi, u=rot)
            for k in range(1, phi.n_basis + 1):
                for i in phi.occupied:
                    got = ph_amplitude(sweep, q, k, i)
                    if sweep.flagged[q]:  # no ratio to a vanishing overlap: rho's rows read
                        assert got == (k == i)
                    else:
                        num = fock_oracle(phi, left=([i], [k]), u=rot)
                        assert got == pytest.approx(num / overlap, abs=1e-12)

    def test_tiny_pivot_under_a_large_entry_is_silent(self):
        # ||A||_F^2 overflows and the determinant underflows; the node is flagged, so
        # it is discarded without a warning, and the regular node is intact
        phi = make_slater_state([("s", 1, 1), ("s", 1, -1), ("p", 1, 1)], occupied=(1, 2))
        rot = np.stack([np.eye(3), np.eye(3)])
        rot[1, :, :2] = [[1.0, 0.0], [1e200, 1e-200], [1.0, 1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = sweep_from_rotations(phi, rot, [0.0, 1.0])
        assert sweep.flagged.tolist() == [False, True]
        # the exact smallest singular value, 1e-200 / 1e200, underflows to 0
        s_min = np.linalg.svd(rot[1, :2, :2], compute_uv=False)[1]
        assert sweep.smallest_singular[1] == s_min == 0.0 and sweep.overlap[1] == 0.0
        assert np.array_equal(sweep.rho[1], [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(sweep.rho[0], np.eye(3)[:, :2]) and sweep.overlap[0] == 1.0

    def test_block_below_the_singular_ratio_is_flagged(self, rng):
        # s_min / s_max = 5e-14 < tau, though no pivot of A need fall below tau max|A|;
        # read through C A^{-1} the two-body numerator is up to 1e-3 off, so the block
        # must be flagged and read from the canonical form
        for _ in range(20):
            phi = random_state(rng, 6, 3)
            v = random_two_body(rng, 6, density=1.0)
            rot = cs_rotation(rng, phi.occupied, [1.0, math.cos(0.3), 5e-14])
            sweep = sweep_from_rotations(phi, rot[None], [0.0])
            assert sweep.flagged.tolist() == [True] and sweep.overlap[0] == 0.0
            want = fock_oracle(phi, left=v, u=rot)
            assert abs(two_body_numerators(sweep, v)[0] - want) <= 1e-12

    def test_rank_is_certified_by_the_determinant_or_the_singular_values(self, rng,
                                                                         monkeypatch):
        # |det A| >= tau ||A||_F^n certifies s_min >= tau s_max without an SVD; the
        # other blocks take one batched SVD and are flagged when s_min < tau s_max
        phi = random_state(rng, 6, 3)
        ratios = [0.1, 1e-12, 2e-13, 5e-14, 1e-15, 0.0]
        rot = np.stack([cs_rotation(rng, phi.occupied, [1.0, math.cos(0.3), r])
                        for r in ratios])
        shapes, real = [], np.linalg.svd

        def svd(a, *args, compute_uv=True, **kwargs):
            shapes.append((a.shape, compute_uv))
            return real(a, *args, compute_uv=compute_uv, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", svd)
        sweep = sweep_from_rotations(phi, rot, np.zeros(len(ratios)))
        monkeypatch.undo()
        assert sweep.flagged.tolist() == [r < 1e-13 for r in ratios]
        assert shapes == [((4, 3, 3), False), ((3, 3, 3), True)]  # the check, then the form
        occ = np.array(phi.occupied) - 1
        blocks = rot[:, occ][:, :, occ]
        assert np.array_equal(sweep.smallest_singular[2:],
                              np.linalg.svd(blocks[2:], compute_uv=False)[:, -1])
        s_min = np.linalg.svd(blocks[:2], compute_uv=False)[:, -1]
        assert (sweep.smallest_singular[:2] <= s_min).all()
        assert np.array_equal(sweep.overlap, np.where(sweep.flagged, 0.0, np.linalg.det(blocks)))

    def test_sweep_arrays_are_read_only(self, phi6):
        rot = np.stack([np.eye(6), np.eye(6)])
        sweep = sweep_from_rotations(phi6, rot, [0.0, 0.0])
        for a in (sweep.beta, sweep.rotation, sweep.overlap, sweep.rho, sweep.canonical_cv,
                  sweep.canonical_u, sweep.canonical_w, sweep.flagged, sweep.smallest_singular,
                  sweep.occupied_index, sweep.flagged_nodes):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        rot[0, 0, 0] = 2.0  # the caller's array stays writable

    def test_particle_hole_numerator_matches_fock(self, rng):
        # the 2p-2h numerator, regular and flagged nodes alike
        phi = make_slater_state(SINGULAR_LABELS + [("x", 1, -1)], occupied=(1, 3, 4))
        v = random_two_body(rng, 5, density=1.0)
        betas = [0.7, math.pi / 2]
        sweep = kernel_sweep(phi, betas)
        assert sweep.flagged.tolist() == [False, True]
        got, table = two_body_numerators(sweep, v, particle_hole=True), two_body_table(v)
        for q in range(len(betas)):
            want = sum(table.get((i, j, k, l), 0.0) * fock_oracle(phi, left=([i, j], [l, k]),
                                                                   u=sweep.rotation[q])
                       for i, j in itertools.combinations(phi.occupied, 2)
                       for k, l in itertools.combinations(phi.unoccupied, 2))
            assert got[q] == pytest.approx(want, abs=1e-12)
            assert want != 0.0

    def test_rank_deficient_blocks_match_oracles(self, rng):
        # occupied blocks of rank n, n - 1 and n - 2 in one stack of arbitrary maps,
        # against the Fock space and the cofactor expansion (1e-12 of max(1, |value|))
        def close(got, want):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

        for n_basis, n_part in [(8, 3), (9, 4), (10, 5)]:
            phi = random_state(rng, n_basis, n_part)
            occ, unocc = np.array(phi.occupied) - 1, np.array(phi.unoccupied) - 1
            t, v = random_one_body(rng, n_basis), random_two_body(rng, n_basis, density=0.5)
            maps = rng.uniform(-1, 1, (3, n_basis, n_basis))
            for m, rank in zip(maps, (n_part, n_part - 1, n_part - 2)):
                u, sv, vt = np.linalg.svd(m[np.ix_(occ, occ)])
                m[np.ix_(occ, occ)] = (u * np.where(np.arange(n_part) < rank, sv, 0.0)) @ vt
            sweep = sweep_from_rotations(phi, maps, np.zeros(3))
            assert sweep.flagged.tolist() == [False, True, True]
            e1, e2 = one_body_numerators(sweep, t), two_body_numerators(sweep, v)
            ph = two_body_numerators(sweep, v, particle_hole=True)
            table = two_body_table(v)
            vblock = closure_oracle_block(table, n_basis, phi.occupied)
            for q, m in enumerate(maps):
                block, c = m[np.ix_(occ, occ)], m[:, occ]
                first = cofactors(block, 1)[1]
                pairs, second = cofactors(block, 2)
                i, j = np.array(pairs).T
                adj = adjugate(block)
                assert np.abs(adj - first.T).max() <= 1e-12 * max(1.0, np.abs(first).max())
                close(e1[q], np.sum(t.matrix[occ] @ c * first))
                close(e1[q], np.trace(t.matrix[occ] @ c @ adj))
                close(e1[q], fock_oracle(phi, left=t, u=m))
                for got, rows in ((e2[q], np.arange(n_basis)), (ph[q], unocc)):
                    # second cofactors contracted with sum_pq V~_{ij,pq} c_pk c_ql
                    cr = c[rows]
                    m2 = np.einsum("rpq,ps,qs->rs", vblock[i, j][:, rows[:, None], rows],
                                   cr[:, i], cr[:, j])
                    close(got, np.sum(m2 * second))
                close(e2[q], fock_oracle(phi, left=v, u=m))
                want_ph = 0.0
                for a, b in itertools.combinations(range(n_part), 2):
                    for k, l in itertools.combinations(phi.unoccupied, 2):
                        ck, cl = m[k - 1, occ], m[l - 1, occ]
                        laplace = second[pairs.index((a, b))] @ (ck[i] * cl[j] - ck[j] * cl[i])
                        ids = phi.occupied[a], phi.occupied[b]
                        got = two_ph_kernel(sweep, q, *ids, k, l)
                        close(got, laplace)
                        close(got, fock_oracle(phi, left=(list(ids), [l, k]), u=m))
                        want_ph += table.get((*ids, k, l), 0.0) * got
                close(ph[q], want_ph)

    def test_image_plan_is_built_once(self, rng):
        # bra == ket orbits included: each key of the occupied-bra block is one image
        v = random_two_body(rng, 5)
        images = v._pattern.images(5, (4, 2))
        assert v._pattern.images(5, (4, 2)) is images
        table = two_body_table(v)
        block = image_block(v, 5, (4, 2))
        assert block.shape == (2, 2, 5, 5)
        assert block.tobytes() == closure_oracle_block(table, 5, (4, 2)).tobytes()
        hits = 0
        for (i, j, k, l), val in sorted(table.items()):
            if {i, j} <= {2, 4}:
                assert block[(4, 2).index(i), (4, 2).index(j), k - 1, l - 1] == val
                hits += 1
        assert np.count_nonzero(block) == hits == len(images.src)
        # the leading particle-hole images are the block's unoccupied p, q entries
        unocc = np.array([1, 3, 5]) - 1
        want = np.zeros_like(block)
        want[:, :, unocc[:, None], unocc] = block[:, :, unocc[:, None], unocc]
        assert image_block(v, 5, (4, 2), particle_hole=True).tobytes() == want.tobytes()


class TestThouless:
    def test_identity(self, phi6):
        c0, table = thouless_expand(phi6, np.eye(6))
        assert c0 == 1.0
        assert np.abs(table.values).max() == 0.0

    def test_rotation_matches_kernel_table(self, phi6):
        beta = 0.02
        s = kernel_sweep(phi6, [beta])
        c0, table = thouless_expand(phi6, s.rotation[0])
        assert c0 == pytest.approx(s.overlap[0], abs=1e-15)
        assert np.abs(table.values - s.rho[0, np.array(phi6.unoccupied) - 1]).max() <= 1e-12

    def test_filled_basis_has_an_empty_table(self, rng):
        phi = make_slater_state(TWO_SHELL_LABELS[:4], occupied=(1, 2, 3, 4))
        u = rng.uniform(-1, 1, (4, 4)) + 2.0 * np.eye(4)
        c0, table = thouless_expand(phi, u)
        assert table.values.shape == (0, 4)
        assert c0 == pytest.approx(np.linalg.det(u), abs=1e-12)

    def test_vanishing_overlap_raises(self, phi6):
        u = np.eye(6)
        u[1, 1] = 0.0  # kills the occupied block
        with pytest.raises(VanishingOverlap):
            thouless_expand(phi6, u)

    def test_block_the_sweep_flags_raises(self, rng):
        # s_min / s_max = 5e-14 < tau: the sweep flags every such block, so the
        # exponential form is refused rather than given with x entries near 1e13
        for _ in range(20):
            phi = random_state(rng, 6, 3)
            u = cs_rotation(rng, phi.occupied, [1.0, math.cos(0.3), 5e-14])
            assert sweep_from_rotations(phi, u[None], [0.0]).flagged[0]
            with pytest.raises(VanishingOverlap, match="smallest singular value"):
                thouless_expand(phi, u)

    def test_reconstruction_and_2p2h_coefficients(self, rng):
        for n_basis, n_part in [(4, 2), (6, 3)]:
            phi = random_state(rng, n_basis, n_part)
            space = FockSpace(n_basis, n_part)
            base = space.determinant_vector(phi.occupied)
            for _ in range(4):
                u = rng.uniform(-1, 1, (n_basis, n_basis)) + 1.5 * np.eye(n_basis)
                c0, table = thouless_expand(phi, u)
                # exp(sum x b+ a)|Phi> by the terminating series
                xop = np.zeros((n_basis, n_basis))
                for r, k in enumerate(phi.unoccupied):
                    for p, i in enumerate(phi.occupied):
                        xop[k - 1, i - 1] = table.values[r, p]
                vec = base.copy()
                term = base.copy()
                for order in range(1, min(n_part, n_basis - n_part) + 1):
                    term = space.apply_one_body(term, xop) / order
                    vec = vec + term
                target = space.slater_vector(u[:, [d - 1 for d in phi.occupied]])
                assert np.abs(c0 * vec - target).max() <= 1e-9
                # 2p-2h coefficients equal 2x2 minors of x
                for i, j in itertools.combinations(phi.occupied, 2):
                    pi, pj = phi.occupied.index(i), phi.occupied.index(j)
                    for k, l in itertools.combinations(phi.unoccupied, 2):
                        rk = phi.unoccupied.index(k)
                        rl = phi.unoccupied.index(l)
                        x = table.values
                        want = x[rl, pi] * x[rk, pj] - x[rl, pj] * x[rk, pi]
                        got = fock_oracle(phi, left=([i, j], [k, l]), u=u) / c0
                        assert got == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))


class TestBrillouinAndEnergy:
    def test_selection_rule_model_is_stable(self):
        model = two_shell_m1_model()
        res = brillouin_check(model.state, model.t, model.v)
        assert res.max() == 0.0

    def test_diagonal_t_no_v_is_stable(self, phi6):
        t = OneBodyOperator(np.diag(np.arange(1.0, 7.0)))
        res = brillouin_check(phi6, t, TwoBodyOperator())
        assert res.max() == 0.0

    def test_generic_model_reports_residuals(self, rng, phi6):
        model = Model(state=phi6, t=random_one_body(rng, 6), v=random_two_body(rng, 6))
        res = brillouin_check(phi6, model.t, model.v)
        assert res.shape == (2, 4)
        assert res.max() > 1e-3  # generic interactions break stability

    def test_matches_fock_oracle(self, rng):
        # <Phi| H b_j+ a_i |Phi> by explicit Fock-space algebra
        for n_basis, n_part in [(4, 2), (6, 3), (8, 3), (7, 1)]:
            model = random_model(rng, n_basis, n_part)
            phi = model.state
            space = FockSpace(n_basis, n_part)
            base = space.determinant_vector(phi.occupied)
            h_phi = (space.apply_one_body(base, model.t.matrix)
                     + space.apply_two_body(base, model.v))
            want = np.array([[abs(space.inner(h_phi, space.apply_excitation(base, [j], [i])))
                              for j in sorted(phi.unoccupied)] for i in sorted(phi.occupied)])
            got = brillouin_check(phi, model.t, model.v)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12

    def test_no_basis_size_limit(self, rng):
        labels = [("h", 15, m) for m in range(15, -16, -2)]
        phi = make_slater_state(labels, occupied=(1, 4, 8, 11, 13, 16))
        res = brillouin_check(phi, OneBodyOperator(np.eye(16)), random_two_body(rng, 16, 0.05))
        assert res.shape == (6, 10) and np.isfinite(res).all()

    def test_hf_energy_examples(self, rng, phi6):
        eps = np.arange(1.0, 7.0)
        t = OneBodyOperator(np.diag(eps))
        assert hf_energy(phi6, t, TwoBodyOperator()) == pytest.approx(eps[1] + eps[4])
        model = random_model(rng, 6, 2)
        want = (fock_oracle(model.state, left=model.t)
                + fock_oracle(model.state, left=model.v))
        assert hf_energy(model.state, model.t, model.v) == pytest.approx(want, abs=1e-12)


@given(st.integers(0, 2 ** 31 - 1))
def test_fock_oracle_vs_overlap_determinant(seed):
    r = np.random.default_rng(seed)
    phi = random_state(r, int(r.integers(3, 7)), int(r.integers(1, 4)))
    beta = float(r.uniform(0.1, 3.0))
    s = kernel_sweep(phi, [beta])
    assert s.overlap[0] == pytest.approx(fock_oracle(phi, u=s.rotation[0]), abs=1e-12)


def _orbit_member(key, which):
    """One of the sign images of key, with its sign."""
    i, j, k, l = key
    return [((j, i, k, l), -1.0), ((i, j, l, k), -1.0), ((k, l, i, j), 1.0),
            ((l, k, j, i), 1.0)][which]


_PAIR = st.lists(st.integers(1, 4), min_size=2, max_size=2, unique=True).map(tuple)


@st.composite
def closure_inputs(draw):
    """Elements over ids 1..4: repeated orbit members, equal or perturbed by a
    relative 4e-13 .. 1e-6, zero and diagonal keys, a bad id, keys of three and
    five ids, dict input."""
    # one element per sign orbit, so that only the repeats below collide
    keys = draw(st.lists(st.tuples(_PAIR, _PAIR).map(lambda p: p[0] + p[1]), max_size=8,
                         unique_by=sign_orbit_key))
    entries = [(key, draw(st.sampled_from([0.0, 0.5, -1.25, 2.0, -7e3]))) for key in keys]
    for _ in range(draw(st.integers(0, 4))):
        if not entries:
            break
        key, value = entries[draw(st.integers(0, len(entries) - 1))]
        member, sign = _orbit_member(key, draw(st.integers(0, 3)))
        delta = draw(st.sampled_from([0.0, 4e-13, 1e-12, 3e-12, 1e-6]))
        entries.insert(draw(st.integers(0, len(entries))), (member, sign * value * (1 + delta)))
    for fault in draw(st.sampled_from([(), (), (), ("zero-diagonal",), ("diagonal",),
                                       ("bad-id",), ("diagonal", "bad-id"), ("short",),
                                       ("short", "long")])):
        key = {"zero-diagonal": (2, 2, 1, 3), "diagonal": (1, 3, 4, 4),
               "bad-id": (0, 1, 2, 3), "short": (1, 2, 3), "long": (1, 2, 3, 4, 2)}[fault]
        value = 0.0 if fault == "zero-diagonal" else 0.5
        entries.insert(draw(st.integers(0, len(entries))), (key, value))
    return dict(entries) if draw(st.booleans()) else entries


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return type(exc), str(exc)


def _bits(items):
    return [(key, value.hex()) for key, value in items]


@given(closure_inputs(), st.permutations([1, 2, 3, 4]), st.integers(1, 4))
@example([], [1, 2, 3, 4], 2)
@example([((1, 2, 3, 4), 0.5), ((3, 4, 1, 2), 0.5), ((2, 1, 4, 3), 0.5 * (1 + 1.9e-12))],
         [3, 1, 2, 4], 2)
@example([((1, 2, 3, 4), 2.0), ((2, 1, 3, 4), -2.0 * (1 + 4e-13)), ((4, 3, 1, 2), 2.0)],
         [1, 2, 3, 4], 3)
@example([((1, 2, 3, 4), 2.0), ((2, 1, 3, 4), -2.0 * (1 + 3e-12))], [1, 2, 3, 4], 2)
@example([((1, 3, 2, 4), 0.5), ((2, 2, 1, 3), 0.0), ((1, 2, 3, 4), 0.0), ((1, 3, 4, 2), 0.5)],
         [1, 2, 3, 4], 2)
@example({(1, 2, 3, 4): 0.5, (2, 1, 3, 4): -0.5, (1, 4, 2, 3): -7e3}, [4, 3, 2, 1], 3)
@example([((1, 2, 3, 4), 0.5), ((1, 3, 4, 4), 0.5), ((1, 2, 4, 3), 0.25)], [1, 2, 3, 4], 2)
@example([((1, 2, 3), 0.5), ((1, 2, 3, 4, 2), 0.5)], [1, 2, 3, 4], 2)
@example([((1, 2, 3, 4), 0.5), ((1, 2, 3), 0.5)], [1, 2, 3, 4], 2)
@example([((1, 2, 3, 4), 0.5), ((4, 3, 2, 1), -0.5)], [1, 2, 3, 4], 2)
@example([((1, 2, 1, 2), 0.5), ((2, 1, 2, 1), 0.5 * (1 + 3e-12))], [1, 2, 3, 4], 2)
def test_closure_matches_dict_oracle(entries, order, n_occupied):
    """Bitwise the dict-built closure: every image, max_id, the occupied-bra images, errors."""
    want = _outcome(lambda: closure_oracle(entries))
    got = _outcome(lambda: TwoBodyOperator(entries))
    if not isinstance(want[0], dict):
        keys = entries.keys() if isinstance(entries, dict) else [key for key, _ in entries]
        if all(len(key) == 4 for key in keys):
            assert got == want  # same exception type and message
        else:
            assert got[0] is want[0] is ValueError  # a key of the wrong length
        return
    table, top = want
    closed = two_body_table(got)
    assert _bits(sorted(closed.items())) == _bits(sorted(table.items()))
    assert len(closed) == len(table) and got.max_id() == top
    for key in itertools.product(range(6), repeat=4):
        assert closed.get(key, 0.0).hex() == table.get(key, 0.0).hex()
    occupied = order[:n_occupied]
    assert np.array_equal(image_block(got, 4, occupied),
                          closure_oracle_block(table, 4, occupied))
    assert got._pattern.images(4, occupied) is got._pattern.images(4, occupied)


@given(closure_inputs(), st.lists(st.sampled_from([-5, -3, -1, 1, 3, 5]), min_size=4,
                                  max_size=4))
@example([((4, 2, 3, 1), 0.25), ((2, 1, 4, 3), 0.5)], [1, 1, 3, 3])
@example([((4, 3, 2, 1), 0.5), ((1, 3, 2, 4), 0.25)], [1, -1, 3, 1])
def test_jz_violation_matches_closed_table(entries, two_m):
    """The first element that changes 2M, read off the stored keys, as over the closed table."""
    try:
        table = closure_oracle(entries)[0]
    except ValueError:
        return  # no table: test_closure_matches_dict_oracle covers the errors
    state = make_slater_state([("j52", 5, m) for m in two_m], occupied=(1, 2))
    model = Model(state=state, t=OneBodyOperator(np.eye(4)), v=TwoBodyOperator(entries))
    assert jz_violation(model) == jz_oracle(dict(enumerate(two_m, start=1)), np.eye(4), table)


def test_closure_at_the_id_limit():
    # MAX_ID is the largest id whose keys still rank as one int64 number; one more is refused
    top = TwoBodyOperator.MAX_ID
    assert (top + 1) ** 4 < 2 ** 63 <= (top + 2) ** 4
    entries = [((top, 1, top - 2, 3), 0.5), ((3, top - 2, 1, top), 0.5),
               ((2, top - 1, top, 1), 1.5), ((top, top - 1, top, top - 1), -0.25)]
    table, top_id = closure_oracle(entries)
    v = TwoBodyOperator(entries)
    closed = two_body_table(v)
    assert _bits(sorted(closed.items())) == _bits(sorted(table.items()))
    assert v.max_id() == top_id == top and len(closed) == len(table) == 20
    assert all(closed.get(key, 0.0) == value for key, value in table.items())
    assert closed.get((top, top, 1, 2), 0.0) == 0.0
    for extra in [((1, top, top - 2, 3), 0.6), ((1, 2, 3, top + 1), 0.5)]:
        wrong = entries + [extra]
        assert _outcome(lambda: TwoBodyOperator(wrong)) == _outcome(lambda: closure_oracle(wrong))
    assert _outcome(lambda: TwoBodyOperator(wrong)) == (
        ValueError, f"orbital ids must be in 1..{top}, got (1, 2, 3, {top + 1})")


@pytest.mark.parametrize("entries", [[((1, 2, 3, 4), 0.5), ((1, 2, 4, 3), -0.5, 1.0)],
                                     [((1, 2, 3, 4), 0.5, 1.0), ((1, 2, 4, 3), -0.5)],
                                     [((1, 2, 3, 4), 0.5), ((1, 2, 4, 3),)]])
def test_closure_refuses_an_element_that_is_not_a_pair(entries):
    with pytest.raises(ValueError):
        closure_oracle(entries)
    with pytest.raises(ValueError):
        TwoBodyOperator(entries)


def _workload_elements(form: str, seed: int):
    """About 400 elements over ids 1..16, in the sizes of a benchmark request.

    canonical: one element per sign orbit under its smallest key, sorted, as
    the benchmark generator and `cli.model_to_json` write tables.  images:
    the same elements shuffled, each under a random key of its orbit with its
    sign.  repeats: images with 40 more writes of written orbits, equal or
    within the 1e-12 duplicate tolerance.  conflict: repeats with a write
    that differs by 1e-6, then a nonzero diagonal element.
    """
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(1, 17), 2))
    orbits = [(a, b) for a in range(len(pairs)) for b in range(a, len(pairs))]
    entries = [(pairs[orbits[c][0]] + pairs[orbits[c][1]], float(rng.uniform(-1, 1)))
               for c in np.sort(rng.choice(len(orbits), 400, replace=False))]
    if form == "canonical":
        return entries

    def image(key, value):
        i, j, k, l = key
        member, sign = [((i, j, k, l), 1.0), ((j, i, k, l), -1.0), ((i, j, l, k), -1.0),
                        ((j, i, l, k), 1.0), ((k, l, i, j), 1.0), ((l, k, i, j), -1.0),
                        ((k, l, j, i), -1.0), ((l, k, j, i), 1.0)][rng.integers(8)]
        return member, sign * value

    entries = [image(*entries[c]) for c in rng.permutation(len(entries))]
    if form == "images":
        return entries
    for _ in range(40):
        key, value = entries[rng.integers(len(entries))]
        entries.insert(rng.integers(len(entries) + 1),
                       image(key, value * (1 + rng.choice([0.0, 4e-13]))))
    if form == "repeats":
        return entries
    at = rng.integers(len(entries) // 2, len(entries))
    key, value = entries[rng.integers(at)]
    return entries[:at] + [image(key, value * (1 + 1e-6))] + entries[at:] + [((3, 5, 7, 7), 0.5)]


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("form", ["canonical", "images", "repeats", "conflict"])
def test_closure_matches_dict_oracle_at_workload_size(form, seed):
    """Bitwise the dict-built closure for request-sized tables, every form of input."""
    entries = _workload_elements(form, seed)
    want = _outcome(lambda: closure_oracle(entries))
    got = _outcome(lambda: TwoBodyOperator(entries))
    if form == "conflict":
        assert want[0] is ValueError and want[1].startswith("conflicting duplicate")
        assert got == want
        return
    table, top = want
    assert _bits(sorted(two_body_table(got).items())) == _bits(sorted(table.items()))
    assert (list(map(tuple, got.keys().tolist()))
            == sorted(key for key in table if sign_orbit_key(key) == key))
    assert got.max_id() == top
    rng = np.random.default_rng(seed)
    for occupied in ([1, 2, 3, 4, 5, 6], rng.permutation(16)[:6] + 1, range(16, 0, -1)):
        assert (image_block(got, 16, occupied).tobytes()
                == closure_oracle_block(table, 16, occupied).tobytes())


def _scaled(entries, factor):
    return [(key, factor * value) for key, value in entries]


def _new_values(entries, seed):
    rng = np.random.default_rng(seed)
    return [(key, float(rng.uniform(-1, 1))) for key, _ in entries]


_TWO_ORBITS = [((1, 2, 3, 4), 0.5), ((3, 4, 2, 1), -0.5), ((1, 3, 2, 4), 0.25)]
_CONFLICTING = [((1, 2, 3, 4), 0.5), ((3, 4, 2, 1), -0.6), ((1, 3, 2, 4), 0.25)]
_WITH_FAULT = [((1, 2, 3, 4), 0.5), ((1, 3, 2, 4), 0.25), ((2, 2, 1, 3), 0.75), ((1, 4, 2, 3), 1.0)]
_FAULT_ZEROED = _WITH_FAULT[:2] + [((2, 2, 1, 3), 0.0)] + _WITH_FAULT[3:]
_IMAGES = _workload_elements("images", 5)
_ONE_ZEROED = _IMAGES[:7] + [(_IMAGES[7][0], 0.0)] + _IMAGES[8:]
_REPEATS = _workload_elements("repeats", 6)
# (tables built one after another, then whether each table after the first
# reuses the analysis kept from the table before it; None for one that raises)
REPEATED_PATTERNS = {
    "new values": ([_IMAGES, _new_values(_IMAGES, 1), _new_values(_IMAGES, 2)], [True, True]),
    "repeats, new values": ([_REPEATS, _scaled(_REPEATS, -1.5)], [True]),
    "conflict from the values": ([_TWO_ORBITS, _CONFLICTING], [None]),
    "conflict then none": ([_CONFLICTING, _TWO_ORBITS], [True]),
    "a value turns 0": ([_IMAGES, _ONE_ZEROED, _IMAGES], [False, False]),
    "faulty element": ([_WITH_FAULT, _scaled(_WITH_FAULT, 2.0)], [None]),
    "faulty element turns 0": ([_WITH_FAULT, _FAULT_ZEROED], [False]),
    "list keys": ([[(list(key), value) for key, value in _TWO_ORBITS]] * 2 + [_TWO_ORBITS] * 2,
                  [False, False, True]),
    "array keys": ([[(np.array(key), value) for key, value in _TWO_ORBITS]] * 2 + [_TWO_ORBITS],
                   [False, False]),
    "dict, then pairs": ([dict(_IMAGES), _IMAGES], [True]),
    "A, B, A": ([_IMAGES, _REPEATS, _scaled(_IMAGES, 0.5), _scaled(_IMAGES, 0.25)],
                [False, False, True]),
}


@pytest.mark.parametrize("tables,reused", REPEATED_PATTERNS.values(), ids=REPEATED_PATTERNS)
def test_repeated_key_patterns_match_dict_oracle(tables, reused, monkeypatch):
    """A table that repeats the last one's keys is bitwise the dict closure of its own values."""
    monkeypatch.setattr(TwoBodyOperator, "_last", (None, None, None))
    for step, entries in enumerate(tables):
        before = TwoBodyOperator._last[2]
        want = _outcome(lambda: closure_oracle(entries))
        got = _outcome(lambda: TwoBodyOperator(entries))
        if not isinstance(want[0], dict):
            assert got == want  # same exception type and message
            assert step == 0 or reused[step - 1] is None
            continue
        table, top = want
        assert _bits(sorted(two_body_table(got).items())) == _bits(sorted(table.items()))
        assert (list(map(tuple, got.keys().tolist()))
                == sorted(key for key in table if sign_orbit_key(key) == key))
        assert got.max_id() == top
        assert step == 0 or (got._pattern is before) == reused[step - 1]


def test_block_plans_follow_the_operator_and_the_state(monkeypatch):
    """Operators sharing a key pattern, occupations A, B, A: each image block is its own table's."""
    monkeypatch.setattr(TwoBodyOperator, "_last", (None, None, None))
    tables = [_IMAGES, _new_values(_IMAGES, 3)]
    first, second = map(TwoBodyOperator, tables)
    assert second._pattern is first._pattern
    oracles = [closure_oracle(entries)[0] for entries in tables]
    a, b = [3, 1, 4, 9, 16, 2], [5, 6, 7, 8, 10, 11]
    for which, occupied in [(0, a), (1, b), (0, a), (1, a), (0, b), (1, b), (1, a)]:
        block = image_block((first, second)[which], 16, occupied)
        assert block.tobytes() == closure_oracle_block(oracles[which], 16, occupied).tobytes()


def test_shared_patterns_and_plans_under_threads(monkeypatch):
    """Threads alternating key patterns, value sets, states and labels never mix them.

    Covers every kept slot a request reads: the key pattern, the image plan, the
    two-body kernel of both routes, the J_z verdict and the one-body mask on the
    pattern and the orbitals of the last state.  The threads share one sweep
    per state, so the kept kernel both hits and misses.
    """
    # one j = 15/2 shell, and sixteen j = 1/2 shells of alternating m: the first element
    # of _IMAGES that changes 2M differs between them
    labelings = [[("j15", 15, m) for m in range(15, -17, -2)],
                 [(f"s{oid}", 1, 1 if oid % 2 else -1) for oid in range(1, 17)]]
    t_mixing = np.eye(16)
    t_mixing[0, 2] = t_mixing[2, 0] = 0.1  # changes 2M under the j = 15/2 labels only
    cases = [(entries, occupied, labels, t)
             for entries in (_IMAGES, _new_values(_IMAGES, 4), _REPEATS, _scaled(_REPEATS, -2.0))
             for occupied in ([1, 2, 3, 4, 5, 6], [16, 9, 12, 3, 7, 1]) for labels in labelings
             for t in (np.eye(16), t_mixing)]
    sweeps = {(tuple(labels), tuple(occupied)): kernel_sweep(_fresh_state(labels, occupied),
                                                             [0.4, 1.3, 2.6])
              for _, occupied, labels, _ in cases}

    def numerators(v, labels, occupied):
        sweep = sweeps[tuple(labels), tuple(occupied)]
        return tuple(two_body_numerators(sweep, v, particle_hole=ph).tobytes()
                     for ph in (False, True))

    want = []
    for entries, occupied, labels, t in cases:
        table = closure_oracle(entries)[0]
        two_m = {oid: m for oid, (_, _, m) in enumerate(labels, start=1)}
        monkeypatch.setattr(TwoBodyOperator, "_last", (None, None, None))  # a fresh pattern
        want.append((closure_oracle_block(table, 16, occupied).tobytes(),
                     jz_oracle(two_m, t, table), _fresh_state(labels, occupied),
                     numerators(TwoBodyOperator(entries), labels, occupied)))
    assert any(jz.startswith("one_body") for _, jz, _, _ in want if jz)
    assert len({jz for _, jz, _, _ in want}) > 2  # the labels and tables change the verdict
    assert len({num for *_, num in want}) > 2  # the tables and states change the numerators
    monkeypatch.setattr(TwoBodyOperator, "_last", (None, None, None))
    manybody._kept_orbitals.cache_clear()
    wrong = []

    def work(shift):
        for step in range(120):
            case = (step * 3 + shift) % len(cases)
            entries, occupied, labels, t = cases[case]
            try:
                state = make_slater_state(labels, occupied)
                v = TwoBodyOperator(entries)
                got = (image_block(v, 16, occupied).tobytes(),
                       jz_violation(Model(state=state, t=OneBodyOperator(t), v=v)), state,
                       numerators(v, labels, occupied))
                if got != want[case]:
                    wrong.append(case)
            except Exception as exc:  # a plan paired with another state's sweep can fail to index
                wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(shift,)) for shift in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_kept_one_body_mask_follows_the_labels():
    """Label sets A, A, B, A over one key pattern, T changing 2M under B only.

    The pattern keeps the mask m_i != m_k of the last labels, read-only: a
    repeat of them reuses it, and every verdict is the oracle's.
    """
    entries = [((1, 2, 1, 2), 0.25), ((3, 4, 3, 4), -0.5)]  # conserve J_z under any labels
    table = closure_oracle(entries)[0]
    a = [("p", 1, 1), ("p", 1, -1), ("s", 1, 1), ("s", 1, -1)]
    b = [("p", 1, 1), ("p", 1, -1), ("s", 1, -1), ("s", 1, 1)]
    t = np.eye(4)
    t[0, 2] = t[2, 0] = 0.1  # orbitals 1 and 3 share 2m under `a` only
    masks = []
    for labels in (a, a, b, a):
        v = TwoBodyOperator(entries)
        model = Model(state=make_slater_state(labels, occupied=(1, 3)), t=OneBodyOperator(t), v=v)
        two_m = {oid: m for oid, (_, _, m) in enumerate(labels, start=1)}
        assert jz_violation(model) == jz_oracle(two_m, t, table)
        mask, m = v._pattern.jz[1], np.array(list(two_m.values()))
        assert np.array_equal(mask, m[:, None] != m) and not mask.flags.writeable
        masks.append(mask)
    assert masks[1] is masks[0] and masks[2] is not masks[1] and masks[3] is not masks[2]
    assert jz_violation(model) is None
    assert jz_violation(replace(model, state=make_slater_state(b, occupied=(1, 3)))) == (
        "one_body element (1, 3) changes 2M from -1 to 1: H must conserve J_z")


def _fresh_state(labels, occupied) -> SlaterState:
    """The state make_slater_state builds, from its definition."""
    return SlaterState(orbitals=tuple(Orbital(id=i, shell=shell, two_j=two_j, two_m=two_m,
                                              occupied=i in occupied)
                                      for i, (shell, two_j, two_m) in enumerate(labels, 1)),
                       occupied=tuple(occupied))


def test_kept_orbitals_follow_labels_and_occupation():
    """States over A, B, A, then A's labels with another occupation: each its own, each new."""
    manybody._kept_orbitals.cache_clear()
    flipped = [(shell, two_j, -two_m) for shell, two_j, two_m in TWO_SHELL_LABELS]
    calls = [(TWO_SHELL_LABELS, (2, 5)), (flipped, (2, 5)), (TWO_SHELL_LABELS, (2, 5)),
             (TWO_SHELL_LABELS, (1, 5)), (TWO_SHELL_LABELS, [5, 1]),
             ([list(label) for label in TWO_SHELL_LABELS], (5, 1))]  # lists do not hash
    states = []
    for labels, occupied in calls:
        state = make_slater_state(labels, occupied)
        want = _fresh_state(labels, occupied)
        assert state == want and state.orbitals == want.orbitals
        assert [o.occupied for o in state.orbitals] == [o.occupied for o in want.orbitals]
        assert all(state is not other for other in states)
        states.append(state)
    assert states[0].total_two_m() == -states[1].total_two_m() == 2


def test_kept_jz_verdict_follows_the_labels():
    """One key pattern under a J_z-conserving and a violating label set, alternately."""
    entries = [((1, 4, 2, 3), 0.5), ((1, 2, 1, 2), 0.25), ((2, 3, 2, 3), -0.75)]
    table = closure_oracle(entries)[0]
    conserving, violating = [3, 1, -1, -3], [3, 1, -3, -1]  # (1, 4, 2, 3) changes 2M by 4
    t_mixing = np.eye(4)
    t_mixing[0, 2] = t_mixing[2, 0] = 0.1  # changes 2M under `violating` only
    first = None
    for two_m, t in [(conserving, np.eye(4)), (violating, np.eye(4)), (conserving, np.eye(4)),
                     (violating, np.eye(4)), (violating, t_mixing), (conserving, t_mixing),
                     (violating, np.eye(4))]:
        v = TwoBodyOperator(entries)
        first = first or v
        assert v._pattern is first._pattern  # one kept pattern carries the verdict
        state = make_slater_state([("d32", 3, m) for m in two_m], occupied=(1, 2))
        model = Model(state=state, t=OneBodyOperator(t), v=v)
        assert jz_violation(model) == jz_oracle(dict(enumerate(two_m, start=1)), t, table)
    assert jz_violation(model) is not None
