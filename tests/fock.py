"""Bitmask Fock-space oracle for small bases (n <= 12 orbitals).

Evaluates <Phi| L U R |Phi> and operator applications by explicit
second-quantized algebra with sign bookkeeping and no determinant
identities.  It is the test authority behind every kernel formula in
`amproj.manybody`, kept with the tests, outside the library.
"""

from __future__ import annotations

import itertools

import numpy as np

from amproj.lalg import SizeLimitExceeded
from amproj.manybody import OneBodyOperator, SlaterState, TwoBodyOperator

__all__ = ["FockSpace", "fock_oracle", "FOCK_BASIS_LIMIT"]

FOCK_BASIS_LIMIT = 12


class FockSpace:
    """Fixed particle-number sector of a small fermionic basis.

    States are occupation bitmasks (orbital id d sits on bit d-1); a mask
    denotes the ascending-id product of creation operators on the vacuum.
    All operator applications do explicit sign bookkeeping, with no
    determinant identities anywhere: this is the brute-force oracle.
    """

    def __init__(self, n_basis: int, n_particles: int):
        if n_basis > FOCK_BASIS_LIMIT:
            raise SizeLimitExceeded(f"Fock oracle limited to {FOCK_BASIS_LIMIT} orbitals")
        if not 0 <= n_particles <= n_basis:
            raise ValueError("bad particle number")
        self.n_basis = n_basis
        self.n_particles = n_particles
        self.masks = [sum(1 << (d - 1) for d in combo)
                      for combo in itertools.combinations(range(1, n_basis + 1), n_particles)]
        self.masks.sort()
        self.index = {m: i for i, m in enumerate(self.masks)}

    @property
    def dim(self) -> int:
        return len(self.masks)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.dim)

    @staticmethod
    def _sign_below(mask: int, bit: int) -> int:
        return -1 if bin(mask & (bit - 1)).count("1") % 2 else 1

    def _string_on_mask(self, mask: int, ops):
        """Apply a left-to-right operator string to |mask>; None if killed."""
        sign = 1
        for kind, oid in reversed(list(ops)):
            bit = 1 << (oid - 1)
            if kind == "+":
                if mask & bit:
                    return None
                sign *= self._sign_below(mask, bit)
                mask |= bit
            else:
                if not mask & bit:
                    return None
                sign *= self._sign_below(mask, bit)
                mask &= ~bit
        return mask, sign

    def determinant_vector(self, ids) -> np.ndarray:
        """Sector vector of c+_{ids[0]} ... c+_{ids[-1]} |0>."""
        res = self._string_on_mask(0, [("+", d) for d in ids])
        if res is None:
            raise ValueError(f"repeated id in {ids}")
        mask, sign = res
        vec = self.zeros()
        vec[self.index[mask]] = float(sign)
        return vec

    def slater_vector(self, coeffs) -> np.ndarray:
        """prod_p (sum_q coeffs[q, p] c+_{q+1}) |0> expanded over the sector."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.n_basis, self.n_particles):
            raise ValueError(f"coefficient matrix must be {self.n_basis} x {self.n_particles}")
        cur = {0: 1.0}
        # rightmost factor of the operator product acts on the vacuum first
        for p in reversed(range(self.n_particles)):
            nxt: dict[int, float] = {}
            col = coeffs[:, p]
            for mask, amp in cur.items():
                for q in range(self.n_basis):
                    c = col[q]
                    if c == 0.0:
                        continue
                    bit = 1 << q
                    if mask & bit:
                        continue
                    new = mask | bit
                    nxt[new] = nxt.get(new, 0.0) + amp * c * self._sign_below(mask, bit)
            cur = nxt
        vec = self.zeros()
        for mask, amp in cur.items():
            vec[self.index[mask]] += amp
        return vec

    def apply_string(self, vec: np.ndarray, ops) -> np.ndarray:
        """Apply a left-to-right string of ('+'|'-', id) operators."""
        out = self.zeros()
        ops = list(ops)
        for idx, amp in enumerate(vec):
            if amp == 0.0:
                continue
            res = self._string_on_mask(self.masks[idx], ops)
            if res is None:
                continue
            mask, sign = res
            try:
                out[self.index[mask]] += amp * sign
            except KeyError:
                raise ValueError("operator string does not preserve particle number") from None
        return out

    def apply_excitation(self, vec: np.ndarray, create, annihilate) -> np.ndarray:
        """c+_{create[0]}..c+_{create[-1]} c_{annihilate[0]}..c_{annihilate[-1]}."""
        ops = [("+", d) for d in create] + [("-", d) for d in annihilate]
        return self.apply_string(vec, ops)

    def apply_one_body(self, vec: np.ndarray, tmat) -> np.ndarray:
        """sum_pq T[p, q] c+_p c_q (ids = matrix index + 1)."""
        tmat = np.asarray(tmat, dtype=float)
        out = self.zeros()
        for idx, amp in enumerate(vec):
            if amp == 0.0:
                continue
            mask = self.masks[idx]
            for q in range(self.n_basis):
                qbit = 1 << q
                if not mask & qbit:
                    continue
                s1 = self._sign_below(mask, qbit)
                m1 = mask & ~qbit
                for p in range(self.n_basis):
                    t = tmat[p, q]
                    if t == 0.0:
                        continue
                    pbit = 1 << p
                    if m1 & pbit:
                        continue
                    out[self.index[m1 | pbit]] += amp * t * s1 * self._sign_below(m1, pbit)
        return out

    def apply_two_body(self, vec: np.ndarray, vop: TwoBodyOperator) -> np.ndarray:
        """(1/4) sum <pq|V~|rs> c+_p c+_q c_s c_r over the closed table."""
        out = self.zeros()
        for (p, q, r, s), val in vop.items():
            ops = [("+", p), ("+", q), ("-", s), ("-", r)]
            for idx, amp in enumerate(vec):
                if amp == 0.0:
                    continue
                res = self._string_on_mask(self.masks[idx], ops)
                if res is None:
                    continue
                mask, sign = res
                out[self.index[mask]] += 0.25 * val * amp * sign
        return out

    @staticmethod
    def inner(u: np.ndarray, v: np.ndarray) -> float:
        return float(np.dot(u, v))


def fock_oracle(phi: SlaterState, left=None, u=None, right=None) -> float:
    """<Phi| L . U . R |Phi> by explicit Fock-space algebra.

    L and R are None, a OneBodyOperator/TwoBodyOperator (L only), or an
    excitation (create_ids, annihilate_ids); u is an optional one-body
    transformation matrix applied as U c_i+ U^{-1} = sum_j u_ji c_j+.
    """
    space = FockSpace(phi.n_basis, phi.n_particles)
    base = space.determinant_vector(phi.occupied)

    ket = base
    if right is not None:
        ket = space.apply_excitation(base, right[0], right[1])
    if u is not None:
        u = np.asarray(u, dtype=float)
        hits = np.nonzero(ket)[0]
        if len(hits) == 0:
            return 0.0
        if len(hits) != 1:
            raise ValueError("the factor right of U must map |Phi> to one determinant")
        mask = space.masks[hits[0]]
        ids = [d for d in range(1, phi.n_basis + 1) if mask & (1 << (d - 1))]
        ket = float(ket[hits[0]]) * space.slater_vector(u[:, [d - 1 for d in ids]])

    if left is None:
        bra = base
    elif isinstance(left, OneBodyOperator):
        bra = space.apply_one_body(base, left.matrix)
    elif isinstance(left, TwoBodyOperator):
        bra = space.apply_two_body(base, left)
    else:
        create, annihilate = left
        # adjoint of the string, applied to the bra side
        bra = space.apply_excitation(base, list(reversed(annihilate)), list(reversed(create)))
    return space.inner(bra, ket)
