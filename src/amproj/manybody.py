"""Slater determinants in second quantization and their rotation kernels.

The central identity: for R = exp(-i beta J_y) and |Phi> a determinant of n
occupied orbitals,

    <Phi| R |Phi>                      = det(A),   A_ip = <a_i|R|a_p>
    <Phi| a_i+ a_j+ b_l b_k R |Phi>    = det(A) * |x(k,i) x(k,j); x(l,i) x(l,j)|

where x(k, .) solves A^T x = b_k with (b_k)_m = <b_k|R|a_m>.  One
factorization of A^T per beta therefore serves the overlap, every
particle-hole amplitude, and every 2p-2h kernel.

The bitmask Fock-space oracle in `amproj.fock` evaluates the same matrix
elements by explicit operator algebra, with no determinant identities, and
backs every formula here in the tests; nothing here imports it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import lalg
from .angmom import AngMomLabel, rotation_matrix
from .lalg import SolutionTable

__all__ = [
    "BadIndex",
    "VanishingOverlap",
    "Orbital",
    "SlaterState",
    "OneBodyOperator",
    "TwoBodyOperator",
    "KernelSweep",
    "RotationKernelSample",
    "Model",
    "make_slater_state",
    "overlap_kernel",
    "kernel_sample_from_rotation",
    "kernel_sweep",
    "sweep_from_rotations",
    "one_body_numerators",
    "two_body_numerators",
    "two_ph_kernel",
    "ph_amplitude",
    "lowdin_one_body",
    "lowdin_two_body",
    "LOWDIN_TWO_BODY_PREFACTOR",
    "thouless_expand",
    "brillouin_check",
    "hf_energy",
]

# Prefactor of the two-body kernel contraction over the transition density
# rho = C A^{-1}.  It is derived, not fitted: V = 1/4 sum <ij|V~|kl>
# c+_i c+_j c_l c_k puts 1/4 on the unrestricted four-index sum, and the
# generalized Wick theorem pairs the two annihilators with the rotated
# occupied orbitals in two antisymmetric ways, rho_pi rho_qj - rho_qi rho_pj,
# which the antisymmetry of V~ turns into 2 rho_pi rho_qj.  The Fock-space
# oracle tests pin the value.
LOWDIN_TWO_BODY_PREFACTOR = 0.5


class BadIndex(ValueError):
    """Orbital id violates the occupied/unoccupied requirement."""


class VanishingOverlap(ValueError):
    """<Phi|U|Phi> = 0: the exponential particle-hole form does not exist."""


@dataclass(frozen=True)
class Orbital:
    """A single-particle basis state with (j, m) labels and a shell tag."""

    id: int
    shell: str
    two_j: int
    two_m: int
    occupied: bool

    def __post_init__(self):
        AngMomLabel(self.two_j, self.two_m)  # validates parity and range

    @property
    def label(self) -> AngMomLabel:
        return AngMomLabel(self.two_j, self.two_m)


@dataclass(frozen=True)
class SlaterState:
    """An n-particle determinant over a fixed orthonormal orbital basis."""

    orbitals: tuple[Orbital, ...]
    occupied: tuple[int, ...]

    def __post_init__(self):
        # tuples whatever the caller passed, so that every valid state hashes
        object.__setattr__(self, "orbitals", tuple(self.orbitals))
        object.__setattr__(self, "occupied", tuple(self.occupied))
        ids = [o.id for o in self.orbitals]
        if ids != list(range(1, len(ids) + 1)):
            raise ValueError(f"orbital ids must be dense 1..N in order, got {ids}")
        occ = list(self.occupied)
        if len(set(occ)) != len(occ):
            raise ValueError(f"duplicate id in occupied list {occ}")
        if not occ:
            raise ValueError("need at least one occupied orbital")
        for oid in occ:
            if not 1 <= oid <= len(ids):
                raise ValueError(f"occupied id {oid} not in the basis")
        flags = {o.id: o.occupied for o in self.orbitals}
        for oid, flag in flags.items():
            if flag != (oid in set(occ)):
                raise ValueError(f"occupied flag of orbital {oid} disagrees with the list")

    @property
    def n_basis(self) -> int:
        return len(self.orbitals)

    @property
    def n_particles(self) -> int:
        return len(self.occupied)

    @property
    def unoccupied(self) -> tuple[int, ...]:
        occ = set(self.occupied)
        return tuple(o.id for o in self.orbitals if o.id not in occ)

    def occupied_position(self, oid: int) -> int:
        try:
            return self.occupied.index(oid)
        except ValueError:
            raise BadIndex(f"orbital {oid} is not occupied") from None

    def total_two_m(self) -> int:
        return sum(self.orbitals[oid - 1].two_m for oid in self.occupied)


def make_slater_state(labels, occupied) -> SlaterState:
    """Build a SlaterState from (shell, two_j, two_m) triples and occupied ids."""
    occ = set(occupied)
    orbitals = tuple(
        Orbital(id=i + 1, shell=shell, two_j=two_j, two_m=two_m, occupied=(i + 1) in occ)
        for i, (shell, two_j, two_m) in enumerate(labels))
    return SlaterState(orbitals=orbitals, occupied=tuple(occupied))


@dataclass(frozen=True)
class OneBodyOperator:
    """Real symmetric matrix <c_i|T|c_k> over the basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"one-body matrix must be square, got {m.shape}")
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(m - m.T).max()) > 1e-10 * scale:
            raise ValueError("one-body matrix must be symmetric")
        object.__setattr__(self, "matrix", m)

    @property
    def n_basis(self) -> int:
        return self.matrix.shape[0]


class TwoBodyOperator:
    """Antisymmetrized two-body elements <ij|V~|kl>, sparse over id quadruples.

    Construction closes the table under the antisymmetry signs
    (ji|kl) = (ij|lk) = -(ij|kl) and the real-hermitian swap (kl|ij) = (ij|kl);
    conflicting duplicate assignments are rejected.  Held as sorted arrays.
    Ids run from 1 to MAX_ID, so that every key ranks as one int64 number.
    """

    MAX_ID = 55107  # the largest id with (id + 1)^4 < 2^63
    # an element's sign images in write order: the key columns each reads, its sign
    _IMAGE_COLUMNS = np.array([[0, 1, 2, 3], [1, 0, 2, 3], [0, 1, 3, 2], [1, 0, 3, 2],
                               [2, 3, 0, 1], [3, 2, 0, 1], [2, 3, 1, 0], [3, 2, 1, 0]])
    _IMAGE_SIGNS = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0])

    def __init__(self, entries=()):
        pairs = list(entries.items() if isinstance(entries, dict) else entries)
        keys = np.array([key for key, _ in pairs], dtype=np.int64).reshape(len(pairs), 4)
        values = np.fromiter((value for _, value in pairs), dtype=float, count=len(pairs))
        diagonal = (keys[:, 0] == keys[:, 1]) | (keys[:, 2] == keys[:, 3])
        faulty = np.flatnonzero(((keys < 1) | (keys > self.MAX_ID)).any(axis=1)
                                | (diagonal & (values != 0.0)))
        end = faulty[0] if len(faulty) else len(pairs)  # written: the elements before it
        kept = np.flatnonzero(~diagonal[:end] & (values[:end] != 0.0))
        images = keys[kept][:, self._IMAGE_COLUMNS].reshape(-1, 4)
        signed = (values[kept, None] * self._IMAGE_SIGNS).reshape(-1)
        self._max_id = int(images.max(initial=0))
        rank = images @ (self.MAX_ID + 1) ** np.arange(3, -1, -1)  # lexicographic, in int64
        order = np.argsort(rank, kind="stable")  # a key's writes stay in write order
        rank, signed = rank[order], signed[order]
        last = np.diff(rank, append=rank.max(initial=0) + 1) != 0  # a key's last write wins
        with np.errstate(over="ignore"):  # an infinite gap is a conflict, as it should be
            gap = np.abs(np.diff(signed)) > 1e-12 * np.maximum(1.0, np.abs(signed[:-1]))
        clash = np.flatnonzero(~last[:-1] & gap) + 1
        if len(clash):
            at = clash[np.argmin(order[clash])]  # the first conflicting write
            raise ValueError("conflicting duplicate for element {}: {} vs {}".format(
                tuple(images[order[at]].tolist()), float(signed[at - 1]), float(signed[at])))
        if len(faulty):
            i, j, k, l = key = pairs[end][0]
            raise ValueError(f"orbital ids must be in 1..{self.MAX_ID}, got {key}"
                             if min(key) < 1 or max(key) > self.MAX_ID
                             else f"antisymmetry forces <{i}{j}|V|{k}{l}> = 0")
        self._keys, self._values = images[order[last]], signed[last]
        self._block: tuple = (None, None)

    def get(self, i: int, j: int, k: int, l: int) -> float:
        """<ij|V~|kl> by binary search, one key column at a time; 0 when absent."""
        lo, hi = 0, len(self._values)
        for col, oid in enumerate((i, j, k, l)):
            lo, hi = lo + np.searchsorted(self._keys[lo:hi, col], (oid, oid + 1))
        return float(self._values[lo]) if lo < hi else 0.0

    def occupied_block(self, n_basis: int, occupied) -> np.ndarray:
        """<ij|V~|pq> for occupied ids i, j and every p, q, as a dense array.

        Shape (n, n, N, N), axes 0 and 1 in the order of `occupied`, index
        p - 1 and q - 1 on axes 2 and 3; read-only.  Every kernel
        contraction and the stability check read only this block (by the
        swap symmetry it also holds the <pk|V~|ik'> elements with one
        unoccupied bra index), so the last one built is kept for reuse.
        """
        key = (n_basis, tuple(occupied))
        if self._block[0] != key:
            pos = np.full(max((self._max_id, *key[1])) + 1, -1)  # -1: not occupied
            pos[list(key[1])] = np.arange(len(key[1]))
            i, j, k, l = self._keys.T
            hit = (pos[i] >= 0) & (pos[j] >= 0)
            block = np.zeros((len(key[1]),) * 2 + (n_basis,) * 2)
            block[pos[i[hit]], pos[j[hit]], k[hit] - 1, l[hit] - 1] = self._values[hit]
            block.flags.writeable = False
            self._block = (key, block)
        return self._block[1]

    def items(self):
        """All stored (closure-expanded) elements in sorted key order."""
        return list(zip(map(tuple, self._keys.tolist()), self._values.tolist()))

    def canonical_items(self):
        """One representative per sign orbit: i<j, k<l, (i,j) <= (k,l)."""
        i, j, k, l = self._keys.T
        return list(itertools.compress(self.items(),
                                       (i < j) & (k < l) & ((i < k) | ((i == k) & (j <= l)))))

    def max_id(self) -> int:
        return self._max_id

    def __len__(self):
        return len(self._values)


@dataclass(frozen=True)
class Model:
    """A Slater state together with its one- and two-body operators."""

    state: SlaterState
    t: OneBodyOperator
    v: TwoBodyOperator
    name: str = ""

    def __post_init__(self):
        if self.t.n_basis != self.state.n_basis:
            raise ValueError("one-body matrix size disagrees with the basis")
        if self.v.max_id() > self.state.n_basis:
            raise ValueError("two-body table references an id outside the basis")


@dataclass(frozen=True)
class KernelSweep:
    """Everything the kernels need at a stack of Q beta nodes.

    `rotation` holds the single-particle rotations (Q, N, N) and `lu` the
    stacked factorization of the transposed occupied blocks A^T (the
    particle-hole systems are row systems), flagged node by node.
    `overlap` is det(A) per node, 0 at a flagged node.  `rho` is the
    transition density C A^{-1} (Q, N, n) with C = R[:, occupied]: its
    occupied rows are exactly the identity, and its unoccupied rows, the
    particle-hole amplitudes x(k, i), are zero-filled at flagged nodes.
    `first_cofactors` (F, n, n) and `second_cofactors` (F, S, S) are the
    `lalg.cofactors` tables of A of order 1 and 2 at the F flagged nodes,
    in node order (S = n(n-1)/2 deleted pairs); they stay finite where
    A^{-1} does not exist.  Every array is read-only, so one sweep can be
    shared between requests.
    """

    state: SlaterState
    beta: np.ndarray
    rotation: np.ndarray
    lu: lalg.LUDecomposition
    overlap: np.ndarray
    rho: np.ndarray
    first_cofactors: np.ndarray
    second_cofactors: np.ndarray

    @property
    def flagged(self) -> np.ndarray:
        return self.lu.flagged


def _occ_index(phi: SlaterState) -> np.ndarray:
    return np.array(phi.occupied) - 1


def _unocc_index(phi: SlaterState) -> np.ndarray:
    return np.array(phi.unoccupied, dtype=int) - 1


def _pair_subsets(n: int) -> list[tuple[int, int]]:
    """The deleted index pairs of second cofactors, in `lalg.cofactors` order."""
    return list(itertools.combinations(range(n), 2))


def kernel_sweep(phi: SlaterState, betas) -> KernelSweep:
    """Rotate, factor and solve at every beta node at once."""
    betas = np.asarray(betas, dtype=float).reshape(-1)
    labels = [o.label for o in phi.orbitals]
    shells = [(o.shell, o.two_j) for o in phi.orbitals]
    return sweep_from_rotations(phi, rotation_matrix(labels, betas, shells=shells), betas)


def sweep_from_rotations(phi: SlaterState, rotations, betas) -> KernelSweep:
    """kernel_sweep for prebuilt single-particle matrices (any invertible maps)."""
    # views, so that locking them leaves the caller's arrays writable
    rot = np.asarray(rotations, dtype=float).view()
    beta = np.asarray(betas, dtype=float).view()
    occ, unocc = _occ_index(phi), _unocc_index(phi)
    n = len(occ)
    lu = lalg.lu_factor(rot[:, occ[None, :], occ[:, None]], allow_singular=True)
    rho = np.zeros((rot.shape[0], phi.n_basis, n))
    rho[:, occ, np.arange(n)] = 1.0
    regular = np.flatnonzero(~lu.flagged)
    if len(regular) and len(unocc):
        rhs = rot[regular[:, None, None], unocc[:, None], occ]
        rho[regular[:, None], unocc] = lalg.solve_columns(lu.take(regular), rhs).values
    flagged = np.flatnonzero(lu.flagged)
    blocks = rot[flagged[:, None, None], occ[:, None], occ]
    first, second = (lalg.cofactors(blocks, order)[1] if len(flagged) and order <= n
                     else np.zeros((len(flagged),) + (math.comb(n, order),) * 2)
                     for order in (1, 2))
    overlap = lalg.determinant(lu)
    for a in (rot, beta, lu.lu, lu.piv, lu.parity, lu.smallest_pivot, lu.flagged,
              overlap, rho, first, second):
        a.flags.writeable = False
    return KernelSweep(state=phi, beta=beta, rotation=rot, lu=lu, overlap=overlap, rho=rho,
                       first_cofactors=first, second_cofactors=second)


def one_body_numerators(sweep: KernelSweep, t: OneBodyOperator) -> np.ndarray:
    """<Phi|T R|Phi> at every node.

    Regular nodes: det(A) sum_{i occ, p} T_ip rho_pi.  Flagged nodes:
    sum_ij <a_i|TR|a_j> adj(A)_ji with the adjugate from cofactors, which
    stays finite where A^{-1} does not exist.
    """
    occ = _occ_index(sweep.state)
    out = sweep.overlap * np.einsum("ap,qpa->q", t.matrix[occ], sweep.rho)
    at = np.flatnonzero(sweep.flagged)
    if len(at):
        block = t.matrix[occ] @ sweep.rotation[at][:, :, occ]  # <a_i|TR|a_j> per flagged node
        out[at] = np.einsum("fij,fij->f", block, sweep.first_cofactors)
    return out


def two_body_numerators(sweep: KernelSweep, v: TwoBodyOperator,
                        particle_hole: bool = False) -> np.ndarray:
    """<Phi|V R|Phi> at every node, or its 2p-2h part for particle_hole.

    Both routes are one contraction, det(A)/2 sum V~_{ij,pq} rho_pi rho_qj
    over occupied ij; the kernel route sums pq over the whole basis, the
    particle-hole route over unoccupied pq only, which is
    sum_{i<j occ, k<l unocc} V~_{ij,kl} <Phi| a_i+ a_j+ b_l b_k R |Phi>.
    Flagged nodes replace det(A) times the 2x2 inverse minors by second
    cofactors of A, which stay finite.
    """
    phi = sweep.state
    occ = _occ_index(phi)
    rows = _unocc_index(phi) if particle_hole else np.arange(phi.n_basis)
    n, span = len(occ), len(rows)
    if n < 2 or span < 2:
        return np.zeros(len(sweep.beta))
    vblock = v.occupied_block(phi.n_basis, phi.occupied)[:, :, rows[:, None], rows]
    # V~_{ij,pq} rho_pi rho_qj as a quadratic form over the (i, p) pair index
    form = vblock.transpose(0, 2, 1, 3).reshape(n * span, n * span)
    pairs = sweep.rho[:, rows].transpose(0, 2, 1).reshape(-1, n * span)
    out = LOWDIN_TWO_BODY_PREFACTOR * sweep.overlap * np.einsum(
        "qi,qi->q", pairs @ form, pairs)
    at = np.flatnonzero(sweep.flagged)
    if len(at):
        first, second = np.array(_pair_subsets(n)).T
        c = sweep.rotation[at[:, None, None], rows[:, None], occ]  # (F, span, n)
        # m2[f, r, s] = sum_pq V~_{ij,pq} c_pk c_ql for the pairs r = (i, j), s = (k, l)
        m2 = np.einsum("frps,fps->frs", vblock[first, second] @ c[:, None, :, second],
                       c[:, :, first])
        out[at] = np.einsum("frs,frs->f", m2, sweep.second_cofactors)
    return out


@dataclass(frozen=True)
class RotationKernelSample:
    """The kernels at one beta node: the Q = 1 case of a KernelSweep.

    `overlap` is det(A) for the occupied block A, and `ph_table` holds
    x(k, i) for every unoccupied row k.  On a singular overlap the table is
    zero-filled and `singular` is set; the 2p-2h kernels are then evaluated
    from second cofactors of A (finite and exact), while ph_amplitude, a
    ratio to the vanishing overlap, reads 0.
    """

    sweep: KernelSweep
    overlap: float
    singular: bool
    ph_table: SolutionTable
    _unocc_row: dict = field(repr=False)

    @classmethod
    def of(cls, sweep: KernelSweep) -> "RotationKernelSample":
        """View the single node of a Q = 1 sweep."""
        phi = sweep.state
        return cls(sweep=sweep, overlap=float(sweep.overlap[0]),
                   singular=bool(sweep.flagged[0]),
                   ph_table=SolutionTable(s=len(phi.unoccupied), n=phi.n_particles,
                                          values=sweep.rho[0, _unocc_index(phi)]),
                   _unocc_row={oid: r for r, oid in enumerate(phi.unoccupied)})

    @property
    def state(self) -> SlaterState:
        return self.sweep.state

    @property
    def rotation(self) -> np.ndarray:
        return self.sweep.rotation[0]

    def unocc_row(self, oid: int) -> int:
        try:
            return self._unocc_row[oid]
        except KeyError:
            raise BadIndex(f"orbital {oid} is not unoccupied") from None


def overlap_kernel(phi: SlaterState, beta: float) -> RotationKernelSample:
    """Factor the rotated occupied block once; tabulate all p-h amplitudes."""
    return RotationKernelSample.of(kernel_sweep(phi, [beta]))


def kernel_sample_from_rotation(phi: SlaterState, rot: np.ndarray,
                                beta: float = float("nan")) -> RotationKernelSample:
    """overlap_kernel for a prebuilt single-particle matrix (any invertible map)."""
    return RotationKernelSample.of(sweep_from_rotations(phi, np.asarray(rot)[None], [beta]))


def two_ph_kernel(sample: RotationKernelSample, i: int, j: int, k: int, l: int) -> float:
    """<Phi| a_i+ a_j+ b_l b_k R |Phi>: A with rows i, j replaced by R's rows k, l.

    Regular samples: overlap times a 2x2 solution minor.  Singular samples:
    the Laplace expansion of the replaced determinant along those two rows,
    over the second cofactors of A.  Antisymmetric under i <-> j and under
    k <-> l; zero when an index repeats (determinant with equal rows).
    """
    phi = sample.state
    pi, pj = phi.occupied_position(i), phi.occupied_position(j)
    rk, rl = sample.unocc_row(k), sample.unocc_row(l)
    if i == j or k == l:
        return 0.0
    if not sample.singular:
        return lalg.replaced_determinant(sample.overlap, sample.ph_table, [rk, rl], [pi, pj])
    sign = 1.0
    if pi > pj:
        pi, pj, sign = pj, pi, -1.0
    occ = _occ_index(phi)
    subsets, d2 = _pair_subsets(len(occ)), sample.sweep.second_cofactors[0]
    first, second = np.array(subsets).T
    ck, cl = sample.rotation[[k - 1, l - 1]][:, occ]
    minors = ck[first] * cl[second] - ck[second] * cl[first]
    return sign * float(d2[subsets.index((pi, pj))] @ minors)


def ph_amplitude(sample: RotationKernelSample, k: int, i: int) -> float:
    """x(k, i) = <Phi|R c_k+ c_i|Phi> / <Phi|R|Phi>.

    Table lookup for unoccupied k; occupied rows of the extended table are
    the identity (A A^{-1}), so they need no solve.  The formal extension
    x(k, i) = 0 for unoccupied i is the Thouless exponent convention;
    requesting it here is an index error.
    """
    phi = sample.state
    pos = phi.occupied_position(i)
    if k in set(phi.occupied):
        return 1.0 if k == i else 0.0
    return float(sample.ph_table.values[sample.unocc_row(k), pos])


def lowdin_one_body(sample: RotationKernelSample, t: OneBodyOperator) -> float:
    """<Phi|T R|Phi> = sum_ij <a_i|TR|a_j> adj(A)_ji (see one_body_numerators)."""
    return float(one_body_numerators(sample.sweep, t)[0])


def lowdin_two_body(sample: RotationKernelSample, v: TwoBodyOperator) -> float:
    """<Phi|V R|Phi> contracted over the transition density (see two_body_numerators)."""
    return float(two_body_numerators(sample.sweep, v)[0])


def thouless_expand(phi: SlaterState, u) -> tuple[float, SolutionTable]:
    """Decompose U|Phi> = c0 exp(sum x(k,i) b_k+ a_i)|Phi>.

    c0 is the determinant of the occupied block of u; the x table solves the
    same row systems as the rotation kernels.  Raises VanishingOverlap when
    the occupied block is singular (the exponential form does not exist).
    """
    u = lalg.as_square_matrix(u)
    if u.shape[0] != phi.n_basis:
        raise lalg.DimensionMismatch("transformation size disagrees with the basis")
    occ_idx = [oid - 1 for oid in phi.occupied]
    try:
        lu = lalg.lu_factor(u[np.ix_(occ_idx, occ_idx)].T.copy())
    except lalg.SingularMatrix as exc:
        raise VanishingOverlap(f"<Phi|U|Phi> vanishes: {exc}") from exc
    c0 = lalg.determinant(lu)
    unocc = phi.unoccupied
    if unocc:
        table = lalg.solve_columns(lu, u[np.ix_([k - 1 for k in unocc], occ_idx)])
    else:
        table = SolutionTable(s=0, n=len(occ_idx), values=np.zeros((0, len(occ_idx))))
    return c0, table


def hf_energy(phi: SlaterState, t: OneBodyOperator, v: TwoBodyOperator) -> float:
    """sum_occ T_ii + 1/2 sum_{ij occ} <ij|V~|ij>."""
    e1 = sum(t.matrix[oid - 1, oid - 1] for oid in phi.occupied)
    block = v.occupied_block(phi.n_basis, phi.occupied)
    e2 = sum((block[a, b, u - 1, w - 1]
              for (a, u), (b, w) in itertools.combinations(enumerate(phi.occupied), 2)), 0.0)
    return float(e1 + e2)


def brillouin_check(phi: SlaterState, t: OneBodyOperator, v: TwoBodyOperator) -> np.ndarray:
    """|<Phi| H b_j+ a_i |Phi>| for every hole i and particle j.

    That matrix element is the particle-hole block of the mean field,
    h_ji = T_ji + sum_{k occ} <jk|V~|ik>, so no many-body space is built and
    no basis size is too large.  Returned as an (n_occupied, n_unoccupied)
    array in ascending id order; a model is stable when the maximum residual
    is numerically zero.
    """
    occ = _occ_index(phi)
    block = v.occupied_block(phi.n_basis, phi.occupied)
    # h_pi = T_pi + sum_k <ik|V~|pk> over occupied i, k, then p unoccupied
    h = t.matrix[occ] + np.einsum("abpb->ap", block[:, :, :, occ])
    order = np.argsort(occ)
    return np.abs(h[order][:, np.sort(_unocc_index(phi))])
