"""Slater determinants in second quantization and their rotation kernels.

The central identity: for R = exp(-i beta J_y) and |Phi> a determinant of n
occupied orbitals,

    <Phi| R |Phi>                      = det(A),   A_ip = <a_i|R|a_p>
    <Phi| a_i+ a_j+ b_l b_k R |Phi>    = det(A) * |x(k,i) x(k,j); x(l,i) x(l,j)|

where x(k, .) solves A^T x = b_k with (b_k)_m = <b_k|R|a_m>.  One batched
LAPACK determinant and inverse of A over the beta nodes (`lalg.eliminate_columns`)
therefore serve the overlap, every particle-hole amplitude and every 2p-2h
kernel; the determinant also certifies A's rank, so only a block it cannot
certify takes an SVD.

The bitmask Fock-space oracle in `tests/fock.py` evaluates the same matrix
elements by explicit operator algebra, with no determinant identities, and
backs every formula here in the tests.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lalg
from .angmom import AngMomLabel, check_label, rotation_matrix
from .lalg import SolutionTable

__all__ = [
    "BadIndex",
    "VanishingOverlap",
    "Orbital",
    "SlaterState",
    "OneBodyOperator",
    "TwoBodyOperator",
    "KernelSweep",
    "Model",
    "jz_violation",
    "make_slater_state",
    "kernel_sweep",
    "sweep_from_rotations",
    "one_body_numerators",
    "two_body_numerators",
    "two_ph_kernel",
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

    def __post_init__(self):
        _check_ids((self.id,), "orbital")
        check_label(self.two_j, self.two_m)  # parity and range


def _check_ids(ids, kind: str) -> None:
    """ValueError for an id that `operator.index` refuses (a float, say); NumPy integers pass."""
    for oid in ids:
        try:
            operator.index(oid)
        except TypeError:
            raise ValueError(f"{kind} id {oid!r} is not an integer") from None


@dataclass(frozen=True)
class SlaterState:
    """An n-particle determinant over a fixed orthonormal orbital basis.

    The basis holds ids 1..N in order, each (shell, two_j, two_m) label once:
    the rotation maps each label to one |j m> state.  The occupied ids are
    distinct, at least one, and in the basis.
    """

    orbitals: tuple[Orbital, ...]
    occupied: tuple[int, ...]

    def __post_init__(self):
        # tuples whatever the caller passed, so that every valid state hashes
        object.__setattr__(self, "orbitals", tuple(self.orbitals))
        object.__setattr__(self, "occupied", tuple(self.occupied))
        _check_ids(self.occupied, "occupied")
        ids = [o.id for o in self.orbitals]
        if ids != list(range(1, len(ids) + 1)):
            raise ValueError(f"orbital ids must be dense 1..N in order, got {ids}")
        first = {}
        for o in self.orbitals:
            if (other := first.setdefault((o.shell, o.two_j, o.two_m), o.id)) != o.id:
                raise ValueError(f"orbitals {other} and {o.id} share shell, two_j and two_m")
        occ = list(self.occupied)
        for oid in occ:
            if not 1 <= oid <= len(ids):
                raise ValueError(f"occupied id {oid} not in the basis")
        if len(set(occ)) != len(occ):
            raise ValueError(f"duplicate id in occupied list {occ}")
        if not occ:
            raise ValueError("need at least one occupied orbital")

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
    """Build a SlaterState from (shell, two_j, two_m) triples and occupied ids.

    The state of the last call is kept, keyed by value by the labels (each
    read as a tuple) and the occupation, so a call that repeats them returns
    that validated object; and the Orbitals of the last labels are kept, so a
    new occupation over them builds no Orbital.
    """
    occupied = tuple(occupied)
    _check_ids(occupied, "occupied")  # before the lookup: (1.0, 2) == (1, 2)
    return _state(tuple(map(tuple, labels)), occupied)


@functools.lru_cache(maxsize=1)
def _state(labels: tuple, occupied: tuple) -> SlaterState:
    return SlaterState(orbitals=_basis(labels), occupied=occupied)


@functools.lru_cache(maxsize=1)
def _basis(labels: tuple) -> tuple[Orbital, ...]:
    """The Orbital of each label, ids 1..N."""
    return tuple(Orbital(id=oid, shell=shell, two_j=two_j, two_m=two_m)
                 for oid, (shell, two_j, two_m) in enumerate(labels, 1))


@dataclass(frozen=True)
class OneBodyOperator:
    """Real symmetric matrix <c_i|T|c_k> over the basis, held as a read-only copy."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"one-body matrix must be square, got {m.shape}")
        if not (m == m.T).all():  # an exactly symmetric T (NaN is not) needs no tolerance
            scale = max(1.0, float(np.abs(m).max()))
            if float(np.abs(m - m.T).max()) > 1e-10 * scale:
                raise ValueError("one-body matrix must be symmetric")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n_basis(self) -> int:
        return self.matrix.shape[0]


class TwoBodyOperator:
    """Antisymmetrized two-body elements <ij|V~|kl>, sparse over id quadruples.

    An element fixes the eight keys of its sign orbit, related by (ji|kl) =
    (ij|lk) = -(ij|kl) and the real-hermitian swap (kl|ij) = (ij|kl).  One
    constructor pass reads the (key, value) pairs into arrays, drops zeros
    and keeps one key per orbit, its smallest (i<j, k<l, (i,j) <= (k,l)), with
    its value, by one stable sort of int64 ranks (ids 1..MAX_ID): an orbit's
    last write wins, a conflicting one is refused.  The contractions read a
    stored element as its sides, bra -> ket and ket -> bra (`_KeyPattern.sides`),
    each of which stands for four keys of the orbit.

    Only the values and the conflict check read the values; the rest of the pass
    (`_KeyPattern`) depends on the key sequence and the zero pattern of the values.
    The last one analysed is kept (one entry, keyed by both by value, for keys
    that hash), and with it the side plan and the two-body kernel of the last
    state and sweep: a table that repeats the last one's keys reads its values
    through the kept sort, and a repeated state contracts them with the kept kernel.
    """

    MAX_ID = 55107  # the largest id with (id + 1)^4 < 2^63
    _BRA_MINUS_KET = np.array([1, 1, -1, -1])  # a key's 2M change, from the 2m of its ids
    # (keys, nonzero mask bytes, _KeyPattern) of the last table analysed, read and set whole
    _last: tuple = (None, None, None)

    def __init__(self, entries=()):
        given, values = tuple(zip(*(entries.items() if isinstance(entries, dict)
                                    else entries), strict=True)) or ((), ())
        last = TwoBodyOperator._last  # one read: a concurrent build replaces the whole tuple
        try:
            same = given == last[0]
        except ValueError:  # a key that compares without a truth value, such as an array
            same = False
        if same:  # keys equal by value read as the same ids
            ids = last[2].ids
        else:
            if set(map(len, given)) - {4}:
                raise ValueError("two-body keys hold four ids, got {}".format(
                    next(key for key in given if len(key) != 4)))
            ids = np.fromiter(itertools.chain.from_iterable(given), dtype=np.int64,
                              count=4 * len(given)).reshape(-1, 4)
        values = np.fromiter(values, dtype=float, count=len(given))
        nonzero = values != 0.0
        if same and nonzero.tobytes() == last[1]:
            pattern = last[2]
        else:
            pattern = _KeyPattern(ids, nonzero)
            with contextlib.suppress(TypeError):  # keys that do not hash (lists, arrays): not kept
                hash(given)
                TwoBodyOperator._last = (given, nonzero.tobytes(), pattern)
        signed, over = values[pattern.source] * pattern.sign, pattern.over
        if len(over):
            with np.errstate(over="ignore"):  # an infinite gap is a conflict, as it should be
                clash = over[np.abs(signed[over + 1] - signed[over])
                             > 1e-12 * np.maximum(1.0, np.abs(signed[over]))] + 1
            if len(clash):
                at = clash[np.argmin(pattern.source[clash])]  # the first conflicting write
                old, new = pattern.sign[at] * signed[at - 1:at + 1]  # in the sign it was written in
                raise ValueError("conflicting duplicate for element {}: {} vs {}".format(
                    tuple(pattern.ids[pattern.source[at]].tolist()), float(old), float(new)))
            signed = np.delete(signed, over)  # last write wins
        if pattern.end < len(given):
            i, j, k, l = key = given[pattern.end]
            raise ValueError(f"orbital ids must be in 1..{self.MAX_ID}, got {key}"
                             if min(key) < 1 or max(key) > self.MAX_ID
                             else f"antisymmetry forces <{i}{j}|V|{k}{l}> = 0")
        self._pattern, self._keys, self._max_id, self._values = (pattern, pattern.keys,
                                                                  pattern.max_id, signed)
        self._values.flags.writeable = False

    def keys(self) -> np.ndarray:
        """The stored keys, one per sign orbit, in sorted order, (K, 4); nonzero elements."""
        return self._keys

    def canonical_items(self):
        """The stored elements, one per sign orbit: i<j, k<l, (i,j) <= (k,l)."""
        return list(zip(map(tuple, self._keys.tolist()), self._values.tolist()))

    def max_id(self) -> int:
        return self._max_id


class _Sides(NamedTuple):
    """The sides of a key pattern with both bra ids occupied, for one state.

    A side reads stored row `src[c]` as bra (i, j) -> ket (k, l), i < j, k < l,
    and stands for the four keys (ij|kl), -(ji|kl), -(ij|lk) and (ji|lk).  `cols`
    (4, S) are its columns (k - 1) n + pos(i), (l - 1) n + pos(j), (k - 1) n +
    pos(j), (l - 1) n + pos(i) of rho as (Q, N n), pos the place in `occupied`.
    The first `ph` sides have k and l unoccupied.  `diagonal`: rows of
    <ij|V~|ij>, one per occupied pair; `field`: rows, signs and (pos(i), p - 1)
    cell in the flat (n, N) mean field of <ik|V~|pk>, k occupied, p not, by pos(k).
    """

    src: np.ndarray
    cols: np.ndarray
    ph: int
    diagonal: np.ndarray
    field: tuple[np.ndarray, np.ndarray, np.ndarray]


class _SideTable(NamedTuple):
    """The sides of every stored key of a key pattern, whatever the state.

    Side c reads stored row `rows[c]` as bra (i, j) -> ket (k, l), by its ids
    less 1 `ids[c]` (S, 4); `kets[c]` is (k, l, k, l).  `diagonal` marks the
    sides with bra == ket.  `mean`: rows, ids less 1 (x, y, z) and signs of
    the sides that hold a mean-field key <xy|V~|zy>, y in both bra and ket.
    """

    rows: np.ndarray
    ids: np.ndarray
    kets: np.ndarray
    diagonal: np.ndarray
    mean: tuple[np.ndarray, np.ndarray, np.ndarray]


class _KeyPattern:
    """The part of a TwoBodyOperator build read off its (E, 4) ids and nonzero mask.

    `end` is the first faulty element (an id outside 1..MAX_ID, a nonzero
    diagonal), E if none.  The nonzero off-diagonal elements before it are
    kept: `source` lists them in stable rank order, `sign` turns each into its
    orbit's smallest key, and `over` marks the rank-order positions that the
    next write of their orbit overrides.  `keys` (read-only) and `max_id` are
    the table's.  Three slots are kept for the last call, each read once and
    set whole: `plan`, ((n_basis, occupied), `_Sides`); `kernel`, (sweep,
    `_Sides`, the read-only K of `two_body_numerators`); `jz`, the J_z
    verdict for the last labels: (2m labels by id, the read-only one-body
    mask m_i != m_k, the row of the first stored key that changes 2M or None).
    """

    def __init__(self, ids: np.ndarray, nonzero: np.ndarray):
        top = TwoBodyOperator.MAX_ID
        diagonal = (ids[:, 0] == ids[:, 1]) | (ids[:, 2] == ids[:, 3])
        self.ids, self.end = ids, len(ids)
        self.plan, self.kernel, self.jz = (None, None), (None, None, None), (None, None, None)
        if ids.min(initial=1) < 1 or ids.max(initial=0) > top or (diagonal & nonzero).any():
            self.end = np.flatnonzero(((ids < 1) | (ids > top)).any(axis=1)
                                      | (diagonal & nonzero))[0]
        kept = np.flatnonzero(~diagonal[:self.end] & nonzero[:self.end])
        keys = ids if len(kept) == len(ids) else ids[kept]
        self.max_id = int(keys.max(initial=0))
        # the smallest orbit key: each id pair in order (a sign per swap), then the two pairs
        sign = np.where((keys[:, 0] < keys[:, 1]) == (keys[:, 2] < keys[:, 3]), 1.0, -1.0)
        lo, hi = np.minimum(keys[:, ::2], keys[:, 1::2]), np.maximum(keys[:, ::2], keys[:, 1::2])
        bra, ket = (lo * (top + 1) + hi).T
        rank = np.minimum(bra, ket) * (top + 1) ** 2 + np.maximum(bra, ket)
        order = np.argsort(rank, kind="stable")  # an orbit's writes stay in write order
        rank = rank[order]
        self.over = np.flatnonzero(rank[1:] == rank[:-1])
        self.source, self.sign = kept[order], sign[order]
        if len(self.over):
            order = np.delete(order, self.over)
        stored, swap = np.stack((lo, hi), axis=2)[order], (ket < bra)[order]
        stored[swap] = stored[swap, ::-1]  # the smaller id pair first
        self.keys = stored.reshape(-1, 4)
        self.keys.flags.writeable = False

    @functools.cached_property
    def side_table(self) -> _SideTable:
        """The sides of every stored key: bra -> ket, then ket -> bra unless bra == ket."""
        ids = self.keys - 1
        back = np.flatnonzero((ids[:, 0] != ids[:, 2]) | (ids[:, 1] != ids[:, 3]))
        rows = np.concatenate((np.arange(len(ids)), back))
        ids = np.concatenate((ids, ids[back][:, [2, 3, 0, 1]]))
        i, j, k, l = ids.T
        # a side holds at most one mean-field key <xy|V~|zy>: y the ket id in the bra, z the other
        in_l = (l == i) | (l == j)
        has = np.flatnonzero(((k == i) | (k == j)) != in_l)
        y, z = np.where(in_l, l, k)[has], np.where(in_l, k, l)[has]
        x = np.where(y == j[has], i[has], j[has])
        # + where y is second in both the bra and the ket or in neither: no swap or two
        sign = np.where((y == j[has]) == in_l[has], 1.0, -1.0)
        return _SideTable(rows=rows, ids=ids, kets=ids[:, [2, 3, 2, 3]],
                          diagonal=(i == k) & (j == l),
                          mean=(rows[has], np.stack((x, y, z), axis=1), sign))

    def sides(self, n_basis: int, occupied) -> _Sides:
        """The sides with an occupied bra for a state of `n_basis` orbitals; kept for the last."""
        key, kept = (n_basis, tuple(occupied)), self.plan  # one read: a concurrent call sets it whole
        if kept[0] == key:
            return kept[1]
        table = self.side_table
        n = len(key[1])
        pos = np.full(max(self.max_id, n_basis), -1)  # by id less 1; -1: not occupied
        pos[np.subtract(key[1], 1)] = np.arange(n)
        at = pos[table.ids]
        hit = np.flatnonzero(np.minimum(at[:, 0], at[:, 1]) >= 0)
        ph = np.maximum(at[hit, 2], at[hit, 3]) < 0
        hit = hit[np.argsort(~ph, kind="stable")]  # the particle-hole sides first
        src = table.rows[hit]
        rows, xyz, sign = table.mean
        px, py, pz = pos[xyz].T
        mean = np.flatnonzero((np.minimum(px, py) >= 0) & (pz < 0))
        mean = mean[np.argsort(py[mean], kind="stable")]  # by pos(y)
        sides = _Sides(src=src, cols=(table.kets[hit] * n + at[hit][:, [0, 1, 1, 0]]).T,
                       ph=int(np.count_nonzero(ph)), diagonal=src[table.diagonal[hit]],
                       field=(rows[mean], sign[mean], px[mean] * n_basis + xyz[mean, 2]))
        self.plan = (key, sides)
        return sides


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

    @functools.cached_property
    def jz_message(self) -> str | None:
        """jz_violation(self), computed once per model (its operators are read-only)."""
        return jz_violation(self)


def jz_violation(model: Model) -> str | None:
    """The first element of T or V that changes J_z (2M), as a message; None if there is none.

    Ids bra then ket, T before V; a two-body element under its stored key,
    the smallest of its sign orbit (every key of an orbit changes 2M by the
    same amount, up to sign).  Not a Model invariant: the kernels hold
    for any operator, while the projected spectrum assumes H conserves J_z.
    The two-body verdict and the one-body mask m_i != m_k read only the
    stored keys and the 2m labels, so both are kept on the key pattern for
    the last labels (by value); T meets the mask on every call.
    """
    labels = (0, *(o.two_m for o in model.state.orbitals))  # 2m by id
    pattern = model.v._pattern
    kept = pattern.jz  # one read: a concurrent call replaces the whole tuple
    if kept[0] != labels:
        # four labels below 2^60 sum exactly in int64, larger ones take Python integers
        two_m = np.array(labels, dtype=object if max(map(abs, labels)) >> 60 else np.int64)
        mask = two_m[1:, None] != two_m[1:]
        mask.flags.writeable = False
        bad = np.flatnonzero(two_m[pattern.keys] @ TwoBodyOperator._BRA_MINUS_KET)
        kept = pattern.jz = (labels, mask, int(bad[0]) if len(bad) else None)
    # T_ik changes 2M where it is nonzero and m_i != m_k: the first such in row-major order
    bad = np.flatnonzero((model.t.matrix != 0) & kept[1])
    if len(bad):
        section, key = "one_body", [oid + 1 for oid in divmod(int(bad[0]), len(labels) - 1)]
    elif kept[2] is None:
        return None
    else:
        section, key = "two_body", pattern.keys[kept[2]].tolist()
    half = len(key) // 2
    return (f"{section} element {tuple(key)} changes 2M from "
            f"{sum(labels[i] for i in key[half:])} to "
            f"{sum(labels[i] for i in key[:half])}: H must conserve J_z")


@dataclass(frozen=True)
class KernelSweep:
    """Everything the kernels need at a stack of Q beta nodes.

    `rotation` holds the single-particle rotations (Q, N, N).  One
    `lalg.eliminate_columns` of C = R[:, occupied] against its occupied rows A
    gives `overlap` (det(A), 0 where flagged), `flagged` (s_min < tau s_max,
    tau = `singular_pivot_factor`), `smallest_singular` (|det A| /
    ||A||_F^(n-1), a lower bound on s_min, exact where the determinant could
    not certify the rank) and `rho`, the transition density C A^{-1}
    (Q, N, n): its occupied rows are exactly the identity, and its unoccupied
    rows, the particle-hole amplitudes x(k, i), are zero-filled at flagged
    nodes.  At the F flagged nodes, in node order, A = U diag(s)
    V^T is held in canonical form (`lalg.canonical_form`): `canonical_cv` is
    C V (F, N, n), `canonical_u` is U (F, n, n) and `canonical_w` the
    weights w (F, n, n), so C det(A) A^{-1} = C V diag(w_aa) U^T and the
    pair part of det(A) A^{-1} x A^{-1} stay finite where A^{-1} does not
    exist.  `occupied_index` holds the occupied ids - 1 and `flagged_nodes`
    the positions of the flagged nodes, so that the contractions rebuild
    neither.  Every array is read-only, so requests can share one sweep.
    """

    state: SlaterState
    beta: np.ndarray
    rotation: np.ndarray
    flagged: np.ndarray
    smallest_singular: np.ndarray
    overlap: np.ndarray
    rho: np.ndarray
    canonical_cv: np.ndarray
    canonical_u: np.ndarray
    canonical_w: np.ndarray
    occupied_index: np.ndarray
    flagged_nodes: np.ndarray


def _occ_index(phi: SlaterState) -> np.ndarray:
    return np.array(phi.occupied) - 1


def _unocc_index(phi: SlaterState) -> np.ndarray:
    return np.array(phi.unoccupied, dtype=int) - 1


def kernel_sweep(phi: SlaterState, betas) -> KernelSweep:
    """Rotate and factor the occupied blocks at every beta node at once.

    The rotation stack depends on the orbital labels and the nodes alone, so
    states over one basis share it (see _basis_rotations).
    """
    betas = np.asarray(betas, dtype=float).reshape(-1)
    basis = tuple((o.shell, o.two_j, o.two_m) for o in phi.orbitals)
    return _sweep(phi, _basis_rotations(basis, betas.tobytes()), betas.view())


@functools.lru_cache(maxsize=8)
def _basis_rotations(basis: tuple, nodes: bytes) -> np.ndarray:
    """The (Q, N, N) rotation stack of (shell, 2j, 2m) orbitals at the packed float nodes.

    Keyed by value, kept for the last few bases and node sets, validated once
    when built (`lalg.as_square_matrix`), read-only.
    """
    rot = lalg.as_square_matrix(rotation_matrix(
        [AngMomLabel(two_j, two_m) for _, two_j, two_m in basis], np.frombuffer(nodes),
        shells=[(s, two_j) for s, two_j, _ in basis]))
    rot.flags.writeable = False
    return rot


def sweep_from_rotations(phi: SlaterState, rotations, betas) -> KernelSweep:
    """kernel_sweep for prebuilt single-particle matrices (any invertible maps)."""
    # views, so that locking them leaves the caller's arrays writable
    return _sweep(phi, lalg.as_square_matrix(rotations).view(),
                  np.asarray(betas, dtype=float).view())


def _sweep(phi: SlaterState, rot: np.ndarray, beta: np.ndarray) -> KernelSweep:
    """The sweep of a validated rotation stack and its nodes; locks both."""
    occ = _occ_index(phi)
    c, n = rot[:, :, occ], len(occ)
    overlap, flags, smallest, rho = lalg.eliminate_columns(c, occ)
    flagged = np.flatnonzero(flags)
    if len(flagged):
        u, v, w = lalg.canonical_form(c[flagged][:, occ])
        cv = c[flagged] @ v
    else:
        cv, u, w = np.zeros((0, phi.n_basis, n)), np.zeros((0, n, n)), np.zeros((0, n, n))
    for arr in (rot, beta, flags, smallest, overlap, rho, cv, u, w, occ, flagged):
        arr.flags.writeable = False
    return KernelSweep(state=phi, beta=beta, rotation=rot, flagged=flags,
                       smallest_singular=smallest, overlap=overlap, rho=rho,
                       canonical_cv=cv, canonical_u=u, canonical_w=w,
                       occupied_index=occ, flagged_nodes=flagged)


def one_body_numerators(sweep: KernelSweep, t: OneBodyOperator) -> np.ndarray:
    """<Phi|T R|Phi> at every node.

    Regular nodes: det(A) sum_{i occ, p} T_ip rho_pi.  Flagged nodes
    replace det(A) rho = C adj(A) by C V diag(w_aa) U^T from the canonical
    form, which stays finite where A^{-1} does not exist.
    """
    occ, at = sweep.occupied_index, sweep.flagged_nodes
    out = sweep.overlap * (sweep.rho.reshape(len(sweep.beta), -1) @ t.matrix[occ].T.ravel())
    if len(at):
        w = np.diagonal(sweep.canonical_w, axis1=1, axis2=2)[:, None, :]
        adj_rho = (sweep.canonical_cv * w) @ sweep.canonical_u.transpose(0, 2, 1)
        out[at] = np.einsum("ap,fpa->f", t.matrix[occ], adj_rho)
    return out


def two_body_numerators(sweep: KernelSweep, v: TwoBodyOperator,
                        particle_hole: bool = False) -> np.ndarray:
    """<Phi|V R|Phi> at every node, or its 2p-2h part for particle_hole.

    Both routes are one contraction, det(A)/2 sum V~_{ij,pq} rho_pi rho_qj
    over occupied ij; the kernel route sums pq over the whole basis, the
    particle-hole route over unoccupied pq only, which is
    sum_{i<j occ, k<l unocc} V~_{ij,kl} <Phi| a_i+ a_j+ b_l b_k R |Phi>.
    The four keys of a side (`_KeyPattern.sides`) add up to twice its 2x2
    minor, so the sum runs over the sides of the stored elements:
    K[q, c] = 2 det(A)/2 (rho_ki rho_lj - rho_kj rho_li) depends on the sweep
    and the state alone, the last one is kept on the key pattern, and a route
    is one gather of the values and one product with K (the particle-hole
    route reads the leading sides).  At flagged nodes the minor, times 2/2, is
    the canonical-form one of `two_ph_kernel`, finite without A^{-1}.
    """
    pattern = v._pattern
    sides = pattern.sides(sweep.state.n_basis, sweep.state.occupied)
    kept = pattern.kernel  # one read: a concurrent call replaces the whole tuple
    if kept[0] is not sweep or kept[1] is not sides:
        kept = pattern.kernel = (sweep, sides, _minor_kernel(sweep, sides))
    end = sides.ph if particle_hole else len(sides.src)
    return kept[2][:, :end] @ v._values[sides.src[:end]]


def _minor_kernel(sweep: KernelSweep, sides: _Sides) -> np.ndarray:
    """K of two_body_numerators, read-only."""
    flat = sweep.rho.reshape(len(sweep.beta), -1)
    ki, lj, kj, li = sides.cols
    kernel = flat[:, ki] * flat[:, lj] - flat[:, kj] * flat[:, li]
    if len(at := sweep.flagged_nodes):
        (k, l), (i, j) = np.divmod(sides.cols[:2], len(sweep.occupied_index))
        kernel[at] = _canonical_minor(sweep, slice(None), i, j, k, l)
    kernel *= 2 * LOWDIN_TWO_BODY_PREFACTOR * np.where(sweep.flagged, 1.0, sweep.overlap)[:, None]
    kernel.flags.writeable = False
    return kernel


def _canonical_minor(sweep: KernelSweep, slots, i, j, k, l) -> np.ndarray:
    """sum_ef w_ef U_ie U_jf ((CV)_ke (CV)_lf - (CV)_kf (CV)_le) at flagged slots, (F, len(i)).

    The 2x2 minor of det(A) A^{-1} x A^{-1} for occupied positions i, j and
    ids less 1 k, l, from the canonical form of the flagged blocks (e = f adds 0).
    """
    u, cv, w = sweep.canonical_u[slots], sweep.canonical_cv[slots], sweep.canonical_w[slots]
    ui, uj, ck, cl = u[:, i], u[:, j], cv[:, k], cv[:, l]
    return ((ui * ck) @ w * (uj * cl) - (ui * cl) @ w * (uj * ck)).sum(axis=2)


def two_ph_kernel(sweep: KernelSweep, q: int, i: int, j: int, k: int, l: int) -> float:
    """<Phi| a_i+ a_j+ b_l b_k R |Phi> at node q: A with rows i, j replaced by R's rows k, l.

    Regular nodes: det(A) times the 2x2 minor x(k,i) x(l,j) - x(k,j) x(l,i)
    of rho.  Flagged nodes: the same minor of det(A) A^{-1} x A^{-1} in
    canonical form (`_canonical_minor`), read at the node's slot among the
    flagged nodes.  Antisymmetric under i <-> j and under k <-> l; zero when
    an index repeats (determinant with equal rows).
    """
    phi = sweep.state
    pi, pj = phi.occupied_position(i), phi.occupied_position(j)
    _check_unoccupied(phi, k)
    _check_unoccupied(phi, l)
    if i == j or k == l:
        return 0.0
    if not sweep.flagged[q]:
        x = sweep.rho[q]
        return float(sweep.overlap[q]
                     * (x[k - 1, pi] * x[l - 1, pj] - x[k - 1, pj] * x[l - 1, pi]))
    f = np.count_nonzero(sweep.flagged[:q])  # the canonical arrays hold flagged nodes only
    return float(_canonical_minor(sweep, [f], [pi], [pj], [k - 1], [l - 1])[0, 0])


def _check_unoccupied(phi: SlaterState, oid: int) -> None:
    if not 1 <= oid <= phi.n_basis or oid in phi.occupied:
        raise BadIndex(f"orbital {oid} is not unoccupied")


def thouless_expand(phi: SlaterState, u) -> tuple[float, SolutionTable]:
    """Decompose U|Phi> = c0 exp(sum x(k,i) b_k+ a_i)|Phi>.

    One-node kernel sweep of u (`sweep_from_rotations`): c0 is its overlap,
    the determinant of the occupied block, and the x table the unoccupied
    rows of rho = C A^{-1}.  Raises VanishingOverlap where the sweep flags the
    block (s_min < tau s_max): the exponential form does not exist.
    """
    u = lalg.as_square_matrix(u)
    if u.shape != (phi.n_basis, phi.n_basis):
        raise lalg.DimensionMismatch("transformation size disagrees with the basis")
    sweep = sweep_from_rotations(phi, u[None], [0.0])
    if sweep.flagged[0]:
        raise VanishingOverlap("<Phi|U|Phi> vanishes: smallest singular value "
                               f"{sweep.smallest_singular[0]:.3e}")
    return float(sweep.overlap[0]), SolutionTable(
        s=phi.n_basis - phi.n_particles, n=phi.n_particles, values=sweep.rho[0, _unocc_index(phi)])


def hf_energy(phi: SlaterState, t: OneBodyOperator, v: TwoBodyOperator) -> float:
    """sum_occ T_ii + 1/2 sum_{ij occ} <ij|V~|ij>: the plan's `diagonal` sides, one per pair."""
    e1 = sum(t.matrix[oid - 1, oid - 1] for oid in phi.occupied)
    return float(e1 + v._values[v._pattern.sides(phi.n_basis, phi.occupied).diagonal].sum())


def brillouin_check(phi: SlaterState, t: OneBodyOperator, v: TwoBodyOperator) -> np.ndarray:
    """|<Phi| H b_j+ a_i |Phi>| for every hole i and particle j.

    That matrix element is the particle-hole block of the mean field,
    h_ji = T_ji + sum_{k occ} <jk|V~|ik>, so no many-body space is built and
    no basis size is too large.  The sum reads the `field` keys of the kept
    side plan, one per side at most.  Returned as an (n_occupied, n_unoccupied) array in ascending
    id order; a model is stable when the maximum residual is numerically zero.
    """
    occ = _occ_index(phi)
    rows, signs, cell = v._pattern.sides(phi.n_basis, phi.occupied).field
    h = t.matrix[occ] + np.bincount(cell, v._values[rows] * signs,
                                    minlength=len(occ) * phi.n_basis).reshape(len(occ), -1)
    order = np.argsort(occ)
    return np.abs(h[order][:, np.sort(_unocc_index(phi))])
