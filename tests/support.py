"""Shared test oracles, all independent of the code paths they check."""

import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from amproj.angmom import clebsch_gordan
from amproj.cli import ModelError, ParseError
from amproj.manybody import (Model, OneBodyOperator, Orbital, SlaterState, TwoBodyOperator,
                             make_slater_state)


def jy_matrix(two_j: int) -> np.ndarray:
    """i*J_y on the |j m> basis ordered m = +j..-j, built from ladder algebra."""
    dim = two_j + 1
    jy = np.zeros((dim, dim), dtype=complex)
    ms = list(range(two_j, -two_j - 1, -2))
    for col, two_m in enumerate(ms):
        # J_+ |j m> and J_- |j m>
        if two_m < two_j:
            c = math.sqrt(((two_j - two_m) // 2) * ((two_j + two_m) // 2 + 1))
            jy[ms.index(two_m + 2), col] += c / 2j
        if two_m > -two_j:
            c = math.sqrt(((two_j + two_m) // 2) * ((two_j - two_m) // 2 + 1))
            jy[ms.index(two_m - 2), col] -= c / 2j
    return jy


def small_d_expm(two_j: int, beta: float) -> np.ndarray:
    """d^j(beta) = exp(-i beta J_y), rows/cols ordered m = +j..-j."""
    d = expm(-1j * beta * jy_matrix(two_j))
    assert np.abs(d.imag).max() < 1e-12
    return d.real


def ladder_matrices(two_m_parity: int, two_j_max: int):
    """(basis, J_plus, J_minus) on every |l mu> with two_l <= two_j_max.

    two_m_parity selects integer (0) or half-integer (1) blocks.
    """
    basis = []
    for two_l in range(two_m_parity, two_j_max + 1, 2):
        for two_mu in range(-two_l, two_l + 1, 2):
            basis.append((two_l, two_mu))
    index = {lm: i for i, lm in enumerate(basis)}
    jp = np.zeros((len(basis), len(basis)))
    for i, (two_l, two_mu) in enumerate(basis):
        if two_mu < two_l:
            c = math.sqrt(((two_l - two_mu) // 2) * ((two_l + two_mu) // 2 + 1))
            jp[index[(two_l, two_mu + 2)], i] = c
    return basis, jp, jp.T.copy()


def oscillator_ladder_factors(n_max: int):
    """(B, D) on levels 0..n_max with a+ = S B S^-1, a = S^-1 B^T S, S = diag(sqrt(l!)).

    B is the 0/1 subdiagonal and D = S^-2 = diag(1/l!), so
    (a+)^k a^k = S (B^k D (B^T)^k) S and the bracket is exact.  Both are
    object-dtype matrices of ints and Fractions.
    """
    b = np.zeros((n_max + 1, n_max + 1), dtype=object)
    d = np.zeros((n_max + 1, n_max + 1), dtype=object)
    for level in range(n_max + 1):
        d[level, level] = Fraction(1, math.factorial(level))
        if level < n_max:
            b[level + 1, level] = 1
    return b, d


def rational_matrix_power(m: np.ndarray, k: int) -> np.ndarray:
    """m^k for an object-dtype matrix by k exact products (the identity at k = 0)."""
    out = np.identity(len(m), dtype=int).astype(object)
    for _ in range(k):
        out = out @ m
    return out


def exact_radial_integral(i: int, n: int, b: int) -> Fraction:
    """int_0^1 t^i (1-t)^b P_n^{(0,b)}(1-2t) dt by exact monomial expansion."""
    # carry P_n^{(0,b)}(1-2t) as a dict power-of-t -> Fraction
    def mulx(p):
        out = dict(p)
        for k, v in p.items():
            out[k + 1] = out.get(k + 1, Fraction(0)) - 2 * v
        return out

    p_prev = {0: Fraction(1)}
    if n == 0:
        poly = p_prev
    else:
        # P_1^{(0,b)}(1-2t) = 1 - (b+2) t
        p_curr = {0: Fraction(1), 1: Fraction(-(b + 2))}
        for m in range(2, n + 1):
            c1 = Fraction(2 * m * (m + b) * (2 * m + b - 2))
            c2x = Fraction((2 * m + b - 1) * (2 * m + b) * (2 * m + b - 2))
            c2c = Fraction((2 * m + b - 1) * (-b * b))
            c3 = Fraction(2 * (m - 1) * (m + b - 1) * (2 * m + b))
            nxt = {}
            for k, v in mulx(p_curr).items():
                nxt[k] = nxt.get(k, Fraction(0)) + c2x * v
            for k, v in p_curr.items():
                nxt[k] = nxt.get(k, Fraction(0)) + c2c * v
            for k, v in p_prev.items():
                nxt[k] = nxt.get(k, Fraction(0)) - c3 * v
            p_prev, p_curr = p_curr, {k: v / c1 for k, v in nxt.items()}
        poly = p_curr
    total = Fraction(0)
    for k, v in poly.items():
        for s in range(b + 1):
            total += v * Fraction(math.comb(b, s) * (-1) ** s, i + k + s + 1)
    return total


SHELL_POOL = [("s12", 1), ("p32", 3), ("d52", 5), ("q12", 1), ("r32", 3)]


def random_state(rng, n_basis: int, n_particles: int):
    """A basis of (possibly partial) shells with a random occupied subset."""
    labels = []
    for shell, two_j in itertools.cycle(SHELL_POOL):
        for two_m in range(two_j, -two_j - 1, -2):
            labels.append((shell, two_j, two_m))
            if len(labels) == n_basis:
                break
        if len(labels) == n_basis:
            break
    occupied = tuple(sorted(rng.choice(np.arange(1, n_basis + 1), size=n_particles,
                                       replace=False).tolist()))
    return make_slater_state(labels, occupied)


def random_one_body(rng, n_basis: int) -> OneBodyOperator:
    t = rng.uniform(-1, 1, (n_basis, n_basis))
    return OneBodyOperator((t + t.T) / 2)


def closure_oracle(entries) -> tuple[dict, int]:
    """(table, max_id): the two-body sign closure written element by element into a dict.

    The reference for `TwoBodyOperator`: the same checks and messages, each
    element's eight sign images written in turn, the last write of a key
    winning.  Zero elements are dropped; max_id is the largest id kept.
    """
    table: dict[tuple[int, int, int, int], float] = {}
    top = 0
    items = entries.items() if isinstance(entries, dict) else entries
    for key, value in items:
        i, j, k, l = key
        value = float(value)
        for oid in key:
            if not 1 <= oid <= TwoBodyOperator.MAX_ID:
                raise ValueError(f"orbital ids must be in 1..{TwoBodyOperator.MAX_ID}, got {key}")
        if i == j or k == l:
            if value != 0.0:
                raise ValueError(f"antisymmetry forces <{i}{j}|V|{k}{l}> = 0")
            continue
        if value == 0.0:
            continue
        top = max(top, i, j, k, l)
        images = [((i, j, k, l), value), ((j, i, k, l), -value), ((i, j, l, k), -value),
                  ((j, i, l, k), value), ((k, l, i, j), value), ((l, k, i, j), -value),
                  ((k, l, j, i), -value), ((l, k, j, i), value)]
        for img, sval in images:
            old = table.get(img)
            if old is not None and abs(old - sval) > 1e-12 * max(1.0, abs(old)):
                raise ValueError(f"conflicting duplicate for element {img}: "
                                 f"{old} vs {sval}")
            table[img] = sval
    return table, top


def _field_oracle(record, name, kind, where):
    if name not in record:
        raise ParseError(f"{where}: missing field '{name}'")
    value = record[name]
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ParseError(f"{where}: field '{name}' must be an integer, got {value!r}")
    if kind is float and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise ParseError(f"{where}: field '{name}' must be a number, got {value!r}")
    # Python's json reads NaN and Infinity, which JSON itself does not allow,
    # and integers beyond the float range
    if kind is float and ((isinstance(value, float) and not math.isfinite(value))
                          or abs(value) > sys.float_info.max):
        raise ParseError(f"{where}: field '{name}' must be finite, got {value!r}")
    if kind is str and not isinstance(value, str):
        raise ParseError(f"{where}: field '{name}' must be a string, got {value!r}")
    return value


def load_model_oracle(path: str) -> Model:
    """The reference for `amproj.cli.load_model`: every field checked in turn.

    The record-by-record walk, one `_field_oracle` call per JSON leaf, with
    the same messages, exceptions and order of checks.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal longer than Python converts
        raise ParseError(f"{path}: invalid number: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    for key in ("basis", "occupied", "one_body", "two_body"):
        if key not in doc or not isinstance(doc[key], list):
            raise ParseError(f"{path}: missing or non-list field '{key}'")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError(f"{path}: field 'name' must be a string")

    seen = {}
    for idx, rec in enumerate(doc["basis"]):
        where = f"{path}: basis[{idx}]"
        if not isinstance(rec, dict):
            raise ParseError(f"{where}: must be an object")
        oid = _field_oracle(rec, "id", int, where)
        if oid in seen:
            raise ModelError(f"{path}: duplicate orbital id {oid}")
        seen[oid] = (
            _field_oracle(rec, "shell", str, where),
            _field_oracle(rec, "two_j", int, where),
            _field_oracle(rec, "two_m", int, where),
        )
    n = len(seen)
    if sorted(seen) != list(range(1, n + 1)):
        raise ModelError(f"{path}: orbital ids must be dense 1..{n}, got {sorted(seen)}")
    # the rotation maps each (shell, 2j, 2m) label to one |j m> state
    first = {}
    for oid in range(1, n + 1):
        other = first.setdefault(seen[oid], oid)
        if other != oid:
            raise ModelError(f"{path}: orbitals {other} and {oid} share shell, two_j and two_m")

    occupied = []
    for idx, oid in enumerate(doc["occupied"]):
        if isinstance(oid, bool) or not isinstance(oid, int):
            raise ParseError(f"{path}: occupied[{idx}] must be an integer id")
        occupied.append(oid)
    for oid in occupied:
        if oid not in seen:
            raise ModelError(f"{path}: occupied id {oid} not in the basis")
    if len(set(occupied)) != len(occupied):
        raise ModelError(f"{path}: duplicate id in occupied list")

    tmat = np.zeros((n, n))
    assigned = {}
    for idx, rec in enumerate(doc["one_body"]):
        where = f"{path}: one_body[{idx}]"
        if not isinstance(rec, dict):
            raise ParseError(f"{where}: must be an object")
        i = _field_oracle(rec, "i", int, where)
        k = _field_oracle(rec, "k", int, where)
        value = float(_field_oracle(rec, "value", float, where))
        if not (1 <= i <= n and 1 <= k <= n):
            raise ModelError(f"{where}: id out of range")
        key = (min(i, k), max(i, k))
        if key in assigned and abs(assigned[key] - value) > 1e-12 * max(1.0, abs(value)):
            raise ModelError(f"{where}: conflicting duplicate for pair {key}: "
                             f"{assigned[key]} vs {value}")
        assigned[key] = value
        tmat[i - 1, k - 1] = tmat[k - 1, i - 1] = value

    ventries = []
    for idx, rec in enumerate(doc["two_body"]):
        where = f"{path}: two_body[{idx}]"
        if not isinstance(rec, dict):
            raise ParseError(f"{where}: must be an object")
        key = tuple(_field_oracle(rec, f, int, where) for f in ("i", "j", "k", "l"))
        value = float(_field_oracle(rec, "value", float, where))
        for oid in key:
            if not 1 <= oid <= n:
                raise ModelError(f"{where}: id {oid} out of range")
        ventries.append((key, value))

    try:
        occ = set(occupied)
        orbitals = tuple(
            Orbital(id=i, shell=seen[i][0], two_j=seen[i][1], two_m=seen[i][2],
                    occupied=i in occ)
            for i in range(1, n + 1))
        state = SlaterState(orbitals=orbitals, occupied=tuple(occupied))
        model = Model(state=state, t=OneBodyOperator(tmat),
                      v=TwoBodyOperator(ventries), name=name)
    except ValueError as exc:
        raise ModelError(f"{path}: {exc}") from exc
    return model


def sign_orbit_key(key) -> tuple[int, int, int, int]:
    """The smallest of the eight keys in the sign orbit of an element's key."""
    i, j, k, l = key
    return min((i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
               (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i))


def closure_oracle_block(table: dict, n_basis: int, occupied) -> np.ndarray:
    """<ij|V~|pq> for occupied i, j and every p, q, filled from an oracle table."""
    pos = {oid: a for a, oid in enumerate(occupied)}
    block = np.zeros((len(pos), len(pos), n_basis, n_basis))
    for (i, j, k, l), value in table.items():
        if i in pos and j in pos:
            block[pos[i], pos[j], k - 1, l - 1] = value
    return block


def random_two_body(rng, n_basis: int, density: float = 0.7) -> TwoBodyOperator:
    entries = []
    pairs = list(itertools.combinations(range(1, n_basis + 1), 2))
    for bi, bra in enumerate(pairs):
        for ket in pairs[bi:]:
            if rng.uniform() < density:
                entries.append(((bra[0], bra[1], ket[0], ket[1]), rng.uniform(-1, 1)))
    return TwoBodyOperator(entries)


def random_model(rng, n_basis: int, n_particles: int) -> Model:
    state = random_state(rng, n_basis, n_particles)
    return Model(state=state, t=random_one_body(rng, n_basis),
                 v=random_two_body(rng, n_basis), name="random")


def two_shell_m1_model() -> Model:
    """The stable two-shell fixture: (j=3/2, m=1/2) + (j=1/2, m=1/2), M = 1.

    T is diagonal by shell and V is a sum of coupled-pair projectors
    g_J |(3/2 x 1/2) J M><...| over all M, so H is a rotational scalar on
    the cross-shell pair space: E_J = eps_sum + g_J exactly.
    """
    labels = [("d32", 3, 3), ("d32", 3, 1), ("d32", 3, -1), ("d32", 3, -3),
              ("s12", 1, 1), ("s12", 1, -1)]
    phi = make_slater_state(labels, occupied=(2, 5))
    eps = {"d32": 1.1, "s12": -0.4}
    tmat = np.diag([eps[shell] for shell, _, _ in labels])
    g = {2: -1.3, 4: 0.45}
    m_of = {1: 3, 2: 1, 3: -1, 4: -3, 5: 1, 6: -1}
    entries = {}
    for two_j_pair, g_j in g.items():
        for two_m_tot in range(-two_j_pair, two_j_pair + 1, 2):
            amps = {}
            for p in (1, 2, 3, 4):
                for q in (5, 6):
                    c = clebsch_gordan(3, m_of[p], 1, m_of[q], two_j_pair, two_m_tot)
                    if c:
                        amps[(p, q)] = c
            for (p, q), a in amps.items():
                for (r, s), bb in amps.items():
                    key = (p, q, r, s)
                    entries[key] = entries.get(key, 0.0) + g_j * a * bb
    return Model(state=phi, t=OneBodyOperator(tmat),
                 v=TwoBodyOperator(list(entries.items())), name="two_shell_M1")


TWO_SHELL_EPS_SUM = 0.7
TWO_SHELL_G = {2: -1.3, 4: 0.45}


def stretched_m2_model() -> Model:
    """Occupied (3/2, 3/2) and (1/2, 1/2): M = 2, a pure J = 2 state."""
    labels = [("d32", 3, 3), ("d32", 3, 1), ("d32", 3, -1), ("d32", 3, -3),
              ("s12", 1, 1), ("s12", 1, -1)]
    phi = make_slater_state(labels, occupied=(1, 5))
    base = two_shell_m1_model()
    return Model(state=phi, t=base.t, v=base.v, name="two_shell_M2")
