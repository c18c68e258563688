"""Shared test oracles, all independent of the code paths they check."""

import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from amproj.angmom import check_label, clebsch_gordan
from amproj.cli import ModelError, ParseError
from amproj.config import DEFAULTS
from amproj.lalg import DimensionMismatch, as_square_matrix, canonical_form, eliminate_columns
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


def wigner_small_d(two_j: int, two_mp: int, two_m: int, beta: float) -> float:
    """d^j_{m'm}(beta) = <j m'| exp(-i beta J_y) |j m>, the small-j reference.

    Explicit factorial sum.  Each term coefficient is an exact integer ratio
    rounded once, but the terms alternate in sign and grow with j, so
    cancellation sets the error: against a 60-digit mpmath reference it
    measured 4.9e-13 at 2j = 40, 3.6e-9 at 60, 6.0e-7 at 80 and 3.0e-6 at 90.
    """
    check_label(two_j, two_mp)
    check_label(two_j, two_m)
    jpm = (two_j + two_m) // 2
    jmm = (two_j - two_m) // 2
    jpmp = (two_j + two_mp) // 2
    jmmp = (two_j - two_mp) // 2
    dm = (two_mp - two_m) // 2  # m' - m
    num = (math.factorial(jpm) * math.factorial(jmm)
           * math.factorial(jpmp) * math.factorial(jmmp))
    cb = math.cos(0.5 * beta)
    sb = math.sin(0.5 * beta)
    total = 0.0
    for k in range(max(0, -dm), min(jpm, jmmp) + 1):
        den = (math.factorial(k) * math.factorial(jpm - k)
               * math.factorial(jmmp - k) * math.factorial(dm + k))
        coeff = math.sqrt(float(Fraction(num, den * den)))
        if (dm + k) % 2:
            coeff = -coeff
        total += coeff * cb ** (two_j - dm - 2 * k) * sb ** (dm + 2 * k)
    return total


def legendre_beta_rule(npoints: int) -> tuple[np.ndarray, np.ndarray]:
    """NumPy's Gauss-Legendre rule mapped from [-1, 1] onto (0, pi): nodes ascend in beta.

    The weights integrate d(beta) and sum to pi; the sin(beta) measure is
    not folded in.  An independent reference for the library's rule in cos(beta).
    """
    x, w = np.polynomial.legendre.leggauss(npoints)
    return (x + 1.0) * (np.pi / 2), w * (np.pi / 2)


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


class PoleInC(ValueError):
    """The lower Pochhammer (c)_k vanished before the series terminated."""


def hypergeom_2f1_terminating(a, b, c, z):
    """2F1(a, b; c; z) for non-positive integer a (a terminating series).

    The sum runs to k = -a; arithmetic stays exact (Fraction) whenever b, c
    and z are exact, which is how the z = 1 annihilation identities evaluate
    to literal zero.  Raises PoleInC when c + k hits zero inside the sum.
    """
    if a > 0 or int(a) != a:
        raise ValueError(f"first parameter must be a non-positive integer, got {a!r}")
    nterms = -int(a)
    exact = not any(isinstance(v, float) for v in (b, c, z))
    total = term = Fraction(1) if exact else 1.0
    for k in range(nterms):
        if c + k == 0:
            raise PoleInC(f"(c)_k vanished at k = {k + 1} with c = {c}")
        term = term * (a + k) * (b + k) * z / ((c + k) * (k + 1))
        total = total + term
    return total


def pivoted_lu_oracle(a) -> tuple[float, bool, float]:
    """(det, flagged, smallest |pivot|) of a scalar LU of one matrix with row pivoting.

    Step k takes the first row of largest |a_ik| (i >= k) as its pivot row
    and subtracts (a_ik / pivot) * a_kj from the rows below, one float
    operation at a time; an exactly zero pivot divides by 1.  The matrix is
    flagged when a pivot magnitude is below singular_pivot_factor * max|A|
    (at least the smallest subnormal), and then det = 0.
    """
    rows = [[float(x) for x in row] for row in a]
    n = len(rows)
    pivots, sign = [], 1.0
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))  # max keeps the first of a tie
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        pivots.append(rows[k][k])
        pivot = pivots[-1] if pivots[-1] != 0.0 else 1.0
        for i in range(k + 1, n):
            factor = rows[i][k] / pivot
            for j in range(k + 1, n):
                rows[i][j] -= factor * rows[k][j]
    scale = max(abs(float(x)) for row in a for x in row)
    threshold = max(DEFAULTS.singular_pivot_factor * scale, math.ulp(0.0))
    mags = [abs(p) for p in pivots]
    flagged = min(mags) < threshold
    return (0.0 if flagged else sign * math.prod(pivots)), flagged, min(mags)


def cofactors(a, order: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Signed determinants of A with `order` rows and `order` columns deleted.

    A test oracle: the production path takes lalg.canonical_form.  Returns
    (subsets, table): `subsets` lists the deleted index sets in
    lexicographic order, and table[..., r, c] is (-1)^(sum subsets[r] +
    sum subsets[c]) times the determinant of A without rows subsets[r] and
    columns subsets[c].  order = 1 gives the cofactor matrix, order = 2 the
    second cofactors of Jacobi's identity; both stay finite for singular A.
    `a` may be a stack.  Each minor is eliminated with the same flag rule as
    any other matrix, so a flagged minor counts as 0.
    """
    a = as_square_matrix(a)
    n = a.shape[-1]
    if not 1 <= order <= n:
        raise DimensionMismatch(f"cannot delete {order} rows of an order-{n} matrix")
    subsets = list(itertools.combinations(range(n), order))
    sign = np.array([-1.0 if sum(sub) % 2 else 1.0 for sub in subsets])
    signs = np.outer(sign, sign)
    m = n - order
    if m == 0:
        return subsets, np.broadcast_to(signs, a.shape[:-2] + signs.shape).copy()
    keep = np.array([[c for c in range(n) if c not in sub] for sub in subsets])
    minors = a[..., keep[:, None, :, None], keep[None, :, None, :]]
    dets = eliminate_columns(minors.reshape(-1, m, m).swapaxes(1, 2), range(m))[0]
    return subsets, signs * dets.reshape(a.shape[:-2] + signs.shape)


def adjugate(a) -> np.ndarray:
    """det(A) A^{-1} = V diag(w_aa) U^T of canonical_form: finite at any rank; stacks too."""
    u, v, w = canonical_form(a)
    return (v * np.diagonal(w, axis1=-2, axis2=-1)[..., None, :]) @ u.swapaxes(-1, -2)


def cs_rotation(rng, occupied, cosines) -> np.ndarray:
    """An orthogonal 2n x 2n map whose occupied block has the singular values `cosines`.

    Built as a CS decomposition diag(U1, U2) [[C, -S], [S, C]] diag(V1, V2)^T
    with C = diag(cosines), S = sqrt(1 - C^2) and random orthogonal U and V,
    its rows and columns ordered so that the occupied ids (1-based) take the
    leading block.
    """
    n = len(cosines)
    u1, u2, v1, v2 = (np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(4))
    c = np.diag(cosines)
    s = np.diag(np.sqrt(1.0 - np.square(cosines)))
    zero = np.zeros((n, n))
    r = (np.block([[u1, zero], [zero, u2]]) @ np.block([[c, -s], [s, c]])
         @ np.block([[v1, zero], [zero, v2]]).T)
    occ = np.array(occupied) - 1
    order = np.concatenate([occ, np.setdiff1d(np.arange(2 * n), occ)])
    out = np.empty_like(r)
    out[np.ix_(order, order)] = r
    return out


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
    message = jz_oracle({oid: label[2] for oid, label in seen.items()}, tmat,
                        closure_oracle(ventries)[0])
    if message is not None:
        raise ModelError(f"{path}: {message}")
    return model


def jz_oracle(two_m: dict, tmat: np.ndarray, table: dict) -> str | None:
    """The first element that changes 2M, bra against ket, as jz_violation words it.

    T in row-major order, then the closed two-body table `table` (as
    closure_oracle builds it) in sorted key order; None if H conserves J_z.
    """
    n = tmat.shape[0]
    elements = [("one_body", (i, k), tmat[i - 1, k - 1])
                for i in range(1, n + 1) for k in range(1, n + 1)]
    elements += [("two_body", key, value) for key, value in sorted(table.items())]
    for section, key, value in elements:
        half = len(key) // 2
        bra, ket = (sum(two_m[oid] for oid in ids) for ids in (key[:half], key[half:]))
        if value != 0.0 and bra != ket:
            return (f"{section} element {key} changes 2M from {ket} "
                    f"to {bra}: H must conserve J_z")
    return None


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


def two_body_table(v: TwoBodyOperator) -> dict:
    """Every key of every sign orbit of v with its value, closed from its stored elements.

    The reference reads of a built table: `table.get(key, 0.0)` for one
    element, `sorted(table.items())` for all of them, `len(table)` for their count.
    """
    return closure_oracle(v.canonical_items())[0]


def image_block(v: TwoBodyOperator, n_basis: int, occupied,
                particle_hole: bool = False) -> np.ndarray:
    """The images of v's kept image plan for a state, added into closure_oracle_block's layout.

    Each image adds its signed value at (pos(i), pos(j), p - 1, q - 1), so an
    image listed twice shows as a doubled entry; particle_hole adds only the
    plan's leading particle-hole images.
    """
    images = v._pattern.images(n_basis, occupied)
    end = images.ph if particle_hole else len(images.src)
    (p, q), (a, b) = np.divmod(images.cols[:, :end], len(occupied))
    block = np.zeros((len(occupied), len(occupied), n_basis, n_basis))
    values = np.array([value for _, value in v.canonical_items()], dtype=float)
    np.add.at(block, (a, b, p, q), values[images.src[:end]] * images.sign[:end])
    return block


def random_two_body(rng, n_basis: int, density: float = 0.7) -> TwoBodyOperator:
    entries = []
    pairs = list(itertools.combinations(range(1, n_basis + 1), 2))
    for bi, bra in enumerate(pairs):
        for ket in pairs[bi:]:
            if rng.uniform() < density:
                entries.append(((bra[0], bra[1], ket[0], ket[1]), rng.uniform(-1, 1)))
    return TwoBodyOperator(entries)


def random_model(rng, n_basis: int, n_particles: int, conserve_jz: bool = False) -> Model:
    """A random state, T and V; with conserve_jz, the elements that change 2M are dropped.

    The draws do not depend on conserve_jz, so both forms share one random stream.
    """
    state = random_state(rng, n_basis, n_particles)
    t, v = random_one_body(rng, n_basis), random_two_body(rng, n_basis)
    if conserve_jz:
        m = {o.id: o.two_m for o in state.orbitals}
        ms = np.array([m[i] for i in range(1, n_basis + 1)])
        t = OneBodyOperator(np.where(ms[:, None] == ms, t.matrix, 0.0))
        v = TwoBodyOperator([((i, j, k, l), x) for (i, j, k, l), x in v.canonical_items()
                             if m[i] + m[j] == m[k] + m[l]])
    return Model(state=state, t=t, v=v, name="random")


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


def pair_coupled_model(shell: str, two_j: int, occupied_two_m, strengths: dict,
                       eps: float = 0.5) -> Model:
    """One j shell under a pair-J interaction: V = sum_J' g_J' sum_M' |(jj)J'M'><(jj)J'M'|.

    Orbitals carry 2m = 2j, 2j - 2, ..., -2j with ids from 1; T is eps on
    the diagonal, strengths maps an even pair 2J' to g_J'.  H conserves J_z
    and is a rotational scalar, so the exact beta rule applies to it.
    """
    labels = [(shell, two_j, two_m) for two_m in range(two_j, -two_j - 1, -2)]
    m_of = {oid: two_m for oid, (_, _, two_m) in enumerate(labels, start=1)}
    entries: dict = {}
    for two_jp, g in strengths.items():
        for two_mp in range(-two_jp, two_jp + 1, 2):
            amps = {(p, q): math.sqrt(2) * clebsch_gordan(two_j, m_of[p], two_j, m_of[q],
                                                          two_jp, two_mp)
                    for p in m_of for q in m_of if p < q and m_of[p] + m_of[q] == two_mp}
            for bra, x in amps.items():
                for ket, y in amps.items():
                    if bra <= ket and x * y != 0.0:
                        entries[bra + ket] = entries.get(bra + ket, 0.0) + g * x * y
    occupied = [1 + (two_j - two_m) // 2 for two_m in occupied_two_m]
    return Model(state=make_slater_state(labels, occupied),
                 t=OneBodyOperator(eps * np.eye(len(labels))),
                 v=TwoBodyOperator(entries), name=f"{shell}-{len(occupied)}")


def scan_j15_model() -> Model:
    """Six j=15/2 particles at 2M = -8 (2J_max = 60), under pair strengths 2J' = 0..28."""
    strengths = dict(zip(range(0, 30, 4), (-1.0, -0.4, 0.3, 0.1, 0.2, -0.2, 0.05, 0.15)))
    return pair_coupled_model("j15", 15, (-15, -13, -7, 5, 9, 13), strengths)


def h11_six_model() -> Model:
    """Six j=11/2 particles at 2M = 0 (2J_max = 36), under pair strengths 2J' = 0..20."""
    strengths = {0: -1.0, 4: -0.3, 8: 0.2, 12: 0.1, 16: -0.15, 20: 0.05}
    return pair_coupled_model("h11", 11, (11, 9, 1, -3, -7, -11), strengths)


TWO_SHELL_EPS_SUM = 0.7
TWO_SHELL_G = {2: -1.3, 4: 0.45}


def stretched_m2_model() -> Model:
    """Occupied (3/2, 3/2) and (1/2, 1/2): M = 2, a pure J = 2 state."""
    labels = [("d32", 3, 3), ("d32", 3, 1), ("d32", 3, -1), ("d32", 3, -3),
              ("s12", 1, 1), ("s12", 1, -1)]
    phi = make_slater_state(labels, occupied=(1, 5))
    base = two_shell_m1_model()
    return Model(state=phi, t=base.t, v=base.v, name="two_shell_M2")
