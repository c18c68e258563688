"""Seeded rotation-invariant models and their exact reference values.

Everything here is computed without importing the library under test, so a
change to the library cannot alter the inputs or the values they are
checked against:

  * Clebsch-Gordan coefficients (Racah's formula over exact integers),
  * pair-J projector couplings g |ab J M><ab J M| summed over M, which make
    the interaction a rotational scalar,
  * the Hartree-Fock energy <Phi|H|Phi> of the intrinsic determinant,
  * the Pauli-aware J_max: per shell, the sum of the top n_s m-values.

Labels are doubled integers (two_j, two_m), as in the library's model format.
Orbital ids are 1-based and follow the order of the label list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def clebsch_gordan(two_j1, two_m1, two_j2, two_m2, two_j, two_m) -> float:
    """<j1 m1 j2 m2 | J M> with Condon-Shortley phases (Racah's sum)."""
    if two_m1 + two_m2 != two_m or not abs(two_j1 - two_j2) <= two_j <= two_j1 + two_j2:
        return 0.0
    if (two_j1 + two_j2 - two_j) % 2:
        return 0.0
    f = math.factorial
    a = (two_j1 + two_j2 - two_j) // 2
    b = (two_j1 - two_j2 + two_j) // 2
    c = (two_j2 - two_j1 + two_j) // 2
    pref = Fraction((two_j + 1) * f(a) * f(b) * f(c)
                    * f((two_j + two_m) // 2) * f((two_j - two_m) // 2)
                    * f((two_j1 + two_m1) // 2) * f((two_j1 - two_m1) // 2)
                    * f((two_j2 + two_m2) // 2) * f((two_j2 - two_m2) // 2),
                    f((two_j1 + two_j2 + two_j) // 2 + 1))
    t1 = (two_j - two_j2 + two_m1) // 2
    t2 = (two_j - two_j1 - two_m2) // 2
    total = Fraction(0)
    for k in range(max(0, -t1, -t2), min(a, (two_j1 - two_m1) // 2, (two_j2 + two_m2) // 2) + 1):
        den = (f(k) * f(a - k) * f((two_j1 - two_m1) // 2 - k)
               * f((two_j2 + two_m2) // 2 - k) * f(t1 + k) * f(t2 + k))
        total += Fraction(-1 if k % 2 else 1, den)
    if total == 0:
        return 0.0
    mag = math.sqrt(float(pref * total * total))
    return mag if total > 0 else -mag


def shell_labels(shells) -> list[tuple[str, int, int]]:
    """(shell, two_j, two_m) for every m of every (name, two_j), m descending."""
    return [(name, two_j, two_m) for name, two_j in shells
            for two_m in range(two_j, -two_j - 1, -2)]


@dataclass(frozen=True)
class PairChannels:
    """Canonical two-body elements of a sum of pair-J projectors, per channel.

    `keys[e]` is (i, j, k, l) with i < j, k < l and (i, j) <= (k, l);
    `unit[e, c]` is element e of channel c at unit strength, so the element
    values for strengths g are `unit @ g`.  `channels[c]` is
    (shell_a, shell_b, two_J).
    """

    labels: tuple[tuple[str, int, int], ...]
    channels: tuple[tuple[str, str, int], ...]
    keys: tuple[tuple[int, int, int, int], ...]
    unit: np.ndarray

    @classmethod
    def build(cls, labels, channels) -> "PairChannels":
        labels = tuple(labels)
        by_shell: dict[str, list[int]] = {}
        for oid, (shell, _, _) in enumerate(labels, start=1):
            by_shell.setdefault(shell, []).append(oid)
        acc: dict[tuple[int, int, int, int], dict[int, float]] = {}
        for c, (sa, sb, two_jp) in enumerate(channels):
            for two_mp in range(-two_jp, two_jp + 1, 2):
                amps = _pair_amplitudes(labels, by_shell[sa], by_shell[sb], two_jp, two_mp)
                for bra, x in amps.items():
                    for ket, y in amps.items():
                        if bra <= ket:
                            row = acc.setdefault(bra + ket, {})
                            row[c] = row.get(c, 0.0) + x * y
        keys = tuple(sorted(acc))
        unit = np.zeros((len(keys), len(channels)))
        for e, key in enumerate(keys):
            for c, val in acc[key].items():
                unit[e, c] = val
        return cls(labels=labels, channels=tuple(channels), keys=keys, unit=unit)


def _pair_amplitudes(labels, ids_a, ids_b, two_jp, two_mp) -> dict[tuple[int, int], float]:
    """Coefficients of |ab J M> on the determinants c+_p c+_q |0>, p < q."""
    same = ids_a is ids_b
    out = {}
    for p in ids_a:
        for q in ids_b:
            if p == q:
                continue
            _, ja, ma = labels[p - 1]
            _, jb, mb = labels[q - 1]
            if ma + mb != two_mp:
                continue
            cg = clebsch_gordan(ja, ma, jb, mb, two_jp, two_mp)
            if cg == 0.0:
                continue
            if same:
                # both orderings name one determinant: sqrt(2) CG on p < q
                if p > q:
                    continue
                out[(p, q)] = math.sqrt(2.0) * cg
            elif p < q:
                out[(p, q)] = cg
            else:
                out[(q, p)] = -cg
    return out


@dataclass(frozen=True)
class GeneratedModel:
    """One seeded model as plain arrays, plus its exact reference values."""

    name: str
    labels: tuple[tuple[str, int, int], ...]
    occupied: tuple[int, ...]
    eps: dict[str, float]
    two_body: list[tuple[tuple[int, int, int, int], float]]
    e_hf: float
    two_m: int
    two_j_max: int

    def one_body_diagonal(self) -> np.ndarray:
        return np.array([self.eps[shell] for shell, _, _ in self.labels])

    def physical_two_j(self) -> tuple[int, ...]:
        """Every 2J the determinant can hold: |2M| .. Pauli J_max, step 2."""
        return tuple(range(abs(self.two_m), self.two_j_max + 1, 2))

    def to_json_doc(self) -> dict:
        """The model in the command-line tool's JSON model format."""
        basis = [{"id": oid, "shell": s, "two_j": j, "two_m": m}
                 for oid, (s, j, m) in enumerate(self.labels, start=1)]
        one_body = [{"i": oid, "k": oid, "value": self.eps[s]}
                    for oid, (s, _, _) in enumerate(self.labels, start=1)]
        two_body = [{"i": i, "j": j, "k": k, "l": l, "value": v}
                    for (i, j, k, l), v in self.two_body]
        return {"name": self.name, "basis": basis, "occupied": list(self.occupied),
                "one_body": one_body, "two_body": two_body}


def pauli_two_j_max(labels, occupied) -> int:
    """2 J_max: per shell, the sum of the top n_s values of 2m."""
    count: dict[tuple[str, int], int] = {}
    for oid in occupied:
        shell, two_j, _ = labels[oid - 1]
        count[(shell, two_j)] = count.get((shell, two_j), 0) + 1
    return sum(two_j - 2 * k for (_, two_j), n in count.items() for k in range(n))


def draw_strengths(rng, n: int) -> np.ndarray:
    """n pair strengths in a uniformly random direction, with a fixed RMS of 1/sqrt(3).

    The fixed norm keeps the energy scale, and so the energy-rule deficit, from
    varying with the draw; the direction is what the seed changes.
    """
    g = rng.normal(size=n)
    return g * math.sqrt(n / 3) / np.linalg.norm(g)


def make_model(name, pairs: PairChannels, occupied, eps, strengths) -> GeneratedModel:
    """Elements `unit @ strengths`, E_HF and 2J_max for one occupation."""
    values = pairs.unit @ np.asarray(strengths, dtype=float)
    two_body = [(key, float(v)) for key, v in zip(pairs.keys, values) if v != 0.0]
    occupied = tuple(sorted(occupied))
    occ = set(occupied)
    e_hf = sum(eps[pairs.labels[oid - 1][0]] for oid in occupied)
    for (i, j, k, l), v in two_body:
        # <ij|V~|ij> over occupied pairs i < j
        if (i, j) == (k, l) and i in occ and j in occ:
            e_hf += v
    return GeneratedModel(
        name=name, labels=pairs.labels, occupied=occupied, eps=dict(eps),
        two_body=two_body, e_hf=float(e_hf),
        two_m=sum(pairs.labels[oid - 1][2] for oid in occupied),
        two_j_max=pauli_two_j_max(pairs.labels, occupied))


def e_hf_from_doc(doc) -> float:
    """<Phi|H|Phi> of a model file: occupied T_ii plus <ij|V~|ij> over occupied pairs."""
    occ = set(doc["occupied"])
    e_hf = sum(r["value"] for r in doc["one_body"] if r["i"] == r["k"] and r["i"] in occ)
    direct: dict[tuple[int, int], float] = {}
    for r in doc["two_body"]:
        i, j, k, l = r["i"], r["j"], r["k"], r["l"]
        if i in occ and j in occ and i != j and {i, j} == {k, l}:
            # closure: <ij|V~|ij> = <ji|V~|ji> = -<ij|V~|ji>
            direct[(min(i, j), max(i, j))] = r["value"] if (i, j) == (k, l) else -r["value"]
    return float(e_hf + sum(direct.values()))


def identical_pair_channels(shell: str, two_j: int):
    """(shell, shell, 2J) for every J two identical fermions in j can couple to."""
    return [(shell, shell, two_jp) for two_jp in range(0, 2 * two_j, 4)]
