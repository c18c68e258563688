"""Command-line front end.

Subcommands:
  spectrum          project a model file onto angular momentum, emit a table or CSV
  cramer            replaced-column determinant demo on matrix/RHS files
  check-projectors  run the projector validation battery over (j, m) pairs

Model files are single JSON documents:

    {"name": "...",
     "basis": [{"id": 1, "shell": "d32", "two_j": 3, "two_m": 1}, ...],
     "occupied": [1, 5],
     "one_body": [{"i": 1, "k": 1, "value": 1.25}, ...],
     "two_body": [{"i": 1, "j": 5, "k": 2, "l": 6, "value": -0.3}, ...]}

ids are dense 1..N; one_body entries close symmetrically, two_body entries
are antisymmetrized elements and close under their sign group.  Exit codes:
0 ok, 2 parse error, 3 model invariant violation, 4 numerical failure,
5 singular matrix (`cramer` only).  Exit 4 covers every non-finite result:
a norm, energy or residual of `spectrum`, a solution, minor or determinant
of `cramer`.  Exit 2 also covers a non-finite `cramer` input and bad
options: an `--out` path that cannot be written, a `--norm-floor`,
`--brillouin-warn` or `--tol-*` value that is not finite and >= 0,
`--radial-points` or `--angular-points` below 1, a negative `--jmax` or
`--mmax` (which would scan no pair), and `--points` below the
exact beta rule of the model's state or above `spectrum.MAX_POINTS`.  Exit
3 also covers orbitals sharing shell, two_j and two_m, a repeated `--J`
value and a T or V element that changes J_z, which the projection assumes
away.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import lalg
from .angmom import InvalidLabel
from .config import DEFAULTS
from .manybody import Model, OneBodyOperator, TwoBodyOperator, make_slater_state
from .projector import (AxialStateVector, integral_projector_matrix, lowdin_apply,
                        radial_projector_moment, radial_projector_moment_exact,
                        series_projector_matrix)
from .spectrum import BadNodeCount, NormTooSmall, SpectrumRequest, energy_spectrum

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MODEL = 3
EXIT_NUMERICAL = 4
EXIT_SINGULAR = 5

CSV_HEADER = "twoJ,normKernel,energyBrillouin,energyLowdin,brillouinResidual"


class ParseError(Exception):
    """Malformed file or field (exit 2)."""


class ModelError(Exception):
    """Well-formed file violating a model invariant (exit 3)."""


def _field(record, name, kind, where):
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


def _two_body_entry(rec, idx: int, n: int, path: str) -> tuple:
    """One two-body record as ((i, j, k, l), value); else the error naming its first fault."""
    where = f"{path}: two_body[{idx}]"
    if not isinstance(rec, dict):
        raise ParseError(f"{where}: must be an object")
    key = tuple(_field(rec, f, int, where) for f in ("i", "j", "k", "l"))
    value = float(_field(rec, "value", float, where))
    for oid in key:
        if not 1 <= oid <= n:
            raise ModelError(f"{where}: id {oid} out of range")
    return key, value


def _two_body(records, n: int, path: str) -> list:
    """[((i, j, k, l), value)] in file order.

    These records hold about nine in ten of a file's fields, so a record with
    integer ids in 1..n and a number inside the float range is taken as it
    stands, with no call per field.  Any other goes through _two_body_entry,
    which accepts it or names its first fault.
    """
    fmax = sys.float_info.max
    ventries = []
    for idx, rec in enumerate(records):
        if type(rec) is dict:
            i, j, k, l, value = map(rec.get, ("i", "j", "k", "l", "value"))
            if (type(i) is int and type(j) is int and type(k) is int and type(l) is int
                    and 0 < i <= n and 0 < j <= n and 0 < k <= n and 0 < l <= n
                    and type(value) in (int, float) and abs(value) <= fmax):
                ventries.append(((i, j, k, l), float(value)))
                continue
        ventries.append(_two_body_entry(rec, idx, n, path))
    return ventries


def load_model(path: str) -> Model:
    """Parse and validate a model file; ParseError/ModelError on failure."""
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
        oid = _field(rec, "id", int, where)
        if oid in seen:
            raise ModelError(f"{path}: duplicate orbital id {oid}")
        seen[oid] = (
            _field(rec, "shell", str, where),
            _field(rec, "two_j", int, where),
            _field(rec, "two_m", int, where),
        )
    n = len(seen)
    if sorted(seen) != list(range(1, n + 1)):
        raise ModelError(f"{path}: orbital ids must be dense 1..{n}, got {sorted(seen)}")

    occupied = []
    for idx, oid in enumerate(doc["occupied"]):
        if isinstance(oid, bool) or not isinstance(oid, int):
            raise ParseError(f"{path}: occupied[{idx}] must be an integer id")
        occupied.append(oid)
    try:  # SlaterState checks the labels and the occupied ids
        state = make_slater_state([seen[i] for i in range(1, n + 1)], occupied)
    except ValueError as exc:
        raise ModelError(f"{path}: {exc}") from exc

    tmat = np.zeros((n, n))
    assigned = {}
    for idx, rec in enumerate(doc["one_body"]):
        where = f"{path}: one_body[{idx}]"
        if not isinstance(rec, dict):
            raise ParseError(f"{where}: must be an object")
        i = _field(rec, "i", int, where)
        k = _field(rec, "k", int, where)
        value = float(_field(rec, "value", float, where))
        if not (1 <= i <= n and 1 <= k <= n):
            raise ModelError(f"{where}: id out of range")
        key = (min(i, k), max(i, k))
        if key in assigned and abs(assigned[key] - value) > 1e-12 * max(1.0, abs(value)):
            raise ModelError(f"{where}: conflicting duplicate for pair {key}: "
                             f"{assigned[key]} vs {value}")
        assigned[key] = value
        tmat[i - 1, k - 1] = tmat[k - 1, i - 1] = value

    ventries = _two_body(doc["two_body"], n, path)

    try:
        model = Model(state=state, t=OneBodyOperator(tmat),
                      v=TwoBodyOperator(ventries), name=name)
    except ValueError as exc:
        raise ModelError(f"{path}: {exc}") from exc
    if (message := model.jz_message) is not None:
        raise ModelError(f"{path}: {message}")
    return model


def model_to_json(model: Model) -> str:
    """Canonical form: sorted ids, one canonical element per symmetry orbit."""
    basis = [{"id": o.id, "shell": o.shell, "two_j": o.two_j, "two_m": o.two_m}
             for o in model.state.orbitals]
    tmat = model.t.matrix
    one_body = [{"i": i + 1, "k": k + 1, "value": tmat[i, k]}
                for i in range(tmat.shape[0]) for k in range(i, tmat.shape[1])
                if tmat[i, k] != 0.0]
    two_body = [{"i": i, "j": j, "k": k, "l": l, "value": v}
                for (i, j, k, l), v in model.v.canonical_items()]
    doc = {"name": model.name, "basis": basis,
           "occupied": list(model.state.occupied),
           "one_body": one_body, "two_body": two_body}
    return json.dumps(doc, indent=2, sort_keys=True)


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def _spectrum_text(result, fmt: str) -> str:
    """The CSV or table report of a spectrum, every line ended by a newline."""
    if fmt == "csv":
        res = _fmt(result.brillouin_residual_max)
        lines = [CSV_HEADER, *(f"{e.two_j},{_fmt(e.norm)},{_fmt(e.energy_brillouin)},"
                               f"{_fmt(e.energy_lowdin)},{res}" for e in result.entries)]
    else:
        lines = [f"{'2J':>4} {'norm kernel':>22} {'E (p-h route)':>22} {'E (kernel route)':>22}"]
        for e in result.entries:
            eb = "-" if e.energy_brillouin is None else f"{e.energy_brillouin:.12g}"
            el = "-" if e.energy_lowdin is None else f"{e.energy_lowdin:.12g}"
            lines.append(f"{e.two_j:>4} {e.norm:>22.12g} {eb:>22} {el:>22}")
        if result.brillouin_residual_max is not None:
            lines.append(f"max stability residual: {result.brillouin_residual_max:.3e}")
        lines += [f"warning: {w}" for w in result.warnings]
    return "\n".join(lines) + "\n"


def cmd_spectrum(args) -> int:
    try:
        model = load_model(args.model)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL

    two_j_list = None
    if args.J != "auto":
        try:
            two_j_list = tuple(int(tok) for tok in args.J.split(","))
        except ValueError:
            print(f"error: --J must be 'auto' or comma-separated 2J integers, got {args.J!r}",
                  file=sys.stderr)
            return EXIT_PARSE
    try:
        request = SpectrumRequest(model=model, two_j_list=two_j_list,
                                  points=args.points, route=args.route,
                                  norm_floor_factor=args.norm_floor,
                                  brillouin_warn=args.brillouin_warn)
    except BadNodeCount as exc:
        print(f"error: --points: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    try:
        # every norm, energy and residual is checked for finiteness below
        with np.errstate(all="ignore"):
            result = energy_spectrum(request)
    except InvalidLabel as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (NormTooSmall, lalg.SizeLimitExceeded, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    finite = math.isfinite  # an absent energy (None) reads as 0.0
    bad = next((e.two_j for e in result.entries
                if not (finite(e.norm) and finite(e.energy_brillouin or 0.0)
                        and finite(e.energy_lowdin or 0.0))), None)
    if bad is not None:
        print(f"error: non-finite result at 2J = {bad}", file=sys.stderr)
        return EXIT_NUMERICAL
    residual = result.brillouin_residual_max
    if residual is not None and not math.isfinite(residual):
        print("error: non-finite stability residual", file=sys.stderr)
        return EXIT_NUMERICAL

    text = _spectrum_text(result, args.format)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_PARSE
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _load_json_array(path: str) -> np.ndarray:
    """The file's nested lists of finite numbers as a float array, else ParseError.

    np.asarray alone reads "1" and true as 1.0 and raises TypeError on an object.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    todo = [data]
    while todo:
        item = todo.pop()
        if isinstance(item, list):
            todo.extend(item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ParseError(f"{path}: entries must be numbers, got {item!r}")
        elif not abs(item) <= sys.float_info.max:
            raise ParseError(f"{path}: entries must be finite, got {item!r}")
    return np.asarray(data, dtype=float)


def cmd_cramer(args) -> int:
    try:
        a = lalg.as_square_matrix(_load_json_array(args.matrix))
        rhs = np.atleast_2d(_load_json_array(args.rhs))
        if a.ndim != 2 or rhs.ndim != 2 or rhs.shape[1] != a.shape[0]:
            raise lalg.DimensionMismatch(f"expected n x n and s x n, got {a.shape} and {rhs.shape}")
        cols = [int(tok) for tok in args.columns.split(",")]
    except (ParseError, ValueError, lalg.DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if len(cols) != rhs.shape[0]:
        print(f"error: {rhs.shape[0]} right-hand sides but {len(cols)} columns",
              file=sys.stderr)
        return EXIT_PARSE
    if any(not 1 <= c <= a.shape[0] for c in cols):
        print(f"error: column positions must be in 1..{a.shape[0]}", file=sys.stderr)
        return EXIT_PARSE

    try:
        det, table = lalg.solution_table(a, rhs)
    except lalg.SingularMatrix as exc:
        print(f"error: singular matrix: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    if not np.isfinite(table.values).all():
        print("error: non-finite solution table", file=sys.stderr)
        return EXIT_NUMERICAL
    rows = list(range(rhs.shape[0]))
    cols0 = [c - 1 for c in cols]
    try:
        # every printed value is checked for finiteness below
        with np.errstate(all="ignore"):
            minor = lalg.replaced_determinant(1.0, table, rows, cols0)
            replaced = lalg.replaced_determinant(det, table, rows, cols0)
    except lalg.DuplicateColumn as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if not all(math.isfinite(x) for x in (det, minor, replaced)):
        print("error: non-finite determinant", file=sys.stderr)
        return EXIT_NUMERICAL

    print(f"det(A) = {det:.12g}")
    print(f"solution minor ({len(cols)}x{len(cols)}) = {minor:.12g}")
    print(f"replaced-column determinant = {replaced:.12g}")
    if a.shape[0] <= lalg.BRUTE_FORCE_LIMIT:
        sub = a.copy()
        for r, c in zip(rows, cols0):
            sub[:, c] = rhs[r]
        check = lalg.brute_force_determinant(sub)
        ok = abs(replaced - check) <= 1e-10 * max(1.0, abs(check))
        print(f"oracle: {'match' if ok else 'MISMATCH'} (cofactor expansion = {check:.12g})")
    return EXIT_OK


def _parse_two(value: str, what: str) -> int:
    """A j value like '2', '2.5' or '5/2' -> doubled integer, refused below 0."""
    try:
        two = 2 * Fraction(value.strip())
        if two.denominator != 1:
            raise ValueError
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{what} must be a half-integer like 2, 2.5 or 5/2, got {value!r}") from None
    if two < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value!r}")
    return int(two)


def cmd_check_projectors(args) -> int:
    two_jmax = args.two_jmax
    if two_jmax > 20:
        print("error: jmax is limited to 10 (2*jmax <= 20)", file=sys.stderr)
        return EXIT_PARSE
    two_mmax = args.two_mmax if args.two_mmax is not None else two_jmax
    rng = np.random.default_rng(int(os.environ.get("PROJECT_SEED", "20260810")))
    failures = 0
    print(f"{'2j':>4} {'2m':>4} {'idempotence':>12} {'annihilation':>12} "
          f"{'radial':>12} {'integral':>12}")
    for two_j in range(0, two_jmax + 1):
        for two_m in range(two_j % 2, min(two_j, two_mmax) + 1, 2):
            dev_idem, dev_ann = _series_checks(two_j, two_m, rng)
            dev_rad = _radial_check(two_j, two_m, args.radial_points)
            dev_int = _integral_check(two_j, two_m, args.radial_points, args.angular_points)
            row_ok = (dev_idem <= args.tol_idempotence
                      and dev_ann <= args.tol_annihilation
                      and (dev_rad is None or dev_rad <= args.tol_radial)
                      and dev_int <= args.tol_integral)
            failures += not row_ok
            rad = "-" if dev_rad is None else f"{dev_rad:.2e}"
            print(f"{two_j:>4} {two_m:>4} {dev_idem:>12.2e} {dev_ann:>12.2e} "
                  f"{rad:>12} {dev_int:>12.2e}" + ("" if row_ok else "  FAIL"))
    if failures:
        print(f"{failures} (j, m) pair(s) exceeded tolerance", file=sys.stderr)
        return EXIT_NUMERICAL
    print("all projector checks passed")
    return EXIT_OK


def _series_checks(two_j, two_m, rng) -> tuple[float, float]:
    two_j_max = two_j + 8
    nslots = (two_j_max - two_m) // 2 + 1
    phi = AxialStateVector(two_m, two_j_max, rng.uniform(-1, 1, nslots))
    once = lowdin_apply(two_j, two_m, phi)
    twice = lowdin_apply(two_j, two_m, once)
    dev_idem = float(np.abs(twice.coefficients - once.coefficients).max())
    dev_ann = 0.0
    for two_l in phi.two_j_values():
        if two_l == two_j:
            continue
        unit = np.zeros(nslots)
        unit[phi.slot(two_l)] = 1.0
        out = lowdin_apply(two_j, two_m, AxialStateVector(two_m, two_j_max, unit))
        dev_ann = max(dev_ann, float(np.abs(out.coefficients).max()))
    return dev_idem, dev_ann


def _radial_check(two_j, two_m, radial_points) -> float | None:
    if (two_j - two_m) // 2 > 4:
        return None
    dev = 0.0
    for r in range(5):
        exact = float(radial_projector_moment_exact(two_j, two_m, r))
        quad = radial_projector_moment(two_j, two_m, r, radial_points)
        dev = max(dev, abs(quad - exact) / abs(exact))
    return dev


def _integral_check(two_j, two_m, radial_points, angular_points) -> float:
    two_j_max = two_j + 6
    try:
        mat = integral_projector_matrix(two_j, two_m, two_j_max,
                                        radial_points, angular_points)
    except ArithmeticError:
        return float("inf")
    series = series_projector_matrix(two_j, two_m, two_j_max)
    return float(np.abs(mat - series).max())


def _non_negative(value: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {value!r}") from None
    if not (math.isfinite(x) and x >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value!r}")
    return x


def _positive(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value!r}")
    return n


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="project",
        description="Angular-momentum projection of Slater determinants")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="projected energy spectrum of a model file")
    sp.add_argument("model", help="model JSON file")
    sp.add_argument("--points", type=int, default=None,
                    help="beta nodes, at least the exact rule's 2J_max // 2 + 1 "
                         "(default: that rule)")
    sp.add_argument("--route", choices=["both", "brillouin", "lowdin"], default="both")
    sp.add_argument("--J", default="auto",
                    help="'auto' or comma-separated doubled values (2J), e.g. 2,4")
    sp.add_argument("--format", choices=["table", "csv"], default="table")
    sp.add_argument("--out", default=None, help="write the report to a file")
    sp.add_argument("--norm-floor", type=_non_negative, default=DEFAULTS.norm_floor_factor,
                    help="declare a J absent below this fraction of the largest norm "
                         "(default %(default)s)")
    sp.add_argument("--brillouin-warn", type=_non_negative, default=DEFAULTS.brillouin_warn,
                    help="stability residual that triggers a warning (default %(default)s)")
    sp.set_defaults(fn=cmd_spectrum)

    cr = sub.add_parser("cramer", help="replaced-column determinant demo")
    cr.add_argument("matrix", help="JSON file with the square matrix A (array of rows)")
    cr.add_argument("rhs", help="JSON file with right-hand sides (array of vectors)")
    cr.add_argument("--columns", required=True,
                    help="comma-separated 1-based column positions to replace")
    cr.set_defaults(fn=cmd_cramer)

    cp = sub.add_parser("check-projectors", help="projector validation battery")
    cp.add_argument("--jmax", dest="two_jmax", default="3",
                    type=lambda s: _parse_two(s, "jmax"),
                    help="largest j checked (half-integers allowed), default 3")
    cp.add_argument("--mmax", dest="two_mmax", default=None,
                    type=lambda s: _parse_two(s, "mmax"),
                    help="largest m checked, default jmax")
    cp.add_argument("--radial-points", type=_positive, default=DEFAULTS.radial_points)
    cp.add_argument("--angular-points", type=_positive, default=DEFAULTS.angular_points)
    for check, default in (("idempotence", DEFAULTS.projector_idempotence),
                           ("annihilation", DEFAULTS.projector_annihilation),
                           ("radial", DEFAULTS.radial_identity_rel),
                           ("integral", DEFAULTS.integral_vs_series)):
        cp.add_argument(f"--tol-{check}", type=_non_negative, default=default)
    cp.set_defaults(fn=cmd_check_projectors)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
