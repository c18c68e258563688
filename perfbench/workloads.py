"""The benchmark's workloads: how each one sets up, issues and checks requests.

A workload is built from the imported library (`lib`, a namespace holding
its modules), the run's seed, a scratch directory and its coupling tables
(`tables()`, which depend on neither seed nor library and are built once per
run, outside the timed set-up).  `next()` makes the next request's inputs
(untimed), `serve()` hands them to the library (timed) and `check()` turns
the output into an `Outcome`.

Occupations of `shells-30` and of the `cli-both-12` model files come from a
fixed stream (`OCCUPATION_STREAM`), so every run sees the same mix of cheap
requests and requests that hit singular beta nodes, and medians compare
across seeds.  The seed draws every set of pair strengths.  Single-particle
energies are constant per shell.  Each stream yields distinct occupations.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from models import (GeneratedModel, PairChannels, draw_strengths, e_hf_from_doc,
                    identical_pair_channels, make_model, shell_labels)

OCCUPATION_STREAM = 20090129

CSV_HEADER = "twoJ,normKernel,energyBrillouin,energyLowdin,brillouinResidual"

ANCHOR_MODEL = "tests/fixtures/two_shell_M1.model"
ANCHOR_ENERGIES = {2: 0.7 - 1.3, 4: 0.7 + 0.45}  # E_J = eps_d + eps_s + g_J
ANCHOR_TOLERANCE = 1e-8


@dataclass
class Outcome:
    """One request's verdict and its accuracy against the exact identities."""

    failure: str | None = None  # exception type or failure kind
    rows: list[tuple] = field(default_factory=list)  # (2J, n_J, E_p-h, E_kernel)
    useful_rows: int = 0
    sum_deficit: float | None = None
    energy_deficit: float | None = None  # worst over the routes that ran
    route_delta: float | None = None


def assess(rows, e_hf: float, physical_two_j, routes) -> Outcome:
    """Failure checks, then sum rule, energy rule and route agreement."""
    out = Outcome(rows=rows)
    values = [v for row in rows for v in row[1:] if v is not None]
    if not all(math.isfinite(v) for v in values):
        out.failure = "NonFinite"
        return out
    present = {row[0] for row in rows}
    if not set(physical_two_j) <= present:
        out.failure = "MissingRow"
        return out
    top = max(physical_two_j)
    out.useful_rows = sum(1 for row in rows if row[0] <= top)
    out.sum_deficit = abs(sum((tj + 1) / 2 * n for tj, n, _, _ in rows) - 1.0)
    col = {"brillouin": 2, "lowdin": 3}
    deficits = []
    for route in routes:
        total = sum((row[0] + 1) / 2 * row[1] * row[col[route]]
                    for row in rows if row[col[route]] is not None)
        deficits.append(abs(total - e_hf) / max(1.0, abs(e_hf)))
    out.energy_deficit = max(deficits)
    if len(routes) == 2:
        out.route_delta = max((abs(eb - el) for _, _, eb, el in rows
                               if eb is not None and el is not None), default=0.0)
    return out


def serve_cli(lib, path: str):
    """`project spectrum <path> --format csv` in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = lib.cli.main(["spectrum", path, "--format", "csv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def parse_cli(raw) -> tuple[str | None, list[tuple]]:
    """(failure, rows) from a serve_cli result."""
    code, stdout, stderr = raw
    if code != 0:
        return f"Exit{code}", []
    if "Traceback" in stderr:
        return "Traceback", []
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return "BadOutput", []
    rows = []
    try:
        for line in lines[1:]:
            two_j, norm, eb, el, _ = line.split(",")
            rows.append((int(two_j), float(norm), float(eb) if eb else None,
                         float(el) if el else None))
    except ValueError:
        return "BadOutput", []
    return None, rows


def anchor(lib, root) -> Outcome:
    """Project the two-shell fixture on both routes; E_J = 0.7 + g_J exactly."""
    path = root / ANCHOR_MODEL
    with open(path) as fh:
        e_hf = e_hf_from_doc(json.load(fh))
    failure, rows = parse_cli(serve_cli(lib, str(path)))
    if failure:
        return Outcome(failure=failure)
    out = assess(rows, e_hf, tuple(ANCHOR_ENERGIES), ("brillouin", "lowdin"))
    if out.failure:
        return out
    for two_j, want in ANCHOR_ENERGIES.items():
        row = next(r for r in rows if r[0] == two_j)
        if any(e is None or abs(e - want) > ANCHOR_TOLERANCE for e in row[2:]):
            out.failure = "AnchorMismatch"
    return out


def _occupation_stream(n_orbitals: int, n_particles: int):
    """Distinct occupations (1-based orbital ids), always in the same order."""
    rng = np.random.default_rng(OCCUPATION_STREAM)
    seen = set()
    while True:
        occ = tuple(sorted(int(i) + 1 for i in rng.choice(n_orbitals, n_particles, replace=False)))
        if occ not in seen:
            seen.add(occ)
            yield occ


class Workload:
    """Base: a request builds its model and calls `energy_spectrum` (kernel route).

    Subclasses choose the models; `CliBoth12` also replaces serve and check.
    """

    routes = ("lowdin",)

    def serve(self, gm: GeneratedModel):
        mb, sp = self.lib.manybody, self.lib.spectrum
        model = mb.Model(state=mb.make_slater_state(gm.labels, gm.occupied),
                         t=mb.OneBodyOperator(np.diag(gm.one_body_diagonal())),
                         v=mb.TwoBodyOperator(gm.two_body), name=gm.name)
        result = sp.energy_spectrum(sp.SpectrumRequest(model=model, route="lowdin"))
        return [(e.two_j, e.norm, e.energy_brillouin, e.energy_lowdin)
                for e in result.entries]

    def check(self, gm: GeneratedModel, rows) -> Outcome:
        return assess(rows, gm.e_hf, gm.physical_two_j(), self.routes)

    def warm_up(self) -> Outcome:
        gm = self.warm_up_model
        return self.check(gm, self.serve(gm))


class ScanJ15(Workload):
    """One j=15/2 shell, 6 particles at 2M = -8; fresh g_J on every request."""

    name = "scan-j15"
    occupied_two_m = (-15, -13, -7, 5, 9, 13)
    eps = {"j15": 0.5}

    @staticmethod
    def tables() -> PairChannels:
        return PairChannels.build(shell_labels([("j15", 15)]), identical_pair_channels("j15", 15))

    def __init__(self, lib, seed: int, workdir, pairs: PairChannels):
        self.lib = lib
        self.rng = np.random.default_rng(seed)
        self.pairs = pairs
        self.occupied = tuple(pairs.labels.index(("j15", 15, m)) + 1
                              for m in self.occupied_two_m)
        self.warm_up_model = self.next()

    def next(self) -> GeneratedModel:
        strengths = draw_strengths(self.rng, len(self.pairs.channels))
        return make_model(self.name, self.pairs, self.occupied, self.eps, strengths)


SHELLS_30 = (("g9", 9), ("f7", 7), ("d5", 5), ("p3", 3), ("s1", 1))


class Shells30(Workload):
    """30 orbitals in five shells, 10 particles; every request a new model.

    About half of the occupations meet singular beta nodes, and requests cost
    from under 1 s to about 7 s, so a run of under a minute serves some 20 to
    30 requests and its median and tail move with how many of them fit.  It
    is therefore left out of the workloads `BENCHMARK.json` gates on.
    """

    name = "shells-30"
    eps = {"g9": 1.0, "f7": 0.5, "d5": 0.0, "p3": -0.5, "s1": -1.0}

    @staticmethod
    def tables() -> PairChannels:
        channels = [c for shell, two_j in SHELLS_30 for c in identical_pair_channels(shell, two_j)]
        for (a, ja), (b, jb) in itertools.combinations(SHELLS_30, 2):
            channels += [(a, b, two_jp) for two_jp in range(abs(ja - jb), ja + jb + 1, 2)]
        return PairChannels.build(shell_labels(SHELLS_30), channels)

    def __init__(self, lib, seed: int, workdir, pairs: PairChannels):
        self.lib = lib
        self.rng = np.random.default_rng(seed)
        self.pairs = pairs
        self.occupations = _occupation_stream(len(pairs.labels), 10)
        self.warm_up_model = self.next()

    def next(self) -> GeneratedModel:
        strengths = draw_strengths(self.rng, len(self.pairs.channels))
        return make_model(self.name, self.pairs, next(self.occupations), self.eps, strengths)


class CliBoth12(Workload):
    """`project spectrum` on 12-orbital j=11/2 model files, default route `both`."""

    name = "cli-both-12"
    routes = ("brillouin", "lowdin")
    pool_size = 16
    eps = {"h11": 0.5}

    @staticmethod
    def tables() -> PairChannels:
        return PairChannels.build(shell_labels([("h11", 11)]), identical_pair_channels("h11", 11))

    def __init__(self, lib, seed: int, workdir, pairs: PairChannels):
        self.lib = lib
        rng = np.random.default_rng(seed)
        occupations = _occupation_stream(len(pairs.labels), 6)
        self.pool = []
        for k in range(self.pool_size):
            gm = make_model(self.name, pairs, next(occupations),
                            self.eps, draw_strengths(rng, len(pairs.channels)))
            path = workdir / f"{self.name}-{k}.model"
            path.write_text(json.dumps(gm.to_json_doc()))
            self.pool.append((gm, str(path)))
        self.cursor = itertools.cycle(self.pool)
        self.warm_up_model = self.pool[0]

    def next(self):
        return next(self.cursor)

    def serve(self, request):
        return serve_cli(self.lib, request[1])

    def check(self, request, raw) -> Outcome:
        failure, rows = parse_cli(raw)
        if failure:
            return Outcome(failure=failure)
        gm = request[0]
        return assess(rows, gm.e_hf, gm.physical_two_j(), self.routes)


WORKLOADS = {w.name: w for w in (ScanJ15, Shells30, CliBoth12)}
