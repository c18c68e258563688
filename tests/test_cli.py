import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amproj.angmom import clebsch_gordan
from amproj.cli import (CSV_HEADER, EXIT_MODEL, EXIT_NUMERICAL, EXIT_OK, EXIT_PARSE,
                        EXIT_SINGULAR, load_model, main, model_to_json)
from tests.support import sign_orbit_key, two_shell_m1_model

FIXTURE = str(Path(__file__).parent / "fixtures" / "two_shell_M1.model")


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(p)


class TestModelIO:
    def test_fixture_loads(self):
        model = load_model(FIXTURE)
        assert model.name == "two_shell_M1"
        assert model.state.occupied == (2, 5)
        assert model.state.n_basis == 6

    def test_round_trip_is_identity(self, tmp_path):
        model = load_model(FIXTURE)
        text = model_to_json(model)
        p = write(tmp_path, "again.model", text)
        again = load_model(p)
        assert model_to_json(again) == text
        assert again.state == model.state
        assert np.array_equal(again.t.matrix, model.t.matrix)
        assert again.v.items() == model.v.items()

    def test_fixture_matches_programmatic_model(self):
        model = load_model(FIXTURE)
        built = two_shell_m1_model()
        assert np.array_equal(model.t.matrix, built.t.matrix)
        for (key, val), (key2, val2) in zip(model.v.items(), built.v.items()):
            assert key == key2
            assert val == pytest.approx(val2, abs=1e-15)

    def test_duplicate_id_names_the_id(self, tmp_path, capsys):
        doc = json.loads(Path(FIXTURE).read_text())
        doc["basis"][1]["id"] = 1
        p = write(tmp_path, "dup.model", doc)
        assert main(["spectrum", p]) == EXIT_MODEL
        assert "duplicate orbital id 1" in capsys.readouterr().err

    def test_invalid_json_is_parse_error(self, tmp_path, capsys):
        p = write(tmp_path, "broken.model", "{not json")
        assert main(["spectrum", p]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "invalid JSON" in err and ":1:" in err

    def test_missing_field_is_parse_error(self, tmp_path, capsys):
        doc = json.loads(Path(FIXTURE).read_text())
        del doc["basis"][0]["two_j"]
        p = write(tmp_path, "nofield.model", doc)
        assert main(["spectrum", p]) == EXIT_PARSE
        assert "basis[0]" in capsys.readouterr().err

    def test_conflicting_two_body_rejected(self, tmp_path, capsys):
        doc = json.loads(Path(FIXTURE).read_text())
        e = dict(doc["two_body"][0])
        e["value"] = e["value"] + 1.0
        doc["two_body"].append(e)
        p = write(tmp_path, "conflict.model", doc)
        assert main(["spectrum", p]) == EXIT_MODEL
        assert "conflicting duplicate" in capsys.readouterr().err

    @pytest.mark.parametrize("section,bad", [("one_body", float("nan")),
                                             ("two_body", float("inf")),
                                             ("one_body", -10 ** 400)])
    def test_non_finite_number_is_parse_error(self, tmp_path, capsys, section, bad):
        doc = json.loads(Path(FIXTURE).read_text())
        # the occupied diagonal entry of the one-body table, or the first element
        idx = next(n for n, rec in enumerate(doc[section])
                   if section == "two_body" or rec["i"] == rec["k"] == 2)
        doc[section][idx]["value"] = bad
        p = write(tmp_path, "nonfinite.model", doc)  # json writes NaN / Infinity
        assert main(["spectrum", p]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"{section}[{idx}]" in err and "'value' must be finite" in err

    def test_oversized_integer_is_parse_error(self, tmp_path, capsys):
        text = Path(FIXTURE).read_text().replace('"value": 1.1', '"value": 1' + "0" * 5000, 1)
        assert text != Path(FIXTURE).read_text()
        p = write(tmp_path, "huge.model", text)
        assert main(["spectrum", p]) == EXIT_PARSE
        assert "invalid number" in capsys.readouterr().err

    def test_occupied_outside_basis(self, tmp_path, capsys):
        doc = json.loads(Path(FIXTURE).read_text())
        doc["occupied"] = [2, 9]
        p = write(tmp_path, "badocc.model", doc)
        assert main(["spectrum", p]) == EXIT_MODEL
        assert "occupied id 9" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_fixture_csv_values(self, capsys):
        assert main(["spectrum", FIXTURE, "--format", "csv"]) == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == CSV_HEADER
        rows = {int(line.split(",")[0]): line.split(",") for line in out[1:]}
        assert set(rows) == {2, 4}
        # pinned against the coupled-pair oracle (eps_sum + g_J)
        assert float(rows[2][1]) == pytest.approx(1 / 6, abs=1e-9)
        assert float(rows[4][1]) == pytest.approx(3 / 10, abs=1e-9)
        assert float(rows[2][2]) == pytest.approx(-0.6, abs=1e-8)
        assert float(rows[2][3]) == pytest.approx(-0.6, abs=1e-8)
        assert float(rows[4][2]) == pytest.approx(1.15, abs=1e-8)
        assert float(rows[4][3]) == pytest.approx(1.15, abs=1e-8)
        assert float(rows[2][4]) == 0.0

    def test_csv_deterministic_across_runs(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["spectrum", FIXTURE, "--format", "csv", "--out", str(out1)]) == EXIT_OK
        assert main(["spectrum", FIXTURE, "--format", "csv", "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_route_selection_leaves_other_column_empty(self, capsys):
        assert main(["spectrum", FIXTURE, "--format", "csv", "--route", "brillouin"]) == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        for line in out[1:]:
            cells = line.split(",")
            assert cells[3] == ""  # kernel-route column absent, empty not NaN
            assert cells[2] != ""

    def test_explicit_j_list(self, capsys):
        assert main(["spectrum", FIXTURE, "--J", "2", "--format", "csv"]) == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2 and out[1].startswith("2,")

    def test_numerical_failure_exit(self, tmp_path, capsys):
        # stretched M=2 model: request only the absent J=3 component
        doc = json.loads(Path(FIXTURE).read_text())
        doc["occupied"] = [1, 5]
        p = write(tmp_path, "m2.model", doc)
        assert main(["spectrum", p, "--J", "6"]) == EXIT_NUMERICAL

    def test_interaction_free_model_constant_energy(self, tmp_path, capsys):
        doc = json.loads(Path(FIXTURE).read_text())
        doc["two_body"] = []
        p = write(tmp_path, "free.model", doc)
        assert main(["spectrum", p, "--format", "csv"]) == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        for line in out[1:]:
            cells = line.split(",")
            assert float(cells[2]) == pytest.approx(0.7, abs=1e-9)
            assert float(cells[3]) == pytest.approx(0.7, abs=1e-9)

    def test_sixteen_orbitals_default_route(self, tmp_path, capsys):
        # one j=15/2 shell with 6 particles, pair-J interaction: beyond the
        # size of any Fock-space oracle, on the default route (both)
        labels = [("j15", 15, m) for m in range(15, -16, -2)]
        m_of = {oid: m for oid, (_, _, m) in enumerate(labels, start=1)}
        entries = {}
        for two_jp, g in zip(range(0, 30, 4), (-1.0, -0.4, 0.3, 0.1, 0.2, -0.2, 0.05, 0.15)):
            for two_mp in range(-two_jp, two_jp + 1, 2):
                amps = {(p, q): math.sqrt(2) * clebsch_gordan(15, m_of[p], 15, m_of[q],
                                                              two_jp, two_mp)
                        for p in m_of for q in m_of if p < q and m_of[p] + m_of[q] == two_mp}
                for bra, x in amps.items():
                    for ket, y in amps.items():
                        if bra <= ket and x * y != 0.0:
                            entries[bra + ket] = entries.get(bra + ket, 0.0) + g * x * y
        doc = {"name": "j15-6",
               "basis": [{"id": oid, "shell": s, "two_j": j, "two_m": m}
                         for oid, (s, j, m) in enumerate(labels, start=1)],
               "occupied": [16, 15, 12, 6, 4, 2],
               "one_body": [{"i": oid, "k": oid, "value": 0.5} for oid in m_of],
               "two_body": [{"i": i, "j": j, "k": k, "l": l, "value": v}
                            for (i, j, k, l), v in entries.items()]}
        p = write(tmp_path, "j15.model", doc)
        assert main(["spectrum", p, "--format", "csv"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        out = captured.out.strip().splitlines()
        assert out[0] == CSV_HEADER
        assert int(out[1].split(",")[0]) == 8  # |2M|
        for line in out[1:]:
            cells = [c for c in line.split(",") if c]
            assert len(cells) >= 3 and all(math.isfinite(float(c)) for c in cells)

    def test_filled_basis_default_route(self, tmp_path, capsys):
        # no unoccupied orbital: the stability residual is over no pairs
        doc = {"name": "filled",
               "basis": [{"id": 1, "shell": "s", "two_j": 1, "two_m": 1},
                         {"id": 2, "shell": "s", "two_j": 1, "two_m": -1}],
               "occupied": [1, 2],
               "one_body": [{"i": 1, "k": 1, "value": 0.5}, {"i": 2, "k": 2, "value": 0.5}],
               "two_body": [{"i": 1, "j": 2, "k": 1, "l": 2, "value": -0.3}]}
        p = write(tmp_path, "filled.model", doc)
        assert main(["spectrum", p, "--format", "csv"]) == EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        two_j, norm, e_ph, e_kernel, residual = rows[0]
        assert (two_j, residual) == ("0", "0.0")
        assert float(norm) == pytest.approx(2.0, abs=1e-12)  # (2J+1)/2 n_J sums to 1
        assert float(e_ph) == pytest.approx(0.7, abs=1e-12)
        assert float(e_kernel) == pytest.approx(0.7, abs=1e-12)

    def test_bad_points_rejected(self, capsys):
        assert main(["spectrum", FIXTURE, "--points", "4"]) == EXIT_PARSE

    @pytest.mark.parametrize("route,message", [("both", "non-finite result at 2J = 2"),
                                               ("brillouin", "non-finite stability residual")])
    def test_non_finite_result_exits_numerical(self, tmp_path, capsys, route, message):
        doc = json.loads(Path(FIXTURE).read_text())
        if route == "both":  # the kernel-route energies overflow
            for rec in doc["one_body"]:
                if rec["i"] == rec["k"] == 1:
                    rec["value"] = 1e308
            doc["one_body"].append({"i": 1, "k": 2, "value": 1e308})
        else:  # only the mean field h_12 = T_12 + <25|V~|15> overflows
            doc["one_body"].append({"i": 1, "k": 2, "value": 1e308})
            doc["two_body"].append({"i": 2, "j": 5, "k": 1, "l": 5, "value": 1e308})
        p = write(tmp_path, "overflow.model", doc)
        assert main(["spectrum", p, "--format", "csv", "--route", route]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_j_above_pauli_limit_is_absent_row(self, capsys):
        # the fixture holds 2J <= 4; no quadrature runs for the absent row
        assert main(["spectrum", FIXTURE, "--J", "2,100000000", "--format", "csv"]) == EXIT_OK
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert rows[1].split(",")[:4] == ["100000000", "0.0", "", ""]
        assert float(rows[0].split(",")[2]) == pytest.approx(-0.6, abs=1e-8)

    def test_two_j_above_small_d_limit_is_model_error(self, tmp_path, capsys):
        doc = {"name": "one", "basis": [{"id": 1, "shell": "x", "two_j": 91, "two_m": 91}],
               "occupied": [1], "one_body": [], "two_body": []}
        p = write(tmp_path, "big_j.model", doc)
        assert main(["spectrum", p, "--format", "csv"]) == EXIT_MODEL
        assert "two_j = 91 exceeds 90" in capsys.readouterr().err

    def test_repeated_label_is_model_error(self, tmp_path, capsys):
        doc = json.loads(Path(FIXTURE).read_text())
        doc["basis"][5]["two_m"] = 1  # a second s12 orbital with m = 1/2
        p = write(tmp_path, "repeat.model", doc)
        assert main(["spectrum", p]) == EXIT_MODEL
        assert "orbitals 5 and 6 share shell, two_j and two_m" in capsys.readouterr().err


@st.composite
def model_documents(draw):
    """Model JSON over 1-4 orbitals with 2j over the full integer range: a
    well-formed model or one with a single defect (a bad value, id, label
    or occupied list)."""
    n = draw(st.integers(1, 4))
    basis = []
    for oid in range(1, n + 1):
        two_j = draw(st.integers(0, 5))
        basis.append({"id": oid, "shell": draw(st.sampled_from("abc")), "two_j": two_j,
                      "two_m": two_j - 2 * draw(st.integers(0, two_j))})
    ids, value = st.integers(1, n), st.floats(-2.0, 2.0)
    one_body = draw(st.lists(st.fixed_dictionaries({"i": ids, "k": ids, "value": value}),
                             max_size=4, unique_by=lambda r: tuple(sorted((r["i"], r["k"])))))
    pair = st.lists(ids, min_size=2, max_size=2, unique=True)
    two_body = [] if n < 2 else [
        {"i": i, "j": j, "k": k, "l": l, "value": draw(value)}
        for i, j, k, l in draw(st.lists(st.tuples(pair, pair).map(lambda p: (*p[0], *p[1])),
                                        max_size=6, unique_by=sign_orbit_key))]
    doc = {"name": "fuzz", "basis": basis, "one_body": one_body, "two_body": two_body,
           "occupied": draw(st.lists(ids, min_size=1, max_size=n, unique=True))}
    defect = draw(st.sampled_from([None, None, "two_j", "two_j", "value", "id", "label",
                                   "occupied"]))
    records = one_body + two_body
    if defect == "two_j":
        two_j = draw(st.one_of(st.integers(86, 94), st.integers()))
        orbital = draw(st.sampled_from(basis))
        orbital["two_j"], orbital["two_m"] = two_j, two_j
    if defect == "value" and records:
        draw(st.sampled_from(records))["value"] = draw(st.sampled_from(
            [1e308, -1e308, float("nan"), float("inf"), 10 ** 400, "x", None]))
    elif defect == "id" and records:
        draw(st.sampled_from(records))["i"] = draw(st.sampled_from([0, -1, n + 1, 1.5, "1"]))
    elif defect == "label":
        draw(st.sampled_from(basis))["two_m"] = draw(st.integers())
    elif defect == "occupied":
        doc["occupied"] = draw(st.lists(st.integers(-1, n + 2), max_size=n + 1))
    return doc


@given(model_documents())
def test_any_model_file_gets_a_documented_exit(doc):
    """Exit 0 with finite values, or a documented error exit; never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.model"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["spectrum", str(path), "--format", "csv"])
    assert code in {EXIT_OK, EXIT_PARSE, EXIT_MODEL, EXIT_NUMERICAL, EXIT_SINGULAR}
    assert "Traceback" not in err.getvalue()
    if code == EXIT_OK:
        rows = out.getvalue().strip().splitlines()
        assert rows[0] == CSV_HEADER and len(rows) > 1
        assert all(math.isfinite(float(cell)) for row in rows[1:] for cell in row.split(",")
                   if cell)


class TestCramerCommand:
    def test_diag_example(self, tmp_path, capsys):
        a = write(tmp_path, "A.json", [[2, 0, 0], [0, 3, 0], [0, 0, 4]])
        b = write(tmp_path, "B.json", [[1, 1, 1], [2, 0, 1]])
        assert main(["cramer", a, b, "--columns", "1,3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "det(A) = 24" in out
        assert "replaced-column determinant = -3" in out
        assert "oracle: match" in out

    def test_identity_single_replacement(self, tmp_path, capsys):
        a = write(tmp_path, "A.json", [[1, 0], [0, 1]])
        b = write(tmp_path, "B.json", [[7, 9]])
        assert main(["cramer", a, b, "--columns", "2"]) == EXIT_OK
        assert "replaced-column determinant = 9" in capsys.readouterr().out

    def test_non_square_is_parse_error(self, tmp_path, capsys):
        a = write(tmp_path, "A.json", [[1, 0, 0], [0, 1, 0]])
        b = write(tmp_path, "B.json", [[1, 1, 1]])
        assert main(["cramer", a, b, "--columns", "1"]) == EXIT_PARSE

    def test_singular_matrix_exit(self, tmp_path, capsys):
        a = write(tmp_path, "A.json", [[1, 2], [2, 4]])
        b = write(tmp_path, "B.json", [[1, 1]])
        assert main(["cramer", a, b, "--columns", "1"]) == EXIT_SINGULAR

    def test_mismatched_columns_count(self, tmp_path, capsys):
        a = write(tmp_path, "A.json", [[1, 0], [0, 1]])
        b = write(tmp_path, "B.json", [[7, 9]])
        assert main(["cramer", a, b, "--columns", "1,2"]) == EXIT_PARSE


class TestCheckProjectorsCommand:
    def test_small_scan_passes(self, capsys):
        assert main(["check-projectors", "--jmax", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all projector checks passed" in out

    def test_jmax_zero_trivial_pass(self, capsys):
        assert main(["check-projectors", "--jmax", "0"]) == EXIT_OK

    def test_half_integer_jmax(self, capsys):
        assert main(["check-projectors", "--jmax", "3/2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert " 3 " in out.splitlines()[-2] or "3" in out

    def test_reduced_angular_points_fails(self, capsys):
        assert main(["check-projectors", "--jmax", "1", "--angular-points", "3"]) == \
            EXIT_NUMERICAL

    def test_jmax_limit(self, capsys):
        assert main(["check-projectors", "--jmax", "11"]) == EXIT_PARSE
