import io
import json
import math
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amproj import cli, manybody, spectrum
from amproj.cli import (CSV_HEADER, EXIT_MODEL, EXIT_NUMERICAL, EXIT_OK, EXIT_PARSE,
                        EXIT_SINGULAR, ModelError, ParseError, build_parser, load_model, main,
                        model_to_json)
from tests.support import (load_model_oracle, near_singular, scan_j15_model, sign_orbit_key,
                           two_body_table, two_shell_m1_model)

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
        assert sorted(two_body_table(again.v).items()) == sorted(two_body_table(model.v).items())

    def test_json_of_elements_under_other_orbit_keys(self):
        # each element is written once, under the smallest key of its sign orbit
        labels = [("p32", 3, 3), ("p32", 3, 1), ("p32", 3, -1), ("p32", 3, -3)]
        v = manybody.TwoBodyOperator([((2, 1, 4, 3), 0.25), ((4, 3, 2, 1), 0.25),
                                      ((4, 2, 3, 1), -0.75), ((3, 2, 2, 3), 1.5),
                                      ((3, 4, 1, 2), 0.25)])
        model = manybody.Model(state=manybody.make_slater_state(labels, occupied=(1, 3)),
                               t=manybody.OneBodyOperator(0.5 * np.eye(4)), v=v, name="images")
        want = {"name": "images", "occupied": [1, 3],
                "basis": [{"id": oid, "shell": shell, "two_j": two_j, "two_m": two_m}
                          for oid, (shell, two_j, two_m) in enumerate(labels, start=1)],
                "one_body": [{"i": oid, "k": oid, "value": 0.5} for oid in range(1, 5)],
                "two_body": [{"i": 1, "j": 2, "k": 3, "l": 4, "value": 0.25},
                             {"i": 1, "j": 3, "k": 2, "l": 4, "value": -0.75},
                             {"i": 2, "j": 3, "k": 2, "l": 3, "value": -1.5}]}
        assert model_to_json(model) == json.dumps(want, indent=2, sort_keys=True)

    def test_fixture_matches_programmatic_model(self):
        model = load_model(FIXTURE)
        built = two_shell_m1_model()
        assert np.array_equal(model.t.matrix, built.t.matrix)
        for (key, val), (key2, val2) in zip(sorted(two_body_table(model.v).items()),
                                            sorted(two_body_table(built.v).items())):
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

    def test_golden_csv_is_within_4_ulp_of_the_exact_spectrum(self):
        # the golden bytes carry rounding; the values they round must stay the
        # coupled-pair spectrum n_2 = 1/6, n_4 = 3/10, E_2 = -3/5, E_4 = 23/20
        exact = {2: (Fraction(1, 6), Fraction(-3, 5), Fraction(-3, 5), 0),
                 4: (Fraction(3, 10), Fraction(23, 20), Fraction(23, 20), 0)}
        lines = (Path(FIXTURE).parent / "two_shell_M1.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        rows = {int(two_j): values for two_j, *values in (line.split(",") for line in lines[1:])}
        assert rows.keys() == exact.keys()
        for two_j, values in rows.items():
            for got, want in zip(map(float, values), exact[two_j]):
                assert abs(Fraction(got) - want) <= 4 * math.ulp(float(want))

    @pytest.mark.parametrize("fmt,golden", [("csv", "two_shell_M1.csv"),
                                            ("table", "two_shell_M1.table")])
    def test_fixture_report_matches_golden_file(self, capsys, tmp_path, fmt, golden):
        # byte for byte, on standard output and through --out
        want = (Path(FIXTURE).parent / golden).read_bytes()
        argv = ["spectrum", FIXTURE, "--route", "both", "--format", fmt]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.encode() == want and captured.err == ""
        out = tmp_path / golden
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == want and capsys.readouterr().out == ""

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

    def test_repeated_j_is_model_error(self, capsys):
        # the 2J = 2 row would otherwise be printed twice
        assert main(["spectrum", FIXTURE, "--J", "2,2,4", "--format", "csv"]) == EXIT_MODEL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be distinct and at least one, got (2, 2, 4)" in captured.err

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
        p = write(tmp_path, "j15.model", model_to_json(scan_j15_model()))
        assert main(["spectrum", p, "--format", "csv"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        out = captured.out.strip().splitlines()
        assert out[0] == CSV_HEADER
        assert int(out[1].split(",")[0]) == 8  # |2M|
        rows = [[float(c) if c else None for c in line.split(",")] for line in out[1:]]
        for row in rows:
            assert len([c for c in row if c is not None]) >= 3
            assert all(math.isfinite(c) for c in row if c is not None)
        assert sum((tj + 1) / 2 * n for tj, n, *_ in rows) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("section,element,message", [
        ("one_body", {"i": 1, "k": 2, "value": 0.1}, "one_body element (1, 2) changes 2M "
                                                     "from 1 to 3"),
        ("two_body", {"i": 2, "j": 5, "k": 1, "l": 5, "value": 0.1},
         "two_body element (1, 5, 2, 5) changes 2M from 2 to 4")])
    def test_element_changing_j_z_is_model_error(self, tmp_path, capsys, section, element,
                                                 message):
        doc = json.loads(Path(FIXTURE).read_text())
        doc[section].append(element)
        assert main(["spectrum", write(tmp_path, "jz.model", doc)]) == EXIT_MODEL
        assert message in capsys.readouterr().err

    def test_j_z_is_checked_once_per_file(self, monkeypatch, capsys):
        # load_model and SpectrumRequest read one verdict kept on the Model
        calls = []
        check = manybody.jz_violation
        monkeypatch.setattr(manybody, "jz_violation",
                            lambda model: calls.append(model) or check(model))
        assert main(["spectrum", FIXTURE]) == EXIT_OK
        assert len(calls) == 1

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
        # the fixture's 2J_max = 4 needs 3 nodes; 3 or more are exact
        assert main(["spectrum", FIXTURE, "--points", "2"]) == EXIT_PARSE
        assert "exact rule needs 3" in capsys.readouterr().err
        assert main(["spectrum", FIXTURE, "--points", "3"]) == EXIT_OK

    def test_unwritable_out_is_parse_error(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "x.csv"
        assert main(["spectrum", FIXTURE, "--format", "csv", "--out", str(target)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert f"error: cannot write {target}: " in captured.err
        assert captured.out == "" and not target.exists()

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_failed_write_to_out_is_parse_error(self, capsys):
        # opening succeeds; the write fails with ENOSPC
        assert main(["spectrum", FIXTURE, "--out", "/dev/full"]) == EXIT_PARSE
        assert "error: cannot write /dev/full: " in capsys.readouterr().err

    @pytest.mark.parametrize("option,value", [("--norm-floor", "-1"), ("--norm-floor", "nan"),
                                              ("--norm-floor", "inf"), ("--norm-floor", "x"),
                                              ("--brillouin-warn", "nan"),
                                              ("--brillouin-warn", "-1e-3")])
    def test_bad_threshold_rejected(self, capsys, option, value):
        # a negative floor would declare the absent 2J = 40 present
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", FIXTURE, "--J", "2,4,40", option, value])
        assert exc.value.code == EXIT_PARSE
        assert f"argument {option}: " in capsys.readouterr().err

    def test_zero_thresholds_accepted(self, capsys):
        assert main(["spectrum", FIXTURE, "--format", "csv", "--J", "2,4,40",
                     "--norm-floor", "0", "--brillouin-warn", "0"]) == EXIT_OK
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert rows[2].split(",")[:4] == ["40", "0.0", "", ""]

    @pytest.mark.parametrize("route,message", [("both", "non-finite result at 2J = 2"),
                                               ("brillouin", "non-finite stability residual")])
    def test_non_finite_result_exits_numerical(self, tmp_path, capsys, route, message):
        doc = json.loads(Path(FIXTURE).read_text())
        # every added element conserves J_z: orbitals 2 and 5 share 2m = 1
        if route == "both":  # the kernel-route energies overflow: T_22 + T_55
            for rec in doc["one_body"]:
                if rec["i"] == rec["k"] in (2, 5):
                    rec["value"] = 1e308
        else:  # with 2 and 6 occupied, only the mean field h_52 = T_52 + <56|V~|26> overflows
            doc["occupied"] = [2, 6]
            doc["one_body"].append({"i": 2, "k": 5, "value": 1e308})
            doc["two_body"].append({"i": 2, "j": 6, "k": 5, "l": 6, "value": 1e308})
        p = write(tmp_path, "overflow.model", doc)
        assert main(["spectrum", p, "--format", "csv", "--route", route]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("rows,message", [
        ([(2, 0.5, None, 1.0), (4, 0.25, None, math.nan), (6, math.inf, None, None)],
         "non-finite result at 2J = 4"),
        ([(0, 0.5, -math.inf, 1.0), (2, math.nan, None, None)], "non-finite result at 2J = 0"),
        ([(2, 0.5, None, None), (4, 0.0, 0.0, -0.0)], None)])
    def test_first_non_finite_row_is_named(self, monkeypatch, capsys, rows, message):
        entries = tuple(spectrum.JEntry(*row) for row in rows)
        monkeypatch.setattr(cli, "energy_spectrum",
                            lambda request: spectrum.SpectrumResult(entries=entries, route="both"))
        code = main(["spectrum", FIXTURE, "--format", "csv"])
        captured = capsys.readouterr()
        if message is None:
            assert code == EXIT_OK
            assert captured.out.splitlines()[1:] == ["2,0.5,,,", "4,0.0,0.0,-0.0,"]
        else:
            assert code == EXIT_NUMERICAL and captured.err == f"error: {message}\n"
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

    def test_huge_two_j_is_refused_before_any_rule(self, tmp_path, capsys):
        # 2J_max = 10^6 would ask for a rule of 500001 nodes
        doc = {"name": "one", "basis": [{"id": 1, "shell": "x", "two_j": 10 ** 6,
                                         "two_m": 10 ** 6}],
               "occupied": [1], "one_body": [], "two_body": []}
        assert main(["spectrum", write(tmp_path, "huge.model", doc)]) == EXIT_MODEL
        assert "two_j = 1000000 exceeds 90" in capsys.readouterr().err

    def test_rule_above_node_limit_is_numerical_failure(self, tmp_path, capsys):
        # seven shells of one 2j = 89 orbital each: 2J_max = 623 needs 312 nodes
        doc = {"name": "wide", "basis": [{"id": i, "shell": f"s{i}", "two_j": 89, "two_m": 89}
                                         for i in range(1, 8)],
               "occupied": list(range(1, 8)), "one_body": [], "two_body": []}
        assert main(["spectrum", write(tmp_path, "wide.model", doc)]) == EXIT_NUMERICAL
        assert "needs 312 nodes, above the limit 256" in capsys.readouterr().err
        assert main(["spectrum", FIXTURE, "--points", "257"]) == EXIT_PARSE
        assert "exceed the limit 256" in capsys.readouterr().err

    def test_repeated_label_is_model_error(self, tmp_path, capsys):
        doc = json.loads(Path(FIXTURE).read_text())
        doc["basis"][5]["two_m"] = 1  # a second s12 orbital with m = 1/2
        p = write(tmp_path, "repeat.model", doc)
        assert main(["spectrum", p]) == EXIT_MODEL
        assert "orbitals 5 and 6 share shell, two_j and two_m" in capsys.readouterr().err

    def test_repeated_label_within_a_shell_is_model_error(self, tmp_path, capsys):
        # p3/2 with m = 1/2 twice, the library's example: exit 3, no spectrum, no traceback
        doc = {"name": "p32", "occupied": [1, 3], "one_body": [], "two_body": [],
               "basis": [{"id": i, "shell": "p32", "two_j": 3, "two_m": m}
                         for i, m in enumerate((3, 1, 1, -1, -3), 1)]}
        path = write(tmp_path, "p32.model", doc)
        assert main(["spectrum", path]) == EXIT_MODEL
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err == f"error: {path}: orbitals 2 and 3 share shell, two_j and two_m\n"


# the fuzz of documented exits keeps its own defects and so its own share of each
EXIT_DEFECTS = (None, None, "two_j", "two_j", "value", "id", "label", "occupied")
LOADER_DEFECTS = EXIT_DEFECTS + ("number", "id_type", "record", "missing", "basis_id",
                                 "duplicate", "name", "section")


@st.composite
def model_documents(draw, defects=EXIT_DEFECTS, conserve_jz=False):
    """Model JSON over 1-4 orbitals with 2j over the full integer range: a
    well-formed model or one with a single defect drawn from `defects` (a bad
    value, id, label, occupied list, record, field, one-body duplicate, name
    or section).  With conserve_jz, the elements that change 2M are dropped
    before the defect is drawn."""
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
    if conserve_jz:
        two_m = {rec["id"]: rec["two_m"] for rec in basis}
        one_body = [r for r in one_body if two_m[r["i"]] == two_m[r["k"]]]
        two_body = [r for r in two_body
                    if two_m[r["i"]] + two_m[r["j"]] == two_m[r["k"]] + two_m[r["l"]]]
    doc = {"name": "fuzz", "basis": basis, "one_body": one_body, "two_body": two_body,
           "occupied": draw(st.lists(ids, min_size=1, max_size=n, unique=True))}
    defect = draw(st.sampled_from(defects))
    records = one_body + two_body
    if defect == "two_j":
        two_j = draw(st.one_of(st.integers(86, 94), st.integers()))
        orbital = draw(st.sampled_from(basis))
        orbital["two_j"], orbital["two_m"] = two_j, two_j
    if defect == "value" and records:
        draw(st.sampled_from(records))["value"] = draw(st.sampled_from(
            [1e308, -1e308, float("nan"), float("inf"), 10 ** 400, "x", None]))
    elif defect == "number" and records:
        # the float maximum itself is allowed; the integer just above it rounds onto it
        draw(st.sampled_from(records))["value"] = draw(st.sampled_from(
            [True, sys.float_info.max, int(sys.float_info.max) + 1, 2 ** 64]))
    elif defect == "id" and records:
        draw(st.sampled_from(records))["i"] = draw(st.sampled_from([0, -1, n + 1, 1.5, "1"]))
    elif defect == "id_type" and records:
        record = draw(st.sampled_from(records))
        record[draw(st.sampled_from(sorted(record.keys() - {"value"})))] = draw(
            st.sampled_from([True, [1], 2 ** 64]))
    elif defect == "basis_id":
        draw(st.sampled_from(basis))["id"] = draw(st.sampled_from([True, "1", [1], 0, n + 1, 1]))
    elif defect == "record":
        section = draw(st.sampled_from([basis, one_body, two_body]))
        if section:
            section[draw(st.integers(0, len(section) - 1))] = draw(
                st.sampled_from([1, "x", None, [1, 2]]))
    elif defect == "missing":
        record = draw(st.sampled_from(basis + records))
        del record[draw(st.sampled_from(sorted(record)))]
    elif defect == "duplicate" and one_body:
        # the same pair, either way round, within or beyond the 1e-12 conflict bound
        rec = draw(st.sampled_from(one_body))
        i, k = (rec["i"], rec["k"]) if draw(st.booleans()) else (rec["k"], rec["i"])
        shift = draw(st.sampled_from([0.0, 1e-14, 1e-10, 1.0]))
        one_body.insert(draw(st.integers(0, len(one_body))),
                        {"i": i, "k": k, "value": rec["value"] + shift})
    elif defect == "name":
        doc["name"] = draw(st.sampled_from([1, None, ["fuzz"]]))
    elif defect == "section":
        doc[draw(st.sampled_from(["basis", "occupied", "one_body", "two_body"]))] = \
            draw(st.sampled_from([{}, "x", 1, None]))
    elif defect == "label":
        draw(st.sampled_from(basis))["two_m"] = draw(st.integers())
    elif defect == "occupied":
        doc["occupied"] = draw(st.lists(st.integers(-1, n + 2), max_size=n + 1))
    return doc


def assert_documented_exit(doc):
    """Exit 0 with finite values, or a documented error exit; never a traceback.

    Returns the CSV rows (header first) of an exit 0, else None.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.model"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["spectrum", str(path), "--format", "csv"])
    # exit 5 (singular matrix) belongs to `cramer` alone
    assert code in {EXIT_OK, EXIT_PARSE, EXIT_MODEL, EXIT_NUMERICAL}
    assert "Traceback" not in err.getvalue()
    if code == EXIT_OK:
        rows = out.getvalue().strip().splitlines()
        assert rows[0] == CSV_HEADER and len(rows) > 1
        assert all(math.isfinite(float(cell)) for row in rows[1:] for cell in row.split(",")
                   if cell)
        return rows
    return None


@given(model_documents())
def test_any_model_file_gets_a_documented_exit(doc):
    assert_documented_exit(doc)


@given(model_documents(conserve_jz=True))
def test_any_jz_conserving_model_file_gets_a_documented_exit(doc):
    # most random elements change 2M and exit 3; these reach the spectrum,
    # where the exact rule keeps the norm sum rule at rounding level
    rows = assert_documented_exit(doc)
    if rows is not None:
        total = sum((int(two_j) + 1) / 2 * float(norm)
                    for two_j, norm, *_ in (row.split(",") for row in rows[1:]))
        assert total == pytest.approx(1.0, abs=1e-12)


def _load_or_raise(loader, path):
    try:
        return loader(path)
    except Exception as exc:  # compared with the oracle's, type and message
        return exc


def assert_loads_like_oracle(doc):
    """load_model builds the oracle's model (bit for bit) or raises its error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.model"
        path.write_text(json.dumps(doc))
        got = _load_or_raise(load_model, str(path))
        want = _load_or_raise(load_model_oracle, str(path))
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return want
    assert not isinstance(got, Exception), got
    assert (got.name, got.state) == (want.name, want.state)
    assert got.t.matrix.shape == want.t.matrix.shape
    assert got.t.matrix.tobytes() == want.t.matrix.tobytes()
    assert sorted(two_body_table(got.v).items()) == sorted(two_body_table(want.v).items())
    return want


@settings(max_examples=120)
@given(model_documents(LOADER_DEFECTS))
def test_loader_matches_field_by_field_walk(doc):
    assert_loads_like_oracle(doc)


def _pair(first, second):
    # orbitals 2 and 5 share 2m = 1, so the element conserves J_z
    def edit(doc):
        doc["one_body"] += [{"i": 2, "k": 5, "value": first}, {"i": 5, "k": 2, "value": second}]
    return edit


LOADER_EDGES = {
    # an integer just above the float maximum rounds onto it, yet is out of range
    "integer above float max": (lambda doc: doc["one_body"][0].update(
        value=int(sys.float_info.max) + 1), ParseError),
    "float max": (lambda doc: doc["one_body"].append(
        {"i": 2, "k": 5, "value": sys.float_info.max}), None),
    "one-body element changing 2M": (lambda doc: doc["one_body"].append(
        {"i": 1, "k": 2, "value": 0.1}), ModelError),
    "two-body element changing 2M": (lambda doc: doc["two_body"].append(
        {"i": 2, "j": 5, "k": 1, "l": 5, "value": 0.1}), ModelError),
    "duplicate within bound": (_pair(0.25, 0.25 + 1e-14), None),
    "duplicate beyond bound": (_pair(0.25, 0.25 + 1e-9), ModelError),
    "range fault before conflict": (lambda doc: doc["one_body"].extend(
        [{"i": 1, "k": 2, "value": 0.0}, {"i": 9, "k": 1, "value": 0.0},
         {"i": 2, "k": 1, "value": 1.0}]), ModelError),
    "boolean two-body id": (lambda doc: doc["two_body"][3].update(k=True), ParseError),
    "two-body integer above float max": (lambda doc: doc["two_body"][2].update(
        value=int(sys.float_info.max) + 1), ParseError),
    "two-body integer value": (lambda doc: doc["two_body"][2].update(value=-2), None),
    "boolean two-body value": (lambda doc: doc["two_body"][4].update(value=True), ParseError),
    "missing two-body value": (lambda doc: doc["two_body"][0].pop("value"), ParseError),
    "list two-body record": (lambda doc: doc["two_body"].__setitem__(1, [1, 2, 3, 4]),
                             ParseError),
    "float one-body id": (lambda doc: doc["one_body"][1].update(i=2.0), ParseError),
    "boolean basis id": (lambda doc: doc["basis"][0].update(id=True), ParseError),
    "list basis id": (lambda doc: doc["basis"][1].update(id=[2]), ParseError),
    "object shell": (lambda doc: doc["basis"][3].update(shell={"d": 32}), ParseError),
    "list one-body id": (lambda doc: doc["one_body"][0].update(k=[1]), ParseError),
    "list occupied id": (lambda doc: doc.update(occupied=[[2], 5]), ParseError),
    "one-body id out of range": (lambda doc: doc["one_body"][4].update(k=7), ModelError),
    "two-body id out of range": (lambda doc: doc["two_body"][0].update(l=7), ModelError),
    "repeated label": (lambda doc: doc["basis"][5].update(two_m=1), ModelError),
    "sparse ids": (lambda doc: doc["basis"][5].update(id=7), ModelError),
    "missing shell": (lambda doc: doc["basis"][2].pop("shell"), ParseError),
    # the id is read and checked for repeats before the other fields of its record
    "repeated id before a bad shell": (lambda doc: doc["basis"][1].update(id=1, shell=None),
                                       ModelError),
}


@pytest.mark.parametrize("case", sorted(LOADER_EDGES))
def test_loader_matches_oracle_at_edges(case):
    edit, error = LOADER_EDGES[case]
    doc = json.loads(Path(FIXTURE).read_text())
    edit(doc)
    result = assert_loads_like_oracle(doc)
    assert type(result) is error if error else not isinstance(result, Exception)


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

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_nonfinite_rhs_is_parse_error(self, tmp_path, capsys, bad):
        # Python's json reads these, JSON itself does not
        a = write(tmp_path, "A.json", [[2, 1], [1, 3]])
        b = write(tmp_path, "B.json", f"[[1, {bad}]]")
        assert main(["cramer", a, b, "--columns", "1"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("matrix, rhs", [
        ("{}", "[[1, 1]]"),
        ("[[1, {}], [0, 1]]", "[[1, 1]]"),
        ("[[1, 0], [0, 1]]", "[[1, {}]]"),
        ('[["1", 0], [0, 1]]', "[[1, 1]]"),
        ("[[1, 0], [0, 1]]", "[[true, 1]]"),
        ("[[1, 0], [0, 1]]", "[[1, " + "9" * 400 + "]]"),
    ], ids=["object", "nested-object", "rhs-object", "string", "bool", "huge-int"])
    def test_non_number_entry_is_parse_error(self, tmp_path, capsys, matrix, rhs):
        # json reads objects, strings, booleans and integers beyond the float range,
        # which np.asarray refuses with a TypeError or OverflowError or reads as 1.0
        a = write(tmp_path, "A.json", matrix)
        b = write(tmp_path, "B.json", rhs)
        assert main(["cramer", a, b, "--columns", "1"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert re.search(r"entries must be (numbers|finite)", captured.err)

    @pytest.mark.parametrize("matrix, rhs", [("[[[2]]]", "[[1]]"), ("[[2]]", "[[[1]]]")],
                             ids=["matrix", "rhs"])
    def test_stacked_input_is_parse_error(self, tmp_path, capsys, matrix, rhs):
        a = write(tmp_path, "A.json", matrix)
        b = write(tmp_path, "B.json", rhs)
        assert main(["cramer", a, b, "--columns", "1"]) == EXIT_PARSE
        assert "expected n x n and s x n" in capsys.readouterr().err

    def test_near_singular_matrix_exit(self, tmp_path, capsys, rng):
        # s_min / s_max = 5e-14: a pivot test let most such matrices through, and
        # the command printed solution entries of about 1e13
        b = write(tmp_path, "B.json", [[1.0, 0.0, 0.0, 0.0]])
        for idx in range(20):
            a = write(tmp_path, f"A{idx}.json", near_singular(rng, 5e-14).tolist())
            assert main(["cramer", a, b, "--columns", "1"]) == EXIT_SINGULAR
            captured = capsys.readouterr()
            assert captured.out == "" and "smallest singular value" in captured.err

    def test_nonfinite_result_is_numerical_failure(self, tmp_path, capsys):
        # x = A^-1 b is finite, det(A) x(0, 1) = 2e308 is not
        a = write(tmp_path, "A.json", [[2, 1], [1, 3]])
        b = write(tmp_path, "B.json", [[1, 1e308]])
        assert main(["cramer", a, b, "--columns", "2"]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite" in captured.err

    def test_nonfinite_solution_is_numerical_failure(self, tmp_path, capsys):
        # x(0, 0) = 1e308 / 0.1 overflows, and the 3x3 minor would be eliminated from it
        a = write(tmp_path, "A.json", [[0.1, 0, 0], [0, 1, 0], [0, 0, 1]])
        b = write(tmp_path, "B.json", [[1e308, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert main(["cramer", a, b, "--columns", "1,2,3"]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite" in captured.err


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

    @pytest.mark.parametrize("option", ["--radial-points", "--angular-points"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_points_below_one_rejected(self, capsys, option, value):
        # 0 is refused, not replaced by the default
        with pytest.raises(SystemExit) as exc:
            main(["check-projectors", "--jmax", "1", option, value])
        assert exc.value.code == EXIT_PARSE
        captured = capsys.readouterr()
        assert f"argument {option}: must be >= 1" in captured.err
        assert "passed" not in captured.out

    @pytest.mark.parametrize("value", ["inf", "5/0", "3/4", "2.25"])
    def test_jmax_not_a_half_integer_rejected(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["check-projectors", "--jmax", value])
        assert exc.value.code == EXIT_PARSE
        assert "argument --jmax: jmax must be a half-integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--jmax", "-1"], ["--jmax", "2", "--mmax", "-3"]])
    def test_negative_j_or_m_rejected(self, capsys, argv):
        # a negative bound scans no (j, m) pair, so it must not report a pass
        with pytest.raises(SystemExit) as exc:
            main(["check-projectors", *argv])
        assert exc.value.code == EXIT_PARSE
        captured = capsys.readouterr()
        assert f"argument {argv[-2]}: must be >= 0" in captured.err
        assert "passed" not in captured.out


@pytest.mark.parametrize("option", ["--tol-idempotence", "--tol-annihilation",
                                    "--tol-radial", "--tol-integral"])
@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_bad_projector_tolerance_rejected(capsys, option, value):
    # a bad option is a usage error, not a failed check (exit 4)
    with pytest.raises(SystemExit) as exc:
        main(["check-projectors", "--jmax", "0", option, value])
    assert exc.value.code == EXIT_PARSE
    assert f"argument {option}: " in capsys.readouterr().err


def test_options_do_not_leak_between_calls(tmp_path, capsys):
    parser = build_parser()
    assert build_parser() is parser  # built once per process
    fresh = vars(parser.parse_args(["spectrum", FIXTURE]))
    out = tmp_path / "first.csv"
    assert main(["spectrum", FIXTURE, "--format", "csv", "--out", str(out), "--J", "2",
                 "--route", "brillouin", "--norm-floor", "0.5"]) == EXIT_OK
    assert capsys.readouterr().out == ""
    first = out.read_bytes()
    assert main(["check-projectors", "--jmax", "0", "--radial-points", "7"]) == EXIT_OK
    capsys.readouterr()
    assert vars(parser.parse_args(["spectrum", FIXTURE])) == fresh
    assert main(["spectrum", FIXTURE, "--format", "csv"]) == EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [row[0] for row in rows] == ["2", "4"]  # no --J 2
    assert all(row[2] and row[3] for row in rows)  # route both, not brillouin
    assert out.read_bytes() == first  # no --out
