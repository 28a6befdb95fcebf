import csv
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from isolab import cli
from isolab.cli import main

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_theorem5(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--theorem", "5", "--n", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["y"] == "(1/2*x^3 - 2*x^2 + 1/2*x)/(x^3 - 3/2*x^2 - 3/2*x + 1)"
        assert doc["schema_version"] == 1

    def test_theorem10_case2(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--theorem", "10",
                               "--M", "2", "--m", "4", "--n", "1")
        doc = json.loads(out)
        assert code == 0
        assert doc["b"][0] == "-3/4*a1 + 1/4*a2 + 1/4"

    def test_divisible_n_rejected(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--theorem", "5", "--n", "3")
        assert code == 2
        assert "3" in err

    def test_missing_parameters(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--theorem", "7", "--n", "1")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("--theorem", "10", "--M", "0", "--m", "2", "--n", "1"),
        ("--theorem", "10", "--M", "-2", "--m", "2", "--n", "1"),
        ("--theorem", "11", "--M", "0", "--n", "-1"),
    ])
    def test_garnier_needs_positive_M(self, capsys, argv):
        # a document with M < 1 is one that verify --input rejects
        for command in ("generate", "verify"):
            code, out, err = run_cli(capsys, command, *argv)
            assert code == 2 and out == "", (command, argv)
            assert "hypothesis M >= 1 fails" in err

    def test_theorem4_one_pole_rejected(self, capsys):
        argv = ("--theorem", "4", "--p", "2", "--N", "1", "--m", "1",
                "--n", "-1")
        for command in ("generate", "verify"):
            code, out, err = run_cli(capsys, command, *argv)
            assert code == 2 and out == "", command
            assert err == "error: hypothesis N >= 2 fails\n"

    def test_theorem4_one_pole_rejected_in_a_process(self):
        proc = _cli_process("generate", "--theorem", "4", "--p", "2",
                            "--N", "1", "--m", "1", "--n", "-1",
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 2 and out == ""
        assert "Traceback" not in err

    def test_theorem4_documents_golden(self, capsys):
        # texts recorded before entries were converted once in to_json_dict
        golden = json.loads((DATA / "theorem4_documents.json").read_text())
        for argv, text in golden.items():
            code, out, _ = run_cli(capsys, "generate", *argv.split())
            assert code == 0 and out == text, argv

    def test_theorem_documents_golden(self, capsys):
        # generate outputs of theorems 3, 5-8, 10 and 11, recorded before the
        # closed forms were built from binomial rows
        golden = json.loads((DATA / "golden_documents.json").read_text())
        assert len(golden) == 36
        for argv, text in golden.items():
            code, out, _ = run_cli(capsys, "generate", *argv.split())
            assert code == 0 and out == text, argv

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "generate", "--theorem", "6", "--n", "-2")
        _, out2, _ = run_cli(capsys, "generate", "--theorem", "6", "--n", "-2")
        assert out1 == out2


class TestDispatch:
    def test_command_looked_up_at_call_time(self, monkeypatch):
        # the parser is built once, at import; a wrapper put on a cmd_* name
        # afterwards must still see the calls
        seen = []
        monkeypatch.setattr(cli, "cmd_zeros", lambda args: seen.append(args.n) or 0)
        assert main(["zeros", "--n", "4"]) == 0 and seen == ["4"]

    def test_format_option_gone(self, capsys):
        # options that no command reads are not accepted either
        zeros = ["zeros", "--n", "4"]
        periods = ["periods", "--m", "2", "--n", "1", "--a", "0,1,2"]
        for argv in (["generate", "--theorem", "5", "--n", "1", "--format", "json"],
                     ["generate", "--theorem", "8", "--a-int", "5", "--b", "1",
                      "--c", "3"],
                     ["verify", "--theorem", "8", "--a-int", "5", "--b", "1",
                      "--c", "3"],
                     *(zeros + [opt, "1"] for opt in
                       ("--theorem", "--m", "--M", "--p", "--N", "--nu", "--a-int")),
                     *(periods + [opt, "1"] for opt in
                       ("--theorem", "--M", "--p", "--N", "--nu", "--b", "--c",
                        "--a-int"))):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv


class TestVerify:
    def test_family_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--theorem", "6", "--n", "-2")
        rep = json.loads(out)
        assert code == 0 and rep["pass"]
        names = [c["name"] for c in rep["checks"]]
        assert "pvi-residual-symbolic" in names

    def test_perturbed_document_fails(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "generate", "--theorem", "4",
                               "--p", "2", "--N", "3", "--m", "1", "--n", "-1")
        doc = json.loads(out)
        doc["entries"]["1,1,2"] = "a1"
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--input", str(path))
        rep = json.loads(out)
        assert code == 1 and not rep["pass"]

    def test_perturbed_pvi_document_fails(self, capsys, tmp_path):
        from isolab.algebra import MultiPoly, parse_ratfunc
        _, out, _ = run_cli(capsys, "generate", "--theorem", "6", "--n", "-2")
        doc = json.loads(out)
        doc["y"] = (parse_ratfunc(doc["y"]) + MultiPoly.var("x") ** 2).to_text()
        path = tmp_path / "pvi.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--input", str(path))
        rep = json.loads(out)
        assert code == 1 and not rep["pass"]
        symbolic = {c["name"]: c for c in rep["checks"]}["pvi-residual-symbolic"]
        assert not symbolic["pass"]
        # the leading 200 characters of the reduced residual's text
        assert symbolic["detail"] == (
            "(-25/2*c^4*x^26 + 80*c^4*x^25 + 50*c^3*x^26 - 267/2*c^4*x^24 - "
            "320*c^3*x^25 - 75*c^2*x^26 - 2457/10*c^4*x^23 + 534*c^3*x^24 + "
            "480*c^2*x^25 + 50*c*x^26 + 29554/25*c^4*x^22 + "
            "4414/5*c^3*x^23 - 801*c^2*x")

    @pytest.mark.parametrize("y, params, name, kind, passed", [
        # theorem 8 (5,1,3) has delta != 1/2 and alpha != 0
        ("c*x^2 + x", None, "c=0", "x", False),
        ("c*x^2 + x", ["1", "1", "1", "1/2"], "c=0", "x", True),
        ("(x)/(c - 2)", None, "c=2", "inf", False),
        ("(x)/(c - 2)", ["0", "1", "1", "1"], "c=2", "inf", True),
        ("c*x^2 - c*x + 1", ["1", "1", "0", "1"], "c=0", "1", True)])
    def test_degenerate_member_is_checked(self, capsys, tmp_path, y, params,
                                          name, kind, passed):
        # a member y in {0, 1, x, inf} at a sampled parameter value is held
        # to its degenerate parameter condition, not passed unchecked
        _, out, _ = run_cli(capsys, "generate", "--theorem", "8", "--a", "5",
                            "--b", "1", "--c", "3")
        doc = {**json.loads(out), "y": y}
        if params is not None:
            doc["params"] = params
        path = tmp_path / "pvi.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--input", str(path))
        member = {c["name"]: c for c in json.loads(out)["checks"]}[
            f"pvi-residual-{name}"]
        assert member["detail"] == f"degenerate member y = {kind}"
        assert member["pass"] is passed
        assert code == 1 and "Traceback" not in err

    @pytest.mark.parametrize("b, c, kind", [("-3", "0", "1"), ("0", "-3", "x")])
    def test_degenerate_document_is_verified(self, capsys, b, c, kind):
        # theorem 7 at (1, -3, 0) is y = 1 (gamma = 0), at (1, 0, -3) y = x
        # (delta = 1/2): both solve PVI, by the degenerate parameter table
        code, out, err = run_cli(capsys, "verify", "--theorem", "7", "--n", "1",
                                 f"--b={b}", f"--c={c}")
        symbolic = {c["name"]: c for c in json.loads(out)["checks"]}[
            "pvi-residual-symbolic"]
        assert symbolic == {"name": "pvi-residual-symbolic", "pass": True,
                            "detail": f"degenerate y = {kind}"}
        assert code == 0 and err == ""

    def test_degenerate_document_off_its_parameters_fails(self, capsys,
                                                         tmp_path):
        _, out, _ = run_cli(capsys, "generate", "--theorem", "7", "--n", "1",
                            "--b=-3", "--c=0")
        doc = json.loads(out)
        assert doc["y"] == "1" and doc["params"][2] == "0"
        doc["params"][2] = "1"
        path = tmp_path / "pvi.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--input", str(path))
        symbolic = {c["name"]: c for c in json.loads(out)["checks"]}[
            "pvi-residual-symbolic"]
        assert not symbolic["pass"] and symbolic["detail"] == "degenerate y = 1"
        assert code == 1 and err == ""

    def test_garnier_pm_checked_against_b(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "generate", "--theorem", "11", "--M", "2",
                            "--n", "-1", "--c", "2,-1")
        doc = json.loads(out)
        path = tmp_path / "doc.json"

        def verify(d):
            path.write_text(json.dumps(d))
            code, out, _ = run_cli(capsys, "verify", "--input", str(path))
            rep = json.loads(out)
            return code, rep["pass"], {c["name"]: c for c in rep["checks"]}

        code, ok, checks = verify(doc)
        assert code == 0 and ok and checks["pm-matches-b"]["pass"]
        assert list(checks).index("pm-matches-b") == list(checks).index("pm-degree") + 1
        tampered = dict(doc, pm_coefficients=["12345*a1"] + doc["pm_coefficients"][1:])
        code, ok, checks = verify(tampered)
        assert code == 1 and not ok
        assert [n for n, c in checks.items() if not c["pass"]] == ["pm-matches-b"]
        assert checks["pm-matches-b"]["detail"] == "differs at z^0"
        # without the key the report is the one it was before the check
        code, ok, checks = verify({k: v for k, v in doc.items()
                                   if k != "pm_coefficients"})
        assert code == 0 and ok and list(checks) == ["sum-b-zero", "pm-degree"]

    def test_garnier_nonzero_sum_is_a_failed_check(self, capsys, tmp_path):
        # b no longer sums to zero: P_M cannot be built, and every check
        # that reads it fails with that reason instead of a usage error
        _, out, _ = run_cli(capsys, "generate", "--theorem", "10", "--M", "2",
                            "--m", "2", "--n", "1")
        doc = json.loads(out)
        doc["b"][0] += " + a1"
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        unbuilt = "P_M not built: sum of b_i is nonzero"
        for extra in ((), ("--numeric", "--a", "2,3.5")):
            code, out, err = run_cli(capsys, "verify", "--input", str(path),
                                     *extra)
            rep = json.loads(out)
            checks = {c["name"]: c for c in rep["checks"]}
            assert code == 1 and not rep["pass"] and err == ""
            assert not any(c["pass"] for c in checks.values())
            assert checks["sum-b-zero"]["detail"] == "a1"
            assert checks["pm-degree"]["detail"] == unbuilt
            assert checks["pm-matches-b"]["detail"] == unbuilt
            numeric = [c for n, c in checks.items() if n.startswith("garnier-m2")]
            assert len(numeric) == (16 if extra else 0)
            assert all(c["detail"] == unbuilt for c in numeric)

    @pytest.mark.parametrize("extra, message", [
        (("--a", "2"), "M = 2 needs an a-point with 2 coordinates, got 1"),
        (("--a", "2,3", "--eps", "++"), "need M + 2 thetas and signs"),
        (("--a", "0,1"), "a-point coordinate a1 = 0 collides with the pole 0"),
        (("--a", "2, 1+0i"), "a-point coordinate a2 = 1+0i collides with the pole 1"),
        (("--a", "0,3"), "a-point coordinate a1 = 0 collides with the pole 0"),
        (("--a", "2,2"), "a-point coordinate a2 = 2 collides with a1")])
    def test_garnier_numeric_usage_error_whatever_b_holds(self, capsys,
                                                          tmp_path, extra,
                                                          message):
        # a b that does not sum to zero once turned these into 16 failed
        # checks (exit 1) instead of a usage error
        _, out, _ = run_cli(capsys, "generate", "--theorem", "10", "--M", "2",
                            "--m", "2", "--n", "1")
        doc = json.loads(out)
        doc["b"][0] += " + a1"
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        report = tmp_path / "report.json"
        code, out, err = run_cli(capsys, "verify", "--input", str(path),
                                 "--numeric", *extra, "--out", str(report))
        assert code == 2 and out == "" and not report.exists()
        assert err == f"error: {message}\n"

    def test_garnier_b_over_lcm_once_per_document(self, capsys, tmp_path,
                                                  monkeypatch):
        from isolab import garnier
        calls = []
        over_lcm = garnier._over_lcm

        def counting(b):
            calls.append(1)
            return over_lcm(b)
        monkeypatch.setattr(garnier, "_over_lcm", counting)
        path = tmp_path / "thm11.json"
        code, _, _ = run_cli(capsys, "generate", "--theorem", "11", "--M", "2",
                             "--n", "-2", "--c", "1,1", "--out", str(path))
        assert code == 0 and len(calls) == 1
        calls.clear()
        code, out, _ = run_cli(capsys, "verify", "--input", str(path))
        assert code == 0 and json.loads(out)["pass"]
        assert len(calls) == 1

    def test_garnier_m3_document_verified_quickly(self, capsys, tmp_path):
        # sum_b over the lcm of the denominators: about 0.5 s here, where a
        # sum over one opaque factor per denominator took over a minute
        path = tmp_path / "m3.json"
        code, _, _ = run_cli(capsys, "generate", "--theorem", "11", "--M", "3",
                             "--n", "-2", "--c", "1,2,-1", "--out", str(path))
        assert code == 0
        t0 = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify", "--input", str(path))
        assert time.perf_counter() - t0 < 10
        assert code == 0 and json.loads(out)["pass"]

    def test_garnier_numeric(self, capsys):
        # --theorem 8 is a PVI request: the Garnier options do not stand in
        code, out, err = run_cli(capsys, "verify", "--theorem", "8", "--M", "2",
                                 "--m", "2", "--n", "1")
        assert code == 2 and out == ""
        assert "--theorem 8 needs --a, --b, --c" in err
        code, out, _ = run_cli(capsys, "verify", "--theorem", "8", "--a", "5",
                               "--b", "1", "--c", "3")
        assert code == 0 and json.loads(out)["pass"]
        code, out, _ = run_cli(capsys, "verify", "--theorem", "10", "--M", "2",
                               "--m", "2", "--n", "1", "--numeric",
                               "--a", "2,3.5", "--eps", "++++")
        rep = json.loads(out)
        assert code == 0 and rep["pass"]

    @pytest.mark.parametrize("points, quoted", [
        ("nan,3.5", "'nan'"), ("2,inf", "'inf'"), ("1e999,2", "'1e999'")])
    def test_non_finite_point_rejected(self, capsys, points, quoted):
        # unchecked, a NaN coordinate passes with residual 0.000e+00
        code, out, err = run_cli(capsys, "verify", "--theorem", "10", "--M", "2",
                                 "--m", "2", "--n", "1", "--numeric",
                                 "--a", points, "--eps", "++++")
        assert code == 2 and out == ""
        assert err.startswith(f"error: bad coordinate {quoted}")

    @pytest.mark.parametrize("points, message", [
        ("2,3", "P_2 degenerates at a = [(2+0j), (3+0j)]; pick a generic point"),
        ("1e200,3", "P_2 overflows float64 at a = [(1e+200+0j), (3+0j)]")])
    def test_garnier_point_p2_cannot_serve_is_a_usage_error(self, points,
                                                            message):
        # both once exited 1 as a "numeric failure"
        err = _assert_usage_error("verify", "--theorem", "10", "--M", "2",
                                  "--m", "2", "--n", "1", "--numeric",
                                  "--a", points)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("points", ["2", "2,3.5,4"])
    def test_garnier_a_point_of_wrong_length(self, points):
        # one coordinate once ended in a KeyError traceback, three in a
        # message about unpacking
        proc = _cli_process("verify", "--theorem", "11", "--M", "2", "--n",
                            "-1", "--numeric", "--a", points,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
        try:
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 2 and out == "" and "Traceback" not in err
        assert err == ("error: M = 2 needs an a-point with 2 coordinates, "
                       f"got {points.count(',') + 1}\n")

    def test_garnier_pm_below_degree_m_fails(self, capsys, tmp_path):
        # b sums to 0 and P_2 = (a1 - 1) z - a1 a2 + a2 has degree 1 at every
        # a-point: pm-degree once read "2", and --numeric blamed the point
        _, out, _ = run_cli(capsys, "generate", "--theorem", "10", "--M", "2",
                            "--m", "2", "--n", "1")
        doc = json.loads(out)
        del doc["pm_coefficients"]
        path = tmp_path / "degree1.json"
        for b, degree, why in (
                (["(1)/(a1)", "0", "(a1 - 1)/(a1)", "-1"], "1",
                 "P_M has degree 1 < M = 2"),
                (["0"] * 4, "P_M is 0", "P_M is 0")):
            path.write_text(json.dumps({**doc, "b": b}))
            for extra in ((), ("--numeric", "--a", "2,3.5", "--eps", "++++")):
                code, out, err = run_cli(capsys, "verify", "--input", str(path),
                                         *extra)
                checks = {c["name"]: c for c in json.loads(out)["checks"]}
                assert code == 1 and err == ""
                assert checks["sum-b-zero"]["pass"]
                assert not checks["pm-degree"]["pass"]
                assert checks["pm-degree"]["detail"] == degree
                numeric = [c for n, c in checks.items()
                           if n.startswith("garnier-m2")]
                assert len(numeric) == (1 if extra else 0)
                assert all(not c["pass"] and c["detail"] == why
                           for c in numeric)

    @pytest.mark.parametrize("M", [1, 3, 40])
    def test_garnier_numeric_needs_m_two(self, capsys, tmp_path, monkeypatch,
                                         M):
        # M = 40 once built the 2^42 sign vectors before it refused M
        _, out, _ = run_cli(capsys, "generate", "--theorem", "10", "--M", "2",
                            "--m", "2", "--n", "1")
        doc = json.loads(out)
        del doc["pm_coefficients"]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({**doc, "M": M, "b": ["0"] * (M + 2),
                                    "betas": ["0"] * (M + 2)}))

        def product(*args, **kwargs):
            raise AssertionError("sign vectors built before M was checked")
        monkeypatch.setattr("isolab.cli.itertools.product", product)
        code, out, err = run_cli(capsys, "verify", "--input", str(path),
                                 "--numeric", "--a", "2,3.5")
        assert code == 2 and out == ""
        assert err == ("error: explicit Hamiltonians are implemented for "
                       "M = 2 only\n")

    @pytest.mark.parametrize("version", [2, True, "1", 1.0])
    def test_other_schema_version_is_a_usage_error(self, capsys, tmp_path,
                                                   version):
        _, out, _ = run_cli(capsys, "generate", "--theorem", "10", "--M", "2",
                            "--m", "2", "--n", "1")
        doc = json.loads(out)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({**doc, "schema_version": version}))
        code, out, err = run_cli(capsys, "verify", "--input", str(path))
        assert code == 2 and out == ""
        assert err == f"error: cannot verify schema_version {version!r}\n"
        # a document without the key is read as version 1
        del doc["schema_version"]
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--input", str(path))
        assert code == 0 and json.loads(out)["pass"]


class TestVerifyInputValidation:
    def verify_doc(self, capsys, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return run_cli(capsys, "verify", "--input", str(path))

    def test_garnier_missing_b(self, capsys, tmp_path):
        code, out, err = self.verify_doc(
            capsys, tmp_path, {"kind": "garnier-algebraic", "M": 2})
        assert code == 2 and out == ""
        assert "'b'" in err and "Traceback" not in err

    def test_each_kind_missing_key(self, capsys, tmp_path):
        generated = {
            "y": ("--theorem", "6", "--n", "-1"),
            "entries": ("--theorem", "4", "--p", "2", "--N", "3", "--m", "1",
                        "--n", "-1"),
            "betas": ("--theorem", "10", "--M", "2", "--m", "4", "--n", "1"),
        }
        for key, args in generated.items():
            _, out, _ = run_cli(capsys, "generate", *args)
            doc = json.loads(out)
            del doc[key]
            code, _, err = self.verify_doc(capsys, tmp_path, doc)
            assert code == 2 and repr(key) in err, (key, err)

    def test_oversized_schlesinger_document_rejected_cheaply(self, capsys,
                                                            tmp_path):
        # p = 1500 asks for 2 * 1500 * 1499 / 2 entries; listing every
        # missing key to report the first peaked at about 230 MB
        p = 1500
        doc = {"kind": "triangular-schlesinger", "p": p, "N": 2,
               "variables": ["a1", "a2"],
               "exponents": [[str(-k) for k in range(p)]] * 2,
               "entries": {"1,1,2": "a1"}}
        tracemalloc.start()
        try:
            code, out, err = self.verify_doc(capsys, tmp_path, doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err == ("error: triangular-schlesinger document lacks entry "
                       "'1,1,3'\n")
        assert peak < 20e6, peak

    @pytest.mark.parametrize("name", ["q", ""])
    def test_pvi_parameter_names_no_variable(self, capsys, tmp_path, name):
        # a parameter absent from y would make every member check recompute
        # the symbolic residual and pass
        _, out, _ = run_cli(capsys, "generate", "--theorem", "8", "--a", "5",
                            "--b", "1", "--c", "3")
        doc = json.loads(out)
        assert doc["parameter"] == "c"
        code, out, err = self.verify_doc(capsys, tmp_path,
                                         {**doc, "parameter": name})
        assert code == 2 and out == ""
        assert err == (f"error: pvi-family document's 'parameter' {name!r} "
                       "names no variable of y\n")

    @pytest.mark.parametrize("y", ["", " "])
    def test_pvi_y_with_no_term_is_a_usage_error(self, capsys, tmp_path, y):
        # read as 0, this y would pass as the degenerate y = 0
        doc = {"kind": "pvi-family", "y": y, "theta": ["0", "1/2", "0", "-1/2"],
               "params": ["1/2", "0", "1/2", "1/2"], "parameter": None}
        code, out, err = self.verify_doc(capsys, tmp_path, doc)
        assert code == 2 and out == ""
        assert err == ("error: polynomial text has no term; write 0 for "
                       "zero\n")

    @pytest.mark.parametrize("extra", [(), ("--numeric", "--a", "2,3.5",
                                            "--eps", "++++")])
    def test_garnier_b_with_a_foreign_variable(self, capsys, tmp_path, extra):
        # this b sums to zero, so P_2 can be built, but no a-point gives x a
        # value
        doc = {"kind": "garnier-algebraic", "M": 2, "b": ["x", "-x", "0", "0"],
               "betas": ["1/4"] * 4, "beta_inf": "-1"}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--input", str(path), *extra)
        assert code == 2 and out == ""
        assert err == ("error: garnier-algebraic document's b names x, "
                       "outside a1..a2\n")

    def test_top_level_not_an_object(self, capsys, tmp_path):
        code, _, err = self.verify_doc(capsys, tmp_path, ["garnier-algebraic"])
        assert code == 2 and "JSON object" in err

    def test_unknown_kind(self, capsys, tmp_path):
        code, _, err = self.verify_doc(capsys, tmp_path, {"kind": ["x"]})
        assert code == 2 and "kind" in err

    def test_wrong_types_rejected(self, capsys, tmp_path):
        for doc in ({"kind": "garnier-algebraic", "M": 2, "b": 5,
                     "betas": [], "beta_inf": "1"},
                    {"kind": "garnier-algebraic", "M": 2, "b": ["0"] * 4,
                     "betas": ["1/4"] * 3, "beta_inf": "-1"},
                    {"kind": "pvi-family", "y": "x", "theta": ["0"] * 3,
                     "params": ["0"] * 4},
                    {"kind": "triangular-schlesinger", "p": 2, "N": 3,
                     "variables": ["a1"], "exponents": [[None]],
                     "entries": {}}):
            code, _, err = self.verify_doc(capsys, tmp_path, doc)
            assert code == 2 and "Traceback" not in err, doc

    def test_malformed_pm_coefficients(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "generate", "--theorem", "10", "--M", "2",
                            "--m", "4", "--n", "1")
        good = json.loads(out)
        pm = good["pm_coefficients"]
        for value in (pm[:-1], pm + ["0"], pm[:-1] + [1], "0", None):
            code, out, err = self.verify_doc(capsys, tmp_path,
                                             {**good, "pm_coefficients": value})
            assert code == 2 and out == "", value
            assert "pm_coefficients" in err and "Traceback" not in err, value

    def test_malformed_schlesinger_documents(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "generate", "--theorem", "4", "--p", "2",
                            "--N", "3", "--m", "1", "--n", "-1")
        good = json.loads(out)
        entries = good["entries"]
        bad = {"names": ("variables", ["a1", "a2"]),
               "distinct": ("variables", ["a1", "a1", "a2"]),
               "rows": ("exponents", [["-1/2", "1/2"]] * 2),
               "row length": ("exponents", [["-1/2", "1/2", "3/2"]] * 3),
               "pole index": ("entries", {**entries, "4,1,2": "0"}),
               "k < l": ("entries", {**entries, "1,2,1": "0"}),
               "l <= p": ("entries", {**entries, "1,1,3": "0"}),
               "three indices": ("entries", {**entries, "1,1": "0"}),
               "integers": ("entries", {**entries, "a,b,c": "0"}),
               "twice": ("entries", {**entries, "01,1,2": "0"}),
               "missing": ("entries", {"1,1,2": "0"}),
               "zero denominator": ("entries", {**entries, "1,1,2": "(a1)/(0)"}),
               "exponent limit": ("entries", {**entries, "1,1,2": "a1^40000"}),
               # text the polynomial grammar does not read
               "implicit number product": ("entries", {**entries, "1,1,2": "2 3*a1"}),
               "implicit name product": ("entries", {**entries, "1,1,2": "a1 a2"}),
               "number before name": ("entries", {**entries, "1,1,2": "2a1"}),
               "float": ("entries", {**entries, "1,1,2": "1e5*a1"}),
               "dangling sign": ("entries", {**entries, "1,1,2": "a1 +"}),
               "bare caret": ("entries", {**entries, "1,1,2": "a1^"}),
               "parentheses": ("entries", {**entries, "1,1,2": "(a1)*a2"}),
               "non-ASCII digit": ("entries", {**entries, "1,1,2": "\u0663*a1"}),
               "no term": ("entries", {**entries, "1,1,2": ""}),
               "p >= 1": ("p", 0)}
        for label, (key, value) in bad.items():
            code, out, err = self.verify_doc(capsys, tmp_path,
                                             {**good, key: value})
            assert code == 2 and out == "", label
            assert err.startswith("error: ") and err.count("\n") == 1, label
            assert "Traceback" not in err, label

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", "--input",
                               str(tmp_path / "absent.json"))
        assert code == 2 and "cannot read" in err


def _retype_sources():
    """One small golden document of each kind: PVI, theorem 3, theorem 4 and
    Garnier."""
    docs = {}
    for name in ("golden_documents.json", "theorem4_documents.json"):
        docs.update(json.loads((DATA / name).read_text()))
    return {label: json.loads(docs[argv]) for label, argv in (
        ("pvi", "--theorem 6 --n -1"),
        ("theorem3", "--theorem 3 --p 2 --N 2 --m 2 --n 1"),
        ("theorem4", "--theorem 4 --p 2 --N 3 --m 1 --n -1"),
        ("garnier", "--theorem 10 --M 2 --m 4 --n 1"))}


RETYPE_SOURCES = _retype_sources()


def _nested_paths(doc):
    """Paths to the first item of each list or object value of doc, and to
    the first item of that item when it is a list or object too."""
    for key in sorted(doc):
        path, value = (key,), doc[key]
        while len(path) < 3 and isinstance(value, (list, dict)) and value:
            first = sorted(value)[0] if isinstance(value, dict) else 0
            path, value = path + (first,), value[first]
            yield path


NESTED_PATHS = [(label, path) for label, doc in RETYPE_SOURCES.items()
                for path in _nested_paths(doc)]


class TestVerifyInputRetyped:
    @pytest.mark.parametrize("value", [5, None, [1], {"a": 1}, 1.5, True],
                             ids=repr)
    @pytest.mark.parametrize("label, key", [
        (label, key) for label, doc in RETYPE_SOURCES.items()
        for key in sorted(doc)])
    def test_retyped_top_level_value(self, capsys, tmp_path, label, key, value):
        # any JSON type in place of any top-level value gives a verdict (0 or
        # 1) or a usage error (2) with one error line, never a crash
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({**RETYPE_SOURCES[label], key: value}))
        code, out, err = run_cli(capsys, "verify", "--input", str(path))
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert out == "" and err.startswith("error: ")
            assert err.count("\n") == 1
        if (key == "provenance" and label in ("theorem3", "theorem4")
                and not isinstance(value, dict)):
            assert code == 2 and "provenance" in err
        if key == "parameter" and label == "pvi" and value is not None:
            assert code == 2 and "parameter" in err

    @pytest.mark.parametrize("value", [5, None, [1], {"a": 1}, 1.5, True],
                             ids=repr)
    @pytest.mark.parametrize("label, path", NESTED_PATHS, ids=[
        "-".join(map(str, (label,) + path)) for label, path in NESTED_PATHS])
    def test_retyped_nested_value(self, capsys, tmp_path, label, path, value):
        # the same for an entry text, an exponents row or item, a theta,
        # params, b or betas item and a provenance field; every retyped
        # value that verify reads is a usage error (provenance is not read)
        doc = json.loads(json.dumps(RETYPE_SOURCES[label]))
        inner = doc
        for key in path[:-1]:
            inner = inner[key]
        inner[path[-1]] = value
        path_ = tmp_path / "doc.json"
        path_.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--input", str(path_))
        assert code == (0 if path[0] == "provenance" else 2)
        assert "Traceback" not in err
        if code == 2:
            assert out == "" and err.startswith("error: ")
            assert err.count("\n") == 1


def _fuzz_sources():
    """Small golden documents: PVI theorems 5-6, Schlesinger with p, N <= 3
    and Garnier theorem 10 with M = 2."""
    docs = {}
    for name in ("golden_documents.json", "theorem4_documents.json"):
        docs.update(json.loads((DATA / name).read_text()))
    picked = []
    for argv, text in sorted(docs.items()):
        args = argv.split()
        opt = dict(zip(args[::2], args[1::2]))
        theorem = int(opt["--theorem"])
        if (theorem in (5, 6)
                or theorem in (3, 4) and max(int(opt["--p"]), int(opt["--N"])) <= 3
                or theorem == 10 and opt["--M"] == "2"):
            picked.append(json.loads(text))
    return picked


def _text_fields(value, path=()):
    if isinstance(value, str):
        yield path
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from _text_fields(v, path + (k,))
    elif isinstance(value, list):
        for k, v in enumerate(value):
            yield from _text_fields(v, path + (k,))


FUZZ_SOURCES = _fuzz_sources()
# characters of the polynomial grammar and of the documents' numbers, then
# anything at all
FUZZ_CHARS = st.one_of(st.sampled_from(list("0123456789 +-*/^()_.,eaxc\n\u0663")),
                       st.characters())


class TestVerifyInputFuzz:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_text_fields(self, capsys, tmp_path, data):
        # a truncated, lengthened or shortened text field must give a verdict
        # (0 or 1) or a usage error (2) with one error line, never a crash
        doc = json.loads(json.dumps(data.draw(st.sampled_from(FUZZ_SOURCES))))
        path = data.draw(st.sampled_from(list(_text_fields(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        text = parent[path[-1]]
        cut = data.draw(st.integers(0, len(text)))
        how = data.draw(st.sampled_from(("truncate", "insert", "delete")))
        if how == "truncate":
            text = text[:cut]
        elif how == "insert":
            text = text[:cut] + data.draw(FUZZ_CHARS) + text[cut:]
        else:
            text = text[:cut] + text[cut + 1:]
        parent[path[-1]] = text
        doc_path = tmp_path / "fuzz.json"
        doc_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--input", str(doc_path))
        assert code in (0, 1, 2), (path, text)
        assert "Traceback" not in err
        if code == 2:
            assert out == "" and err.startswith("error: "), (path, text, err)
            assert err.count("\n") == 1, (path, text, err)


class TestStartup:
    def test_cli_import_leaves_out_scipy_integrate(self):
        code = ("import sys, isolab.cli; "
                "sys.exit('scipy.integrate' in sys.modules)")
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True)
        assert done.returncode == 0, done.stderr


def _cli_process(*args, **kw):
    """isolab in a child process (stdin closed), as a shell would start it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys; from isolab.cli import main; sys.exit(main())"
    return subprocess.Popen([sys.executable, "-c", code, *args],
                            env={**os.environ, "PYTHONPATH": src},
                            stdin=subprocess.DEVNULL, **kw)


def _assert_usage_error(*args):
    """isolab exits 2 within 20 s with one `error:` line and no output;
    returns that line."""
    proc = _cli_process(*args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                        text=True)
    try:
        out, err = proc.communicate(timeout=20)
    finally:
        proc.kill()
    assert proc.returncode == 2, (args, err)
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestTolerance:
    COMMANDS = {"periods": ("periods", "--m", "2", "--n", "1", "--a", "0,1,2+1i"),
                "verify": ("verify", "--theorem", "11", "--M", "2", "--n", "-1",
                           "--c", "2,-1", "--numeric", "--a", "2,3.5")}

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_tol_is_a_usage_error(self, command, tol):
        # a child process with a timeout: tol <= 0 or nan once made the
        # quadrature halve its panels without end
        _assert_usage_error(*self.COMMANDS[command], f"--tol={tol}")

    def test_tol_below_float_resolution_is_a_usage_error(self):
        # the quadrature halved its panels for minutes at 1e-30; verify reads
        # tol as a residual threshold, so only periods refuses it
        _assert_usage_error(*self.COMMANDS["periods"], "--tol=1e-30")

    def test_default_tol_kept(self):
        assert cli._tol(None, 1e-6) == 1e-6
        assert cli._tol("1e-9", 1e-6) == 1e-9


ONLY_GARNIER = "--numeric checks only Garnier documents (theorems 10, 11), not "


class TestNumericOptionsRead:
    """verify refuses a numeric option that no check would read, before it
    builds a family or parses a document beyond its kind."""

    @pytest.mark.parametrize("argv, doc, message", [
        (("--theorem", "5", "--n", "1", "--numeric", "--a", "2,3", "--eps",
          "++++", "--tol", "1e-3"), None, ONLY_GARNIER + "theorem 5"),
        (("--theorem", "3", "--p", "3", "--N", "4", "--m", "2", "--n", "1",
          "--numeric", "--a", "2,3.5"), None, ONLY_GARNIER + "theorem 3"),
        (("--numeric", "--a", "2,3.5"), {"kind": "pvi-family"},
         ONLY_GARNIER + "a pvi-family document"),
        (("--numeric",), {"kind": "triangular-schlesinger"},
         ONLY_GARNIER + "a triangular-schlesinger document"),
        (("--theorem", "11", "--M", "2", "--n", "-1", "--eps", "++++"), None,
         "--eps and --tol need --numeric"),
        (("--theorem", "10", "--M", "2", "--m", "2", "--n", "1", "--tol",
          "1e-3"), None, "--eps and --tol need --numeric"),
        (("--a", "2,3.5", "--tol", "1e-3"), {"kind": "garnier-algebraic"},
         "--eps and --tol need --numeric")])
    def test_unread_numeric_option_is_a_usage_error(self, capsys, tmp_path,
                                                    monkeypatch, argv, doc,
                                                    message):
        def unreached(*args):
            raise AssertionError("built or parsed before the usage error")
        monkeypatch.setattr(cli, "_generate_doc", unreached)
        monkeypatch.setattr(cli, "_check_doc", unreached)
        if doc is not None:
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            argv = ("--input", str(path), *argv)
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


class TestClosedStdout:
    @pytest.mark.parametrize("lines", [0, 1])
    def test_no_traceback(self, lines):
        proc = _cli_process("verify", "--theorem", "6", "--n", "-2",
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            for _ in range(lines):
                assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert b"Traceback" not in err and err == b"", err
        # with one line read, the child may have written everything already
        assert proc.returncode in ((1,) if lines == 0 else (0, 1))


class TestZeros:
    def test_row_counts_small(self, capsys):
        code, out, _ = run_cli(capsys, "zeros", "--n", "1")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert rows[0] == ["poly_id", "degree", "re", "im",
                           "conj_paired", "inversion_paired"]
        assert len(rows) == 1 + 2 + 2
        p_roots = sorted(float(r[2]) for r in rows[1:] if r[0] == "P2")
        assert abs(p_roots[0] + 1) < 1e-9 and abs(p_roots[1]) < 1e-9

    def test_figure_case_counts(self, capsys):
        code, out, _ = run_cli(capsys, "zeros", "--n", "25")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert code == 0
        assert sum(1 for r in rows if r[0] == "P26") == 26
        assert sum(1 for r in rows if r[0] == "Q26") == 26

    @pytest.mark.parametrize("n, b, c", [(2, "-3", "-3"), (1, "-3", "0")])
    def test_parameters_export_the_unreduced_pair(self, capsys, n, b, c):
        # the printed P_{n+1} = x b1 and Q_{n+1}, not the reduced y = P/Q:
        # (2, -3, -3) has P3 = 3x(x-1)^2 and Q3 = -3(x-1)^2(x-4)
        code, out, err = run_cli(capsys, "zeros", "--n", str(n),
                                 f"--b={b}", f"--c={c}")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert code == 0 and err == ""
        for name in (f"P{n + 1}", f"Q{n + 1}"):
            mine = [r for r in rows if r[0] == name]
            assert len(mine) == n + 1 and {r[1] for r in mine} == {str(n + 1)}
        if n == 2:
            assert sorted(round(float(r[2]), 6) for r in rows
                          if r[0] == "Q3") == [1.0, 1.0, 4.0]

    def test_double_root_csv_text(self, capsys):
        # np.roots splits Q3's double root x = 1 into two nearby simple roots;
        # pinned so that a change to the polish or pairing shows here
        code, out, err = run_cli(capsys, "zeros", "--n", "2", "--b=-3", "--c=-3")
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "poly_id,degree,re,im,conj_paired,inversion_paired",
            "P3,3,0.0,0.0,True,True",
            "P3,3,1.0,0.0,True,True",
            "P3,3,1.0,0.0,True,True",
            "Q3,3,0.9999999896583344,0.0,True,True",
            "Q3,3,1.0000000141814747,0.0,True,True",
            "Q3,3,4.0,0.0,True,False",
        ]


@pytest.mark.parametrize("args", [
    ("zeros", "--n", "2", "--b=-3", "--c=-3"),
    ("periods", "--m", "2", "--n", "-1", "--a", "0,1,2+1i,3-1i"),
    ("periods", "--m", "2", "--n", "1", "--a", "0,1,2+1i", "--trace", "0")])
def test_csv_rows_end_in_lf(capsys, tmp_path, args):
    # csv.writer's default terminator is CRLF: a line-based reader such as
    # grep ',True$' then matches no row
    path = tmp_path / "out.csv"
    code, _, err = run_cli(capsys, *args, "--out", str(path))
    data = path.read_bytes()
    assert code == 0 and err == ""
    assert b"\r" not in data and data.endswith(b"\n") and data.count(b"\n") > 3


class TestPeriods:
    def test_rank_row(self, capsys):
        code, out, _ = run_cli(capsys, "periods", "--m", "2", "--n", "1",
                               "--a", "0,1,2+1i")
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("rank,2")


    def test_csv_cells_are_floats(self, capsys):
        # puncture loops too (n < 0); numpy scalars once leaked their repr
        code, out, _ = run_cli(capsys, "periods", "--m", "2", "--n", "-1",
                               "--a", "0,1,2+1i,3-1i")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0 and rows[0] == ["i", "cycle", "label", "re", "im"]
        assert rows[-1][0] == "rank"
        for row in rows[1:-1]:
            float(row[3]), float(row[4])
        code, out, _ = run_cli(capsys, "periods", "--m", "2", "--n", "-1",
                               "--a", "0,1,2+1i,3-1i", "--trace", "0")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0 and len(rows) > 100
        for row in rows[1:]:
            [float(cell) for cell in row[1:]]


    @pytest.mark.parametrize("points", ["0,1,1e200", "0,1,1e120", "0,1e160,2"])
    def test_overflowing_polynomial_is_a_usage_error(self, points):
        # numpy warnings once went to stderr, then a misleading "singular"
        err = _assert_usage_error("periods", "--m", "2", "--n", "1", "--a", points)
        assert "overflows" in err

    def test_overflowing_integrand_is_a_usage_error(self):
        # P ~ 1e90 is finite, w^15 is not
        err = _assert_usage_error("periods", "--m", "2", "--n", "5", "--j", "3",
                                  "--a", "0,1,1e30")
        assert "integrand overflows" in err


class TestPeriodsTrace:
    def test_trace_rows(self, capsys):
        code, out, _ = run_cli(capsys, "periods", "--m", "2", "--n", "1",
                               "--a", "0,1,2+1i", "--trace", "0")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert rows[0] == ["index", "z_re", "z_im", "w_re", "w_im"]
        assert len(rows) > 100


class TestVerifyTheorem6:
    def test_n_minus_1_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--theorem", "6", "--n", "-1")
        assert code == 0 and json.loads(out)["pass"]


class TestReproduce:
    def test_known_ids(self, capsys):
        for eid in ("example-1", "example-3", "example-9"):
            code, out, _ = run_cli(capsys, "reproduce", eid)
            assert code == 0 and "PASS" in out

    def test_unknown_id(self, capsys):
        code, _, err = run_cli(capsys, "reproduce", "bogus")
        assert code == 2 and "unknown" in err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        code, out, _ = run_cli(capsys, "reproduce", "example-1",
                               "--out", str(path))
        assert code == 0 and out == ""
        assert "PASS" in path.read_text()
