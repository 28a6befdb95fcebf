import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--theorem", "5", "--n", "1", "--format", "json"])
        assert exc.value.code == 2


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

    def test_garnier_numeric(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--theorem", "8", "--M", "2",
                               "--m", "2", "--n", "1")
        # --theorem 8 without --a-int etc is a pvi request; do garnier instead
        code, out, _ = run_cli(capsys, "verify", "--theorem", "10", "--M", "2",
                               "--m", "2", "--n", "1", "--numeric",
                               "--a", "2,3.5", "--eps", "++++")
        rep = json.loads(out)
        assert code == 0 and rep["pass"]


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


class TestStartup:
    def test_cli_import_leaves_out_scipy_integrate(self):
        code = ("import sys, isolab.cli; "
                "sys.exit('scipy.integrate' in sys.modules)")
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True)
        assert done.returncode == 0, done.stderr


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


class TestPeriodsTrace:
    def test_trace_rows(self, capsys):
        code, out, _ = run_cli(capsys, "periods", "--m", "2", "--n", "1",
                               "--a", "0,1,2+1i", "--trace", "0")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert rows[0] == ["index", "z_re", "z_im", "w_re", "w_im"]
        assert len(rows) > 100


class TestThreadPool:
    def test_env_var_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("ISOLAB_THREADS", "2")
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
