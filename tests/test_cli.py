"""Command line interface: exit codes, formats, files, batch mode."""

import json
import math
import subprocess
import sys
from io import StringIO

import pytest

import zeon.poly
from zeon import Zeon, default_tolerance, parse_zeon
from zeon.cli import _dispatch, main

Z1 = Zeon.blade(2, (1,))

QUARTIC = ("3 - z{1,2} - z{1,3} - z{1,4}; "
           "-10 + 2*z{1,2} + 2*z{1,3} + 2*z{1,4}; "
           "12 - z{1,2} - z{1,3} - z{1,4}; -6; 1")


def run(*argv):
    out, err = StringIO(), StringIO()
    code = _dispatch(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def error_name(err_text):
    return json.loads(err_text)["error"]


# -- happy paths --------------------------------------------------------------


class TestCommands:
    def test_inv(self):
        code, out, err = run("inv", "--n", "1", "1 + z{1}")
        assert (code, out, err) == (0, "1 - z{1}\n", "")

    def test_eval(self):
        code, out, _ = run("eval", "--n", "1", "1; 0; 1", "2 + z{1}")
        assert code == 0
        # (2 + z1)^2 + 1 = 5 + 4 z1
        assert out == "5 + 4*z{1}\n"

    def test_root_square(self):
        code, out, _ = run("root", "--n", "1", "--k", "2", "4 + 4*z{1}")
        assert code == 0
        assert out.splitlines() == ["2 + z{1}", "-2 - z{1}"]

    def test_root_default_k(self):
        code, out, _ = run("root", "--n", "1", "4")
        assert code == 0
        assert out.splitlines() == ["2", "-2"]

    def test_divide(self):
        code, out, _ = run("divide", "--n", "1", "0; 0; 1", "-z{1}; 1")
        assert code == 0
        assert out.splitlines() == ["z{1}; 1", "0"]

    def test_quad_two_distinct(self):
        code, out, _ = run("quad", "--n", "2", "1", "-3 - z{1}", "2 + z{1}")
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "TwoDistinct"
        assert report["zeros"] == ["2 + z{1}", "1"]
        assert report["discriminant"] == "1 + 2*z{1}"

    def test_quad_family(self):
        code, out, _ = run("quad", "--n", "2", "1", "-2", "1")
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "NullSquareFamily"
        assert report["family_base"] == "1"

    def test_solve_with_seed(self):
        code, out, _ = run("solve", "--n", "4", "--seed", "3", QUARTIC)
        assert code == 0
        assert out == "3 + 0.5*z{1,2} + 0.5*z{1,3} + 0.5*z{1,4}\n"

    def test_solve_full_report(self):
        code, out, _ = run("solve", "--n", "4", QUARTIC)
        assert code == 0
        report = json.loads(out)
        spectrum = {round(r["value"]["re"]): r["multiplicity"]
                    for r in report["scalar_spectrum"]}
        assert spectrum == {1: 3, 3: 1}
        (zero,) = report["spectral_zeros"]
        assert zero["zero"] == "3 + 0.5*z{1,2} + 0.5*z{1,3} + 0.5*z{1,4}"
        assert zero["grade_trace"] == [2]
        assert len(report["warnings"]) == 1
        assert report["input_digest"]

    def test_classify(self):
        code, out, _ = run("classify", "--n", "3", "0; 0; 1")
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "NilpotentFamily"
        assert report["zeros"] == ["z{1}"]
        assert report["family_spec"]["nilpotency_bound"] == 2

    def test_classify_empty(self):
        code, out, _ = run("classify", "--n", "2", "1; 1")
        assert code == 0
        assert json.loads(out)["kind"] == "Empty"

    def test_extend_exp(self):
        code, out, _ = run("extend", "--fn", "exp", "--n", "2", "z{1}")
        assert (code, out) == (0, "1 + z{1}\n")

    def test_extend_pow(self):
        code, out, _ = run("extend", "--fn", "pow(2)", "--n", "1", "2 + z{1}")
        assert (code, out) == (0, "4 + 4*z{1}\n")

    def test_preimage_exp(self):
        code, out, _ = run("preimage", "--fn", "exp", "--n", "2",
                           "--seed", "0", "1 + z{1}")
        assert (code, out) == (0, "z{1}\n")

    def test_preimage_cosine_round_trip(self):
        w_text = "0.8660254037844386 + 3*z{1} + z{1,2} - z{4}"
        code, out, _ = run("preimage", "--fn", "cos", "--n", "4",
                           "--seed", str(math.pi / 3), w_text)
        assert code == 0
        lam = parse_zeon(out.strip(), 4)
        s3 = math.sqrt(3.0)
        want = Zeon(4, {(): math.pi / 6, (1,): -6.0, (1, 2): -2.0,
                        (4,): 2.0, (1, 4): 12.0 * s3, (1, 2, 4): 4.0 * s3})
        assert lam.isclose(want, eps=1e-9)
        code, out, _ = run("extend", "--fn", "cos", "--n", "4", out.strip())
        assert code == 0
        assert parse_zeon(out.strip(), 4).isclose(parse_zeon(w_text, 4),
                                                  eps=1e-9)


# -- JSON emission ------------------------------------------------------------


class TestJsonOutput:
    def test_inv_json(self):
        code, out, _ = run("inv", "--n", "1", "--json", "1 + z{1}")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"n": 1, "terms": [
            {"index": [], "re": 1.0, "im": 0.0},
            {"index": [1], "re": -1.0, "im": -0.0},
        ]}

    def test_root_json_list(self):
        code, out, _ = run("root", "--n", "1", "--json", "4")
        docs = json.loads(out)
        assert isinstance(docs, list) and len(docs) == 2

    def test_divide_json(self):
        code, out, _ = run("divide", "--n", "1", "--json", "0; 0; 1",
                           "-z{1}; 1")
        doc = json.loads(out)
        assert set(doc) == {"quotient", "remainder"}
        assert doc["quotient"]["n"] == 1

    def test_quad_json_embeds_objects(self):
        code, out, _ = run("quad", "--n", "2", "--json", "1", "-3 - z{1}",
                           "2 + z{1}")
        report = json.loads(out)
        assert report["zeros"][0]["n"] == 2
        assert isinstance(report["zeros"][0]["terms"], list)


# -- file input ---------------------------------------------------------------


class TestFileInput:
    def test_text_file_lines(self, tmp_path):
        f = tmp_path / "quad.txt"
        f.write_text("1\n-2\n1 + z{1}\n")
        code, out, err = run("quad", "--n", "2", "--in", str(f))
        assert code == 2
        assert error_name(err) == "NoZeros"

    def test_json_file_single_object(self, tmp_path):
        f = tmp_path / "u.json"
        f.write_text(json.dumps(
            {"n": 1, "terms": [{"index": [], "re": 1, "im": 0},
                               {"index": [1], "re": 1, "im": 0}]}))
        code, out, _ = run("inv", "--in", str(f))
        assert (code, out) == (0, "1 - z{1}\n")

    def test_json_file_list_for_two_slots(self, tmp_path):
        f = tmp_path / "pair.json"
        poly = {"n": 1, "coeffs": [[], [{"index": [], "re": 1, "im": 0}]]}
        point = {"n": 1, "terms": [{"index": [], "re": 42, "im": 0}]}
        f.write_text(json.dumps([poly, point]))
        code, out, _ = run("eval", "--in", str(f))
        assert (code, out) == (0, "42\n")

    def test_json_file_polynomial(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(json.dumps(
            {"n": 1, "coeffs": [[{"index": [], "re": -1, "im": 0}],
                                [{"index": [], "re": 1, "im": 0}]]}))
        code, out, _ = run("solve", "--in", str(f))
        assert code == 0
        report = json.loads(out)
        assert report["spectral_zeros"][0]["zero"] == "1"

    def test_n_cross_check(self, tmp_path):
        f = tmp_path / "u.json"
        f.write_text(json.dumps(
            {"n": 2, "terms": [{"index": [], "re": 1, "im": 0}]}))
        code, _, err = run("inv", "--n", "3", "--in", str(f))
        assert code == 1
        assert error_name(err) == "ParseError"

    def test_in_excludes_positionals(self, tmp_path):
        f = tmp_path / "u.txt"
        f.write_text("1\n")
        code, _, err = run("inv", "--n", "1", "--in", str(f), "1")
        assert code == 1
        assert error_name(err) == "UsageError"

    def test_missing_file(self):
        code, _, err = run("inv", "--n", "1", "--in", "/nonexistent/u.txt")
        assert code == 1
        assert error_name(err) == "ParseError"

    def test_malformed_json_file(self, tmp_path):
        f = tmp_path / "u.json"
        f.write_text("{broken")
        code, _, err = run("inv", "--in", str(f))
        assert code == 1
        assert error_name(err) == "ParseError"


# -- tolerance precedence ------------------------------------------------------


class TestTolerance:
    MARGINAL = "1e-8 + z{1}"

    def test_builtin_accepts(self, monkeypatch):
        monkeypatch.delenv("ZEON_TOL", raising=False)
        code, _, _ = run("inv", "--n", "1", self.MARGINAL)
        assert code == 0

    def test_flag_overrides_builtin(self, monkeypatch):
        monkeypatch.delenv("ZEON_TOL", raising=False)
        code, _, err = run("inv", "--n", "1", "--tol", "1e-6", self.MARGINAL)
        assert code == 2
        assert error_name(err) == "NotInvertible"

    def test_env_overrides_builtin(self, monkeypatch):
        monkeypatch.setenv("ZEON_TOL", "1e-6")
        code, _, err = run("inv", "--n", "1", self.MARGINAL)
        assert code == 2
        assert error_name(err) == "NotInvertible"

    def test_config_overrides_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("ZEON_TOL", "1e-6")
        cfg = tmp_path / "tol.cfg"
        cfg.write_text("# loose pruning, strict equality\neq_eps = 1e-12\n")
        code, _, _ = run("inv", "--n", "1", "--config", str(cfg),
                         self.MARGINAL)
        assert code == 0

    def test_flag_overrides_config(self, monkeypatch, tmp_path):
        monkeypatch.delenv("ZEON_TOL", raising=False)
        cfg = tmp_path / "tol.cfg"
        cfg.write_text("eq_eps = 1e-12\n")
        code, _, err = run("inv", "--n", "1", "--config", str(cfg),
                           "--tol", "1e-6", self.MARGINAL)
        assert code == 2

    def test_config_all_keys(self, monkeypatch, tmp_path):
        monkeypatch.delenv("ZEON_TOL", raising=False)
        cfg = tmp_path / "tol.cfg"
        cfg.write_text("prune_eps = 1e-14\neq_eps = 1e-9\n"
                       "root_eps = 1e-10\ncluster_eps = 1e-7\n")
        code, _, _ = run("inv", "--n", "1", "--config", str(cfg), "1")
        assert code == 0

    def test_bad_config_entry(self, monkeypatch, tmp_path):
        monkeypatch.delenv("ZEON_TOL", raising=False)
        cfg = tmp_path / "tol.cfg"
        cfg.write_text("bogus = 3\n")
        code, _, err = run("inv", "--n", "1", "--config", str(cfg), "1")
        assert code == 1
        assert error_name(err) == "ParseError"

    # a coarse prune_eps drops the 0.0001 term while parsing; the
    # default keeps it and the inverse carries it to z{1,2}
    DUST = "1 + 0.0001 z{1} + z{2}"
    PRUNED = "1 - z{2}"
    KEPT = "1 - 0.0001*z{1} - z{2} + 0.0002*z{1,2}"

    def coarse_config(self, tmp_path):
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text("prune_eps = 1e-3\neq_eps = 1e-2\n")
        return cfg

    def test_config_prune_eps_applies(self, monkeypatch, tmp_path):
        monkeypatch.delenv("ZEON_TOL", raising=False)
        before = default_tolerance()
        code, out, err = run("inv", "--n", "2", "--config",
                             str(self.coarse_config(tmp_path)), self.DUST)
        assert (code, out, err) == (0, self.PRUNED + "\n", "")
        assert default_tolerance() is before
        code, out, _ = run("inv", "--n", "2", self.DUST)
        assert (code, out) == (0, self.KEPT + "\n")

    def test_config_does_not_leak_to_next_batch_line(self, monkeypatch,
                                                      tmp_path):
        monkeypatch.delenv("ZEON_TOL", raising=False)
        f = tmp_path / "cmds.txt"
        f.write_text(
            f'inv --n 2 --config {self.coarse_config(tmp_path)} "{self.DUST}"\n'
            f'inv --n 2 "{self.DUST}"\n')
        code, out, err = run("--batch", str(f))
        assert (code, err) == (0, "")
        assert out.splitlines() == [self.PRUNED, self.KEPT]

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("ZEON_TOL", "tight")
        code, _, err = run("inv", "--n", "1", "1")
        assert code == 1
        assert error_name(err) == "ParseError"


# -- failure modes -------------------------------------------------------------


class TestErrors:
    def test_no_command(self):
        code, _, err = run()
        assert code == 1

    def test_unknown_command(self):
        code, _, err = run("frobnicate")
        assert code == 1
        assert error_name(err) == "UsageError"

    def test_missing_n_for_text(self):
        code, _, err = run("inv", "1 + z{1}")
        assert code == 1
        assert error_name(err) == "UsageError"

    def test_wrong_input_count(self):
        code, _, err = run("quad", "--n", "1", "1", "2")
        assert code == 1
        assert error_name(err) == "UsageError"

    def test_bad_k(self):
        code, _, err = run("root", "--n", "1", "--k", "0", "4")
        assert code == 1
        assert error_name(err) == "UsageError"

    def test_preimage_needs_seed(self):
        code, _, err = run("preimage", "--fn", "exp", "--n", "1", "1")
        assert code == 1
        assert error_name(err) == "UsageError"

    def test_extend_needs_fn(self):
        code, _, err = run("extend", "--n", "1", "1")
        assert code == 1

    def test_classify_rejects_dual_coefficients(self):
        code, _, err = run("classify", "--n", "1", "z{1}; 1")
        assert code == 1
        assert error_name(err) == "UsageError"

    def test_unparseable_element(self):
        code, _, err = run("inv", "--n", "1", "1 + q{1}")
        assert code == 1
        assert error_name(err) == "ParseError"

    def test_not_invertible_exit_2(self):
        code, out, err = run("inv", "--n", "1", "z{1}")
        assert code == 2
        assert out == ""
        assert error_name(err) == "NotInvertible"

    def test_quad_no_zeros_exit_2(self):
        code, out, err = run("quad", "--n", "2", "1", "-2", "1 + z{1}")
        assert code == 2
        doc = json.loads(err)
        assert doc["error"] == "NoZeros"
        assert "minimum grade" in doc["message"]

    def test_divide_bad_divisor_exit_2(self):
        code, _, err = run("divide", "--n", "1", "0; 0; 1", "z{1}")
        assert code == 2
        assert error_name(err) == "DivisorNotMonicizable"

    def test_solve_multiple_root_seed_exit_2(self):
        code, _, err = run("solve", "--n", "1", "--seed", "1", "1; -2; 1")
        assert code == 2
        assert error_name(err) == "NotSpectrallySimple"

    def test_preimage_outside_domain_exit_2(self):
        code, _, err = run("preimage", "--fn", "log", "--n", "1",
                           "--seed", "-1", "1")
        assert code == 2
        assert error_name(err) == "OutsideDomain"

    def test_unknown_fn(self):
        code, _, err = run("extend", "--fn", "gamma", "--n", "1", "1")
        assert code == 1
        assert error_name(err) == "ParseError"


# -- batch mode -----------------------------------------------------------------


class TestBatch:
    def test_outputs_in_input_order(self, tmp_path):
        lines = [f'inv --n 1 "1 + {k}*z{{1}}"' for k in range(2, 8)]
        f = tmp_path / "cmds.txt"
        f.write_text("\n".join(lines) + "\n")
        code, out, err = run("--batch", str(f))
        assert code == 0
        assert out.splitlines() == [f"1 - {k}*z{{1}}" for k in range(2, 8)]
        assert err == ""

    def test_comments_and_blanks_skipped(self, tmp_path):
        f = tmp_path / "cmds.txt"
        f.write_text('# heading\n\ninv --n 1 "1 + z{1}"\n   \n')
        code, out, _ = run("--batch", str(f))
        assert (code, out) == (0, "1 - z{1}\n")

    def test_exit_code_is_first_nonzero(self, tmp_path):
        f = tmp_path / "cmds.txt"
        f.write_text('inv --n 1 "1 + z{1}"\n'
                     'inv --n 1 "z{1}"\n'
                     'bogus\n')
        code, out, err = run("--batch", str(f))
        assert code == 2
        assert out == "1 - z{1}\n"
        errors = [json.loads(line)["error"] for line in err.splitlines()]
        assert errors == ["NotInvertible", "UsageError"]

    def test_nested_batch_rejected(self, tmp_path):
        inner = tmp_path / "inner.txt"
        inner.write_text('inv --n 1 "1"\n')
        outer = tmp_path / "outer.txt"
        outer.write_text(f"--batch {inner}\n")
        code, _, err = run("--batch", str(outer))
        assert code == 1
        assert "nest" in json.loads(err)["message"]

    def test_batch_with_subcommand_rejected(self, tmp_path):
        f = tmp_path / "cmds.txt"
        f.write_text('inv --n 1 "1"\n')
        code, _, err = run("--batch", str(f), "inv")
        assert code == 1

    def test_missing_batch_file(self):
        code, _, err = run("--batch", "/nonexistent/cmds.txt")
        assert code == 1
        assert error_name(err) == "ParseError"

    def test_empty_batch(self, tmp_path):
        f = tmp_path / "cmds.txt"
        f.write_text("# nothing to do\n")
        code, out, err = run("--batch", str(f))
        assert (code, out, err) == (0, "", "")

    def test_mixed_commands(self, tmp_path):
        f = tmp_path / "cmds.txt"
        f.write_text('extend --fn exp --n 2 "z{1}"\n'
                     'root --n 1 "4"\n'
                     'classify --n 2 "0; 0; 1"\n')
        code, out, _ = run("--batch", str(f))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "1 + z{1}"
        assert lines[1:3] == ["2", "-2"]
        assert json.loads(lines[3])["kind"] == "NilpotentFamily"


# -- public entry points ---------------------------------------------------------


class TestEntryPoints:
    def test_main_writes_to_stdio(self, capsys):
        assert main(["inv", "--n", "1", "1 + z{1}"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "1 - z{1}\n"
        assert captured.err == ""

    def test_main_error_path(self, capsys):
        assert main(["inv", "--n", "1", "z{1}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_name(captured.err) == "NotInvertible"

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "zeon.cli", "inv", "--n", "1", "1 + z{1}"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "1 - z{1}\n"

    def test_cold_start_leaves_scipy_unimported(self):
        # scipy.optimize costs more than the rest of a cold start; only
        # the least-squares fallbacks of nilpotent_sqrt may import it
        script = ("import sys\n"
                  "from zeon.cli import main\n"
                  "main(['inv', '--n', '1', '1 + z{1}'])\n"
                  "print('scipy.optimize' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["1 - z{1}", "False"]
        # a plain module attribute, so that it can be wrapped or patched
        assert callable(vars(zeon.poly)["least_squares"])
