"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from tests.conftest import (
    FIG5_GUIDE_SOURCE,
    FIG5_MODEL_SOURCE,
    FIG6_PCFG_SOURCE,
)


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.gt"
    path.write_text(FIG5_MODEL_SOURCE)
    return str(path)


@pytest.fixture
def guide_file(tmp_path):
    path = tmp_path / "guide.gt"
    path.write_text(FIG5_GUIDE_SOURCE)
    return str(path)


@pytest.fixture
def bad_guide_file(tmp_path):
    path = tmp_path / "bad_guide.gt"
    path.write_text(
        """
        proc BadGuide() provide latent {
          v <- sample.send{latent}(Normal(0.0, 1.0));
          if.recv{latent} {
            return(v)
          } else {
            m <- sample.send{latent}(Unif);
            return(v)
          }
        }
        """
    )
    return str(path)


class TestInferTypes:
    def test_prints_protocols(self, model_file, capsys):
        assert main(["infer-types", model_file]) == 0
        out = capsys.readouterr().out
        assert "Model / latent" in out
        assert "Model / obs" in out

    def test_recursive_program(self, tmp_path, capsys):
        path = tmp_path / "pcfg.gt"
        path.write_text(FIG6_PCFG_SOURCE)
        assert main(["infer-types", str(path)]) == 0
        assert "typedef PcfgGen.latent" in capsys.readouterr().out

    def test_missing_file_reports_error(self, capsys):
        assert main(["infer-types", "does_not_exist.gt"]) == 2

    def test_parse_error_reports_error(self, tmp_path):
        path = tmp_path / "broken.gt"
        path.write_text("proc Broken( {")
        assert main(["infer-types", str(path)]) == 2


class TestCheck:
    def test_compatible_pair_exits_zero(self, model_file, guide_file, capsys):
        assert main(["check", model_file, guide_file]) == 0
        assert "compatible" in capsys.readouterr().out

    def test_incompatible_pair_exits_nonzero(self, model_file, bad_guide_file, capsys):
        assert main(["check", model_file, bad_guide_file]) == 1
        assert "INCOMPATIBLE" in capsys.readouterr().out

    def test_explicit_entries(self, model_file, guide_file):
        assert main([
            "check", model_file, guide_file,
            "--model-entry", "Model", "--guide-entry", "Guide1",
        ]) == 0


class TestCompile:
    def test_compile_to_stdout(self, model_file, guide_file, capsys):
        assert main(["compile", model_file, guide_file]) == 0
        out = capsys.readouterr().out
        assert "def Model():" in out
        assert "def GUIDE_ENTRY():" in out

    def test_compile_to_file(self, model_file, guide_file, tmp_path):
        output = tmp_path / "generated.py"
        assert main(["compile", model_file, guide_file, "-o", str(output)]) == 0
        text = output.read_text()
        compile(text, "generated.py", "exec")


class TestRunIS:
    def test_runs_importance_sampling(self, model_file, guide_file, capsys):
        code = main([
            "run-is", model_file, guide_file,
            "--obs", "0.8", "--particles", "200", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "log evidence estimate" in out
        assert "posterior mean" in out

    def test_refuses_uncertified_pair_without_force(self, model_file, bad_guide_file):
        assert main([
            "run-is", model_file, bad_guide_file, "--obs", "0.8", "--particles", "10",
        ]) == 1


class TestRunSVI:
    @pytest.fixture
    def weight_files(self, tmp_path):
        from repro.models import get_benchmark

        bench = get_benchmark("weight")
        model = tmp_path / "weight_model.gt"
        guide = tmp_path / "weight_guide.gt"
        model.write_text(bench.model_source)
        guide.write_text(bench.guide_source)
        return str(model), str(guide)

    def test_fits_parameters_and_reports_posterior(self, weight_files, capsys):
        model_file, guide_file = weight_files
        code = main([
            "run-svi", model_file, guide_file,
            "--obs", "9.5", "--particles", "64", "--steps", "10",
            "--lr", "0.1", "--seed", "1",
            "--param", "loc=8.5", "--param", "log_scale=0.0",
            "--final-particles", "500",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ELBO trajectory" in out
        assert "fitted parameters" in out
        assert "posterior mean" in out

    def test_finite_difference_engine_selectable(self, weight_files, capsys):
        model_file, guide_file = weight_files
        code = main([
            "run-svi", model_file, guide_file, "--engine", "svi-fd",
            "--obs", "9.5", "--particles", "8", "--steps", "2", "--seed", "1",
            "--param", "loc=8.5", "--param", "log_scale=0.0",
        ])
        assert code == 0
        assert "engine                  : svi-fd" in capsys.readouterr().out

    def test_non_numeric_param_reports_clean_error(self, weight_files, capsys):
        model_file, guide_file = weight_files
        code = main([
            "run-svi", model_file, guide_file,
            "--obs", "9.5", "--param", "loc=abc",
        ])
        assert code == 2
        assert "expects a numeric value" in capsys.readouterr().err

    def test_malformed_param_spec_reports_clean_error(self, weight_files, capsys):
        model_file, guide_file = weight_files
        code = main([
            "run-svi", model_file, guide_file, "--obs", "9.5", "--param", "loc",
        ])
        assert code == 2
        assert "expects name=value" in capsys.readouterr().err

    def test_unit_constraint_default_init_is_valid(self, weight_files, capsys):
        # Regression: the auto-init for a unit-constrained parameter used to
        # be 1.0, which the sigmoid inverse rejects as outside (0, 1).
        model_file, guide_file = weight_files
        code = main([
            "run-svi", model_file, guide_file,
            "--obs", "9.5", "--particles", "16", "--steps", "1", "--seed", "1",
            "--constraint", "log_scale=real", "--constraint", "loc=unit",
        ])
        assert code == 0
        assert "'loc': 0.5" in capsys.readouterr().out

    def test_defaults_parameters_when_none_given(self, weight_files, capsys):
        model_file, guide_file = weight_files
        code = main([
            "run-svi", model_file, guide_file,
            "--obs", "9.5", "--particles", "16", "--steps", "1", "--seed", "1",
        ])
        assert code == 0
        assert "no --param given" in capsys.readouterr().out

    def test_refuses_uncertified_pair_without_force(self, model_file, bad_guide_file):
        assert main([
            "run-svi", model_file, bad_guide_file, "--obs", "0.8", "--steps", "1",
        ]) == 1


class TestBenchmarksListing:
    def test_lists_all_benchmarks(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "ex-1" in out and "gp-dsl" in out and "dp" in out
