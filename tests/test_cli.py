import json

import numpy as np
import pytest
from click.testing import CliRunner

from tnn import (asarray, gallery, is_subgradient, outer_atom, probe_tau,
                 spectral_hopm, write_tensor_file, z_membership)
from tnn.cli import main
from tnn.subspace import order_ge2_sum


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestNormsCommands:
    def test_spectral_matches_library(self, runner):
        res = run(runner, ["norms", "spectral", "gallery:yuan3?t=1"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        g = gallery("yuan3", t=1.0)
        direct = spectral_hopm(asarray(g["X"])).value
        assert doc["value"] == pytest.approx(direct, abs=1e-12)
        assert doc["certified"]["lower"] <= 2.0 / np.sqrt(3) + 1e-8
        assert doc["certified"]["upper"] >= 2.0 / np.sqrt(3) - 1e-8
        assert doc["certified"]["method"] == "bnb"

    def test_spectral_past_branch_and_bound_limit(self, runner, tmp_path):
        path = tmp_path / "large.tensor"
        T = np.random.default_rng(0).standard_normal((5, 6, 7))
        write_tensor_file(path, T)
        res = run(runner, ["norms", "spectral", str(path)])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        cert = doc["certified"]
        assert cert["method"] == "flattening"
        assert np.isfinite(cert["upper"])
        assert doc["value"] <= cert["lower"] <= cert["upper"]

    def test_deterministic_output(self, runner):
        args = ["norms", "spectral", "gallery:notsingle?t=0.5"]
        out1 = run(runner, args).output
        out2 = run(runner, args).output
        assert out1 == out2

    def test_nuclear_on_file(self, runner, tmp_path):
        path = tmp_path / "atom.tensor"
        write_tensor_file(path, gallery("yuan3")["T"])
        res = run(runner, ["norms", "nuclear", str(path)])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["lower"] == pytest.approx(1.0, abs=1e-6)
        assert doc["upper"] == pytest.approx(1.0, abs=1e-6)

    def test_nuclear_offers_no_sandwich_options(self, runner):
        res = run(runner, ["norms", "nuclear", "--help"])
        assert res.exit_code == 0
        for retired in ("--tol", "--seed", "--max-atoms"):
            assert retired not in res.output

    def test_missing_file_is_invalid_input(self, runner):
        res = run(runner, ["norms", "spectral", "no/such/file.tensor"])
        assert res.exit_code == 2

    def test_unknown_gallery_part(self, runner):
        res = run(runner, ["norms", "spectral", "gallery:yuan3?part=Q"])
        assert res.exit_code == 2

    def test_missing_gallery_part(self, runner):
        res = run(runner, ["norms", "spectral", "gallery:limitation?part=Z"])
        assert res.exit_code == 2
        assert "error: gallery entry 'limitation' has no part 'Z'" in res.output


class TestGalleryUri:
    def test_default_parts(self, runner):
        res = run(runner, ["norms", "spectral", "gallery:limitation"])
        doc = json.loads(res.output)
        g = gallery("limitation")
        direct = spectral_hopm(asarray(g["T"] + g["S"])).value
        assert doc["value"] == pytest.approx(direct, abs=1e-9)

    def test_sum_part(self, runner):
        res = run(runner, ["norms", "spectral", "gallery:yuan3?t=0.6&part=ZX"])
        doc = json.loads(res.output)
        expected = 2.0 * np.sqrt(0.6 ** 3 / 0.8)
        assert doc["value"] == pytest.approx(expected, abs=1e-6)

    def test_spectral_reports_convergence(self, runner):
        # Norm exactly 1, where the alternating sweeps stall.
        res = run(runner, ["norms", "spectral", "gallery:yuan3?t=0.5&part=ZX"])
        doc = json.loads(res.output)
        assert doc["converged"] is True
        assert 0 < doc["iterations"] < 2000
        assert doc["value"] == pytest.approx(1.0, abs=1e-12)


class TestCheckCommands:
    def test_subgrad_pass_and_fail_exit_codes(self, runner):
        ok = run(runner, ["check", "subgrad", "--gallery", "yuan3",
                          "--t", "0.5"])
        assert ok.exit_code == 0
        assert json.loads(ok.output)["verdict"] == "pass"
        bad = run(runner, ["check", "subgrad", "--gallery", "yuan3",
                           "--t", "0.75"])
        assert bad.exit_code == 1
        assert json.loads(bad.output)["verdict"] == "fail"

    def test_subgrad_from_files(self, runner, tmp_path):
        T = outer_atom([np.array([1.0, 0.0])] * 3)
        write_tensor_file(tmp_path / "T.tensor", T)
        for scale, verdict, code in ((1.0, "pass", 0), (1.5, "fail", 1)):
            write_tensor_file(tmp_path / "G.tensor", scale * T)
            res = run(runner, ["check", "subgrad",
                               "--candidate", str(tmp_path / "G.tensor"),
                               "--base", str(tmp_path / "T.tensor")])
            assert res.exit_code == code
            doc = json.loads(res.output)
            assert doc["verdict"] == verdict
            assert doc["pairing"] == is_subgradient(scale * T, T).pairing

    def test_zmember_from_files(self, runner, tmp_path):
        g = gallery("notsingle", t=0.5)
        write_tensor_file(tmp_path / "Z.tensor", g["Z"])
        write_tensor_file(tmp_path / "T.tensor", g["T"])
        res = run(runner, ["check", "zmember",
                           "--Z", str(tmp_path / "Z.tensor"),
                           "--T", str(tmp_path / "T.tensor"),
                           "--tol", "0.05"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["verdict"] == "pass"
        assert doc["pairing"] == z_membership(g["Z"], g["T"], tol=0.05)[
            "pairing"]

    def test_zmember_gallery(self, runner):
        res = run(runner, ["check", "zmember", "--gallery", "notsingle",
                           "--t", "0.5", "--tol", "0.05"])
        assert res.exit_code == 0
        assert json.loads(res.output)["verdict"] == "pass"

    @pytest.mark.parametrize("name, part, missing", [
        ("limitation", "S", "Z"), ("yuan3", "Y", "Y"), ("yuan3", "t", "t")])
    def test_subgrad_missing_gallery_part(self, runner, name, part, missing):
        res = run(runner, ["check", "subgrad", "--gallery", name,
                           "--part", part])
        assert res.exit_code == 2
        assert (f"error: gallery entry {name!r} has no part {missing!r}"
                in res.output)

    def test_zmember_missing_gallery_part(self, runner):
        res = run(runner, ["check", "zmember", "--gallery", "limitation"])
        assert res.exit_code == 2
        assert "error: gallery entry 'limitation' has no part 'Z'" in res.output

    def test_decomp_spectral_suite(self, runner):
        res = run(runner, ["check", "decomp-spectral", "--dims", "2,2,2",
                           "--I", "1,2", "--trials", "3"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["pass"] == 3
        assert doc["max_discrepancy"] <= 1e-6

    def test_decomp_nuclear_suite(self, runner):
        res = run(runner, ["check", "decomp-nuclear", "--dims", "2,2,2",
                           "--I", "1,2", "--trials", "3"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["kind"] == "decomp-nuclear"
        assert doc["pass"] == 3

    def test_weak_suite(self, runner):
        res = run(runner, ["check", "weak", "--dims", "2,2,2",
                           "--trials", "2"])
        assert res.exit_code == 0
        assert json.loads(res.output)["fail"] == 0

    def test_sphere_value(self, runner):
        res = run(runner, ["check", "sphere", "--name", "opt-b2"])
        assert res.exit_code == 0
        assert json.loads(res.output)["value"] == pytest.approx(1.5,
                                                                abs=1e-6)

    def test_tau_probe_single_pair(self, runner):
        res = run(runner, ["check", "tau-probe", "--selector", "upperU:2,3",
                           "--dims", "2,2,2", "--trials", "2"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["feasible_max"] == pytest.approx(1.0, abs=1e-3)

    def test_tau_probe_order_two_sum(self, runner):
        res = run(runner, ["check", "tau-probe", "--selector", "sum:ge2",
                           "--dims", "2,2,2", "--trials", "1"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["selector"] == "sum:[1,2;1,3;2,3;1,2,3]"
        est = probe_tau(order_ge2_sum(3), (2, 2, 2), trials=1)
        assert doc["trials"] == est.trials
        assert doc["feasible_max"] == est.feasible_max
        assert doc["infeasible_min"] == est.infeasible_min

    def test_tau_probe_past_branch_and_bound_limit(self, runner):
        res = run(runner, ["check", "tau-probe", "--selector", "upperU:1,2",
                           "--dims", "5,5,6", "--trials", "1"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["feasible_max"] == pytest.approx(1.0, abs=1e-3)

    def test_tau_probe_refuses_zero_bisect_tol(self, runner):
        res = run(runner, ["check", "tau-probe", "--selector", "upperU:1,2",
                           "--dims", "2,2,2", "--trials", "1",
                           "--bisect-tol", "0"])
        assert res.exit_code == 2

    def test_lower_bound_on_gallery(self, runner):
        res = run(runner, ["check", "lower-bound", "gallery:limitation",
                           "--I", "1,2"])
        assert res.exit_code == 0
        assert json.loads(res.output)["verdict"] == "pass"


class TestRpcaCommands:
    def test_gen_certify_roundtrip(self, runner, tmp_path):
        prefix = tmp_path / "inst"
        res = run(runner, ["rpca", "gen", "--dims", "12,12,12",
                           "--rho", "0.02", "--m", "3", "--seed", "1",
                           "--out", str(prefix)])
        assert res.exit_code == 0
        archive = json.loads(res.output)["archive"]
        assert (tmp_path / "inst.json").exists()
        assert (tmp_path / "inst.L.tensor").exists()
        assert (tmp_path / "inst.S.tensor").exists()

        res = run(runner, ["rpca", "certify", "--instance", archive])
        assert res.exit_code in (0, 1)
        doc = json.loads(res.output)
        assert set(doc["conditions"]) == {
            "span_distance", "off_span_spectral", "support_match",
            "off_support_inf", "span_support_angle",
        }
        assert doc["conditions"]["span_distance"]["ok"]
        assert doc["conditions"]["support_match"]["ok"]

    def test_gen_keeps_dotted_prefixes_apart(self, runner, tmp_path):
        # Two prefixes that differ only after a dot write separate files.
        for seed in (1, 2):
            res = run(runner, ["rpca", "gen", "--dims", "4,4,4",
                               "--seed", str(seed),
                               "--out", str(tmp_path / f"run.{seed}")])
            assert res.exit_code == 0
            assert json.loads(res.output)["archive"] == str(
                tmp_path / f"run.{seed}.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run.1.L.tensor", "run.1.S.tensor", "run.1.json",
            "run.2.L.tensor", "run.2.S.tensor", "run.2.json"]
        for seed in (1, 2):
            arc = json.loads((tmp_path / f"run.{seed}.json").read_text())
            assert arc["seed"] == seed
            assert arc["L_file"] == f"run.{seed}.L.tensor"

    def test_certify_rejects_tampered_archive(self, runner, tmp_path):
        prefix = tmp_path / "inst"
        run(runner, ["rpca", "gen", "--dims", "8,8,8", "--rho", "0.1",
                     "--m", "2", "--seed", "0", "--out", str(prefix)])
        arc = json.loads((tmp_path / "inst.json").read_text())
        arc["masks"] = arc["masks"][:1]
        (tmp_path / "inst.json").write_text(json.dumps(arc))
        res = run(runner, ["rpca", "certify",
                           "--instance", str(tmp_path / "inst.json")])
        assert res.exit_code == 2

    def test_solve2d(self, runner):
        res = run(runner, ["rpca", "solve2d", "--n", "20", "--r", "1",
                           "--rho", "0.05", "--seed", "3"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["rel_err_L"] <= 1e-4

    def test_concentration(self, runner):
        res = run(runner, ["rpca", "concentration", "--dims", "6,6,6",
                           "--q", "0.9", "--trials", "3"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert len(doc["records"]) == 3


class TestReproduce:
    def test_collect_only_finds_acceptance_suite(self, runner):
        res = run(runner, ["reproduce", "--pytest-args", "--collect-only -q"])
        assert res.exit_code == 0

    def test_pytest_args_split_like_a_shell(self, runner, monkeypatch):
        import subprocess

        calls = []

        def fake_run(cmd, check):
            calls.append(cmd)
            return subprocess.CompletedProcess(cmd, 0)

        monkeypatch.setattr(subprocess, "run", fake_run)
        res = run(runner, ["reproduce", "--pytest-args",
                           "-k 'Sphere and values' -q"])
        assert res.exit_code == 0
        assert len(calls) == 1
        assert calls[0][-3:] == ["-k", "Sphere and values", "-q"]
