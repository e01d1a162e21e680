import errno
import json
import math
import mmap
import os
import re
import signal
import tracemalloc
import warnings

import numpy as np
import pytest

from cosine_audit import __version__, analysis, cli, io_utils, synthgen
from cosine_audit.cli import USER_USER_MAX_USERS, main
from cosine_audit.errors import ConfigError, ZeroRowError
from cosine_audit.io_utils import config_hash, read_matrix_csv
from cosine_audit.matrix_core import Spectrum, spectrum
from cosine_audit.mf_solvers import solve_objective1, solve_objective2
from cosine_audit.remedies import standardize
from cosine_audit.rescale import FAMILIES
from cosine_audit.similarity import user_item
from cosine_audit.synthgen import SAMPLER, SimConfig, sample_interactions

SIM = {"n": 120, "p": 30, "C": 3, "cluster_probs": [0.4, 0.3, 0.3],
       "beta_item_min": 0.25, "beta_item_max": 1.5, "beta_user": 0.5,
       "seed": 11}


def write_config(tmp_path, extra=None, name="config.json"):
    cfg = {"sim": dict(SIM)}
    if extra:
        cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestSimulate:
    def test_writes_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        x = read_matrix_csv(out / "X.csv")
        assert x.shape == (120, 30)
        gt = json.loads((out / "ground_truth.json").read_text())
        assert len(gt["item_cluster"]) == 30
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["sampler"] == SAMPLER
        assert sorted(f.name for f in out.iterdir()) == [
            "X.csv", "ground_truth.json", "manifest.json"]

    def test_same_seed_identical_files(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["simulate", "--config", str(cfg), "--out", str(out)])
            outs.append((out / "X.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--out", str(out2),
              "--seed", "99"])
        assert (out1 / "X.csv").read_bytes() != (out2 / "X.csv").read_bytes()

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        bad = dict(SIM, C=0, cluster_probs=[])
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"sim": bad}))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "C" in capsys.readouterr().err

    @pytest.mark.parametrize("last", ["X.csv", "ground_truth.json",
                                      "manifest.json"])
    def test_failed_rerun_leaves_no_export_beside_another_record(
            self, tmp_path, monkeypatch, capsys, last):
        # a rerun at another seed fails at `last`, after writing part of it;
        # the last run's exports and the manifest recording them stay as
        # they were
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        last_run = tree(out)
        for module, writer in ((cli, "write_matrix_csv"), (cli, "write_json"),
                               (io_utils, "write_json")):
            def failing(path, *args, real=getattr(module, writer)):
                if path.name != last:
                    return real(path, *args)
                path.write_bytes(b"{")
                raise OSError(f"{last} write failed")

            monkeypatch.setattr(module, writer, failing)
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--seed", "2"]) == 3
        assert capsys.readouterr().err == f"compute error: {last} write failed\n"
        assert tree(out) == last_run

    def test_bare_sim_config_refused(self, tmp_path, capsys):
        # a top-level object holding the sim keys is not a second format
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(SIM))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "config error: n: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestSolveAndSimilarity:
    def test_solve_writes_pair(self, tmp_path):
        cfg = write_config(tmp_path, {"solve": {"objective": 1,
                                                "lambda": 10.0, "rank": 5}})
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        a = read_matrix_csv(out / "pair_obj1" / "A.csv")
        assert a.shape == (30, 5)
        meta = json.loads((out / "pair_obj1" / "meta.json").read_text())
        assert meta["lambda"] == 10.0
        assert meta["objective"] == 1

    def test_meta_names_the_entry_it_solves(self, tmp_path):
        # the gauges' pairs differ; each meta.json names its own entry
        metas, pairs = [], []
        for family in ("collapse", "inverse"):
            entry = {"objective": 1, "lambda": 30.0, "rank": 5,
                     "family": family}
            cfg = write_config(tmp_path, {"solve": entry})
            out = tmp_path / family
            assert main(["solve", "--config", str(cfg), "--out",
                         str(out)]) == 0
            meta = json.loads((out / "pair_obj1" / "meta.json").read_text())
            pair = io_utils.read_embedding_pair(out / "pair_obj1")
            assert meta == {**entry, "effective_rank": 5, "degenerate": False,
                            "sigma": pair.sigma.tolist()}
            metas.append(meta)
            pairs.append(pair)
        assert metas[0]["sigma"] == metas[1]["sigma"]
        assert not np.array_equal(pairs[0].A, pairs[1].A)

    @pytest.mark.parametrize("objective", [1, 2])
    def test_standardize_solves_the_standardized_x(self, tmp_path, objective):
        cfg = write_config(tmp_path, {"solve": {
            "objective": objective, "lambda": 10.0, "rank": 5,
            "standardize": True}})
        # each in its own directory: similarity would delete solve's files
        out, sim_out = tmp_path / "out", tmp_path / "sim_out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["similarity", "--config", str(cfg), "--out", str(sim_out),
                     "--kind", "user-item"]) == 0
        x = sample_interactions(SimConfig.from_dict(SIM))[0].matrix
        z = standardize(x)
        solver = solve_objective1 if objective == 1 else solve_objective2
        want = solver(z, 5, 10.0)
        a = read_matrix_csv(out / f"pair_obj{objective}" / "A.csv")
        assert np.array_equal(a, want.A)
        assert not np.allclose(a, solver(x, 5, 10.0).A)
        sim = read_matrix_csv(
            sim_out / f"similarity_user-item_cosine_obj{objective}_identity.csv")
        assert np.array_equal(sim, user_item(z, want, on_zero="drop").values)

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf", "-1"])
    def test_non_finite_or_negative_lambda_exit_2(self, tmp_path, capsys, lam):
        cfg = write_config(tmp_path, {"solve": {"objective": 1,
                                                "lambda": 10.0, "rank": 5}})
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out),
                     f"--lambda={lam}"]) == 2
        assert "lambda" in capsys.readouterr().err
        assert not (out / "pair_obj1").exists()

    def test_similarity_export(self, tmp_path):
        cfg = write_config(tmp_path, {"solve": {"objective": 1,
                                                "lambda": 10.0, "rank": 5}})
        out = tmp_path / "out"
        assert main(["similarity", "--config", str(cfg), "--out", str(out),
                     "--family", "collapse", "--metric", "cosine"]) == 0
        name = "similarity_item-item_cosine_obj1_collapse"
        v = read_matrix_csv(out / f"{name}.csv")
        assert v.shape == (30, 30)
        sidecar = json.loads((out / f"{name}.json").read_text())
        assert sidecar["provenance"]["family"] == "collapse"


    def test_user_user_export(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["similarity", "--config", str(cfg), "--out", str(out),
                     "--kind", "user-user", "--rank", "5"]) == 0
        v = read_matrix_csv(out / "similarity_user-user_cosine_obj1_identity.csv")
        assert v.shape == (120, 120)

    def test_user_user_size_guard_exits_2_before_allocating(
            self, tmp_path, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("ran past the size guard")

        for name in ("sample_interactions", "user_user"):
            monkeypatch.setattr(cli, name, forbidden)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"sim": dict(SIM, n=USER_USER_MAX_USERS + 1)}))
        out = tmp_path / "out"
        assert main(["similarity", "--config", str(cfg), "--out", str(out),
                     "--kind", "user-user", "--rank", "4"]) == 2
        assert "user-user" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, last", [
        ("solve", "meta.json"), ("solve", "manifest.json"),
        ("similarity", "similarity_item-item_cosine_obj1_identity.pgm"),
        ("similarity", "manifest.json")])
    def test_failed_write_leaves_none_of_its_files(
            self, tmp_path, monkeypatch, capsys, command, last):
        # the write of `last`, the export's last file or the manifest after
        # it, fails after writing part of the file
        for writer in ("write_json", "write_pgm"):
            def failing(path, *args, real=getattr(io_utils, writer)):
                if path.name != last:
                    return real(path, *args)
                path.write_bytes(b"{")
                raise OSError(f"{last} write failed")

            monkeypatch.setattr(io_utils, writer, failing)
        cfg = write_config(tmp_path, {"solve": {"objective": 1,
                                                "lambda": 10.0, "rank": 5}})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"compute error: {last} write failed\n"
        assert tree(out) == {}

    def test_failed_write_leaves_no_pair_directory(self, tmp_path,
                                                   monkeypatch, capsys):
        def failing(path, m):
            raise OSError(f"{path.name} write failed")

        monkeypatch.setattr(io_utils, "write_matrix_csv", failing)
        cfg = write_config(tmp_path, {"solve": {"objective": 1,
                                                "lambda": 10.0, "rank": 5}})
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "compute error: A.csv write failed\n"
        assert list(out.iterdir()) == []


class TestStrictEntries:
    ENTRY = {"objective": 1, "lambda": 100.0, "rank": 8}

    @pytest.mark.parametrize("key, value", [
        ("rank", 8.7), ("rank", 8.0), ("objective", True), ("objective", 1.9),
        ("lambda", "100"), ("familly", "inverse"), ("standardize", False),
        pytest.param("lambda", 10 ** 400, id="lambda-beyond_float64")])
    def test_plan_entry_exit_2_naming_the_key(self, tmp_path, capsys, key,
                                              value):
        cfg = write_config(tmp_path, {"plan": [dict(self.ENTRY, **{key: value})]})
        out = tmp_path / "out"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"plan[0].{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "similarity",
                                         "fullrank-check"])
    @pytest.mark.parametrize("key, value", [
        ("rank", 8.7), ("objective", True), ("lambda", "100"),
        ("lamda", 100.0), ("standardize", "no"), ("family", 3)])
    def test_solve_section_exit_2_naming_the_key(self, tmp_path, capsys,
                                                 command, key, value):
        cfg = write_config(tmp_path, {"solve": dict(self.ENTRY, **{key: value})})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"solve.{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "similarity",
                                         "fullrank-check"])
    def test_solve_section_family_accepted_and_recorded(self, tmp_path,
                                                        command):
        # the solve section is a plan entry: solve and similarity solve it
        # in its family, and fullrank-check, which audits every family,
        # ignores it as it ignores the rank
        outs = {}
        for family in ("inverse", None):
            solve = dict(self.ENTRY, **({"family": family} if family else {}))
            cfg = write_config(tmp_path, {"solve": solve})
            outs[family] = out = tmp_path / f"out_{family}"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((outs["inverse"] / "manifest.json").read_text())
        assert manifest["config"]["solve"]["family"] == "inverse"
        entry = analysis.PlanEntry(1, 100.0, 8, "inverse")
        if command == "solve":
            pair = io_utils.read_embedding_pair(outs["inverse"] / "pair_obj1")
            X = sample_interactions(SimConfig.from_dict(SIM))[0]
            want = analysis.solve_plan_entry(X, entry)
            assert np.array_equal(pair.A, want.A)
            assert np.array_equal(pair.B, want.B)
        elif command == "similarity":
            name = "similarity_item-item_cosine_obj1_inverse"
            sidecar = json.loads((outs["inverse"] / f"{name}.json").read_text())
            assert sidecar["provenance"] == {**entry.to_dict(),
                                             "effective_rank": 8,
                                             "degenerate": False}
        else:
            report = "fullrank_report.json"
            assert ((outs["inverse"] / report).read_bytes()
                    == (outs[None] / report).read_bytes())

    def test_family_flag_overrides_the_solve_section(self, tmp_path):
        cfg = write_config(tmp_path, {"solve": dict(self.ENTRY,
                                                    family="collapse")})
        out = tmp_path / "out"
        assert main(["similarity", "--config", str(cfg), "--out", str(out),
                     "--family", "inverse"]) == 0
        assert sorted(f.name for f in out.glob("similarity_*.csv")) == [
            "similarity_item-item_cosine_obj1_inverse.csv"]
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["solve"]["family"] == "inverse"

    @pytest.mark.parametrize("argv", [
        ["audit", "--lambda", "5"], ["audit", "--metric", "dot"],
        ["simulate", "--rank", "3"], ["solve", "--family", "inverse"],
        ["fullrank-check", "--objective", "2"]])
    def test_flag_the_subcommand_does_not_read_exit_2(self, tmp_path, capsys,
                                                      argv):
        with pytest.raises(SystemExit) as e:
            main(argv + ["--out", str(tmp_path / "out")])
        assert e.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


COMMANDS = ["simulate", "solve", "similarity", "audit", "fullrank-check"]
ENTRY = {"objective": 1, "lambda": 1.0, "rank": 4}


# steep popularity leaves items undrawn, so X's rank is below p = 200
STEEP = dict(SIM, n=300, p=200, beta_item_min=2.5, beta_item_max=3.0)
ABOVE = 8  # how far TestZeroSigmaRule's entries reach past rank(X)


def steep_rank():
    return spectrum(sample_interactions(SimConfig.from_dict(STEEP))[0]).rank


def zero_padding(k):
    return (f"warning: {ABOVE} of the top {k} singular values are zero; "
            "the corresponding embedding dimensions are zero-padded\n")


class TestStrictConfig:
    """Each subcommand checks the whole file before it writes anything."""

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("cfg, flags, key", [
        ({"simm": SIM}, [], "simm"),
        ({"sim": SIM, "plann": []}, [], "plann"),
        ({"sim": dict(SIM, n=120.9)}, [], "sim.n"),
        ({"sim": dict(SIM, n=120.0)}, [], "sim.n"),
        ({"sim": dict(SIM, seed=True)}, [], "sim.seed"),
        ({"sim": dict(SIM, C="3")}, [], "sim.C"),
        ({"sim": dict(SIM, cluster_probs=[True, False, False])}, [],
         "sim.cluster_probs"),
        ({"sim": dict(SIM, seeed=3)}, [], "sim.seeed"),
        ({"sim": [1, 2]}, [], "sim"),
        ({"sim": SIM, "output": {"dirr": "zz"}}, [], "output.dirr"),
        ({"sim": SIM, "output": "x"}, [], "output"),
        ({"sim": SIM, "output": {"dir": 5}}, [], "output.dir"),
        ({"sim": dict(SIM, seed=-1)}, [], "sim.seed"),
        ({"sim": SIM}, ["--seed", "-3"], "sim.seed"),
        ({"sim": dict(SIM, seed=2 ** 64)}, [], "sim.seed"),
        ({"sim": SIM}, ["--seed", str(2 ** 64)], "sim.seed"),
        ({"sim": dict(SIM, n=10 ** 20)}, [], "sim.n"),
        ({"sim": dict(SIM, n=2 ** 62, p=2)}, [], "sim.n"),
        ({"sim": dict(SIM, n=0)}, [], "sim.n"),
        ({"sim": dict(SIM, cluster_probs=[0.5, 0.5])}, [],
         "sim.cluster_probs"),
        ({"sim": dict(SIM, beta_item_min=2.0)}, [], "sim.beta_item_min"),
        ({"sim": SIM, "plan": [{"objective": 1, "lambda": 1.0}]}, [],
         "plan[0].rank"),
        ({"sim": SIM, "plan": [{"objective": 1, "lambda": 1.0,
                                "rank": 4.0}]}, [], "plan[0].rank"),
        ({"sim": SIM, "plan": [ENTRY, dict(ENTRY, rank=31)]}, [],
         "plan[1].rank"),
        ({"sim": dict(SIM, n=20), "plan": [dict(ENTRY, rank=21)]}, [],
         "plan[0].rank"),
        ({"sim": SIM, "solve": dict(ENTRY, rank=31)}, [], "solve.rank"),
        ({"sim": SIM, "plan": [dict(ENTRY, rank=0)]}, [], "plan[0].rank"),
        ({"sim": SIM, "solve": dict(ENTRY, rank=0)}, [], "solve.rank"),
        ({"sim": SIM, "plan": [dict(ENTRY, objective=3)]}, [],
         "plan[0].objective"),
        ({"sim": SIM, "plan": [dict(ENTRY, **{"lambda": -1.0})]}, [],
         "plan[0].lambda"),
        ({"sim": SIM, "solve": dict(ENTRY, **{"lambda": -1.0})}, [],
         "solve.lambda"),
        ({"sim": SIM, "plan": [dict(ENTRY, family="bogus")]}, [],
         "plan[0].family"),
        ({"sim": SIM, "plan": [ENTRY, dict(ENTRY, objective=2,
                                            family="collapse")]}, [],
         "plan[1].family"),
        ({"sim": SIM, "plan": [dict(ENTRY, objective=2, family="inverse")]},
         [], "plan[0].family"),
    ], ids=["simm", "plann", "n_float", "n_integral_float", "seed_bool",
            "C_string", "probs_bools", "seeed", "sim_list", "output_dirr",
            "output_string", "output_dir_int", "seed_negative",
            "seed_flag_negative", "seed_2_64", "seed_flag_2_64", "n_10_20",
            "np_2_63", "n_zero", "probs_short", "beta_min_above_max",
            "plan_missing_rank", "plan_float_rank", "plan_rank_above_p",
            "plan_rank_above_n", "solve_rank_above_p", "plan_rank_zero",
            "solve_rank_zero", "plan_objective_3", "plan_lambda_negative",
            "solve_lambda_negative", "plan_family_bogus",
            "plan_objective_2_collapse", "plan_objective_2_inverse"])
    def test_exit_2_naming_the_key_writing_nothing(
            self, tmp_path, monkeypatch, capsys, command, cfg, flags, key):
        cwd, out = tmp_path / "cwd", tmp_path / "out"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        if "output" not in cfg:
            cfg = dict(cfg, output={"dir": str(out)})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert f"config error: {key}: " in err
        assert "Traceback" not in err
        assert not out.exists()
        assert list(cwd.iterdir()) == []

    @pytest.mark.parametrize("argv, key", [
        (["solve", "--rank", "31"], "solve.rank"),
        (["similarity", "--rank", "31"], "solve.rank"),
        (["similarity", "--objective", "2", "--family", "inverse"],
         "solve.family"),
        (["similarity", "--objective", "2", "--family", "collapse"],
         "solve.family"),
        (["similarity", "--objective", "2", "--family",
          "symmetric-matching"], "solve.family")],
        ids=["solve_rank_above_p", "similarity_rank_above_p",
             "objective_2_inverse", "objective_2_collapse",
             "objective_2_symmetric_matching"])
    def test_flag_value_exit_2_naming_the_key(self, tmp_path, monkeypatch,
                                              capsys, argv, key):
        cwd, out = tmp_path / "cwd", tmp_path / "out"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        cfg = write_config(tmp_path, {"solve": ENTRY})
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: {key}: " in capsys.readouterr().err
        assert not out.exists()
        assert list(cwd.iterdir()) == []

    @pytest.mark.parametrize("command", ["solve", "similarity"])
    def test_rank_flag_overrides_a_rank_above_p(self, tmp_path, command):
        cfg = write_config(tmp_path, {"solve": dict(ENTRY, rank=31)})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out),
                     "--rank", "30"]) == 0

    @pytest.mark.parametrize("command, extra, key", [
        ("audit", None, "plan"), ("audit", {"solve": ENTRY}, "plan"),
        ("solve", None, "solve.rank"), ("solve", {"plan": [ENTRY]}, "solve.rank"),
        ("similarity", None, "solve.rank")])
    def test_builtin_rank_above_min_n_p_exit_2_before_drawing(
            self, tmp_path, monkeypatch, capsys, command, extra, key):
        def forbidden(*args, **kwargs):
            raise AssertionError("drew X")

        monkeypatch.setattr(cli, "sample_interactions", forbidden)
        cwd, out = tmp_path / "cwd", tmp_path / "out"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        cfg = write_config(tmp_path, extra)  # p = 30, below the rank 50
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: not set")
        assert "rank 50 is above min(sim.n, sim.p) = 30" in err
        assert not out.exists()
        assert list(cwd.iterdir()) == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_standardize_one_row_exit_2_before_drawing(
            self, tmp_path, monkeypatch, capsys, command):
        def forbidden(*args, **kwargs):
            raise AssertionError("drew X")

        monkeypatch.setattr(cli, "sample_interactions", forbidden)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "sim": {"n": 1, "p": 5, "C": 1, "cluster_probs": [1.0]},
            "solve": {"rank": 1, "standardize": True},
            "plan": [dict(ENTRY, rank=1)]}))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: solve.standardize: needs at least 2 rows, got "
            "sim.n = 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "fullrank-check"])
    def test_builtin_rank_unchecked_where_unsolved(self, tmp_path, command):
        cfg = write_config(tmp_path)
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("text", [None, "{bad"],
                             ids=["missing", "malformed"])
    def test_unreadable_config_exit_2_writing_nothing(
            self, tmp_path, monkeypatch, capsys, command, text):
        cwd, out = tmp_path / "cwd", tmp_path / "out"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config: cannot read {path}: ")
        assert not out.exists()
        assert list(cwd.iterdir()) == []

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("text, key", [
        ('{"sim": {"n": 300, "p": 60, "seed": 3, "seed": 4}}', "seed"),
        ('{"sim": {"n": 300, "p": 60}, "plan": [{"objective": 1, '
         '"lambda": 10.0, "rank": 5, "rank": 6}]}', "rank")],
        ids=["sim.seed", "plan.rank"])
    def test_a_key_given_twice_exit_2_writing_nothing(
            self, tmp_path, monkeypatch, capsys, command, text, key):
        # json.load would keep the last value silently
        cwd, out = tmp_path / "cwd", tmp_path / "out"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: config: cannot read {path}: key {key!r} given "
            "twice\n")
        assert not out.exists()
        assert list(cwd.iterdir()) == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_naming_a_file_exit_2_before_drawing(
            self, tmp_path, monkeypatch, capsys, command):
        def forbidden(*args, **kwargs):
            raise AssertionError("drew X")

        monkeypatch.setattr(cli, "sample_interactions", forbidden)
        cfg = write_config(tmp_path, {"plan": [ENTRY], "solve": ENTRY})
        afile = tmp_path / "afile"
        afile.write_text("kept")
        # --out is the file, or a directory that would be made under it
        for out in (afile, afile / "sub" / "dir"):
            assert main([command, "--config", str(cfg), "--out",
                         str(out)]) == 2
            assert capsys.readouterr().err == (
                f"config error: output.dir: {afile} exists and is not a "
                "directory\n")
        assert afile.read_text() == "kept"

    @pytest.mark.parametrize("argv", [["audit"],
                                      ["similarity", "--family", "inverse"]])
    def test_failed_solve_leaves_no_directory(self, tmp_path, capsys,
                                              monkeypatch, argv):
        def failing(*args, **kwargs):
            raise ValueError("the solve failed")

        # both commands solve their objective 1 entry in analysis
        monkeypatch.setattr(analysis, "solve_objective1", failing)
        cfg = write_config(tmp_path, {"plan": [dict(ENTRY, family="inverse")],
                                      "solve": ENTRY})
        out = tmp_path / "new" / "out"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err.endswith(
            "compute error: the solve failed\n")
        assert not (tmp_path / "new").exists()

    def test_top_level_not_an_object_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "config error: config: must be a JSON object" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_failed_simulation_leaves_no_directory(self, tmp_path,
                                                   monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("Maximum allowed dimension exceeded")

        monkeypatch.setattr(cli, "sample_interactions", failing)
        # a rank that fits p = 30, so that audit reaches the draw
        cfg = write_config(tmp_path, {"plan": [ENTRY]})
        out = tmp_path / "out"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_of_memory_exit_3(self, tmp_path, capsys, monkeypatch,
                                  command):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 36.4 TiB for an array")

        monkeypatch.setattr(cli, "sample_interactions", exhausted)
        # ranks that fit p = 30, so that every command reaches the draw
        cfg = write_config(tmp_path, {"plan": [ENTRY], "solve": ENTRY})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == ("compute error: out of memory: "
                       "Unable to allocate 36.4 TiB for an array\n")
        assert not out.exists()

    def test_output_dir_from_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, {"output": {"dir": "from_config"}})
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_config" / "X.csv").exists()
        assert main(["simulate", "--config", str(cfg), "--out", "flag"]) == 0
        assert (tmp_path / "flag" / "X.csv").exists()

    def test_integer_numbers_written_as_floats(self, tmp_path):
        # JSON integers are numbers; the manifest holds them as floats, as a
        # config that spells them 1.0 does
        sim = dict(SIM, cluster_probs=[1, 0, 0], beta_user=1)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"sim": sim}))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        record = manifest["config"]["sim"]
        assert record["cluster_probs"] == [1.0, 0.0, 0.0]
        assert all(isinstance(v, float)
                   for v in [*record["cluster_probs"], record["beta_user"]])


class TestAudit:
    def plan(self):
        return [
            {"objective": 1, "lambda": 100.0, "rank": 8, "family": "collapse"},
            {"objective": 1, "lambda": 100.0, "rank": 8, "family": "identity"},
            {"objective": 1, "lambda": 100.0, "rank": 8, "family": "inverse"},
            {"objective": 2, "lambda": 2.0, "rank": 8, "family": "identity"},
        ]

    def test_report_matches_plan_length(self, tmp_path):
        cfg = write_config(tmp_path, {"plan": self.plan()})
        out = tmp_path / "out"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["results"]) == 4
        for entry in self.plan():
            label = (f"obj{entry['objective']}_lam{entry['lambda']:g}"
                     f"_k{entry['rank']}_{entry['family']}")
            assert (out / f"similarity_{label}.csv").exists()
            assert (out / f"similarity_{label}.pgm").exists()

    def test_degenerate_entry_warned_and_reported(self, tmp_path, capsys):
        sample, _ = sample_interactions(SimConfig.from_dict(SIM))
        s = spectrum(sample.matrix).singular_values
        lam = float(s[0] + s[1]) / 2  # keeps only the top dimension
        plan = [{"objective": 2, "lambda": lam, "rank": 8},
                {"objective": 2, "lambda": 0.0, "rank": 8}]
        cfg = write_config(tmp_path, {"plan": plan})
        out = tmp_path / "out"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        flags = [(r["effective_rank"], r["degenerate"])
                 for r in report["results"]]
        assert flags == [(1, True), (8, False)]
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning: degenerate plan entry")]
        assert len(warnings) == 1
        assert "effective_rank=1 rank=8" in warnings[0]

    def test_zero_sigma_warning_is_one_line(self, tmp_path, capsys):
        # rank p keeps zero sigma; both objectives' entries warn from one
        # place, so once
        entry = {"objective": 1, "lambda": 100.0, "rank": 200}
        both = [entry, {**entry, "objective": 2, "lambda": 1.0}]
        for plan in ([entry], both):
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps({"sim": STEEP, "plan": plan}))
            assert main(["audit", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 0
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1, err
            assert re.fullmatch(r"warning: \d+ of the top 200 singular "
                                r"values are zero; the corresponding "
                                r"embedding dimensions are zero-padded",
                                err[0])

    def test_rank_p_entry_runs_no_full_rank_checks(self, tmp_path,
                                                   monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("audit ran the full-rank checks")

        monkeypatch.setattr(cli, "audit_full_rank", forbidden)
        plan = [{"objective": 1, "lambda": 10.0, "rank": 30,
                 "family": "identity"}]
        cfg = write_config(tmp_path, {"plan": plan})
        out = tmp_path / "out"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert sorted(report) == ["ground_truth_contrast", "results"]

    def test_bad_plan_family_exit_2(self, tmp_path):
        plan = [{"objective": 1, "lambda": 1.0, "rank": 4, "family": "bogus"}]
        cfg = write_config(tmp_path, {"plan": plan})
        assert main(["audit", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("lam", [-5.0, float("nan"), float("inf")])
    def test_bad_plan_lambda_exit_2(self, tmp_path, lam):
        plan = [{"objective": 1, "lambda": lam, "rank": 4,
                 "family": "identity"}]
        cfg = tmp_path / "config.json"
        # json.dumps writes NaN and Infinity, which json.load reads back
        cfg.write_text(json.dumps({"sim": SIM, "plan": plan}))
        out = tmp_path / "out"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("command", ["audit", "simulate", "solve"])
    def test_entries_sharing_six_digits_of_lambda_run(self, tmp_path,
                                                      command):
        # %g would name both lam1.23457e+06; their labels name each in full
        plan = [{"objective": 1, "lambda": 1234567.0, "rank": 5},
                {"objective": 1, "lambda": 2.0, "rank": 5},
                {"objective": 1, "lambda": 1234568.0, "rank": 5}]
        cfg = write_config(tmp_path, {"plan": plan, "solve": {"rank": 5}})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        if command == "audit":
            for lam in ("1234567.0", "2", "1234568.0"):
                side = json.loads((out / f"similarity_obj1_lam{lam}_k5_"
                                   "identity.json").read_text())
                assert side["provenance"]["lambda"] == float(lam)
            assert len(list(out.glob("similarity_*"))) == 9

    def test_zero_and_minus_zero_lambda_share_one_file_set(self, tmp_path):
        plan = [{"objective": 1, "lambda": 0.0, "rank": 5},
                {"objective": 1, "lambda": -0.0, "rank": 5}]
        cfg = write_config(tmp_path, {"plan": plan})
        out = tmp_path / "out"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["results"]) == 2
        assert sorted(f.name for f in out.glob("similarity_*")) == [
            f"similarity_obj1_lam0_k5_identity.{ext}"
            for ext in ("csv", "json", "pgm")]

    @pytest.mark.parametrize("lams", [(0.0, -0.0), (-0.0, 0.0)])
    def test_equal_entries_export_the_first_entry(self, tmp_path, lams):
        plan = [{"objective": 1, "lambda": lam, "rank": 5} for lam in lams]
        cfg = write_config(tmp_path, {"plan": plan})
        out = tmp_path / "out"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        side = json.loads((out / "similarity_obj1_lam0_k5_identity.json").read_text())
        lam = side["provenance"]["lambda"]
        assert math.copysign(1.0, lam) == math.copysign(1.0, lams[0])
        assert (math.copysign(1.0, report["results"][0]["entry"]["lambda"])
                == math.copysign(1.0, lams[0]))

    def test_an_entry_listed_twice_runs(self, tmp_path):
        plan = [self.plan()[0], self.plan()[1], self.plan()[0]]
        cfg = write_config(tmp_path, {"plan": plan})
        out = tmp_path / "out"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert [r["entry"] for r in report["results"]] == [
            dict(e, family=e.get("family", "identity")) for e in plan]
        assert len(list(out.glob("similarity_*"))) == 6

    def test_seed_flag_refuses_stale_x(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"plan": self.plan()})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        x_before = (out / "X.csv").read_bytes()
        assert main(["audit", "--config", str(cfg), "--out", str(out),
                     "--seed", "99"]) == 2
        err = capsys.readouterr().err
        assert "seed" in err and "11" in err and "99" in err
        assert (out / "X.csv").read_bytes() == x_before
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert not (out / "report.json").exists()

    def test_x_without_record_refused(self, tmp_path):
        cfg = write_config(tmp_path, {"plan": self.plan()})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        (out / "manifest.json").unlink()
        last_run = tree(out)
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 2
        assert tree(out) == last_run

    @pytest.mark.parametrize("kept", ["X.csv", "ground_truth.json"])
    def test_one_export_with_another_record_refused(self, tmp_path, kept):
        # left beside a report of another seed, the export would mislabel it
        cfg = write_config(tmp_path, {"plan": self.plan()})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        for name in {"X.csv", "ground_truth.json"} - {kept}:
            (out / name).unlink()
        assert main(["audit", "--config", str(cfg), "--out", str(out),
                     "--seed", "99"]) == 2
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("kept", [["X.csv"], ["ground_truth.json"],
                                      ["X.csv", "ground_truth.json"]],
                             ids=["x", "ground_truth", "both"])
    def test_refusal_names_the_exports_there(self, tmp_path, capsys, kept):
        cfg = write_config(tmp_path, {"plan": self.plan()})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        for name in {"X.csv", "ground_truth.json"} - set(kept):
            (out / name).unlink()
        assert main(["audit", "--config", str(cfg), "--out", str(out),
                     "--seed", "99"]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: sim: {out} holds {' and '.join(kept)}, not "
            "simulated from this config (seed 11 there, 99 here); ")

    @pytest.mark.parametrize("text", ["{bad", "[1, 2]", "null",
                                      '{"config": 5, "sampler": null}'],
                             ids=["malformed", "list", "null",
                                  "config_not_an_object"])
    def test_unreadable_manifest_beside_x_refused(self, tmp_path, capsys,
                                                   text):
        cfg = write_config(tmp_path, {"plan": self.plan()})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        (out / "manifest.json").write_text(text)
        last_run = tree(out)
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: sim: {out} holds X.csv and "
                              "ground_truth.json, not simulated from this "
                              "config (n None there, 120 here, ")
        assert tree(out) == last_run

    @pytest.mark.parametrize("sampler", [None, "gumbel-top-k"])
    def test_x_from_another_sampler_refused(self, tmp_path, capsys, sampler):
        # an X.csv drawn by another sampler differs from a fresh run's
        cfg = write_config(tmp_path, {"plan": self.plan()})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sampler"] == SAMPLER
        if sampler is None:
            del manifest["sampler"]
        else:
            manifest["sampler"] = sampler
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"sampler {sampler!r} there, {SAMPLER!r} here" in err
        assert not (out / "report.json").exists()

    def test_reuses_x_from_simulate_and_records_seed(self, tmp_path):
        cfg = write_config(tmp_path, {"plan": self.plan()})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--seed", "5"]) == 0
        x_before = (out / "X.csv").stat().st_mtime_ns
        assert main(["audit", "--config", str(cfg), "--out", str(out),
                     "--seed", "5"]) == 0
        assert (out / "X.csv").stat().st_mtime_ns == x_before
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 5

    @staticmethod
    def fail_solves_at_rank(monkeypatch, failing_rank):
        real = analysis.solve_objective1

        def solve(X, rank, lam):
            if rank == failing_rank:
                raise np.linalg.LinAlgError("eigenvalues did not converge")
            return real(X, rank, lam)

        monkeypatch.setattr(analysis, "solve_objective1", solve)

    def test_solver_failure_exit_3_and_cleanup(self, tmp_path, monkeypatch,
                                               capsys):
        self.fail_solves_at_rank(monkeypatch, 30)
        plan = [{"objective": 1, "lambda": 1.0, "rank": 30,
                 "family": "identity"}]
        cfg = write_config(tmp_path, {"plan": plan})
        out = tmp_path / "out"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 3
        assert "compute error: eigenvalues did not converge" in (
            capsys.readouterr().err)
        assert not (out / "report.json").exists()
        assert not list(out.glob("similarity_*"))

    def test_failure_after_an_export_removes_it(self, tmp_path, monkeypatch):
        self.fail_solves_at_rank(monkeypatch, 30)
        plan = [{"objective": 1, "lambda": 1.0, "rank": 4,
                 "family": "identity"},
                {"objective": 1, "lambda": 1.0, "rank": 30,
                 "family": "identity"}]
        cfg = write_config(tmp_path, {"plan": plan})
        out = tmp_path / "out"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 3
        assert not (out / "report.json").exists()
        assert not list(out.glob("similarity_*"))

    def test_rank_above_min_n_p_exit_2_before_drawing(self, tmp_path,
                                                      monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("drew X for a plan that cannot run")

        monkeypatch.setattr(cli, "sample_interactions", forbidden)
        plan = [{"objective": 1, "lambda": 1.0, "rank": 4},
                {"objective": 1, "lambda": 1.0, "rank": 31}]
        cfg = write_config(tmp_path, {"plan": plan})
        out = tmp_path / "out"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: plan[1].rank: must be at most min(sim.n, sim.p) "
            "= 30, got 31\n")
        assert not out.exists()

    def test_failure_after_the_ground_truth_heatmap_removes_it(
            self, tmp_path, monkeypatch):
        real_write_json = cli.write_json

        def failing(path, doc):
            if path.name == "report.json":
                raise ValueError("report write failed")
            real_write_json(path, doc)

        monkeypatch.setattr(cli, "write_json", failing)
        plan = [{"objective": 1, "lambda": 10.0, "rank": 30}]
        cfg = write_config(tmp_path, {"plan": plan})
        out = tmp_path / "out"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 3
        assert not (out / "ground_truth.pgm").exists()
        assert not list(out.glob("similarity_*"))


    def test_failure_at_the_manifest_removes_the_report(self, tmp_path,
                                                         monkeypatch):
        def failing(*args):
            raise OSError("manifest write failed")

        monkeypatch.setattr(cli, "write_manifest", failing)
        plan = [{"objective": 1, "lambda": 10.0, "rank": 30}]
        cfg = write_config(tmp_path, {"plan": plan})
        out = tmp_path / "out"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 3
        assert not (out / "report.json").exists()
        assert not (out / "ground_truth.pgm").exists()
        assert not list(out.glob("similarity_*"))

    def test_failure_at_a_similarity_heatmap_removes_every_export(
            self, tmp_path, monkeypatch, capsys):
        # the PGM is the last file write_similarity writes; the failed write
        # leaves a partial one behind
        def failing(path, values, lo, hi):
            path.write_bytes(b"P2\n")
            raise OSError("heatmap write failed")

        monkeypatch.setattr(io_utils, "write_pgm", failing)
        cfg = write_config(tmp_path, {"plan": self.plan()})
        out = tmp_path / "out"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err.endswith(
            "compute error: heatmap write failed\n")
        assert not (out / "report.json").exists()
        assert not list(out.glob("similarity_*"))


class TestZeroSigmaRule:
    """An entry above rank(X) is zero-padded in every gauge: a dimension
    with sigma = 0 has zero columns whatever its scale."""

    @pytest.mark.parametrize("entry", [
        *({"objective": 1, "lambda": lam, "family": family}
          for family in FAMILIES for lam in (0.0, 100.0)),
        {"objective": 2, "lambda": 1.0}],
        ids=lambda e: f"obj{e['objective']}-{e.get('family', 'identity')}"
                      f"-lam{e['lambda']:g}")
    def test_entry_above_rank_of_x_matches_it_at_rank_of_x(
            self, tmp_path, capsys, entry):
        r = steep_rank()
        plan = [dict(entry, rank=r + ABOVE), dict(entry, rank=r)]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"sim": STEEP, "plan": plan}))
        out = tmp_path / "out"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == zero_padding(r + ABOVE)
        above, at = json.loads((out / "report.json").read_text())["results"]
        assert above["entry"] == {**at["entry"], "rank": r + ABOVE}
        assert above["excluded_items"] == at["excluded_items"]
        assert above["effective_rank"] == at["effective_rank"]
        for key, value in at["contrast"].items():
            assert abs(above["contrast"][key] - value) <= 1e-12, key
        files = json.loads((out / "manifest.json").read_text())["files"]
        for e in plan:
            label = analysis.PlanEntry.from_dict(e).label()
            assert {f"similarity_{label}{suffix}"
                    for suffix in (".csv", ".json", ".pgm")} <= set(files)

    @pytest.mark.parametrize("command", ["solve", "similarity"])
    def test_inverse_entry_above_rank_of_x_runs(self, tmp_path, capsys,
                                                command):
        k = steep_rank() + ABOVE
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"sim": STEEP, "solve": {
            "objective": 1, "lambda": 100.0, "rank": k,
            "family": "inverse"}}))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == zero_padding(k)
        if command == "solve":
            pair = io_utils.read_embedding_pair(out / "pair_obj1")
            assert not pair.sigma[-ABOVE:].any()
            assert not pair.A[:, -ABOVE:].any()
            assert not pair.B[:, -ABOVE:].any()


# what each command that solves an entry runs, and where it records the
# entry's effective rank and degenerate flag
SOLVING = {
    "solve": (["solve"], "pair_obj2/meta.json"),
    "similarity-item-item": (["similarity", "--kind", "item-item"],
                             "similarity_item-item_cosine_obj2_identity.json"),
    "similarity-user-item": (["similarity", "--kind", "user-item"],
                             "similarity_user-item_cosine_obj2_identity.json"),
    "audit": (["audit"], "report.json"),
}


def recorded_rank(path):
    """(effective_rank, degenerate) as the file at `path` records them for
    the one entry it was given."""
    record = json.loads(path.read_text())
    record = (record["results"][0] if "results" in record
              else record.get("provenance", record))
    return record["effective_rank"], record["degenerate"]


class TestDegenerateRule:
    """Every command that solves an entry flags it from that one solve: one
    warning line per distinct degenerate entry, and the effective rank and
    flag that report.json records for it."""

    RANK = 8

    @pytest.mark.parametrize("command", SOLVING)
    @pytest.mark.parametrize("where, effective_rank", [
        ("above-sigma1", 0), ("between-sigma2-sigma1", 1),
        ("below-sigma-k", RANK)])
    def test_one_line_and_the_report_flags(self, tmp_path, capsys, command,
                                           where, effective_rank):
        s = spectrum(sample_interactions(SimConfig.from_dict(SIM))[0]
                     ).singular_values
        lam = {"above-sigma1": 2 * s[0],
               "between-sigma2-sigma1": (s[0] + s[1]) / 2,
               "below-sigma-k": s[self.RANK - 1] / 2}[where]
        entry = {"objective": 2, "lambda": float(lam), "rank": self.RANK}
        # audit's plan lists the entry twice: equal entries print one line
        cfg = write_config(tmp_path, {"solve": entry, "plan": [entry, entry]})
        reference = tmp_path / "reference"
        assert main(["audit", "--config", str(cfg), "--out",
                     str(reference)]) == 0
        capsys.readouterr()
        want = recorded_rank(reference / "report.json")
        assert want == (effective_rank, effective_rank <= 1)

        argv, record = SOLVING[command]
        out = tmp_path / "out"
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("warning: degenerate plan entry")]
        what = ("every item is excluded and the entry has no cosines"
                if effective_rank == 0 else
                "its cosines are all +-1 and its contrast is not a finding")
        label = analysis.PlanEntry.from_dict(entry).label()
        assert lines == ([f"warning: degenerate plan entry {label}: "
                          f"effective_rank={effective_rank} rank={self.RANK}; "
                          f"{what}"] if effective_rank <= 1 else [])
        assert recorded_rank(out / record) == want


class TestAuditWorkers:
    """`audit` forks every child through one helper, `cli._in_child`. The
    first draws X and counts its Gram into a shared mapping; the second
    decomposes that Gram while the calling process draws the ground
    truth. A child that failed, died or was not forked has its step run
    by the calling process, which goes on to the next step as usual: a
    redone draw is followed by a forked decomposition child. The calling
    process then computes its report, and exports each distinct plan
    entry once. With W = min(distinct entries, usable CPUs) of 2 or more,
    forked child w writes distinct[w::W] while the calling process only
    waits; it then writes again, in plan order, the entries of each child
    that failed, died or was not forked. With W = 1 the calling process
    writes them all. Every output and stderr must be those of a run where
    os.fork is missing, which is one process."""

    SIM = dict(SIM, n=2_000, p=200, C=5, cluster_probs=[0.2] * 5)
    PLAN = [{"objective": 1, "lambda": 1000.0, "rank": 20, "family": f}
            for f in ("collapse", "identity", "inverse",
                      "symmetric-matching")] + [
           {"objective": 2, "lambda": 10.0, "rank": 20}]
    # ranks 5 and 20: the largest, which the spectrum holds, is not the first
    MIXED = [{"objective": 1, "lambda": 1000.0, "rank": 5, "family": "inverse"},
             {"objective": 2, "lambda": 10.0, "rank": 20}]
    # the children that build the report's input, in the order in which
    # `audit` forks them and makes their mappings
    STAGES = ("draw", "decomposition")

    @staticmethod
    def run(monkeypatch, capsys, cfg, out, cpus):
        """(exit code, stderr, forks) of `audit` as if `cpus` CPUs were
        usable, or with the CPUs left as they are if `cpus` is None; checks
        that no child outlives the command."""
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(cpus)), raising=False)
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        capsys.readouterr()
        code = main(["audit", "--config", str(cfg), "--out", str(out)])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return code, capsys.readouterr().err, len(forks)

    @staticmethod
    def one_process(monkeypatch, capsys, cfg, out):
        """(exit code, stderr) of `audit` on 2 CPUs where os.fork is
        missing."""
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                      raising=False)
            m.delattr(os, "fork")
            capsys.readouterr()
            code = main(["audit", "--config", str(cfg), "--out", str(out)])
        return code, capsys.readouterr().err

    def config(self, tmp_path, plan, sim=None):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"sim": sim or self.SIM, "plan": plan}))
        return cfg

    def test_outputs_and_stderr_match_one_process(self, tmp_path,
                                                  monkeypatch, capsys):
        cfg = self.config(tmp_path, self.PLAN)
        one, two = tmp_path / "one", tmp_path / "two"
        code1, err1, forks1 = self.run(monkeypatch, capsys, cfg, one, 1)
        code2, err2, forks2 = self.run(monkeypatch, capsys, cfg, two, 2)
        assert (code1, forks1, code2, forks2) == (0, 2, 0, 4)
        files = tree(one)
        assert len(files) == 3 * len(self.PLAN) + 3
        assert tree(two) == files
        assert err2 == err1

    def test_workers_capped_at_plan_entries(self, tmp_path, monkeypatch,
                                            capsys):
        cfg = self.config(tmp_path, self.PLAN[:2])
        code, _, forks = self.run(monkeypatch, capsys, cfg,
                                  tmp_path / "out", 8)
        assert (code, forks) == (0, 4)

    @pytest.mark.parametrize("cpu_count, draw_and_export_forks",
                             [(2, 3), (None, 1)])
    def test_cpu_count_where_affinity_is_missing(self, tmp_path, monkeypatch,
                                                 capsys, cpu_count,
                                                 draw_and_export_forks):
        # as on macOS, which has no os.sched_getaffinity; os.cpu_count()
        # may not know the count, and then the exports are written here;
        # the decomposition child is forked whatever the count
        cfg = self.config(tmp_path, self.PLAN)
        default, out = tmp_path / "default", tmp_path / "out"
        capsys.readouterr()
        assert main(["audit", "--config", str(cfg), "--out", str(default)]) == 0
        err0 = capsys.readouterr().err
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        code, err, forked = self.run(monkeypatch, capsys, cfg, out, None)
        assert (code, forked) == (0, draw_and_export_forks + 1)
        assert len(tree(out)) == 3 * len(self.PLAN) + 3
        assert tree(out) == tree(default)
        assert err == err0

    def test_one_process_where_fork_is_missing(self, tmp_path,
                                               monkeypatch, capsys):
        for i, plan in enumerate((self.PLAN, self.MIXED)):
            cfg = self.config(tmp_path, plan)
            one, two = tmp_path / f"one{i}", tmp_path / f"two{i}"
            code1, err1 = self.one_process(monkeypatch, capsys, cfg, one)
            code2, err2, forks = self.run(monkeypatch, capsys, cfg, two, 2)
            assert (code1, code2, forks) == (0, 0, 4)
            assert len(tree(one)) == 3 * len(plan) + 3
            assert tree(two) == tree(one)
            assert err2 == err1

    def test_the_command_holds_only_the_plans_top_k(self, tmp_path,
                                                    monkeypatch, capsys):
        # in every layout, the spectrum handed to the report is read in
        # place from the decomposition's mapping or array and holds the
        # top k columns, k the plan's largest rank, of the one-process
        # spectrum: forked, without os.fork, and with either child failing
        handed = []
        real = cli.compare_configurations

        def compare(spec, gt, plan):
            handed.append(spec)
            return real(spec, gt, plan)

        cfg = self.config(tmp_path, self.MIXED)
        k = max(e["rank"] for e in self.MIXED)
        full = spectrum(sample_interactions(SimConfig.from_dict(self.SIM))[0])
        for layout in ("forked", "no fork", *self.STAGES):
            with monkeypatch.context() as m:
                m.setattr(cli, "compare_configurations", compare)
                out = tmp_path / layout
                if layout == "no fork":
                    code, _ = self.one_process(m, capsys, cfg, out)
                    forks = 0
                else:
                    if layout in self.STAGES:
                        self.break_child(m, layout, "raising")
                    code, _, forks = self.run(m, capsys, cfg, out, 2)
            forked = 0 if layout == "no fork" else 4
            assert (code, forks) == (0, forked), layout
            spec = handed.pop()
            assert spec.right.shape == (self.SIM["p"], k)
            assert spec.singular_values.shape == (k,)
            assert not spec.right.flags.owndata
            assert not spec.singular_values.flags.owndata
            assert np.array_equal(spec.right, full.right[:, :k])
            assert np.array_equal(spec.singular_values,
                                  full.singular_values[:k])
        assert handed == []

    def break_child(self, m, stage, fault):
        """Patches, through `m`, the forked `stage` child, one of STAGES,
        to be "killed" or to be "raising" in its step, or to get "no
        mapping" (its own and each later one, as when memory is short) or
        "no process". Returns the first argument of each draw and each
        decomposition this process runs, by stage, and each call to the
        refused os.fork or mmap.mmap under "calls"."""
        parent = os.getpid()
        at = self.STAGES.index(stage) + 1
        here = {"draw": [], "decomposition": [], "calls": []}

        def step(name, real):
            def call(*args):
                if os.getpid() == parent:
                    here[name].append(args[0])
                elif name == stage and fault == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                elif name == stage and fault == "raising":
                    raise MemoryError("out of memory in the child")
                return real(*args)
            return call

        def refused(real, error, last):
            def call(*args):
                here["calls"].append(args)
                if at <= len(here["calls"]) <= last:
                    raise error
                return real(*args)
            return call

        m.setattr(cli, "sample_interactions",
                  step("draw", cli.sample_interactions))
        m.setattr(Spectrum, "of_gram",
                  staticmethod(step("decomposition", Spectrum.of_gram)))
        if fault == "no mapping":
            m.setattr(mmap, "mmap", refused(mmap.mmap, OSError(
                errno.ENOMEM, "Cannot allocate memory"), len(self.STAGES)))
        if fault == "no process":
            # a fork that fails, as at a process limit, is a child that failed
            m.setattr(os, "fork", refused(os.fork, OSError(
                errno.EAGAIN, "Resource temporarily unavailable"), at))
        return here

    def step_run_here(self, tmp_path, monkeypatch, capsys, stage, fault):
        """Runs `audit` on 2 CPUs, on PLAN and on MIXED, with the forked
        `stage` child broken by `fault` (see break_child): this process
        runs that child's step itself and goes on to the next step, forked
        when it can be. The run must give the files, stderr and exit code
        of one where os.fork is missing."""
        p, seed = self.SIM["p"], self.SIM["seed"]
        # no mapping: that child and each later one are not forked
        forks = ({"draw": 2, "decomposition": 3}[stage]
                 if fault == "no mapping" else 4)
        # this process draws X again only for a broken draw child, and
        # decomposes the Gram again for a broken decomposition child or
        # where no mapping could be made
        redrawn = stage == "draw"
        redone = stage == "decomposition" or fault == "no mapping"
        for i, plan in enumerate((self.PLAN, self.MIXED)):
            with monkeypatch.context() as m:
                here = self.break_child(m, stage, fault)
                cfg = self.config(tmp_path, plan)
                one, two = tmp_path / f"one{i}", tmp_path / f"two{i}"
                code1, err1 = self.one_process(m, capsys, cfg, one)
                code2, err2, forked = self.run(m, capsys, cfg, two, 2)
            assert (code1, code2, forked) == (0, 0, forks)
            assert [c.seed for c in here["draw"]] == [seed] * (1 + redrawn)
            assert [g.shape for g in here["decomposition"]] == (
                [(p, p)] * (1 + redone))
            assert len(here["calls"]) == {"killed": 0, "raising": 0,
                                          "no mapping": 2,
                                          "no process": 4}[fault]
            assert len(tree(one)) == 3 * len(plan) + 3
            assert tree(two) == tree(one)
            assert err2 == err1

    def test_draw_child_killed(self, tmp_path, monkeypatch, capsys):
        self.step_run_here(tmp_path, monkeypatch, capsys, "draw", "killed")

    def test_draw_failing_only_in_the_child(self, tmp_path, monkeypatch,
                                            capsys):
        self.step_run_here(tmp_path, monkeypatch, capsys, "draw", "raising")

    def test_no_room_for_the_gram_mapping(self, tmp_path, monkeypatch,
                                          capsys):
        # this process draws X and decomposes its Gram itself
        self.step_run_here(tmp_path, monkeypatch, capsys, "draw",
                           "no mapping")

    def test_no_process_for_the_draw(self, tmp_path, monkeypatch, capsys):
        self.step_run_here(tmp_path, monkeypatch, capsys, "draw",
                           "no process")

    def test_decomposition_child_killed(self, tmp_path, monkeypatch, capsys):
        self.step_run_here(tmp_path, monkeypatch, capsys, "decomposition",
                           "killed")

    def test_decomposition_failing_only_in_the_child(self, tmp_path,
                                                     monkeypatch, capsys):
        self.step_run_here(tmp_path, monkeypatch, capsys, "decomposition",
                           "raising")

    def test_no_room_for_the_spectrum_mapping(self, tmp_path, monkeypatch,
                                              capsys):
        # the draw child's mapping is made, the decomposition's is refused
        # and this process decomposes without forking
        self.step_run_here(tmp_path, monkeypatch, capsys, "decomposition",
                           "no mapping")

    def test_no_process_for_the_decomposition(self, tmp_path, monkeypatch,
                                              capsys):
        self.step_run_here(tmp_path, monkeypatch, capsys, "decomposition",
                           "no process")

    @pytest.mark.parametrize("refused", [3, 4])
    def test_no_process_for_an_export_worker(self, tmp_path, monkeypatch,
                                             capsys, refused):
        # forks 3 and 4 are the export workers': this process writes the
        # share of the one that could not be forked
        real = os.fork
        calls = []

        def fork():
            calls.append(os.getpid())
            if len(calls) == refused:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return real()

        monkeypatch.setattr(os, "fork", fork)
        cfg = self.config(tmp_path, self.PLAN)
        one, two = tmp_path / "one", tmp_path / "two"
        code1, err1 = self.one_process(monkeypatch, capsys, cfg, one)
        code2, err2, forks = self.run(monkeypatch, capsys, cfg, two, 2)
        assert (code1, code2, forks) == (0, 0, 4)
        assert len(tree(one)) == 3 * len(self.PLAN) + 3
        assert tree(two) == tree(one)
        assert err2 == err1

    def test_no_eigh_here_when_both_children_succeed(self, tmp_path,
                                                     monkeypatch, capsys):
        # the run's peak sits in the decomposition child, not on top of
        # this process's imported libraries; without os.fork it is here
        parent = os.getpid()
        real = np.linalg.eigh
        here = []

        def eigh(a, *args, **kwargs):
            if os.getpid() == parent:
                here.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        cfg = self.config(tmp_path, self.PLAN)
        one, two = tmp_path / "one", tmp_path / "two"
        code1, _ = self.one_process(monkeypatch, capsys, cfg, one)
        p = self.SIM["p"]
        assert (code1, here) == (0, [(p, p)])
        code2, _, forks = self.run(monkeypatch, capsys, cfg, two, 2)
        assert (code2, forks, here) == (0, 4, [(p, p)])
        assert tree(two) == tree(one)

    def test_ground_truth_warning_printed_once(self, tmp_path, monkeypatch,
                                               capfd):
        # a warning fails the draw child, which prints nothing; this
        # process draws X again, printing it, then draws the ground truth
        # again, which prints nothing, as no filter was set in between: so
        # it is printed once, as one process does
        real = synthgen.sample_ground_truth

        def draw(sim_cfg):
            warnings.warn("the ground truth warns", RuntimeWarning)
            return real(sim_cfg)

        monkeypatch.setattr(synthgen, "sample_ground_truth", draw)
        monkeypatch.setattr(cli, "sample_ground_truth", draw)
        cfg = self.config(tmp_path, self.PLAN[:2])
        assert main(["audit", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        assert capfd.readouterr().err == "warning: the ground truth warns\n"

    def test_the_fork_warning_is_not_printed(self, tmp_path, monkeypatch,
                                             capsys):
        # as on Python 3.12+, whose os.fork warns in a process with
        # threads; shown, as under -X dev, unless `main` filters it
        real = os.fork

        def fork():
            warnings.warn(f"This process (pid={os.getpid()}) is "
                          "multi-threaded, use of fork() may lead to "
                          "deadlocks in the child.", DeprecationWarning,
                          stacklevel=2)
            return real()

        monkeypatch.setattr(os, "fork", fork)
        cfg = self.config(tmp_path, self.PLAN)
        one, two = tmp_path / "one", tmp_path / "two"
        with warnings.catch_warnings():
            warnings.simplefilter("always", DeprecationWarning)
            code1, err1 = self.one_process(monkeypatch, capsys, cfg, one)
            code2, err2, forks = self.run(monkeypatch, capsys, cfg, two, 2)
        assert (code1, code2, forks) == (0, 0, 4)
        assert tree(two) == tree(one)
        assert err2 == err1

    @pytest.mark.parametrize("error, exit_code", [
        (np.linalg.LinAlgError("eigenvalues did not converge"), 3),
        (ZeroRowError(3, what="embedding row"), 3),
        (ConfigError("plan[1].rank", "cannot be solved"), 2)])
    def test_error_in_a_forked_worker_as_in_one_process(
            self, tmp_path, monkeypatch, capsys, error, exit_code):
        # entry 1 would be the child's; the report pass raises its error
        # before anything is forked
        real = analysis.solve_objective1

        def solve(X, rank, lam):
            if rank == 30:
                raise error
            return real(X, rank, lam)

        monkeypatch.setattr(analysis, "solve_objective1", solve)
        plan = [dict(e, rank=30 if i == 1 else 20)
                for i, e in enumerate(self.PLAN)]
        cfg = self.config(tmp_path, plan)
        errs = []
        for cpus in (1, 2):
            out = tmp_path / f"cpus{cpus}"
            code, err, _ = self.run(monkeypatch, capsys, cfg, out, cpus)
            assert code == exit_code
            assert not (out / "report.json").exists()
            assert not list(out.glob("similarity_*"))
            errs.append(err)
        assert errs[1] == errs[0]
        assert errs[0].endswith(f" error: {error}\n")

    def test_first_error_in_plan_order_wins(self, tmp_path, monkeypatch,
                                            capsys):
        # entries 3 and 4 fail to solve: the report pass stops at entry 3
        # before anything is forked or written
        real = analysis.solve_objective1

        def solve(X, rank, lam):
            if rank in (8, 9):
                raise np.linalg.LinAlgError(f"rank {rank} failed")
            return real(X, rank, lam)

        monkeypatch.setattr(analysis, "solve_objective1", solve)
        plan = [dict(self.PLAN[0], rank=r) for r in range(5, 11)]
        out = tmp_path / "out"
        code, err, forks = self.run(monkeypatch, capsys,
                                    self.config(tmp_path, plan), out, 2)
        assert (code, forks) == (3, 2)
        assert err == "compute error: rank 8 failed\n"
        assert not out.exists()

    @pytest.mark.parametrize("failing", [[2], [3], [3, 4]])
    def test_failed_export_as_in_one_process(self, tmp_path, monkeypatch,
                                             capsys, failing):
        # with 2 workers, child 0 exports entries 0, 2 and 4 and child 1
        # entries 1 and 3; this process writes each failed child's entries
        # again in plan order, so the lowest failing index is reported
        real = cli.write_similarity
        plan = [dict(self.PLAN[0], rank=r) for r in range(5, 10)]
        labels = {f"similarity_obj1_lam1000_k{5 + i}_collapse": i
                  for i in failing}

        def write(out, name, sim, provenance):
            real(out, name, sim, provenance)
            if name in labels:
                raise OSError(f"disk full at entry {labels[name]}")

        monkeypatch.setattr(cli, "write_similarity", write)
        cfg = self.config(tmp_path, plan)
        errs = []
        for cpus in (1, 2):
            out = tmp_path / f"cpus{cpus}"
            code, err, forks = self.run(monkeypatch, capsys, cfg, out, cpus)
            assert (code, forks) == (3, {1: 2, 2: 4}[cpus])
            assert not list(out.iterdir())
            errs.append(err)
        assert errs[1] == errs[0] == (
            f"compute error: disk full at entry {failing[0]}\n")

    def as_one_process(self, tmp_path, monkeypatch, capsys, in_child):
        """Runs `audit` on 1 and 2 CPUs with `in_child` called by each
        export a forked child writes; on 2 CPUs every child meets it, and
        this process writes their entries again. Both runs must give exit
        0 and the same files and stderr."""
        parent = os.getpid()
        real = cli.write_similarity

        def write(*args, **kwargs):
            if os.getpid() != parent:
                in_child()
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "write_similarity", write)
        cfg = self.config(tmp_path, self.PLAN)
        one, two = tmp_path / "one", tmp_path / "two"
        code1, err1, _ = self.run(monkeypatch, capsys, cfg, one, 1)
        code2, err2, forks = self.run(monkeypatch, capsys, cfg, two, 2)
        assert (code1, code2, forks) == (0, 0, 4)
        assert len(tree(one)) == 3 * len(self.PLAN) + 3
        assert tree(two) == tree(one)
        assert err2 == err1

    def test_worker_killed_before_it_reports(self, tmp_path, monkeypatch,
                                             capsys):
        # this process writes the dead children's entries again
        def die():
            os.kill(os.getpid(), signal.SIGKILL)

        self.as_one_process(tmp_path, monkeypatch, capsys, die)

    def test_export_failing_only_in_the_child(self, tmp_path, monkeypatch,
                                              capsys):
        # each child exits 1; this process writes their entries again,
        # and that succeeds
        def fail():
            raise OSError("disk full in the child")

        self.as_one_process(tmp_path, monkeypatch, capsys, fail)

    def test_an_entry_listed_twice_is_exported_once(self, tmp_path,
                                                    monkeypatch, capsys):
        # the children are other processes: each write is appended to a log
        log = tmp_path / "written.log"
        real = cli.write_similarity

        def write(out, name, sim, provenance):
            fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            try:
                os.write(fd, f"{name}\n".encode())
            finally:
                os.close(fd)
            real(out, name, sim, provenance)

        monkeypatch.setattr(cli, "write_similarity", write)
        e0, e1 = self.PLAN[:2]
        out = tmp_path / "out"
        code, _, forks = self.run(monkeypatch, capsys,
                                  self.config(tmp_path, [e0, e1, e0]), out, 2)
        assert (code, forks) == (0, 4)
        assert sorted(log.read_text().splitlines()) == [
            "similarity_obj1_lam1000_k20_collapse",
            "similarity_obj1_lam1000_k20_identity"]
        assert len(json.loads((out / "report.json").read_text())["results"]) == 3
        assert len(tree(out)) == 6 + 3

    def test_solvers_called_once_per_plan_entry(self, tmp_path, monkeypatch,
                                                capsys):
        # the exports format the report pass's unit rows and solve nothing
        calls = []
        for objective in (1, 2):
            real = getattr(analysis, f"solve_objective{objective}")

            def solve(X, rank, lam, real=real, objective=objective):
                calls.append((objective, lam, rank))
                return real(X, rank, lam)

            monkeypatch.setattr(analysis, f"solve_objective{objective}", solve)
        code, _, forks = self.run(monkeypatch, capsys,
                                  self.config(tmp_path, self.PLAN),
                                  tmp_path / "out", 1)
        assert (code, forks) == (0, 2)
        assert calls == [(e["objective"], e["lambda"], e["rank"])
                         for e in self.PLAN]

    def test_warnings_replayed_as_in_one_process(self, tmp_path, monkeypatch,
                                                 capsys):
        # steep popularity leaves items undrawn, so rank p keeps zero
        # sigma; lambda between the top two sigma leaves one dimension.
        # Every entry raises its warnings in the report pass; the exports
        # only format that pass's unit rows, and raise none.
        sim = dict(SIM, n=300, p=200, beta_item_min=2.5, beta_item_max=3.0)
        sample, _ = sample_interactions(SimConfig.from_dict(sim))
        s = spectrum(sample.matrix).singular_values
        lam = float(s[0] + s[1]) / 2
        plan = [{"objective": 1, "lambda": 100.0, "rank": 200},
                {"objective": 1, "lambda": 10.0, "rank": 200},
                {"objective": 2, "lambda": lam, "rank": 8},
                {"objective": 2, "lambda": lam, "rank": 150}]
        cfg = self.config(tmp_path, plan, sim)
        code1, err1, _ = self.run(monkeypatch, capsys, cfg,
                                  tmp_path / "one", 1)
        code2, err2, forks = self.run(monkeypatch, capsys, cfg,
                                      tmp_path / "two", 2)
        assert (code1, code2, forks) == (0, 0, 4)
        assert err2 == err1
        # entry 1's zero-sigma warning repeats entry 0's and is dropped
        lines = err1.splitlines()
        assert [x.split()[1] for x in lines] == ["98", "degenerate", "48",
                                                 "degenerate"]


class TestFullrankCheck:
    def test_passes_on_simulated_data(self, tmp_path):
        cfg = write_config(tmp_path, {"solve": {"objective": 1,
                                                "lambda": 100.0, "rank": 30}})
        out = tmp_path / "out"
        assert main(["fullrank-check", "--config", str(cfg),
                     "--out", str(out)]) == 0
        report = json.loads((out / "fullrank_report.json").read_text())
        assert report["all_passed"]

    def test_line_names_the_checks_it_skipped(self, tmp_path, capsys):
        # below full rank, checks (a)-(c) are skipped and only (d) runs
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sim": STEEP}))
        out = tmp_path / "out"
        assert main(["fullrank-check", "--config", str(cfg),
                     "--out", str(out)]) == 0
        r = steep_rank()
        assert capsys.readouterr().out == (
            f"full-rank checks passed, but rank {r} < p = 200 skipped 3 of "
            "them: item_item_collapses_to_identity, "
            "user_user_inverse_matches_raw_data, "
            "cosine_dot_ranking_agreement\n")
        report = json.loads((out / "fullrank_report.json").read_text())
        assert report["all_passed"] and report["rank"] == r
        assert report["zero_sigma_dims"] == 200 - r
        assert [c["skipped"] for c in report["checks"]] == [True] * 3 + [False]

    def test_full_rank_line_names_no_skipped_check(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["fullrank-check", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out == (
            "all full-rank checks passed (rank 30, 0 zero-sigma dims "
            "excluded)\n")

    def test_objective_2_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"solve": {"objective": 2,
                                                "lambda": 100.0, "rank": 30}})
        out = tmp_path / "out"
        assert main(["fullrank-check", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert "solve.objective" in capsys.readouterr().err
        assert not (out / "fullrank_report.json").exists()

    def test_standardize_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"solve": {"objective": 1, "lambda": 100.0,
                                                "rank": 30, "standardize": True}})
        out = tmp_path / "out"
        assert main(["fullrank-check", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert "solve.standardize" in capsys.readouterr().err
        assert not out.exists()

    def test_lambda_zero_passes(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["fullrank-check", "--config", str(cfg), "--out", str(out),
                     "--lambda", "0"]) == 0

    def test_failed_identity_exit_4(self, tmp_path, monkeypatch, capsys):
        # at tolerance 0, check (a)'s rounding error alone fails it
        monkeypatch.setattr(analysis, "TOL_IDENTITY", 0.0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sim": dict(SIM, n=300, p=40)}))
        out = tmp_path / "out"
        assert main(["fullrank-check", "--config", str(cfg),
                     "--out", str(out)]) == 4
        assert re.fullmatch(r"identity check failed: "
                            r"item_item_collapses_to_identity \(deviation "
                            r"\S+, tol 0\.000e\+00\)\n",
                            capsys.readouterr().err)
        report = json.loads((out / "fullrank_report.json").read_text())
        assert report["all_passed"] is False
        assert (out / "manifest.json").exists()

    def test_wide_matrix_rejected(self, tmp_path):
        wide = dict(SIM, n=20, p=30)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sim": wide}))
        assert main(["fullrank-check", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2


def tree(root):
    return {str(f.relative_to(root)): f.read_bytes()
            for f in sorted(root.rglob("*")) if f.is_file()}


@pytest.mark.parametrize("command", ["audit", "solve", "similarity",
                                     "fullrank-check"])
def test_exports_never_read_back(tmp_path, command):
    # X is drawn from the config every time: simulate's X.csv and
    # ground_truth.json are exports, so garbage there changes nothing
    cfg = write_config(tmp_path, {
        "solve": {"objective": 1, "lambda": 10.0, "rank": 5},
        "plan": [{"objective": 1, "lambda": 100.0, "rank": 8},
                 {"objective": 2, "lambda": 2.0, "rank": 8}]})
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    cold.mkdir()
    code = main([command, "--config", str(cfg), "--out", str(cold)])
    assert main(["simulate", "--config", str(cfg), "--out", str(warm)]) == 0
    exports = {"X.csv": b"\x00not,a\r\nmatrix\xff",
               "ground_truth.json": b"{\"item_cluster\": [oops"}
    for name, data in exports.items():
        (warm / name).write_bytes(data)
    simulated = tree(warm)
    assert main([command, "--config", str(cfg), "--out", str(warm)]) == code
    cold_files, warm_files = tree(cold), tree(warm)
    assert cold_files
    assert not {"X.csv", "ground_truth.json"} & set(cold_files)
    # the manifests differ only in that the warm one lists simulate's files
    cold_manifest, warm_manifest = (
        json.loads(files.pop("manifest.json"))
        for files in (cold_files, warm_files))
    assert warm_manifest.pop("files") == sorted(
        [*cold_manifest.pop("files"), "X.csv", "ground_truth.json"])
    assert warm_manifest == cold_manifest
    assert {name: warm_files[name] for name in cold_files} == cold_files
    for name in set(warm_files) - set(cold_files):
        assert warm_files[name] == simulated[name], name


def test_simulate_and_audit_hold_no_dense_x(tmp_path):
    # one dense n x p float64 X would be 25.6 MB at this size
    n, p = 8_000, 400
    sim = dict(SIM, n=n, p=p, C=5, cluster_probs=[0.2] * 5)
    plan = [{"objective": 1, "lambda": 1000.0, "rank": 50, "family": f}
            for f in ("collapse", "identity", "inverse")]
    plan.append({"objective": 2, "lambda": 10.0, "rank": 50})
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"sim": sim, "plan": plan}))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        for argv in (["simulate"], ["audit"], ["solve"],
                     ["similarity", "--kind", "item-item"]):
            assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * p * 8, f"peak {peak / 1e6:.1f} MB"


class TestManifest:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_command_writes_the_resolved_config(self, tmp_path,
                                                      command):
        cfg = write_config(tmp_path, {"plan": [ENTRY],
                                      "solve": dict(ENTRY, standardize=False)})
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main([command, "--config", str(cfg), "--out", str(out),
                         "--seed", "5"]) == 0
        manifest = json.loads((outs[0] / "manifest.json").read_text())
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest == {
            "config_sha256": config_hash(manifest["config"]), "seed": 5,
            "sampler": SAMPLER, "version": __version__,
            "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "config": {"sim": SimConfig.from_dict(dict(SIM, seed=5)).to_dict(),
                       "plan": [dict(ENTRY, family="identity")],
                       "solve": dict(ENTRY, family="identity",
                                     standardize=False)},
            "files": sorted(set(tree(outs[0])) - {"manifest.json"})}
        # no timings: a rerun writes the same bytes
        assert ((outs[0] / "manifest.json").read_bytes()
                == (outs[1] / "manifest.json").read_bytes())

    @pytest.mark.parametrize("command, keys, other", [
        *[(c, [], []) for c in COMMANDS],
        ("similarity", ["--family", "collapse"], []),
        ("similarity", ["--objective", "2", "--lambda", "3"],
         ["--kind", "user-item", "--metric", "dot"])],
        ids=COMMANDS + ["similarity_collapse", "similarity_user_item_dot"])
    def test_manifest_config_reruns_the_command(self, tmp_path, command,
                                                keys, other):
        # the flags in `keys` set config keys, so the recorded config holds
        # them; those in `other` do not, and the rerun passes them again
        cfg = write_config(tmp_path, {"plan": [ENTRY],
                                      "solve": dict(ENTRY, standardize=False)})
        first, rerun = tmp_path / "first", tmp_path / "rerun"
        assert main([command, *keys, *other, "--config", str(cfg),
                     "--out", str(first)]) == 0
        recorded = tmp_path / "recorded.json"
        recorded.write_text(json.dumps(
            json.loads((first / "manifest.json").read_text())["config"]))
        assert main([command, *other, "--config", str(recorded),
                     "--out", str(rerun)]) == 0
        assert tree(rerun) == tree(first)

    @pytest.mark.parametrize("command, last", [("simulate", "ground_truth.json"),
                                               ("audit", "report.json")])
    def test_failed_rerun_keeps_the_last_manifest(self, tmp_path, monkeypatch,
                                                  capsys, command, last):
        # the rerun at seed 2 fails at `last`: the manifest.json left names
        # seed 11 and the outputs beside it, which are seed 11's
        cfg = write_config(tmp_path, {"plan": [ENTRY]})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        last_run = tree(out)
        real = cli.write_json

        def failing(path, doc):
            if path.name == last:
                raise OSError(f"{last} write failed")
            real(path, doc)

        monkeypatch.setattr(cli, "write_json", failing)
        assert main([command, "--config", str(cfg), "--out", str(out),
                     "--seed", "2"]) == 3
        assert capsys.readouterr().err == f"compute error: {last} write failed\n"
        assert tree(out) == last_run

    def test_rerun_failing_before_its_writes_keeps_the_last_run(
            self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, {"plan": [ENTRY]})
        out = tmp_path / "out"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        last_run = tree(out)

        def solve(X, rank, lam):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(analysis, "solve_objective1", solve)
        assert main(["audit", "--config", str(cfg), "--out", str(out),
                     "--seed", "2"]) == 3
        assert tree(out) == last_run

    def test_rerun_killed_while_exporting_keeps_the_last_run(
            self, tmp_path, monkeypatch):
        # one usable CPU, so the command's own process writes every export;
        # it runs in a child of this process, killed at its second export
        plan = [dict(ENTRY, family=f) for f in ("collapse", "identity")]
        cfg = write_config(tmp_path, {"plan": plan})
        out = tmp_path / "out"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        last_run = tree(out)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        exported = []
        real = cli.write_similarity

        def write(*args, **kwargs):
            exported.append(args[1])
            if len(exported) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            real(*args, **kwargs)

        monkeypatch.setattr(cli, "write_similarity", write)
        with warnings.catch_warnings():
            # Python 3.12+ warns when a process with threads forks
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            try:
                main(["audit", "--config", str(cfg), "--out", str(out),
                      "--seed", "2"])
            finally:
                os._exit(1)
        status = os.waitpid(pid, 0)[1]
        assert os.WIFSIGNALED(status)
        assert os.WTERMSIG(status) == signal.SIGKILL
        staged = [f.name for f in out.iterdir() if f.name.startswith(".")]
        assert len(staged) == 1 and staged[0].startswith(".writing-")
        assert {name: data for name, data in tree(out).items()
                if not name.startswith(".")} == last_run

    def test_a_rerun_leaves_only_its_own_files(self, tmp_path):
        # plan [lambda 10] at seed 3, plan [lambda 20] at seed 3, then plan
        # [lambda 10] at seed 4: lambda 20's exports, drawn from seed 3, go,
        # and a file that no manifest listed stays
        sim = dict(SIM, n=300, p=60, seed=3)
        out, cold = tmp_path / "out", tmp_path / "cold"
        out.mkdir()
        (out / "notes.txt").write_text("listed by no manifest")
        for lam, seed in ((10.0, []), (20.0, []), (10.0, ["--seed", "4"])):
            cfg = write_config(tmp_path, {"sim": sim,
                                          "plan": [dict(ENTRY, **{"lambda": lam})]})
            assert main(["audit", "--config", str(cfg), "--out", str(out),
                         *seed]) == 0
        assert main(["audit", "--config", str(cfg), "--out", str(cold),
                     "--seed", "4"]) == 0
        files = tree(out)
        assert files.pop("notes.txt") == b"listed by no manifest"
        assert files == tree(cold)
        manifest = json.loads(files["manifest.json"])
        assert manifest["seed"] == 4
        assert set(files) == {*manifest["files"], "manifest.json"}

    def test_simulate_at_a_new_seed_removes_the_last_runs_files(self,
                                                                tmp_path):
        # audit and solve keep simulate's files and list them; simulate at
        # another seed then leaves its own files and no empty pair directory
        cfg = write_config(tmp_path, {"plan": [ENTRY], "solve": ENTRY})
        out = tmp_path / "out"
        for argv in (["simulate"], ["audit"], ["solve"],
                     ["simulate", "--seed", "2"]):
            assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
            listed = json.loads((out / "manifest.json").read_text())["files"]
            assert {"X.csv", "ground_truth.json"} <= set(listed)
            assert set(tree(out)) == {*listed, "manifest.json"}
        assert sorted(f.name for f in out.iterdir()) == [
            "X.csv", "ground_truth.json", "manifest.json"]

    def test_a_listed_name_outside_the_directory_is_never_deleted(
            self, tmp_path):
        outside = tmp_path / "outside.txt"
        outside.write_text("not the command's")
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text(json.dumps(
            {"files": ["../outside.txt", str(outside)]}))
        cfg = write_config(tmp_path, {"plan": [ENTRY]})
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        assert outside.read_text() == "not the command's"

    @pytest.mark.parametrize("victim_holds", [["precious.txt", "other.txt"],
                                              ["precious.txt"]],
                             ids=["kept", "emptied"])
    def test_a_listed_name_under_a_symlinked_directory_is_never_deleted(
            self, tmp_path, victim_holds):
        # out/link leads out of out: the file it reaches stays, the link is
        # never removed, and the rerun writes its manifest
        victim, out = tmp_path / "victim", tmp_path / "out"
        victim.mkdir()
        for name in victim_holds:
            (victim / name).write_text("not the command's")
        out.mkdir()
        (out / "link").symlink_to(os.path.join("..", "victim"))
        (out / "manifest.json").write_text(json.dumps(
            {"files": ["link/precious.txt"]}))
        cfg = write_config(tmp_path, {"sim": dict(SIM, n=300, p=60),
                                      "plan": [dict(ENTRY, rank=5,
                                                    **{"lambda": 10.0})]})
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(f.name for f in victim.iterdir()) == sorted(victim_holds)
        assert (victim / "precious.txt").read_text() == "not the command's"
        assert (out / "link").is_symlink()
        listed = json.loads((out / "manifest.json").read_text())["files"]
        assert "link/precious.txt" not in listed

    def test_a_symlinked_directory_inside_is_emptied_not_removed(self,
                                                                 tmp_path):
        # out/link leads to out/sub: the listed file there is the command's
        # and goes, and neither the link nor the directory is removed
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        (out / "sub" / "old.csv").write_text("the last run's")
        (out / "link").symlink_to("sub")
        (out / "manifest.json").write_text(json.dumps(
            {"files": ["link/old.csv"]}))
        cfg = write_config(tmp_path, {"plan": [ENTRY]})
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        assert not (out / "sub" / "old.csv").exists()
        assert (out / "link").is_symlink() and (out / "sub").is_dir()
        assert (out / "manifest.json").is_file()

    @pytest.mark.parametrize("stop", ["killed", "failing"])
    def test_rerun_stopped_while_exporting_keeps_the_last_run(
            self, tmp_path, monkeypatch, stop):
        # a rerun with another plan, stopped at its first export, deletes
        # none of the files that the last run's manifest lists
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"plan": [ENTRY]})
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        last_run = tree(out)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)

        def write(*args, **kwargs):
            if stop == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_similarity", write)
        other = write_config(tmp_path, {"plan": [dict(ENTRY, rank=5)]},
                             name="other.json")
        argv = ["audit", "--config", str(other), "--out", str(out)]
        if stop == "failing":
            assert main(argv) == 3
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                try:
                    main(argv)
                finally:
                    os._exit(1)
            assert os.WTERMSIG(os.waitpid(pid, 0)[1]) == signal.SIGKILL
        assert {name: data for name, data in tree(out).items()
                if not name.startswith(".")} == last_run
        listed = json.loads(last_run["manifest.json"])["files"]
        assert set(last_run) == {*listed, "manifest.json"}

    def test_failed_move_leaves_no_manifest(self, tmp_path, capsys):
        # the rerun's report.json cannot replace a directory of that name,
        # so the outputs are part seed 11's and part seed 2's
        cfg = write_config(tmp_path, {"plan": [ENTRY]})
        out = tmp_path / "out"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        (out / "report.json").unlink()
        (out / "report.json").mkdir()
        assert main(["audit", "--config", str(cfg), "--out", str(out),
                     "--seed", "2"]) == 3
        assert "compute error: " in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        assert [f.name for f in out.iterdir() if f.name.startswith(".")] == []

    def test_flags_and_defaults_are_recorded(self, tmp_path):
        cfg = write_config(tmp_path, {"plan": [ENTRY],
                                      "solve": {"standardize": True}})
        out = tmp_path / "out"
        assert main(["similarity", "--config", str(cfg), "--out", str(out),
                     "--rank", "6", "--lambda", "2", "--family",
                     "collapse"]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["solve"] == {"objective": 1, "lambda": 2.0, "rank": 6,
                                   "family": "collapse", "standardize": True}
