import json

import numpy as np
import pytest

from fbttr.bttr import NormStats
from fbttr.experiment import (
    ConfigError,
    ExperimentConfig,
    build_report,
    parse_grid,
    read_metrics_csv,
    run_experiment,
)
from fbttr.sparse_tucker import HyperGrid

FAST = dict(
    synth_shape="60x5x4",
    synth_blocks="1",
    synth_snr_db="25",
    blocks="1",
    grid_snr="15:35:20",
    grid_tau="97:100:3",
    seeds="2",
    seed="3",
    clients="2",
    train_frac="0.6",
    test_blocks="3",
)


def fast_config(tmp_path, **extra):
    mapping = dict(FAST)
    mapping["out"] = str(tmp_path / "out")
    mapping.update(extra)
    return ExperimentConfig.from_mapping(mapping)


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------

def test_config_from_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "# comment line\nmode=centralized,federated\nclients=3\nblocks=2\nseed=11\n",
        encoding="utf-8",
    )
    cfg = ExperimentConfig.from_file(cfg_file)
    assert cfg.mode == ("centralized", "federated")
    assert cfg.clients == 3
    assert cfg.seed == 11


def test_config_unknown_key_names_field(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("blorcks=2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="blorcks"):
        ExperimentConfig.from_file(cfg_file)


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="mode"):
        ExperimentConfig(mode=("nonsense",)).validate()
    with pytest.raises(ConfigError, match="blocks"):
        ExperimentConfig(blocks="zero").validate()
    with pytest.raises(ConfigError, match="train_frac"):
        ExperimentConfig(train_frac=1.5).validate()
    with pytest.raises(ConfigError, match="pooled_clients"):
        ExperimentConfig(mode=("hybrid",)).validate()
    with pytest.raises(ConfigError, match="grid_snr"):
        ExperimentConfig(grid_snr="50:1").validate()
    with pytest.raises(ConfigError, match="response"):
        ExperimentConfig(data="file.csv").validate()
    for shape in ("20x0", "20x-3", "x", "20xx6", "20"):
        with pytest.raises(ConfigError, match="synth_shape"):
            ExperimentConfig.from_mapping({"synth_shape": shape})


def test_grid_range_parsing():
    cfg = ExperimentConfig(grid_snr="1:5:2", grid_tau="95:100:5")
    grid = cfg.hyper_grid()
    assert grid.snr_values == (1.0, 3.0, 5.0)
    assert grid.tau_values == (95.0, 100.0)
    # the config's default ranges spell the library's default grid
    assert parse_grid(ExperimentConfig.grid_snr, ExperimentConfig.grid_tau) == HyperGrid()


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------

def test_centralized_experiment_artifacts(tmp_path):
    cfg = fast_config(tmp_path)
    report = run_experiment(cfg)
    out = tmp_path / "out"
    assert (out / "metrics.csv").exists()
    assert (out / "report.json").exists()
    assert (out / "resolved_config.txt").exists()
    assert (out / "model_centralized.fbttr").exists()
    assert report.methods == ["centralized"]
    assert ("centralized", "pearson_r") in report.summary
    vals = report.values[("centralized", "pearson_r")]
    # 2 seeds x 3 blocks
    assert len(vals) == 6
    payload = json.loads((out / "report.json").read_text())
    assert payload["block_count"] == 3


def test_single_client_federated_equals_centralized(tmp_path):
    cfg = fast_config(tmp_path, mode="centralized,federated", clients="1", seeds="1")
    report = run_experiment(cfg)
    cen = {(s, b): v for s, b, v in report.values[("centralized", "pearson_r")]}
    fed = {(s, b): v for s, b, v in report.values[("federated", "pearson_r")]}
    assert cen.keys() == fed.keys()
    for key in cen:
        assert cen[key] == pytest.approx(fed[key], abs=1e-8)


def test_hybrid_with_all_clients_pooled_matches_centralized(tmp_path):
    cfg = fast_config(
        tmp_path, mode="centralized,hybrid", clients="3", pooled_clients="0,1,2", seeds="1"
    )
    report = run_experiment(cfg)
    cen = {(s, b): v for s, b, v in report.values[("centralized", "pearson_r")]}
    hyb = {(s, b): v for s, b, v in report.values[("hybrid", "pearson_r")]}
    for key in cen:
        assert cen[key] == pytest.approx(hyb[key], abs=1e-6)


def test_local_mode_produces_per_client_methods(tmp_path):
    cfg = fast_config(tmp_path, mode="local", clients="2", seeds="1")
    report = run_experiment(cfg)
    assert report.methods == ["local_client_0", "local_client_1"]


def test_binary_task_reports_auc_and_accuracy(tmp_path):
    cfg = fast_config(
        tmp_path, task="binary", synth_shape="120x5x4", synth_snr_db="20", seeds="1",
        test_blocks="3",
    )
    report = run_experiment(cfg)
    assert ("centralized", "roc_auc") in report.summary
    assert ("centralized", "accuracy") in report.summary
    for (_, metric), (mu, _) in report.summary.items():
        assert 0.0 <= mu <= 1.0


def test_survival_task_reports_c_index(tmp_path):
    cfg = fast_config(
        tmp_path, task="survival", synth_shape="120x5x4", synth_snr_db="15", seeds="1",
        test_blocks="3",
    )
    report = run_experiment(cfg)
    assert ("centralized", "c_index") in report.summary


def test_report_includes_pairwise_wilcoxon(tmp_path):
    cfg = fast_config(tmp_path, mode="centralized,federated", clients="2", seeds="2")
    report = run_experiment(cfg)
    assert report.comparisons, "two methods must produce a comparison"
    comp = report.comparisons[0]
    assert {comp["method_a"], comp["method_b"]} == {"centralized", "federated"}
    assert 0.0 < comp["p_value"] <= 1.0
    assert comp["n"] == 6  # 2 seeds x 3 blocks
    assert comp["pairing"] == "seed_block"


def test_block_pairing_unit(tmp_path):
    cfg = fast_config(tmp_path, mode="centralized,federated", clients="2",
                      seeds="2", pairing="block")
    report = run_experiment(cfg)
    assert all(c["n"] <= 3 for c in report.comparisons)


def test_metrics_csv_round_trip(tmp_path):
    cfg = fast_config(tmp_path, mode="centralized,federated", clients="2", seeds="1")
    report = run_experiment(cfg)
    rows = read_metrics_csv(tmp_path / "out" / "metrics.csv")
    rebuilt = build_report(rows, pairing="seed_block")
    assert rebuilt.methods == report.methods
    for key, (mu, sd) in report.summary.items():
        mu2, sd2 = rebuilt.summary[key]
        assert mu == pytest.approx(mu2, abs=1e-12)


def test_normalization_stats_use_training_rows_only(tmp_path):
    # the leakage guard: the saved model's statistics are those of the
    # training rows, never of the pooled train+test rows
    cfg = fast_config(tmp_path, seeds="1")
    run_experiment(cfg)
    from fbttr.data import make_synthetic
    from fbttr.model_io import load_model

    saved = load_model(tmp_path / "out" / "model_centralized.fbttr").normalization
    ds, _ = make_synthetic((60, 5, 4), n_blocks=1, noise_snr_db=25.0, seed=3)
    n_train = int(round(0.6 * 60))
    train_stats = NormStats.from_training(ds.x[:n_train], ds.y[:n_train])
    pooled_stats = NormStats.from_training(ds.x, ds.y)
    for name in ("x_mean", "x_std", "y_mean", "y_std"):
        assert np.array_equal(getattr(saved, name), getattr(train_stats, name))
    assert not np.allclose(saved.x_mean, pooled_stats.x_mean)
    assert not np.allclose(saved.y_std, pooled_stats.y_std)


def test_cv_block_selection_runs(tmp_path):
    cfg = fast_config(tmp_path, blocks="cv", max_blocks="2", folds="3", seeds="1")
    report = run_experiment(cfg)
    assert ("centralized", "pearson_r") in report.summary


def test_four_site_binary_csv_experiment(tmp_path):
    # the full multi-site clinical-style path: CSV with a site column,
    # by-column partitioning, federated vs centralized AUC comparison
    from fbttr.data import make_synthetic

    rng = np.random.default_rng(17)
    ds, _ = make_synthetic((160, 6), n_blocks=1, noise_snr_db=15.0, seed=17, task="binary")
    sites = np.array(["s0", "s1", "s2", "s3"])[rng.integers(0, 4, size=120)]
    csv_path = tmp_path / "sites.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"f{i}" for i in range(6)] + ["site", "target"]) + "\n")
        for i in range(160):
            # keep the 5 test blocks site-free; train rows carry sites
            site = sites[i] if i < 120 else "s0"
            row = [f"{v:.10g}" for v in ds.x[i]] + [site, str(int(ds.y[i, 0]))]
            fh.write(",".join(row) + "\n")
    cfg = ExperimentConfig.from_mapping(dict(
        mode="centralized,federated",
        data=str(csv_path),
        response="target",
        task="binary",
        site_col="site",
        partition="by_column",
        clients="4",
        blocks="1",
        grid_snr="15:35:20",
        grid_tau="97:100:3",
        seeds="2",
        seed="1",
        train_frac="0.75",
        test_blocks="5",
        out=str(tmp_path / "out"),
    ))
    report = run_experiment(cfg)
    mu_fed = report.summary[("federated", "roc_auc")][0]
    mu_cen = report.summary[("centralized", "roc_auc")][0]
    assert 0.5 <= mu_cen <= 1.0
    assert abs(mu_fed - mu_cen) <= 0.2
    assert any(c["metric"] == "roc_auc" for c in report.comparisons)
