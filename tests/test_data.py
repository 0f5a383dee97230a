import numpy as np
import pytest

from fbttr.bttr import FitConfig, fit, predict
from fbttr.data import (
    CsvSchema,
    DataError,
    Dataset,
    PartitionPlan,
    load_csv,
    load_npz,
    make_synthetic,
    partition,
    save_npz,
)
from fbttr.sparse_tucker import HyperGrid
from fbttr.tensor import frobenius_norm


def write_csv(path, text):
    path.write_text(text.strip() + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def test_load_csv_binary_shapes(tmp_path):
    p = write_csv(tmp_path / "d.csv", """
a,b,target
1.0,2.0,0
2.0,1.0,1
0.5,0.5,1
3.0,0.0,0
""")
    ds = load_csv(p, CsvSchema(response=["target"], task="binary"))
    assert ds.x.shape == (4, 2)
    assert ds.y.shape == (4, 1)
    assert set(np.unique(ds.y)) <= {0.0, 1.0}
    assert ds.feature_names == ["a", "b"]


def test_load_csv_survival_time_event_pairs(tmp_path):
    p = write_csv(tmp_path / "d.csv", """
f1,time,event
0.1,12.0,1
0.3,8.5,0
0.2,30.0,1
""")
    ds = load_csv(p, CsvSchema(response=["time"], task="survival", event_col="event"))
    assert ds.y.shape == (3, 2)
    assert np.array_equal(ds.y[:, 1], [1.0, 0.0, 1.0])


def test_load_csv_missing_response_named(tmp_path):
    p = write_csv(tmp_path / "d.csv", "a,b\n1,2\n")
    with pytest.raises(DataError, match="target"):
        load_csv(p, CsvSchema(response=["target"]))


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("", encoding="utf-8")
    with pytest.raises(DataError):
        load_csv(p, CsvSchema(response=["y"]))


def test_load_csv_rejects_bad_rows_with_row_numbers(tmp_path):
    p = write_csv(tmp_path / "d.csv", """
a,target
1.0,1.5
2.0,oops
3.0,2.5
""")
    ds = load_csv(p, CsvSchema(response=["target"]))
    assert ds.x.shape == (2, 1)
    assert len(ds.rejected_rows) == 1
    row_no, message = ds.rejected_rows[0]
    assert row_no == 3
    assert "target" in message


def test_load_csv_all_rows_bad_raises(tmp_path):
    p = write_csv(tmp_path / "d.csv", "a,target\n1.0,x\n2.0,y\n")
    with pytest.raises(DataError):
        load_csv(p, CsvSchema(response=["target"]))


def test_load_csv_one_hot_in_first_appearance_order(tmp_path):
    p = write_csv(tmp_path / "d.csv", """
color,target
red,1.0
blue,2.0
red,3.0
green,4.0
""")
    ds = load_csv(p, CsvSchema(response=["target"]))
    assert ds.feature_names == ["color=red", "color=blue", "color=green"]
    assert np.array_equal(ds.x[:, 0], [1.0, 0.0, 1.0, 0.0])
    assert np.array_equal(ds.x[:, 2], [0.0, 0.0, 0.0, 1.0])


def test_load_csv_binary_requires_01(tmp_path):
    p = write_csv(tmp_path / "d.csv", "a,target\n1.0,2\n2.0,0\n")
    with pytest.raises(DataError):
        load_csv(p, CsvSchema(response=["target"], task="binary"))


def test_load_csv_site_column(tmp_path):
    p = write_csv(tmp_path / "d.csv", """
a,site,target
1.0,s1,0.5
2.0,s2,0.25
3.0,s1,1.0
""")
    ds = load_csv(p, CsvSchema(response=["target"], site_col="site"))
    assert list(ds.site_ids) == ["s1", "s2", "s1"]
    assert ds.feature_names == ["a"]


def test_npz_round_trip(tmp_path):
    ds, _ = make_synthetic((20, 4, 3), n_blocks=1, seed=3)
    path = tmp_path / "d.npz"
    save_npz(ds, path)
    back = load_npz(path)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)
    assert back.task == ds.task


def test_dataset_rejects_a_task_outside_tasks(tmp_path):
    ds, _ = make_synthetic((20, 4, 3), n_blocks=1, seed=3)
    with pytest.raises(DataError, match="task"):
        Dataset(x=ds.x, y=ds.y, feature_names=[], task="Regression")
    path = tmp_path / "d.npz"
    ds.task = "Regression"
    save_npz(ds, path)
    with pytest.raises(DataError, match="'Regression'"):
        load_npz(path)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def test_synthetic_noiseless_response_is_exact_block_sum():
    ds, truth = make_synthetic((30, 5, 4), n_blocks=2, noise_snr_db=None, seed=0)
    expected = sum(
        truth.d[k] * np.outer(truth.t[:, k], truth.q[:, k]) for k in range(2)
    )
    assert np.allclose(ds.y, expected, atol=1e-12)
    assert np.array_equal(ds.y, truth.y_clean)


def test_synthetic_noiseless_is_none_or_plus_inf_only():
    # +inf is noiseless byte for byte; NaN and -inf are no noise level at all
    ref, _ = make_synthetic((20, 4, 3), n_blocks=1, noise_snr_db=None, seed=4)
    got, _ = make_synthetic((20, 4, 3), n_blocks=1, noise_snr_db=float("inf"), seed=4)
    assert got.x.tobytes() == ref.x.tobytes() and got.y.tobytes() == ref.y.tobytes()
    for bad in (float("nan"), float("-inf")):
        with pytest.raises(DataError, match="noise SNR"):
            make_synthetic((20, 4, 3), n_blocks=1, noise_snr_db=bad, seed=4)


def test_synthetic_same_seed_identical():
    a, _ = make_synthetic((25, 4, 3), n_blocks=2, noise_snr_db=20.0, seed=9)
    b, _ = make_synthetic((25, 4, 3), n_blocks=2, noise_snr_db=20.0, seed=9)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


def test_synthetic_infeasible_ranks():
    with pytest.raises(DataError):
        make_synthetic((20, 3), n_blocks=4, seed=0)


def test_synthetic_noise_level_matches_requested_snr():
    ds, truth = make_synthetic((200, 6, 5), n_blocks=1, noise_snr_db=20.0, seed=1)
    noise = ds.x - truth.x_clean
    snr = 20.0 * np.log10(frobenius_norm(truth.x_clean) / frobenius_norm(noise))
    assert snr == pytest.approx(20.0, abs=1e-9)


def test_synthetic_two_block_recovery_end_to_end():
    ds, _ = make_synthetic((80, 8, 6), n_blocks=2, noise_snr_db=None, seed=2)
    cfg = FitConfig(max_blocks=2, grid=HyperGrid(snr_values=(15.0, 35.0), tau_values=(97.0, 100.0)))
    model = fit(ds.x, ds.y, cfg)
    pred = predict(model, ds.x)
    r = np.corrcoef(pred[:, 0], ds.y[:, 0])[0, 1]
    assert r >= 0.99


def test_synthetic_binary_and_survival_shapes():
    b, _ = make_synthetic((40, 4, 3), n_blocks=1, seed=4, task="binary")
    assert set(np.unique(b.y)) <= {0.0, 1.0}
    s, _ = make_synthetic((40, 4, 3), n_blocks=1, seed=5, task="survival")
    assert s.y.shape == (40, 2)
    assert np.all(s.y[:, 0] > 0)
    assert set(np.unique(s.y[:, 1])) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------

def test_partition_iid_even_sizes():
    ds, _ = make_synthetic((10, 4, 3), n_blocks=1, seed=6)
    parts = partition(ds, PartitionPlan(scheme="iid", client_count=2, seed=0))
    assert [p.n_samples for p in parts] == [5, 5]


def test_partition_is_exact_cover():
    ds, _ = make_synthetic((37, 4, 3), n_blocks=1, noise_snr_db=10.0, seed=7)
    for scheme in ("iid", "label_skew"):
        parts = partition(ds, PartitionPlan(scheme=scheme, client_count=3, seed=1))
        rows = np.concatenate([p.x.reshape(p.n_samples, -1) for p in parts], axis=0)
        full = ds.x.reshape(ds.n_samples, -1)
        # same multiset of rows: sort both lexicographically and compare
        assert rows.shape == full.shape
        order_a = np.lexsort(rows.T)
        order_b = np.lexsort(full.T)
        assert np.allclose(rows[order_a], full[order_b])


def test_partition_same_seed_identical():
    ds, _ = make_synthetic((30, 4, 3), n_blocks=1, seed=8)
    a = partition(ds, PartitionPlan(scheme="iid", client_count=3, seed=5))
    b = partition(ds, PartitionPlan(scheme="iid", client_count=3, seed=5))
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.x, pb.x)


def test_partition_by_column_exact_site_counts():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(12, 3))
    y = rng.normal(size=(12, 1))
    sites = np.array(["a", "b", "c", "d"] * 3, dtype=object)
    ds = Dataset(x=x, y=y, feature_names=["f0", "f1", "f2"], task="regression",
                 site_ids=sites)
    parts = partition(ds, PartitionPlan(scheme="by_column", client_count=4, seed=0))
    assert [p.n_samples for p in parts] == [3, 3, 3, 3]
    with pytest.raises(DataError):
        partition(ds, PartitionPlan(scheme="by_column", client_count=3, seed=0))


def test_partition_no_empty_clients_label_skew():
    ds, _ = make_synthetic((50, 4, 3), n_blocks=1, noise_snr_db=15.0, seed=10, task="binary")
    parts = partition(ds, PartitionPlan(scheme="label_skew", client_count=4, seed=2))
    assert all(p.n_samples > 0 for p in parts)
    assert sum(p.n_samples for p in parts) == 50


def test_partition_more_clients_than_samples():
    ds, _ = make_synthetic((5, 4, 3), n_blocks=1, seed=11)
    with pytest.raises(DataError):
        partition(ds, PartitionPlan(scheme="iid", client_count=6, seed=0))
