"""Smoke test of the benchmark: every workload at a tiny size, checks on.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from fbttr import bttr, federated, transport
from fbttr.sparse_tucker import HyperGrid

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
GRID = HyperGrid(snr_values=(5, 15), tau_values=(95, 100))

TINY = {
    "desk-fit": lambda: workloads.DeskFit(shape=(80, 6, 4, 4), ranks=(1, 1, 1), n_planted=2,
                                          n_train=60, max_blocks=3, grid=GRID, r_floor=0.5),
    "federate-loopback": lambda: workloads.FederateLoopback(
        n_clients=2, max_blocks=2, shape=(80, 5, 4), n_train=60, grid=GRID, r_floor=0.5),
    "federate-tcp": lambda: workloads.FederateTcp(
        n_clients=2, max_blocks=2, shape=(80, 5, 4), n_train=60, grid=GRID, r_floor=0.5),
    "serve": lambda: workloads.Serve(shape=(80, 6, 5, 4), n_planted=2, ranks=(1, 1, 1),
                                     n_train=50, max_blocks=2, grid=GRID, r_floor=0.5),
}


@pytest.fixture(autouse=True)
def short_serving(monkeypatch):
    monkeypatch.setattr(workloads, "SERVE_WINDOW_S", 0.02)


def test_every_workload_is_defined():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert sorted(TINY) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result, stats, tracer = run.run(name, seed=3, seconds=0, trace=False, wl=TINY[name]())
    assert tracer is None
    assert result["correct"], stats.problems
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    for k, v in result["metrics"].items():
        assert v["value"] > 0, k
    assert stats.digests and len(stats.digests[0]) == 64


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_per_layer_metric(name):
    result, stats, tracer = run.run(name, seed=3, seconds=0, trace=True, wl=TINY[name]())
    assert result["correct"], stats.problems
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["model_io.model_from_bytes_s"] > 0 and m["bttr.predict_calls"] > 0
    assert m["data.make_synthetic_s"] > 0
    if name == "desk-fit":
        # per operation, averaged over the cycle's two datasets
        assert result["attempted"] % workloads.DeskFit.cycle == 0
        assert m["sparse_tucker.ace_calls"] == 3
        assert all(m[f"sparse_tucker.ace_s.block{b}"] > 0 for b in (1, 2, 3))
        assert m["sparse_tucker.f_mpstd_cov_calls"] == 3 * 4
        assert m["sparse_tucker.sweeps_per_cell.block1"] >= 1
    if name.startswith("federate"):
        assert m["federated.rounds"] >= 1 and m["wire.frames"] > 0
        assert m["federated.client_ace_s"] > 0 and m["data.partition_s"] > 0
    if name == "federate-tcp":
        assert m["transport.hub_recv_wait_s"] > 0 and m["transport.dropouts"] == 0
    if name == "serve":
        # the model is fitted in set-up: no sparse Tucker work per operation
        assert m["sparse_tucker.ace_calls"] == 0
    # every traced call is restored afterwards
    assert not hasattr(bttr.fit, "__wrapped__")
    assert not hasattr(transport.encode_message, "__wrapped__")


def test_desk_fit_cycles_over_the_same_datasets(monkeypatch):
    seen = []
    fit = bttr.fit
    monkeypatch.setattr(bttr, "fit", lambda x, y, cfg: seen.append(x[0, 0, 0, 0]) or fit(x, y, cfg))
    result, stats, _ = run.run("desk-fit", seed=3, seconds=0.3, trace=False, wl=TINY["desk-fit"]())
    assert result["correct"], stats.problems
    # three set-ups fit nothing; the operations alternate between two datasets
    assert len(seen) == result["attempted"] and len(seen) % 2 == 0
    assert seen[0] != seen[1] and seen == seen[:2] * (len(seen) // 2)


def test_rank_harmonised_reruns_are_counted(monkeypatch):
    # tiny clients always agree on ranks; a lower target forces every rerun
    harmonize = federated.harmonize_ranks

    def lower_target(reports):
        target, assignments = harmonize(reports)
        target = tuple(max(1, r - 1) for r in target)
        for a in assignments.values():
            a.target_ranks = target
        return target, assignments

    monkeypatch.setattr(federated, "harmonize_ranks", lower_target)
    result, stats, _ = run.run("federate-loopback", seed=3, seconds=0, trace=True,
                               wl=TINY["federate-loopback"]())
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["federated.local_rerun_calls"] > 0
    assert m["federated.local_reuse_ratio"] < 1


def test_a_wrong_model_is_counted_as_failed():
    wl = TINY["federate-loopback"]()
    wl.r_floor = 1.01  # unreachable: every operation must fail its check
    result, stats, _ = run.run("federate-loopback", seed=3, seconds=0, trace=False, wl=wl)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] == 0.0
    assert any("held-out r" in p for p in stats.problems)


def test_fails_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
