"""The benchmark's workloads: set-up from a seed, one timed operation, its checks.

Every workload trains or loads a model and then serves it, so every
end-to-end metric exists on every workload:

* ``desk-fit``          centralized 4-way fit, 3 planted blocks + 1 noise block,
                        default 50x11 grid; operations cycle over two datasets
                        made in set-up, because fit time follows each dataset's
                        sweep counts, and a run ends only after a whole cycle.
* ``federate-loopback`` 4-client IID federation over the in-process transport.
* ``federate-tcp``      the same data in 2 clients over localhost TCP; client
                        threads connect in a fixed order (accept order assigns
                        client ids, and another order gives another valid model).
* ``serve``             a wide 32x16x20 model: bytes to ready-to-predict, 128-row
                        batches and single-row requests.  The model is fitted in
                        set-up, so the timed operation runs no sparse Tucker code.

All fbttr calls go through module attributes (``bttr.fit``,
``model_io.model_from_bytes`` ...) so the traced run can intercept them.
"""

from __future__ import annotations

import hashlib
import os
import socket
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from fbttr import bttr, data, federated, model_io, transport
from fbttr.metrics import pearson_r
from fbttr.sparse_tucker import HyperGrid

BATCH_ROWS = 128
PASS_ROWS = 512  # a batch pass cycles over the held-out rows until it predicted this many
# After each training operation its model is served for at least this long,
# so serving metrics sample the machine at several points of the run.
SERVE_WINDOW_S = 1.5
CLIENT_TIMEOUT_S = 60.0
SNR_DB = 20.0  # noise level of every synthetic dataset
FEDERATION_PLANTED = 2  # planted blocks of the federations' dataset


def digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@dataclass
class Split:
    x_train: np.ndarray
    y_train: np.ndarray
    x_held: np.ndarray
    y_held: np.ndarray


def _split(ds, n_train: int) -> Split:
    return Split(ds.x[:n_train], ds.y[:n_train], ds.x[n_train:], ds.y[n_train:])


@dataclass
class Stats:
    """Measurements, model digests and problems of one phase of a run."""

    setup_s: list = field(default_factory=list)
    fit_s: list = field(default_factory=list)
    load_s: list = field(default_factory=list)
    rows_per_s: list = field(default_factory=list)
    row_s: list = field(default_factory=list)
    heldout_r: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    model_bytes: list = field(default_factory=list)
    frames: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def record_model(self, served) -> str:
        d = digest(served.blob)
        self.digests.append(d)
        self.model_bytes.append(len(served.blob))
        self.heldout_r.append(served.heldout_r)
        return d


@dataclass
class Served:
    """A model ready to be served, with what serving it must reproduce."""

    blob: bytes
    x_held: np.ndarray
    ref_batches: list
    ref_rows: list
    heldout_r: float


def prepare_serving(model, x_held, y_held) -> Served:
    """Serialize ``model`` and record its in-memory predictions on held-out rows."""
    blob = model_io.model_to_bytes(model)
    ref_batches = [bttr.predict(model, x_held[i:i + BATCH_ROWS])
                   for i in range(0, len(x_held), BATCH_ROWS)]
    ref_rows = [bttr.predict(model, x_held[i:i + 1]) for i in range(len(x_held))]
    r = pearson_r(np.vstack(ref_batches)[:, 0], y_held[:, 0])
    return Served(blob, x_held, ref_batches, ref_rows, r)


def serve_cycle(served: Served, stats: Stats) -> bool:
    """Load the bytes, predict the held-out rows in batches, then one row at a time.

    Returns whether every prediction equals the in-memory model's bit for bit.
    """
    t0 = time.perf_counter()
    model = model_io.model_from_bytes(served.blob)
    stats.load_s.append(time.perf_counter() - t0)

    x = served.x_held
    reps = -(-PASS_ROWS // len(x))
    t0 = time.perf_counter()
    batches = [bttr.predict(model, x[i:i + BATCH_ROWS])
               for _ in range(reps) for i in range(0, len(x), BATCH_ROWS)]
    stats.rows_per_s.append(reps * len(x) / (time.perf_counter() - t0))
    ok = all(np.array_equal(a, b) for a, b in zip(batches, served.ref_batches * reps))

    for i in range(len(x)):
        t0 = time.perf_counter()
        row = bttr.predict(model, x[i:i + 1])
        stats.row_s.append(time.perf_counter() - t0)
        ok = ok and np.array_equal(row, served.ref_rows[i])
    return ok


def serve_for(served: Served, stats: Stats, seconds: float) -> bool:
    ok = True
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        ok = serve_cycle(served, stats) and ok
    return ok


def check_and_serve(model, split: Split, i: int, stats: Stats, r_floor: float,
                    expected_digest: str = None) -> bool:
    """Record the model, check its digest and held-out r, then serve it for a window."""
    served = prepare_serving(model, split.x_held, split.y_held)
    d = stats.record_model(served)
    ok = True
    if expected_digest is not None and d != expected_digest:
        stats.problems.append(f"op {i}: model digest {d[:12]} != expected {expected_digest[:12]}")
        ok = False
    if not served.heldout_r >= r_floor:
        stats.problems.append(f"op {i}: held-out r {served.heldout_r:.4f} < {r_floor}")
        ok = False
    return serve_for(served, stats, SERVE_WINDOW_S) and ok


def _sub_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


class DeskFit:
    name = "desk-fit"
    setup_repeats = 3
    # operation i fits dataset i % cycle; a run does whole cycles only, so a
    # faster fit repeats the same datasets instead of reaching new ones
    cycle = 2
    min_ops = 1

    def __init__(self, shape=(500, 12, 8, 6), ranks=(2, 2, 2), n_planted=3,
                 n_train=400, max_blocks=4, grid=None, r_floor=0.9):
        self.shape, self.ranks, self.n_planted = shape, ranks, n_planted
        self.n_train, self.r_floor = n_train, r_floor
        self.cfg = bttr.FitConfig(max_blocks=max_blocks, grid=grid or HyperGrid())

    def _dataset(self, seed: int) -> Split:
        ds, _ = data.make_synthetic(self.shape, n_blocks=self.n_planted, ranks=self.ranks,
                                    noise_snr_db=SNR_DB, seed=seed)
        return _split(ds, self.n_train)

    def setup(self, seed: int, k: int, stats: Stats):
        return {"splits": [self._dataset(_sub_seed(seed, j)) for j in range(self.cycle)]}

    def op(self, ctx, i: int, stats: Stats, tracer=None) -> bool:
        split = ctx["splits"][i % self.cycle]
        t0 = time.perf_counter()
        model = bttr.fit(split.x_train, split.y_train, self.cfg)
        stats.fit_s.append(time.perf_counter() - t0)
        ok = model.n_blocks == self.cfg.max_blocks
        if not ok:
            stats.problems.append(f"op {i}: {model.n_blocks} blocks, expected {self.cfg.max_blocks}")
        return check_and_serve(model, split, i, stats, self.r_floor) and ok


class _Federation:
    """Shared data for both federate workloads: a planted 3-way set, IID clients.

    The 12x12 feature space leaves client ranks room to differ (the rank cap
    is 10), so on about half the seeds some client reruns its block at the
    harmonised ranks (``federated.f_mpstd`` + ``truncate_to_ranks``).
    """

    setup_repeats = 3
    cycle = 1
    min_ops = 1

    def __init__(self, n_clients, max_blocks, shape=(500, 12, 12),
                 n_train=350, grid=None, r_floor=0.9):
        self.n_clients = n_clients
        self.shape = shape
        self.n_train, self.r_floor = n_train, r_floor
        self.cfg = bttr.FitConfig(max_blocks=max_blocks, grid=grid or HyperGrid())

    def _clients(self, seed: int):
        ds, _ = data.make_synthetic(self.shape, n_blocks=FEDERATION_PLANTED,
                                    noise_snr_db=SNR_DB, seed=seed)
        train = ds.subset(np.arange(self.n_train))
        parts = data.partition(train, data.PartitionPlan("iid", self.n_clients, seed))
        return [(p.x, p.y) for p in parts], _split(ds, self.n_train)

    def _loopback(self, clients):
        sessions = {cid: federated.ClientSession(cid, x, y) for cid, (x, y) in enumerate(clients)}
        hub = transport.LoopbackTransport(sessions)
        return federated.federated_fit_over(hub, self.cfg), hub.frames


class FederateLoopback(_Federation):
    name = "federate-loopback"
    min_ops = 2

    def __init__(self, n_clients=4, max_blocks=4, **kw):
        super().__init__(n_clients, max_blocks, **kw)

    def setup(self, seed: int, k: int, stats: Stats):
        clients, split = self._clients(seed)
        return {"clients": clients, "split": split}

    def op(self, ctx, i: int, stats: Stats, tracer=None) -> bool:
        t0 = time.perf_counter()
        model, frames = self._loopback(ctx["clients"])
        stats.fit_s.append(time.perf_counter() - t0)
        stats.frames.extend(frames)
        # the same seed must give the same model on every operation
        first = stats.digests[0] if stats.digests else None
        return check_and_serve(model, ctx["split"], i, stats, self.r_floor, first)


class _OrderedListener:
    """Starts client k only when the hub accepts connection k, fixing client ids."""

    def __init__(self, listener, starters):
        self._listener = listener
        self._starters = list(starters)

    def accept(self):
        self._starters.pop(0).start()
        return self._listener.accept()


class FederateTcp(_Federation):
    name = "federate-tcp"
    setup_repeats = 2  # each set-up includes a loopback reference federation

    def __init__(self, n_clients=2, max_blocks=3, **kw):
        # one connection and thread per client, never more client threads than CPUs
        n_clients = min(n_clients, len(os.sched_getaffinity(0)))
        super().__init__(n_clients, max_blocks, **kw)

    def setup(self, seed: int, k: int, stats: Stats):
        clients, split = self._clients(seed)
        reference, _ = self._loopback(clients)
        return {"clients": clients, "split": split,
                "reference": digest(model_io.model_to_bytes(reference))}

    def op(self, ctx, i: int, stats: Stats, tracer=None) -> bool:
        clients = ctx["clients"]
        errors = []
        op_span = tracer.current() if tracer is not None else None
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(len(clients))
        port = listener.getsockname()[1]

        def client(x, y):
            span = tracer.span("bench.client", parent=op_span) if tracer else nullcontext()
            try:
                with span:
                    federated.run_socket_client("127.0.0.1", port, x, y,
                                                round_timeout=CLIENT_TIMEOUT_S)
            except Exception as e:  # reported as a failed operation below
                errors.append(f"client: {type(e).__name__}: {e}")

        threads = [threading.Thread(target=client, args=c, daemon=True) for c in clients]
        try:
            t0 = time.perf_counter()
            hub = transport.serve_clients(_OrderedListener(listener, threads), len(clients),
                                          round_timeout=CLIENT_TIMEOUT_S)
            try:
                model = federated.federated_fit_over(hub, self.cfg)
                stats.fit_s.append(time.perf_counter() - t0)
            finally:
                hub.close()
            stats.frames.extend(hub.frames)
        finally:
            listener.close()
            for t in threads:
                if t.ident is not None:
                    t.join(timeout=2 * CLIENT_TIMEOUT_S)
        if errors or any(t.is_alive() for t in threads):
            stats.problems.append(f"op {i}: {errors or 'client thread did not finish'}")
            return False
        return check_and_serve(model, ctx["split"], i, stats, self.r_floor, ctx["reference"])


class Serve:
    name = "serve"
    # each set-up fits its own dataset: the wide fit's sweep counts, hence its
    # time, vary by dataset, so fit_s is a median over three of them
    setup_repeats = 3
    cycle = 1
    min_ops = 1

    def __init__(self, shape=(684, 32, 16, 20), n_planted=8, ranks=(2, 2, 2),
                 n_train=300, max_blocks=8, grid=None, r_floor=0.9):
        self.shape, self.n_planted, self.ranks = shape, n_planted, ranks
        self.n_train, self.r_floor = n_train, r_floor
        # hyperparameters fixed by the user: the wide model is the subject here,
        # not the grid search (tau 100 keeps ranks at the cap: a 10240 x 1000 kron)
        grid = grid or HyperGrid(snr_values=(30,), tau_values=(100,))
        self.cfg = bttr.FitConfig(max_blocks=max_blocks, grid=grid)

    def setup(self, seed: int, k: int, stats: Stats):
        ds, _ = data.make_synthetic(self.shape, n_blocks=self.n_planted, ranks=self.ranks,
                                    noise_snr_db=SNR_DB, seed=_sub_seed(seed, k))
        split = _split(ds, self.n_train)
        t0 = time.perf_counter()
        model = bttr.fit(split.x_train, split.y_train, self.cfg)
        stats.fit_s.append(time.perf_counter() - t0)
        return {"served": prepare_serving(model, split.x_held, split.y_held)}

    def op(self, ctx, i: int, stats: Stats, tracer=None) -> bool:
        served = ctx["served"]
        if i == 0:
            stats.record_model(served)
            if not served.heldout_r >= self.r_floor:
                stats.problems.append(f"held-out r {served.heldout_r:.4f} < {self.r_floor}")
                return False
        return serve_cycle(served, stats)


WORKLOADS = {w.name: w for w in (DeskFit, FederateLoopback, FederateTcp, Serve)}
