"""Which fbttr calls are traced, and how their spans become per-layer metrics.

Every boundary is intercepted where it is *called*: ``bttr.ace`` and
``federated.ace`` are two names for ``sparse_tucker.ace`` and both are
patched.  Per-layer metrics are per timed operation (a fit, a federation
or a serving cycle) and come only from spans under a ``bench.op`` span,
except ``data.*``, which is per set-up and comes from ``bench.setup``
spans.  A layer a workload does not exercise reports 0.
"""

from __future__ import annotations

from collections import defaultdict

from fbttr import bttr, data, federated, model_io, sparse_tucker, transport
from fbttr.wire import MessageKind

N_BLOCK_SLOTS = 4


def _ace_block(tracer, span, args, kwargs):
    # block index: the round a client session is answering, else the
    # ordinal of this extraction within the enclosing centralized fit
    for anc in tracer.ancestors():
        if anc is span:
            continue
        if "ace_block" in anc.attrs:
            span.block = anc.attrs["ace_block"]
            return
        if anc.name == "bttr.fit":
            anc.attrs["n_ace"] = anc.attrs.get("n_ace", 0) + 1
            span.block = anc.attrs["n_ace"]
            return


def _handle_round(tracer, span, args, kwargs):
    msg = args[1]
    if msg.kind == MessageKind.HELLO:
        span.attrs["ace_block"] = 1
    elif msg.kind == MessageKind.GLOBAL_BLOCK:
        span.attrs["ace_block"] = msg.round + 1
    elif msg.kind == MessageKind.ERROR:
        span.attrs["ace_block"] = msg.round


def _converged(span, result):
    span.attrs["converged"] = bool(result.converged)


def _skipped(span, update):
    span.attrs["skip"] = bool(update.skip)


def instrument(tracer) -> None:
    """Patch every traced boundary; undo with ``tracer.restore()``."""
    st = sparse_tucker
    tracer.patch(bttr, "ace", "sparse_tucker.ace", on_enter=_ace_block)
    tracer.patch(federated, "ace", "sparse_tucker.ace", on_enter=_ace_block)
    tracer.patch(federated, "ace", "federated.client_ace")
    tracer.patch(st, "hooi_init", "sparse_tucker.hooi_init")
    tracer.patch(st, "f_mpstd_cov", "sparse_tucker.f_mpstd_cov", on_exit=_converged)
    for name in ("lambda_from_snr", "soft_threshold", "prune", "bic_score"):
        tracer.patch(st, name, f"sparse_tucker.{name}")
    tracer.patch(st, "finalize_block", "sparse_tucker.finalize_block")
    tracer.patch(federated, "finalize_block", "sparse_tucker.finalize_block")
    tracer.patch(st, "multilinear_product", "tensor.multilinear_product")
    tracer.patch(st, "cross_covariance", "tensor.cross_covariance")

    tracer.patch(bttr, "fit", "bttr.fit")
    tracer.patch(bttr, "materialize_predictor", "bttr.materialize_predictor")
    tracer.patch(federated, "materialize_predictor", "bttr.materialize_predictor")
    tracer.patch(bttr, "predict", "bttr.predict")

    tracer.patch(federated.ClientSession, "handle", "federated.client_handle",
                 on_enter=_handle_round)
    tracer.patch(federated, "client_local_block", "federated.client_local_block",
                 on_exit=_skipped)
    tracer.patch(federated, "f_mpstd", "federated.local_rerun")
    tracer.patch(federated, "client_deflate", "federated.client_deflate")
    tracer.patch(federated, "aggregate_block", "federated.aggregate_block")

    tracer.patch(transport, "encode_message", "wire.encode")
    tracer.patch(transport, "decode_message", "wire.decode")
    tracer.patch(transport.SocketServerTransport, "send", "transport.hub_send")
    tracer.patch(transport.SocketServerTransport, "recv", "transport.hub_recv")
    tracer.patch(transport.SocketServerTransport, "drop", "transport.drop")

    tracer.patch(model_io, "model_to_bytes", "model_io.model_to_bytes")
    tracer.patch(model_io, "model_from_bytes", "model_io.model_from_bytes")
    tracer.patch(data, "make_synthetic", "data.make_synthetic")
    tracer.patch(data, "partition", "data.partition")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s") or "_s.block" in name:
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if ".sweeps_per_cell." in name:
        return "sweeps/cell"
    if name.endswith("bytes") or ".bytes_" in name:
        return "B"
    return "count"


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans, frames: list, model_bytes: float) -> dict:
    """Per-op layer metrics from op-rooted spans, ``data.*`` per set-up.

    ``frames`` is every (direction, client, frame) recorded by the
    transports during the traced ops; ``model_bytes`` the serialized size
    of the workload's model.
    """
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    block_s = defaultdict(float)
    block_cells = defaultdict(int)
    block_sweeps = defaultdict(int)
    unconverged = failed = 0
    setup_total = defaultdict(float)
    nonskip_local = 0

    for s in spans:
        root = s.root.name
        if root == "bench.setup":
            setup_total[s.name] += s.duration
            continue
        if root != "bench.op":
            continue
        total[s.name] += s.duration
        self_s[s.name] += s.self_s
        calls[s.name] += 1
        if s.name == "sparse_tucker.ace" and s.block:
            block_s[s.block] += s.duration
        elif s.name == "sparse_tucker.f_mpstd_cov":
            if s.error:
                failed += 1
            elif not s.attrs.get("converged", True):
                unconverged += 1
            if s.block:
                block_cells[s.block] += 1
        elif s.name == "sparse_tucker.lambda_from_snr" and s.block:
            block_sweeps[s.block] += 1
        elif s.name == "federated.client_local_block" and not s.error \
                and not s.attrs.get("skip"):
            nonskip_local += 1
    # a local block that did not rerun f_mpstd reused the client's own extraction
    reused = nonskip_local - calls["federated.local_rerun"]

    ops = max(calls["bench.op"], 1)
    m = {}

    def per_op(name, value):
        m[name] = value / ops

    per_op("sparse_tucker.ace_s", total["sparse_tucker.ace"])
    per_op("sparse_tucker.ace_calls", calls["sparse_tucker.ace"])
    for b in range(1, N_BLOCK_SLOTS + 1):
        per_op(f"sparse_tucker.ace_s.block{b}", block_s[b])
    per_op("sparse_tucker.hooi_init_s", total["sparse_tucker.hooi_init"])
    cells = calls["sparse_tucker.f_mpstd_cov"]
    per_op("sparse_tucker.f_mpstd_cov_calls", cells)
    per_op("sparse_tucker.f_mpstd_cov_s", total["sparse_tucker.f_mpstd_cov"])
    per_op("sparse_tucker.f_mpstd_cov_self_s", self_s["sparse_tucker.f_mpstd_cov"])
    per_op("sparse_tucker.sweeps", calls["sparse_tucker.lambda_from_snr"])
    for b in range(1, N_BLOCK_SLOTS + 1):
        m[f"sparse_tucker.sweeps_per_cell.block{b}"] = _ratio(block_sweeps[b], block_cells[b])
    per_op("sparse_tucker.cells_unconverged", unconverged)
    per_op("sparse_tucker.cells_failed", failed)
    m["sparse_tucker.cells_converged_ratio"] = _ratio(cells - unconverged - failed, cells)
    for name in ("lambda_from_snr", "prune", "soft_threshold", "bic_score", "finalize_block"):
        per_op(f"sparse_tucker.{name}_s", total[f"sparse_tucker.{name}"])

    per_op("tensor.cross_covariance_s", total["tensor.cross_covariance"])
    per_op("tensor.multilinear_product_s", total["tensor.multilinear_product"])
    per_op("tensor.multilinear_product_calls", calls["tensor.multilinear_product"])

    per_op("bttr.fit_s", total["bttr.fit"])
    per_op("bttr.deflation_s", self_s["bttr.fit"])
    per_op("bttr.materialize_predictor_s", total["bttr.materialize_predictor"])
    per_op("bttr.predict_s", total["bttr.predict"])
    per_op("bttr.predict_calls", calls["bttr.predict"])

    per_op("federated.client_ace_s", total["federated.client_ace"])
    per_op("federated.client_local_block_s", total["federated.client_local_block"])
    per_op("federated.local_rerun_calls", calls["federated.local_rerun"])
    m["federated.local_reuse_ratio"] = _ratio(reused, nonskip_local)
    per_op("federated.aggregate_block_s", total["federated.aggregate_block"])
    per_op("federated.client_deflate_s", total["federated.client_deflate"])
    per_op("federated.rounds", calls["federated.aggregate_block"])

    per_op("wire.encode_s", total["wire.encode"])
    per_op("wire.decode_s", total["wire.decode"])
    per_op("wire.frames", len(frames))
    per_op("wire.bytes_to_hub", sum(len(f) for d, _, f in frames if d == "client->server"))
    per_op("wire.bytes_to_clients", sum(len(f) for d, _, f in frames if d == "server->client"))

    # hub time blocked in recv/send, excluding the codec spans nested inside
    per_op("transport.hub_recv_wait_s", self_s["transport.hub_recv"])
    per_op("transport.hub_send_s", self_s["transport.hub_send"])
    per_op("transport.dropouts", calls["transport.drop"])

    per_op("model_io.model_from_bytes_s", total["model_io.model_from_bytes"])
    per_op("model_io.model_to_bytes_s", total["model_io.model_to_bytes"])
    m["model_io.model_bytes"] = float(model_bytes)

    setups = max(sum(1 for s in spans if s.name == "bench.setup"), 1)
    m["data.make_synthetic_s"] = setup_total["data.make_synthetic"] / setups
    m["data.partition_s"] = setup_total["data.partition"] / setups
    return m
