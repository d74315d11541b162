"""One benchmark operation, run in a fresh process by run.py.

Usage: python3 perfbench/ops.py REQUEST.json RESULT.json

Each operation imports binq from the checkout's `src/`, times only the
calls into binq (one sample per call), reads its own peak RSS right after
the measured phases and writes a JSON result. A traced request installs
the span tracer and
tracemalloc before the first binq call and returns the spans.

Inputs are generated here from the workload seed; binq only ever sees the
generated tensors, manifests and attention files.
"""

import contextlib
import dataclasses
import hashlib
import json
import math
import pickle
import resource
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import binq  # noqa: E402
import binq.cli  # noqa: E402
from tracer import Tracer  # noqa: E402

SCALE = 0.02  # typical weight standard deviation of a transformer projection

# (name, role, shape, distribution). Shapes and mixes are fixed; the seed
# drives the values, so every seed does the same amount of work.
ROUNDTRIP_4K = [("lm.layers.0.mlp.down_proj", "language", (4096, 1024), "student_t")]
MODEL_CLI = [
    ("vision.blocks.0.attn.qkv", "vision", (384, 512), "student_t"),
    ("vision.blocks.0.attn.proj", "vision", (128, 512), "gaussian"),
    ("vision.blocks.0.mlp.fc1", "vision", (512, 256), "biased"),
    ("vision.blocks.0.mlp.fc2", "vision", (256, 512), "student_t"),
    ("adaptor.proj_in", "adaptor", (128, 512), "gaussian"),
    ("adaptor.proj_out", "adaptor", (512, 128), "biased"),
    ("lm.layers.0.attn.q_proj", "language", (256, 512), "student_t"),
    ("lm.layers.0.attn.k_proj", "language", (128, 512), "gaussian"),
    ("lm.layers.0.attn.v_proj", "language", (128, 512), "biased"),
    ("lm.layers.0.attn.o_proj", "language", (512, 128), "student_t"),
    ("lm.layers.0.mlp.up_proj", "language", (512, 512), "gaussian"),
    ("lm.layers.0.mlp.down_proj", "language", (128, 512), "biased"),
]
CAP_OVERRIDE = {"adaptor.proj_out": 0.008}
# Attention scores for prune-scores: the first layers are vision-encoder
# tensors, the rest language-model tensors with system/instruction/output
# token groups around the 576 image tokens of a 24x24 patch grid.
ATTN_LAYERS, ATTN_VISION_LAYERS, ATTN_OUT_TOKENS = 32, 2, 64
N_IMG, N_SYS, N_INS = 576, 35, 48
PRUNE_RATIO, PRUNE_START = 0.75, 2


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, stream])


def weights(rng, shape, dist) -> np.ndarray:
    if dist == "student_t":
        data = rng.standard_t(5, size=shape)
    elif dist == "gaussian":
        data = rng.standard_normal(shape)
    else:  # biased: a Gaussian whose mean sits half a sigma off zero
        data = 0.5 + rng.standard_normal(shape)
    return (SCALE * data).astype(np.float32)


def attention(rng) -> list:
    tensors = []
    for j in range(ATTN_LAYERS):
        img = rng.dirichlet(np.ones(N_IMG), size=ATTN_OUT_TOKENS)
        if j < ATTN_VISION_LAYERS:
            sums = np.zeros((ATTN_OUT_TOKENS, 4))
            sums[:, 1] = 1.0
            sizes = (0, N_IMG, 0, 0)
        else:
            sums = rng.dirichlet([2.0, 6.0, 3.0, 1.0], size=ATTN_OUT_TOKENS).astype(np.float32)
            # Close each row in float64 after the float32 cast so it sums to 1.
            sums[:, 3] = 1.0 - sums[:, :3].astype(np.float64).sum(axis=1)
            sizes = (N_SYS, N_IMG, N_INS, ATTN_OUT_TOKENS)
        tensors.append(binq.AttentionTensor(layer_index=j, group_sums=sums,
                                            image_scores=img * sums[:, 1:2],
                                            group_sizes=sizes))
    return tensors


def sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def describe(layers) -> dict:
    """Storage breakdown and group fractions of quantized layers, from outside.

    Stream sizes follow from storage_report and the layer labels: the index
    stream from the realized index bits, codes and signs from the group
    counts (byte-padded), and the scale stream as the remainder.
    """
    out, reports = [], []
    for layer in layers:
        rep = binq.storage_report(layer)
        reports.append(rep)
        cfg = layer.config
        count = layer.m * layer.n
        groups = np.bincount(layer.labels.ravel(), minlength=cfg.n_uns + 1)
        salient = int(groups[cfg.n_uns])
        streams = {"index": round(rep.l_i_realized * count),
                   "codes": 8 * ((salient * cfg.n_bits + 7) // 8),
                   "signs": 8 * ((count - salient + 7) // 8)}
        streams["scales"] = rep.realized_total_bits - sum(streams.values())
        # Gaussian targets: n_uns equal unsalient shares, then the salient share.
        target = np.array([(1.0 - layer.p_sal_used) / cfg.n_uns] * cfg.n_uns
                          + [layer.p_sal_used])
        out.append({"name": layer.name, "weights": count,
                    "p_sal_used": layer.p_sal_used, "p_sal_max": layer.p_sal_max,
                    "salient_fraction": rep.salient_fraction,
                    "group_fractions": (groups / count).tolist(),
                    "max_fraction_drift": float(np.max(np.abs(groups / count - target))),
                    "stream_bits": streams, "bits_per_weight": rep.bits_per_weight,
                    "over_budget": rep.over_budget})
    return {"layers": out,
            "total": dataclasses.asdict(binq.aggregate_reports(reports))}


def errors(matrices, layers) -> dict:
    """Per-layer and size-weighted Frobenius relative error."""
    err = [binq.reconstruction_error(w, q) for w, q in zip(matrices, layers)]
    norm = [float(np.sum(np.square(w.data.astype(np.float64)))) for w in matrices]
    return {"per_layer": [math.sqrt(e / n) for e, n in zip(err, norm)],
            "relative_error": math.sqrt(sum(err) / sum(norm))}


class Op:
    def __init__(self, req):
        self.req = req
        self.result = {"seconds": {}}  # phase -> samples
        self.tracer = None
        if req.get("trace"):
            self.tracer = Tracer(attrs={
                "saliency_optimizer.evaluate_objective":
                    lambda matrix, fit, p_sal, *_a, **_k: [matrix.name, p_sal]})
            self.tracer.install()
            tracemalloc.start()

    @contextlib.contextmanager
    def timed(self, phase):
        was_active = self.tracer is not None and self.tracer.active
        if self.tracer is not None:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            took = time.perf_counter() - start
            self.result["seconds"].setdefault(phase, []).append(took)
            if self.tracer is not None:
                self.tracer.active = was_active

    def peak_rss(self):
        self.result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def gen(self):
        req, out = self.req, Path(self.req["dir"])
        workload = req["workload"]
        out.mkdir(parents=True, exist_ok=True)
        table = {"roundtrip-4k": ROUNDTRIP_4K, "model-cli": MODEL_CLI}[workload]
        with self.timed("setup"):
            matrices = [binq.WeightMatrix(name, role, weights(rng_for(req["seed"], i), shape, dist))
                        for i, (name, role, shape, dist) in enumerate(table)]
            if workload == "roundtrip-4k":
                with self.timed("quantize"):
                    layer = binq.quantize_layer(matrices[0],
                                                binq.QuantConfig(optimize_saliency=False))
                self.peak_rss()
            else:
                paths = [out / f"{w.name}.bvw" for w in matrices]
                for w, path in zip(matrices, paths):
                    binq.write_tensor(w, path)
                manifest = [dict({"name": w.name, "path": p.name, "role": w.role.value},
                                 **({"p_sal_max": CAP_OVERRIDE[w.name]}
                                    if w.name in CAP_OVERRIDE else {}))
                            for w, p in zip(matrices, paths)]
                (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
                tensors = attention(rng_for(req["seed"], len(table)))
                binq.write_attention(tensors, out / "attention.bva")
        self.result["inputs_sha256"] = sha256(*(w.data for w in matrices))
        if workload == "model-cli":
            self.result["inputs_sha256"] += sha256(*(t.image_scores for t in tensors))
            self.result.update(manifest=str(out / "manifest.json"),
                               attention=str(out / "attention.bva"),
                               layer_count=len(matrices), prune_ratio=PRUNE_RATIO,
                               prune_start=PRUNE_START,
                               prune_layers=ATTN_LAYERS - PRUNE_START,
                               retained_count=binq.retained_count(PRUNE_RATIO, N_IMG))
        else:
            self.result["layers_quantized"] = 1
            if req.get("keep"):
                with open(out / "layer.pkl", "wb") as fh:
                    pickle.dump([layer], fh, protocol=pickle.HIGHEST_PROTOCOL)
                self.result.update(layers=str(out / "layer.pkl"),
                                   digests=[sha256(binq.reconstruct(layer).data)],
                                   summary=describe([layer]),
                                   **errors(matrices, [layer]))

    def write(self):
        with open(self.req["layers"], "rb") as fh:
            layers = pickle.load(fh)
        with self.timed("write"):
            binq.write_artifact(layers, self.req["artifact"])

    def load(self):
        with self.timed("read"):
            layers = binq.read_artifact(self.req["artifact"])
        with self.timed("reconstruct"):
            recons = [binq.reconstruct(q) for q in layers]
        self.peak_rss()
        self.result.update(digests=[sha256(r.data) for r in recons],
                           summary=describe(layers))
        del recons
        if self.req.get("manifest"):
            entries = binq.read_manifest(self.req["manifest"]).entries
            matrices = [binq.read_tensor(e.path) for e in entries]
            self.result.update(errors(matrices, layers))
        if self.req.get("rewrite"):
            with self.timed("write"):
                binq.write_artifact(layers, self.req["rewrite"])

    def cli(self):
        with open(self.req["stdout"], "w") as fh, contextlib.redirect_stdout(fh):
            with self.timed(self.req["phase"]):
                self.result["exit_code"] = binq.cli.main(self.req["argv"])
        self.peak_rss()


def main(argv) -> int:
    req_path, result_path = argv
    req = json.loads(Path(req_path).read_text())
    op = Op(req)
    getattr(op, req["op"])()
    if "peak_rss_mb" not in op.result:
        op.peak_rss()
    if op.tracer is not None:
        op.result["spans"] = op.tracer.spans
    Path(result_path).write_text(json.dumps(op.result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
