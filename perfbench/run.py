"""Seeded benchmark for binq.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation runs in a fresh process (perfbench/ops.py) with numpy's
thread pools capped at the number of usable cores, so peak RSS is per
operation. The workload is a closed loop with one client: set-up runs
once, then the workload's iteration repeats until --seconds have passed.
Each iteration sets up again (the inputs must come out the same) and runs
every timed phase of the workload once, so every end-to-end metric is the
median of samples spread over the whole run.

Every output is checked. The last line of stdout is one JSON object with
`correct`, `attempted` and `failed` (checks made and failed) and the
metrics named in BENCHMARK.json: end-to-end metrics with --trace 0,
per-layer metrics from the span trace with --trace 1. A failed check exits
with 1; a checkout without binq sources exits with 2 and prints no result.

Before the result, a `ledger` line records what must not change between
runs of one seed: artifact sha256, p* per layer, stream sizes and, when
traced, evaluation counts. Ledgers are kept under .perfbench_work/ledger
and a later run of the same seed must match them.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170
# Memory touched before an operation never run before in this run: a
# multiple of the largest peak seen so far, capped.
WARM_FACTOR, WARM_MAX_MB = 4, 2560


class Abort(Exception):
    """An operation failed in a way the workload cannot continue from."""


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def code_digest() -> str:
    """A short digest of binq's sources and the benchmark's own files."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "binq").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def prefault(mb: float):
    """Touch and free `mb` MiB just before starting an operation.

    A virtual machine may hand freed guest pages back to its host; the next
    process to touch them then pays host page faults whose cost depends on
    the host's load (up to 0.6 s per GiB on a 2-vCPU virtual machine),
    which would swamp I/O timings. Pages touched and freed a moment earlier
    are still backed, so the operation pays only its own page faults. The touching happens in a
    process of its own because Linux carries a parent's peak RSS into the
    `ru_maxrss` of the children it starts.
    """
    if mb >= 1:
        subprocess.run([sys.executable, "-c", f"bytearray(b'\\x01') * {int(mb) << 20}"],
                       timeout=60)


class Bench:
    def __init__(self, args, spec):
        self.args = args
        self.spec = spec
        self.work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        cores = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
                        **{k: cores for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                              "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                              "VECLIB_MAXIMUM_THREADS")})
        self.samples = defaultdict(list)   # end-to-end metric -> samples
        self.totals = {False: [], True: []}  # traced? -> iteration total_s
        self.traced = defaultdict(list)    # op label -> traced results
        self.checks = 0
        self.failures = []
        self.first = {}
        self.ops = 0
        self.ledger = {}
        self.deterministic = {}
        self.peaks = {}                    # op label -> largest peak RSS, MB

    # --- checks -------------------------------------------------------------

    def check(self, ok, what) -> bool:
        self.checks += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return bool(ok)

    def same(self, what, value):
        """Check a value repeats exactly within the run."""
        if what in self.first:
            self.check(self.first[what] == value, f"{what} differs between repeats")
        else:
            self.first[what] = value

    def check_report(self, text, total):
        rows = [r for r in csv.DictReader(io.StringIO(text)) if r.get("layer") == "TOTAL"]
        if not self.check(len(rows) == 1 and "bits_per_weight" in rows[0],
                          "report --csv has one TOTAL row with bits_per_weight"):
            return
        columns = {"salient_frac": "salient_fraction", "L_B": "l_b", "L_a": "l_a",
                   "L_model": "l_model", "L_i_formula": "l_i",
                   "L_i_realized": "l_i_realized", "bits_per_weight": "bits_per_weight"}
        # The CSV prints 6 significant digits or 6 decimals.
        ok = all(math.isclose(float(rows[0][col]), total[key], rel_tol=1e-5, abs_tol=1e-6)
                 for col, key in columns.items() if col in rows[0])
        if "over_budget" in rows[0]:
            ok = ok and (rows[0]["over_budget"] == "yes") == total["over_budget"]
        self.check(ok, "report --csv TOTAL row matches aggregate_reports")

    # --- running operations -------------------------------------------------

    def op(self, label, name, traced=False, peak=None, **req) -> dict:
        """Run one operation in a fresh process and record its phase times."""
        self.ops += 1
        req_path = self.work / f"op{self.ops}.req.json"
        out_path = self.work / f"op{self.ops}.out.json"
        req_path.write_text(json.dumps(dict(req, op=name, trace=traced)))
        prefault(self.peaks.get(label) or min(
            WARM_FACTOR * max(self.peaks.values(), default=0), WARM_MAX_MB))
        try:
            proc = subprocess.run([sys.executable, str(HERE / "ops.py"), str(req_path),
                                   str(out_path)], cwd=ROOT, env=self.env,
                                  stdout=sys.stderr, timeout=max(1.0, self.deadline - time.monotonic()))
            ok = proc.returncode == 0 and out_path.is_file()
        except subprocess.TimeoutExpired:
            ok = False
        if not self.check(ok, f"{label} operation completed"):
            raise Abort(label)
        result = json.loads(out_path.read_text())
        self.peaks[label] = max(self.peaks.get(label, 0), result["peak_rss_mb"])
        if traced:
            self.traced[label].append(result)
        else:
            for phase, seconds in result["seconds"].items():
                self.samples[f"{phase}_s"].extend(seconds)
            if peak:
                self.samples[peak].append(result["peak_rss_mb"])
        return result

    def cli(self, label, phase, argv, traced=False, peak=None, layers=0) -> dict:
        stdout = self.work / f"{label}.out"
        result = self.op(label, "cli", traced, peak, argv=argv, phase=phase,
                         stdout=str(stdout))
        result.update(stdout=stdout, layers_quantized=layers)
        self.check(result["exit_code"] == 0, f"binq {argv[0]} exit code is 0")
        return result

    def setup(self, traced=None, keep=True) -> dict:
        """Generate the inputs; only the first set-up keeps its outputs."""
        peak = "quantize_peak_rss_mb" if self.args.workload == "roundtrip-4k" else None
        result = self.op("gen", "gen", self.args.trace if traced is None else traced, peak,
                         workload=self.args.workload, seed=self.args.seed,
                         dir=str(self.work / "inputs"), keep=keep)
        self.same("generated inputs", result["inputs_sha256"])
        return result

    def loop(self, iteration):
        """Repeat the timed iteration until --seconds have passed.

        A traced run alternates untraced and traced iterations, so the
        tracing overhead is measured within the run.
        """
        start = time.monotonic()
        done = 0
        while True:
            traced = bool(self.args.trace) and done % 2 == 1
            began = time.monotonic()
            self.totals[traced].append(iteration(traced))
            done += 1
            took = time.monotonic() - began
            if (done >= (2 if self.args.trace else 1)
                    and time.monotonic() + took > start + self.args.seconds):
                return

    # --- results ------------------------------------------------------------

    def finish(self, summary, rel_error, artifact):
        self.check(math.isfinite(rel_error) and rel_error > 0.0, "relative_error is finite")
        total = summary["total"]
        streams = {k: sum(layer["stream_bits"][k] for layer in summary["layers"])
                   for k in ("index", "codes", "signs", "scales")}
        self.samples["bits_per_weight"].append(total["bits_per_weight"])
        self.samples["relative_error"].append(rel_error)
        self.samples["total_s"] = self.totals[False]
        self.deterministic = {
            "bit_packer.index_bpw": streams["index"] / total["weights"],
            "bit_packer.code_bpw": streams["codes"] / total["weights"],
            "bit_packer.sign_bpw": streams["signs"] / total["weights"],
            "bit_packer.scale_bpw": streams["scales"] / total["weights"],
            "tensor_store.artifact_bytes": Path(artifact).stat().st_size,
            "partitioner.max_fraction_drift": max(l["max_fraction_drift"] for l in summary["layers"]),
            "pipeline.over_budget_layers": sum(l["over_budget"] for l in summary["layers"]),
        }
        self.ledger.update(
            artifact_sha256=file_sha256(artifact), bits_per_weight=total["bits_per_weight"],
            relative_error=rel_error, stream_bpw={k: v / total["weights"] for k, v in streams.items()},
            layers=[{k: l[k] for k in ("name", "p_sal_used", "salient_fraction",
                                       "group_fractions", "stream_bits", "over_budget")}
                    for l in summary["layers"]])
        evaluations = defaultdict(int)
        for results in self.traced.values():
            for span in results[0]["spans"] if results else []:
                if span["name"] == "saliency_optimizer.evaluate_objective" and "attrs" in span:
                    evaluations[span["attrs"][0]] += 1
        if evaluations:
            for layer in self.ledger["layers"]:
                layer["evaluations"] = evaluations.get(layer["name"], 0)

    def check_ledger(self):
        # Keyed by the code as well: a change to binq or to the benchmark
        # may change the outputs and starts a ledger of its own.
        path = ROOT / ".perfbench_work" / "ledger" / (
            f"{self.args.workload}-seed{self.args.seed}-trace{self.args.trace}"
            f"-{code_digest()}.json")
        if path.is_file():
            self.check(json.loads(path.read_text()) == json.loads(json.dumps(self.ledger)),
                       f"ledger matches the earlier run of seed {self.args.seed}")
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(self.ledger, sort_keys=True))
            os.replace(tmp, path)

    def metrics(self) -> dict:
        if self.args.trace:
            values = per_layer_metrics(self.traced, self.totals)
            values.update(self.deterministic)
            wanted = self.spec["per_layer"]
        else:
            values = {k: statistics.median(v) for k, v in self.samples.items() if v}
            for k, v in sorted(self.samples.items()):
                print(f"samples {k}: " + " ".join(f"{x:.4g}" for x in v), file=sys.stderr)
            wanted = self.spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        self.check(not missing, f"metrics measured: missing {missing}")
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in wanted if m["name"] in values}


# --- per-layer metrics from spans ------------------------------------------

def span_stats(result) -> dict:
    """Self time per module and per function, time and calls per function, peaks."""
    spans = result["spans"]
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    stats = defaultdict(float)
    evaluated = set()
    for s, inner in zip(spans, child):
        took = s["end"] - s["start"]
        stats["module_self:" + s["name"].split(".")[0]] += took - inner
        stats["self:" + s["name"]] += took - inner
        stats["time:" + s["name"]] += took
        stats["calls:" + s["name"]] += 1
        if "peak_alloc_mb" in s:
            key = "peak:" + s["name"]
            stats[key] = max(stats[key], s["peak_alloc_mb"])
        if s["name"] == "saliency_optimizer.evaluate_objective" and "attrs" in s:
            evaluated.add(tuple(s["attrs"]))
    stats["distinct_evals"] = len(evaluated)
    stats["layers_quantized"] = result.get("layers_quantized", 0)
    return stats


def per_layer_metrics(traced, totals) -> dict:
    """Per-layer values for one pass of the workload's operations.

    For each kind of operation, take the median over its traced runs; a
    pass sums the kinds, and allocation peaks take the largest.
    """
    per_kind = [[span_stats(r) for r in results] for results in traced.values() if results]
    p = defaultdict(float)
    for stats in per_kind:
        for key in set().union(*stats):
            value = statistics.median(s.get(key, 0.0) for s in stats)
            p[key] = max(p[key], value) if key.startswith("peak:") else p[key] + value
    evals = p["calls:saliency_optimizer.evaluate_objective"]
    layers = p["layers_quantized"]
    return {
        "saliency_optimizer.evaluations": evals / layers if layers else 0.0,
        "saliency_optimizer.distinct_eval_ratio": p["distinct_evals"] / evals if evals else 0.0,
        "saliency_optimizer.self_s": p["module_self:saliency_optimizer"],
        "partitioner.calls": p["calls:partitioner.partition"],
        "partitioner.self_s": p["module_self:partitioner"],
        "unsalient_binarizer.calls": p["calls:unsalient_binarizer.binarize_subset"],
        "unsalient_binarizer.self_s": p["module_self:unsalient_binarizer"],
        "salient_quantizer.calls": p["calls:salient_quantizer.quantize_salient"],
        "salient_quantizer.self_s": p["module_self:salient_quantizer"],
        "pipeline.hybrid_quantize_calls_per_layer":
            p["calls:saliency_optimizer.hybrid_quantize"] / layers if layers else 0.0,
        "weight_stats.self_s": p["module_self:weight_stats"],
        "tensor_store.read_tensor_s": p["time:tensor_store.read_tensor"],
        "bit_packer.storage_report_s": p["time:bit_packer.storage_report"],
        "pipeline.relative_error_s": p["time:pipeline.relative_error"],
        "pipeline.self_s": p["module_self:pipeline"],
        "bit_packer.pack_s": p["time:bit_packer.pack_stream"],
        "tensor_store.write_artifact_self_s": p["self:tensor_store.write_artifact"],
        "bit_packer.unpack_s": p["time:bit_packer.unpack_stream"],
        "tensor_store.read_artifact_self_s": p["self:tensor_store.read_artifact"],
        "bit_packer.unpack_peak_alloc_mb": p["peak:bit_packer.unpack_stream"],
        "tensor_store.read_artifact_peak_alloc_mb": p["peak:tensor_store.read_artifact"],
        "pipeline.reconstruct_s": p["time:pipeline.reconstruct"],
        "tensor_store.read_attention_s": p["time:tensor_store.read_attention"],
        "token_pruner.self_s": p["module_self:token_pruner"],
        "cli.self_s": p["module_self:cli"],
        "trace.overhead_frac": (statistics.median(totals[True]) / statistics.median(totals[False])
                                - 1.0 if totals[True] and totals[False] else 0.0),
    }


# --- workloads ---------------------------------------------------------------

def seconds(result, *phases) -> float:
    return sum(sum(result["seconds"][phase]) for phase in phases)


def roundtrip_4k(b: Bench):
    """write_artifact, then read_artifact and reconstruct in a fresh process, then report."""
    gen = b.setup()
    artifact = b.work / "layer.bvq"

    def iteration(traced):
        b.setup(traced, keep=False)
        w = b.op("write", "write", traced, layers=gen["layers"], artifact=str(artifact))
        b.same("artifact sha256", file_sha256(artifact))
        load = b.op("load", "load", traced, "load_peak_rss_mb", artifact=str(artifact))
        b.check(load["digests"] == gen["digests"], "read-back reconstruction is bitwise equal")
        b.check(load["summary"] == gen["summary"], "read-back storage summary is unchanged")
        report = b.cli("cli-report", "report", ["report", str(artifact), "--csv"], traced)
        b.check_report(report["stdout"].read_text(), gen["summary"]["total"])
        return seconds(w, "write") + seconds(load, "read", "reconstruct") + seconds(report, "report")

    b.loop(iteration)
    b.finish(gen["summary"], gen["relative_error"], artifact)


def model_cli(b: Bench):
    """binq quantize, report --csv and prune-scores on a generated model, then
    read_artifact, reconstruct and write_artifact of the read-back layers."""
    gen = b.setup()
    artifact, errors_csv = b.work / "model.bvq", b.work / "model.csv"
    rewritten = b.work / "rewritten.bvq"
    loads = []

    def iteration(traced):
        b.setup(traced, keep=False)
        quantize = b.cli("cli-quantize", "quantize",
                         ["quantize", gen["manifest"], "-o", str(artifact), "--csv", str(errors_csv)],
                         traced, "quantize_peak_rss_mb", gen["layer_count"])
        report = b.cli("cli-report", "report", ["report", str(artifact), "--csv"], traced)
        prune = b.cli("cli-prune", "prune",
                      ["prune-scores", gen["attention"], "--ratio", str(gen["prune_ratio"]),
                       "--start-layer", str(gen["prune_start"])], traced)
        b.same("artifact sha256", file_sha256(artifact))
        b.same("error CSV", errors_csv.read_text())
        decisions = json.loads(prune["stdout"].read_text())
        b.check(len(decisions) == gen["prune_layers"] and all(
            len(d["retained"]) == gen["retained_count"]
            and d["retained"] == sorted(set(d["retained"])) for d in decisions),
            "prune-scores keeps retained_count(ratio, n_img) tokens per layer")
        # The first load also recomputes the per-layer errors from the inputs.
        load = b.op("load", "load", traced, "load_peak_rss_mb", artifact=str(artifact),
                    rewrite=str(rewritten), **({} if loads else {"manifest": gen["manifest"]}))
        b.check(file_sha256(rewritten) == file_sha256(artifact),
                "rewriting the read-back layers reproduces the artifact")
        b.same("read-back storage summary", load["summary"])
        b.check_report(report["stdout"].read_text(), load["summary"]["total"])
        loads.append(load)
        return (seconds(quantize, "quantize") + seconds(report, "report") + seconds(prune, "prune")
                + seconds(load, "read", "reconstruct", "write"))

    b.loop(iteration)
    load = loads[0]
    rows = list(csv.DictReader(errors_csv.open(newline="")))
    b.check(len(rows) == len(load["per_layer"]) and all(
        math.isclose(float(r["relative_error"]), e, rel_tol=1e-7)
        and math.isclose(float(r["p_sal_used"]), l["p_sal_used"], rel_tol=1e-7)
        for r, e, l in zip(rows, load["per_layer"], load["summary"]["layers"])),
        "quantize CSV errors match the read-back reconstruction")
    b.finish(load["summary"], load["relative_error"], artifact)


WORKLOADS = {"roundtrip-4k": roundtrip_4k, "model-cli": model_cli}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exit so the running operation is killed and
    # reaped and the working directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "binq" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no binq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    b = Bench(args, json.loads(spec_path.read_text()))
    try:
        WORKLOADS[args.workload](b)
        b.check_ledger()
        metrics = b.metrics()
    except Abort:
        metrics = {}
    finally:
        shutil.rmtree(b.work, ignore_errors=True)
    print("ledger " + json.dumps(b.ledger, sort_keys=True))
    print(json.dumps({"correct": not b.failures, "attempted": b.checks,
                      "failed": len(b.failures), "metrics": metrics}))
    return 0 if not b.failures else 1


if __name__ == "__main__":
    sys.exit(main())
