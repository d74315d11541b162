"""Command-line interface.

Subcommands: analyze (per-layer stats CSV), quantize (manifest -> .bvq
artifact + error CSV), report (storage table for an artifact), sweep
(objective vs. saliency-threshold CSV), prune-scores (retained-token JSON).
Exit codes: 0 success, 2 file/format errors (FormatError, IoError: an input that
does not parse, an output path that cannot be opened), 3 numeric/domain errors
(DomainError, ValidationError, OptimizationError, ValueError).
"""

import argparse
import contextlib
import csv
import json
import sys
from pathlib import Path

from . import bit_packer, pipeline, tensor_store, token_pruner, weight_stats
from .config import QuantConfig
from .errors import DomainError, FormatError, IoError, OptimizationError, ValidationError
from .saliency_optimizer import sweep_thresholds


def _output(path, mode="w"):
    """Context manager for the file at path, or for stdout (left open) without one."""
    try:
        return open(path, mode, newline="") if path else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _write_rows(path, header, rows):
    with _output(path) as out:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_analyze(args) -> int:
    manifest = tensor_store.read_manifest(args.manifest)
    rows = []
    for entry in manifest.entries:
        matrix = entry.load()
        fit = weight_stats.fit_gaussian(matrix)
        bins = weight_stats.default_bin_count(matrix.m, matrix.n)
        hist = weight_stats.histogram(matrix, bins)
        kl = weight_stats.kl_divergence(hist, fit)
        rows.append([entry.name, f"{fit.mu:.8g}", f"{fit.sigma:.8g}",
                     f"{kl:.8g}", f"{weight_stats.outlier_fraction(matrix, fit):.8g}"])
        del matrix  # freed before the next layer is read: one layer at a time
    _write_rows(args.output, ["name", "mu", "sigma", "kl_nats", "outlier_frac_3sigma"],
                rows)
    return 0


def _config_from_args(args) -> QuantConfig:
    return QuantConfig(n_uns=args.n_uns, n_bits=args.n_bits,
                       p_sal_max=args.p_sal_max, alpha=args.alpha,
                       iters=args.iters,
                       optimize_saliency=not args.no_optimize)


def cmd_quantize(args) -> int:
    csv_path = args.csv or str(Path(args.output).with_suffix(".csv"))
    if Path(csv_path).resolve() == Path(args.output).resolve():  # the artifact would replace it
        raise IoError(f"error CSV path {csv_path} is the artifact's; give another --csv")
    manifest = tensor_store.read_manifest(args.manifest)
    config = _config_from_args(args)
    with _output(csv_path, "a") as out:  # opened first; emptied once the artifact is written
        report, rows = pipeline.quantize_model(manifest, args.output, config)
        if Path(csv_path).is_file():  # not /dev/null, not a pipe: they cannot be truncated
            out.truncate(0)
        csv.writer(out).writerows([pipeline.ERROR_CSV_COLUMNS] + [
            [r["layer"], r["m"], r["n"], f"{r['p_sal_used']:.8g}", f"{r['J']:.8g}",
             f"{r['relative_error']:.8g}", f"{r['bits_per_weight']:.8g}"] for r in rows])
    print(f"wrote {len(rows)} layers to {args.output} "
          f"({report.bits_per_weight:.4f} bits/weight realized, "
          f"L_model {report.l_model:.4f}); error CSV at {csv_path}")
    return 0


_REPORT_COLUMNS = ["layer", "m", "n", "p_sal_used", "salient_frac", "L_B",
                   "L_a", "L_model", "L_i_formula", "L_i_realized",
                   "bits_per_weight", "over_budget"]


def cmd_report(args) -> int:
    layers = tensor_store.read_layer_headers(args.artifact)
    reports = [bit_packer.storage_report(layer) for layer in layers]
    total = bit_packer.aggregate_reports(reports)
    cells = lambda r: [f"{r.salient_fraction:.6g}", *(f"{x:.6f}" for x in (
        r.l_b, r.l_a, r.l_model, r.l_i, r.l_i_realized, r.bits_per_weight)),
        "yes" if r.over_budget else "no"]
    rows = [[layer.name, layer.m, layer.n, f"{layer.p_sal_used:.6g}", *cells(rep)]
            for layer, rep in zip(layers, reports)] + [["TOTAL", "", "", "", *cells(total)]]
    if args.csv:
        _write_rows(args.output, _REPORT_COLUMNS, rows)
    else:
        widths = [max(len(str(r[i])) for r in rows + [_REPORT_COLUMNS])
                  for i in range(len(_REPORT_COLUMNS))]
        with _output(args.output) as out:
            for r in [_REPORT_COLUMNS] + rows:
                out.write("  ".join(str(c).ljust(w) for c, w in zip(r, widths)) + "\n")
            # The closed-form index estimate and the realized prefix-code
            # average disagree by construction; surface both.
            out.write(f"note: L_i_formula {total.l_i:.4f} vs realized "
                      f"{total.l_i_realized:.4f} bits/index\n")
    return 0


def cmd_sweep(args) -> int:
    manifest = tensor_store.read_manifest(args.manifest)
    if not args.thresholds:
        raise DomainError("no thresholds given")
    rows = []
    for entry in manifest.entries:
        matrix = entry.load()
        fit = weight_stats.fit_gaussian(matrix)
        for ev in sweep_thresholds(matrix, fit, args.thresholds, QuantConfig()):
            rows.append([entry.name, f"{ev.p_sal:.8g}", f"{ev.j:.8g}"])
        del matrix  # freed before the next layer is read: one layer at a time
    _write_rows(args.output, ["layer", "threshold", "J"], rows)
    return 0


def cmd_prune_scores(args) -> int:
    tensors = tensor_store.read_attention(args.attention)
    decisions = token_pruner.prune_decisions(tensors, args.ratio, args.start_layer)
    doc = [{"layer": d.layer_index, "lambda": d.lambda_img,
            "retained": list(d.retained)} for d in decisions]
    with _output(args.output) as out:
        json.dump(doc, out, indent=2)
        out.write("\n")
    return 0


def float_list(text: str) -> list[float]:
    """Comma-separated floats; one that does not parse is a usage error (exit 2)."""
    return [float(t) for t in text.split(",") if t]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binq",
        description="Hybrid 1-2 bit weight quantization with quantile "
                    "partitioning and bit-packed artifacts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="per-layer weight statistics CSV")
    p.add_argument("manifest")
    p.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("quantize", help="quantize a manifest into a .bvq artifact")
    p.add_argument("manifest")
    p.add_argument("-o", "--output", required=True, help="artifact path (.bvq)")
    p.add_argument("--csv", default=None, help="error CSV path (default: artifact stem)")
    p.add_argument("--n-uns", type=int, default=5, dest="n_uns")
    p.add_argument("--n-bits", type=int, default=2, dest="n_bits")
    p.add_argument("--p-sal-max", type=float, default=None, dest="p_sal_max",
                   help="override the per-role salient share cap")
    p.add_argument("--alpha", type=float, default=1.4)
    p.add_argument("--iters", type=int, default=15)
    p.add_argument("--no-optimize", action="store_true",
                   help="pin the salient share to the cap instead of searching")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("report", help="storage report for an artifact")
    p.add_argument("artifact")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sweep", help="objective vs. saliency threshold CSV")
    p.add_argument("manifest")
    p.add_argument("--thresholds", required=True, type=float_list,
                   help="comma-separated saliency thresholds, e.g. 0.01,0.05,0.10")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("prune-scores", help="retained-token lists from attention scores")
    p.add_argument("attention")
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--start-layer", type=int, default=0, dest="start_layer")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_prune_scores)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, IoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ValidationError, OptimizationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
