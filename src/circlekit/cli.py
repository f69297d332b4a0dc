"""Command-line surface.

    circle-kit delta --k 3..12
    circle-kit verify --k 3 --x 100,1000,10000
    circle-kit series --k 3 --q-max 200
    circle-kit integral --k 3 --which 1 --B 400 --grid 128
    circle-kit diagnostics {hua|vk|expansion|minor|dirichlet} ...
    circle-kit sieve --n 1000000

Reports are JSON (default) or CSV; floats are serialized at 12
significant digits and every report embeds the command, flag set,
seed, and library version, so fixed flags give byte-identical output.

Exit codes: 0 ok, 2 usage, 3 verification mismatch, 4 budget exceeded,
5 numerical-integrity failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .arith import (
    ProblemInstance,
    divisor_sieve,
    exact_S_convolution,
    exact_S_direct,
    sum_d_squared,
)
from .budget import work_budget
from .circle import (
    dirichlet_approx,
    expansion_envelope_scan,
    hua_count,
    minor_arc_bound_profile,
    vk_envelope_scan,
)
from .errors import (
    BudgetError,
    DomainError,
    NumericalIntegrityError,
    VerificationMismatch,
)
from .exponents import derive_delta, reference_delta
from .integrals import j_density, j_values, j_volume_oracle
from .series import sigma_truncated

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_BUDGET = 4
EXIT_NUMERICAL = 5

# JSON report layout; tests validate emitted reports against this.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["meta"],
    "properties": {
        "meta": {
            "type": "object",
            "required": ["command", "version", "flags", "seed", "budget"],
            "properties": {
                "command": {"type": "string"},
                "version": {"type": "string"},
                "flags": {"type": "object"},
                "seed": {"type": "integer"},
                "budget": {"type": "integer"},
            },
        },
        "delta_table": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["k", "theta_star", "worst_exp", "delta", "reference", "match", "binding"],
                "properties": {
                    "k": {"type": "integer"},
                    "theta_star": {"type": "string"},
                    "worst_exp": {"type": "string"},
                    "delta": {"type": "string"},
                    "reference": {"type": "string"},
                    "match": {"type": "boolean"},
                    "binding": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
        "series": {
            "type": "object",
            "required": ["k", "Q", "sigma1", "sigma2"],
            "properties": {
                "k": {"type": "integer"},
                "Q": {"type": "integer"},
                "sigma1": {"type": "number"},
                "sigma2": {"type": "number"},
                "terms": {"type": "array"},
            },
        },
        "integrals": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["k", "which", "B", "value", "quadrature_error", "tail_bound"],
            },
        },
        "records": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["k", "x", "exact", "main", "residual", "normalized"],
                "properties": {
                    "k": {"type": "integer"},
                    "x": {"type": "integer"},
                    "exact": {"type": "integer"},
                    "main": {"type": "number"},
                    "residual": {"type": "number"},
                    "normalized": {"type": "number"},
                },
            },
        },
        "diagnostics": {"type": "object"},
        "sieve": {"type": "object"},
    },
}


@dataclass(frozen=True)
class MainTermEstimate:
    """Main-term constants assembled from truncated series and integrals."""

    k: int
    x: int
    sigma1: float
    sigma2: float
    j1: float
    j2: float
    Q_series: int
    B: float

    @property
    def C1(self) -> float:
        return self.sigma1 * self.j1

    @property
    def C2(self) -> float:
        return self.sigma1 * self.j2 + self.sigma2 * self.j1

    @property
    def main(self) -> float:
        scale = float(self.x) ** (1.5 + 1.0 / self.k)
        return self.C1 * scale * math.log(self.x) + self.C2 * scale


@dataclass(frozen=True)
class VerificationRecord:
    """Exact value against the assembled main term at one size x."""

    k: int
    x: int
    exact: int
    main: float

    @property
    def residual(self) -> float:
        return self.exact - self.main

    @property
    def normalized(self) -> float:
        return self.residual / float(self.x) ** (1.5 + 1.0 / self.k)


def _sig12(value: float) -> float:
    return float(f"{value:.12g}")


def _parse_k_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        start, stop = int(lo), int(hi)
        if stop < start:
            raise argparse.ArgumentTypeError(f"empty k range {text!r}")
        return list(range(start, stop + 1))
    return [int(text)]


def _single_k(args: argparse.Namespace) -> int:
    ks = args.k or [3]
    if len(ks) != 1:
        raise DomainError(f"{args.command} takes a single k")
    return ks[0]


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _meta(command: str, args: argparse.Namespace) -> dict:
    # the output destination is not part of the computation's identity
    flags = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "command", "out") and value is not None
    }
    return {
        "command": command,
        "version": __version__,
        "flags": flags,
        "seed": int(getattr(args, "seed", 0) or 0),
        "budget": work_budget(),
    }


def _emit(report: dict, args: argparse.Namespace, csv_rows=None, csv_header=None):
    """Write the report as JSON, or as CSV when requested and tabular."""
    fmt = getattr(args, "format", "json") or "json"
    out_path = getattr(args, "out", None)
    if fmt == "csv" and csv_rows is not None:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(csv_header)
        for row in csv_rows:
            writer.writerow(row)
        text = buffer.getvalue()
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _delta_rows(ks: list[int]) -> list[dict]:
    rows = []
    for k in ks:
        result = derive_delta(k)
        reference = reference_delta(k)
        rows.append(
            {
                "k": k,
                "theta_star": str(result.theta_star),
                "worst_exp": str(result.worst_exp),
                "delta": str(result.delta),
                "reference": str(reference),
                "match": result.delta == reference,
                "binding": list(result.binding_terms),
            }
        )
    return rows


def cmd_delta(args: argparse.Namespace) -> int:
    ks = args.k or list(range(3, 13))
    if min(ks) < 3:
        raise DomainError(f"k must be >= 3, got {min(ks)}")
    rows = _delta_rows(ks)
    widths = (3, 8, 14, 14, 14, 9)
    header = ("k", "theta*", "worst_exp", "delta", "reference", "status")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        status = "MATCH" if row["match"] else "MISMATCH"
        cells = (
            str(row["k"]),
            row["theta_star"],
            row["worst_exp"],
            row["delta"],
            row["reference"],
            status,
        )
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        if not row["match"]:
            print(f"    binding terms: {', '.join(row['binding'])}")
    report = {"meta": _meta("delta", args), "delta_table": rows}
    if args.out:
        _emit(
            report,
            args,
            csv_rows=[
                [r["k"], r["theta_star"], r["worst_exp"], r["delta"], r["reference"],
                 "MATCH" if r["match"] else "MISMATCH", ";".join(r["binding"])]
                for r in rows
            ],
            csv_header=["k", "theta_star", "worst_exp", "delta", "reference", "status", "binding"],
        )
    if not all(row["match"] for row in rows):
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    k = _single_k(args)
    xs = sorted(set(args.x or [100, 1000, 10000]))
    method = args.method
    records = []
    mismatch = False
    partial = sigma_truncated(args.q_max, k)
    jv1, jv2 = j_values(k, args.B)
    integrals = [
        {"k": k, "which": jv.which, "B": jv.B, "value": _sig12(jv.value),
         "quadrature_error": _sig12(jv.quadrature_error),
         "tail_bound": _sig12(jv.tail_bound)}
        for jv in (jv1, jv2)
    ]
    table = divisor_sieve(ProblemInstance(x=max(xs), k=k).max_value)
    for x in xs:
        inst = ProblemInstance(x=x, k=k)
        values = {}
        if method in ("direct", "both"):
            values["direct"] = exact_S_direct(inst, table)
        if method in ("conv", "both"):
            values["convolution"] = exact_S_convolution(inst, table)
        if method == "both" and values["direct"] != values["convolution"]:
            mismatch = True
            print(
                f"MISMATCH at x={x}, k={k}: direct={values['direct']} "
                f"convolution={values['convolution']}",
                file=sys.stderr,
            )
        exact = values.get("direct", values.get("convolution"))
        estimate = MainTermEstimate(
            k=k, x=x, sigma1=partial.sigma1, sigma2=partial.sigma2,
            j1=jv1.value, j2=jv2.value, Q_series=args.q_max, B=args.B,
        )
        record = VerificationRecord(k=k, x=x, exact=exact, main=estimate.main)
        records.append(
            {"k": k, "x": x, "exact": exact, "main": _sig12(record.main),
             "residual": _sig12(record.residual),
             "normalized": _sig12(record.normalized),
             "methods": {name: int(v) for name, v in values.items()},
             "C1": _sig12(estimate.C1), "C2": _sig12(estimate.C2)}
        )
    normalized = [abs(r["normalized"]) for r in records]
    decreasing = all(b < a for a, b in zip(normalized, normalized[1:]))
    diagnostics = {
        "normalized_sequence": normalized,
        "residual_trend": "decreasing" if decreasing else "FAIL-SOFT",
    }
    report = {
        "meta": _meta("verify", args),
        "delta_table": _delta_rows([k]),
        "series": {"k": k, "Q": partial.Q, "sigma1": _sig12(partial.sigma1),
                   "sigma2": _sig12(partial.sigma2)},
        "integrals": integrals,
        "records": records,
        "diagnostics": diagnostics,
    }
    _emit(
        report,
        args,
        csv_rows=[
            [r["k"], r["x"], r["exact"], r["main"], r["residual"], r["normalized"]]
            for r in records
        ],
        csv_header=["k", "x", "exact", "main", "residual", "normalized"],
    )
    return EXIT_MISMATCH if mismatch else EXIT_OK


def cmd_series(args: argparse.Namespace) -> int:
    k = _single_k(args)
    partial = sigma_truncated(args.q_max, k, method=args.method)
    running1 = running2 = 0.0
    rows = []
    for q, value in partial.terms:
        running1 += value
        running2 += (-2.0 * math.log(q) + 2.0 * partial.gamma) * value
        rows.append([q, _sig12(value), _sig12(running1), _sig12(running2)])
    report = {
        "meta": _meta("series", args),
        "series": {
            "k": k, "Q": partial.Q, "sigma1": _sig12(partial.sigma1),
            "sigma2": _sig12(partial.sigma2),
            # the leading constant is computed, not assumed; flag a collapse
            "sigma1_near_zero": abs(partial.sigma1) < 1e-2,
            "terms": [[q, _sig12(v)] for q, v in partial.terms],
        },
    }
    _emit(report, args, csv_rows=rows, csv_header=["q", "A_k", "sigma1", "sigma2"])
    return EXIT_OK


def cmd_integral(args: argparse.Namespace) -> int:
    k = _single_k(args)
    whiches = (args.which,) if args.which else (1, 2)
    entries = []
    scan_rows = []
    for which, value in zip(whiches, j_values(k, args.B, whiches)):
        entry = {
            "k": k, "which": which, "B": value.B, "value": _sig12(value.value),
            "quadrature_error": _sig12(value.quadrature_error),
            "tail_bound": _sig12(value.tail_bound),
            "envelope_constant": _sig12(value.envelope_constant),
        }
        if args.grid:
            oracle = j_volume_oracle(k, which, args.grid)
            entry["oracle"] = _sig12(oracle)
            entry["oracle_gap"] = _sig12(abs(value.value - oracle))
        entries.append(entry)
    if args.scan:
        exponent = 2.5 + 1.0 / k
        for i in range(args.scan):
            beta = args.B * i / max(1, args.scan - 1)
            density = j_density(beta, k, whiches[0])
            envelope = abs(density) * (1.0 + beta) ** exponent
            if whiches[0] == 2:
                envelope /= math.log(2.0 + beta)
            scan_rows.append(
                [_sig12(beta), _sig12(density.real), _sig12(density.imag), _sig12(envelope)]
            )
    report = {"meta": _meta("integral", args), "integrals": entries}
    if scan_rows:
        report["diagnostics"] = {
            "probe": "density-scan",
            "columns": ["beta", "re_density", "im_density", "envelope_ratio"],
            "rows": scan_rows,
        }
        _emit(report, args, csv_rows=scan_rows,
              csv_header=["beta", "re_density", "im_density", "envelope_ratio"])
    else:
        _emit(
            report, args,
            csv_rows=[[e["k"], e["which"], e["B"], e["value"],
                       e["quadrature_error"], e["tail_bound"]] for e in entries],
            csv_header=["k", "which", "B", "value", "quadrature_error", "tail_bound"],
        )
    return EXIT_OK


def cmd_diagnostics(args: argparse.Namespace) -> int:
    k = _single_k(args)
    if args.probe == "hua":
        count = hua_count(args.y, k, args.j)
        block = {"probe": "hua", "k": k, "j": args.j, "Y": args.y, "count": count}
        rows = [[args.y, k, args.j, count]]
        header = ["Y", "k", "j", "count"]
    elif args.probe == "vk":
        scan = vk_envelope_scan(args.x, k, args.q_max)
        block = {"probe": "vk", "params": scan.params, "constant": _sig12(scan.constant)}
        rows = [[r["a"], r["q"], _sig12(r["beta"]), _sig12(r["observed"]),
                 _sig12(r["bound"]), _sig12(r["ratio"])] for r in scan.rows]
        header = ["a", "q", "beta", "observed", "bound", "ratio"]
    elif args.probe == "expansion":
        table = divisor_sieve(4 * args.x)
        scan = expansion_envelope_scan(args.x, k, table)
        block = {"probe": "expansion", "params": scan.params,
                 "constant": _sig12(scan.constant)}
        rows = [[r["a"], r["q"], _sig12(r["beta"]), _sig12(r["observed"]),
                 _sig12(r["bound"]), _sig12(r["ratio"])] for r in scan.rows]
        header = ["a", "q", "beta", "observed", "bound", "ratio"]
    elif args.probe == "minor":
        scan = minor_arc_bound_profile(args.x, k, samples=args.samples, seed=args.seed)
        block = {"probe": "minor", "params": scan.params,
                 "constant": _sig12(scan.constant)}
        rows = [[_sig12(r["alpha"]), r["a"], r["q"], _sig12(r["lambda"]),
                 _sig12(r["observed"]), _sig12(r["bound"]), _sig12(r["ratio"])]
                for r in scan.rows]
        header = ["alpha", "a", "q", "lambda", "observed", "bound", "ratio"]
    elif args.probe == "dirichlet":
        import numpy as np

        rng = np.random.default_rng(args.seed)
        rows = []
        failures = 0
        for _ in range(args.samples):
            alpha = float(rng.random())
            approx = dirichlet_approx(alpha, args.tau)
            holds = (
                approx.q <= args.tau
                and abs(Fraction(alpha) - Fraction(approx.a, approx.q))
                * approx.q * Fraction(float(args.tau)) <= 1
                and math.gcd(approx.a, approx.q) == 1
            )
            failures += 0 if holds else 1
            rows.append([_sig12(alpha), approx.a, approx.q, _sig12(approx.lam),
                         _sig12(abs(approx.lam)), _sig12(1.0 / (approx.q * args.tau)),
                         int(holds)])
        block = {"probe": "dirichlet", "samples": args.samples, "tau": args.tau,
                 "failures": failures}
        header = ["alpha", "a", "q", "lambda", "observed", "bound", "ratio"]
    else:  # pragma: no cover - argparse restricts choices
        raise DomainError(f"unknown probe {args.probe!r}")
    report = {"meta": _meta("diagnostics", args), "diagnostics": block}
    _emit(report, args, csv_rows=rows, csv_header=header)
    return EXIT_OK


def cmd_sieve(args: argparse.Namespace) -> int:
    table = divisor_sieve(args.n)
    total_sq = sum_d_squared(args.n, table)
    ratio = total_sq / (args.n * math.log(args.n) ** 3) if args.n > 1 else float(total_sq)
    block = {
        "N": args.n,
        "sum_d": int(table.values.sum(dtype=int)),
        "sum_d_squared": int(total_sq),
        "moment_ratio": _sig12(ratio),
    }
    report = {"meta": _meta("sieve", args), "sieve": block}
    _emit(report, args, csv_rows=[[block["N"], block["sum_d"],
                                   block["sum_d_squared"], block["moment_ratio"]]],
          csv_header=["N", "sum_d", "sum_d_squared", "moment_ratio"])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circle-kit",
        description="Exact and numerical checks for the mixed-power divisor sum.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--k", type=_parse_k_range, default=None,
                       help="power k, single value or range like 3..12")
        p.add_argument("--out", type=str, default=None, help="write report to file")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("delta", help="re-derive the error-saving exponent table")
    common(p)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("verify", help="exact sums against the assembled main term")
    common(p)
    p.add_argument("--x", type=_parse_int_list, default=None,
                   help="comma-separated x values")
    p.add_argument("--q-max", dest="q_max", type=int, default=200,
                   help="series truncation bound")
    p.add_argument("--B", type=float, default=400.0, help="integral truncation")
    p.add_argument("--method", choices=("direct", "conv", "both"), default="both")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("series", help="truncated singular series")
    common(p)
    p.add_argument("--q-max", dest="q_max", type=int, default=200)
    p.add_argument("--method", choices=("fast", "direct"), default="fast")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("integral", help="truncated singular integral")
    common(p)
    p.add_argument("--which", type=int, choices=(1, 2), default=None)
    p.add_argument("--B", type=float, default=400.0)
    p.add_argument("--grid", type=int, default=None,
                   help="also run the volume oracle at this grid")
    p.add_argument("--scan", type=int, default=None,
                   help="emit a density profile with this many points")
    p.set_defaults(func=cmd_integral)

    p = sub.add_parser("diagnostics", help="bound-residual and moment-count probes")
    p.add_argument("probe", choices=("hua", "vk", "expansion", "minor", "dirichlet"))
    common(p)
    p.add_argument("--x", type=int, default=10000)
    p.add_argument("--y", type=int, default=100, help="variable bound for hua")
    p.add_argument("--j", type=int, default=2, help="moment index for hua")
    p.add_argument("--q-max", dest="q_max", type=int, default=50)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--tau", type=float, default=1000.0)
    p.set_defaults(func=cmd_diagnostics)

    p = sub.add_parser("sieve", help="divisor table summary statistics")
    common(p, seed=False)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_sieve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (VerificationMismatch,) as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except NumericalIntegrityError as exc:
        print(f"numerical integrity error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
