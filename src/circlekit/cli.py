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

Exit codes: 0 ok, 2 usage, 3 verification mismatch, 4 budget exceeded
or out of memory, 5 numerical-integrity failure, 141 stdout closed by
its reader before the report was written.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from pathlib import Path

from . import __version__
from .arith import (
    ProblemInstance,
    divisor_sieve,
    exact_S_convolution,
    exact_S_direct,
    moment_ratio,
    sum_d_squared,
)
from .budget import check_budget, work_budget
from .circle import (
    dirichlet_contract_scan,
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
from .integrals import (
    check_oracle_grid,
    check_sweep,
    density_profile,
    j_values,
    j_volume,
    j_volume_oracle,
)
from .series import MainTerm, check_series, sigma_truncated

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_BUDGET = 4
EXIT_NUMERICAL = 5
EXIT_PIPE = 141  # 128 + SIGPIPE

# The exit code and stderr prefix of each failure, matched in this order
FAILURES = {
    BudgetError: (EXIT_BUDGET, "budget error: "),
    MemoryError: (EXIT_BUDGET, "budget error: out of memory: "),
    VerificationMismatch: (EXIT_MISMATCH, "verification mismatch: "),
    NumericalIntegrityError: (EXIT_NUMERICAL, "numerical integrity error: "),
    DomainError: (EXIT_USAGE, "usage error: "),
}

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
                "required": [
                    "k", "theta_star", "worst_exp", "delta", "reference", "match", "binding"
                ],
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
                # the Fourier sweep's entry (integral) or the reduced volume's (verify)
                "anyOf": [
                    {"required": ["k", "which", "B", "value", "quadrature_error", "tail_bound"]},
                    {"required": ["k", "which", "value", "error"]},
                ],
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


def _sig12(value: float) -> float:
    return float(f"{value:.12g}")


def _cell(value):
    return _sig12(value) if isinstance(value, float) else value


def _entry(value) -> dict:
    return {key: _cell(field) for key, field in dataclasses.asdict(value).items()}


def _parse_k_range(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..", 1)
        start, stop = int(lo), int(hi)
        if stop < start:
            raise argparse.ArgumentTypeError(f"empty k range {text!r}")
    else:
        start = stop = int(text)
    return range(start, stop + 1)


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
        key: list(value) if isinstance(value, range) else value
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


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot be a new or existing file, before any work."""
    target = Path(path)
    if target.is_dir():
        raise DomainError(f"cannot write --out {path}: is a directory")
    if not target.parent.is_dir():
        raise DomainError(f"cannot write --out {path}: no directory {target.parent}")


def _emit(report: dict, args: argparse.Namespace, csv_rows=None, csv_header=None):
    """Write the report as JSON, or as CSV when requested and tabular.

    csv_rows may be a generator: JSON output never iterates it, so rows
    are built only for CSV.
    """
    fmt = getattr(args, "format", "json") or "json"
    out_path = getattr(args, "out", None)
    if fmt == "csv" and csv_rows is not None:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buffer.getvalue()
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        try:
            handle = open(out_path, "w")
        except OSError as exc:
            raise DomainError(f"cannot write --out {out_path}: {exc.strerror}") from exc
        with handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _delta_rows(ks: range | list[int]) -> list[dict]:
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
    ks = args.k or range(3, 13)
    if ks[0] < 3:
        raise DomainError(f"k must be >= 3, got {ks[0]}")
    # balance evaluates the 8 error terms at up to 29 candidate cutoffs per k
    check_budget(len(ks) * 8 * 29, "delta table")
    rows = _delta_rows(ks)
    cells = [[str(r["k"]), r["theta_star"], r["worst_exp"], r["delta"], r["reference"],
              "MATCH" if r["match"] else "MISMATCH"] for r in rows]
    widths = (3, 8, 14, 14, 14, 9)
    header = ("k", "theta*", "worst_exp", "delta", "reference", "status")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row, line in zip(rows, cells):
        print("  ".join(c.ljust(w) for c, w in zip(line, widths)))
        if not row["match"]:
            print(f"    binding terms: {', '.join(row['binding'])}")
    report = {"meta": _meta("delta", args), "delta_table": rows}
    if args.out:
        _emit(
            report,
            args,
            csv_rows=[line + [";".join(r["binding"])] for r, line in zip(rows, cells)],
            csv_header=["k", "theta_star", "worst_exp", "delta", "reference", "status", "binding"],
        )
    if not all(row["match"] for row in rows):
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    k = _single_k(args)
    if args.x == []:
        raise DomainError("--x lists no values")
    xs = sorted(set(args.x or [100, 1000, 10000]))
    # every size refusal comes before the constants: --q-max and the direct
    # route's tuples before the sieve, and x through the sieve and the exact values
    instances = [ProblemInstance(x=x, k=k) for x in xs]
    check_series(args.q_max, k)
    if args.method != "conv":
        check_budget(instances[-1].tuple_count, "exact_S_direct")
    table = divisor_sieve(instances[-1].max_value)
    records = []
    for inst in instances:
        values = {}
        if args.method in ("direct", "both"):
            values["direct"] = exact_S_direct(inst, table)
        if args.method in ("conv", "both"):
            values["convolution"] = exact_S_convolution(inst, table)
        if args.method == "both" and values["direct"] != values["convolution"]:
            raise VerificationMismatch(
                f"k={k}, x={inst.x}: direct={values['direct']} "
                f"convolution={values['convolution']}"
            )
        exact = values.get("direct", values.get("convolution"))
        records.append({"k": k, "x": inst.x, "exact": exact,
                        "methods": {name: int(v) for name, v in values.items()}})
    partial = sigma_truncated(args.q_max, k)
    jv1, jv2 = j_volume(k, 1), j_volume(k, 2)
    main_term = MainTerm(k, partial.sigma1, partial.sigma2, jv1.value, jv2.value)
    for r in records:
        main = main_term.value(r["x"])
        r.update(main=_sig12(main), residual=_sig12(r["exact"] - main),
                 normalized=_sig12((r["exact"] - main) / main_term.scale(r["x"])),
                 C1=_sig12(main_term.C1), C2=_sig12(main_term.C2))
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
        "integrals": [_entry(jv1), _entry(jv2)],
        "records": records,
        "diagnostics": diagnostics,
    }
    columns = ["k", "x", "exact", "main", "residual", "normalized"]
    _emit(
        report,
        args,
        csv_rows=([r[c] for c in columns] for r in records),
        csv_header=columns,
    )
    return EXIT_OK


def cmd_series(args: argparse.Namespace) -> int:
    k = _single_k(args)
    partial = sigma_truncated(args.q_max, k)
    rows = (
        [q, _sig12(value), _sig12(sigma1), _sig12(sigma2)]
        for (q, value), sigma1, sigma2 in zip(partial.terms, partial.running1, partial.running2)
    )
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
    # every size is refused before any work: the sweep's, the oracle grid's,
    # then the scan's own charge
    check_sweep(k, args.B)
    if args.grid is not None:
        check_oracle_grid(args.grid)
    profile = None if args.scan is None else density_profile(k, whiches[0], args.B, args.scan)
    entries = []
    for value in j_values(k, args.B, whiches):
        entry = {**_entry(value), "B": value.B}  # B echoes --B unrounded
        if args.grid is not None:
            oracle = j_volume_oracle(k, value.which, args.grid)
            entry["oracle"] = _sig12(oracle)
            entry["oracle_gap"] = _sig12(abs(value.value - oracle))
        entries.append(entry)
    report = {"meta": _meta("integral", args), "integrals": entries}
    if profile is not None:
        scan_rows = [
            [_sig12(beta), _sig12(density.real), _sig12(density.imag), _sig12(ratio)]
            for beta, density, ratio in profile
        ]
        columns = ["beta", "re_density", "im_density", "envelope_ratio"]
        report["diagnostics"] = {"probe": "density-scan", "columns": columns,
                                 "rows": scan_rows}
        _emit(report, args, csv_rows=scan_rows, csv_header=columns)
    else:
        columns = ["k", "which", "B", "value", "quadrature_error", "tail_bound"]
        _emit(report, args, csv_rows=([e[c] for c in columns] for e in entries),
              csv_header=columns)
    return EXIT_OK


# CSV columns of each diagnostics probe, named by the keys of its rows
_PROBE_COLUMNS = {
    "hua": ("Y", "k", "j", "count"),
    "vk": ("a", "q", "beta", "observed", "bound", "ratio"),
    "expansion": ("a", "q", "beta", "observed", "bound", "ratio"),
    "minor": ("alpha", "a", "q", "lambda", "observed", "bound", "ratio"),
    "dirichlet": ("alpha", "a", "q", "lambda", "observed", "bound", "ratio"),
}


def cmd_diagnostics(args: argparse.Namespace) -> int:
    k = _single_k(args)
    if args.probe == "hua":
        rows = [{"Y": args.y, "k": k, "j": args.j, "count": hua_count(args.y, k, args.j)}]
        block = {"probe": "hua", **rows[0]}
    elif args.probe == "dirichlet":
        rows, failures = dirichlet_contract_scan(args.samples, args.tau, args.seed)
        block = {"probe": "dirichlet", "samples": args.samples, "tau": args.tau,
                 "failures": failures}
    else:
        if args.probe == "vk":
            scan = vk_envelope_scan(args.x, k, args.q_max)
        elif args.probe == "expansion":
            scan = expansion_envelope_scan(args.x, k)
        else:
            scan = minor_arc_bound_profile(args.x, k, samples=args.samples, seed=args.seed)
        rows = scan.rows
        block = {"probe": args.probe, "params": scan.params,
                 "constant": _sig12(scan.constant)}
    columns = _PROBE_COLUMNS[args.probe]
    report = {"meta": _meta("diagnostics", args), "diagnostics": block}
    _emit(
        report, args,
        csv_rows=([_cell(row[column]) for column in columns] for row in rows),
        csv_header=columns,
    )
    return EXIT_OK


def cmd_sieve(args: argparse.Namespace) -> int:
    table = divisor_sieve(args.n)
    total_sq = sum_d_squared(args.n, table)
    block = {
        "N": args.n,
        "sum_d": int(table.sum(dtype=int)),
        "sum_d_squared": int(total_sq),
        "moment_ratio": _sig12(moment_ratio(args.n, total_sq)),
    }
    report = {"meta": _meta("sieve", args), "sieve": block}
    _emit(report, args, csv_rows=[list(block.values())], csv_header=list(block))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circle-kit",
        description="Exact and numerical checks for the mixed-power divisor sum.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--out", type=str, default=None, help="write report to file")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def common(p):
        p.add_argument("--k", type=_parse_k_range, default=None,
                       help="power k, single value or range like 3..12")
        output(p)

    p = sub.add_parser("delta", help="re-derive the error-saving exponent table")
    common(p)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("verify", help="exact sums against the assembled main term")
    common(p)
    p.add_argument("--x", type=_parse_int_list, default=None,
                   help="comma-separated x values")
    p.add_argument("--q-max", dest="q_max", type=int, default=200,
                   help="series truncation bound")
    p.add_argument("--method", choices=("direct", "conv", "both"), default="both")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("series", help="truncated singular series")
    common(p)
    p.add_argument("--q-max", dest="q_max", type=int, default=200)
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
    p.add_argument("--seed", type=int, default=0, help="sample seed for minor and dirichlet")
    p.set_defaults(func=cmd_diagnostics)

    p = sub.add_parser("sieve", help="divisor table summary statistics")
    output(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_sieve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except tuple(FAILURES) as exc:
        code, prefix = next(v for kind, v in FAILURES.items() if isinstance(exc, kind))
        print(f"{prefix}{exc}", file=sys.stderr)
        return code
    except BrokenPipeError:
        # stdout's reader is gone: point it at devnull so the final flush succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
