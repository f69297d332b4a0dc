"""Correctness gate, run after the timed passes.

`problems(op, result, reference)` lists everything wrong with one
operation's outcome; an empty list means the operation passed.  An
operation fails on an exception, a nonzero exit, a report that does not
validate against circlekit.cli.REPORT_SCHEMA, or a value that disagrees
with an independent route:

* verify: every exact S_k(x) equals `exact_S_direct`, or for the top
  size the committed transform="ntt" value;
* dual-oracle: direct, auto and ntt agree;
* integral: the volume-oracle gaps stay within 1e-3 (plain) and 5e-3
  (log-weighted);
* series: the tail between Q/2 and Q, summed from the report's own
  terms, stays within 10 Q^(-1/2-1/k);
* diagnostics: dirichlet reports no failures, hua matches its committed
  count, vk's envelope constant stays <= 10, minor collects every
  requested sample.
"""

from __future__ import annotations

import json

import jsonschema

from circlekit import ProblemInstance, divisor_sieve, exact_S_direct
from circlekit.cli import REPORT_SCHEMA, build_parser

from references import EXACT_S, HUA_COUNTS

ORACLE_GAP_TOL = {1: 1e-3, 2: 5e-3}
SERIES_TAIL_FACTOR = 10.0
VK_ENVELOPE_MAX = 10.0


class ExactReference:
    """S_k(x) from the committed table, else by direct enumeration (cached)."""

    def __init__(self):
        self._values: dict[tuple[int, int], int] = dict(EXACT_S)

    def __call__(self, x: int, k: int) -> int:
        if (x, k) not in self._values:
            inst = ProblemInstance(x=x, k=k)
            self._values[(x, k)] = exact_S_direct(inst, divisor_sieve(inst.max_value))
        return self._values[(x, k)]


def _verify(args, report: dict, reference: ExactReference) -> list[str]:
    out = []
    for row in report["delta_table"]:
        if not row["match"]:
            out.append(f"delta mismatch at k={row['k']}")
    xs = sorted(args.x)
    if [r["x"] for r in report["records"]] != xs:
        out.append(f"records cover {[r['x'] for r in report['records']]}, asked {xs}")
    for record in report["records"]:
        want = reference(record["x"], record["k"])
        if record["exact"] != want:
            out.append(f"S_{record['k']}({record['x']}) = {record['exact']}, reference {want}")
    return out


def _integral(args, report: dict, reference: ExactReference) -> list[str]:
    out = []
    for entry in report["integrals"]:
        gap, tol = entry.get("oracle_gap"), ORACLE_GAP_TOL[entry["which"]]
        if gap is None or not gap < tol:
            out.append(f"which={entry['which']} oracle gap {gap} not < {tol}")
    return out


def _series(args, report: dict, reference: ExactReference) -> list[str]:
    block = report["series"]
    Q, k = block["Q"], block["k"]
    tail = abs(sum(value for q, value in block["terms"] if Q // 2 < q <= Q))
    bound = SERIES_TAIL_FACTOR * Q ** (-0.5 - 1.0 / k)
    return [] if tail <= bound else [f"series tail {tail:.3e} > {bound:.3e}"]


def _diagnostics(args, report: dict, reference: ExactReference) -> list[str]:
    block = report["diagnostics"]
    if args.probe == "dirichlet":
        if block["failures"] != 0 or block["samples"] != args.samples:
            return [f"dirichlet: {block['failures']} failures in {block['samples']}"]
    elif args.probe == "hua":
        want = HUA_COUNTS.get((args.y, args.k[0], args.j))
        if want is None:
            return [f"no committed hua count for Y={args.y}, k={args.k[0]}, j={args.j}"]
        if block["count"] != want:
            return [f"hua count {block['count']}, reference {want}"]
    elif args.probe == "vk":
        if not block["constant"] <= VK_ENVELOPE_MAX:
            return [f"vk envelope constant {block['constant']} > {VK_ENVELOPE_MAX}"]
    elif args.probe == "minor":
        if block["params"]["samples"] != args.samples:
            return [f"minor collected {block['params']['samples']} of {args.samples}"]
    return []


_COMMANDS = {
    "verify": _verify,
    "integral": _integral,
    "series": _series,
    "diagnostics": _diagnostics,
}


def problems(op: dict, result: dict, reference: ExactReference) -> list[str]:
    """Everything wrong with one operation's result; empty when it passed."""
    if result["error"]:
        return [result["error"].strip().splitlines()[-1]]
    if result["code"] != 0:
        return [f"exit code {result['code']}"]
    try:
        report = json.loads(result["report"])
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    if op["kind"] == "dual":
        if not report["direct"] == report["auto"] == report["ntt"]:
            return [f"k={op['k']} x={op['x']}: evaluators disagree {report}"]
        return []
    try:
        jsonschema.validate(report, REPORT_SCHEMA)
    except jsonschema.ValidationError as exc:
        return [f"report fails REPORT_SCHEMA: {exc.message}"]
    args = build_parser().parse_args(op["argv"])
    try:
        return _COMMANDS[args.command](args, report, reference)
    except (KeyError, TypeError) as exc:
        return [f"report lacks an expected field: {exc!r}"]


def gate(ops: list[dict], passes: list[dict], reference: ExactReference) -> tuple[int, list[str]]:
    """(attempted, failure messages) over every pass; each op of each pass is one attempt.

    Besides `problems`, an op fails when its report is not byte-identical
    to the first pass's report of the same op.
    """
    attempted, failures, checked = 0, [], {}
    first = passes[0]["results"]
    for n, one_pass in enumerate(passes):
        for i, (op, result) in enumerate(zip(ops, one_pass["results"])):
            attempted += 1
            key = (i, result["code"], result["report"], result["error"])
            if key not in checked:
                checked[key] = problems(op, result, reference)
            found = list(checked[key])
            if result["report"] != first[i]["report"]:
                found.append("report differs from the first pass's")
            if found:
                failures.append(f"pass {n} op {i}: " + "; ".join(found))
    return attempted, failures
