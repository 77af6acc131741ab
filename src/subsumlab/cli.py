"""Command-line front door.

Verbs: group, sumset, subsums, partition, maincert, verify, example, audit,
hunt, davenport.  Every command emits either a human-readable text report or
a JSON envelope {schema, command, group, inputs, result, verified,
violations, timing_ms}; the two carry identical numeric content.

Exit codes: 0 success / property holds; 1 verified violation or negative
verdict; 2 usage or parse error; 3 internal error (a step the theory
guarantees failed, or any other unexpected exception -- a dump is written
for reproduction).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Optional

# a verb imports setpartitions or search in its handler, so group, sumset,
# subsums and davenport load neither (nor verifiers, nor dataclasses)
from .groups import (
    GroupError,
    GroupSpec,
    GroupSubset,
    InputError,
    iterated_sumset,
    parse_element,
    parse_group,
    stabilizer,
    subgroup_generated,
    sumset,
)
from .sequences import (
    InternalError,
    davenport_bruteforce,
    parse_sequence,
    subsum_profile,
)

SCHEMA = "subsum-lab/1"


# ---------------------------------------------------------------------------
# output plumbing


def _format_subset(subset: GroupSubset) -> list[str]:
    lits = subset.group.literals()
    return [lits[i] for i in subset.indices()]


def _render_text(value: Any, key: str, indent: int = 0) -> list[str]:
    pad = "  " * indent
    label = f"{pad}{key}: "
    if isinstance(value, dict):
        lines = [f"{pad}{key}:"]
        for k, v in value.items():
            lines.extend(_render_text(v, k, indent + 1))
        return lines
    if isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            return [label + "{" + ", ".join(str(v) for v in value) + "}"]
        lines = [f"{pad}{key}: [{len(value)} entries]"]
        for v in value:
            lines.extend(_render_text(v, "-", indent + 1))
        return lines
    return [label + str(value)]


def _emit(args, command: str, group: Optional[str], inputs: dict,
          result: dict, verified: bool, violations: list, t0: float) -> None:
    timing_ms = int((time.perf_counter() - t0) * 1000)
    if args.format == "json":
        envelope = {
            "schema": SCHEMA,
            "command": command,
            "group": group,
            "inputs": inputs,
            "result": result,
            "verified": verified,
            "violations": violations,
            "timing_ms": timing_ms,
        }
        text = json.dumps(envelope, indent=2)
    else:
        lines = [f"[{command}]" + (f" group {group}" if group else "")]
        for k, v in inputs.items():
            lines.extend(_render_text(v, k, 1))
        lines.extend(_render_text(result, "result"))
        lines.append(f"verified: {verified}")
        for v in violations:
            lines.extend(_render_text(v, "violation", 1))
        lines.append(f"timing_ms: {timing_ms}")
        text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# verb handlers (each returns group, inputs, result, verified, violations)


def _cmd_group(args) -> tuple:
    g = parse_group(args.spec)
    normalized = g.invariant_factors != tuple(int(p) for p in args.spec.split("x"))
    result = {
        "spec": g.spec_string(),
        "invariant_factors": list(g.invariant_factors),
        "order": g.order,
        "exponent": g.exponent,
        "rank": g.rank,
        "d_star": g.d_star,
    }
    if normalized:
        result["notice"] = (f"factors {args.spec} normalized to invariant "
                            f"chain {g.spec_string()}")
    return g.spec_string(), {"given": args.spec}, result, True, []


def _parse_subset(g: GroupSpec, text: str) -> GroupSubset:
    return parse_sequence(g, text).support()


def _cmd_sumset(args) -> tuple:
    g = parse_group(args.group)
    a = _parse_subset(g, args.seq)
    if a.bits == 0:
        raise GroupError("empty summand set")
    inputs: dict = {"A": _format_subset(a)}
    if args.sprime is not None:
        b = _parse_subset(g, args.sprime)
        if b.bits == 0:
            raise GroupError("empty summand set")
        out = sumset(a, b)
        inputs["B"] = _format_subset(b)
    else:
        n = args.n if args.n is not None else 2
        out = iterated_sumset(a, n)
        inputs["n"] = n
    h = stabilizer(out)
    result = {
        "sumset": _format_subset(out),
        "size": out.size,
        "stabilizer": _format_subset(h.carrier),
        "stabilizer_order": h.order,
    }
    return g.spec_string(), inputs, result, True, []


def _cmd_subsums(args) -> tuple:
    g = parse_group(args.group)
    s = parse_sequence(g, args.seq)
    profile = subsum_profile(s, args.n, s.length)
    result = {
        "subsums": _format_subset(profile.sigma_n),
        "size": profile.sigma_n.size,
        "stabilizer": _format_subset(profile.H.carrier),
        "stabilizer_order": profile.H.order,
        "N": profile.N,
        "e": profile.e,
        "rho": profile.rho,
        "bound": profile.bound_primary,
    }
    return g.spec_string(), {"S": s.format(), "n": args.n}, result, True, []


def _cert_report(cert, s, s_prime, n: int) -> tuple:
    inputs = {"S": s.format(), "S_prime": s_prime.format(), "n": n, "mode": cert.mode}
    result = {"certificate": cert.to_dict(), "sum_of_parts_size": cert.bounds["sum_size"]}
    return s.group.spec_string(), inputs, result, cert.verified, []


def _cmd_partition(args) -> tuple:
    from .setpartitions import partition_solve
    g = parse_group(args.group)
    s = parse_sequence(g, args.seq)
    s_prime = parse_sequence(g, args.sprime) if args.sprime is not None else s
    return _cert_report(partition_solve(s, s_prime, args.n), s, s_prime, args.n)


def _cmd_maincert(args) -> tuple:
    from .setpartitions import HypothesesUnmetError, main_pipeline
    g = parse_group(args.group)
    s = parse_sequence(g, args.seq)
    s_prime = parse_sequence(g, args.sprime)
    mode = "full-group" if args.mode == "fullgroup" else "standard"
    try:
        cert = main_pipeline(g, s, s_prime, args.n, mode)
    except HypothesesUnmetError as exc:
        # a negative verdict, not a usage error: an envelope with exit 1
        inputs = {"S": s.format(), "S_prime": s_prime.format(), "n": args.n, "mode": mode}
        return g.spec_string(), inputs, {"certificate": None}, False, [str(exc)]
    return _cert_report(cert, s, s_prime, args.n)


def _report_field(envelope: dict, path: str, kind: type) -> Any:
    """The value at a dotted path of a report envelope; InputError naming the
    field unless it is present with type exactly kind (a JSON true is no
    int)."""
    value: Any = envelope
    for name in path.split("."):
        if not isinstance(value, dict) or name not in value:
            raise InputError(f"report has no field {path!r}")
        value = value[name]
    if type(value) is not kind:
        raise InputError(f"report field {path!r} must be of type {kind.__name__}, "
                         f"got {value!r}")
    return value


def _cmd_verify(args) -> tuple:
    from .setpartitions import Certificate, main_verify, partition_verify
    if args.report == "-":
        envelope = json.load(sys.stdin)
    else:
        with open(args.report) as fh:
            envelope = json.load(fh)
    if not isinstance(envelope, dict):
        raise InputError(f"report is a JSON {type(envelope).__name__}, not an object")
    if envelope.get("schema") != SCHEMA:
        raise InputError(f"unknown schema {envelope.get('schema')!r}")
    g = parse_group(_report_field(envelope, "group", str))
    s_text = _report_field(envelope, "inputs.S", str)
    s_prime_text = _report_field(envelope, "inputs.S_prime", str)
    n = _report_field(envelope, "inputs.n", int)
    s = parse_sequence(g, s_text)
    s_prime = parse_sequence(g, s_prime_text)
    cert = Certificate.from_dict(g, _report_field(envelope, "result", dict).get("certificate"))
    if cert.theorem == "partition":
        ok, violations = partition_verify(cert, s, s_prime, n)
    else:
        ok, violations = main_verify(cert, g, s, s_prime, n)
    result = {"theorem": cert.theorem, "case": cert.case_tag, "holds": ok}
    return (g.spec_string(),
            {"report": args.report, "S": s_text, "S_prime": s_prime_text, "n": n},
            result, ok, violations)


def _cmd_example(args) -> tuple:
    from .search import gen_example
    g = parse_group(args.group)
    h = subgroup_generated(_parse_subset(g, args.h))
    k = subgroup_generated(_parse_subset(g, args.k)) if args.k else None
    gen_elem = parse_element(g, args.gen) if args.gen else None
    inst = gen_example(args.kind, g, h, k, gen_elem)   # checks both values below
    result = dict(inst.to_dict())
    result["sigma_n_size"] = inst.expected["sigma_size"]
    result["stabilizer"] = _format_subset(inst.H.carrier)
    return (g.spec_string(), {"kind": args.kind, "H": _format_subset(h.carrier)},
            result, True, [])


def _cmd_audit(args) -> tuple:
    from .search import AuditConfig, SearchError, run_audit
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise SearchError(f"--jobs must lie in [1, {cpus}], got {args.jobs}")
    kwargs = dict(max_group_order=args.max_order, seed=args.seed, jobs=args.jobs,
                  random_samples=args.samples)
    if args.group_cap is not None:
        kwargs["exhaustive_group_cap"] = args.group_cap
    if args.len_cap is not None:
        kwargs["exhaustive_len_cap"] = args.len_cap
    if args.checkers is not None:
        kwargs["checkers"] = tuple(args.checkers.split(","))
    cfg = AuditConfig(**kwargs)
    report = run_audit(cfg)
    return None, cfg.to_dict(), report.to_dict(), report.holds, list(report.violations)


def _cmd_hunt(args) -> tuple:
    from .search import hunt_unique_expression
    g = parse_group(args.group)
    report = hunt_unique_expression(g, args.n, canonicalize=not args.no_canonicalize,
                                    budget=args.budget)
    # hits are reported, never asserted: exit 0 either way
    return g.spec_string(), {"n": args.n}, report.to_dict(), True, []


def _cmd_davenport(args) -> tuple:
    g = parse_group(args.group)
    d = davenport_bruteforce(g, cap=args.cap)
    holds = g.d_star + 1 <= d <= g.order
    result = {"davenport": d, "d_star": g.d_star, "order": g.order, "sandwich_holds": holds}
    return g.spec_string(), {}, result, holds, []


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, group: bool = True) -> None:
    if group:
        p.add_argument("-g", "--group", required=True,
                       help="group spec, e.g. 8 or 2x4")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="FILE", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsumlab",
        description="exact sumset / subsequence-sum / setpartition toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("group", help="group facts")
    p.add_argument("action", choices=("info",))
    p.add_argument("spec", help="group spec, e.g. 2x4")
    _add_common(p, group=False)
    p.set_defaults(handler=_cmd_group)

    p = sub.add_parser("sumset", help="A+B or the n-fold sumset nA")
    _add_common(p)
    p.add_argument("-s", "--seq", required=True, help="set A (';'-separated)")
    p.add_argument("--sprime", help="set B; when given, computes A+B")
    p.add_argument("-n", type=int, help="fold count for nA (default 2)")
    p.set_defaults(handler=_cmd_sumset)

    p = sub.add_parser("subsums", help="n-term subsequence sums of S")
    _add_common(p)
    p.add_argument("-s", "--seq", required=True)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(handler=_cmd_subsums)

    p = sub.add_parser("partition", help="setpartition certificate")
    _add_common(p)
    p.add_argument("-s", "--seq", required=True)
    p.add_argument("--sprime", help="distinguished subsequence (default S)")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser("maincert", help="strengthened-conclusion certificate")
    _add_common(p)
    p.add_argument("-s", "--seq", required=True)
    p.add_argument("--sprime", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--mode", choices=("standard", "fullgroup"),
                   default="standard")
    p.set_defaults(handler=_cmd_maincert)

    p = sub.add_parser("verify", help="re-check a certificate report")
    p.add_argument("report", help="JSON report file, or - for stdin")
    _add_common(p, group=False)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("example", help="extremal family instance")
    p.add_argument("kind", choices=("A", "B", "C"))
    _add_common(p)
    p.add_argument("--h", required=True, help="generators of H")
    p.add_argument("--k", help="generators of K (family B)")
    p.add_argument("--gen", help="distinguished element")
    p.set_defaults(handler=_cmd_example)

    p = sub.add_parser("audit", help="exhaustive + random checker sweep")
    p.add_argument("--max-order", type=int, default=16)
    p.add_argument("--group-cap", type=int, default=None,
                   help="exhaustive enumeration group-order cap")
    p.add_argument("--len-cap", type=int, default=None,
                   help="exhaustive enumeration sequence-length cap")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--checkers", help="comma-separated checker names")
    _add_common(p, group=False)
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("hunt", help="aperiodic no-unique-expression search")
    _add_common(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--budget", type=int, default=10_000_000)
    p.add_argument("--no-canonicalize", action="store_true")
    p.set_defaults(handler=_cmd_hunt)

    p = sub.add_parser("davenport", help="Davenport constant by brute force")
    _add_common(p)
    p.add_argument("--cap", type=int, default=16,
                   help="largest group order attempted")
    p.set_defaults(handler=_cmd_davenport)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    t0 = time.perf_counter()
    try:
        group, inputs, result, verified, violations = args.handler(args)
        _emit(args, args.verb, group, inputs, result, verified, violations, t0)
        return 0 if verified else 1
    except InternalError as exc:
        return _internal_error(str(exc), exc.dump)
    # input errors only: a bare ValueError from the library is a bug (exit 3)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not a verdict: exit 3, never 1
        import traceback  # only here, to keep it off the startup path
        return _internal_error(f"{type(exc).__name__}: {exc}",
                               {"argv": argv, "traceback": traceback.format_exc()})


def _internal_error(message: str, dump: dict) -> int:
    """Write a reproduction dump, report it on stderr and return exit code 3."""
    import tempfile  # only here, to keep it off the startup path
    fd, path = tempfile.mkstemp(prefix="subsumlab-dump-", suffix=".json")
    with open(fd, "w") as fh:
        json.dump({"error": message, "dump": dump}, fh, indent=2)
    print(f"internal error: {message}\nreproduction dump: {path}", file=sys.stderr)
    return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
