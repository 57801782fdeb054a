"""Command line interface; every subcommand prints a JSON document."""

from __future__ import annotations

import argparse
import json
import sys

from .audit import sweep
from .bounds import predicted_tails
from .cyclotomic import factor_xm_minus_1
from .diagonal import GoodSolution, diagonal_instance, solve_good
from .errors import CyclosumError, InvalidInput
from .gf import build_field
from .ntheory import multiplicative_order
from .traces import predict_trace_count, q_star, trace_profile
from .weights import certificate, compute_weight_set, minimal_vanishing_sums


def _parse_modulus(text: str | None):
    if text is None:
        return None
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise InvalidInput(f"--modulus needs comma separated integers, got {text!r}") from None


# the cap is the only memory guard: 2^24 elements take about 400 MB of tables
MAX_CAP_BITS = 24


def _cap_bits(text: str) -> int:
    try:
        bits = int(text)
    except ValueError:
        bits = -1
    if not 0 <= bits <= MAX_CAP_BITS:
        raise argparse.ArgumentTypeError(f"must be an integer 0 to {MAX_CAP_BITS}, got {text!r}")
    return bits


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _cmd_weights(args) -> int:
    cap = 1 << args.cap
    ws = compute_weight_set(args.p, args.m, cap)
    out = ws.json_dict()
    field = ws.field if ws.field is not None else build_field(args.p, 1, size_cap=cap)
    out["field"] = field.json_dict()
    if args.certificate is not None:
        cert = certificate(args.p, args.m, args.certificate, cap)
        out["certificate"] = {"n": cert.n, "exponents": list(cert.exponents)}
    if args.minimal_upto is not None:
        sums = minimal_vanishing_sums(args.p, args.m, args.minimal_upto, cap)
        out["minimal_sums"] = [list(s) for s in sums]
    _emit(out)
    return 0


def _cmd_factor(args) -> int:
    report = factor_xm_minus_1(args.p, args.m, 1 << args.cap)
    out = report.json_dict()
    out["display"] = report.display()
    out["field"] = build_field(
        args.p, report.splitting_degree, size_cap=1 << args.cap
    ).json_dict()
    _emit(out)
    return 0


def _cmd_bounds(args) -> int:
    k = args.k if args.k is not None else multiplicative_order(args.p, args.m)
    report = predicted_tails(args.p, args.m, k, 1 << args.cap)
    out = {"p": args.p, "m": args.m, "k": k}
    out.update(report.json_dict())
    _emit(out)
    return 0


def _cmd_trace(args) -> int:
    cap = 1 << args.cap
    if args.prop65:
        if args.q is None:
            raise CyclosumError("--prop65 needs --q")
        predicted = predict_trace_count(args.p, args.q)
        profile = trace_profile(args.p, args.q, cap)
        _emit({
            "p": args.p,
            "q": args.q,
            "q_star": q_star(args.q).value,
            "predicted_t": predicted,
            "actual_t": profile.t,
            "agrees": predicted == profile.t,
        })
        return 0
    if args.m is None:
        raise CyclosumError("need --m (or --prop65 with --q)")
    profile = trace_profile(args.p, args.m, cap)
    out = profile.json_dict()
    out["field"] = build_field(args.p, profile.ell, size_cap=cap).json_dict()
    _emit(out)
    return 0


def _cmd_solve(args) -> int:
    cap = 1 << args.cap
    inst = diagonal_instance(args.q, args.e, args.n, _parse_modulus(args.modulus), cap)
    result = solve_good(inst)
    out = {
        "q": args.q,
        "e": args.e,
        "n": args.n,
        "d": inst.d,
        "m": inst.m,
        "field": inst.table.json_dict(),
    }
    if isinstance(result, GoodSolution):
        out["status"] = "solved"
        out["solution"] = [
            {"exponent": v.index, "poly": list(v.poly.coeffs)} for v in result.values
        ]
    else:
        out["status"] = "no_solution"
        out["solution"] = None
        out["evidence"] = result.weight_set.json_dict()
    _emit(out)
    return 0


def _cmd_audit(args) -> int:
    report = sweep(
        p_max=args.p_max,
        m_max=args.m_max,
        size_cap=1 << args.cap,
        window=args.window,
        log=None if args.quiet else lambda msg: print(msg, file=sys.stderr),
    )
    if args.json:
        report.write_json(args.json)
    if args.tsv:
        report.write_tsv(args.tsv)
    for line in report.summary_lines():
        print(line)
    return 0 if report.ok else 1


def _add_cap(sub) -> None:
    sub.add_argument("--cap", type=_cap_bits, default=22, metavar="BITS",
                     help=f"field size cap as a power of two, 0 to {MAX_CAP_BITS} (default 22)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclosum",
        description="Exact weight sets of vanishing root-of-unity sums over "
                    "finite fields, with bound auditing and diagonal solving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    w = sub.add_parser("weights", help="exact weight set of (p, m)")
    w.add_argument("--p", type=int, required=True)
    w.add_argument("--m", type=int, required=True)
    w.add_argument("--certificate", type=int, metavar="N",
                   help="also emit a verified vanishing sum of weight N")
    w.add_argument("--minimal-upto", type=int, metavar="W",
                   help="also enumerate minimal vanishing sums of weight <= W")
    _add_cap(w)
    w.set_defaults(func=_cmd_weights)

    f = sub.add_parser("factor", help="factor X^m - 1 over F_p")
    f.add_argument("--p", type=int, required=True)
    f.add_argument("--m", type=int, required=True)
    _add_cap(f)
    f.set_defaults(func=_cmd_factor)

    b = sub.add_parser("bounds", help="tail predictions for (p, m, k)")
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--k", type=int, help="field degree (default: minimal)")
    _add_cap(b)
    b.set_defaults(func=_cmd_bounds)

    t = sub.add_parser("trace", help="trace set of the minimal root group")
    t.add_argument("--p", type=int, required=True)
    t.add_argument("--m", type=int)
    t.add_argument("--prop65", action="store_true",
                   help="predict t from the signed-prime divisibility test")
    t.add_argument("--q", type=int, help="odd prime modulus for --prop65")
    _add_cap(t)
    t.set_defaults(func=_cmd_trace)

    s = sub.add_parser("solve", help="all-nonzero diagonal solution over F_q")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--e", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--modulus", help="comma separated coefficients, constant first")
    _add_cap(s)
    s.set_defaults(func=_cmd_solve)

    a = sub.add_parser("audit", help="sweep (p, m) and verify every bound")
    a.add_argument("--p-max", type=int, default=23)
    a.add_argument("--m-max", type=int, default=60)
    a.add_argument("--window", type=int,
                   help="solver window past each divisor (default 2p)")
    a.add_argument("--json", metavar="PATH", help="write the full report")
    a.add_argument("--tsv", metavar="PATH", help="write a per-pair table")
    a.add_argument("--quiet", action="store_true")
    _add_cap(a)
    a.set_defaults(func=_cmd_audit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CyclosumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
