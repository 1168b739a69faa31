"""Command-line front end: one subcommand per library area, emitting
structured records as JSON lines (default) or CSV.

Every integer that may exceed the 53-bit exactness range of common JSON
consumers is rendered as a decimal string, whatever its length: Python's
4300-digit int/str cap holds while the arguments are parsed, which bounds
every input to 2**20 bits, and is lifted while the command runs.  Exit
codes: 0 success, 1 domain error, 2 resource-guard error, 64 usage error;
every refusal is one stderr line.

The modules behind numpy and mpmath (analytic, catalan, modular) are
imported by the handlers that use them, so `scan`, `verify` and
`exceptions` start without either library.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
from dataclasses import dataclass, is_dataclass

from . import config
from .config import SizeGuardError
from .digits import PrimePower, binom_valuation, sigma_p, to_base_p
from .exceptions import count_exceptions_q2, enumerate_exceptions, exception_values
from .residues import residue_count_sequence, residue_set_p2
from .squarefree import scan_candidates, verify_divisibility_filter

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_RESOURCE = 2
EXIT_USAGE = 64

_SAFE_INT = 1 << 53


@dataclass
class OutputRecord:
    command: str
    inputs: dict
    result: object
    provenance: str | None = None


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _jsonable(value):
    if isinstance(value, bool) or value is None or isinstance(value, (float, str)):
        return value
    if isinstance(value, int):
        return value if -_SAFE_INT < value < _SAFE_INT else str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if is_dataclass(value):
        return _jsonable(vars(value))
    return str(value)


@contextlib.contextmanager
def _unlimited_int_str():
    """Lift Python's 4300-digit cap on int -> str while a command runs.

    `run` opens this once parsing has bounded every input (2**20 bits), so
    the cap never refuses a label or an answer.  Messages name a huge
    integer by its bit length instead.  Pythons without the cap (before
    3.10.7) have no setter.
    """
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    saved = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def emit(records: list[OutputRecord], format: str = "jsonl") -> str:
    """Serialize records deterministically; one JSON line or CSV row each."""
    if format == "jsonl":
        lines = []
        for r in records:
            payload = {
                "command": r.command,
                "inputs": _jsonable(r.inputs),
                "result": _jsonable(r.result),
            }
            if r.provenance is not None:
                payload["provenance"] = r.provenance
            lines.append(json.dumps(payload, sort_keys=True))
        return "".join(line + "\n" for line in lines)
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["command", "inputs", "result", "provenance"])
        for r in records:
            writer.writerow(
                [
                    r.command,
                    json.dumps(_jsonable(r.inputs), sort_keys=True),
                    json.dumps(_jsonable(r.result), sort_keys=True),
                    r.provenance or "",
                ]
            )
        return buf.getvalue()
    raise ValueError(f"unsupported format {format!r}")


def parse_record(line: str) -> dict:
    """Inverse of one emitted JSON line."""
    return json.loads(line)


_MAX_BIG_BITS = 1 << 20


def _big(text: str) -> int:
    # accepts plain integers and 2**e / 3**e shorthands for huge inputs
    if "**" not in text:
        return int(text)
    base, _, exp = text.partition("**")
    b, e = int(base), int(exp)
    if e < 0:
        raise argparse.ArgumentTypeError(f"{text} is not an integer (negative exponent)")
    # b**e has more than e * (bits(b) - 1) bits: refuse before computing
    if e * (abs(b).bit_length() - 1) >= _MAX_BIG_BITS:
        raise argparse.ArgumentTypeError(f"{text} exceeds {_MAX_BIG_BITS} bits")
    value = b**e
    if value.bit_length() > _MAX_BIG_BITS:
        raise argparse.ArgumentTypeError(f"{text} exceeds {_MAX_BIG_BITS} bits")
    return value


def _log2_n(text: str) -> int:
    # the exponent E of n = 2**E, refused where _big refuses 2**E
    e = int(text)
    _big(f"2**{e}")
    return e


def _build_parser() -> _Parser:
    parser = _Parser(prog="pqcat")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def add(name: str, handler, help: str):
        sub_parser = sub.add_parser(name, help=help, parents=[common])
        # the parser reports its own leftovers
        sub_parser.set_defaults(parser=sub_parser, handler=handler)
        return sub_parser

    p_digits = add("digits", _cmd_digits, help="base-p expansion and digit sum")
    p_digits.add_argument("--n", type=_big, required=True)
    p_digits.add_argument("--p", type=int, required=True)

    p_val = add("valuation", _cmd_valuation, help="p-adic valuation of C(m,n) or F(p^q,n)")
    p_val.add_argument("--p", type=int, required=True)
    p_val.add_argument("--n", type=_big, required=True)
    p_val.add_argument("--q", type=int, default=1)
    p_val.add_argument("--m", type=_big, help="binomial mode: v_p(C(m, n))")

    p_cat = add("catalan", _cmd_catalan, help="exact F(s,n), or its behaviour mod p^q")
    p_cat.add_argument("--s", type=int)
    p_cat.add_argument("--n", type=_big, required=True)
    p_cat.add_argument("--p", type=int)
    p_cat.add_argument("--q", type=int)

    p_gran = add("granville", _cmd_granville, help="C(m,n) mod p^q as valuation + unit")
    p_gran.add_argument("--m", type=_big, required=True)
    p_gran.add_argument("--n", type=_big, required=True)
    p_gran.add_argument("--p", type=int, required=True)
    p_gran.add_argument("--q", type=int, required=True)

    p_exc = add("exceptions", _cmd_exceptions, help="n with p^q not dividing F(p^q,n)")
    p_exc.add_argument("--p", type=int, required=True)
    p_exc.add_argument("--q", type=int, required=True)
    p_exc.add_argument("--bound", type=_big, required=True)
    p_exc.add_argument("--forms", action="store_true", help="include structure tags")
    p_exc.add_argument("--count-from", type=int, metavar="CHOICES",
                       help="report the strict-exponent count C(CHOICES, p) instead")

    p_res = add("residues", _cmd_residues, help="least residues of F(p^2,n) mod p^2")
    p_res.add_argument("--p", type=int)
    p_res.add_argument("--sequence", type=int, metavar="S_MAX",
                       help="sizes of the residue sets for s = 1..S_MAX")

    p_scan = add("scan", _cmd_scan, help="squarefree hits of C(p^q n + 1, n)")
    p_scan.add_argument("--p", type=int, required=True)
    p_scan.add_argument("--q", type=int, required=True)
    p_scan.add_argument("--bound", type=_big, required=True)
    p_scan.add_argument("--exhaustive", action="store_true",
                        help="test every n up to the bound")
    p_scan.add_argument("--checkpoint", metavar="PATH")

    p_thr = add("threshold", _cmd_threshold, help="the non-squarefree inequality")
    p_thr.add_argument("--p", type=int, required=True)
    p_thr.add_argument("--q", type=int, required=True)
    p_thr.add_argument("--log2-n", type=_log2_n, action="append", dest="log2_n",
                       help="evaluate at n = 2**E (repeatable)")
    p_thr.add_argument("--n", type=_big, action="append",
                       help="evaluate at this exact n (repeatable)")
    p_thr.add_argument("--find-tau0", action="store_true")
    p_thr.add_argument("--tau1", action="store_true",
                       help="also report the overall threshold")
    p_thr.add_argument("--precision", type=int,
                       help=f"bits (default {config.DEFAULT_PRECISION})")
    p_thr.add_argument("--form", choices=["general", "specialized", "both"],
                       default="general")

    p_ver = add("verify", _cmd_verify, help="soundness of the candidate filter")
    p_ver.add_argument("--p", type=int, required=True)
    p_ver.add_argument("--q", type=int, required=True)
    p_ver.add_argument("--bound", type=_big, required=True)

    return parser


def _num(x) -> str:
    from mpmath import mp, nstr

    return nstr(mp.mpf(x), 17)


def _cmd_digits(args) -> list[OutputRecord]:
    vec = to_base_p(args.n, args.p)
    result = {
        "digits": list(vec.digits),
        "sigma": sigma_p(args.n, args.p),
        "display": str(vec),
    }
    return [OutputRecord("digits", {"n": args.n, "p": args.p}, result)]


def _cmd_valuation(args) -> list[OutputRecord]:
    from .catalan import catalan_valuation

    inputs = {"p": args.p, "n": args.n}
    if args.m is not None:
        inputs["m"] = args.m
        result = binom_valuation(args.m, args.n, args.p)
    else:
        inputs["q"] = args.q
        result = catalan_valuation(PrimePower(args.p, args.q), args.n)
    return [OutputRecord("valuation", inputs, result)]


def _cmd_catalan(args) -> list[OutputRecord]:
    from .catalan import catalan_exact, catalan_residue_mod_pq, catalan_valuation, divides

    if args.s is not None:
        value = catalan_exact(args.s, args.n)
        return [OutputRecord("catalan", {"s": args.s, "n": args.n}, value)]
    if args.p is None or args.q is None:
        raise ValueError("catalan needs either --s or both --p and --q")
    pp = PrimePower(args.p, args.q)
    result = {
        "valuation": catalan_valuation(pp, args.n),
        "residue": catalan_residue_mod_pq(pp, args.n),
        "divides": divides(pp, args.n),
    }
    return [OutputRecord("catalan", {"p": args.p, "q": args.q, "n": args.n}, result)]


def _cmd_granville(args) -> list[OutputRecord]:
    from .modular import granville_binom_mod_pq

    g = granville_binom_mod_pq(args.m, args.n, PrimePower(args.p, args.q))
    inputs = {"m": args.m, "n": args.n, "p": args.p, "q": args.q}
    return [OutputRecord("granville", inputs, {"e0": g.e0, "unit_residue": g.unit_residue})]


def _cmd_exceptions(args) -> list[OutputRecord]:
    inputs = {"p": args.p, "q": args.q, "bound": args.bound}
    if args.count_from is not None:
        count = count_exceptions_q2(args.p, args.count_from)
        inputs["count_from"] = args.count_from
        return [OutputRecord("exceptions", inputs, {"count": count})]
    pp = PrimePower(args.p, args.q)
    if args.forms:
        result = [{"value": e.value, "forms": [{"kind": e.kind, **vars(e.form)}]}
                  for e in enumerate_exceptions(pp, args.bound)]
    else:
        result = exception_values(pp, args.bound)
    prov = "n <= bound with p^q not dividing C(p^q n, n)/((p^q-1)n+1), by structure"
    return [OutputRecord("exceptions", inputs, result, provenance=prov)]


def _cmd_residues(args) -> list[OutputRecord]:
    records = []
    if args.p is not None:
        prov = "distinct least residues of C(p^2 n, n)/((p^2-1)n+1) mod p^2 over all n"
        records.append(
            OutputRecord("residues", {"p": args.p}, residue_set_p2(args.p), provenance=prov)
        )
    if args.sequence is not None:
        counts = residue_count_sequence(args.sequence)
        records.append(
            OutputRecord("residues", {"sequence": args.sequence}, counts,
                         provenance="residue-set sizes for s = 1..s_max; None off the prime rail")
        )
    if not records:
        raise ValueError("residues needs --p and/or --sequence")
    return records


def _cmd_scan(args) -> list[OutputRecord]:
    pp = PrimePower(args.p, args.q)
    report = scan_candidates(
        pp, args.bound, exhaustive=args.exhaustive, checkpoint_path=args.checkpoint
    )
    inputs = {"p": args.p, "q": args.q, "bound": args.bound, "exhaustive": args.exhaustive}
    result = {
        "candidates_tested": report.candidates_tested,
        "squarefree_hits": list(report.squarefree_hits),
        "elapsed": report.elapsed,
        "checkpoint": report.checkpoint,
    }
    if args.checkpoint:
        result["checkpoint_path"] = args.checkpoint
    return [OutputRecord("scan", inputs, result)]


def _cmd_threshold(args) -> list[OutputRecord]:
    from .analytic import (
        InequalityInstance,
        find_tau0,
        inequality_sides,
        specialized_constants,
        tau1,
    )

    pp = PrimePower(args.p, args.q)
    inst = InequalityInstance(pp, precision=args.precision)
    precision = inst.precision
    forms = ["general", "specialized"] if args.form == "both" else [args.form]
    records: list[OutputRecord] = []
    points: list[tuple[str, int]] = []
    for e in args.log2_n or []:
        points.append((f"2**{e}", 1 << e))
    for n in args.n or []:
        points.append((str(n), n))
    for label, n in points:
        for form in forms:
            lhs, rhs = inequality_sides(inst, n, form=form)
            inputs = {"p": args.p, "q": args.q, "n": label, "form": form,
                      "precision": precision}
            result = {"lhs": _num(lhs), "rhs": _num(rhs), "holds": bool(lhs > rhs)}
            records.append(OutputRecord("threshold", inputs, result))
    if args.find_tau0:
        for form in forms:
            e = find_tau0(inst, form=form)
            inputs = {"p": args.p, "q": args.q, "form": form, "precision": precision}
            result: dict[str, object] = {"tau0_log2": e}
            if args.tau1:
                result["tau1"] = tau1(pp, 1 << e)
            records.append(OutputRecord("threshold", inputs, result))
    if pp.modulus in (4, 9) and args.form in ("specialized", "both"):
        c_main, c_tail = specialized_constants(pp)
        records.append(
            OutputRecord(
                "threshold",
                {"p": args.p, "q": args.q, "constants": "specialized"},
                {"c_main": str(float(c_main)), "c_tail": str(float(c_tail))},
            )
        )
    if not records:
        raise ValueError("threshold needs --log2-n, --n or --find-tau0")
    return records


def _cmd_verify(args) -> list[OutputRecord]:
    pp = PrimePower(args.p, args.q)
    sound = verify_divisibility_filter(pp, args.bound)
    inputs = {"p": args.p, "q": args.q, "bound": args.bound}
    return [OutputRecord("verify", inputs, {"sound": sound})]


def run(argv: list[str] | None = None) -> int:
    """Parse argv, execute, write records to stdout; returns the exit code."""
    parser = _build_parser()
    try:
        args, leftovers = parser.parse_known_args(argv)
        if leftovers:
            args.parser.error(f"unrecognized arguments: {' '.join(leftovers)}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        with _unlimited_int_str():
            records = args.handler(args)
            sys.stdout.write(emit(records, args.format))
        return EXIT_OK
    except SizeGuardError as exc:
        print(f"pqcat: resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"pqcat: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(run())
