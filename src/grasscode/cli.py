"""Command-line surface: count, build, weights, verify.

Exit codes: 0 success, 2 parse error (unreadable input and unwritable
output paths included), 3 budget exceeded, 4 verification failure.  Each
subcommand takes only the budget it spends: count and build
--budget-points, weights --budget-scans, verify both.  The environment
variable GRASSCODE_BUDGET overrides the default point and scan budgets;
an explicit --budget-* flag wins over it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import dataclass

from .bounds import run_suite
from .codes import (
    DEFAULT_SCAN_BUDGET,
    build_code,
    read_code_file,
    weight_profile,
    write_code_file,
)
from .errors import BudgetExceededError, SpecParseError
from .field import GF, field_for_order
from .grassmann import DEFAULT_POINT_BUDGET
from .sections import closed_form_count, enumerate_variety, parse_variety_spec

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4


@dataclass
class RunConfig:
    field: GF | None
    budget_points: int
    budget_scans: int
    workers: int


def _default_budgets() -> tuple[int, int]:
    env = os.environ.get("GRASSCODE_BUDGET")
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise SpecParseError(f"GRASSCODE_BUDGET={env!r} is not an integer") from exc
        if value <= 0:
            raise SpecParseError("GRASSCODE_BUDGET must be positive")
        return value, value
    return DEFAULT_POINT_BUDGET, DEFAULT_SCAN_BUDGET


def _resolve_config(args, need_field: bool) -> RunConfig:
    points_default, scans_default = _default_budgets()
    budget_points = args.budget_points if args.budget_points is not None else points_default
    budget_scans = args.budget_scans if args.budget_scans is not None else scans_default
    if budget_points <= 0 or budget_scans <= 0:
        raise SpecParseError("budgets must be positive")
    workers = getattr(args, "workers", 1)
    if workers < 1:
        raise SpecParseError("worker count must be >= 1")
    field = None
    if need_field:
        q = getattr(args, "q", None)
        p = getattr(args, "p", None)
        e = getattr(args, "e", None)
        try:
            if q is not None:
                field = field_for_order(q)
                if p is not None and field.p != p:
                    raise SpecParseError(f"--q {q} conflicts with --p {p}")
                if e is not None and field.e != e:
                    raise SpecParseError(f"--q {q} conflicts with --e {e}")
            elif p is not None:
                field = GF(p, 1 if e is None else e)
            else:
                raise SpecParseError("a field is required: pass --q or --p/--e")
        except ValueError as exc:
            raise SpecParseError(str(exc)) from exc
    return RunConfig(field, budget_points, budget_scans, workers)


def _spec_from_args(args) -> str:
    positional = getattr(args, "spec_pos", None)
    flag = getattr(args, "spec", None)
    if positional and flag and positional != flag:
        raise SpecParseError("conflicting positional spec and --spec")
    text = positional or flag
    if not text:
        raise SpecParseError("a variety spec is required")
    return text


def cmd_count(args) -> int:
    config = _resolve_config(args, need_field=True)
    spec = parse_variety_spec(_spec_from_args(args))
    system = enumerate_variety(spec, config.field, config.budget_points)
    count = len(system.points)
    formula, extras = closed_form_count(spec, config.field.q)
    agree = True if formula is None else (count == formula)
    if args.json:
        payload = {"count": count, "formula": formula, "agree": agree, **extras}
        print(json.dumps(payload))
    else:
        line = f"count={count} formula={'none' if formula is None else formula} agree={str(agree).lower()}"
        for key, value in extras.items():
            line += f" {key}={value}"
        print(line)
    return EXIT_OK


def cmd_build(args) -> int:
    config = _resolve_config(args, need_field=True)
    spec = parse_variety_spec(_spec_from_args(args))
    system = enumerate_variety(spec, config.field, config.budget_points)
    if not len(system):
        raise SpecParseError(f"{spec.serialize()} has no rational points over GF({config.field.q})")
    code = build_code(system)
    write_code_file(code, args.out)
    print(f"wrote {args.out}: n={code.n} k={code.k}")
    return EXIT_OK


def _open_out(path):
    """The --out file opened for writing, or a null context without one.

    Opened before the work starts, so an unwritable path exits 2 with
    nothing on stdout.
    """
    return open(path, "w") if path else contextlib.nullcontext()


def _emit(text: str, out) -> None:
    print(text)
    if out is not None:
        out.write(text + "\n")


def cmd_weights(args) -> int:
    config = _resolve_config(args, need_field=False)
    code = read_code_file(args.codefile)
    if not 0 <= args.r_max <= code.k:
        raise SpecParseError(f"--r-max must be in 0..{code.k}, got {args.r_max}")
    with _open_out(args.out) as out:
        profile = weight_profile(
            code,
            r_max=args.r_max,
            method=args.method,
            workers=config.workers,
            budget=config.budget_scans,
        )
        _emit(json.dumps(profile.to_json_dict(), indent=2), out)
    return EXIT_OK


def _parse_int_list(text: str) -> list[int]:
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    if not text:
        return []
    out = []
    for chunk in text.split(";"):
        parts = [int(x) for x in chunk.split(",")]
        if len(parts) != 2:
            raise SpecParseError(f"bad l,m pair {chunk!r}")
        out.append((parts[0], parts[1]))
    return out


def cmd_verify(args) -> int:
    config = _resolve_config(args, need_field=False)
    try:
        fields = [field_for_order(q) for q in _parse_int_list(args.q or "")]
        grassmann = _parse_pairs(args.grassmann or "")
        lagrangian = _parse_int_list(args.lagrangian_n or "")
    except ValueError as exc:
        raise SpecParseError(str(exc)) from exc
    if any(n < 2 for n in lagrangian):
        raise SpecParseError(f"--lagrangian-n values must be >= 2, got {args.lagrangian_n}")
    for ell, m in grassmann:
        parse_variety_spec(f"grassmann:{ell},{m}")
    with _open_out(args.out) as out:
        reports = run_suite(
            fields,
            grassmann_pairs=grassmann,
            lagrangian_ns=lagrangian,
            budget_points=config.budget_points,
            budget_scans=config.budget_scans,
        )
        payload = {
            "reports": [rep.to_json_dict() for rep in reports],
            "disputed": [rep.claim for rep in reports if rep.disputed],
        }
        _emit(json.dumps(payload, indent=2), out)
    failed = [rep for rep in reports if rep.holds is False and not rep.disputed]
    return EXIT_VERIFY if failed else EXIT_OK


def _add_field_args(parser):
    parser.add_argument("--q", type=int, help="field order (prime power)")
    parser.add_argument("--p", type=int, help="field characteristic")
    parser.add_argument("--e", type=int, help="field extension degree (with --p)")


BUDGET_HELP = {"points": "max points to enumerate", "scans": "max codeword/subcode scans"}


def _add_budget_args(parser, *budgets):
    """The --budget-* flags a subcommand takes; a budget it does not take keeps its default."""
    parser.set_defaults(budget_points=None, budget_scans=None)
    for budget in budgets:
        parser.add_argument(f"--budget-{budget}", type=int, default=None, help=BUDGET_HELP[budget])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grasscode",
        description="Linear codes from linear sections of Grassmannians over GF(q)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="point count of a variety, with closed form")
    p_count.add_argument("spec_pos", nargs="?", metavar="SPEC")
    p_count.add_argument("--spec")
    p_count.add_argument("--json", action="store_true", help="machine-readable output")
    _add_field_args(p_count)
    _add_budget_args(p_count, "points")
    p_count.set_defaults(fn=cmd_count)

    p_build = sub.add_parser("build", help="write a generator matrix file")
    p_build.add_argument("spec_pos", nargs="?", metavar="SPEC")
    p_build.add_argument("--spec")
    p_build.add_argument("--out", required=True)
    _add_field_args(p_build)
    _add_budget_args(p_build, "points")
    p_build.set_defaults(fn=cmd_build)

    p_weights = sub.add_parser("weights", help="distance / higher weights / enumerator")
    p_weights.add_argument("codefile")
    p_weights.add_argument("--r-max", type=int, default=1)
    p_weights.add_argument("--method", choices=("codewords", "hyperplanes"), default="codewords")
    p_weights.add_argument("--workers", type=int, default=1)
    p_weights.add_argument("--out")
    _add_budget_args(p_weights, "scans")
    p_weights.set_defaults(fn=cmd_weights)

    p_verify = sub.add_parser("verify", help="run the claim-verification suite")
    p_verify.add_argument("--q", help="comma-separated field orders")
    p_verify.add_argument("--grassmann", help="l,m pairs separated by ';'")
    p_verify.add_argument("--lagrangian-n", help="comma-separated n values")
    p_verify.add_argument("--out")
    _add_budget_args(p_verify, "points", "scans")
    p_verify.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SpecParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
