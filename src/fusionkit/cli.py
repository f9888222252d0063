"""Command line front end.

Five subcommands:

  verify      run the verification suite for one configuration, or all
  decompose   emit the decomposition diagram (poset and collapse)
  aut-gamma   automorphism-group certificate for the extraspecial core
  fusion      chain-class poset for a user-supplied group table
  dump-group  export a configured core group as a group-table JSON file

Configuration resolves in the order: explicit flags, then FUSIONKIT_*
environment variables, then built-in defaults.  Identical resolved
configurations produce byte-identical JSON and DOT artifacts.

Exit status: 0 when every reported check passes (skips are fine), 1 when
any check fails, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import SCHEMA_VERSION, canonical_json
from .cases import (
    AZ_PRIME_OF_INDEX,
    CASES,
    SUPPORTED_PRIMES,
    CaseConfig,
    VerificationReport,
    all_configs,
    emit_decomposition,
    gamma_matrices,
    run_suite,
)
from .extraspecial import aut_certificate, aut_order_formulas, commuting_pair_scan
from .fingroup import automorphism_group, group_from_json, group_to_json
from .fusion import FusionData
from .matgroup import DEFAULT_CAP, CapExceeded, closure

ENV_PREFIX = "FUSIONKIT_"


def _env(name: str) -> str | None:
    val = os.environ.get(ENV_PREFIX + name)
    if val is None or val == "":
        return None
    return val


def _env_int(name: str) -> int | None:
    val = _env(name)
    if val is None:
        return None
    try:
        return int(val)
    except ValueError:
        raise ValueError("%s%s must be an integer, got %r" % (ENV_PREFIX, name, val)) from None


def _env_flag(name: str) -> bool:
    val = _env(name)
    return val is not None and val.lower() not in ("0", "false", "no")


def _resolve(args: argparse.Namespace) -> None:
    """Fill unset options from the environment, then from defaults."""
    if getattr(args, "case", None) is None:
        args.case = _env("CASE")
    if getattr(args, "prime", None) is None:
        args.prime = _env_int("PRIME")
    if getattr(args, "index", None) is None:
        args.index = _env_int("INDEX")
    if getattr(args, "level", None) is None:
        args.level = _env_int("LEVEL")
    if getattr(args, "fmt", None) is None:
        args.fmt = _env("FORMAT")
    if getattr(args, "out", None) is None:
        args.out = _env("OUT")
    if getattr(args, "cap", None) is None:
        args.cap = _env_int("CAP")
    if hasattr(args, "extended") and not args.extended:
        args.extended = _env_flag("EXTENDED")


def _config_from(args: argparse.Namespace) -> CaseConfig:
    case = args.case
    prime = args.prime
    index = getattr(args, "index", None)
    if case is None and index is not None:
        case = "az"
    if case == "az" and prime is None and index is not None:
        prime = AZ_PRIME_OF_INDEX.get(index)
    if case is None:
        raise ValueError("no case selected; pass --case or set FUSIONKIT_CASE")
    if prime is None:
        raise ValueError("no prime selected; pass --prime or set FUSIONKIT_PRIME")
    return CaseConfig(case, prime, level=args.level, az_index=index)


def _check_format(fmt: str | None, allowed: tuple[str, ...], default: str) -> str:
    if fmt is None:
        return default
    if fmt not in allowed:
        raise ValueError("format %r not valid here; choose from %s" % (fmt, "/".join(allowed)))
    return fmt


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


# -- verify -----------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    fmt = _check_format(args.fmt, ("text", "json"), "text")
    if args.all:
        configs = all_configs()
    else:
        configs = [_config_from(args)]
    reports = [run_suite(cfg, extended=args.extended) for cfg in configs]
    ok = all(rep.all_ok for rep in reports)

    if fmt == "json":
        if len(reports) == 1:
            text = reports[0].to_json()
        else:
            text = canonical_json(
                {
                    "schema_version": SCHEMA_VERSION,
                    "kind": "verification_batch",
                    "all_ok": ok,
                    "reports": [rep.to_json_dict() for rep in reports],
                }
            )
    else:
        blocks = [rep.to_text() for rep in reports]
        if len(reports) > 1:
            passed = sum(1 for rep in reports if rep.all_ok)
            blocks.append(
                "batch: %d/%d configurations fully pass\n" % (passed, len(reports))
            )
        text = "\n".join(blocks)
    _emit(text, args.out)
    return 0 if ok else 1


# -- decompose --------------------------------------------------------------


def _diagram_text(d) -> list[str]:
    lines = ["diagram %s" % d.name]
    for key in sorted(d.nodes):
        lines.append("  node %s: %s" % (key, d.nodes[key].label))
    for s, t, attrs in sorted(d.edges, key=lambda e: (e[0], e[1])):
        arrow = "%s -> %s" % (s, t)
        if attrs.get("iso"):
            arrow += "  [iso]"
        lines.append("  edge %s" % arrow)
    return lines


def cmd_decompose(args: argparse.Namespace) -> int:
    fmt = _check_format(args.fmt, ("text", "json", "dot"), "text")
    cfg = _config_from(args)
    rep = VerificationReport(cfg)
    result = emit_decomposition(cfg, rep)
    poset, collapsed = result["poset"], result["collapsed"]

    if fmt == "dot":
        text = collapsed.to_dot() if not args.full_poset else (poset or collapsed).to_dot()
    elif fmt == "json":
        text = canonical_json(
            {
                "schema_version": SCHEMA_VERSION,
                "kind": "decomposition",
                "config": cfg.describe(),
                "poset": None if poset is None else poset.to_json_dict(),
                "collapsed": collapsed.to_json_dict(),
                "checks": rep.to_json_dict()["checks"],
            }
        )
    else:
        lines = ["decomposition: %s" % cfg.describe()]
        if poset is not None:
            lines.extend(_diagram_text(poset))
        lines.extend(_diagram_text(collapsed))
        lines.append("checks: %d pass, %d fail" % (rep.counts()["pass"], rep.counts()["fail"]))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if rep.all_ok else 1


# -- aut-gamma --------------------------------------------------------------


def cmd_aut_gamma(args: argparse.Namespace) -> int:
    fmt = _check_format(args.fmt, ("text", "json"), "text")
    if args.prime is None:
        raise ValueError("no prime selected; pass --prime or set FUSIONKIT_PRIME")
    p = args.prime
    if p not in SUPPORTED_PRIMES:
        raise ValueError("prime must be one of %s" % (SUPPORTED_PRIMES,))

    if p == 2:
        A, B = gamma_matrices(CaseConfig("sup", 2))
        gam = closure([A, B], expected=8)
        scan = commuting_pair_scan(gam)
        closed, factored = aut_order_formulas(p)
        aut = automorphism_group(gam)
        ok = scan == closed == factored == aut.order
        data = {
            "schema_version": SCHEMA_VERSION,
            "kind": "aut_certificate",
            "prime": p,
            "method": "backtracking",
            "ok": ok,
            "scan_count": scan,
            "closed_formula": closed,
            "factored_formula": factored,
            "aut_group_order": aut.order,
        }
        lines = [
            "automorphism certificate at p = %d: %s" % (p, "PASS" if ok else "FAIL"),
            "  commuting-pair scan   %d" % scan,
            "  closed formula        %d" % closed,
            "  factored formula      %d" % factored,
            "  backtracking count    %d  (every generator-pair image checked)" % aut.order,
        ]
    else:
        cert = aut_certificate(p)
        ok = cert.ok
        data = {
            "schema_version": SCHEMA_VERSION,
            "kind": "aut_certificate",
            "prime": p,
            "method": "coordinate-section",
            "ok": ok,
            "scan_count": cert.scan_count,
            "closed_formula": cert.closed_formula,
            "factored_formula": cert.factored_formula,
            "inner_order": cert.inner_order,
            "section_order": cert.section_order,
            "intersection_trivial": cert.intersection_trivial,
            "closure_matches": cert.closure_matches,
            "section_is_gl2_image": cert.section_is_gl2_image,
            "product_equals_scan": cert.product_equals_scan,
        }
        lines = [
            "automorphism certificate at p = %d: %s" % (p, "PASS" if ok else "FAIL"),
            "  commuting-pair scan   %d" % cert.scan_count,
            "  closed formula        %d" % cert.closed_formula,
            "  factored formula      %d" % cert.factored_formula,
            "  inner subgroup        %d" % cert.inner_order,
            "  certified section     %d  (outer image of the 2x2 linear group)"
            % cert.section_order,
            "  section x inner intersect trivially: %s" % cert.intersection_trivial,
            "  section closure stays inside the certified set: %s" % cert.closure_matches,
        ]
    text = canonical_json(data) if fmt == "json" else "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if ok else 1


# -- fusion -----------------------------------------------------------------


def cmd_fusion(args: argparse.Namespace) -> int:
    fmt = _check_format(args.fmt, ("text", "json", "dot"), "text")
    cap = args.cap if args.cap is not None else DEFAULT_CAP
    with open(args.input) as fh:
        G, file_prime = group_from_json(fh.read(), cap)
    p = args.prime if args.prime is not None else file_prime
    if p is None:
        raise ValueError("no prime selected; pass --prime or store one in the input file")
    if type(p) is not int or p not in SUPPORTED_PRIMES:
        raise ValueError("prime must be one of %s, got %r" % (SUPPORTED_PRIMES, p))

    fd = FusionData(G, p)
    poset = fd.sd_poset()
    if fmt == "json":
        text = canonical_json(poset.to_json_dict())
    elif fmt == "dot":
        d = poset.collapsed_diagram() if args.collapse else poset.to_diagram()
        text = d.to_dot()
    else:
        lines = ["chain-class poset: |G| = %d, p = %d" % (G.order, p)]
        for cls in poset.classes:
            lines.append(
                "  %s: %s  size %d  |Aut_F| = %d  |Aut_L| = %d  (%s)"
                % (
                    cls.id,
                    " < ".join(cls.names),
                    cls.size,
                    cls.report.aut_f_order,
                    cls.report.aut_l_order,
                    cls.report.tag,
                )
            )
        for s, t, iso in poset.edges:
            lines.append("  edge %s -> %s%s" % (s, t, "  [iso]" if iso else ""))
        if args.collapse:
            lines.extend(_diagram_text(poset.collapsed_diagram()))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


# -- dump-group -------------------------------------------------------------


def cmd_dump_group(args: argparse.Namespace) -> int:
    _check_format(args.fmt, ("json",), "json")
    cfg = _config_from(args)
    A, B = gamma_matrices(cfg)
    gam = closure([A, B], expected=cfg.prime ** 3)
    text = group_to_json(gam, prime=cfg.prime)
    _emit(text, args.out)
    return 0


# -- parser -----------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, with_case: bool = True) -> None:
    if with_case:
        sub.add_argument("--case", choices=CASES, help="case family")
        sub.add_argument(
            "--index",
            type=int,
            choices=sorted(AZ_PRIME_OF_INDEX),
            help="reflection-group index for the az family",
        )
        sub.add_argument("--level", type=int, help="torus truncation level")
    sub.add_argument("--prime", type=int, choices=SUPPORTED_PRIMES, help="the prime p")
    sub.add_argument("--format", dest="fmt", help="output format")
    sub.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionkit",
        description="exact verification of torus-normalizer decompositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    _add_common(p_verify)
    p_verify.add_argument("--all", action="store_true", help="run every supported configuration")
    p_verify.add_argument(
        "--extended",
        action="store_true",
        help="include the long-running p = 7 normalizer tower",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_dec = sub.add_parser("decompose", help="emit the decomposition diagram")
    _add_common(p_dec)
    p_dec.add_argument(
        "--full-poset",
        action="store_true",
        help="with --format dot, emit the uncollapsed poset instead",
    )
    p_dec.set_defaults(func=cmd_decompose)

    p_aut = sub.add_parser("aut-gamma", help="automorphism certificate for the p-group core")
    _add_common(p_aut, with_case=False)
    p_aut.set_defaults(func=cmd_aut_gamma)

    p_fus = sub.add_parser("fusion", help="chain-class poset for a group-table JSON file")
    p_fus.add_argument("--input", required=True, help="group-table JSON path")
    p_fus.add_argument("--collapse", action="store_true", help="also collapse iso edges")
    p_fus.add_argument("--cap", type=int, help="largest admissible group order")
    _add_common(p_fus, with_case=False)
    p_fus.set_defaults(func=cmd_fusion)

    p_dump = sub.add_parser("dump-group", help="export a core group as group-table JSON")
    _add_common(p_dump)
    p_dump.set_defaults(func=cmd_dump_group)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve(args)
        return args.func(args)
    except (ValueError, CapExceeded, OSError) as exc:
        sys.stderr.write("fusionkit: error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
