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

Exit status: 0 when every reported check passes, 1 when any check fails,
2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Option:
    """One flag.  With env set, the variable FUSIONKIT_<FLAG> stands in for
    an absent flag, converted by the same type and checked against the
    same choices.  A bool option is a switch, set by its flag alone."""

    help: str
    type: type = str
    choices: tuple | None = None
    env: bool = True
    required: bool = False
    dest: str | None = None


OPTIONS = {
    "case": Option("case family", choices=CASES),
    "index": Option("reflection-group index for the az family", int,
                    tuple(sorted(AZ_PRIME_OF_INDEX))),
    "level": Option("torus truncation level", int),
    "prime": Option("the prime p", int, SUPPORTED_PRIMES),
    "format": Option("output format", dest="fmt"),
    "out": Option("output path (default: stdout)"),
    "cap": Option("largest admissible group order", int),
    "all": Option("run every supported configuration", bool, env=False),
    "full-poset": Option("with --format dot, emit the uncollapsed poset instead", bool, env=False),
    "collapse": Option("also collapse iso edges", bool, env=False),
    "input": Option("group-table JSON path", env=False, required=True),
}


def _var(name: str) -> str:
    return ENV_PREFIX + name.upper().replace("-", "_")


def _missing(name: str) -> ValueError:
    return ValueError("no %s selected; pass --%s or set %s" % (name, name, _var(name)))


def _from_env(name: str, opt: Option):
    """The value of FUSIONKIT_<NAME>, or None when it is unset or empty."""
    var = _var(name)
    text = os.environ.get(var, "")
    if text == "":
        return None
    try:
        value = opt.type(text)
    except ValueError:
        raise ValueError("%s: %s must be an integer, got %r" % (var, name, text)) from None
    if opt.choices is not None and value not in opt.choices:
        raise ValueError("%s: %s must be one of %s, got %r" % (var, name, opt.choices, text))
    return value


def _resolve(args: argparse.Namespace) -> None:
    """Fill each option that no flag set (None; other subcommands' options
    are absent from args) from its variable, if any.  args.from_env maps
    the name of each option so filled to its variable's text, for the
    errors of the checks that come later."""
    args.from_env = {}
    for name, opt in OPTIONS.items():
        dest = opt.dest or name.replace("-", "_")
        if opt.env and getattr(args, dest, True) is None:
            value = _from_env(name, opt)
            if value is not None:
                setattr(args, dest, value)
                args.from_env[name] = os.environ[_var(name)]


def _env_note(args: argparse.Namespace, names) -> str:
    """The variables that set any of the named options, as a suffix for an
    error that refuses their combination; empty when flags set them all."""
    used = ["%s=%s" % (_var(n), args.from_env[n]) for n in names if n in args.from_env]
    return " (set by %s)" % ", ".join(used) if used else ""


def _config_from(args: argparse.Namespace) -> CaseConfig:
    case = args.case
    prime = args.prime
    index = args.index
    if case is None and index is not None:
        case = "az"
    if case == "az" and prime is None and index is not None:
        prime = AZ_PRIME_OF_INDEX.get(index)
    if case is None:
        raise _missing("case")
    if prime is None:
        raise _missing("prime")
    try:
        return CaseConfig(case, prime, level=args.level, az_index=index)
    except ValueError as exc:
        raise ValueError(str(exc) + _env_note(args, ("case", "prime", "level", "index"))) from None


def _check_format(args: argparse.Namespace, allowed: tuple[str, ...], default: str) -> str:
    fmt = args.fmt
    if fmt is None:
        return default
    if fmt not in allowed:
        raise ValueError("format %r not valid here; choose from %s%s"
                         % (fmt, "/".join(allowed), _env_note(args, ("format",))))
    return fmt


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


# -- verify -----------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    fmt = _check_format(args, ("text", "json"), "text")
    if args.all:
        configs = all_configs()
    else:
        configs = [_config_from(args)]
    reports = [run_suite(cfg) for cfg in configs]
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


def _edge_lines(edges) -> list[str]:
    return ["  edge %s -> %s%s" % (s, t, "  [iso]" if a.get("iso") else "")
            for s, t, a in sorted(edges, key=lambda e: e[:2])]


def _diagram_text(d) -> list[str]:
    lines = ["diagram %s" % d.name]
    for key in sorted(d.nodes):
        lines.append("  node %s: %s" % (key, d.nodes[key].label))
    return lines + _edge_lines(d.edges)


def cmd_decompose(args: argparse.Namespace) -> int:
    fmt = _check_format(args, ("text", "json", "dot"), "text")
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
    fmt = _check_format(args, ("text", "json"), "text")
    p = args.prime
    if p is None:
        raise _missing("prime")

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
    fmt = _check_format(args, ("text", "json", "dot"), "text")
    cap = args.cap if args.cap is not None else DEFAULT_CAP
    with open(args.input, encoding="utf-8") as fh:
        try:
            G, file_prime = group_from_json(fh, cap)
        except CapExceeded as exc:
            raise CapExceeded(str(exc) + _env_note(args, ("cap",))) from None
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
        for row in poset.rows:
            lines.append(
                "  %s: %s  size %d  |Aut_F| = %d  |Aut_L| = %d  (%s)"
                % (row["id"], " < ".join(row["chain"]), row["class_size"],
                   row["autF_order"], row["autL_order"], row["tag"])
            )
        lines.extend(_edge_lines(poset.edges))
        if args.collapse:
            lines.extend(_diagram_text(poset.collapsed_diagram()))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


# -- dump-group -------------------------------------------------------------


def cmd_dump_group(args: argparse.Namespace) -> int:
    _check_format(args, ("json",), "json")
    cfg = _config_from(args)
    A, B = gamma_matrices(cfg)
    gam = closure([A, B], expected=cfg.prime ** 3)
    text = group_to_json(gam, prime=cfg.prime)
    _emit(text, args.out)
    return 0


# -- parser -----------------------------------------------------------------


CONFIG = ("case", "index", "level", "prime", "format", "out")

COMMANDS = {
    "verify": (cmd_verify, "run a verification suite", CONFIG + ("all",)),
    "decompose": (cmd_decompose, "emit the decomposition diagram", CONFIG + ("full-poset",)),
    "aut-gamma": (cmd_aut_gamma, "automorphism certificate for the p-group core",
                  ("prime", "format", "out")),
    "fusion": (cmd_fusion, "chain-class poset for a group-table JSON file",
               ("input", "collapse", "cap", "prime", "format", "out")),
    "dump-group": (cmd_dump_group, "export a core group as group-table JSON", CONFIG),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionkit",
        description="exact verification of torus-normalizer decompositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, names) in COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        for name in names:
            opt = OPTIONS[name]
            if opt.type is bool:
                kwargs = {"action": "store_true"}
            else:
                kwargs = {"type": opt.type, "choices": opt.choices, "required": opt.required}
            cmd.add_argument("--" + name, dest=opt.dest, help=opt.help, **kwargs)
        cmd.set_defaults(func=func)
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
