"""Command-line front end: certify, check, curves, empirical, oracle.

Every run writes its outputs under a single directory with a manifest
recording arguments, versions, and the time of the run.  Exit codes: 0 when
the requested verdict holds, 2 when it fails, 3 on a configuration error,
argparse's refusals included.  A negative value is written --c=-inf, as
argparse reads the "-inf" of "--c -inf" as an option.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import sys
from pathlib import Path

import numpy as np

from .pipeline import (VERSION, certify, counting_oracle, emit_curves,
                      empirical_csv, empirical_report, oracle_csv, replay)
from .errors import ConfigurationError, GuardError
from .params import CERTIFICATION_C, CERTIFICATION_EPS, CERTIFICATION_X_MAX, ModelParams


class _Parser(argparse.ArgumentParser):
    """argparse's refusals raise ConfigurationError, so that they exit 3."""

    def error(self, message: str):
        raise ConfigurationError(f"{self.prog}: {message}")


def _write(args: argparse.Namespace, name: str, text: str, note: str = "") -> None:
    """Write text to name in the --out directory, if one is given, beside a
    manifest of run metadata (the outputs themselves carry no timestamp)."""
    if not args.out:
        return
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text)
    lines = [f"command: {args.command}",
             f"args: { {k: v for k, v in vars(args).items() if k != 'func'} }",
             f"timestamp: {datetime.datetime.now(datetime.timezone.utc).isoformat()}",
             f"typsat: {VERSION}", f"python: {platform.python_version()}",
             f"numpy: {np.__version__}"]
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / name}{note}")


def _print_stages(stages: list, verdict: bool, rate: float | None) -> None:
    for s in stages:
        print(f"[{'ok' if s['ok'] else 'FAIL'}] {s['name']}: {s['detail']}")
    print(f"verdict: {verdict}" + (f" (rate {rate:.9f})" if rate else ""))


def _cmd_certify(args: argparse.Namespace) -> int:
    cert = certify(c=args.c, x_max=args.xmax, eps=args.eps, mode=args.mode)
    _print_stages(cert.stages, cert.verdict, cert.rate)
    _write(args, "certificate.json", cert.dumps())
    return 0 if cert.verdict else 2


def _read_certificate(path: str) -> dict:
    """The JSON object in the file at path, or a ConfigurationError naming why not."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read certificate {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"certificate {path} is not a JSON object")
    return data


def _cmd_check(args: argparse.Namespace) -> int:
    rerun, disagreements = replay(_read_certificate(args.certificate))
    _print_stages(rerun.stages, rerun.verdict, rerun.rate)
    print(f"disagreements: {', '.join(disagreements) or 'none'}")
    return 0 if rerun.verdict and not disagreements else 2


def _cmd_curves(args: argparse.Namespace) -> int:
    params = ModelParams(c=args.c, x_max=args.xmax, epsilon=args.eps)
    rows, text = emit_curves(params, args.density)
    _write(args, "curves.csv", text, f" ({len(rows)} samples per locus)")
    if not args.out:
        sys.stdout.write(text)
    return 0


def _cmd_empirical(args: argparse.Namespace) -> int:
    report = empirical_report(args.n, args.c, args.formulas, args.seed,
                                 x_cap=args.xcap,
                                 pps_sub=(args.pps_n, args.pps_formulas)
                                 if args.pps_formulas else None)
    print(f"max |mean omega - kappa| = {report['max_abs_deviation']:.3e}; "
          f"cells over budget: {report['cells_over_budget']}; ok: {report['ok']}")
    if "pps_subreport" in report:
        sub = report["pps_subreport"]
        print(f"pps subreport at n={sub['n']}: {sub['satisfiable_with_pps']}/"
              f"{sub['satisfiable']} satisfiable formulas have a locally maximal "
              f"solution; ok: {sub['ok']}")
    _write(args, "empirical.csv", empirical_csv(report))
    ok = report["ok"] and report.get("pps_subreport", {}).get("ok", True)
    return 0 if ok else 2


def _cmd_oracle(args: argparse.Namespace) -> int:
    result = counting_oracle(args.n, args.c)
    untypable = result["untypable_pairs"]
    print(f"{result['formulas']} formulas, {result['pairs']} locally-maximal pairs, "
          f"{untypable} untypable ({untypable / result['pairs']:.1%}), "
          f"{result['signatures']} signatures, {result['violations']} bound violations")
    _write(args, "oracle.csv", oracle_csv(result))
    return 0 if result["ok"] else 2


def build_parser() -> argparse.ArgumentParser:
    model = _Parser(add_help=False)
    model.add_argument("--c", type=float, default=CERTIFICATION_C)
    model.add_argument("--xmax", type=int, default=CERTIFICATION_X_MAX)
    model.add_argument("--eps", type=float, default=CERTIFICATION_EPS)
    out = _Parser(add_help=False)
    out.add_argument("--out", type=str, default="")
    parser = _Parser(
        prog="typsat",
        description=f"Certified first-moment bound {CERTIFICATION_C} for random 3-SAT.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", parents=[model, out], help="run the full certification pipeline")
    p.add_argument("--mode", choices=("float", "interval"), default="float")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("check", help="recompute a certificate's stages from its stored trace")
    p.add_argument("certificate", type=str)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("curves", parents=[model, out],
                       help="sample the eq1=0 and eq2=0 loci to CSV")
    p.add_argument("--density", type=int, default=60)
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("empirical", parents=[out],
                       help="occurrence-distribution measurement report")
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--c", type=float, default=CERTIFICATION_C)
    p.add_argument("--formulas", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--xcap", type=int, default=8)
    p.add_argument("--pps-n", type=int, default=12)
    p.add_argument("--pps-formulas", type=int, default=0,
                   help="when > 0, add an exhaustive locally-maximal subreport")
    p.set_defaults(func=_cmd_empirical)

    p = sub.add_parser("oracle", parents=[out], help="exhaustive tiny-instance counting comparison")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--c", type=float, default=0.5)
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigurationError, GuardError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
