"""Command-line front end: one subcommand per experiment kind.

Exit codes: 0 every check passed; 1 at least one check failed (the failing
checks are listed); 2 the configuration was invalid or infeasible, a
diverged integration or an exhausted step budget included; 3 an internal
error. Flags override the config document's top-level fields, and the
subcommand fixes the experiment kind.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import CapabilityError, DivergenceError, InputError, SolverError
from .config import config_from, load_config
from .experiments import run_experiment

_COMMANDS = {
    "flow": "integrate one continuous-time flow and check its certificates",
    "optimize": "run a discrete method and check its per-iteration invariants",
    "compare": "overlay a discrete run on its continuous limit at t = delta k",
    "dilation-check": "verify that speeding up the order-2 flow gives order p",
    "restart": "run the restarted scheme and check its epoch contraction",
    "naive-demo": "contrast the diverging naive scheme with the certified one",
    "acceptance": "run the full acceptance suite (--scale quick|full)",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accelflow",
        description="accelerated-dynamics experiments with checked certificates",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, blurb in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=blurb, description=blurb)
        sub.add_argument("--config", default=None, metavar="PATH",
                         help="JSON experiment config; flags override its fields")
        sub.add_argument("--out", default=None, metavar="DIR",
                         help="directory for CSVs, plot data, and summary.json")
        sub.add_argument("--seed", type=int, default=None,
                         help="run seed, recorded in the summary")
        if name == "acceptance":
            sub.add_argument("--scale", choices=("quick", "full"), default=None,
                             help="suite scale (quick is the default)")
    return parser


def _print_summary(summary) -> None:
    for check in summary.checks:
        numbers = ""
        if check.measured is not None:
            numbers += f"  measured={check.measured:.6g}"
        if check.bound is not None:
            numbers += f"  bound={check.bound:.6g}"
        print(f"[{check.status.upper():>4s}] {check.name}{numbers}"
              f"  ({check.runtime:.2f}s)")
        if check.detail:
            print(f"       {check.detail}")
    counts = summary.counts()
    print(f"{summary.kind}: {counts['pass']} passed, {counts['fail']} failed, "
          f"{counts['skip']} skipped in {summary.total_runtime:.1f}s")
    if not summary.all_pass:
        print("failing: " + ", ".join(summary.failing()))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    kind = args.command.replace("-", "_")
    try:
        doc = load_config(args.config) if args.config else {}
        cfg = config_from(doc, kind=kind, out=args.out,
                          seed=args.seed, scale=getattr(args, "scale", None))
        summary = run_experiment(cfg)
    except (InputError, CapabilityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, DivergenceError) as exc:
        print(f"infeasible run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the boundary turns bugs into exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    _print_summary(summary)
    if cfg.out and summary.files:
        print(f"artifacts: {cfg.out} ({len(summary.files)} files)")
    # a check that raised is a bug; a worker process that died is a failed run
    if any(check.extras.get("internal_error") and not check.extras.get("worker_died")
           for check in summary.checks):
        return 3
    return 0 if summary.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
