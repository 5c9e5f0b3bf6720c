"""Command-line front-end.

``run`` executes one scenario, bundled (by name) or from a config file (by
path), and writes deterministic artifacts plus a manifest:

    combphase run rwa_validity --out out/rwa
    combphase run my_config.yaml --seed 3 --format json
    combphase list [--tag T] [--json]  # bundled scenario catalogue

Exit codes: 0 success, 2 config/schema violation, 3 numeric failure,
4 wrap-ambiguity abort.
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    DegenerateFitError,
    IntegrationError,
    ScenarioConfigError,
    SingularInformationError,
    WrapAmbiguityError,
)
from .scenarios import list_scenarios, run_scenario

EXIT_SCHEMA = 2
EXIT_NUMERIC = 3
EXIT_WRAP = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combphase",
        description="Frequency-comb pulse-train interferometry simulator and estimator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rp = sub.add_parser("run", help="run a bundled scenario or a config file")
    rp.add_argument("scenario", metavar="NAME|PATH", help="bundled scenario name or config file path")
    rp.add_argument("--seed", type=int, default=None, help="override the config seed")
    rp.add_argument("--out", default=".", help="output directory (default: cwd)")
    rp.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    lp = sub.add_parser("list", help="list bundled scenarios")
    lp.add_argument("--tag", default=None, help="only scenarios carrying this tag")
    lp.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        infos = list_scenarios(tag=args.tag)
        if args.json:
            print(json.dumps(infos, indent=2))
        else:
            for info in infos:
                tags = ",".join(info["tags"])
                print(f"{info['name']:28s} [{tags}] {info['description']}")
        return 0
    try:
        result = run_scenario(args.scenario, args.out, seed=args.seed, fmt=args.fmt)
    except ScenarioConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except WrapAmbiguityError as e:
        print(f"wrap ambiguity: {e}", file=sys.stderr)
        return EXIT_WRAP
    except (IntegrationError, SingularInformationError, DegenerateFitError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    print(json.dumps(result["summary"], indent=2))
    for a in result["artifacts"]:
        print(f"wrote {a}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
