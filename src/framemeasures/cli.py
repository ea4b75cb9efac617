"""Command-line front end.

Exit codes: 0 all checks pass, 1 a check failed, 2 config error,
3 internal/module error.
"""
import argparse
import dataclasses
import functools
import json
import sys

from .errors import ConfigError, FrameMeasuresError
from .report import DEFAULT_TOLERANCES, ExperimentConfig, report_csv_text
from .suites import COMMANDS, run

# the integer fields of ExperimentConfig (seed, samples, dim) and their defaults
_SETTINGS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig) if f.type is int}


def _parse_tolerances(pairs):
    # ExperimentConfig refuses unknown names
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--tolerance takes NAME=VALUE, got {pair!r}")
        name, _, value = pair.partition("=")
        try:
            out[name] = float(value)
        except ValueError:
            raise ConfigError(f"tolerance {name!r} needs a numeric value, got {value!r}")
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subcommand per entry of the command table, built once per process:
    parsing leaves the parser as it was (`--tolerance` appends to a fresh
    list on each parse)."""
    parser = argparse.ArgumentParser(
        prog="framemeasures",
        description="Frame-induced measures with seeded Monte-Carlo verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for inp in command.inputs:
            p.add_argument(inp.name, help=inp.help)
        for opt in command.options:
            # ExperimentConfig parses, defaults and checks exclusive pairs
            kwargs = {"action": "store_true"} if isinstance(opt.default, bool) else {}
            p.add_argument(opt.flag, help=opt.help, **kwargs)
        for setting, default in _SETTINGS.items():
            p.add_argument(f"--{setting}", type=int, default=default)
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument(
            "--tolerance", action="append", metavar="NAME=VALUE",
            help=f"override a tolerance; known: {sorted(DEFAULT_TOLERANCES)}",
        )
    return parser


def config_from_args(args) -> ExperimentConfig:
    command = COMMANDS[args.command]
    return ExperimentConfig(
        command=args.command,
        **{setting: getattr(args, setting) for setting in _SETTINGS},
        tolerances=_parse_tolerances(args.tolerance),
        inputs=tuple(getattr(args, inp.name) for inp in command.inputs),
        options={opt.name: getattr(args, opt.name) for opt in command.options},
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = run(config_from_args(args))
    except (ConfigError, OSError) as exc:
        # OSError: an input path that is missing, a directory or unreadable
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: malformed JSON: {exc}", file=sys.stderr)
        return 2
    except FrameMeasuresError as exc:
        print(f"{args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"{args.command}: internal error: {exc}", file=sys.stderr)
        return 3

    text = report_csv_text(report) if args.format == "csv" else report.to_json() + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"config error: --out: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if report.overall_pass else 1


if __name__ == "__main__":
    sys.exit(main())
