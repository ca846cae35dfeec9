"""Command-line front end.

Single-file scan, directory batch scan, and fleet matrix emission, fully
offline. Every mode runs one way: collect the input paths, scan them in
order, write one output, then name each failed file on stderr. ``-f`` is
that loop over one file: it prints a single report (nothing if the file
fails) and no failure summary. Exit codes are a stable contract for CI use:

    0   scan finished, no finding at or above the --fail-on threshold
    1   at least one finding at or above the threshold
    2   usage error
    3   a file could not be read, scanned or written

A file that fails to scan, whatever the exception, is named on stderr as
``bankscan: PATH: Type: message``. Batch and matrix runs keep scanning past
it and summarize the failures at the end, and exit code 3 then takes
precedence over 1. An output that cannot be written, the ``-o`` file or
stdout (named ``<stdout>``, as when its reader has closed the pipe), is
named on stderr the same way and also gives 3.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import NamedTuple

from .report import FORMATS, build_fleet_matrix, duplicate_app_names, render_report, serialize, serialize_reports
from .rules import RULES, ScanResult, Severity
from .scanner import scan_bytes

PROG = "bankscan"

USAGE = f"""usage: {PROG} [options] [apk ...]

modes (choose one):
  -f, --file APK     scan a single APK and print its report
      --dir PATH     scan every *.apk under PATH (batch); may combine with
                     positional apk arguments
      --matrix       emit the apps-by-rules fleet matrix instead of reports
                     (inputs as for batch mode)
  -h, --help         show this help

options:
  -o, --output PATH  write output to PATH instead of stdout
      --format FMT   output format: text, json or csv (default: text)
      --fail-on SEV  exit 1 if any finding is at least SEV
                     (critical, warning, notice, info)

exit codes: 0 ok, 1 findings at/above --fail-on, 2 usage error,
            3 a file could not be read, scanned or written
"""


class CliUsageError(Exception):
    """Bad command line; rendered as usage text with exit code 2."""


class UnknownFlagError(CliUsageError):
    pass


class MissingArgumentError(CliUsageError):
    pass


class ConflictingModesError(CliUsageError):
    pass


class CliConfig(NamedTuple):
    """The parsed command line."""

    mode: str  # scan | batch | matrix | help
    inputs: tuple[Path, ...] = ()
    dirs: tuple[Path, ...] = ()
    output_path: Path | None = None
    fmt: str = "text"
    fail_threshold: Severity | None = None


def parse_args(argv: list[str]) -> CliConfig:
    single: Path | None = None
    dirs: list[Path] = []
    positionals: list[Path] = []
    matrix = False
    show_help = False
    output: Path | None = None
    fmt = "text"
    fail_on: Severity | None = None

    def take_value(flag: str, it) -> str:
        try:
            return next(it)
        except StopIteration:
            raise MissingArgumentError(f"{flag} requires a value") from None

    it = iter(argv)
    for arg in it:
        if arg in ("-h", "--help"):
            show_help = True
        elif arg in ("-f", "--file"):
            if single is not None:
                raise ConflictingModesError("-f given more than once")
            single = Path(take_value(arg, it))
        elif arg == "--dir":
            dirs.append(Path(take_value(arg, it)))
        elif arg == "--matrix":
            matrix = True
        elif arg in ("-o", "--output"):
            output = Path(take_value(arg, it))
        elif arg == "--format":
            fmt = take_value(arg, it)
            if fmt not in FORMATS:
                raise CliUsageError(f"unknown format {fmt!r}, expected one of {FORMATS}")
        elif arg == "--fail-on":
            value = take_value(arg, it)
            try:
                fail_on = Severity(value)
            except ValueError:
                raise CliUsageError(
                    f"unknown severity {value!r}, expected critical/warning/notice/info"
                ) from None
        elif arg.startswith("-") and arg != "-":
            raise UnknownFlagError(f"unknown flag {arg!r}")
        else:
            positionals.append(Path(arg))

    if show_help:
        return CliConfig(mode="help")
    if single is not None and (dirs or matrix or positionals):
        raise ConflictingModesError("-f cannot be combined with --dir, --matrix or positional inputs")
    if single is not None:
        return CliConfig(
            mode="scan",
            inputs=(single,),
            output_path=output,
            fmt=fmt,
            fail_threshold=fail_on,
        )
    if not dirs and not positionals:
        raise MissingArgumentError("no inputs: give -f APK, --dir PATH or positional apk paths")
    return CliConfig(
        mode="matrix" if matrix else "batch",
        inputs=tuple(positionals),
        dirs=tuple(dirs),
        output_path=output,
        fmt=fmt,
        fail_threshold=fail_on,
    )


def _write_output(config: CliConfig, payload: bytes) -> bool:
    """Write ``payload`` to ``-o`` or stdout; False, after one stderr line naming the target, if the write fails."""
    path = config.output_path
    try:
        if path is None:
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
        else:
            path.write_bytes(payload)
    except OSError as exc:
        target = "<stdout>" if path is None else path
        sys.stderr.write(f"{PROG}: {target}: {type(exc).__name__}: {exc}\n")
        return False
    return True


def _threshold_hit(results: list[ScanResult], threshold: Severity | None) -> bool:
    if threshold is None:
        return False
    return any(
        RULES[finding.rule].severity.rank >= threshold.rank
        for result in results
        for finding in result.findings
    )


def _collect_inputs(config: CliConfig) -> list[Path]:
    files = list(config.inputs)
    for d in config.dirs:
        files.extend(sorted(d.glob("*.apk"), key=lambda p: p.name))  # one directory: same order as the paths
    return files


def _scan_many(paths: list[Path]):
    """Scan in input order; returns (results, errors). A file that raises is an error, not the end of the batch."""
    results: list[ScanResult] = []
    errors: list[tuple[Path, str]] = []
    for path in paths:
        try:
            results.append(scan_bytes(path.read_bytes(), path.name))
        except Exception as exc:
            errors.append((path, f"{type(exc).__name__}: {exc}"))
    return results, errors


def execute(config: CliConfig) -> int:
    if config.mode == "help":
        return 0 if _write_output(config, USAGE.encode()) else 3
    paths = _collect_inputs(config)
    if not paths:
        sys.stderr.write(f"{PROG}: no .apk files found in the given inputs\n")
        return 3
    if config.mode == "matrix":
        clashes = duplicate_app_names(p.name for p in paths)
        if clashes:
            raise CliUsageError(f"matrix rows are keyed by file name; duplicate names: {clashes}")
    results, errors = _scan_many(paths)

    if config.mode == "batch":
        written = _write_output(config, serialize_reports([render_report(r) for r in results], config.fmt))
    elif not results:  # -f and --matrix write nothing when every file failed
        written = True
    elif config.mode == "matrix":
        written = _write_output(config, serialize(build_fleet_matrix(results), config.fmt))
    else:
        written = _write_output(config, serialize(render_report(results[0]), config.fmt))

    for path, message in errors:
        sys.stderr.write(f"{PROG}: {path}: {message}\n")
    if errors and config.mode != "scan":
        sys.stderr.write(f"{PROG}: {len(errors)} of {len(paths)} file(s) failed to scan\n")
    if errors or not written:
        return 3
    return 1 if _threshold_hit(results, config.fail_threshold) else 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_args(argv)
        return execute(config)
    except CliUsageError as exc:
        sys.stderr.write(f"{PROG}: error: {exc}\n\n{USAGE}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
