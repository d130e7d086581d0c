"""Command line for protolint: ``python -m repro.analysis`` (also
installed as the ``protolint`` console script).

Exit codes: 0 = no new findings, 1 = new findings, 2 = bad invocation.
By default only ``error``-severity findings affect the exit code;
``--strict`` counts warnings too.  A baseline file (default
``protolint.baseline.json`` next to the analyzed tree, when present)
lists accepted findings by fingerprint; anything not in it is *new*.

``--format github`` emits GitHub Actions workflow annotations
(``::error file=...,line=...``) so findings surface inline on the PR
diff; ``--format sarif`` emits a SARIF 2.1.0 log suitable for GitHub
code-scanning upload; ``--check-baseline`` enforces baseline hygiene —
it exits 1 when the baseline lists fingerprints that no longer fire (the
baseline can only ever shrink) or when a baseline entry or an inline
``ignore[...]`` names a pass that no longer exists.

A ``protolint.config.json`` in the working directory supplies the
default analyzed trees (and exclusion prefixes) when no paths are given
on the command line, so CI lints ``benchmarks/`` and ``examples/``
alongside ``src/repro`` while the test trees stay exempt.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.baseline import filter_new, load_baseline_entries, write_baseline
from repro.analysis.core import Finding, ModuleUnit, Pass, run_passes
from repro.analysis.passes import all_passes
from repro.core.errors import AnalysisError

__all__ = ["main", "collect_units", "default_target", "load_config"]

DEFAULT_BASELINE_NAME = "protolint.baseline.json"
DEFAULT_CONFIG_NAME = "protolint.config.json"


def default_target() -> Path:
    """The tree to analyze when no paths are given.

    Prefer ``src/repro`` under the current directory (the repo layout);
    fall back to the installed package's own directory.
    """
    candidate = Path("src") / "repro"
    if candidate.is_dir():
        return candidate
    return Path(__file__).resolve().parent.parent


def load_config(path: Path) -> dict[str, list[str]]:
    """Parse ``protolint.config.json``: ``paths`` and ``exclude`` lists.

    Both keys are optional; unknown keys are rejected so typos fail
    loudly instead of silently linting the wrong tree.
    """
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise AnalysisError(f"{path}: cannot read config: {exc}") from exc
    if not isinstance(raw, dict):
        raise AnalysisError(f"{path}: config must be a JSON object")
    unknown = set(raw) - {"paths", "exclude"}
    if unknown:
        raise AnalysisError(
            f"{path}: unknown config key(s): {', '.join(sorted(unknown))}"
        )
    config: dict[str, list[str]] = {}
    for key in ("paths", "exclude"):
        value = raw.get(key, [])
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise AnalysisError(f"{path}: config key {key!r} must be a list of strings")
        config[key] = value
    return config


def collect_units(
    paths: Sequence[Path], exclude: Sequence[str] = ()
) -> list[ModuleUnit]:
    units: list[ModuleUnit] = []
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files = sorted(path.rglob("*.py"))
        elif path.is_file():
            files = [path]
        else:
            raise AnalysisError(f"no such file or directory: {path}")
        for file in files:
            posix = file.as_posix()
            if any(posix.startswith(prefix) for prefix in exclude):
                continue
            resolved = file.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            units.append(ModuleUnit.from_path(file))
    return units


def _render_github(new: list[Finding]) -> str:
    """GitHub Actions workflow annotations, one per finding."""
    lines = []
    for finding in new:
        level = "error" if finding.severity == "error" else "warning"
        # Annotation messages are single-line; the %0A escape is the
        # documented newline encoding for workflow commands.
        message = finding.message.replace("%", "%25").replace("\n", "%0A")
        lines.append(
            f"::{level} file={finding.path},line={finding.line},"
            f"title=protolint[{finding.pass_id}]::{message}"
        )
    lines.append(f"protolint: {len(new)} finding(s)")
    return "\n".join(lines)


def _render_sarif(new: list[Finding], passes: Sequence[Pass]) -> str:
    """SARIF 2.1.0 log for GitHub code-scanning upload.

    Output is fully deterministic: rules sorted by id, results already
    in the runner's ``(path, line, pass, message)`` order, and the JSON
    serialized with sorted keys.
    """
    rules = [
        {
            "id": pass_.id,
            "name": pass_.id,
            "shortDescription": {"text": pass_.description},
        }
        for pass_ in sorted(passes, key=lambda p: p.id)
    ]
    results = [
        {
            "ruleId": finding.pass_id,
            "level": "error" if finding.severity == "error" else "warning",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {"startLine": finding.line},
                    }
                }
            ],
            "partialFingerprints": {"protolint/v1": finding.fingerprint},
        }
        for finding in new
    ]
    log = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "protolint",
                        "rules": rules,
                    }
                },
                "results": results,
                "columnKind": "utf16CodeUnits",
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True)


def _check_baseline(
    findings: list[Finding],
    entries: list[dict[str, object]],
    known_passes: set[str],
    units: list[ModuleUnit],
) -> int:
    """Baseline hygiene: every baselined fingerprint must still fire,
    and every entry's recorded pass — and every inline ``ignore[...]``
    id — must still exist (a renamed or deleted pass orphans them: they
    could never fire, or suppress, again)."""
    problems = 0
    current = {finding.fingerprint for finding in findings}
    accepted = {str(entry["fingerprint"]) for entry in entries}
    for fingerprint in sorted(accepted - current):
        problems += 1
        print(
            f"protolint: stale baseline entry {fingerprint}: the finding no "
            "longer fires — delete it so the baseline only shrinks"
        )
    for entry in entries:
        pass_id = entry.get("pass")
        if isinstance(pass_id, str) and pass_id not in known_passes:
            problems += 1
            print(
                f"protolint: baseline entry {entry['fingerprint']} names "
                f"unknown pass {pass_id!r} — the pass no longer exists, so "
                "the entry can never fire again; delete it"
            )
    for unit in units:
        for line, pass_id in unit.suppressed_ids():
            if pass_id not in known_passes:
                problems += 1
                print(
                    f"{unit.display_path}:{line}: protolint: inline ignore "
                    f"names unknown pass {pass_id!r} — it suppresses nothing; "
                    "delete it"
                )
    if problems:
        return 1
    print(
        f"protolint: baseline ok ({len(accepted)} entr"
        f"{'y' if len(accepted) == 1 else 'ies'}, none stale)"
    )
    return 0


def _render_text(findings: list[Finding], new: list[Finding], strict: bool) -> str:
    lines = [finding.render() for finding in new]
    baselined = len(findings) - len(new)
    errors = sum(1 for f in new if f.severity == "error")
    warnings = len(new) - errors
    summary = f"protolint: {errors} error(s), {warnings} warning(s)"
    if baselined:
        summary += f", {baselined} baselined"
    if strict:
        summary += " [strict]"
    lines.append(summary)
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "state-table":
        # Subcommand delegation: `python -m repro.analysis state-table
        # --write` regenerates the docs block, `--check` verifies it.
        from repro.core.state_table import main as state_table_main

        return state_table_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="protolint: protocol-aware static analysis for the repro tree",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "github", "sarif"],
        default="text",
        help="output format (default: text; github = workflow annotations; "
        "sarif = SARIF 2.1.0 for code-scanning upload)",
    )
    parser.add_argument(
        "--config",
        type=Path,
        help=f"config file supplying default paths/exclusions "
        f"(default: {DEFAULT_CONFIG_NAME} if it exists)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated pass ids to run (default: all)",
    )
    parser.add_argument(
        "--disable",
        metavar="IDS",
        help="comma-separated pass ids to skip",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        help=f"baseline file (default: {DEFAULT_BASELINE_NAME} if it exists)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="baseline hygiene: exit 1 if the baseline lists findings "
        "that no longer fire (the baseline may only shrink) or a baseline "
        "entry / inline ignore names a pass that does not exist",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="warnings also affect the exit code",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run passes on N worker threads (the project graph and all "
        "ASTs are built once either way; output is identical)",
    )
    parser.add_argument(
        "--list-passes",
        action="store_true",
        help="list available passes and exit",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    passes = all_passes()
    known_passes = {pass_.id for pass_ in passes}
    if args.list_passes:
        for pass_ in passes:
            print(f"{pass_.id:22s} {pass_.description}")
        return 0

    known = known_passes
    for option in ("select", "disable"):
        raw = getattr(args, option)
        if raw is None:
            continue
        ids = {part.strip() for part in raw.split(",") if part.strip()}
        unknown = ids - known
        if unknown:
            parser.error(f"unknown pass id(s) for --{option}: {', '.join(sorted(unknown))}")
        if option == "select":
            passes = [pass_ for pass_ in passes if pass_.id in ids]
        else:
            passes = [pass_ for pass_ in passes if pass_.id not in ids]

    config_path = args.config
    if config_path is None:
        implicit_config = Path(DEFAULT_CONFIG_NAME)
        if implicit_config.is_file():
            config_path = implicit_config
    exclude: list[str] = []
    paths = list(args.paths)
    try:
        if config_path is not None and not paths:
            # Config supplies defaults only; explicit CLI paths analyze
            # exactly what was asked for (the test fixtures live under
            # an excluded tree and must still be lintable by name).
            config = load_config(config_path)
            exclude = config["exclude"]
            paths = [Path(p) for p in config["paths"]]
    except AnalysisError as exc:
        print(f"protolint: {exc}", file=sys.stderr)
        return 2
    if not paths:
        paths = [default_target()]
    baseline_path = args.baseline
    if baseline_path is None:
        implicit = Path(DEFAULT_BASELINE_NAME)
        if implicit.is_file():
            baseline_path = implicit

    try:
        units = collect_units(paths, exclude)
        findings = run_passes(units, passes, jobs=args.jobs)
        if args.write_baseline:
            target = baseline_path or Path(DEFAULT_BASELINE_NAME)
            write_baseline(target, findings)
            print(f"protolint: wrote {len(findings)} finding(s) to {target}")
            return 0
        entries: list[dict[str, object]] = []
        if baseline_path is not None:
            entries = load_baseline_entries(baseline_path)
        accepted = {str(entry["fingerprint"]) for entry in entries}
    except AnalysisError as exc:
        print(f"protolint: {exc}", file=sys.stderr)
        return 2

    if args.check_baseline:
        return _check_baseline(findings, entries, known_passes, units)

    new = filter_new(findings, accepted)

    if args.format == "github":
        print(_render_github(new))
    elif args.format == "sarif":
        print(_render_sarif(new, passes))
    elif args.format == "json":
        payload = {
            "version": 1,
            "passes": sorted(pass_.id for pass_ in passes),
            "files": len(units),
            "findings": [finding.to_json() for finding in new],
            "baselined": len(findings) - len(new),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(_render_text(findings, new, args.strict))

    gating = new if args.strict else [f for f in new if f.severity == "error"]
    return 1 if gating else 0
