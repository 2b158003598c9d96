"""``hqs-lint`` command line front end.

Exit codes follow the convention of the other repro tools:

* ``0`` — clean (no new findings, no stale baseline entries),
* ``1`` — violations (new findings and/or stale baseline entries),
* ``2`` — usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .baseline import load_baseline, split_by_baseline, stale_to_dicts, write_baseline
from .config import LintConfig, load_config
from .engine import AnalysisError, analyze_sources, load_sources
from .framework import all_rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqs-lint",
        description="AST-based invariant analyzer for the repro solver stack",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: [tool.hqs-lint] paths)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--config",
        type=Path,
        default=None,
        help="pyproject.toml to read [tool.hqs-lint] from (default: ./pyproject.toml)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline file (default: [tool.hqs-lint] baseline setting)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: report every finding as new",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to the current findings and exit 0",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to run (overrides config select)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule codes to skip (overrides config ignore)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _list_rules() -> int:
    for rule_cls in all_rules():
        print(f"{rule_cls.code} {rule_cls.name} ({rule_cls.severity})")
        doc = (rule_cls.__doc__ or "").strip().split("\n")[0]
        if doc:
            print(f"    {doc}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        return _list_rules()

    if args.config is not None and not args.config.is_file():
        print(f"hqs-lint: config not found: {args.config}", file=sys.stderr)
        return 2
    try:
        config = load_config(args.config)
    except RuntimeError as exc:
        print(f"hqs-lint: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"hqs-lint: bad config: {exc}", file=sys.stderr)
        return 2
    if args.select:
        config.raw["select"] = [c.strip() for c in args.select.split(",") if c.strip()]
    if args.ignore:
        config.raw["ignore"] = [c.strip() for c in args.ignore.split(",") if c.strip()]

    paths = args.paths or config.paths
    if not paths:
        print("hqs-lint: no paths to analyze", file=sys.stderr)
        return 2

    try:
        sources = load_sources(paths)
        findings = analyze_sources(sources, config)
    except AnalysisError as exc:
        print(f"hqs-lint: {exc}", file=sys.stderr)
        return 2

    baseline_path = args.baseline or Path(config.baseline)

    if args.update_baseline:
        write_baseline(baseline_path, findings)
        print(f"hqs-lint: wrote {len(findings)} baseline entries to {baseline_path}")
        return 0

    if args.no_baseline:
        baseline = set()
    else:
        try:
            baseline = load_baseline(baseline_path)
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"hqs-lint: bad baseline: {exc}", file=sys.stderr)
            return 2

    new, grandfathered, stale = split_by_baseline(findings, baseline)
    failed = bool(new or stale)

    if args.format == "json":
        payload = {
            "version": 1,
            "files": len(sources),
            "findings": [f.to_dict() for f in new],
            "grandfathered": [f.to_dict() for f in grandfathered],
            "stale_baseline": stale_to_dicts(stale),
            "ok": not failed,
        }
        print(json.dumps(payload, indent=2))
    else:
        for finding in new:
            print(finding.render())
        for code, path, message in stale:
            print(
                f"{path}: {code} stale-baseline: baseline entry no longer "
                f"matches any finding: {message}"
            )
        summary = (
            f"hqs-lint: {len(sources)} files, {len(new)} new finding(s), "
            f"{len(grandfathered)} grandfathered, {len(stale)} stale baseline entr"
            f"{'y' if len(stale) == 1 else 'ies'}"
        )
        print(summary)

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
