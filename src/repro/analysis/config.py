"""``[tool.hqs-lint]`` configuration loading.

``pyproject.toml`` is parsed with :mod:`tomllib`, so hqs-lint needs
Python 3.11 or newer; the solver itself does not.
"""

from __future__ import annotations

import copy
from pathlib import Path
from typing import Any, Dict, List, Optional

try:  # Python 3.11+
    import tomllib
except ImportError:  # pragma: no cover - depends on interpreter version
    tomllib = None

#: Built-in defaults; pyproject values are merged over these.
DEFAULTS: Dict[str, Any] = {
    "paths": ["src"],
    "baseline": "lint-baseline.json",
    "select": [],
    "ignore": [],
    "rpr001": {
        "packages": ["repro.core", "repro.aig", "repro.sat", "repro.qbf"],
        "allow": [],
    },
    "rpr002": {"allow-modules": []},
    "rpr003": {"allow-modules": []},
    "rpr004": {
        "packages": ["repro.service", "repro.experiments"],
        "allow-modules": [],
    },
    "rpr005": {
        "async-modules": ["repro.service.server"],
        "known-blocking": [],
        "fork-modules": ["repro.service.pool", "repro.experiments.parallel", "repro.proc"],
    },
    "rpr006": {},
    "rpr007": {"sites-module": "repro.faults"},
}


class LintConfig:
    def __init__(self, raw: Optional[Dict[str, Any]] = None):
        # Deep copy: DEFAULTS holds nested lists (and a plain string)
        # that per-instance merges must never alias or mangle.
        self.raw: Dict[str, Any] = copy.deepcopy(DEFAULTS)
        for key, value in (raw or {}).items():
            if isinstance(value, dict) and isinstance(self.raw.get(key), dict):
                self.raw[key].update(value)
            else:
                self.raw[key] = value

    @property
    def paths(self) -> List[str]:
        return list(self.raw.get("paths", []))

    @property
    def baseline(self) -> str:
        return str(self.raw.get("baseline", "lint-baseline.json"))

    @property
    def select(self) -> List[str]:
        return [c.upper() for c in self.raw.get("select", [])]

    @property
    def ignore(self) -> List[str]:
        return [c.upper() for c in self.raw.get("ignore", [])]

    def rule_options(self, code: str) -> Dict[str, Any]:
        options = self.raw.get(code.lower(), {})
        return options if isinstance(options, dict) else {}

    def enabled(self, code: str) -> bool:
        code = code.upper()
        if self.select and code not in self.select:
            return False
        return code not in self.ignore


def load_config(pyproject: Optional[Path] = None) -> LintConfig:
    """Load ``[tool.hqs-lint]`` from ``pyproject``, defaulting everything
    when the file or table is absent."""
    if tomllib is None:
        raise RuntimeError("hqs-lint needs Python 3.11 or newer (tomllib)")
    if pyproject is None:
        pyproject = Path("pyproject.toml")
    if not pyproject.is_file():
        return LintConfig()
    data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    tool = data.get("tool", {}).get("hqs-lint", {})
    return LintConfig(_flatten(tool))


def _flatten(tool: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize ``[tool.hqs-lint.rprNNN]`` sub-tables onto lowercase keys."""
    out: Dict[str, Any] = {}
    for key, value in tool.items():
        out[key.lower() if isinstance(value, dict) else key] = value
    return out
