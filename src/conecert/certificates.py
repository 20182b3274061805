"""Machine-checkable certificate reports.

A report is a flat list of named residual checks; it certifies a result
exactly when every check passes.  Each check names the threshold its
residual must not exceed (`add`), or is a strict sign check on a margin
(`add_margin`).  The CLI serializes these verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CertificateCheck:
    name: str
    residual: float
    passed: bool


@dataclass
class CertificateReport:
    checks: list[CertificateCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, residual: float, threshold: float) -> None:
        """Check ``name``: passes when ``residual <= threshold`` and the residual is finite."""
        residual = float(residual)
        self.checks.append(CertificateCheck(name, residual, bool(residual <= threshold) and math.isfinite(residual)))

    def add_margin(self, name: str, margin: float) -> None:
        """Strict sign check ``name``: passes when ``margin > 0``, residual ``max(0, -margin)``."""
        margin = float(margin)
        self.checks.append(CertificateCheck(name, max(0.0, -margin), margin > 0.0))

    def __getitem__(self, name: str) -> CertificateCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)
