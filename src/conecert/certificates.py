"""Machine-checkable certificate reports.

A report is a flat list of named residual checks; it certifies a result
exactly when every check passes.  The CLI serializes these verbatim.
"""

from __future__ import annotations

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

    def add(self, name: str, residual: float, passed: bool) -> None:
        self.checks.append(CertificateCheck(name, float(residual), bool(passed)))

    def __getitem__(self, name: str) -> CertificateCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)
