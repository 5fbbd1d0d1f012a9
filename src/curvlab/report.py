"""Structured pass/fail records for verification runs.

Reports are deterministic: same seed and flags give byte-identical JSON
(checks sorted by name, no timestamps, schema versioned).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    passed: bool
    residual: float | None = None
    tol: float | None = None
    exact: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        d = {"name": self.name, "pass": self.passed, "exact": self.exact}
        if self.residual is not None:
            d["residual"] = float(self.residual)
        if self.tol is not None:
            d["tolerance"] = float(self.tol)
        if self.note:
            d["note"] = self.note
        return d


def check_residual(name: str, residual: float, tol: float,
                   note: str = "") -> Check:
    return Check(name, residual <= tol, float(residual), tol, False, note)


def check_exact(name: str, passed: bool, note: str = "") -> Check:
    return Check(name, passed, None, None, True, note)


@dataclass
class VerificationReport:
    suite: str
    model: str
    seed: int | None = None
    checks: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def add(self, check: Check):
        self.checks.append(check)

    def extend(self, other: "VerificationReport"):
        self.checks.extend(other.checks)
        for k, v in other.extras.items():
            self.extras.setdefault(k, v)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "suite": self.suite,
            "model": self.model,
            "seed": self.seed,
            "pass": self.passed,
            "checks": sorted((c.to_dict() for c in self.checks),
                             key=lambda d: d["name"]),
            "extras": {k: self.extras[k] for k in sorted(self.extras)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def table(self) -> str:
        lines = [f"suite={self.suite} model={self.model} seed={self.seed}"]
        for c in sorted(self.checks, key=lambda c: c.name):
            status = "PASS" if c.passed else "FAIL"
            if c.exact:
                lines.append(f"  [{status}] {c.name}  (exact)")
            else:
                lines.append(f"  [{status}] {c.name}  residual={c.residual:.3e}"
                             f" tol={c.tol:.1e}")
            if c.note:
                lines.append(f"         {c.note}")
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)
