"""Check results and suite reports with stable JSON serialization.

Reports are designed to be byte-identical across runs with the same seed:
keys are sorted, floats pass through repr, and no timestamps or host
information are recorded.
"""
from __future__ import annotations

from dataclasses import dataclass, field

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verified statement on one model.

    `passed` counts passing samples; a witness is attached exactly when
    some sample failed.
    """

    statement_id: str
    model: str
    samples: int
    passed: int
    max_residual: float = 0.0
    witness: dict | None = None

    def __post_init__(self):
        if self.passed > self.samples:
            raise ValueError("passed count exceeds sample count")
        if (self.witness is None) != (self.passed == self.samples):
            raise ValueError("witness must be present iff some sample failed")

    @property
    def ok(self) -> bool:
        return self.passed == self.samples

    def to_dict(self) -> dict:
        out = {
            "statement_id": self.statement_id,
            "model": self.model,
            "samples": self.samples,
            "passed": self.passed,
            "max_residual": self.max_residual,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class SuiteReport:
    """Collected results of one verification suite."""

    suite: str
    model: str
    seed: int
    config: dict = field(default_factory=dict)
    results: list[CheckResult] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, result: CheckResult) -> None:
        self.results.append(result)

    @property
    def verdict(self) -> bool:
        return all(r.ok for r in self.results)

    def to_dict(self) -> dict:
        ordered = sorted(self.results,
                         key=lambda r: (r.statement_id, r.model))
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "model": self.model,
            "seed": self.seed,
            "config": self.config,
            "metadata": self.metadata,
            "results": [r.to_dict() for r in ordered],
            "verdict": "pass" if self.verdict else "fail",
        }


def merge_reports(reports: list[SuiteReport]) -> dict:
    """Combined document for multi-suite runs; order is by suite name.

    Suites whose metadata carries negative_control=true are deliberately
    broken configurations: the combined verdict requires them to FAIL and
    every other suite to pass.
    """
    docs = sorted((r.to_dict() for r in reports),
                  key=lambda d: (d["suite"], d["model"]))
    ok = True
    for doc in docs:
        control = bool(doc["metadata"].get("negative_control", False))
        passed = doc["verdict"] == "pass"
        ok = ok and (passed != control)
    return {
        "schema_version": SCHEMA_VERSION,
        "suites": docs,
        "verdict": "pass" if ok else "fail",
    }
