"""Report structures shared by the verification suites and the CLI.

Both renderings of a ``Report`` carry its wall time exactly when it is set."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckResult:
    """Outcome of one identity/relation family."""

    name: str
    instances: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, instance, witness: str | None = None) -> None:
        entry = {"relation": self.name, "instance": str(instance)}
        if witness is not None:
            entry["witness"] = witness
        self.failures.append(entry)


@dataclass
class Report:
    """Aggregated, JSON-serializable verification report."""

    check: str
    family: str
    rank: int
    params: dict = field(default_factory=dict)
    results: list[CheckResult] = field(default_factory=list)
    timing: float | None = None

    @property
    def status(self) -> str:
        return "pass" if all(r.passed for r in self.results) else "fail"

    def counts(self) -> dict:
        return {r.name: r.instances for r in self.results}

    def failures(self) -> list[dict]:
        out = []
        for r in self.results:
            out.extend(r.failures)
        return out

    def to_dict(self) -> dict:
        data = {
            "check": self.check,
            "group": {"family": self.family, "rank": self.rank},
            "params": self.params,
            "status": self.status,
            "failures": self.failures(),
            "counts": self.counts(),
        }
        if self.timing is not None:
            data["timing"] = self.timing
        return data

    def to_text(self) -> str:
        lines = ["check: %s" % self.check,
                 "group: %s rank %d" % (self.family, self.rank)]
        for key in sorted(self.params):
            lines.append("param %s: %s" % (key, self.params[key]))
        for r in self.results:
            lines.append("%-24s instances=%-6d %s" % (r.name, r.instances,
                                                      "pass" if r.passed else "FAIL"))
            for f in r.failures:
                lines.append("  counterexample %s" % f["instance"])
                if "witness" in f:
                    lines.append("    witness: %s" % f["witness"])
        lines.append("status: %s" % self.status)
        if self.timing is not None:
            lines.append("timing: %.3fs" % self.timing)
        return "\n".join(lines) + "\n"

