"""Workload definitions: inputs made from the seed, requests, output checks.

A request is one user action in a closed loop: one ``seakit verify`` run,
or one ``seakit spectrum`` followed by one ``seakit approx`` on the same
element.  Each call goes through ``seakit.cli.main`` in process.  The
checks here use plain numpy and JSON, never ``seakit`` itself.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EIG_TOL = 1e-8        # eigenvalues reported vs the generated spectrum
# Rounding allowed when a computed residual is compared with its exact
# bound.  With an exact 0 eigenvalue the computed breakpoint can sit an ulp
# above a partition point, and the reported residual then reads mesh + 3e-16.
ROUNDING = 1e-12
ELEMENT_DIM = 8
MESH = 0.01
LEVELS = 8
# Spectrum kinds in each cycle of eight elements.  Pair latency grows with
# the number of distinct eigenvalues, so with 3/8 two-level, 3/8 three-level
# and 2/8 generic elements the median request falls inside the three-level
# group and the 90th percentile inside the generic group, away from the
# edges between groups.
KIND_CYCLE = ("three", "two", "generic", "three", "two", "three",
              "generic", "two")
ELEMENT_COUNT = 400   # distinct inputs; a run never needs more


@dataclass
class Call:
    verb: str
    argv: list[str]
    out: Path
    check: object                     # (rc, out_path) -> error text or None


@dataclass
class Plan:
    """Prepared inputs of one workload for one seed."""

    requests: int                     # distinct requests before wrapping
    make: object                      # index -> list[Call]
    count_window: int                 # requests whose counts are reported
    facts: object = None              # () -> exact counts of the outputs

    def request(self, i: int) -> list[Call]:
        return self.make(i % self.requests)


# ---------------------------------------------------------------------------
# verify workloads


class VerifyCheck:
    """A run passes when it exits 0, its merged verdict is ``pass`` (so every
    negative control failed), and its report bytes equal the first run's."""

    def __init__(self):
        self.first: bytes | None = None

    def __call__(self, rc: int, out: Path) -> str | None:
        if rc != 0:
            return f"verify exited {rc}"
        data = out.read_bytes()
        if self.first is None:
            self.first = data
        elif data != self.first:
            return "report bytes differ from the first repetition"
        if json.loads(data).get("verdict") != "pass":
            return "merged verdict is not pass"
        return None

    def facts(self) -> dict:
        if self.first is None:
            return {}
        doc = json.loads(self.first)
        return {
            "checks": sum(r["samples"] for s in doc["suites"]
                          for r in s["results"]),
            "report_sha256": hashlib.sha256(self.first).hexdigest(),
        }


def verify_plan(model_args: list[str], samples: int, seed: int,
                work: Path) -> Plan:
    out = work / "report.json"
    check = VerifyCheck()
    argv = ["verify", "--suite", "all", *model_args,
            "--samples", str(samples), "--seed", str(seed), "--out", str(out)]
    return Plan(requests=1, make=lambda i: [Call("verify", argv, out, check)],
                count_window=1, facts=check.facts)


# ---------------------------------------------------------------------------
# element workload


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    phases of R's diagonal moved into Q (Mezzadri 2007)."""
    z = (rng.standard_normal((n, n))
         + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _composition(rng: np.random.Generator, total: int, parts: int) -> list:
    cuts = np.sort(rng.choice(np.arange(1, total), parts - 1, replace=False))
    return np.diff(np.concatenate(([0], cuts, [total]))).tolist()


def spectrum_of(kind: str, rng: np.random.Generator, n: int) -> np.ndarray:
    """Eigenvalues with multiplicity; few-level kinds hold exact 0 or 1."""
    if kind == "generic":
        gap = 0.02
        base = np.sort(rng.uniform(0.0, 1.0 - gap * (n - 1), n))
        return base + gap * np.arange(n)
    mid = float(rng.uniform(0.1, 0.9))
    if kind == "three":
        levels = [0.0, mid, 1.0]
    else:
        levels = [0.0, mid] if rng.random() < 0.5 else [mid, 1.0]
    counts = _composition(rng, n, len(levels))
    return np.repeat(levels, counts)


def element_matrix(values: np.ndarray, rng: np.random.Generator
                   ) -> np.ndarray:
    u = haar_unitary(rng, len(values))
    m = (u * values) @ u.conj().T
    return (m + m.conj().T) / 2.0


def _spectrum_check(levels: np.ndarray):
    def check(rc: int, out: Path) -> str | None:
        if rc != 0:
            return f"spectrum exited {rc}"
        doc = json.loads(out.read_text())
        got = np.sort(np.asarray(doc["eigenvalues"], dtype=float))
        if got.shape != levels.shape or np.max(np.abs(got - levels)) > EIG_TOL:
            return f"eigenvalues {got.tolist()} != {levels.tolist()}"
        if not doc["reconstruction_residual"] <= doc["mesh"] + ROUNDING:
            return (f"reconstruction residual {doc['reconstruction_residual']}"
                    f" exceeds mesh {doc['mesh']}")
        return None
    return check


def _approx_check(rc: int, out: Path) -> str | None:
    if rc != 0:
        return f"approx exited {rc}"
    rows = json.loads(out.read_text())["levels"]
    if len(rows) != LEVELS:
        return f"{len(rows)} levels instead of {LEVELS}"
    for row in rows:
        if not row["gap"] <= row["bound"] + ROUNDING:
            return f"level {row['level']}: gap {row['gap']} > {row['bound']}"
    return None


def element_plan(seed: int, work: Path) -> Plan:
    """Write every input file before timing; requests alternate verbs."""
    rng = np.random.default_rng(seed)
    spec_out, approx_out = work / "spectrum.json", work / "approx.json"
    calls = []
    for i in range(ELEMENT_COUNT):
        kind = KIND_CYCLE[i % len(KIND_CYCLE)]
        values = spectrum_of(kind, rng, ELEMENT_DIM)
        m = element_matrix(values, rng)
        path = work / f"element-{i:03d}.json"
        path.write_text(json.dumps({"re": m.real.tolist(),
                                    "im": m.imag.tolist()}))
        levels = np.unique(values)
        calls.append([
            Call("spectrum", ["spectrum", "--input", str(path),
                              "--mesh", str(MESH), "--out", str(spec_out)],
                 spec_out, _spectrum_check(levels)),
            Call("approx", ["approx", "--input", str(path),
                            "--levels", str(LEVELS), "--out", str(approx_out)],
                 approx_out, _approx_check),
        ])
    return Plan(requests=ELEMENT_COUNT, make=calls.__getitem__,
                count_window=len(KIND_CYCLE))


# ---------------------------------------------------------------------------
# registry

MATRIX_SAMPLES = 12
MV_SAMPLES = 4

WORKLOADS = {
    "verify-matrix-d4": lambda seed, work: verify_plan(
        ["--model", "matrix", "--dim", "4"], MATRIX_SAMPLES, seed, work),
    "verify-mv-s32": lambda seed, work: verify_plan(
        ["--model", "mv", "--size", "32"], MV_SAMPLES, seed, work),
    "element-verbs-d8": element_plan,
}
