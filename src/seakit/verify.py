"""Property suites: instance checks of the algebraic laws on the models.

Each suite samples deterministic random inputs, evaluates one statement
per check, and reports integer pass counts with a first witness for any
failure.  Suites accept a deliberately broken configuration (wrong
product, soft focus, wrong floor, merged clusters, corrupted tables) so
that negative controls can prove the checks are not vacuous.

The spectral statements hold in every convex sequential effect algebra,
so each has one body (``_spectrality``, ``_context``) over the model's
context and a small per-model record (``_Model``); the other statements
have one body per model.
"""
from __future__ import annotations

import math
import os
import traceback
import zlib
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .config import DEFAULT, Tolerances
from .linalg import eigenvalues, frobenius, operator_norm
from .report import CheckResult, SuiteReport
from . import fuzzy as fz
from . import matrices as mx
from . import spectral as sp
from . import tables as tb

ARCHIMEDEAN_RESOLUTION = 1_000_000
FLOOR_POWER = 50
APPROX_LEVELS = 10
MESHES = (0.1, 0.01, 0.001)

REQUIRED_STATEMENTS = (
    "E1", "E2", "E3", "E4",
    "S1", "S2", "S3", "S4", "S5",
    "convex:C1", "convex:C2", "convex:C3", "convex:C4",
    "de:compr", "cb:C1", "cb:C2p", "cb:C3",
    "le:comE",
    "le:sharp.i", "le:sharp.ii", "le:sharp.iii",
    "le:sharp.iv", "le:sharp.v", "le:sharp.vi",
    "le:aff",
    "lemma:projcover", "lemma:floor", "lemma:covex_floor",
    "de:projcov", "de:b-compar",
    "prop:decomp", "prop:commut", "coro:limit",
    "eq:spectresV", "thm:contexts", "propertyA",
)


def covered_statements(reports: list[SuiteReport]) -> set[str]:
    return {r.statement_id for rep in reports for r in rep.results}


def _seed_for(seed: int, suite: str, sid: str) -> np.random.SeedSequence:
    key = zlib.crc32(f"{suite}/{sid}".encode())
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(key,))


class _Tally:
    """Per-statement accumulator; keeps the first failing witness.

    The witness is passed as a thunk, a zero-argument callable that builds
    the witness dict.  ``tally`` calls it only for the first failing
    sample, the one whose witness the report records, so passing samples
    encode nothing.  The thunk runs inside ``tally``, so it sees the
    sample's values.
    """

    __slots__ = ("samples", "passed", "max_residual", "witness")

    def __init__(self):
        self.samples = 0
        self.passed = 0
        self.max_residual = 0.0
        self.witness = None

    def tally(self, ok: bool, residual: float = 0.0,
              witness: Callable[[], dict] | None = None) -> None:
        if not ok and self.witness is None:
            self.witness = witness() if witness is not None else {}
        self.samples += 1
        res = float(residual)
        if res > self.max_residual:
            self.max_residual = res
        if ok:
            self.passed += 1


def _run_statement(report: SuiteReport, sid: str, model: str, body) -> None:
    t = _Tally()
    try:
        body(t)
    except Exception as exc:  # noqa: BLE001 - a crashing check is a failure
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        t.tally(False, witness=lambda: {
            "error": f"{type(exc).__name__}: {exc}",
            "at": f"{os.path.basename(frame.filename)}:{frame.lineno}"})
    report.add(CheckResult(sid, model, t.samples, t.passed,
                           t.max_residual, t.witness))


def _mat(m) -> dict:
    arr = np.asarray(mx.as_matrix(m))
    out = {"re": np.real(arr).round(12).tolist()}
    im = np.imag(arr)
    if np.any(im != 0.0):
        out["im"] = im.round(12).tolist()
    return out


def _vals(v) -> list:
    return np.asarray(v.values if isinstance(v, fz.FuzzySet) else v).tolist()


def _res(m, dim: int) -> float:
    return frobenius(np.asarray(m)) / dim


# ---------------------------------------------------------------------------
# the models


class _Model(NamedTuple):
    """What one model lends the suites for one run; the statements stated
    once over both models take everything else from ``ctx``."""

    name: str                # as reports record it
    dim: int                 # matrix dimension or point-set size
    tol: Tolerances          # as given; ctx.tol holds the model's thresholds
    ctx: object
    smp: Callable            # statement id -> its seeded sampler
    enc: Callable            # element -> witness JSON
    mul: Callable            # product of raw elements
    extremes: Callable       # raw element -> least and greatest value
    effect: Callable         # sampler -> effect
    simple: Callable         # sampler, gap= -> effect with few levels
    signed: Callable         # sampler -> self-adjoint element, maybe singular
    with_values: Callable    # sampler, values -> effect with that spectrum


def _matrix_model(suite: str, dim: int, seed: int, tol: Tolerances) -> _Model:
    def extremes(x) -> tuple[float, float]:
        vals = eigenvalues(x)
        return float(vals[0]), float(vals[-1])

    return _Model(
        "matrix", dim, tol, sp.MatrixContext(tol),
        smp=lambda sid: mx.EffectSampler(_seed_for(seed, suite, sid), dim,
                                         tol),
        enc=_mat, mul=np.matmul, extremes=extremes,
        effect=lambda s: s.effect(),
        simple=lambda s, **gap: s.simple_effect(**gap),
        signed=lambda s: s.hermitian(
            zeros=int(s.rng.integers(0, min(2, dim - 1) + 1))),
        with_values=lambda s, values: s.effect(values=values))


def _mv_model(suite: str, size: int, seed: int, tol: Tolerances) -> _Model:
    return _Model(
        "mv", size, tol, fz.FuzzyContext(tol),
        smp=lambda sid: fz.FuzzySampler(_seed_for(seed, suite, sid), size),
        enc=_vals, mul=np.multiply,
        extremes=lambda x: (float(np.min(x)), float(np.max(x))),
        effect=lambda s: s.fuzzy(),
        simple=lambda s, **gap: s.fuzzy(),
        signed=lambda s: s.rng.integers(-s.denom, s.denom + 1, size) / s.denom,
        with_values=lambda s, values: fz.FuzzySet(values))


def _model(model: str, suite: str, dim_or_size: int, seed: int,
           tol: Tolerances) -> _Model:
    if model == "matrix":
        return _matrix_model(suite, dim_or_size, seed, tol)
    if model == "mv":
        return _mv_model(suite, dim_or_size, seed, tol)
    raise ValueError(f"unknown model {model!r}")


# ---------------------------------------------------------------------------
# sequential products, standard and broken


def _matrix_product(product: str, tol: Tolerances):
    if product == "standard":
        return lambda x, y: mx.seq_product(x, y, tol).matrix
    if product == "jordan":
        return lambda x, y: mx.jordan_product(x, y, tol)
    raise ValueError(f"unknown product {product!r}")


def _mv_product(product: str):
    if product == "standard":
        return lambda x, y: x.values * y.values
    if product == "lukasiewicz":
        return lambda x, y: np.maximum(0.0, x.values + y.values - 1.0)
    raise ValueError(f"unknown product {product!r}")


# ---------------------------------------------------------------------------
# matrix SEA suite


def five_way_statements(p: mx.Projection, a: mx.Effect,
                        tol: Tolerances = DEFAULT) -> dict:
    """The five equivalent compatibility statements for a projection and
    an effect, each evaluated independently.

    Returns booleans keyed by statement plus the largest residual among
    the equality-shaped clauses.
    """
    n = a.dim
    pm = p.matrix
    am = a.matrix
    eye = np.eye(n)
    comp = eye - pm
    inside = pm @ am @ pm
    outside = comp @ am @ comp
    residual = 0.0

    compress_below = mx.psd(am - inside, tol=tol)
    r_block = _res(am - inside - outside, n)
    block_sum = r_block <= tol.check
    r_off = _res(pm @ am @ comp, n)
    interval_sum = r_off <= tol.check
    mackey = (mx.psd(am - inside, tol=tol)
              and mx.psd(eye - am - pm + inside, tol=tol))
    residual = max(residual, min(r_block, tol.check),
                   min(r_off, tol.check))

    lie = frobenius(pm @ am - am @ pm)
    if lie <= tol.comm:
        meet_mat = mx.commuting_meet(p, a, tol)
        r_meet = _res(inside - meet_mat, n)
        meet = r_meet <= tol.check
        residual = max(residual, min(r_meet, tol.check))
    else:
        meet = False

    return {
        "compress_below": compress_below,
        "block_sum": block_sum,
        "interval_sum": interval_sum,
        "mackey": mackey,
        "meet": meet,
        "residual": residual,
    }


def _meet_headroom(pvals: np.ndarray, avals: np.ndarray,
                  psd: float) -> np.ndarray:
    """For each coordinate, how far min(p, a) can be raised there and stay
    below p + psd and a + psd (psd >= 0): 30 bisection steps on [0, 1], all
    coordinates at once.

    Raising one coordinate leaves the others at min(p, a), which lies
    below both bounds, so each coordinate's test reads that coordinate
    only and the bisections run side by side on arrays.
    """
    cand = np.minimum(pvals, avals)
    p_top, a_top = pvals + psd, avals + psd
    lo = np.zeros(len(cand))
    hi = np.ones(len(cand))
    for _ in range(30):
        mid = (lo + hi) / 2.0
        trial = cand + mid
        fits = (trial <= p_top) & (trial <= a_top)
        lo = np.where(fits, mid, lo)
        hi = np.where(fits, hi, mid)
    return lo


def _sharp_defect(a: mx.Effect) -> float:
    return _res(a.matrix @ a.matrix - a.matrix, a.dim)


def _sea_matrix(report: SuiteReport, m: _Model, samples: int,
                product: str) -> None:
    dim, tol = m.dim, m.tol
    prod = _matrix_product(product, tol)
    thr = tol.check
    eye = np.eye(dim)
    one = mx.Effect(eye, tol=tol, validate=False)

    def wrap(matrix) -> mx.Effect:
        return mx.Effect(matrix, tol=tol, validate=False)

    def s1(t: _Tally) -> None:
        smp = m.smp("S1")
        for k in range(samples):
            a = smp.effect()
            b = smp.effect(values=smp.rng.uniform(0.0, 0.5, dim))
            c = smp.effect(values=smp.rng.uniform(0.0, 0.5, dim))
            bc = wrap(b.matrix + c.matrix)
            r = _res(prod(a, bc) - prod(a, b) - prod(a, c), dim)
            t.tally(r <= thr, r, lambda: {"sample": k, "a": _mat(a),
                                          "b": _mat(b), "c": _mat(c)})

    def s2(t: _Tally) -> None:
        smp = m.smp("S2")
        for k in range(samples):
            a = smp.effect()
            r = max(_res(prod(one, a) - a.matrix, dim),
                    _res(prod(a, one) - a.matrix, dim))
            t.tally(r <= thr, r, lambda: {"sample": k, "a": _mat(a)})

    def s3(t: _Tally) -> None:
        smp = m.smp("S3")
        for k in range(samples):
            if k % 2 == 0:
                a, b = smp.orthogonal_pair()
                r_ab = _res(prod(a, b), dim)
                r_ba = _res(prod(b, a), dim)
                ok = (r_ab <= thr) == (r_ba <= thr)
                t.tally(ok, max(r_ab, r_ba) if not ok else 0.0,
                        lambda: {"sample": k, "a": _mat(a), "b": _mat(b),
                                 "forward": r_ab, "backward": r_ba})
            else:
                a = smp.effect()
                b = smp.effect()
                spectrum = eigenvalues(np.asarray(prod(a, b)))
                lo = float(spectrum[0])
                hi = float(spectrum[-1])
                escape = max(0.0, -lo, hi - 1.0)
                t.tally(escape <= tol.psd + thr, escape,
                        lambda: {"sample": k, "a": _mat(a), "b": _mat(b),
                                 "min_eigenvalue": lo, "max_eigenvalue": hi})

    def s4(t: _Tally) -> None:
        smp = m.smp("S4")
        for k in range(samples):
            a, b = smp.commuting()
            c = smp.effect()
            premise = _res(prod(a, b) - prod(b, a), dim) <= tol.comm
            if not premise:
                t.tally(True)
                continue
            bperp = b.complement()
            r1 = _res(prod(a, bperp) - prod(bperp, a), dim)
            inner = wrap(np.asarray(prod(b, c)))
            outer = wrap(np.asarray(prod(a, b)))
            r2 = _res(prod(a, inner) - prod(outer, c), dim)
            r = max(r1, r2)
            t.tally(r <= thr, r, lambda: {"sample": k, "a": _mat(a),
                                          "b": _mat(b), "c": _mat(c),
                                          "complement": r1,
                                          "associativity": r2})

    def s5(t: _Tally) -> None:
        smp = m.smp("S5")
        for k in range(samples):
            c, a, b = smp.refined_commuting(hi=0.5)
            pa = _res(prod(c, a) - prod(a, c), dim)
            pb = _res(prod(c, b) - prod(b, c), dim)
            if pa > tol.comm or pb > tol.comm:
                t.tally(True)
                continue
            ab = wrap(np.asarray(prod(a, b)))
            asum = wrap(a.matrix + b.matrix)
            r1 = _res(prod(c, ab) - prod(ab, c), dim)
            r2 = _res(prod(c, asum) - prod(asum, c), dim)
            r = max(r1, r2)
            t.tally(r <= tol.comm, r, lambda: {"sample": k, "c": _mat(c),
                                               "a": _mat(a), "b": _mat(b)})

    def aff(t: _Tally) -> None:
        smp = m.smp("le:aff")
        for k in range(samples):
            a = smp.effect()
            b = smp.effect()
            lam = smp.uniform()
            la = mx.scale_effect(a, lam)
            lb = mx.scale_effect(b, lam)
            r1 = _res(np.asarray(prod(a, lb)) - lam * np.asarray(prod(a, b)),
                      dim)
            r2 = _res(np.asarray(prod(la, b)) - lam * np.asarray(prod(a, b)),
                      dim)
            ca, cb = smp.commuting()
            clb = mx.scale_effect(cb, lam)
            r3 = _res(prod(ca, clb) - prod(clb, ca), dim)
            r = max(r1, r2, min(r3, tol.comm) if r3 <= tol.comm else r3)
            t.tally(r1 <= thr and r2 <= thr and r3 <= tol.comm, r,
                    lambda: {"sample": k, "lambda": lam, "a": _mat(a),
                             "b": _mat(b)})

    def convex_c1(t: _Tally) -> None:
        smp = m.smp("convex:C1")
        for k in range(samples):
            a = smp.effect()
            lam = smp.uniform()
            mu = smp.uniform()
            r = _res(mx.scale_effect(mx.scale_effect(a, lam), mu).matrix
                     - mx.scale_effect(a, lam * mu).matrix, dim)
            t.tally(r <= thr, r,
                    lambda: {"sample": k, "lambda": lam, "mu": mu})

    def convex_c2(t: _Tally) -> None:
        smp = m.smp("convex:C2")
        for k in range(samples):
            a = smp.effect()
            lam = smp.uniform()
            mu = smp.uniform(0.0, 1.0 - lam)
            r = _res(mx.scale_effect(a, lam).matrix
                     + mx.scale_effect(a, mu).matrix
                     - mx.scale_effect(a, lam + mu).matrix, dim)
            t.tally(r <= thr, r,
                    lambda: {"sample": k, "lambda": lam, "mu": mu})

    def convex_c3(t: _Tally) -> None:
        smp = m.smp("convex:C3")
        for k in range(samples):
            a = smp.effect(values=smp.rng.uniform(0.0, 0.5, dim))
            b = smp.effect(values=smp.rng.uniform(0.0, 0.5, dim))
            lam = smp.uniform()
            s = wrap(a.matrix + b.matrix)
            r = _res(mx.scale_effect(s, lam).matrix
                     - mx.scale_effect(a, lam).matrix
                     - mx.scale_effect(b, lam).matrix, dim)
            t.tally(r <= thr, r, lambda: {"sample": k, "lambda": lam})

    def convex_c4(t: _Tally) -> None:
        smp = m.smp("convex:C4")
        for k in range(samples):
            a = smp.effect()
            r = _res(mx.scale_effect(a, 1.0).matrix - a.matrix, dim)
            t.tally(r <= thr, r, lambda: {"sample": k})

    def sharp_i(t: _Tally) -> None:
        smp = m.smp("le:sharp.i")
        for k in range(samples):
            a = smp.projection() if k % 2 == 0 else smp.effect()
            sharp = _sharp_defect(a) <= thr
            s1b = _res(prod(a, a.complement()), dim) <= thr
            s2b = _res(np.asarray(prod(a, a)) - a.matrix, dim) <= thr
            t.tally(sharp == s1b == s2b, 0.0,
                    lambda: {"sample": k, "a": _mat(a), "sharp": sharp,
                             "kills_complement": s1b, "idempotent": s2b})

    def sharp_ii(t: _Tally) -> None:
        smp = m.smp("le:sharp.ii")
        for k in range(samples):
            if k % 2 == 0:
                p = smp.projection()
                d = p.decomposition
                vals = np.where(d.values > 0.5, 1.0,
                                smp.rng.uniform(0.0, 1.0, dim))
                a = mx.Effect.from_eigensystem(vals, d.vectors, tol)
            else:
                p = smp.projection()
                a = smp.effect()
            below = mx.leq(p, a, tol=tol)
            rp = max(_res(np.asarray(prod(p, a)) - p.matrix, dim),
                     _res(np.asarray(prod(a, p)) - p.matrix, dim))
            t.tally(below == (rp <= thr), 0.0,
                    lambda: {"sample": k, "p": _mat(p), "a": _mat(a),
                             "order": below, "product_residual": rp})

    def sharp_iii(t: _Tally) -> None:
        smp = m.smp("le:sharp.iii")
        for k in range(samples):
            if k % 2 == 0:
                p = smp.projection()
                d = p.decomposition
                vals = np.where(d.values > 0.5,
                                smp.rng.uniform(0.0, 1.0, dim), 0.0)
                a = mx.Effect.from_eigensystem(vals, d.vectors, tol)
            else:
                p = smp.projection()
                a = smp.effect()
            below = mx.leq(a, p, tol=tol)
            rp = max(_res(np.asarray(prod(p, a)) - a.matrix, dim),
                     _res(np.asarray(prod(a, p)) - a.matrix, dim))
            t.tally(below == (rp <= thr), 0.0,
                    lambda: {"sample": k, "p": _mat(p), "a": _mat(a),
                             "order": below, "product_residual": rp})

    def sharp_iv(t: _Tally) -> None:
        smp = m.smp("le:sharp.iv")
        for k in range(samples):
            if k % 2 == 0:
                ea, eb = smp.orthogonal_pair()
                p = mx.projection_cover(ea, tol)
                a = eb if k % 4 == 0 else mx.projection_cover(eb, tol)
            else:
                p = smp.projection()
                a = smp.effect()
            vanish = _res(prod(p, a), dim) <= thr
            summable = mx.leq(wrap(p.matrix + a.matrix), one, tol=tol)
            ok = vanish == summable
            if ok and vanish:
                join = mx.commuting_join(p, a, tol)
                r_join = _res(p.matrix + a.matrix - join, dim)
                sharp_sum = _sharp_defect(wrap(p.matrix + a.matrix)) <= thr
                sharp_a = _sharp_defect(a) <= thr
                ok = r_join <= thr and sharp_sum == sharp_a
                t.tally(ok, r_join, lambda: {"sample": k, "p": _mat(p),
                                             "a": _mat(a),
                                             "join_residual": r_join})
            else:
                t.tally(ok, 0.0, lambda: {"sample": k, "p": _mat(p),
                                          "a": _mat(a), "vanishes": vanish,
                                          "summable": summable})

    def sharp_v(t: _Tally) -> None:
        smp = m.smp("le:sharp.v")
        for k in range(samples):
            if k % 2 == 0:
                p, a = smp.commuting_projection_effect()
            else:
                p = smp.projection()
                a = smp.effect()
            commute = _res(prod(p, a) - prod(a, p), dim) <= tol.comm
            inside = p.matrix @ a.matrix @ p.matrix
            mackey = (mx.psd(a.matrix - inside, tol=tol)
                      and mx.psd(eye - a.matrix - p.matrix + inside, tol=tol))
            t.tally(commute == mackey, 0.0,
                    lambda: {"sample": k, "p": _mat(p), "a": _mat(a),
                             "commutes": commute, "mackey": mackey})

    def sharp_vi(t: _Tally) -> None:
        smp = m.smp("le:sharp.vi")
        for k in range(samples):
            p, a = smp.commuting_projection_effect()
            meet_mat = mx.commuting_meet(p, a, tol)
            r = _res(np.asarray(prod(p, a)) - meet_mat, dim)
            t.tally(r <= thr, r,
                    lambda: {"sample": k, "p": _mat(p), "a": _mat(a)})
        oracle = m.smp("le:sharp.vi/oracle")
        for k in range(min(samples, 24)):
            pvals = (oracle.rng.integers(0, 2, dim)).astype(float)
            if not pvals.any():
                pvals[0] = 1.0
            avals = oracle.rng.uniform(0.0, 1.0, dim)
            worst = float(np.max(_meet_headroom(pvals, avals, tol.psd)))
            t.tally(worst <= 1e-6, worst,
                    lambda: {"oracle_sample": k, "p": pvals.tolist(),
                             "a": avals.round(12).tolist(), "slack": worst})

    def strongarch(t: _Tally) -> None:
        smp = m.smp("de:strongarch")
        bound = 2.0 / ARCHIMEDEAN_RESOLUTION
        for k in range(samples):
            a = smp.effect()
            b = smp.effect()
            least = mx.min_eig(b.matrix - a.matrix)
            if least >= -bound:
                t.tally(True)
                continue
            n = min(ARCHIMEDEAN_RESOLUTION, 2 * math.ceil(1.0 / (-least)))
            gap = mx.min_eig(b.matrix + eye / n - a.matrix)
            t.tally(gap < 0.0, 0.0,
                    lambda: {"sample": k, "n": n, "min_eigenvalue": least,
                             "shifted_min_eigenvalue": gap})

    _run_statement(report, "S1", "matrix", s1)
    _run_statement(report, "S2", "matrix", s2)
    _run_statement(report, "S3", "matrix", s3)
    _run_statement(report, "S4", "matrix", s4)
    _run_statement(report, "S5", "matrix", s5)
    _run_statement(report, "le:aff", "matrix", aff)
    _run_statement(report, "convex:C1", "matrix", convex_c1)
    _run_statement(report, "convex:C2", "matrix", convex_c2)
    _run_statement(report, "convex:C3", "matrix", convex_c3)
    _run_statement(report, "convex:C4", "matrix", convex_c4)
    _run_statement(report, "le:sharp.i", "matrix", sharp_i)
    _run_statement(report, "le:sharp.ii", "matrix", sharp_ii)
    _run_statement(report, "le:sharp.iii", "matrix", sharp_iii)
    _run_statement(report, "le:sharp.iv", "matrix", sharp_iv)
    _run_statement(report, "le:sharp.v", "matrix", sharp_v)
    _run_statement(report, "le:sharp.vi", "matrix", sharp_vi)
    _run_statement(report, "de:strongarch", "matrix", strongarch)


# ---------------------------------------------------------------------------
# mv SEA suite


def _sea_mv(report: SuiteReport, m: _Model, samples: int,
            product: str) -> None:
    size = m.dim
    prod = _mv_product(product)
    one = fz.one(size)

    def dy(smp: fz.FuzzySampler) -> float:
        return float(smp.rng.integers(0, smp.denom + 1)) / smp.denom

    def split_pair(smp: fz.FuzzySampler) -> tuple[fz.FuzzySet, fz.FuzzySet]:
        mask = smp.rng.integers(0, 2, size).astype(float)
        va = smp.fuzzy().values * mask
        vb = smp.fuzzy().values * (1.0 - mask)
        return fz.FuzzySet(va), fz.FuzzySet(vb)

    def s1(t: _Tally) -> None:
        smp = m.smp("S1")
        for k in range(samples):
            a = smp.fuzzy()
            b, c = smp.summable_pair()
            if k == 0 and product != "standard":
                # Truncated, a (b + c) = 0.75 but a b + a c = 0.5, so the
                # control fails for every seed, not only lucky ones.
                a = fz.FuzzySet(np.full(size, 0.75))
                b = c = fz.FuzzySet(np.full(size, 0.5))
            bc = fz.mv_oplus(b, c)
            lhs = prod(a, bc)
            rhs = prod(a, b) + prod(a, c)
            ok = bool(np.array_equal(lhs, rhs))
            t.tally(ok, 0.0 if ok else float(np.max(np.abs(lhs - rhs))),
                    lambda: {"sample": k, "a": _vals(a), "b": _vals(b),
                             "c": _vals(c)})

    def s2(t: _Tally) -> None:
        smp = m.smp("S2")
        for k in range(samples):
            a = smp.fuzzy()
            ok = (np.array_equal(prod(one, a), a.values)
                  and np.array_equal(prod(a, one), a.values))
            t.tally(bool(ok), 0.0, lambda: {"sample": k, "a": _vals(a)})

    def s3(t: _Tally) -> None:
        smp = m.smp("S3")
        for k in range(samples):
            if k % 2 == 0:
                a, b = split_pair(smp)
            else:
                a, b = smp.summable_pair()
            forward = bool(np.all(prod(a, b) == 0.0))
            backward = bool(np.all(prod(b, a) == 0.0))
            inside = bool(np.all(prod(a, b) >= 0.0)
                          and np.all(prod(a, b) <= 1.0))
            t.tally(forward == backward and inside, 0.0,
                    lambda: {"sample": k, "a": _vals(a), "b": _vals(b)})

    def s4(t: _Tally) -> None:
        smp = m.smp("S4")
        for k in range(samples):
            a, b, c = smp.fuzzy(), smp.fuzzy(), smp.fuzzy()
            if not np.array_equal(prod(a, b), prod(b, a)):
                t.tally(True)
                continue
            bperp = fz.mv_neg(b)
            ok = (np.array_equal(prod(a, bperp), prod(bperp, a))
                  and np.array_equal(prod(fz.FuzzySet(prod(a, b)), c),
                                     prod(a, fz.FuzzySet(prod(b, c)))))
            t.tally(bool(ok), 0.0, lambda: {"sample": k, "a": _vals(a),
                                            "b": _vals(b), "c": _vals(c)})

    def s5(t: _Tally) -> None:
        smp = m.smp("S5")
        for k in range(samples):
            a, b, c = smp.summable_triple()
            if not (np.array_equal(prod(c, a), prod(a, c))
                    and np.array_equal(prod(c, b), prod(b, c))):
                t.tally(True)
                continue
            ab = fz.FuzzySet(prod(a, b))
            asum = fz.mv_oplus(a, b)
            ok = (np.array_equal(prod(c, ab), prod(ab, c))
                  and np.array_equal(prod(c, asum), prod(asum, c)))
            t.tally(bool(ok), 0.0, lambda: {"sample": k})

    def aff(t: _Tally) -> None:
        smp = m.smp("le:aff")
        for k in range(samples):
            a, b = smp.fuzzy(), smp.fuzzy()
            lam = dy(smp)
            la = fz.FuzzySet(lam * a.values)
            lb = fz.FuzzySet(lam * b.values)
            ok = (np.array_equal(prod(a, lb), lam * prod(a, b))
                  and np.array_equal(prod(la, b), lam * prod(a, b))
                  and np.array_equal(prod(a, lb), prod(lb, a)))
            t.tally(bool(ok), 0.0, lambda: {"sample": k, "lambda": lam,
                                            "a": _vals(a), "b": _vals(b)})

    def convex_c1(t: _Tally) -> None:
        smp = m.smp("convex:C1")
        for k in range(samples):
            a = smp.fuzzy()
            lam, mu = dy(smp), dy(smp)
            ok = np.array_equal(mu * (lam * a.values), (lam * mu) * a.values)
            t.tally(bool(ok), 0.0,
                    lambda: {"sample": k, "lambda": lam, "mu": mu})

    def convex_c2(t: _Tally) -> None:
        smp = m.smp("convex:C2")
        for k in range(samples):
            a = smp.fuzzy()
            klam = int(smp.rng.integers(0, smp.denom + 1))
            kmu = int(smp.rng.integers(0, smp.denom + 1 - klam))
            lam, mu = klam / smp.denom, kmu / smp.denom
            ok = np.array_equal(lam * a.values + mu * a.values,
                                (lam + mu) * a.values)
            t.tally(bool(ok), 0.0,
                    lambda: {"sample": k, "lambda": lam, "mu": mu})

    def convex_c3(t: _Tally) -> None:
        smp = m.smp("convex:C3")
        for k in range(samples):
            a, b = smp.summable_pair()
            lam = dy(smp)
            s = fz.mv_oplus(a, b)
            ok = np.array_equal(lam * s.values,
                                lam * a.values + lam * b.values)
            t.tally(bool(ok), 0.0, lambda: {"sample": k, "lambda": lam})

    def convex_c4(t: _Tally) -> None:
        smp = m.smp("convex:C4")
        for k in range(samples):
            a = smp.fuzzy()
            t.tally(bool(np.array_equal(1.0 * a.values, a.values)), 0.0,
                    lambda: {"sample": k})

    def sharp_i(t: _Tally) -> None:
        smp = m.smp("le:sharp.i")
        for k in range(samples):
            a = smp.sharp() if k % 2 == 0 else smp.fuzzy()
            sharp = fz.mv_is_sharp(a)
            s1b = bool(np.all(prod(a, fz.mv_neg(a)) == 0.0))
            s2b = bool(np.array_equal(prod(a, a), a.values))
            t.tally(sharp == s1b == s2b, 0.0,
                    lambda: {"sample": k, "a": _vals(a)})

    def sharp_ii(t: _Tally) -> None:
        smp = m.smp("le:sharp.ii")
        for k in range(samples):
            p = smp.sharp()
            a = (fz.FuzzySet(np.maximum(p.values, smp.fuzzy().values))
                 if k % 2 == 0 else smp.fuzzy())
            below = fz.mv_leq(p, a)
            holds = (np.array_equal(prod(p, a), p.values)
                     and np.array_equal(prod(a, p), p.values))
            t.tally(below == bool(holds), 0.0,
                    lambda: {"sample": k, "p": _vals(p), "a": _vals(a)})

    def sharp_iii(t: _Tally) -> None:
        smp = m.smp("le:sharp.iii")
        for k in range(samples):
            p = smp.sharp()
            a = (fz.FuzzySet(p.values * smp.fuzzy().values)
                 if k % 2 == 0 else smp.fuzzy())
            below = fz.mv_leq(a, p)
            holds = (np.array_equal(prod(p, a), a.values)
                     and np.array_equal(prod(a, p), a.values))
            t.tally(below == bool(holds), 0.0,
                    lambda: {"sample": k, "p": _vals(p), "a": _vals(a)})

    def sharp_iv(t: _Tally) -> None:
        smp = m.smp("le:sharp.iv")
        for k in range(samples):
            p = smp.sharp()
            if k % 2 == 0:
                a = fz.FuzzySet((1.0 - p.values) * smp.fuzzy().values)
            else:
                a = smp.fuzzy()
            vanish = bool(np.all(prod(p, a) == 0.0))
            summable = bool(np.all(p.values + a.values <= 1.0))
            ok = vanish == summable
            if ok and vanish:
                total = p.values + a.values
                ok = (np.array_equal(total, np.maximum(p.values, a.values))
                      and (fz.mv_is_sharp(fz.FuzzySet(total))
                           == fz.mv_is_sharp(a)))
            t.tally(bool(ok), 0.0, lambda: {"sample": k, "p": _vals(p),
                                            "a": _vals(a)})

    def sharp_v(t: _Tally) -> None:
        smp = m.smp("le:sharp.v")
        for k in range(samples):
            p = smp.sharp()
            a = smp.fuzzy()
            commute = bool(np.array_equal(prod(p, a), prod(a, p)))
            c = prod(p, a)
            mackey = (bool(np.all(a.values - c >= 0.0))
                      and bool(np.all(1.0 - a.values - p.values + c >= 0.0)))
            t.tally(commute == mackey, 0.0,
                    lambda: {"sample": k, "p": _vals(p), "a": _vals(a)})

    def sharp_vi(t: _Tally) -> None:
        smp = m.smp("le:sharp.vi")
        for k in range(samples):
            p = smp.sharp()
            a = smp.fuzzy()
            ok = np.array_equal(prod(p, a),
                                np.minimum(p.values, a.values))
            t.tally(bool(ok), 0.0, lambda: {"sample": k, "p": _vals(p),
                                            "a": _vals(a)})

    def strongarch(t: _Tally) -> None:
        smp = m.smp("de:strongarch")
        bound = 2.0 / ARCHIMEDEAN_RESOLUTION
        for k in range(samples):
            a, b = smp.fuzzy(), smp.fuzzy()
            least = float(np.min(b.values - a.values))
            if least >= -bound:
                t.tally(True)
                continue
            n = min(ARCHIMEDEAN_RESOLUTION, 2 * math.ceil(1.0 / (-least)))
            gap = float(np.min(b.values + 1.0 / n - a.values))
            t.tally(gap < 0.0, 0.0, lambda: {"sample": k, "n": n,
                                             "min_difference": least})

    _run_statement(report, "S1", "mv", s1)
    _run_statement(report, "S2", "mv", s2)
    _run_statement(report, "S3", "mv", s3)
    _run_statement(report, "S4", "mv", s4)
    _run_statement(report, "S5", "mv", s5)
    _run_statement(report, "le:aff", "mv", aff)
    _run_statement(report, "convex:C1", "mv", convex_c1)
    _run_statement(report, "convex:C2", "mv", convex_c2)
    _run_statement(report, "convex:C3", "mv", convex_c3)
    _run_statement(report, "convex:C4", "mv", convex_c4)
    _run_statement(report, "le:sharp.i", "mv", sharp_i)
    _run_statement(report, "le:sharp.ii", "mv", sharp_ii)
    _run_statement(report, "le:sharp.iii", "mv", sharp_iii)
    _run_statement(report, "le:sharp.iv", "mv", sharp_iv)
    _run_statement(report, "le:sharp.v", "mv", sharp_v)
    _run_statement(report, "le:sharp.vi", "mv", sharp_vi)
    _run_statement(report, "de:strongarch", "mv", strongarch)


def run_sea_suite(model: str = "matrix", dim_or_size: int = 4,
                  samples: int = 200, seed: int = 42,
                  tol: Tolerances = DEFAULT,
                  product: str = "standard") -> SuiteReport:
    """Sequential-product axioms, affinity, sharpness, archimedeanity."""
    if samples < 1:
        raise ValueError("samples must be positive")
    m = _model(model, "sea", dim_or_size, seed, tol)
    report = SuiteReport(
        suite="sea", model=model, seed=seed,
        config={"dim_or_size": dim_or_size, "samples": samples,
                "product": product, "tolerances": tol.to_dict(),
                "archimedean_resolution": ARCHIMEDEAN_RESOLUTION})
    if product != "standard":
        report.metadata["negative_control"] = True
    (_sea_matrix if model == "matrix" else _sea_mv)(report, m, samples,
                                                    product)
    return report


# ---------------------------------------------------------------------------
# compression suite


def _compression_matrix(report: SuiteReport, m: _Model, samples: int,
                        focus: str) -> None:
    dim, tol = m.dim, m.tol
    thr = tol.check
    eye = np.eye(dim)

    def wrap(matrix) -> mx.Effect:
        return mx.Effect(matrix, tol=tol, validate=False)

    def compr(t: _Tally) -> None:
        smp = m.smp("de:compr")
        for k in range(samples):
            u = smp.unitary()
            if focus == "projection":
                f = smp.projection(unitary=u)
            else:
                f = smp.effect(values=smp.rng.uniform(0.3, 0.7, dim),
                               unitary=u)
            fmat = f.matrix

            def jmap(x: mx.Effect) -> np.ndarray:
                s = f.sqrt_matrix()
                return np.asarray(
                    (s @ x.matrix @ s + (s @ x.matrix @ s).conj().T) / 2.0)

            a = smp.effect(values=smp.rng.uniform(0.0, 0.5, dim))
            b = smp.effect(values=smp.rng.uniform(0.0, 0.5, dim))
            r_add = _res(jmap(wrap(a.matrix + b.matrix))
                         - jmap(a) - jmap(b), dim)
            below = mx.seq_product(f, f, tol)
            r_retract = _res(jmap(below) - below.matrix, dim)
            d = f.decomposition
            inker = mx.Effect.from_eigensystem(
                np.where(d.values <= 0.5, smp.rng.uniform(0.0, 1.0, dim)
                         * (d.values < tol.kernel), 0.0), d.vectors, tol) \
                if focus == "projection" else wrap(
                    np.zeros((dim, dim), dtype=np.complex128))
            r_kernel = _res(jmap(inker), dim)
            kernel_ok = (r_kernel <= thr) == mx.leq(
                inker, wrap(eye - fmat), tol=tol)
            generic = smp.effect()
            van = _res(jmap(generic), dim) <= thr
            under = mx.leq(generic, wrap(eye - fmat), tol=tol)
            r = max(r_add, r_retract)
            ok = r <= thr and kernel_ok and van == under
            t.tally(ok, r, lambda: {"sample": k, "focus": _mat(f),
                                    "additivity": r_add,
                                    "retraction": r_retract,
                                    "kernel_clause": kernel_ok,
                                    "generic_clause": bool(van == under)})

    def cb_c1(t: _Tally) -> None:
        smp = m.smp("cb:C1")
        for k in range(samples):
            p = smp.projection()
            r = _res(mx.compression(p, mx.Effect(eye, tol=tol,
                                                 validate=False), tol).matrix
                     - p.matrix, dim)
            t.tally(r <= thr, r, lambda: {"sample": k, "p": _mat(p)})

    def cb_c2p(t: _Tally) -> None:
        smp = m.smp("cb:C2p")
        for k in range(samples):
            u = smp.unitary()
            p = smp.projection(unitary=u)
            q = smp.projection(unitary=u)
            a = smp.effect()
            pq = p.matrix @ q.matrix
            x = p.matrix @ (q.matrix @ a.matrix @ q.matrix) @ p.matrix
            z = pq @ a.matrix @ pq.conj().T
            r = _res(x - z, dim)
            idem = _res(pq @ pq - pq, dim)
            t.tally(r <= tol.comm and idem <= tol.proj, max(r, idem),
                    lambda: {"sample": k, "p": _mat(p), "q": _mat(q)})

    def cb_c3(t: _Tally) -> None:
        smp = m.smp("cb:C3")
        for k in range(samples):
            u = smp.unitary()
            k1 = int(smp.rng.integers(1, dim)) if dim > 1 else 1
            k2 = int(smp.rng.integers(1, dim - k1 + 1)) if dim - k1 else 0
            k3 = int(smp.rng.integers(0, dim - k1 - k2 + 1))
            p = mx.Projection.from_columns(u[:, :k1], dim, tol)
            q = mx.Projection.from_columns(u[:, k1:k1 + k2], dim, tol)
            rr = mx.Projection.from_columns(u[:, k1 + k2:k1 + k2 + k3],
                                            dim, tol)
            a = smp.effect()
            outer = p.matrix + q.matrix
            inner = q.matrix + rr.matrix
            composed = outer @ (inner @ a.matrix @ inner) @ outer
            direct = q.matrix @ a.matrix @ q.matrix
            r = _res(composed - direct, dim)
            t.tally(r <= thr, r, lambda: {"sample": k, "sizes": [k1, k2, k3]})

    def com_e(t: _Tally) -> None:
        smp = m.smp("le:comE")
        for k in range(samples):
            if k % 2 == 0:
                p, a = smp.commuting_projection_effect()
            else:
                p = smp.projection()
                a = smp.effect()
            stmts = five_way_statements(p, a, tol)
            keys = ("compress_below", "block_sum", "interval_sum", "mackey",
                    "meet")
            agree = len({stmts[key] for key in keys}) == 1
            t.tally(agree, stmts["residual"],
                    lambda: {"sample": k, "p": _mat(p), "a": _mat(a),
                             "statements": {key: stmts[key] for key in keys}})

    def compat_i(t: _Tally) -> None:
        smp = m.smp("lemma:compatible_projs.i")
        for k in range(samples):
            if dim < 2:
                t.tally(True)
                continue
            u = smp.unitary()
            k1 = int(smp.rng.integers(1, dim))
            k2 = int(smp.rng.integers(1, dim - k1 + 1))
            p = mx.Projection.from_columns(u[:, :k1], dim, tol)
            q = mx.Projection.from_columns(u[:, k1:k1 + k2], dim, tol)
            qa = mx.random_unitary(smp.rng, k1)
            qb = mx.random_unitary(smp.rng, dim - k1)
            vecs = np.concatenate([u[:, :k1] @ qa, u[:, k1:] @ qb], axis=1)
            a = mx.Effect.from_eigensystem(smp.rng.uniform(0.0, 1.0, dim),
                                           vecs, tol)
            join = mx.commuting_join(p, q, tol)
            osum = p.matrix + q.matrix
            r_join = _res(join - osum, dim)
            lhs = osum @ a.matrix @ osum
            rhs = (p.matrix @ a.matrix @ p.matrix
                   + q.matrix @ a.matrix @ q.matrix)
            r = max(r_join, _res(lhs - rhs, dim))
            t.tally(r <= thr, r, lambda: {"sample": k, "p": _mat(p),
                                          "q": _mat(q), "a": _mat(a)})

    def compat_ii(t: _Tally) -> None:
        smp = m.smp("lemma:compatible_projs.ii")
        for k in range(samples):
            u = smp.unitary()
            p = smp.projection(unitary=u)
            q = smp.projection(unitary=u)
            a = smp.effect()
            meet = p.matrix @ q.matrix
            x = p.matrix @ (q.matrix @ a.matrix @ q.matrix) @ p.matrix
            y = q.matrix @ (p.matrix @ a.matrix @ p.matrix) @ q.matrix
            z = meet @ a.matrix @ meet.conj().T
            r_lattice = _res(meet - mx.commuting_meet(p, q, tol), dim)
            r = max(_res(x - y, dim), _res(x - z, dim), r_lattice)
            t.tally(r <= thr, r,
                    lambda: {"sample": k, "p": _mat(p), "q": _mat(q)})

    _run_statement(report, "de:compr", "matrix", compr)
    _run_statement(report, "cb:C1", "matrix", cb_c1)
    _run_statement(report, "cb:C2p", "matrix", cb_c2p)
    _run_statement(report, "cb:C3", "matrix", cb_c3)
    _run_statement(report, "le:comE", "matrix", com_e)
    _run_statement(report, "lemma:compatible_projs.i", "matrix", compat_i)
    _run_statement(report, "lemma:compatible_projs.ii", "matrix", compat_ii)


def _compression_mv(report: SuiteReport, m: _Model, samples: int,
                    focus: str) -> None:
    size = m.dim

    def compr(t: _Tally) -> None:
        smp = m.smp("de:compr")
        for k in range(samples):
            if focus == "projection":
                f = smp.sharp().values
            else:
                f = smp.fuzzy().values * 0.5 + 0.25
            a, b = smp.summable_pair()
            ok = np.array_equal(f * (a.values + b.values),
                                f * a.values + f * b.values)
            below = f * f
            ok = ok and bool(np.array_equal(f * below, below))
            inker = (1.0 - f) * smp.fuzzy().values
            ok = ok and (bool(np.all(f * inker == 0.0))
                         == bool(np.all(inker <= 1.0 - f)))
            g = smp.fuzzy().values
            ok = ok and (bool(np.all(f * g == 0.0))
                         == bool(np.all(g <= 1.0 - f)))
            t.tally(bool(ok), 0.0, lambda: {"sample": k, "focus": f.tolist()})

    def cb_c1(t: _Tally) -> None:
        smp = m.smp("cb:C1")
        for k in range(samples):
            p = smp.sharp()
            ok = np.array_equal(p.values * np.ones(size), p.values)
            t.tally(bool(ok), 0.0, lambda: {"sample": k})

    def cb_c2p(t: _Tally) -> None:
        smp = m.smp("cb:C2p")
        for k in range(samples):
            p, q = smp.sharp(), smp.sharp()
            a = smp.fuzzy()
            ok = np.array_equal(p.values * (q.values * a.values),
                                (p.values * q.values) * a.values)
            t.tally(bool(ok), 0.0, lambda: {"sample": k})

    def cb_c3(t: _Tally) -> None:
        smp = m.smp("cb:C3")
        for k in range(samples):
            ctx = smp.context(min(3, size))
            parts = [np.zeros(size) for _ in range(3)]
            for i, blk in enumerate(ctx.blocks[:3]):
                parts[i][list(blk)] = 1.0
            p, q, rr = parts
            a = smp.fuzzy()
            ok = np.array_equal((p + q) * ((q + rr) * a.values) * (p + q),
                                q * a.values)
            t.tally(bool(ok), 0.0, lambda: {"sample": k})

    def com_e(t: _Tally) -> None:
        smp = m.smp("le:comE")
        for k in range(samples):
            p = smp.sharp()
            a = smp.fuzzy()
            pv, av = p.values, a.values
            s1 = bool(np.all(pv * av <= av))
            s2 = bool(np.array_equal(av, pv * av + (1.0 - pv) * av))
            s3 = bool(np.all((pv * av) * ((1.0 - pv) * av) == 0.0))
            c = pv * av
            s4 = bool(np.all(av - c >= 0.0)
                      and np.all(1.0 - av - pv + c >= 0.0))
            s5 = bool(np.array_equal(pv * av, np.minimum(pv, av)))
            t.tally(s1 == s2 == s3 == s4 == s5, 0.0,
                    lambda: {"sample": k, "p": _vals(p), "a": _vals(a)})

    def compat_i(t: _Tally) -> None:
        smp = m.smp("lemma:compatible_projs.i")
        for k in range(samples):
            ctx = smp.context(min(2, size))
            p = np.zeros(size)
            p[list(ctx.blocks[0])] = 1.0
            q = 1.0 - p if len(ctx.blocks) < 2 else np.zeros(size)
            if len(ctx.blocks) >= 2:
                q[list(ctx.blocks[1])] = 1.0
            a = smp.fuzzy().values
            join = np.maximum(p, q)
            ok = (np.array_equal(join * a, (p + q) * a)
                  and np.array_equal(join * a, p * a + q * a))
            t.tally(bool(ok), 0.0, lambda: {"sample": k})

    def compat_ii(t: _Tally) -> None:
        smp = m.smp("lemma:compatible_projs.ii")
        for k in range(samples):
            p, q = smp.sharp().values, smp.sharp().values
            a = smp.fuzzy().values
            ok = (np.array_equal(p * (q * a), q * (p * a))
                  and np.array_equal(p * (q * a), np.minimum(p, q) * a))
            t.tally(bool(ok), 0.0, lambda: {"sample": k})

    _run_statement(report, "de:compr", "mv", compr)
    _run_statement(report, "cb:C1", "mv", cb_c1)
    _run_statement(report, "cb:C2p", "mv", cb_c2p)
    _run_statement(report, "cb:C3", "mv", cb_c3)
    _run_statement(report, "le:comE", "mv", com_e)
    _run_statement(report, "lemma:compatible_projs.i", "mv", compat_i)
    _run_statement(report, "lemma:compatible_projs.ii", "mv", compat_ii)


def run_compression_suite(model: str = "matrix", dim_or_size: int = 4,
                          samples: int = 200, seed: int = 42,
                          tol: Tolerances = DEFAULT,
                          focus: str = "projection") -> SuiteReport:
    """Compression-base axioms and the compatibility equivalences."""
    if samples < 1:
        raise ValueError("samples must be positive")
    if focus not in ("projection", "soft"):
        raise ValueError(f"unknown focus {focus!r}")
    m = _model(model, "compression", dim_or_size, seed, tol)
    report = SuiteReport(
        suite="compression", model=model, seed=seed,
        config={"dim_or_size": dim_or_size, "samples": samples,
                "focus": focus, "tolerances": tol.to_dict()})
    if focus != "projection":
        report.metadata["negative_control"] = True
    (_compression_matrix if model == "matrix" else _compression_mv)(
        report, m, samples, focus)
    return report


# ---------------------------------------------------------------------------
# spectrality suite


def _rickart_family(a, ctx) -> sp.SpectralFamily:
    """Reference family from the definition: p_λ is the Rickart projection
    of (a - λ)⁺, freshly decomposed at each spectral value λ."""
    values = tuple(float(x) for x in ctx.eigenprojections(a)[0])
    steps = [ctx.zero_proj(a)] + [
        ctx.rickart(ctx.positive_part(ctx.shift(a, lam))) for lam in values]
    return sp.SpectralFamily(values, tuple(steps), ctx.model)


def _spectrality(report: SuiteReport, m: _Model, samples: int) -> None:
    """The spectral statements, once for both models: residuals are
    ``_res`` of a ``ctx.sub`` and the threshold is ``ctx.tol.check``,
    which is 0 on mv, so every comparison there is exact."""
    ctx, n, mul = m.ctx, m.dim, m.mul
    thr = ctx.tol.check

    def decomp(t: _Tally) -> None:
        smp = m.smp("prop:decomp")
        for k in range(samples):
            v = m.signed(smp)
            dec = sp.orthogonal_decomposition(v, ctx)
            ok = True
            worst = 0.0
            for q in sp.sign_witness_projections(v, ctx, limit=8):
                comp = ctx.complement(q)
                vp = mul(mul(q, v), q)
                vm = -mul(mul(comp, v), comp)
                r = max(_res(ctx.sub(vp, dec.v_plus), n),
                        _res(ctx.sub(vm, dec.v_minus), n))
                worst = max(worst, r)
                ok = ok and r <= thr
            t.tally(ok, worst, lambda: {"sample": k, "v": m.enc(v)})

    def limit(t: _Tally) -> None:
        smp = m.smp("coro:limit")
        for k in range(samples):
            a = m.effect(smp)
            prev = None
            ok = True
            worst = 0.0
            for level in range(1, APPROX_LEVELS + 1):
                an = np.asarray(sp.simple_approximation(a, level, ctx))
                # One decomposition of a - a_n gives its norm and its sign.
                lo, hi = m.extremes(ctx.sub(a, an))
                gap = max(abs(lo), abs(hi))
                worst = max(worst, gap - 2.0 ** -level)
                ok = ok and gap <= 2.0 ** -level + thr and lo >= -thr
                if prev is not None:
                    ok = ok and ctx.leq(prev, an)
                prev = an
            t.tally(ok, max(0.0, worst), lambda: {"sample": k, "a": m.enc(a)})

    def spectprojs(t: _Tally) -> None:
        smp = m.smp("eq:spectprojs")
        for k in range(samples):
            a = m.simple(smp)
            fam = sp.spectral_family(a, ctx)
            ref = _rickart_family(a, ctx)
            ok = len(fam.breakpoints) == len(ref.breakpoints) and all(
                abs(x - y) <= thr
                for x, y in zip(fam.breakpoints, ref.breakpoints))
            worst = 0.0
            for j in range(1, len(fam.projections)):
                ok = ok and ctx.leq(fam.projections[j - 1],
                                    fam.projections[j])
                eig = sp.eigenprojection(a, fam.breakpoints[j - 1], ctx)
                r = _res(ctx.sub(fam.jump(j), eig), n)
                worst = max(worst, r)
                ok = ok and r <= thr
            for step, ref_step in zip(fam.projections, ref.projections):
                r = _res(ctx.sub(step, ref_step), n)
                worst = max(worst, r)
                ok = ok and r <= thr
            bounds = sp.spectral_bounds(a, ctx)
            one = ctx.one_like(a)
            ok = (ok and ctx.leq(bounds.L * one, a)
                  and ctx.leq(a, bounds.U * one))
            ok = ok and ctx.proj_rank(fam.at(bounds.L - 0.25)) == 0
            ok = ok and ctx.proj_rank(fam.at(bounds.U)) == n
            for lo, hi in zip(fam.breakpoints, fam.breakpoints[1:]):
                mid = (lo + hi) / 2.0
                ok = ok and _res(ctx.sub(fam.at(mid), fam.at(mid + 1e-12)),
                                 n) <= thr
            t.tally(ok, worst, lambda: {"sample": k, "a": m.enc(a)})

    def spectres(t: _Tally) -> None:
        smp = m.smp("eq:spectresV")
        for k in range(samples):
            a = m.effect(smp)
            fam = sp.spectral_family(a, ctx)
            r0 = ctx.norm(ctx.sub(a, sp.reconstruct(fam)))
            ok = r0 <= thr
            worst = r0
            for mesh in MESHES:
                gap = ctx.norm(ctx.sub(a, sp.reconstruct(fam, mesh)))
                ok = ok and gap <= mesh + thr
                worst = max(worst, gap if gap > mesh else 0.0)
            t.tally(ok, worst, lambda: {"sample": k, "a": m.enc(a),
                                        "breakpoint_residual": r0})

    _run_statement(report, "prop:decomp", m.name, decomp)
    _run_statement(report, "coro:limit", m.name, limit)
    _run_statement(report, "eq:spectprojs", m.name, spectprojs)
    _run_statement(report, "eq:spectresV", m.name, spectres)


def _spectrality_matrix(report: SuiteReport, m: _Model, samples: int,
                        floor_mode: str) -> None:
    dim, tol, ctx = m.dim, m.tol, m.ctx
    thr = tol.check
    eye = np.eye(dim)
    degenerate_ties = 0

    def floor_map(a: mx.Effect) -> mx.Projection:
        if floor_mode == "floor":
            return mx.floor(a, tol)
        return mx.projection_cover(a, tol)

    def projcov(t: _Tally) -> None:
        smp = m.smp("de:projcov")
        for k in range(samples):
            a = smp.simple_effect()
            cover = mx.projection_cover(a, tol)
            ok = mx.leq(a, cover, tol=tol)
            gens = mx.bicommutant_projections(a, tol)
            for q in mx.subsum_projections(gens, limit=16):
                qp = mx.Projection(q, tol=tol, validate=False)
                ok = ok and (mx.leq(a, qp, tol=tol)
                             == mx.leq(cover, qp, tol=tol))
            lam = smp.uniform(0.05, 1.0)
            scaled_cover = mx.projection_cover(mx.scale_effect(a, lam), tol)
            r = _res(scaled_cover.matrix - cover.matrix, dim)
            t.tally(ok and r <= thr, r,
                    lambda: {"sample": k, "a": _mat(a), "lambda": lam})

    def projcover_lemma(t: _Tally) -> None:
        smp = m.smp("lemma:projcover")
        for k in range(samples):
            if k % 2 == 0:
                a, b = smp.orthogonal_pair()
            else:
                a, b = smp.effect(), smp.effect()
            cover = mx.projection_cover(a, tol)
            r1 = _res(mx.seq_product(a, b, tol).matrix, dim)
            r2 = _res(mx.seq_product(cover, b, tol).matrix, dim)
            t.tally((r1 <= thr) == (r2 <= thr), 0.0,
                    lambda: {"sample": k, "a": _mat(a), "b": _mat(b),
                             "effect_product": r1, "cover_product": r2})

    def covex_floor(t: _Tally) -> None:
        smp = m.smp("lemma:covex_floor")
        for k in range(samples):
            ones = int(smp.rng.integers(0, dim)) if k % 2 == 0 else 0
            a = smp.effect_with_top(ones=ones) if ones else smp.effect(
                values=smp.rng.uniform(0.0, 0.95, dim))
            flr = floor_map(a)
            d = a.decomposition
            cols = d.vectors[:, d.values >= 1.0 - tol.cluster]
            direct = cols @ cols.conj().T if cols.size else np.zeros(
                (dim, dim), dtype=np.complex128)
            r1 = _res(flr.matrix - direct, dim)
            dual = mx.floor(a.complement(), tol)
            cover = mx.projection_cover(a, tol)
            r2 = _res(dual.matrix - (eye - cover.matrix), dim)
            r = max(r1, r2)
            t.tally(r <= thr, r, lambda: {"sample": k, "a": _mat(a),
                                          "cluster_route": r1, "duality": r2})

    def floor_lemma(t: _Tally) -> None:
        smp = m.smp("lemma:floor")
        for k in range(samples):
            ones = int(smp.rng.integers(1, dim + 1))
            a = smp.effect_with_top(ones=ones, ceiling=0.95)
            flr = floor_map(a)
            iters = mx.floor_iterates(a, FLOOR_POWER, tol)
            ok = True
            worst = 0.0
            for j in range(min(3, len(iters) - 1)):
                ok = ok and mx.psd(iters[j].matrix - iters[j + 1].matrix,
                                   tol=tol)
            ok = ok and mx.psd(iters[-1].matrix - flr.matrix, tol=tol)
            vals = a.clamped_values()
            below_one = vals[vals < 1.0 - tol.cluster]
            mu_max = float(below_one[-1]) if below_one.size else 0.0
            gap = operator_norm(iters[-1].matrix - flr.matrix)
            bound = mu_max ** FLOOR_POWER + thr
            ok = ok and gap <= bound
            worst = max(worst, gap)
            t.tally(ok, worst, lambda: {"sample": k, "a": _mat(a),
                                        "rate_gap": gap, "rate_bound": bound})

    def b_compar(t: _Tally) -> None:
        nonlocal degenerate_ties
        smp = m.smp("de:b-compar")
        for k in range(samples):
            if k % 4 == 3:
                e = smp.effect()
                f = smp.effect()
                try:
                    sp.comparability_witness(e, f, ctx, tol)
                    commuted = ctx.commutes(e, f)
                    t.tally(commuted, 0.0,
                            lambda: {"sample": k, "e": _mat(e),
                                     "f": _mat(f), "note": "witness for a "
                                     "non-commuting pair"})
                except mx.NotCommutingError:
                    t.tally(True)
                continue
            e, f = smp.commuting()
            wit = sp.comparability_witness(e, f, ctx, tol)
            if wit.degenerate:
                degenerate_ties += 1
            p = wit.p
            comp = ctx.complement(p)
            ok = (ctx.leq(ctx.compress(p, e), ctx.compress(p, f))
                  and ctx.leq(ctx.compress(comp, f), ctx.compress(comp, e)))
            t.tally(ok, 0.0, lambda: {"sample": k, "e": _mat(e), "f": _mat(f)})

    def commut(t: _Tally) -> None:
        smp = m.smp("prop:commut")
        for k in range(samples):
            if k % 2 == 0:
                a, b = smp.commuting()
            else:
                a, b = smp.effect(), smp.effect()
            seq_res, lie_res = mx.commutation_residuals(a, b, tol)
            b1 = seq_res <= tol.comm
            b2 = lie_res <= tol.comm
            projs_ok = True
            for pa in mx.bicommutant_projections(a, tol):
                r = frobenius(pa.matrix @ b.matrix - b.matrix @ pa.matrix)
                projs_ok = projs_ok and r <= tol.comm
            t.tally(b1 == b2 == projs_ok, 0.0,
                    lambda: {"sample": k, "a": _mat(a), "b": _mat(b),
                             "sequential": b1, "ordinary": b2,
                             "projections": projs_ok})

    def property_a(t: _Tally) -> None:
        smp = m.smp("propertyA")
        for k in range(samples):
            u = smp.unitary()
            a = smp.effect(unitary=u)
            b = smp.effect(unitary=u)
            ok = True
            for n in range(1, 9):
                an = np.asarray(sp.simple_approximation(a, n, ctx, tol))
                ok = ok and ctx.commutes(an, b)
            ok = ok and ctx.commutes(a, b)
            comp_iters = mx.floor_iterates(a.complement(), 8, tol)
            chain = [eye - it.matrix for it in comp_iters]
            for step in chain:
                ok = ok and ctx.commutes(step, b)
            cover = mx.projection_cover(a, tol)
            ok = ok and ctx.commutes(cover, b)
            t.tally(ok, 0.0, lambda: {"sample": k, "a": _mat(a), "b": _mat(b)})

    _run_statement(report, "de:projcov", "matrix", projcov)
    _run_statement(report, "lemma:projcover", "matrix", projcover_lemma)
    _run_statement(report, "lemma:covex_floor", "matrix", covex_floor)
    _run_statement(report, "lemma:floor", "matrix", floor_lemma)
    _run_statement(report, "de:b-compar", "matrix", b_compar)
    _run_statement(report, "prop:commut", "matrix", commut)
    _run_statement(report, "propertyA", "matrix", property_a)
    report.metadata["degenerate_comparability_ties"] = degenerate_ties


def _spectrality_mv(report: SuiteReport, m: _Model, samples: int,
                    floor_mode: str) -> None:
    size, tol, ctx = m.dim, m.tol, m.ctx

    def floor_vals(av: np.ndarray) -> np.ndarray:
        if floor_mode == "floor":
            return (av == 1.0).astype(float)
        return (av > 0.0).astype(float)

    def projcov(t: _Tally) -> None:
        smp = m.smp("de:projcov")
        for k in range(samples):
            a = smp.fuzzy()
            cover = ctx.support(a)
            ok = bool(np.all(a.values <= cover.values))
            for _ in range(8):
                q = smp.sharp()
                ok = ok and (bool(np.all(a.values <= q.values))
                             == bool(np.all(cover.values <= q.values)))
            lam = float(smp.rng.integers(1, smp.denom + 1)) / smp.denom
            ok = ok and np.array_equal(
                ctx.support(lam * a.values).values, cover.values)
            t.tally(bool(ok), 0.0, lambda: {"sample": k, "a": _vals(a)})

    def projcover_lemma(t: _Tally) -> None:
        smp = m.smp("lemma:projcover")
        for k in range(samples):
            a, b = smp.fuzzy(), smp.fuzzy()
            cover = ctx.support(a).values
            ok = (bool(np.all(a.values * b.values == 0.0))
                  == bool(np.all(cover * b.values == 0.0)))
            t.tally(bool(ok), 0.0, lambda: {"sample": k, "a": _vals(a),
                                            "b": _vals(b)})

    def covex_floor(t: _Tally) -> None:
        smp = m.smp("lemma:covex_floor")
        for k in range(samples):
            a = smp.fuzzy()
            flr = floor_vals(a.values)
            direct = ctx.rickart(a.values - 1.0).values
            ok = np.array_equal(flr, direct)
            dual = (1.0 - a.values == 1.0).astype(float)
            ok = ok and np.array_equal(dual,
                                       1.0 - ctx.support(a).values)
            t.tally(bool(ok), 0.0, lambda: {"sample": k, "a": _vals(a)})

    def floor_lemma(t: _Tally) -> None:
        smp = m.smp("lemma:floor")
        for k in range(samples):
            ticks = smp.rng.integers(0, smp.denom + 1, size)
            ticks[smp.rng.integers(0, size)] = smp.denom
            av = ticks / smp.denom
            below = av[av < 1.0]
            if below.size and below.max() > 0.95:
                av[av == below.max()] = 0.95
                below = av[av < 1.0]
            flr = floor_vals(av)
            power = av.copy()
            ok = True
            for _ in range(FLOOR_POWER - 1):
                nxt = power * av
                ok = ok and bool(np.all(nxt <= power))
                power = nxt
            ok = ok and bool(np.all(flr <= power))
            mu_max = float(below.max()) if below.size else 0.0
            gap = float(np.max(np.abs(power - flr)))
            ok = ok and gap <= mu_max ** FLOOR_POWER + tol.check
            t.tally(bool(ok), gap, lambda: {"sample": k, "a": av.tolist()})

    def b_compar(t: _Tally) -> None:
        smp = m.smp("de:b-compar")
        ties = 0
        for k in range(samples):
            e, f = smp.fuzzy(), smp.fuzzy()
            wit = sp.comparability_witness(e, f, ctx, tol)
            if wit.degenerate:
                ties += 1
            p = wit.p.values
            ok = (bool(np.all(p * e.values <= p * f.values))
                  and bool(np.all((1.0 - p) * f.values
                                  <= (1.0 - p) * e.values)))
            t.tally(bool(ok), 0.0, lambda: {"sample": k, "e": _vals(e),
                                            "f": _vals(f)})
        report.metadata["degenerate_comparability_ties"] = ties

    def commut(t: _Tally) -> None:
        smp = m.smp("prop:commut")
        for k in range(samples):
            a, b = smp.fuzzy(), smp.fuzzy()
            ok = (np.array_equal(a.values * b.values, b.values * a.values)
                  and ctx.commutes(a, b))
            t.tally(bool(ok), 0.0, lambda: {"sample": k})

    def property_a(t: _Tally) -> None:
        smp = m.smp("propertyA")
        for k in range(samples):
            a, b = smp.fuzzy(), smp.fuzzy()
            ok = True
            for n in range(1, 9):
                an = np.asarray(sp.simple_approximation(a, n, ctx, tol))
                ok = ok and np.array_equal(an * b.values, b.values * an)
            ok = ok and ctx.commutes(a, b)
            t.tally(bool(ok), 0.0, lambda: {"sample": k})

    _run_statement(report, "de:projcov", "mv", projcov)
    _run_statement(report, "lemma:projcover", "mv", projcover_lemma)
    _run_statement(report, "lemma:covex_floor", "mv", covex_floor)
    _run_statement(report, "lemma:floor", "mv", floor_lemma)
    _run_statement(report, "de:b-compar", "mv", b_compar)
    _run_statement(report, "prop:commut", "mv", commut)
    _run_statement(report, "propertyA", "mv", property_a)


def run_spectrality_suite(model: str = "matrix", dim_or_size: int = 6,
                          samples: int = 100, seed: int = 7,
                          tol: Tolerances = DEFAULT,
                          floor_mode: str = "floor") -> SuiteReport:
    """Covers, floors, comparability, decompositions, reconstruction."""
    if samples < 1:
        raise ValueError("samples must be positive")
    if floor_mode not in ("floor", "cover"):
        raise ValueError(f"unknown floor mode {floor_mode!r}")
    m = _model(model, "spectrality", dim_or_size, seed, tol)
    report = SuiteReport(
        suite="spectrality", model=model, seed=seed,
        config={"dim_or_size": dim_or_size, "samples": samples,
                "floor_mode": floor_mode, "tolerances": tol.to_dict(),
                "floor_power": FLOOR_POWER, "approx_levels": APPROX_LEVELS,
                "meshes": list(MESHES)})
    report.metadata["property_a_coverage"] = (
        "constructed chains only: dyadic approximations and complements of "
        "sequential powers")
    if floor_mode != "floor":
        report.metadata["negative_control"] = True
    _spectrality(report, m, samples)
    (_spectrality_matrix if model == "matrix" else _spectrality_mv)(
        report, m, samples, floor_mode)
    return report


# ---------------------------------------------------------------------------
# context suite


def _lagrange_coefficients(nodes, i: int) -> list[float]:
    """Monomial coefficients of the i-th Lagrange basis polynomial, in
    floats."""
    xi = float(nodes[i])
    coeffs = [1.0]
    for j, x in enumerate(nodes):
        if j == i:
            continue
        xj = float(x)
        den = xi - xj
        new = [0.0] * (len(coeffs) + 1)
        for deg, ck in enumerate(coeffs):
            new[deg] -= ck * xj / den
            new[deg + 1] += ck / den
        coeffs = new
    return coeffs


def _lagrange_basis(nodes, points) -> list[list[Fraction]]:
    """Exact values of every Lagrange basis polynomial on ``nodes`` at each
    point: row k holds L_0(x_k), ..., L_{n-1}(x_k) as fractions.

    Barycentric form (Berrut & Trefethen, SIAM Review 46, 2004): with
    w_i = 1 / prod_{j != i} (x_i - x_j), a point off the nodes has
    L_i(x) = (w_i / (x - x_i)) / sum_j w_j / (x - x_j), and the node x_k
    has L_i(x_k) = delta_ik.  The weights cost O(n^2) once and each point
    O(n), so a whole row costs no more than one L_i at one point.
    """
    xs = [Fraction(x) for x in nodes]
    weights = []
    for i, xi in enumerate(xs):
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                den *= xi - xj
        weights.append(1 / den)
    one, zero = Fraction(1), Fraction(0)
    at_node = {x: k for k, x in enumerate(xs)}
    rows = []
    for p in points:
        x = Fraction(p)
        k = at_node.get(x)
        if k is not None:
            rows.append([one if i == k else zero for i in range(len(xs))])
        else:
            terms = [w / (x - xi) for w, xi in zip(weights, xs)]
            total = sum(terms)
            rows.append([term / total for term in terms])
    return rows


def _merge_representation(rep: sp.ReducedRepresentation, delta: float,
                          raw_of) -> tuple[list[float], list[np.ndarray]]:
    """Merge each coefficient within delta of its block's first one into
    that block, the rule of ``fuzzy.mv_is_context_spectral``."""
    coeffs: list[float] = []
    projs: list[np.ndarray] = []
    for mu, proj in zip(rep.coefficients, rep.projections):
        if coeffs and delta > 0.0 and mu - coeffs[-1] <= delta:
            projs[-1] = projs[-1] + raw_of(proj)
        else:
            coeffs.append(mu)
            projs.append(raw_of(proj))
    return coeffs, projs


def _context(report: SuiteReport, m: _Model, samples: int,
             merge_delta: float) -> None:
    """The context statements with one body for both models; the
    definitional Rickart family is the reference on both."""
    ctx, n = m.ctx, m.dim
    thr = ctx.tol.check

    def closed_form(t: _Tally) -> None:
        smp = m.smp("thm:contexts")
        for k in range(samples):
            if k == 0 and merge_delta > 0.0:
                # Two levels 0.1 apart always merge, so the control fails
                # for every seed, not only when sampled levels happen to.
                a = m.with_values(smp, np.resize([0.4, 0.5], n))
            else:
                a = m.simple(smp, gap=0.15)
            rep = sp.reduced_representation(a, ctx)
            coeffs, projs = _merge_representation(rep, merge_delta, ctx.raw)
            closed = sp.family_from_representation(coeffs, projs, ctx.model)
            ref = _rickart_family(a, ctx)
            ok = len(closed.projections) == len(ref.projections)
            worst = 0.0
            if ok:
                for cp, fp in zip(closed.projections, ref.projections):
                    r = _res(ctx.sub(cp, fp), n)
                    worst = max(worst, r)
                    ok = ok and r <= thr
                ok = ok and all(
                    abs(x - y) <= thr
                    for x, y in zip(closed.breakpoints, ref.breakpoints))
            t.tally(ok, worst, lambda: {
                "sample": k, "a": m.enc(a),
                "closed_steps": len(closed.projections),
                "family_steps": len(ref.projections)})

    def reduced(t: _Tally) -> None:
        smp = m.smp("thm:contexts.reduced")
        for k in range(samples):
            a = m.simple(smp, gap=0.15)
            rep = sp.reduced_representation(a, ctx)
            ref = _rickart_family(a, ctx)
            ok = all(y - x > ctx.tol.cluster for x, y in
                     zip(rep.coefficients, rep.coefficients[1:]))
            worst = 0.0
            for j in range(1, len(ref.breakpoints) + 1):
                r = _res(ctx.sub(ref.jump(j), rep.projections[j - 1]), n)
                worst = max(worst, r)
                ok = ok and r <= thr
                ok = ok and abs(ref.breakpoints[j - 1]
                                - rep.coefficients[j - 1]) <= thr
            for i, p in enumerate(rep.projections):
                for q in rep.projections[i + 1:]:
                    r = _res(m.mul(ctx.raw(p), ctx.raw(q)), n)
                    worst = max(worst, r)
                    ok = ok and r <= thr
            t.tally(ok, worst, lambda: {"sample": k, "a": m.enc(a)})

    _run_statement(report, "thm:contexts", m.name, closed_form)
    _run_statement(report, "thm:contexts.reduced", m.name, reduced)


def _context_matrix(report: SuiteReport, m: _Model, samples: int,
                    merge_delta: float) -> None:
    dim, tol, ctx = m.dim, m.tol, m.ctx
    thr = tol.check

    def functions(t: _Tally) -> None:
        smp = m.smp("thm:contexts.functions")
        for k in range(samples):
            a = smp.simple_effect(gap=0.15)
            rep = sp.reduced_representation(a, ctx, tol)
            nodes = list(rep.coefficients)
            if merge_delta > 0.0:
                nodes = [mu for j, mu in enumerate(nodes)
                         if j == 0 or mu - nodes[j - 1] > merge_delta]
            spread = min((y - x for x, y in zip(nodes, nodes[1:])),
                         default=1.0)
            assert spread > tol.cluster, \
                "reduced representation carries duplicate coefficients"
            powers = [np.eye(dim, dtype=np.complex128)]
            for _ in range(len(nodes) - 1):
                powers.append(powers[-1] @ a.matrix)
            ok = True
            worst = 0.0
            for i, proj in enumerate(rep.projections[:len(nodes)]):
                coeffs = _lagrange_coefficients(nodes, i)
                poly = sum((c * power for c, power in zip(coeffs, powers)),
                           np.zeros((dim, dim), dtype=np.complex128))
                r = _res(poly - proj.matrix, dim)
                worst = max(worst, r)
                ok = ok and r <= thr
            t.tally(ok, worst, lambda: {"sample": k, "a": _mat(a),
                                        "nodes": [float(x) for x in nodes]})

    _run_statement(report, "thm:contexts.functions", "matrix", functions)


def _context_mv(report: SuiteReport, m: _Model, samples: int,
                merge_delta: float) -> None:
    def functions(t: _Tally) -> None:
        smp = m.smp("thm:contexts.functions")
        for k in range(samples):
            a = smp.fuzzy()
            rep = sp.reduced_representation(a, m.ctx)
            nodes = list(rep.coefficients)
            if merge_delta > 0.0:
                nodes = [mu for j, mu in enumerate(nodes)
                         if j == 0 or mu - nodes[j - 1] > merge_delta]
            table = np.array([[float(x) for x in row]
                              for row in _lagrange_basis(nodes, a.values)])
            ok = True
            for i, proj in enumerate(rep.projections[:len(nodes)]):
                ok = ok and np.array_equal(table[:, i], proj.values)
            t.tally(bool(ok), 0.0, lambda: {"sample": k, "a": _vals(a)})

    _run_statement(report, "thm:contexts.functions", "mv", functions)


def run_context_suite(model: str = "matrix", dim_or_size: int = 4,
                      samples: int = 200, seed: int = 42,
                      tol: Tolerances = DEFAULT,
                      merge_delta: float = 0.0) -> SuiteReport:
    """Reduced representations, closed-form families, functions of a."""
    if samples < 1:
        raise ValueError("samples must be positive")
    m = _model(model, "context", dim_or_size, seed, tol)
    report = SuiteReport(
        suite="context", model=model, seed=seed,
        config={"dim_or_size": dim_or_size, "samples": samples,
                "merge_delta": merge_delta, "tolerances": tol.to_dict()})
    if merge_delta > 0.0:
        report.metadata["negative_control"] = True
    _context(report, m, samples, merge_delta)
    (_context_matrix if model == "matrix" else _context_mv)(
        report, m, samples, merge_delta)
    return report


# ---------------------------------------------------------------------------
# finite-table suite


def _broken_e1_table() -> tb.FiniteEffectAlgebra:
    alg = tb.lukasiewicz(3)
    table = alg.table.copy()
    table[0, 1] = 0
    return tb.FiniteEffectAlgebra(table, one=alg.one, labels=alg.labels)


def _broken_e4_table() -> tb.FiniteEffectAlgebra:
    alg = tb.lukasiewicz(3)
    table = alg.table.copy()
    table[alg.one, alg.one] = alg.one
    return tb.FiniteEffectAlgebra(table, one=alg.one, labels=alg.labels)


def run_table_suite(seed: int = 42, tol: Tolerances = DEFAULT,
                    corrupted: bool = False) -> SuiteReport:
    """Exhaustive axiom checks on the built-in Cayley tables, plus the
    cross-model oracle against the fuzzy embeddings."""
    report = SuiteReport(
        suite="tables", model="table", seed=seed,
        config={"tables": list(tb.BUILTIN_NAMES), "corrupted": corrupted,
                "tolerances": tol.to_dict()})
    if corrupted:
        report.metadata["negative_control"] = True
        for name, factory in (("broken-e1", _broken_e1_table),
                              ("broken-e4", _broken_e4_table)):
            for result in tb.check_ea_axioms(factory(), name).results:
                report.add(result)
        return report

    algs = {name: tb.builtin_table(name) for name in tb.BUILTIN_NAMES}
    for name, alg in algs.items():
        for result in tb.check_ea_axioms(alg, name).results:
            report.add(result)

    def oracle(t: _Tally) -> None:
        for name, alg in algs.items():
            n = alg.size
            for i, ok in enumerate(~alg.principal | alg.sharp):
                t.tally(bool(ok), 0.0, lambda: {
                    "table": name, "element": alg.label(i),
                    "clause": "principal implies sharp"})
            image = tb.fuzzy_embedding(name)
            if image is None:
                continue
            # Row i of v is element i's image; pair verdicts are [i, j].
            v = np.stack([e.values for e in image])
            a, b = v[:, None, :], v[None, :, :]
            comp = [alg.orthosupplement(i) for i in range(n)]
            per_element = {
                "orthosupplement": (v[comp] == 1.0 - v).all(axis=1),
                "sharpness": alg.sharp == ((v == 0.0) | (v == 1.0)).all(
                    axis=1),
            }
            for i in range(n):
                for clause, oks in per_element.items():
                    t.tally(bool(oks[i]), 0.0, lambda: {
                        "table": name, "element": alg.label(i),
                        "clause": clause})
            total, s, inf = a + b, alg.table, alg.infima
            s_def, inf_def = s != tb.UNDEFINED, inf != tb.UNDEFINED
            per_pair = {
                "sum": (s_def == ~(total > 1.0).any(axis=2)) & (
                    ~s_def | (v[np.where(s_def, s, 0)] == total).all(
                        axis=2)),
                "order": alg.order == (a <= b).all(axis=2),
                "infimum": inf_def & (
                    v[np.where(inf_def, inf, 0)] == np.minimum(a, b)).all(
                        axis=2),
                "compatibility": alg.compatibility,
            }
            for i in range(n):
                for j in range(n):
                    for clause, oks in per_pair.items():
                        t.tally(bool(oks[i, j]), 0.0,
                                lambda: {"table": name, "a": alg.label(i),
                                         "b": alg.label(j), "clause": clause})

    def diamond_shape(t: _Tally) -> None:
        alg = algs["diamond"]
        t.tally(tb.incompatible_pairs(alg) == [(1, 2)], 0.0,
                lambda: {"clause": "incompatible pair a,b"})
        t.tally(tb.non_sharp_elements(alg) == [1, 2], 0.0,
                lambda: {"clause": "a and b are not sharp"})
        t.tally(tb.non_principal_elements(alg) == [1, 2], 0.0,
                lambda: {"clause": "a and b are not principal"})
        t.tally(alg.brute_inf([1, 2]) == 0
                and alg.brute_sup([1, 2]) == 3, 0.0,
                lambda: {"clause": "lattice bounds of a,b"})

    _run_statement(report, "tables:oracle", "table", oracle)
    _run_statement(report, "tables:diamond", "table", diamond_shape)
    return report


# ---------------------------------------------------------------------------
# all suites


def run_all(model: str = "matrix", dim_or_size: int = 4, samples: int = 200,
            seed: int = 42, tol: Tolerances = DEFAULT) -> list[SuiteReport]:
    """Every suite plus its negative control, in a stable order.

    At dimension (or size) 1 two controls cannot fail on a correct build,
    so they are left out and the suite they control records why: with one
    point there is no second spectral value for the context control to
    merge, and 1x1 matrices commute, so the Jordan product (ab + ba) / 2
    is the sequential product there.
    """
    control_samples = max(1, samples // 4)
    broken_product = "jordan" if model == "matrix" else "lukasiewicz"
    sea = run_sea_suite(model, dim_or_size, samples, seed, tol)
    context = run_context_suite(model, dim_or_size, samples, seed, tol)
    reports = [
        sea,
        run_compression_suite(model, dim_or_size, samples, seed, tol),
        run_spectrality_suite(model, dim_or_size, samples, seed, tol),
        context,
        run_table_suite(seed=seed, tol=tol),
    ]
    if dim_or_size == 1 and model == "matrix":
        sea.metadata["control_omitted"] = (
            "product=jordan: 1x1 matrices commute, so the Jordan product "
            "is the sequential product")
    else:
        reports.append(run_sea_suite(model, dim_or_size, control_samples,
                                     seed, tol, product=broken_product))
    reports += [
        run_compression_suite(model, dim_or_size, control_samples, seed,
                              tol, focus="soft"),
        run_spectrality_suite(model, dim_or_size, control_samples, seed,
                              tol, floor_mode="cover"),
    ]
    if dim_or_size == 1:
        context.metadata["control_omitted"] = (
            "merge_delta=0.25: one point has a single spectral value, so "
            "there is nothing to merge")
    else:
        reports.append(run_context_suite(model, dim_or_size, control_samples,
                                         seed, tol, merge_delta=0.25))
    reports.append(run_table_suite(seed=seed, tol=tol, corrupted=True))
    return reports
