"""Command-line front end.

Verbs: validate, spectrum, approx, decompose, witness, verify, mv.
Exit codes: 0 on success or a passing suite, 1 on a domain failure
(invalid element, failing suite, non-commuting pair), 2 on usage or
parse errors.

All JSON output is the bytes of ``json.dumps(doc, indent=2,
sort_keys=True)`` plus a newline, written by ``_dumps``.  With an indent
``json.dumps`` runs its pure-Python encoder, one generator step per
number; ``_dumps`` writes each row of floats (a matrix row, a value
list) in one ``str.join`` of ``float.__repr__``, the repr ``json``
itself uses.

The parser is built once per process (``build_parser`` is cached): a
tree of eight argparse parsers costs more to build than the engine
spends on a dim-8 element.  ``main`` looks up the ``cmd_*`` function
of the parsed verb when the call runs, not when the tree is built, so a
function rebound in this module after the first call (a test's
monkeypatch, a tracer's wrapper) is the one that runs.

A verb loads only what it runs.  Start-up imports ``config``,
``linalg``, ``matrices`` and ``spectral``; the pointwise model
(``fuzzy``) is imported when a ``"values"`` document is read or ``mv``
embeds a matrix, and the verifier with its tables and reports when
``verify`` runs.  ``cmd_verify`` looks its runner up on ``verify`` when
it runs, by the same rule as ``main``.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .config import DEFAULT, Tolerances
from .linalg import NotHermitianError, frobenius, require_hermitian
from . import matrices as mx
from . import spectral as sp


class _UsageError(Exception):
    """Malformed input document or bad flag combination: exit code 2."""


class _DomainError(Exception):
    """Well-formed input that fails validation: exit code 1."""


# ---------------------------------------------------------------------------
# input and output helpers


def _load_doc(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise _UsageError(f"{path} is nested too deeply to read") from exc


def _parse_element(doc, tol: Tolerances) -> tuple:
    """The element's context, picked by the document's key, and the raw
    payload that context reads from it.

    Shape problems are usage errors; value-range checks belong to the
    individual commands.
    """
    if not isinstance(doc, dict):
        raise _UsageError("top-level JSON object expected")
    if "values" in doc:
        from .fuzzy import FuzzyContext
        ctx = FuzzyContext(tol)
    elif "re" in doc:
        ctx = mx.MatrixContext(tol)
    else:
        raise _UsageError('document needs either "re" (matrix) or "values" '
                          "(fuzzy set)")
    try:
        return ctx, ctx.read(doc)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _load_element(path: str, tol: Tolerances) -> tuple:
    return _parse_element(_load_doc(path), tol)


_LITERALS = {True: "true", False: "false", None: "null"}


def _dumps(x, pad: str = "\n") -> str:
    """``json.dumps(x, indent=2, sort_keys=True)``, byte for byte, with
    every line after the first indented by ``pad`` (after its newline).

    Non-empty lists and dicts with only ``str`` keys are written here, a
    list of finite floats in one join of ``float.__repr__`` (the repr
    ``json`` uses).  A JSON string never holds a raw newline, so the
    rest, written by ``json`` and re-indented by ``replace``, is exact
    at any depth.  A scalar reads the same at any indent: one of exact
    type ``float`` (finite), ``int``, ``str``, ``bool`` or ``None`` is
    written here by the function ``json`` itself calls for it, and any
    other (a subclass such as ``numpy.float64`` or an ``IntEnum``, or a
    non-finite float) goes through ``json.dumps``.
    """
    if isinstance(x, (list, tuple)) and x:
        inner = pad + "  "
        try:
            body = ("," + inner).join(map(float.__repr__, x))
        except TypeError:            # not all floats
            body = None
        if body is None or "n" in body:     # "nan" and "inf" are not JSON
            body = ("," + inner).join([_dumps(v, inner) for v in x])
        return "[" + inner + body + pad + "]"
    if isinstance(x, dict) and x and all(type(k) is str for k in x):
        inner = pad + "  "
        key = json.encoder.encode_basestring_ascii
        return "{" + inner + ("," + inner).join(
            [key(k) + ": " + _dumps(x[k], inner) for k in sorted(x)]
        ) + pad + "}"
    if isinstance(x, (list, tuple, dict)):
        return json.dumps(x, indent=2, sort_keys=True).replace("\n", pad)
    kind = type(x)
    if kind is float and math.isfinite(x):
        return float.__repr__(x)
    if kind is int:
        return int.__repr__(x)
    if kind is str:
        return json.encoder.encode_basestring_ascii(x)
    if kind is bool or x is None:
        return _LITERALS[x]
    return json.dumps(x)


def _write_json(doc: dict, out: str | None) -> None:
    text = _dumps(doc) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)


def _tolerances(args: argparse.Namespace) -> Tolerances:
    changes = {}
    for field in ("psd", "comm", "cluster"):
        value = getattr(args, f"tol_{field}")
        if value is None:
            continue
        if not 0.0 <= value < float("inf"):
            raise _UsageError(f"--tol-{field} must be a finite number >= 0")
        changes[field] = value
    return DEFAULT.replace(**changes) if changes else DEFAULT


def _classify(ctx, raw: np.ndarray) -> tuple[str, object]:
    """("effect"|"projection", the validated element: an Effect, or the
    value array itself) or raises _DomainError.  This is where an input
    element's values are checked; nothing downstream checks them again."""
    if ctx.model == "fuzzy":
        bad = raw[~((raw >= 0.0) & (raw <= 1.0))]
        if bad.size:
            raise _DomainError(f"not an effect (λ={float(bad[0]):g})")
        label = ("projection" if np.all((raw == 0.0) | (raw == 1.0))
                 else "effect")
        return label, raw
    try:
        eff = mx.validate_effect(raw, ctx.tol)
    except NotHermitianError as exc:
        raise _DomainError(f"not an effect ({exc})") from exc
    except mx.NotAnEffectError as exc:
        raise _DomainError(f"not an effect (λ={exc.eigenvalue:g})") from exc
    defect = frobenius(eff.matrix @ eff.matrix - eff.matrix)
    if defect <= ctx.tol.proj:
        return "projection", eff
    return "effect", eff


def _single_input(args: argparse.Namespace) -> str:
    if len(args.input) != 1:
        raise _UsageError("this command takes exactly one --input file")
    return args.input[0]


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args: argparse.Namespace) -> int:
    ctx, raw = _load_element(_single_input(args), _tolerances(args))
    try:
        label, _ = _classify(ctx, raw)
    except _DomainError as exc:
        print(exc)
        if args.out:
            _write_json({"classification": "not-an-effect",
                         "detail": str(exc)}, args.out)
        return 1
    print(label)
    if args.out:
        _write_json({"classification": label}, args.out)
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    ctx, raw = _load_element(_single_input(args), _tolerances(args))
    if not 0.0 < args.mesh < float("inf"):
        raise _UsageError("--mesh must be positive and finite")
    csv_path = os.path.splitext(args.out or "")[0] + ".csv"
    if csv_path == args.out:
        raise _UsageError(f"--out {args.out} is where the rank CSV goes; "
                          "give the JSON report another extension")
    _, effect = _classify(ctx, raw)
    rep = sp.reduced_representation(effect, ctx)
    fam = sp.family_from_representation(rep.coefficients, rep.projections)
    exact = sp.reconstruct(fam)
    try:
        meshed = sp.reconstruct(fam, args.mesh)
    except ValueError as exc:
        raise _UsageError(f"--mesh: {exc}") from exc
    doc = {
        "model": ctx.model,
        "family": fam.to_json_dict(ctx),
        "bounds": {"L": float(fam.L), "U": float(fam.U)},
        "eigenvalues": [float(x) for x in rep.coefficients],
        "eigenprojections": [ctx.write(p) for p in rep.projections],
        "mesh": args.mesh,
        "reconstruction_residual": ctx.norm(ctx.sub(effect, meshed)),
        "breakpoint_residual": ctx.norm(ctx.sub(effect, exact)),
    }
    _write_json(doc, args.out)
    if args.out:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(fam.csv_lines(ctx)) + "\n")
        print(f"wrote {args.out} and {csv_path}; reconstruction residual "
              f"{doc['reconstruction_residual']:.3g} at mesh {args.mesh:g}")
    return 0


def cmd_approx(args: argparse.Namespace) -> int:
    ctx, raw = _load_element(_single_input(args), _tolerances(args))
    if not 1 <= args.levels <= 24:
        raise _UsageError("--levels must be between 1 and 24")
    _, effect = _classify(ctx, raw)
    levels = range(1, args.levels + 1)
    stairs = sp.simple_approximation(effect, np.array(levels), ctx)
    gaps = ctx.norm(ctx.sub(effect, stairs))
    rows = [{"level": n, "bound": 2.0 ** -n, "gap": float(gap),
             "element": ctx.write(an)}
            for n, an, gap in zip(levels, stairs, gaps)]
    doc = {"model": ctx.model, "levels": rows}
    _write_json(doc, args.out)
    if args.out:
        print(f"wrote {args.out}; worst gap "
              f"{max(r['gap'] for r in rows):.3g}")
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    ctx, raw = _load_element(_single_input(args), _tolerances(args))
    try:
        if ctx.model == "matrix":
            raw = require_hermitian(raw)
        elif not np.all(np.isfinite(raw)):
            raise _DomainError("values must be finite")
    except NotHermitianError as exc:
        raise _DomainError(str(exc)) from exc
    # Quiet on overflow: on entries near the float limit a product of the
    # split may overflow, and such a split is refused.
    with np.errstate(over="ignore", invalid="ignore"):
        dec = sp.orthogonal_decomposition(raw, ctx)
    if not all(np.all(np.isfinite(x)) for x in (dec.v_plus, dec.v_minus)):
        raise _DomainError("decomposition overflows: entries too close to "
                           "the float limit")
    doc = {
        "model": ctx.model,
        "v_plus": ctx.write(dec.v_plus),
        "v_minus": ctx.write(dec.v_minus),
        "projection": ctx.write(dec.p),
    }
    _write_json(doc, args.out)
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    if len(args.input) != 2:
        raise _UsageError("witness takes exactly two --input files")
    tol = _tolerances(args)
    pair = []
    for path in args.input:
        ctx, raw = _load_element(path, tol)
        pair.append((ctx, _classify(ctx, raw)[1]))
    (ctx, e), (other, f) = pair
    if ctx.model != other.model:
        raise _UsageError("witness inputs must share a model")
    try:
        wit = sp.comparability_witness(e, f, ctx)
    except mx.NotCommutingError as exc:
        raise _DomainError("elements do not commute") from exc
    except mx.DimensionMismatchError as exc:
        raise _DomainError(str(exc)) from exc
    # p keeps a value of e - f up to tol.kernel; rounding in the
    # compressions can take one just under it past tol.check.
    comp = ctx.complement(wit.p)
    if not (ctx.leq(ctx.compress(wit.p, e), ctx.compress(wit.p, f))
            and ctx.leq(ctx.compress(comp, f), ctx.compress(comp, e))):
        raise _DomainError("constructed witness failed its defining order")
    doc = {
        "model": ctx.model,
        "p": ctx.write(wit.p),
        "degenerate": wit.degenerate,
    }
    _write_json(doc, args.out)
    return 0


def cmd_mv(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    ctx, raw = _load_element(_single_input(args), tol)
    _, effect = _classify(ctx, raw)
    if ctx.model == "fuzzy":
        rep = sp.reduced_representation(effect, ctx)
        doc = {
            "space": len(effect),
            "mu": list(rep.coefficients),
            "parts": [np.flatnonzero(p).tolist() for p in rep.projections],
            "family": sp.family_from_representation(
                rep.coefficients, rep.projections).to_json_dict(ctx),
            "sharp": ctx.is_sharp(effect),
        }
    else:
        from .fuzzy import spectrum_representation
        image, rep = spectrum_representation(effect, tol=tol)
        doc = {
            "space": rep.space,
            "degree": rep.degree,
            "samples": rep.samples,
            "values": image.tolist(),
            "mult_residual": rep.mult_residual,
            "isometry_residual": rep.isometry_residual,
        }
    _write_json(doc, args.out)
    return 0


def _summarize(doc: dict) -> None:
    suites = doc["suites"] if "suites" in doc else [doc]
    for srep in suites:
        control = srep.get("metadata", {}).get("negative_control", False)
        tag = " [negative control]" if control else ""
        print(f"suite {srep['suite']} ({srep['model']}): "
              f"{srep['verdict']}{tag}")
        for r in srep["results"]:
            if r["passed"] == r["samples"]:
                continue
            witness = json.dumps(r.get("witness"), sort_keys=True)
            if len(witness) > 160:
                witness = witness[:157] + "..."
            print(f"  FAIL {r['statement_id']} ({r['model']}): "
                  f"{r['passed']}/{r['samples']} passed, "
                  f"max residual {r['max_residual']:.3g}, "
                  f"witness {witness}")
    print(f"verdict: {doc['verdict']}")


# What --suite offers.  cmd_verify finds the runner on ``verify`` when it
# runs: ``run_all`` for "all", ``run_<suite>_suite`` otherwise.  Every
# runner checks its own arguments, and cmd_verify the --product name.
_SUITES = ("sea", "compression", "spectrality", "context", "all")


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify
    from .report import merge_reports

    tol = _tolerances(args)
    model = args.model
    dim_or_size = args.size if model == "mv" else args.dim
    if args.product != "standard":
        if args.suite != "sea":
            raise _UsageError("--product applies to the sea suite only")
        control = verify.CONTROL_PRODUCT[model]
        if args.product != control:
            raise _UsageError(f"{model} model control product is {control!r}")
    extra = ({"control": args.product != "standard"} if args.suite == "sea"
             else {})
    runner = getattr(verify, "run_all" if args.suite == "all"
                     else f"run_{args.suite}_suite")
    try:
        result = runner(model, dim_or_size, args.samples, args.seed, tol,
                        **extra)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    doc = merge_reports(result) if args.suite == "all" else result.to_dict()
    _summarize(doc)
    if args.out:
        _write_json(doc, args.out)
    return 0 if doc["verdict"] == "pass" else 1


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, shared by every call: do not change it."""
    io_flags = argparse.ArgumentParser(add_help=False)
    io_flags.add_argument("--input", nargs="+", required=True,
                          help="JSON element file(s)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report here")
    common.add_argument("--tol-psd", type=float, default=None,
                        help="positive-semidefiniteness slack")
    common.add_argument("--tol-comm", type=float, default=None,
                        help="commutation residual threshold")
    common.add_argument("--tol-cluster", type=float, default=None,
                        help="eigenvalue clustering width")

    parser = argparse.ArgumentParser(
        prog="seakit",
        description="Effect-algebra toolkit: validation, spectral data, "
                    "property suites.")
    sub = parser.add_subparsers(dest="verb", required=True)

    sub.add_parser("validate", parents=[io_flags, common],
                   help="classify an element as effect, projection, or "
                        "neither")

    p = sub.add_parser("spectrum", parents=[io_flags, common],
                       help="spectral family, bounds, and reconstruction")
    p.add_argument("--mesh", type=float, default=0.01,
                   help="partition mesh for the reconstruction residual")

    p = sub.add_parser("approx", parents=[io_flags, common],
                       help="dyadic simple approximations")
    p.add_argument("--levels", type=int, default=8,
                   help="number of approximation levels")

    sub.add_parser("decompose", parents=[io_flags, common],
                   help="orthogonal positive/negative decomposition")

    sub.add_parser("witness", parents=[io_flags, common],
                   help="comparability witness for a commuting pair")

    sub.add_parser("mv", parents=[io_flags, common],
                   help="context-spectral data (fuzzy input) or the "
                        "commutative spectrum representation (matrix input)")

    p = sub.add_parser("verify", parents=[common],
                       help="run a property suite")
    p.add_argument("--suite", required=True, choices=_SUITES)
    p.add_argument("--model", choices=["matrix", "mv"], default="matrix")
    p.add_argument("--dim", type=int, default=4,
                   help="matrix dimension (matrix model)")
    p.add_argument("--size", type=int, default=8,
                   help="point-set size (mv model)")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--product",
                   choices=["standard", "jordan", "lukasiewicz"],
                   default="standard",
                   help="sequential product for the sea suite; the "
                        "non-standard choices are failing controls")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # Looked up now, not when the cached tree was built.
        return globals()[f"cmd_{args.verb}"](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DomainError as exc:
        print(exc)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
