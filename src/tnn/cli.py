"""Command-line front end.

Every command is a thin adapter over the library: it parses arguments,
loads tensors (from files or the built-in ``gallery:`` scheme), calls one
library operation, and prints a structured JSON report.  Exit codes:
0 success, 1 a mathematical check produced a ``fail`` verdict, 2 invalid
input, 3 convergence failure.  Mode indices on the command line are
1-based.  To cap BLAS/OpenMP threads, set the standard variables
(``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS``) in the
environment before the process starts: numpy reads them when it is imported.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from urllib.parse import parse_qs, urlparse

import click
import numpy as np

from . import decomp, norms, rpca, subdiff, subspace
from .errors import ConvergenceError, TnnError
from .tensor_core import asarray, read_tensor_file, write_tensor_file


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"not serializable: {type(obj)!r}")


def emit(doc, pretty):
    click.echo(json.dumps(doc, sort_keys=True, default=_json_default,
                          indent=2 if pretty else None))


def adapter(fn):
    """Map library errors to the documented exit codes."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            code = fn(*args, **kwargs)
        except ConvergenceError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except (TnnError, OSError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        sys.exit(code or 0)

    return wrapped


_GALLERY_DEFAULT_PART = {
    "notsingle": "Z", "oneperp": "T", "yuan3": "X", "yuan33": "X",
    "yuan4": "X", "limitation": "TS",
}
_GALLERY_PIECES = ("T", "Z", "X", "Y", "S")


def _gallery_part(name, t):
    """The part lookup of the gallery entry ``name`` at ``t``: the entry's
    piece ``key`` as an array, or an invalid-input error naming a piece the
    entry lacks."""
    entry = subdiff.gallery(name, t=t)

    def piece(key):
        if key not in _GALLERY_PIECES or key not in entry:
            raise TnnError(f"gallery entry {name!r} has no part {key!r}")
        return asarray(entry[key])

    return piece


def load_tensor(source):
    """A tensor from a file path or a ``gallery:name?t=..&part=..`` URI.

    Parts: the entry's ``T``/``Z``/``X``/``Y``/``S`` pieces, plus the sums
    ``ZX``, ``ZY``, and ``TS``.  Each gallery entry has a sensible default
    part (e.g. the perturbation direction ``X`` for the binary examples).
    """
    if not source.startswith("gallery:"):
        return asarray(read_tensor_file(source))
    parsed = urlparse(source)
    name = parsed.path
    query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
    t = float(query["t"]) if "t" in query else None
    part = query.get("part", _GALLERY_DEFAULT_PART.get(name, "T"))
    piece = _gallery_part(name, t)
    if part in _GALLERY_PIECES:
        return piece(part)
    if part == "ZX":
        return asarray(piece("Z") + piece("X"))
    if part == "ZY":
        return asarray(piece("Z") + piece("Y"))
    if part == "TS":
        return asarray(piece("T") + piece("S"))
    raise TnnError(f"unknown gallery part {part!r}")


@click.group()
def main():
    """Certified tensor norm, decomposability, and robust PCA toolkit."""


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

@main.group("norms")
def norms_group():
    """Spectral and nuclear norm computations."""


@norms_group.command("spectral")
@click.argument("source")
@click.option("--tol", default=1e-4, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--starts", default=32, show_default=True)
@click.option("--certify/--no-certify", default=True, show_default=True)
@click.option("--pretty", is_flag=True)
@adapter
def norms_spectral(source, tol, seed, starts, certify, pretty):
    T = load_tensor(source)
    result = norms.spectral_hopm(T, starts=starts, seed=seed)
    doc = {"kind": "spectral", "source": source, "value": result.value,
           "starts_used": result.starts_used,
           "iterations": result.iterations, "converged": result.converged}
    if certify:
        lo, up, method = norms.spectral_enclosure(T, tol=tol)
        doc["certified"] = {"lower": max(lo, result.value), "upper": up,
                            "tol": tol, "method": method}
    emit(doc, pretty)
    return 0


@norms_group.command("nuclear")
@click.argument("source")
@click.option("--pretty", is_flag=True)
@adapter
def norms_nuclear(source, pretty):
    T = load_tensor(source)
    sw = norms.nuclear_sandwich(T)
    doc = {
        "kind": "nuclear", "source": source,
        "lower": sw.lower, "upper": sw.upper, "mid": sw.mid, "gap": sw.gap,
        "atoms": len(sw.decomposition.atoms),
        "weight_sum": sw.decomposition.weight_sum,
        "flags": list(sw.flags),
    }
    emit(doc, pretty)
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

@main.group("check")
def check_group():
    """Decomposability, subdifferential, and sphere-program checks."""


def _dims_option(text):
    return tuple(int(x) for x in text.split(","))


def _index_set(text):
    return frozenset(int(x) - 1 for x in text.split(","))


def _suite_doc(kind, reports):
    verdicts = [r.verdict for r in reports]
    return {
        "kind": kind,
        "trials": len(reports),
        "pass": verdicts.count("pass"),
        "fail": verdicts.count("fail"),
        "inconclusive": verdicts.count("inconclusive"),
        "max_discrepancy": max((r.discrepancy for r in reports), default=0.0),
    }


def _decomp_suite(kind, check, dims, index_set, ranks, trials, seed, tol,
                  pretty):
    """Run ``check`` on ``trials`` seeded ``sample_pair`` draws and print
    the suite's tallies; exit 1 if any trial fails."""
    ranks = _dims_option(ranks) if ranks else tuple(
        max(1, n - 1) if k in index_set else n
        for k, n in enumerate(dims)
    )
    reports = []
    for i in range(trials):
        family, T, S = decomp.sample_pair(dims, ranks, index_set, seed + i)
        reports.append(check(T, S, family, index_set, tol=tol))
    doc = _suite_doc(kind, reports)
    emit(doc, pretty)
    return 0 if doc["fail"] == 0 else 1


@check_group.command("decomp-spectral")
@click.option("--dims", required=True, callback=lambda c, p, v: _dims_option(v))
@click.option("--I", "index_set", required=True,
              callback=lambda c, p, v: _index_set(v))
@click.option("--ranks", default=None)
@click.option("--trials", default=10, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--tol", default=1e-6, show_default=True)
@click.option("--pretty", is_flag=True)
@adapter
def check_decomp_spectral(dims, index_set, ranks, trials, seed, tol, pretty):
    return _decomp_suite("decomp-spectral", decomp.check_spectral_decomp,
                         dims, index_set, ranks, trials, seed, tol, pretty)


@check_group.command("decomp-nuclear")
@click.option("--dims", required=True, callback=lambda c, p, v: _dims_option(v))
@click.option("--I", "index_set", required=True,
              callback=lambda c, p, v: _index_set(v))
@click.option("--ranks", default=None)
@click.option("--trials", default=10, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--tol", default=1e-3, show_default=True)
@click.option("--pretty", is_flag=True)
@adapter
def check_decomp_nuclear(dims, index_set, ranks, trials, seed, tol, pretty):
    return _decomp_suite("decomp-nuclear", decomp.check_nuclear_decomp,
                         dims, index_set, ranks, trials, seed, tol, pretty)


@check_group.command("lower-bound")
@click.argument("source")
@click.option("--I", "index_set", required=True,
              callback=lambda c, p, v: _index_set(v))
@click.option("--tol", default=1e-6, show_default=True)
@click.option("--pretty", is_flag=True)
@adapter
def check_lower_bound(source, index_set, tol, pretty):
    T = load_tensor(source)
    family = subspace.family_from_tensor(T)
    report = decomp.check_nuclear_lower_bound(T, family, index_set, tol=tol)
    doc = {"kind": "lower-bound", "verdict": report.verdict,
           "lhs": report.lhs, "rhs": report.rhs, "details": report.details}
    emit(doc, pretty)
    return 0 if report.verdict != "fail" else 1


@check_group.command("weak")
@click.option("--dims", required=True, callback=lambda c, p, v: _dims_option(v))
@click.option("--trials", default=10, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--alpha", default=None, type=float)
@click.option("--tol", default=1e-6, show_default=True)
@click.option("--pretty", is_flag=True)
@adapter
def check_weak(dims, trials, seed, alpha, tol, pretty):
    reports = [
        decomp.check_weak_decomp(T, S, family, alpha=alpha, tol=tol)
        for family, T, S in (decomp.sample_weak_pair(dims, seed + i)
                             for i in range(trials))
    ]
    doc = _suite_doc("weak", reports)
    emit(doc, pretty)
    return 0 if doc["fail"] == 0 else 1


@check_group.command("subgrad")
@click.option("--gallery", "name", default=None)
@click.option("--t", default=None, type=float)
@click.option("--part", default="X", show_default=True,
              help="perturbation part for gallery entries (X or Y)")
@click.option("--candidate", default=None, help="tensor file for G")
@click.option("--base", default=None, help="tensor file for T")
@click.option("--tol", default=1e-3, show_default=True)
@click.option("--pretty", is_flag=True)
@adapter
def check_subgrad(name, t, part, candidate, base, tol, pretty):
    if name is not None:
        piece = _gallery_part(name, t)
        G, T = asarray(piece("Z") + piece(part)), piece("T")
    elif candidate and base:
        G, T = load_tensor(candidate), load_tensor(base)
    else:
        raise TnnError("need either --gallery or --candidate/--base")
    report = subdiff.is_subgradient(G, T, tol=tol)
    doc = {"kind": "subgrad", "verdict": report.verdict,
           "pairing": report.pairing,
           "nuclear_interval": report.nuclear_interval,
           "spectral_interval": report.spectral_interval,
           "notes": list(report.notes)}
    emit(doc, pretty)
    return 0 if report.verdict != "fail" else 1


@check_group.command("zmember")
@click.option("--gallery", "name", default=None)
@click.option("--t", default=None, type=float)
@click.option("--Z", "z_source", default=None)
@click.option("--T", "t_source", default=None)
@click.option("--tol", default=1e-3, show_default=True)
@click.option("--pretty", is_flag=True)
@adapter
def check_zmember(name, t, z_source, t_source, tol, pretty):
    if name is not None:
        piece = _gallery_part(name, t)
        Z, T = piece("Z"), piece("T")
    elif z_source and t_source:
        Z, T = load_tensor(z_source), load_tensor(t_source)
    else:
        raise TnnError("need either --gallery or --Z/--T")
    doc = subdiff.z_membership(Z, T, tol=tol)
    doc["kind"] = "zmember"
    emit(doc, pretty)
    return 0 if doc["verdict"] != "fail" else 1


@check_group.command("tau-probe")
@click.option("--selector", required=True,
              help="e.g. 'upperU:1,2', 'sum:[1,2;1,3;2,3]', or 'sum:ge2'")
@click.option("--dims", required=True, callback=lambda c, p, v: _dims_option(v))
@click.option("--trials", default=8, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--bisect-tol", default=1e-3, show_default=True)
@click.option("--pretty", is_flag=True)
@adapter
def check_tau_probe(selector, dims, trials, seed, bisect_tol, pretty):
    if selector == "sum:ge2":
        sel = subspace.order_ge2_sum(len(dims))
    else:
        sel = subspace.parse_selector(selector)
    sel.validate(len(dims))
    est = subdiff.probe_tau(sel, dims, trials=trials, seed=seed,
                            bisect_tol=bisect_tol)
    doc = {"kind": "tau-probe", "selector": subspace.format_selector(sel),
           "shape": list(est.shape), "feasible_max": est.feasible_max,
           "infeasible_min": est.infeasible_min, "trials": est.trials,
           "notes": sorted(set(est.notes))}
    emit(doc, pretty)
    return 0


@check_group.command("sphere")
@click.option("--name", required=True)
@click.option("--pretty", is_flag=True)
@adapter
def check_sphere(name, pretty):
    value = subdiff.solve_sphere_program(subdiff.sphere_program(name))
    emit({"kind": "sphere", "name": name, "value": value}, pretty)
    return 0


# ---------------------------------------------------------------------------
# rpca
# ---------------------------------------------------------------------------

@main.group("rpca")
def rpca_group():
    """Robust PCA instances, certificates, and the matrix solver."""


@rpca_group.command("gen")
@click.option("--dims", required=True, callback=lambda c, p, v: _dims_option(v))
@click.option("--r", default=1, show_default=True)
@click.option("--rho", default=0.05, show_default=True)
@click.option("--m", default=None, type=int)
@click.option("--seed", default=0, show_default=True)
@click.option("--style", default="incoherent", show_default=True,
              type=click.Choice(["incoherent", "gaussian"]))
@click.option("--out", required=True, help="archive path prefix")
@click.option("--pretty", is_flag=True)
@adapter
def rpca_gen(dims, r, rho, m, seed, style, out, pretty):
    inst = rpca.generate_instance(dims, r, rho, m=m, factor_style=style,
                                  seed=seed)
    # Appended, not with_suffix: that replaces a dotted prefix's last part.
    prefix = Path(out)
    l_file = prefix.with_name(prefix.name + ".L.tensor")
    s_file = prefix.with_name(prefix.name + ".S.tensor")
    write_tensor_file(l_file, inst.L)
    write_tensor_file(s_file, inst.S)
    archive = {
        "shape": list(inst.shape), "r": r, "rho": rho,
        "m": len(inst.batch_masks), "seed": seed, "style": style,
        "L_file": l_file.name, "S_file": s_file.name,
        "masks": [sorted(mask.indices()) for mask in inst.batch_masks],
    }
    arc_file = prefix.with_name(prefix.name + ".json")
    arc_file.write_text(
        json.dumps(archive, sort_keys=True, default=_json_default)
    )
    emit({"kind": "rpca-gen", "archive": str(arc_file),
          "support_count": inst.support.count}, pretty)
    return 0


def _load_instance(archive_path):
    arc_file = Path(archive_path)
    archive = json.loads(arc_file.read_text())
    shape = tuple(archive["shape"])
    L = asarray(read_tensor_file(arc_file.parent / archive["L_file"]))
    S = asarray(read_tensor_file(arc_file.parent / archive["S_file"]))
    masks = tuple(
        subspace.EntrySupport.from_indices(shape, idx)
        for idx in archive["masks"]
    )
    support = masks[0]
    for mask in masks[1:]:
        support = support.intersect(mask)
    if support.mask.tolist() != (S != 0).tolist():
        raise TnnError("archive masks do not match the sparse part's support")
    return rpca.RpcaInstance(L, S, np.sign(S), support, archive["rho"],
                             masks, archive["seed"])


@rpca_group.command("certify")
@click.option("--instance", "archive_path", required=True)
@click.option("--lam", default=None, type=float)
@click.option("--pretty", is_flag=True)
@adapter
def rpca_certify(archive_path, lam, pretty):
    inst = _load_instance(archive_path)
    report, cert, state = rpca.certify(inst, lam=lam)
    doc = {
        "kind": "rpca-certify", "lambda": report.lam,
        "conditions": report.conditions, "overall": report.overall,
        "delta": cert.delta, "neumann_terms": cert.neumann_terms,
        "golfing_residuals_2": list(state.residuals_2),
        "notes": list(report.notes),
    }
    emit(doc, pretty)
    return 0 if report.overall else 1


@rpca_group.command("solve2d")
@click.option("--n", default=40, show_default=True)
@click.option("--r", default=2, show_default=True)
@click.option("--rho", default=0.05, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--tol", default=1e-9, show_default=True)
@click.option("--pretty", is_flag=True)
@adapter
def rpca_solve2d(n, r, rho, seed, tol, pretty):
    inst = rpca.generate_instance((n, n), r, rho, factor_style="gaussian",
                                  seed=seed)
    L_hat, S_hat, residuals = rpca.solve_matrix_rpca(inst.M, tol=tol)
    rel_L = float(np.linalg.norm(L_hat - inst.L)
                  / max(np.linalg.norm(inst.L), 1e-300))
    rel_S = float(np.linalg.norm(S_hat - inst.S)
                  / max(np.linalg.norm(inst.S), 1e-300))
    emit({"kind": "rpca-solve2d", "n": n, "r": r, "rho": rho, "seed": seed,
          "rel_err_L": rel_L, "rel_err_S": rel_S,
          "iterations": len(residuals)}, pretty)
    return 0


@rpca_group.command("concentration")
@click.option("--dims", required=True, callback=lambda c, p, v: _dims_option(v))
@click.option("--r", default=1, show_default=True)
@click.option("--q", default=0.9, show_default=True)
@click.option("--trials", default=20, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--pretty", is_flag=True)
@adapter
def rpca_concentration(dims, r, q, trials, seed, pretty):
    L = rpca.generate_instance(dims, r, 0.0, m=1, seed=seed).L
    doc = rpca.concentration_trial(L, q, trials=trials, seed=seed)
    doc["kind"] = "rpca-concentration"
    emit(doc, pretty)
    return 0


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

@main.command("reproduce")
@click.option("--pytest-args", default="", help="extra pytest arguments")
@adapter
def reproduce(pytest_args):
    """Run the full acceptance suite (requires the source checkout)."""
    import shlex
    import subprocess

    test_file = Path(__file__).resolve().parents[2] / "tests" \
        / "test_acceptance.py"
    if not test_file.exists():
        raise TnnError(
            f"acceptance suite not found at {test_file}; "
            "run from a source checkout"
        )
    cmd = [sys.executable, "-m", "pytest", "-v", str(test_file)]
    if pytest_args:
        cmd.extend(shlex.split(pytest_args))
    proc = subprocess.run(cmd, check=False)
    return 1 if proc.returncode else 0


if __name__ == "__main__":
    main()
