"""Command-line front end: one subcommand per analysis, one JSON document
to stdout, artifacts only via explicit --out flags."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import catalog as catalog_mod
from .arcs import ArcSet
from .circles import circle_max
from .expressions import HarmonicMap, ParseError, parse_map
from .lewis import lewis_disc_search, rescaled_sequence
from .ranges import (antipodal_gap_alpha, antipodal_pairs,
                     cone_avoidance_normalize, estimate_directions,
                     phi_profile, phi_sublinearity_check, sample_range)
from .svg import render_range_svg
from .theorems import (check_antipodal_theorem, check_cor_alpha,
                       check_halfplane_theorem, check_lewis_region,
                       check_log2_inequalities, check_murdoch_kuran,
                       log2_sample_points)
from .zeros import (Rect, detect_dependence, local_structure, trace_zero_set,
                    tract_report)

__all__ = ["main"]

USAGE_ERROR = 2
VERDICT_ERROR = 1


class CliError(Exception):
    """Usage-level failure; maps to exit code 2."""


def _emit(payload: dict) -> None:
    # NaN and Infinity are not JSON: raise ValueError, which main turns
    # into exit 2 before anything reaches stdout
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2,
                                allow_nan=False) + "\n")


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise CliError(f"cannot parse complex number {text!r}")


def _format_complex(w: complex) -> str:
    return f"{w.real:g}{w.imag:+g}i"


def _floats(text: str, n: int | None = None) -> list[float]:
    try:
        vals = [float(t) for t in text.split(",")]
    except ValueError:
        raise CliError(f"cannot parse number list {text!r}")
    if n is not None and len(vals) != n:
        raise CliError(f"expected {n} comma-separated numbers, got {text!r}")
    return vals


def _load_config(path: str) -> dict:
    cfg = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"bad config line {line!r}: expected key=value")
        key, val = line.split("=", 1)
        cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def _resolve_map(args) -> tuple[HarmonicMap, dict]:
    """Returns the map plus default sampling params (catalog entries carry
    tuned parameters)."""
    sources = [s for s in (args.map, args.catalog, args.map_file) if s]
    if len(sources) != 1:
        raise CliError("give exactly one of --map, --catalog, --map-file")
    if args.catalog:
        entry = catalog_mod.get_entry(args.catalog)
        if entry.kind != "map":
            raise CliError(f"catalog entry {args.catalog!r} is not a map")
        return entry.harmonic_map(), dict(entry.params)
    text = args.map if args.map else Path(args.map_file).read_text().strip()
    try:
        return parse_map(text), {}
    except ParseError as exc:
        raise CliError(f"map parse error: {exc}")


def _sample_from_args(args, f: HarmonicMap, defaults: dict):
    R = args.R if args.R is not None else defaults.get("R", 30.0)
    n_grid = args.n_grid if args.n_grid is not None else defaults.get("n_grid", 256)
    seed = args.seed if args.seed is not None else defaults.get("seed", 0)
    return sample_range(f, R, n_grid=int(n_grid), seed=int(seed))


def _estimate_from_args(args, samples, defaults: dict):
    cutoffs = None
    if getattr(args, "cutoffs", None):
        cutoffs = tuple(_floats(args.cutoffs))
    elif defaults.get("cutoffs"):
        cutoffs = tuple(defaults["cutoffs"])
    return estimate_directions(samples, bins=getattr(args, "bins", 720),
                               cutoffs=cutoffs)


def _add_map_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--map", help="inline map text, e.g. 'u=re(z); v=im(exp(z))'")
    p.add_argument("--catalog", help="built-in catalog entry name")
    p.add_argument("--map-file", help="file containing the map text")


def _add_sampling_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--R", type=float, default=None, help="sampling radius")
    p.add_argument("--n-grid", type=int, default=None, dest="n_grid")
    p.add_argument("--seed", type=int, default=None)


SCHEMAS = {
    "eval": {"type": "object",
             "properties": {"z": {"type": "array"}, "w": {"type": "array"},
                            "formatted": {"type": "string"}}},
    "sample": {"type": "object",
               "properties": {"metadata": {"type": "object"},
                              "count": {"type": "integer"},
                              "out": {"type": ["string", "null"]}}},
    "directions": {"type": "object",
                   "properties": {"arcs": {"type": "array"},
                                  "cutoffs": {"type": "array"},
                                  "stabilization_index": {"type": "integer"},
                                  "low_confidence": {"type": "boolean"}}},
    "antipodal": {"type": "object",
                  "properties": {"pairs": {"type": "array"},
                                 "gap_alpha": {"type": ["number", "null"]},
                                 "arcs": {"type": "array"}}},
    "normalize": {"type": "object",
                  "properties": {"normalization": {"type": ["object", "null"]}}},
    "lewis-discs": {"type": "object",
                    "properties": {"center": {"type": "array"},
                                   "radius": {"type": "number"},
                                   "M": {"type": "number"},
                                   "doubling_ratio": {"type": "number"},
                                   "growth_ratio": {"type": "number"},
                                   "budget_met": {"type": "boolean"}}},
    "rescale": {"type": "object",
                "properties": {"members": {"type": "array"}}},
    "zeros": {"type": "object",
              "properties": {"curves": {"type": "array"},
                             "out": {"type": ["string", "null"]}}},
    "local-structure": {"type": "object",
                        "properties": {"n": {"type": "integer"},
                                       "ray_angles": {"type": "array"},
                                       "sector_signs": {"type": "array"}}},
    "tracts": {"type": "object",
               "properties": {"degree": {"type": "integer"},
                              "sign_changes": {"type": "integer"},
                              "components": {"type": "integer"}}},
    "dependence": {"type": "object",
                   "properties": {"b": {"type": "number"},
                                  "residual": {"type": "number"},
                                  "dependent": {"type": "boolean"}}},
    "phi": {"type": "object",
            "properties": {"bins": {"type": "integer"},
                           "sublinear": {"type": "boolean"},
                           "profile": {"type": "object"}}},
    "check": {"type": "object",
              "properties": {"theorem": {"type": "string"},
                             "hypothesis": {"type": "object"},
                             "conclusion": {"type": "object"},
                             "params": {"type": "object"},
                             "sampling": {"type": "object"}}},
    "catalog": {"type": "object",
                "properties": {"entries": {"type": "array"}}},
    "plot": {"type": "object",
             "properties": {"out": {"type": "string"},
                            "points": {"type": "integer"}}},
}


def _cmd_eval(args) -> tuple[dict, int]:
    f, _ = _resolve_map(args)
    z = _parse_complex(args.z)
    w = f.value(z)
    return {"z": [z.real, z.imag], "w": [w.real, w.imag],
            "formatted": _format_complex(w)}, 0


def _cmd_sample(args) -> tuple[dict, int]:
    f, defaults = _resolve_map(args)
    s = _sample_from_args(args, f, defaults)
    if args.out:
        s.to_csv(args.out)
    return {"metadata": s.metadata(), "count": int(s.z.size),
            "out": args.out}, 0


def _direction_estimate(args):
    """Arc-set catalog entries carry their direction set directly; map
    sources are sampled and estimated."""
    if args.catalog and not (args.map or args.map_file):
        entry = catalog_mod.get_entry(args.catalog)
        if entry.kind == "arcset":
            return entry.directions()
    f, defaults = _resolve_map(args)
    s = _sample_from_args(args, f, defaults)
    return _estimate_from_args(args, s, defaults)


def _cmd_directions(args) -> tuple[dict, int]:
    return _direction_estimate(args).to_dict(), 0


def _cmd_antipodal(args) -> tuple[dict, int]:
    est = _direction_estimate(args)
    pairs = antipodal_pairs(est.arcs, tol_rad=args.tol)
    alpha = None
    if pairs.is_empty and not est.arcs.is_empty:
        alpha = antipodal_gap_alpha(est.arcs, tol_rad=args.tol)
    return {"arcs": est.arcs.to_dict()["arcs"],
            "pairs": pairs.to_dict()["arcs"],
            "gap_alpha": alpha}, 0


def _cmd_normalize(args) -> tuple[dict, int]:
    est = _direction_estimate(args)
    norm = cone_avoidance_normalize(est.arcs)
    return {"arcs": est.arcs.to_dict()["arcs"], "normalization": norm}, 0


def _cmd_lewis_discs(args) -> tuple[dict, int]:
    f, defaults = _resolve_map(args)
    u = f.u if args.component == "u" else f.v
    R = args.R if args.R is not None else defaults.get("R", 30.0)
    disc = lewis_disc_search(u, R, C0_budget=args.budget)
    return disc.to_dict(), 0


def _cmd_rescale(args) -> tuple[dict, int]:
    f, _ = _resolve_map(args)
    schedule = _floats(args.schedule)
    members = [rm.to_dict()
               for rm in rescaled_sequence(f, schedule, C0_budget=args.budget)]
    return {"members": members}, 0


def _cmd_zeros(args) -> tuple[dict, int]:
    f, _ = _resolve_map(args)
    u = f.u if args.component == "u" else f.v
    x0, x1, y0, y1 = _floats(args.box, 4)
    curves = trace_zero_set(u, Rect(x0, x1, y0, y1), step=args.step)
    if args.out:
        rows = ["curve,x,y"]
        for c in curves:
            rows.extend(f"{c.source_id},{float(p.real)!r},{float(p.imag)!r}"
                        for p in c.points)
        Path(args.out).write_text("\n".join(rows) + "\n")
    return {"curves": [{"id": c.source_id, "points": len(c.points),
                        "arc_length": c.arc_length} for c in curves],
            "out": args.out}, 0


def _cmd_local_structure(args) -> tuple[dict, int]:
    f, _ = _resolve_map(args)
    u = f.u if args.component == "u" else f.v
    z0 = _parse_complex(args.z0)
    return local_structure(u, z0, probe_radius=args.probe_radius), 0


def _cmd_tracts(args) -> tuple[dict, int]:
    f, defaults = _resolve_map(args)
    u = f.u if args.component == "u" else f.v
    R = args.R if args.R is not None else defaults.get("R", 30.0)
    return tract_report(u, R).to_dict(), 0


def _cmd_dependence(args) -> tuple[dict, int]:
    f, defaults = _resolve_map(args)
    s = _sample_from_args(args, f, defaults)
    rep = detect_dependence(f, s, a=args.a, R=args.inner_R)
    return rep.to_dict(), 0


def _cmd_phi(args) -> tuple[dict, int]:
    f, defaults = _resolve_map(args)
    s = _sample_from_args(args, f, defaults)
    prof = phi_profile(s, bins=args.bins)
    check = phi_sublinearity_check(prof)
    return {"bins": args.bins, "sublinear": check["holds"],
            "detail": check, "profile": prof.to_dict()}, 0


def _cmd_check(args) -> tuple[dict, int]:
    if args.theorem == "log2":
        z = log2_sample_points(args.n, seed=args.seed or 0)
        verdict = check_log2_inequalities(z)
    else:
        f, defaults = _resolve_map(args)
        s = _sample_from_args(args, f, defaults)
        if args.theorem == "lewis":
            verdict = check_lewis_region(f, args.C, s)
        elif args.theorem == "antipodal":
            est = _estimate_from_args(args, s, defaults)
            verdict = check_antipodal_theorem(f, est, s)
        elif args.theorem == "halfplane":
            est = _estimate_from_args(args, s, defaults)
            verdict = check_halfplane_theorem(f, args.alpha, est, s)
        elif args.theorem == "cor-alpha":
            verdict = check_cor_alpha(f, args.a, args.alpha, args.b, s)
        elif args.theorem == "murdoch-kuran":
            verdict = check_murdoch_kuran(f, args.a, args.inner_R, s)
        else:
            raise CliError(f"unknown theorem {args.theorem!r}")
    return verdict.to_dict(), (0 if verdict.consistent else VERDICT_ERROR)


def _cmd_catalog(args) -> tuple[dict, int]:
    if args.name:
        return {"entries": [catalog_mod.get_entry(args.name).to_dict()]}, 0
    cat = catalog_mod.load_catalog()
    return {"entries": [cat[k].to_dict() for k in sorted(cat)]}, 0


def _cmd_plot(args) -> tuple[dict, int]:
    f, defaults = _resolve_map(args)
    s = _sample_from_args(args, f, defaults)
    est = _estimate_from_args(args, s, defaults)
    svg = render_range_svg(s, arcs=est.arcs)
    Path(args.out).write_text(svg)
    return {"out": args.out, "points": int(s.z.size),
            "arcs": est.arcs.to_dict()["arcs"]}, 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonic-range",
        description="Numerical toolkit for ranges of planar harmonic maps.")
    parser.add_argument("--config", help="key=value file of flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, needs_map=True, needs_sampling=True):
        p = sub.add_parser(name)
        p.set_defaults(func=func, command=name)
        p.add_argument("--schema", action="store_true",
                       help="print this subcommand's JSON output schema")
        if needs_map:
            _add_map_args(p)
        if needs_sampling:
            _add_sampling_args(p)
        return p

    p = add("eval", _cmd_eval, needs_sampling=False)
    p.add_argument("--z", required=True, help="evaluation point, e.g. '1+2i'")

    p = add("sample", _cmd_sample)
    p.add_argument("--out", help="CSV output path")

    for name, func in (("directions", _cmd_directions),
                       ("antipodal", _cmd_antipodal),
                       ("normalize", _cmd_normalize)):
        p = add(name, func)
        p.add_argument("--bins", type=int, default=720)
        p.add_argument("--cutoffs", help="comma-separated modulus cutoffs")
        if name == "antipodal":
            p.add_argument("--tol", type=float, default=math.radians(1.0))

    p = add("lewis-discs", _cmd_lewis_discs, needs_sampling=False)
    p.add_argument("--component", choices=("u", "v"), default="u")
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--budget", type=float, default=100.0)

    p = add("rescale", _cmd_rescale, needs_sampling=False)
    p.add_argument("--schedule", required=True,
                   help="comma-separated increasing radii, e.g. '2,4,8'")
    p.add_argument("--budget", type=float, default=100.0)

    p = add("zeros", _cmd_zeros, needs_sampling=False)
    p.add_argument("--component", choices=("u", "v"), default="u")
    p.add_argument("--box", required=True, help="x0,x1,y0,y1")
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--out", help="CSV output path")

    p = add("local-structure", _cmd_local_structure, needs_sampling=False)
    p.add_argument("--component", choices=("u", "v"), default="u")
    p.add_argument("--z0", required=True)
    p.add_argument("--probe-radius", type=float, default=1e-2,
                   dest="probe_radius")

    p = add("tracts", _cmd_tracts, needs_sampling=False)
    p.add_argument("--component", choices=("u", "v"), default="u")
    p.add_argument("--R", type=float, default=None)

    p = add("dependence", _cmd_dependence)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--inner-R", type=float, default=1.0, dest="inner_R",
                   help="hypothesis radius: only |z| > inner-R is constrained")

    p = add("phi", _cmd_phi)
    p.add_argument("--bins", type=int, default=200)

    p = add("check", _cmd_check)
    p.add_argument("--theorem", required=True,
                   choices=("lewis", "antipodal", "halfplane", "cor-alpha",
                            "murdoch-kuran", "log2"))
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--inner-R", type=float, default=1.0, dest="inner_R")
    p.add_argument("--n", type=int, default=1000000)
    p.add_argument("--bins", type=int, default=720)
    p.add_argument("--cutoffs")

    p = add("catalog", _cmd_catalog, needs_map=False, needs_sampling=False)
    p.add_argument("--name")

    p = add("plot", _cmd_plot)
    p.add_argument("--bins", type=int, default=720)
    p.add_argument("--cutoffs")
    p.add_argument("--out", required=True, help="SVG output path")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--schema" in argv:
        # schema printing must not require the subcommand's other flags
        names = [a for a in argv if not a.startswith("-")]
        if names and names[0] in SCHEMAS:
            _emit({"command": names[0], "schema": SCHEMAS[names[0]]})
            return 0
        sys.stderr.write("error: --schema needs a known subcommand\n")
        return USAGE_ERROR
    try:
        args = parser.parse_args(argv)
        if args.config:
            cfg = _load_config(args.config)
            for key, val in cfg.items():
                if hasattr(args, key) and f"--{key.replace('_', '-')}" not in argv:
                    current = getattr(args, key)
                    if isinstance(current, bool):
                        setattr(args, key, val.lower() in ("1", "true", "yes"))
                    elif isinstance(current, int):
                        setattr(args, key, int(val))
                    elif isinstance(current, float):
                        setattr(args, key, float(val))
                    else:
                        # flags with default None: infer numeric types
                        try:
                            setattr(args, key, int(val))
                        except ValueError:
                            try:
                                setattr(args, key, float(val))
                            except ValueError:
                                setattr(args, key, val)
        # overflow is reported by a typed error, not by numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            payload, code = args.func(args)
        _emit(payload)
        return code
    except (CliError, OSError, ValueError, catalog_mod.CatalogError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except Exception as exc:
        # exit 1 means a verdict mismatch, so a crash is exit 2 as well
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
