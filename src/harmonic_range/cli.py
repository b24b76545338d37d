"""Command-line front end: one subcommand per analysis, one JSON document
to stdout, artifacts only via explicit --out flags.

argparse gives every flag its type, check and default.  A flag's value
comes from the command line, else from a ``--config`` file, else from the
``params`` of the ``--catalog`` entry, else from its built-in default."""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import catalog as catalog_mod
from .expressions import HarmonicMap, NonFiniteError, ParseError, parse_map
from .lewis import lewis_disc_search, rescaled_sequence
from .ranges import (antipodal_gap_alpha, antipodal_pairs,
                     cone_avoidance_normalize, estimate_directions,
                     phi_profile, phi_sublinearity_check, sample_range)
from .svg import render_range_svg
from .theorems import (LOG2_RADIUS, _Log2Points, check_antipodal_theorem,
                       check_cor_alpha, check_halfplane_theorem,
                       check_lewis_region, check_log2_inequalities,
                       check_murdoch_kuran)
from .zeros import (Rect, detect_dependence, local_structure, trace_zero_set,
                    tract_report)

__all__ = ["CliError", "main"]

USAGE_ERROR = 2
VERDICT_ERROR = 1


class CliError(Exception):
    """Usage-level failure; maps to exit code 2."""


def _emit(payload: dict) -> None:
    # NaN and Infinity are not JSON: raise ValueError, which main turns
    # into exit 2 before anything reaches stdout
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2,
                                allow_nan=False) + "\n")


def _finite(text: str, parse=float, what: str = "a number"):
    """The argparse type of every float flag, also read for each number
    of a list or a complex flag: parse(text), refused unless it is
    finite, since a NaN or an infinity would decide each comparison it
    enters.  main puts the flag's name before the message."""
    try:
        value = parse(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"is not {what}: {text!r}") from None
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _complex(text: str) -> complex:
    return _finite(text, lambda t: complex(t.replace("i", "j").replace(" ", "")),
                   "a complex number")


def _format_complex(w: complex) -> str:
    return f"{w.real:g}{w.imag:+g}i"


def _numbers(text: str) -> tuple[float, ...]:
    return tuple(_finite(t) for t in text.split(","))


def _box(text: str) -> Rect:
    vals = _numbers(text)
    if len(vals) != 4:
        raise argparse.ArgumentTypeError(
            f"expected 4 comma-separated numbers, got {text!r}")
    return Rect(*vals)


def _config_flags(path: str) -> list[str]:
    """Each ``key=value`` line of the file as a ``--key=value`` token."""
    flags = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"bad config line {line!r}: expected key=value")
        key, val = line.split("=", 1)
        flags.append(f"--{key.strip().replace('_', '-')}={val.strip()}")
    return flags


def _with_config(argv: list[str]) -> list[str]:
    """argv with ``--config FILE`` replaced by the file's flags, placed
    right after the subcommand name so that the user's own flags win."""
    head = argparse.ArgumentParser(prog="harmonic-range", add_help=False,
                                   allow_abbrev=False)
    head.add_argument("--config")
    head.add_argument("rest", nargs=argparse.REMAINDER)
    ns, unknown = head.parse_known_args(argv)
    if ns.config is None or unknown or not ns.rest:
        return argv
    command, *flags = ns.rest
    return [command, *_config_flags(ns.config), *flags]


def _resolve_map(args) -> HarmonicMap:
    sources = [s for s in (args.map, args.catalog, args.map_file) if s]
    if len(sources) != 1:
        raise CliError("give exactly one of --map, --catalog, --map-file")
    if args.entry is not None:
        if args.entry.kind != "map":
            raise CliError(f"catalog entry {args.catalog!r} is not a map")
        return args.entry.harmonic_map()
    text = args.map if args.map else Path(args.map_file).read_text()
    try:
        return parse_map(text)
    except ParseError as exc:
        raise CliError(f"map parse error: {exc}")


def _sample(args, f: HarmonicMap):
    return sample_range(f, args.R, n_grid=args.n_grid, seed=args.seed)


def _estimate(args, samples):
    return estimate_directions(samples, bins=args.bins)


def _strict(properties: dict) -> dict:
    """An output schema whose top level holds exactly these keys."""
    return {"type": "object", "properties": properties,
            "required": sorted(properties), "additionalProperties": False}


SCHEMAS = {name: _strict(properties) for name, properties in {
    "eval": {"z": {"type": "array"}, "w": {"type": "array"},
             "formatted": {"type": "string"}},
    "sample": {"metadata": {"type": "object"},
               "count": {"type": "integer"},
               "out": {"type": ["string", "null"]}},
    "directions": {"arcs": {"type": "array"},
                   "cutoffs": {"type": "array"},
                   "bins": {"type": "integer"},
                   "occupied_bins": {"type": "integer"},
                   "stabilization_index": {"type": "integer"},
                   "low_confidence": {"type": "boolean"},
                   "radius": {"type": "number"}},
    "antipodal": {"pairs": {"type": "array"},
                  "gap_alpha": {"type": ["number", "null"]},
                  "arcs": {"type": "array"}},
    "normalize": {"arcs": {"type": "array"},
                  "normalization": {"type": ["object", "null"]}},
    "lewis-discs": {"center": {"type": "array"},
                    "radius": {"type": "number"},
                    "M": {"type": "number"},
                    "doubling_ratio": {"type": "number"},
                    "growth_ratio": {"type": "number"},
                    "empirical_C0": {"type": "number"},
                    "domain_radius": {"type": "number"},
                    "budget_met": {"type": "boolean"}},
    "rescale": {"members": {"type": "array"}},
    "zeros": {"curves": {"type": "array"},
              "out": {"type": ["string", "null"]}},
    "local-structure": {"n": {"type": "integer"},
                        "ray_angles": {"type": "array"},
                        "sector_signs": {"type": "array"}},
    "tracts": {"degree": {"type": "integer"},
               "sign_changes": {"type": "integer"},
               "components": {"type": "integer"},
               "radius": {"type": "number"}},
    "dependence": {"b": {"type": "number"},
                   "residual": {"type": "number"},
                   "dependent": {"type": "boolean"},
                   "bound_a": {"type": "number"},
                   "degenerate": {"type": "boolean"},
                   "hypothesis_holds": {"type": "boolean"},
                   "hypothesis_witness": {"type": ["object", "null"]}},
    "phi": {"bins": {"type": "integer"},
            "sublinear": {"type": "boolean"},
            "detail": {"type": "object"},
            "profile": {"type": "object"}},
    "check": {"theorem": {"type": "string"},
              "hypothesis": {"type": "object"},
              "conclusion": {"type": "object"},
              "params": {"type": "object"},
              "sampling": {"type": "object"}},
    "catalog": {"entries": {"type": "array"}},
    "plot": {"out": {"type": "string"},
             "points": {"type": "integer"},
             "arcs": {"type": "array"}},
}.items()}


def _cmd_eval(args) -> tuple[dict, int]:
    f = _resolve_map(args)
    z = args.z
    w = f.value(z)
    if not cmath.isfinite(w):
        raise NonFiniteError(f"the value at z = {_format_complex(z)} is not "
                             "finite: the map overflows")
    return {"z": [z.real, z.imag], "w": [w.real, w.imag],
            "formatted": _format_complex(w)}, 0


def _cmd_sample(args) -> tuple[dict, int]:
    f = _resolve_map(args)
    s = _sample(args, f)
    if args.out:
        s.to_csv(args.out)
    return {"metadata": s.metadata(), "count": s.count,
            "out": args.out}, 0


def _direction_estimate(args):
    """Arc-set catalog entries carry their direction set directly; map
    sources are sampled and estimated."""
    if (args.entry is not None and args.entry.kind == "arcset"
            and not (args.map or args.map_file)):
        return args.entry.directions()
    f = _resolve_map(args)
    s = _sample(args, f)
    return _estimate(args, s)


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
    f = _resolve_map(args)
    u = getattr(f, args.component)
    disc = lewis_disc_search(u, args.R, C0_budget=args.budget)
    return disc.to_dict(), 0


def _cmd_rescale(args) -> tuple[dict, int]:
    f = _resolve_map(args)
    members = [rm.to_dict()
               for rm in rescaled_sequence(f, args.schedule, C0_budget=args.budget)]
    return {"members": members}, 0


def _cmd_zeros(args) -> tuple[dict, int]:
    f = _resolve_map(args)
    u = getattr(f, args.component)
    curves = trace_zero_set(u, args.box, step=args.step)
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
    f = _resolve_map(args)
    u = getattr(f, args.component)
    return local_structure(u, args.z0, probe_radius=args.probe_radius), 0


def _cmd_tracts(args) -> tuple[dict, int]:
    f = _resolve_map(args)
    u = getattr(f, args.component)
    return tract_report(u, args.R).to_dict(), 0


def _cmd_dependence(args) -> tuple[dict, int]:
    f = _resolve_map(args)
    s = _sample(args, f)
    rep = detect_dependence(s, a=args.a, R=args.inner_R)
    return rep.to_dict(), 0


def _cmd_phi(args) -> tuple[dict, int]:
    f = _resolve_map(args)
    s = _sample(args, f)
    prof = phi_profile(s, bins=args.bins)
    check = phi_sublinearity_check(prof)
    return {"bins": args.bins, "sublinear": check["holds"],
            "detail": check, "profile": prof.to_dict()}, 0


def _cmd_check(args) -> tuple[dict, int]:
    if args.theorem == "log2":
        # the points are made and checked block by block, never held whole
        verdict = check_log2_inequalities(_Log2Points(args.n, args.seed))
    else:
        f = _resolve_map(args)
        s = _sample(args, f)
        if args.theorem == "lewis":
            verdict = check_lewis_region(f, args.C, s)
        elif args.theorem == "antipodal":
            est = _estimate(args, s)
            verdict = check_antipodal_theorem(f, est, s)
        elif args.theorem == "halfplane":
            est = _estimate(args, s)
            verdict = check_halfplane_theorem(f, args.alpha, est, s)
        elif args.theorem == "cor-alpha":
            verdict = check_cor_alpha(f, args.a, args.alpha, args.b, s)
        else:
            verdict = check_murdoch_kuran(f, args.a, args.inner_R, s)
    return verdict.to_dict(), (0 if verdict.consistent else VERDICT_ERROR)


def _cmd_catalog(args) -> tuple[dict, int]:
    if args.name:
        return {"entries": [catalog_mod.get_entry(args.name).to_dict()]}, 0
    cat = catalog_mod.load_catalog()
    return {"entries": [cat[k].to_dict() for k in sorted(cat)]}, 0


def _cmd_plot(args) -> tuple[dict, int]:
    f = _resolve_map(args)
    s = _sample(args, f)
    est = _estimate(args, s)
    svg = render_range_svg(s, arcs=est.arcs)
    Path(args.out).write_text(svg)
    return {"out": args.out, "points": s.count,
            "arcs": est.arcs.to_dict()["arcs"]}, 0


class _PrintSchema(argparse.Action):
    """--schema prints the subcommand's output schema and ends the parse,
    as --help does, before argparse asks for the required flags."""

    def __call__(self, parser, namespace, values, option_string=None):
        _emit({"command": self.const, "schema": SCHEMAS[self.const]})
        parser.exit()


# flag families: each flag is declared once, here or in its subcommand's row
_MAP = {"--map": dict(help="inline map text, e.g. 'u=re(z); v=im(exp(z))'"),
        "--catalog": dict(help="built-in catalog entry; its params are flag defaults"),
        "--map-file": dict(help="file containing the map text")}
_RADIUS = {"--R": dict(type=_finite, default=30.0, help="sampling radius")}
_SAMPLING = {**_RADIUS, "--n-grid": dict(type=int, default=256),
             "--seed": dict(type=int, default=0)}
_DIRECTIONS = {"--bins": dict(type=int, default=720)}
_COMPONENT = {"--component": dict(choices=("u", "v"), default="u")}
_BUDGET = {"--budget": dict(type=_finite, default=100.0)}
_CONE = {"--a": dict(type=_finite, default=1.0),
         "--inner-R": dict(type=_finite, default=1.0,
                           help="hypothesis radius: only |z| > inner-R is constrained")}
_CSV_OUT = {"--out": dict(help="CSV output path")}
_THEOREM = {"--theorem": dict(required=True, choices=(
    "lewis", "antipodal", "halfplane", "cor-alpha", "murdoch-kuran", "log2"),
    help=f"log2 takes no map: it samples D(0, {LOG2_RADIUS:g}) from --n and "
    "--seed only")}
_THEOREM_PARAMS = {"--C": dict(type=_finite, default=1.0),
                   "--alpha": dict(type=_finite, default=0.0),
                   "--b": dict(type=_finite, default=0.0),
                   "--n": dict(type=int, default=1000000)}
# the flags of check besides --theorem, which the theorems read in part
_CHECK = (_MAP, _SAMPLING, _DIRECTIONS, _CONE, _THEOREM_PARAMS)
# the flags of check that each theorem reads, and what the refusal of
# another flag adds
_MAPPED = (*_MAP, *_SAMPLING)
_THEOREM_READS = {
    "lewis": ((*_MAPPED, "--C"), ""),
    "antipodal": ((*_MAPPED, *_DIRECTIONS), ""),
    "halfplane": ((*_MAPPED, *_DIRECTIONS, "--alpha"), ""),
    "cor-alpha": ((*_MAPPED, "--a", "--alpha", "--b"), ""),
    "murdoch-kuran": ((*_MAPPED, *_CONE), ""),
    "log2": (("--seed", "--n"), f", which samples D(0, {LOG2_RADIUS:g}) "
             "from --n and --seed only"),
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subparsers by name."""
    # subcommand: (handler, flag families...), built per call so
    # that a handler replaced on the module is the one that runs
    table = {
        "eval": (_cmd_eval, _MAP, {"--z": dict(type=_complex, required=True,
                                               help="evaluation point, e.g. '1+2i'")}),
        "sample": (_cmd_sample, _MAP, _SAMPLING, _CSV_OUT),
        "directions": (_cmd_directions, _MAP, _SAMPLING, _DIRECTIONS),
        "antipodal": (_cmd_antipodal, _MAP, _SAMPLING, _DIRECTIONS,
                      {"--tol": dict(type=_finite, default=math.radians(1.0))}),
        "normalize": (_cmd_normalize, _MAP, _SAMPLING, _DIRECTIONS),
        "lewis-discs": (_cmd_lewis_discs, _MAP, _COMPONENT, _RADIUS, _BUDGET),
        "rescale": (_cmd_rescale, _MAP, _BUDGET, {"--schedule": dict(
            type=_numbers, required=True,
            help="comma-separated increasing radii, e.g. '2,4,8'")}),
        "zeros": (_cmd_zeros, _MAP, _COMPONENT, _CSV_OUT,
                  {"--box": dict(type=_box, required=True, help="x0,x1,y0,y1"),
                   "--step": dict(type=_finite, default=0.05)}),
        "local-structure": (_cmd_local_structure, _MAP, _COMPONENT,
                            {"--z0": dict(type=_complex, required=True),
                             "--probe-radius": dict(type=_finite, default=1e-2)}),
        "tracts": (_cmd_tracts, _MAP, _COMPONENT, _RADIUS),
        "dependence": (_cmd_dependence, _MAP, _SAMPLING, _CONE),
        "phi": (_cmd_phi, _MAP, _SAMPLING, {"--bins": dict(type=int, default=200)}),
        "check": (_cmd_check, _MAP, _SAMPLING, _DIRECTIONS, _CONE, _THEOREM,
                  _THEOREM_PARAMS),
        "catalog": (_cmd_catalog, {"--name": {}}),
        "plot": (_cmd_plot, _MAP, _SAMPLING, _DIRECTIONS,
                 {"--out": dict(required=True, help="SVG output path")}),
    }
    # a bad flag value raises argparse.ArgumentError, which main reports
    parser = argparse.ArgumentParser(
        prog="harmonic-range", allow_abbrev=False, exit_on_error=False,
        description="Numerical toolkit for ranges of planar harmonic maps.")
    parser.add_argument("--config", help="key=value file of flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (func, *families) in table.items():
        p = commands[name] = sub.add_parser(name, allow_abbrev=False,
                                            exit_on_error=False)
        p.set_defaults(func=func, entry=None)
        p.add_argument("--schema", action=_PrintSchema, const=name, nargs=0,
                       default=argparse.SUPPRESS,
                       help="print this subcommand's JSON output schema")
        for family in families:
            for flag, kwargs in family.items():
                p.add_argument(flag, **kwargs)
    return parser, commands


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Command line over config over catalog params over built-in
    defaults; the catalog entry is looked up once, after a first parse
    has named it."""
    parser, commands = _build_parser()
    argv = _with_config(argv)
    args = parser.parse_args(argv)
    if getattr(args, "catalog", None):
        entry = catalog_mod.get_entry(args.catalog)
        commands[args.command].set_defaults(entry=entry, **entry.params)
        args = parser.parse_args(argv)
    if args.command == "check":
        _refuse_unread(args, commands["check"])
    return args


def _refuse_unread(args, parser: argparse.ArgumentParser) -> None:
    """CliError for the first flag of check, in the order of _CHECK, that
    the theorem does not read and whose value is not the parser's default;
    a catalog's params are defaults, so only the user's flags and the
    --config file can be refused."""
    reads, why = _THEOREM_READS[args.theorem]
    for flag in (flag for family in _CHECK for flag in family):
        dest = flag.lstrip("-").replace("-", "_")
        if flag not in reads and getattr(args, dest) != parser.get_default(dest):
            raise CliError(f"{flag} is not read by --theorem {args.theorem}{why}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
        # overflow is reported by a typed error, not by numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            payload, code = args.func(args)
        _emit(payload)
        return code
    except SystemExit as exc:
        # --help, --schema and argparse's usage errors end the parse
        return exc.code
    except argparse.ArgumentError as exc:
        # a refused flag value, worded as the library words a refused
        # parameter: "a must be finite, got nan"
        name = exc.argument_name.lstrip("-") + " " if exc.argument_name else ""
        sys.stderr.write(f"error: {name}{exc.message}\n")
        return USAGE_ERROR
    except (CliError, OSError, ValueError, catalog_mod.CatalogError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except Exception as exc:
        # exit 1 means a verdict mismatch, so a crash is exit 2 as well
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
