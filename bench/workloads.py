"""Seeded task corpora for the three benchmark workloads.

Each builder returns a fixed list of ``Task`` objects made only from the
workload seed and the pass count; the library under test receives the
generated inputs and nothing else.  Every task carries a reference check
that runs after its timer has stopped.  Inputs that fail today because of
a known library defect stay in the corpus with ``known_defect`` set, so a
fix shows up as a higher pass fraction.

``range-survey`` and ``disc-search`` run in process.  ``cli-session`` runs
one CLI subprocess per task; its tasks carry an argv and the runner
(``run.py``) binds their ``run`` to its launcher.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

WORKLOADS = ("range-survey", "disc-search", "cli-session")

# nominal seconds per pass on the reference machine; the pass count
# follows from --seconds and the minimum task count alone, never from a
# clock reading
NOMINAL_PASS_S = {"range-survey": 6.5, "disc-search": 11.5, "cli-session": 30.0}

TWO_PI = 2.0 * math.pi
HAUSDORFF_TOL_DEG = 2.0
B_TOL = 1e-6

EXPEXP_MAP = "u=re(exp(exp(z))); v=im(exp(exp(z)))"
EXPEXP_DEFECT = ("exp(exp(z)) overflows at R=30: 5042 of 32768 samples are "
                 "nonfinite and no finite answer or typed error comes back")
# a degree-1 map whose range is a disc not centred at 0: every direction
# is reached well inside R, but the default quantile cutoffs keep only the
# directions of the largest moduli
OFFSET_LINE_MAP = "u=re((1.2+0.9*i)+(0.6-0.2*i)*z); v=im((1.2+0.9*i)+(0.6-0.2*i)*z)"
OFFSET_LINE_DEFECT = ("offset degree-1 map: the default cutoffs keep only the "
                      "directions of the largest moduli, so the estimate is a "
                      "narrow arc instead of the full circle")
DEEP_NESTING = 3000
DEEP_DEFECT = ("3000 nested parentheses raise RecursionError, which escapes "
               "the CLI error mapping and exits 1 instead of 2")


@dataclass
class Task:
    """One unit of timed work.

    ``run`` returns a JSON-able summary of the library's outputs; ``check``
    maps that summary to None (pass) or a one-line mismatch; ``stable``
    picks the part of it that tracing must leave unchanged.  CLI tasks set
    ``argv`` and the runner fills ``run`` in.
    """

    id: str
    kind: str
    check: Callable[[Any], str | None]
    run: Callable[[], Any] | None = None
    argv: list[str] | None = None
    files: dict[str, str] = field(default_factory=dict)
    known_defect: str | None = None
    stable: Callable[[Any], Any] = lambda out: out


def build(workload: str, seed: int, seconds: float,
          min_tasks: int = 1) -> list[Task]:
    """Passes ``p0``, ``p1``, ...: as many as fill ``seconds`` at the
    nominal pass time, and more while the list is shorter than
    ``min_tasks``."""
    builder = {"range-survey": _range_survey, "disc-search": _disc_search,
               "cli-session": _cli_session}[workload]
    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    tasks: list[Task] = []
    k = 0
    while k < passes or len(tasks) < min_tasks:
        rng = np.random.default_rng([seed, k])
        tasks.extend(builder(rng, k))
        k += 1
    return tasks


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------

def _cnum(c: complex) -> str:
    return f"({c.real:.4f}{c.imag:+.4f}*i)"


def _poly(rng, degree: int, centred: bool = False) -> str:
    """Polynomial source text with a leading coefficient of modulus >= 0.5,
    so the top term dominates on the sampling discs used below.  A centred
    polynomial has no constant term, so it vanishes at 0."""
    terms = []
    for k in range(1 if centred else 0, degree + 1):
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if k == degree and abs(c) < 0.5:
            c = 0.5 * c / abs(c) if c else 0.5
        c = complex(round(c.real, 4), round(c.imag, 4))
        terms.append(_cnum(c) + ("" if k == 0 else "*z" if k == 1 else f"*z^{k}"))
    return "+".join(terms)


def _slope(rng) -> float:
    lam = round(float(rng.uniform(0.3, 4.0)), 4)
    return lam if rng.uniform() < 0.5 else -lam


def _line_arcs(lam: float):
    from harmonic_range.arcs import ArcSet
    theta = math.atan2(lam, 1.0) % TWO_PI
    return ArcSet.from_points([theta, (theta + math.pi) % TWO_PI])


def _fails(*pairs) -> str | None:
    """First failing (ok, message) pair's message, or None."""
    for ok, msg in pairs:
        if not ok:
            return msg
    return None


# ---------------------------------------------------------------------------
# range-survey: sample -> estimate -> antipodal -> normalize -> fit ->
# hausdorff -> phi -> one theorem check
# ---------------------------------------------------------------------------

def _survey(f, s, est, expected, theorem):
    """Everything after sampling and estimation, for one map."""
    from harmonic_range import (antipodal_gap_alpha, antipodal_pairs,
                                check_antipodal_theorem, check_cor_alpha,
                                check_halfplane_theorem, check_lewis_region,
                                check_murdoch_kuran, cone_avoidance_normalize,
                                i_alpha_fit, phi_profile)
    pairs = antipodal_pairs(est.arcs, tol_rad=math.radians(1.0))
    gap = None
    if pairs.is_empty and not est.arcs.is_empty:
        gap = antipodal_gap_alpha(est.arcs)
    norm = cone_avoidance_normalize(est.arcs)
    alpha = i_alpha_fit(est.arcs)
    hd = math.degrees(est.arcs.hausdorff(expected))
    prof = phi_profile(s)
    name, args = theorem
    if name == "antipodal":
        verdict = check_antipodal_theorem(f, est, s)
    elif name == "halfplane":
        verdict = check_halfplane_theorem(f, args["alpha"], est, s)
    elif name == "murdoch-kuran":
        verdict = check_murdoch_kuran(f, args["a"], 1.0, s)
    elif name == "cor-alpha":
        verdict = check_cor_alpha(f, args["a"], args["alpha"], args["b"], s)
    else:
        verdict = check_lewis_region(f, args["C"], s)
    return {"arcs": est.arcs.to_dict()["arcs"], "full": est.arcs.is_full,
            "pairs": pairs.to_dict()["arcs"], "gap_alpha": gap,
            "normalization": norm, "i_alpha": alpha, "hausdorff_deg": hd,
            "phi_max": float(prof.values.max()),
            "phi_occupied": int(prof.occupied.sum()),
            "consistent": verdict.consistent, "verdict": verdict.to_dict()}


def _survey_check(want_full: bool = False, want_b: float | None = None):
    def check(out):
        msg = _fails(
            (out["hausdorff_deg"] <= HAUSDORFF_TOL_DEG,
             f"directions {out['hausdorff_deg']:.3f} deg from expected"),
            (out["full"] or not want_full, "polynomial map: estimate is not the full circle"),
            (out["consistent"], f"verdict {out['verdict']['theorem']} inconsistent"))
        if msg is None and want_b is not None:
            b = out["verdict"]["params"].get("b")
            msg = _fails((b is not None and abs(b - want_b) <= B_TOL,
                          f"dependence b={b} expected {want_b}"))
        return msg
    return check


# theorem check per catalog entry; the rest use the antipodal contrapositive
_CATALOG_THEOREM = {
    "tilted-line": ("murdoch-kuran", {"a": 1.0}),
    "triple-line": ("murdoch-kuran", {"a": 1.0}),
    "horizontal-line": ("cor-alpha", {"a": 1.0, "alpha": 0.5, "b": 0.1}),
    "constant": ("lewis", {"C": 4.0}),
}
# u = b v for the two line entries (triple-line's b is in the catalog too)
_CATALOG_B = {"tilted-line": 0.5, "triple-line": 1.0 / 3.0}
_POLY_ENTRIES = ("identity", "square", "cubic", "quadratic-shift")


def _catalog_task(name: str, k: int) -> Task:
    def run():
        from harmonic_range import get_entry
        entry = get_entry(name)
        s = entry.sample()
        return _survey(entry.harmonic_map(), s, entry.directions(s),
                       entry.expected_directions(),
                       _CATALOG_THEOREM.get(name, ("antipodal", {})))

    return Task(id=f"p{k}/catalog/{name}", kind="catalog-map", run=run,
                check=_survey_check(want_full=name in _POLY_ENTRIES,
                                    want_b=_CATALOG_B.get(name)))


def _arcset_task(k: int) -> Task:
    def run():
        from harmonic_range import (antipodal_gap_alpha, antipodal_pairs,
                                    cone_avoidance_normalize, get_entry,
                                    i_alpha_fit)
        entry = get_entry("lewis-cross")
        arcs = entry.directions().arcs
        pairs = antipodal_pairs(arcs, tol_rad=math.radians(1.0))
        gap = antipodal_gap_alpha(arcs) if pairs.is_empty else None
        return {"pairs": pairs.to_dict()["arcs"], "gap_alpha": gap,
                "normalization": cone_avoidance_normalize(arcs),
                "i_alpha": i_alpha_fit(arcs),
                "expected_empty": entry.expected["antipodal_pairs_empty"]}

    def check(out):
        return _fails((bool(out["pairs"]) != out["expected_empty"],
                       f"antipodal pairs {out['pairs']}"))
    return Task(id=f"p{k}/catalog/lewis-cross", kind="catalog-arcset",
                run=run, check=check)


def _map_task(tid, kind, src, R, n_grid, seed, cutoffs, expected, theorem,
              want_full=False, want_b=None, known_defect=None) -> Task:
    def run():
        from harmonic_range import estimate_directions, parse_map, sample_range
        f = parse_map(src)
        s = sample_range(f, R, n_grid=n_grid, seed=seed)
        return _survey(f, s, estimate_directions(s, cutoffs=cutoffs),
                       expected, theorem)
    return Task(id=tid, kind=kind, run=run,
                check=_survey_check(want_full=want_full, want_b=want_b),
                known_defect=known_defect)


def _log2_task(tid: str, seed: int) -> Task:
    def run():
        from harmonic_range import (check_log2_inequalities,
                                    log2_sample_points)
        verdict = check_log2_inequalities(log2_sample_points(1 << 18, seed=seed))
        return {"consistent": verdict.consistent, "verdict": verdict.to_dict()}

    def check(out):
        v = out["verdict"]
        return _fails((out["consistent"] and v["conclusion"]["holds"]
                       and not v["conclusion"]["witnesses"],
                       "log2 inequalities reported a violation"))
    return Task(id=tid, kind="log2", run=run, check=check)


def _range_survey(rng, k: int) -> list[Task]:
    from harmonic_range.arcs import ArcSet
    full = ArcSet.full()
    tasks = [_arcset_task(k)]
    for name in ("vertical-line", "exp-wedge", "exp-exp-cross", "identity",
                 "horizontal-line", "tilted-line", "triple-line", "square",
                 "cubic", "quadratic-shift", "exp-plane", "constant"):
        tasks.append(_catalog_task(name, k))
    sample_seed = int(rng.integers(0, 2**31))
    for deg in (1, 2, 3, 4):
        p = _poly(rng, deg, centred=deg == 1)
        src = f"u=re({p}); v=im({p})"
        tasks.append(_map_task(
            f"p{k}/poly-deg{deg}", "poly", src, 30.0 if deg <= 2 else 15.0,
            256, sample_seed + deg, None, full,
            ("antipodal", {}), want_full=True))
    for j in range(6):
        lam = _slope(rng)
        tasks.append(_map_task(
            f"p{k}/line-{j}", "line", f"u=re(z); v=im({lam:.4f}*i*z)", 100.0,
            256, sample_seed + 10 + j, None, _line_arcs(lam),
            ("murdoch-kuran", {"a": 2.0 / abs(lam)}), want_b=1.0 / lam))
    for j, sign in enumerate((1.0, -1.0)):
        a = sign * round(float(rng.uniform(0.8, 1.1)), 4)
        wedge = ([(-math.pi / 2, math.pi / 2), (math.pi, math.pi)] if a > 0
                 else [(math.pi / 2, 3 * math.pi / 2), (0.0, 0.0)])
        tasks.append(_map_task(
            f"p{k}/exp-wedge-{j}", "exp", f"u=re(z); v=im(exp({a:.4f}*z))",
            12.0 / abs(a), 512, sample_seed + 20 + j, (2.5, 3.5, 5.0),
            ArcSet.from_intervals(wedge),
            ("halfplane", {"alpha": 0.0})))
    for j in range(6):
        tasks.append(_log2_task(f"p{k}/log2-{j}", int(rng.integers(0, 2**31))))
    tasks.append(_map_task(
        f"p{k}/defect/exp-exp-R30", "defect", EXPEXP_MAP, 30.0, 128, 0, None,
        full, ("antipodal", {}), want_full=True,
        known_defect=EXPEXP_DEFECT))
    tasks.append(_map_task(
        f"p{k}/defect/offset-line", "defect", OFFSET_LINE_MAP, 30.0, 256, 0,
        None, full, ("antipodal", {}), want_full=True,
        known_defect=OFFSET_LINE_DEFECT))
    return tasks


# ---------------------------------------------------------------------------
# disc-search: Lewis discs, rescaling, local structure, tracts
# ---------------------------------------------------------------------------

def _lewis_task(tid, kind, src, R, known_defect=None) -> Task:
    def run():
        from harmonic_range import lewis_disc_search, parse_map
        f = parse_map(src)
        disc = lewis_disc_search(f.u, R)
        out = disc.to_dict()
        out["u_center"] = float(f.u.value(disc.center))
        return out

    def check(out):
        finite = all(math.isfinite(out[key]) for key in
                     ("M", "growth_ratio", "doubling_ratio"))
        return _fails(
            (finite, f"nonfinite disc: growth_ratio={out['growth_ratio']}"),
            (out["budget_met"] and out["empirical_C0"] <= 100.0,
             f"C0 budget missed: {out['empirical_C0']}"),
            (abs(out["u_center"]) <= 1e-8 * (1.0 + out["M"]),
             f"center is not a zero: u={out['u_center']}"))
    return Task(id=tid, kind=kind, run=run, check=check,
                known_defect=known_defect)


def _rescale_task(tid, p: str, lam: float, schedule) -> Task:
    src = f"u=re({p}); v=im({lam:.4f}*i*({p}))"
    d_f = _line_arcs(lam)

    def run():
        from harmonic_range import (parse_map, rescaled_range_check,
                                    rescaled_sequence)
        members = []
        for rm in rescaled_sequence(parse_map(src), schedule):
            cert = rm.certify()
            verdict = rescaled_range_check(rm, d_f)
            members.append({"disc": rm.disc.to_dict(), "certificates": cert,
                            "range_consistent": verdict.consistent})
        return {"members": members}

    def check(out):
        for j, m in enumerate(out["members"]):
            c = m["certificates"]
            msg = _fails(
                (c["center_zero_ok"], f"member {j}: center_zero={c['center_zero']}"),
                (c["sup_abs_ok"], f"member {j}: sup_abs={c['sup_abs']}"),
                (c["lower_bound_ok"], f"member {j}: M_3/4={c['M_three_quarters']}"),
                (m["disc"]["budget_met"], f"member {j}: budget missed"),
                (m["range_consistent"], f"member {j}: rescaled range check failed"))
            if msg:
                return msg
        return None
    return Task(id=tid, kind="rescale", run=run, check=check)


def _local_task(tid, n: int, part: str) -> Task:
    def run():
        from harmonic_range import local_structure
        from harmonic_range.expressions import HarmonicComponent, Pow, Z
        u = HarmonicComponent(Pow(Z, n) if n > 1 else Z, part)
        return local_structure(u, 0.0)

    def check(out):
        return _fails((out["n"] == n, f"multiplicity {out['n']} expected {n}"),
                      (len(out["ray_angles"]) == 2 * n,
                       f"{len(out['ray_angles'])} zero rays expected {2 * n}"))
    return Task(id=tid, kind="local", run=run, check=check)


def _tract_task(tid, p: str, deg: int) -> Task:
    def run():
        from harmonic_range import parse_map, tract_report
        from harmonic_range.zeros import RadiusTooSmallError
        u = parse_map(f"u=re({p}); v=im(z)").u
        for R in (10.0, 20.0, 40.0, 80.0, 160.0):
            try:
                return tract_report(u, R).to_dict()
            except RadiusTooSmallError:
                continue
        return None

    def check(out):
        return _fails((out is not None and out["components"] == 2 * deg,
                       f"tract count {out and out['components']} expected {2 * deg}"))
    return Task(id=tid, kind="tracts", run=run, check=check)


def _disc_search(rng, k: int) -> list[Task]:
    """One pass: a dense middle class of degree-2 searches, rescalings and
    small-R exponential searches holds the median; the heavier searches
    above it are few enough that the tail stays in that class's upper part."""
    tasks = []
    degrees = (1, 1) + (2,) * 10 + ((3,) if k % 2 == 0 else (4,))
    radii = rng.permutation(6.0 + 24.0 * (np.arange(len(degrees))
                                          + rng.uniform(size=len(degrees))) / len(degrees))
    for j, (deg, R) in enumerate(zip(degrees, radii)):
        part = ("re", "im")[j % 2]
        p = _poly(rng, deg)
        src = f"u={part}({p}); v={'im' if part == 're' else 're'}({p})"
        tasks.append(_lewis_task(f"p{k}/lewis-deg{deg}-{j}", f"lewis-deg{deg}",
                                 src, round(float(R), 3)))
    for R in (8.0, 12.0, 20.0):
        tasks.append(_lewis_task(f"p{k}/lewis-exp-R{R:g}", "lewis-exp",
                                 "u=im(exp(z)); v=re(exp(z))", R))
    tasks.append(_lewis_task(f"p{k}/defect/lewis-exp-exp-R30", "defect",
                             EXPEXP_MAP, 30.0, known_defect=EXPEXP_DEFECT))
    for j in range(2):
        tasks.append(_rescale_task(f"p{k}/rescale-{j}", _poly(rng, 1, centred=True),
                                   _slope(rng), (2.0, 4.0)))
    n = int(rng.integers(1, 6))
    tasks.append(_local_task(f"p{k}/local-z^{n}", n, ("real", "imag")[k % 2]))
    deg = int(rng.integers(1, 7))
    tasks.append(_tract_task(f"p{k}/tracts-deg{deg}", _poly(rng, deg), deg))
    return tasks


# ---------------------------------------------------------------------------
# cli-session: one subprocess per call
# ---------------------------------------------------------------------------

def cli_schemas() -> dict:
    from harmonic_range.cli import SCHEMAS
    return SCHEMAS


def _cli_task(tid, argv, expect_code=0, artifacts=(), extra=None,
              files=None, known_defect=None) -> Task:
    """``argv`` may name work files as ``{work}/name``; the runner
    substitutes its work directory.  ``extra`` checks the parsed JSON."""
    command = argv[2] if argv[0] == "--config" else argv[0]
    schema = "--schema" in argv

    def check(out):
        if out["code"] != expect_code:
            return (f"exit {out['code']} expected {expect_code}: "
                    f"{out['stderr_last']}")
        if out["traceback"]:
            return f"traceback on stderr: {out['stderr_last']}"
        if expect_code == 2:
            return None
        try:
            doc = json.loads(out["stdout"])
        except ValueError:
            return "stdout is not JSON"
        keys = ({"command", "schema"} if schema else
                set(cli_schemas()[command]["properties"]))
        missing = sorted(keys - set(doc))
        if missing:
            return f"stdout misses keys {missing}"
        for name in artifacts:
            if not out["artifacts"][name]["bytes"]:
                return f"artifact {name} missing or empty"
        return extra(doc, out) if extra else None
    return Task(id=tid, kind="cli-" + ("schema" if schema else command),
                argv=argv, check=check, files=files or {},
                known_defect=known_defect, stable=_cli_stable)


def _cli_stable(out):
    # stderr differs between the plain and the traced entry point
    # (traceback frames), so only exit code, stdout and artifacts count
    return [out["code"], out["stdout"], out["artifacts"], out["traceback"]]


def _cli_session(rng, k: int) -> list[Task]:
    z = complex(round(float(rng.uniform(-2, 2)), 4), round(float(rng.uniform(-2, 2)), 4))
    n = int(rng.integers(2, 6))
    lam = _slope(rng)
    deg = int(rng.integers(2, 5))
    tract_poly = _poly(rng, deg)
    norm_poly = _poly(rng, 2)
    cfg_seed = int(rng.integers(0, 1000))
    log2_seed = int(rng.integers(0, 1000))
    p = f"p{k}/"

    def eval_ok(doc, out):
        w = complex(*doc["w"])
        want = complex(z.real, math.exp(z.real) * math.sin(z.imag))
        return _fails((abs(w - want) <= 1e-12 * (1 + abs(want)),
                       f"eval w={w} expected {want}"))

    def sample_ok(doc, out):
        lines = out["artifacts"][f"{k}-sample.csv"]["lines"]
        meta = doc["metadata"]
        return _fails((meta["n_grid"] == 256 and meta["seed"] == cfg_seed,
                       f"config defaults ignored: {meta}"),
                      (lines == doc["count"] + 1,
                       f"sample CSV has {lines} lines for {doc['count']} samples"))

    def local_ok(doc, out):
        return _fails((doc["n"] == n and len(doc["ray_angles"]) == 2 * n,
                       f"local structure n={doc['n']} expected {n}"))

    def tracts_ok(doc, out):
        return _fails((doc["components"] == 2 * deg,
                       f"tracts {doc['components']} expected {2 * deg}"))

    def dependence_ok(doc, out):
        return _fails((doc["dependent"] and abs(doc["b"] - 1.0 / lam) <= B_TOL,
                       f"dependence b={doc['b']} expected {1.0 / lam}"))

    def log2_ok(doc, out):
        return _fails((doc["conclusion"]["holds"], "log2 violation reported"))

    def catalog_ok(doc, out):
        return _fails((len(doc["entries"]) == 13,
                       f"{len(doc['entries'])} catalog entries"))

    deep = "(" * DEEP_NESTING + "z" + ")" * DEEP_NESTING
    return [
        _cli_task(p + "eval", ["eval", "--map", "u=re(z); v=im(exp(z))",
                               f"--z={z.real}{z.imag:+}i"], extra=eval_ok),
        _cli_task(p + "sample-config-csv",
                  ["--config", f"{{work}}/{k}-sample.cfg", "sample", "--catalog",
                   "exp-wedge", "--out", f"{{work}}/{k}-sample.csv"],
                  files={f"{k}-sample.cfg": f"n_grid=256\nseed={cfg_seed}\n"},
                  artifacts=(f"{k}-sample.csv",), extra=sample_ok),
        _cli_task(p + "directions", ["directions", "--catalog", "exp-exp-cross"]),
        _cli_task(p + "antipodal", ["antipodal", "--catalog", "lewis-cross"]),
        _cli_task(p + "normalize-config",
                  ["--config", f"{{work}}/{k}-norm.cfg", "normalize", "--map",
                   f"u=re({norm_poly}); v=im({norm_poly})"],
                  files={f"{k}-norm.cfg": f"R=20\nn_grid=128\nseed={cfg_seed}\n"}),
        _cli_task(p + "lewis-discs", ["lewis-discs", "--map",
                                      "u=im(exp(z)); v=re(exp(z))", "--R", "20"]),
        _cli_task(p + "rescale", ["rescale", "--map", "u=re(z); v=im(z)",
                                  "--schedule", "2,4,8"]),
        _cli_task(p + "zeros-csv", ["zeros", "--map", "u=re(z^2); v=im(z^2)",
                                    "--box=-1,1,-1,1", "--out", f"{{work}}/{k}-zeros.csv"],
                  artifacts=(f"{k}-zeros.csv",)),
        _cli_task(p + "local-structure", ["local-structure", "--map",
                                          f"u=re(z^{n}); v=im(z^{n})", "--z0", "0"],
                  extra=local_ok),
        _cli_task(p + "tracts", ["tracts", "--map", f"u=re({tract_poly}); v=im(z)",
                                 "--R", "40"], extra=tracts_ok),
        _cli_task(p + "dependence", ["dependence", "--map",
                                     f"u=re(z); v=im({lam:.4f}*i*z)", "--R", "50",
                                     "--n-grid", "128", "--a", f"{2.0 / abs(lam):.6f}"],
                  extra=dependence_ok),
        _cli_task(p + "phi", ["phi", "--catalog", "square"]),
        _cli_task(p + "check-log2", ["check", "--theorem", "log2", "--n", "1000000",
                                     "--seed", str(log2_seed)], extra=log2_ok),
        _cli_task(p + "catalog", ["catalog"], extra=catalog_ok),
        _cli_task(p + "plot-svg", ["plot", "--catalog", "exp-wedge", "--out",
                                   f"{{work}}/{k}-wedge.svg"], artifacts=(f"{k}-wedge.svg",)),
        _cli_task(p + "schema", ["directions", "--schema"]),
        _cli_task(p + "bad-map", ["eval", "--map", "u=re(z", "--z", "0"],
                  expect_code=2),
        _cli_task(p + "defect/deep-nesting",
                  ["eval", "--map", f"u=re({deep}); v=im(z)", "--z", "0"],
                  expect_code=2, known_defect=DEEP_DEFECT),
    ]
