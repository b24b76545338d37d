"""Built-in example catalog: integrity, expectations, corpus invariants."""

import math

import pytest

from harmonic_range.catalog import CatalogError, get_entry, load_catalog
from harmonic_range.ranges import antipodal_pairs, sample_range
from harmonic_range.theorems import is_constant_proxy

import numpy as np


def test_catalog_loads_and_has_corpus():
    cat = load_catalog()
    assert len(cat) >= 12
    for required in ("lewis-cross", "vertical-line", "exp-wedge",
                     "exp-exp-cross"):
        assert required in cat


def test_checksum_guard(tmp_path, monkeypatch):
    import harmonic_range.catalog as catmod
    real = catmod._read_data

    def tampered(name):
        data = real(name)
        if name == "catalog.json":
            data = data.replace(b"vertical-line", b"vertical-lin3")
        return data

    monkeypatch.setattr(catmod, "_read_data", tampered)
    with pytest.raises(CatalogError):
        load_catalog()


def test_unknown_entry_raises():
    with pytest.raises(CatalogError):
        get_entry("no-such-entry")


@pytest.mark.parametrize("name", ["vertical-line", "exp-wedge",
                                  "exp-exp-cross", "horizontal-line",
                                  "tilted-line", "identity", "constant"])
def test_expected_directions_match(name):
    entry = get_entry(name)
    est = entry.directions()
    want = entry.expected_directions()
    if want.is_empty:
        assert est.arcs.is_empty
    else:
        assert math.degrees(est.arcs.hausdorff(want)) < 2.0


def test_lewis_cross_has_no_antipodal_pair():
    entry = get_entry("lewis-cross")
    est = entry.directions()
    assert entry.expected["antipodal_pairs_empty"]
    assert antipodal_pairs(est.arcs, tol_rad=math.radians(1.0)).is_empty


def test_every_nonconstant_map_has_antipodal_pair():
    """Corpus-level invariant: a nonconstant map never has an empty
    antipodal-pair set at its default settings."""
    for name, entry in load_catalog().items():
        if entry.kind != "map":
            continue
        s = entry.sample()
        constant = (is_constant_proxy(s.w.real) and is_constant_proxy(s.w.imag))
        assert constant == entry.expected["constant"], name
        if constant:
            continue
        est = entry.directions(s)
        pairs = antipodal_pairs(est.arcs, tol_rad=math.radians(1.0))
        assert not pairs.is_empty, name


def test_dependence_expectation_triple_line():
    from harmonic_range.zeros import detect_dependence
    entry = get_entry("triple-line")
    s = entry.sample()
    rep = detect_dependence(s, a=1.0, R=1.0)
    assert rep.dependent
    assert rep.b == pytest.approx(entry.expected["dependence_b"], abs=1e-12)


def test_provenance_values_restricted():
    for entry in load_catalog().values():
        assert entry.provenance in ("external", "trivial", "derived")


def test_map_entries_carry_their_sampling_params():
    # CatalogEntry.sample has no fallback values, and the CLI takes these
    # as flag defaults
    for entry in load_catalog().values():
        if entry.kind == "map":
            assert {"R", "n_grid", "seed"} <= set(entry.params), entry.name


def test_map_entries_hold_their_sampling_params_alone():
    # the growth rule decides every map's directions with no setting of
    # its own, so params are the keywords of sample_range and no other
    for entry in load_catalog().values():
        if entry.kind == "map":
            assert set(entry.params) == {"R", "n_grid", "seed"}, entry.name


def test_exp_wedge_directions_come_from_the_growth_rule():
    est = get_entry("exp-wedge").directions()
    assert est.cutoffs == () and est.stabilization_index == 0


@pytest.mark.parametrize("seed", range(5))
def test_exp_wedge_params_find_the_wedge_at_each_sample_seed(seed):
    entry = get_entry("exp-wedge")
    s = sample_range(entry.harmonic_map(), **dict(entry.params, seed=seed))
    est = entry.directions(s)
    assert math.degrees(est.arcs.hausdorff(entry.expected_directions())) < 2.0


@pytest.mark.parametrize("name", ["identity", "square", "exp-wedge", "exp-exp-cross"])
def test_occupied_bins_are_the_bins_the_arcs_are_built_from(name):
    # each kept bin widens by one bin on either side, so the arcs measure
    # between one and three times the kept bins
    est = get_entry(name).directions()
    width = 2 * math.pi / est.bins
    measure = sum(hi - lo for lo, hi in est.arcs.arcs)
    assert est.occupied_bins * width <= measure + 1e-9
    assert measure <= 3 * est.occupied_bins * width + 1e-9


def test_arcset_entry_directions_to_dict():
    entry = get_entry("lewis-cross")
    doc = entry.directions().to_dict()
    assert doc["bins"] == 0 and doc["occupied_bins"] == 0
    assert doc["arcs"] == entry.arcs.to_dict()["arcs"]
