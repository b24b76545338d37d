"""Built-in example catalog loaded from a checksummed data file."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

from .arcs import ArcSet
from .expressions import HarmonicMap, parse_map
from .ranges import DirectionEstimate, RangeSample, estimate_directions, sample_range

__all__ = ["CatalogEntry", "CatalogError", "load_catalog", "get_entry"]


class CatalogError(RuntimeError):
    pass


@dataclass
class CatalogEntry:
    """One named example: either a harmonic map with tuned sampling
    parameters, or a direction set stored directly."""

    name: str
    kind: str
    expected: dict
    provenance: str
    notes: str = ""
    map_source: Optional[str] = None
    arcs: Optional[ArcSet] = None
    params: dict = field(default_factory=dict)

    def harmonic_map(self) -> HarmonicMap:
        if self.kind != "map":
            raise CatalogError(f"catalog entry {self.name!r} holds no map")
        return parse_map(self.map_source)

    def sample(self) -> RangeSample:
        p = self.params
        return sample_range(self.harmonic_map(), p["R"], n_grid=p["n_grid"],
                            seed=p["seed"])

    def directions(self, samples: Optional[RangeSample] = None) -> DirectionEstimate:
        if self.kind == "arcset":
            return DirectionEstimate(arcs=self.arcs, cutoffs=(), bins=0)
        return estimate_directions(self.sample() if samples is None else samples)

    def expected_directions(self) -> Optional[ArcSet]:
        if "directions" not in self.expected:
            return None
        return ArcSet.from_intervals(self.expected["directions"])

    def to_dict(self) -> dict:
        out = {"name": self.name, "kind": self.kind,
               "expected": self.expected, "provenance": self.provenance,
               "notes": self.notes, "params": self.params}
        if self.map_source is not None:
            out["map"] = self.map_source
        if self.arcs is not None:
            out["arcs"] = self.arcs.to_dict()["arcs"]
        return out


def _read_data(name: str) -> bytes:
    root = resources.files("harmonic_range")
    return root.joinpath("data").joinpath(name).read_bytes()


def load_catalog() -> dict[str, CatalogEntry]:
    raw = _read_data("catalog.json")
    want = _read_data("catalog.sha256").decode().split()[0].strip()
    got = hashlib.sha256(raw).hexdigest()
    if got != want:
        raise CatalogError(f"catalog checksum mismatch: {got} != {want}")
    doc = json.loads(raw.decode())
    entries = {}
    for item in doc["entries"]:
        arcs = ArcSet.from_dict(item) if item["kind"] == "arcset" else None
        entries[item["name"]] = CatalogEntry(
            name=item["name"], kind=item["kind"],
            expected=item["expected"], provenance=item["provenance"],
            notes=item.get("notes", ""), map_source=item.get("map"),
            arcs=arcs, params=item.get("params", {}))
    return entries


def get_entry(name: str) -> CatalogEntry:
    cat = load_catalog()
    try:
        return cat[name]
    except KeyError:
        raise CatalogError(
            f"unknown catalog entry {name!r}; available: {sorted(cat)}") from None
