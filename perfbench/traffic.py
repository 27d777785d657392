"""Seeded request streams for the HTTP workloads and their answer checks.

Every request carries its expected answer, computed from the generator's
ground truth (``truth.json``), never from the server.  A response counts
as correct only if its status, matching ids and checked field values all
agree with that expectation.
"""

from __future__ import annotations

import json
import math
import random
from typing import Any, Dict, Iterator, List, Optional

#: ``MaterialsAPI`` caps a query at this many documents (QueryEngine).
MAX_RESULTS = 1000

#: Portal traffic as REST URIs (share of requests).  Formula lookups and
#: chemical-system browses take the shares of the Fig. 5 archetype mix
#: (``repro.datagen.workload.QueryWorkload.ARCHETYPE_WEIGHTS``); phase
#: diagrams, the outlier tail, take 3%.  QueryWorkload's other archetypes
#: (element containment, property ranges, full browses, battery screens)
#: have no ``MaterialsAPI`` URI.  No source in the repository splits the
#: remaining 37% among the point lookups, so they share it equally, as
#: far as a block of 100 allows.
PORTAL_MIX = {
    "formula": 0.40,
    "chemsys": 0.20,
    "material": 0.13,
    "task": 0.12,
    "battery": 0.12,
    "phasediagram": 0.03,
}
#: Requests per block in which a mix holds exactly.
MIX_BLOCK = 100
#: MPRester-style callers: indexed point lookups only, in equal shares
#: (no source in the repository gives their split).  Battery lookups are
#: left out: nothing indexes ``battery_id``, so they scan the collection.
RESTER_MIX = {"material": 0.50, "task": 0.50}
#: Single-document lookups (``point_p50_ms``).  ``material`` and ``task``
#: are indexed; ``battery`` scans every battery.
POINT_KINDS = frozenset({"material", "task", "battery"})
#: Properties of ``/materials/mp-N/vasp/<prop>`` checked against truth.
POINT_PROPERTIES = ("energy", "band_gap", "reduced_formula", "nsites")


class Request:
    __slots__ = ("kind", "path", "expect")

    def __init__(self, kind: str, path: str, expect: Dict[str, Any]):
        self.kind = kind
        self.path = path
        self.expect = expect


class Truth:
    """Lookup tables over the generator's ground truth."""

    def __init__(self, truth: Dict[str, Any]):
        self.materials = truth["materials"]
        self.by_formula: Dict[str, List[dict]] = {}
        self.by_chemsys: Dict[str, List[dict]] = {}
        for m in self.materials:
            self.by_formula.setdefault(m["reduced_formula"], []).append(m)
            self.by_chemsys.setdefault(m["chemical_system"], []).append(m)
        self.batteries = truth["batteries"]
        self.base_encut = truth["base_encut"]
        # Popularity ranks: the best-studied formulas and systems, those
        # with the most polymorphs, are the most requested; equal counts
        # are ordered by a seeded shuffle.
        rng = random.Random(truth["seed"])
        self.formulas = _by_size(self.by_formula, rng)
        self.chemsys = _by_size(self.by_chemsys, rng)
        self.multi_chemsys = [c for c in self.chemsys if "-" in c]


def _by_size(groups: Dict[str, List[dict]], rng: random.Random) -> List[str]:
    keys = sorted(groups)
    rng.shuffle(keys)
    return sorted(keys, key=lambda k: -len(groups[k]))


def _zipf(rng: random.Random, items: List[Any]) -> Any:
    """Rank-1/x popularity, as ``repro.datagen.workload`` draws it."""
    rank = int(math.exp(rng.random() * math.log(len(items)))) - 1
    return items[min(rank, len(items) - 1)]


def _materials_expect(group: List[dict]) -> Dict[str, Any]:
    return {"ids": {m["material_id"]: m for m in group},
            "fields": ("energy", "band_gap", "reduced_formula")}


def make_request(kind: str, rng: random.Random, truth: Truth) -> Request:
    if kind == "formula":
        formula = _zipf(rng, truth.formulas)
        return Request(kind, f"/rest/v1/materials/{formula}",
                       _materials_expect(truth.by_formula[formula]))
    if kind == "chemsys":
        chemsys = _zipf(rng, truth.chemsys)
        if "-" not in chemsys:
            # A single element is not a chemical-system URI; browse the
            # elemental formula instead (same query shape and cost).
            return Request(kind, f"/rest/v1/materials/{chemsys}",
                           _materials_expect(truth.by_formula[chemsys]))
        return Request(kind, f"/rest/v1/materials/{chemsys}",
                       _materials_expect(truth.by_chemsys[chemsys]))
    if kind == "material":
        m = rng.choice(truth.materials)
        prop = rng.choice(POINT_PROPERTIES)
        return Request(kind, f"/rest/v1/materials/{m['material_id']}/vasp/{prop}",
                       {"one": {"material_id": m["material_id"],
                                prop: m[prop]}})
    if kind == "task":
        m = rng.choice(truth.materials)
        return Request(kind, f"/rest/v1/tasks/{m['mps_id']}",
                       {"one": {"mps_id": m["mps_id"], "energy": m["energy"],
                                "state": "COMPLETED",
                                "parameters.ENCUT": truth.base_encut}})
    if kind == "battery":
        b = rng.choice(truth.batteries)
        return Request(kind, f"/rest/v1/batteries/{b['battery_id']}",
                       {"one": {"battery_id": b["battery_id"],
                                "average_voltage": b["average_voltage"],
                                "material_ids": b["material_ids"]}})
    if kind == "phasediagram":
        chemsys = _zipf(rng, truth.multi_chemsys)
        elements = set(chemsys.split("-"))
        touching = [m for m in truth.materials
                    if elements & set(m["elements"])]
        members = {m["material_id"] for m in touching
                   if set(m["elements"]) <= elements}
        return Request(kind, f"/rest/v1/phasediagram/{chemsys}",
                       {"members": members,
                        "exact": len(touching) <= MAX_RESULTS})
    raise ValueError(f"unknown request kind {kind!r}")


def request_stream(mix: Dict[str, float], seed: int,
                   truth: Truth) -> Iterator[Request]:
    """An endless seeded stream of requests in ``mix`` proportions.

    Every block of ``MIX_BLOCK`` requests holds each kind in its exact
    share, in seeded random order, so a run's mix does not drift with the
    seed and only which items are requested, and when, does.
    """
    rng = random.Random(seed)
    block = [kind for kind, share in mix.items()
             for _ in range(round(share * MIX_BLOCK))]
    while True:
        rng.shuffle(block)
        for kind in block:
            yield make_request(kind, rng, truth)


def _get(doc: Any, dotted: str) -> Any:
    for part in dotted.split("."):
        if not isinstance(doc, dict) or part not in doc:
            return _MISSING
        doc = doc[part]
    return doc


_MISSING = object()


def check(request: Request, status: Optional[int],
          body: Optional[bytes]) -> Optional[str]:
    """``None`` when the response matches the expectation, else why not."""
    if status != 200:
        return f"status {status}"
    try:
        envelope = json.loads(body)
    except (TypeError, ValueError) as exc:
        return f"unparseable body: {exc}"
    if not envelope.get("valid_response"):
        return "invalid envelope"
    docs = envelope.get("response")
    if not isinstance(docs, list):
        return "no response list"
    expect = request.expect
    if "one" in expect:
        if len(docs) != 1:
            return f"{len(docs)} documents, expected 1"
        for field, value in expect["one"].items():
            if _get(docs[0], field) != value:
                return f"{field} = {_get(docs[0], field)!r}, expected {value!r}"
        return None
    if "ids" in expect:
        want = expect["ids"]
        got = {d.get("material_id"): d for d in docs}
        if len(got) != len(docs):
            return "duplicate material ids"
        if len(want) <= MAX_RESULTS:
            if set(got) != set(want):
                return f"ids differ: {len(got)} returned, {len(want)} expected"
        elif len(got) != MAX_RESULTS or not set(got) <= set(want):
            return "capped result is not a subset of the expected ids"
        for material_id, doc in got.items():
            for field in expect["fields"]:
                if doc.get(field) != want[material_id][field]:
                    return f"{material_id}.{field} differs"
        return None
    summary = docs[0] if len(docs) == 1 else {}
    members = set(summary.get("member_materials") or ())
    if not members or not members <= expect["members"]:
        return "phase diagram members are not the chemical system's"
    if expect["exact"] and members != expect["members"]:
        return "phase diagram misses members"
    if set(summary.get("e_above_hull") or ()) != members:
        return "hull energies do not cover the members"
    return None
