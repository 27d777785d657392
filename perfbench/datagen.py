"""Seeded data generator for the end-to-end benchmark, with ground truth.

One seed and one set of sizes give one store, persisted as two ``repro``
data directories:

* ``portal`` — ``materials``, ``tasks`` and ``batteries``;
* ``queue`` — the same plus the ``engines`` READY queue.

Contents:

* ``tasks`` — one COMPLETED calculation per material (ENCUT 520).  Stored
  tasks carry the calculation summary but not the structure, to keep the
  store's open time inside the benchmark's budget;
* ``materials`` — documents in the shape ``MaterialsBuilder`` projects
  (same fields, provenance sub-document included), one per task.
  Structures come from ``SyntheticICSD`` prototypes; polymorph variants
  (isotropic volume rescales of one prototype) let one formula match
  several materials, as in the real store;
* ``batteries`` — intercalation-electrode summaries over Li materials,
  addressable by ``battery_id``;
* ``engines`` — READY fireworks submitted through ``LaunchPad.add_workflow``.
  Half recompute an existing material at a higher cutoff (a builder
  update), half are new materials (a builder insert).  The spec names the
  material; the simulated calculation's output (structure, energy, gap)
  is ground truth the worker looks up by ``fw_id``.

Indexes are whatever ``LaunchPad`` and ``MaterialsBuilder`` create in
their constructors; nothing is indexed by hand.  Ground truth
(``truth.json``, ``fireworks.json``) comes from the generated values,
never from reading the store back, so a wrong answer from the store is
detectable.  Cached stores are keyed by the digest of the code that
writes them (``code_digest``) as well as by seed and sizes.

Run as a script to build the data directories of one seed::

    PYTHONPATH=src python3 perfbench/datagen.py --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from typing import Any, Dict, List

#: Store sizes; part of every workload's definition.
FULL_SIZES = {"materials": 10_000, "batteries": 400, "ready": 20_000}
#: Sizes for the benchmark's self-test.
TINY_SIZES = {"materials": 300, "batteries": 20, "ready": 2000}

#: Cutoffs of stored tasks and of the queue's calculations.  The builder
#: prefers the higher cutoff, so a recompute always replaces the material.
BASE_ENCUT = 520
RECOMPUTE_ENCUT = 600
#: Distinct prototype structures drawn from ``SyntheticICSD``.
N_PROTOTYPES = 500
#: Fixed timestamps keep the generated documents a function of the seed.
EPOCH = 1_340_000_000.0
HERE = os.path.dirname(os.path.abspath(__file__))
#: The package whose code writes the stored bytes (snapshot format,
#: constructor indexes, engine documents).
REPRO_SRC = os.path.join(os.path.dirname(HERE), "src", "repro")


def code_digest() -> str:
    """Digest of the code that writes a store: this file and ``repro``.

    A cached store is only reused by the code that wrote it, so two
    commits measured in one tree each build and open their own.
    """
    digest = hashlib.sha256()
    paths = [os.path.abspath(__file__)]
    for folder, dirs, files in os.walk(REPRO_SRC):
        dirs.sort()
        paths += [os.path.join(folder, f) for f in sorted(files)
                  if f.endswith(".py")]
    for path in paths:
        digest.update(os.path.relpath(path, HERE).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def cache_key(seed: int, sizes: Dict[str, int]) -> str:
    return (f"{code_digest()}-s{seed}-m{sizes['materials']}"
            f"-b{sizes['batteries']}-r{sizes['ready']}")


class Prototypes:
    """The seed's prototype structures and their polymorph variants."""

    def __init__(self, seed: int):
        from repro.datagen import SyntheticICSD, elemental_references
        from repro.dft.energy import reference_energy_per_atom

        structures = SyntheticICSD(seed=seed).structures(N_PROTOTYPES)
        structures += elemental_references(
            sorted({el for s in structures for el in s.elements}))
        self.structures = structures
        self.info = []
        for s in structures:
            comp = s.composition
            self.info.append({
                "formula": s.formula,
                "reduced_formula": s.reduced_formula,
                "chemical_system": s.chemical_system,
                "elements": s.elements,
                "nsites": s.num_sites,
                "reference": sum(
                    amount * reference_energy_per_atom(el.symbol)
                    for el, amount in comp.items()),
            })

    def __len__(self) -> int:
        return len(self.structures)


def variant_dict(base: Any, variant: int) -> dict:
    """Polymorph variant ``k`` of a prototype: volume scaled by 1.5% k."""
    if variant:
        base = base.scale_volume(base.volume * (1 + 0.015 * variant))
    return base.as_dict()


def _band_gap(rng: random.Random) -> float:
    return 0.0 if rng.random() < 0.3 else rng.uniform(0.1, 6.0)


def material_doc(info: dict, structure: dict, task: dict) -> dict:
    """A materials document in ``MaterialsBuilder``'s projected shape."""
    energy = task["energy"]
    return {
        "mps_id": task["mps_id"],
        "energy": energy,
        "energy_per_atom": task["energy_per_atom"],
        "band_gap": task["band_gap"],
        "is_metal": task["is_metal"],
        "structure": structure,
        "provenance": {
            "builder": "materials",
            "task_id": task["_id"],
            "source_task_ids": [task["_id"]],
            "n_tasks": 1,
            "parameters": task["parameters"],
            "functional": task["functional"],
            "code_version": task["code_version"],
            "completed_at": task["completed_at"],
            "trace_id": None,
            "built_wall_ms": 0.0,
        },
        "last_updated": task["completed_at"],
        "formula": info["formula"],
        "reduced_formula": info["reduced_formula"],
        "chemical_system": info["chemical_system"],
        "elements": info["elements"],
        "nelements": len(info["elements"]),
        "nsites": info["nsites"],
        "formation_energy_per_atom": (
            (energy - info["reference"]) / info["nsites"]),
    }


def generate(seed: int, sizes: Dict[str, int],
             protos: Prototypes) -> Dict[str, Any]:
    """Every document to store, plus the ground truth, from one seed."""
    rng = random.Random(seed)
    variants = [0] * len(protos)

    def polymorph() -> tuple:
        index = rng.randrange(len(protos))
        variants[index] += 1
        return index, variants[index] - 1

    tasks, materials, truth_materials = [], [], []
    for i in range(sizes["materials"]):
        index, variant = polymorph()
        info = protos.info[index]
        mps_id = f"mps-{i:06d}"
        energy = info["reference"] + info["nsites"] * rng.uniform(-2.5, 0.2)
        gap = _band_gap(rng)
        task = {
            "_id": f"task-{i:06d}",
            "mps_id": mps_id,
            "state": "COMPLETED",
            "formula": info["reduced_formula"],
            "elements": info["elements"],
            "nsites": info["nsites"],
            "energy": energy,
            "energy_per_atom": energy / info["nsites"],
            "band_gap": gap,
            "is_metal": gap == 0.0,
            "parameters": {"ENCUT": BASE_ENCUT, "ISPIN": 2},
            "functional": "PBE",
            "code_version": "vasp-5.2.12",
            "completed_at": EPOCH + i,
        }
        tasks.append(task)
        doc = material_doc(
            info, variant_dict(protos.structures[index], variant), task)
        doc["material_id"] = f"mp-{i + 1}"
        materials.append(doc)
        truth_materials.append({
            "material_id": doc["material_id"],
            "mps_id": mps_id,
            "reduced_formula": info["reduced_formula"],
            "chemical_system": info["chemical_system"],
            "elements": info["elements"],
            "nsites": info["nsites"],
            "energy": energy,
            "band_gap": gap,
            "structure": [index, variant],
        })

    lithium = [m for m in truth_materials if "Li" in m["elements"]]
    batteries = []
    for j in range(sizes["batteries"]):
        members = rng.sample(lithium, 2)
        voltage = rng.uniform(1.5, 4.5)
        capacity = rng.uniform(50.0, 300.0)
        batteries.append({
            "battery_id": f"bat-{j:05d}",
            "battery_type": "intercalation",
            "working_ion": "Li",
            "framework": members[0]["reduced_formula"],
            "material_ids": sorted(m["material_id"] for m in members),
            "average_voltage": voltage,
            "capacity_grav": capacity,
            "specific_energy": voltage * capacity,
        })

    # The READY queue alternates recomputes of existing materials (each at
    # most once) with brand-new materials.
    recompute = rng.sample(range(sizes["materials"]),
                           min(sizes["materials"], sizes["ready"] // 2))
    fireworks = []
    for j in range(sizes["ready"]):
        if j % 2 == 0 and j // 2 < len(recompute):
            known = truth_materials[recompute[j // 2]]
            index, variant = known["structure"]
            mps_id, material_id = known["mps_id"], known["material_id"]
        else:
            index, variant = polymorph()
            mps_id, material_id = f"mps-n{j:06d}", None
        info = protos.info[index]
        fireworks.append({
            "mps_id": mps_id,
            # The id the material must keep; None for a new material.
            "material_id": material_id,
            "priority": rng.randrange(10),
            "reduced_formula": info["reduced_formula"],
            "elements": info["elements"],
            "nsites": info["nsites"],
            "structure": [index, variant],
            "energy": info["reference"]
            + info["nsites"] * rng.uniform(-2.5, 0.2),
            "band_gap": _band_gap(rng),
        })
    return {"tasks": tasks, "materials": materials,
            "truth_materials": truth_materials, "batteries": batteries,
            "fireworks": fireworks}


#: Per-firework ground truth the drain child needs.
DRAIN_FIELDS = ("mps_id", "material_id", "reduced_formula", "elements",
                "nsites", "structure", "energy", "band_gap")


def _submit_queue(db: Any, fireworks: List[dict]) -> Dict[str, dict]:
    """Submit the READY queue; returns its ground truth keyed by fw_id."""
    from repro.fireworks import LaunchPad
    from repro.fireworks.model import Firework, Workflow

    fws = [Firework({"mps_id": fw["mps_id"], "priority": fw["priority"],
                     "formula": fw["reduced_formula"],
                     "elements": fw["elements"],
                     "task_type": "GGA static"},
                    name=f"vasp-{fw['reduced_formula']}")
           for fw in fireworks]
    intake = LaunchPad(db).add_workflow(Workflow(fws, name="bench-queue"))
    if intake["added"] != len(fws):
        raise RuntimeError(f"queue intake {intake}")
    return {str(f.fw_id): fw for f, fw in zip(fws, fireworks)}


def build(seed: int, sizes: Dict[str, int], out: str) -> None:
    """Write ``out/portal``, ``out/queue``, ``out/truth.json`` (the HTTP
    workloads' truth) and ``out/fireworks.json`` (the drain's)."""
    from repro.builders import MaterialsBuilder
    from repro.docstore import DocumentStore
    from repro.docstore.persistence import PersistenceManager
    from repro.fireworks import LaunchPad

    protos = Prototypes(seed)
    data = generate(seed, sizes, protos)
    store = DocumentStore()
    db = store["mp"]
    LaunchPad(db)
    MaterialsBuilder(db)
    db["tasks"].insert_many(data["tasks"])
    db["materials"].insert_many(data["materials"])
    # The builder's id allocator continues after the stored materials.
    db["counters"].insert_one({"_id": "material_id",
                               "seq": len(data["materials"])})
    db["batteries"].insert_many(data["batteries"])
    for name in ("portal", "queue"):
        if name == "queue":
            fw_truth = _submit_queue(db, data["fireworks"])
        persistence = PersistenceManager(store, os.path.join(out, name),
                                         fsync="never")
        persistence.snapshot()
        persistence.close()
    truth = {
        "seed": seed,
        "sizes": sizes,
        "materials": data["truth_materials"],
        "batteries": data["batteries"],
        "base_encut": BASE_ENCUT,
    }
    # The drain child loads only what its workers and its reopen check
    # need, so little of its peak RSS is the benchmark's own.
    drain_truth = {
        "materials": sizes["materials"],
        "recompute_encut": RECOMPUTE_ENCUT,
        "prototypes": [s.as_dict() for s in protos.structures],
        "fireworks": {fw_id: {key: fw[key] for key in DRAIN_FIELDS}
                      for fw_id, fw in fw_truth.items()},
    }
    for name, doc in (("truth.json", truth), ("fireworks.json", drain_truth)):
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes instead of the full store")
    args = parser.parse_args(argv)
    build(args.seed, TINY_SIZES if args.tiny else FULL_SIZES, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
