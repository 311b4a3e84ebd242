"""Workload inputs: source pairs synthesised once, seeded schedules per run.

Source pairs (an original circuit and its synthesised copy) depend only
on the program, so they are built once in a child process and cached
under ``cecbench/.cache/<digest>/`` where ``<digest>`` hashes the
program's sources and this file.  A changed synthesis flow therefore
never reuses stale circuits.

Everything the ``--seed`` decides — mutation sites, PI permutations,
item order, tenants, the fresh/repeat split — is written by the same
child into ``<workload>-seed<N>.json``, byte for byte the same for the
same seed.  The parent only reads these files, so no synthesis or
mutant search runs inside a timer or counts toward the parent's peak RSS.

Run as a script (``python cecbench/inputs.py ROOT WORKLOAD SEED``) it
prints the schedule path; :func:`prepare` is the caller's entry point.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from typing import Dict, List, Tuple

import oracle
from common import child_env

HERE = os.path.dirname(os.path.abspath(__file__))

#: Source pairs per workload: name -> (generator, argument, doublings).
#: Synthesis is ``resyn2`` for the sweeps; serve uses the tiny suite.
SWEEP_SOURCES: Dict[str, List[Tuple[str, str, int, int]]] = {
    # P-phase exhaustive simulation settles every PO of these outright.
    "sweep-sim": [
        ("square18", "square", 18, 0),
        ("hyp9", "hyp", 9, 0),
        ("sin12_1xd", "sin_cordic", 12, 1),
        ("mult10", "multiplier", 10, 0),
    ],
    # PO supports exceed k_P: the scheduler's lanes do the work.
    "sweep-residue": [
        ("voter63", "voter", 63, 0),
        ("voter31_1xd", "voter", 31, 1),
        ("vga_like", "_vga_like", 0, 0),
    ],
}

#: Tiny-suite cases the serve workload draws from (each takes
#: milliseconds, so framing, admission and caches dominate).
SERVE_BASES = (
    "multiplier_1xd", "square_1xd", "sqrt", "log2",
    "hyp", "voter", "ac97_ctrl", "vga_lcd",
)
BULK_TENANTS = ("bulk-a", "bulk-b")
INTERACTIVE_TENANTS = ("ia-0", "ia-1", "ia-2", "ia-3")
BATCHES_PER_PASS = 4
BATCH_SIZE = 8
INTERACTIVE_PER_BATCH = 8
#: Per base and channel, the slot kinds of one pass: a quarter fresh.
SLOT_KINDS = ("fresh", "repeat", "repeat", "repeat-mutant")
#: Upper bound on serve passes in one run (fresh variants are pre-drawn).
MAX_SERVE_PASSES = 96

WORKLOADS = ("sweep-sim", "sweep-residue", "serve-mixed")


def source_digest(root: str) -> str:
    """Hash of the program's Python sources and the input definitions."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "repro")
    files = []
    for directory, dirnames, names in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        files.extend(
            os.path.join(directory, n) for n in names if n.endswith(".py")
        )
    files += [os.path.join(HERE, "inputs.py"), os.path.join(HERE, "oracle.py")]
    for path in sorted(files):
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as handle:
            digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()[:20]


def source_names(workload: str) -> List[str]:
    if workload == "serve-mixed":
        return list(SERVE_BASES)
    return [name for name, *_ in SWEEP_SOURCES[workload]]


def synthesise(workload: str, directory: str) -> None:
    """Write ``<name>.a.aig``/``<name>.b.aig`` for every source of a workload."""
    from repro.aig import double, write_aiger
    from repro.bench import generators, suite
    from repro.synth import resyn2

    os.makedirs(directory, exist_ok=True)
    if workload == "serve-mixed":
        cases = {c.name: c for c in suite.default_suite("tiny")}
        pairs = [
            (name, cases[name].original, cases[name].optimized)
            for name in SERVE_BASES
        ]
    else:
        pairs = []
        for name, generator, argument, doublings in SWEEP_SOURCES[workload]:
            if generator == "_vga_like":
                base = suite._vga_like()
            else:
                base = getattr(generators, generator)(argument)
            pairs.append(
                (name, double(base, doublings), double(resyn2(base), doublings))
            )
    for name, original, optimized in pairs:
        write_aiger(original, os.path.join(directory, f"{name}.a.aig"))
        write_aiger(optimized, os.path.join(directory, f"{name}.b.aig"))


def load_sources(directory: str, names: List[str]) -> Dict[str, Tuple]:
    out = {}
    for name in names:
        pair = []
        for side in "ab":
            with open(os.path.join(directory, f"{name}.{side}.aig"), "rb") as f:
                pair.append(oracle.parse_aiger(f.read()))
        out[name] = tuple(pair)
    return out


def _variant(rng: random.Random, name: str, source, mutate: bool) -> Dict:
    """A seeded PI permutation of a pair, optionally with a confirmed mutant."""
    a, b = source
    perm = list(range(a.num_pis))
    rng.shuffle(perm)
    item = {"source": name, "perm": perm, "gate": None, "witness": None,
            "expect": "equivalent"}
    if mutate:
        pa, pb = oracle.permute_pis(a, perm), oracle.permute_pis(b, perm)
        _, gate, witness = oracle.confirmed_mutant(pa, pb, rng)
        item.update(gate=gate, witness=witness, expect="nonequivalent")
    return item


def sweep_schedule(workload: str, seed: int, sources: Dict) -> Dict:
    rng = random.Random(f"{workload}/{seed}")
    items = []
    for name in source_names(workload):
        items.append(dict(_variant(rng, name, sources[name], False), name=name))
        items.append(
            dict(_variant(rng, name, sources[name], True), name=f"{name}~mut")
        )
    order = list(range(len(items)))
    rng.shuffle(order)
    return {"items": items, "order": order}


def serve_schedule(seed: int, sources: Dict) -> Dict:
    """Balanced pass template: every base fills each slot kind once per channel.

    The seed picks positions, tenants, permutations and mutation sites;
    the mix of bases and slot kinds is the same for every seed, so the
    work of a pass does not depend on the seed.
    """
    rng = random.Random(f"serve-mixed/{seed}")
    items: List[Dict] = []

    def add(item: Dict) -> int:
        items.append(item)
        return len(items) - 1

    repeat = {
        name: add(dict(_variant(rng, name, sources[name], False), name=name))
        for name in SERVE_BASES
    }
    mutant = {
        name: add(dict(_variant(rng, name, sources[name], True),
                       name=f"{name}~mut"))
        for name in SERVE_BASES
    }
    # One template slot per (channel, base, kind); positions shuffled.
    template = {}
    for channel in ("bulk", "interactive"):
        slots = [(name, kind) for name in SERVE_BASES for kind in SLOT_KINDS]
        rng.shuffle(slots)
        template[channel] = slots
    interactive_tenants = list(INTERACTIVE_TENANTS) * (
        len(template["interactive"]) // len(INTERACTIVE_TENANTS)
    )
    rng.shuffle(interactive_tenants)

    def job(name: str, kind: str, pass_index: int) -> int:
        if kind == "fresh":
            return add(dict(_variant(rng, name, sources[name], False),
                            name=f"{name}~p{pass_index}"))
        return mutant[name] if kind == "repeat-mutant" else repeat[name]

    passes = []
    for p in range(MAX_SERVE_PASSES):
        steps = []
        for k in range(BATCHES_PER_PASS):
            bulk = template["bulk"][k * BATCH_SIZE:(k + 1) * BATCH_SIZE]
            steps.append({
                "kind": "bulk",
                "tenant": BULK_TENANTS[k % len(BULK_TENANTS)],
                "jobs": [job(name, kind, p) for name, kind in bulk],
                "fresh": [kind == "fresh" for _, kind in bulk],
            })
            lo = k * INTERACTIVE_PER_BATCH
            for i in range(lo, lo + INTERACTIVE_PER_BATCH):
                name, kind = template["interactive"][i]
                steps.append({
                    "kind": "interactive",
                    "tenant": interactive_tenants[i],
                    "jobs": [job(name, kind, p)],
                    "fresh": [kind == "fresh"],
                })
        passes.append(steps)
    # Warm-up: every tenant sees every repeat item once before timing.
    warmup = [
        {"tenant": tenant, "jobs": sorted(repeat.values()) + sorted(mutant.values())}
        for tenant in BULK_TENANTS + INTERACTIVE_TENANTS
    ]
    return {"items": items, "passes": passes, "warmup": warmup}


def write_schedule(root: str, workload: str, seed: int) -> str:
    """Synthesise (if needed) and write the seeded schedule; return its path."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    base = os.path.join(HERE, ".cache", source_digest(root))
    sources_dir = os.path.join(base, workload)
    if not os.path.exists(os.path.join(sources_dir, "DONE")):
        synthesise(workload, sources_dir)
        open(os.path.join(sources_dir, "DONE"), "w").close()
    sources = load_sources(sources_dir, source_names(workload))
    if workload == "serve-mixed":
        schedule = serve_schedule(seed, sources)
    else:
        schedule = sweep_schedule(workload, seed, sources)
    schedule.update(workload=workload, seed=seed,
                    sources=os.path.relpath(sources_dir, HERE))
    path = os.path.join(base, f"{workload}-seed{seed}.json")
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        json.dump(schedule, handle, sort_keys=True, separators=(",", ":"))
    os.replace(tmp, path)
    return path


def prepare(root: str, workload: str, seed: int, timeout: float = 800.0) -> Dict:
    """Run :func:`write_schedule` in a child process and load its output."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), root, workload, str(seed)],
        env=child_env(root), cwd=root, capture_output=True, text=True, timeout=timeout,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"input synthesis failed:\n{done.stderr}")
    with open(done.stdout.strip().splitlines()[-1]) as handle:
        return json.load(handle)


def materialise(schedule: Dict) -> List[Tuple]:
    """``(name, left, right, expect)`` per item, as oracle circuits."""
    names = sorted({item["source"] for item in schedule["items"]})
    sources = load_sources(os.path.join(HERE, schedule["sources"]), names)
    out = []
    for item in schedule["items"]:
        a, b = sources[item["source"]]
        left = oracle.permute_pis(a, item["perm"])
        right = oracle.permute_pis(b, item["perm"])
        if item["gate"] is not None:
            right = oracle.mutate(right, item["gate"])
            if not oracle.is_counterexample(left, right, item["witness"]):
                raise RuntimeError(f"{item['name']}: witness no longer distinguishes")
        out.append((item["name"], left, right, item["expect"]))
    return out


if __name__ == "__main__":
    print(write_schedule(sys.argv[1], sys.argv[2], int(sys.argv[3])))
