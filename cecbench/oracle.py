"""Independent verdict oracle: a plain-Python AIG reader and evaluator.

Nothing here imports ``repro``.  Circuits are parsed from the same
binary AIGER bytes the program reads, evaluated bit-parallel with Python
integers (one bit per input pattern), and used to

- confirm that a mutant differs from its source before it enters a
  workload (a witness pattern must exist), and
- check every counter-example the program returns against the two
  circuits it claims to distinguish.

The benchmark's own circuit edits (PI permutation, single-gate mutation)
also live here, on this module's representation, so the oracle and the
inputs it vouches for share no code with the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Circuit:
    """A combinational AIG: AND ``i`` has variable ``num_pis + 1 + i``."""

    num_pis: int
    ands: Tuple[Tuple[int, int], ...]
    pos: Tuple[int, ...]


def parse_aiger(data: bytes) -> Circuit:
    """Parse a combinational binary (``aig``) AIGER file."""
    newline = data.find(b"\n")
    header = data[:newline].split()
    if len(header) < 6 or header[0] != b"aig":
        raise ValueError("not a binary AIGER file")
    _, num_vars, num_pis, num_latches, num_pos, num_ands = (
        [header[0]] + [int(field) for field in header[1:6]]
    )
    if num_latches:
        raise ValueError("latches are not supported")
    if num_vars < num_pis + num_ands:
        raise ValueError("inconsistent AIGER header")
    lines = data[newline + 1:].split(b"\n", num_pos)
    pos = tuple(int(lines[i]) for i in range(num_pos))
    offset = newline + 1 + sum(len(lines[i]) + 1 for i in range(num_pos))
    body = data[offset:]
    index = 0

    def varint() -> int:
        nonlocal index
        value, shift = 0, 0
        while True:
            if index >= len(body):
                raise ValueError("truncated AND section")
            byte = body[index]
            index += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                return value
            shift += 7

    ands = []
    for i in range(num_ands):
        lhs = 2 * (num_pis + 1 + i)
        rhs0 = lhs - varint()
        rhs1 = rhs0 - varint()
        ands.append((rhs0, rhs1))
    return _checked(Circuit(num_pis, tuple(ands), pos))


def _checked(circuit: Circuit) -> Circuit:
    first_and = circuit.num_pis + 1
    for i, (a, b) in enumerate(circuit.ands):
        if max(a, b) >> 1 >= first_and + i or min(a, b) < 0:
            raise ValueError(f"AND {i} is not topologically ordered")
    limit = 2 * (first_and + len(circuit.ands))
    if any(not 0 <= p < limit for p in circuit.pos):
        raise ValueError("output literal out of range")
    return circuit


def evaluate(circuit: Circuit, inputs: Sequence[int], width: int) -> List[int]:
    """PO values for ``width`` patterns packed bitwise into each PI word."""
    if len(inputs) != circuit.num_pis:
        raise ValueError("one input word per PI required")
    mask = (1 << width) - 1
    values = [0] + [word & mask for word in inputs]
    for a, b in circuit.ands:
        x = values[a >> 1] ^ (mask if a & 1 else 0)
        y = values[b >> 1] ^ (mask if b & 1 else 0)
        values.append(x & y)
    return [values[p >> 1] ^ (mask if p & 1 else 0) for p in circuit.pos]


def distinguishing_pattern(
    left: Circuit, right: Circuit, rng: random.Random, width: int = 1024
) -> Optional[List[int]]:
    """A PI assignment on which some PO differs, from ``width`` random patterns."""
    if (left.num_pis, len(left.pos)) != (right.num_pis, len(right.pos)):
        raise ValueError("circuits have different interfaces")
    words = [rng.getrandbits(width) for _ in range(left.num_pis)]
    diff = 0
    for x, y in zip(evaluate(left, words, width), evaluate(right, words, width)):
        diff |= x ^ y
    if not diff:
        return None
    bit = (diff & -diff).bit_length() - 1
    return [(word >> bit) & 1 for word in words]


def is_counterexample(left: Circuit, right: Circuit, cex: Sequence[int]) -> bool:
    """True when the PI assignment ``cex`` makes some PO of the two differ."""
    if len(cex) != left.num_pis or any(v not in (0, 1) for v in cex):
        return False
    return evaluate(left, cex, 1) != evaluate(right, cex, 1)


def permute_pis(circuit: Circuit, perm: Sequence[int]) -> Circuit:
    """Rename PI ``i`` to PI ``perm[i]`` (0-based); AND ids are unchanged."""
    n = circuit.num_pis
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of the PIs")
    var_map = list(range(n + 1 + len(circuit.ands)))
    for i, target in enumerate(perm):
        var_map[i + 1] = target + 1

    def remap(literal: int) -> int:
        return 2 * var_map[literal >> 1] | (literal & 1)

    return Circuit(
        n,
        tuple((remap(a), remap(b)) for a, b in circuit.ands),
        tuple(remap(p) for p in circuit.pos),
    )


def mutate(circuit: Circuit, gate: int) -> Circuit:
    """Complement the first fanin of AND ``gate`` — a single-gate fault."""
    ands = list(circuit.ands)
    a, b = ands[gate]
    ands[gate] = (a ^ 1, b)
    return Circuit(circuit.num_pis, tuple(ands), circuit.pos)


def confirmed_mutant(
    source: Circuit, target: Circuit, rng: random.Random, attempts: int = 64
) -> Tuple[Circuit, int, List[int]]:
    """Mutate ``target`` at seeded sites until the oracle sees it differ from ``source``.

    Returns the mutant, the mutated gate and a witness pattern.  A site
    whose fanins would collapse to ``x & !x`` is skipped, so the mutant
    stays a plain single-gate fault.
    """
    for _ in range(attempts):
        gate = rng.randrange(len(target.ands))
        a, b = target.ands[gate]
        if a >> 1 == b >> 1:
            continue
        mutant = mutate(target, gate)
        witness = distinguishing_pattern(source, mutant, rng)
        if witness is not None:
            return mutant, gate, witness
    raise RuntimeError("no observable mutation site found")
