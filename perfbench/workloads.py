"""The benchmark's workloads: which znbases CLI jobs each one runs, and why.

A job is the argument list of one ``znbases`` command, run as a fresh
process.  Each workload's job list covers the table, json and csv renderers.
The run seed draws the job order and, on ``structure-pipeline``, the input
sets; the program itself sees only CLI arguments.

Why each workload exists, and the layer it is expected to dominate:

``spectrum-exhaustive``
    ``spectrum --n N --exhaustive`` for N = 14..16, the largest N also with
    ``--shards 2``.  Nearly all of the time is canonicality tests over the
    2^(N-1) candidate subsets; the kernel does little and there is no DFS,
    so this isolates orbit enumeration.  Expected to dominate:
    ``affine.is_canonical.self_s``.
``conjecture-sweep``
    ``conjecture --k 3 --max-card 6 --shards 2`` over n = 60..70 and at
    n = 150 and 200.  Most of the time goes to the pruned DFS and ~10^5
    ``order()`` calls on masks under 256 bits; ``canonical_form`` runs only
    on the few exceeders and the Klopsch-Lev cap is active.  Expected to
    dominate: ``sumsets.order.self_s``.
``family-large-n``
    ``family --k 3`` over n = 16..6000, as two jobs (16..1500 in csv and
    1501..6000 in table form, so that both renderers run and each job has
    rows with n <= 2000 for the oracle), plus
    ``order --n 100000 --set 0,1,33334``.  The kernel runs on masks of 10^3
    to 10^5 bits with no enumeration or canonicalization, and this workload
    emits the most output rows: the kernel regime opposite to
    ``conjecture-sweep``.  Expected to dominate: ``sumsets.order.self_s``.
``structure-pipeline``
    ``pipeline --k 3`` and ``df-analyze`` on small-doubling sets (a subgroup
    plus a few random residues) in moduli with many divisors, 1260 and 2520
    (one ``pipeline`` job).
    The only workload that reaches the ``structure`` module: ``ap_cover``,
    coset scans and ``h_fold`` on dense sets.  Expected to dominate:
    ``structure.ap_cover.self_s``.

The sizes keep one pass of each job list between 2 and 4 seconds on a 2-core
Xeon virtual machine, so a run of 25 seconds holds six or more passes; the
end-to-end times take each job at its median over the passes (see README.md).

Checked against the first traced runs (results/baseline-2fc2d40.json), as
shares of the self time summed over all spans of one traced pass:

- ``spectrum-exhaustive``: ``affine.is_canonical`` 85%,
  ``spectrum.enumerate_bases`` 13%.  Agrees.
- ``conjecture-sweep``: ``sumsets.order`` 74%, ``verify_conjecture`` itself
  (the DFS loop) 19%, ``affine.canonical_form`` 8%.  Agrees on the kernel,
  but ``canonical_form`` is not confined to "the few exceeders": it runs on
  every exceeder the DFS reaches, before deduplication (997 calls for 68
  distinct exceeders).  ``order()`` is called about 1.9 * 10^5 times.
- ``family-large-n``: ``sumsets.order`` 96%.  Agrees.  Rendering
  (``cli.self_s``) is about 1% even here, so a renderer change can hardly
  move ``wall_s`` on any workload.
- ``structure-pipeline``: ``structure.ap_cover`` 94%.  Disagrees on
  ``h_fold``: it and ``add_sets`` make 3 and 21 calls per pass and take under
  0.01 s together, so this workload measures ``ap_cover`` and the coset
  scans, not sumsets of dense sets.

``structure-pipeline`` sets: for each job slot, one base set is drawn from a
fixed generator seed, and the run seed picks one of ``STRUCTURE_VARIANTS``
affine images x -> u*x + v of it.  An affine image keeps the order, the
doubling sizes and the coset structure, so the work per job stays constant
across seeds (the ``ap_cover`` inner-loop count differs by under 0.01%
between variants), while the sets and output bytes differ.  Independently
drawn sets do not: whether the doubling search stops at j = 2 or j = 3 changes
a job's time several-fold.  The variants are finite so that every job has a
stored reference output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

Job = tuple[str, ...]

STRUCTURE_VARIANTS = 8

# (modulus, subgroup size, extra residues, command, format) per job slot.
STRUCTURE_SLOTS = (
    (1260, 60, 2, "pipeline", "json"),
    (1260, 60, 2, "df-analyze", "table"),
    (1260, 36, 3, "pipeline", "table"),
    (1260, 36, 3, "df-analyze", "csv"),
    (2520, 120, 3, "pipeline", "csv"),
    (1260, 90, 4, "df-analyze", "json"),
)


def _fmt(fmt: str) -> Job:
    return () if fmt == "table" else ("--format", fmt)


def _small_doubling_set(n: int, m: int, extra: int) -> list[int]:
    """The subgroup of size m in Z_n plus `extra` random residues."""
    rng = random.Random(n * 1000 + m)
    members = set(range(0, n, n // m))
    while len(members) < m + extra:
        members.add(rng.randrange(n))
    return sorted(members)


def structure_variant(slot: int, variant: int) -> Job:
    """The job for one structure slot on one affine image of its base set."""
    n, m, extra, command, fmt = STRUCTURE_SLOTS[slot]
    rng = random.Random(f"{slot}/{variant}")
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    u, v = (1, 0) if variant == 0 else (rng.choice(units), rng.randrange(n))
    members = sorted({(u * x + v) % n for x in _small_doubling_set(n, m, extra)})
    text = ",".join(map(str, members))
    k = ("--k", "3") if command == "pipeline" else ()
    return (command, "--n", str(n), "--set", text, *k, *_fmt(fmt))


def _structure_jobs(rng: random.Random) -> list[Job]:
    return [
        structure_variant(slot, rng.randrange(STRUCTURE_VARIANTS))
        for slot in range(len(STRUCTURE_SLOTS))
    ]


def _all_structure_jobs() -> list[Job]:
    return [
        structure_variant(slot, variant)
        for slot in range(len(STRUCTURE_SLOTS))
        for variant in range(STRUCTURE_VARIANTS)
    ]


SPECTRUM_JOBS: list[Job] = [
    ("spectrum", "--n", "14", "--exhaustive", *_fmt("json")),
    ("spectrum", "--n", "15", "--exhaustive", *_fmt("csv")),
    ("spectrum", "--n", "16", "--exhaustive"),
    ("spectrum", "--n", "16", "--exhaustive", "--shards", "2", *_fmt("json")),
]

_CONJ = ("conjecture", "--k", "3", "--max-card", "6", "--shards", "2")
CONJECTURE_JOBS: list[Job] = [
    (*_CONJ, "--n-range", "60..70", *_fmt("json")),
    (*_CONJ, "--n", "150", *_fmt("csv")),
    (*_CONJ, "--n", "200"),
]

FAMILY_JOBS: list[Job] = [
    ("family", "--k", "3", "--n-range", "16..1500", *_fmt("csv")),
    ("family", "--k", "3", "--n-range", "1501..6000"),
    ("order", "--n", "100000", "--set", "0,1,33334", *_fmt("json")),
]


@dataclass(frozen=True)
class Workload:
    name: str
    draw: Callable[[random.Random], list[Job]]
    every_job: Callable[[], list[Job]]

    def jobs(self, seed: int) -> list[Job]:
        """The job list for a seed, in the order one pass runs it."""
        rng = random.Random(seed)
        jobs = self.draw(rng)
        rng.shuffle(jobs)
        return jobs


def _fixed(jobs: list[Job]) -> tuple[Callable, Callable]:
    return (lambda rng: list(jobs)), (lambda: list(jobs))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("spectrum-exhaustive", *_fixed(SPECTRUM_JOBS)),
        Workload("conjecture-sweep", *_fixed(CONJECTURE_JOBS)),
        Workload("family-large-n", *_fixed(FAMILY_JOBS)),
        Workload("structure-pipeline", _structure_jobs, _all_structure_jobs),
    )
}
