"""Independent spot checks of znbases output, sharing no code with znbases.

Orders are recomputed by breadth-first search over plain Python sets: after
translating A so that 0 is a member, hA is the set of sums of at most h
nonzero elements, so the order is the largest BFS distance from 0 (at least
1), or None when the search does not reach every residue.  The parsers read
the table, json and csv renderings of ``spectrum``, ``conjecture`` and
``family`` and ``order``; every check returns a list of problems, empty when
the output agrees.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction


def bfs_order(n: int, members: list[int]) -> int | None:
    """Least h with hA = Z_n, or None when A does not generate Z_n."""
    if n == 1:
        return 1
    a0 = members[0]
    steps = {(m - a0) % n for m in members} - {0}
    seen = {0}
    frontier = {0}
    h = 0
    while frontier:
        frontier = {(x + s) % n for x in frontier for s in steps} - seen
        if frontier:
            seen |= frontier
            h += 1
    return max(h, 1) if len(seen) == n else None


def nearest_gap(rho: int, n: int, k: int) -> tuple[int, Fraction]:
    """(l, |rho - n/l|) minimizing the gap over l in [1, k], smallest l on ties."""
    gaps = [(abs(rho - Fraction(n, l)), l) for l in range(1, k + 1)]
    gap, l = min(gaps)
    return l, gap


def _members(text: str) -> list[int]:
    return [int(t) for t in re.split(r"[,;]", text) if t]


def _option(args: tuple[str, ...], name: str, default: str | None = None) -> str | None:
    return args[args.index(name) + 1] if name in args else default


def _csv_section(lines: list[str], header: str) -> list[list[str]]:
    """Rows under `header` up to the next line that is not a data row."""
    rows: list[list[str]] = []
    inside = False
    for line in lines:
        if line == header:
            inside = True
        elif inside:
            if not line[:1].isdigit():
                break
            rows.append(line.split(","))
    return rows


def _check_order(n: int, members: list[int], claimed: int | None, what: str) -> list[str]:
    actual = bfs_order(n, members)
    if actual != claimed:
        return [f"{what}: order of {members} mod {n} is {actual}, output says {claimed}"]
    return []


def check_spectrum(args: tuple[str, ...], out: str) -> list[str]:
    n = int(_option(args, "--n"))
    fmt = _option(args, "--format", "table")
    if fmt == "json":
        pairs = [(w["order"], w["witness"]) for w in json.loads(out)["witnesses"]]
    elif fmt == "csv":
        pairs = [(int(r[1]), r[2]) for r in _csv_section(out.splitlines(), "n,order,witness")]
    else:
        pairs = [(int(o), w) for o, w in re.findall(r"order (\d+)\s+witness \{([\d,]*)\}", out)]
    if not pairs:
        return ["spectrum: no witnesses parsed"]
    problems: list[str] = []
    for rho, text in pairs:
        problems += _check_order(n, _members(text), rho, "spectrum witness")
    return problems


def _check_exceeder(n: int, k: int, witness: str, rho: int, l: int, gap: Fraction) -> list[str]:
    problems = _check_order(n, _members(witness), rho, "conjecture exceeder")
    if rho * k <= n:
        problems.append(f"conjecture exceeder {witness} mod {n}: order {rho} <= n/k")
    if nearest_gap(rho, n, k) != (l, gap):
        problems.append(f"conjecture exceeder {witness} mod {n}: gap {l}, {gap} is wrong")
    return problems


def check_conjecture(args: tuple[str, ...], out: str) -> list[str]:
    k = int(_option(args, "--k"))
    fmt = _option(args, "--format", "table")
    found: list[tuple[int, str, int, int, Fraction]] = []  # n, witness, rho, l, gap
    if fmt == "json":
        payload = json.loads(out)
        for report in payload.get("reports", [payload]):
            found += [
                (report["n"], e["witness"], e["order"], e["nearest_l"], Fraction(e["min_gap"]))
                for e in report["exceeders"]
            ]
    elif fmt == "csv":
        rows = _csv_section(out.splitlines(), "n,k,order,witness,nearest_l,min_gap")
        found = [(int(r[0]), r[3], int(r[2]), int(r[4]), Fraction(r[5])) for r in rows]
    else:
        n = int(re.search(r"bases of Z_(\d+)", out).group(1))
        found = [
            (n, w, int(o), int(l), Fraction(g))
            for o, g, l, w in re.findall(
                r"order (\d+)\s+gap\s+(\S+) \(nearest l=(\d+)\) witness \{([\d,]*)\}", out
            )
        ]
    if not found:
        return ["conjecture: no exceeders parsed"]
    problems: list[str] = []
    for n, witness, rho, l, gap in found:
        problems += _check_exceeder(n, k, witness, rho, l, gap)
    return problems


FAMILY_SAMPLE = 24
FAMILY_MAX_N = 2000


def check_family(args: tuple[str, ...], out: str, rng: random.Random) -> list[str]:
    k = int(_option(args, "--k"))
    fmt = _option(args, "--format", "table")
    if fmt == "json":
        rows = [(r["n"], r["rho"], r["nearest_l"], Fraction(r["min_gap"]))
                for r in json.loads(out)["records"]]
    elif fmt == "csv":
        rows = [(int(r[1]), int(r[2]), int(r[3]), Fraction(r[4]))
                for r in _csv_section(out.splitlines(), "k,n,rho,nearest_l,min_gap")]
    else:
        rows = [(int(n), int(rho), int(l), Fraction(g)) for n, rho, l, g in re.findall(
            r"n=(\d+)\s+rho=(\d+)\s+nearest l=(\d+) gap (\S+)", out)]
    small = [r for r in rows if r[0] <= FAMILY_MAX_N]
    if not small:
        return ["family: no rows with n <= 2000 parsed"]
    problems: list[str] = []
    for n, rho, l, gap in rng.sample(small, min(FAMILY_SAMPLE, len(small))):
        problems += _check_order(n, [0, 1, k], rho, "family row")
        if nearest_gap(rho, n, k) != (l, gap):
            problems.append(f"family row n={n}: gap {l}, {gap} is wrong")
    return problems


def check_order(args: tuple[str, ...], out: str) -> list[str]:
    n = int(_option(args, "--n"))
    fmt = _option(args, "--format", "table")
    if fmt == "json":
        claimed = json.loads(out)["order"]
    else:
        token = out.strip().splitlines()[-1].split(",")[-1]
        claimed = None if token == "inf" else int(token)
    return _check_order(n, _members(_option(args, "--set")), claimed, "order")


def check(args: tuple[str, ...], out: str, rng: random.Random) -> list[str]:
    """Problems the oracle finds in one job's stdout (none for other commands)."""
    command = args[0]
    if command == "spectrum":
        return check_spectrum(args, out)
    if command == "conjecture":
        return check_conjecture(args, out)
    if command == "family":
        return check_family(args, out, rng)
    if command == "order":
        return check_order(args, out)
    return []
