"""Golden CLI gate: every run in golden.json must reproduce its exit code and
stdout byte for byte.

golden.json holds the argv, exit code and stdout of 241 runs.  Captured
before the report codec and the CLI renderer were rewritten: ``--version``,
every ``--help``, all 11 commands in table, json and csv, shard counts 1, 2,
3 and 5, and a few usage errors (exit 2, empty stdout).  Captured before the
structure scan and the pruned exceeder search were rewritten: ``df-analyze``
(plain and ``--coprime-diff``) and ``pipeline --k 3`` on two coset unions in
Z_360 in all three formats, and the capped conjecture sweep over n = 60..70
in json.  The first coset union lies in 3Z, so its covering progressions
come from the gcd(d, q) > 1 branch of ``ap_cover``.  Captured before
``order`` computed 3-element sets from the minimum-distance diagram, in all
three formats: ``order`` on a basis triple whose steps both share a factor
with n, on a non-basis triple and on a triple without 0; ``sandwich --n 100
--a 4 --b 7`` (exit 1); and ``family --k 5`` over n = 1000..1400.  Captured
after a fix, since the earlier output was wrong: ``conjecture --k 2 --n 7
--max-card 1`` in all three formats, which had reported the 2-member witness
{0,1} under a cap of one member.  Captured before the exceeder search
pruned by the subgroup quotient and by basis triples, the first runs that
search deeper than four members: ``conjecture --k 4 --max-card 6 --n 120``
in json (20 exceeders, Klopsch-Lev cap 6) and ``conjecture --k 5
--max-card 8 --n 60`` as a table (70 exceeders, cap 8).  Captured after a
fix, since the earlier output used the single-modulus layout: ``conjecture
--k 3 --n-range 60..60 --max-card 6`` in all three formats, a one-modulus
range rendered as a sweep.  Captured before the exhaustive walk went in
canonical order and marked each orbit's images with one packed sum, the
largest exhaustive runs: ``spectrum --n 20 --exhaustive`` (the default
limit) and ``kl-bound --n 18 --rho 4 --check --format json``.
Re-captured after a fix: ``family --k 3 --n-range 1..2`` in all three
formats, a range with no family modulus, now refused with exit 2 and
empty stdout instead of an empty table.  Captured before the CLI refused
every bad argument through one handler, the only inputs that reach two
output branches, in all three formats: ``df-analyze --n 1 --set 0`` (no
proper subgroup, so ``best: none`` and an empty ``best_m``) and ``spectrum
--n 5 --max-card 1`` (no basis, so one gap run over every order, [1,4]).
Re-captured through a real ``znbases`` process, since the earlier runs were
wrapped at 80 columns: ``--help``, ``df-analyze --help`` and ``pipeline
--help``.  Outside a terminal click wraps help at min(columns, 80) - 2 = 78
columns, and the runs are replayed at that width.  Captured because no
other run prints the k = 2 note ``[matches (k-2)+1/k]``: ``family --k 2
--n-range 3..9`` in all three formats.  Captured before the pruned search
read its orders off closed forms and levels grown from the parent set, the
deepest searches: ``conjecture --k 6 --n 240 --max-card 10`` in json (155
exceeders, Klopsch-Lev cap 10) and ``conjecture --k 7 --n 420 --max-card
12`` in csv (354 exceeders, cap 12).
A legitimate output change must be made in golden.json in the same change,
run by run.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from znbases.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("run", GOLDEN, ids=[" ".join(g["argv"]) for g in GOLDEN])
def test_cli_output_matches_golden(run):
    res = CliRunner().invoke(main, run["argv"], prog_name="znbases", terminal_width=78,
                             catch_exceptions=False)
    assert res.exit_code == run["exit_code"]
    assert res.stdout == run["stdout"]
