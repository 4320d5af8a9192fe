"""Command-line front end.

Every subcommand renders to one of three formats (table, json, csv) and is
deterministic: repeated runs, and runs with any --shards count, produce
byte-identical output.  All configuration is by flags; no environment
variables are consulted.

Exit codes: 0 success; 1 when a verify-style command (fl-check, sandwich,
pigeonhole, kl-bound --check) finds a violated bound; 2 on usage errors and
on requests too large to compute (a MemoryError or OverflowError raised by
the command, refused with OVERSIZED).

A znbases process freezes its heap at exit (gc.freeze as an atexit hook), so
the interpreter's final collections skip what is still alive then; output is
flushed before that.  main(args) called in process changes no GC state.
"""

from __future__ import annotations

import atexit
import gc
import os
import sys

from . import __version__, core
from .core import (
    DEFAULT_CARD_CAP,
    DEFAULT_EXHAUSTIVE_LIMIT,
    ZnSet,
    _literal_members,
    encode,
    format_fraction,
    format_order,
)

SCHEMA_VERSION = 1
VERSION = f"znbases {__version__} (schema {SCHEMA_VERSION})"

# Every command's options, as rows (flag, destination, type, required,
# default, help); the type is int, str, bool for a flag, or a tuple of
# choices.  The strict parser in main and the click commands built for
# --help and refusals both read these rows, in this order.  Each body
# imports the library functions it calls, so a command runs only the
# library modules it uses (see the package docstring).
COMMANDS: dict = {}  # name -> (body, rows)
N = ("--n", "n", int, True, None, None)
K = ("--k", "k", int, True, None, None)
MODULUS = ("--n", "n", int, True, None, "Modulus of Z_n.")
SET = ("--set", "set_text", str, True, None, "Set literal.")
LIMIT = ("--limit", "limit", int, False, DEFAULT_EXHAUSTIVE_LIMIT, None)
SIGMA = ("--sigma", "sigma", str, False, "2.04", "Doubling threshold as an exact rational.")
FORMAT = ("--format", "fmt", ("table", "json", "csv"), False, "table", "Output format.")
OVERSIZED = "the request needs more memory than can be allocated here"


def _command(name: str, *rows):
    """Register a command body under name, with its option rows and --format."""
    def register(body):
        COMMANDS[name] = (body, (*rows, FORMAT))
        return body
    return register


def _bool(v: bool) -> str:
    return "true" if v else "false"


def _cell(value) -> str:
    """One CSV cell: the JSON form of the value, with bools as true/false,
    None empty, lists joined by ';' and ',' inside strings turned into ';'."""
    value = encode(value)
    if isinstance(value, bool):
        return _bool(value)
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(str(x) for x in value)
    if isinstance(value, str):
        return value.replace(",", ";")
    return str(value)


def _emit(fmt: str, payload, sections, lines) -> None:
    """Print a command's result in the chosen format; only that one is built.

    payload() gives the JSON value, sections() the CSV sections as
    (header, rows) pairs, and lines() the table lines.  Lines go to the
    buffered stdout one at a time, flushed once at the end, so a long table
    costs neither a write per line nor one string of the whole output; a
    closed pipe still raises here, where main turns it into exit 1.
    """
    write = sys.stdout.write  # looked up per call: CliRunner swaps sys.stdout
    if fmt == "json":
        import json  # here, not at the top: only JSON output needs it

        write(json.dumps(encode(payload()), indent=2, sort_keys=True) + "\n")
    elif fmt == "csv":
        for header, rows in sections():
            write(header + "\n")
            for row in rows:
                write(",".join(_cell(v) for v in row) + "\n")
    else:
        for line in lines():
            write(line + "\n")
    sys.stdout.flush()


def _check_shards(shards: int) -> None:
    # the work always runs as one partition: a split inside one process
    # would only reorder it
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"range must look like A..B, got {text!r}")
    try:
        a, b = int(lo), int(hi)
    except ValueError as exc:
        raise ValueError(f"range bounds must be integers, got {text!r}") from exc
    if a > b:
        raise ValueError(f"empty range {text!r}")
    return a, b


def _parse_sigma(text: str) -> core.Fraction:
    try:
        return core.Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"sigma must be an exact rational, got {text!r}") from exc


def _strict_parse(argv: list[str]):
    """(command name, keyword arguments) when argv is a command followed only
    by distinct options of it, flags bare and every value the next token, not
    starting with '-' and converting as click converts it; else None."""
    if not argv or argv[0] not in COMMANDS:
        return None
    rows = {row[0]: row for row in COMMANDS[argv[0]][1]}
    params = {dest: default for _, dest, _, _, default, _ in rows.values()}
    seen = set()
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in rows or flag in seen:
            return None
        seen.add(flag)
        _, dest, kind, _, _, _ = rows[flag]
        if kind is bool:
            params[dest] = True
            continue
        value = next(tokens, "-")  # a missing value is left to click as well
        if value.startswith("-") or isinstance(kind, tuple) and value not in kind:
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        params[dest] = value
    if any(row[3] and flag not in seen for flag, row in rows.items()):
        return None
    return argv[0], params


def _click_group(refusal: Exception | None = None):
    """The click group built from COMMANDS, for what the strict parser leaves
    to click: --help, usage errors and refusals.  A ValueError from a body is
    refused as a usage error in the command's context, so stderr shows its
    Usage: line too, and a MemoryError or OverflowError is refused the same
    way with OVERSIZED; a refusal already met is raised again, not
    recomputed."""
    import click

    class Command(click.Command):
        def invoke(self, ctx):
            try:
                if refusal is not None:
                    raise refusal
                return super().invoke(ctx)
            except ValueError as exc:
                raise click.UsageError(str(exc), ctx) from exc
            except (MemoryError, OverflowError) as exc:
                raise click.UsageError(OVERSIZED, ctx) from exc

    def option(flag, dest, kind, required, default, text):
        # only the settings a row needs: to click an explicit default counts
        # as a given value, so a required option would never be missing, and
        # an explicit is_flag=False lets an option go without its value
        settings = {"is_flag": True} if kind is bool else {} if required else {"default": default}
        if kind is not bool and kind is not str:
            settings["type"] = click.Choice(kind) if isinstance(kind, tuple) else kind
        return click.Option([flag, dest], required=required, show_default=True, help=text,
                            **settings)

    group = click.version_option(__version__, message=VERSION)(
        click.Group("main", help=main.__doc__))
    for name, (body, rows) in COMMANDS.items():
        group.add_command(Command(name, callback=body, help=body.__doc__,
                                  params=[option(*row) for row in rows]))
    return group


def main(args=None, prog_name=None, **extra):
    """Orders of additive bases of finite cyclic groups: exact computation,
    spectra, structure analysis, and bound verification."""
    if args is None:
        # Run as the program: every exit, click's included, ends with the heap
        # frozen, so shutdown skips collecting what is still alive (4-6 ms a
        # process); hooks registered earlier run after this one.
        atexit.register(gc.freeze)
    # A well-formed command runs here without importing click; anything else
    # is parsed and reported by click, which ends the process.
    argv = sys.argv[1:] if args is None else list(args)
    parsed = _strict_parse(argv)
    if parsed is None and argv != ["--version"]:
        _click_group().main(argv, prog_name, **extra)
    try:
        if parsed is None:
            sys.stdout.write(VERSION + "\n")
            sys.stdout.flush()
        else:
            COMMANDS[parsed[0]][0](**parsed[1])
    except (ValueError, MemoryError, OverflowError) as exc:
        _click_group(exc).main(argv, prog_name, **extra)
    except (EOFError, KeyboardInterrupt):
        sys.stderr.write("\nAborted!\n")
        sys.exit(1)
    except BrokenPipeError:
        # exit 1 with nothing on stderr, as click does: the interpreter's last
        # flush of stdout goes to the null device, not to the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(0)


# click.testing.CliRunner runs main.main and names the program after main.name
main.main = main
main.name = "main"


@_command("order", MODULUS,
          ("--set", "set_text", str, True, None, 'Set literal, e.g. "0,1,3".'),
          ("--trajectory", "with_trajectory", bool, False, False,
           "Show the whole growth trajectory, not just the order."))
def order_cmd(n: int, set_text: str, with_trajectory: bool, fmt: str) -> None:
    """Order of a subset of Z_n: least h with hA = Z_n, or inf."""
    from .sumsets import order, trajectory

    a = ZnSet.from_text(n, set_text)
    if not with_trajectory:
        rho = order(a)
        _emit(fmt,
              lambda: {"n": n, "set": a, "order": rho},
              lambda: [("n,set,order", [(n, a, format_order(rho))])],
              lambda: [format_order(rho)])
        return
    traj = trajectory(a)

    def lines():
        yield f"base (0-translated): {{{traj.base.to_text()}}}"
        for h, (lv, s) in enumerate(zip(traj.levels, traj.sizes), start=1):
            yield f"  h={h:<3d} |hA|={s:<4d} {{{lv.to_text()}}}"
        if traj.order is not None:
            yield f"order: {traj.order}"
        else:
            yield f"order: inf (stabilized at {{{traj.stabilized.to_text()}}})"

    _emit(fmt,
          lambda: {"n": n, "set": a, **traj.to_dict()},
          lambda: [("h,size", enumerate(traj.sizes, start=1)),
                   ("n,set,order", [(n, a, format_order(traj.order))])],
          lines)


@_command("canon", MODULUS, SET)
def canon_cmd(n: int, set_text: str, fmt: str) -> None:
    """Canonical affine-orbit representative and orbit size."""
    from .affine import _orbit_size, canonical_form

    a = ZnSet.from_text(n, set_text)
    canon = canonical_form(a)
    size = _orbit_size(a, canon)
    _emit(fmt,
          lambda: {"n": n, "set": a, "canonical": canon, "orbit_size": size},
          lambda: [("n,set,canonical,orbit_size", [(n, a, canon, size)])],
          lambda: [f"canonical: {{{canon.to_text()}}}", f"orbit size: {size}"])


@_command("spectrum", MODULUS,
          ("--exhaustive", "exhaustive", bool, False, False,
           "Scan every basis orbit (default)."),
          ("--max-card", "max_card", int, False, None,
           f"Cap orbit cardinality instead of scanning exhaustively "
           f"(e.g. {DEFAULT_CARD_CAP})."),
          ("--limit", "limit", int, False, DEFAULT_EXHAUSTIVE_LIMIT,
           "Largest n allowed in exhaustive mode."),
          ("--shards", "shards", int, False, 1,
           "Number of work partitions (result is shard-count independent)."))
def spectrum_cmd(n, exhaustive, max_card, limit, shards, fmt) -> None:
    """Achieved orders of bases of Z_n, with gap runs and witnesses."""
    from .spectrum import spectrum

    if exhaustive and max_card is not None:
        raise ValueError("--exhaustive and --max-card are mutually exclusive")
    _check_shards(shards)
    report = spectrum(n, max_card=max_card, limit=limit)

    def lines():
        yield (f"spectrum of Z_{n} ({report.mode}"
               + (f", max card {report.max_card}" if report.max_card else "")
               + ")")
        for o, w in report.witnesses:
            yield f"  order {o:<4d} witness {{{w.to_text()}}}"
        if report.gaps:
            yield "  gaps: " + ", ".join(f"[{a},{b}]" for a, b in report.gaps)
        else:
            yield "  gaps: none"

    _emit(fmt,
          lambda: report,
          lambda: [("n,order,witness", [(n, o, w) for o, w in report.witnesses]),
                   ("n,gap_start,gap_end", [(n, a, b) for a, b in report.gaps])],
          lines)


@_command("conjecture",
          ("--k", "k", int, True, None, "Threshold parameter: orders > n/k."),
          ("--n", "n", int, False, None, "Single modulus to check."),
          ("--n-range", "n_range", str, False, None, "Range of moduli A..B to sweep."),
          ("--max-card", "max_card", int, False, None,
           "Cardinality cap (required above the exhaustive limit)."),
          LIMIT, ("--shards", "shards", int, False, 1, None),
          ("--no-kl-cap", "no_kl_cap", bool, False, False,
           "Do not tighten the cap with the order/cardinality bound."))
def conjecture_cmd(k, n, n_range, max_card, limit, shards, no_kl_cap, fmt) -> None:
    """Largest gap to the nearest n/l over bases of order > n/k."""
    from .spectrum import _check_conjecture_args, verify_conjecture

    if (n is None) == (n_range is None):
        raise ValueError("exactly one of --n and --n-range is required")
    if n is not None:
        moduli = [n]
    else:
        lo, hi = _parse_range(n_range)
        moduli = list(range(lo, hi + 1))
    _check_shards(shards)
    # refuse before any search what the sweep would refuse part way: bad
    # arguments at its first modulus, n > limit without a cap at limit + 1
    for m in (moduli[0], max(moduli[0], min(limit + 1, moduli[-1]))):
        _check_conjecture_args(m, k, max_card, limit)
    reports = [
        verify_conjecture(m, k, max_card=max_card, limit=limit, use_kl_cap=not no_kl_cap)
        for m in moduli
    ]
    if n is not None:
        r = reports[0]

        def lines():
            caveat = " (completeness caveat: cardinality-capped)" \
                if r.completeness_caveat else ""
            yield f"bases of Z_{r.n} with order > {r.n}/{r.k}:{caveat}"
            for e in r.exceeders:
                yield (f"  order {e.order:<4d} gap {format_fraction(e.min_gap):>8s} "
                       f"(nearest l={e.nearest_l}) witness {{{e.witness.to_text()}}}")
            yield f"max min-gap: {format_fraction(r.max_min_gap)}"

        _emit(fmt,
              lambda: r,
              lambda: [("n,k,order,witness,nearest_l,min_gap",
                        [(r.n, r.k, e.order, e.witness, e.nearest_l, e.min_gap)
                         for e in r.exceeders]),
                       ("n,k,max_min_gap,argmax_witness,caveat",
                        [(r.n, r.k, r.max_min_gap, r.argmax_witness,
                          r.completeness_caveat)])],
              lines)
        return
    running = core.Fraction(0)
    rows = []
    for rep in reports:
        running = max(running, rep.max_min_gap)
        rows.append((rep, running))
    _emit(fmt,
          lambda: {"k": k, "reports": reports,
                   "running_max": [{"n": rep.n, "value": rm} for rep, rm in rows]},
          lambda: [("n,k,max_min_gap,running_max,argmax_witness,caveat",
                    [(rep.n, rep.k, rep.max_min_gap, rm, rep.argmax_witness,
                      rep.completeness_caveat) for rep, rm in rows])],
          lambda: [f"order > n/{k} gap sweep:"] + [
              f"  n={rep.n:<4d} max gap {format_fraction(rep.max_min_gap):>8s}"
              f"  running max {format_fraction(rm):>8s}"
              for rep, rm in rows
          ])


@_command("kl-bound", N,
          ("--rho", "rho", int, True, None, "Order threshold in [2, n-1]."),
          ("--check", "check", bool, False, False,
           "Also enumerate basis orbits of order >= rho and verify "
           "every cardinality against the bound (n <= limit)."),
          LIMIT)
def kl_bound_cmd(n: int, rho: int, check: bool, limit: int, fmt: str) -> None:
    """Cardinality bound for bases of Z_n of order at least rho.

    With --check, exits 1 if some enumerated basis violates the bound.
    """
    from .bounds import kl_bound

    report = kl_bound(n, rho)
    if check and n > limit:
        raise ValueError(
            f"--check enumerates every basis orbit, so it needs n <= --limit "
            f"({limit}); got n = {n}"
        )
    checked, violations = None, 0
    if check:
        from .spectrum import check_kl_bound

        checked, violations = check_kl_bound(report, limit)

    def payload():
        d = report.to_dict()
        if check:
            d.update(checked_orbits=checked, violations=violations)
        return d

    def sections():
        yield "n,rho,d,value", [(n, rho, d, v) for d, v in report.terms]
        yield "n,rho,bound", [(n, rho, report.bound)]
        if check:
            yield "checked_orbits,violations", [(checked, violations)]

    def lines():
        for d, v in report.terms:
            yield f"  d={d:<4d} term={v}"
        yield f"bound: {report.bound}"
        if check:
            yield f"checked {checked} basis orbits, {violations} violations"

    _emit(fmt, payload, sections, lines)
    if violations:
        sys.exit(1)


@_command("fl-check",
          ("--set", "set_text", str, True, None,
           'Normalized integer set literal, e.g. "0,1,3".'),
          ("--h-max", "h_max", int, True, None, "Check h = 1..h_max."))
def fl_check_cmd(set_text: str, h_max: int, fmt: str) -> None:
    """Integer-sumset growth check |hA| >= |A| + (h-1)*span.

    Exits 1 if the bound fails anywhere while its hypothesis holds.
    """
    from .bounds import fl_growth_check

    text = set_text.strip()
    if not text:
        raise ValueError("empty integer set literal")
    report = fl_growth_check(_literal_members(text, "member"), h_max)

    def lines():
        hyp = "holds" if report.hypothesis_ok else "FAILS (records not asserted)"
        yield f"span {report.span}, hypothesis 2|A|-3 >= span: {hyp}"
        for r in report.records:
            mark = "ok" if r.holds else "VIOLATED"
            yield f"  h={r.h:<3d} |hA|={r.size:<6d} bound {r.lower_bound:<6d} {mark}"

    _emit(fmt,
          lambda: report,
          lambda: [("members,span,hypothesis_ok",
                    [(report.members, report.span, report.hypothesis_ok)]),
                   ("h,size,lower_bound,holds", report.records)],
          lines)
    if report.hypothesis_ok and not report.all_hold:
        sys.exit(1)


@_command("sandwich", N,
          ("--a", "a", int, True, None, "Proper divisor of n, a >= 2."),
          ("--b", "b", int, True, None, "Element coprime to a."))
def sandwich_cmd(n: int, a: int, b: int, fmt: str) -> None:
    """Two-sided order bound for the triple {0, a, b} with a | n.

    Exits 1 if the measured order falls outside the bound.
    """
    from .bounds import sandwich_bounds

    r = sandwich_bounds(n, a, b)
    mark = "ok" if r.holds else "VIOLATED"
    _emit(fmt,
          lambda: r,
          lambda: [("n,a,b,lower,upper,actual,holds", [r])],
          lambda: [f"{r.lower} <= order {{0,{a},{b}}} = {r.actual} <= {r.upper}: {mark}"])
    if not r.holds:
        sys.exit(1)


@_command("pigeonhole", N, K,
          ("--t", "t", int, True, None, "Third element of {0, 1, t}."))
def pigeonhole_cmd(n: int, k: int, t: int, fmt: str) -> None:
    """Pigeonhole witness for {0,1,t}: multiplier c, signed residue r = c*t,
    order bound s + c*n/s, and the representation t = (d*n + e)/c.

    Exits 1 if the measured order exceeds the bound.
    """
    from .bounds import pigeonhole_witness, rep_decompose, witness_order_bound

    witness = pigeonhole_witness(n, k, t)
    bound = witness_order_bound(witness)
    decomp = rep_decompose(n, k, t, witness.c)
    b_txt = "inf" if bound.bound is None else format_fraction(bound.bound)

    def lines():
        yield f"witness: c={witness.c}, r={witness.r}, s={witness.s}"
        mark = "ok" if bound.holds else "VIOLATED"
        yield f"order {{0,1,{t}}} = {bound.actual} <= {b_txt}: {mark}"
        if decomp.applicable:
            yield f"t = ({decomp.d}*{n} + {decomp.e})/{decomp.c}"
        else:
            yield f"no representation with |e| <= c*k (s = {witness.s} > {witness.c * k})"

    _emit(fmt,
          lambda: {"witness": witness, "order_bound": bound, "decomposition": decomp},
          lambda: [("n,k,t,c,r,s,bound,actual,holds,d,e,applicable",
                    [(n, k, t, witness.c, witness.r, witness.s, b_txt, bound.actual,
                      bound.holds, decomp.d, decomp.e, decomp.applicable)])],
          lines)
    if not bound.holds:
        sys.exit(1)


@_command("df-analyze", N, SET, SIGMA,
          ("--coprime-diff", "coprime_diff", bool, False, False,
           "Restrict covering progressions to differences coprime to q."))
def df_analyze_cmd(n: int, set_text: str, sigma: str, coprime_diff: bool, fmt: str) -> None:
    """Small-doubling coset structure scan over every proper subgroup."""
    from .structure import df_analyze

    a = ZnSet.from_text(n, set_text)
    an = df_analyze(a, sigma=_parse_sigma(sigma), coprime_only=coprime_diff)

    def lines():
        yield (f"|A| = {an.set_size}, |2A| = {an.double_size}, "
               f"ratio {format_fraction(an.doubling_ratio)} "
               f"(< sigma: {_bool(an.doubling_hypothesis_ok)})")
        for r in an.reports:
            star = " *" if r is an.best else ""
            yield (f"  m={r.m:<4d} cosets {r.cosets_met:<4d} "
                   f"frac {format_fraction(r.max_coset_fraction):>6s} "
                   f"AP(start {r.ap_start}, diff {r.ap_diff}, len {r.ap_len}) "
                   f"{r.case:<13s} ineq {_bool(r.inequality_holds)}{star}")
        if an.best is None:
            yield "best: none"

    _emit(fmt,
          lambda: an,
          lambda: [("m,q,cosets_met,max_coset_fraction,ap_start,ap_diff,ap_len,case,"
                    "inequality_holds", an.reports),
                   ("set_size,double_size,doubling_ratio,doubling_ok,density_ok,best_m",
                    [(an.set_size, an.double_size, an.doubling_ratio,
                      an.doubling_hypothesis_ok, an.density_hypothesis_ok,
                      None if an.best is None else an.best.m)])],
          lines)


@_command("pipeline", N, SET, K, SIGMA)
def pipeline_cmd(n: int, set_text: str, k: int, sigma: str, fmt: str) -> None:
    """End-to-end structure-argument trace with exact slack values."""
    from .structure import pipeline_trace

    a = ZnSet.from_text(n, set_text)
    d = pipeline_trace(a, k, sigma=_parse_sigma(sigma)).to_dict()
    _emit(fmt,
          lambda: d,
          lambda: [("field,value", [(key, d[key]) for key in sorted(d)])],
          lambda: [f"  {key}: {d[key]}" for key in sorted(d)])


@_command("family", K,
          ("--n-range", "n_range", str, True, None, "Range of moduli A..B."))
def family_cmd(k: int, n_range: str, fmt: str) -> None:
    """Measured orders of {0,1,k} for moduli n = -1 mod k in the range."""
    from .bounds import lower_bound_family

    lo, hi = _parse_range(n_range)
    records = lower_bound_family(k, (lo, hi))
    if not records:
        raise ValueError(f"no modulus n = -1 mod {k} above {k} in range {n_range!r}")

    def lines():
        for r in records:
            forms = []
            if r.matches_k_minus_2_form:
                forms.append("matches (k-2)+1/k")
            if r.matches_k_minus_3_form:
                forms.append("matches (k-3)+1/k")
            note = f"  [{', '.join(forms)}]" if forms else ""
            yield (f"  n={r.n:<5d} rho={r.rho:<5d} nearest l={r.nearest_l} "
                   f"gap {format_fraction(r.min_gap)}{note}")

    _emit(fmt,
          lambda: {"k": k, "records": records},
          lambda: [("k,n,rho,nearest_l,min_gap",
                    [(r.k, r.n, r.rho, r.nearest_l, r.min_gap) for r in records])],
          lines)


if __name__ == "__main__":
    main()
