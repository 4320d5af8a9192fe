import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import znbases
from znbases import affine, bounds, cli
from znbases.cli import main

# each command imports what it calls from its library module when it runs,
# so a test patches the name there; znbases.spectrum is the function
spectrum = importlib.import_module("znbases.spectrum")


def run(*args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def test_order_table():
    res = run("order", "--n", "9", "--set", "0,1,3")
    assert res.exit_code == 0
    assert res.output.strip() == "4"


def test_order_infinite_csv():
    res = run("order", "--n", "6", "--set", "0,2", "--format", "csv")
    assert res.exit_code == 0
    assert res.output.splitlines() == ["n,set,order", "6,0;2,inf"]


def test_order_trajectory_json():
    res = run("order", "--n", "9", "--set", "0,1,3", "--trajectory", "--format", "json")
    payload = json.loads(res.output)
    assert payload["sizes"] == [3, 6, 8, 9]
    assert payload["order"] == 4


def test_usage_errors_exit_2():
    assert run("order", "--n", "5", "--set", "0,7").exit_code == 2
    assert run("order", "--n", "5", "--set", "").exit_code == 2
    assert run("kl-bound", "--n", "10", "--rho", "1").exit_code == 2
    assert run("spectrum", "--n", "40").exit_code == 2  # over the exhaustive limit
    assert run("conjecture", "--k", "2").exit_code == 2  # neither --n nor --n-range
    for args, missing in ((("order", "--n", "5"), "--set"), (("family", "--k", "3"), "--n-range"),
                          (("pigeonhole", "--k", "3", "--t", "2"), "--n")):
        res = run(*args)
        assert (res.exit_code, res.stdout) == (2, "")
        assert f"Missing option '{missing}'" in res.stderr


def test_shard_count_below_one_exits_2():
    for shards in ("0", "-1"):
        res = run("spectrum", "--n", "7", "--shards", shards)
        assert res.exit_code == 2
        assert "shards must be >= 1" in res.output
        res = run("conjecture", "--k", "3", "--n", "60", "--max-card", "6",
                  "--shards", shards)
        assert res.exit_code == 2
        assert "shards must be >= 1" in res.output


def test_exhaustive_state_that_cannot_be_allocated_exits_2():
    # the 2^61-byte state of Z_62 cannot be allocated on a 64-bit build with
    # 8 GiB; both commands that run the walk refuse with exit 2, no traceback
    for args in (("spectrum", "--n", "62", "--exhaustive", "--limit", "62"),
                 ("kl-bound", "--n", "62", "--rho", "5", "--check", "--limit", "62")):
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 2, args
        assert res.stdout == "", args
        assert "state of 2^61 bytes" in res.stderr, args


def test_conjecture_cap_out_of_range_exits_2_before_the_trivial_cases():
    # k = 1 and n = 1 are answered without a search; the cap is still checked
    for args, n, cap in ((("--k", "3", "--n", "1", "--max-card", "0"), 1, 0),
                         (("--k", "1", "--n", "10", "--max-card", "50"), 10, 50),
                         (("--k", "1", "--n-range", "1..3", "--max-card", "0"), 1, 0)):
        res = run("conjecture", *args)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"max_card must be in [1, {n}], got {cap}" in res.stderr


def test_sweep_past_the_limit_is_refused_before_any_search(monkeypatch):
    # the sweep's first refusal is raised before the first modulus is
    # searched, with the message the search would have raised on reaching it
    calls = []
    real = spectrum.verify_conjecture

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(spectrum, "verify_conjecture", counted)
    for args, message in (
            (("--k", "3", "--n-range", "15..21"), "cardinality cap for n = 21"),
            (("--k", "3", "--n-range", "0..25"), "n must be positive, got 0")):
        res = run("conjecture", *args)
        assert (res.exit_code, res.stdout) == (2, ""), args
        assert message in res.stderr, args
        assert calls == [], args
    # k = 1 has nothing to search, so --limit does not apply
    res = run("conjecture", "--k", "1", "--n-range", "18..25")
    assert res.exit_code == 0
    assert len(res.stdout.splitlines()) == 1 + 8
    assert calls == list(range(18, 26))


def test_spectrum_cap_out_of_range_exits_2():
    for cap in ("0", "6", "9"):
        res = run("spectrum", "--n", "5", "--max-card", cap)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"max_card must be in [1, 5], got {cap}" in res.stderr


def test_family_range_below_one_exits_2():
    # refused as conjecture refuses it, not answered with the rows n >= 1
    for text, lo in (("-5..8", -5), ("0..3", 0)):
        for cmd in ("family", "conjecture"):
            res = run(cmd, "--k", "3", "--n-range", text)
            assert res.exit_code == 2, (cmd, text)
            assert res.stdout == "", (cmd, text)
            assert f"n must be positive, got {lo}" in res.stderr, (cmd, text)


def test_bad_set_token_is_named_with_its_literal():
    for text, token in ((",,", ""), ("1,x", "x"), ("0, 2.5", "2.5")):
        res = run("order", "--n", "5", "--set", text)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"residue {token!r} in set literal {text!r} is not an integer" in res.stderr


def test_bad_integer_set_token_is_named_with_its_literal():
    for text, token in (("0,x", "x"), ("0, 2.5,3", "2.5"), ("0,1,3,", ""), (",,", "")):
        res = run("fl-check", "--set", text, "--h-max", "3")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"member {token!r} in set literal {text!r} is not an integer" in res.stderr
        assert "invalid literal" not in res.stderr
    res = run("fl-check", "--set", "0,1,1,3", "--h-max", "3")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "duplicate member 1 in set literal" in res.stderr


def test_empty_integer_set_literal_exits_2():
    for text in ("", "  "):
        res = run("fl-check", "--set", text, "--h-max", "3")
        assert (res.exit_code, res.stdout) == (2, "")
        assert "empty integer set literal" in res.stderr


def test_negative_integer_set_member_is_named():
    res = run("fl-check", "--set", "-1,0,1", "--h-max", "2")
    assert (res.exit_code, res.stdout) == (2, "")
    assert "members must be nonnegative, got -1" in res.stderr
    assert "IntSet" not in res.stderr


def test_family_range_without_a_family_modulus_exits_2():
    # no n = -1 (mod k) above k lies in these ranges: refused, not an empty table
    for k, text in (("5", "1000..1003"), ("3", "1..3"), ("3", "1..2")):
        for fmt in ("table", "json", "csv"):
            res = run("family", "--k", k, "--n-range", text, "--format", fmt)
            assert (res.exit_code, res.stdout) == (2, ""), (k, text, fmt)
            assert f"no modulus n = -1 mod {k} above {k} in range {text!r}" in res.stderr


def test_nonpositive_modulus_is_named_before_the_residues():
    for args, n in ((("order", "--n", "0", "--set", "0"), 0),
                    (("canon", "--n", "0", "--set", "0"), 0),
                    (("df-analyze", "--n", "-5", "--set", "0"), -5)):
        res = run(*args)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"modulus must be positive, got {n}" in res.stderr
        assert "out of range" not in res.stderr


@pytest.mark.parametrize("args, message", [
    (("conjecture", "--k", "3", "--n-range", "60"), "range must look like A..B, got '60'"),
    (("conjecture", "--k", "3", "--n-range", "1..x"),
     "range bounds must be integers, got '1..x'"),
    (("df-analyze", "--n", "7", "--set", "0,1", "--sigma", "x"),
     "sigma must be an exact rational, got 'x'"),
    (("df-analyze", "--n", "7", "--set", "0,1", "--sigma", "1/0"),
     "sigma must be an exact rational, got '1/0'"),
    (("pipeline", "--n", "20", "--set", "0,1,5", "--k", "1"), "k must be >= 2, got 1"),
    (("order", "--n", "5", "--set", ""), "order of an empty set"),
    (("order", "--n", "5", "--set", "", "--trajectory"), "trajectory of an empty set"),
    (("canon", "--n", "5", "--set", ""), "canonical form of an empty set"),
    (("df-analyze", "--n", "5", "--set", ""), "structure analysis of an empty set"),
    (("pipeline", "--n", "5", "--set", "", "--k", "3"), "pipeline trace of an empty set"),
    (("fl-check", "--set", "0,1", "--h-max", "0"), "h_max must be >= 1, got 0"),
    (("pigeonhole", "--n", "10", "--k", "3", "--t", "0"), "t must lie in [1, 9], got 0"),
    (("pigeonhole", "--n", "10", "--k", "3", "--t", "10"), "t must lie in [1, 9], got 10"),
    (("order", "--n", "x", "--set", "0"), "Invalid value for '--n': 'x' is not a valid integer."),
])
def test_refusal_prints_usage_and_message(args, message):
    # every refusal, the library's and the command's own, in one stderr shape
    res = run(*args)
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr.startswith(f"Usage: main {args[0]} [OPTIONS]\n")
    assert f"Try 'main {args[0]} --help' for help." in res.stderr
    assert res.stderr.endswith(f"\nError: {message}\n")


def test_spectrum_csv_matches_spec_example():
    res = run("spectrum", "--n", "7", "--exhaustive", "--format", "csv")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "n,order,witness"
    orders = [line.split(",")[1] for line in lines[1 : 1 + 4]]
    assert orders == ["1", "2", "3", "6"]
    gap_at = lines.index("n,gap_start,gap_end")
    assert lines[gap_at + 1] == "7,4,5"


def test_spectrum_shard_determinism():
    one = run("spectrum", "--n", "13", "--shards", "1", "--format", "csv").output
    eight = run("spectrum", "--n", "13", "--shards", "8", "--format", "csv").output
    assert one == eight


def test_conjecture_range_csv():
    res = run(
        "conjecture", "--k", "3", "--n-range", "20..24",
        "--max-card", "6", "--format", "csv",
    )
    lines = res.output.splitlines()
    assert lines[0] == "n,k,max_min_gap,running_max,argmax_witness,caveat"
    assert len(lines) == 6
    assert all(line.endswith("true") for line in lines[1:])  # capped => caveat


def test_one_modulus_range_renders_as_a_sweep():
    # the renderer follows the flag given, not the number of moduli
    res = run("conjecture", "--k", "3", "--n-range", "5..5", "--format", "json")
    payload = json.loads(res.output)
    assert payload["k"] == 3 and [r["n"] for r in payload["reports"]] == [5]
    assert payload["running_max"] == [{"n": 5, "value": "1"}]
    res = run("conjecture", "--k", "3", "--n-range", "5..5", "--format", "csv")
    assert res.output.splitlines() == [
        "n,k,max_min_gap,running_max,argmax_witness,caveat", "5,3,1,1,0;1,false",
    ]
    res = run("conjecture", "--k", "3", "--n-range", "5..5")
    assert res.output.splitlines()[0] == "order > n/3 gap sweep:"


def test_kl_bound_output():
    res = run("kl-bound", "--n", "12", "--rho", "5", "--format", "csv")
    lines = res.output.splitlines()
    assert "12,5,6,4" in lines and "12,5,12,3" in lines
    assert lines[-1] == "12,5,4"


def test_kl_bound_check_verifies_enumerated_bases():
    res = run("kl-bound", "--n", "12", "--rho", "5", "--check", "--format", "csv")
    assert res.exit_code == 0
    assert res.output.splitlines()[-1].endswith(",0")  # zero violations


def test_kl_bound_check_exits_1_on_a_violation(monkeypatch):
    # the bound holds on every enumerable modulus, so the check is faked
    monkeypatch.setattr(spectrum, "check_kl_bound", lambda report, limit: (7, 1))
    res = run("kl-bound", "--n", "12", "--rho", "5", "--check")
    assert res.exit_code == 1
    assert res.output.splitlines()[-1] == "checked 7 basis orbits, 1 violations"


def test_kl_bound_check_above_the_limit_names_limit():
    # kl-bound has no cardinality cap, so the refusal must name --limit
    for args in (("--n", "30", "--rho", "5"), ("--n", "21", "--rho", "5", "--limit", "20")):
        res = run("kl-bound", *args, "--check")
        assert (res.exit_code, res.stdout) == (2, "")
        assert "--limit (20)" in res.stderr and "n = " in res.stderr
        assert "cardinality cap" not in res.stderr
    assert run("kl-bound", "--n", "21", "--rho", "5", "--check",
               "--limit", "21", "--format", "csv").exit_code == 0


def test_exhaustive_run_too_large_to_index_exits_2():
    # a bytearray cannot hold 2^69 state bytes, whatever --limit allows
    for args in (("spectrum", "--n", "70", "--exhaustive", "--limit", "100"),
                 ("conjecture", "--k", "3", "--n", "70", "--limit", "100"),
                 ("kl-bound", "--n", "70", "--rho", "5", "--check", "--limit", "100")):
        res = run(*args)
        assert (res.exit_code, res.stdout) == (2, ""), args
        assert "2^69 bytes" in res.stderr, args


def test_request_too_large_to_compute_exits_2(monkeypatch):
    # a MemoryError or OverflowError from a command body is refused like a
    # bad argument, with exit 2: exit 1 would report a violated bound.  The
    # shift by a 21-digit modulus overflows at once; a real allocation that
    # could succeed is never attempted, so fl-check's body is faked.
    def too_large(members, h_max):
        raise MemoryError

    monkeypatch.setattr(bounds, "fl_growth_check", too_large)
    for args in (("order", "--n", "100000000000000000000", "--set", "0,1"),
                 ("order", "--n=100000000000000000000", "--set", "0,1"),
                 ("fl-check", "--set", "0,1,3", "--h-max", "2"),
                 ("fl-check", "--set", "0,1,3", "--h-max=2")):
        res = CliRunner().invoke(main, args)
        assert (res.exit_code, res.stdout) == (2, ""), args
        assert res.stderr.endswith(f"\nError: {cli.OVERSIZED}\n"), args


def test_fl_check_pass_and_fail_exit_codes():
    assert run("fl-check", "--set", "0,1,3", "--h-max", "5").exit_code == 0
    # hypothesis fails: nothing asserted, exit 0
    assert run("fl-check", "--set", "0,2,3,7", "--h-max", "3").exit_code == 0


def test_fl_check_exits_1_on_a_violated_bound(monkeypatch):
    # the growth bound is a theorem, so a violation is faked in the last record
    real = bounds.fl_growth_check

    def violated(members, h_max):
        report = real(members, h_max)
        *rest, last = report.records
        return report._replace(records=(*rest, last._replace(holds=False)))

    monkeypatch.setattr(bounds, "fl_growth_check", violated)
    res = run("fl-check", "--set", "0,1,3", "--h-max", "3")
    assert res.exit_code == 1
    assert res.output.splitlines()[-1] == "  h=3   |hA|=9      bound 9      VIOLATED"


def test_sandwich_exit_codes():
    assert run("sandwich", "--n", "9", "--a", "3", "--b", "1").exit_code == 0
    res = run("sandwich", "--n", "20", "--a", "2", "--b", "19")
    assert res.exit_code == 1  # measured order under the claimed lower bound
    assert run("sandwich", "--n", "9", "--a", "2", "--b", "1").exit_code == 2


def test_modulus_too_small_is_named_before_the_other_arguments():
    # below these moduli no t or a is valid, so the message names n itself
    for args, n, least in ((("pigeonhole", "--k", "2", "--t", "3"), "0", 2),
                           (("pigeonhole", "--k", "2", "--t", "3"), "1", 2),
                           (("sandwich", "--a", "2", "--b", "1"), "0", 4),
                           (("sandwich", "--a", "2", "--b", "1"), "1", 4),
                           (("sandwich", "--a", "2", "--b", "1"), "3", 4)):
        res = CliRunner().invoke(main, [*args, "--n", n])
        assert (res.exit_code, res.stdout) == (2, ""), args
        assert f"n must be >= {least}, got {n}" in res.stderr, args


def test_pigeonhole_output():
    res = run("pigeonhole", "--n", "100", "--k", "4", "--t", "34", "--format", "csv")
    assert res.exit_code == 0
    row = res.output.splitlines()[1].split(",")
    assert row[:6] == ["100", "4", "34", "3", "2", "2"]
    assert row[9:12] == ["1", "2", "true"]


def test_pigeonhole_exits_1_on_a_violated_bound(monkeypatch):
    # the witness bound is a theorem, so a violation is faked
    real = bounds.witness_order_bound
    monkeypatch.setattr(bounds, "witness_order_bound", lambda w: real(w)._replace(holds=False))
    res = run("pigeonhole", "--n", "100", "--k", "4", "--t", "34")
    assert res.exit_code == 1
    assert "order {0,1,34} = 34 <= 152: VIOLATED" in res.output.splitlines()


def test_canon_computes_the_canonical_form_once(monkeypatch):
    # the orbit size is read off the form canon already has
    calls = []
    real = affine.canonical_form

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(affine, "canonical_form", counted)
    res = run("canon", "--n", "12", "--set", "0,3,5,9")
    assert res.output == "canonical: {0,1,3,9}\norbit size: 48\n"
    assert len(calls) == 1


def test_df_analyze_json():
    res = run(
        "df-analyze", "--n", "20", "--set", "0,4,8,12,16,1", "--format", "json"
    )
    payload = json.loads(res.output)
    assert payload["double_size"] == 11
    assert payload["best"]["m"] == 5


def test_pipeline_json():
    res = run(
        "pipeline", "--n", "20", "--set", "0,4,8,12,16,1", "--k", "3",
        "--format", "json",
    )
    payload = json.loads(res.output)
    assert payload["j"] == 0 and payload["m"] == 5 and payload["branch"] == "generic"


def test_pipeline_sigma_at_most_one_exits_2():
    for sigma, shown in (("1", "1"), ("0", "0"), ("-1", "-1"), ("1/2", "1/2")):
        res = run("pipeline", "--n", "20", "--set", "0,1,5", "--k", "3", f"--sigma={sigma}")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"sigma must exceed 1, got {shown}" in res.stderr


def test_family_csv_schema():
    res = run("family", "--k", "3", "--n-range", "17..29", "--format", "csv")
    lines = res.output.splitlines()
    assert lines[0] == "k,n,rho,nearest_l,min_gap"
    assert lines[1] == "3,17,6,3,1/3"
    assert lines[2] == "3,20,7,3,1/3"


def test_repeated_runs_are_byte_identical():
    for args in (
        ("spectrum", "--n", "11", "--format", "json"),
        ("conjecture", "--k", "3", "--n", "30", "--max-card", "5", "--format", "csv"),
        ("family", "--k", "4", "--n-range", "20..60", "--format", "csv"),
    ):
        assert run(*args).output == run(*args).output


def test_version_mentions_schema():
    res = run("--version")
    assert res.exit_code == 0
    assert "schema" in res.output


def test_family_table_through_a_real_pipe():
    # Output of ~9,500 rows, far past a pipe's buffer: read to the end it
    # equals the in-process output; when the reader leaves after one line,
    # the broken pipe ends the run with exit 1 and nothing on stderr.
    args = ("family", "--k", "3", "--n-range", "1501..30000")
    src = str(Path(znbases.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    cmd = [sys.executable, "-m", "znbases.cli", *args]
    full = subprocess.run(cmd, capture_output=True, env=env, timeout=120)
    assert (full.returncode, full.stderr) == (0, b"")
    assert full.stdout == run(*args).stdout_bytes
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == b""
    assert first == full.stdout.split(b"\n", 1)[0] + b"\n"


SMALL = st.integers(-3, 3).map(str)
SETS = st.one_of(
    st.lists(st.integers(-3, 3), max_size=4).map(lambda ms: ",".join(map(str, ms))),
    st.sampled_from(["", " ", ",", "0,,1", "0;1", "0,1,", "x"]),
)
RANGES = st.builds("{}..{}".format, st.integers(-3, 3), st.integers(-3, 3))
SIGMAS = st.sampled_from(["1", "0", "-1", "1/2", "1/0", "x", "2.04"])
# command -> (required options, optional options, flags)
COMMANDS = {
    "order": ({"--n": SMALL, "--set": SETS}, {}, ["--trajectory"]),
    "canon": ({"--n": SMALL, "--set": SETS}, {}, []),
    "spectrum": ({"--n": SMALL},
                 {"--max-card": SMALL, "--limit": SMALL, "--shards": SMALL}, ["--exhaustive"]),
    "conjecture": ({"--k": SMALL},
                   {"--n": SMALL, "--n-range": RANGES, "--max-card": SMALL, "--limit": SMALL,
                    "--shards": SMALL}, ["--no-kl-cap"]),
    "kl-bound": ({"--n": SMALL, "--rho": SMALL}, {"--limit": SMALL}, ["--check"]),
    "fl-check": ({"--set": SETS, "--h-max": SMALL}, {}, []),
    "sandwich": ({"--n": SMALL, "--a": SMALL, "--b": SMALL}, {}, []),
    "pigeonhole": ({"--n": SMALL, "--k": SMALL, "--t": SMALL}, {}, []),
    "df-analyze": ({"--n": SMALL, "--set": SETS}, {"--sigma": SIGMAS}, ["--coprime-diff"]),
    "pipeline": ({"--n": SMALL, "--set": SETS, "--k": SMALL}, {"--sigma": SIGMAS}, []),
    "family": ({"--k": SMALL, "--n-range": RANGES}, {}, []),
}
VERIFY_COMMANDS = {"fl-check", "sandwich", "pigeonhole"}


@st.composite
def small_argv(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional, flags = COMMANDS[name]
    options = draw(st.fixed_dictionaries(required, optional=optional))
    argv = [name, *(f"{opt}={value}" for opt, value in options.items())]
    argv += draw(st.lists(st.sampled_from(flags), unique=True)) if flags else []
    return argv + draw(st.sampled_from([[], ["--format=json"], ["--format=csv"]]))


@settings(max_examples=400, deadline=None)
@given(small_argv())
@example(["family", "--k=3", "--n-range=1..3"])
@example(["fl-check", "--set=-1,0,1", "--h-max=2"])
@example(["kl-bound", "--n=10", "--rho=1"])
@example(["pipeline", "--n=5", "--set=0,1", "--k=1"])
def test_small_and_edge_arguments_exit_cleanly(argv):
    # no traceback; a refusal prints nothing on stdout and its usage and
    # message on stderr; a result is never empty
    res = CliRunner().invoke(main, argv)
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exc_info
    assert "Traceback" not in res.stderr
    if res.exit_code == 2:
        assert res.stdout == "", argv
        assert "Usage:" in res.stderr and "Error:" in res.stderr, argv
    else:
        assert res.exit_code == 0 or (res.exit_code == 1 and argv[0] in VERIFY_COMMANDS), argv
        assert res.stdout.strip(), argv


FORMATS = st.sampled_from(["table", "json", "csv", "xml", "JSON"])
CLICK = cli._click_group()


@st.composite
def loose_argv(draw):
    # like small_argv, with values as separate tokens, plus what the strict
    # parser must leave to click: --opt=value, repeats, a missing required
    # option, a missing value, '--' and unknown flags
    name = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional, flags = COMMANDS[name]
    values = {**required, **optional, "--format": FORMATS}
    options = draw(st.fixed_dictionaries(required, optional={**optional, "--format": FORMATS}))
    if draw(st.integers(0, 3)) == 0:
        del options[draw(st.sampled_from(sorted(required)))]
    items = [[opt, value] for opt, value in options.items()]
    items += [[flag] for flag in draw(st.lists(st.sampled_from(flags), unique=True))] \
        if flags else []
    any_opt = st.sampled_from(sorted(values))
    items += draw(st.lists(st.one_of(
        any_opt.flatmap(lambda opt: values[opt].map(lambda v: [opt, v])),
        any_opt.flatmap(lambda opt: values[opt].map(lambda v: [f"{opt}={v}"])),
        st.sampled_from([*flags, *values, "--", "--bogus", "-n", "--help"]).map(lambda t: [t]),
    ), max_size=2))
    return [name, *(token for item in draw(st.permutations(items)) for token in item)]


@settings(max_examples=600, deadline=None)
@given(loose_argv())
@example(["spectrum", "--n", "7", "--exhaustive", "--shards", "3", "--format", "csv"])
@example(["conjecture", "--no-kl-cap", "--k", "3", "--n-range", "1..x", "--limit", "12"])
@example(["df-analyze", "--sigma", "1/0", "--set", "", "--n", "0"])
@example(["spectrum", "--n", "7", "--shards", "-1"])
@example(["spectrum", "--n=7"])
@example(["order", "--n", "5", "--set", "0,1", "--n", "6"])
@example(["order", "--n", "5", "--set"])
@example(["order", "--n", "5", "--", "--set", "0,1"])
@example(["order", "--n", "x", "--set", "0"])
def test_strict_parser_agrees_with_click(argv):
    # whenever the strict parser takes argv, click parses it to the same
    # keyword arguments, so the click path would have run the same call
    parsed = cli._strict_parse(argv)
    if parsed is not None:
        assert parsed == (argv[0], CLICK.commands[argv[0]].make_context(argv[0], argv[1:]).params)


@pytest.mark.parametrize("raised, code, stderr", [
    (ValueError("no such spectrum"), 2, "\nError: no such spectrum\n"),
    (KeyboardInterrupt(), 1, "\nAborted!\n"),
])
def test_strict_run_ends_as_click_ends_it(monkeypatch, raised, code, stderr):
    # a refusal is reported in click's shape without running the body again
    calls = []

    def fail(*args, **kwargs):
        calls.append(args)
        raise raised

    monkeypatch.setattr(spectrum, "spectrum", fail)
    res = run("spectrum", "--n", "7")
    assert (res.exit_code, res.stdout, len(calls)) == (code, "", 1)
    assert res.stderr.endswith(stderr)
