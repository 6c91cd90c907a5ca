import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stacksortlab
from stacksortlab import lab, parse_permutation
from stacksortlab.cli import UsageError, parse_args, run
from stacksortlab.lab import VerificationReport


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out.rstrip("\n"), captured.err


# parsing


def test_parse_args_sort_plan():
    ns = parse_args(["sort", "4162", "--iterations", "1"])
    assert ns.command == "sort"
    assert ns.perm == (4, 1, 6, 2) and ns.iterations == 1
    assert not ns.compact


def test_parse_args_verify_plan():
    ns = parse_args(["verify", "theorem1", "--m", "4", "--n", "6"])
    assert ns.command == "verify" and ns.claim == "theorem1"
    assert ns.m == 4 and ns.n == 6 and ns.n_max is None
    assert ns.format == "plain" and "shards" not in ns


def test_parse_args_rejects_unknown_flags():
    with pytest.raises(UsageError):
        parse_args(["sort", "4162", "--frobnicate"])
    with pytest.raises(UsageError):
        parse_args(["nonsense", "4162"])
    with pytest.raises(UsageError):
        parse_args(["verify", "bogus-claim"])


def test_parse_args_spaced_perm_as_separate_argv_words():
    ns = parse_args(["sort", "4", "1", "6", "2"])
    assert ns.perm == (4, 1, 6, 2)


# simple commands


def test_sort_command(capsys):
    assert run(["sort", "4162"]) == 0
    out, _ = out_of(capsys)
    assert out == "1 4 2 6"
    assert parse_permutation(out) == (1, 4, 2, 6)


def test_sort_compact_and_iterations(capsys):
    assert run(["sort", "4162", "--compact"]) == 0
    assert out_of(capsys)[0] == "1426"
    assert run(["sort", "35241", "--iterations", "4"]) == 0
    assert out_of(capsys)[0] == "1 2 3 4 5"


def test_trace_command(capsys):
    assert run(["trace", "4162"]) == 0
    out, _ = out_of(capsys)
    assert out.split("\n") == [
        "push 4", "push 1", "pop 1", "pop 4",
        "push 6", "push 2", "pop 2", "pop 6",
        "output 1 4 2 6"]


def test_stats_command(capsys):
    assert run(["stats", "4162"]) == 0
    out, _ = out_of(capsys)
    assert out.split("\n") == [
        "length: 4", "descents: 1 3", "descent-tops: 4 6",
        "lr-maxima: 4 6", "tail-length: -"]
    assert run(["stats", "23145"]) == 0
    assert "tail-length: 2" in out_of(capsys)[0]


def test_characterize_command(capsys):
    assert run(["characterize", "32145", "--t", "1"]) == 0
    assert out_of(capsys)[0] == "yes thm2-zeta"
    assert run(["characterize", "23154", "--t", "2"]) == 0
    assert out_of(capsys)[0] == "no thm1"


def test_preimage_command(capsys):
    assert run(["preimage", "5 2 7 1 4 8 3 6 9"]) == 0
    out, _ = out_of(capsys)
    sigma_line, certificate = out.split("\n")
    assert "s(sigma) = 5 2 7 1 4 8 3 6 9" in certificate
    assert "avoids-barred-3241 = yes" in certificate
    assert "lrmax(sigma) = 5 7 8 9" in certificate
    assert "lrmax(pi) = 5 7 8 9" in certificate
    assert sorted(parse_permutation(sigma_line)) == list(range(1, 10))


def test_lift_command(capsys):
    assert run(["lift", "213"]) == 0
    out, _ = out_of(capsys)
    assert out.split("\n")[0] == "2 3 1"
    assert "s^1(sigma) = 2 1 3" in out


def test_zeta_xi_commands(capsys):
    assert run(["zeta", "--l", "4", "--m", "4"]) == 0
    assert out_of(capsys)[0] == "4 2 1 3 5"
    assert run(["xi", "--l", "4", "--m", "4", "--compact"]) == 0
    assert out_of(capsys)[0] == "45231"


def test_bijection_both_directions(capsys):
    assert run(["bijection", "2314"]) == 0
    assert out_of(capsys)[0] == "{2}{1,3}{4}"
    assert run(["bijection", "{2}{1,3}{4}"]) == 0
    assert out_of(capsys)[0] == "2 3 1 4"


# lab commands


def test_count_image_plain(capsys):
    assert run(["count-image", "--n", "5", "--t", "1"]) == 0
    assert out_of(capsys)[0] == "17"


def test_count_image_jsonl(capsys):
    assert run(["count-image", "--n", "4", "--t", "1", "--format", "jsonl",
                "--keep-elements"]) == 0
    out, _ = out_of(capsys)
    rec = json.loads(out)
    assert rec["n"] == 4 and rec["t"] == 1 and rec["count"] == 5
    assert set(rec) == {"n", "t", "count", "elements", "wall_time"}
    assert rec["wall_time"] >= 0
    assert len(rec["elements"]) == 5
    assert "1 2 3 4" in rec["elements"]


def test_count_image_csv(capsys):
    assert run(["count-image", "--n", "4", "--t", "2", "--format", "csv"]) == 0
    out, _ = out_of(capsys)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["count"] == "2"
    assert set(rows[0]) == {"n", "t", "count", "elements", "wall_time"}
    # kept elements flatten to one field, joined by ";"
    assert run(["count-image", "--n", "3", "--t", "1", "--keep-elements",
                "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(out_of(capsys)[0])))
    assert [row["elements"] for row in rows] == ["1 2 3;2 1 3"]


def test_count_image_large_t(capsys):
    assert run(["count-image", "--n", "5", "--t", "5000"]) == 0
    assert out_of(capsys)[0] == "1"


def test_count_image_sharded(capsys):
    # no command takes `--shards`
    for argv in (["count-image", "--n", "5", "--t", "1"],
                 ["verify", "theorem2", "--m", "3"], ["explore", "--m", "3"]):
        assert run([*argv, "--shards", "4"]) == 1, argv
        out, err = out_of(capsys)
        assert out == "" and err.startswith("usage error:"), argv


def test_verify_command(capsys):
    assert run(["verify", "theorem1", "--m", "4", "--n", "6"]) == 0
    out, _ = out_of(capsys)
    assert out.startswith("PASS theorem1")
    assert "expected=15 observed=15" in out
    # the parameters flatten to one field of k=v pairs
    assert run(["verify", "theorem1", "--m", "3", "--n", "4",
                "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(out_of(capsys)[0])))
    assert [row["parameters"] for row in rows] == ["m=3 n=4 set_equal=True"]


def test_verify_all_small(capsys):
    assert run(["verify", "all", "--max-n", "4"]) == 0
    out, _ = out_of(capsys)
    lines = out.split("\n")
    assert all(line.startswith("PASS") for line in lines)
    assert any("thm3_count" in line for line in lines)


def test_verify_all_bound_8(capsys):
    # the full claim grid within the bound runs clean end to end
    assert run(["verify", "all", "--max-n", "8"]) == 0
    out, _ = out_of(capsys)
    lines = out.split("\n")
    assert len(lines) == 55
    assert all(line.startswith("PASS") for line in lines)
    for claim in ("theorem1", "theorem2", "prop2", "thm3_count", "catalan",
                  "west_zeilberger"):
        assert any(f" {claim} " in line for line in lines), claim


def test_verify_jsonl_schema(capsys):
    assert run(["verify", "catalan", "--n", "5", "--format", "jsonl"]) == 0
    rec = json.loads(out_of(capsys)[0])
    assert set(rec) == {"claim", "parameters", "expected", "observed", "pass"}
    assert rec["pass"] is True and rec["expected"] == 42


def test_verify_failure_exits_nonzero(capsys, monkeypatch):
    bad = VerificationReport(claim="theorem1", parameters={"m": 4, "n": 6},
                             expected=15, observed=14, passed=False)
    monkeypatch.setattr(lab, "verify_theorem1", lambda *a, **k: bad)
    assert run(["verify", "theorem1", "--m", "4", "--n", "6"]) == 1
    out, _ = out_of(capsys)
    assert out.startswith("FAIL theorem1")


def test_verify_missing_arguments(capsys):
    assert run(["verify", "theorem1", "--m", "4"]) == 1
    _, err = out_of(capsys)
    assert "--n" in err


def test_verify_refuses_flags_its_claim_does_not_read(capsys):
    assert run(["verify", "all", "--n", "12"]) == 1
    assert out_of(capsys) == ("", "usage error: verify all does not take --n\n")
    assert run(["verify", "catalan", "--n", "5", "--m", "3",
                "--n-max", "2"]) == 1
    out, err = out_of(capsys)
    assert out == "" and err.startswith("usage error:")
    assert "--m" in err and "--n-max" in err
    assert run(["verify", "all", "--max-n", "4"]) == 0


def test_explore_plain_and_csv(capsys):
    assert run(["explore", "--m", "3"]) == 0
    out, _ = out_of(capsys)
    assert out.split("\n") == ["n t count", "3 0 6", "4 1 5"]
    assert run(["explore", "--m", "3", "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(out_of(capsys)[0])))
    assert [(r["n"], r["count"]) for r in rows] == [("3", "6"), ("4", "5")]
    # m = 1 leaves the window empty: no records, so no lines at all
    for fmt in ("csv", "jsonl"):
        assert run(["explore", "--m", "1", "--format", fmt]) == 0
        assert capsys.readouterr().out == "", fmt


# exit codes and bounds


def test_parse_error_exit_code(capsys):
    assert run(["sort", "41x2"]) == 1
    _, err = out_of(capsys)
    assert "character 3" in err
    # "²".isdigit() holds, but int("²") raises ValueError
    # int() also takes other scripts' digits, "_", "+" and spaces; the CLI
    # reads ASCII digits only
    for argv in (["sort", "1", "²"], ["bijection", "{1,²}"],
                 ["sort", "٣", "١", "٢"], ["bijection", "{١}{٢}"],
                 ["stats", "1", "1_0"]):
        assert run(argv) == 1, argv
        _, err = out_of(capsys)
        assert err.startswith("parse error:"), argv
    for argv in (["count-image", "--n", "1_0", "--t", "9"],
                 ["sort", "21", "--iterations", "٣"],
                 ["zeta", "--l", "+3", "--m", "3"],
                 ["xi", "--l", "3", "--m", " 3"]):
        assert run(argv) == 1, argv
        _, err = out_of(capsys)
        assert err.startswith("usage error:"), argv
    assert run(["sort", "21", "--iterations", "-1"]) == 1
    assert "must be nonnegative, got -1" in out_of(capsys)[1]


def test_domain_error_exit_code(capsys):
    assert run(["preimage", "35241"]) == 2
    assert run(["zeta", "--l", "99", "--m", "4"]) == 2
    assert run(["lift", "21345", "--t", "4"]) == 2
    assert run(["bijection", "{1}{3}"]) == 2
    capsys.readouterr()
    for argv in (["verify", "theorem1", "--m", "4", "--n", "5"],
                 ["verify", "prop2", "--m", "5", "--n-max", "3"],
                 ["verify", "theorem2", "--m", "2"]):
        assert run(argv) == 2, argv
        out, err = out_of(capsys)
        assert out == "" and err.startswith("error: "), argv


def test_resource_error_exit_code(capsys):
    assert run(["count-image", "--n", "11", "--t", "1"]) == 3
    _, err = out_of(capsys)
    assert "bound" in err
    assert run(["count-image", "--n", "13", "--t", "1", "--max-n", "13"]) == 3
    capsys.readouterr()
    assert run(["count-image", "--n", "11", "--t", "0", "--keep-elements",
                "--max-n", "11"]) == 3
    assert "resource error:" in out_of(capsys)[1]
    assert run(["count-image", "--n", "10", "--t", "0",
                "--keep-elements"]) == 3
    assert "resource error:" in out_of(capsys)[1]
    assert run(["count-image", "--n", "10", "--t", "0"]) == 0
    assert out_of(capsys)[0] == "3628800"
    assert run(["count-image", "--n", "11", "--t", "1", "--keep-elements",
                "--max-n", "11"]) == 3
    out, err = out_of(capsys)
    assert out == "" and "resource error:" in err, err
    assert run(["verify", "thm3_count", "--n", "11"]) == 3
    assert "resource error:" in out_of(capsys)[1]


def test_family_lengths_past_the_parse_limit_are_refused(capsys):
    # 2m - 3 entries: m = 12 gives 21, one past what `sort` reads back
    assert run(["zeta", "--l", "3", "--m", "11"]) == 0
    capsys.readouterr()
    for name in ("zeta", "xi"):
        for m in ("12", "1000000000"):
            assert run([name, "--l", "3", "--m", m]) == 3, (name, m)
            out, err = out_of(capsys)
            assert out == "" and err.startswith("resource error: "), err


def test_characterize_over_the_hard_cap_says_so(capsys):
    # n = 6, t = 1 needs the image engine, which the cap refuses first
    assert run(["characterize", "214365", "--t", "1", "--max-n", "13"]) == 3
    assert "enumeration bound 13 exceeds the hard cap 12" in out_of(capsys)[1]
    assert run(["characterize", "2143657", "--t", "1", "--max-n", "6"]) == 3
    assert "undecidable at this scale" in out_of(capsys)[1]


def test_usage_error_exit_code(capsys):
    assert run(["sort", "4162", "--frobnicate"]) == 1
    assert run([]) == 1
    assert run(["count-image", "--n", "4"]) == 1  # missing --t
    assert run(["characterize", "2134", "--t", "1", "--shards", "2"]) == 1
    capsys.readouterr()


def test_max_n_env_mirror(capsys, monkeypatch):
    monkeypatch.setenv("STACKSORT_MAX_N", "4")
    assert run(["count-image", "--n", "5", "--t", "1"]) == 3
    capsys.readouterr()
    monkeypatch.setenv("STACKSORT_MAX_N", "5")
    assert run(["count-image", "--n", "5", "--t", "1"]) == 0
    assert out_of(capsys)[0] == "17"
    for bad in ("banana", "1_0", "٥", " 5", "0"):
        monkeypatch.setenv("STACKSORT_MAX_N", bad)
        assert run(["count-image", "--n", "5", "--t", "1"]) == 1, bad
        assert out_of(capsys)[1].startswith("usage error: STACKSORT_MAX_N")
        # only the commands with --max-n read it
        assert run(["sort", "21"]) == 0, bad
        assert out_of(capsys) == ("1 2", "")


def test_explicit_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("STACKSORT_MAX_N", "4")
    assert run(["count-image", "--n", "5", "--t", "1", "--max-n", "5"]) == 0
    assert out_of(capsys)[0] == "17"


def test_bound_warning_on_stderr(capsys):
    # raising the bound warns, even when the run itself is small
    assert run(["count-image", "--n", "5", "--t", "1", "--max-n", "12"]) == 0
    out, err = out_of(capsys)
    assert out == "17"
    assert "warning" in err


def _env_with_src():
    src = str(Path(stacksortlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.mark.parametrize("module", ["stacksortlab", "stacksortlab.cli"])
def test_python_dash_m_runs_the_cli(module):
    proc = subprocess.run([sys.executable, "-m", module, "sort", "4162"],
                          capture_output=True, text=True, timeout=60,
                          env=_env_with_src())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1 4 2 6\n", "")


def _assert_closed_stdout_exits_1(unbuffered: bool) -> None:
    # the csv row is far longer than a pipe holds, so the write is still
    # under way when the reader closes the pipe after the header.  Unbuffered
    # text output would drop the rest of a partial write without an error.
    env = _env_with_src()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "stacksortlab", "count-image", "--n", "9",
         "--t", "1", "--keep-elements", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline().startswith(b"n,t,count,elements")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == ""  # no traceback


def test_closed_stdout_exits_1_without_traceback():
    _assert_closed_stdout_exits_1(unbuffered=False)


def test_closed_unbuffered_stdout_exits_1_without_traceback():
    _assert_closed_stdout_exits_1(unbuffered=True)


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that fails every write")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_failed_stdout_write_exits_1_without_traceback(unbuffered):
    env = _env_with_src()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "stacksortlab", "sort",
                               "4162"], stdout=full, stderr=subprocess.PIPE,
                              text=True, timeout=60, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write output:")
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_cli_import_loads_no_process_machinery():
    # every command starts a fresh interpreter, so each module the import
    # pulls in is paid on every run
    code = ("import sys, stacksortlab.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env=_env_with_src())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# each subcommand's own flags; "bogus" has none
_FLAGS = {
    "sort": ("--iterations", "--compact"), "trace": ("--compact",),
    "stats": (), "characterize": ("--t", "--max-n"),
    "preimage": ("--compact",), "lift": ("--t", "--compact"),
    "zeta": ("--l", "--m", "--compact"), "xi": ("--l", "--m", "--compact"),
    "bijection": ("--compact",),
    "count-image": ("--n", "--t", "--keep-elements", "--format", "--max-n"),
    "verify": ("--m", "--n", "--n-max", "--format", "--max-n"),
    "explore": ("--m", "--format", "--max-n"), "bogus": (),
}
# every other flag takes an integer in -1..6: no argv enumerates past S_6
_VALUES = {"--compact": st.just(None), "--keep-elements": st.just(None),
           "--format": st.sampled_from(("plain", "csv", "jsonl", "xml"))}
_TOKENS = ("21", "4162", "35241", "2 1 3", "1 1", "0", "-1", "x", "", "1 ²",
           "{1}{2,3}", "{1}{3}", "{}", "{1,²}", "theorem1", "theorem2",
           "prop2", "thm3_count", "catalan", "west_zeilberger", "all",
           "--frobnicate", "٣ 1", "1_0")


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command, *draw(st.lists(st.sampled_from(_TOKENS), max_size=1))]
    flags = _FLAGS[command]
    for flag in draw(st.lists(st.sampled_from(flags), unique=True)
                     if flags else st.just([])):
        value = draw(_VALUES.get(flag, st.integers(-1, 6).map(str)))
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs())
def test_random_argv_maps_to_an_exit_code(argv, monkeypatch):
    # --help is left out of the pool: argparse exits through SystemExit(0)
    monkeypatch.setenv("STACKSORT_MAX_N", "6")
    assert run(argv) in (0, 1, 2, 3), argv


def test_printed_permutations_reparse(capsys):
    for argv in (["sort", "4162"], ["zeta", "--l", "3", "--m", "5"],
                 ["lift", "12345"], ["preimage", "2134"]):
        assert run(argv) == 0
        first = out_of(capsys)[0].split("\n")[0]
        assert parse_permutation(first) == tuple(
            int(v) for v in first.split())
