import argparse
import hashlib
import json
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from legtorus import cli, verify
from legtorus.cech import CechComplex
from legtorus.cli import main, make_parser


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "legtorus.cli", *args],
                          capture_output=True, text=True)
    return proc


def test_usage_errors_exit_2():
    assert run_cli(["dga", "--m", "0"]).returncode == 2
    assert run_cli(["dga", "--p", "6"]).returncode == 2
    assert run_cli(["bogus"]).returncode == 2
    for argv in (["hom", "--m", "2", "--n", "1", "--p", "3", "--samples", "-1"],
                 ["verify", "--samples", "-1"], ["cech", "--resolution", "0"],
                 ["dga", "--copies", "-3"], ["dga", "--copies", "11"],
                 ["reps", "--budget", "-5"]):
        proc = run_cli(argv)
        assert proc.returncode == 2 and not proc.stdout, argv
        assert "must be at least" in proc.stderr, argv


# flags that other subcommands take but these do not read
REMOVED_FLAGS = {
    "dga": ["--seed", "--samples", "--budget", "--format", "--resolution"],
    "reps": ["--seed", "--samples", "--resolution"],
    "hom": ["--resolution"],
    "ext": ["--resolution"],
    "verify": ["--budget", "--format", "--resolution"],
}
VALUES = {"--seed": "1", "--samples": "3", "--budget": "10", "--format": "json",
          "--resolution": "1"}


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in REMOVED_FLAGS.items()
                                           for f in flags])
def test_subcommands_reject_flags_they_do_not_read(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, VALUES[flag]])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and not out
    assert f"unrecognized arguments: {flag}" in err


def test_readme_flag_table_matches_the_parser():
    """README's per-subcommand flag table lists exactly the options each
    subparser takes (besides --help)."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    readme = readme[readme.index("## Command line"):readme.index("## Demos")]
    table = {m[1]: m[2].split() for m in
             re.finditer(r"^\| `(\w+)` \| `([^`]*)` \|", readme, re.M)}
    sub = next(a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {name: [opt for a in sp._actions if not isinstance(a, argparse._HelpAction)
                     for opt in a.option_strings]
              for name, sp in sub.choices.items()}
    assert table == parsed


def test_dga_json_contains_differential():
    proc = run_cli(["dga", "--m", "2", "--p", "2"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema"] == 1
    assert doc["dga"]["differentials"]["b1"]["string"] == "t1^-1 + 1 + a1 a2"
    assert doc["d_squared_zero"] is True


def test_dga_copies_reports_d_squared():
    proc = run_cli(["dga", "--m", "2", "--p", "3", "--copies", "2"])
    doc = json.loads(proc.stdout)
    assert doc["copy_d_squared_zero"] is True
    assert any(g["name"] == "y1^12" for g in doc["copy_dga"]["generators"])


def test_reps_enumeration():
    doc = json.loads(run_cli(["reps", "--m", "2", "--n", "1", "--p", "2"]).stdout)
    assert doc["count"] == 3


def test_reps_budget_refusal_exit_1():
    proc = run_cli(["reps", "--m", "3", "--n", "2", "--p", "5", "--budget", "10"])
    assert proc.returncode == 1
    assert "budget" in proc.stderr


def test_hom_and_ext_agree():
    doc = json.loads(run_cli(["hom", "--m", "2", "--n", "1", "--p", "2"]).stdout)
    assert doc["all_agree"] and len(doc["rows"]) == 9
    doc = json.loads(run_cli(["ext", "--m", "2", "--n", "1", "--p", "2"]).stdout)
    assert doc["all_agree"]


def test_equiv_report():
    proc = run_cli(["equiv", "--m", "2", "--n", "1", "--p", "2"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["objects"] == 3 and len(doc["rows"]) == 9
    assert doc["functoriality"]["ok"]
    assert all(r["ext2_cech"] == 0 for r in doc["rows"])


def test_cech_zero_samples_checks_every_pair():
    # two objects over F_3 at m = n = 1, so four ordered pairs
    doc = json.loads(run_cli(["cech", "--m", "1", "--n", "1", "--p", "3",
                              "--samples", "0"]).stdout)
    assert [(r["source"], r["target"]) for r in doc["rows"]] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert doc["all_agree"]


def test_every_pair_past_the_budget_is_refused(capsys):
    """4113 objects over F_3 at m = n = 2 are 16.9 M ordered pairs: --samples
    0 is refused before any pair is listed, with nothing on stdout."""
    argv = ["--m", "2", "--n", "2", "--p", "3", "--samples", "0"]
    proc = subprocess.run([sys.executable, "-m", "legtorus.cli", "cech", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and not proc.stdout
    assert proc.stderr == ("budget exceeded: every pair of 4113 objects is 16916769 "
                           "pairs (budget 100000)\n")
    for command in ("hom", "ext", "equiv"):
        assert main([command, *argv]) == 1
        out, err = capsys.readouterr()
        assert not out and err.startswith("budget exceeded: every pair of 4113")
    # two objects over F_3 at m = n = 1: their three tuples fit a budget of
    # 3, their four pairs do not
    small = ["cech", "--m", "1", "--n", "1", "--p", "3", "--samples", "0", "--budget"]
    assert main(small + ["3"]) == 1
    out, err = capsys.readouterr()
    assert not out and err == "budget exceeded: every pair of 2 objects is 4 pairs (budget 3)\n"
    assert main(small + ["4"]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 4


def test_sampled_pairs_past_the_budget_are_refused(monkeypatch, capsys):
    """--samples N above --budget is refused before any object is drawn or
    enumerated, with nothing on stdout; N equal to the budget runs."""
    def no_objects(*args, **kwargs):
        raise AssertionError("an object was drawn")

    argv = ["--m", "3", "--n", "2", "--p", "5", "--samples", "500", "--budget", "100"]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "random_rep", no_objects)
        patch.setattr(cli, "enumerate_reps", no_objects)
        for command in ("hom", "ext", "cech", "equiv"):
            assert main([command, *argv]) == 1
            out, err = capsys.readouterr()
            assert not out
            assert err == "budget exceeded: --samples asks for 500 pairs (budget 100)\n"
    argv = ["hom", "--m", "3", "--n", "2", "--p", "5", "--samples", "3", "--budget", "3"]
    assert main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 3


def test_cech_trace_and_certificates():
    doc = json.loads(run_cli(["cech", "--m", "1", "--n", "1", "--p", "2",
                              "--samples", "2"]).stdout)
    assert doc["all_agree"]
    assert doc["reduction_trace"]["success"]
    assert all(r["rank_d1"] == r["dim_c2"] for r in doc["rows"])


def test_byte_identical_output():
    args = ["hom", "--m", "2", "--n", "1", "--p", "3", "--samples", "5", "--seed", "11"]
    a = run_cli(args).stdout
    b = run_cli(args).stdout
    assert a == b


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, args", [
    ("hom", ["hom", "--m", "3", "--n", "2", "--p", "3", "--samples", "6", "--seed", "5"]),
    ("ext", ["ext", "--m", "3", "--n", "2", "--p", "3", "--samples", "6", "--seed", "5"]),
    ("cech", ["cech", "--m", "2", "--n", "2", "--p", "3", "--samples", "2", "--seed", "5"]),
    ("equiv", ["equiv", "--m", "2", "--n", "2", "--p", "3", "--samples", "3", "--seed", "5"]),
    ("verify", ["verify", "--m", "2", "--n", "1", "--samples", "3", "--seed", "1"]),
    ("dga", ["dga", "--m", "3", "--p", "3", "--copies", "3"]),
    ("hom-m24", ["hom", "--m", "24", "--n", "4", "--p", "32749", "--samples", "2", "--seed", "1"]),
    ("hom-sweep", ["hom", "--m", "3", "--n", "1", "--p", "3", "--samples", "0", "--seed", "1"]),
    ("cech.csv", ["cech", "--m", "2", "--n", "2", "--p", "3", "--samples", "2", "--seed", "5",
                  "--format", "csv"]),
    ("reps.csv", ["reps", "--m", "1", "--n", "2", "--p", "2", "--format", "csv"]),
    ("verify-mu2-01", ["verify", "--m", "3", "--n", "2", "--samples", "6", "--seed", "4",
                       "--corrupt-sign"]),
    ("verify-mu2-10", ["verify", "--m", "2", "--n", "2", "--samples", "6", "--seed", "0",
                       "--corrupt-sign"]),
    ("verify-mu2-00", ["verify", "--m", "3", "--n", "2", "--p", "5", "--samples", "8",
                       "--seed", "11", "--corrupt-sign"]),
    ("equiv-sampled", ["equiv", "--m", "3", "--n", "2", "--p", "5", "--samples", "9",
                       "--seed", "3"]),
    ("ext.csv", ["ext", "--m", "2", "--n", "2", "--p", "3", "--samples", "4", "--seed", "6",
                 "--format", "csv"]),
    ("cech-m8", ["cech", "--m", "8", "--n", "3", "--p", "5", "--samples", "3", "--seed", "2"]),
])
def test_stdout_matches_golden(name, args):
    # golden files hold the stdout of earlier versions of the program (the
    # dense elimination kernel, two Ext maps per pair, copy DGAs built with a
    # full word reduction per product, the mu_1 matrix evaluated on 2n x 2n
    # block stacks or by a corner recursion per pair; p = 32749 at m = 24
    # reaches the int64 bound of the mod-p products, and the all-pairs sweep
    # puts each of its 20 objects in 39 of its 400 Hom spaces, so an object's
    # continuant stacks are read in both roles and many times over; the .csv
    # files, from before reports were written to stdout as they are encoded,
    # end rows in CRLF and quote the reps tuples, which hold commas); RREF
    # bases are canonical, the pair sampling draws the same numbers and
    # polynomial terms print sorted, so not a byte may move.  The
    # --corrupt-sign runs are negative controls: each fails one mu_2 class
    # pair case, (0,1), (1,0) or (0,0), and exits 1.  cech-m8 was recorded
    # while d^1 . d^0 = 0 was checked block by block and the cells a frame
    # settled were skipped: 279 of a complex's 360 d^0 blocks are gathered
    # for the pair from its own bases, and 66 of its 312 cells were skipped
    # then, so it pins the ranks and the check that now read every entry of a
    # differential at once
    proc = subprocess.run([sys.executable, "-m", "legtorus.cli", *args], capture_output=True)
    assert proc.returncode == ("--corrupt-sign" in args)
    assert proc.stdout == (GOLDEN / (name if "." in name else f"{name}.json")).read_bytes()


def test_cech_builds_one_complex_per_sampled_pair(monkeypatch, capsys):
    built = []
    init = CechComplex.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CechComplex, "__init__", counting_init)
    assert main(["cech", "--m", "2", "--n", "1", "--p", "3", "--samples", "2", "--seed", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reduction_trace"]["success"]
    assert len(built) == len(doc["rows"]) == 2


def test_sampling_says_when_duplicates_shrink_the_sample(capsys):
    # 2 objects, 4 ordered pairs; both draws of seed 5 land on (1, 1)
    assert main(["cech", "--m", "1", "--n", "1", "--p", "3", "--samples", "2", "--seed", "5"]) == 0
    out, err = capsys.readouterr()
    assert [(r["source"], r["target"]) for r in json.loads(out)["rows"]] == [(1, 1)]
    assert "sampled 1 distinct pairs of 2 requested" in err


def test_sampling_without_duplicates_prints_nothing(capsys):
    assert main(["cech", "--m", "2", "--n", "1", "--p", "3", "--samples", "2", "--seed", "5"]) == 0
    out, err = capsys.readouterr()
    assert len(json.loads(out)["rows"]) == 2
    assert "sampled" not in err


def test_samples_past_8_draw_as_many_objects(capsys):
    # 5^2 tuples exceed --budget 12, so objects are sampled: max(2, --samples)
    # of them, with no cap at 8
    args = ["equiv", "--m", "2", "--n", "1", "--p", "5", "--budget", "12", "--seed", "3"]
    assert main(args + ["--samples", "12"]) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["objects"] == 12 and not doc["complete_enumeration"]
    assert len(doc["rows"]) == 12 and doc["all_agree"]
    assert not err


def test_short_object_sample_is_reported_on_stderr_only(capsys):
    # only 7 of the 9 tuples over F_3 have P_2 invertible, so --samples 8
    # aims for 8 objects and gets 7 (the 9 tuples exceed --budget 8, so they
    # are sampled); --samples 4 gets all it aims for
    args = ["hom", "--m", "2", "--n", "1", "--p", "3", "--budget", "8", "--seed", "3"]
    assert main(args + ["--samples", "8"]) == 0
    out8, err = capsys.readouterr()
    assert "drew 7 distinct objects of 8 aimed for in 32 draws" in err
    assert "aimed" not in out8
    assert main(args + ["--samples", "4"]) == 0
    _, err = capsys.readouterr()
    assert "aimed" not in err


class DigestSink:
    """A stdout that keeps only a digest and a length of what it is sent."""

    def __init__(self):
        self.digest, self.size = hashlib.sha256(), 0

    def write(self, text):
        self.digest.update(text.encode())
        self.size += len(text)


def emit_peak(rows, monkeypatch):
    """(tracemalloc peak of `cli._emit` on a hom report with these rows,
    its stdout as a DigestSink); the rows are built before tracing."""
    payload = {"command": "hom", "m": 4, "n": 1, "p": 5, "complete_enumeration": True,
               "rows": rows, "all_agree": True}
    sink = DigestSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        cli._emit(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    want = (json.dumps({"schema": cli.SCHEMA, **payload}, sort_keys=True, indent=1) + "\n").encode()
    assert sink.digest.hexdigest() == hashlib.sha256(want).hexdigest() and sink.size == len(want)
    return peak, sink


def test_json_report_is_written_without_a_whole_copy(monkeypatch):
    """_emit writes the encoder's chunks one at a time, so its memory peak does
    not grow with the report: 4x the rows (4.2 MB of JSON) leave the peak
    where it was and below the size of the text, where one `json.dumps`
    of the report peaks near ten times that size."""
    rows = [{"source": i // 521, "target": i % 521, "h0": 1, "h1": 2, "h2": 0,
             "closed_agrees": True} for i in range(40000)]
    small, _ = emit_peak(rows[:10000], monkeypatch)
    large, sink = emit_peak(rows, monkeypatch)
    assert sink.size > 4_000_000
    assert large < 1.5 * small and large < sink.size, (small, large, sink.size)


def test_csv_format():
    proc = run_cli(["reps", "--m", "1", "--n", "1", "--p", "3", "--format", "csv"])
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "index,tuple"
    assert len(lines) == 3  # header + two objects


def test_verify_small_scale_passes():
    proc = run_cli(["verify", "--m", "2", "--n", "1", "--samples", "3", "--seed", "1"])
    assert proc.returncode == 0
    assert "FAIL" not in proc.stderr


def test_verify_corrupt_sign_fails_and_names_relation():
    proc = run_cli(["verify", "--m", "2", "--n", "1", "--samples", "4",
                    "--seed", "1", "--corrupt-sign"])
    assert proc.returncode == 1
    assert "FAIL ainfty.relations" in proc.stderr
    assert "relation violated" in proc.stderr


def test_verify_says_what_it_clamped():
    proc = run_cli(["verify", "--m", "6", "--n", "3", "--p", "3", "--samples", "1"])
    assert proc.returncode == 0
    assert "note: verify clamps --m 6 to 3 and --n 3 to 2" in proc.stderr
    assert "clamps" not in proc.stdout
    args = ["verify", "--m", "2", "--n", "1", "--samples", "3", "--seed", "1"]
    proc = run_cli(args)
    assert "clamps" not in proc.stderr
    assert proc.stdout == (GOLDEN / "verify.json").read_text()


def test_verify_zero_samples_is_a_usage_error():
    proc = run_cli(["verify", "--samples", "0"])
    assert proc.returncode == 2 and not proc.stdout
    assert "--samples: must be at least 1" in proc.stderr


def test_main_in_process():
    assert main(["dga", "--m", "1", "--p", "2"]) == 0


def test_equiv_functoriality_draws_n_up_to_the_flag(monkeypatch, capsys):
    drawn = []
    real = verify.random_rep
    monkeypatch.setattr(verify, "random_rep",
                        lambda m, n, p, rng: drawn.append(n) or real(m, n, p, rng))
    assert main(["equiv", "--m", "2", "--n", "3", "--p", "3", "--samples", "1", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["functoriality"]["ok"]
    assert 3 in drawn and set(drawn) <= {1, 2, 3}


def test_verify_n_bounds_every_draw(monkeypatch, capsys):
    drawn = []
    real = verify.random_rep
    monkeypatch.setattr(verify, "random_rep",
                        lambda m, n, p, rng: drawn.append(n) or real(m, n, p, rng))
    assert main(["verify", "--m", "2", "--n", "1", "--samples", "3", "--seed", "1"]) == 0
    out, err = capsys.readouterr()
    assert drawn and set(drawn) == {1}
    assert "note" not in err
    assert out == (GOLDEN / "verify.json").read_text()


def test_every_suite_draws_n_up_to_max_n(monkeypatch):
    drawn = []
    real = verify.random_rep
    monkeypatch.setattr(verify, "random_rep",
                        lambda m, n, p, rng: drawn.append(n) or real(m, n, p, rng))
    for max_n in (1, 2):
        cfg = {"max_m": 2, "max_n": max_n, "primes": (3,), "samples": 4}
        for name, check in verify.ALL_CHECKS:
            drawn.clear()
            check(cfg, verify.rng_for(1, name))
            assert max(drawn, default=1) <= max_n, (name, max_n)


# negative controls: a wrong dimension, certificate or suite on one side of a
# pair command's comparison must make the run disagree and exit 1
PAIR_ARGS = ["--m", "2", "--n", "1", "--p", "3", "--samples", "3", "--seed", "5"]
VERDICT = {"hom": "closed_agrees", "ext": "h_agrees", "cech": "agrees", "equiv": "agree"}


def disagreeing_rows(command, capsys):
    """The rows of a run that exits 1 and reports all_agree false."""
    assert main([command, *PAIR_ARGS]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_agree"] is False and doc["rows"]
    return doc


@pytest.mark.parametrize("command", ["ext", "cech", "equiv"])
def test_an_ext1_off_by_one_fails_every_pair(command, monkeypatch, capsys):
    real = cli.ext1_dim
    monkeypatch.setattr(cli, "ext1_dim", lambda F, G: real(F, G) + 1)
    doc = disagreeing_rows(command, capsys)
    assert not any(r[VERDICT[command]] for r in doc["rows"])


def test_a_closed_form_h1_off_by_one_fails_hom(monkeypatch, capsys):
    real = cli.cohomology_closed

    def off_by_one(r0, r1):
        C = real(r0, r1)
        C.dims = {**C.dims, 1: C.dims[1] + 1}
        return C

    monkeypatch.setattr(cli, "cohomology_closed", off_by_one)
    doc = disagreeing_rows("hom", capsys)
    assert not any(r["closed_agrees"] for r in doc["rows"])


def test_a_refused_h2_certificate_fails_cech(monkeypatch, capsys):
    real = CechComplex.h2_certificate
    monkeypatch.setattr(CechComplex, "h2_certificate", lambda cx: (False, real(cx)[1]))
    doc = disagreeing_rows("cech", capsys)
    assert not any(r["agrees"] for r in doc["rows"])


def test_a_failed_functoriality_alone_fails_equiv(monkeypatch, capsys):
    monkeypatch.setattr(cli, "check_functoriality", lambda cfg, rng: (False, "refused"))
    doc = disagreeing_rows("equiv", capsys)
    assert all(r["agree"] for r in doc["rows"])
    assert doc["functoriality"] == {"ok": False, "detail": "refused"}


def test_hom_builds_no_sheaf_object(monkeypatch, capsys):
    def no_sheaf(rep):
        raise AssertionError("a sheaf object was built")

    monkeypatch.setattr(cli, "functor_obj", no_sheaf)
    assert main(["hom", *PAIR_ARGS]) == 0
    assert json.loads(capsys.readouterr().out)["all_agree"]
