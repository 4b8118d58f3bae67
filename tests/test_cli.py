import json
import subprocess
import sys
from pathlib import Path

import pytest

from legtorus.cech import CechComplex
from legtorus.cli import main


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "legtorus.cli", *args],
                          capture_output=True, text=True)
    return proc


def test_usage_errors_exit_2():
    assert run_cli(["dga", "--m", "0"]).returncode == 2
    assert run_cli(["dga", "--p", "6"]).returncode == 2
    assert run_cli(["bogus"]).returncode == 2


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
])
def test_stdout_matches_golden(name, args):
    # golden files hold the stdout of earlier versions of the program (the
    # dense elimination kernel, two Ext maps per pair); RREF bases are
    # canonical and the pair sampling draws the same numbers, so not a byte
    # may move
    proc = subprocess.run([sys.executable, "-m", "legtorus.cli", *args], capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / f"{name}.json").read_bytes()


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


def test_verify_zero_samples_vacuous():
    proc = run_cli(["verify", "--samples", "0"])
    assert proc.returncode == 0
    assert "vacuous" in proc.stdout
    assert "warning" in proc.stderr


def test_main_in_process():
    assert main(["dga", "--m", "1", "--p", "2"]) == 0
