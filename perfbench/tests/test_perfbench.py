"""Self-tests of the benchmark at smoke-test sizes.

    python3 -m pytest perfbench/tests -q

They run the real command (`run.py --tiny`), so a library change that breaks a
workload, a verdict, a metric name or a traced binding fails here first.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

WORKLOADS = sorted(workloads.RUNNERS)

# Counts that must be nonzero on the workload that exercises their layer; a
# zero here means a wrapped function lost a binding or a layer was bypassed.
EXERCISED = {
    "cech-certify": [
        "exactalg.rref.calls", "exactalg.rref.cells", "exactalg.rref.max_cells",
        "exactalg.det.calls", "exactalg.kron.calls", "cech.local_solves", "cech.c1_dim",
        "cech.d1.density", "cech.build_tiling.self_s", "cech.assemble.self_s",
        "cech.rank.self_s", "sheafcat.ext.calls", "sheafcat.functor_obj.self_s",
        "ainfty.hom_cohomology.calls", "ainfty.representation.self_s",
    ],
    "ainfty-relations": [
        "freedga.kcopy_dga.calls", "freedga.kcopy_dga.self_s", "freedga.copy_terms",
        "freedga.pq_matrix.calls", "ainfty.mu_k.calls", "ainfty.mu_k.self_s",
        "ainfty.twist.lookups", "ainfty.twist.expansions", "ainfty.twist.terms",
        "torusrep.calls", "torusrep.self_s",
    ],
    "hom-ext-sweep": [
        "exactalg.rref.calls", "exactalg.kron.calls", "exactalg.det.calls",
        "ainfty.hom_cohomology.calls", "ainfty.hom_cohomology.self_s",
        "sheafcat.ext.calls", "sheafcat.ext.self_s", "torusrep.calls",
    ],
}
EXACT = ("calls", "cells", "max_cells", "local_solves", "c1_dim", "density",
         "copy_terms", "lookups", "expansions", "reuse_ratio", "terms")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


def test_smoke_run_reports_every_end_to_end_metric():
    code, out, proc = bench("--workload", "all", "--seed", "3", "--seconds", "0", "--tiny")
    assert code == 0, proc.stderr
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    for w in WORKLOADS:
        for m in spec()["end_to_end"]:
            got = out["metrics"][f"{w}.{m['name']}"]
            assert got["unit"] == m["unit"] and got["value"] > 0
    for name in ("verdict_s", "item_s.p50", "setup_s", "peak_rss_mb", "fail_ratio"):
        assert name in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_oracle_fails_the_run(workload):
    code, out, proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                            "--tiny", "--corrupt")
    assert code == 1
    assert not out["correct"] and 0 < out["failed"] <= out["attempted"]


def test_traced_counts_are_nonzero_where_exercised_and_repeat():
    runs = [bench("--workload", "all", "--seed", "5", "--seconds", "0", "--tiny",
                  "--trace", "1") for _ in range(2)]
    (code, first, proc), (_, second, _) = runs
    assert code == 0, proc.stderr
    assert "not traced" not in proc.stdout
    names = [m["name"] for m in spec()["per_layer"]]
    for w in WORKLOADS:
        for name in names:
            assert f"{w}.{name}" in first["metrics"]
        for name in EXERCISED[w]:
            assert first["metrics"][f"{w}.{name}"]["value"] > 0, (w, name)
        for name in names:
            if name.rsplit(".", 1)[-1] in EXACT:
                key = f"{w}.{name}"
                assert first["metrics"][key] == second["metrics"][key], key
    spans = json.loads((BENCH / "out" / "cech-certify-seed5.spans.json").read_text())
    assert "cech.assemble" in spans["names"] and spans["spans"]


def test_by_name_imports_are_traced():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "batch.py"), "--workload", "ainfty-relations",
         "--seed", "1", "--batch", "0", "--trace", "1", "--tiny", "--spawned-at", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["missing"] == []
    for binding in ("ainfty.lambda_copy_dga", "ainfty.pq_matrix", "sheafcat.pq_matrix",
                    "torusrep.pq_matrix", "freedga.pq_matrix", "freedga.lambda_copy_dga"):
        assert binding in out["patched"], binding


def test_inputs_depend_only_on_the_seed():
    for w in WORKLOADS:
        size = workloads.SIZES[w]
        a = workloads.make_inputs(w, size, workloads.batch_rng(w, 7, 2))
        b = workloads.make_inputs(w, size, workloads.batch_rng(w, 7, 2))
        c = workloads.make_inputs(w, size, workloads.batch_rng(w, 8, 2))
        assert a == b and a != c


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    code, out, _ = bench("--workload", "hom-ext-sweep", "--seed", "1", "--seconds", "1",
                         cwd=tmp_path)
    assert code != 0 and out is None
