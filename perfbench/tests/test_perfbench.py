"""Smoke tests of the benchmark on Tiny-2L with short traces.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SHARES = {"restore": 0.4, "guarded": 0.2, "materialize": 0.2,
          "simulate": 0.2}


def tiny_workload(name: str, pool=None) -> harness.Workload:
    return harness.Workload(
        name=name, why="smoke", models=("Tiny-2L",), primary="Tiny-2L",
        shares=SHARES, validate=True,
        pool=pool or harness.single_model_pool(
            "Tiny-2L", num_gpus=2, shape="poisson", rps=4.0, duration=20.0))


def corrupting_pool(ctx: harness.SetUp, seed: int) -> harness.Simulation:
    """Build the pool after flipping a byte in every stored chunk blob:
    set-up has restored already, so only the measured operations see it."""
    for blob in (ctx.store.root / "chunks").iterdir():
        data = bytearray(blob.read_bytes())
        data[len(data) // 2] ^= 0xFF
        blob.write_bytes(bytes(data))
    return tiny_workload("plain").pool(ctx, seed)


def run_main(monkeypatch, tmp_path, workload, trace: int):
    monkeypatch.setitem(harness.WORKLOADS, workload.name, workload)
    monkeypatch.setattr(run, "OUT", tmp_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", workload.name, "--seed", "3",
                         "--seconds", "0.5", "--trace", str(trace)])
    lines = stdout.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def test_spec_names_the_issue_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: unit for name, (unit, _, _) in harness.END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == harness.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(monkeypatch, tmp_path, trace):
    code, lines, result = run_main(monkeypatch, tmp_path,
                                   tiny_workload("smoke"), trace)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(harness.OP_KINDS) + 2
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in
            result["metrics"].items()} == {m["name"]: m["unit"]
                                           for m in expected}
    assert all(isinstance(entry["value"], (int, float))
               for entry in result["metrics"].values())
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert any(line.startswith("sim_digest ") for line in lines)
    for kind in harness.OP_KINDS:
        assert any(line.startswith(f"ops smoke {kind}: attempted=")
                   for line in lines)


def test_sim_digest_repeats_for_the_same_seed(tmp_path):
    workload = tiny_workload("smoke")
    digests = {harness.run_workload(workload, 5, 0.2, False,
                                    tmp_path / str(i)).sim_digest()
               for i in range(2)}
    assert len(digests) == 1


def test_corrupted_artifact_counts_as_failed_operations(monkeypatch,
                                                        tmp_path):
    code, lines, result = run_main(
        monkeypatch, tmp_path, tiny_workload("corrupt", corrupting_pool), 0)
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    accounting = {line.split(":")[0].split()[-1]: line for line in lines
                  if line.startswith("ops corrupt ")}
    assert "failed=0" not in accounting["restore"]
    assert "failed=0" in accounting["simulate"]
    assert any("content-hash verification" in line for line in lines)
