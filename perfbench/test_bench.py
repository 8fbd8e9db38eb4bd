"""Self-test of the benchmark: every metric named in BENCHMARK.json comes
out with its unit, and the correctness gate catches wrong answers.

    python -m pytest -q perfbench
"""

import json
from fractions import Fraction

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _result(capsys, argv):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _expect_metrics(result, section):
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == wanted
    assert all(isinstance(entry["value"], float)
               for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_run_emits_every_end_to_end_metric(capsys, workload):
    result = _result(capsys, ["--workload", workload, "--seed", "3",
                              "--seconds", "0.2", "--trace", "0"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    _expect_metrics(result, "end_to_end")


def test_short_traced_run_emits_every_per_layer_metric(capsys):
    result = _result(capsys, ["--workload", "sweep", "--seed", "3",
                              "--seconds", "0.2", "--trace", "1"])
    assert result["correct"]
    _expect_metrics(result, "per_layer")
    assert result["metrics"]["hamiltonian.integrations"]["value"] > 0
    assert result["metrics"]["expr.compile_calls"]["value"] > 0


def _corrupted(spec, field, value):
    table = dict(run.EXACT)
    entry = list(table[spec])
    entry[field] = value
    table[spec] = tuple(entry)
    return table


@pytest.mark.parametrize("workload,table", [
    ("analyze-warm", _corrupted("engel", 2, Fraction(1, 8641))),
    ("analyze-warm", _corrupted("heisenberg3", 0, (2, 4))),
    ("sweep", _corrupted("heisenberg3", 1, 6)),
    ("sweep", _corrupted("engel", 2, Fraction(1, 8700))),
])
def test_corrupted_table_raises_fail_frac(capsys, monkeypatch, workload,
                                          table):
    monkeypatch.setattr(run, "EXACT", table)
    result = _result(capsys, ["--workload", workload, "--seed", "3",
                              "--seconds", "1.0", "--trace", "0"])
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1.0
