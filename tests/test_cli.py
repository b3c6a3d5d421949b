"""CLI behaviour (argument handling, exit codes, output shape)."""

import pathlib

import pytest

from repro.cli import main


def test_figures_lists_every_paper_artifact(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    for fig in range(6, 20):
        assert f"Fig. {fig}" in out
    assert "Table I" in out
    # Every committed bench is listed, so the table cannot go stale.
    benches = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
    names = sorted(path.name for path in benches.glob("bench_*.py"))
    assert "bench_fig09_haechi_qos.py" in names
    for name in names:
        assert name in out


def test_profile_reports_capacity(capsys):
    assert main(["profile", "--periods", "4", "--scale", "1000"]) == 0
    out = capsys.readouterr().out
    assert "1570.0 KIOPS" in out
    assert "floor" in out


def test_profile_single_client(capsys):
    assert main(["profile", "--clients", "1", "--periods", "3",
                 "--scale", "1000"]) == 0
    assert "400.0 KIOPS" in capsys.readouterr().out


def test_run_haechi_meets_reservations(capsys):
    code = main(["run", "--distribution", "uniform", "--periods", "3",
                 "--warmup", "2", "--scale", "1000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "NO" not in out
    assert "total:" in out


def test_run_bare_prints_no_verdicts(capsys):
    assert main(["run", "--mode", "bare", "--periods", "3", "--warmup", "1",
                 "--scale", "1000"]) == 0
    out = capsys.readouterr().out
    assert "met" not in out.splitlines()[0]


def test_run_rejects_bad_fraction(capsys):
    assert main(["run", "--reserved-fraction", "1.5"]) == 2


@pytest.mark.parametrize("argv", [
    ["run", "--clients", "3"],  # zipf cannot split 3 clients into 5 groups
    ["run", "--clients", "0"],
    ["profile", "--clients", "0"],
    ["telemetry", "--clients", "0"],
    ["globalqos", "--rebalance-periods", "0"],
    ["scale", "--clients", "0"],
], ids=" ".join)
def test_bad_input_is_one_line_and_exit_2(argv, capsys):
    """A ConfigError from any layer leaves through main()'s one handler:
    a one-line message on stderr, exit code 2, no traceback."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_run_basic_mode(capsys):
    assert main(["run", "--mode", "basic", "--distribution", "uniform",
                 "--periods", "3", "--warmup", "2", "--scale", "1000"]) == 0


def test_faults_reports_injected_damage(capsys):
    assert main(["faults", "--kind", "control-loss", "--rate", "0.05",
                 "--clients", "3", "--periods", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert lines[5] == "faults: dropped=361  delayed=0  qps_closed=0"
    assert lines[6] == ("control plane: faa_failures=202  timeouts=0  "
                        "degraded_entries=0  stale_reports=0  clamped=0")


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_figure_list(capsys):
    assert main(["figure", "list"]) == 0
    out = capsys.readouterr().out
    assert "fig9-zipf" in out and "fig13" in out


def test_figure_unknown_preset(capsys):
    assert main(["figure", "fig999"]) == 2
    assert "known:" in capsys.readouterr().err


def test_figure_runs_quick_preset(capsys):
    assert main(["figure", "fig11", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "totals:" in out and "haechi=" in out


@pytest.fixture
def record_stores(monkeypatch):
    """Every hub's record store built while the test runs."""
    from repro.telemetry import hub, records

    stores = []

    class Kept(records.RecordStore):
        def __init__(self, *args):
            super().__init__(*args)
            stores.append(self)

    monkeypatch.setattr(hub, "RecordStore", Kept)
    return stores


def printed_records(out):
    """The ``records:`` line's per-event counts."""
    [line] = [line for line in out.splitlines()
              if line.startswith("records:")]
    return {name: int(n) for name, n in
            (item.split("=") for item in line.split()[1:])}


def test_telemetry_prints_stage_breakdown(capsys, record_stores):
    assert main(["telemetry", "--clients", "2", "--periods", "3",
                 "--warmup", "1", "--scale", "1000", "--sample", "1"]) == 0
    out = capsys.readouterr().out
    assert "= end-to-end" in out
    assert "onesided_read" in out
    assert "KIOPS" in out
    [store] = record_stores
    assert printed_records(out) == store.summary()
    assert store.summary()["monitor.estimate"] >= 3


def test_telemetry_writes_valid_perfetto_trace(tmp_path, capsys):
    import json

    trace = tmp_path / "trace.json"
    assert main(["telemetry", "--clients", "2", "--periods", "3",
                 "--warmup", "1", "--scale", "1000", "--sample", "1",
                 "--trace", str(trace)]) == 0
    doc = json.loads(trace.read_text())
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert len(events) > 100
    for event in events:
        assert event["ph"] in ("X", "M")
        if event["ph"] == "X":
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
            assert event["dur"] >= 0
            assert event["cat"] in ("op", "stage")
    assert doc["otherData"]["span_store"]["dropped"] == 0


def test_telemetry_writes_metrics_and_ledger_jsonl(tmp_path, capsys):
    import json

    metrics = tmp_path / "metrics.jsonl"
    ledger = tmp_path / "ledger.jsonl"
    assert main(["telemetry", "--clients", "2", "--periods", "3",
                 "--warmup", "1", "--scale", "1000",
                 "--metrics", str(metrics), "--ledger", str(ledger)]) == 0
    rows = [json.loads(line) for line in metrics.read_text().splitlines()]
    assert rows and all("metrics" in row for row in rows)
    events = [json.loads(line) for line in ledger.read_text().splitlines()]
    kinds = {event["event"] for event in events}
    assert {"mint", "grant", "spend", "expire", "account"} <= kinds
    assert all(e["balance"] == 0 for e in events if e["event"] == "account")


def test_telemetry_chaos_seed_passes(capsys, record_stores):
    assert main(["telemetry", "--chaos-seed", "11", "--clients", "4",
                 "--periods", "10", "--sample", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "ledger" in out
    [store] = record_stores
    assert printed_records(out) == store.summary()
    assert store.summary()["failover.failed_over"] >= 1


def test_telemetry_rejects_negative_sample(capsys):
    assert main(["telemetry", "--sample", "-1"]) == 2


def test_globalqos_chaos_writes_report(tmp_path, capsys, chaos_run):
    import json

    report = tmp_path / "globalqos.json"
    assert main(["chaos", "coord-crash", "--seeds", "11",
                 "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "1/1 seeds passed" in out
    payload = json.loads(report.read_text())
    assert payload["scenario"] == "coord-crash"
    assert payload["failed"] == 0
    seed = payload["seeds"]["11"]
    assert seed["violations"] == []
    assert seed["fallbacks"] >= 1 and seed["rebalances"] >= 2


def test_globalqos_rejects_short_chaos(capsys):
    assert main(["chaos", "coord-crash", "--seeds", "11",
                 "--periods", "3"]) == 2
    assert "periods" in capsys.readouterr().err


def test_chaos_defaults_to_the_recovery_scenario(capsys, chaos_run):
    assert main(["chaos", "--seeds", "11"]) == 0
    out = capsys.readouterr().out
    assert "failovers" in out and "1/1 seeds passed" in out


def test_chaos_rejects_unknown_scenario(capsys):
    assert main(["chaos", "no-such-scenario"]) == 2
    assert "recovery, coord-crash, partition, policy-flip" in (
        capsys.readouterr().err)


def test_removed_chaos_flags_are_gone(capsys):
    for argv in (["globalqos", "--chaos"],
                 ["globalqos", "--partition-chaos"],
                 ["policy", "apply"],
                 ["fabric", "--digests"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2


def test_hunt_campaign_writes_report_and_reproducers(tmp_path, capsys):
    import json

    report = tmp_path / "campaign.json"
    repro_dir = tmp_path / "found"
    # Seed re-picked alongside the schema-v3 genome (fabric_mode shifts
    # the generator draw sequence; seed 7's tiny campaign no longer
    # violates).
    assert main(["hunt", "--budget", "6", "--seed", "11", "--batch", "6",
                 "--no-minimize", "--report", str(report),
                 "--reproducers", str(repro_dir)]) == 0
    out = capsys.readouterr().out
    assert "counters:" in out
    payload = json.loads(report.read_text())
    assert payload["schema_version"] == 1
    assert payload["findings"]
    assert len(list(repro_dir.glob("repro-*.json"))) == len(
        payload["findings"])


def test_hunt_replay_committed_reproducer(capsys):
    import pathlib

    regress = pathlib.Path(__file__).parent / "regress"
    target = sorted(regress.glob("repro-*.json"))[0]
    assert main(["hunt", "--replay", str(target)]) == 0
    assert "reproduced" in capsys.readouterr().out


def test_hunt_rejects_zero_budget(capsys):
    assert main(["hunt", "--budget", "0"]) == 2
    assert "--budget" in capsys.readouterr().err


def test_hunt_replay_invalid_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1}')
    assert main(["hunt", "--replay", str(bad)]) == 2
    assert "missing" in capsys.readouterr().err
    assert main(["hunt", "--replay", str(tmp_path / "absent.json")]) == 2


def test_document_missing_a_field_exits_2(tmp_path, capsys):
    """A policy, class, spec or fault gene without a required key is one
    line naming the field and exit 2 — not a KeyError/TypeError
    traceback, and never a replay that silently fills a default."""
    import json

    regress = pathlib.Path(__file__).parent / "regress"
    repro = json.loads((regress / "repro-progress-stall.json").read_text())
    no_periods = dict(repro, spec=dict(repro["spec"]))
    del no_periods["spec"]["periods"]
    gene = dict(repro["spec"]["faults"][0])
    del gene["rate"]
    no_rate = dict(repro, spec=dict(repro["spec"], faults=[gene]))
    cases = [
        (["policy", "show"], {"schema_version": 2, "reserved_fraction": 0.9},
         "QoSPolicy payload is missing 'name'"),
        (["policy", "validate"],
         {"schema_version": 2, "name": "p", "classes": [{"count": 2}]},
         "ClientClass payload is missing 'name'"),
        (["hunt", "--replay"], no_periods,
         "ScenarioSpec payload is missing 'periods'"),
        (["hunt", "--replay"], no_rate,
         "FaultGene payload is missing 'rate'"),
    ]
    for i, (argv, payload, message) in enumerate(cases):
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(payload))
        assert main(argv + [str(path)]) == 2, message
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [message]
        assert "reproduced" not in captured.out


def test_document_with_a_wrong_typed_field_exits_2(tmp_path, capsys):
    """A non-numeric policy schema version and a string where a spec
    wants an int are one line and exit 2, not a ValueError/TypeError
    traceback."""
    import json

    regress = pathlib.Path(__file__).parent / "regress"
    repro = json.loads((regress / "repro-progress-stall.json").read_text())
    cases = [
        (["policy", "show"],
         {"schema_version": "v2", "name": "p", "reserved_fraction": 0.9},
         "unsupported policy schema version 'v2' (this build reads (1, 2))"),
        (["hunt", "--replay"],
         dict(repro, spec=dict(repro["spec"], periods="8")),
         "ScenarioSpec.periods must be int, got '8'"),
    ]
    for i, (argv, payload, message) in enumerate(cases):
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(payload))
        assert main(argv + [str(path)]) == 2, message
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [message]
        assert "reproduced" not in captured.out


def test_fabric_rejects_zero_ops(capsys):
    assert main(["fabric", "--ops", "0"]) == 2
    assert "total_ops" in capsys.readouterr().err
