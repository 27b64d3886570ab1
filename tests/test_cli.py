"""Command-line interface."""

import json
import re

import pytest

from repro import telemetry
from repro.cli import main


def test_suite_command(capsys):
    assert main(["suite"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "cb-vision-facedetect" in out


def test_profile_command(capsys):
    assert main(["profile", "cb-gaussian-image", "--scale", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3a" in out
    assert "Figure 4c" in out


def test_select_command(capsys):
    assert main(
        [
            "select", "cb-gaussian-buffer",
            "--scale", "0.5",
            "--scheme", "sync",
            "--feature", "BB",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "Selected simulation points" in out
    assert "Simulation speedup" in out


def test_select_on_hd4600(capsys):
    assert main(
        ["select", "cb-gaussian-image", "--scale", "0.5",
         "--device", "hd4600"]
    ) == 0
    assert "Error (Eq. 1)" in capsys.readouterr().out


def test_overhead_command(capsys):
    assert main(["overhead", "cb-gaussian-image", "--scale", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "Overhead factor" in out


def test_unknown_app_rejected():
    with pytest.raises(SystemExit):
        main(["profile", "not-an-app"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_export_command(tmp_path, capsys):
    assert main(
        [
            "export", "cb-gaussian-image",
            "--scale", "0.5",
            "--out", str(tmp_path),
        ]
    ) == 0
    stem = "cb-gaussian-image.Sync-BB"
    for suffix in (".selection.json", ".bb", ".simpoints", ".weights"):
        assert (tmp_path / f"{stem}{suffix}").exists()
    out = capsys.readouterr().out
    assert "simulation points" in out


def test_exported_selection_loads_back(tmp_path):
    from repro.sampling.serialize import selection_from_json

    main(["export", "cb-gaussian-image", "--scale", "0.5",
          "--out", str(tmp_path)])
    text = (tmp_path / "cb-gaussian-image.Sync-BB.selection.json").read_text()
    selection = selection_from_json(text)
    assert selection.config.label == "Sync-BB"
    assert selection.k >= 1


def test_version_flag(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_version_matches_package_metadata():
    from repro import __version__

    assert __version__  # never empty, even without installed metadata


def test_trace_command(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(
        ["trace", "cb-gaussian-image", "--scale", "0.5", "--out", str(out)]
    ) == 0
    printed = capsys.readouterr().out
    assert "span tree" in printed
    assert "counters:" in printed
    assert str(out) in printed

    data = json.loads(out.read_text())
    events = data["traceEvents"]
    names = {e["name"] for e in events}
    # Spans from all three required layers:
    assert "runtime.run" in names                              # OpenCL runtime
    assert "gtpin.post_process" in names                       # GT-Pin profiler
    assert {"pipeline.profile_workload", "pipeline.select"} <= names  # sampling
    # Nested: kernel spans sit under API-call spans under runtime.run.
    assert any(n.startswith("api.cl") for n in names)
    assert any(n.startswith("kernel.") for n in names)
    # Required counters:
    counter_names = {e["name"] for e in events if e["ph"] == "C"}
    assert "gtpin.instrumented_instructions" in counter_names
    assert "gtpin.trace_buffer.drains" in counter_names
    # Complete events carry the Chrome trace fields.
    for event in events:
        if event["ph"] == "X":
            assert {"ts", "dur", "pid", "tid"} <= event.keys()
    # The command must not leave telemetry enabled behind it.
    assert telemetry.get() is telemetry.DISABLED


def test_trace_command_jsonl_and_simulate_workflow(tmp_path, capsys):
    out = tmp_path / "trace.json"
    jsonl = tmp_path / "events.jsonl"
    assert main(
        ["trace", "cb-gaussian-image", "--scale", "0.5",
         "--workflow", "simulate", "--out", str(out), "--jsonl", str(jsonl)]
    ) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in jsonl.read_text().splitlines()]
    names = {r["name"] for r in records if r["type"] == "span"}
    assert "simulation.sampled" in names
    assert "simulation.invocations" in names
    counters = {r["name"] for r in records if r["type"] == "counter"}
    assert "simulation.stepped_instructions" in counters
    assert "simulation.wall_seconds" in counters


def test_sim_engine_flag(tmp_path, capsys):
    """--sim-engine selects the engine; the simulation counters (model
    outputs, not wall-clock) are identical across engines."""
    model_counters = (
        "simulation.stepped_instructions",
        "simulation.fast_forwarded_instructions",
        "simulation.simulated_invocations",
        "simulation.simulated_seconds",
    )
    outputs = {}
    for engine in ("reference", "batched"):
        out = tmp_path / f"{engine}.json"
        assert main(
            ["trace", "cb-gaussian-image", "--scale", "0.5",
             "--workflow", "simulate", "--sim-engine", engine,
             "--out", str(out)]
        ) == 0
        printed = capsys.readouterr().out
        outputs[engine] = [
            line.strip() for line in printed.splitlines()
            if line.strip().startswith(model_counters)
        ]
    assert len(outputs["reference"]) == len(model_counters)
    assert outputs["reference"] == outputs["batched"]


def test_sim_engine_rejects_unknown(capsys):
    for engine in ("warp", "vectorized"):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "cb-gaussian-image", "--sim-engine", engine])
        assert exc.value.code == 2
        assert re.search(
            r"choose from '?batched'?, '?reference'?", capsys.readouterr().err
        )


def test_telemetry_flag_on_existing_subcommand(tmp_path, capsys):
    out = tmp_path / "select_trace.json"
    assert main(
        ["select", "cb-gaussian-image", "--scale", "0.5",
         "--telemetry", "--telemetry-out", str(out)]
    ) == 0
    printed = capsys.readouterr().out
    assert "Selected simulation points" in printed  # command output intact
    assert "span tree" in printed
    data = json.loads(out.read_text())
    names = {e["name"] for e in data["traceEvents"]}
    assert "pipeline.select" in names
    assert telemetry.get() is telemetry.DISABLED


def test_disasm_command(capsys):
    assert main(["disasm", "cb-gaussian-image", "--scale", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "kernel cb-gaussian-image.k0" in out
    assert "[gtpin]" not in out


def test_disasm_instrumented(capsys):
    assert main(
        ["disasm", "cb-gaussian-image", "--scale", "0.5", "--instrumented"]
    ) == 0
    out = capsys.readouterr().out
    assert "[gtpin]" in out


def test_disasm_unknown_kernel(capsys):
    assert main(
        ["disasm", "cb-gaussian-image", "--scale", "0.5",
         "--kernel", "nope"]
    ) == 1
    assert "unknown kernel" in capsys.readouterr().out


def test_top_without_port_is_a_usage_error(monkeypatch, capsys):
    from repro.obs import live

    monkeypatch.delenv(live.PORT_ENV, raising=False)
    assert main(["top", "--once"]) == 2
    assert "--port" in capsys.readouterr().out


def test_top_once_against_dead_endpoint(monkeypatch):
    monkeypatch.delenv("REPRO_LIVE_PORT", raising=False)
    # Nothing listens on port 1; --once must fail fast, not loop.
    assert main(["top", "--once", "--port", "1"]) == 1


def test_live_port_flag_serves_during_run(capsys):
    import json
    import urllib.request

    from repro.obs import live

    class _Probe:
        port = None
        health = None

    real_enable = live.enable

    def probing_enable(port=None, host="127.0.0.1"):
        hub = real_enable(port=port, host=host)
        _Probe.port = hub.server.port
        return hub

    live.enable = probing_enable
    real_disable = live.disable

    def probing_disable():
        # Scrape just before teardown: the run is complete, so totals
        # equal the final merged telemetry.
        if _Probe.port is not None and live.get().enabled:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{_Probe.port}/health", timeout=5
            ) as response:
                _Probe.health = json.loads(response.read().decode())
        real_disable()

    live.disable = probing_disable
    try:
        assert main(
            ["profile", "cb-gaussian-image", "--scale", "0.2",
             "--live-port", "0"]
        ) == 0
    finally:
        live.enable = real_enable
        live.disable = real_disable
    out = capsys.readouterr().out
    assert "live endpoint" in out
    assert _Probe.health is not None
    assert _Probe.health["instructions"]["total"] > 0
    assert _Probe.health["command"] == "gtpin profile"
