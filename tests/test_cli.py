"""CLI tests (driving tiny models through the public command surface)."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def tiny_artifact_path(tmp_path_factory):
    """A materialized Tiny-2L artifact shared by the lint/validate tests."""
    path = str(tmp_path_factory.mktemp("cli") / "tiny.medusa.json")
    assert main(["offline", "--model", "Tiny-2L", "--output", path]) == 0
    return path


class TestParser:
    def test_models_command(self):
        args = build_parser().parse_args(["models"])
        assert args.command == "models"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["coldstart", "--model", "Tiny-2L",
                                       "--strategy", "warp-drive"])

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestUsageErrors:
    """Bad numeric arguments are usage errors: one line, exit 2, no
    traceback, before any work runs."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", "Qwen1.5-0.5B", "--rps", "-1"],
        ["simulate", "--model", "Qwen1.5-0.5B", "--rps", "0"],
        ["simulate", "--model", "Qwen1.5-0.5B", "--rps", "nan"],
        ["simulate", "--model", "Qwen1.5-0.5B", "--rps", "fast"],
        ["simulate", "--model", "Qwen1.5-0.5B", "--gpus", "0"],
        ["simulate", "--model", "Qwen1.5-0.5B", "--gpus", "-2"],
        ["simulate", "--model", "Qwen1.5-0.5B", "--gpus", "1.5"],
        ["simulate", "--model", "Qwen1.5-0.5B", "--duration", "0"],
        ["simulate", "--model", "Qwen1.5-0.5B", "--duration", "inf"],
        ["simulate", "--model", "Qwen1.5-0.5B", "--slo-ttft", "-0.5"],
        ["coldstart", "--model", "Tiny-2L", "--seed", "x"],
        ["offline", "--model", "Tiny-2L", "--output", "o.json",
         "--seed", "1.5"],
        ["validate", "--artifact", "a.json", "--seed", "x"],
        ["restore", "--model", "Tiny-2L", "--artifact", "a.json",
         "--seed", "x"],
        ["coldstart", "--model", "NoSuchModel"],
        ["simulate", "--model", "NoSuchModel"],
        ["validate", "--artifact", "a.json", "--model", "NoSuchModel"],
    ])
    def test_exits_two_with_one_line_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert errors[0].startswith(f"repro {argv[0]}: error: argument ")

    def test_zero_slo_ttft_still_means_off(self):
        args = build_parser().parse_args(
            ["simulate", "--model", "Tiny-2L", "--slo-ttft", "0"])
        assert args.slo_ttft == 0.0


class TestUnreadableArtifact:
    """A missing artifact is one ``error:`` line and exit 2 on every
    subcommand that reads one, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["coldstart", "--model", "Tiny-2L", "--strategy", "medusa",
         "--artifact"],
        ["restore", "--model", "Tiny-2L", "--artifact"],
        ["validate", "--artifact"],
    ], ids=["coldstart", "restore", "validate"])
    def test_missing_artifact_exits_two(self, argv, tmp_path, capsys):
        assert main(argv + [str(tmp_path / "missing.npz")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [
            f"error: no binary artifact at {tmp_path / 'missing.npz'}"]


class TestRunErrors:
    """A library error raised by a run is one ``error:`` line and exit 1;
    anything else is a bug and keeps its traceback."""

    def test_artifact_for_another_model_exits_one(self, tiny_artifact_path,
                                                   capsys):
        assert main(["restore", "--model", "Tiny-4L",
                     "--artifact", tiny_artifact_path]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [
            "error: artifact is for Tiny-2L, engine wants Tiny-4L"]

    def test_non_library_error_propagates(self, monkeypatch):
        from repro import cli

        def broken(_args):
            raise RuntimeError("a bug, not bad input")

        monkeypatch.setitem(cli._COMMANDS, "models", broken)
        with pytest.raises(RuntimeError, match="a bug"):
            main(["models"])


class TestCommands:
    def test_models_lists_ten(self, capsys):
        assert main(["models"]) == 0
        output = capsys.readouterr().out
        assert "Qwen1.5-4B" in output
        assert "16150" in output   # Table 1 node count

    def test_coldstart_tiny(self, capsys):
        assert main(["coldstart", "--model", "Tiny-2L",
                     "--strategy", "vllm"]) == 0
        output = capsys.readouterr().out
        assert "capture" in output
        assert "loading phase" in output

    def test_coldstart_medusa_requires_artifact(self, capsys):
        assert main(["coldstart", "--model", "Tiny-2L",
                     "--strategy", "medusa"]) == 2
        assert "requires --artifact" in capsys.readouterr().err

    def test_offline_restore_roundtrip(self, tmp_path, capsys):
        artifact_path = str(tmp_path / "tiny.medusa.json")
        assert main(["offline", "--model", "Tiny-2L",
                     "--output", artifact_path]) == 0
        assert "materialized" in capsys.readouterr().out
        assert main(["restore", "--model", "Tiny-2L",
                     "--artifact", artifact_path]) == 0
        output = capsys.readouterr().out
        assert "medusa_restore" in output

    def test_restore_with_validation(self, tmp_path, capsys):
        artifact_path = str(tmp_path / "tiny.medusa.json")
        main(["offline", "--model", "Tiny-2L", "--output", artifact_path])
        capsys.readouterr()
        assert main(["restore", "--model", "Tiny-2L",
                     "--artifact", artifact_path, "--validate"]) == 0
        assert "validation: PASSED" in capsys.readouterr().out

    def test_simulate_tiny_run(self, capsys):
        assert main(["simulate", "--model", "Llama2-7B", "--rps", "1",
                     "--duration", "20", "--gpus", "1",
                     "--strategy", "no-cuda-graph"]) == 0
        output = capsys.readouterr().out
        assert "ttft_p99" in output


class TestLintCommand:
    def test_clean_artifact_exits_zero(self, tiny_artifact_path, capsys):
        assert main(["lint", tiny_artifact_path]) == 0
        output = capsys.readouterr().out
        assert "artifact is clean" in output
        assert "0 error(s)" in output

    def test_json_output(self, tiny_artifact_path, capsys):
        assert main(["lint", tiny_artifact_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["diagnostics"] == []
        assert "liveness" in payload["passes"]

    def test_diagnostics_exit_one(self, tiny_artifact_path, tmp_path, capsys):
        payload = json.loads(open(tiny_artifact_path).read())
        payload["capture_marker"] = -5
        bad = tmp_path / "bad.medusa.json"
        bad.write_text(json.dumps(payload))
        assert main(["lint", str(bad)]) == 1
        assert "MED044" in capsys.readouterr().out

    def test_diagnostics_exit_one_as_json(self, tiny_artifact_path,
                                          tmp_path, capsys):
        payload = json.loads(open(tiny_artifact_path).read())
        payload["replay_events"].append(
            {"kind": "free", "alloc_index": 999999, "size": 0, "tag": "",
             "pooled": False, "pool": "default"})
        bad = tmp_path / "bad.medusa.json"
        bad.write_text(json.dumps(payload))
        assert main(["lint", str(bad), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is False
        assert report["diagnostics"][0]["code"] == "MED002"

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unreadable_payload_exits_two(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert main(["lint", str(garbage)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stale_version_is_a_diagnostic_not_a_crash(
            self, tiny_artifact_path, tmp_path, capsys):
        payload = json.loads(open(tiny_artifact_path).read())
        payload["format_version"] = 1
        stale = tmp_path / "stale.medusa.json"
        stale.write_text(json.dumps(payload))
        assert main(["lint", str(stale)]) == 1
        assert "MED040" in capsys.readouterr().out


class TestValidateCommand:
    def test_clean_artifact_passes(self, tiny_artifact_path, capsys):
        assert main(["validate", "--artifact", tiny_artifact_path]) == 0
        assert "validation: PASSED" in capsys.readouterr().out

    def test_json_output(self, tiny_artifact_path, capsys):
        assert main(["validate", "--artifact", tiny_artifact_path,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["model"] == "Tiny-2L"
        assert payload["diagnostics"] == []

    def test_lint_errors_fail_before_any_restore(self, tiny_artifact_path,
                                                 tmp_path, capsys):
        payload = json.loads(open(tiny_artifact_path).read())
        payload["first_layer_nodes"] = 10**4
        bad = tmp_path / "bad.medusa.json"
        bad.write_text(json.dumps(payload))
        assert main(["validate", "--artifact", str(bad)]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_missing_artifact_exits_two(self, tmp_path, capsys):
        assert main(["validate", "--artifact",
                     str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err


class TestValidateDegradedExitCode:
    """Exit 3 = degraded but serving; 1 stays a hard failure (exit codes
    must let CI tell "we limped home" apart from "we crashed")."""

    @pytest.fixture()
    def corrupt_artifact_path(self, tiny_artifact_path, tmp_path):
        from repro.faults import corrupt_graph_payload
        payload = json.loads(open(tiny_artifact_path).read())
        corrupt_graph_payload(payload)
        bad = tmp_path / "corrupt.medusa.json"
        bad.write_text(json.dumps(payload))
        return str(bad)

    def test_degraded_ok_exits_three(self, corrupt_artifact_path, capsys):
        assert main(["validate", "--artifact", corrupt_artifact_path,
                     "--degraded-ok"]) == 3
        output = capsys.readouterr().out
        assert "validation: PASSED" in output
        assert "rung" in output
        assert "MED011" in output

    def test_same_artifact_without_flag_exits_one(self,
                                                  corrupt_artifact_path,
                                                  capsys):
        assert main(["validate", "--artifact", corrupt_artifact_path]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_clean_artifact_with_flag_exits_zero(self, tiny_artifact_path,
                                                 capsys):
        assert main(["validate", "--artifact", tiny_artifact_path,
                     "--degraded-ok"]) == 0
        assert "rung" not in capsys.readouterr().out

    def test_hard_failure_still_exits_one(self, tiny_artifact_path, capsys):
        # A model mismatch is not a restore fault the ladder can absorb.
        assert main(["validate", "--artifact", tiny_artifact_path,
                     "--model", "Tiny-4L", "--degraded-ok"]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_degraded_json_carries_the_ladder(self, corrupt_artifact_path,
                                              capsys):
        assert main(["validate", "--artifact", corrupt_artifact_path,
                     "--degraded-ok", "--json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["degradation"]["rung"] == "partial"
        assert payload["degradation"]["degraded"] is True


class TestSimulateStrategies:
    def test_simulate_deferred_strategy(self, capsys):
        from repro.cli import main
        assert main(["simulate", "--model", "Qwen1.5-0.5B", "--rps", "1",
                     "--duration", "15", "--gpus", "1",
                     "--strategy", "deferred"]) == 0
        output = capsys.readouterr().out
        assert "Deferred capture" in output
        assert "cold_starts" in output
