"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.programs import ALARM_SOURCE, COUNTER_SOURCE


@pytest.fixture()
def counter_file(tmp_path):
    path = tmp_path / "count.sig"
    path.write_text(COUNTER_SOURCE)
    return str(path)


@pytest.fixture()
def alarm_file(tmp_path):
    path = tmp_path / "alarm.sig"
    path.write_text(ALARM_SOURCE)
    return str(path)


#: a two-location program: a smoother at the edge, an accumulator in the cloud
PIPE_SOURCE = """
process PIPE =
  ( ? integer RAW at edge; boolean ENABLE at edge;
    ! integer SMOOTH at edge; integer TOTAL at cloud; )
  (| ZRAW := RAW $ 1 init 0
   | SMOOTH := (RAW + ZRAW) / 2
   | SAMPLE := SMOOTH when ENABLE
   | ZTOTAL := TOTAL $ 1 init 0
   | TOTAL := SAMPLE + ZTOTAL at cloud
  |)
  where integer ZRAW, SAMPLE, ZTOTAL;
end;
"""


@pytest.fixture()
def pipe_file(tmp_path):
    path = tmp_path / "pipe.sig"
    path.write_text(PIPE_SOURCE)
    return str(path)


class TestEmit:
    def test_default_emits_tree_and_free_clocks(self, counter_file, capsys):
        assert main([counter_file]) == 0
        output = capsys.readouterr().out
        assert "^N" in output
        assert "free clocks:" in output

    def test_emit_clocks(self, counter_file, capsys):
        assert main([counter_file, "--emit", "clocks"]) == 0
        output = capsys.readouterr().out
        assert "clock system of COUNT" in output
        assert "^ZN = ^N" in output

    def test_emit_kernel(self, counter_file, capsys):
        assert main([counter_file, "--emit", "kernel"]) == 0
        assert "kernel form" in capsys.readouterr().out

    def test_emit_python(self, counter_file, capsys):
        assert main([counter_file, "--emit", "python"]) == 0
        assert "class COUNT_step" in capsys.readouterr().out

    def test_emit_c_flat(self, counter_file, capsys):
        assert main([counter_file, "--emit", "c", "--flat"]) == 0
        output = capsys.readouterr().out
        assert "void COUNT_step(void)" in output
        assert "/* style: flat */" in output

    def test_emit_stats_is_json(self, counter_file, capsys):
        assert main([counter_file, "--emit", "stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["free_clocks"] == 1
        assert stats["unresolved"] == 0

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(COUNTER_SOURCE))
        assert main(["-"]) == 0
        assert "^N" in capsys.readouterr().out


class TestBatch:
    def test_batch_compiles_many_files(self, counter_file, alarm_file, capsys):
        assert main(["batch", counter_file, alarm_file]) == 0
        output = capsys.readouterr().out
        assert "compiled 2 program(s)" in output
        assert "process COUNT" in output
        assert "process ALARM" in output

    def test_batch_repeat_hits_the_cache(self, counter_file, capsys):
        assert main(["batch", counter_file, "--repeat", "2"]) == 0
        output = capsys.readouterr().out
        assert "round 2: compiled 1 program(s)" in output
        assert "(1 cache hit(s))" in output

    def test_batch_modular_repeat_reports_per_round_counts(self, tmp_path, capsys):
        """Every counter in a round's summary is that round's own: a warm
        modular round is all cache hits and compiles or links nothing."""
        from repro.programs import FleetSpec, generate_fleet

        spec = FleetSpec(
            name="CLI", programs=4, library_size=5, units_per_program=3,
            shared_units=2, seed=3,
        )
        paths = []
        for index, source in enumerate(generate_fleet(spec)):
            path = tmp_path / f"{'abcd'[index]}.sig"
            path.write_text(source)
            paths.append(str(path))
        assert main(["batch", *paths, "--modular", "--repeat", "2"]) == 0
        rounds = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("round ")
        ]
        assert rounds[0].endswith(" link(s))")
        assert "(0 cache hit(s)," in rounds[0]
        assert ", 4 link(s))" in rounds[0]
        assert rounds[1].endswith(
            "(4 cache hit(s), 0 unit hit(s), 0 unit compile(s), 0 link(s))"
        )

    def test_batch_cache_stats_json(self, counter_file, alarm_file, capsys):
        assert main(["batch", counter_file, alarm_file, "--cache-stats"]) == 0
        output = capsys.readouterr().out
        stats = json.loads(output[output.index("{"):])
        assert stats["requests"] == 2
        assert stats["cache_entries"] == 2
        assert stats["scopes"] == 2
        assert stats["pooled_bdd_nodes"] > 0

    def test_batch_rejects_non_positive_max_entries(self, counter_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", counter_file, "--max-entries", "0"])
        assert excinfo.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_batch_missing_file_reports_error(self, counter_file, capsys):
        assert main(["batch", counter_file, "/nonexistent/program.sig"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_batch_compile_error_reports_and_fails(self, tmp_path, capsys):
        path = tmp_path / "broken.sig"
        path.write_text(
            "process P = ( ? integer A; ! integer X, Y; ) (| X := Y + A | Y := X + A |) end;"
        )
        assert main(["batch", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_batch_compile_error_names_the_failing_file(
        self, counter_file, tmp_path, capsys
    ):
        path = tmp_path / "broken.sig"
        path.write_text(
            "process P = ( ? integer A; ! integer X, Y; ) (| X := Y + A | Y := X + A |) end;"
        )
        assert main(["batch", counter_file, str(path)]) == 1
        assert "broken.sig" in capsys.readouterr().err

    def test_batch_process_workers(self, counter_file, alarm_file, capsys):
        assert main(["batch", counter_file, alarm_file, "--jobs", "2"]) == 0
        output = capsys.readouterr().out
        assert "compiled 2 program(s)" in output
        assert "process worker(s)" in output
        assert "process COUNT" in output
        assert "process ALARM" in output

    def test_batch_process_workers_name_the_failing_file(
        self, counter_file, tmp_path, capsys
    ):
        path = tmp_path / "broken.sig"
        path.write_text(
            "process P = ( ? integer A; ! integer X, Y; ) (| X := Y + A | Y := X + A |) end;"
        )
        assert main(["batch", counter_file, str(path), "--jobs", "2"]) == 1
        assert "broken.sig" in capsys.readouterr().err

    def test_batch_rejects_unknown_worker_backend(self, counter_file, capsys):
        """Worker backends, shards and pool watermarks are gone from the CLI."""
        for flag in ("--workers", "--shards", "--max-pool-nodes"):
            with pytest.raises(SystemExit) as excinfo:
                main(["batch", counter_file, flag, "2"])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestServeArguments:
    def test_serve_parser_accepts_the_scaling_flags(self):
        from repro.cli import build_serve_argument_parser

        arguments = build_serve_argument_parser().parse_args([
            "--jobs", "2",
            "--log-requests", "requests.log",
            "--store", "cache-dir", "--store-max-bytes", "1000000",
        ])
        assert arguments.jobs == 2
        assert arguments.log_requests == "requests.log"
        assert arguments.store_max_bytes == 1000000

    def test_log_requests_without_path_means_stdout(self):
        from repro.cli import build_serve_argument_parser

        arguments = build_serve_argument_parser().parse_args(["--log-requests"])
        assert arguments.log_requests == "-"
        assert build_serve_argument_parser().parse_args([]).log_requests is None

    def test_store_max_bytes_requires_store(self, capsys):
        from repro.cli import run_serve

        assert run_serve(["--store-max-bytes", "1000"]) == 2
        assert "--store" in capsys.readouterr().err


class TestGatewayArguments:
    def test_gateway_parser_accepts_backends_and_tuning(self):
        from repro.cli import build_gateway_argument_parser

        arguments = build_gateway_argument_parser().parse_args([
            "--backend", "127.0.0.1:7420", "--backend", "./b1.sock",
            "--socket", "gw.sock", "--backend-timeout", "10",
            "--connect-timeout", "1", "--health-interval", "0.5",
            "--no-local-fallback", "--jobs", "4",
        ])
        assert arguments.backend == ["127.0.0.1:7420", "./b1.sock"]
        assert arguments.socket == "gw.sock"
        assert arguments.backend_timeout == 10.0
        assert arguments.connect_timeout == 1.0
        assert arguments.health_interval == 0.5
        assert arguments.no_local_fallback is True
        assert arguments.jobs == 4

    def test_gateway_rejects_a_bad_backend_spec(self, capsys):
        from repro.cli import run_gateway

        assert run_gateway(["--backend", "host:notaport"]) == 2
        assert "invalid backend spec" in capsys.readouterr().err


class TestRemoteCompileArguments:
    def test_remote_parser_accepts_timeout_and_retries(self):
        from repro.cli import build_remote_argument_parser

        arguments = build_remote_argument_parser().parse_args([
            "a.sig", "--port", "7420", "--timeout", "5", "--retries", "3",
        ])
        assert arguments.timeout == 5.0
        assert arguments.retries == 3
        defaults = build_remote_argument_parser().parse_args(["a.sig", "--port", "1"])
        assert defaults.timeout == 60.0
        assert defaults.retries == 0

    def test_remote_parser_accepts_modular(self):
        from repro.cli import build_remote_argument_parser

        arguments = build_remote_argument_parser().parse_args([
            "a.sig", "--port", "7420", "--modular",
        ])
        assert arguments.modular is True
        defaults = build_remote_argument_parser().parse_args(["a.sig", "--port", "1"])
        assert defaults.modular is False

    def test_remote_rejects_negative_retries(self, counter_file, capsys):
        from repro.cli import run_remote_compile

        assert run_remote_compile(
            [counter_file, "--port", "1", "--retries", "-1"]
        ) == 2
        assert "non-negative" in capsys.readouterr().err


class TestSimulationAndErrors:
    def test_simulate_prints_timing_diagram(self, alarm_file, capsys):
        assert main([alarm_file, "--simulate", "5", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "simulation (5 reactions" in output
        assert "BRAKING_STATE" in output

    def test_missing_file_reports_error(self, capsys):
        assert main(["/nonexistent/program.sig"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_compile_error_reports_and_fails(self, tmp_path, capsys):
        path = tmp_path / "broken.sig"
        path.write_text(
            "process P = ( ? integer A; ! integer X, Y; ) (| X := Y + A | Y := X + A |) end;"
        )
        assert main([str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_error_reports_and_fails(self, tmp_path, capsys):
        path = tmp_path / "syntax.sig"
        path.write_text("process P = (| |) end")
        assert main([str(path)]) == 1
        assert "error:" in capsys.readouterr().err


#: population options shared by the ``simulate`` subcommand tests
POPULATION = ["--instances", "3", "--ticks", "8", "--seed", "1"]


class TestSimulateSubcommand:
    def test_python_backend_json(self, alarm_file, capsys):
        assert main(["simulate", alarm_file, "--backend", "python", "--json", *POPULATION]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "backend": "python",
            "instance_steps": 24,
            "instances": 3,
            "name": "ALARM",
            "outputs": {"ALARM": 10},
            "seed": 1,
            "ticks": 8,
        }

    def test_python_backend_text(self, alarm_file, capsys):
        assert main(["simulate", alarm_file, "--backend", "python", *POPULATION]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "process ALARM: 3 instance(s) x 8 tick(s), backend python"
        assert lines[1].startswith("  24 instance-steps in ")
        assert lines[2:] == ["  ALARM: present 10/24"]

    def test_record_simulates_like_its_source(self, alarm_file, tmp_path, capsys):
        from repro import compile_source
        from repro.codegen.ir import GenerationStyle
        from repro.service.store import record_from_result

        record = record_from_result(
            compile_source(ALARM_SOURCE), GenerationStyle.HIERARCHICAL
        )
        path = tmp_path / "alarm.json"
        path.write_text(json.dumps(record))
        options = ["--backend", "python", "--json", *POPULATION]
        assert main(["simulate", "--record", str(path), *options]) == 0
        from_record = json.loads(capsys.readouterr().out)
        assert main(["simulate", alarm_file, *options]) == 0
        assert from_record == json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("case", ["not-json", "format-3", "hollow"])
    def test_bad_record_is_an_error_not_a_traceback(self, case, tmp_path, capsys):
        from repro import compile_source
        from repro.codegen.ir import GenerationStyle
        from repro.service.store import record_from_result

        record = record_from_result(compile_source(ALARM_SOURCE), GenerationStyle.HIERARCHICAL)
        path = tmp_path / "record.json"
        if case == "not-json":
            path.write_text("notjson")
        elif case == "format-3":
            # The step interface and text sat under "executable" in format 3.
            step = record.pop("step")
            executable = {**step, "source": record["artifacts"]["python"],
                          "style": record["style"], "observable": True}
            path.write_text(json.dumps(
                {**record, "format": 3, "observable": True, "executable": executable,
                 "executable_flat": None}
            ))
        else:
            path.write_text(json.dumps({key: record[key] for key in (
                "format", "kind", "fingerprint", "style", "build_flat")}))
        assert main(["simulate", "--record", str(path), *POPULATION]) == 2
        error = capsys.readouterr().err
        assert error.startswith(f"error: {path}: ")
        assert "Traceback" not in error

    def test_distributed_json(self, pipe_file, capsys):
        assert main(["simulate", pipe_file, "--distributed", "--json", *POPULATION]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "backend": "distributed",
            "channels": 1,
            "instance_steps": 24,
            "instances": 3,
            "locations": ["edge", "cloud"],
            "name": "PIPE",
            "outputs": {"SMOOTH": 19, "TOTAL": 7},
            "seed": 1,
            "ticks": 8,
        }

    def test_distributed_flat_matches_nested(self, pipe_file, capsys):
        options = ["simulate", pipe_file, "--distributed", "--json", *POPULATION]
        assert main(options) == 0
        nested = json.loads(capsys.readouterr().out)
        assert main([*options, "--flat"]) == 0
        assert json.loads(capsys.readouterr().out) == nested

    def test_distributed_text(self, pipe_file, capsys):
        assert main(["simulate", pipe_file, "--distributed", *POPULATION]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "process PIPE: 3 instance(s) x 8 tick(s), backend distributed "
            "(2 location(s): edge, cloud)"
        )
        assert lines[1].startswith("  24 instance-steps in ")
        assert lines[2:] == ["  SMOOTH: present 19/24", "  TOTAL: present 7/24"]


class TestPartitionSubcommand:
    def test_run_json(self, pipe_file, capsys):
        assert main(["partition", pipe_file, "--run", "16", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["name"] == "PIPE"
        assert summary["locations"] == ["edge", "cloud"]
        assert [
            (fragment["location"], fragment["processes"], fragment["channel_inputs"])
            for fragment in summary["fragments"]
        ] == [("edge", 4, []), ("cloud", 2, ["SAMPLE"])]
        assert summary["channels"] == [
            {
                "producer": "edge",
                "consumer": "cloud",
                "signals": [{"name": "SAMPLE", "type": "integer"}],
            }
        ]
        assert summary["run"] == {
            "instants": 16,
            "seed": 0,
            "mode": "in-process",
            "matches_monolithic": True,
        }

    def test_fragments_always_compile_modular(self, pipe_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["partition", pipe_file, "--monolithic"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_option_tables_list_only_defined_flags(monkeypatch):
    """The docs check flags an option row the subcommand's parser lacks."""
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "tools"))
    import check_docs

    assert check_docs.stale_option_rows(root / "README.md") == []
