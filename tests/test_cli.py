"""Command-line interface tests."""

import json

import pytest

from repro.cli import build_parser, main
from repro.resilience import CHAOS_ENV_VAR


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "4-MEM-A" in out
        assert "ICOUNT" in out
        assert "FLUSHP" in out
        assert "mcf" in out


class TestRun:
    def test_run_mix(self, capsys):
        assert main(["run", "2-CPU-A", "-n", "400"]) == 0
        out = capsys.readouterr().out
        assert "2-CPU-A" in out
        assert "IQ" in out

    def test_run_program_list(self, capsys):
        assert main(["run", "bzip2", "mcf", "-n", "300"]) == 0
        out = capsys.readouterr().out
        assert "bzip2+mcf" in out

    def test_run_with_phase_window(self, capsys):
        assert main(["run", "2-CPU-A", "-n", "400", "--phase-window", "100"]) == 0
        out = capsys.readouterr().out
        assert "AVF phases" in out

    def test_run_with_policy(self, capsys):
        assert main(["run", "2-MEM-A", "-n", "400", "--policy", "FLUSH"]) == 0
        assert "[FLUSH]" in capsys.readouterr().out

    def test_unknown_workload_is_an_error(self, capsys):
        assert main(["run", "not-a-workload"]) == 2
        assert "error:" in capsys.readouterr().err


#: A live campaign small enough for the CLI tests.
TINY_INJECT = ["inject", "2-CPU-A", "-n", "60", "--strikes", "2",
               "--structures", "iq"]


class TestInject:
    def test_inject_prints_summary(self, capsys):
        assert main(TINY_INJECT) == 0
        out = capsys.readouterr().out
        assert "Live fault injection" in out and "95% CI" in out

    def test_structures_restricts_the_campaign(self, capsys):
        assert main(TINY_INJECT) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split()[0] for row in rows] == ["IQ"]


class TestFit:
    def test_fit_prints_breakdown(self, capsys):
        assert main(["fit", "2-CPU-A", "-n", "300"]) == 0
        out = capsys.readouterr().out
        assert "MTTF" in out
        assert "hotspot" in out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_rejects_out_of_range(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9"])

    def test_figure_accepts_valid(self):
        args = build_parser().parse_args(["figure", "3", "--scale", "500"])
        assert args.number == 3
        assert args.scale == 500


class TestProtectFlag:
    """--protect/--mbu-len are validated at parse time, not mid-campaign."""

    def test_accepts_uniform_scheme(self):
        args = build_parser().parse_args(
            ["inject", "2-CPU-A", "--protect", "parity"])
        assert args.protect.label() == "parity"

    def test_accepts_per_structure_list(self):
        args = build_parser().parse_args(
            ["inject", "2-CPU-A", "--protect", "iq=secded,rob=parity"])
        assert args.protect.label() == "IQ=secded,ROB=parity"

    def test_ecc_alias_maps_to_secded(self):
        args = build_parser().parse_args(
            ["inject", "2-CPU-A", "--protect", "ecc"])
        assert args.protect.label() == "secded"

    def test_rejects_unknown_scheme_naming_valid_set(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["inject", "2-CPU-A", "--protect", "hamming"])
        err = capsys.readouterr().err
        assert "parity" in err and "secded" in err and "dec-bch" in err

    def test_rejects_unknown_structure_naming_valid_set(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["inject", "2-CPU-A", "--protect", "l2=parity"])
        err = capsys.readouterr().err
        assert "iq" in err.lower()

    def test_rejects_out_of_range_mbu_len(self, capsys):
        for bad in ("0", "4", "-1", "two"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["inject", "2-CPU-A", "--mbu-len", bad])

    def test_mbu_len_in_range(self):
        args = build_parser().parse_args(
            ["inject", "2-CPU-A", "--mbu-len", "3"])
        assert args.mbu_len == 3

    def test_live_campaign_runs_with_protect_and_mbu(self, capsys):
        assert main(["inject", "gcc", "mcf", "--strikes", "4",
                     "-n", "200", "--structures", "iq",
                     "--protect", "iq=parity", "--mbu-len", "2"]) == 0
        out = capsys.readouterr().out
        assert "protection IQ=parity" in out
        assert "mbu" in out


class TestCacheFlags:
    """--jobs/--cache-dir/--no-cache on reproduce, figure and inject."""

    def test_reproduce_parallel_with_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "250")
        argv = ["reproduce", "--only", "fig1_avf_profile", "--scale", "250",
                "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
                "--out", str(tmp_path / "run1")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "simulated 6 runs (0 loaded from cache)" in first

        argv[-1] = str(tmp_path / "run2")
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "simulated 0 runs (6 loaded from cache)" in second
        assert ((tmp_path / "run1" / "fig1_avf_profile.txt").read_bytes()
                == (tmp_path / "run2" / "fig1_avf_profile.txt").read_bytes())

    def test_no_cache_ignores_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "250")
        assert main(["reproduce", "--only", "fig1_avf_profile",
                     "--scale", "250", "--cache-dir", str(tmp_path / "cache"),
                     "--no-cache", "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert not (tmp_path / "cache").exists()

    def test_rejects_zero_jobs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "250")
        assert main(["reproduce", "--only", "fig1_avf_profile",
                     "--scale", "250", "--jobs", "0",
                     "--out", str(tmp_path / "out")]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_figure_uses_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "250")
        assert main(["figure", "1", "--scale", "250",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "Figure 1" in capsys.readouterr().out
        assert list((tmp_path / "cache").glob("*.json"))

    def test_inject_cache_dir_round_trip(self, capsys, tmp_path):
        argv = TINY_INJECT + ["--jobs", "2", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert list(tmp_path.glob("live-*.json"))
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestZeroStrikeInject:
    def test_inject_zero_strikes_does_not_crash(self, capsys):
        """Regression: the summary's rate columns divided by zero."""
        assert main(TINY_INJECT[:4] + ["--strikes", "0"]) == 0
        out = capsys.readouterr().out
        assert "0 strikes/structure" in out
        assert "95% CI" in out


class TestArgumentValidation:
    """Nonsense values die at the parser, with the flag named in the error."""

    @pytest.mark.parametrize("argv,flag", [
        (["inject", "2-CPU-A", "--strikes", "-5"], "--strikes"),
        (["inject", "2-CPU-A", "-n", "0"], "-n/--instructions"),
        (["inject", "2-CPU-A", "-n", "many"], "-n/--instructions"),
        (["run", "2-CPU-A", "-n", "-100"], "-n/--instructions"),
        (["rmt", "mcf", "-n", "0"], "-n/--instructions"),
        (["inject", "2-CPU-A", "--strikes", "many"], "--strikes"),
        (["figure", "1", "--jobs", "-2"], "--jobs"),
        (["figure", "1", "--scale", "0"], "--scale"),
        (["reproduce", "--job-timeout", "0"], "--job-timeout"),
        (["reproduce", "--retries", "-1"], "--retries"),
        (["reproduce", "--max-failures", "-3"], "--max-failures"),
    ])
    def test_rejects_bad_values(self, capsys, argv, flag):
        assert main(argv) == 2
        assert flag in capsys.readouterr().err

    def test_resume_requires_cache_dir(self, capsys, tmp_path):
        assert main(["reproduce", "--only", "fig1_avf_profile",
                     "--scale", "200", "--resume",
                     "--out", str(tmp_path / "out")]) == 2
        assert "--cache-dir" in capsys.readouterr().err


class TestResilientCli:
    """End-to-end chaos acceptance: the full CLI under injected faults."""

    BASE = ["reproduce", "--only", "fig1_avf_profile", "--scale", "250"]

    def _run(self, tmp_path, name, *extra):
        return self.BASE + ["--out", str(tmp_path / name)] + list(extra)

    def test_chaos_recovered_run_matches_clean_run(self, capsys, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "250")
        assert main(self._run(tmp_path, "clean")) == 0
        capsys.readouterr()
        # One crash, one hang and one corrupt payload, each on a first
        # attempt only: retries + the job timeout must absorb all three.
        monkeypatch.setenv(CHAOS_ENV_VAR,
                           "crash:4-MEM-A:1,hang:4-CPU-A:1:60,"
                           "corrupt:4-MIX-A:1")
        assert main(self._run(tmp_path, "chaotic", "--jobs", "2",
                              "--retries", "2", "--job-timeout", "5")) == 0
        capsys.readouterr()
        clean = (tmp_path / "clean" / "fig1_avf_profile.txt").read_bytes()
        chaotic = (tmp_path / "chaotic" / "fig1_avf_profile.txt").read_bytes()
        assert chaotic == clean

    def test_unrecoverable_job_degrades_with_exit_3(self, capsys, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "250")
        monkeypatch.setenv(CHAOS_ENV_VAR, "raise:4-MEM-A:*")
        failures_path = tmp_path / "failures.json"
        assert main(self._run(tmp_path, "out", "--jobs", "2",
                              "--retries", "1", "--max-failures", "2",
                              "--failures-out", str(failures_path))) == 3
        err = capsys.readouterr().err
        assert "degraded" in err
        text = (tmp_path / "out" / "fig1_avf_profile.txt").read_text()
        assert "MISSING(4-MEM-A/ICOUNT/seed1)" in text
        failures = json.loads(failures_path.read_text())
        assert [f["label"] for f in failures["failures"]] == \
            ["4-MEM-A/ICOUNT/seed1"]

    def test_budget_exhausted_aborts_with_exit_2(self, capsys, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "250")
        monkeypatch.setenv(CHAOS_ENV_VAR, "raise:4-MEM-A:*")
        assert main(self._run(tmp_path, "out", "--jobs", "2",
                              "--retries", "0", "--max-failures", "0")) == 2
        assert "exceeded the budget" in capsys.readouterr().err

    def test_resume_reexecutes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "250")
        cache = str(tmp_path / "cache")
        assert main(self._run(tmp_path, "first", "--jobs", "2",
                              "--cache-dir", cache, "--retries", "1")) == 0
        assert "simulated 6 runs" in capsys.readouterr().out
        journal = tmp_path / "cache" / "journal-reproduce.jsonl"
        assert journal.exists()
        assert main(self._run(tmp_path, "second", "--jobs", "2",
                              "--cache-dir", cache, "--resume")) == 0
        assert "simulated 0 runs (6 loaded from cache)" in \
            capsys.readouterr().out

    def test_figure_degrades_with_missing_marker(self, capsys, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "250")
        monkeypatch.setenv(CHAOS_ENV_VAR, "raise:4-MEM-A:*")
        assert main(["figure", "1", "--scale", "250", "--jobs", "2",
                     "--retries", "0", "--max-failures", "2"]) == 3
        out = capsys.readouterr()
        assert "MISSING(4-MEM-A/ICOUNT/seed1)" in out.out
        assert "degraded" in out.err

    def test_inject_supervised_matches_unsupervised(self, capsys, tmp_path):
        assert main(TINY_INJECT) == 0
        plain = capsys.readouterr().out
        assert main(TINY_INJECT + ["--retries", "1"]) == 0
        assert capsys.readouterr().out == plain


class TestServiceClient:
    """The submit/cancel client commands against live and dead servers."""

    SPEC = {"kind": "live", "workload": ["gcc"], "strikes": 4,
            "instructions": 80, "structures": ["iq"]}

    @staticmethod
    def _dead_server():
        """A base URL nothing listens on (bound, learned, released)."""
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        return f"http://127.0.0.1:{port}"

    @pytest.fixture
    def live_server(self, tmp_path):
        import asyncio
        import threading

        from repro.service.server import CampaignServer
        from repro.service.store import ArtifactStore

        server = CampaignServer(ArtifactStore(tmp_path / "store"), workers=2)
        loop = asyncio.new_event_loop()
        ready = threading.Event()

        def run():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(server.start())
            ready.set()
            loop.run_forever()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(15)
        yield f"http://127.0.0.1:{server.port}"
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()

    def _spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        return str(path)

    def test_submit_streams_to_done_and_writes_artifact(self, capsys,
                                                        tmp_path,
                                                        live_server):
        out = tmp_path / "result.json"
        assert main(["submit", self._spec_file(tmp_path),
                     "--server", live_server, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "campaign" in printed and "state=done" in printed
        assert json.loads(out.read_text())["result"]["kind"] == "live"

    def test_cancel_finished_campaign_reports_conflict(self, capsys,
                                                       tmp_path,
                                                       live_server):
        assert main(["submit", self._spec_file(tmp_path),
                     "--server", live_server,
                     "--out", str(tmp_path / "r.json")]) == 0
        cid = capsys.readouterr().out.split()[1]
        assert main(["cancel", cid, "--server", live_server]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "done" in err

    @pytest.mark.parametrize("argv", [
        ["submit", "SPEC", "--server", "BASE"],
        ["cancel", "cafecafecafecafe", "--server", "BASE"],
    ], ids=["submit", "cancel"])
    def test_unreachable_service_is_one_line_exit_2(self, capsys, tmp_path,
                                                    argv):
        base = self._dead_server()
        argv = [self._spec_file(tmp_path) if a == "SPEC" else
                base if a == "BASE" else a for a in argv]
        assert main(argv + ["--connect-timeout", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1, f"diagnostic must be one line: {err!r}"
        assert "cannot reach campaign service" in err
        assert base in err
        assert "repro-sim serve" in err

    def test_connect_timeout_bounds_the_wait(self, capsys, tmp_path):
        import time

        start = time.monotonic()
        code = main(["submit", self._spec_file(tmp_path),
                     # RFC 5737 TEST-NET: unroutable, so the connect
                     # either times out or is refused immediately —
                     # never answered.
                     "--server", "http://192.0.2.1:9",
                     "--connect-timeout", "0.5"])
        elapsed = time.monotonic() - start
        assert code == 2
        assert elapsed < 10.0, f"connect wait unbounded: {elapsed:.1f}s"
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        # Depending on how the network drops the packets this surfaces
        # as a connect timeout or a reset — both are one-line
        # operational diagnostics, never tracebacks.
        assert ("cannot reach campaign service" in err
                or "dropped the request" in err)

    @pytest.mark.parametrize("argv,flag", [
        (["submit", "-", "--connect-timeout", "0"], "--connect-timeout"),
        (["cancel", "abc", "--connect-timeout", "-1"], "--connect-timeout"),
        (["serve", "--max-running", "0"], "--max-running"),
        (["serve", "--max-queued", "-1"], "--max-queued"),
    ])
    def test_service_flags_validate_at_the_parser(self, capsys, argv, flag):
        assert main(argv) == 2
        assert flag in capsys.readouterr().err
