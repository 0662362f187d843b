"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_trace_command_writes_csv(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main([
        "trace", "--profile", "m3.medium-us-west-2a", "--days", "2",
        "--seed", "3", "-o", str(out),
    ])
    assert code == 0
    assert out.exists()
    assert "wrote" in capsys.readouterr().out


def test_trace_unknown_profile_raises():
    with pytest.raises(KeyError):
        main(["trace", "--profile", "nope", "--days", "1"])


def test_study_command_runs_and_exports(tmp_path, capsys):
    out = tmp_path / "probes.csv"
    report = tmp_path / "report.md"
    code = main([
        "study", "--days", "0.5", "--seed", "3",
        "--regions", "sa-east-1", "--families", "c3",
        "--export", str(out), "--report", str(report),
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "probes issued" in captured
    assert out.exists()
    assert "# SpotLight availability study" in report.read_text()


def test_figures_command_prints_series(capsys):
    code = main([
        "figures", "--days", "0.5", "--seed", "3",
        "--regions", "sa-east-1", "--families", "c3",
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "[Fig 5.4]" in captured
    assert "[Fig 5.9]" in captured


def test_study_snapshot_then_replay_then_query(tmp_path, capsys):
    """The layered workflow end-to-end: record a study with a snapshot,
    replay its exported prices with no simulator, and serve the flagship
    query from the snapshot in a *separate process*."""
    snapshot = tmp_path / "state"
    prices = tmp_path / "prices.csv"
    code = main([
        "study", "--days", "0.5", "--seed", "3",
        "--regions", "sa-east-1", "--families", "c3",
        "--snapshot", str(snapshot),
    ])
    assert code == 0
    assert (snapshot / "manifest.json").exists()
    captured = capsys.readouterr().out
    assert "saved datastore snapshot" in captured

    # Export the recorded prices and replay them simulator-free.
    from repro.core.datastore import SnapshotDatastore

    SnapshotDatastore(snapshot, append_log=False).export_prices_csv(prices)
    code = main(["replay", "--prices", str(prices), "--top", "3"])
    assert code == 0
    replay_out = capsys.readouterr().out
    assert "passive mode:           True" in replay_out
    assert "top 3 most stable markets" in replay_out

    # A second process reloads the snapshot and answers the query.
    in_process = main([
        "query", "--snapshot", str(snapshot),
        "--name", "top-stable-markets", "--params", '{"n": 5}',
    ])
    assert in_process == 0
    in_process_response = json.loads(capsys.readouterr().out)

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro", "query", "--snapshot", str(snapshot),
         "--name", "top-stable-markets", "--params", '{"n": 5}'],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    subprocess_response = json.loads(result.stdout)
    assert subprocess_response["ok"]
    assert subprocess_response["result"] == in_process_response["result"]


def test_query_command_reports_schema_errors(tmp_path, capsys):
    from repro.core.datastore import SnapshotDatastore

    snapshot = tmp_path / "state"
    SnapshotDatastore(snapshot).save()  # a valid (empty) snapshot
    code = main(["query", "--snapshot", str(snapshot), "--name", "bogus"])
    assert code == 1
    response = json.loads(capsys.readouterr().out)
    assert response["error"]["code"] == "unknown-query"

    code = main(["query", "--snapshot", str(snapshot), "--params", "{not json"])
    assert code == 2


def test_query_stats_exposes_cache_counters(tmp_path, capsys):
    """--stats makes cache behavior observable without the server."""
    from repro.core.datastore import SnapshotDatastore

    snapshot = tmp_path / "state"
    SnapshotDatastore(snapshot).save()  # a valid (empty) snapshot
    code = main([
        "query", "--snapshot", str(snapshot),
        "--name", "top-stable-markets", "--params", '{"n": 3}',
        "--repeat", "3", "--stats",
    ])
    assert code == 0
    response = json.loads(capsys.readouterr().out)
    assert response["ok"]
    stats = response["frontend_stats"]
    assert stats["misses"] == 1
    assert stats["hits"] == 2  # the two repeats were cache hits
    assert stats["entries"] == 1
    assert "expirations" in stats and "evictions" in stats


def test_serve_command_end_to_end(tmp_path):
    """`repro serve` on a snapshot answers /healthz and /query over
    HTTP, matches the in-process `repro query` answer, and shuts down
    cleanly on SIGINT."""
    import re
    import signal

    from repro.client import SpotLightClient

    snapshot = tmp_path / "state"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    subprocess.run(
        [sys.executable, "-m", "repro", "study", "--days", "0.25",
         "--seed", "3", "--regions", "sa-east-1", "--families", "c3",
         "--snapshot", str(snapshot)],
        check=True, capture_output=True, env=env, timeout=300,
    )

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--snapshot", str(snapshot), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        line = server.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        assert match, f"no address announced: {line!r}"
        host, port = match.group(1), int(match.group(2))

        with SpotLightClient(host, port, timeout=30.0) as client:
            assert client.healthz()["status"] == "serving"
            served = client.query("top-stable-markets", {"n": 5})
            stats = client.stats()
            assert stats["endpoints"]["/query"]["requests"] == 1

        # The wire answer matches the in-process `repro query` answer.
        direct = subprocess.run(
            [sys.executable, "-m", "repro", "query", "--snapshot",
             str(snapshot), "--name", "top-stable-markets",
             "--params", '{"n": 5, "bid_multiple": 1.0, "start": 0.0, '
                         '"end": null, "region": null}'],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert direct.returncode == 0, direct.stderr
        assert json.loads(direct.stdout)["result"] == served

        server.send_signal(signal.SIGINT)
        code = server.wait(timeout=30)
        assert code == 0, server.stderr.read()
        tail = server.stdout.read()
        assert "shutdown complete" in tail
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)


@pytest.mark.parametrize("follow", [False, True])
def test_serve_reports_startup_stages_in_stats(tmp_path, follow):
    """`/stats` carries the start-up stage timings; stdout still opens
    with the `serving on` announcement."""
    import re
    import signal

    from repro.client import SpotLightClient
    from repro.core.datastore import SnapshotDatastore
    from repro.core.market_id import MarketID
    from repro.core.records import PriceRecord

    snapshot = tmp_path / "state"
    store = SnapshotDatastore(snapshot)
    market = MarketID("sa-east-1a", "c3.large", "Linux/UNIX")
    for step in range(5):
        store.insert_price(PriceRecord(300.0 * step, market, 0.03 + step / 100))
    store.save()
    store.close()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--snapshot", str(snapshot),
         "--port", "0", *(["--follow"] if follow else [])],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        line = server.stdout.readline()
        assert line.startswith("serving on http://"), line
        match = re.search(r"http://([\d.]+):(\d+)", line)
        with SpotLightClient(match.group(1), int(match.group(2))) as client:
            startup = client.stats()["startup"]
        stages = {"verify_s", "load_s", "prime_s"}
        assert startup.keys() == (stages | {"replica_seed_s"} if follow else stages)
        assert all(
            isinstance(seconds, float) and seconds >= 0.0
            for seconds in startup.values()
        )
        server.send_signal(signal.SIGINT)
        assert server.wait(timeout=30) == 0, server.stderr.read()
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)


def test_query_refuses_a_missing_snapshot(tmp_path, capsys):
    code = main(["query", "--snapshot", str(tmp_path / "typo")])
    assert code == 2
    assert "no datastore snapshot" in capsys.readouterr().err
    assert not (tmp_path / "typo").exists()


def test_study_refuses_an_occupied_snapshot_dir(tmp_path, capsys):
    snapshot = tmp_path / "state"
    args = ["study", "--days", "0.1", "--seed", "3",
            "--regions", "sa-east-1", "--families", "c3",
            "--snapshot", str(snapshot)]
    assert main(args) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit, match="already holds a recording"):
        main(args)


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_threshold_and_sampling_flags_accepted():
    args = build_parser().parse_args(
        ["study", "--threshold", "2.0", "--sampling", "0.5"]
    )
    assert args.threshold == 2.0
    assert args.sampling == 0.5
