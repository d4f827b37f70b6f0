"""Campaign-service smoke tests: dedup under concurrency, crash recovery.

Two modes:

* default — boots the real server (ephemeral port, in-process), submits
  the same spec from two concurrent clients, and asserts the service's
  core promises end to end:

  - exactly one computation runs (``executions == 1``);
  - both clients read byte-identical result artifacts;
  - the ``submit``-style status stream reaches ``done`` with full
    batches.

* ``--kill-after N`` — the durability drill the CI ``service-recovery``
  job runs: boots ``repro-sim serve`` as a real subprocess with chaos
  slowing every batch, SIGKILLs it once ``N`` batches have committed,
  restarts it on the same state dir, and asserts the journal replay
  re-admitted the campaign, the committed batches were served from the
  cache (not recomputed), and the final artifact is byte-identical to
  an uninterrupted baseline.

Exit 0 on success; any broken promise raises.  Run via ``make
serve-smoke`` / ``make serve-recovery-smoke`` or the CI ``service`` and
``service-recovery`` jobs.
"""

import argparse
import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.resilience.chaos import CHAOS_ENV_VAR  # noqa: E402
from repro.service.scheduler import CampaignScheduler  # noqa: E402
from repro.service.server import CampaignServer  # noqa: E402
from repro.service.store import ArtifactStore  # noqa: E402

SPEC = {"kind": "live", "workload": ["gcc"], "strikes": 6,
        "instructions": 120, "structures": ["iq", "rob"]}

#: The recovery drill's campaign: 24 batches so a SIGKILL always lands
#: mid-flight, deterministic so the resumed artifact can be compared
#: byte for byte against an uninterrupted run.
RECOVERY_SPEC = {"kind": "live", "workload": ["gcc"], "strikes": 48,
                 "instructions": 80, "structures": ["iq"],
                 "strike_batch": 2}

#: Slows each batch of the first server life by a second, guaranteeing
#: the kill arrives while most batches are still outstanding.
RECOVERY_CHAOS = "hang:live/gcc:*:1.0"


def request(port, method, path, body=None, timeout=240.0):
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        data = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=data)
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    return response.status, raw


def dedup_smoke():
    root = tempfile.mkdtemp(prefix="serve-smoke-")
    server = CampaignServer(ArtifactStore(root), workers=2)
    loop = asyncio.new_event_loop()
    ready = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        ready.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(15), "server failed to start"
    port = server.port
    print(f"server up on 127.0.0.1:{port} (store: {root})")

    status, raw = request(port, "GET", "/healthz")
    assert status == 200, (status, raw)

    barrier = threading.Barrier(2)
    outcomes = []

    def submit():
        barrier.wait()
        outcomes.append(request(port, "POST", "/campaigns", body=SPEC))

    clients = [threading.Thread(target=submit) for _ in range(2)]
    for c in clients:
        c.start()
    for c in clients:
        c.join(60)
    assert len(outcomes) == 2, "a submission never returned"
    codes = sorted(code for code, _ in outcomes)
    assert codes == [200, 201], f"expected one create + one dedup: {codes}"
    ids = {json.loads(raw)["id"] for _, raw in outcomes}
    assert len(ids) == 1, f"identical specs got different ids: {ids}"
    (cid,) = ids
    print(f"two concurrent submissions coalesced into campaign {cid}")

    status, raw = request(port, "GET", f"/campaigns/{cid}?wait=180")
    payload = json.loads(raw)
    assert status == 200 and payload["state"] == "done", payload
    batches = payload["batches"]
    assert batches["done"] == batches["total"] > 0, batches
    for entry in payload["progress"]:
        assert (entry["wilson_low"] <= entry["sdc_rate"]
                <= entry["wilson_high"]), entry
    print(f"campaign done: {batches['done']}/{batches['total']} batches, "
          f"{len(payload['progress'])} structures with Wilson intervals")

    status, first = request(port, "GET", f"/campaigns/{cid}/result")
    assert status == 200, status
    status, second = request(port, "GET", f"/campaigns/{cid}/result")
    assert first == second and len(first) > 2, "result bytes must be stable"

    status, raw = request(port, "GET", "/stats")
    stats = json.loads(raw)
    assert stats["executions"] == 1, stats
    print(f"exactly one execution for two clients; "
          f"result artifact {len(first)} bytes, byte-identical reads")

    asyncio.run_coroutine_threadsafe(server.stop(), loop).result(10)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(10)
    print("serve-smoke OK")


def spawn_serve(state_dir, chaos=None, new_session=False):
    """Start ``repro-sim serve`` on an ephemeral port; return (proc, port).

    ``new_session`` starts the server in its own process group, so the
    pool workers a SIGKILL orphans can be reaped by group afterwards.
    """
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop(CHAOS_ENV_VAR, None)
    if chaos:
        env[CHAOS_ENV_VAR] = chaos
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--state-dir", str(state_dir), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        start_new_session=new_session)
    box = {}
    ready = threading.Event()

    def pump():
        for line in proc.stdout:
            match = re.search(r"listening on http://[\d.]+:(\d+)", line)
            if match and not ready.is_set():
                box["port"] = int(match.group(1))
                ready.set()

    threading.Thread(target=pump, daemon=True).start()
    if not ready.wait(60):
        proc.kill()
        raise AssertionError("serve never announced its port")
    return proc, box["port"]


def recovery_smoke(kill_after):
    workdir = Path(tempfile.mkdtemp(prefix="serve-recovery-"))

    # Uninterrupted baseline, in-process: the bytes a client must read
    # back no matter how many times the service dies along the way.
    baseline = CampaignScheduler(ArtifactStore(workdir / "baseline"),
                                 workers=2)
    status, _ = baseline.submit(RECOVERY_SPEC)
    cid = status["id"]
    final = baseline.wait(cid, timeout=300)
    assert final["state"] == "done", final
    baseline_bytes = baseline.result_bytes(cid)
    print(f"baseline campaign {cid}: {final['batches']['total']} batches, "
          f"artifact {len(baseline_bytes)} bytes")

    # Life one: chaos-slowed batches, then SIGKILL mid-campaign.  Its own
    # process group, so the pool workers the SIGKILL orphans are reaped.
    state = workdir / "state"
    proc, port = spawn_serve(state, chaos=RECOVERY_CHAOS, new_session=True)
    first_life_group = proc.pid
    try:
        status, raw = request(port, "POST", "/campaigns",
                              body=RECOVERY_SPEC)
        assert status == 201, (status, raw)
        assert json.loads(raw)["id"] == cid

        deadline = time.monotonic() + 120
        while True:
            _, raw = request(port, "GET", f"/campaigns/{cid}")
            batches = json.loads(raw)["batches"]
            if batches["done"] >= kill_after:
                break
            assert time.monotonic() < deadline, batches
            time.sleep(0.2)
        committed = batches["done"]
        assert committed < batches["total"], batches
        print(f"life one: {committed}/{batches['total']} batches committed "
              f"-> SIGKILL (pid {proc.pid})")
    finally:
        proc.kill()  # SIGKILL: no shutdown hooks, no journal flush
        proc.wait(15)

    # Life two: same state dir, no chaos.  The journal replay re-admits
    # the campaign before the socket binds.
    proc, port = spawn_serve(state)
    try:
        _, raw = request(port, "GET", "/stats")
        stats = json.loads(raw)
        assert stats["recovered"] == 1, stats
        print("life two: journal replay re-admitted 1 campaign")

        status, raw = request(port, "GET", f"/campaigns/{cid}?wait=240")
        final = json.loads(raw)
        assert status == 200 and final["state"] == "done", final
        batches = final["batches"]
        assert batches["done"] == batches["total"], batches
        assert batches["cached"] >= committed, (
            f"only {batches['cached']} batches served from cache; the "
            f"first life committed {committed}")

        status, raw = request(port, "GET", f"/campaigns/{cid}/result")
        assert status == 200, status
        assert raw == baseline_bytes, (
            "recovered artifact differs from the uninterrupted baseline")
        print(f"recovered: {batches['cached']}/{batches['total']} batches "
              f"from cache, artifact byte-identical to baseline")
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(15)
        reap_group(first_life_group)
    print("serve-recovery-smoke OK")


def reap_group(pgid, timeout=30.0):
    """SIGKILL process group ``pgid`` and wait until none of it is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + timeout
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        assert time.monotonic() < deadline, f"process group {pgid} survived"
        time.sleep(0.1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kill-after", type=int, default=None, metavar="N",
                        help="run the crash-recovery drill: SIGKILL the "
                             "server after N committed batches, restart, "
                             "verify cached resume + byte-identical result")
    args = parser.parse_args(argv)
    if args.kill_after is not None:
        assert args.kill_after >= 1, "--kill-after must be >= 1"
        recovery_smoke(args.kill_after)
    else:
        dedup_smoke()


if __name__ == "__main__":
    main()
