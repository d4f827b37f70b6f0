"""Fleet chaos smoke: 3 worker shards, one SIGKILL, one partition.

The drill the CI ``fleet-chaos`` job runs, end to end with real
processes:

1. compute the campaign's artifact bytes with a clean, fleet-less
   in-process scheduler — the oracle;
2. boot ``repro-sim serve`` as a subprocess (short lease timeout) and
   connect three ``repro-sim worker`` shards:

   - one that stalls its first leased batch for a minute (network
     ``slow`` chaos) and is then SIGKILLed mid-batch,
   - one behind ``partition`` chaos that drops its first commit and all
     traffic for a 2 s window,
   - one healthy;

3. wait for the campaign to finish and assert:

   - the artifact is **byte-identical** to the clean run's (the fleet
     differential discipline),
   - at least one lease was reclaimed (the SIGKILL and the partition
     actually cost leases),
   - the dead shard's work was redispatched, not lost or duplicated.

Exit 0 on success; any broken promise raises.  Run via ``make
fleet-smoke``.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.resilience.chaos import CHAOS_ENV_VAR  # noqa: E402
from repro.service.scheduler import CampaignScheduler  # noqa: E402
from repro.service.store import ArtifactStore  # noqa: E402

#: 12 batches across 3 shards, a retry budget wide enough that every
#: chaos-charged lease expiry still leaves headroom.
SPEC = {"kind": "live", "workload": ["gcc"], "strikes": 24,
        "instructions": 80, "structures": ["iq"], "strike_batch": 2,
        "budget": {"retries": 5}}

SRC = Path(__file__).resolve().parent.parent / "src"


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


def wait_stats(port, predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while True:
        _, raw = request(port, "GET", "/stats")
        stats = json.loads(raw)
        if predicate(stats):
            return stats
        assert time.monotonic() < deadline, f"timed out on {what}: {stats}"
        time.sleep(0.2)


def spawn(cmd, chaos=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(CHAOS_ENV_VAR, None)
    if chaos:
        env[CHAOS_ENV_VAR] = chaos
    return subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, env=env)


def spawn_serve(state_dir):
    proc = spawn([sys.executable, "-m", "repro.cli", "serve",
                  "--state-dir", str(state_dir), "--port", "0",
                  "--lease-timeout", "1.5", "--hedge-after", "60"])
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


def spawn_worker(port, shard_id, chaos=None):
    return spawn([sys.executable, "-m", "repro.cli", "worker",
                  "--connect", f"127.0.0.1:{port}",
                  "--shard-id", shard_id,
                  "--heartbeat-interval", "0.3",
                  "--poll-wait", "1.0"],
                 chaos=chaos)


def fleet_smoke(workdir):
    # The oracle: a clean, fleet-less run of the identical spec.
    baseline = CampaignScheduler(ArtifactStore(workdir / "baseline"),
                                 workers=2)
    status, _ = baseline.submit(SPEC)
    cid = status["id"]
    final = baseline.wait(cid, timeout=300)
    assert final["state"] == "done", final
    baseline_bytes = baseline.result_bytes(cid)
    print(f"baseline campaign {cid}: {final['batches']['total']} batches, "
          f"artifact {len(baseline_bytes)} bytes")

    proc, port = spawn_serve(workdir / "state")
    victim = partitioned = healthy = None
    try:
        # The victim stalls its first leased batch for 60 s — the
        # SIGKILL is guaranteed to land mid-batch.
        victim = spawn_worker(port, "victim", chaos="slow:live:1:60")
        partitioned = spawn_worker(port, "partitioned",
                                   chaos="partition:commit:1:2.0")
        healthy = spawn_worker(port, "healthy")
        wait_stats(port,
                   lambda s: s["fleet"]["shards"]["connected"] >= 3,
                   60, "3 shards connecting")
        print(f"3 shards connected to 127.0.0.1:{port}")

        status, raw = request(port, "POST", "/campaigns", body=SPEC)
        assert status == 201, (status, raw)
        assert json.loads(raw)["id"] == cid

        wait_stats(port,
                   lambda s: s["fleet"]["leases"]["granted"] >= 3,
                   60, "work spreading across the fleet")
        victim.kill()  # SIGKILL mid-batch: no goodbye, no lease release
        victim.wait(15)
        print(f"victim shard SIGKILLed (pid {victim.pid}) holding a lease")

        status, raw = request(port, "GET", f"/campaigns/{cid}?wait=240")
        final = json.loads(raw)
        assert status == 200 and final["state"] == "done", final
        batches = final["batches"]
        assert batches["done"] == batches["total"], batches

        stats = wait_stats(
            port, lambda s: s["fleet"]["leases"]["reclaimed"] >= 1,
            30, "reclaiming the victim's lease")
        fleet = stats["fleet"]
        print(f"campaign done: {batches['done']}/{batches['total']} "
              f"batches; leases granted={fleet['leases']['granted']} "
              f"reclaimed={fleet['leases']['reclaimed']} "
              f"fenced={fleet['leases']['fenced']}")

        status, raw = request(port, "GET", f"/campaigns/{cid}/result")
        assert status == 200, status
        assert raw == baseline_bytes, (
            "chaos-ridden fleet artifact differs from the clean run")
        print(f"artifact byte-identical to the clean run "
              f"({len(raw)} bytes)")
    finally:
        for worker in (victim, partitioned, healthy):
            if worker is not None:
                worker.kill()
                worker.wait(15)
        proc.kill()
        proc.wait(15)
    print("fleet-smoke OK")


def main():
    with tempfile.TemporaryDirectory(prefix="fleet-smoke-",
                                     ignore_cleanup_errors=True) as tmp:
        fleet_smoke(Path(tmp))


if __name__ == "__main__":
    main()
