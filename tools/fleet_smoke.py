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
import tempfile
import time
from pathlib import Path

# serve_smoke (beside this file) also puts src/ on sys.path.
from serve_smoke import baseline, request, spawn, spawn_serve

#: 12 batches across 3 shards, a retry budget wide enough that every
#: chaos-charged lease expiry still leaves headroom.
SPEC = {"kind": "live", "workload": ["gcc"], "strikes": 24,
        "instructions": 80, "structures": ["iq"], "strike_batch": 2,
        "budget": {"retries": 5}}

def wait_stats(port, predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while True:
        _, raw = request(port, "GET", "/stats")
        stats = json.loads(raw)
        if predicate(stats):
            return stats
        assert time.monotonic() < deadline, f"timed out on {what}: {stats}"
        time.sleep(0.2)


def spawn_worker(port, shard_id, chaos=None):
    return spawn(["worker", "--connect", f"127.0.0.1:{port}",
                  "--shard-id", shard_id,
                  "--heartbeat-interval", "0.3",
                  "--poll-wait", "1.0"],
                 chaos=chaos)


def fleet_smoke(workdir):
    # The oracle: a clean, fleet-less run of the identical spec.
    cid, baseline_bytes = baseline(workdir, SPEC)

    proc, port = spawn_serve(workdir / "state", "--lease-timeout", "1.5",
                             "--hedge-after", "60")
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
