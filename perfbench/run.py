#!/usr/bin/env python3
"""XomatiQ end-to-end benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the CLI and the
benchmark's worker (perfbench/pb.exe) with dune, makes every input from
the seed, runs the workload and prints, as the last line of stdout, one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. The line before it records provenance.
Every child runs pinned to one core, and timed figures are scaled to a
reference-speed core by host-speed probes (perfbench/hostspeed.ml).
See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_out")
CLI = os.path.join(ROOT, "_build", "default", "bin", "xomatiq_cli.exe")
PB = os.path.join(ROOT, "_build", "default", "perfbench", "pb.exe")


# Servers started to time set-up; the last one serves the load.
SETUP_STARTS = 3
STEP_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# Every timed process runs on this one core, and so do the host-speed
# probes that rescale its figures (perfbench/hostspeed.ml).
CORE = max(os.sched_getaffinity(0))


def pin():
    os.sched_setaffinity(0, {CORE})


def child_env():
    """A scrubbed environment: no XOMATIQ_* knob reaches a child."""
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "LANG": "C"}


def build():
    for need in ("dune-project", "bin/xomatiq_cli.ml", "perfbench/pb.ml"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"{need} not found: run from the root of a source checkout")
    env = {k: v for k, v in os.environ.items() if not k.startswith("XOMATIQ_")}
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "bin/xomatiq_cli.exe", "perfbench/pb.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError("build failed")


def pb(*args):
    r = subprocess.run([PB, *args], env=child_env(), stdout=sys.stderr,
                       stderr=sys.stderr, timeout=STEP_TIMEOUT_S, preexec_fn=pin)
    if r.returncode != 0:
        raise BenchError(f"pb {args[0]} failed with code {r.returncode}")


def read_json(path):
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------- server

def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def frame(tag, payload):
    data = payload.encode()
    return tag.encode() + struct.pack(">I", len(data)) + data


def read_frame(sock):
    def exactly(n):
        buf = b""
        while len(buf) < n:
            chunk = sock.recv(n - len(buf))
            if not chunk:
                raise BenchError("server closed the connection")
            buf += chunk
        return buf
    head = exactly(5)
    (n,) = struct.unpack(">I", head[1:])
    return chr(head[0]), exactly(n).decode()


def first_answer(port, text, deadline):
    """Connect (retrying while the server replays its WAL) and run one
    query to completion over xomatiq/1."""
    while True:
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=60)
            break
        except (ConnectionRefusedError, socket.timeout):
            if time.monotonic() > deadline:
                raise BenchError("server did not come up")
            time.sleep(0.002)
    with sock:
        sock.sendall(frame("H", "xomatiq/1"))
        if read_frame(sock)[0] != "W":
            raise BenchError("handshake refused")
        sock.sendall(frame("Q", text))
        while True:
            tag, payload = read_frame(sock)
            if tag == "D":
                return
            if tag == "X":
                raise BenchError("probe query failed: " + payload)


class Server:
    def __init__(self, wal):
        self.port = free_port()
        self.proc = subprocess.Popen(
            [CLI, "serve", "--db", wal, "--port", str(self.port), "--jobs", "1"],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=sys.stderr,
            preexec_fn=pin)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.returncode not in (0, -signal.SIGTERM, -signal.SIGKILL):
            raise BenchError(f"server exited with code {self.proc.returncode}")


# ---------------------------------------------------------------- workloads

def ratio(num, den):
    return num / den if den else 0.0


def delta(m0, m1, name):
    def get(m):
        mm = m["metrics"]
        return mm["counters"].get(name, mm["gauges"].get(name, 0))
    return get(m1) - get(m0)


def run_reads(workload, seconds, d, servers):
    wal = os.path.join(d, "wh.wal")
    with open(os.path.join(d, "probe.txt")) as f:
        probe = f.read()
    setups = []
    for i in range(SETUP_STARTS):
        t0 = time.monotonic()
        srv = Server(wal)
        servers.append(srv)
        first_answer(srv.port, probe, t0 + STEP_TIMEOUT_S)
        setups.append(time.monotonic() - t0)
        if i < SETUP_STARTS - 1:
            srv.stop()
    wal0 = os.path.getsize(wal)
    pb("load", "--workload", workload, "--seconds", str(seconds), "--dir", d,
       "--port", str(srv.port))
    rss = srv.peak_rss_mb()
    srv.stop()
    load = read_json(os.path.join(d, "load.json"))
    if load["errors"]:
        log("failures: " + load["errors"])
    m0, m1 = load["m0"], load["m1"]
    e2e = {
        # scaled by the factor of the timed window that follows
        "setup_s": statistics.median(setups) * load["host_factor"],
        "ops_per_s": load["qps"],
        "p50_ms": load["read_p50_ms"],
        "tail_ms": load["read_p99_ms"],
        "peak_rss_mb": rss,
    }
    pool_hits = delta(m0, m1, "storage.pool.hits")
    inline = delta(m0, m1, "server.sched_inline")
    writes = load.get("writes", 0)
    layers = {
        "xserver.outside_exec_p50_ms": load["outside_p50_ms"],
        "xserver.outside_exec_p99_ms": load["outside_p99_ms"],
        "conc.sched.inline_ratio":
            ratio(inline, inline + delta(m0, m1, "server.sched_dispatched")),
        "engine.plan_cache.hit_ratio":
            ratio(delta(m0, m1, "engine.plan_cache.hits"),
                  delta(m0, m1, "engine.plan_cache.hits")
                  + delta(m0, m1, "engine.plan_cache.misses")),
        "xq2sql.path_cache.hit_ratio":
            ratio(delta(m0, m1, "xq2sql.path_cache.hits"),
                  delta(m0, m1, "xq2sql.path_cache.hits")
                  + delta(m0, m1, "xq2sql.path_cache.misses")),
        "storage.pool.hit_ratio":
            ratio(pool_hits, pool_hits + delta(m0, m1, "storage.pool.misses")),
        "storage.pool.evictions": delta(m0, m1, "storage.pool.evictions"),
        "rdb.wal_bytes_per_write": ratio(os.path.getsize(wal) - wal0, writes),
        "mixed.write_p50_ms": load.get("write_p50_ms", 0.0),
        "mixed.write_p90_ms": load.get("write_p90_ms", 0.0),
        "mixed.write_late_max_ms": load.get("write_late_max_ms", 0.0),
    }
    host = {"core": CORE, "probes": load["probes"], "factor": load["host_factor"]}
    return e2e, layers, load["attempted"], load["failed"], load["scale"], m1["storage"], host


def run_harvest(d):
    pb("harvest", "--dir", d)
    h = read_json(os.path.join(d, "harvest.json"))
    if h["errors"]:
        log("failures: " + h["errors"])
    e2e = {k: h[k] for k in ("setup_s", "ops_per_s", "p50_ms", "tail_ms", "peak_rss_mb")}
    layers = {
        "datahounds.harvest_docs_per_s": h["harvest_docs_per_s"],
        "datahounds.sync_docs_per_s": h["sync_docs_per_s"],
        "rdb.wal_bytes_per_doc": h["wal_bytes_per_doc"],
    }
    host = {"core": CORE, "probes": h["probes"], "factor": h["host_factor"]}
    return e2e, layers, h["attempted"], h["failed"], h["scale"], h["storage"], host


# ---------------------------------------------------------------- provenance

def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        lines = r.stdout.split()
        if r.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except OSError:
        pass
    # not a git checkout: identify the sources by content
    h = hashlib.sha256()
    for top in ("bin", "lib", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def ocaml_version():
    try:
        r = subprocess.run(["ocamlfind", "ocamlopt", "-version"], capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    r = subprocess.run(["ocaml", "-version"], capture_output=True, text=True, timeout=10)
    return r.stdout.strip().split()[-1] if r.returncode == 0 else "unknown"


# ---------------------------------------------------------------- main

def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    d = os.path.join(OUT, f"{args.workload}-{args.seed}")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    pb("prep", "--workload", args.workload, "--seed", str(args.seed),
       "--seconds", str(args.seconds), "--dir", d)
    servers = []
    try:
        if args.workload == "harvest":
            e2e, layers, attempted, failed, scale, storage, host = run_harvest(d)
        else:
            e2e, layers, attempted, failed, scale, storage, host = run_reads(
                args.workload, args.seconds, d, servers)
    finally:
        for s in servers:
            if s.proc.poll() is None:
                s.proc.kill()
                s.proc.wait()
    if args.trace:
        pb("trace", "--workload", args.workload, "--dir", d)
        t = read_json(os.path.join(d, "trace.json"))
        attempted += t.pop("attempted")
        failed += t.pop("failed")
        layers.update(t)
        chosen, values = spec["per_layer"], layers
    else:
        chosen, values = spec["end_to_end"], e2e
    metrics = {}
    for m in chosen:
        # a layer this workload never reaches reports 0
        v = values.get(m["name"], 0.0)
        if v is None:
            raise BenchError(f"{m['name']}: too few samples for its percentile")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps({"provenance": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": scale, "host_cores": os.cpu_count(),
        "commit": commit(), "ocaml": ocaml_version(), "python": platform.python_version(),
        "jobs": 1, "storage": storage, "host_speed": host}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    # a TERM unwinds through main's cleanup, so no server outlives the run
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        main()
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log(f"benchmark error: {e}")
        sys.exit(1)
