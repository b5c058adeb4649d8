"""The serve-mixed workload: a `capstan-serve --jobs 1` daemon driven
closed-loop by two client connections with a seeded request stream.

The stream's composition is fixed (only its order and the abort's
position come from the seed), so every seed asks for the same work:
each (app, scale, bandwidth) run twice, six 4-point sweeps four times
each, two quick studies four times each, five requests that must get a
structured error, and the known abort
{"type": "run", "options": {"bandwidth-gbps": 1e-9}} once per block.
The daemon sees only the generated request lines.

When the daemon dies, every unanswered request counts as failed; the
daemon is restarted and the stream continues.
"""

import json
import os
import random
import selectors
import socket
import subprocess
import time
from statistics import median

from common import (APP_KEYS, REFERENCE, BenchError, digest, doc_cycles,
                    job_key)

SCALES = [0.25, 0.5, 1]
BANDWIDTHS = [None, 100, 400]
SWEEP_APPS = [["spmv", "bfs"], ["pagerank", "sssp"], ["spmv-coo", "matadd"],
              ["spmv-csc", "pagerank-edge"], ["conv", "bicgstab"],
              ["spmspm", "spmv"]]
STUDIES = ["table10", "table11"]
ABORT = {"type": "run", "options": {"bandwidth-gbps": 1e-9}}
# Requests that must be answered with a structured error (wire code).
ERRORS = [
    ({"type": "run", "options": {"app": "spmv", "no-such-key": 1}},
     "bad_request"),
    ({"type": "run", "options": {"config": "no-such-config"}},
     "bad_request"),
    ({"type": "run", "options": {"memtech": "no-such-memtech"}},
     "bad_request"),
    ({"type": "no-such-type"}, "bad_request"),
    ('{"op": "submit", "id": 1, "job": {"type": "run"', "parse_error"),
]
# A run makes round(--seconds / BLOCK_S) blocks. A block takes 20-25 s
# of closed-loop work on a 4-core KVM Xeon, so --seconds 30 is one block
# plus the set-up samples.
BLOCK_S = 30.0
# No event for this long while a request is in flight: the daemon hangs.
STALL_S = 60.0


def run_jobs():
    out = []
    for app in APP_KEYS:
        for scale in SCALES:
            for bw in BANDWIDTHS:
                opts = {"app": app, "scale": scale}
                if bw is not None:
                    opts["bandwidth-gbps"] = bw
                out.append({"type": "run", "options": opts})
    return out


def sweep_jobs():
    return [{"type": "sweep", "options": {"scale": 0.25},
             "axes": {"app": pair, "memtech": ["hbm2e", "ddr4"]}}
            for pair in SWEEP_APPS]


def study_jobs():
    return [{"type": "study", "study": s, "preset": "quick", "check": True}
            for s in STUDIES]


def menu():
    """Every job document the generator can emit with a golden result."""
    return run_jobs() + sweep_jobs() + study_jobs()


class Req:
    """One generated request: the line sent and what must come back."""

    def __init__(self, kind, job, code=None):
        self.kind = kind      # "job", "error" or "abort"
        self.job = job        # a job document, or a raw (malformed) line
        self.code = code      # expected error code for "error"
        self.line = b""


def generate(seed, blocks, tiny=False):
    rng = random.Random(seed)
    stream = []
    for _ in range(blocks):
        if tiny:
            block = ([Req("job", j) for j in run_jobs()[::9]] +
                     [Req("job", sweep_jobs()[0]),
                      Req("job", study_jobs()[0])] +
                     [Req("error", e, c) for e, c in ERRORS[:2]])
        else:
            block = ([Req("job", j) for j in run_jobs() * 2] +
                     [Req("job", j) for j in sweep_jobs() * 4] +
                     [Req("job", j) for j in study_jobs() * 4] +
                     [Req("error", e, c) for e, c in ERRORS])
        rng.shuffle(block)
        # The abort lands in the last tenth of its block, so a restart
        # re-warms only a few datasets and runs stay comparable.
        lo = int(len(block) * 0.9)
        block.insert(rng.randrange(lo, len(block)), Req("abort", ABORT))
        stream.extend(block)
    for i, r in enumerate(stream):
        body = r.job if isinstance(r.job, str) else json.dumps(
            {"op": "submit", "id": i, "job": r.job})
        r.line = body.encode("utf-8") + b"\n"
    return stream


class Daemon:
    """A capstan-serve process on a private socket in the build tree."""

    def __init__(self, serve_bin, sock_path, log_path):
        self.serve_bin = serve_bin
        self.sock_path = sock_path
        self.log_path = log_path
        self.proc = None

    def start(self):
        """Start and wait for the first pong; returns daemon start ->
        first pong in seconds."""
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        with open(self.log_path, "ab") as logf:
            t0 = time.monotonic()
            self.proc = subprocess.Popen(
                [str(self.serve_bin), "--socket", self.sock_path,
                 "--jobs", "1", "--intra-jobs", "1",
                 "--reference", REFERENCE],
                stdin=subprocess.DEVNULL, stdout=logf, stderr=logf)
        while True:
            if self.proc.poll() is not None:
                raise BenchError("capstan-serve exited during start-up")
            if time.monotonic() - t0 > 30:
                raise BenchError("capstan-serve did not answer a ping")
            try:
                s = self.connect()
            except OSError:
                time.sleep(0.0005)
                continue
            s.sendall(b'{"op": "ping"}\n')
            line = s.makefile("rb").readline()
            t1 = time.monotonic()
            s.close()
            if json.loads(line)["event"] != "pong":
                raise BenchError("capstan-serve answered a ping with "
                                 + line.decode())
            return t1 - t0

    def connect(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(self.sock_path)
        except OSError:
            s.close()
            raise
        return s

    def peak_rss_mb(self):
        try:
            with open(f"/proc/{self.proc.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def request(self, obj):
        """One direct request/reply on a fresh connection."""
        s = self.connect()
        try:
            s.sendall(json.dumps(obj).encode() + b"\n")
            return json.loads(s.makefile("rb").readline())
        finally:
            s.close()

    def stop(self):
        """Shut down cleanly; kill if it does not exit."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            try:
                self.request({"op": "shutdown"})
                self.proc.wait(timeout=20)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc = None
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)

    def reap_dead(self):
        """After a lost connection: make sure the process is gone."""
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc = None


class Client:
    def __init__(self, sock):
        self.sock = sock
        self.buf = b""
        self.req = None       # the in-flight Req
        self.index = -1
        self.t = {}           # event name -> time, for the in-flight Req
        self.points = []      # progress event times


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.latency_ms = []
        self.queue_ms = []
        self.run_ms = []
        self.cycles = 0
        self.restarts = 0
        self.rss = 0.0
        self.spans = []
        self.setups = []
        # Dataset-cache counters of every daemon life (traced passes).
        self.cache = {"hits": 0, "misses": 0}

    def add_cache(self, stats, sign=1):
        for k in self.cache:
            self.cache[k] += sign * stats["dataset_cache"][k]


def _check(golden, c, event, raw):
    """(ok, cycles) for the terminal event of c.req: an answer that
    differs from what the request must get is a wrong answer."""
    r = c.req
    name = event.get("event")
    if r.kind == "error":
        return name == "error" and event.get("code") == r.code, 0
    if r.kind == "abort":
        # Any structured error is a correct answer; a success is not.
        return name == "error" or (name == "result" and not event["ok"]), 0
    if name != "result" or not event.get("ok"):
        return False, 0
    cut = raw.index(b'"stats":') + len(b'"stats":')
    stats = raw[cut:raw.rindex(b"}")]
    if digest(stats) != golden.get(job_key(r.job)):
        return False, 0
    return True, doc_cycles(event["stats"])


def drive(daemon, stream, golden, traced):
    """Run the stream closed-loop on two connections; returns an
    Outcome (wall time is measured by the caller)."""
    out = Outcome()
    sel = selectors.DefaultSelector()
    clients = []

    def connect_all():
        for _ in range(2):
            c = Client(daemon.connect())
            sel.register(c.sock, selectors.EVENT_READ, c)
            clients.append(c)

    def finish(c, ok, wrong=False, t_end=None):
        out.attempted += 1
        out.failed += 0 if ok else 1
        out.wrong += 1 if wrong else 0
        if ok and c.req.kind == "job" and t_end is not None:
            t = c.t
            out.latency_ms.append((t_end - t["submit"]) * 1e3)
            if "accepted" in t and "started" in t:
                out.queue_ms.append((t["started"] - t["accepted"]) * 1e3)
                out.run_ms.append((t_end - t["started"]) * 1e3)
            if traced:
                _spans(out.spans, c, t_end)
        c.req = None

    def restart():
        """The daemon died or hung: every in-flight request is lost."""
        for c in clients:
            sel.unregister(c.sock)
            c.sock.close()
            if c.req is not None:
                finish(c, False)
        clients.clear()
        if daemon.proc is not None and daemon.proc.poll() is None:
            daemon.proc.kill()
        daemon.reap_dead()
        daemon.start()
        out.restarts += 1
        connect_all()

    connect_all()
    next_req = 0
    last_event = time.monotonic()
    while True:
        died = False
        for c in clients:
            if c.req is None and next_req < len(stream):
                c.req, c.index = stream[next_req], next_req
                next_req += 1
                c.t = {"submit": time.monotonic()}
                c.points = []
                try:
                    if traced and c.req.kind == "abort":
                        # The daemon may not survive this request: keep
                        # the counters of the life it may end.
                        out.add_cache(daemon.request({"op": "stats"}))
                    c.sock.sendall(c.req.line)
                except OSError:
                    died = True  # The daemon is gone; so is c.req.
        if all(c.req is None for c in clients):
            break
        for key, _ in [] if died else sel.select(timeout=1.0):
            c = key.data
            try:
                chunk = c.sock.recv(1 << 20)
            except OSError:
                chunk = b""
            now = time.monotonic()
            if not chunk:
                died = True
                break
            last_event = now
            c.buf += chunk
            while b"\n" in c.buf and c.req is not None:
                raw, c.buf = c.buf.split(b"\n", 1)
                event = json.loads(raw)
                name = event.get("event")
                if name in ("accepted", "started"):
                    c.t[name] = now
                elif name == "progress":
                    c.points.append(now)
                elif name in ("result", "error", "rejected"):
                    ok, cycles = _check(golden, c, event, raw)
                    out.cycles += cycles
                    finish(c, ok, not ok, now)
                    out.rss = max(out.rss, daemon.peak_rss_mb())
        if died or time.monotonic() - last_event > STALL_S:
            out.rss = max(out.rss, daemon.peak_rss_mb())
            restart()
            last_event = time.monotonic()
    for c in clients:
        sel.unregister(c.sock)
        c.sock.close()
    sel.close()
    return out


def _spans(spans, c, t_end):
    """Client-side spans of one job: request > queue, run > point."""
    t = c.t
    root = len(spans)
    spans.append({"name": "job", "start": t["submit"], "end": t_end,
                  "parent": -1, "req": c.index})
    if "accepted" in t and "started" in t:
        spans.append({"name": "queue", "start": t["accepted"],
                      "end": t["started"], "parent": root, "req": c.index})
        run = len(spans)
        spans.append({"name": "run", "start": t["started"], "end": t_end,
                      "parent": root, "req": c.index})
        last = t["started"]
        for p in c.points:
            spans.append({"name": "point", "start": last, "end": p,
                          "parent": run, "req": c.index})
            last = p


def serve_mixed(ctx):
    """Returns (untraced Outcome, its wall_s, traced Outcome, its wall_s,
    summary numbers, the stream's jobs); the traced pair is None when
    untraced."""
    # A traced run makes two passes (untraced, traced) of one block each.
    blocks = 1 if ctx.tiny or ctx.trace else \
        max(1, int(ctx.seconds / BLOCK_S + 0.5))
    stream = generate(ctx.seed, blocks, ctx.tiny)
    golden = ctx.golden["jobs"]
    sock = str(ctx.tmp / "serve.sock")
    daemon = Daemon(ctx.serve_bin, sock, str(ctx.tmp / "serve.log"))
    setups = []
    extras = {}
    passes = []
    try:
        if not ctx.trace:
            # Set-up samples: daemon start -> first pong, on fresh daemons.
            for _ in range(1 if ctx.tiny else 15):
                setups.append(daemon.start())
                daemon.stop()
        for traced in ([False, True] if ctx.trace else [False]):
            setups.append(daemon.start())
            before = daemon.request({"op": "stats"})
            t0 = time.monotonic()
            out = drive(daemon, stream, golden, traced)
            wall = time.monotonic() - t0
            out.rss = max(out.rss, daemon.peak_rss_mb())
            out.add_cache(daemon.request({"op": "stats"}))
            out.add_cache(before, -1)
            if traced:
                rtts = []
                for _ in range(50):
                    t = time.monotonic()
                    daemon.request({"op": "ping"})
                    rtts.append((time.monotonic() - t) * 1e6)
                extras["serve.ping_rtt_us"] = median(rtts)
            daemon.stop()
            passes.append((out, wall))
    finally:
        daemon.stop()
    out, wall = passes[0]
    out.setups = setups
    traced_out, traced_wall = passes[1] if ctx.trace else (None, None)
    extras.update(serve_extras(traced_out or out))
    jobs = [r.job for r in stream if r.kind == "job"]
    return out, wall, traced_out, traced_wall, extras, jobs


def serve_extras(out):
    lat = out.latency_ms
    return {
        "serve.jobs_completed": len(lat),
        "serve.queue_wait_ms": median(out.queue_ms) if out.queue_ms else 0,
        "serve.run_ms": median(out.run_ms) if out.run_ms else 0,
        "serve.restarts": out.restarts,
    }
