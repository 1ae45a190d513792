#!/usr/bin/env python3
"""The MT4G benchmark: one run of one workload.

    python3 perfbench/run.py --workload l2-large --seed 1 --seconds 15 --trace 0

Builds the `mt4g` daemon and the benchmark's executor (perfbench/Cargo.toml)
from source, runs the workload, checks every output, and prints one JSON
object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured untraced;
with `--trace 1` the run measures the workload the same way and then makes
a traced pass and the per-layer replays, and prints the per-layer metrics.
Build output and progress go to stderr. See perfbench/README.md.
"""

import argparse
import gc
import json
import os
import random
import re
import select
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

# Set-up is timed in this many batches per run; setup_s takes medians.
SETUP_REPS = 61
# Cell resolutions per timed batch (whole passes over the cell set).
RESOLUTIONS = 520
# serve-zipf: engine starts (and shutdowns) per timed batch.
ENGINE_STARTS = 200
# The discovery workloads' hit phase: re-queries of the workload's own
# cells, answered from the daemon's result cache.
HIT_REQUESTS = 6000
HIT_RATE_HZ = 500.0
# serve-zipf: Poisson arrivals over a fixed popularity ranking.
ZIPF_RATE_HZ = 160.0
ZIPF_EXPONENT = 1.7
ZIPF_CACHE_CAP = 12
# serve-zipf: direct reference runs of every cell, passes per run; its
# discovery_s is the median pass.
REFERENCE_PASSES = 8
# The open-loop sender stops sleeping this long before a due time.
SPIN_S = 300e-6
# In the discovery workloads' hit phase the daemon runs nothing else, and
# the sender never sleeps: it polls for answers between due times, so the
# host's wake-up latency stays out of the figures.
BUSY_POLL_S = float("inf")


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


class CheckFailed(Exception):
    """An output check or a program call failed."""


def now():
    return time.perf_counter_ns()


def pct(values, q):
    """Linear-interpolated percentile `q` (0..100) of `values`."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def req(gpu, **fields):
    """A serve `discover` request line naming one cell."""
    line = {"op": "discover", "gpu": gpu}
    line.update(fields)
    return json.dumps(line, separators=(",", ":"))


def with_id(line, rid):
    return '{"id":%d,%s' % (rid, line[1:])


# --- workloads -------------------------------------------------------------

THOROUGH = {"mode": "thorough"}
EXTENSIONS = {"tlb": True, "contention": True, "policy": True}

L2_LARGE = [req("H100-80", **THOROUGH)]

REGISTRY_SWEEP = [req(g, **THOROUGH) for g in
                  ("T1000", "P6000", "MI100", "MI210", "MI300X", "RX7900XTX", "RX9070XT")] + [
    req("T1000", scenario="hostile", **THOROUGH),
    req("MI210-hostile", **THOROUGH),
    req("A100", scenario="mig:1g.5gb", **THOROUGH),
    req("T1000", **THOROUGH, **EXTENSIONS),
    req("MI210", **THOROUGH, **EXTENSIONS),
    req("RX9070XT", **THOROUGH, **EXTENSIONS),
]

# Fast-mode cells, most popular first. The tail, which misses most, holds
# cells of similar cost so the miss median does not hop between them.
SERVE_ZIPF = [
    req("MI210-hostile"),
    req("MI300X"),
    req("T1000", only="l1"),
    req("T1000", only="cl1"),
    req("MI210", only="vl1"),
    req("T1000", only="texture"),
    req("MI210", only="sl1d"),
    req("MI210"),
    req("MI210", policy=True),
    req("RX7900XTX"),
    req("MI100"),
    req("MI100", tlb=True),
    req("RX9070XT"),
    req("RX9070XT", scenario="hostile"),
]

WORKLOADS = {"l2-large": L2_LARGE, "registry-sweep": REGISTRY_SWEEP, "serve-zipf": SERVE_ZIPF}


def poisson_schedule(rng, n, rate_hz, pick):
    """`n` (due offset ns, cell) pairs with exponential gaps."""
    t, out = 0.0, []
    for _ in range(n):
        t += rng.expovariate(rate_hz)
        out.append((int(t * 1e9), pick()))
    return out


# --- processes -------------------------------------------------------------

def build():
    """Builds the daemon and the executor; returns their paths."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    for args in (["--manifest-path", "Cargo.toml", "--bin", "mt4g"],
                 ["--manifest-path", "perfbench/Cargo.toml"]):
        r = subprocess.run(["cargo", "build", "--release", "--offline", "-q", *args],
                           cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("build failed:", " ".join(args))
            sys.exit(2)
    return (os.path.join(target, "release", "mt4g"),
            os.path.join(target, "release", "perfbench-exec"))


class Executor:
    """The benchmark's executor process: one command, one JSON reply."""

    def __init__(self, path):
        self.p = subprocess.Popen([path], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  text=True, cwd=ROOT)

    def timed(self, *fields):
        """Runs a command; returns (reply, seconds). Only the round trip is
        timed, not the parsing of the reply."""
        line = "\t".join(str(f) for f in fields) + "\n"
        t0 = now()
        self.p.stdin.write(line)
        self.p.stdin.flush()
        raw = self.p.stdout.readline()
        dt = (now() - t0) / 1e9
        if not raw:
            raise CheckFailed("executor exited during %r" % fields[0])
        reply = json.loads(raw)
        if not reply.get("ok"):
            raise CheckFailed("%s: %s" % (fields[0], reply.get("error")))
        return reply, dt

    def call(self, *fields):
        return self.timed(*fields)[0]

    def close(self):
        self.p.stdin.close()
        self.p.wait()


REPLY_HEAD = re.compile(rb'^\{"id":(\d+),"ok":(true|false),"cached":(true|false),"coalesced":(true|false)')
REPORT_FIELD = b',"report":'


def check_served(line, expected, verified):
    """Byte identity of one served response: it must be ok and carry
    exactly `expected` (a direct run's report bytes). `verified` caches the
    encoded report field once it has been decoded and compared, so later
    responses are compared byte for byte without decoding. Returns None
    when the response is right, otherwise what is wrong."""
    head = REPLY_HEAD.match(line)
    if not head or head.group(2) != b"true":
        return "not a successful response: %r" % line[:160]
    at = line.find(REPORT_FIELD)
    if at < 0:
        return "response carries no report"
    field = line[at:]
    if verified.get(expected) == field:
        return None
    try:
        report = json.loads(line).get("report")
    except ValueError as e:
        return "response does not parse: %s" % e
    if report != expected:
        diff = next((i for i, (a, b) in enumerate(zip(report, expected)) if a != b),
                    min(len(report), len(expected)))
        return "report differs from the direct run at offset %d" % diff
    verified[expected] = field
    return None


class Daemon:
    """`mt4g serve` with one worker; responses are timestamped when their
    last byte is read."""

    # Daemons not yet stopped, so an aborted run can end them.
    live = []

    def __init__(self, path, cache_cap):
        self.p = subprocess.Popen(
            [path, "serve", "--workers", "1", "--queue-cap", "128",
             "--cache-cap", str(cache_cap), "-q"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0, cwd=ROOT)
        self.fd = self.p.stdout.fileno()
        self.buf = bytearray()
        Daemon.live.append(self)

    def send(self, line):
        os.write(self.p.stdin.fileno(), line.encode() + b"\n")

    def poll(self, timeout_s):
        """Lines completed within `timeout_s`, as (t_ns, line) pairs."""
        r, _, _ = select.select([self.fd], [], [], max(timeout_s, 0.0))
        if not r:
            return []
        chunk = os.read(self.fd, 1 << 16)
        t = now()
        if not chunk:
            raise CheckFailed("daemon closed its output")
        self.buf += chunk
        out = []
        while True:
            nl = self.buf.find(b"\n")
            if nl < 0:
                return out
            out.append((t, bytes(self.buf[:nl])))
            del self.buf[:nl + 1]

    def wait_for(self, rid, deadline_ns):
        while now() < deadline_ns:
            for t, line in self.poll(1.0):
                head = REPLY_HEAD.match(line)
                if head and int(head.group(1)) == rid:
                    return t, line
                raise CheckFailed("unexpected response while waiting for %d" % rid)
        raise CheckFailed("request %d not answered in time" % rid)

    def ready(self):
        """Waits until the daemon answers its first `stats` request."""
        self.send('{"id":0,"op":"stats"}')
        self.wait_for(0, now() + 30 * 10**9)
        return self

    def stats(self, rid):
        self.send('{"id":%d,"op":"stats"}' % rid)
        _, line = self.wait_for(rid, now() + 30 * 10**9)
        return json.loads(line)["stats"]

    def stop(self):
        """Closes stdin (the daemon drains and exits), waits, and returns
        the daemon's peak resident set in MiB."""
        self.p.stdin.close()
        while self.p.stdout.read(1 << 20):
            pass
        _, status, usage = os.wait4(self.p.pid, 0)
        self.p.returncode = status
        Daemon.live.remove(self)
        if status != 0:
            raise CheckFailed("daemon exited with status %d" % status)
        return usage.ru_maxrss / 1024.0


# --- the measured workload ---------------------------------------------------

class Run:
    def __init__(self, args, mt4g, executor):
        self.args = args
        self.mt4g = mt4g
        self.ex = executor
        self.rng = random.Random(args.seed)
        self.cells = WORKLOADS[args.workload]
        self.serve = args.workload == "serve-zipf"
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.expected = {}      # cell index -> report bytes of a direct run
        self.verified = {}
        self.cycles_s = 0.0     # simulated GPU seconds of the workload's reports
        self.hit_lat = []
        self.miss_lat = []
        self.late = []
        self.miss_wait = []
        self.counters = {}

    def fail(self, what):
        self.errors.append(what)
        log("CHECK FAILED:", what)

    def account(self, i, reply):
        """Validation verdict and runtime counts of one cell's report."""
        if not reply["passed"]:
            self.fail("cell %d (%s): %d checked, %d mismatches %s" % (
                i, self.cells[i], reply["checked"], reply["mismatches"], reply["notes"][:3]))
            return False
        self.cycles_s += reply["gpu_cycles"] / (reply["clock_mhz"] * 1e6)
        return True

    def setup(self):
        """Registry lookup, scenario realisation and planning of every cell,
        plus engine start on serve-zipf, each timed in batches in the
        executor; setup_s is the sum of the batch medians."""
        for line in self.cells:
            self.ex.call("cell", line)
        passes = -(-RESOLUTIONS // len(self.cells))
        resolve, start = [], []
        for _ in range(SETUP_REPS):
            _, dt = self.ex.timed("setup", passes)
            resolve.append(dt / passes)
            if self.serve:
                _, dt = self.ex.timed("engines", ENGINE_STARTS, self.cache_cap())
                start.append(dt / ENGINE_STARTS)
        self.resolve_s = statistics.median(resolve)
        self.setup_s = self.resolve_s + (statistics.median(start) if self.serve else 0.0)

    def cache_cap(self):
        return ZIPF_CACHE_CAP if self.serve else len(self.cells)

    def open_loop(self, daemon, schedule, first_id, on_reply, spin_s=SPIN_S):
        """Sends `schedule` at its due times, never waiting for answers,
        and hands each answer to `on_reply(cell, due_ns, sent_ns, t_ns,
        line, head)` until all are in. Within `spin_s` of a due time the
        sender polls instead of sleeping."""
        # A collection pause inside the loop would read as latency.
        gc.collect()
        gc.disable()
        t0 = now() + 2 * 10**6
        sent = {}
        i, n = 0, len(schedule)
        deadline = t0 + schedule[-1][0] + 120 * 10**9
        while i < n or sent:
            t = now()
            if t > deadline:
                raise CheckFailed("%d requests never answered" % len(sent))
            if i < n and t >= t0 + schedule[i][0]:
                due, cell = schedule[i]
                rid = first_id + i
                daemon.send(with_id(self.cells[cell], rid))
                sent[rid] = (cell, t0 + due, now())
                self.late.append((sent[rid][2] - sent[rid][1]) / 1e3)
                i += 1
                continue
            # Sleep in select until just before the next due time, then
            # poll without blocking: select oversleeps by tens of µs.
            wait = (t0 + schedule[i][0] - t) / 1e9 - spin_s if i < n else 1.0
            for t_done, line in daemon.poll(wait if wait > 0 else 0.0):
                head = REPLY_HEAD.match(line)
                rid = int(head.group(1)) if head else -1
                if rid not in sent:
                    raise CheckFailed("response to unknown or repeated id %d" % rid)
                cell, due, at = sent.pop(rid)
                on_reply(cell, due, at, t_done, line, head)
        gc.enable()

    def check_reply(self, cell, line):
        if cell not in self.expected:
            self.fail("cell %d: answered, but no validated report to compare" % cell)
            return
        err = check_served(line, self.expected[cell], self.verified)
        if err:
            self.fail("cell %d: %s" % (cell, err))

    def closed_loop(self, daemon, cell, rid):
        """One request, answered before the next: (latency s, line)."""
        t0 = now()
        daemon.send(with_id(self.cells[cell], rid))
        t, line = daemon.wait_for(rid, t0 + 170 * 10**9)
        return (t - t0) / 1e9, line

    def discovery_round(self, daemon):
        """Every cell once, closed loop (a batch client asking for one GPU
        report after another); then the hit phase."""
        total = 0.0
        for cell in range(len(self.cells)):
            self.attempted += 1
            lat, line = self.closed_loop(daemon, cell, cell + 1)
            total += lat
            self.miss_lat.append(lat * 1e3)
            resp = json.loads(line)
            if not resp.get("ok") or resp.get("cached"):
                self.failed += 1
                self.fail("cell %d: not a fresh report: %r" % (cell, line[:160]))
                continue
            reply = self.ex.call("validate", cell, json.dumps(resp["report"]))
            if self.account(cell, reply):
                self.expected[cell] = resp["report"]
            else:
                self.failed += 1
        before = daemon.stats(10**6)
        schedule = poisson_schedule(self.rng, HIT_REQUESTS, HIT_RATE_HZ,
                                    lambda: self.rng.randrange(len(self.cells)))

        def on_reply(cell, due, sent, t, line, head):
            if head.group(3) != b"true":
                self.fail("cell %d: a re-query missed the cache" % cell)
            self.check_reply(cell, line)
            self.hit_lat.append((t - due) / 1e3)

        self.open_loop(daemon, schedule, 1000, on_reply, BUSY_POLL_S)
        self.diff_counters(before, daemon.stats(10**6 + 1))
        return total

    def diff_counters(self, before, after):
        for k in ("hits", "misses", "coalesced", "cache_evictions"):
            self.counters[k] = self.counters.get(k, 0) + after[k] - before[k]

    def serve_stream(self, daemon):
        """serve-zipf: direct reference runs, a warm-up pass, then the
        open-loop Zipf stream for --seconds."""
        passes = []
        for p in range(REFERENCE_PASSES):
            passes.append(0.0)
            for cell in range(len(self.cells)):
                reply, dt = self.ex.timed("reference", cell)
                passes[-1] += dt
                if p == 0 and not self.account(cell, reply):
                    raise CheckFailed("reference run of cell %d fails validation" % cell)
                if self.expected.setdefault(cell, reply["bytes"]) != reply["bytes"]:
                    raise CheckFailed("two direct runs of cell %d differ" % cell)
        # Warm the cache least popular first, so the popular cells stay.
        for k, cell in enumerate(reversed(range(len(self.cells)))):
            _, line = self.closed_loop(daemon, cell, k + 1)
            self.check_reply(cell, line)
        weights = [1.0 / (r + 1) ** ZIPF_EXPONENT for r in range(len(self.cells))]
        cells = range(len(self.cells))
        n = int(ZIPF_RATE_HZ * self.args.seconds)
        schedule = poisson_schedule(self.rng, n, ZIPF_RATE_HZ,
                                    lambda: self.rng.choices(cells, weights)[0])
        before = daemon.stats(10**6)
        last_miss_done = [0]

        def on_reply(cell, due, sent, t, line, head):
            self.attempted += 1
            err = check_served(line, self.expected[cell], self.verified)
            if err:
                self.failed += 1
                self.fail("cell %d: %s" % (cell, err))
                return
            if head.group(3) == b"true":
                self.hit_lat.append((t - due) / 1e3)
            elif head.group(4) == b"false":
                self.miss_lat.append((t - due) / 1e6)
                # One worker, FIFO: a miss starts when it was admitted or
                # when the previous miss finished, whichever is later.
                self.miss_wait.append(max(0, last_miss_done[0] - sent) / 1e6)
                last_miss_done[0] = t

        self.open_loop(daemon, schedule, 1000, on_reply)
        self.diff_counters(before, daemon.stats(10**6 + 1))
        return statistics.median(passes)

    def measure(self):
        """The untraced run: returns the end-to-end metrics. The discovery
        workloads do a fixed amount of work; --seconds sizes the
        serve-zipf stream only."""
        self.setup()
        daemon = Daemon(self.mt4g, self.cache_cap()).ready()
        if self.serve:
            self.discovery_s = self.serve_stream(daemon)
        else:
            self.discovery_s = self.discovery_round(daemon)
        rss = daemon.stop()
        return {
            "discovery_s": (self.discovery_s, "s"),
            "setup_s": (self.setup_s, "s"),
            "peak_rss_mib": (rss, "MiB"),
            "hit_p50_us": (pct(self.hit_lat, 50), "us"),
            "miss_p50_ms": (pct(self.miss_lat, 50), "ms"),
        }


# --- the traced pass and the per-layer replays --------------------------------

class Tracer:
    """Spans recorded around executor calls, kept in memory and written
    out when the run ends."""

    def __init__(self, ping_s):
        self.spans = []
        self.stack = []
        self.ping_s = ping_s

    def call(self, ex, name, trace_id, *fields, **attrs):
        """One executor call inside a span named `name`."""
        sid = len(self.spans)
        span = {"id": sid, "name": name, "trace": trace_id,
                "parent": self.stack[-1] if self.stack else None, "attrs": attrs}
        self.spans.append(span)
        span["start"] = now()
        reply = ex.call(*fields)
        span["end"] = now()
        return reply

    def open(self, name, trace_id, **attrs):
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name, "trace": trace_id,
                           "parent": self.stack[-1] if self.stack else None,
                           "attrs": attrs, "start": now()})
        self.stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid]["end"] = now()
        self.stack.pop()

    def self_times(self):
        """Span duration minus the part its children cover, in seconds,
        less one executor round trip for spans that are one call."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0) + s["end"] - s["start"]
        out = []
        for s in self.spans:
            d = (s["end"] - s["start"]) / 1e9
            if s["id"] in child:
                out.append(d - child[s["id"]] / 1e9)
            else:
                out.append(max(d - self.ping_s, 0.0))
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"spans": self.spans}, f)


UNIT_LABELS = ["nv.l1", "nv.texture", "nv.readonly", "nv.constant", "nv.l2", "nv.shared",
               "nv.sharing", "amd.vl1", "amd.sl1d", "amd.l2", "amd.l3", "amd.lds",
               "mem.device", "mem.tlb", "mem.l2contention", "mem.policy", "flops"]


def dep_closure(plan, u):
    """Every unit that unit `u` depends on, directly or not."""
    seen, stack = set(), list(plan[u]["deps"])
    while stack:
        d = stack.pop()
        if d not in seen:
            seen.add(d)
            stack.extend(plan[d]["deps"])
    return seen


def untraced_pass(run):
    """A direct `Job::run` of every cell in the executor, untraced: the
    baseline of trace.overhead_s. Its bytes must equal the measured run's,
    which on the discovery workloads are the daemon's."""
    total = 0.0
    for cell in range(len(run.cells)):
        reply, dt = run.ex.timed("run", cell)
        total += dt
        if not reply["identical"]:
            run.fail("cell %d: a direct run's bytes differ from the measured run's: %s"
                     % (cell, reply["diff"]))
    return total


def traced_pass(run, tracer):
    """Unit-by-unit discovery of every cell: resolve, plan, execute_plan per
    unit, merge, serialise; the bytes must equal the measured run's.
    Returns the traced total less the time units spend recomputing their
    dependencies, which a whole-plan run does once."""
    ex = run.ex
    unit_s = {label: 0.0 for label in UNIT_LABELS}
    counts = {"units": 0, "kernels": 0, "loads": 0}
    cells = []
    recomputed = 0.0
    for cell in range(len(run.cells)):
        root = tracer.open("cell", cell, line=run.cells[cell])
        cells.append(root)
        tracer.call(ex, "suite.resolve", cell, "resolve", cell)
        plan = tracer.call(ex, "suite.plan", cell, "plan", cell)["units"]
        own = {}
        for u, unit in enumerate(plan):
            sid = len(tracer.spans)
            r = tracer.call(ex, "suite.exec", cell, "unit", u, label=unit["label"])
            own[u] = (sid, r["wall_ns"] / 1e9)
            counts["units"] += 1
            counts["kernels"] += r["kernels"]
            counts["loads"] += r["loads"]
        tracer.call(ex, "suite.merge", cell, "merge")
        r = tracer.call(ex, "report.serialize", cell, "serialize")
        if not r["identical"]:
            run.fail("cell %d: unit-by-unit bytes differ from the measured run: %s"
                     % (cell, r["diff"]))
        tracer.close(root)
        # A unit with dependencies recomputes them inside its execute_plan
        # call, so its span covers them too; its own time is the per-unit
        # wall time execute_plan itself records (what --timings prints).
        selfs = tracer.self_times()
        for u, unit in enumerate(plan):
            sid, wall = own[u]
            t = wall if unit["deps"] else selfs[sid]
            # Deterministic units: a recomputation costs what the
            # dependency's own execute_plan call recorded.
            recomputed += sum(own[d][1] for d in dep_closure(plan, u))
            label = "flops" if unit["label"].startswith("flops.") else unit["label"]
            if label not in unit_s:
                run.fail("unit label %s has no metric" % label)
                continue
            unit_s[label] += t
    selfs = tracer.self_times()
    by_name = {}
    for s, t in zip(tracer.spans, selfs):
        by_name.setdefault(s["name"], []).append(t)
    traced_total = sum((tracer.spans[c]["end"] - tracer.spans[c]["start"]) / 1e9 for c in cells)
    return unit_s, counts, by_name, traced_total - recomputed


def per_call(ex, reps, *fields):
    """Median seconds per operation over `reps` timed batches."""
    samples = []
    for _ in range(reps):
        reply, dt = ex.timed(*fields)
        samples.append(dt / reply.get("ops", 1))
    return statistics.median(samples)


def serve_replays(run, tracer):
    """Serve-layer costs, measured in the executor over the workload's
    cells: parse, key, cache lookup, handle_line per class, write."""
    ex = run.ex
    n_cells = len(run.cells)
    m = {}
    m["serve.parse_us"] = per_call(ex, 3, "parse", 20000) * 1e6
    m["serve.key_us"] = per_call(ex, 3, "key", 20000) * 1e6
    m["serve.cache_get_us"] = per_call(ex, 3, "get", 50000) * 1e6
    m["serve.write_us"] = per_call(ex, 3, "write", 200) * 1e6
    ex.call("engine_start", n_cells)
    miss = []
    for cell in range(n_cells):
        tracer.call(ex, "serve.handle", cell, "handle", cell, cls="miss")
        miss.append(tracer.self_times()[-1])
    ex.call("drain", n_cells)
    batch = 100
    hit = []
    for _ in range(5):
        sid = len(tracer.spans)
        tracer.call(ex, "serve.handle", -1, "hits", batch, cls="hit", requests=batch)
        hit.append(tracer.self_times()[sid] / batch)
        ex.call("drain", batch)
    ex.call("engine_stop")
    m["serve.handle_us.miss"] = statistics.median(miss) * 1e6
    m["serve.handle_us.hit"] = statistics.median(hit) * 1e6
    return m


def sim_replays(ex):
    """Simulator, p-chase and statistics replays at H100-80 scale."""
    ns = 1e9
    m = {}
    m["sim.rng_u32_ns"] = (per_call(ex, 3, "rng", 4_000_000) * ns, "ns")
    m["sim.noise_draw_ns"] = (per_call(ex, 3, "noise", 1_000_000) * ns, "ns")
    ex.call("fa_prime")
    m["sim.cache_fa_ns.l2wrap"] = (per_call(ex, 3, "fa_laps", 3) * ns, "ns")
    ex.call("sa_prime")
    m["sim.cache_sa_ns.l1"] = (per_call(ex, 3, "sa_laps", 2000) * ns, "ns")
    ex.call("pchase_prep")
    m["pchase.ns_per_load.l2ring"] = (per_call(ex, 3, "pchase", "l2ring", 1) * ns, "ns")
    m["pchase.silent_ns_per_load.l2ring"] = (
        per_call(ex, 3, "pchase", "l2ring_silent", 1) * ns, "ns")
    m["pchase.ns_per_load.l1ring"] = (per_call(ex, 3, "pchase", "l1ring", 60) * ns, "ns")
    m["stats.ks_us"] = (per_call(ex, 3, "ks", 2000) * 1e6, "us")
    m["stats.cpd_ms"] = (per_call(ex, 3, "cpd", 2000) * 1e3, "ms")
    return m


def traced(run):
    pings = [run.ex.timed("ping")[1] for _ in range(50)]
    tracer = Tracer(statistics.median(pings))
    untraced_total = untraced_pass(run)
    unit_s, counts, by_name, traced_total = traced_pass(run, tracer)
    m = {
        "trace.overhead_s": (traced_total - untraced_total, "s"),
        "sim_gpu_s": (run.cycles_s, "sim_s"),
        "suite.resolve_us": (run.resolve_s / len(run.cells) * 1e6, "us"),
        "suite.units": (counts["units"], "count"),
        "suite.kernels": (counts["kernels"], "count"),
        "suite.loads": (counts["loads"], "count"),
        "suite.merge_ms": (sum(by_name.get("suite.merge", [])) * 1e3, "ms"),
        "report.serialize_ms": (sum(by_name.get("report.serialize", [])) * 1e3, "ms"),
    }
    for label in UNIT_LABELS:
        m["suite.unit_ms." + label] = (unit_s[label] * 1e3, "ms")
    for name, v in serve_replays(run, tracer).items():
        m[name] = (v, "us")
    m["serve.miss_wait_ms"] = (statistics.mean(run.miss_wait) if run.miss_wait else 0.0, "ms")
    m["serve.generator_late_p99_us"] = (pct(run.late, 99), "us")
    m["serve.hit_p90_us"] = (pct(run.hit_lat, 90), "us")
    m["serve.hit_p99_us"] = (pct(run.hit_lat, 99), "us")
    for k, name in (("hits", "serve.hits"), ("misses", "serve.misses"),
                    ("coalesced", "serve.coalesced"), ("cache_evictions", "serve.evictions")):
        m[name] = (run.counters.get(k, 0), "count")
    m.update(sim_replays(run.ex))
    tracer.write(os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (run.args.workload, run.args.seed)))
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    mt4g, exec_path = build()
    ex = Executor(exec_path)
    run = Run(args, mt4g, ex)
    try:
        e2e = run.measure()
        metrics = traced(run) if args.trace else e2e
    except CheckFailed as e:
        log("run aborted:", e)
        sys.exit(1)
    finally:
        for d in list(Daemon.live):
            d.p.kill()
            d.p.wait()
        ex.close()
    for name, (v, _) in metrics.items():
        log("%-36s %.6g" % (name, v))
    if run.errors:
        log("%d check(s) failed" % len(run.errors))
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
