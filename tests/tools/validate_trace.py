#!/usr/bin/env python3
"""ctest `obs_trace_valid`: end-to-end check of the observability exports.

Runs a short observed fig7 replication through the adhocsim CLI, then
validates that
  * the Chrome trace JSON parses and timestamps are monotonic per
    (pid, tid) track, with the metadata tracks the Perfetto UI needs;
  * the metrics snapshot parses and carries MAC counters, transport/PHY
    components, the scheduler profile, and trace-health gauges.

A second run adds a --fault-plan and validates the fault_* track: every
fault event rides the "fault" layer with monotonic timestamps, start/end
kinds alternate per track (an end may be cut off by the horizon), and
the "faults" metrics component accounts for the scheduled events.
A third run at --obs-level journeys validates the causal packet-journey
exports: every Chrome-trace flow arrow (ph s/t/f) binds to an emitted X
slice at its exact (pid, tid, ts), every arrow step and finish follows a
start with the same id, the journey CSV carries the pinned schema with
one row per journey id and exactly one terminal bucket each, the
metrics ledger balances, and a rerun reproduces the CSV byte-for-byte.
Finally, the CLI contract: unknown --scenario and malformed --fault-plan
must exit non-zero with messages listing the valid names / grammar; the
removed pre-campaign verbs exit 1 with the usage text; and every
`adhocsim <verb>` in a fenced shell block of README.md or EXPERIMENTS.md
names a verb the usage lists.

Usage: validate_trace.py <adhocsim-binary> <scratch-dir>
"""

import json
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
REMOVED_VERBS = ("table2", "two-node", "four-station", "range", "saturation", "delay")
SHELL_FENCES = {"sh", "bash", "shell", "console"}


def fail(msg: str) -> None:
    print(f"obs_trace_valid: FAIL: {msg}")
    sys.exit(1)


def doc_cli_verbs(path: pathlib.Path) -> list:
    """(line, verb) for each `adhocsim <verb>` inside the fenced shell
    blocks of a Markdown file."""
    found = []
    fence = None
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        m = re.match(r"\s*```(\S*)", line)
        if m:
            fence = m.group(1) if fence is None else None
        elif fence in SHELL_FENCES:
            found += [(lineno, v) for v in re.findall(r"\badhocsim[ \t]+([a-z][\w-]*)", line)]
    return found


def main() -> None:
    if len(sys.argv) != 3:
        fail(f"usage: {sys.argv[0]} <adhocsim> <scratch-dir>")
    adhocsim, scratch = sys.argv[1], pathlib.Path(sys.argv[2])
    scratch.mkdir(parents=True, exist_ok=True)
    trace_path = scratch / "trace.json"
    metrics_path = scratch / "metrics.json"

    cmd = [
        adhocsim, "run", "--scenario", "fig7", "--seconds", "1",
        "--trace-json", str(trace_path), "--metrics", str(metrics_path),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")

    # --- trace: valid JSON, monotonic per track, named tracks ------------
    with open(trace_path) as f:
        trace = json.load(f)
    events = trace["traceEvents"]
    if not events:
        fail("trace has no events")
    last_ts = {}
    phases = set()
    for e in events:
        phases.add(e["ph"])
        if "ts" not in e:
            continue
        key = (e["pid"], e["tid"])
        if e["ts"] < last_ts.get(key, float("-inf")):
            fail(f"non-monotonic ts on track {key}: {e}")
        last_ts[key] = e["ts"]
    if "M" not in phases:
        fail("no metadata events (process/thread names)")
    if not ({"X", "i"} & phases):
        fail("no duration or instant events")
    names = {e["args"]["name"] for e in events if e["ph"] == "M"}
    if "sta0" not in names or "mac" not in names or "phy" not in names:
        fail(f"missing track names, got {sorted(names)}")

    # --- metrics: components + scheduler profile + trace health ---------
    with open(metrics_path) as f:
        doc = json.load(f)
    metrics = doc["metrics"]
    for component in ("mac.sta0", "mac.sta3", "phy.sta0", "scheduler", "trace"):
        if component not in metrics:
            fail(f"metrics missing component '{component}', got {sorted(metrics)}")
    if metrics["mac.sta0"].get("tx_data", 0) <= 0:
        fail("mac.sta0.tx_data not positive")
    sched = metrics["scheduler"]
    for key in ("total_executed", "queue_high_water", "events_per_sec", "wall_ms"):
        if key not in sched:
            fail(f"scheduler profile missing '{key}'")
    health = metrics["trace"]
    if health["recorded"] != health["retained"] + health["dropped"]:
        fail(f"trace health inconsistent: {health}")

    # --- faulted run: fault_* track + accounting -------------------------
    fault_trace = scratch / "fault_trace.json"
    fault_metrics = scratch / "fault_metrics.json"
    plan = ("jam start=0.7 dur=0.4 x=66 y=15 power=15; off node=3 at=0.9; "
            "on node=3 at=1.2; blackout a=0 b=1 start=0.6 end=0.8")
    cmd = [
        adhocsim, "run", "--scenario", "fig7", "--seconds", "1",
        "--fault-plan", plan,
        "--trace-json", str(fault_trace), "--metrics", str(fault_metrics),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail(f"faulted run exited {proc.returncode}: {proc.stderr}")

    with open(fault_trace) as f:
        fevents = json.load(f)["traceEvents"]
    fault_events = [e for e in fevents
                    if e.get("ph") == "i" and e.get("name", "").startswith("fault_")]
    if not fault_events:
        fail("faulted run produced no fault_* events")
    # Per-track timeline: monotonic, with start/end kinds strictly
    # alternating (a trailing start is legal — the horizon may cut the
    # end off; not with this plan, where every window closes in time).
    # An emitter's ordinal and a node id may share a numeric track, so
    # windows pair up per (track, event family), not per raw track.
    pairs = {
        "fault_interference_start": "fault_interference_end",
        "fault_node_off": "fault_node_on",
        "fault_blackout_start": "fault_blackout_end",
    }
    family = {}
    for start, end in pairs.items():
        stem = start.rsplit("_", 1)[0]
        family[start] = stem
        family[end] = stem
    timelines = {}
    for e in fault_events:
        if e["name"] not in family:
            continue
        timelines.setdefault((e["pid"], e["tid"], family[e["name"]]), []).append(e)
    starts = set(pairs)
    for key, timeline in timelines.items():
        open_start = None
        last = float("-inf")
        for e in timeline:
            if e["ts"] < last:
                fail(f"fault track {key}: non-monotonic ts at {e}")
            last = e["ts"]
            if e["name"] in starts:
                if open_start is not None:
                    fail(f"fault track {key}: '{e['name']}' while '{open_start}' still open")
                open_start = e["name"]
            else:
                if open_start is None or pairs[open_start] != e["name"]:
                    fail(f"fault track {key}: unmatched end '{e['name']}'")
                open_start = None
        if open_start is not None:
            fail(f"fault track {key}: '{open_start}' never closed before the horizon")

    with open(fault_metrics) as f:
        fdoc = json.load(f)["metrics"]
    if "faults" not in fdoc:
        fail(f"faulted run metrics missing 'faults' component, got {sorted(fdoc)}")
    acct = fdoc["faults"]
    expect = {"events_scheduled": 4, "interference_bursts": 1, "node_off": 1,
              "node_on": 1, "blackouts": 1}
    for key, want in expect.items():
        if acct.get(key) != want:
            fail(f"faults.{key} = {acct.get(key)}, expected {want} ({acct})")

    # --- journeys run: flow-arrow integrity + CSV ledger -----------------
    jtrace = scratch / "journey_trace.json"
    jmetrics = scratch / "journey_metrics.json"
    jcsv = scratch / "journeys.csv"
    cmd = [
        adhocsim, "run", "--scenario", "fig7", "--seconds", "1",
        "--obs-level", "journeys", "--trace-json", str(jtrace),
        "--metrics", str(jmetrics), "--journeys", str(jcsv),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail(f"journeys run exited {proc.returncode}: {proc.stderr}")
    if "ledger balanced" not in proc.stdout:
        fail(f"journeys run did not report a balanced ledger:\n{proc.stdout}")

    with open(jtrace) as f:
        jevents = json.load(f)["traceEvents"]
    slices = {(e["pid"], e["tid"], e["ts"])
              for e in jevents if e.get("ph") == "X"}
    flows = [e for e in jevents
             if e.get("cat") == "journey" and e.get("ph") in ("s", "t", "f")]
    if not flows:
        fail("journeys run emitted no flow events")
    started = set()
    finished = set()
    for e in flows:
        key = (e["pid"], e["tid"], e["ts"])
        if key not in slices:
            fail(f"flow arrow not bound to an emitted X slice: {e}")
        if e["ph"] == "s":
            if e["id"] in started:
                fail(f"journey {e['id']}: second 's' arrow: {e}")
            started.add(e["id"])
        elif e["id"] not in started:
            fail(f"flow '{e['ph']}' before 's' for journey {e['id']}: {e}")
        if e["ph"] == "f":
            if e.get("bp") != "e":
                fail(f"'f' arrow without bp=e (won't bind enclosing slice): {e}")
            if e["id"] in finished:
                fail(f"journey {e['id']}: second 'f' arrow: {e}")
            finished.add(e["id"])

    # CSV: pinned schema, one row per journey, one terminal bucket each.
    expected_header = (
        "journey_id,proto,flow_port,src,dst,bytes,minted_ns,terminal,"
        "terminal_ns,hops,attempts,retransmits,buffer_ns,queue_ns,"
        "contend_ns,airtime_ns,retry_ns,other_ns")
    csv_text = jcsv.read_text()
    lines = csv_text.splitlines()
    if not lines or lines[0] != expected_header:
        fail(f"journey CSV header drifted: {lines[:1]}")
    terminals = {"in_flight", "delivered", "dropped_retry_limit",
                 "dropped_buffer", "dropped_radio_off", "dropped_blackout"}
    n_cols = len(expected_header.split(","))
    seen_rows = set()
    bucket_counts = {}
    for lineno, line in enumerate(lines[1:], start=2):
        cols = line.split(",")
        if len(cols) != n_cols:
            fail(f"journeys.csv:{lineno}: {len(cols)} columns, want {n_cols}")
        jid, terminal = cols[0], cols[7]
        if jid in seen_rows:
            fail(f"journeys.csv:{lineno}: journey {jid} has two rows "
                 f"(terminal bucket must be unique)")
        seen_rows.add(jid)
        if terminal not in terminals:
            fail(f"journeys.csv:{lineno}: unknown terminal {terminal!r}")
        bucket_counts[terminal] = bucket_counts.get(terminal, 0) + 1
    if not seen_rows:
        fail("journey CSV has no rows")

    # Ledger (metrics gauges) must balance; with sampling off and no
    # ring overwrites the CSV rows are the ledger.
    with open(jmetrics) as f:
        jdoc = json.load(f)["metrics"]
    ledger = jdoc.get("journey")
    if ledger is None:
        fail(f"journeys run metrics missing 'journey' component: {sorted(jdoc)}")
    drops = (ledger["dropped_retry_limit"] + ledger["dropped_buffer"] +
             ledger["dropped_radio_off"] + ledger["dropped_blackout"])
    if ledger["minted"] != ledger["delivered"] + drops + ledger["in_flight"]:
        fail(f"journey ledger does not balance: {ledger}")
    if ledger["balanced"] != 1:
        fail(f"journey ledger balanced gauge not set: {ledger}")
    if ledger["journey_dropped"] == 0 and len(seen_rows) != ledger["minted"]:
        fail(f"CSV rows {len(seen_rows)} != minted {ledger['minted']} "
             f"with no ring overwrites")
    if bucket_counts.get("delivered", 0) != ledger["delivered"]:
        fail(f"CSV delivered {bucket_counts.get('delivered')} != ledger "
             f"{ledger['delivered']}")

    # Rerun: the journey CSV is part of the byte-stability contract.
    rerun_csv = scratch / "journeys_rerun.csv"
    rerun = [adhocsim, "run", "--scenario", "fig7", "--seconds", "1",
             "--obs-level", "journeys", "--journeys", str(rerun_csv)]
    proc = subprocess.run(rerun, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail(f"journeys rerun exited {proc.returncode}: {proc.stderr}")
    if rerun_csv.read_text() != csv_text:
        fail("journey CSV not byte-stable across reruns")

    # --- CLI contract: bad inputs fail loudly and helpfully --------------
    proc = subprocess.run([adhocsim, "run", "--scenario", "bogus"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode == 0:
        fail("unknown --scenario exited 0")
    if "two-node" not in proc.stderr or "fig12" not in proc.stderr:
        fail(f"unknown --scenario error does not list valid names: {proc.stderr}")

    proc = subprocess.run([adhocsim, "run", "--fault-plan", "jam start=oops"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode == 0:
        fail("malformed --fault-plan exited 0")
    if "jam start=<s>" not in proc.stderr or "midrun-jam" not in proc.stderr:
        fail(f"malformed --fault-plan error lacks grammar/builtins: {proc.stderr}")

    proc = subprocess.run([adhocsim, "campaign", "--grid", "nope"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode == 0:
        fail("unknown --grid exited 0")
    if "faults" not in proc.stderr:
        fail(f"unknown --grid error does not list valid names: {proc.stderr}")

    # Usage is the verb list: two-space-indented command names.
    proc = subprocess.run([adhocsim], capture_output=True, text=True, timeout=60)
    verbs = set(re.findall(r"^  ([a-z][\w-]*)", proc.stdout, re.M))
    if proc.returncode != 0 or not {"run", "campaign", "serve", "submit"} <= verbs:
        fail(f"bare adhocsim exited {proc.returncode}; usage verbs {sorted(verbs)}")
    for verb in REMOVED_VERBS:
        if verb in verbs:
            fail(f"usage still lists removed verb '{verb}'")
        proc = subprocess.run([adhocsim, verb], capture_output=True, text=True, timeout=60)
        if proc.returncode != 1 or "adhocsim <command>" not in proc.stdout:
            fail(f"removed verb '{verb}' exited {proc.returncode} without printing usage")
    doc_lines = 0
    for doc in ("README.md", "EXPERIMENTS.md"):
        for lineno, verb in doc_cli_verbs(REPO / doc):
            doc_lines += 1
            if verb not in verbs:
                fail(f"{doc}:{lineno}: 'adhocsim {verb}' is not in adhocsim's usage "
                     f"({sorted(verbs)})")
    if doc_lines == 0:
        fail("no adhocsim command lines found in README.md / EXPERIMENTS.md shell blocks")

    print(f"obs_trace_valid: OK ({len(events)} trace events, "
          f"{len(last_ts)} tracks, {len(metrics)} metric components, "
          f"{len(fault_events)} fault events on {len(timelines)} tracks, "
          f"{len(seen_rows)} journeys ledgered, {len(flows)} flow arrows)")


if __name__ == "__main__":
    main()
