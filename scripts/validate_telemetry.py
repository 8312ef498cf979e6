#!/usr/bin/env python3
"""Validate the telemetry artifacts a training run emits.

Usage:
    scripts/validate_telemetry.py RUN.jsonl [--trace TRACE.json]

RUN.jsonl is the --metrics_out run-record stream (DESIGN.md §6): one JSON
object per line, record types "run" / "epoch" / "increment", plus the
standalone kinds "selection" (selection_demo: one record per selector),
"selection_matrix" (selection_matrix: one record per experiment cell),
"serve" (serve_embeddings: one record per serving session), "cycle"
(one record per closed consolidation cycle, from stream_continual with mode
"stream" or learn_serve_daemon with mode "daemon": monotonic cycle indices
and accumulating sample totals per (strategy, source, trigger) cell, a
non-empty trigger cause, and ID/OOD accuracies in [0, 1], required in stream
mode), and "serve_timeseries" (the MetricsExporter tick stream: seq strictly
increasing from 0, with the machine-dependent payload under a closing
"perf" object). The validator
checks the schema of every record, the sequencing (a "run" header opens each
run; its declared increment and epoch counts match what follows), the paper
quantities (loss_components carries L_css everywhere and L_rpl for EDSR
replay increments; increment stats carry selection_trace_cov and
noise_scale_mean for EDSR), the serving invariants (mixed_responses must be
0 — a hot-swap never leaks a stale snapshot into a response), and the
determinism contract that "perf" — the only machine-dependent sub-object —
is the LAST key of every increment and serve record, so deterministic
readers can strip it by truncation.

--trace additionally validates a --trace_out file as Chrome trace-event JSON
(an object with a "traceEvents" list of complete "X" events carrying
name/ts/dur/pid/tid), the format Perfetto and chrome://tracing load.

--flight validates a crash flight-recorder dump (flight_<pid>.json from the
in-process signal handler, or scripts/flight_decode.py's output for a
kill -9): the "flight" record schema with strictly increasing event seqs,
known event kinds, and at most `capacity` surviving events.

Exits 0 and prints a one-line summary per run when everything checks out;
exits 1 with the offending line number otherwise.
"""

import argparse
import json
import sys


class ValidationError(Exception):
    pass


def require(cond, line_no, message):
    if not cond:
        raise ValidationError(f"line {line_no}: {message}")


def require_keys(rec, keys, line_no):
    for key in keys:
        require(key in rec, line_no, f"missing key {key!r}")


def is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


class RunState:
    """Tracks one run header and the records that follow it."""

    def __init__(self, rec, line_no):
        require_keys(rec, ["strategy", "seed", "increments", "epochs"], line_no)
        self.strategy = rec["strategy"]
        self.increments = rec["increments"]
        self.epochs = rec["epochs"]
        self.epoch_counts = {}  # increment -> epochs seen
        self.increment_records = 0

    def on_epoch(self, rec, line_no):
        require_keys(
            rec, ["strategy", "increment", "epoch", "batches", "loss",
                  "loss_components"], line_no)
        require(rec["strategy"] == self.strategy, line_no,
                f"epoch record strategy {rec['strategy']!r} does not match "
                f"run header {self.strategy!r}")
        inc, epoch = rec["increment"], rec["epoch"]
        require(0 <= inc < self.increments, line_no,
                f"increment {inc} out of range [0, {self.increments})")
        require(epoch == self.epoch_counts.get(inc, 0), line_no,
                f"epoch {epoch} out of order for increment {inc}")
        self.epoch_counts[inc] = epoch + 1
        require(is_num(rec["loss"]), line_no, "loss is not a number")
        components = rec["loss_components"]
        require(isinstance(components, dict), line_no,
                "loss_components is not an object")
        require("L_css" in components, line_no,
                "loss_components missing L_css")
        if self.strategy == "edsr" and inc > 0:
            require("L_rpl" in components, line_no,
                    "EDSR replay increment missing L_rpl component")
        if self.strategy == "cassle" and inc > 0:
            require("L_dis" in components, line_no,
                    "CaSSLe distillation increment missing L_dis component")
        for name, value in components.items():
            require(is_num(value), line_no,
                    f"loss component {name!r} is not a number")

    def on_increment(self, rec, raw_line, line_no):
        require_keys(rec, ["strategy", "increment", "stats", "accuracy",
                           "perf"], line_no)
        require(rec["strategy"] == self.strategy, line_no,
                "increment record strategy does not match run header")
        inc = rec["increment"]
        require(inc == self.increment_records, line_no,
                f"increment record {inc} out of order "
                f"(expected {self.increment_records})")
        require(self.epoch_counts.get(inc, 0) == self.epochs, line_no,
                f"increment {inc} has {self.epoch_counts.get(inc, 0)} epoch "
                f"records, run header declared {self.epochs}")
        self.increment_records += 1

        stats = rec["stats"]
        require(isinstance(stats, dict), line_no, "stats is not an object")
        if self.strategy == "edsr":
            for key in ("selection_trace_cov", "noise_scale_mean",
                        "selected", "memory_size"):
                require(key in stats, line_no, f"EDSR stats missing {key!r}")
            require(stats["selection_trace_cov"] >= 0.0, line_no,
                    "selection_trace_cov is negative (it is a sum of squared "
                    "representation norms)")

        accuracy = rec["accuracy"]
        require(isinstance(accuracy, dict), line_no,
                "accuracy is not an object")
        require_keys(accuracy, ["row", "acc", "fgt"], line_no)
        row = accuracy["row"]
        require(isinstance(row, list) and len(row) == inc + 1, line_no,
                f"accuracy row must list the {inc + 1} tasks seen so far")
        for value in row + [accuracy["acc"], accuracy["fgt"]]:
            require(is_num(value), line_no, "accuracy value is not a number")

        perf = rec["perf"]
        require(isinstance(perf, dict), line_no, "perf is not an object")
        require_keys(perf, ["train_seconds", "eval_seconds", "metrics"],
                     line_no)
        # The determinism contract: perf is the only machine-dependent
        # sub-object and must be the record's last key, so deterministic
        # readers can strip it by truncating the raw line at ',"perf"'.
        require(list(rec.keys())[-1] == "perf", line_no,
                "perf must be the last key of an increment record")
        require(raw_line.rstrip().endswith("}}"), line_no,
                "increment record does not end with the perf object")

    def finish(self, line_no):
        require(self.increment_records == self.increments, line_no,
                f"run declared {self.increments} increments but has "
                f"{self.increment_records} increment records")


def validate_selection(rec, line_no):
    """A selection_demo record: one selector's picks on one increment."""
    require_keys(rec, ["selector", "budget", "trace_cov", "picks",
                       "class_coverage"], line_no)
    require(isinstance(rec["selector"], str), line_no,
            "selector is not a string")
    require(is_num(rec["budget"]) and rec["budget"] > 0, line_no,
            "budget is not a positive number")
    require(is_num(rec["trace_cov"]) and rec["trace_cov"] >= 0.0, line_no,
            "trace_cov is negative (it is a sum of squared "
            "representation norms)")
    picks = rec["picks"]
    require(isinstance(picks, list), line_no, "picks is not a list")
    require(len(picks) <= rec["budget"], line_no,
            f"{len(picks)} picks exceed the budget of {rec['budget']}")
    for value in picks:
        require(is_num(value) and value >= 0, line_no,
                "pick is not a non-negative index")
    coverage = rec["class_coverage"]
    require(isinstance(coverage, list), line_no,
            "class_coverage is not a list")
    for value in coverage:
        require(is_num(value) and value >= 0, line_no,
                "class_coverage entry is not a non-negative count")
    require(sum(coverage) == len(picks), line_no,
            "class_coverage does not sum to the number of picks")


def validate_selection_matrix(rec, raw_line, line_no):
    """A selection_matrix record: one (selector, retrieval, preset, budget)
    cell run end-to-end through EDSR."""
    require_keys(rec, ["selector", "retrieval", "preset", "budget", "seed",
                       "epochs", "increments", "final_acc", "final_fgt",
                       "trace_cov", "memory_size", "perf"], line_no)
    for key in ("selector", "retrieval", "preset"):
        require(isinstance(rec[key], str) and rec[key], line_no,
                f"{key} is not a non-empty string")
    require(is_num(rec["budget"]) and rec["budget"] > 0, line_no,
            "budget is not a positive number")
    for key in ("epochs", "increments"):
        require(is_num(rec[key]) and rec[key] > 0, line_no,
                f"{key} is not a positive number")
    require(is_num(rec["final_acc"]) and 0.0 <= rec["final_acc"] <= 1.0,
            line_no, "final_acc must lie in [0, 1]")
    require(is_num(rec["final_fgt"]) and -1.0 <= rec["final_fgt"] <= 1.0,
            line_no, "final_fgt must lie in [-1, 1]")
    require(is_num(rec["trace_cov"]) and rec["trace_cov"] >= 0.0, line_no,
            "trace_cov is negative (it is a sum of squared "
            "representation norms)")
    require(is_num(rec["memory_size"]) and
            rec["memory_size"] <= rec["budget"] * rec["increments"], line_no,
            "memory_size exceeds budget * increments")
    perf = rec["perf"]
    require(isinstance(perf, dict), line_no, "perf is not an object")
    require_keys(perf, ["train_seconds", "eval_seconds"], line_no)
    # Same determinism contract as increment/serve records: perf is the only
    # machine-dependent sub-object and must close the record.
    require(list(rec.keys())[-1] == "perf", line_no,
            "perf must be the last key of a selection_matrix record")
    require(raw_line.rstrip().endswith("}}"), line_no,
            "selection_matrix record does not end with the perf object")


def validate_serve(rec, raw_line, line_no):
    """A serve_embeddings record: one serving session's traffic summary."""
    require_keys(rec, ["snapshot_id", "requests", "ok", "dropped",
                       "mixed_responses", "cache", "perf"], line_no)
    for key in ("snapshot_id", "requests", "ok", "dropped",
                "mixed_responses", "swaps"):
        if key in rec:
            require(is_num(rec[key]) and rec[key] >= 0, line_no,
                    f"{key} is not a non-negative number")
    require(rec["mixed_responses"] == 0, line_no,
            "mixed_responses must be 0 (a hot-swap leaked a stale "
            "snapshot into a response)")
    require(rec["ok"] + rec["dropped"] <= rec["requests"], line_no,
            "ok + dropped exceeds total requests")
    cache = rec["cache"]
    require(isinstance(cache, dict), line_no, "cache is not an object")
    require_keys(cache, ["size", "capacity"], line_no)
    perf = rec["perf"]
    require(isinstance(perf, dict), line_no, "perf is not an object")
    # Same determinism contract as increment records: perf (latencies,
    # throughput, registry snapshot) is the only machine-dependent
    # sub-object and must close the record.
    require(list(rec.keys())[-1] == "perf", line_no,
            "perf must be the last key of a serve record")
    require(raw_line.rstrip().endswith("}}"), line_no,
            "serve record does not end with the perf object")


def validate_cycle(rec, raw_line, line_no, cycle_cells):
    """A "cycle" record: one closed consolidation cycle of the stream driver
    (mode "stream", stream_continual) or the learn-serve daemon (mode
    "daemon"). `cycle_cells` maps (strategy, source, trigger) -> (next
    cycle, last total), keeping per-cell cycle indices monotonic and totals
    accumulating — a daemon JSONL rewritten after a crash must replay the
    identical sequence. Stream cycles carry ID/OOD probe accuracies; the
    daemon never sees ground truth, so its records have none."""
    require_keys(rec, ["mode", "strategy", "source", "trigger", "cycle",
                       "cause", "samples", "micro_batches", "total_samples",
                       "loss", "drift", "buffer", "perf"], line_no)
    require(rec["mode"] in ("stream", "daemon"), line_no,
            f"unknown cycle mode {rec['mode']!r}")
    for key in ("strategy", "source", "trigger", "cause"):
        require(isinstance(rec[key], str) and rec[key], line_no,
                f"{key} is not a non-empty string")
    cell = (rec["strategy"], rec["source"], rec["trigger"])
    expected_cycle, last_total = cycle_cells.get(cell, (0, 0))
    require(rec["cycle"] == expected_cycle, line_no,
            f"cycle {rec['cycle']} out of order for cell {cell} "
            f"(expected {expected_cycle})")
    for key in ("samples", "micro_batches"):
        require(is_num(rec[key]) and rec[key] > 0, line_no,
                f"{key} is not a positive number")
    require(is_num(rec["total_samples"]) and
            rec["total_samples"] == last_total + rec["samples"], line_no,
            f"total_samples {rec['total_samples']} does not accumulate "
            f"(previous {last_total} + samples {rec['samples']})")
    cycle_cells[cell] = (expected_cycle + 1, rec["total_samples"])
    require(is_num(rec["loss"]), line_no, "loss is not a number")
    # drift is the fire-time probe value; negative means never probed (count
    # triggers, cold-start cycles without buffer anchors).
    require(is_num(rec["drift"]), line_no, "drift is not a number")
    buffer = rec["buffer"]
    require(isinstance(buffer, dict), line_no, "buffer is not an object")
    require_keys(buffer, ["size", "entropy"], line_no)
    require(is_num(buffer["size"]) and buffer["size"] >= 0, line_no,
            "buffer size is not a non-negative number")
    require(is_num(buffer["entropy"]) and buffer["entropy"] >= 0.0, line_no,
            "buffer composition entropy is negative")
    if rec["mode"] == "stream":
        require("accuracy" in rec, line_no,
                "stream cycle missing its accuracy probes")
    if "accuracy" in rec:
        accuracy = rec["accuracy"]
        require(isinstance(accuracy, dict), line_no,
                "accuracy is not an object")
        if rec["mode"] == "stream":
            require("id" in accuracy, line_no,
                    "accuracy missing the ID probe")
        for key, value in accuracy.items():
            require(is_num(value) and 0.0 <= value <= 1.0, line_no,
                    f"accuracy {key!r} must lie in [0, 1]")
    perf = rec["perf"]
    require(isinstance(perf, dict), line_no, "perf is not an object")
    require_keys(perf, ["train_seconds", "eval_seconds"], line_no)
    # Same determinism contract as increment/serve records: perf is the only
    # machine-dependent sub-object and must close the record.
    require(list(rec.keys())[-1] == "perf", line_no,
            "perf must be the last key of a cycle record")
    require(raw_line.rstrip().endswith("}}"), line_no,
            "cycle record does not end with the perf object")


def validate_serve_timeseries(rec, raw_line, line_no, ts_state):
    """A MetricsExporter tick: the only deterministic field is seq, which
    must count up from 0; everything machine-dependent closes the record
    under "perf". A seq of 0 mid-file starts a new series (a restarted
    process appending to the same file)."""
    require_keys(rec, ["seq", "perf"], line_no)
    seq = rec["seq"]
    require(is_num(seq) and seq >= 0, line_no,
            "seq is not a non-negative number")
    expected = ts_state.get("next", 0)
    require(seq == expected or seq == 0, line_no,
            f"serve_timeseries seq {seq} out of order (expected {expected} "
            f"or a restart at 0)")
    ts_state["next"] = seq + 1
    perf = rec["perf"]
    require(isinstance(perf, dict), line_no, "perf is not an object")
    require_keys(perf, ["ts_ms", "uptime_ms", "metrics"], line_no)
    require(isinstance(perf["metrics"], dict), line_no,
            "perf.metrics is not an object")
    # Same determinism contract as increment/serve records.
    require(list(rec.keys())[-1] == "perf", line_no,
            "perf must be the last key of a serve_timeseries record")
    require(raw_line.rstrip().endswith("}}"), line_no,
            "serve_timeseries record does not end with the perf object")


FLIGHT_KINDS = {1: "mark", 2: "request", 3: "response", 4: "metric",
                5: "signal"}


def validate_flight(path):
    """A flight dump: the signal handler's flight_<pid>.json, or the
    decoder's reconstruction of flight_<pid>.bin after kill -9. Both paths
    emit the identical schema, so one validator covers both deaths."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: invalid JSON: {e}")
    if not isinstance(doc, dict) or doc.get("record") != "flight":
        raise ValidationError(f"{path}: not a flight record")
    for key in ("pid", "capacity", "start_ts_us", "events_recorded",
                "events"):
        if key not in doc:
            raise ValidationError(f"{path}: missing key {key!r}")
    capacity = doc["capacity"]
    if not (is_num(capacity) and capacity >= 1):
        raise ValidationError(f"{path}: capacity must be a positive number")
    events = doc["events"]
    if not isinstance(events, list):
        raise ValidationError(f"{path}: events is not a list")
    if len(events) > capacity:
        raise ValidationError(
            f"{path}: {len(events)} events exceed ring capacity {capacity}")
    if doc["events_recorded"] < len(events):
        raise ValidationError(
            f"{path}: events_recorded {doc['events_recorded']} is less than "
            f"the {len(events)} surviving events")
    last_seq = -1
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValidationError(f"{path}: event {i} is not an object")
        for key in ("seq", "ts_us", "kind", "tid", "name", "a", "b"):
            if key not in event:
                raise ValidationError(f"{path}: event {i} missing {key!r}")
        if event["kind"] not in FLIGHT_KINDS:
            raise ValidationError(
                f"{path}: event {i} has unknown kind {event['kind']!r}")
        # Strictly increasing: torn slots are skipped, never duplicated.
        if event["seq"] <= last_seq:
            raise ValidationError(
                f"{path}: event {i} seq {event['seq']} not strictly "
                f"increasing (previous {last_seq})")
        last_seq = event["seq"]
    return len(events)


def validate_run_records(path):
    runs = []
    standalone = {"selection": 0, "selection_matrix": 0, "serve": 0,
                  "cycle": 0, "serve_timeseries": 0}
    cycle_cells = {}
    ts_state = {}
    current = None
    line_no = 0
    with open(path, "r", encoding="utf-8") as f:
        for line_no, raw in enumerate(f, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as e:
                raise ValidationError(f"line {line_no}: invalid JSON: {e}")
            require(isinstance(rec, dict), line_no, "record is not an object")
            require("record" in rec, line_no, "missing 'record' type key")
            kind = rec["record"]
            if kind == "run":
                if current is not None:
                    current.finish(line_no)
                current = RunState(rec, line_no)
                runs.append(current)
            elif kind == "epoch":
                require(current is not None, line_no,
                        "epoch record before any run header")
                current.on_epoch(rec, line_no)
            elif kind == "increment":
                require(current is not None, line_no,
                        "increment record before any run header")
                current.on_increment(rec, raw, line_no)
            elif kind == "selection":
                validate_selection(rec, line_no)
                standalone["selection"] += 1
            elif kind == "selection_matrix":
                validate_selection_matrix(rec, raw, line_no)
                standalone["selection_matrix"] += 1
            elif kind == "serve":
                validate_serve(rec, raw, line_no)
                standalone["serve"] += 1
            elif kind == "cycle":
                validate_cycle(rec, raw, line_no, cycle_cells)
                standalone["cycle"] += 1
            elif kind == "serve_timeseries":
                validate_serve_timeseries(rec, raw, line_no, ts_state)
                standalone["serve_timeseries"] += 1
            else:
                raise ValidationError(
                    f"line {line_no}: unknown record type {kind!r}")
    require(runs or any(standalone.values()), line_no, "no records found")
    if current is not None:
        current.finish(line_no)
    return runs, standalone


def validate_trace(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: invalid JSON: {e}")
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValidationError(f"{path}: not a trace-event JSON object")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValidationError(f"{path}: traceEvents is not a list")
    complete = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValidationError(f"{path}: event {i} is not an object")
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                raise ValidationError(f"{path}: event {i} missing {key!r}")
        if event["ph"] == "X":
            complete += 1
            if "dur" not in event or not is_num(event["dur"]):
                raise ValidationError(
                    f"{path}: complete event {i} missing numeric 'dur'")
    if complete == 0:
        raise ValidationError(f"{path}: no complete ('X') events recorded")
    return complete


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("run_records", help="--metrics_out JSONL file")
    parser.add_argument("--trace", default=None,
                        help="--trace_out Chrome trace JSON file")
    parser.add_argument("--flight", default=None,
                        help="flight_<pid>.json dump (or flight_decode.py "
                        "output) to validate")
    args = parser.parse_args()

    try:
        runs, standalone = validate_run_records(args.run_records)
        for run in runs:
            print(f"{args.run_records}: run strategy={run.strategy} "
                  f"increments={run.increments} epochs={run.epochs} OK")
        for kind, count in standalone.items():
            if count:
                print(f"{args.run_records}: {count} {kind} record(s) OK")
        if args.trace is not None:
            events = validate_trace(args.trace)
            print(f"{args.trace}: {events} complete trace events OK")
        if args.flight is not None:
            events = validate_flight(args.flight)
            print(f"{args.flight}: {events} flight events OK")
    except ValidationError as e:
        print(f"validate_telemetry: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
