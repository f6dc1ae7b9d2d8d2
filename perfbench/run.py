"""clpbn benchmark: one closed-loop client in one thread.

The client sends the next operation only after the previous one returns,
as the CLI, the REPL and library callers do. Each operation is checked by
its workload's oracle outside the timed region; an operation that raises,
runs past the per-operation time limit or fails its oracle counts as failed.

    python3 perfbench/run.py --workload chain_query --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics, from a run that executes each operation once untraced
and once traced and writes its spans to perfbench/traces/. ``--all`` runs
both modes of every workload, each in a fresh process, and writes the
combined results to perfbench/out/.
"""

from __future__ import annotations

import os

# One process, one thread: numpy must not start a BLAS or OpenMP pool.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_BURSTS = 8  # set-up is timed in this many bursts spread over the run
SETUP_BURST_SECONDS = 0.03
OP_TIME_LIMIT = 10.0  # seconds; a failed operation counts as this slow
MAX_RUN_WALL = 150.0  # seconds, oracles and set-up included
TAIL_BEYOND = 10  # the tail percentile keeps this many operations above it


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"no answer within {OP_TIME_LIMIT:g} s")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_clpbn():
    """Import clpbn from this checkout's source tree, never from elsewhere."""
    if not (SRC / "clpbn" / "__init__.py").is_file():
        sys.exit(f"benchmark: no clpbn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import clpbn

    if Path(clpbn.__file__).resolve().parent != SRC / "clpbn":
        sys.exit(f"benchmark: imported clpbn from {clpbn.__file__}, not {SRC}")


# --- one operation ------------------------------------------------------------------------


def attempt(wl, state, op, tr, op_id):
    """Run one operation under the time limit. Returns (seconds, result, error)."""
    tr.op = op_id
    result, err = None, None
    signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT)
    t0 = time.perf_counter()
    try:
        with tr.span("op"):
            result = wl.run(state, op, tr)
    except OpTimeout as e:
        err = str(e)
    except Exception as e:  # any failure of the program counts; the loop goes on
        err = f"{type(e).__name__}: {e}"
    finally:
        dt = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return dt, result, err


def check(wl, state, op, result):
    try:
        return wl.check(state, op, result)
    except Exception as e:
        return f"oracle raised {type(e).__name__}: {e}"


# --- statistics ---------------------------------------------------------------------------


def tail_latency(lat: list[float]) -> tuple[float, int]:
    """Latency at the highest whole percentile with TAIL_BEYOND operations
    beyond it (nearest rank), and that percentile."""
    s = sorted(lat)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return s[rank - 1], pct


def growth_exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size); 0 without two sizes."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


# --- one workload ---------------------------------------------------------------------------


def set_up(wl, tr):
    """One burst of set-ups: repeated until SETUP_BURST_SECONDS is spent.

    Each repetition starts from a fresh collection with the previous state
    dropped, so when the cyclic garbage collector runs depends on the
    set-up's own allocations, not on what came before.
    """
    times = []
    state = None
    while sum(times) < SETUP_BURST_SECONDS:
        state = None
        gc.collect()
        tr.op = "setup"
        t0 = time.perf_counter()
        state = wl.setup(tr)
        times.append(time.perf_counter() - t0)
    tr.op = None
    gc.collect()
    return state, times


def measure(wl, seconds: float, traced: bool):
    """The closed loop. Untraced, it runs operations until their timed
    total reaches ``seconds``. Traced, it runs each operation twice, once
    with and once without spans (alternating which goes first), until both
    together reach ``seconds``. The state of the first set-up burst serves
    every operation."""
    null = NullTracer()
    tr = Tracer() if traced else null
    state, setup_times = set_up(wl, tr)
    bursts = 1
    ops = []
    timed = 0.0
    deadline = time.monotonic() + min(MAX_RUN_WALL, 4 * seconds + 30)
    i = 0
    while timed < seconds and time.monotonic() < deadline:
        if timed >= bursts * seconds / SETUP_BURSTS:
            # Later bursts only sample set-up time across the run, so that
            # setup_s sees the same machine as the operations do.
            setup_times += set_up(wl, tr)[1]
            bursts += 1
        op = wl.make_op(state, i)
        runs = {}
        order = (null, tr) if traced and i % 2 else (tr, null) if traced else (null,)
        for t in order:
            dt, result, err = attempt(wl, state, op, t, i)
            if err is None:
                err = check(wl, state, op, result)
            runs[t is not null] = (dt, err, result)
            timed += dt
        dt, err, result = runs[traced]
        errs = [e for _, e, _ in runs.values() if e is not None]
        ops.append(
            {
                "id": i,
                "dt": dt,
                "untraced_dt": runs[False][0],
                "error": errs[0] if errs else None,
                "size": wl.size(op, result) if err is None else None,
            }
        )
        i += 1
    return tr, ops, setup_times, timed


def end_to_end(ops, setup_times, timed) -> tuple[dict, dict]:
    ok = sum(o["error"] is None for o in ops)
    lat = [o["dt"] if o["error"] is None else max(o["dt"], OP_TIME_LIMIT) for o in ops]
    tail, pct = tail_latency(lat)
    values = {
        "ops_per_s": ok / timed,
        "latency_p50_ms": statistics.median(lat) * 1000.0,
        "latency_tail_ms": tail * 1000.0,
        "ok_ops_frac": ok / len(ops),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "latency_tail_ms": f"p{pct}",
        "setup_s": f"median of {len(setup_times)} set-ups",
        "ok_ops_frac": f"failed_ops_frac={1.0 - ok / len(ops):.6g}",
    }
    return values, notes


# Per-layer metric -> the span whose median self time it reports.
SELF_TIME_METRICS = {
    "parser.parse_ms": "parser.parse",
    "program.validate_ms": "program.validate",
    "engine.solve_ms.plain": "engine.solve.plain",
    "engine.solve_ms.evidence": "engine.solve.evidence",
    "inference.marginal_ms": "inference.marginal",
    "inference.ground_ms": "inference.ground",
    "network.evidence_ms": "network.evidence",
    "inference.all_marginals_ms": "inference.all_marginals",
    "inference.sample_csv_ms": "inference.sample_csv",
    "learn.from_csv_ms": "learn.from_csv",
    "learn.fit_ms": "learn.fit",
    "learn.bic_ms": "learn.bic",
}


def per_layer(tr, ops) -> tuple[dict, dict, list]:
    selfs = tr.self_times()
    in_ops = [
        (s, own) for s, own in zip(tr.spans, selfs) if isinstance(s["op"], int)
    ]
    by_key: dict[str, list[float]] = {}
    for s, own in zip(tr.spans, selfs):
        key = s["name"]
        if key == "engine.solve":
            key += "." + s["attrs"]["kind"]
        by_key.setdefault(key, []).append(own)

    op_dur = {s["op"]: s["end"] - s["start"] for s, _ in in_ops if s["name"] == "op"}
    child_self: dict[int, float] = {}
    for s, own in in_ops:
        if s["name"] != "op":
            child_self[s["op"]] = child_self.get(s["op"], 0.0) + own
    over = [i for i, d in op_dur.items() if child_self.get(i, 0.0) > d + 1e-9]

    size = {o["id"]: o["size"] for o in ops if o["size"] is not None}
    solve_pts, ve_pts, answer_nodes = [], [], []
    solve_self = 0.0
    for s, own in in_ops:
        if s["name"] == "engine.solve":
            solve_self += own
            if "nodes" in s["attrs"]:
                answer_nodes.append(s["attrs"]["nodes"])
            if s["op"] in size:
                solve_pts.append((size[s["op"]], own))
        elif s["name"] == "inference.all_marginals" and s["op"] in size:
            ve_pts.append((size[s["op"]], own))
    ground_nodes = [s["attrs"]["nodes"] for s in tr.spans if s["name"] == "inference.ground"]
    traced_total = sum(o["dt"] for o in ops)
    untraced_total = sum(o["untraced_dt"] for o in ops)

    values = {m: median_ms(by_key.get(span, [])) for m, span in SELF_TIME_METRICS.items()}
    values.update(
        {
            "engine.solve_share": solve_self / sum(op_dur.values()),
            "engine.solve_growth_exp": growth_exponent(solve_pts),
            "network.answer_nodes": statistics.fmean(answer_nodes) if answer_nodes else 0.0,
            "network.ground_nodes": statistics.fmean(ground_nodes) if ground_nodes else 0.0,
            "inference.ve_growth_exp": growth_exponent(ve_pts),
            "trace.overhead_frac": traced_total / untraced_total - 1.0,
        }
    )
    notes = {name: f"{len(v)} calls" for name, v in by_key.items()}
    notes["self_time_check"] = (
        f"{len(over)} of {len(op_dur)} operations have child self time above their duration"
    )
    return values, notes, over


def run_workload(args, spec) -> int:
    import_clpbn()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    signal.signal(signal.SIGALRM, _on_alarm)
    wl = WORKLOADS[args.workload](args.seed)
    traced = bool(args.trace)
    tr, ops, setup_times, timed = measure(wl, args.seconds, traced)

    failures = [o for o in ops if o["error"] is not None]
    for o in failures[:20]:
        print(f"{args.workload}: operation {o['id']} failed: {o['error']}")
    if len(failures) > 20:
        print(f"{args.workload}: ... {len(failures) - 20} more failed operations")

    if traced:
        values, notes, over = per_layer(tr, ops)
        metrics = spec["per_layer"]
        out = HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        tr.write(out)
        notes["spans"] = f"{len(tr.spans)} spans written to {out.relative_to(ROOT)}"
    else:
        values, notes = end_to_end(ops, setup_times, timed)
        metrics = spec["end_to_end"]
        over = []

    print(f"{args.workload}: {len(ops)} operations, {len(failures)} failed, "
          f"{timed:.3f} s timed, seed {args.seed}")
    for m in metrics:
        note = notes.get(m["name"], "")
        print(f"{args.workload}: {m['name']} = {values[m['name']]:.6g} {m['unit']}"
              + (f" ({note})" if note else "") + f"  [n={len(ops)}]")
    for key in sorted(set(notes) - {m["name"] for m in metrics}):
        print(f"{args.workload}: {key}: {notes[key]}")

    result = {
        "correct": not failures and not over,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    print(json.dumps(result))
    return 0


def run_all(args, spec) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", w["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{w['name']} --trace {trace}: exit code {proc.returncode}")
                return proc.returncode
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            combined.setdefault(w["name"], {})["traced" if trace else "untraced"] = last
    out = HERE / "out" / f"all-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(combined, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"results written to {out.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--all", action="store_true", help="run every workload, both modes")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.all:
        return run_all(args, spec)
    if not args.workload:
        p.error("give --workload NAME or --all")
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
