"""Run one powerstable benchmark workload and print its metrics.

    python3 perfbench/run.py --workload monic_qq --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout that has ``src/powerstable``.  The
workload's instances come from ``--seed``; one client in this process, with
no threads, answers them one after another (a closed loop), pass after pass,
for about ``--seconds``, and every answer is checked afterwards.

Times are scaled to a nominal machine speed (see ``speed.py``): between
instances the run times a fixed reference computation, and every time is
reported as measured * NOMINAL_S / reference.  The lines before the result
also give the unscaled figures.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the passes alternate between the
plain library and the library wrapped by ``tracing.Tracer``, and the object
holds the per-layer metrics of the traced passes.  The lines before it say
how the run went: passes, tail percentile and sample count, failures, the
digest of all answers, and for traced runs where each layer spent its time.
Spans of the first traced pass are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 6  # fresh processes that only set up; the run itself is one more sample
PROBE_TIMEOUT_S = 60
REF_EVERY_S = 0.2  # time the speed reference at least this often during a pass
REF_AFTER_SETUP = 5  # speed references timed after each set-up


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, help="use only the first N catalogue entries (smoke tests)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup(args):
    """Import the library and build the workload's inputs.
    Returns (instances, set-up seconds, the same scaled to nominal speed)."""
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        raise SystemExit(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    instances = build(args.seed, args.limit)
    setup_s = time.perf_counter() - t0
    import speed

    ref = statistics.median(speed.probe() for _ in range(REF_AFTER_SETUP))
    return instances, setup_s, setup_s * speed.NOMINAL_S / ref


def _probe_setup(args) -> list[tuple[float, float]]:
    """(seconds, scaled seconds) of set-up in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.limit is not None:
        cmd += ["--limit", str(args.limit)]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"setup probe failed:\n{proc.stderr}")
        raw, scaled = proc.stdout.split()[-2:]
        out.append((float(raw), float(scaled)))
    return out


def _run_pass(instances, tracer=None):
    """One closed-loop pass.  Returns per-instance results
    (seconds, scaled seconds, answer text or None, error or None) and the
    pass's scale factor (NOMINAL_S over its mean reference time).  An
    instance's time is scaled by the median of the four references timed
    nearest to it, two before and two after.  A full collection before each instance makes the collector's
    work inside it the same whatever ran before, so that the order in which
    the seed visits instances does not move their times."""
    import speed

    clock = time.perf_counter
    refs = [speed.probe()]
    last_ref = clock()
    timed = []
    for k, inst in enumerate(instances):
        if clock() - last_ref >= REF_EVERY_S:
            refs.append(speed.probe())
            last_ref = clock()
        gc.collect()
        if tracer is not None:
            tracer.instance = k
            tracer.active = True
        t0 = clock()
        try:
            ans = inst.run()
        except Exception as err:  # budget errors included: they count as failures
            dt = clock() - t0
            timed.append((dt, len(refs) - 1, None, f"{type(err).__name__}: {err}"))
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        dt = clock() - t0
        timed.append((dt, len(refs) - 1, inst.render(ans), None))
    refs.append(speed.probe())
    results = [
        (dt, dt * speed.NOMINAL_S / statistics.median(refs[max(i - 1, 0) : i + 3]), text, error)
        for dt, i, text, error in timed
    ]
    return results, speed.NOMINAL_S / statistics.mean(refs)


def _tail(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten values above it, by
    nearest rank; the maximum when there are too few values for that."""
    n = len(values)
    p = math.floor(100 - 1000 / n) if n >= 20 else 100
    ordered = sorted(values)
    return p, ordered[math.ceil(p / 100 * n) - 1]


def _check(instances, passes) -> tuple[int, int, list[str]]:
    """Check every attempt: (attempted, failed, messages).  Each distinct
    answer text is verified once; an answer that differs from the instance's
    first-pass answer also fails, since the same input must give the same
    output."""
    attempted = failed = 0
    messages = []
    for k, inst in enumerate(instances):
        verdicts: dict[str, str | None] = {}
        first = passes[0][k][2]
        for results in passes:
            _, _, text, error = results[k]
            attempted += 1
            if text is None:
                problem = error
            else:
                if text not in verdicts:
                    try:
                        verdicts[text] = inst.verify(text)
                    except Exception as err:
                        verdicts[text] = f"checking raised {type(err).__name__}: {err}"
                problem = verdicts[text]
                if problem is None and text != first:
                    problem = "answer differs from the first pass"
            if problem is not None:
                failed += 1
                if len(messages) < 20:
                    messages.append(f"{inst.label}: {problem}")
    return attempted, failed, messages


def _digest(instances, results) -> str:
    h = hashlib.sha256()
    for inst, (_, _, text, error) in sorted(zip(instances, results), key=lambda ir: ir[0].label):
        h.update(f"{inst.label}\n{text if text is not None else 'ERROR ' + error}\n".encode())
    return h.hexdigest()


def _wall(passes) -> tuple[float, float]:
    """Median over passes of the time to answer every instance: (seconds, scaled)."""
    raw = [sum(r[0] for r in results) for results, _ in passes]
    scaled = [sum(r[0] for r in results) * factor for results, factor in passes]
    return statistics.median(raw), statistics.median(scaled)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "powerstable" / "__init__.py").is_file():
        print(f"error: {SRC / 'powerstable'} not found; run inside a powerstable checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        _, raw, scaled = _setup(args)
        print(raw, scaled)
        return 0

    setup_samples = _probe_setup(args)
    instances, raw, scaled = _setup(args)
    setup_samples.append((raw, scaled))

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    passes, traced_raw, spans_kept = [], [], None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
            try:
                results, factor = _run_pass(instances, tracer)
            finally:
                tracer.uninstall()
            traced_raw.append((tracing.summarize(tracer.spans, tracer.counts), factor))
            if spans_kept is None:
                spans_kept = tracer.spans
        else:
            results, factor = _run_pass(instances)
        passes.append((traced, results, factor))
        # stop where the measured time comes closest to --seconds
        elapsed = time.perf_counter() - start
        done = elapsed + elapsed / len(passes) / 2 >= args.seconds
        if done and (tracer is None or traced_raw):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    all_results = [results for _, results, _ in passes]
    attempted, failed, messages = _check(instances, all_results)
    digest = _digest(instances, all_results[0])
    plain = [(results, factor) for traced, results, factor in passes if not traced]
    wall_raw, wall = _wall(plain)
    per_instance = [statistics.median(r[k][1] for r, _ in plain) for k in range(len(instances))]
    per_instance_raw = [statistics.median(r[k][0] for r, _ in plain) for k in range(len(instances))]
    tail_p, tail = _tail(per_instance)

    print(f"workload {args.workload} seed {args.seed}: {len(instances)} instances, "
          f"{len(passes)} passes ({len(traced_raw)} traced), closed loop, one client")
    print(f"speed factor per pass: {' '.join(f'{f:.3f}' for _, _, f in passes)}")
    print(f"setup s (unscaled): median {statistics.median(s for s, _ in setup_samples):.4f} "
          f"of {len(setup_samples)} set-ups")
    print(f"wall s (unscaled): median {wall_raw:.3f} over {len(plain)} passes")
    print(f"verdict ms (unscaled): p50 {statistics.median(per_instance_raw) * 1000:.3f}, "
          f"p{tail_p} {_tail(per_instance_raw)[1] * 1000:.3f}")
    print(f"verdict_tail_ms is p{tail_p} over {len(per_instance)} instances, "
          f"each the median of its {len(plain)} untraced passes")
    print(f"failed {failed} of {attempted} attempts")
    for msg in messages:
        print(f"  FAILED {msg}")
    print(f"answers sha256 {digest}")

    if tracer is None:
        metrics = {
            "setup_s": _metric(statistics.median(s for _, s in setup_samples), "s"),
            "wall_s": _metric(wall, "s"),
            "verdict_p50_ms": _metric(statistics.median(per_instance) * 1000, "ms"),
            "verdict_tail_ms": _metric(tail * 1000, "ms"),
            "answered_frac": _metric((attempted - failed) / attempted, "frac"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    else:
        traced = [(results, factor) for t, results, factor in passes if t]
        metrics = _traced_metrics(args, traced, traced_raw, spans_kept, wall)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _traced_metrics(args, traced, traced_raw, spans, plain_wall) -> dict:
    import tracing

    per_pass = [(tracing.layer_metrics(raw), factor) for raw, factor in traced_raw]
    metrics = {}
    for name, (value, unit) in per_pass[0][0].items():
        if unit == "s":
            value = statistics.median(m[name][0] * factor for m, factor in per_pass)
        elif any(m[name][0] != value for m, _ in per_pass[1:]):
            print(f"WARNING {name} differs between traced passes")
        metrics[name] = _metric(value, unit)
    traced_wall = _wall(traced)[1]
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.wall_ratio"] = _metric(traced_wall / plain_wall, "ratio")
    print("where the first traced pass spent its time (unscaled):")
    for line in tracing.breakdown(traced_raw[0][0]):
        print(f"  {line}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}.spans.jsonl"
    with path.open("w") as fh:
        for sid, parent, inst, name, t0, t1, _ in spans:
            fh.write(json.dumps([sid, parent, inst, name, round(t0, 7), round(t1, 7)]) + "\n")
    print(f"spans of the first traced pass: {path.relative_to(HERE.parent)} ({len(spans)} spans)")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
