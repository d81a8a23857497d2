"""ringscope benchmark: one workload per run, one operation at a time.

    python3 perfbench/run.py --workload verify_corpus --seed 1 --seconds 25 --trace 0

`--workload all` runs every workload, each in a fresh process.

Run from the root of a ringscope checkout; the package is imported from
its src/ directory.  A run sets up its inputs (several times, to time the
set-up), then makes operations back to back, one after another in a closed
loop with a single client, until --seconds have passed and every operation
has run at least once.  After the timed window, each answer is checked
against reference.json.

--trace 0 reports the end-to-end metrics.  Between operations, outside
their timed calls, a fixed probe reads the machine's speed, and the times
are reported scaled to a reference speed (see calibrate.py) beside the
times as measured.  --trace 1 makes the same untraced
phase, then one more set-up and the same phase again with every listed
ringscope function wrapped (see spans.py), and reports per-layer calls and
self time instead.

The last line of standard output is the result as one JSON object; the
lines before it say the same for a reader.  Run metadata and the result
are also written to .bench_out/, where compare.py reads them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
CHECKOUT = Path.cwd()
SRC = CHECKOUT / "src"
OUT_DIR = CHECKOUT / ".bench_out"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
TIMED_IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t0 = time.perf_counter(); import ringscope; "
                "print(time.perf_counter() - t0)")

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))
try:
    import ringscope
except ImportError as exc:
    sys.exit(f"cannot import ringscope from {SRC}: {exc}")
if Path(ringscope.__file__).resolve().parent != (SRC / "ringscope").resolve():
    sys.exit(f"ringscope imported from {ringscope.__file__}, not from {SRC}")

import calibrate  # noqa: E402
import spans  # noqa: E402  (benchmark modules need ringscope on the path)
import workloads  # noqa: E402

# Functions a workload is not expected to call.  Every other listed function
# must be called at least once in the traced run, so that a renamed or
# merged function fails loudly instead of reading as zero.
NOT_CALLED = {
    "verify_corpus": {"classify.classify_report"},
    "profile_random": {"classify.verify_suite", "modules.enumerate_modules"},
    "modules_rank2": {"modules.submodule_as_module", "hom.hom_group",
                      "hom.is_relatively_injective",
                      "hom.is_relatively_projective", "ideals.two_sided_ideals",
                      "ideals.jacobson_radical", "torsion.IdealContext.colon",
                      "torsion.is_linear_filter", "torsion.eta_filter",
                      "torsion.all_linear_filters", "lattice.build_lattice",
                      "lattice.are_isomorphic", "profile.inj_fingerprint",
                      "profile.proj_fingerprint", "profile.find_witness",
                      "profile.i_profile", "profile.p_profile",
                      "classify.verify_suite", "classify.classify_report",
                      "classify.is_super_qf", "ideals.right_ideals",
                      "modules.cyclic_modules_up_to_iso"},
}
_never = set(spans.NAMES).intersection(*NOT_CALLED.values())
if _never:
    sys.exit(f"listed functions no workload calls: {sorted(_never)}")


def import_s():
    """The median time to import ringscope, each time in a fresh Python
    process.  This process imports it only once, and that first import of
    a checkout also compiles the package."""
    times = []
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run([sys.executable, "-c", TIMED_IMPORT, str(SRC)],
                               stdout=subprocess.PIPE, text=True, check=True)
        times.append(float(child.stdout))
    return statistics.median(times)


def setup(prepare, seed):
    """Prepare the inputs SETUP_REPEATS times; return the last set and the
    median set-up time, import included."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        ops = prepare(seed)
        times.append(perf_counter() - t0)
    return ops, import_s() + statistics.median(times)


class Phase:
    """Operations back to back for `seconds`, each one checked."""

    def __init__(self, ops, reference, tracer=None):
        self.ops = ops
        self.reference = reference
        self.tracer = tracer
        self.speed = calibrate.Speed()
        self.samples = {op.label: [] for op in ops}
        self.answers = {op.label: [] for op in ops}
        self.attempted = 0
        self.failed = []          # (label, exception text)
        self.wrong = []           # (label, answer)

    def run(self, seconds):
        start = perf_counter()
        first_pass = True
        while True:
            for op in self.ops:
                if not first_pass and perf_counter() - start >= seconds:
                    return
                self._one(op)
            first_pass = False

    def _one(self, op):
        ring = op.fresh()
        gc.collect()              # each call starts from a collected heap
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_operation()
            tracer.active = True
        t0 = perf_counter()
        try:
            result = op.call(ring)
        except Exception as exc:  # every exception is a failed operation
            self.failed.append((op.label, f"{type(exc).__name__}: {exc}"))
            return
        finally:
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        self.samples[op.label].append(elapsed)
        self.answers[op.label].append(op.answer(result))
        self.speed.probe(elapsed)

    def check(self):
        """Compare every answer with the reference.  This runs after the
        timed window, because the extra part of an answer costs another
        computation, made once per operation on a fresh ring."""
        for op in self.ops:
            answers = self.answers[op.label]
            extra = op.extra(op.fresh()) if op.extra and answers else None
            for answer in answers:
                checked = op.checked_answer(answer, extra)
                if workloads.digest(checked) != self.reference.get(op.label):
                    self.wrong.append((op.label, checked))

    def medians(self):
        return {label: statistics.median(s)
                for label, s in self.samples.items() if s}

    def group_medians(self):
        pooled = {}
        for op in self.ops:
            pooled.setdefault(op.group, []).extend(self.samples[op.label])
        return {group: statistics.median(s) for group, s in pooled.items() if s}

    def wall_s(self):
        """One pass over the operations: the sum of their median times."""
        return sum(self.medians().values())

    def correct(self):
        return (not self.failed and not self.wrong
                and len(self.medians()) == len(self.ops))


def metadata():
    return {"backend": ringscope.BACKEND,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def load_reference(workload):
    with open(REFERENCE) as fh:
        return json.load(fh)[workload]


def report_answers(phase, title, out):
    runs = sum(len(s) for s in phase.samples.values())
    print(f"{title:<12} {phase.attempted} operations attempted, {runs} timed, "
          f"{len(phase.failed)} failed; measured wall_s {phase.wall_s():.4f} s",
          file=out)
    print(f"fail_share   {len(phase.failed) / phase.attempted:.4f}", file=out)
    for label, err in phase.failed[:5]:
        print(f"  FAILED {label}: {err}", file=out)
    for label, answer in phase.wrong[:5]:
        print(f"  WRONG ANSWER {label}: {json.dumps(answer, default=str)}",
              file=out)
    verdict = "all answers match the reference" if phase.correct() \
        else "ANSWER CHECK FAILED"
    print(f"answers      {verdict}", file=out)


def untraced_metrics(phase, setup_s):
    """The end-to-end metrics, their times scaled to the reference speed
    (calibrate.py), and the same times as measured."""
    medians = phase.group_medians()
    slowest = max(medians, key=medians.get, default=None)
    measured = {"wall_s": phase.wall_s(),
                "op_max_s": medians.get(slowest, 0.0),
                "setup_s": setup_s}
    factor = phase.speed.factor()
    metrics = {name: (value * factor, "s") for name, value in measured.items()}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return metrics, measured, slowest


def run_all(args):
    """Every workload, each in a fresh process, one after another.  The
    result sums the counts and names each metric <workload>.<metric>."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"{name}: exit code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args)
        return

    prepare = workloads.WORKLOADS[args.workload]
    reference = load_reference(args.workload)
    meta = metadata()
    out = sys.stdout
    print(f"workload     {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}", file=out)
    print(f"backend      {meta['backend']}  python {meta['python']}  "
          f"nproc {meta['nproc']}", file=out)

    ops, setup_s = setup(prepare, args.seed)
    phase = Phase(ops, reference)
    phase.run(args.seconds)
    phase.check()
    metrics, measured, slowest = untraced_metrics(phase, setup_s)
    report_answers(phase, "untraced", out)
    correct = phase.correct()
    attempted = phase.attempted
    failed = len(phase.failed)

    if args.trace:
        tracer = spans.Tracer()
        with tracer.installed():
            tracer.active = True
            t0 = perf_counter()
            ops = prepare(args.seed)
            traced_setup_s = perf_counter() - t0
            tracer.active = False
            traced = Phase(ops, reference, tracer)
            traced.run(args.seconds)
        traced.check()
        report_answers(traced, "traced", out)
        correct = correct and traced.correct()
        attempted += traced.attempted
        failed += len(traced.failed)
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (traced.wall_s() - phase.wall_s(), "s")
        totals = tracer.totals()
        missing = [name for name in spans.NAMES
                   if totals[name][0] == 0
                   and name not in NOT_CALLED[args.workload]]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
        # shares of the traced time: one set-up plus every operation
        busy = traced_setup_s + sum(sum(s) for s in traced.samples.values())
        print(f"{'traced':<36} {busy:.4f} s   share: self  inclusive",
              file=out)
        for name in spans.NAMES:
            calls, self_s, total_s = totals[name]
            print(f"{name:<36} {calls:>9} calls {self_s:10.4f} s "
                  f"{100 * self_s / busy:5.1f}% {100 * total_s / busy:5.1f}%",
                  file=out)
        if missing:
            sys.exit(f"listed functions not called on {args.workload}: "
                     f"{', '.join(missing)} (renamed or merged? update "
                     "perfbench/spans.py and NOT_CALLED in perfbench/run.py)")
    else:
        print(f"speed        probe {1000 * phase.speed.probe_s():.4f} ms "
              f"(reference {1000 * calibrate.REFERENCE_PROBE_S:g} ms): times "
              f"scaled by {phase.speed.factor():.4f}", file=out)
        for name, (value, unit) in metrics.items():
            as_measured = (f"   measured {measured[name]:.6g} {unit}"
                           if name in measured else "")
            print(f"{name:<12} {value:.6g} {unit}{as_measured}", file=out)
        print(f"slowest      {slowest}", file=out)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(record, "w") as fh:
        json.dump({"meta": dict(meta, workload=args.workload, seed=args.seed,
                                seconds=args.seconds, trace=args.trace),
                   "operations": phase.samples,
                   "probe_s": phase.speed.probe_s(),
                   "measured": measured,
                   "result": result}, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
