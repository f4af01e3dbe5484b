"""graphtower benchmark: seeded CLI jobs in a closed loop with one client.

    python3 perfbench/run.py --workload tower_growth --seed 1 --seconds 20 --trace 0

Set-up imports the package from `src/`, writes the workload's seeded job
configs and warms up on one job per stratum; it is repeated and its median
reported as `setup_s`.  The timed loop then runs one job after another,
each a `graphtower.cli.main(argv)` call per subcommand with stdout
captured, until `--seconds` of job time have passed.  Outputs are checked
outside the timed region.  With `--trace 1` the jobs of the first
TRACE_SHARE of the run are re-run under the layer tracer and the per-layer
metrics are reported.

Every reported time is on the reference machine of `probe.py`: the wall
time measured here divided by the run's probe factor.  The raw wall-clock
figures and the factor are printed alongside.

Human-readable lines start with `#`; the last line is the JSON result.
Scratch files go to `.perfbench_work/` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import configs
import layertrace
from probe import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
# Pool size per second of run: about twice the job rate at the time of
# writing, so a run ends on time rather than by running out of unique
# configs.  A run that does run out stops early and says so.
POOL_RATE = {"tower_growth": 300, "character_identities": 120,
             "cover_zeta": 60}
DIGEST_JOBS = 100   # jobs in the output digest; fewer if a run does fewer
TRACE_SHARE = 0.15  # share of --seconds whose jobs the traced run repeats


def load_package():
    """Import graphtower.cli afresh from this checkout's src/ directory."""
    if not (SRC / "graphtower" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no package source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "graphtower" or n.startswith("graphtower.")]:
        del sys.modules[name]
    cli = importlib.import_module("graphtower.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: graphtower imported from {cli.__file__}")
    return cli


def run_commands(cli, commands) -> list[tuple[object, str, str]]:
    """(exit code, stdout, stderr) of each CLI call, in process."""
    outputs = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception as exc:  # a crashing job fails, the run goes on
                code = f"{type(exc).__name__}: {exc}"
        outputs.append((code, out.getvalue(), err.getvalue()))
    return outputs


def set_up(workload: str, seed: int, count: int, job_dir: Path):
    """Import, write configs and warm up, SETUP_REPEATS times.

    Returns the package, the measured jobs, and each repeat's set-up time
    as (wall seconds, reference seconds).
    """
    warm_count = len(configs.STRATA[workload])
    timings = []
    for _ in range(SETUP_REPEATS):
        probe = SpeedProbe()
        start = time.perf_counter()
        cli = load_package()
        shutil.rmtree(job_dir, ignore_errors=True)
        jobs = configs.generate(workload, seed, warm_count + count, job_dir,
                                tick=probe.tick)
        for job in jobs[:warm_count]:
            probe.tick()
            run_commands(cli, job.commands)
        probe.tick()
        wall = time.perf_counter() - start - probe.spent
        timings.append((wall, wall / probe.factor()))
    return cli, jobs[warm_count:], timings


def closed_loop(cli, jobs, seconds: float, probe: SpeedProbe,
                round_size: int = 1, tracer=None):
    """Run jobs back to back until `seconds` of job time pass and a round of
    `round_size` jobs completes.  Returns (job, wall s, outputs) per job and
    the wall time, probe samples excluded."""
    results = []
    start = time.perf_counter()
    now = start
    for job in jobs:
        probe.tick()
        if (now - start - probe.spent >= seconds and
                len(results) % round_size == 0):
            break
        if tracer is not None:
            tracer.job = job.index
        t0 = time.perf_counter()
        outputs = run_commands(cli, job.commands)
        now = time.perf_counter()
        results.append((job, now - t0, outputs))
    return results, now - start - probe.spent


def verify(workload: str, cli, results):
    """Independent checks of every job; returns failures and outputs."""
    failures = []
    canonical = []
    for job, _, outputs in results:
        extra = run_commands(cli, job.check_commands)
        problems, reports = [], []
        for argv, (code, text, err) in zip(
                job.commands + job.check_commands, outputs + extra):
            if code != 0:
                problems.append(f"{argv[0]} exited {code}: {err.strip()}")
                continue
            try:
                reports.append(json.loads(text))
            except json.JSONDecodeError as exc:
                problems.append(f"{argv[0]} printed no JSON: {exc}")
        if not problems:
            config = json.loads(job.path.read_text())
            try:
                problems = checks.CHECKS[workload](config, reports)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                problems = [f"malformed output: {exc!r}"]
        canonical.append([checks.canonical(r)
                          for r in reports[:len(job.commands)]])
        if problems:
            failures.append((job.index, problems))
    return failures, canonical


def digest(canonical) -> str:
    h = hashlib.sha256()
    for job_outputs in canonical[:DIGEST_JOBS]:
        for text in job_outputs:
            h.update(text.encode())
            h.update(b"\n")
    return h.hexdigest()


def percentile(values, q: int) -> float:
    """The q-th percentile (exclusive method), or the max for tiny samples."""
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(results, elapsed, failures, setup, rss_mb, factor) -> dict:
    """End-to-end metrics in reference-machine time."""
    latencies = [lat / factor for _, lat, _ in results]
    verified = len(results) - len(failures)
    return {
        "jobs_per_s": (verified / (elapsed / factor), "1/s"),
        "job_latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "job_latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(ref for _, ref in setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _layer(name: str) -> str:
    """Self-time layer of a span name: arithmetic modules as a whole."""
    module = name.split(".", 1)[0]
    if module in ("cyclotomic", "polynomials", "groups"):
        return module
    return name


def per_layer(tracer: layertrace.Tracer, jobs: int, overhead: float,
              factor: float) -> tuple[dict, list]:
    """Per-layer metrics, each a mean per traced job unless a ratio, with
    times in reference-machine milliseconds; and the layers ranked by their
    share of self time."""
    ns_to_ms = 1e-6 / factor / jobs

    def calls(name):
        return tracer.calls.get(name, 0) / jobs, "count"

    def ms(name):
        return tracer.total_ns.get(name, 0) * ns_to_ms, "ms"

    def self_ms(prefix):
        total = sum(v for k, v in tracer.self_ns.items()
                    if k == prefix or k.startswith(prefix + "."))
        return total * ns_to_ms, "ms"

    def extra(key, unit):
        return tracer.extra.get(key, 0) / jobs, unit

    layer_self: dict[str, int] = {}
    for name, value in tracer.self_ns.items():
        layer_self[_layer(name)] = layer_self.get(_layer(name), 0) + value
    traced_ns = sum(layer_self.values()) or 1

    def share(layer):
        return layer_self.get(layer, 0) / traced_ns, "ratio"

    cyc_div = "cyclotomic.CyclotomicInteger.exact_div"
    div_calls = tracer.calls.get(cyc_div, 0)
    nonrational = tracer.extra.get("cyclotomic.exact_div.nonrational", 0)
    poly_points = tracer.children_of("linalg.det_int_poly_matrix",
                                     "linalg.det_int")
    metrics = {
        "trace_overhead_ratio": (overhead, "ratio"),
        "linalg.smith_invariant_factors.calls":
            calls("linalg.smith_invariant_factors"),
        "linalg.smith_invariant_factors.ms": ms("linalg.smith_invariant_factors"),
        "linalg.smith_invariant_factors.dim_sum":
            extra("linalg.smith_invariant_factors.dim_sum", "rows"),
        "linalg.smith_invariant_factors.self_share":
            share("linalg.smith_invariant_factors"),
        "jacobian.jacobian_structure.ms": ms("jacobian.jacobian_structure"),
        "graphs.is_connected.calls": calls("graphs.is_connected"),
        "iwasawa.tower_en.ms": ms("iwasawa.tower_en"),
        "iwasawa.mhg_check.ms": ms("iwasawa.mhg_check"),
        "iwasawa.lambda1_determinant.calls_per_job":
            calls("iwasawa.lambda1_determinant"),
        "polynomials.self_ms": self_ms("polynomials"),
        "cyclotomic.self_ms": self_ms("cyclotomic"),
        "cyclotomic.self_share": share("cyclotomic"),
        "cyclotomic.mul.calls": calls("cyclotomic.CyclotomicInteger.__mul__"),
        "cyclotomic.exact_div.calls": calls(cyc_div),
        "cyclotomic.exact_div.nonrational_ratio":
            (nonrational / div_calls if div_calls else 0.0, "ratio"),
        "zeta.h_at_one.ms": ms("zeta.h_at_one"),
        "linalg.det_in_ring.calls": calls("linalg.det_in_ring"),
        "linalg.det_in_ring.ms": ms("linalg.det_in_ring"),
        "grouprings.nrd_abelian.ms": ms("grouprings.nrd_abelian"),
        "grouprings.regular_det.ms": ms("grouprings.regular_det"),
        "grouprings.regular_det.skipped":
            (tracer.errors.get("grouprings.regular_det", 0) / jobs, "count"),
        "groups.multiply.calls": calls("groups.TowerGroupSpec.multiply"),
        "linalg.det_int.calls": calls("linalg.det_int"),
        "linalg.det_int.ms": ms("linalg.det_int"),
        "linalg.det_int.dim_sum": extra("linalg.det_int.dim_sum", "rows"),
        "linalg.det_int.self_share": share("linalg.det_int"),
        "linalg.det_int_poly_matrix.calls": calls("linalg.det_int_poly_matrix"),
        "linalg.det_int_poly_matrix.ms": ms("linalg.det_int_poly_matrix"),
        "linalg.det_int_poly_matrix.points": (poly_points / jobs, "count"),
        "zeta.ihara_zeta_inverse.ms": ms("zeta.ihara_zeta_inverse"),
        "zeta.artin_l_inverse.ms": ms("zeta.artin_l_inverse"),
        "zeta.a_sigma_matrices.ms": ms("zeta.a_sigma_matrices"),
        "voltage.derive.calls_per_job": calls("voltage.derive"),
        "voltage.derive.ms": ms("voltage.derive"),
        "voltage.derive.cover_vertices":
            extra("voltage.derive.cover_vertices", "vertices"),
        "cli.main.self_ms": self_ms("cli.main"),
        "cli.parse_config.calls": calls("cli.parse_config"),
    }
    ranking = sorted(layer_self.items(), key=lambda item: -item[1])
    return metrics, [(layer, ns / traced_ns) for layer, ns in ranking]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(configs.STRATA))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run_dir = WORK / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    pool_size = max(1, round(args.seconds * POOL_RATE[args.workload]))
    cli, pool, setup = set_up(args.workload, args.seed, pool_size,
                              run_dir / "jobs")
    round_size = len(configs.STRATA[args.workload])

    probe = SpeedProbe()
    if args.trace:
        results, elapsed = closed_loop(cli, pool, args.seconds * TRACE_SHARE,
                                       probe, round_size)
        tracer = layertrace.Tracer()
        traced_probe = SpeedProbe()
        tracer.install()
        try:
            traced, traced_elapsed = closed_loop(
                cli, [job for job, _, _ in results], float("inf"),
                traced_probe, tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.write(run_dir / "trace")
    else:
        results, elapsed = closed_loop(cli, pool, args.seconds, probe)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures, canonical = verify(args.workload, cli, results)
    attempted = len(results)
    if args.trace:
        traced_failures, traced_canonical = verify(args.workload, cli, traced)
        failures += traced_failures
        attempted += len(traced)
        if traced_canonical != canonical:
            failures.append((-1, ["traced outputs differ from untraced"]))
    out_digest = digest(canonical)
    with open(run_dir / "outputs.jsonl", "w") as fh:
        for (job, latency, _), texts in zip(results, canonical):
            fh.write(json.dumps({"job": job.index, "config": job.path.name,
                                 "latency_s": latency,
                                 "outputs": texts}) + "\n")

    inputs = configs.describe([job for job, _, _ in results])
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: closed loop, 1 client, pool {len(pool)} configs")
    print(f"# inputs {json.dumps(inputs)}")
    print(f"# setup runs, wall/reference s: "
          f"{[(round(w, 4), round(r, 4)) for w, r in setup]}")
    exhausted = " (pool exhausted)" if len(results) == len(pool) else ""
    print(f"# samples {len(results)} jobs{exhausted} in {elapsed:.3f} wall s; probe "
          f"factor {probe.factor():.4f} over {len(probe.samples)} samples; "
          f"raw {len(results) / elapsed:.2f} jobs per wall s; "
          f"fail_ratio {len(failures) / max(attempted, 1):.4f} "
          f"({len(failures)}/{attempted})")
    print(f"# output digest (first {min(DIGEST_JOBS, len(canonical))} jobs) "
          f"{out_digest}")
    for index, problems in failures[:10]:
        print(f"# FAILED job {index}: {'; '.join(problems)[:500]}")

    if args.trace:
        overhead = ((traced_elapsed / traced_probe.factor()) /
                    (elapsed / probe.factor()))
        metrics, ranking = per_layer(tracer, len(traced), overhead,
                                     traced_probe.factor())
        print(f"# traced {len(traced)} jobs, {tracer.span_count()} spans, "
              f"overhead {overhead:.2f}x")
        for layer, frac in ranking[:8]:
            print(f"# self time {frac:7.2%}  {layer}")
    else:
        metrics = end_to_end(results, elapsed, failures, setup, rss_mb,
                             probe.factor())
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
