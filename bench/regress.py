#!/usr/bin/env python3
"""E5 throughput regression runner with per-block attribution.

Default mode runs the per-standard generation benchmark
(bench_e5_throughput) with Google Benchmark's JSON reporter and writes
the result to BENCH_e5.json at the repo root. If a previous
BENCH_e5.json exists, each benchmark is compared against it first and
regressions beyond --tolerance are reported (exit code 1), so CI can
gate on generation throughput. The kernel micro-benchmarks
(kernel_*/scalar vs kernel_*/<tier>) additionally gate the SIMD
dispatch layer: on a host whose best tier is not scalar, at least two
kernels must hold a >= 1.5x machine-relative speedup. The FFT size
sweep (kernel_fft<N>/splitradix, at the host's best tier) gates each
size absolutely against its own baseline row, like every other row.

--blocks switches to the observability-layer attribution mode: it runs
bench_report_blocks (a probed Submodel -> impairment-chain sweep over
all ten standards) and compares each block's throughput against the
BENCH_blocks.json baseline, so a regression is pinned to the exact
block (e.g. "multipath in DVB-T") instead of a whole benchmark. The
report's "kernels" section carries the same scalar-vs-SIMD speedup
gate.

--sim runs bench_sim (the Monte-Carlo campaign engine sweeping a fixed
802.11a AWGN workload at 1 worker vs all cores) and compares each
configuration's trials-per-second against the BENCH_sim.json baseline.
The gate is machine-relative on purpose: absolute multi-worker speedup
depends on the host's core count, so what CI enforces is that no
configuration got slower relative to the checked-in numbers from the
same environment.

--rx runs bench_rx (the RX Mother Model's per-standard stage
throughput: synchronize, estimate_equalizer, the separable max-log
soft demapper and soft-decision Viterbi, each timed in isolation) and
compares each stage's ops-per-second against the BENCH_rx.json
baseline. Machine-relative, like --sim.

--server runs bench_server (an in-process ofdm_serverd core on
loopback, driven through net::LineClient: ping round trips, waveform
streaming, an end-to-end campaign through the job queue, and cached
resubmissions) and compares each configuration's ops-per-second
against the BENCH_server.json baseline. Loopback socket timing is the
noisiest of the modes, so its default gate is the widest (0.50).

Every gated failure is reported as one line per regressed key with the
old and new values, e.g.
    regression: BENCH_sim.json: threads1: 117.0 -> 71.2 trials/s (0.61x)

Usage:
    python3 bench/regress.py [--build-dir build] [--tolerance 0.15]
                             [--min-time 1] [--check-only]
    python3 bench/regress.py --blocks [--tolerance 0.35] [--check-only]
    python3 bench/regress.py --sim [--tolerance 0.35] [--check-only]
    python3 bench/regress.py --rx [--tolerance 0.35] [--check-only]
    python3 bench/regress.py --server [--tolerance 0.50] [--check-only]
"""

import argparse
import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULT_FILE = REPO_ROOT / "BENCH_e5.json"
BLOCKS_FILE = REPO_ROOT / "BENCH_blocks.json"
SIM_FILE = REPO_ROOT / "BENCH_sim.json"
RX_FILE = REPO_ROOT / "BENCH_rx.json"
SERVER_FILE = REPO_ROOT / "BENCH_server.json"

# Blocks below this share of the baseline's wall time never gate: their
# single-run timings are scheduler noise, and a regression that small
# cannot explain an end-to-end slowdown anyway.
MIN_WALL_FRACTION = 0.05

# The dispatch-layer acceptance gate: this many kernels must hold this
# machine-relative speedup over the scalar tier (skipped when the host's
# best tier IS scalar).
KERNEL_MIN_SPEEDUP = 1.5
KERNEL_MIN_COUNT = 2


def run_exe(build_dir: pathlib.Path, name: str, argv: list) -> dict:
    exe = build_dir / "bench" / name
    if not exe.exists():
        sys.exit(f"error: {exe} not found -- build the repo first "
                 f"(cmake -B {build_dir} -S . && cmake --build {build_dir} -j)")
    out = build_dir / f"{name}_tmp.json"
    subprocess.run([str(exe)] + argv + ["--out", str(out), "--quiet"],
                   check=True, cwd=REPO_ROOT)
    with open(out) as f:
        return json.load(f)


def run_bench(build_dir: pathlib.Path, min_time: float) -> dict:
    exe = build_dir / "bench" / "bench_e5_throughput"
    if not exe.exists():
        sys.exit(f"error: {exe} not found -- build the repo first "
                 f"(cmake -B {build_dir} -S . && cmake --build {build_dir} -j)")
    out = build_dir / "bench_e5_tmp.json"
    # --benchmark_out writes clean JSON to the file; the human-readable
    # banner and summary table stay on stdout.
    subprocess.run(
        [str(exe),
         f"--benchmark_out={out}",
         "--benchmark_out_format=json",
         f"--benchmark_min_time={min_time}"],
        check=True,
        cwd=REPO_ROOT,
    )
    with open(out) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Row extraction: every mode reduces its report to a flat list of
#   {key, value, label, wall_fraction}
# rows, and one generic comparator gates all four baselines.

def rows_e5(report: dict) -> list:
    rows = []
    for b in report.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        ips = b.get("items_per_second", 0.0)
        rows.append({"key": b["name"], "value": ips / 1e6,
                     "label": b.get("label", "")})
    return rows


def rows_blocks(report: dict) -> list:
    rows = []
    for standard, rep in report.get("standards", {}).items():
        for blk in rep.get("blocks", []):
            rows.append({"key": f"{standard}/{blk['name']}",
                         "value": blk.get("throughput_msps", 0.0),
                         "label": "",
                         "wall_fraction": blk.get("wall_fraction", 1.0)})
    return rows


def rows_configs(value_field: str):
    def extract(report: dict) -> list:
        return [{"key": c["name"], "value": c.get(value_field, 0.0),
                 "label": f"threads={c.get('threads', 0)}"}
                for c in report.get("configs", [])]
    return extract


def compare_rows(old: dict, new: dict, tolerance: float, extract,
                 unit: str, baseline_file: pathlib.Path,
                 min_wall_fraction: float = 0.0) -> bool:
    """Print per-key ratios; one stderr line per gated regression.

    Returns True when nothing gated regressed. A key only gates when its
    *baseline* row carried at least `min_wall_fraction` of the run's
    wall time (1.0 when the mode does not track wall shares).
    """
    old_rows = {r["key"]: r for r in extract(old)}
    regressions = []
    print(f"\n{'key':<42s} {'label':<18s} {'old ' + unit:>12s} "
          f"{'new ' + unit:>12s} {'ratio':>7s}")
    for row in extract(new):
        key, new_v = row["key"], row["value"]
        prev = old_rows.get(key)
        if prev is None or not new_v:
            print(f"{key:<42s} {row['label']:<18s} {'-':>12s} "
                  f"{new_v:12.2f} {'new':>7s}")
            continue
        old_v = prev["value"]
        ratio = new_v / old_v if old_v else float("inf")
        flag = ""
        if ratio < 1.0 - tolerance:
            if prev.get("wall_fraction", 1.0) >= min_wall_fraction:
                flag = "  <-- REGRESSION"
                regressions.append((key, old_v, new_v, ratio))
            else:
                flag = (f"  (noise: <{min_wall_fraction:.0%} wall share, "
                        f"not gated)")
        print(f"{key:<42s} {row['label']:<18s} {old_v:12.2f} "
              f"{new_v:12.2f} {ratio:6.2f}x{flag}")
    for key, old_v, new_v, ratio in regressions:
        print(f"regression: {baseline_file.name}: {key}: "
              f"{old_v:.2f} -> {new_v:.2f} {unit} ({ratio:.2f}x, "
              f"allowed >= {1.0 - tolerance:.2f}x)", file=sys.stderr)
    return not regressions


# ---------------------------------------------------------------------------
# Kernel speedup gates (dispatch-layer acceptance).

def kernel_pairs_e5(report: dict) -> tuple:
    """(tier, {kernel: speedup}) from kernel_<name>/<variant> benches.

    The kernel_fft<N>/splitradix size sweep has no scalar pair and is
    skipped here; its rows gate absolutely through compare_rows."""
    scalar, simd, tier = {}, {}, "scalar"
    for b in report.get("benchmarks", []):
        name = b.get("name", "")
        if not name.startswith("kernel_") or "/" not in name:
            continue
        kernel, variant = name.split("/", 1)
        if variant == "splitradix":
            continue
        ips = b.get("items_per_second", 0.0)
        if variant == "scalar":
            scalar[kernel] = ips
        else:
            simd[kernel] = ips
            tier = b.get("label", variant) or variant
    speedups = {k: simd[k] / scalar[k]
                for k in simd if scalar.get(k)}
    return tier, speedups


def kernel_pairs_blocks(report: dict) -> tuple:
    kernels = report.get("kernels", {})
    tier = kernels.get("tier", "scalar")
    speedups = {e["name"]: e.get("speedup", 0.0)
                for e in kernels.get("entries", [])}
    return tier, speedups


def check_kernel_speedups(tier: str, speedups: dict,
                          baseline_file: pathlib.Path) -> bool:
    """At least KERNEL_MIN_COUNT kernels at KERNEL_MIN_SPEEDUP x, unless
    the host has no SIMD tier at all (or the benches did not run)."""
    if tier == "scalar" or not speedups:
        print(f"\nkernel gate: skipped (dispatch tier is scalar)")
        return True
    fast = sorted((k for k, s in speedups.items()
                   if s >= KERNEL_MIN_SPEEDUP),
                  key=lambda k: -speedups[k])
    print(f"\nkernel gate ({tier} vs scalar): " +
          ", ".join(f"{k} {speedups[k]:.2f}x"
                    for k in sorted(speedups)))
    if len(fast) < KERNEL_MIN_COUNT:
        print(f"kernel gate: {baseline_file.name}: only {len(fast)} "
              f"kernel(s) at >= {KERNEL_MIN_SPEEDUP:.1f}x over scalar "
              f"(need {KERNEL_MIN_COUNT}); speedups: " +
              ", ".join(f"{k}={s:.2f}x"
                        for k, s in sorted(speedups.items())),
              file=sys.stderr)
        return False
    return True


def load_baseline(path: pathlib.Path) -> dict:
    """Read a baseline JSON file, exiting with a one-line error (no
    traceback) when it is unreadable or malformed."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        sys.exit(f"error: cannot read baseline {path.name}: {e.strerror}")
    except json.JSONDecodeError as e:
        sys.exit(f"error: baseline {path.name} is not valid JSON "
                 f"(line {e.lineno}: {e.msg}) -- delete it or rerun "
                 f"without --check-only to regenerate")


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""\
gating:
  Default mode gates on whole-benchmark throughput vs BENCH_e5.json and
  on the scalar-vs-SIMD kernel speedups. --blocks gates per block per
  standard vs BENCH_blocks.json: a block regresses the run (exit 1)
  only when it slows beyond --tolerance AND carried >= 5% of the
  baseline's wall time; slimmer blocks are printed as "(noise ...)" but
  never gate, since their single-run timings are scheduler noise.
  Baselines rewrite on every run unless --check-only is given;
  --check-only requires the baseline to exist.""")
    ap.add_argument("--build-dir", default="build",
                    help="CMake build directory (default: build)")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional slowdown before a benchmark "
                         "counts as a regression (default: 0.15)")
    ap.add_argument("--min-time", type=float, default=1.0,
                    help="--benchmark_min_time per benchmark in seconds")
    ap.add_argument("--check-only", action="store_true",
                    help="compare against the baseline without updating it")
    ap.add_argument("--blocks", action="store_true",
                    help="per-block attribution mode: run "
                         "bench_report_blocks and compare each block's "
                         "throughput against BENCH_blocks.json")
    ap.add_argument("--sim", action="store_true",
                    help="campaign-engine mode: run bench_sim (fixed "
                         "802.11a AWGN sweep, 1 worker vs all cores) and "
                         "compare each configuration's trials/s against "
                         "BENCH_sim.json")
    ap.add_argument("--rx", action="store_true",
                    help="receiver mode: run bench_rx (per-standard RX "
                         "Mother Model stage throughput: sync, equalize, "
                         "demap_soft, soft Viterbi) and compare each "
                         "stage's ops/s against BENCH_rx.json")
    ap.add_argument("--server", action="store_true",
                    help="service-daemon mode: run bench_server "
                         "(loopback ping/waveform/campaign/cache rates "
                         "through net::LineClient) and compare each "
                         "configuration's ops/s against "
                         "BENCH_server.json")
    ap.add_argument("--samples", type=int, default=1 << 20,
                    help="samples per standard in --blocks mode "
                         "(default: 1048576)")
    ap.add_argument("--trials", type=int, default=96,
                    help="Monte-Carlo trials per grid point in --sim "
                         "mode (default: 96)")
    ap.add_argument("--rx-trials", type=int, default=16,
                    help="invocations per timed stage in --rx mode "
                         "(default: 16)")
    args = ap.parse_args()

    if sum([args.blocks, args.sim, args.rx, args.server]) > 1:
        ap.error("--blocks, --sim, --rx, and --server are "
                 "mutually exclusive")

    build_dir = REPO_ROOT / args.build_dir
    min_wall_fraction = 0.0
    kernel_pairs = None
    if args.server:
        report = run_exe(build_dir, "bench_server", [])
        baseline_file = SERVER_FILE
        extract = rows_configs("ops_per_second")
        unit = "ops/s"
        # Loopback socket round trips are noisier than any in-process
        # mode; the gate here is a smoke alarm, not a micro-benchmark.
        tolerance = max(args.tolerance, 0.50)
    elif args.rx:
        report = run_exe(build_dir, "bench_rx",
                         ["--trials", str(args.rx_trials)])
        baseline_file = RX_FILE
        extract = rows_configs("ops_per_second")
        unit = "ops/s"
        # Single-run stage wall times, same variance budget as --sim.
        tolerance = max(args.tolerance, 0.35)
    elif args.sim:
        report = run_exe(build_dir, "bench_sim",
                         ["--trials", str(args.trials)])
        baseline_file = SIM_FILE
        extract = rows_configs("trials_per_second")
        unit = "trials/s"
        # Single-run wall times under thread scheduling: widen the
        # default gate the same way --blocks does.
        tolerance = max(args.tolerance, 0.35)
    elif args.blocks:
        report = run_exe(build_dir, "bench_report_blocks",
                         ["--samples", str(args.samples)])
        baseline_file = BLOCKS_FILE
        extract = rows_blocks
        unit = "Msps"
        min_wall_fraction = MIN_WALL_FRACTION
        kernel_pairs = kernel_pairs_blocks(report)
        # Single-run per-block timings are noisier than Google
        # Benchmark's min-time loop; widen the default gate.
        tolerance = max(args.tolerance, 0.35)
    else:
        report = run_bench(build_dir, args.min_time)
        baseline_file = RESULT_FILE
        extract = rows_e5
        unit = "MS/s"
        kernel_pairs = kernel_pairs_e5(report)
        tolerance = args.tolerance

    ok = True
    if baseline_file.exists():
        baseline = load_baseline(baseline_file)
        ok = compare_rows(baseline, report, tolerance, extract, unit,
                          baseline_file, min_wall_fraction)
    elif args.check_only:
        sys.exit(f"error: --check-only needs a baseline, but "
                 f"{baseline_file.relative_to(REPO_ROOT)} does not exist "
                 f"-- run once without --check-only to create it")
    if kernel_pairs is not None:
        tier, speedups = kernel_pairs
        if not check_kernel_speedups(tier, speedups, baseline_file):
            ok = False
    if not args.check_only:
        with open(baseline_file, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
        print(f"\nwrote {baseline_file.relative_to(REPO_ROOT)}")
    if not ok:
        print("throughput regression detected", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
