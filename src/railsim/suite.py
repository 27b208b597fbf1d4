"""Canned desk-scale experiment suite.

Builds the standard batch of experiments (loss sweep, burst grid, jitter
sweep, padding demos, reordering checks, TCP model surfaces, downtime
table), evaluates the documented pass/fail properties over them and
packs everything into a :class:`railsim.report.ReportBundle`.  All seeds
are fixed module constants so every run is bit-identical.
"""

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import __version__
from .engine import PaddingConfig, Scenario, TrafficSpec, simulate
from .metrics import (DelayCdf, burst_stats, downtime_combine, empirical_cdf,
                      reorder_stats)
from .pathsim import DelayModel, LossModel, PathSpec
from .quality import (TcpPathSet, _rating, mos, optimal_playout,
                      path_mos_curve, rail_mos_curve, tcp_throughput_rail,
                      tcp_throughput_single)
from .report import ReportBundle, fmt_ms, fmt_num

SEED_LOSS_SWEEP = 20260101
SEED_BURST_GRID = 31007
SEED_CDF_RUNS = 52801
SEED_ORDER_RUNS = 7304
SEED_MOS_RUNS = 90210
SEED_PADDING = 1145
SEED_JITTER = 6620

DOWNTIME_ROWS = (0.10, 0.02, 0.005, 0.001)
LOSS_SWEEP_RATES = tuple(round(0.01 * k, 2) for k in range(1, 21))
BURST_RATES = (0.1, 0.2, 0.3, 0.4, 0.5)
BURST_CORRELATIONS = (0.0, 0.2, 0.4, 0.6, 0.8)
MOS_DEADLINES = tuple(range(50, 401, 10))
END_SYSTEM_DELAY = 40.0
TWO_PATH_INTERVAL = 20.0  # ms between packets in two_path_scenario runs
BURST_GRID_COUNT = 1000
PADDING_MEAN1 = 100.0
PADDING_STDDEV1 = 20.0
PADDING_QUANTILE = 0.95


class Gate(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def two_path_scenario(delay1: DelayModel, delay2: DelayModel, *,
                      rate1: float = 0.0, rate2: float = 0.0,
                      corr1: float = 0.0, corr2: float = 0.0,
                      count: int = 3000, seed: int = 0, label: str = "") -> Scenario:
    return Scenario(
        paths=[
            PathSpec(id="p0", loss=LossModel(rate1, corr1), delay=delay1),
            PathSpec(id="p1", loss=LossModel(rate2, corr2), delay=delay2),
        ],
        traffic=TrafficSpec(interval=TWO_PATH_INTERVAL, count=count),
        seed=seed,
        label=label,
    )


# ---------------------------------------------------------------------------
# experiment families


def downtime_table() -> list[tuple[float, float]]:
    return [(b, downtime_combine(b, b)) for b in DOWNTIME_ROWS]


class LossSweepPoint(NamedTuple):
    rate: float
    measured_single: tuple[float, float]
    measured_rail: float
    count: int  # packets per run; shadows tuple.count, so pt.count is this field


def loss_sweep(count: int = 100_000) -> list[LossSweepPoint]:
    """Uniform loss at the same rate on two independent paths."""
    points = []
    for k, rate in enumerate(LOSS_SWEEP_RATES):
        sim = simulate(two_path_scenario(
            DelayModel("constant", mean=50.0), DelayModel("constant", mean=50.0),
            rate1=rate, rate2=rate, count=count, seed=SEED_LOSS_SWEEP + k,
            label=f"loss-sweep p={rate}",
        ))
        singles = tuple(float(np.count_nonzero(sim.path_lost(i))) / count
                        for i in range(len(sim.scenario.paths)))
        rail = float(np.count_nonzero(sim.rail_lost_mask())) / count
        points.append(LossSweepPoint(rate, singles, rail, count))
    return points


def loss_sweep_gate(points: list[LossSweepPoint]) -> Gate:
    worst = ""
    ok = True
    for pt in points:
        sig_1 = math.sqrt(pt.rate * (1 - pt.rate) / pt.count)
        p2 = pt.rate * pt.rate
        sig_2 = math.sqrt(p2 * (1 - p2) / pt.count)
        for m in pt.measured_single:
            if abs(m - pt.rate) > 3 * sig_1:
                ok = False
                worst = f"single-path loss {m} vs {pt.rate} at 3 sigma"
        if abs(pt.measured_rail - p2) > 3 * sig_2:
            ok = False
            worst = f"rail loss {pt.measured_rail} vs {p2} at 3 sigma"
    return Gate("loss-squaring", ok, worst or "every point within 3 sigma")


class BurstCell(NamedTuple):
    rate: float
    correlation: float
    single: object
    rail: object


def burst_grid() -> list[BurstCell]:
    cells = []
    for i, rate in enumerate(BURST_RATES):
        for j, corr in enumerate(BURST_CORRELATIONS):
            sim = simulate(two_path_scenario(
                DelayModel("constant", mean=50.0), DelayModel("constant", mean=50.0),
                rate1=rate, rate2=rate, corr1=corr, corr2=corr,
                count=BURST_GRID_COUNT, seed=SEED_BURST_GRID + 100 * i + j,
                label=f"burst rate={rate} corr={corr}",
            ))
            single = burst_stats(sim.path_lost(0))
            rail = burst_stats(sim.rail_lost_mask())
            cells.append(BurstCell(rate, corr, single, rail))
    return cells


def burst_grid_gate(cells: list[BurstCell]) -> Gate:
    for c in cells:
        pairs = (
            (c.rail.lost_in_burst, c.single.lost_in_burst),
            (c.rail.num_bursts, c.single.num_bursts),
            (c.rail.avg_burst, c.single.avg_burst),
            (c.rail.max_burst, c.single.max_burst),
        )
        if any(r > s for r, s in pairs):
            return Gate("burst-dominance", False,
                        f"rate={c.rate} corr={c.correlation}: rail {c.rail} vs single {c.single}")
    return Gate("burst-dominance", True, "replication never increased a burst metric")


def _random_delay_model(rng: np.random.Generator) -> DelayModel:
    kind = "normal" if rng.random() < 0.5 else "paretonormal"
    return DelayModel(
        kind,
        mean=float(rng.uniform(30.0, 120.0)),
        stddev=float(rng.uniform(5.0, 40.0)),
        correlation=float(rng.choice([0.0, 0.3, 0.6])),
    )


def cdf_dominance_runs(n_runs: int = 50, count: int = 2000) -> list[tuple[int, float]]:
    """Max violation of the two-path delay-CDF composition bound per run.

    For every sample point t the survival of the first-copy delay can be
    at most the smaller per-path survival; violations are reported as
    max(survival_rail - min(survival_1, survival_2)) over all t.
    """
    rng = np.random.default_rng(SEED_CDF_RUNS)
    results = []
    for run in range(n_runs):
        sim = simulate(two_path_scenario(
            _random_delay_model(rng), _random_delay_model(rng),
            count=count, seed=SEED_CDF_RUNS + 1000 + run, label=f"cdf-run {run}",
        ))
        d1 = sim.path_delays_ms(0)
        d2 = sim.path_delays_ms(1)
        dr = sim.rail_delays_ms()
        f1, f2, fr = empirical_cdf(d1), empirical_cdf(d2), empirical_cdf(dr)
        ts = np.unique(np.concatenate([d1, d2, dr]))
        s1, s2, sr = (1.0 - f(ts) for f in (f1, f2, fr))
        # max(0.0, ...) also keeps a -0.0 excess out of the report
        worst = max(0.0, float(np.max(sr - np.minimum(s1, s2))))
        results.append((run, worst))
    return results


def cdf_dominance_gate(results) -> Gate:
    worst = max(v for _, v in results)
    return Gate("delay-cdf-dominance", worst <= 0.0,
                f"max survival excess {worst:.3g} over {len(results)} runs")


def ordering_runs(n_runs: int = 100, count: int = 500) -> list[tuple[bool, bool]]:
    """Lossless two-path runs: (per-path streams in send order, forwarded
    stream sorted).  Replication alone must never create reordering."""
    results = []
    for run in range(n_runs):
        sim = simulate(two_path_scenario(
            DelayModel("normal", mean=50.0, stddev=3.0),
            DelayModel("normal", mean=70.0, stddev=3.0),
            count=count, seed=SEED_ORDER_RUNS + run, label=f"ordering run {run}",
        ))
        in_order = sim.path_in_send_order(0) and sim.path_in_send_order(1)
        sorted_fwd = bool(np.all(np.diff(sim.forwarded_order) >= 0))
        results.append((in_order, sorted_fwd))
    return results


def ordering_gate(results) -> Gate:
    violations = sum(1 for in_order, ok in results if in_order and not ok)
    considered = sum(1 for in_order, _ in results if in_order)
    return Gate(
        "no-reordering-introduced", violations == 0 and considered > 0,
        f"{considered}/{len(results)} runs had in-order paths, {violations} violations",
    )


def fast_path_loss_check() -> dict:
    """Deterministic case: constant 10 ms / 50 ms paths, 20 ms spacing,
    packet 5 forced lost on the fast path.  The slow copy arrives after
    the next packet, giving exactly one out-of-order forward with gap 1;
    reorder removal re-sequences it without dropping anything."""
    base = Scenario(
        paths=[
            PathSpec(id="fast", delay=DelayModel("constant", mean=10.0)),
            PathSpec(id="slow", delay=DelayModel("constant", mean=50.0)),
        ],
        traffic=TrafficSpec(interval=20.0, count=10),
        forced_losses={"fast": (5,)},
        label="forced fast-path loss",
    )
    plain = simulate(base)
    held = replace(base, padding=PaddingConfig(enabled=False, target_one_way=60.0),
                   reorder_removal=True,
                   label="forced fast-path loss + reorder removal")
    fixed = simulate(held)
    return {
        "plain_stats": reorder_stats(plain.forwarded_order),
        "plain_order": plain.forwarded_order.tolist(),
        "held_stats": reorder_stats(fixed.forwarded_order),
        "held_order": fixed.forwarded_order.tolist(),
        "held_delivered": int(np.count_nonzero(fixed.forward_ns >= 0)),
        "count": base.traffic.count,
    }


def fast_path_loss_gate(res: dict) -> Gate:
    plain, held = res["plain_stats"], res["held_stats"]
    ok = (plain.out_of_order_count == 1 and plain.gaps == {1: 1}
          and held.out_of_order_count == 0
          and res["held_delivered"] == res["count"])
    return Gate("loss-to-reordering", ok,
                f"plain gaps {plain.gaps}, held out-of-order {held.out_of_order_count}, "
                f"held delivered {res['held_delivered']}/{res['count']}")


class PaddingResult(NamedTuple):
    label: str
    target: float
    std_without: float
    std_with: float
    delivered_without: int
    delivered_with: int


def padding_check(mean2: float = 50.0, stddev2: float = 20.0,
                  count: int = 6000, label: str = "padding") -> PaddingResult:
    """Same seed with and without padding at the 95th-percentile target."""
    base = two_path_scenario(
        DelayModel("normal", mean=PADDING_MEAN1, stddev=PADDING_STDDEV1),
        DelayModel("normal", mean=mean2, stddev=stddev2),
        count=count, seed=SEED_PADDING, label=label,
    )
    plain = simulate(base)
    target = DelayCdf(plain.rail_delays_ms()).quantile(PADDING_QUANTILE)
    padded_scenario = replace(base, label=label + " padded",
                              padding=PaddingConfig(enabled=True, target_one_way=target))
    padded = simulate(padded_scenario)
    return PaddingResult(
        label=label,
        target=target,
        std_without=float(np.std(plain.forwarded_delays_ms())),
        std_with=float(np.std(padded.forwarded_delays_ms())),
        delivered_without=int(np.count_nonzero(plain.forward_ns >= 0)),
        delivered_with=int(np.count_nonzero(padded.forward_ns >= 0)),
    )


def padding_gate(res: PaddingResult) -> Gate:
    ok = (res.std_with < res.std_without
          and res.delivered_with == res.delivered_without)
    return Gate("padding-reduces-jitter", ok,
                f"{res.label}: std {res.std_without:.3f} -> {res.std_with:.3f} ms, "
                f"delivered {res.delivered_without} -> {res.delivered_with}")


class MosRun(NamedTuple):
    label: str
    deadlines: tuple[float, ...]
    mos_rail: list[float]
    mos_paths: list[list[float]]


def mos_dominance_runs(n_runs: int = 20, count: int = 3000) -> list[MosRun]:
    rng = np.random.default_rng(SEED_MOS_RUNS)
    runs = []
    for k in range(n_runs):
        sim = simulate(two_path_scenario(
            _random_delay_model(rng), _random_delay_model(rng),
            rate1=float(rng.uniform(0.0, 0.03)), rate2=float(rng.uniform(0.0, 0.03)),
            count=count, seed=SEED_MOS_RUNS + 500 + k, label=f"mos run {k}",
        ))
        rail = [p.score.mos for p in
                rail_mos_curve(sim, MOS_DEADLINES, END_SYSTEM_DELAY)]
        paths = [
            [p.score.mos for p in
             path_mos_curve(sim, i, MOS_DEADLINES, END_SYSTEM_DELAY)]
            for i in range(2)
        ]
        runs.append(MosRun(f"mos run {k}", MOS_DEADLINES, rail, paths))
    return runs


def mos_dominance_gate(runs: list[MosRun]) -> Gate:
    worst = 0.0
    for run in runs:
        for i, d in enumerate(run.deadlines):
            gap = max(run.mos_paths[0][i], run.mos_paths[1][i]) - run.mos_rail[i]
            worst = max(worst, gap)
    return Gate("mos-dominance", worst <= 1e-9,
                f"max single-path MOS excess {worst:.3g}")


def _rises(scores: np.ndarray) -> np.ndarray:
    """Per row of ``scores``: does some entry exceed the one before it?"""
    return (scores[..., 1:] > scores[..., :-1] + 1e-12).any(axis=-1)


def emodel_monotonicity_gate() -> Gate:
    # scored over arrays; each entry equals mos(loss, delay).mos bit for bit
    losses = [k / 100.0 for k in range(0, 101, 2)]
    delays = [float(d) for d in range(0, 501, 10)]
    delay_col = np.array(delays)
    _, grid = _rating(np.array(losses), delay_col[:, None])  # [delay, loss]
    for d, rose in zip(delays, _rises(grid).tolist()):
        if rose:
            return Gate("emodel-monotonicity", False, f"MOS rose with loss at delay {d}")
    for l in (0.0, 0.01, 0.05, 0.2):
        if _rises(_rating(l, delay_col)[1]):
            return Gate("emodel-monotonicity", False, f"MOS rose with delay at loss {l}")
    return Gate("emodel-monotonicity", True, "MOS nonincreasing in loss and delay")


def jitter_sweep(count: int = 3000) -> list[dict]:
    """Both paths at 100 ms mean, heavy-tailed jitter swept from 10-100 ms."""
    rows = []
    for k, sd in enumerate(range(10, 101, 10)):
        sim = simulate(two_path_scenario(
            DelayModel("paretonormal", mean=100.0, stddev=float(sd)),
            DelayModel("paretonormal", mean=100.0, stddev=float(sd)),
            count=count, seed=SEED_JITTER + k, label=f"jitter sd={sd}",
        ))
        rail_curve = rail_mos_curve(sim, MOS_DEADLINES, END_SYSTEM_DELAY)
        best = optimal_playout(rail_curve)
        mos_rail = max(p.score.mos for p in rail_curve)
        mos_single = [
            max(p.score.mos for p in
                path_mos_curve(sim, i, MOS_DEADLINES, END_SYSTEM_DELAY))
            for i in range(2)
        ]
        rows.append({
            "stddev": float(sd),
            "std_single": float(np.std(sim.path_delays_ms(0))),
            "std_rail": float(np.std(sim.rail_delays_ms())),
            "best_deadline": best,
            "mos_rail": mos_rail,
            "mos_single_best": max(mos_single),
        })
    return rows


def jitter_gate(rows: list[dict]) -> Gate:
    bad = [r for r in rows if r["mos_rail"] < r["mos_single_best"] - 1e-9]
    return Gate("jitter-mos-improvement", not bad,
                f"{len(rows) - len(bad)}/{len(rows)} sweep points dominated")


# --- TCP model surfaces ----------------------------------------------------

TCP_RTT1 = 10.0
# Literal grids: np.logspace's SIMD power loops may round a point otherwise
# on another CPU (tests/test_quality.py holds each literal within 1 ulp).
TCP_SURFACE_P = (  # np.logspace(-4, -1, 20)
    0.0001, 0.0001438449888287663, 0.00020691380811147902, 0.00029763514416313193,
    0.00042813323987193956, 0.0006158482110660267, 0.0008858667904100822,
    0.0012742749857031334, 0.0018329807108324356, 0.0026366508987303583,
    0.00379269019073225, 0.005455594781168515, 0.007847599703514606,
    0.011288378916846883, 0.01623776739188721, 0.023357214690901212,
    0.03359818286283781, 0.04832930238571752, 0.06951927961775606, 0.1)
TCP_SURFACE_RATIOS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
# region where the fast-link speedup stays between 4x and 10x
TCP_PRACTICAL_P = (  # np.logspace(log10(0.01), log10(0.03), 10)
    0.01, 0.01129830963909753, 0.012765180070092415, 0.014422495703074084,
    0.01629498222218846, 0.01841057547098748, 0.02080083823051904,
    0.023501431108118167, 0.026552644562143804, 0.029999999999999995)
TCP_SPOT = (0.01, 10.0)


def _tcp_rail(p: float, ratio: float) -> tuple[float, float]:
    """(Rail throughput, its speedup over the fast path alone) for two paths
    of loss ``p``, with RTTs ``TCP_RTT1`` and ``ratio`` times that."""
    rail = tcp_throughput_rail(
        TcpPathSet.of([(p, TCP_RTT1), (p, TCP_RTT1 * ratio)])).throughput
    return rail, rail / tcp_throughput_single(p, TCP_RTT1)


def tcp_surface() -> list[dict]:
    rows = []
    for p in TCP_SURFACE_P:
        for ratio in TCP_SURFACE_RATIOS:
            rail, speedup = _tcp_rail(p, ratio)
            rows.append({
                "p": p, "rtt_ratio": ratio,
                "throughput_rail": rail,
                "throughput_fast": tcp_throughput_single(p, TCP_RTT1),
                "throughput_slow": tcp_throughput_single(p, TCP_RTT1 * ratio),
                "speedup_vs_fast": speedup,
            })
    return rows


def tcp_surface_gate(rows: list[dict]) -> Gate:
    for r in rows:
        if not (r["throughput_rail"] > r["throughput_fast"]
                and r["throughput_rail"] > r["throughput_slow"]):
            return Gate("tcp-always-better", False,
                        f"p={r['p']:.4g} ratio={r['rtt_ratio']:.3g}")
    return Gate("tcp-always-better", True,
                f"{len(rows)} grid points, replication always won")


def tcp_spot_ratio() -> float:
    return _tcp_rail(*TCP_SPOT)[1]


def tcp_spot_gate() -> Gate:
    got = tcp_spot_ratio()
    expected = 101.0 / 11.0  # (1/sqrt(p)) * (1+p) / (1 + p*ratio) at the spot
    return Gate("tcp-spot-ratio", abs(got - expected) <= 1e-6,
                f"speedup {got!r} vs {expected!r}")


def tcp_practical_region() -> list[dict]:
    rows = []
    for p in TCP_PRACTICAL_P:
        for ratio in TCP_SURFACE_RATIOS:
            rows.append({"p": p, "rtt_ratio": ratio, "speedup": _tcp_rail(p, ratio)[1]})
    return rows


def tcp_practical_gate(rows: list[dict]) -> Gate:
    lo = min(r["speedup"] for r in rows)
    hi = max(r["speedup"] for r in rows)
    ok = lo >= 4.0 - 1e-9 and hi <= 10.0 + 1e-9
    return Gate("tcp-practical-range", ok, f"speedup range [{lo:.3f}, {hi:.3f}]")


TCP_NPATH_P = (0.001, 0.01, 0.05)


def tcp_npath() -> list[dict]:
    rows = []
    for p in TCP_NPATH_P:
        prev = None
        for n in range(1, 6):
            pred = tcp_throughput_rail(TcpPathSet.of([(p, 100.0)] * n))
            rows.append({
                "p": p, "n": n,
                "throughput": pred.throughput,
                "expected_rtt": pred.expected_rtt,
                "increment": None if prev is None else pred.throughput - prev,
            })
            prev = pred.throughput
    return rows


def tcp_npath_gate(rows: list[dict]) -> Gate:
    for p in TCP_NPATH_P:
        series = [r["throughput"] for r in rows if r["p"] == p]
        if any(b <= a for a, b in zip(series, series[1:])):
            return Gate("tcp-npath-monotone", False, f"not increasing at p={p}")
        # pairwise two-path formula, written out directly
        e_rtt = (100.0 * (1 - p) + 100.0 * p * (1 - p)) / (1 - p * p)
        t2 = 1.22 / ((e_rtt / 1000.0) * math.sqrt(p * p))
        if abs(series[1] - t2) > 1e-12 * t2:
            return Gate("tcp-npath-monotone", False, f"two-path mismatch at p={p}")
    return Gate("tcp-npath-monotone", True,
                "throughput strictly increasing, two-path value matches")


MOS_CONTOUR_LOSSES = tuple(k / 200.0 for k in range(0, 11))
MOS_CONTOUR_DELAYS = tuple(float(d) for d in range(0, 401, 25))


def mos_contour() -> list[dict]:
    rows = []
    for loss in MOS_CONTOUR_LOSSES:
        for delay in MOS_CONTOUR_DELAYS:
            score = mos(loss, delay)
            rows.append({"loss": loss, "delay": delay,
                         "r_factor": score.r_factor, "mos": score.mos})
    return rows


def mos_contour_gate(rows: list[dict]) -> Gate:
    # the rows of ``mos_contour``: one grid row per loss, one column per delay
    grid = np.array([r["mos"] for r in rows]).reshape(len(MOS_CONTOUR_LOSSES), -1)
    if _rises(grid).any() or _rises(grid.T).any():
        return Gate("mos-contour-shape", False, "MOS rose along an axis")
    return Gate("mos-contour-shape", True, "MOS falls along both axes")


def downtime_gate(rows) -> Gate:
    expected = {0.10: 0.01, 0.02: 0.0004, 0.005: 0.000025, 0.001: 0.000001}
    for both_bad, rail in rows:
        want = expected[both_bad]
        if abs(rail - want) > 1e-12 * want:
            return Gate("downtime-table", False, f"{both_bad} -> {rail!r}, want {want!r}")
    return Gate("downtime-table", True, "all four rows exact to 12 significant digits")


# ---------------------------------------------------------------------------
# the full bundle


def run_paper_suite() -> tuple[ReportBundle, list[Gate]]:
    bundle = ReportBundle(manifest={
        "tool": "railsim",
        "version": __version__,
        "suite": "paper-suite",
        "seeds": {
            "loss_sweep": SEED_LOSS_SWEEP, "burst_grid": SEED_BURST_GRID,
            "cdf_runs": SEED_CDF_RUNS, "ordering": SEED_ORDER_RUNS,
            "mos_runs": SEED_MOS_RUNS, "padding": SEED_PADDING,
            "jitter": SEED_JITTER,
        },
    })
    gates: list[Gate] = []

    rows = downtime_table()
    bundle.add_table("downtime", ["both_links_bad", "rail_bad"],
                     [[fmt_num(a), fmt_num(b)] for a, b in rows])
    gates.append(downtime_gate(rows))

    points = loss_sweep()
    bundle.add_table(
        "loss_sweep",
        ["rate", "measured_path0", "measured_path1", "measured_rail", "expected_rail"],
        [[fmt_num(p.rate), fmt_num(p.measured_single[0]), fmt_num(p.measured_single[1]),
          fmt_num(p.measured_rail), fmt_num(p.rate * p.rate)] for p in points],
    )
    gates.append(loss_sweep_gate(points))

    cells = burst_grid()
    bundle.add_table(
        "burst_grid",
        ["rate", "correlation",
         "single_lost_in_burst", "single_num_bursts", "single_avg_burst", "single_max_burst",
         "rail_lost_in_burst", "rail_num_bursts", "rail_avg_burst", "rail_max_burst"],
        [[fmt_num(c.rate), fmt_num(c.correlation),
          c.single.lost_in_burst, c.single.num_bursts, fmt_num(c.single.avg_burst),
          c.single.max_burst,
          c.rail.lost_in_burst, c.rail.num_bursts, fmt_num(c.rail.avg_burst),
          c.rail.max_burst] for c in cells],
    )
    gates.append(burst_grid_gate(cells))

    cdf_rows = cdf_dominance_runs()
    bundle.add_table("cdf_dominance", ["run", "max_survival_excess"],
                     [[run, fmt_num(v)] for run, v in cdf_rows])
    gates.append(cdf_dominance_gate(cdf_rows))

    order_rows = ordering_runs()
    bundle.add_table("ordering_runs", ["run", "paths_in_send_order", "forwarded_sorted"],
                     [[i, fmt_num(a), fmt_num(b)] for i, (a, b) in enumerate(order_rows)])
    gates.append(ordering_gate(order_rows))

    fp = fast_path_loss_check()
    bundle.add_table(
        "fast_path_loss",
        ["variant", "out_of_order", "gaps", "forwarded_order"],
        [
            ["plain", fp["plain_stats"].out_of_order_count,
             str(fp["plain_stats"].gaps), " ".join(map(str, fp["plain_order"]))],
            ["reorder_removal", fp["held_stats"].out_of_order_count,
             str(fp["held_stats"].gaps), " ".join(map(str, fp["held_order"]))],
        ],
    )
    gates.append(fast_path_loss_gate(fp))

    jit = jitter_sweep()
    bundle.add_table(
        "jitter_sweep",
        ["stddev", "std_single", "std_rail", "best_deadline", "mos_rail", "mos_single_best"],
        [[fmt_num(r["stddev"]), fmt_ms(r["std_single"]), fmt_ms(r["std_rail"]),
          fmt_num(r["best_deadline"]), fmt_num(r["mos_rail"]), fmt_num(r["mos_single_best"])]
         for r in jit],
    )
    gates.append(jitter_gate(jit))

    pads = [
        padding_check(label="padding-diff-mean"),
        padding_check(mean2=100.0, stddev2=5.0, label="padding-diff-jitter"),
    ]
    bundle.add_table(
        "padding",
        ["case", "target_ms", "std_without", "std_with",
         "delivered_without", "delivered_with"],
        [[p.label, fmt_ms(p.target), fmt_ms(p.std_without), fmt_ms(p.std_with),
          p.delivered_without, p.delivered_with] for p in pads],
    )
    for p in pads:
        gates.append(padding_gate(p))

    mos_runs = mos_dominance_runs()
    bundle.add_table(
        "mos_dominance",
        ["run", "deadline", "mos_rail", "mos_path0", "mos_path1"],
        [[run.label, fmt_num(d), fmt_num(run.mos_rail[i]),
          fmt_num(run.mos_paths[0][i]), fmt_num(run.mos_paths[1][i])]
         for run in mos_runs for i, d in enumerate(run.deadlines)],
    )
    gates.append(mos_dominance_gate(mos_runs))
    gates.append(emodel_monotonicity_gate())

    surf = tcp_surface()
    bundle.add_table(
        "tcp_surface",
        ["p", "rtt_ratio", "throughput_rail", "throughput_fast", "throughput_slow",
         "speedup_vs_fast"],
        [[fmt_num(r["p"]), fmt_num(r["rtt_ratio"]), fmt_num(r["throughput_rail"]),
          fmt_num(r["throughput_fast"]), fmt_num(r["throughput_slow"]),
          fmt_num(r["speedup_vs_fast"])] for r in surf],
    )
    gates.append(tcp_surface_gate(surf))
    gates.append(tcp_spot_gate())

    region = tcp_practical_region()
    bundle.add_table("tcp_practical_region", ["p", "rtt_ratio", "speedup"],
                     [[fmt_num(r["p"]), fmt_num(r["rtt_ratio"]), fmt_num(r["speedup"])]
                      for r in region])
    gates.append(tcp_practical_gate(region))

    npath = tcp_npath()
    bundle.add_table(
        "tcp_npath", ["p", "n", "throughput", "expected_rtt", "increment"],
        [[fmt_num(r["p"]), r["n"], fmt_num(r["throughput"]), fmt_num(r["expected_rtt"]),
          fmt_num(r["increment"])] for r in npath],
    )
    gates.append(tcp_npath_gate(npath))

    contour = mos_contour()
    bundle.add_table("mos_contour", ["loss", "delay", "r_factor", "mos"],
                     [[fmt_num(r["loss"]), fmt_num(r["delay"]), fmt_num(r["r_factor"]),
                       fmt_num(r["mos"])] for r in contour])
    gates.append(mos_contour_gate(contour))

    bundle.summaries = {
        "gates": [
            {"name": g.name, "passed": g.passed, "detail": g.detail} for g in gates
        ],
        "all_passed": all(g.passed for g in gates),
    }
    return bundle, gates
