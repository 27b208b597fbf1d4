"""Golden digests: output bytes pinned, not just rerun-stable.

Every figure here was recorded from the reference implementation.  A
change that moves any of them changed what railsim writes, so a
refactor or speed-up that is meant to keep behaviour must keep them all.

The paper-suite digest follows the bundle recipe: files sorted by name,
each fed as ``name + b"\\0" + bytes``.  The simulate scenarios are small
but reach every datapath branch that keeps state across rows: a sticky
loss / AR(1) scan that crosses a chunk boundary, the window-miss dedup
loop feeding the reorder hold, padding with a shared segment, forced
losses and a trace replay that wraps, and a run whose times pass 2^53 ns,
where int64 nanoseconds stop being exact float64 values.  The padded
scenario's manifest is pinned too: it carries the scenario hash, which
covers the trace the scenario replays.  The trace-analyze and
paper-suite bundles are pinned in both table formats.

Every digest rests on numpy's random streams, which numpy's policy (NEP
19) lets a feature release change.  Their first values are pinned too, so
a numpy that changes one fails a test that names the stream.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from railsim import cli, railedge, suite
from railsim.engine import NS_PER_MS, load_scenario, simulate
from railsim.pathsim import CHUNK, path_key

PAPER_SUITE_SHA256 = "4183b08667e37815151419683ddbe0c7df4cd6513b7cd3ba018259754516d132"

# The same bundle written with fmt="json": its tables hold floats,
# strings, bools and None, which the records tables do not.
PAPER_SUITE_JSON_SHA256 = (
    "f4df9b8e60f626af94706b34b00020bf3d5c7dad87290d52a76f12693374df7f")

CORRELATED = f"""
[scenario]
label = golden correlated
seed = 424242

[traffic]
interval = 20
count = {CHUNK + 500}

[padding]
enabled = true
target_one_way = 120

[paths.0]
id = a
rate = 0.05
correlation = 0.6
delay = paretonormal
mean = 60
stddev = 15
delay_correlation = 0.9

[paths.1]
id = b
rate = 0.08
correlation = 0.6
delay = paretonormal
mean = 80
stddev = 25
delay_correlation = 0.9

[paths.2]
id = c
rate = 0.02
correlation = 0.6
delay = normal
mean = 100
stddev = 10
delay_correlation = 0.9
"""

HOLD = """
[scenario]
label = golden hold
seed = 777
dedup_window = 64
reorder_removal = true

[traffic]
interval = 1
count = 4000

[padding]
enabled = false
target_one_way = 150

[paths.0]
id = a
rate = 0.2
delay = normal
mean = 40
stddev = 30

[paths.1]
id = b
rate = 0.2
delay = normal
mean = 60
stddev = 30

[paths.2]
id = c
rate = 0.2
delay = normal
mean = 80
stddev = 30
"""

PADDED = """
[scenario]
label = golden padded
seed = 31337

[traffic]
interval = 20
count = 3000

[padding]
enabled = true
target_one_way = 90

[shared.core]
rate = 0.05
correlation = 0.4

[paths.0]
id = a
rate = 0.03
delay = normal
mean = 50
stddev = 20
delay_correlation = 0.3
shared = core
force_loss = 0,7,99,2999

[paths.1]
id = b
rate = 0.01
delay = paretonormal
mean = 70
stddev = 10
shared = core

[paths.2]
id = t
delay = trace
trace = golden.trace
force_loss = 5
"""

# Send, arrival and padding times beyond 2^53 ns (about 104 days), a path
# id that the CSV header must quote, one partial and one total forced loss.
FAR = """
[scenario]
label = golden far
seed = 2053

[traffic]
interval = 2e8
count = 100

[padding]
enabled = true
target_one_way = 3e10

[paths.0]
id = a,b
delay = normal
mean = 1e10
stddev = 1e9
force_loss = 3,7

[paths.1]
id = c
delay = normal
mean = 1.5e10
stddev = 5e9
force_loss = 7
"""

TRACE = "".join(f"{k},{0 if k % 17 == 0 else 45 + (k * 7) % 23}\n"
                for k in range(1, 1001))

SIMULATE_SHA256 = {
    "correlated": {
        "records.csv":
            "c92b9e7155225ec6c1a780a64cf56bf4308de195f7a4177de2f8d9e0bcd1bb79",
        "summary.json":
            "c8caf448bbf82326efc0124450f32187aebcb79d6450021c1121d1186541412c",
    },
    "hold": {
        "records.csv":
            "09c42c4778f7c3ee1c756de52f5ccd6fd1d5b38680051bd89d6ab693400fcf0a",
        "summary.json":
            "a27fa1e3c98c1871b493955cf45ef7327afa0a30599aba7146454c98e2017830",
    },
    "padded": {
        "records.csv":
            "f73ea6d9dfa6687148021b3eb8723f095587e649e34678280941e111c3d0aaec",
        "summary.json":
            "c71706abe78d2a9860eadeadbb0bffb98a02630bc908ef90d07a2030829f8693",
    },
    "far": {
        "records.csv":
            "09e8fde9e2561f5390c64b2b6d8fcc5e78a467bfeb2d00357640445dac503612",
        "summary.json":
            "c2486499d050e3bf897b36ff103ccf7e18f6c51c949bae90c778486ec1ebddb5",
    },
}

PADDED_RECORDS_JSON_SHA256 = (
    "7fe6dd0e3b16bbab5affaba04e01535082c208a575b9e8300faa19ff34dae8ac")

PADDED_MANIFEST_SHA256 = (
    "b0e05594fe2e769930b8afa46cdb55187c835b45b7dc4bef3d705ec286b0a0e6")

# The trace-analyze fixture: gaps in seq, lost entries and delays with
# more than six decimals.
ANALYZE_TRACE = (
    "# seq,delay_ms\n"
    + "".join(f"{k * 3},{0 if k % 11 == 0 else k * 7919 % 100003 / 997}\n"
              for k in range(1, 2001))
    + "6010,123456789.1234567\n6011,0\n6012,1e-9\n")

TRACE_ANALYZE_BUNDLE_SHA256 = {
    "csv": "e8cb2ebabd5285b34784d793400dcac09c0659aadd5e8428d83a4e3a5c17cc43",
    "json": "4c9e203ab64f35ca8f1a9086f77614721eaf56a86ea99ae76e2c81709ba0c2e5",
}

SCENARIOS = {"correlated": CORRELATED, "hold": HOLD, "padded": PADDED, "far": FAR}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def bundle_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir(), key=lambda p: p.name):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _simulate(name: str, tmp_path: Path, *options: str) -> Path:
    (tmp_path / "golden.trace").write_text(TRACE)
    scenario = tmp_path / f"{name}.scenario"
    scenario.write_text(SCENARIOS[name])
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out),
                     *options]) == 0
    return out


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_simulate_output_matches_golden(name, tmp_path):
    out = _simulate(name, tmp_path)
    got = {f: _sha256(out / f) for f in ("records.csv", "summary.json")}
    assert got == SIMULATE_SHA256[name]


def test_simulate_json_records_match_golden(tmp_path):
    out = _simulate("padded", tmp_path, "--format", "json")
    assert _sha256(out / "records.json") == PADDED_RECORDS_JSON_SHA256


def test_simulate_manifest_matches_golden(tmp_path):
    out = _simulate("padded", tmp_path)
    assert _sha256(out / "manifest.json") == PADDED_MANIFEST_SHA256


@pytest.mark.parametrize("fmt", sorted(TRACE_ANALYZE_BUNDLE_SHA256))
def test_trace_analyze_bundle_matches_golden(fmt, tmp_path):
    trace = tmp_path / "fixture.trace"
    trace.write_text(ANALYZE_TRACE)
    out = tmp_path / "out"
    assert cli.main(["trace-analyze", "--trace", str(trace), "--out", str(out),
                     "--format", fmt]) == 0
    assert bundle_digest(out) == TRACE_ANALYZE_BUNDLE_SHA256[fmt]


def test_far_scenario_arrivals_need_exact_integer_division(tmp_path):
    """The far pin bites only if float64 division of the int64 column
    would print some arrival cell differently."""
    out = _simulate("far", tmp_path)
    header, *rows = (out / "records.csv").read_text().splitlines()
    assert header.startswith('seq,send_ms,"arrival_a,b_ms",')
    arrival_ns = simulate(load_scenario(tmp_path / "far.scenario")).arrival_ns[1]
    written = [row.split(",")[3] for row in rows]  # arrival_c_ms
    assert "LOST" in written
    delivered = [i for i, cell in enumerate(written) if cell != "LOST"]
    by_numpy = [f"{x:.6f}" for x in (arrival_ns[delivered] / NS_PER_MS).tolist()]
    assert any(written[i] != cell for i, cell in zip(delivered, by_numpy))
    assert all(written[i] == f"{int(arrival_ns[i]) / NS_PER_MS:.6f}"
               for i in delivered)


def test_paper_suite_bundle_matches_golden(tmp_path, monkeypatch):
    """The bundle is pinned, and every suite run proves that its dedup
    window cannot evict, so none pays for the sequential dedup pass."""
    loops = []
    monkeypatch.setattr(railedge, "window_miss_duplicates",
                        lambda *args: loops.append(args))
    bundle, gates = suite.run_paper_suite()
    assert loops == []
    assert all(g.passed for g in gates)
    bundle.write(tmp_path)
    assert bundle_digest(tmp_path) == PAPER_SUITE_SHA256


def test_paper_suite_json_bundle_matches_golden(tmp_path):
    bundle, _ = suite.run_paper_suite()
    bundle.write(tmp_path, fmt="json")
    assert bundle_digest(tmp_path) == PAPER_SUITE_JSON_SHA256


def _path_stream(advance: int = 0) -> np.random.Generator:
    bit_gen = np.random.PCG64(path_key(7, 1))
    bit_gen.advance(advance)
    return np.random.Generator(bit_gen)


def _suite_draws(method: str, *args, k: int) -> list:
    """``k`` scalar draws, one call each, as the suite makes them."""
    rng = np.random.default_rng(suite.SEED_CDF_RUNS)
    return [getattr(rng, method)(*args) for _ in range(k)]


# Each stream the digests read: pathsim's PCG64 per path key (uniform and
# ziggurat normal columns, and the skip past a chunk's unread rows) and the
# suite's default_rng draws of random delay models.  The normals pin the
# 1000th value too, which a change in the ziggurat's slow path would move.
NUMPY_STREAMS = {
    "PCG64(path_key(7, 1)).random": (
        lambda: _path_stream().random(3),
        ["0x1.7d5636941fd69p-1", "0x1.3f78655842512p-1", "0x1.ce66557c48800p-4"]),
    "PCG64(path_key(7, 1)).standard_normal": (
        lambda: _path_stream().standard_normal(1000)[[0, 1, 2, -1]],
        ["-0x1.2fc2118acfd08p+1", "-0x1.3614bc695a368p+1", "0x1.42632fb92891dp+0",
         "-0x1.0f4a893862983p+0"]),
    "PCG64(path_key(7, 1)).advance(CHUNK) then random": (
        lambda: _path_stream(CHUNK).random(2),
        ["0x1.648ad4c9c92d4p-1", "0x1.92096684faa55p-1"]),
    "default_rng(SEED_CDF_RUNS).random": (
        lambda: _suite_draws("random", k=3),
        ["0x1.2faaa04aa9e00p-6", "0x1.2b60ed6ac9f17p-1", "0x1.ee048327a46f3p-1"]),
    "default_rng(SEED_CDF_RUNS).uniform(30.0, 120.0)": (
        lambda: _suite_draws("uniform", 30.0, 120.0, k=3),
        ["0x1.fab07f168fee3p+4", "0x1.4a8026ef15fdcp+6", "0x1.d35b2c37df9e3p+6"]),
    "default_rng(SEED_CDF_RUNS).choice([0.0, 0.3, 0.6])": (
        lambda: _suite_draws("choice", [0.0, 0.3, 0.6], k=6),
        ["0x0.0p+0", "0x0.0p+0", "0x1.3333333333333p-2", "0x1.3333333333333p-2",
         "0x1.3333333333333p-1", "0x1.3333333333333p-1"]),
}


@pytest.mark.parametrize("method", sorted(NUMPY_STREAMS))
def test_numpy_random_stream_matches_its_pin(method):
    draw, pinned = NUMPY_STREAMS[method]
    got = [float(v).hex() for v in draw()]
    assert got == pinned, (f"numpy {np.__version__} changed the stream of {method}: "
                           "every golden digest that reads it moves with it")
