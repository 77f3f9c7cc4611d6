"""Self-tests of the benchmark on tiny workloads.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys

import pytest

import ledger
import run

PACKAGE_DIR = run._import_program()

import suite  # noqa: E402  (needs the program on sys.path)

TINY = 0.03


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def _result(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--scale", str(TINY)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_named_metric_is_emitted(trace, section):
    result = _result("observed", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in _spec()[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == spec


def test_digest_from_another_seed_counts_as_failed_cell():
    w = suite.WORKLOADS["short_load"]
    cells = suite.build_cells(w, 3, TINY)
    results = suite.run_cells(w, cells)
    other = suite.run_cells(w, suite.build_cells(w, 4, TINY))

    same = run.Checker({r.name: r.digest for r in results})
    same.check_results("rerun", suite.run_cells(w, cells))
    assert (same.attempted, same.failed) == (len(cells), 0)

    wrong = run.Checker({r.name: r.digest for r in other})
    wrong.check_results("run", results)
    assert (wrong.attempted, wrong.failed) == (len(cells), len(cells))


def test_digest_ignores_flow_ids():
    w = suite.WORKLOADS["short_load"]
    cells = suite.build_cells(w, 3, TINY)
    first = [r.digest for r in suite.run_cells(w, cells)]
    # A second in-process run draws fresh flow ids from the global
    # counter; the simulated results, and so the digests, are the same.
    assert [r.digest for r in suite.run_cells(w, cells)] == first


def test_traced_ledger_conserves():
    metrics, checker, problems = run.measure_layers(
        "short_load", 3, 0.0, PACKAGE_DIR, scale=TINY)
    assert problems == [] and checker.failed == 0
    total = metrics["traced.total_s"][0]
    layer_sum = sum(metrics[f"{layer}.self_s"][0] for layer in ledger.LAYERS)
    assert layer_sum == pytest.approx(total, rel=1e-9)
    assert sum(metrics[f"{layer}.share"][0]
               for layer in ledger.LAYERS) == pytest.approx(1.0)


def test_fold_charges_outside_frames_to_their_repro_callers():
    pkg = os.path.join(os.sep, "x", "src", "repro")
    link = (os.path.join(pkg, "net", "link.py"), 10, "_admit_fast")
    sched = (os.path.join(pkg, "sim", "scheduler.py"), 5, "push")
    trace = (os.path.join(pkg, "sim", "trace.py"), 7, "record")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    helper = (os.path.join(os.sep, "lib", "random.py"), 1, "random")
    root = ("bench.py", 1, "main")
    stats = {
        link: (1, 1, 2.0, 9.0, {root: (1, 1, 2.0, 9.0)}),
        sched: (1, 1, 1.0, 4.0, {link: (1, 1, 1.0, 4.0)}),
        trace: (1, 1, 0.5, 0.5, {link: (1, 1, 0.5, 0.5)}),
        # 3 s of heappush: 1 s under the link, 2 s under the scheduler.
        heappush: (2, 2, 3.0, 3.0, {link: (1, 1, 1.0, 1.0),
                                    sched: (1, 1, 2.0, 2.0)}),
        # A stdlib frame called only from outside repro inherits its
        # caller's split.
        helper: (1, 1, 0.25, 0.25, {heappush: (1, 1, 0.25, 0.25)}),
        root: (1, 1, 0.75, 10.0, {}),
    }
    folded = ledger.fold(stats, pkg)
    assert folded["net"] == pytest.approx(2.0 + 1.0 + 0.25 / 3)
    assert folded["sim"] == pytest.approx(1.0 + 2.0 + 0.25 * 2 / 3)
    assert folded["obs"] == pytest.approx(0.5)
    assert folded["other"] == pytest.approx(0.75)
    total = sum(entry[2] for entry in stats.values())
    assert ledger.conserves(folded, total)
    folded["other"] += 0.01
    assert not ledger.conserves(folded, total)


def test_layers_follow_module_paths():
    pkg = os.path.join(os.sep, "x", "src", "repro")

    def layer(*parts):
        return ledger.layer_of(os.path.join(pkg, *parts), pkg)

    assert layer("transport", "sacks.py") == "transport.sender"
    assert layer("transport", "receiver.py") == "transport.receiver"
    assert layer("core", "ropr.py") == "protocols"
    assert layer("audit", "invariants.py") == "obs"
    assert layer("workloads", "arrivals.py") == "experiments"
    assert layer("units.py") == "other"
    assert ledger.layer_of("/usr/lib/python3/heapq.py", pkg) is None
