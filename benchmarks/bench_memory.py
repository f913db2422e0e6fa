"""Cold-start resident memory: mmap artifact loads vs full copies.

Not a paper artifact — the memory half of the zero-copy cold-start
claim (`bench_cold_start.py` measures the wall-clock half). A serving
process that loads an artifact with ``mmap_mode="r"`` maps the stored
node arrays instead of copying them into its heap; pages fault in only
as inference touches them, and the OS page cache shares them between
every worker on the host. The claim measured here:

* **rss** — the RSS growth of a fresh subprocess that loads a
  serving-scale artifact and answers one batch is strictly smaller
  under mmap than under the copying load, by at least 2× around the
  load itself. Smoke mode only asserts bit-identity: a tiny artifact's
  node arrays are smaller than the array objects that view them, so
  RSS deltas at that scale measure allocator noise, not the claim.

Each measurement runs in its own subprocess (interpreter + numpy RSS
is noise at this scale; the *delta* around the load isolates the
artifact's contribution), reading ``VmRSS`` from ``/proc/self/status``
— no third-party process library needed.

Prints one machine-readable JSON summary line (``MEMORY {...}``).

Scale knobs (environment):

* ``PHOOK_BENCH_MEMORY_SAMPLES`` / ``PHOOK_BENCH_MEMORY_TREES`` —
  synthetic forest scale (default 4000 × 120, a few MB of node
  arrays),
* ``PHOOK_BENCH_SMOKE`` — CI smoke mode: small forest, direction-only
  assert.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np

from benchmarks.conftest import env_int, run_once
from repro.artifacts import save_artifact
from repro.ml.forest import RandomForestClassifier

SMOKE = bool(int(os.environ.get("PHOOK_BENCH_SMOKE", "0")))
N_SAMPLES = env_int("PHOOK_BENCH_MEMORY_SAMPLES", 500 if SMOKE else 4000)
N_TREES = env_int("PHOOK_BENCH_MEMORY_TREES", 24 if SMOKE else 120)
#: Copy-load RSS growth over mmap-load RSS growth, gated at full scale
#: only — smoke-scale artifacts are smaller than allocator noise.
MIN_RSS_RATIO = 2.0

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Runs in a fresh interpreter: RSS before load, load + one batch,
#: RSS after. ``argv``: artifact path, "mmap"|"copy", probe rows file.
_CHILD = """
import json, sys
import numpy as np
from repro.artifacts import load_artifact

def rss_kb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("no VmRSS in /proc/self/status")

path, mode, probe_path = sys.argv[1:4]
probe = np.load(probe_path)
before = rss_kb()
model, __ = load_artifact(path, mmap_mode="r" if mode == "mmap" else None)
loaded = rss_kb()
proba = model.predict_proba(probe)
after = rss_kb()
print(json.dumps({
    "before_kb": before,
    "loaded_kb": loaded,
    "after_kb": after,
    "load_delta_kb": loaded - before,
    "serve_delta_kb": after - before,
    "proba_head": proba[:4].tolist(),
}))
"""


def _measure(path, mode, probe_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(
            os.pathsep) if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, str(path), mode, str(probe_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, (
        f"{mode} load subprocess failed:\n{result.stderr}"
    )
    return json.loads(result.stdout)


def test_cold_start_rss(benchmark, tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(N_SAMPLES, 24))
    y = (X[:, 0] + 0.5 * X[:, 3] > 0).astype(int)
    forest = RandomForestClassifier(
        n_estimators=N_TREES, random_state=0
    ).fit(X, y)
    path = tmp_path / "serving-forest.npz"
    info = save_artifact(forest, path, model_name="Random Forest",
                         compression="stored")
    probe_path = tmp_path / "probe.npy"
    np.save(probe_path, X[:64])

    def run():
        copy = _measure(info.path, "copy", probe_path)
        mapped = _measure(info.path, "mmap", probe_path)
        return {
            "artifact_bytes": info.path.stat().st_size,
            "trees": N_TREES,
            # The load delta is the cold-start claim: mmap defers the
            # node-array copy entirely. The serve delta adds the first
            # batch's working set (descent tables), identical for both
            # paths, so it is reported but not gated as a ratio.
            "copy_load_kb": copy["load_delta_kb"],
            "mmap_load_kb": mapped["load_delta_kb"],
            "copy_serve_kb": copy["serve_delta_kb"],
            "mmap_serve_kb": mapped["serve_delta_kb"],
            "rss_saving_kb": (
                copy["serve_delta_kb"] - mapped["serve_delta_kb"]
            ),
            "rss_ratio": (
                copy["load_delta_kb"] / max(1, mapped["load_delta_kb"])
            ),
            "identical": copy["proba_head"] == mapped["proba_head"],
            "smoke": SMOKE,
        }

    summary = run_once(benchmark, run)
    print(f"\nMEMORY {json.dumps(summary)}")

    assert summary["identical"], (
        "mmap-loaded subprocess served different probabilities"
    )
    if not SMOKE:
        assert summary["rss_saving_kb"] > 0, (
            f"mmap serving grew RSS by {summary['mmap_serve_kb']}KB, "
            f"not less than the copying load's "
            f"{summary['copy_serve_kb']}KB"
        )
        assert summary["rss_ratio"] >= MIN_RSS_RATIO, (
            f"copy/mmap load RSS-growth ratio {summary['rss_ratio']:.2f} "
            f"below the {MIN_RSS_RATIO:.0f}x floor"
        )
