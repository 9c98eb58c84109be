"""The public names of the package and the bindings the benchmark tracer wraps.

bench/spans.py wraps hambea's layer entry points by name from outside the
package; deleting or renaming one of them breaks every traced benchmark run
at start-up.  These checks catch that in the tier-1 suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import hambea

ROOT = Path(__file__).resolve().parents[1]

# figures that bench/run.py adds itself; the recorder never reports them
RUN_ADDED = {
    "bea.expfit.fit_points", "setup.import_s", "setup.scipy_integrate_s", "trace.overhead_s"
}

_PROBE = """
import json, spans
got = spans.install().layer_metrics()
print(json.dumps({"want": [n for n, _u, _b in spans.LAYER_METRICS], "got": sorted(got)}))
"""


def test_public_names_resolve():
    missing = [name for name in hambea.__all__ if not hasattr(hambea, name)]
    assert missing == []
    assert len(set(hambea.__all__)) == len(hambea.__all__)


def test_tracer_binds_every_layer():
    # in a fresh interpreter: install() patches hambea's modules in place
    env = dict(os.environ)
    path = [str(ROOT / "src"), str(ROOT / "bench"), env.get("PYTHONPATH", "")]
    env.update(PYTHONPATH=os.pathsep.join(p for p in path if p), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert RUN_ADDED <= set(out["want"])
    assert sorted(set(out["want"]) - RUN_ADDED - set(out["got"])) == []
