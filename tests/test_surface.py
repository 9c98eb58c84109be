"""The public names of the package and the bindings the benchmark tracer wraps.

bench/spans.py wraps hambea's layer entry points by name from outside the
package; deleting or renaming one of them breaks every traced benchmark run
at start-up.  These checks catch that in the tier-1 suite, together with
what set-up imports: numpy and nothing heavier, and nothing left for a
study run to import.  No linter runs here, so an AST scan also flags names
that a library module imports and never uses.
"""

import ast
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


# a bea study traced as bench/worker.py traces it: the CLI imported first,
# then the recorder installed over it
_TRACED_BEA = """
import json, sys
import hambea.harness.cli as cli
import hambea.harness.config as hconfig
import spans
rec = spans.install()
cli._STUDIES["bea"](hconfig.load_config(sys.argv[1]), out_dir=sys.argv[2], seed=7)
print(json.dumps(rec.layer_metrics()))
"""


_RUN_IMPORTS = """
import json, sys
import hambea.harness.cli as cli
import hambea.harness.config as hconfig
cfg = hconfig.load_config(sys.argv[1])
ready = set(sys.modules)
for i, study in enumerate(sys.argv[3:]):
    cli._STUDIES[study](cfg, out_dir=f"{sys.argv[2]}/{i}", seed=7)
print(json.dumps({"scipy": sorted(m for m in ready if m.split(".")[0] == "scipy"),
                  "new": sorted(set(sys.modules) - ready)}))
"""


def _fresh_python(code, *args):
    env = dict(os.environ)
    path = [str(ROOT / "src"), str(ROOT / "bench"), env.get("PYTHONPATH", "")]
    env.update(PYTHONPATH=os.pathsep.join(p for p in path if p), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_setup_imports_no_scipy_and_runs_import_nothing(tmp_path):
    # Set-up (import and config) loads numpy and nothing heavier, and a
    # study run imports nothing more: a lazy import there would be paid
    # inside every timed run.
    from test_harness import base_config, write_config

    out = _fresh_python(
        _RUN_IMPORTS, write_config(tmp_path, base_config()), str(tmp_path),
        "integrate", "drift", "bea",
    )
    assert out == {"scipy": [], "new": []}


def test_library_modules_use_every_name_they_import():
    # a `from ... import` name that nothing in its module uses; the package
    # __init__ files are exempt, since they import names to re-export them
    unused = []
    for path in sorted((ROOT / "src" / "hambea").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
                unused += [f"{path.name}: {name}" for name in names if name not in used]
    assert unused == []


def test_public_names_resolve():
    missing = [name for name in hambea.__all__ if not hasattr(hambea, name)]
    assert missing == []
    assert len(set(hambea.__all__)) == len(hambea.__all__)


def test_tracer_binds_every_layer():
    # in a fresh interpreter: install() patches hambea's modules in place
    out = _fresh_python(_PROBE)
    assert RUN_ADDED <= set(out["want"])
    assert sorted(set(out["want"]) - RUN_ADDED - set(out["got"])) == []


def test_tracer_reads_the_bea_layers(tmp_path):
    # a rename on the modified-flow path would leave these at 0 in the traced
    # benchmark run without failing it
    from test_harness import base_config, write_config

    got = _fresh_python(_TRACED_BEA, write_config(tmp_path, base_config()), str(tmp_path))
    for name in ("bea.modified_flow.calls", "bea.modified_flow.nfev", "hjet.expand.calls"):
        assert got[name] > 0, name
