"""One benchmark repetition: a fresh interpreter that sets up and runs one study.

run.py starts this script once per repetition with PYTHONPATH pointing at the
checkout's src/.  It prints one JSON line:

- setup_s: from the parent's clock reading just before the interpreter was
  started (--t0, CLOCK_MONOTONIC, which is system-wide on Linux) through
  ``import hambea.harness.cli`` and ``load_config``;
- run_s: wall time of the study call, from entering run_* until it returns
  with its CSVs written;
- peak_rss_mb: peak resident set size of this process;
- layers: with --trace 1, the per-layer figures from the span recorder.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--study", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    import hambea
    import hambea.harness.cli as cli
    import hambea.harness.config as hconfig

    recorder = None
    if args.trace:
        import spans

        recorder = spans.install()
    cfg = hconfig.load_config(args.config)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    study = cli._STUDIES[args.study]
    t = time.perf_counter()
    study(cfg, out_dir=args.out, seed=args.seed, threads=1)
    run_s = time.perf_counter() - t

    result = {
        "setup_s": ready - args.t0,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "module": hambea.__file__,
    }
    if recorder is not None:
        result["layers"] = recorder.layer_metrics()
        recorder.dump(f"{args.out}/spans.npy")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
