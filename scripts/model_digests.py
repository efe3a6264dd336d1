"""SHA-256 of the model file and the trace each bench workload trains, per seed.

Builds each workload's inputs with ``bench/workloads.py`` (imported, never
changed), trains once per seed and prints one line per run:

    <workload> <seed> <sha256 of network.serialize(model)> <sha256 of the trace>

The trace digest covers ``trace.lines()``, one line per depth, with the
wall-clock ``secs=`` field masked. BLAS is pinned to one thread before
numpy loads, so the printed digests depend only on the code and the seed.
Two checkouts that print the same lines write byte-identical models and
trace the same depths; diff their outputs to check that a refactor left
every answer unchanged.

Usage:
    python3 scripts/model_digests.py [--workloads rect-hinge ...] [--seeds 1 2 3]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from basis_learner.network import serialize  # noqa: E402
from basis_learner.trainer import train  # noqa: E402
from workloads import BUILDERS, make_inputs  # noqa: E402

_SECS = re.compile(r" secs=\S+")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=list(BUILDERS), default=list(BUILDERS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = ap.parse_args(argv)
    for name in args.workloads:
        for seed in args.seeds:
            inputs = make_inputs(name, seed)
            net, trace = train(inputs.fit, inputs.valid, inputs.config)
            model_digest = hashlib.sha256(serialize(net)).hexdigest()
            lines = "\n".join(_SECS.sub(" secs=*", line) for line in trace.lines())
            trace_digest = hashlib.sha256(lines.encode()).hexdigest()
            print(name, seed, model_digest, trace_digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
