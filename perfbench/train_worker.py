"""Training worker: the program process of the ``train-epoch`` workload.

    python3 perfbench/train_worker.py DATA_DIR SEED

Builds the training set-up (imports, features, windows, loaders) from the
races saved in ``DATA_DIR`` and prints ``{"ready": true}``.  It then reads
one line from standard input: ``exit`` ends it, a JSON object
``{"seconds": S, "probes": true, "epochs": null}`` runs the job and prints
the job's result as one JSON line.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from trainjob import TrainJob  # noqa: E402


def main() -> int:
    job = TrainJob(sys.argv[1], int(sys.argv[2]))
    print(json.dumps({"ready": True}), flush=True)
    command = sys.stdin.readline().strip()
    if not command or command == "exit":
        return 0
    request = json.loads(command)
    result = job.run(float(request["seconds"]), probes=bool(request["probes"]), epochs=request["epochs"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
