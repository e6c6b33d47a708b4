"""Set-up of one workload in a fresh interpreter; prints ``ready`` when the
first request or task could be issued, then the host's mean speed over the
set-up (see ``hostspeed``).  Run by ``measure.setup_seconds``:

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def setup(workload: str, seed: int) -> None:
    if workload.startswith("svc-"):
        from repro.harness.load import build_schedule
        from repro.service.clock import TickClock, logical_event_loop
        from repro.service.service import ConsensusService

        from wl_service import make_inputs

        inputs = make_inputs(workload, seed)
        build_schedule(inputs.spec())
        loop = logical_event_loop()
        try:
            ConsensusService(inputs.config(), TickClock(loop))
        finally:
            loop.close()
    elif workload == "paper-sweeps":
        from repro.harness import experiments  # noqa: F401
        from repro.store import ResultStore

        from wl_paper import WORK_DIR, make_inputs

        make_inputs(seed)
        ResultStore(root=os.path.join(WORK_DIR, "setup-probe"))
    else:
        from repro.chaos.matrix import CONFIGS

        from wl_chaos import ROWS

        for row in ROWS:
            CONFIGS[row]


def main(workload: str, seed: int) -> None:
    from hostspeed import HostSpeed

    host = HostSpeed()
    with host:
        setup(workload, seed)
    print("ready", flush=True)
    print(host.mean_speed(), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
