#!/usr/bin/env python
"""Operational features on one run: checkpointing and tracing.

A paper-scale accuracy run is ~2 days per mode; this example shows the
machinery a production campaign needs, on the laptop-scale system:

1. run with a checkpoint written at every SCF block boundary,
2. kill/resume — the continuation is bitwise identical,
3. trace both under a telemetry collector: its Chrome trace shows the
   measured spans and, as a second process, the modelled device.

Run:  python examples/operations_workflow.py [workdir]
"""

import sys
from pathlib import Path

from repro.dcmesh import Simulation, SimulationConfig
from repro.dcmesh.io import load_checkpoint
from repro.gpu import Device
from repro.telemetry import telemetry


def main(workdir: str = "ops_workdir") -> None:
    work = Path(workdir)
    work.mkdir(parents=True, exist_ok=True)
    cfg = SimulationConfig.small_test(n_qd_steps=80, nscf=20)
    device = Device()
    sim = Simulation(cfg, device=device)
    sim.setup()

    # 1-3: checkpointed run + bitwise resume, traced.
    with telemetry(out_dir=work):
        ckpt_path = work / "state.npz"
        full = sim.run(mode="FLOAT_TO_BF16", checkpoint_path=ckpt_path)
        ckpt = load_checkpoint(ckpt_path)
        print(f"checkpoint written at QD step {ckpt.step} -> {ckpt_path}")
        resumed = sim.run(mode="FLOAT_TO_BF16", resume_from=ckpt)
    tail = full.records[-len(resumed.records):]
    identical = all(a == b for a, b in zip(resumed.records, tail))
    print(f"resumed run bitwise identical to the uninterrupted tail: {identical}")

    trace = work / "trace.chrome.json"
    print(
        f"\n{len(device.timeline)} modelled kernels "
        f"({device.total_l0_time():.3f} s of modelled device time) -> {trace}"
    )
    print("open in chrome://tracing or https://ui.perfetto.dev")


if __name__ == "__main__":
    main(*sys.argv[1:2])
