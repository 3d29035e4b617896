"""Extension — the multi-user BD Insights mode.

Section 5.1.1: "The workload can be run in several modes with both single
user and varying multi-user combinations using the Apache JMETER load
driver."  The paper only charts the single-user mode (Figures 5–6); this
test runs the multi-user combination — six dashboard analysts, three
sales-report analysts and one data scientist, with think-time pacing — and
checks the fleet-level effect of GPU offload.
"""

from repro.sim import UserScript, WorkloadSimulator
from repro.workloads.scenarios import bd_insights_multiuser_groups


def test_ext_bd_multiuser(driver):
    groups = bd_insights_multiuser_groups()

    def simulate(gpu: bool):
        users = []
        for name, threads, queries in groups:
            profiles = [driver.profile(q, gpu) for q in queries]
            for t in range(threads):
                users.append(UserScript(
                    user_id=f"{name}-{t + 1}", profiles=list(profiles),
                    loops=2,
                    think_seconds=0.002 if name == "dashboard" else 0.0,
                ))
        simulator = WorkloadSimulator(
            driver._sim_config(gpu))
        return simulator.run(users)

    def run():
        return simulate(True), simulate(False)

    on, off = run()

    assert on.queries_completed == off.queries_completed
    # The fleet finishes sooner with the GPUs absorbing the heavy queries.
    assert on.makespan < off.makespan
