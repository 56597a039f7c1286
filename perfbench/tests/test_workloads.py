from perfbench import workloads

#: The benchmark's run length (``run_seconds`` in BENCHMARK.json).
SECONDS = 50


def test_daemon_plans_are_pure_functions_of_their_arguments():
    for workload in workloads.DAEMON:
        assert workloads.daemon_plan(workload, 5, 20) == workloads.daemon_plan(workload, 5, 20)
        assert workloads.daemon_plan(workload, 5, 20) != workloads.daemon_plan(workload, 6, 20)


def test_in_process_rounds_are_deterministic_and_balanced():
    for workload in workloads.INPROCESS:
        for index in range(3):
            ops = workloads.inprocess_round(workload, 9, index)
            assert ops == workloads.inprocess_round(workload, 9, index)
            algorithms = [a for a, _, _ in ops]
            assert sorted(set(algorithms)) == sorted(workloads.INPROCESS[workload]["algorithms"])
            assert len(algorithms) % len(set(algorithms)) == 0


def test_cold_jobs_never_share_a_population():
    plan = workloads.daemon_plan("daemon-cold", 3, SECONDS)
    specs = plan["warmup"] + [
        s for block in plan["blocks"] for s in [s for _, s in block["open"]] + block["backlog"]
    ]
    sizes = [s["n_workers"] for s in specs]
    assert len(set(sizes)) == len(sizes)
    assert len({s["id"] for s in specs}) == len(specs)


def test_open_loop_arrivals_run_at_the_offered_rate():
    for workload, cfg in workloads.DAEMON.items():
        plan = workloads.daemon_plan(workload, 1, SECONDS)
        assert len(plan["blocks"]) > 1
        for block in plan["blocks"]:
            offsets = [due for due, _ in block["open"]]
            assert offsets[0] == 0.0
            assert offsets == sorted(offsets)
            assert offsets[1] - offsets[0] == 1.0 / cfg["rate"]
        # Every cycle pairs each paper algorithm with a different function.
        arrivals = [s for _, s in workloads.open_arrivals(plan)]
        backlogs = [s for block in plan["blocks"] for s in block["backlog"]]
        for specs in (arrivals, backlogs):
            assert len(specs) % 5 == 0
            for start in range(0, len(specs), 5):
                cycle = specs[start:start + 5]
                assert sorted(s["algorithm"] for s in cycle) == sorted(workloads.PAPER_ALGORITHMS)
                assert sorted(s["functions"][0] for s in cycle) == sorted(workloads.FUNCTIONS)
