let () =
  Alcotest.run "nimbus"
    (Test_units.suite @ Test_dsp.suite @ Test_sim.suite @ Test_topology.suite
    @ Test_cc.suite
    @ Test_core.suite @ Test_traffic.suite @ Test_metrics.suite
    @ Test_faults.suite @ Test_experiments.suite @ Test_sweep.suite
    @ Test_parallel.suite @ Test_cli.suite
    @ Test_trace.suite @ Test_lint.suite @ Test_analyze.suite)
