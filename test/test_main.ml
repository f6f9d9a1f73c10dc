(* Test aggregator: every suite registers here; run with `dune runtest`. *)

let () =
  Alcotest.run "raceguard"
    [
      Test_util.suite;
      Test_vm.suite;
      Test_detector.suite;
      Test_hb.suite;
      Test_cxxsim.suite;
      Test_minicc.suite;
      Test_minicc_gen.suite;
      Test_minicc_pins.suite;
      Test_sip.suite;
      Test_sip_internals.suite;
      Test_classify.suite;
      Test_report.suite;
      Test_explore.suite;
      Test_properties.suite;
      Test_fasttrack.suite;
      Test_faults.suite;
      Test_shards.suite;
      Test_fastpath.suite;
      Test_static.suite;
      Test_callgraph.suite;
      Test_fix.suite;
      Test_obs.suite;
      Test_trace.suite;
      Test_par.suite;
      Test_experiments.suite;
    ]
