(* Audit the SIP proxy server with all three detector configurations —
   the paper's debugging process end to end on one test case.

     dune exec examples/sip_audit.exe -- [T1..T8] [seed]

   Prints the Figure-6 style counts for the chosen test case, the
   classified composition of the reports, and the real bugs identified
   by the ground-truth oracle. *)

module R = Raceguard
module Det = Raceguard_detector
module Sip = Raceguard_sip

let () =
  let tc_name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "T4" in
  let seed = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 7 in
  let tc =
    match
      List.find_opt
        (fun tc -> tc.Sip.Workload.tc_name = tc_name)
        Sip.Workload.all_test_cases
    with
    | Some tc -> tc
    | None ->
        Printf.eprintf "unknown test case %s (use T1..T8)\n" tc_name;
        exit 1
  in
  Printf.printf "Auditing the SIP proxy with test case %s (%s), seed %d\n\n" tc.tc_name
    tc.tc_description seed;
  let config =
    { R.Runner.default with seed; server = { R.Runner.default.server with enable_watchdog = true } }
  in
  let res = R.Runner.run_test_case config tc in
  (match res.oracle with
  | Some o ->
      (* the server counts the requests it handled in the metrics
         registry, and the run's delta carries them *)
      let handled =
        Option.value ~default:0
          (Raceguard_obs.Metrics.find_counter res.metrics "sip.stats.total_requests")
      in
      Printf.printf "functional oracle: %d requests handled, %d responses, %d failures\n"
        handled o.r_responses (List.length o.r_failures)
  | None -> ());
  let original = R.Runner.locations_of res "Original" in
  let hwlc = R.Runner.locations_of res "HWLC" in
  let hwlc_dr = R.Runner.locations_of res "HWLC+DR" in
  Printf.printf "\nreported locations: Original %d | HWLC %d | HWLC+DR %d\n"
    (List.length original) (List.length hwlc) (List.length hwlc_dr);
  let s = R.Classify.split ~original ~hwlc ~hwlc_dr in
  Printf.printf
    "composition: %d hardware-lock FPs, %d destructor FPs, %d remaining (%.0f%% removed)\n"
    s.hw_lock_fp s.destructor_fp s.remaining (R.Classify.reduction_pct s);
  let bugs = R.Classify.bugs_found hwlc_dr in
  Printf.printf "\nreal bugs witnessed by the remaining reports:\n";
  List.iter
    (fun b -> Printf.printf "  %-24s %s\n" (Sip.Bugs.to_string b) (Sip.Bugs.description b))
    bugs;
  Printf.printf "\nfirst three remaining reports in full:\n\n";
  List.iteri
    (fun i (r, n) -> if i < 3 then Fmt.pr "[%d occurrence(s)] %a@." n Det.Report.pp r)
    hwlc_dr
