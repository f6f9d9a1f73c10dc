(* Integration tests over the experiment harness: these pin the
   qualitative results of the paper — the orderings, compositions and
   crossovers that the reproduction must preserve (EXPERIMENTS.md). *)

module R = Raceguard
module Det = Raceguard_detector
module Sip = Raceguard_sip

let fig6_rows = lazy (R.Experiments.fig6_data ~seed:7 ())

(* E1/Figure 6: for every test case Original > HWLC > HWLC+DR and the
   total reduction falls in (or near) the paper's 65-81% band *)
let test_fig6_ordering () =
  List.iter
    (fun (r : R.Experiments.fig6_row) ->
      Alcotest.(check bool) (r.tc ^ ": HWLC removes reports") true (r.hwlc < r.original);
      Alcotest.(check bool) (r.tc ^ ": DR removes more") true (r.hwlc_dr < r.hwlc);
      Alcotest.(check bool) (r.tc ^ ": something remains") true (r.hwlc_dr > 0))
    (Lazy.force fig6_rows)

let test_fig6_reduction_band () =
  List.iter
    (fun (r : R.Experiments.fig6_row) ->
      let red = R.Classify.reduction_pct r.split in
      Alcotest.(check bool)
        (Printf.sprintf "%s reduction %.0f%% within 60-90%%" r.tc red)
        true
        (red >= 60.0 && red <= 90.0))
    (Lazy.force fig6_rows)

let test_fig6_oracle_clean () =
  List.iter
    (fun (r : R.Experiments.fig6_row) ->
      Alcotest.(check int) (r.tc ^ " oracle failures") 0 r.oracle_failures)
    (Lazy.force fig6_rows)

let test_fig6_extremes () =
  (* the paper's lightest case is T3, the heaviest T5 *)
  let rows = Lazy.force fig6_rows in
  let by name = List.find (fun (r : R.Experiments.fig6_row) -> r.tc = name) rows in
  List.iter
    (fun (r : R.Experiments.fig6_row) ->
      if r.tc <> "T3" then
        Alcotest.(check bool) (r.tc ^ " >= T3") true (r.original >= (by "T3").original);
      if r.tc <> "T5" then
        Alcotest.(check bool) (r.tc ^ " <= T5") true (r.original <= (by "T5").original))
    rows

(* E2/Figure 5: destructor FPs dominate hardware-lock FPs overall *)
let test_fig5_composition () =
  let rows = Lazy.force fig6_rows in
  let total f = List.fold_left (fun acc (r : R.Experiments.fig6_row) -> acc + f r.split) 0 rows in
  let hw = total (fun s -> s.R.Classify.hw_lock_fp) in
  let dtor = total (fun s -> s.R.Classify.destructor_fp) in
  let remaining = total (fun s -> s.R.Classify.remaining) in
  Alcotest.(check bool) "destructor FPs dominate hw-lock FPs" true (dtor > hw);
  Alcotest.(check bool) "both FP classes are substantial" true (hw > 0 && dtor > 0);
  Alcotest.(check bool) "false positives dominate the original output" true
    (hw + dtor > remaining)

let test_fig5_remaining_mostly_real () =
  (* "most of them are real synchronization failures" (§4) *)
  let rows = Lazy.force fig6_rows in
  List.iter
    (fun (r : R.Experiments.fig6_row) ->
      Alcotest.(check bool)
        (r.tc ^ ": remaining reports are mostly attributed to real bugs")
        true
        (2 * r.split.R.Classify.remaining_true >= r.split.R.Classify.remaining))
    rows

(* E5/Figure 8 *)
let test_fig8 () =
  let run config =
    let cfg = { R.Runner.default with seed = 7; helgrind_configs = [ ("c", config) ] } in
    let res, _ = R.Runner.run_main cfg R.Scenarios.stringtest in
    R.Runner.location_count res "c"
  in
  Alcotest.(check bool) "original model reports the string" true (run Det.Helgrind.original > 0);
  Alcotest.(check int) "HWLC accepts it" 0 (run Det.Helgrind.hwlc)

(* E7/Figures 10-11 *)
let test_pools_crossover () =
  let count scenario =
    let cfg =
      { R.Runner.default with seed = 7; helgrind_configs = [ ("c", Det.Helgrind.hwlc_dr) ] }
    in
    let res, _ = R.Runner.run_main cfg scenario in
    R.Runner.location_count res "c"
  in
  Alcotest.(check int) "thread-per-request silent" 0 (count R.Scenarios.handoff_per_request);
  Alcotest.(check bool) "queue handoff reported" true (count R.Scenarios.handoff_pool > 0)

let test_pools_server_crossover () =
  let run pattern =
    let cfg =
      {
        R.Runner.default with
        seed = 7;
        helgrind_configs = [ ("c", Det.Helgrind.hwlc_dr) ];
        server = { R.Runner.default.server with pattern };
      }
    in
    let res = R.Runner.run_test_case cfg Sip.Workload.t2 in
    R.Runner.location_count res "c"
  in
  Alcotest.(check bool) "pool mode reports more than per-request" true
    (run (Sip.Proxy.Pool 4) > run Sip.Proxy.Per_request)

(* E8/§4.3 *)
let test_false_negative_rates () =
  let detected config seed =
    let cfg = { R.Runner.default with seed; helgrind_configs = [ ("c", config) ] } in
    let res, _ = R.Runner.run_main cfg R.Scenarios.false_negative_schedule in
    R.Runner.location_count res "c" > 0
  in
  let seeds = List.init 25 (fun i -> i + 1) in
  let rate config = List.length (List.filter (detected config) seeds) in
  let with_states = rate Det.Helgrind.hwlc_dr in
  let pure = rate Det.Helgrind.pure_eraser in
  Alcotest.(check int) "pure Eraser always detects" 25 pure;
  Alcotest.(check bool) "states sometimes miss" true (with_states < 25);
  Alcotest.(check bool) "states sometimes detect" true (with_states > 0)

(* E10/§4.1: every injected bug is witnessed across a small seed sweep *)
let test_all_bugs_found () =
  let found =
    List.concat_map
      (fun seed ->
        let cfg =
          {
            R.Runner.default with
            seed;
            helgrind_configs = [ ("c", Det.Helgrind.hwlc_dr) ];
            server = { R.Runner.default.server with enable_watchdog = true };
          }
        in
        let res = R.Runner.run_test_case cfg Sip.Workload.t4 in
        R.Classify.bugs_found (R.Runner.locations_of res "c"))
      [ 7; 8; 9 ]
    |> List.sort_uniq compare
  in
  List.iter
    (fun bug ->
      Alcotest.(check bool) (Sip.Bugs.to_string bug ^ " witnessed") true (List.mem bug found))
    Sip.Bugs.all

(* E12/§4: allocator reuse adds reports *)
let test_alloc_reuse () =
  let run mode =
    let cfg =
      {
        R.Runner.default with
        seed = 7;
        helgrind_configs = [ ("c", Det.Helgrind.hwlc_dr) ];
        server = { R.Runner.default.server with alloc_mode = mode };
      }
    in
    let res = R.Runner.run_test_case cfg Sip.Workload.t6 in
    R.Runner.location_count res "c"
  in
  Alcotest.(check bool) "pooled allocator adds false positives" true
    (run Raceguard_cxxsim.Allocator.Pooled > run Raceguard_cxxsim.Allocator.Direct)

(* ablations *)
let test_states_ablation () =
  let run config =
    let cfg = { R.Runner.default with seed = 7; helgrind_configs = [ ("c", config) ] } in
    let res = R.Runner.run_test_case cfg Sip.Workload.t3 in
    R.Runner.location_count res "c"
  in
  Alcotest.(check bool) "pure Eraser floods vs states" true
    (run Det.Helgrind.pure_eraser > 2 * run Det.Helgrind.original)

let test_segments_ablation () =
  let run config =
    let cfg = { R.Runner.default with seed = 7; helgrind_configs = [ ("c", config) ] } in
    let res = R.Runner.run_test_case cfg Sip.Workload.t1 in
    R.Runner.location_count res "c"
  in
  Alcotest.(check bool) "segments reduce reports" true
    (run { Det.Helgrind.hwlc with thread_segments = false } > run Det.Helgrind.hwlc)

(* determinism of the whole pipeline *)
let test_runs_deterministic () =
  let counts () =
    let cfg = { R.Runner.default with seed = 13 } in
    let res = R.Runner.run_test_case cfg Sip.Workload.t3 in
    List.map (fun (name, h) -> (name, Det.Helgrind.location_count h)) res.helgrind
  in
  Alcotest.(check (list (pair string int))) "same seed, same counts" (counts ()) (counts ())

(* the run path: a Helgrind attached in [tools] and one built from
   [helgrind_configs] watch the same stream and conclude the same, down
   to every occurrence's bytes and their order *)
let test_tool_equals_config () =
  let tool_digest = Det.Offline.Report_digest.create () in
  let config_digest = Det.Offline.Report_digest.create () in
  let h = Det.Helgrind.create ~on_report:(Det.Offline.Report_digest.add tool_digest) Det.Helgrind.hwlc_dr in
  let cfg =
    {
      R.Runner.default with
      seed = 7;
      tools = [ Det.Helgrind.tool h ];
      helgrind_configs = [ ("HWLC+DR", Det.Helgrind.hwlc_dr) ];
      on_report = Some (fun name r -> if name = "HWLC+DR" then Det.Offline.Report_digest.add config_digest r);
    }
  in
  let res = R.Runner.run_test_case cfg Sip.Workload.t2 in
  Alcotest.(check string) "signature digest"
    (Det.Offline.digest_signatures (R.Runner.locations_of res "HWLC+DR"))
    (Det.Offline.digest_signatures (Det.Helgrind.locations h));
  let occurrences = Det.Report.occurrence_count (Det.Helgrind.collector h) in
  Alcotest.(check bool) "the run reports" true (occurrences > 0);
  Alcotest.(check int) "occurrences"
    (Det.Report.occurrence_count (Det.Helgrind.collector (List.assoc "HWLC+DR" res.helgrind)))
    occurrences;
  Alcotest.(check string) "report digest"
    (Det.Offline.Report_digest.to_hex config_digest)
    (Det.Offline.Report_digest.to_hex tool_digest)

(* §2.2 at seed 7: the counts EXPERIMENTS.md and the T2 rows of
   bench/baseline.json give *)
let test_baselines_pinned () =
  let out = R.Experiments.baselines ~seed:7 () in
  List.iter
    (fun line ->
      Alcotest.(check bool) line true
        (List.mem line (String.split_on_char '\n' out)))
    [
      "Helgrind (HWLC+DR) locations:           27";
      "DJIT (vector clocks, first-only):       12";
      "hybrid (lock-set gated by HB):          10";
      "RaceTrack-style adaptive [16]:          10";
    ]

(* experiment registry renders without exceptions (smoke over them all
   is done by the bench harness; here we keep the cheap ones) *)
let test_render_smoke () =
  List.iter
    (fun name ->
      match List.find_opt (fun (id, _, _) -> id = name) R.Experiments.all with
      | Some (_, _, f) ->
          let s = f () in
          Alcotest.(check bool) (name ^ " renders") true (String.length s > 40)
      | None -> Alcotest.failf "experiment %s missing" name)
    [ "fig8"; "fig4"; "deadlock" ]

let suite =
  ( "experiments",
    [
      Alcotest.test_case "fig6: ordering" `Slow test_fig6_ordering;
      Alcotest.test_case "fig6: reduction band" `Slow test_fig6_reduction_band;
      Alcotest.test_case "fig6: oracle clean" `Slow test_fig6_oracle_clean;
      Alcotest.test_case "fig6: extremes (T3 min, T5 max)" `Slow test_fig6_extremes;
      Alcotest.test_case "fig5: composition" `Slow test_fig5_composition;
      Alcotest.test_case "fig5: remaining mostly real" `Slow test_fig5_remaining_mostly_real;
      Alcotest.test_case "fig8: bus-lock models" `Quick test_fig8;
      Alcotest.test_case "pools: micro crossover" `Quick test_pools_crossover;
      Alcotest.test_case "pools: server crossover" `Slow test_pools_server_crossover;
      Alcotest.test_case "fneg: detection rates" `Slow test_false_negative_rates;
      Alcotest.test_case "bugs: all witnessed" `Slow test_all_bugs_found;
      Alcotest.test_case "alloc: pooled adds FPs" `Slow test_alloc_reuse;
      Alcotest.test_case "ablation: states" `Slow test_states_ablation;
      Alcotest.test_case "ablation: segments" `Slow test_segments_ablation;
      Alcotest.test_case "determinism" `Quick test_runs_deterministic;
      Alcotest.test_case "runner: tool = config" `Quick test_tool_equals_config;
      Alcotest.test_case "baselines: seed-7 counts" `Quick test_baselines_pinned;
      Alcotest.test_case "render smoke" `Quick test_render_smoke;
    ] )
