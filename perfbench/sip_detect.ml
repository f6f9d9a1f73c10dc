(* sip-detect: the paper's §4.5 setting.  T1–T8 run live through
   [Runner.run_test_case] with only HWLC+DR attached, whole rounds at a
   time on one domain.  One item is one test-case run. *)

module R = Raceguard
module Vm = Raceguard_vm
module Det = Raceguard_detector
module Sip = Raceguard_sip
module Obs = Raceguard_obs
open Common

let name = "sip-detect"
let tests = Sip.Workload.all_test_cases
let config seed = { R.Runner.default with seed; helgrind_configs = [ ("HWLC+DR", Det.Helgrind.hwlc_dr) ] }

(* What a run must reproduce at the reference seed. *)
let entry r = [ ("sig_digest", Det.Offline.digest_signatures (R.Runner.locations_of r "HWLC+DR")) ]

let ok pinned (tc : Sip.Workload.test_case) (r : R.Runner.result) =
  r.outcome.deadlock = None && r.outcome.failures = []
  && (match r.oracle with Some o -> o.r_failures = [] | None -> false)
  && Refs.matches pinned tc.tc_name (entry r)

let pin ~seed = List.map (fun (tc : Sip.Workload.test_case) -> (tc.tc_name, entry (R.Runner.run_test_case (config seed) tc))) tests

let setup ~seed ~pinned () =
  let p = pinned seed in
  List.iter (fun tc -> ignore (R.Runner.run_test_case (config seed) tc)) tests;
  p

(* One round of timed items; returns the round's VM events, the sum of
   the runs' metric deltas and their HWLC+DR location count. *)
let round ~seed ~pinned it =
  Span.with_ "sip.round" (fun () ->
      List.fold_left
        (fun (events, snap, locations) (tc : Sip.Workload.test_case) ->
          let r, dt, _ =
            timed (fun () ->
                Span.with_ ~item:it.n "runner.run_test_case" (fun () -> R.Runner.run_test_case (config seed) tc))
          in
          record it ~ok:(ok pinned tc r) dt;
          ( events + counter r.metrics "vm.events_emitted",
            Obs.Metrics.merge snap r.metrics,
            locations + R.Runner.location_count r "HWLC+DR" ))
        (0, Obs.Metrics.empty, 0) tests)

(* 13 rounds: 104 items, so more than ten lie beyond each block's p90. *)
let block_rounds = 13

let run ~seconds ~seed ~pinned =
  let pinned, setup = repeated_setup 9 (setup ~seed ~pinned) in
  end_to_end setup
    (timed_phase ~seconds (fun it ->
         List.fold_left ( + ) 0
           (List.init block_rounds (fun _ ->
                let events, _, _ = round ~seed ~pinned it in
                events))))

(* --- traced run: spans, counts and subtraction legs ----------------- *)

let bare ~seed tools (tc : Sip.Workload.test_case) =
  let vm = Vm.Engine.create ~config:{ Vm.Engine.default_config with seed } () in
  List.iter (Vm.Engine.add_tool vm) tools;
  let transport = Sip.Transport.create () in
  ignore
    (Vm.Engine.run vm (fun () ->
         ignore (Sip.Workload.run_test_case ~transport ~server_config:R.Runner.default.server tc ())))

let empty_tool () = Vm.Tool.make ~name:"empty" ~on_event:(fun _ _ -> ())

(* The four legs of the subtraction, innermost first: each adds one
   layer to the previous one on the same event stream. *)
let legs ~seed =
  [
    ("leg.no-tool", fun tc -> bare ~seed [] tc);
    ("leg.empty-tool", fun tc -> bare ~seed [ empty_tool () ] tc);
    ("leg.hwlc_dr", fun tc -> bare ~seed [ Det.Helgrind.tool (Det.Helgrind.create Det.Helgrind.hwlc_dr) ] tc);
    ("leg.runner", fun tc -> ignore (R.Runner.run_test_case (config seed) tc));
  ]

let rounds = 5

let traced ~seed ~pinned =
  let pinned = pinned seed in
  let it = items () in
  (* Counts come from the process's first round, with every
     domain-local memo still cold, so they repeat exactly. *)
  let events, snap, locations = round ~seed ~pinned it in
  let ev = fi events in
  let main_rounds () =
    timed (fun () ->
        for _ = 1 to rounds do
          ignore (round ~seed ~pinned it)
        done)
  in
  let (), off_s, _ = main_rounds () in
  Span.enabled := true;
  let (), on_s, _ = main_rounds () in
  (* leg name -> per-round (seconds, minor words), rounds interleaved *)
  let samples = Hashtbl.create 4 in
  for _ = 1 to rounds do
    List.iter
      (fun (leg, f) ->
        let s = ref 0. and w = ref 0. in
        List.iteri
          (fun i tc ->
            let (), dt, words = timed (fun () -> Span.with_ ~item:i leg (fun () -> f tc)) in
            s := !s +. dt;
            w := !w +. words)
          tests;
        Hashtbl.replace samples leg ((!s, !w) :: Option.value ~default:[] (Hashtbl.find_opt samples leg)))
      (legs ~seed)
  done;
  let secs leg = List.map fst (Hashtbl.find samples leg) in
  let words leg = snd (List.hd (Hashtbl.find samples leg)) in
  let diff_ns a b = median (List.map2 ( -. ) (secs a) (secs b)) /. ev *. 1e9 in
  let c = counter snap in
  let hits_rate h m = ratio (fi (c h)) (fi (c h + c m)) in
  let metrics =
    [
      m "vm.events" "count" ev;
      m "vm.ops_executed" "count" (fi (c "vm.ops_executed"));
      m "vm.scheduler_switches" "count" (fi (c "vm.scheduler_switches"));
      m "vm.threads_created" "count" (fi (c "vm.threads_created"));
      m "vm.memory_allocs" "count" (fi (c "vm.memory_allocs"));
      m "vm.ns_per_event" "ns/event" (median (secs "leg.no-tool") /. ev *. 1e9);
      m "vm.minor_words_per_event" "words/event" (words "leg.no-tool" /. ev);
      m "tool.dispatch_ns_per_event" "ns/event" (diff_ns "leg.empty-tool" "leg.no-tool");
      m "detector.hwlc_dr.ns_per_event" "ns/event" (diff_ns "leg.hwlc_dr" "leg.empty-tool");
      m "detector.hwlc_dr.minor_words_per_event" "words/event"
        ((words "leg.hwlc_dr" -. words "leg.empty-tool") /. ev);
      m "detector.hwlc_dr.accesses_checked" "count" (fi (c "detector.helgrind.accesses_checked"));
      m "detector.hwlc_dr.fast_path_rate" "ratio"
        (ratio (fi (c "detector.helgrind.fast_path_hits")) (fi (c "detector.helgrind.accesses_checked")));
      m "detector.hwlc_dr.locations" "count" (fi locations);
      m "detector.lockset.memo_hit_rate" "ratio"
        (hits_rate "detector.lockset.inter_memo_hits" "detector.lockset.inter_memo_misses");
      m "detector.held_locks.memo_hit_rate" "ratio"
        (hits_rate "detector.held_locks.transition_memo_hits" "detector.held_locks.transition_memo_misses");
      m "detector.hwlc_dr.slowdown" "ratio"
        (median (List.map2 ( /. ) (secs "leg.hwlc_dr") (secs "leg.no-tool")));
      m "core.runner_ns_per_event" "ns/event" (diff_ns "leg.runner" "leg.hwlc_dr");
      m "bench.trace_overhead_frac" "ratio" ((on_s -. off_s) /. off_s);
    ]
  in
  { attempted = it.n; failed = it.bad; correct = it.bad = 0; metrics }
