(* trace-replay: record and seal a trace per test case (the encode
   side), decode it (the read side), then replay every registry
   configuration over it.  One item is one (test case, configuration)
   replay; the round's wall time includes encode and decode. *)

module R = Raceguard
module Det = Raceguard_detector
module Sip = Raceguard_sip
module Obs = Raceguard_obs
module Trace = Raceguard_trace
open Common

let name = "trace-replay"
(* Four of T1–T8 keep a round near 1.5 s, so a run holds several
   blocks: eraser-pure alone replays each trace 10-20x slower than the
   next configuration, and on all eight a round takes 6-7 s. *)
let tests =
  List.filter
    (fun (tc : Sip.Workload.test_case) -> List.mem tc.tc_name [ "T2"; "T3"; "T7"; "T8" ])
    Sip.Workload.all_test_cases
let configs = Det.Offline.configs
let key (tc : Sip.Workload.test_case) cfg = tc.tc_name ^ "/" ^ cfg

let entry (v : Det.Offline.verdict) =
  [
    ("events", string_of_int v.v_events);
    ("occurrences", string_of_int v.v_occurrences);
    ("locations", string_of_int v.v_locations);
    ("sig_digest", v.v_sig_digest);
    ("report_digest", v.v_report_digest);
  ]

(* Live verdicts of every configuration, attached to the recording run
   itself: the ground truth replay must reproduce on any seed. *)
let live_verdicts ~seed =
  List.concat_map
    (fun tc ->
      List.map (fun (v : Det.Offline.verdict) -> (key tc v.v_config, v)) (R.Trace_ops.record_test ~seed ~live:configs tc).rec_live)
    tests

let pin ~seed = List.map (fun (k, v) -> (k, entry v)) (live_verdicts ~seed)

let setup ~seed ~pinned () =
  let p = pinned seed in
  (live_verdicts ~seed, p)

let encode ~seed tc =
  Span.with_ "trace.encode" (fun () -> Det.Offline.contents (R.Trace_ops.record_test ~seed tc).rec_recorder)

let decode bytes = Span.with_ "trace.decode" (fun () -> Trace.Reader.of_string bytes)

(* One round over every test case.  [on_replay] sees each verdict with
   its replay time. *)
let round ~seed ~live ~pinned ?(on_replay = fun _ _ _ -> ()) it =
  Span.with_ "trace.round" @@ fun () ->
  List.fold_left
    (fun events tc ->
      match decode (encode ~seed tc) with
      | Error (`Msg e) ->
          prerr_endline ("perfbench: " ^ tc.Sip.Workload.tc_name ^ ": " ^ e);
          List.iter (fun _ -> record it ~ok:false 0.) configs;
          events
      | Ok trace ->
          List.iter
            (fun cfg ->
              let k = key tc cfg in
              let v, dt, _ =
                timed (fun () -> Span.with_ ~item:it.n "detector.replay_config" (fun () -> Det.Offline.replay_config trace cfg))
              in
              on_replay tc cfg dt;
              record it
                ~ok:(Det.Offline.verdict_equal v (List.assoc k live) && Refs.matches pinned k (entry v))
                dt)
            configs;
          events + (Trace.Reader.length trace * List.length configs))
    0 tests

(* 3 rounds: 120 items, so more than ten lie beyond each block's p90. *)
let block_rounds = 3

let run ~seconds ~seed ~pinned =
  let (live, pinned), setup = repeated_setup 3 (setup ~seed ~pinned) in
  end_to_end setup
    (timed_phase ~seconds (fun it ->
         List.fold_left ( + ) 0 (List.init block_rounds (fun _ -> round ~seed ~live ~pinned it))))

(* --- traced run ------------------------------------------------------ *)

let leg_reps = 3

let traced ~seed ~pinned =
  let (live, pinned), _ = repeated_setup 1 (setup ~seed ~pinned) in
  let it = items () in
  let _, off_s, _ = timed (fun () -> round ~seed ~live ~pinned it) in
  Span.enabled := true;
  let replay_s = Hashtbl.create 16 in
  let on_replay _ cfg dt =
    Hashtbl.replace replay_s cfg (dt +. Option.value ~default:0. (Hashtbl.find_opt replay_s cfg))
  in
  let _, on_s, _ = timed (fun () -> round ~seed ~live ~pinned ~on_replay it) in
  (* Counts and legs, per test case: the record run's metric delta, the
     sealed size, a no-tool run and an empty-tool replay of the trace. *)
  let snap = ref Obs.Metrics.empty and bytes = ref 0 and events = ref 0 in
  let encode_s = ref 0. and decode_s = ref 0. and bare_s = ref 0. and bare_words = ref 0. and driver_s = ref 0. in
  let ft = ref Obs.Metrics.empty in
  List.iter
    (fun tc ->
      let before = Obs.Metrics.snapshot () in
      let sealed, enc, _ = timed (fun () -> encode ~seed tc) in
      snap := Obs.Metrics.merge !snap (Obs.Metrics.diff ~before (Obs.Metrics.snapshot ()));
      let trace, dec, _ = timed (fun () -> Result.get_ok (decode sealed)) in
      bytes := !bytes + String.length sealed;
      events := !events + Trace.Reader.length trace;
      let before = Obs.Metrics.snapshot () in
      ignore (Det.Offline.replay_config trace "fasttrack");
      ft := Obs.Metrics.merge !ft (Obs.Metrics.diff ~before (Obs.Metrics.snapshot ()));
      let med f = median (List.init leg_reps (fun _ -> f ())) in
      let bare =
        List.init leg_reps (fun _ -> timed (fun () -> Span.with_ "leg.no-tool" (fun () -> Sip_detect.bare ~seed [] tc)))
      in
      encode_s := !encode_s +. enc;
      decode_s := !decode_s +. dec;
      bare_s := !bare_s +. median (List.map (fun (_, s, _) -> s) bare);
      bare_words := !bare_words +. (let _, _, w = List.hd bare in w);
      driver_s :=
        !driver_s
        +. med (fun () ->
               let (), s, _ =
                 timed (fun () -> Span.with_ "leg.replay-driver" (fun () -> Trace.Reader.replay trace [ Sip_detect.empty_tool () ]))
               in
               s))
    tests;
  let ev = fi !events in
  let per_event s = s /. ev *. 1e9 in
  let c = counter !snap and f = counter !ft in
  let cfg_name cfg = String.map (fun ch -> if ch = '+' then '_' else ch) cfg in
  let locations cfg =
    List.fold_left (fun acc tc -> acc + (List.assoc (key tc cfg) live).Det.Offline.v_locations) 0 tests
  in
  let metrics =
    [
      m "vm.events" "count" ev;
      m "vm.ops_executed" "count" (fi (c "vm.ops_executed"));
      m "vm.scheduler_switches" "count" (fi (c "vm.scheduler_switches"));
      m "vm.threads_created" "count" (fi (c "vm.threads_created"));
      m "vm.memory_allocs" "count" (fi (c "vm.memory_allocs"));
      m "vm.ns_per_event" "ns/event" (per_event !bare_s);
      m "vm.minor_words_per_event" "words/event" (!bare_words /. ev);
      m "trace.bytes_per_event" "B/event" (fi !bytes /. ev);
      m "trace.encode_ns_per_event" "ns/event" (per_event (!encode_s -. !bare_s));
      m "trace.decode_ns_per_event" "ns/event" (per_event !decode_s);
      m "trace.replay_driver_ns_per_event" "ns/event" (per_event !driver_s);
      m "detector.fasttrack.epoch_hit_rate" "ratio"
        (ratio (fi (f "detector.fasttrack.epoch_hits")) (fi (f "detector.fasttrack.accesses_checked")));
      m "detector.fasttrack.read_promotions" "count" (fi (f "detector.fasttrack.read_promotions"));
      m "bench.trace_overhead_frac" "ratio" ((on_s -. off_s) /. off_s);
    ]
    @ List.concat_map
        (fun cfg ->
          [
            m ("detector." ^ cfg_name cfg ^ ".replay_ns_per_event") "ns/event"
              (per_event (Hashtbl.find replay_s cfg -. !driver_s));
            m ("detector." ^ cfg_name cfg ^ ".locations") "count" (fi (locations cfg));
          ])
        configs
  in
  { attempted = it.n; failed = it.bad; correct = it.bad = 0; metrics }
