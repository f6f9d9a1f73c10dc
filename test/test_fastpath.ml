(* Tests pinning the hot-path optimisations:

   - properties: the interned {!Lockset} operations agree with the
     naive sorted-set reference implementation, and interning gives
     physical equality for equal sets;
   - fidelity: the per-word shadow fast path produces byte-identical
     reports to the full Figure-1 state machine, on the example
     MiniC++ programs and on every SIP test case;
   - pins: the Helgrind decision counts over the seed-7 replays,
     explain T4's JSON, the transitions its tracer renders and the
     whole ring, and an access path that allocates nothing. *)

module Vm = Raceguard_vm
module Engine = Vm.Engine
module M = Raceguard_minicc
module Sip = Raceguard_sip
module R = Raceguard
module Det = Raceguard_detector
module Ls = Det.Lockset
module Iss = Raceguard_util.Int_sorted_set

(* --- lockset vs naive reference ---------------------------------------- *)

(* lock uids in real runs are small ints; keep the generated universe
   small so intersections are non-trivially non-empty *)
let gen_elts = QCheck2.Gen.(list_size (int_bound 8) (int_bound 20))

let naive l = Iss.of_list l

let listed ls =
  match Ls.to_list ls with
  | Some l -> l
  | None -> Alcotest.fail "finite lockset rendered as top"

let qc_inter_agrees_with_naive =
  QCheck2.Test.make ~name:"interned inter agrees with naive sets" ~count:300
    QCheck2.Gen.(pair gen_elts gen_elts)
    (fun (l1, l2) ->
      let a = Ls.of_list l1 and b = Ls.of_list l2 in
      listed (Ls.inter a b) = Iss.to_list (Iss.inter (naive l1) (naive l2)))

let qc_union_agrees_with_naive =
  QCheck2.Test.make ~name:"interned union agrees with naive sets" ~count:300
    QCheck2.Gen.(pair gen_elts gen_elts)
    (fun (l1, l2) ->
      let a = Ls.of_list l1 and b = Ls.of_list l2 in
      listed (Ls.union a b) = Iss.to_list (Iss.union (naive l1) (naive l2)))

let qc_add_remove_agree_with_naive =
  QCheck2.Test.make ~name:"interned add/remove agree with naive sets" ~count:300
    QCheck2.Gen.(pair gen_elts (int_bound 20))
    (fun (l, x) ->
      let a = Ls.of_list l in
      listed (Ls.add x a) = Iss.to_list (Iss.add x (naive l))
      && listed (Ls.remove x a) = Iss.to_list (Iss.remove x (naive l))
      && Ls.mem x a = Iss.mem x (naive l)
      && Ls.cardinal a = Iss.cardinal (naive l))

let qc_interning_gives_physical_equality =
  QCheck2.Test.make ~name:"equal sets intern to the same value" ~count:300 gen_elts
    (fun l ->
      (* order- and duplicate-insensitive, and memoised ops return the
         physically identical interned value every time *)
      Ls.of_list l == Ls.of_list (List.rev l @ l)
      && Ls.inter (Ls.of_list l) Ls.top == Ls.of_list l
      &&
      let a = Ls.of_list l and b = Ls.of_list (List.rev l) in
      Ls.inter a b == Ls.inter a b && Ls.equal a b)

(* --- fast-path fidelity on the example programs ------------------------- *)

let slow_hwlc_dr = { Det.Helgrind.hwlc_dr with fast_path = false }

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* run [file] under [cfg]; return every report occurrence rendered in
   full plus the fast-path hit counter *)
(* one Helgrind run's count of a [detector.helgrind.*] metric: its delta
   over the run, which is this detector's alone (metrics are
   domain-local and the run attaches one detector) *)
let helgrind_count ~before name =
  let delta = Raceguard_obs.Metrics.(diff ~before (snapshot ())) in
  Option.value ~default:0 (Raceguard_obs.Metrics.find_counter delta ("detector.helgrind." ^ name))

let run_mcc ~seed cfg file =
  let interp, _pretty, _n = M.Interp.compile ~annotate:true ~file (read_file file) in
  let reports = ref [] in
  let h = Det.Helgrind.create ~on_report:(fun r -> reports := r :: !reports) cfg in
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  Engine.add_tool vm (Det.Helgrind.tool h);
  let before = Raceguard_obs.Metrics.snapshot () in
  let outcome = Engine.run vm (fun () -> M.Interp.run_main interp) in
  (match outcome.failures with
  | [] -> ()
  | (_, name, e) :: _ -> Alcotest.failf "thread %s raised %s" name (Printexc.to_string e));
  (List.rev_map (Fmt.str "%a" Det.Report.pp) !reports, helgrind_count ~before "fast_path_hits")

let test_mcc_fast_path_identical file () =
  let path = "../examples/programs/" ^ file in
  List.iter
    (fun seed ->
      let fast, hits = run_mcc ~seed Det.Helgrind.hwlc_dr path in
      let slow, slow_hits = run_mcc ~seed slow_hwlc_dr path in
      Alcotest.(check (list string))
        (Printf.sprintf "%s seed %d: byte-identical reports" file seed)
        slow fast;
      Alcotest.(check int) "fast path disabled counts nothing" 0 slow_hits;
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %d: fast path engaged" file seed)
        true (hits > 0))
    [ 1; 7; 11 ]

(* --- fast-path fidelity on the SIP test cases --------------------------- *)

let run_sip ~seed cfg tc =
  let reports = ref [] in
  let h = Det.Helgrind.create ~on_report:(fun r -> reports := r :: !reports) cfg in
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  Engine.add_tool vm (Det.Helgrind.tool h);
  let transport = Sip.Transport.create () in
  let outcome =
    Engine.run vm (fun () ->
        ignore
          (Sip.Workload.run_test_case ~transport ~server_config:R.Runner.default.server tc ()))
  in
  (match outcome.failures with
  | [] -> ()
  | (_, name, e) :: _ -> Alcotest.failf "thread %s raised %s" name (Printexc.to_string e));
  List.rev_map (Fmt.str "%a" Det.Report.pp) !reports

let test_sip_fast_path_identical () =
  List.iter
    (fun tc ->
      let fast = run_sip ~seed:7 Det.Helgrind.hwlc_dr tc in
      let slow = run_sip ~seed:7 slow_hwlc_dr tc in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: byte-identical reports" tc.Sip.Workload.tc_name)
        slow fast)
    Sip.Workload.all_test_cases

(* the other stateful configurations take different Figure-1 paths;
   make sure the short-circuit is faithful for them too *)
let test_sip_fast_path_other_configs () =
  List.iter
    (fun cfg ->
      let slow_cfg = { cfg with Det.Helgrind.fast_path = false } in
      List.iter
        (fun tc ->
          let fast = run_sip ~seed:3 cfg tc in
          let slow = run_sip ~seed:3 slow_cfg tc in
          Alcotest.(check (list string))
            (Fmt.str "%a/%s: byte-identical reports" Det.Helgrind.pp_config_name cfg
               tc.Sip.Workload.tc_name)
            slow fast)
        [ Sip.Workload.t1; Sip.Workload.t4; Sip.Workload.t7 ])
    [ Det.Helgrind.original; Det.Helgrind.hwlc; Det.Helgrind.pure_eraser ]

(* --- what a shadow-state refactor must not move ------------------------ *)

let registry_helgrinds =
  [ "helgrind-original"; "helgrind-hwlc"; "helgrind-hwlc+dr"; "helgrind-hwlc+dr+hb"; "eraser-pure" ]

(* (config, accesses, fast hits, transitions, warnings) replayed over
   the seed-7 T2/T3/T7/T8 traces: the fast/slow split and the genuine
   transitions count every decision the state machine took *)
let count_pins =
  [
    ("helgrind-original", 113_226, 47_509, 62_108, 4_569);
    ("helgrind-hwlc", 113_226, 48_532, 62_096, 3_483);
    ("helgrind-hwlc+dr", 113_226, 50_119, 62_292, 2_379);
    ("helgrind-hwlc+dr+hb", 113_226, 37_463, 75_538, 2_309);
    ("eraser-pure", 113_226, 1_694, 44_758, 110_434);
  ]

let test_counts_pinned () =
  let traces =
    List.map
      (fun tc ->
        match
          Raceguard_trace.Reader.of_string
            (Det.Offline.contents (R.Trace_ops.record_test ~seed:7 tc).rec_recorder)
        with
        | Ok tr -> tr
        | Error (`Msg m) -> Alcotest.fail m)
      Sip.Workload.[ t2; t3; t7; t8 ]
  in
  let counts cfg =
    let before = Raceguard_obs.Metrics.snapshot () in
    List.iter (fun tr -> ignore (Det.Offline.replay_config tr cfg)) traces;
    let n name = helgrind_count ~before name in
    (cfg, n "accesses_checked", n "fast_path_hits", n "state_transitions", n "warnings")
  in
  let show (cfg, accesses, fast, transitions, warnings) =
    Printf.sprintf "%s: %d accesses, %d fast hits, %d transitions, %d warnings" cfg accesses
      fast transitions warnings
  in
  Alcotest.(check (list string)) "per-configuration counts" (List.map show count_pins)
    (List.map (fun cfg -> show (counts cfg)) registry_helgrinds)

(* [explain T4 --json --trace F] as the CLI runs it (seed 1, a 65,536-record
   ring), on a fresh domain so the lock-set memo and the metrics start
   empty as in a fresh process.  The JSON renders every warning's
   provenance history; the tracer's [state_transition] records render
   both sides of each transition it keeps, and each VM record precedes
   the detector records of the same event. *)
let test_explain_pinned () =
  let module Obs = Raceguard_obs in
  let json, transitions, ring =
    Domain.join
      (Domain.spawn (fun () ->
           let tracer = Obs.Trace.create ~capacity:65536 () in
           let runner = { R.Runner.default with seed = 1; tracer = Some tracer } in
           let x = R.Explain.run ~runner Sip.Workload.t4 in
           let transitions =
             List.filter_map
               (fun (r : Obs.Trace.record) ->
                 if r.name = "state_transition" then
                   Some
                     (Printf.sprintf "%d %d %s" r.ts r.tid
                        (Obs.Json.to_string (Obs.Json.Obj r.args)))
                 else None)
               (Obs.Trace.records tracer)
           in
           ( Obs.Json.to_string ~indent:2 (R.Explain.to_json x) ^ "\n",
             transitions,
             Obs.Trace.to_string tracer )))
  in
  let md5 s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "explain T4 JSON" "8c18fa64c1cc5f5e0403d28bede9f57c" (md5 json);
  Alcotest.(check int) "state_transition records kept" 28_618 (List.length transitions);
  Alcotest.(check string) "state_transition records" "4c48e252370fbb19bd0afdd6df0eb1b6"
    (md5 (String.concat "\n" transitions));
  Alcotest.(check string) "the ring" "028604532c808e344d8ee24bdab0fef7" (md5 ring)

(* The access path allocates nothing.  Three threads hold one mutex
   throughout (the detector does not check mutual exclusion), so no
   configuration warns; the segments are all cut before the loop.
   Each cycle reallocates one word and walks the common transitions:
   Virgin -> Exclusive on its first write, an Exclusive fast hit, a
   segment advance (a word main wrote before joining thread 1),
   Exclusive -> Exclusive to the joiner (a word thread 1 wrote),
   Exclusive -> Shared RO (thread 2 reads that word) and Shared RO ->
   Shared modified under the mutex. *)
let test_access_path_allocates_nothing () =
  let open Vm.Event in
  let loc = Raceguard_util.Loc.v "alloc.c" "f" 1 in
  let ctx =
    {
      Vm.Tool.stack_of = (fun _ -> []);
      thread_name = string_of_int;
      block_of = (fun _ -> None);
      clock = (fun () -> 0);
    }
  in
  let warmup = 10 and cycles = 1_667 in
  let n = warmup + cycles in
  let fresh i = i and advanced i = n + i and handed i = (2 * n) + i in
  let write tid addr = E_write { tid; addr; value = 0; atomic = false; loc } in
  let read tid addr = E_read { tid; addr; value = 0; atomic = false; loc } in
  let acquire tid = E_acquire { tid; lock = Mutex 1; mode = Vm.Eff.Write_mode; loc } in
  let setup =
    [
      E_thread_start { tid = 0; name = "main"; parent = None };
      E_thread_start { tid = 1; name = "t1"; parent = Some 0 };
      E_thread_start { tid = 2; name = "t2"; parent = Some 0 };
      acquire 0;
      acquire 1;
      acquire 2;
    ]
    @ List.init n (fun i -> write 0 (fresh i))
    @ List.init n (fun i -> write 0 (advanced i))
    @ List.init n (fun i -> write 1 (handed i))
    @ [ E_thread_exit { tid = 1 }; E_join { joiner = 0; joined = 1; loc } ]
  in
  let cycle i =
    [
      E_alloc { tid = 0; addr = fresh i; len = 1; loc };
      write 0 (fresh i);
      read 0 (fresh i);
      write 0 (advanced i);
      read 0 (handed i);
      read 2 (handed i);
      write 2 (handed i);
    ]
  in
  let warm = Array.of_list (List.concat_map cycle (List.init warmup Fun.id)) in
  let loop = Array.of_list (List.concat_map cycle (List.init cycles (fun i -> warmup + i))) in
  List.iter2
    (fun name config ->
      let h = Det.Helgrind.create config in
      List.iter (Det.Helgrind.on_event h ctx) setup;
      Array.iter (Det.Helgrind.on_event h ctx) warm;
      let before = Raceguard_obs.Metrics.snapshot () in
      let words = Gc.minor_words () in
      for k = 0 to Array.length loop - 1 do
        Det.Helgrind.on_event h ctx (Array.unsafe_get loop k)
      done;
      let words = Gc.minor_words () -. words in
      let count = helgrind_count ~before in
      let transitions, fast = if config.Det.Helgrind.eraser_states then (5, 1) else (1, 5) in
      Alcotest.(check int) (name ^ " accesses") (6 * cycles) (count "accesses_checked");
      Alcotest.(check int) (name ^ " transitions") (transitions * cycles)
        (count "state_transitions");
      Alcotest.(check int) (name ^ " fast hits") (fast * cycles) (count "fast_path_hits");
      Alcotest.(check int) (name ^ " warnings") 0 (count "warnings");
      Alcotest.(check (float 0.)) (name ^ " minor words") 0. words)
    registry_helgrinds
    Det.Helgrind.[ original; hwlc; hwlc_dr; hwlc_dr_hb; pure_eraser ]

let suite =
  ( "fastpath",
    [
      QCheck_alcotest.to_alcotest qc_inter_agrees_with_naive;
      QCheck_alcotest.to_alcotest qc_union_agrees_with_naive;
      QCheck_alcotest.to_alcotest qc_add_remove_agree_with_naive;
      QCheck_alcotest.to_alcotest qc_interning_gives_physical_equality;
      Alcotest.test_case "racy_counter.mcc reports identical" `Quick
        (test_mcc_fast_path_identical "racy_counter.mcc");
      Alcotest.test_case "refcount.mcc reports identical" `Quick
        (test_mcc_fast_path_identical "refcount.mcc");
      Alcotest.test_case "SIP T1-T8 reports identical" `Quick test_sip_fast_path_identical;
      Alcotest.test_case "other configs identical on T1/T4/T7" `Quick
        test_sip_fast_path_other_configs;
      Alcotest.test_case "Helgrind counts pinned on seed-7 T2/T3/T7/T8" `Quick test_counts_pinned;
      Alcotest.test_case "explain T4 and its transitions pinned" `Quick test_explain_pinned;
      Alcotest.test_case "the access path allocates nothing" `Quick
        test_access_path_allocates_nothing;
    ] )
