(* FastTrack (epoch-based happens-before) — equivalence with DJIT and
   the epoch-state transitions.

   The central law: FastTrack is a representation change, not an
   algorithm change.  On any schedule it must report exactly DJIT's
   races, rendered byte-identically (same previous access in the
   detail line, same order, same occurrence counts) — pinned here on
   random programs across first_only × demotion-cadence configurations
   and on the eight SIP test cases, and pinned live-vs-replay for the
   whole registry in test_trace.ml. *)

module Vm = Raceguard_vm
module Engine = Vm.Engine
module Api = Vm.Api
module Det = Raceguard_detector
module Sip = Raceguard_sip
module R = Raceguard
module Loc = Raceguard_util.Loc

let loc = Loc.v "ft.c" "main" 1

let run_djit ?(seed = 1) ?(config = Det.Djit.default_config) program =
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  let d = Det.Djit.create ~config () in
  Engine.add_tool vm (Det.Djit.tool d);
  let _ = Engine.run vm program in
  d

let run_ft ?(seed = 1) ?(config = Det.Fasttrack.default_config) program =
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  let f = Det.Fasttrack.create ~config () in
  Engine.add_tool vm (Det.Fasttrack.tool f);
  let _ = Engine.run vm program in
  f

let djit_digests d =
  ( Det.Offline.digest_signatures (Det.Djit.locations d),
    Det.Offline.digest_reports (Det.Djit.reports d) )

let ft_digests f =
  ( Det.Offline.digest_signatures (Det.Fasttrack.locations f),
    Det.Offline.digest_reports (Det.Fasttrack.reports f) )

(* --- the equivalence law on random schedules ----------------------------- *)

let ft_config ~first_only ~demote_check =
  { Det.Fasttrack.default_config with first_only; demote_check }

let qc_equivalence =
  QCheck2.Test.make ~name:"fasttrack ≡ djit (digests, random schedules)" ~count:50
    Test_properties.gen_program (fun p ->
      List.for_all
        (fun seed ->
          List.for_all
            (fun discipline ->
              let program = Test_properties.build p ~discipline in
              List.for_all
                (fun first_only ->
                  let dj =
                    djit_digests
                      (run_djit ~seed
                         ~config:{ Det.Djit.default_config with first_only }
                         program)
                  in
                  (* demote_check 0 = classic FastTrack (never demote),
                     1 = demote at every opportunity, 32 = the default
                     cadence — all three must be invisible in the
                     reports *)
                  List.for_all
                    (fun demote_check ->
                      dj
                      = ft_digests
                          (run_ft ~seed ~config:(ft_config ~first_only ~demote_check) program))
                    [ 0; 1; 32 ])
                [ true; false ])
            [ true; false ])
        [ 1; 7 ])

(* --- epoch-state transitions, one by one --------------------------------- *)

(* read-same-epoch: repeated reads by one thread are O(1) skips *)
let test_same_epoch_reads () =
  let f =
    run_ft (fun () ->
        let a = Api.alloc ~loc 1 in
        Api.write ~loc a 0;
        for _ = 1 to 50 do
          ignore (Api.read ~loc a)
        done)
  in
  Alcotest.(check int) "silent" 0 (Det.Fasttrack.location_count f);
  Alcotest.(check int) "never promoted" 0 (Det.Fasttrack.read_promotions f);
  Alcotest.(check bool) "reads decided on the epoch fast path" true
    (Det.Fasttrack.epoch_hits f >= 50)

(* read-exclusive replacement: totally ordered reads by different
   threads stay a single epoch *)
let test_ordered_reads_replace () =
  let f =
    run_ft (fun () ->
        let a = Api.alloc ~loc 1 in
        Api.write ~loc a 1;
        let t = Api.spawn ~loc ~name:"r1" (fun () -> ignore (Api.read ~loc a)) in
        Api.join ~loc t;
        ignore (Api.read ~loc a);
        let t2 = Api.spawn ~loc ~name:"r2" (fun () -> ignore (Api.read ~loc a)) in
        Api.join ~loc t2)
  in
  Alcotest.(check int) "silent" 0 (Det.Fasttrack.location_count f);
  Alcotest.(check int) "ordered reads never promote" 0 (Det.Fasttrack.read_promotions f)

(* read-shared promotion: genuinely concurrent readers *)
let test_concurrent_reads_promote () =
  let f =
    run_ft (fun () ->
        let a = Api.alloc ~loc 1 in
        Api.write ~loc a 1;
        let reader () = ignore (Api.read ~loc a) in
        let t1 = Api.spawn ~loc ~name:"r1" reader in
        let t2 = Api.spawn ~loc ~name:"r2" reader in
        Api.join ~loc t1;
        Api.join ~loc t2)
  in
  Alcotest.(check int) "exactly one promotion" 1 (Det.Fasttrack.read_promotions f);
  Alcotest.(check int) "concurrent reads are not a race" 0 (Det.Fasttrack.location_count f)

(* write-exclusive fast path: a tight single-thread update loop *)
let test_same_epoch_writes () =
  let f =
    run_ft (fun () ->
        let a = Api.alloc ~loc 1 in
        for i = 1 to 50 do
          Api.write ~loc a i
        done)
  in
  Alcotest.(check int) "silent" 0 (Det.Fasttrack.location_count f);
  Alcotest.(check bool) "writes decided on the epoch fast path" true
    (Det.Fasttrack.epoch_hits f >= 49)

(* a write racing promoted (read-shared) state must render exactly
   DJIT's report — same previous read picked out of the vector *)
let shared_write_race () =
  let a = Api.alloc ~loc 1 in
  Api.write ~loc a 1;
  let reader k () = ignore (Api.read ~loc:(Loc.v "ft.c" "reader" (10 + k)) a) in
  let t1 = Api.spawn ~loc ~name:"r1" (reader 1) in
  let t2 = Api.spawn ~loc ~name:"r2" (reader 2) in
  let w = Api.spawn ~loc ~name:"w" (fun () -> Api.write ~loc:(Loc.v "ft.c" "w" 20) a 2) in
  Api.join ~loc t1;
  Api.join ~loc t2;
  Api.join ~loc w

let test_shared_write_race_matches_djit () =
  List.iter
    (fun seed ->
      let dj = djit_digests (run_djit ~seed shared_write_race) in
      let f = run_ft ~seed shared_write_race in
      Alcotest.(check (pair string string))
        (Fmt.str "seed %d: digests match djit" seed)
        dj (ft_digests f))
    [ 1; 2; 3; 7; 42 ]

(* demotion and re-promotion: the churn scenario promotes every word
   each round and the post-join sweeps demote them again *)
let test_demotion_and_repromotion () =
  let words = 4 and rounds = 2 in
  let program () = R.Scenarios.read_shared_churn ~threads:3 ~rounds ~iters:30 ~words () in
  let f = run_ft ~config:(ft_config ~first_only:true ~demote_check:1) program in
  Alcotest.(check int) "race-free" 0 (Det.Fasttrack.location_count f);
  Alcotest.(check bool)
    (Fmt.str "every word demoted at least once (%d)" (Det.Fasttrack.read_demotions f))
    true
    (Det.Fasttrack.read_demotions f >= words);
  Alcotest.(check bool)
    (Fmt.str "demoted words re-promote next round (%d promotions)"
       (Det.Fasttrack.read_promotions f))
    true
    (Det.Fasttrack.read_promotions f >= rounds * words);
  (* the default cadence still demotes on this workload *)
  let f32 = run_ft program in
  Alcotest.(check bool) "default cadence demotes too" true
    (Det.Fasttrack.read_demotions f32 >= 1)

(* --- the unordered_now dead-cell fix ------------------------------------- *)

(* Once first_only retires a cell its shadow state goes stale; the
   composition probe must answer false instead of gating on it.  DJIT
   runs on the same stream as the report-count oracle; the probing tid
   never synchronised with either writer, so the stale last-write would
   look unordered. *)
let test_unordered_now_dead_cell () =
  let vm = Engine.create ~config:{ Engine.default_config with seed = 1 } () in
  let d = Det.Djit.create () in
  let f = Det.Fasttrack.create () in
  Engine.add_tool vm (Det.Djit.tool d);
  Engine.add_tool vm (Det.Fasttrack.tool f);
  let addr = ref 0 in
  let _ =
    Engine.run vm (fun () ->
        let a = Api.alloc ~loc 1 in
        addr := a;
        let t = Api.spawn ~loc ~name:"w" (fun () -> Api.write ~loc a 1) in
        Api.write ~loc a 2;
        Api.join ~loc t)
  in
  Alcotest.(check int) "djit reported and retired the cell" 1 (Det.Djit.location_count d);
  Alcotest.(check int) "fasttrack agrees" 1 (Det.Fasttrack.location_count f);
  Alcotest.(check bool) "fasttrack: dead cell answers false" false
    (Det.Fasttrack.unordered_now f ~tid:99 ~addr:!addr ~write:true)

(* --- Vector_clock.pp normalization --------------------------------------- *)

(* pp must render the logical clock: two pointwise-equal clocks with
   different backing-array growth histories print identically *)
let qc_vc_pp_normalized =
  QCheck2.Test.make ~name:"Vc.pp invariant under growth history" ~count:200
    QCheck2.Gen.(pair (small_list (pair (int_bound 20) (int_bound 100))) (int_bound 40))
    (fun (assignments, extra) ->
      let a = Det.Vector_clock.create () in
      let b = Det.Vector_clock.create () in
      List.iter
        (fun (tid, v) ->
          Det.Vector_clock.set a tid v;
          Det.Vector_clock.set b tid v)
        assignments;
      (* grow b's backing array far past a's, with a zero entry *)
      Det.Vector_clock.set b (41 + extra) 1;
      Det.Vector_clock.set b (41 + extra) 0;
      Det.Vector_clock.equal a b
      && String.equal (Fmt.str "%a" Det.Vector_clock.pp a) (Fmt.str "%a" Det.Vector_clock.pp b))

(* --- Dense tables ---------------------------------------------------------- *)

type dense_op = Grow of int * int | Store of int * int | Sweep of int * int * int

let show_dense_op = function
  | Grow (i, floor) -> Printf.sprintf "grow %d ~floor:%d" i floor
  | Store (i, v) -> Printf.sprintf "store %d %d" i v
  | Sweep (addr, len, v) -> Printf.sprintf "sweep ~addr:%d ~len:%d %d" addr len v

(* Random grow / store / range-sweep sequences on a table of [int ref]
   cells (fresh = [ref 0]) against a model map whose absent keys read
   fresh: growth keeps every existing cell physically in place and
   fills the new tail with distinct fresh cells, and a sweep writes
   exactly the in-range slots of the range without lengthening the
   table. *)
let qc_dense_model =
  let open QCheck2.Gen in
  let op =
    oneof
      [
        map2 (fun i floor -> Grow (i, floor)) (int_bound 300) (int_bound 64);
        map2 (fun i v -> Store (i, v)) (int_bound 300) (int_range 1 9);
        map3 (fun addr len v -> Sweep (addr, len, v)) (int_bound 300) (int_bound 40) (int_range 1 9);
      ]
  in
  QCheck2.Test.make ~name:"Dense tables agree with a map model" ~count:300
    ~print:QCheck2.Print.(list show_dense_op)
    (small_list op)
    (fun ops ->
      let model = Hashtbl.create 16 and cells = ref [||] and ok = ref true in
      let check b = ok := !ok && b in
      List.iter
        (fun op ->
          let old = !cells in
          let n = Array.length old in
          (match op with
          | Grow (i, floor) ->
              cells := Det.Dense.grow old i ~floor (fun () -> ref 0);
              check (if i < n then !cells == old else Array.length !cells >= max floor (i + 1));
              Array.iteri (fun j c -> check (if j < n then c == old.(j) else !c = 0)) !cells
          | Store (i, v) ->
              if n > 0 then begin
                old.(i mod n) := v;
                Hashtbl.replace model (i mod n) v
              end
          | Sweep (addr, len, v) ->
              Det.Dense.iter_range old ~addr ~len (fun c -> c := v);
              check (Array.length !cells = n);
              for j = addr to min (addr + len - 1) (n - 1) do
                Hashtbl.replace model j v
              done);
          Array.iteri
            (fun j c -> check (!c = Option.value ~default:0 (Hashtbl.find_opt model j)))
            !cells)
        ops;
      !ok)

(* --- alloc recycling ------------------------------------------------------ *)

(* E_alloc must fully reset recycled shadow state in both detectors —
   allocation-heavy workloads keep identical reports *)
let test_alloc_recycling_matches_djit () =
  let program () =
    let racer a =
      let t = Api.spawn ~loc ~name:"w" (fun () -> Api.write ~loc a 1) in
      Api.write ~loc a 2;
      Api.join ~loc t
    in
    (* allocate/free in a loop: the VM recycles addresses, so stale
       shadow (including dead cells) would leak across iterations *)
    for _ = 1 to 8 do
      let a = Api.alloc ~loc 16 in
      racer a;
      Api.free ~loc a
    done
  in
  List.iter
    (fun seed ->
      let dj = djit_digests (run_djit ~seed program) in
      let ft = ft_digests (run_ft ~seed program) in
      Alcotest.(check (pair string string))
        (Fmt.str "seed %d: digests match djit" seed)
        dj ft)
    [ 1; 7; 42 ]

(* --- live SIP pins: fasttrack ≡ djit on one shared event stream ----------- *)

let test_sip_equivalence () =
  List.iter
    (fun (tc : Sip.Workload.test_case) ->
      List.iter
        (fun seed ->
          let d = Det.Djit.create () and f = Det.Fasttrack.create () in
          let tools = [ Det.Djit.tool d; Det.Fasttrack.tool f ] in
          ignore (R.Runner.run_test_case { R.Runner.default with seed; helgrind_configs = []; tools } tc);
          Alcotest.(check string)
            (Fmt.str "%s seed %d: signature digest" tc.tc_name seed)
            (Det.Offline.digest_signatures (Det.Djit.locations d))
            (Det.Offline.digest_signatures (Det.Fasttrack.locations f));
          Alcotest.(check string)
            (Fmt.str "%s seed %d: report digest" tc.tc_name seed)
            (Det.Offline.digest_reports (Det.Djit.reports d))
            (Det.Offline.digest_reports (Det.Fasttrack.reports f)))
        [ 7; 42 ])
    Sip.Workload.all_test_cases

let suite =
  ( "fasttrack",
    [
      QCheck_alcotest.to_alcotest qc_equivalence;
      QCheck_alcotest.to_alcotest qc_vc_pp_normalized;
      QCheck_alcotest.to_alcotest qc_dense_model;
      Alcotest.test_case "read-same-epoch fast path" `Quick test_same_epoch_reads;
      Alcotest.test_case "ordered reads replace (no promotion)" `Quick
        test_ordered_reads_replace;
      Alcotest.test_case "concurrent reads promote" `Quick test_concurrent_reads_promote;
      Alcotest.test_case "write-same-epoch fast path" `Quick test_same_epoch_writes;
      Alcotest.test_case "write racing read-shared renders DJIT's report" `Quick
        test_shared_write_race_matches_djit;
      Alcotest.test_case "adaptive demotion and re-promotion" `Quick
        test_demotion_and_repromotion;
      Alcotest.test_case "unordered_now: dead cells answer false" `Quick
        test_unordered_now_dead_cell;
      Alcotest.test_case "alloc recycling matches djit" `Quick
        test_alloc_recycling_matches_djit;
      Alcotest.test_case "fasttrack ≡ djit on T1-T8 (seeds 7/42, live)" `Slow
        test_sip_equivalence;
    ] )
