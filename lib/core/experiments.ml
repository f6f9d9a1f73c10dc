(** Reproduction of every table and figure in the paper's evaluation,
    plus the ablations DESIGN.md calls out.  Each experiment returns a
    rendered text artefact (and structured data where tests need it).

    Index (see DESIGN.md §4): E1 {!fig6}, E2 {!fig5}, E3/E4 are test
    suites, E5 {!fig8}, E6 {!fig4}, E7 {!pools}, E8 {!false_negatives},
    E9 {!perf}, E10 {!bugs}, E11 {!deadlock}, E12 {!alloc}; extra
    ablations: {!segments_ablation}, {!eraser_states_ablation},
    {!baselines}, {!offline_vs_online}. *)

module Vm = Raceguard_vm
module Det = Raceguard_detector
module Sip = Raceguard_sip
module Obs = Raceguard_obs
module Table = Raceguard_util.Table

let default_seed = 7

(* ------------------------------------------------------------------ *)
(* E1 — Figure 6: the eight test cases under three configurations      *)
(* ------------------------------------------------------------------ *)

type fig6_row = {
  tc : string;
  original : int;
  hwlc : int;
  hwlc_dr : int;
  split : Classify.split;
  oracle_failures : int;
}

let fig6_data ?(seed = default_seed) () =
  List.map
    (fun tc ->
      let res = Runner.run_test_case { Runner.default with seed } tc in
      let original = Runner.locations_of res "Original" in
      let hwlc = Runner.locations_of res "HWLC" in
      let hwlc_dr = Runner.locations_of res "HWLC+DR" in
      {
        tc = tc.Sip.Workload.tc_name;
        original = List.length original;
        hwlc = List.length hwlc;
        hwlc_dr = List.length hwlc_dr;
        split = Classify.split ~original ~hwlc ~hwlc_dr;
        oracle_failures =
          (match res.oracle with Some o -> List.length o.r_failures | None -> 0);
      })
    Sip.Workload.all_test_cases

let fig6 ?seed () =
  let rows = fig6_data ?seed () in
  let table =
    List.fold_left
      (fun t r ->
        Table.add_row t
          [
            r.tc;
            string_of_int r.original;
            string_of_int r.hwlc;
            string_of_int r.hwlc_dr;
            Printf.sprintf "%.0f%%" (Classify.reduction_pct r.split);
          ])
      (Table.create
         ~headers:[ "Test case"; "Original"; "HWLC"; "HWLC+DR"; "reduction" ]
         ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
         ())
      rows
  in
  "Figure 6 — reported possible-data-race locations per test case\n"
  ^ "(paper: T1 483/448/120 ... T8 357/270/78; reductions 65-81%)\n\n"
  ^ Table.render table

(** Robustness of the Figure 6 result across schedules: the paper ran
    each test case once; we can rerun the whole suite under several
    random schedules and check that the orderings and the reduction
    band are schedule-independent. *)
let fig6_stability ?(seeds = [ 7; 11; 23 ]) () =
  let per_seed = List.map (fun seed -> (seed, fig6_data ~seed ())) seeds in
  let table =
    List.fold_left
      (fun t (seed, rows) ->
        let reductions = List.map (fun r -> Classify.reduction_pct r.split) rows in
        let lo = List.fold_left min 100.0 reductions in
        let hi = List.fold_left max 0.0 reductions in
        let ordering_ok =
          List.for_all (fun r -> r.hwlc < r.original && r.hwlc_dr < r.hwlc) rows
        in
        let oracle_ok = List.for_all (fun r -> r.oracle_failures = 0) rows in
        Table.add_row t
          [
            string_of_int seed;
            Printf.sprintf "%.0f-%.0f%%" lo hi;
            (if ordering_ok then "yes" else "NO");
            (if oracle_ok then "yes" else "NO");
          ])
      (Table.create
         ~headers:[ "seed"; "reduction range"; "Original>HWLC>HWLC+DR"; "oracle clean" ]
         ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right ]
         ())
      per_seed
  in
  "Figure 6 robustness — the whole suite under several random schedules\n\n"
  ^ Table.render table
  ^ "\n\n(The paper's 65-81% band and per-case orderings are properties of\n\
     the workload, not of one lucky schedule.)"

(* ------------------------------------------------------------------ *)
(* E2 — Figure 5: stacked split of the Original population             *)
(* ------------------------------------------------------------------ *)

let fig5 ?seed () =
  let rows = fig6_data ?seed () in
  let bars =
    List.map
      (fun r ->
        ( r.tc,
          [ r.split.Classify.remaining; r.split.Classify.destructor_fp; r.split.Classify.hw_lock_fp ] ))
      rows
  in
  Table.render_stacked_bars
    ~title:
      "Figure 5 — composition of reported locations per test case\n\
       (bottom-to-top: reported by HWLC+DR; destructor FPs; hardware-lock FPs)"
    ~segments:[ ("remaining (HWLC+DR)", '#'); ("destructor FP", 'd'); ("hw-lock FP", 'h') ]
    ~rows:bars ~max_width:60

(* ------------------------------------------------------------------ *)
(* E5 — Figure 8/9: the reference-counted string                       *)
(* ------------------------------------------------------------------ *)

let fig8 ?(seed = default_seed) () =
  let run name hconfig =
    let cfg =
      { Runner.default with seed; helgrind_configs = [ (name, hconfig) ] }
    in
    let res, _ = Runner.run_main cfg Scenarios.stringtest in
    Runner.locations_of res name
  in
  let orig = run "Original" Det.Helgrind.original in
  let hwlc = run "HWLC" Det.Helgrind.hwlc in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Figure 8/9 - stringtest.cpp: shared std::string with bus-locked refcount\n\n";
  Buffer.add_string buf
    (Printf.sprintf "Original bus-lock model (mutex): %d location(s) reported\n"
       (List.length orig));
  List.iter
    (fun (r, _) -> Buffer.add_string buf (Fmt.str "%a\n" Det.Report.pp r))
    orig;
  Buffer.add_string buf
    (Printf.sprintf "\nCorrected rw-lock model (HWLC):  %d location(s) reported\n"
       (List.length hwlc));
  List.iter
    (fun (r, _) -> Buffer.add_string buf (Fmt.str "%a\n" Det.Report.pp r))
    hwlc;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* E6 — Figure 4: the automatic delete annotation (MiniC++ pipeline)   *)
(* ------------------------------------------------------------------ *)

let figure4_source =
  {|// g.mcc - the Figure 4 example, MiniC++ rendering
class Buffer {
  var refs;
  var size;
  fn ~Buffer() { this.size = 0; }
}
class SharedBuffer : Buffer {
  var tag;
  fn ~SharedBuffer() { this.tag = 0; }
}

fn g(p) {
  delete p;
  return 0;
}

fn worker(p, m) {
  lock (m) { p.refs = p.refs + 1; }
  return 0;
}

fn main() {
  var m = mutex("refs_guard");
  var p = new SharedBuffer();
  p.refs = 1;
  p.size = 64;
  p.tag = 7;
  var t = spawn worker(p, m);
  lock (m) { p.refs = p.refs - 1; }
  join(t);
  g(p);
  return 0;
}
|}

let fig4 ?(seed = default_seed) () =
  let module M = Raceguard_minicc in
  let run ~annotate =
    let interp, pretty, n_annotated =
      M.Interp.compile ~annotate ~file:"g.mcc" figure4_source
    in
    let h = Det.Helgrind.create Det.Helgrind.hwlc_dr in
    let cfg =
      { Runner.default with seed; helgrind_configs = []; tools = [ Det.Helgrind.tool h ] }
    in
    let res, _ = Runner.run_main cfg (fun () -> M.Interp.run_main interp) in
    assert (res.outcome.failures = []);
    (pretty, n_annotated, Det.Helgrind.location_count h)
  in
  let _, _, n_plain = run ~annotate:false in
  let pretty, n_annotated, n_instr = run ~annotate:true in
  Printf.sprintf
    "Figure 4 - automatic annotation of delete operations (MiniC++ pipeline)\n\n\
     uninstrumented build: %d destructor false-positive location(s)\n\
     instrumented build:   %d location(s)  (%d delete(s) annotated)\n\n\
     --- annotated source as fed to the compiler ---\n%s"
    n_plain n_instr n_annotated pretty

(* ------------------------------------------------------------------ *)
(* E7 — Figures 10/11 + §4.2.3: thread pools vs thread-per-request     *)
(* ------------------------------------------------------------------ *)

let pools ?(seed = default_seed) () =
  let count scenario =
    let cfg =
      {
        Runner.default with
        seed;
        helgrind_configs = [ ("HWLC+DR", Det.Helgrind.hwlc_dr) ];
      }
    in
    let res, _ = Runner.run_main cfg scenario in
    Runner.locations_of res "HWLC+DR"
  in
  let per_request = count Scenarios.handoff_per_request in
  let pool = count Scenarios.handoff_pool in
  let run_tc pattern =
    let cfg =
      {
        Runner.default with
        seed;
        helgrind_configs = [ ("HWLC+DR", Det.Helgrind.hwlc_dr) ];
        server = { Runner.default.server with pattern };
      }
    in
    let res = Runner.run_test_case cfg Sip.Workload.t2 in
    ( List.length (Runner.locations_of res "HWLC+DR"),
      match res.oracle with Some o -> List.length o.r_failures | None -> -1 )
  in
  let tpr_count, tpr_fail = run_tc Sip.Proxy.Per_request in
  let pool_count, pool_fail = run_tc (Sip.Proxy.Pool 4) in
  Printf.sprintf
    "Figures 10/11 + §4.2.3 — ownership transfer vs the lock-set algorithm\n\n\
     micro handoff, thread-per-request (Figure 10): %d location(s)\n\
     micro handoff, via message queue (Figure 11):  %d location(s)\n\n\
     SIP test case T2, thread-per-request: %d location(s), oracle failures %d\n\
     SIP test case T2, thread pool (4):    %d location(s), oracle failures %d\n\n\
     The queue's put/get ordering is real but invisible to the lock-set\n\
     algorithm, so the pool configuration reports more false positives\n\
     even with both paper improvements enabled.\n"
    (List.length per_request) (List.length pool) tpr_count tpr_fail pool_count pool_fail

(* ------------------------------------------------------------------ *)
(* Extension — §5 future work: higher-level synchronisation            *)
(* ------------------------------------------------------------------ *)

(** "Common concurrent patterns often rely on higher level constructs
    for synchronization that the lock-set algorithm is unaware of" —
    the paper's closing future-work item, implemented here: message
    queues in the instrumented build emit
    [ANNOTATE_HAPPENS_BEFORE]/[_AFTER] client requests around put/get,
    and the extended detector turns them into thread-segment edges, so
    ownership transfer through queues is recognised exactly like
    transfer through thread creation. *)
let queue_annotations ?(seed = default_seed) () =
  let micro config =
    let cfg = { Runner.default with seed; helgrind_configs = [ ("c", config) ] } in
    let res, _ = Runner.run_main cfg Scenarios.handoff_pool in
    Runner.location_count res "c"
  in
  let server config =
    let cfg =
      {
        Runner.default with
        seed;
        helgrind_configs = [ ("c", config) ];
        server = { Runner.default.server with pattern = Sip.Proxy.Pool 4 };
      }
    in
    let res = Runner.run_test_case cfg Sip.Workload.t2 in
    ( Runner.location_count res "c",
      match res.oracle with Some o -> List.length o.r_failures | None -> -1 )
  in
  let micro_plain = micro Det.Helgrind.hwlc_dr in
  let micro_hb = micro Det.Helgrind.hwlc_dr_hb in
  let pool_plain, f1 = server Det.Helgrind.hwlc_dr in
  let pool_hb, f2 = server Det.Helgrind.hwlc_dr_hb in
  Printf.sprintf
    "§5 extension — queue-aware detection via HAPPENS_BEFORE annotations\n\n\
     Figure 11 micro handoff, HWLC+DR:      %3d location(s)\n\
     Figure 11 micro handoff, HWLC+DR+HB:   %3d location(s)\n\
     SIP T2 in pool mode,     HWLC+DR:      %3d location(s) (oracle failures %d)\n\
     SIP T2 in pool mode,     HWLC+DR+HB:   %3d location(s) (oracle failures %d)\n\n\
     The annotated message queue makes put/get ownership transfer\n\
     visible to the thread-segment graph, removing the thread-pool\n\
     false positives of §4.2.3 without weakening the lock-set check\n\
     anywhere else.\n"
    micro_plain micro_hb pool_plain f1 pool_hb f2

(* ------------------------------------------------------------------ *)
(* E8 — §4.3: false negatives of delayed lock-set initialisation       *)
(* ------------------------------------------------------------------ *)

let false_negatives ?(seeds = 40) () =
  let detected config seed =
    let cfg =
      { Runner.default with seed; helgrind_configs = [ ("cfg", config) ] }
    in
    let res, _ = Runner.run_main cfg Scenarios.false_negative_schedule in
    Runner.location_count res "cfg" > 0
  in
  let djit_detected seed =
    let d = Det.Djit.create () in
    let cfg =
      { Runner.default with seed; helgrind_configs = []; tools = [ Det.Djit.tool d ] }
    in
    ignore (Runner.run_main cfg Scenarios.false_negative_schedule);
    Det.Djit.location_count d > 0
  in
  let count f = List.length (List.filter f (List.init seeds (fun i -> i + 1))) in
  let with_states = count (detected Det.Helgrind.hwlc_dr) in
  let pure = count (detected Det.Helgrind.pure_eraser) in
  let djit = count djit_detected in
  Printf.sprintf
    "§4.3 — false negatives from delayed lock-set initialisation\n\n\
     program: thread A writes v unlocked; thread B writes v holding a lock.\n\
     %d random schedules:\n\n\
     Helgrind (states, HWLC+DR):  detected in %2d/%d schedules (order-dependent)\n\
     pure Eraser (no states):     detected in %2d/%d schedules\n\
     DJIT (happens-before):       detected in %2d/%d schedules\n\n\
     The state machine trades initialisation false positives for\n\
     schedule-dependent false negatives; rerunning with different\n\
     schedules (seeds) recovers the missed races.\n"
    seeds with_states seeds pure seeds djit seeds

(* ------------------------------------------------------------------ *)
(* Extension — systematic schedule exploration for §4.3                *)
(* ------------------------------------------------------------------ *)

(** Upgrade "repeated tests with different test data (resulting in
    different interleavings) could help find such data-races" from
    hope to procedure: a CHESS-style bounded search over scheduler
    decisions finds the §4.3 miss deterministically. *)
let explore () =
  let instantiate scenario ~policy =
    let vm =
      Vm.Engine.create ~config:{ Vm.Engine.default_config with policy } ()
    in
    let h = Det.Helgrind.create Det.Helgrind.hwlc_dr in
    Vm.Engine.add_tool vm (Det.Helgrind.tool h);
    let execute () =
      let _ = Vm.Engine.run vm scenario in
      vm
    in
    let check _vm =
      if Det.Helgrind.location_count h > 0 then Some (Det.Helgrind.locations h) else None
    in
    (execute, check)
  in
  let found = Vm.Explore.search ~max_depth:24 ~max_runs:500 (instantiate Scenarios.false_negative_schedule) in
  (* random baseline: how many seeds until the same race is seen? *)
  let random_runs =
    let rec go seed =
      if seed > 500 then 500
      else begin
        let cfg =
          { Runner.default with seed; helgrind_configs = [ ("c", Det.Helgrind.hwlc_dr) ] }
        in
        let res, _ = Runner.run_main cfg Scenarios.false_negative_schedule in
        if Runner.location_count res "c" > 0 then seed else go (seed + 1)
      end
    in
    go 1
  in
  (* sanity: a disciplined program exhausts without a witness *)
  let clean () =
    let loc = Raceguard_util.Loc.v "clean.c" "main" 1 in
    let module Api = Vm.Api in
    let v = Api.alloc ~loc 1 in
    let m = Api.Mutex.create ~loc "m" in
    let w () = Api.Mutex.with_lock ~loc m (fun () -> Api.write ~loc v 1) in
    let t1 = Api.spawn ~loc ~name:"a" w in
    let t2 = Api.spawn ~loc ~name:"b" w in
    Api.join ~loc t1;
    Api.join ~loc t2
  in
  let none = Vm.Explore.search ~max_depth:4 ~max_runs:500 (instantiate clean) in
  Printf.sprintf
    "extension — systematic schedule exploration (§4.3 upgraded)\n\n\
     program: thread A writes v unlocked; thread B writes v under a lock.\n\
     Helgrind (HWLC+DR) misses the race on schedules that run A first.\n\n\
     systematic search: witness found after %d run(s)%s\n\
     random reruns:     first witness at seed %d\n\n\
     control (properly locked program): %d run(s), no witness,\n\
     first 4 decision points %s\n"
    found.Vm.Explore.runs
    (match found.Vm.Explore.witness_script with
    | Some s ->
        Printf.sprintf " (decision script [%s])"
          (String.concat ";" (Array.to_list (Array.map string_of_int s)))
    | None -> " — NOT FOUND")
    random_runs none.Vm.Explore.runs
    (if none.Vm.Explore.exhausted then "exhausted" else "not exhausted")

(* ------------------------------------------------------------------ *)
(* E10 — §4.1: the injected real bugs                                  *)
(* ------------------------------------------------------------------ *)

let bugs ?(seed = default_seed) ?(sweep = 5) () =
  let found_in_run seed =
    let cfg =
      {
        Runner.default with
        seed;
        helgrind_configs = [ ("HWLC+DR", Det.Helgrind.hwlc_dr) ];
        server = { Runner.default.server with enable_watchdog = true };
      }
    in
    let res = Runner.run_test_case cfg Sip.Workload.t4 in
    Classify.bugs_found (Runner.locations_of res "HWLC+DR")
  in
  let runs = List.init sweep (fun i -> found_in_run (seed + i)) in
  let table =
    List.fold_left
      (fun t bug ->
        let hits = List.length (List.filter (fun found -> List.mem bug found) runs) in
        Table.add_row t
          [
            Sip.Bugs.to_string bug;
            Printf.sprintf "%d/%d" hits sweep;
            Sip.Bugs.description bug;
          ])
      (Table.create
         ~headers:[ "bug"; "runs detected"; "description" ]
         ~aligns:[ Table.Left; Table.Right; Table.Left ]
         ())
      Sip.Bugs.all
  in
  "§4.1 — true positives: injected bugs found by the detector (test case T4,\n"
  ^ Printf.sprintf "watchdog enabled, %d random schedules)\n\n" sweep
  ^ Table.render table
  ^ "\n\nNote: B2 (initialisation order) is schedule-dependent — the paper's\n\
     authors found it through a changed schedule, not a direct report.\n"

(* ------------------------------------------------------------------ *)
(* E12 — allocator reuse (the GNU pool allocator issue, §4)            *)
(* ------------------------------------------------------------------ *)

let alloc ?(seed = default_seed) () =
  let run mode =
    let cfg =
      {
        Runner.default with
        seed;
        helgrind_configs = [ ("HWLC+DR", Det.Helgrind.hwlc_dr) ];
        server = { Runner.default.server with alloc_mode = mode };
      }
    in
    let res = Runner.run_test_case cfg Sip.Workload.t6 in
    List.length (Runner.locations_of res "HWLC+DR")
  in
  let direct = run Raceguard_cxxsim.Allocator.Direct in
  let pooled = run Raceguard_cxxsim.Allocator.Pooled in
  Printf.sprintf
    "§4 — container allocator strategy (test case T6, HWLC+DR)\n\n\
     GLIBCXX_FORCE_NEW (every node malloc'd):   %3d location(s)\n\
     default pool allocator (silent reuse):     %3d location(s)\n\n\
     The pool recycles node memory without malloc/free events, so shadow\n\
     state leaks across logical lifetimes; the paper had to disable the\n\
     GNU allocator's pooling via environment variables before running\n\
     Helgrind.\n"
    direct pooled

(* ------------------------------------------------------------------ *)
(* Ablations: thread segments, Eraser states, baselines                *)
(* ------------------------------------------------------------------ *)

let segments_ablation ?(seed = default_seed) () =
  let run_tc config =
    let cfg = { Runner.default with seed; helgrind_configs = [ ("cfg", config) ] } in
    let res = Runner.run_test_case cfg Sip.Workload.t1 in
    List.length (Runner.locations_of res "cfg")
  in
  let run_micro config =
    let cfg = { Runner.default with seed; helgrind_configs = [ ("cfg", config) ] } in
    let res, _ = Runner.run_main cfg Scenarios.handoff_per_request in
    Runner.location_count res "cfg"
  in
  (* measured under HWLC without DR: the handoff pattern's extra reports
     include the ctx destructor writes, which DR would also suppress *)
  let with_ts_tc = run_tc Det.Helgrind.hwlc in
  let without_ts_tc = run_tc { Det.Helgrind.hwlc with thread_segments = false } in
  let with_ts_micro = run_micro Det.Helgrind.hwlc in
  let without_ts_micro = run_micro { Det.Helgrind.hwlc with thread_segments = false } in
  Printf.sprintf
    "ablation — VisualThreads thread segments (HWLC configuration)\n\n\
     Figure 10 micro handoff, with segments:    %3d location(s)\n\
     Figure 10 micro handoff, without segments: %3d location(s)\n\
     SIP test case T1, with segments:           %3d location(s)\n\
     SIP test case T1, without segments:        %3d location(s)\n\n\
     Without segment tracking the producer->worker handoff of the\n\
     thread-per-request pattern (Figure 10) is reported even though\n\
     thread creation orders the accesses.\n"
    with_ts_micro without_ts_micro with_ts_tc without_ts_tc

let eraser_states_ablation ?(seed = default_seed) () =
  let run config =
    let cfg = { Runner.default with seed; helgrind_configs = [ ("cfg", config) ] } in
    let res = Runner.run_test_case cfg Sip.Workload.t3 in
    List.length (Runner.locations_of res "cfg")
  in
  let with_states = run Det.Helgrind.original in
  let pure = run Det.Helgrind.pure_eraser in
  Printf.sprintf
    "ablation — the Figure 1 state machine (test case T3, Original config)\n\n\
     Eraser with states:          %3d location(s)\n\
     pure Eraser (no states):     %3d location(s)\n\n\
     Without the NEW/EXCLUSIVE/SHARED states every initialisation write\n\
     and read-shared access empties a lock-set (\"results in too many\n\
     false positives\", §2.3.2).\n"
    with_states pure

let baselines ?(seed = default_seed) () =
  (* run Helgrind, DJIT and the true hybrid tool on the same stream *)
  let helgrind = Det.Helgrind.create Det.Helgrind.hwlc_dr in
  let djit = Det.Djit.create () in
  let hybrid = Det.Hybrid.create () in
  let racetrack = Det.Racetrack.create () in
  let tools =
    [
      Det.Helgrind.tool helgrind;
      Det.Djit.tool djit;
      Det.Hybrid.tool hybrid;
      Det.Racetrack.tool racetrack;
    ]
  in
  ignore
    (Runner.run_test_case { Runner.default with seed; helgrind_configs = []; tools }
       Sip.Workload.t2);
  Printf.sprintf
    "§2.2 — lock-set vs happens-before vs hybrids on the same execution (T2)\n\n\
     Helgrind (HWLC+DR) locations:          %3d\n\
     DJIT (vector clocks, first-only):      %3d\n\
     hybrid (lock-set gated by HB):         %3d\n\
     RaceTrack-style adaptive [16]:         %3d\n\n\
     DJIT sees only apparent races on this schedule and stops at the\n\
     first report per location; the lock-set algorithm flags every\n\
     locking-discipline violation on the execution path, including ones\n\
     that did not race this time; the hybrid (Multi-Race-style) keeps a\n\
     lock-set warning only when the access is provably concurrent; the\n\
     adaptive detector additionally re-privatises locations whose\n\
     threadset prunes back to one thread.\n"
    (Det.Helgrind.location_count helgrind)
    (Det.Djit.location_count djit)
    (Det.Hybrid.location_count hybrid)
    (Det.Racetrack.location_count racetrack)

(* ------------------------------------------------------------------ *)
(* E9 — §4.5: performance                                              *)
(* ------------------------------------------------------------------ *)

let time_run f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let median l =
  let a = Array.of_list (List.sort compare l) in
  a.(Array.length a / 2)

let perf ?(seed = default_seed) ?(reps = 3) () =
  let run_with tools =
    let samples =
      List.init reps (fun i ->
          let cfg = { Runner.default with seed = seed + i; helgrind_configs = tools } in
          let t, _ = time_run (fun () -> Runner.run_test_case cfg Sip.Workload.t2) in
          t)
    in
    median samples
  in
  (* native: the workload logic without the VM — a pure OCaml analogue
     doing the same arithmetic over a plain array, for the 8-10x
     "program on the bare VM" comparison *)
  let native_analogue () =
    let a = Array.make 4096 0 in
    let acc = ref 0 in
    for k = 0 to 200_000 do
      let i = k land 4095 in
      a.(i) <- a.(i) + k;
      acc := !acc + a.(i)
    done;
    !acc
  in
  let native_t, _ = time_run (fun () -> native_analogue ()) in
  let bare = run_with [] in
  let helgrind = run_with [ ("HWLC+DR", Det.Helgrind.hwlc_dr) ] in
  let helgrind_slow =
    run_with [ ("HWLC+DR", { Det.Helgrind.hwlc_dr with fast_path = false }) ]
  in
  (* hot-path counters from one instrumented run: its delta of the
     process-global metrics registry *)
  let run_metrics =
    (Runner.run_test_case
       { Runner.default with seed; helgrind_configs = [ ("HWLC+DR", Det.Helgrind.hwlc_dr) ] }
       Sip.Workload.t2)
      .metrics
  in
  let m name = Option.value ~default:0 (Obs.Metrics.find_counter run_metrics name) in
  let g name = Option.value ~default:0 (Obs.Metrics.find_gauge run_metrics name) in
  let checked = m "detector.helgrind.accesses_checked" in
  let fast_hits = m "detector.helgrind.fast_path_hits" in
  (* gauges are levels, so these read as process-global totals *)
  let interned = g "detector.lockset.interned" in
  let memo_entries = g "detector.lockset.inter_memo_entries" in
  let memo_hits = m "detector.lockset.inter_memo_hits" in
  let memo_misses = m "detector.lockset.inter_memo_misses" in
  let all3 =
    run_with
      [
        ("Original", Det.Helgrind.original);
        ("HWLC", Det.Helgrind.hwlc);
        ("HWLC+DR", Det.Helgrind.hwlc_dr);
      ]
  in
  (* offline: record the trace, then replay through the detector *)
  let offline_record_t, (rec_len, rec_words, replay_t, offline_locs) =
    time_run (fun () ->
        let recorder = (Trace_ops.record_test ~seed Sip.Workload.t2).rec_recorder in
        let h = Det.Helgrind.create Det.Helgrind.hwlc_dr in
        let replay_t, () = time_run (fun () -> Det.Offline.replay recorder (Det.Helgrind.tool h)) in
        ( Det.Offline.length recorder,
          Det.Offline.footprint_words recorder,
          replay_t,
          Det.Helgrind.location_count h ))
  in
  Printf.sprintf
    "§4.5 — performance of the debugging process (test case T2, median of %d)\n\n\
     native analogue (no VM):          %8.4f s   (reference computation)\n\
     VM, no tools:                     %8.4f s   (x%.1f vs bare VM)\n\
     VM + Helgrind (HWLC+DR):          %8.4f s   (x%.2f vs bare VM)\n\
     ... with the fast path disabled:  %8.4f s   (x%.2f vs bare VM)\n\
     VM + 3 configurations at once:    %8.4f s   (x%.2f vs bare VM)\n\n\
     hot path: %d/%d accesses (%.1f%%) answered by the shadow stamp;\n\
     lockset intern table: %d sets, %d memoised intersections\n\
     (%d hits / %d misses)\n\n\
     offline mode: record %d events (~%d kwords of log), then replay:\n\
     record %.4f s + replay %.4f s; replay found %d locations\n\n\
     Paper context: Valgrind alone slows execution 8-10x, Helgrind on top\n\
     20-30x.  Our VM's per-op cost replaces binary translation, so the\n\
     bare-VM factor differs, but the detector-on-top overhead and the\n\
     online/offline trade-off reproduce.\n"
    reps native_t bare 1.0 helgrind (helgrind /. bare) helgrind_slow
    (helgrind_slow /. bare) all3 (all3 /. bare) fast_hits checked
    (100.0 *. float_of_int fast_hits /. float_of_int (max 1 checked))
    interned memo_entries memo_hits memo_misses rec_len (rec_words / 1024)
    offline_record_t replay_t offline_locs
  ^ Fmt.str "@\nmetrics registry (delta of the instrumented run):@\n%a" Obs.Metrics.pp run_metrics

(* ------------------------------------------------------------------ *)
(* E11 — deadlock detection                                            *)
(* ------------------------------------------------------------------ *)

let deadlock ?(seed = default_seed) () =
  (* predictive: inversion without a runtime deadlock *)
  let lo = Det.Lock_order.create () in
  let cfg =
    { Runner.default with seed; helgrind_configs = []; tools = [ Det.Lock_order.tool lo ] }
  in
  ignore (Runner.run_main cfg (Scenarios.lock_order_inversion ~force_deadlock:false));
  let predicted = Det.Lock_order.locations lo in
  (* runtime: force the interleaving that actually deadlocks *)
  let cfg2 =
    {
      Runner.default with
      seed;
      policy = Vm.Engine.Round_robin;
      helgrind_configs = [];
    }
  in
  let res2, _ = Runner.run_main cfg2 (Scenarios.lock_order_inversion ~force_deadlock:true) in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "§3.3 — deadlock detection by the race checker\n\n";
  Buffer.add_string buf
    (Printf.sprintf "predictive lock-order analysis: %d inversion(s) flagged\n"
       (List.length predicted));
  List.iter (fun (r, _) -> Buffer.add_string buf (Fmt.str "%a\n" Det.Report.pp r)) predicted;
  (match res2.outcome.deadlock with
  | Some d -> Buffer.add_string buf (Fmt.str "\nruntime detection:\n%a" Vm.Engine.pp_deadlock d)
  | None ->
      Buffer.add_string buf "\nruntime detection: schedule avoided the deadlock this run\n");
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let all : (string * string * (unit -> string)) list =
  [
    ("fig6", "E1: Figure 6 table — 8 test cases x 3 configurations", fun () -> fig6 ());
    ("fig5", "E2: Figure 5 stacked composition of reports", fun () -> fig5 ());
    ("fig6x", "E1 robustness: Figure 6 across several schedules", fun () -> fig6_stability ());
    ("fig8", "E5: Figure 8/9 refcounted string bus-lock FP", fun () -> fig8 ());
    ("fig4", "E6: Figure 4 automatic delete annotation (MiniC++)", fun () -> fig4 ());
    ("pools", "E7: Figures 10/11 thread pools vs thread-per-request", fun () -> pools ());
    ("hb", "extension (§5): queue-aware detection via HB annotations", fun () -> queue_annotations ());
    ("fneg", "E8: §4.3 schedule-dependent false negatives", fun () -> false_negatives ());
    ("explore", "extension: systematic schedule search for §4.3", fun () -> explore ());
    ("bugs", "E10: §4.1 injected real bugs ground truth", fun () -> bugs ());
    ("alloc", "E12: §4 allocator reuse false positives", fun () -> alloc ());
    ("segments", "ablation: thread segments on/off", fun () -> segments_ablation ());
    ("states", "ablation: Eraser state machine on/off", fun () -> eraser_states_ablation ());
    ("baselines", "§2.2: lock-set vs DJIT vs hybrid", fun () -> baselines ());
    ("perf", "E9: §4.5 performance / online vs offline", fun () -> perf ());
    ("deadlock", "E11: §3.3 deadlock detection", fun () -> deadlock ());
  ]
