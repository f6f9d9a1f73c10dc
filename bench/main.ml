(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (the same rows/series the paper reports), times the
   detector configurations with Bechamel, and measures detector
   throughput (events/sec) as machine-readable JSON for CI.

     dune exec bench/main.exe                  # tables + timings
     dune exec bench/main.exe -- tables        # only the tables/figures
     dune exec bench/main.exe -- timings       # only the Bechamel timings
     dune exec bench/main.exe -- --json        # throughput suite -> BENCH_detector.json
     dune exec bench/main.exe -- --json --quick
     dune exec bench/main.exe -- --json --compare bench/baseline.json

   Throughput flags:
     --json               run the throughput suite and write JSON
     --quick              CI smoke subset (fewer workloads, shorter quota)
     --seed N             VM scheduling seed (default 7; echoed into the JSON)
     --domains N          worker domains for the audit pass and the
                          sequential leg of the scaling suite
                          (1 = sequential, 0 = auto); digests are
                          identical for any value.  The Bechamel timed
                          pass always runs sequentially — parallel
                          timing would corrupt the measurements.
     --out FILE           output path (default BENCH_detector.json)
     --compare FILE       compare against a committed baseline JSON;
                          exit 2 on >threshold normalized-throughput regression
     --max-regression PCT regression threshold in percent (default 25)

   Table/figure index (see DESIGN.md §4):
     Figure 6  -> "fig6"      Figure 5    -> "fig5"
     Figure 4  -> "fig4"      Figures 8/9 -> "fig8"
     Figures 10/11 -> "pools" §4.3 -> "fneg"   §4.1 -> "bugs"
     §4 alloc  -> "alloc"     §4.5 -> "perf"   §3.3 -> "deadlock"
     ablations -> "segments", "states", "baselines" *)

open Bechamel
open Toolkit

module R = Raceguard
module Det = Raceguard_detector
module Vm = Raceguard_vm
module Sip = Raceguard_sip
module Loc = Raceguard_util.Loc
module Obs = Raceguard_obs

let seed = 7

(* ------------------------------------------------------------------ *)
(* Bechamel test subjects: one per table/figure workload               *)
(* ------------------------------------------------------------------ *)

let run_t2 helgrind_configs ~djit () =
  let cfg = { R.Runner.default with seed; helgrind_configs; run_djit = djit } in
  ignore (R.Runner.run_test_case cfg Sip.Workload.t2)

let run_scenario helgrind_configs scenario () =
  let cfg = { R.Runner.default with seed; helgrind_configs } in
  ignore (R.Runner.run_main cfg scenario)

let offline_replay () =
  (* record once per run, replay through the detector post mortem *)
  let recorder = Det.Offline.create_recorder () in
  let vm = Vm.Engine.create ~config:{ Vm.Engine.default_config with seed } () in
  Vm.Engine.add_tool vm (Det.Offline.tool recorder);
  let transport = Sip.Transport.create () in
  let _ =
    Vm.Engine.run vm (fun () ->
        ignore
          (Sip.Workload.run_test_case ~transport ~server_config:R.Runner.default.server
             Sip.Workload.t3 ()))
  in
  let h = Det.Helgrind.create Det.Helgrind.hwlc_dr in
  Det.Offline.replay recorder (Det.Helgrind.tool h)

let minicc_pipeline () =
  let module M = Raceguard_minicc in
  let interp, _pretty, _n =
    M.Interp.compile ~annotate:true ~file:"g.mcc" R.Experiments.figure4_source
  in
  let h = Det.Helgrind.create Det.Helgrind.hwlc_dr in
  let vm = Vm.Engine.create ~config:{ Vm.Engine.default_config with seed } () in
  Vm.Engine.add_tool vm (Det.Helgrind.tool h);
  ignore (Vm.Engine.run vm (fun () -> M.Interp.run_main interp))

let cfgs name c = [ (name, c) ]

let tests =
  [
    (* Figure 6 / §4.5 series: T2 under each configuration *)
    Test.make ~name:"fig6/T2-no-tool" (Staged.stage (run_t2 [] ~djit:false));
    Test.make ~name:"fig6/T2-Original"
      (Staged.stage (run_t2 (cfgs "Original" Det.Helgrind.original) ~djit:false));
    Test.make ~name:"fig6/T2-HWLC"
      (Staged.stage (run_t2 (cfgs "HWLC" Det.Helgrind.hwlc) ~djit:false));
    Test.make ~name:"fig6/T2-HWLC+DR"
      (Staged.stage (run_t2 (cfgs "HWLC+DR" Det.Helgrind.hwlc_dr) ~djit:false));
    (* baselines: DJIT on the same workload *)
    Test.make ~name:"baselines/T2-DJIT" (Staged.stage (run_t2 [] ~djit:true));
    (* ablation: pure Eraser (no state machine) *)
    Test.make ~name:"states/T2-pure-eraser"
      (Staged.stage (run_t2 (cfgs "pure" Det.Helgrind.pure_eraser) ~djit:false));
    (* Figures 8/9: the string test *)
    Test.make ~name:"fig8/stringtest-original"
      (Staged.stage
         (run_scenario (cfgs "Original" Det.Helgrind.original) R.Scenarios.stringtest));
    Test.make ~name:"fig8/stringtest-hwlc"
      (Staged.stage (run_scenario (cfgs "HWLC" Det.Helgrind.hwlc) R.Scenarios.stringtest));
    (* Figures 10/11: handoff patterns *)
    Test.make ~name:"pools/handoff-per-request"
      (Staged.stage
         (run_scenario (cfgs "HWLC+DR" Det.Helgrind.hwlc_dr) R.Scenarios.handoff_per_request));
    Test.make ~name:"pools/handoff-queue"
      (Staged.stage
         (run_scenario (cfgs "HWLC+DR" Det.Helgrind.hwlc_dr) R.Scenarios.handoff_pool));
    (* §4.5 offline mode: record + post-mortem replay *)
    Test.make ~name:"perf/offline-record-replay-T3" (Staged.stage offline_replay);
    (* Figure 4: the full MiniC++ instrumentation pipeline *)
    Test.make ~name:"fig4/minicc-pipeline" (Staged.stage minicc_pipeline);
  ]

let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]

let run_timings () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"raceguard" tests) in
  let analyzed = Analyze.all ols Instance.monotonic_clock raw in
  print_endline "Bechamel timings (monotonic clock, OLS estimate per run):";
  print_endline "";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> est
        | Some [] | None -> nan
      in
      rows := (name, ns) :: !rows)
    analyzed;
  let rows = List.sort compare !rows in
  let width = List.fold_left (fun w (n, _) -> max w (String.length n)) 0 rows in
  List.iter
    (fun (name, ns) -> Printf.printf "  %-*s  %12.3f ms/run\n" width name (ns /. 1e6))
    rows

let run_tables () =
  List.iter
    (fun (id, descr, f) ->
      Printf.printf "==== %s — %s ====\n%!" id descr;
      print_endline (f ());
      print_newline ())
    R.Experiments.all

(* ------------------------------------------------------------------ *)
(* Throughput suite: events/sec per detector config × workload, JSON   *)
(* ------------------------------------------------------------------ *)

type workload = {
  w_name : string;
  w_run : seed:int -> Vm.Tool.t list -> unit;
      (** one full run of the workload with the given tools attached;
          everything downstream of [seed] is deterministic *)
}

let scenario_workload name f =
  {
    w_name = name;
    w_run =
      (fun ~seed tools ->
        let vm = Vm.Engine.create ~config:{ Vm.Engine.default_config with seed } () in
        List.iter (Vm.Engine.add_tool vm) tools;
        ignore (Vm.Engine.run vm f));
  }

let sip_workload tc =
  {
    w_name = String.lowercase_ascii tc.Sip.Workload.tc_name;
    w_run =
      (fun ~seed tools ->
        let vm = Vm.Engine.create ~config:{ Vm.Engine.default_config with seed } () in
        List.iter (Vm.Engine.add_tool vm) tools;
        let transport = Sip.Transport.create () in
        ignore
          (Vm.Engine.run vm (fun () ->
               ignore
                 (Sip.Workload.run_test_case ~transport
                    ~server_config:R.Runner.default.server tc ()))));
  }

let workloads ~quick =
  let micro =
    if quick then
      [
        scenario_workload "micro-contention" (fun () ->
            R.Scenarios.high_contention ~iters:120 ());
        scenario_workload "micro-readshared" (fun () -> R.Scenarios.read_shared ~iters:200 ());
        scenario_workload "micro-readchurn" (fun () ->
            R.Scenarios.read_shared_churn ~rounds:3 ~iters:60 ());
      ]
    else
      [
        scenario_workload "micro-contention" (fun () -> R.Scenarios.high_contention ());
        scenario_workload "micro-readshared" (fun () -> R.Scenarios.read_shared ());
        scenario_workload "micro-readchurn" (fun () -> R.Scenarios.read_shared_churn ());
      ]
  in
  let sip =
    if quick then [ Sip.Workload.t2; Sip.Workload.t3 ] else Sip.Workload.all_test_cases
  in
  List.map sip_workload sip @ micro

(* one detector "subject": fresh per timed run; the audit accessors
   read back report counts and dedup locations for fidelity checks *)
type subject = {
  s_name : string;
  s_config : Obs.Json.t;  (** full detector configuration, echoed into the JSON header *)
  s_make : unit -> Vm.Tool.t list * (unit -> int) * (unit -> (Det.Report.t * int) list);
}

let mk_helgrind cfg () =
  let h = Det.Helgrind.create cfg in
  ( [ Det.Helgrind.tool h ],
    (fun () -> Det.Helgrind.location_count h),
    fun () -> Det.Helgrind.locations h )

let other_config detector = Obs.Json.Obj [ ("detector", Obs.Json.Str detector) ]

let subjects =
  [
    {
      s_name = "no-tool";
      s_config = other_config "none";
      s_make = (fun () -> ([], (fun () -> 0), fun () -> []));
    };
    {
      s_name = "helgrind-original";
      s_config = Det.Helgrind.config_to_json Det.Helgrind.original;
      s_make = mk_helgrind Det.Helgrind.original;
    };
    {
      s_name = "helgrind-hwlc";
      s_config = Det.Helgrind.config_to_json Det.Helgrind.hwlc;
      s_make = mk_helgrind Det.Helgrind.hwlc;
    };
    {
      s_name = "helgrind-hwlc+dr";
      s_config = Det.Helgrind.config_to_json Det.Helgrind.hwlc_dr;
      s_make = mk_helgrind Det.Helgrind.hwlc_dr;
    };
    {
      s_name = "eraser-pure";
      s_config = Det.Helgrind.config_to_json Det.Helgrind.pure_eraser;
      s_make = mk_helgrind Det.Helgrind.pure_eraser;
    };
    {
      s_name = "djit";
      s_config = other_config "djit";
      s_make =
        (fun () ->
          let d = Det.Djit.create () in
          ( [ Det.Djit.tool d ],
            (fun () -> Det.Djit.location_count d),
            fun () -> Det.Djit.locations d ));
    };
    {
      s_name = "fasttrack";
      s_config = Det.Fasttrack.config_to_json Det.Fasttrack.default_config;
      s_make =
        (fun () ->
          let f = Det.Fasttrack.create () in
          ( [ Det.Fasttrack.tool f ],
            (fun () -> Det.Fasttrack.location_count f),
            fun () -> Det.Fasttrack.locations f ));
    };
    {
      s_name = "hybrid";
      s_config = other_config "hybrid";
      s_make =
        (fun () ->
          let h = Det.Hybrid.create () in
          ( [ Det.Hybrid.tool h ],
            (fun () -> Det.Hybrid.location_count h),
            fun () -> Det.Hybrid.locations h ));
    };
    {
      s_name = "hybrid-epoch";
      s_config = other_config "hybrid-epoch";
      s_make =
        (fun () ->
          let h = Det.Hybrid.create ~config:Det.Hybrid.epoch_config () in
          ( [ Det.Hybrid.tool h ],
            (fun () -> Det.Hybrid.location_count h),
            fun () -> Det.Hybrid.locations h ));
    };
    {
      s_name = "racetrack";
      s_config = other_config "racetrack";
      s_make =
        (fun () ->
          let r = Det.Racetrack.create () in
          ( [ Det.Racetrack.tool r ],
            (fun () -> Det.Racetrack.location_count r),
            fun () -> Det.Racetrack.locations r ));
    };
  ]

type row = {
  r_workload : string;
  r_config : string;
  r_events : int;  (** VM events emitted by one run (seed-deterministic) *)
  r_reports : int;  (** deduplicated race locations *)
  r_sig_digest : string;  (** MD5 over the sorted dedup signatures *)
  r_ns_per_run : float;
  r_events_per_sec : float;
  r_minor_words_per_event : float;
  r_normalized : float;  (** events/sec relative to no-tool on this workload *)
  r_checked : int;  (** detector accesses checked during the audit run *)
  r_fast_hits : int;  (** of which answered by the shadow fast path *)
  r_interned : int;  (** lock-set intern table size after the audit run *)
  r_gc_words_per_event : float;  (** minor words allocated per event (audit run) *)
}

let composite w s = w.w_name ^ "::" ^ s.s_name

(* Analyze.all keys carry the grouped-test prefix; match on suffix. *)
let estimate tbl composite =
  Hashtbl.fold
    (fun name ols_result acc ->
      if name = composite || String.ends_with ~suffix:("/" ^ composite) name then
        match Analyze.OLS.estimates ols_result with Some (e :: _) -> Some e | _ -> acc
      else acc)
    tbl None

let count_events w ~seed =
  let n = ref 0 in
  w.w_run ~seed [ Vm.Tool.of_fn "count" (fun _ -> incr n) ];
  !n

let run_throughput ~quick ~seed ~domains =
  let workloads = workloads ~quick in
  let quota, limit = if quick then (0.15, 60) else (0.5, 200) in
  (* audit pass: one untimed run per subject×workload for event counts,
     report counts, dedup signatures and a metrics-registry delta.
     Each subject×workload pair is one cell on the work-stealing pool:
     detector state is per-instance and the metrics registry is
     domain-local, so report counts and digests are identical for any
     domain count.  (Registry-level gauges such as the lockset intern
     size reflect whatever else already ran on the executing domain —
     in sequential mode, all preceding cells — and are informational,
     not digest material.) *)
  let events_of =
    Raceguard_par.Par.map_cells ~domains
      (fun w -> count_events w ~seed)
      (Array.of_list workloads)
  in
  let audit_cells =
    Array.of_list (List.concat_map (fun w -> List.map (fun s -> (w, s)) subjects) workloads)
  in
  let audited =
    Raceguard_par.Par.map_cells ~domains
      (fun (w, s) ->
        let tools, n_reports, locations = s.s_make () in
        let before = Obs.Metrics.snapshot () in
        let gc0 = Gc.minor_words () in
        w.w_run ~seed tools;
        let gc_words = Gc.minor_words () -. gc0 in
        let m = Obs.Metrics.diff ~before (Obs.Metrics.snapshot ()) in
        (w.w_name, (s.s_name, (n_reports (), Det.Offline.digest_signatures (locations ()), m, gc_words))))
      audit_cells
  in
  let audits =
    List.mapi
      (fun i w ->
        let per_subject =
          Array.to_list audited
          |> List.filter_map (fun (wn, entry) ->
                 if wn = w.w_name then Some entry else None)
        in
        (w.w_name, (events_of.(i), per_subject)))
      workloads
  in
  (* timed pass: bechamel over every subject×workload *)
  let tests =
    List.concat_map
      (fun w ->
        List.map
          (fun s ->
            Test.make ~name:(composite w s)
              (Staged.stage (fun () ->
                   let tools, _, _ = s.s_make () in
                   w.w_run ~seed tools)))
          subjects)
      workloads
  in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) ~kde:None () in
  let raw =
    Benchmark.all cfg
      Instance.[ monotonic_clock; minor_allocated ]
      (Test.make_grouped ~name:"throughput" tests)
  in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  let allocs = Analyze.all ols Instance.minor_allocated raw in
  let rows =
    List.concat_map
      (fun w ->
        let events, per_subject = List.assoc w.w_name audits in
        List.map
          (fun s ->
            let key = composite w s in
            let ns = Option.value ~default:nan (estimate times key) in
            let words = Option.value ~default:nan (estimate allocs key) in
            let eps =
              if Float.is_nan ns || ns <= 0. then 0. else float_of_int events /. (ns /. 1e9)
            in
            let n_reports, digest, m, gc_words = List.assoc s.s_name per_subject in
            let counter name = Option.value ~default:0 (Obs.Metrics.find_counter m name) in
            let gauge name = Option.value ~default:0 (Obs.Metrics.find_gauge m name) in
            (* the fast-path columns read whichever detector family the
               subject runs: fasttrack rows report epoch hits, everything
               else the lock-set shadow fast path *)
            let checked, fast_hits =
              if s.s_name = "fasttrack" then
                ( counter "detector.fasttrack.accesses_checked",
                  counter "detector.fasttrack.epoch_hits" )
              else
                ( counter "detector.helgrind.accesses_checked",
                  counter "detector.helgrind.fast_path_hits" )
            in
            {
              r_workload = w.w_name;
              r_config = s.s_name;
              r_events = events;
              r_reports = n_reports;
              r_sig_digest = digest;
              r_ns_per_run = ns;
              r_events_per_sec = eps;
              r_minor_words_per_event =
                (if Float.is_nan words || events = 0 then 0.
                 else words /. float_of_int events);
              r_normalized = 0.;  (* filled below *)
              r_checked = checked;
              r_fast_hits = fast_hits;
              r_interned = gauge "detector.lockset.interned";
              r_gc_words_per_event =
                (if events = 0 then 0. else gc_words /. float_of_int events);
            })
          subjects)
      workloads
  in
  List.map
    (fun r ->
      let base =
        List.find_opt
          (fun b -> b.r_workload = r.r_workload && b.r_config = "no-tool")
          rows
      in
      let normalized =
        match base with
        | Some b when b.r_events_per_sec > 0. -> r.r_events_per_sec /. b.r_events_per_sec
        | _ -> 0.
      in
      { r with r_normalized = normalized })
    rows

(* --- epoch fast-path gate ------------------------------------------- *)

(* FastTrack's whole value proposition is that almost every access is
   decided in the packed-epoch representation.  Pin that property on
   the SIP rows — counter-based (deterministic in the seed), not
   timing-based, so it cannot flake on a loaded runner.  The threshold
   sits just below the observed minimum across T1–T8 (t3 at 0.9405 in
   both quick and full mode; every other workload is above 0.97). *)
let epoch_gate_threshold = 0.93

let epoch_gate rows =
  let is_sip r =
    String.length r.r_workload = 2
    && r.r_workload.[0] = 't'
    && match r.r_workload.[1] with '0' .. '9' -> true | _ -> false
  in
  let rate r =
    if r.r_checked = 0 then 0. else float_of_int r.r_fast_hits /. float_of_int r.r_checked
  in
  let fts = List.filter (fun r -> r.r_config = "fasttrack" && is_sip r) rows in
  List.iter
    (fun r ->
      if rate r < epoch_gate_threshold then begin
        Printf.printf "EPOCH FAST-PATH GATE FAILURE: %s hit rate %.4f < %.2f (%d/%d)\n"
          r.r_workload (rate r) epoch_gate_threshold r.r_fast_hits r.r_checked;
        exit 2
      end)
    fts;
  if fts <> [] then begin
    let lo = List.fold_left (fun acc r -> min acc (rate r)) 1. fts in
    Printf.printf
      "epoch fast-path gate OK: min hit rate %.4f across %d SIP row(s) (>= %.2f)\n%!" lo
      (List.length fts) epoch_gate_threshold
  end;
  (* informational: the representation win in wall-clock terms *)
  List.iter
    (fun f ->
      match
        List.find_opt (fun d -> d.r_config = "djit" && d.r_workload = f.r_workload) rows
      with
      | Some d when d.r_events_per_sec > 0. && f.r_events_per_sec > 0. ->
          Printf.printf "  fasttrack vs djit on %-18s %5.2fx (%.0f vs %.0f events/sec)\n"
            f.r_workload
            (f.r_events_per_sec /. d.r_events_per_sec)
            f.r_events_per_sec d.r_events_per_sec
      | _ -> ())
    (List.filter (fun r -> r.r_config = "fasttrack") rows)

(* --- static-hints suite --------------------------------------------- *)

(* A workload engineered so the static thread-locality hints matter:
   main keeps one long-lived buffer and re-touches every word between
   spawn/join pairs.  Each spawn/join advances main's thread segment,
   so without hints the first access per word per pass misses the
   Exclusive fast path (stale segment stamp); with the buffer pre-marked
   thread-local every access stays on the fast path.  The worker touches
   only locals — the program is race-free, so the report digest must be
   identical (and empty) in both rows. *)
let hints_source =
  {|
fn worker(k) {
  var i = 0;
  while (i < 40) { i = i + k; }
  return i;
}

fn main() {
  var buf = alloc(64);
  var pass = 0;
  while (pass < 6) {
    var i = 0;
    while (i < 64) {
      store(buf + i, load(buf + i) + pass);
      i = i + 1;
    }
    var t = spawn worker(1);
    join(t);
    pass = pass + 1;
  }
  free(buf);
  return 0;
}
|}

let hints_workload_name = "minicc-hints"

let hints_locs () =
  let module M = Raceguard_minicc in
  let ast =
    M.Preprocess.parse (M.Preprocess.with_builtins ()) ~file:"hints.mcc" hints_source
  in
  let r = M.Static_race.analyse ast in
  r.M.Static_race.hint_locs

let hints_run ~seed ~hints () =
  let module M = Raceguard_minicc in
  let interp, _, _ = M.Interp.compile ~annotate:true ~file:"hints.mcc" hints_source in
  let h = Det.Helgrind.create Det.Helgrind.hwlc_dr in
  (match hints with Some locs -> Det.Helgrind.set_static_hints h locs | None -> ());
  let vm = Vm.Engine.create ~config:{ Vm.Engine.default_config with seed } () in
  Vm.Engine.add_tool vm (Det.Helgrind.tool h);
  ignore (Vm.Engine.run vm (fun () -> M.Interp.run_main interp));
  h

let hints_configs =
  [
    ("minicc-hwlc+dr", Det.Helgrind.config_to_json Det.Helgrind.hwlc_dr);
    ("minicc-hwlc+dr+static-hints", Det.Helgrind.config_to_json Det.Helgrind.hwlc_dr);
  ]

(* Two extra rows (baseline vs hinted) plus a strict gate: byte-identical
   report digests AND a strictly higher fast-path hit rate, or exit 2. *)
let hints_rows ~quick ~seed =
  let locs = hints_locs () in
  let events =
    let module M = Raceguard_minicc in
    let interp, _, _ = M.Interp.compile ~annotate:true ~file:"hints.mcc" hints_source in
    let n = ref 0 in
    let vm = Vm.Engine.create ~config:{ Vm.Engine.default_config with seed } () in
    Vm.Engine.add_tool vm (Vm.Tool.of_fn "count" (fun _ -> incr n));
    ignore (Vm.Engine.run vm (fun () -> M.Interp.run_main interp));
    !n
  in
  let mk name hints =
    let h = hints_run ~seed ~hints () in
    let reports = Det.Helgrind.location_count h in
    let digest = Det.Offline.digest_signatures (Det.Helgrind.locations h) in
    let checked = Det.Helgrind.accesses_checked h in
    let hits = Det.Helgrind.fast_path_hits h in
    let reps = if quick then 3 else 10 in
    let t0 = Sys.time () in
    for _ = 1 to reps do
      ignore (hints_run ~seed ~hints ())
    done;
    let ns = (Sys.time () -. t0) /. float_of_int reps *. 1e9 in
    {
      r_workload = hints_workload_name;
      r_config = name;
      r_events = events;
      r_reports = reports;
      r_sig_digest = digest;
      r_ns_per_run = ns;
      r_events_per_sec = (if ns <= 0. then 0. else float_of_int events /. (ns /. 1e9));
      r_minor_words_per_event = 0.;
      r_normalized = 0.;
      (* no no-tool base: excluded from the perf-regression gate *)
      r_checked = checked;
      r_fast_hits = hits;
      r_interned = 0;
      r_gc_words_per_event = 0.;
    }
  in
  let base = mk "minicc-hwlc+dr" None in
  let hinted = mk "minicc-hwlc+dr+static-hints" (Some locs) in
  if hinted.r_sig_digest <> base.r_sig_digest then begin
    Printf.printf "STATIC-HINTS FIDELITY FAILURE: report digest %s (hints) vs %s (baseline)\n"
      hinted.r_sig_digest base.r_sig_digest;
    exit 2
  end;
  let rate r =
    if r.r_checked = 0 then 0. else float_of_int r.r_fast_hits /. float_of_int r.r_checked
  in
  if not (rate hinted > rate base) then begin
    Printf.printf "STATIC-HINTS GATE FAILURE: fast-path hit rate %.4f (hints) <= %.4f (baseline)\n"
      (rate hinted) (rate base);
    exit 2
  end;
  Printf.printf "static-hints gate OK: fast-path hit rate %.4f -> %.4f (%d hint site(s))\n%!"
    (rate base) (rate hinted) (List.length locs);
  [ base; hinted ]

(* --- chaos-off overhead suite --------------------------------------- *)

(* The fault-injection plane must compile to a no-op when its plan is
   empty: wiring an off injector into the transport, the server and the
   engine may not change the schedule (same events, same report digest)
   and may not cost more than 5% of throughput vs no injector at all. *)
let faults_workload_name = "sip-t2-chaos-off"

let faults_run ~seed ~injector () =
  let h = Det.Helgrind.create Det.Helgrind.hwlc_dr in
  let vm =
    Vm.Engine.create ~config:{ Vm.Engine.default_config with seed; faults = injector } ()
  in
  Vm.Engine.add_tool vm (Det.Helgrind.tool h);
  let transport = Sip.Transport.create ?faults:injector () in
  let server = { R.Runner.default.server with Sip.Proxy.faults = injector } in
  ignore
    (Vm.Engine.run vm (fun () ->
         ignore
           (Sip.Workload.run_test_case ~transport ~server_config:server Sip.Workload.t2 ())));
  h

let faults_events ~seed ~injector =
  let vm =
    Vm.Engine.create ~config:{ Vm.Engine.default_config with seed; faults = injector } ()
  in
  let n = ref 0 in
  Vm.Engine.add_tool vm (Vm.Tool.of_fn "count" (fun _ -> incr n));
  let transport = Sip.Transport.create ?faults:injector () in
  let server = { R.Runner.default.server with Sip.Proxy.faults = injector } in
  ignore
    (Vm.Engine.run vm (fun () ->
         ignore
           (Sip.Workload.run_test_case ~transport ~server_config:server Sip.Workload.t2 ())));
  !n

let faults_configs =
  [
    ("sip-hwlc+dr-no-injector", Det.Helgrind.config_to_json Det.Helgrind.hwlc_dr);
    ("sip-hwlc+dr-injector-off", Det.Helgrind.config_to_json Det.Helgrind.hwlc_dr);
  ]

let faults_rows ~quick ~seed =
  let off_injector () =
    Some (Raceguard_faults.Injector.create ~seed ~plan:Raceguard_faults.Plan.none)
  in
  let variants = [ ("sip-hwlc+dr-no-injector", fun () -> None);
                   ("sip-hwlc+dr-injector-off", off_injector) ] in
  let audited =
    List.map
      (fun (name, inj) ->
        let h = faults_run ~seed ~injector:(inj ()) () in
        let events = faults_events ~seed ~injector:(inj ()) in
        (name, inj, events, Det.Helgrind.location_count h,
         Det.Offline.digest_signatures (Det.Helgrind.locations h)))
      variants
  in
  (* interleave the timed repetitions so clock drift hits both equally *)
  let reps = if quick then 4 else 12 in
  let spent = Hashtbl.create 4 in
  List.iter (fun (name, _, _, _, _) -> Hashtbl.replace spent name 0.) audited;
  List.iter (fun (_, inj, _, _, _) -> ignore (faults_run ~seed ~injector:(inj ()) ()))
    audited (* warm-up *);
  for _ = 1 to reps do
    List.iter
      (fun (name, inj, _, _, _) ->
        let injector = inj () in
        let t0 = Sys.time () in
        ignore (faults_run ~seed ~injector ());
        Hashtbl.replace spent name (Hashtbl.find spent name +. (Sys.time () -. t0)))
      audited
  done;
  let rows =
    List.map
      (fun (name, _, events, reports, digest) ->
        let ns = Hashtbl.find spent name /. float_of_int reps *. 1e9 in
        {
          r_workload = faults_workload_name;
          r_config = name;
          r_events = events;
          r_reports = reports;
          r_sig_digest = digest;
          r_ns_per_run = ns;
          r_events_per_sec = (if ns <= 0. then 0. else float_of_int events /. (ns /. 1e9));
          r_minor_words_per_event = 0.;
          r_normalized = 0.;
          (* gated in-process below, not via the baseline comparison *)
          r_checked = 0;
          r_fast_hits = 0;
          r_interned = 0;
          r_gc_words_per_event = 0.;
        })
      audited
  in
  let find name = List.find (fun r -> r.r_config = name) rows in
  let absent = find "sip-hwlc+dr-no-injector" in
  let off = find "sip-hwlc+dr-injector-off" in
  if off.r_sig_digest <> absent.r_sig_digest || off.r_events <> absent.r_events then begin
    Printf.printf
      "CHAOS-OFF FIDELITY FAILURE: off injector perturbed the run (%d/%s events/digest vs \
       %d/%s)\n"
      off.r_events off.r_sig_digest absent.r_events absent.r_sig_digest;
    exit 2
  end;
  let ratio =
    if absent.r_events_per_sec <= 0. then 1.
    else off.r_events_per_sec /. absent.r_events_per_sec
  in
  if ratio < 0.95 then begin
    Printf.printf
      "CHAOS-OFF OVERHEAD GATE FAILURE: normalized throughput %.3f < 0.95 of the \
       injector-free build\n"
      ratio;
    exit 2
  end;
  Printf.printf "chaos-off overhead gate OK: normalized throughput %.3f (>= 0.95)\n%!" ratio;
  rows

(* --- record/replay trace suite -------------------------------------- *)

(* Record mode is write-behind: the VM is deterministic in (workload,
   seed), so the monitored run logs only those inputs and the binary
   trace is materialized by a capture re-execution at save time — no
   per-event observer can stay inside a 10% budget against a VM that
   retires ~5M events/sec, and determinism means none is needed.  Four
   rows: the detection-off baseline, the record-mode monitored run
   (gated >= 0.90 normalized — the paper's "don't perturb the server"
   budget), the capture+encode pass (the real trace-production cost,
   reported rather than hidden), and the §4.5 payoff: events/sec when
   every registry configuration replays from the recorded bytes,
   VM-free.  Two audits run first and exit 2 on failure: the ride-along
   recorder (used when a live-analysis run is already paying for
   capture) must not perturb the detector's digest, and the write-behind
   materialization must reproduce the ride-along capture byte for
   byte. *)

module Trace = Raceguard_trace

let trace_workload_name = "sip-t2-trace"

let plain_run ~seed () =
  let vm = Vm.Engine.create ~config:{ Vm.Engine.default_config with seed } () in
  let transport = Sip.Transport.create () in
  ignore
    (Vm.Engine.run vm (fun () ->
         ignore
           (Sip.Workload.run_test_case ~transport ~server_config:R.Runner.default.server
              Sip.Workload.t2 ())))

let trace_run ~seed ~record () =
  let h = Det.Helgrind.create Det.Helgrind.hwlc_dr in
  let recorder =
    if record then
      Some
        (Det.Offline.create_recorder
           ~meta:[ ("workload", "T2"); ("seed", string_of_int seed) ]
           ())
    else None
  in
  let vm = Vm.Engine.create ~config:{ Vm.Engine.default_config with seed } () in
  Vm.Engine.add_tool vm (Det.Helgrind.tool h);
  (match recorder with Some r -> Vm.Engine.add_tool vm (Det.Offline.tool r) | None -> ());
  let transport = Sip.Transport.create () in
  ignore
    (Vm.Engine.run vm (fun () ->
         ignore
           (Sip.Workload.run_test_case ~transport ~server_config:R.Runner.default.server
              Sip.Workload.t2 ())));
  (h, recorder)

let trace_configs =
  [
    ("sip-plain-detection-off", Obs.Json.Str "no tools attached");
    ( "sip-record-write-behind",
      Obs.Json.Str "record mode: log (workload, seed), write-behind capture" );
    ("trace-capture-encode", Obs.Json.Str "deterministic capture re-execution + binary encode");
    ("trace-replay-registry", Obs.Json.Str "all registry configurations, offline");
  ]

let trace_rows ~quick ~seed =
  (* audit 1: the ride-along recorder is a pure observer — attaching it
     next to the detector must not move the report digest *)
  let audit record =
    let h, r = trace_run ~seed ~record () in
    (Det.Helgrind.location_count h, Det.Offline.digest_signatures (Det.Helgrind.locations h), r)
  in
  let base_reports, base_digest, _ = audit false in
  let rec_reports, rec_digest, recorder = audit true in
  let recorder = Option.get recorder in
  let events = Det.Offline.length recorder in
  if rec_digest <> base_digest || rec_reports <> base_reports then begin
    Printf.printf
      "RECORDER FIDELITY FAILURE: recorder perturbed the run (%d/%s vs %d/%s)\n" rec_reports
      rec_digest base_reports base_digest;
    exit 2
  end;
  (* audit 2: write-behind is sound only if the capture re-execution is
     deterministic — materializing the same (workload, seed) twice must
     produce byte-identical traces, with the same event count the
     ride-along recorder saw *)
  let deferred = R.Trace_ops.record_deferred ~seed Sip.Workload.t2 in
  let materialized = R.Trace_ops.materialize deferred in
  let mat_bytes = Det.Offline.contents materialized.R.Trace_ops.rec_recorder in
  let again =
    Det.Offline.contents (R.Trace_ops.record_test ~seed Sip.Workload.t2).R.Trace_ops.rec_recorder
  in
  if
    (not (String.equal mat_bytes again))
    || Det.Offline.length materialized.R.Trace_ops.rec_recorder <> events
  then begin
    Printf.printf
      "WRITE-BEHIND FIDELITY FAILURE: materialized trace diverges (%d bytes vs %d, %d \
       events vs %d)\n"
      (String.length mat_bytes) (String.length again)
      (Det.Offline.length materialized.R.Trace_ops.rec_recorder)
      events;
    exit 2
  end;
  (* interleave the timed repetitions so clock drift hits all legs
     equally: plain run | record-mode run | capture+encode pass *)
  let reps = if quick then 4 else 12 in
  let spent_plain = ref 0. and spent_record = ref 0. and spent_encode = ref 0. in
  plain_run ~seed ();
  ignore (R.Trace_ops.record_deferred ~seed Sip.Workload.t2) (* warm-up *);
  for _ = 1 to reps do
    let t0 = Sys.time () in
    plain_run ~seed ();
    spent_plain := !spent_plain +. (Sys.time () -. t0);
    let t1 = Sys.time () in
    ignore (R.Trace_ops.record_deferred ~seed Sip.Workload.t2);
    spent_record := !spent_record +. (Sys.time () -. t1);
    let t2 = Sys.time () in
    ignore
      (Det.Offline.contents
         (R.Trace_ops.record_test ~seed Sip.Workload.t2).R.Trace_ops.rec_recorder);
    spent_encode := !spent_encode +. (Sys.time () -. t2)
  done;
  let trace =
    match Trace.Reader.of_string mat_bytes with
    | Ok t -> t
    | Error (`Msg m) ->
        Printf.printf "TRACE DECODE FAILURE: %s\n" m;
        exit 2
  in
  ignore (Det.Offline.replay_all trace) (* warm-up *);
  let t0 = Sys.time () in
  let verdicts = Det.Offline.replay_all trace in
  let replay_s = Sys.time () -. t0 in
  let n_configs = List.length verdicts in
  let row name reports digest ns =
    {
      r_workload = trace_workload_name;
      r_config = name;
      r_events = events;
      r_reports = reports;
      r_sig_digest = digest;
      r_ns_per_run = ns;
      r_events_per_sec = (if ns <= 0. then 0. else float_of_int events /. (ns /. 1e9));
      r_minor_words_per_event = 0.;
      r_normalized = 0.;
      (* gated in-process below, not via the baseline comparison *)
      r_checked = 0;
      r_fast_hits = 0;
      r_interned = 0;
      r_gc_words_per_event = 0.;
    }
  in
  let plain =
    row "sip-plain-detection-off" 0 "-" (!spent_plain /. float_of_int reps *. 1e9)
  in
  let record =
    row "sip-record-write-behind" 0 "-" (!spent_record /. float_of_int reps *. 1e9)
  in
  let encode =
    row "trace-capture-encode" rec_reports rec_digest
      (!spent_encode /. float_of_int reps *. 1e9)
  in
  (* the replay row's events/sec counts events fed across all configs —
     the offline plane's aggregate analysis rate *)
  let replay =
    let total = events * n_configs in
    let r = row "trace-replay-registry" 0 "-" (replay_s *. 1e9) in
    {
      r with
      r_events = total;
      r_events_per_sec = (if replay_s <= 0. then 0. else float_of_int total /. replay_s);
    }
  in
  let ratio =
    if plain.r_events_per_sec <= 0. then 1.
    else record.r_events_per_sec /. plain.r_events_per_sec
  in
  if ratio < 0.90 then begin
    Printf.printf
      "RECORD OVERHEAD GATE FAILURE: record-mode normalized throughput %.3f < 0.90 of \
       the detection-off run\n"
      ratio;
    exit 2
  end;
  Printf.printf
    "record overhead gate OK: normalized throughput %.3f (>= 0.90 vs detection-off), %d \
     events, %.2f bytes/event, capture+encode %.0f events/sec, replay %.0f events/sec \
     across %d configs\n%!"
    ratio events
    (float_of_int (String.length mat_bytes) /. float_of_int events)
    encode.r_events_per_sec replay.r_events_per_sec n_configs;
  [ plain; record; encode; replay ]

(* --- automated-repair pipeline -------------------------------------- *)

(* The full raceguard-fix pipeline over an embedded racy program:
   parse -> static lockset pass -> dynamic detection across the
   verification seeds -> cross-check -> patch synthesis -> four-stage
   verification -> emitted-source recheck.  Gated in-process: the
   pipeline must produce >= 1 verified patch whose emitted source
   rechecks, or we exit 2.  The row's normalized value is the plain
   (no-tool, single-seed) run's wall time over the pipeline's — a
   machine-independent cost factor gated against the baseline. *)

let fix_source =
  {|
class Counter {
  var value;
}

fn locked_worker(c, m, n) {
  var i = 0;
  while (i < n) {
    lock (m) {
      c.value = c.value + 1;
    }
    i = i + 1;
  }
  return 0;
}

fn unlocked_worker(c, n) {
  var i = 0;
  while (i < n) {
    c.value = c.value + 1;
    i = i + 1;
  }
  return 0;
}

fn main() {
  var m = mutex("bench_guard");
  var c = new Counter();
  c.value = 0;
  var t1 = spawn locked_worker(c, m, 8);
  var t2 = spawn unlocked_worker(c, 8);
  join(t1);
  join(t2);
  print(c.value);
  delete c;
  return 0;
}
|}

let fix_rows ~quick ~seed:_ =
  let module Fix = Raceguard_fix in
  let module M = Raceguard_minicc in
  let reps = if quick then 2 else 4 in
  let run_fix () =
    match Fix.Engine.run ~file:"bench_fix.mcc" ~src:fix_source () with
    | Ok t -> t
    | Error e ->
        Printf.printf "FIX PIPELINE FAILURE: %s\n" e;
        exit 2
  in
  let run_plain () =
    let interp, _, _ = M.Interp.compile ~annotate:true ~file:"bench_fix.mcc" fix_source in
    let vm = Vm.Engine.create ~config:{ Vm.Engine.default_config with seed = 1 } () in
    ignore (Vm.Engine.run vm (fun () -> M.Interp.run_main interp));
    interp
  in
  let best reps f =
    let t = ref infinity and last = ref None in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !t then t := dt;
      last := Some r
    done;
    (Option.get !last, !t)
  in
  let result, t_fix = best reps run_fix in
  (* the plain leg is ~microseconds; many reps keep the min stable so
     the normalized ratio doesn't flap the baseline gate *)
  let _, t_plain = best (reps * 25) (fun () -> ignore (run_plain ())) in
  let verified =
    List.filter (fun p -> p.Fix.Engine.pr_verified) result.Fix.Engine.t_patches
  in
  if verified = [] || not result.Fix.Engine.t_recheck_ok then begin
    Printf.printf
      "FIX PIPELINE GATE FAILURE: %d verified patch(es), emitted-source recheck %s\n"
      (List.length verified)
      (if result.Fix.Engine.t_recheck_ok then "ok" else "FAILED");
    exit 2
  end;
  let digest =
    List.map
      (fun p ->
        p.Fix.Engine.pr_plan.Fix.Synth.pl_strategy ^ "|" ^ p.Fix.Engine.pr_plan.Fix.Synth.pl_guard_desc)
      verified
    |> List.sort compare |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  Printf.printf
    "fix pipeline gate OK: %d verified patch(es) in %.1f ms (plain run %.2f ms, cost \
     factor %.0fx)\n%!"
    (List.length verified) (t_fix *. 1e3) (t_plain *. 1e3)
    (if t_plain > 0. then t_fix /. t_plain else 0.);
  [
    {
      r_workload = "minicc-racy-counter";
      r_config = "fix-pipeline";
      r_events = List.length result.Fix.Engine.t_seeds;
      r_reports = List.length result.Fix.Engine.t_confirmed;
      r_sig_digest = digest;
      r_ns_per_run = t_fix *. 1e9;
      r_events_per_sec = (if t_fix <= 0. then 0. else 1. /. t_fix);
      r_minor_words_per_event = 0.;
      r_normalized = (if t_fix <= 0. then 0. else t_plain /. t_fix);
      r_checked = 0;
      r_fast_hits = 0;
      r_interned = 0;
      r_gc_words_per_event = 0.;
    };
  ]

(* --- sharded-registrar storm suite ----------------------------------- *)

(* The sharded registrar driven directly, VM-scheduled: 8 writer threads
   register a user population onto a Resilient striped table sized to
   double repeatedly under the load (initial 8 shards, grow_at 8), with
   a lookup tail mixing cross-shard reads into the storm.  Gated
   in-process: the post-run audit must be clean, every registration must
   have survived the resizes, and the table must have reached its shard
   ceiling — or exit 2.  Two rows: no-tool (normalized 0, exempt from
   the baseline gate) and HWLC+DR, whose normalized throughput the
   baseline comparison covers like any detector row. *)

let storm_workload_name = "registrar-storm"
let storm_loc = Loc.v "bench_storm.ml" "storm" 1

let storm_params ~quick = if quick then (2_000, 64) else (20_000, 256)

let storm_run ~quick ~seed tools =
  let users, max_shards = storm_params ~quick in
  let vm = Vm.Engine.create ~config:{ Vm.Engine.default_config with seed } () in
  List.iter (Vm.Engine.add_tool vm) tools;
  let reg = ref None in
  let outcome =
    Vm.Engine.run vm (fun () ->
        let alloc = Raceguard_cxxsim.Allocator.create Raceguard_cxxsim.Allocator.Direct in
        let stats = Sip.Stats.create () in
        let r =
          Sip.Registrar.create
            ~sharding:
              (Sip.Registrar.Sharded
                 { flavor = Sip.Registrar.Resilient; initial = 8; grow_at = 8; max_shards })
            ~alloc ~stats ()
        in
        reg := Some r;
        let workers = 8 in
        let per = users / workers in
        let threads =
          List.init workers (fun w ->
              Vm.Api.spawn ~loc:storm_loc ~name:(Printf.sprintf "storm%d" w) (fun () ->
                  for i = w * per to ((w + 1) * per) - 1 do
                    ignore
                      (Sip.Registrar.register r ~annotate:true
                         ~aor:(Printf.sprintf "u%d@bench" i)
                         ~contact:(Printf.sprintf "sip:c%d" i)
                         ~cseq:1 ~expires:1_000_000)
                  done;
                  (* lookup tail: cross-shard reads racing later growers *)
                  for i = w * per to (w * per) + (per / 4) - 1 do
                    match Sip.Registrar.lookup r ~aor:(Printf.sprintf "u%d@bench" i) with
                    | Some c -> Sip.Registrar.Refstring.release c
                    | None -> ()
                  done))
        in
        List.iter (fun t -> Vm.Api.join ~loc:storm_loc t) threads;
        ignore (Sip.Registrar.rebalance r))
  in
  (match outcome.Vm.Engine.failures with
  | [] -> ()
  | (_, name, e) :: _ ->
      Printf.printf "REGISTRAR STORM FAILURE: thread %s raised %s\n" name
        (Printexc.to_string e);
      exit 2);
  if outcome.Vm.Engine.deadlock <> None then begin
    Printf.printf "REGISTRAR STORM FAILURE: deadlock\n";
    exit 2
  end;
  Option.get !reg

let storm_configs =
  [
    ("storm-no-tool", other_config "none");
    ("storm-hwlc+dr", Det.Helgrind.config_to_json Det.Helgrind.hwlc_dr);
  ]

let storm_rows ~quick ~seed =
  let users, max_shards = storm_params ~quick in
  let events =
    let n = ref 0 in
    ignore (storm_run ~quick ~seed [ Vm.Tool.of_fn "count" (fun _ -> incr n) ]);
    !n
  in
  let variants =
    [
      ("storm-no-tool", fun () -> ([], (fun () -> 0), fun () -> []));
      ("storm-hwlc+dr", mk_helgrind Det.Helgrind.hwlc_dr);
    ]
  in
  let audited =
    List.map
      (fun (name, make) ->
        let tools, n_reports, locations = make () in
        let before = Obs.Metrics.snapshot () in
        let gc0 = Gc.minor_words () in
        let r = storm_run ~quick ~seed tools in
        let gc_words = Gc.minor_words () -. gc0 in
        let m = Obs.Metrics.diff ~before (Obs.Metrics.snapshot ()) in
        let audit = Sip.Registrar.audit r in
        (* bound_aors, not size: the latter takes the shard locks and
           needs VM context, the former reads the host mirrors *)
        let bound = List.length (Sip.Registrar.bound_aors r) in
        if audit <> [] || bound <> users || Sip.Registrar.shard_count r <> max_shards
        then begin
          Printf.printf
            "REGISTRAR STORM GATE FAILURE (%s): bound %d/%d, %d/%d shards, audit [%s]\n" name
            bound users (Sip.Registrar.shard_count r) max_shards
            (String.concat ", " audit);
          exit 2
        end;
        Printf.printf
          "registrar storm gate OK (%s): %d users over %d shards, %d resize(s), %d \
           migration(s), audit clean\n%!"
          name users (Sip.Registrar.shard_count r) (Sip.Registrar.resizes r)
          (Sip.Registrar.migrations r);
        (name, make, n_reports (), Det.Offline.digest_signatures (locations ()), m, gc_words))
      variants
  in
  (* interleave the timed repetitions so clock drift hits both equally *)
  let reps = if quick then 3 else 6 in
  let spent = Hashtbl.create 4 in
  List.iter (fun (name, _, _, _, _, _) -> Hashtbl.replace spent name 0.) audited;
  List.iter
    (fun (_, make, _, _, _, _) ->
      let tools, _, _ = make () in
      ignore (storm_run ~quick ~seed tools))
    audited (* warm-up *);
  for _ = 1 to reps do
    List.iter
      (fun (name, make, _, _, _, _) ->
        let tools, _, _ = make () in
        let t0 = Sys.time () in
        ignore (storm_run ~quick ~seed tools);
        Hashtbl.replace spent name (Hashtbl.find spent name +. (Sys.time () -. t0)))
      audited
  done;
  let rows =
    List.map
      (fun (name, _, reports, digest, m, gc_words) ->
        let ns = Hashtbl.find spent name /. float_of_int reps *. 1e9 in
        let counter n = Option.value ~default:0 (Obs.Metrics.find_counter m n) in
        {
          r_workload = storm_workload_name;
          r_config = name;
          r_events = events;
          r_reports = reports;
          r_sig_digest = digest;
          r_ns_per_run = ns;
          r_events_per_sec = (if ns <= 0. then 0. else float_of_int events /. (ns /. 1e9));
          r_minor_words_per_event = 0.;
          r_normalized = 0.;
          (* filled below for the detector row *)
          r_checked = counter "detector.helgrind.accesses_checked";
          r_fast_hits = counter "detector.helgrind.fast_path_hits";
          r_interned = 0;
          r_gc_words_per_event =
            (if events = 0 then 0. else gc_words /. float_of_int events);
        })
      audited
  in
  let base = List.find (fun r -> r.r_config = "storm-no-tool") rows in
  List.map
    (fun r ->
      if r.r_config = "storm-no-tool" || base.r_events_per_sec <= 0. then r
      else { r with r_normalized = r.r_events_per_sec /. base.r_events_per_sec })
    rows

(* --- domain-scaling suite ------------------------------------------- *)

(* The quick chaos grid run whole, once per domain count: the
   work-stealing pool's headline number (cells/sec vs domains) plus the
   determinism pin that justifies it — the concatenated per-cell
   digests must be byte-identical on every leg, or we exit 2.  The
   quick grid bounds the suite's runtime even in full mode; speedup is
   relative to the 1-domain leg and is only meaningful on runners with
   enough cores (CI checks it conditionally). *)

type scaling_row = {
  sc_domains : int;
  sc_cells : int;
  sc_seconds : float;
  sc_cells_per_sec : float;
  sc_speedup : float;  (** vs the 1-domain leg of the same process *)
  sc_steals : int;
  sc_digest : string;  (** MD5 over the per-cell digests, in cell order *)
}

let scaling_domains = [ 1; 2; 4; 8 ]

let scaling_rows ~seed =
  let config = { R.Chaos.quick with R.Chaos.seed } in
  let grid = R.Chaos.grid config in
  let leg domains =
    let t0 = Unix.gettimeofday () in
    let cells, stats =
      Raceguard_par.Par.map_cells_stats ~domains
        (fun (plan, tc, resilient) -> R.Chaos.run_cell config ~plan ~resilient tc)
        grid
    in
    let seconds = Unix.gettimeofday () -. t0 in
    let digest =
      Digest.to_hex
        (Digest.string
           (String.concat "\n"
              (Array.to_list
                 (Array.map
                    (fun (c : R.Chaos.cell) ->
                      Printf.sprintf "%s|%s|%b|%s|%s" c.R.Chaos.cl_plan c.R.Chaos.cl_test
                        c.R.Chaos.cl_resilient c.R.Chaos.cl_sig_digest
                        c.R.Chaos.cl_behavior_digest)
                    cells))))
    in
    {
      sc_domains = domains;
      sc_cells = Array.length cells;
      sc_seconds = seconds;
      sc_cells_per_sec =
        (if seconds <= 0. then 0. else float_of_int (Array.length cells) /. seconds);
      sc_speedup = 1.;  (* filled below *)
      sc_steals = stats.Raceguard_par.Par.st_steals;
      sc_digest = digest;
    }
  in
  let legs = List.map leg scaling_domains in
  let base = List.hd legs in
  List.iter
    (fun l ->
      if l.sc_digest <> base.sc_digest then begin
        Printf.printf
          "SCALING DETERMINISM FAILURE: %d-domain digest %s differs from 1-domain %s\n"
          l.sc_domains l.sc_digest base.sc_digest;
        exit 2
      end)
    legs;
  let legs =
    List.map
      (fun l ->
        {
          l with
          sc_speedup = (if l.sc_seconds <= 0. then 0. else base.sc_seconds /. l.sc_seconds);
        })
      legs
  in
  Printf.printf "scaling determinism OK: digest %s identical across domains %s\n%!"
    base.sc_digest
    (String.concat "/" (List.map string_of_int scaling_domains));
  legs

(* --- JSON output --------------------------------------------------- *)

let fl x = if Float.is_nan x || Float.is_integer x then Printf.sprintf "%.1f" x else Printf.sprintf "%.6g" x

let row_json r =
  let hit_rate =
    if r.r_checked = 0 then 0. else float_of_int r.r_fast_hits /. float_of_int r.r_checked
  in
  Printf.sprintf
    "{\"workload\": \"%s\", \"config\": \"%s\", \"events\": %d, \"reports\": %d, \
     \"sig_digest\": \"%s\", \"ns_per_run\": %s, \"events_per_sec\": %s, \
     \"minor_words_per_event\": %s, \"normalized\": %s, \"metrics\": \
     {\"accesses_checked\": %d, \"fast_path_hits\": %d, \"fast_path_hit_rate\": %s, \
     \"lockset_interned\": %d, \"gc_minor_words_per_event\": %s}}"
    r.r_workload r.r_config r.r_events r.r_reports r.r_sig_digest (fl r.r_ns_per_run)
    (fl r.r_events_per_sec) (fl r.r_minor_words_per_event) (fl r.r_normalized) r.r_checked
    r.r_fast_hits (fl hit_rate) r.r_interned
    (fl r.r_gc_words_per_event)

let scaling_json l =
  Printf.sprintf
    "{\"domains\": %d, \"cells\": %d, \"seconds\": %s, \"cells_per_sec\": %s, \"speedup\": \
     %s, \"steals\": %d, \"digest\": \"%s\"}"
    l.sc_domains l.sc_cells (fl l.sc_seconds) (fl l.sc_cells_per_sec) (fl l.sc_speedup)
    l.sc_steals l.sc_digest

let write_json ~out ~quick ~seed ~domains ~scaling rows =
  let oc = open_out out in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema\": \"raceguard-bench/2\",\n";
  Printf.fprintf oc "  \"seed\": %d,\n" seed;
  Printf.fprintf oc "  \"mode\": \"%s\",\n" (if quick then "quick" else "full");
  Printf.fprintf oc "  \"domains\": %d,\n" domains;
  Printf.fprintf oc "  \"scaling\": [\n";
  let nsc = List.length scaling in
  List.iteri
    (fun i l ->
      Printf.fprintf oc "    %s%s\n" (scaling_json l) (if i = nsc - 1 then "" else ","))
    scaling;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"configs\": {\n";
  let configs =
    List.map (fun s -> (s.s_name, s.s_config)) subjects
    @ hints_configs @ faults_configs @ trace_configs @ storm_configs
  in
  let ns = List.length configs in
  List.iteri
    (fun i (name, cfg) ->
      Printf.fprintf oc "    \"%s\": %s%s\n" name (Obs.Json.to_string cfg)
        (if i = ns - 1 then "" else ","))
    configs;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"results\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i r -> Printf.fprintf oc "    %s%s\n" (row_json r) (if i = n - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let print_summary rows =
  Printf.printf "%-18s %-18s %10s %12s %8s %8s\n" "workload" "config" "events"
    "events/sec" "norm" "reports";
  List.iter
    (fun r ->
      Printf.printf "%-18s %-18s %10d %12.0f %8.3f %8d\n" r.r_workload r.r_config r.r_events
        r.r_events_per_sec r.r_normalized r.r_reports)
    rows

(* --- baseline comparison ------------------------------------------- *)

(* minimal field extraction from the one-object-per-line JSON we emit *)
let json_str_field line key =
  let pat = "\"" ^ key ^ "\": \"" in
  match String.index_opt line '{' with
  | None -> None
  | Some _ -> (
      let rec find i =
        if i + String.length pat > String.length line then None
        else if String.sub line i (String.length pat) = pat then Some (i + String.length pat)
        else find (i + 1)
      in
      match find 0 with
      | None -> None
      | Some start ->
          let stop = String.index_from line start '"' in
          Some (String.sub line start (stop - start)))

let json_num_field line key =
  let pat = "\"" ^ key ^ "\": " in
  let rec find i =
    if i + String.length pat > String.length line then None
    else if String.sub line i (String.length pat) = pat then Some (i + String.length pat)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let stop = ref start in
      while
        !stop < String.length line
        && (match line.[!stop] with
           | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' | 'n' | 'a' -> true
           | _ -> false)
      do
        incr stop
      done;
      float_of_string_opt (String.sub line start (!stop - start))

(* Tolerates both the one-row-per-line output [write_json] emits and a
   pretty-printed (one-field-per-line) baseline: fields are tracked as
   they stream past and a row is flushed when its "normalized" field
   arrives — [row_json] fixes the field order within a row, so the
   pending workload/config always belong to that row. *)
let load_baseline file =
  let ic = open_in file in
  let rows = ref [] in
  let cur_w = ref None and cur_c = ref None and cur_eps = ref 0. in
  (try
     while true do
       let line = input_line ic in
       (match json_str_field line "workload" with Some w -> cur_w := Some w | None -> ());
       (match json_str_field line "config" with Some c -> cur_c := Some c | None -> ());
       (match json_num_field line "events_per_sec" with
       | Some e -> cur_eps := e
       | None -> ());
       match json_num_field line "normalized" with
       | Some norm -> (
           match (!cur_w, !cur_c) with
           | Some w, Some c ->
               rows := ((w, c), (norm, !cur_eps)) :: !rows;
               cur_w := None;
               cur_c := None;
               cur_eps := 0.
           | _ -> ())
       | None -> ()
     done
   with End_of_file -> close_in ic);
  !rows

let compare_baseline ~threshold_pct ~baseline rows =
  let base = load_baseline baseline in
  let tolerance = 1. -. (threshold_pct /. 100.) in
  let regressions =
    List.filter_map
      (fun r ->
        if r.r_config = "no-tool" then None
        else
          match List.assoc_opt (r.r_workload, r.r_config) base with
          | None | Some (0., _) -> None
          | Some (b_norm, _) ->
              (* normalized throughput is machine-speed independent:
                 detector events/sec relative to the no-tool run of the
                 same binary on the same machine *)
              let ratio = r.r_normalized /. b_norm in
              if ratio < tolerance then Some (r, b_norm, ratio) else None)
      rows
  in
  (match regressions with
  | [] -> Printf.printf "baseline comparison OK (threshold %.0f%%, %s)\n" threshold_pct baseline
  | rs ->
      Printf.printf "PERF REGRESSION vs %s (threshold %.0f%%):\n" baseline threshold_pct;
      List.iter
        (fun (r, b_norm, ratio) ->
          Printf.printf "  %s/%s: normalized %.3f vs baseline %.3f (%.0f%% of baseline)\n"
            r.r_workload r.r_config r.r_normalized b_norm (ratio *. 100.))
        rs);
  regressions = []

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json_mode = ref false
  and quick = ref false
  and seed_ref = ref seed
  and domains = ref 1
  and out = ref "BENCH_detector.json"
  and baseline = ref None
  and threshold = ref 25.
  and positional = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
        json_mode := true;
        parse rest
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--seed" :: n :: rest ->
        seed_ref := int_of_string n;
        parse rest
    | "--domains" :: n :: rest ->
        domains := int_of_string n;
        parse rest
    | "--out" :: f :: rest ->
        out := f;
        parse rest
    | "--compare" :: f :: rest ->
        json_mode := true;
        baseline := Some f;
        parse rest
    | "--max-regression" :: p :: rest ->
        threshold := float_of_string p;
        parse rest
    | x :: rest ->
        positional := x :: !positional;
        parse rest
  in
  parse args;
  if !json_mode then begin
    let domains = Raceguard_par.Par.resolve !domains in
    Printf.printf "throughput suite: mode=%s seed=%d domains=%d\n%!"
      (if !quick then "quick" else "full")
      !seed_ref domains;
    let rows = run_throughput ~quick:!quick ~seed:!seed_ref ~domains in
    epoch_gate rows;
    let rows = rows @ hints_rows ~quick:!quick ~seed:!seed_ref in
    let rows = rows @ faults_rows ~quick:!quick ~seed:!seed_ref in
    let rows = rows @ trace_rows ~quick:!quick ~seed:!seed_ref in
    let rows = rows @ fix_rows ~quick:!quick ~seed:!seed_ref in
    let rows = rows @ storm_rows ~quick:!quick ~seed:!seed_ref in
    let scaling = scaling_rows ~seed:!seed_ref in
    write_json ~out:!out ~quick:!quick ~seed:!seed_ref ~domains ~scaling rows;
    print_summary rows;
    Printf.printf "%-10s %8s %10s %14s %8s %8s\n" "scaling" "domains" "cells"
      "cells/sec" "speedup" "steals";
    List.iter
      (fun l ->
        Printf.printf "%-10s %8d %10d %14.2f %8.2f %8d\n" "" l.sc_domains l.sc_cells
          l.sc_cells_per_sec l.sc_speedup l.sc_steals)
      scaling;
    Printf.printf "wrote %s\n" !out;
    match !baseline with
    | Some b -> if not (compare_baseline ~threshold_pct:!threshold ~baseline:b rows) then exit 2
    | None -> ()
  end
  else begin
    let what = match !positional with [ x ] -> x | _ -> "all" in
    if what = "tables" || what = "all" then run_tables ();
    if what = "timings" || what = "all" then run_timings ()
  end
