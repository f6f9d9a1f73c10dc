(* Benchmark harness: detector throughput per (workload, config) as
   machine-readable JSON, the in-process gates of the bench suites, and
   a comparison against a committed baseline for CI.  The paper's
   tables and figures are regenerated by [bin/experiments.exe run all];
   end-to-end timing is perfbench's.

     dune exec bench/main.exe -- --quick      # CI subset -> BENCH_detector.json
     dune exec bench/main.exe -- --quick --compare bench/baseline.json --max-regression 40
     dune exec bench/main.exe -- --help       # every flag

   Every count is deterministic in the seed and the compiler, for any
   [--domains]: events, reports and sig_digest come from an untimed
   audit run, minor words from one warm run.  Only [time] reads the
   clock: every suite times its legs through [measure], on one domain,
   and the scaling suite times each domain count once. *)

module R = Raceguard
module Det = Raceguard_detector
module Vm = Raceguard_vm
module Sip = Raceguard_sip
module Loc = Raceguard_util.Loc
module Obs = Raceguard_obs
module J = Raceguard_obs.Json
module Trace = Raceguard_trace

(* ------------------------------------------------------------------ *)
(* The one timing loop                                                 *)
(* ------------------------------------------------------------------ *)

(* Seconds per run of [f], over [reps] back-to-back runs. *)
let time reps f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    f ()
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

let median xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  (a.((n - 1) / 2) +. a.(n / 2)) /. 2.

type timing = {
  ns_per_run : float;  (** median over blocks *)
  ratio : float;  (** median over blocks of the reference leg's time / this leg's *)
  words_per_run : float;  (** minor words one warm run allocates *)
}

(* In each block a leg repeats to run for about this long (at least
   half of it), so a preemption or the clock's resolution stays small
   against one sample. *)
let min_block_s = 0.01

(* Time a suite's legs; the first is the reference.  Each leg runs once
   to warm up, then once counting minor words, which also sizes its
   repetitions per block.  A block runs every leg back to back, and the
   leg that starts it rotates, so drift and noisy neighbours hit all
   legs alike.  Ratios are taken within a block, which cancels what
   slowed that block; the medians drop outlying blocks. *)
let measure ~blocks legs =
  let legs = Array.of_list legs in
  let n = Array.length legs in
  let sized =
    Array.map
      (fun f ->
        f ();
        let w0 = Gc.minor_words () in
        let t = time 1 f in
        (Gc.minor_words () -. w0, max 1 (truncate (min_block_s /. Float.max t 1e-6))))
      legs
  in
  let samples = Array.make_matrix n blocks 0. in
  for b = 0 to blocks - 1 do
    for k = 0 to n - 1 do
      let i = (b + k) mod n in
      samples.(i).(b) <- time (snd sized.(i)) legs.(i)
    done
  done;
  Array.mapi
    (fun i s ->
      {
        ns_per_run = median s *. 1e9;
        ratio = median (Array.map2 ( /. ) samples.(0) s);
        words_per_run = fst sized.(i);
      })
    samples

(* ------------------------------------------------------------------ *)
(* Rows and audits                                                     *)
(* ------------------------------------------------------------------ *)

type row = {
  r_workload : string;
  r_config : string;
  r_events : int;  (** per run *)
  r_reports : int;  (** deduplicated race locations *)
  r_sig_digest : string;  (** MD5 over the sorted dedup signatures *)
  r_checked : int;  (** detector accesses checked during the audit run *)
  r_fast_hits : int;  (** of which answered by the fast path *)
  r_interned : int;  (** lock-set intern table size after the audit run *)
  r_timing : timing;
  r_normalized : float;  (** the leg's ratio if the baseline gates it, else 0 *)
}

let row ~workload ~config ~events ~reports ~digest =
  {
    r_workload = workload;
    r_config = config;
    r_events = events;
    r_reports = reports;
    r_sig_digest = digest;
    r_checked = 0;
    r_fast_hits = 0;
    r_interned = 0;
    r_timing = { ns_per_run = 0.; ratio = 0.; words_per_run = 0. };
    r_normalized = 0.;
  }

let events_per_sec r =
  if r.r_timing.ns_per_run <= 0. then 0.
  else float_of_int r.r_events /. r.r_timing.ns_per_run *. 1e9

let words_per_event r =
  if r.r_events = 0 then 0. else r.r_timing.words_per_run /. float_of_int r.r_events

let hit_rate r =
  if r.r_checked = 0 then 0. else float_of_int r.r_fast_hits /. float_of_int r.r_checked

(* One untimed run of [run], which attaches a fresh detector and returns
   its locations; every count of the row comes from it.  The metrics
   registry is domain-local, so the audit may run on any pool domain. *)
let audit ~workload ~config run =
  let before = Obs.Metrics.snapshot () in
  let locations = run () in
  let m = Obs.Metrics.diff ~before (Obs.Metrics.snapshot ()) in
  let counter name = Option.value ~default:0 (Obs.Metrics.find_counter m name) in
  (* fasttrack rows report epoch hits, every other row the lock-set
     shadow fast path *)
  let checked, hits =
    if config = "fasttrack" then ("fasttrack.accesses_checked", "fasttrack.epoch_hits")
    else ("helgrind.accesses_checked", "helgrind.fast_path_hits")
  in
  {
    (row ~workload ~config ~events:(counter "vm.events_emitted")
       ~reports:(List.length locations)
       ~digest:(Det.Offline.digest_signatures locations))
    with
    r_checked = counter ("detector." ^ checked);
    r_fast_hits = counter ("detector." ^ hits);
    r_interned = Option.value ~default:0 (Obs.Metrics.find_gauge m "detector.lockset.interned");
  }

(* Attach each leg's timing to its row; [gated] rows also carry the
   leg's ratio as [normalized], which the baseline comparison checks. *)
let with_timings ~gated rows timings =
  List.mapi
    (fun i r ->
      let t = timings.(i) in
      { r with r_timing = t; r_normalized = (if gated r then t.ratio else 0.) })
    rows

let fail fmt = Printf.ksprintf (fun msg -> print_endline msg; exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Throughput suite: every registry configuration × workload           *)
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

(* The throughput subjects: the no-tool row, then nine registry
   configurations (every one but the §5 annotation extension).  Each
   run builds its detector fresh from [Det.Offline.sink]. *)
let subjects =
  [ "no-tool"; "helgrind-original"; "helgrind-hwlc"; "helgrind-hwlc+dr"; "eraser-pure"; "djit";
    "fasttrack"; "hybrid"; "hybrid-epoch"; "racetrack" ]

let sink_of subject = if subject = "no-tool" then None else Some (Det.Offline.sink subject)
let tools_of = Option.fold ~none:[] ~some:(fun s -> [ s.Det.Offline.sk_tool ])
let locations_of = Option.fold ~none:[] ~some:(fun s -> Det.Report.locations s.Det.Offline.sk_collector)

let subject_config subject =
  match sink_of subject with
  | Some s -> s.Det.Offline.sk_config
  | None -> J.Obj [ ("detector", J.Str "none") ]

(* Audits fan out over the pool, one cell per subject × workload; each
   workload's subjects are then timed together, no-tool as reference. *)
let run_throughput ~quick ~blocks ~seed ~domains =
  let workloads = workloads ~quick in
  let cells =
    Array.of_list (List.concat_map (fun w -> List.map (fun s -> (w, s)) subjects) workloads)
  in
  let audited =
    Raceguard_par.Par.map_cells ~domains
      (fun (w, s) ->
        audit ~workload:w.w_name ~config:s (fun () ->
            let sink = sink_of s in
            w.w_run ~seed (tools_of sink);
            locations_of sink))
      cells
    |> Array.to_list
  in
  List.concat_map
    (fun w ->
      let legs = List.map (fun s () -> w.w_run ~seed (tools_of (sink_of s))) subjects in
      with_timings
        ~gated:(fun _ -> true)
        (List.filter (fun r -> r.r_workload = w.w_name) audited)
        (measure ~blocks legs))
    workloads

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
  let fts = List.filter (fun r -> r.r_config = "fasttrack" && is_sip r) rows in
  List.iter
    (fun r ->
      if hit_rate r < epoch_gate_threshold then
        fail "EPOCH FAST-PATH GATE FAILURE: %s hit rate %.4f < %.2f (%d/%d)" r.r_workload
          (hit_rate r) epoch_gate_threshold r.r_fast_hits r.r_checked)
    fts;
  if fts <> [] then
    Printf.printf
      "epoch fast-path gate OK: min hit rate %.4f across %d SIP row(s) (>= %.2f)\n%!"
      (List.fold_left (fun acc r -> min acc (hit_rate r)) 1. fts)
      (List.length fts) epoch_gate_threshold

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

(* Two rows (baseline vs hinted) plus a strict gate: byte-identical
   report digests AND a strictly higher fast-path hit rate, or exit 2.
   Neither row has a no-tool base, so the baseline gates neither's
   throughput. *)
let hints_rows ~blocks ~seed =
  let locs = hints_locs () in
  let variants = List.combine (List.map fst hints_configs) [ None; Some locs ] in
  let rows =
    List.map
      (fun (config, hints) ->
        audit ~workload:hints_workload_name ~config (fun () ->
            Det.Helgrind.locations (hints_run ~seed ~hints ())))
      variants
  in
  let base = List.nth rows 0 and hinted = List.nth rows 1 in
  if hinted.r_sig_digest <> base.r_sig_digest then
    fail "STATIC-HINTS FIDELITY FAILURE: report digest %s (hints) vs %s (baseline)"
      hinted.r_sig_digest base.r_sig_digest;
  if not (hit_rate hinted > hit_rate base) then
    fail "STATIC-HINTS GATE FAILURE: fast-path hit rate %.4f (hints) <= %.4f (baseline)"
      (hit_rate hinted) (hit_rate base);
  Printf.printf "static-hints gate OK: fast-path hit rate %.4f -> %.4f (%d hint site(s))\n%!"
    (hit_rate base) (hit_rate hinted) (List.length locs);
  let legs = List.map (fun (_, hints) () -> ignore (hints_run ~seed ~hints ())) variants in
  with_timings ~gated:(fun _ -> false) rows (measure ~blocks legs)

(* --- chaos-off overhead suite --------------------------------------- *)

(* The fault-injection plane must compile to a no-op when its plan is
   empty: wiring an off injector into the transport (and so the
   server's allocator) and the engine may not change the schedule (same
   events, same report digest) and may not cost more than 5% of
   throughput vs no injector at all.  Gated in-process, not via the
   baseline comparison. *)
let faults_workload_name = "sip-t2-chaos-off"

let faults_run ~seed ~injector () =
  let h = Det.Helgrind.create Det.Helgrind.hwlc_dr in
  let vm =
    Vm.Engine.create ~config:{ Vm.Engine.default_config with seed; faults = injector } ()
  in
  Vm.Engine.add_tool vm (Det.Helgrind.tool h);
  let transport = Sip.Transport.create ?faults:injector () in
  ignore
    (Vm.Engine.run vm (fun () ->
         ignore
           (Sip.Workload.run_test_case ~transport ~server_config:R.Runner.default.server
              Sip.Workload.t2 ())));
  h

let faults_configs =
  [
    ("sip-hwlc+dr-no-injector", Det.Helgrind.config_to_json Det.Helgrind.hwlc_dr);
    ("sip-hwlc+dr-injector-off", Det.Helgrind.config_to_json Det.Helgrind.hwlc_dr);
  ]

let faults_rows ~blocks ~seed =
  let off_injector () =
    Some (Raceguard_faults.Injector.create ~seed ~plan:Raceguard_faults.Plan.none)
  in
  let variants = List.combine (List.map fst faults_configs) [ (fun () -> None); off_injector ] in
  let rows =
    List.map
      (fun (config, injector) ->
        audit ~workload:faults_workload_name ~config (fun () ->
            Det.Helgrind.locations (faults_run ~seed ~injector:(injector ()) ())))
      variants
  in
  let absent = List.nth rows 0 and off = List.nth rows 1 in
  if off.r_sig_digest <> absent.r_sig_digest || off.r_events <> absent.r_events then
    fail
      "CHAOS-OFF FIDELITY FAILURE: off injector perturbed the run (%d/%s events/digest vs \
       %d/%s)"
      off.r_events off.r_sig_digest absent.r_events absent.r_sig_digest;
  (* a 5 % gate, not the baseline's 40 %: four times the blocks keep a
     burst of host noise from moving the median ratio that far *)
  let timings =
    measure ~blocks:(4 * blocks)
      (List.map (fun (_, injector) () -> ignore (faults_run ~seed ~injector:(injector ()) ())) variants)
  in
  let ratio = timings.(1).ratio in
  if ratio < 0.95 then
    fail
      "CHAOS-OFF OVERHEAD GATE FAILURE: normalized throughput %.3f < 0.95 of the \
       injector-free build"
      ratio;
  Printf.printf "chaos-off overhead gate OK: normalized throughput %.3f (>= 0.95)\n%!" ratio;
  with_timings ~gated:(fun _ -> false) rows timings

(* --- record/replay trace suite -------------------------------------- *)

(* Three rows: the detection-off run; the record pass, one run of T2
   with the recorder encoding each event, then sealing the trace (what
   producing a trace costs); and the §4.5 payoff, events/sec when every
   registry configuration replays from the recorded bytes, VM-free.
   The recorder's cost is gated where a gate can fail: the record row's
   counts and digest must match the baseline exactly and its minor
   words/event may rise at most 5 %; its time relative to the
   detection-off run is printed, not gated.  Two audits run first and
   exit 2 on failure: HWLC+DR riding along with the recorder must give
   the verdict it gives on a plain run, and a plain recording must give
   the ride-along recording's bytes and event count. *)

let trace_workload_name = "sip-t2-trace"

let trace_configs =
  [
    ("sip-plain-detection-off", J.Str "no tools attached");
    ("trace-capture-encode", J.Str "one run with the recorder encoding each event + seal");
    ("trace-replay-registry", J.Str "all registry configurations, offline");
  ]

let trace_rows ~blocks ~seed =
  (* audit 1: the recorder is a pure observer — HWLC+DR riding along
     with it must conclude what it concludes on a plain run *)
  let detector = "helgrind-hwlc+dr" in
  let ride = R.Trace_ops.record_test ~seed ~live:[ detector ] Sip.Workload.t2 in
  let events = Det.Offline.length ride.rec_recorder in
  let live = List.hd ride.rec_live in
  let t2 = sip_workload Sip.Workload.t2 in
  let plain =
    let s = Det.Offline.sink ~digest:true detector in
    t2.w_run ~seed [ s.sk_tool ];
    Det.Offline.verdict_of_sink ~events s
  in
  if not (Det.Offline.verdict_equal live plain) then
    fail "RECORDER FIDELITY FAILURE: recorder perturbed the run (%d/%s vs %d/%s)"
      live.v_locations live.v_report_digest plain.v_locations plain.v_report_digest;
  (* audit 2: recording is deterministic — a plain recording of the
     same (workload, seed) gives the ride-along recording's bytes and
     event count *)
  let record () = (R.Trace_ops.record_test ~seed Sip.Workload.t2).rec_recorder in
  let first = record () in
  let bytes = Det.Offline.contents first in
  let ride_bytes = Det.Offline.contents ride.rec_recorder in
  if (not (String.equal bytes ride_bytes)) || Det.Offline.length first <> events then
    fail
      "RECORDING DETERMINISM FAILURE: trace diverges (%d bytes vs %d, %d events vs %d)"
      (String.length bytes) (String.length ride_bytes) (Det.Offline.length first) events;
  let trace =
    match Trace.Reader.of_string bytes with
    | Ok t -> t
    | Error (`Msg m) -> fail "TRACE DECODE FAILURE: %s" m
  in
  let timings =
    measure ~blocks
      [
        (fun () -> t2.w_run ~seed []);
        (fun () -> ignore (Det.Offline.contents (record ())));
        (fun () -> ignore (R.Trace_ops.replay_parallel trace));
      ]
  in
  (* the replay row counts the events fed across all configs — the
     offline plane's aggregate analysis rate *)
  let rows =
    with_timings
      ~gated:(fun _ -> false)
      (List.map2
         (fun (config, _) (events, reports, digest) ->
           row ~workload:trace_workload_name ~config ~events ~reports ~digest)
         trace_configs
         [
           (events, 0, "-");
           (events, live.v_locations, live.v_sig_digest);
           (events * List.length Det.Offline.configs, 0, "-");
         ])
      timings
  in
  Printf.printf
    "trace suite: %d events, %.2f bytes/event; record+seal %.3f of detection-off throughput \
     (not gated), %.0f events/sec; replay %.0f events/sec across %d configs\n%!"
    events
    (float_of_int (String.length bytes) /. float_of_int events)
    timings.(1).ratio
    (events_per_sec (List.nth rows 1))
    (events_per_sec (List.nth rows 2))
    (List.length Det.Offline.configs);
  rows

(* --- automated-repair pipeline -------------------------------------- *)

(* The full raceguard-fix pipeline over an embedded racy program:
   parse -> static lockset pass -> dynamic detection across the
   verification seeds -> cross-check -> patch synthesis -> four-stage
   verification -> emitted-source recheck.  Gated in-process: the
   pipeline must produce >= 1 verified patch whose emitted source
   rechecks, or we exit 2.  The row's events are the verification
   seeds, and its normalized value is the plain (no-tool, single-seed)
   MiniC++ run's time over the pipeline's — a machine-independent cost
   factor gated against the baseline. *)

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

let fix_rows ~blocks =
  let module Fix = Raceguard_fix in
  let module M = Raceguard_minicc in
  let run_fix () =
    match Fix.Engine.run ~file:"bench_fix.mcc" ~src:fix_source () with
    | Ok t -> t
    | Error e -> fail "FIX PIPELINE FAILURE: %s" e
  in
  let run_plain () =
    let interp, _, _ = M.Interp.compile ~annotate:true ~file:"bench_fix.mcc" fix_source in
    let vm = Vm.Engine.create ~config:{ Vm.Engine.default_config with seed = 1 } () in
    ignore (Vm.Engine.run vm (fun () -> M.Interp.run_main interp))
  in
  let result = run_fix () in
  let verified =
    List.filter (fun p -> p.Fix.Engine.pr_verified) result.Fix.Engine.t_patches
  in
  if verified = [] || not result.Fix.Engine.t_recheck_ok then
    fail "FIX PIPELINE GATE FAILURE: %d verified patch(es), emitted-source recheck %s"
      (List.length verified)
      (if result.Fix.Engine.t_recheck_ok then "ok" else "FAILED");
  let digest =
    List.map
      (fun p ->
        p.Fix.Engine.pr_plan.Fix.Synth.pl_strategy ^ "|" ^ p.Fix.Engine.pr_plan.Fix.Synth.pl_guard_desc)
      verified
    |> Det.Offline.digest_lines
  in
  (* one long, allocation-heavy pipeline run against many short plain
     runs makes each block's ratio noisy: four times the blocks *)
  let timings = measure ~blocks:(4 * blocks) [ run_plain; (fun () -> ignore (run_fix ())) ] in
  let t = timings.(1) in
  Printf.printf
    "fix pipeline gate OK: %d verified patch(es) in %.1f ms (plain run %.2f ms, cost \
     factor %.0fx)\n%!"
    (List.length verified) (t.ns_per_run /. 1e6)
    (timings.(0).ns_per_run /. 1e6)
    (1. /. t.ratio);
  [
    {
      (row ~workload:"minicc-racy-counter" ~config:"fix-pipeline"
         ~events:(List.length result.Fix.Engine.t_seeds)
         ~reports:(List.length result.Fix.Engine.t_confirmed)
         ~digest)
      with
      r_timing = t;
      r_normalized = t.ratio;
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
                      (Sip.Registrar.register r
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
      fail "REGISTRAR STORM FAILURE: thread %s raised %s" name (Printexc.to_string e));
  if outcome.Vm.Engine.deadlock <> None then fail "REGISTRAR STORM FAILURE: deadlock";
  Option.get !reg

(* row name -> throughput subject *)
let storm_variants = [ ("storm-no-tool", "no-tool"); ("storm-hwlc+dr", "helgrind-hwlc+dr") ]
let storm_configs = List.map (fun (name, s) -> (name, subject_config s)) storm_variants

let storm_rows ~quick ~blocks ~seed =
  let users, max_shards = storm_params ~quick in
  let rows =
    List.map
      (fun (config, s) ->
        audit ~workload:storm_workload_name ~config (fun () ->
            let sink = sink_of s in
            let before = Obs.Metrics.snapshot () in
            let r = storm_run ~quick ~seed (tools_of sink) in
            (* the registrar counts its resizes and migrations only in
               the registry: read them from this run's delta *)
            let moved = Obs.Metrics.diff ~before (Obs.Metrics.snapshot ()) in
            let count name = Option.value ~default:0 (Obs.Metrics.find_counter moved name) in
            let problems = Sip.Registrar.audit r in
            (* bound_aors, not size: the latter takes the shard locks and
               needs VM context, the former reads the host mirrors *)
            let bound = List.length (Sip.Registrar.bound_aors r) in
            if problems <> [] || bound <> users || Sip.Registrar.shard_count r <> max_shards then
              fail "REGISTRAR STORM GATE FAILURE (%s): bound %d/%d, %d/%d shards, audit [%s]"
                config bound users (Sip.Registrar.shard_count r) max_shards
                (String.concat ", " problems);
            Printf.printf
              "registrar storm gate OK (%s): %d users over %d shards, %d resize(s), %d \
               migration(s), audit clean\n%!"
              config users (Sip.Registrar.shard_count r) (count "sip.registrar.shard.resizes")
              (count "sip.registrar.shard.migrations");
            locations_of sink))
      storm_variants
  in
  let legs =
    List.map (fun (_, s) () -> ignore (storm_run ~quick ~seed (tools_of (sink_of s)))) storm_variants
  in
  with_timings ~gated:(fun r -> r.r_config <> "storm-no-tool") rows (measure ~blocks legs)

(* --- domain-scaling suite ------------------------------------------- *)

(* The quick chaos grid run whole, once per domain count: the domain
   pool's headline number (cells/sec vs domains) plus the
   determinism pin that justifies it — the concatenated per-cell
   digests must be byte-identical on every leg, or we exit 2.  The
   quick grid bounds the suite's runtime even in full mode; speedup is
   relative to the 1-domain leg and is only meaningful on runners with
   enough cores (CI checks it conditionally). *)

type scaling_row = {
  sc_domains : int;
  sc_cells : int;
  sc_seconds : float;
  sc_speedup : float;  (** vs the 1-domain leg of the same process *)
  sc_digest : string;  (** MD5 over the per-cell digests, in cell order *)
}

let scaling_domains = [ 1; 2; 4; 8 ]

let scaling_rows ~seed =
  let config = { R.Chaos.quick with R.Chaos.seed } in
  let grid = R.Chaos.grid config in
  let leg domains =
    let result = ref None in
    let seconds =
      time 1 (fun () ->
          result :=
            Some
              (Raceguard_par.Par.map_cells ~domains
                 (fun (plan, tc, resilient) -> R.Chaos.run_cell config ~plan ~resilient tc)
                 grid))
    in
    let cells = Option.get !result in
    let digest =
      Array.to_list cells
      |> List.map (fun (c : R.Chaos.cell) ->
             Printf.sprintf "%s|%s|%b|%s|%s" c.R.Chaos.cl_plan c.R.Chaos.cl_test
               c.R.Chaos.cl_resilient c.R.Chaos.cl_sig_digest c.R.Chaos.cl_behavior_digest)
      |> String.concat "\n" |> Digest.string |> Digest.to_hex
    in
    {
      sc_domains = domains;
      sc_cells = Array.length cells;
      sc_seconds = seconds;
      sc_speedup = 1.;
      sc_digest = digest;
    }
  in
  let legs = List.map leg scaling_domains in
  let base = List.hd legs in
  List.iter
    (fun l ->
      if l.sc_digest <> base.sc_digest then
        fail "SCALING DETERMINISM FAILURE: %d-domain digest %s differs from 1-domain %s"
          l.sc_domains l.sc_digest base.sc_digest)
    legs;
  Printf.printf "scaling determinism OK: digest %s identical across domains %s\n%!"
    base.sc_digest
    (String.concat "/" (List.map string_of_int scaling_domains));
  List.map (fun l -> { l with sc_speedup = base.sc_seconds /. l.sc_seconds }) legs

(* --- JSON output --------------------------------------------------- *)

let schema = "raceguard-bench/3"

let row_json r =
  J.Obj
    [
      ("workload", J.Str r.r_workload);
      ("config", J.Str r.r_config);
      ("events", J.int r.r_events);
      ("reports", J.int r.r_reports);
      ("sig_digest", J.Str r.r_sig_digest);
      ("ns_per_run", J.Num r.r_timing.ns_per_run);
      ("events_per_sec", J.Num (events_per_sec r));
      ("minor_words_per_event", J.Num (words_per_event r));
      ("normalized", J.Num r.r_normalized);
      ( "metrics",
        J.Obj
          [
            ("accesses_checked", J.int r.r_checked);
            ("fast_path_hits", J.int r.r_fast_hits);
            ("fast_path_hit_rate", J.Num (hit_rate r));
            ("lockset_interned", J.int r.r_interned);
          ] );
    ]

let scaling_json l =
  J.Obj
    [
      ("domains", J.int l.sc_domains);
      ("cells", J.int l.sc_cells);
      ("seconds", J.Num l.sc_seconds);
      ("cells_per_sec", J.Num (float_of_int l.sc_cells /. l.sc_seconds));
      ("speedup", J.Num l.sc_speedup);
      ("digest", J.Str l.sc_digest);
    ]

(* One member per line, and inside a list or object one element per
   line, so a baseline diff shows whole rows. *)
let write_json out members =
  let str = J.to_string in
  let lines open_ close items =
    open_ ^ "\n    " ^ String.concat ",\n    " items ^ "\n  " ^ close
  in
  let value = function
    | J.List xs -> lines "[" "]" (List.map str xs)
    | J.Obj kvs -> lines "{" "}" (List.map (fun (k, v) -> str (J.Str k) ^ ": " ^ str v) kvs)
    | v -> str v
  in
  Out_channel.with_open_bin out (fun oc ->
      output_string oc "{\n  ";
      output_string oc
        (String.concat ",\n  " (List.map (fun (k, v) -> str (J.Str k) ^ ": " ^ value v) members));
      output_string oc "\n}\n")

let print_summary rows scaling =
  Printf.printf "%-19s %-28s %8s %12s %8s %9s %7s\n" "workload" "config" "events"
    "events/sec" "norm" "words/ev" "reports";
  List.iter
    (fun r ->
      Printf.printf "%-19s %-28s %8d %12.0f %8.3f %9.2f %7d\n" r.r_workload r.r_config
        r.r_events (events_per_sec r) r.r_normalized (words_per_event r) r.r_reports)
    rows;
  Printf.printf "%-10s %8s %10s %14s %8s\n" "scaling" "domains" "cells" "cells/sec" "speedup";
  List.iter
    (fun l ->
      Printf.printf "%-10s %8d %10d %14.2f %8.2f\n" "" l.sc_domains l.sc_cells
        (float_of_int l.sc_cells /. l.sc_seconds)
        l.sc_speedup)
    scaling

(* --- baseline comparison ------------------------------------------- *)

type base = {
  b_events : float;
  b_reports : float;
  b_digest : string;
  b_words : float;  (** minor words per event *)
  b_normalized : float;
}

(* The baseline is read before the suite runs, and it fails closed with
   the reason: a gate that read nothing from its baseline would pass
   every run.  It must be a raceguard-bench/3 document whose every row
   carries the gated fields, written with this run's seed and mode by
   this compiler, since minor-word counts are compiler-specific.  Rows
   are checked before the header's run context, so each fixture in
   bench/fixtures fails for its own reason under any compiler. *)
let load_baseline ~seed ~mode file =
  let get conv key j = Option.bind (J.member key j) conv in
  let reject reason = failwith (file ^ ": " ^ reason) in
  let doc =
    match J.parse (In_channel.with_open_bin file In_channel.input_all) with
    | Ok doc -> doc
    | Error e -> reject ("not JSON: " ^ e)
    | exception Sys_error e -> failwith e
  in
  if get J.to_string_opt "schema" doc <> Some schema then reject ("schema is not " ^ schema);
  let rows =
    match get J.to_list_opt "results" doc with
    | None | Some [] -> reject "no non-empty results list"
    | Some rows ->
        List.mapi
          (fun i row ->
            let need conv kind key =
              match get conv key row with
              | Some v -> v
              | None -> reject (Printf.sprintf "results[%d] has no %s %s" i kind key)
            in
            let str = need J.to_string_opt "string" and num = need J.to_float_opt "numeric" in
            let key = (str "workload", str "config") in
            ( key,
              {
                b_events = num "events";
                b_reports = num "reports";
                b_digest = str "sig_digest";
                b_words = num "minor_words_per_event";
                b_normalized = num "normalized";
              } ))
          rows
  in
  let shown = Option.fold ~none:"missing" ~some:J.to_string in
  List.iter
    (fun (key, want) ->
      let got = J.member key doc in
      if got <> Some want then
        reject (Printf.sprintf "%s is %s, this run's is %s" key (shown got) (J.to_string want)))
    [ ("seed", J.int seed); ("mode", J.Str mode) ];
  if get J.to_string_opt "ocaml_version" doc <> Some Sys.ocaml_version then
    reject
      (Printf.sprintf "ocaml_version is %s, not this compiler's"
         (shown (J.member "ocaml_version" doc)));
  rows

(* Counts must match exactly and minor words may rise at most 5 %: both
   are deterministic, so any change is the code's.  Normalized
   throughput is a wall-clock ratio and gets [threshold_pct] of slack;
   no-tool rows and rows the baseline does not gate (normalized 0) are
   exempt from that check. *)
let words_slack = 1.05

let compare_baseline ~threshold_pct ~file base rows =
  let tolerance = 1. -. (threshold_pct /. 100.) in
  let row_failures r =
    match List.assoc_opt (r.r_workload, r.r_config) base with
    | None -> [ "not in the baseline" ]
    | Some b ->
        let words = words_per_event r in
        let ratio = if b.b_normalized > 0. then r.r_normalized /. b.b_normalized else 1. in
        List.filter_map
          (fun (bad, msg) -> if bad then Some msg else None)
          [
            ( float_of_int r.r_events <> b.b_events,
              Printf.sprintf "events %d vs baseline %.0f" r.r_events b.b_events );
            ( float_of_int r.r_reports <> b.b_reports,
              Printf.sprintf "reports %d vs baseline %.0f" r.r_reports b.b_reports );
            ( r.r_sig_digest <> b.b_digest,
              Printf.sprintf "sig_digest %s vs baseline %s" r.r_sig_digest b.b_digest );
            ( words > b.b_words *. words_slack,
              Printf.sprintf "minor words/event %.2f vs baseline %.2f (%+.1f%%, limit +5%%)"
                words b.b_words
                ((words /. b.b_words -. 1.) *. 100.) );
            ( r.r_config <> "no-tool" && ratio < tolerance,
              Printf.sprintf "normalized %.3f vs baseline %.3f (%.0f%% of baseline)"
                r.r_normalized b.b_normalized (ratio *. 100.) );
          ]
  in
  let failures =
    (if List.length base <> List.length rows then
       [ Printf.sprintf "  baseline has %d rows, this run %d" (List.length base) (List.length rows) ]
     else [])
    @ List.concat_map
        (fun r ->
          List.map (Printf.sprintf "  %s/%s: %s" r.r_workload r.r_config) (row_failures r))
        rows
  in
  if failures = [] then
    Printf.printf "baseline comparison OK (counters exact, minor words +5%%, normalized %.0f%%, %s)\n"
      threshold_pct file
  else begin
    Printf.printf "BASELINE GATE FAILURE vs %s (normalized threshold %.0f%%):\n%s\n" file
      threshold_pct (String.concat "\n" failures);
    exit 2
  end

(* ------------------------------------------------------------------ *)

let () =
  let quick = ref false
  and seed = ref 7
  and domains = ref 1
  and out = ref "BENCH_detector.json"
  and baseline = ref None
  and threshold = ref 25. in
  Arg.parse
    (Arg.align
       [
         ("--quick", Arg.Set quick, " CI subset: fewer workloads and timing blocks");
         ("--seed", Arg.Set_int seed, "N VM scheduling seed (default 7)");
         ( "--domains",
           Arg.Set_int domains,
           "N worker domains for the audit pass (1 = sequential, 0 = auto)" );
         ("--out", Arg.Set_string out, "FILE output path (default BENCH_detector.json)");
         ( "--compare",
           Arg.String (fun f -> baseline := Some f),
           "FILE baseline to gate against; exit 2 on any failed check" );
         ( "--max-regression",
           Arg.Set_float threshold,
           "PCT normalized-throughput threshold in percent (default 25)" );
       ])
    (fun arg -> raise (Arg.Bad ("unknown argument " ^ arg)))
    "usage: main.exe [options]";
  let quick = !quick and seed = !seed in
  let mode = if quick then "quick" else "full" in
  let baseline =
    Option.map
      (fun file ->
        match load_baseline ~seed ~mode file with
        | rows -> (file, rows)
        | exception Failure reason ->
            Printf.printf "BASELINE UNREADABLE: %s\n" reason;
            exit 2)
      !baseline
  in
  let domains = Raceguard_par.Par.resolve !domains in
  let blocks = if quick then 7 else 15 in
  Printf.printf "bench: mode=%s seed=%d domains=%d\n%!" mode seed domains;
  let throughput = run_throughput ~quick ~blocks ~seed ~domains in
  epoch_gate throughput;
  let hints = hints_rows ~blocks ~seed in
  let faults = faults_rows ~blocks ~seed in
  let trace = trace_rows ~blocks ~seed in
  let fix = fix_rows ~blocks in
  let storm = storm_rows ~quick ~blocks ~seed in
  let rows = throughput @ hints @ faults @ trace @ fix @ storm in
  let scaling = scaling_rows ~seed in
  let configs =
    List.map (fun s -> (s, subject_config s)) subjects
    @ hints_configs @ faults_configs @ trace_configs @ storm_configs
  in
  write_json !out
    [
      ("schema", J.Str schema);
      ("ocaml_version", J.Str Sys.ocaml_version);
      ("seed", J.int seed);
      ("mode", J.Str mode);
      ("domains", J.int domains);
      ("scaling", J.List (List.map scaling_json scaling));
      ("configs", J.Obj configs);
      ("results", J.List (List.map row_json rows));
    ];
  print_summary rows scaling;
  Printf.printf "wrote %s\n" !out;
  Option.iter
    (fun (file, base) -> compare_baseline ~threshold_pct:!threshold ~file base rows)
    baseline
