(** Record / replay / diff / time-travel orchestration over
    [raceguard-trace/1] binary traces — the user-facing face of the
    offline plane ({!Raceguard_detector.Offline} + {!Raceguard_trace}).

    - {!record_test} runs a SIP test case once with the compact binary
      recorder attached (zero analysis unless live verification sinks
      are requested) and returns the sealed trace;
    - {!replay_parallel} drives any subset of the ten registry
      configurations over a decoded trace, optionally fanned across
      domains with the domain pool — detector instances are
      per-cell, so verdicts are identical for any domain count;
    - {!info_json} / {!diff_json} are the machine-readable views the
      CLI prints ([raceguard-trace-info/1], [raceguard-trace-diff/1]);
    - {!explain_from_trace} is time travel: replay a
      provenance-recording detector, then walk each warning's
      shadow-state transition history back to the exact trace entries
      (byte offsets included) and cut a window of the surrounding
      schedule.

    Because the recorder writes no timestamps and the VM is
    deterministic in (seed, workload), recording the same test case
    twice yields byte-identical trace files — pinned by test. *)

module Vm = Raceguard_vm
module Det = Raceguard_detector
module Sip = Raceguard_sip
module Obs = Raceguard_obs
module Trace = Raceguard_trace
module Json = Obs.Json
module Par = Raceguard_par.Par

(* --- record --------------------------------------------------------- *)

type recorded = {
  rec_recorder : Det.Offline.recorder;
  rec_outcome : Vm.Engine.outcome;
  rec_live : Det.Offline.verdict list;
      (** live verdicts of the verification sinks, if any were attached *)
}

(** Run [tc] once with the binary recorder attached.  [live] names
    registry configurations to run {e alongside} the recorder on the
    same VM run: tools are pure observers, so the recording is
    unperturbed and the returned live verdicts describe exactly the
    execution the trace captured — the ground truth replay must
    reproduce. *)
let record_test ?(seed = 7) ?snapshot_every ?(live = []) (tc : Sip.Workload.test_case) =
  let meta =
    [
      ("workload", tc.Sip.Workload.tc_name);
      ("seed", string_of_int seed);
      ("generator", "raceguard-experiments");
    ]
  in
  let recorder = Det.Offline.create_recorder ?snapshot_every ~meta () in
  let sinks = List.map Det.Offline.sink live in
  let vm = Vm.Engine.create ~config:{ Vm.Engine.default_config with seed } () in
  Vm.Engine.add_tool vm (Det.Offline.tool recorder);
  List.iter (fun s -> Vm.Engine.add_tool vm s.Det.Offline.sk_tool) sinks;
  let transport = Sip.Transport.create () in
  let outcome =
    Vm.Engine.run vm (fun () ->
        ignore
          (Sip.Workload.run_test_case ~transport ~server_config:Runner.default.Runner.server
             tc ()))
  in
  let events = Det.Offline.length recorder in
  {
    rec_recorder = recorder;
    rec_outcome = outcome;
    rec_live = List.map (Det.Offline.verdict_of_sink ~events) sinks;
  }

(* --- write-behind recording ----------------------------------------- *)

(** Write-behind record mode.  The VM is fully deterministic in
    (workload, seed), so the only thing a recording of the monitored
    run has to persist {e is} (workload, seed) — the classic
    deterministic record/replay result: log the nondeterministic
    inputs, nothing else, and here the RNG seed is the only input.  The
    monitored run therefore executes with {e zero} recording work
    attached (per-event capture would cost 1.5-3x on this VM, which
    retires ~5M events/sec — no observer that allocates or retains can
    stay inside a 10% budget), and the binary trace — the materialized
    event stream that lets detectors replay without re-executing — is
    produced afterwards by a capture re-execution at save time.
    {!materialize} runs that capture pass once and caches it; the bench
    gates the monitored run's overhead (~1.0 by construction) and
    reports the materialization cost as its own row, so nothing is
    hidden. *)
type deferred = {
  df_test : Sip.Workload.test_case;
  df_seed : int;
  df_snapshot_every : int option;
  df_outcome : Vm.Engine.outcome;  (** of the monitored run *)
  mutable df_forced : recorded option;
}

(** The monitored run: execute [tc] with recording enabled — which,
    write-behind, means executing it untouched and remembering the
    determinizing inputs. *)
let record_deferred ?(seed = 7) ?snapshot_every (tc : Sip.Workload.test_case) =
  let vm = Vm.Engine.create ~config:{ Vm.Engine.default_config with seed } () in
  let transport = Sip.Transport.create () in
  let outcome =
    Vm.Engine.run vm (fun () ->
        ignore
          (Sip.Workload.run_test_case ~transport ~server_config:Runner.default.Runner.server
             tc ()))
  in
  {
    df_test = tc;
    df_seed = seed;
    df_snapshot_every = snapshot_every;
    df_outcome = outcome;
    df_forced = None;
  }

(** The capture pass: re-execute deterministically with the recorder
    tool attached and seal the trace.  Cached — repeated saves reuse
    the first materialization. *)
let materialize d =
  match d.df_forced with
  | Some r -> r
  | None ->
      let r = record_test ~seed:d.df_seed ?snapshot_every:d.df_snapshot_every d.df_test in
      d.df_forced <- Some r;
      r

let test_case_of_string = Explain.test_case_of_string

(* --- replay --------------------------------------------------------- *)

(** Fan the named configurations over [trace] on the domain pool: one
    cell per configuration, each with a fresh detector instance.
    Sequential ([domains = 1]) and parallel runs produce identical
    verdicts — the replayed stream is immutable and the detectors
    share no state. *)
let replay_parallel ?(domains = 1) ?(configs = Det.Offline.configs) trace =
  let domains = Par.resolve domains in
  Par.map_cells ~domains (Det.Offline.replay_config trace) (Array.of_list configs)
  |> Array.to_list

(** Pair replayed verdicts with live ones by config name; [`Missing]
    marks a config present on one side only. *)
let compare_verdicts ~live replayed =
  List.map
    (fun (r : Det.Offline.verdict) ->
      match
        List.find_opt (fun (l : Det.Offline.verdict) -> l.v_config = r.v_config) live
      with
      | Some l -> (r.v_config, if Det.Offline.verdict_equal l r then `Match else `Mismatch (l, r))
      | None -> (r.v_config, `Missing))
    replayed

let replay_json ?(live = []) ~trace replayed =
  let comparison = if live = [] then [] else compare_verdicts ~live replayed in
  Json.Obj
    ([
       ("schema", Json.Str "raceguard-replay/1");
       ("trace_schema", Json.Str (Trace.Reader.schema trace));
       ("meta", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) (Trace.Reader.meta trace)));
       ("events", Json.int (Trace.Reader.length trace));
       ("verdicts", Json.List (List.map Det.Offline.verdict_to_json replayed));
     ]
    @
    if comparison = [] then []
    else
      [
        ( "live_comparison",
          Json.Obj
            (List.map
               (fun (name, v) ->
                 ( name,
                   Json.Str
                     (match v with
                     | `Match -> "match"
                     | `Mismatch _ -> "MISMATCH"
                     | `Missing -> "missing") ))
               comparison) );
        ( "all_match",
          Json.Bool (List.for_all (fun (_, v) -> v = `Match) comparison) );
      ])

(* --- info ----------------------------------------------------------- *)

let kind_histogram trace =
  let counts = Array.make Vm.Event.kind_count 0 in
  Array.iter
    (fun (e : Trace.Reader.entry) ->
      let k = Vm.Event.kind_id e.en_event in
      counts.(k) <- counts.(k) + 1)
    (Trace.Reader.entries trace);
  let name_of = Hashtbl.create 17 in
  Array.iter
    (fun (e : Trace.Reader.entry) ->
      Hashtbl.replace name_of (Vm.Event.kind_id e.en_event) (Vm.Event.kind_name e.en_event))
    (Trace.Reader.entries trace);
  List.filter_map
    (fun k ->
      if counts.(k) = 0 then None
      else Some (Option.value ~default:(string_of_int k) (Hashtbl.find_opt name_of k), counts.(k)))
    (List.init Vm.Event.kind_count Fun.id)

let thread_count trace =
  Array.fold_left
    (fun acc (e : Trace.Reader.entry) ->
      match e.en_event with Vm.Event.E_thread_start _ -> acc + 1 | _ -> acc)
    0 (Trace.Reader.entries trace)

let clock_span trace =
  let es = Trace.Reader.entries trace in
  if Array.length es = 0 then (0, 0)
  else (es.(0).Trace.Reader.en_clock, es.(Array.length es - 1).Trace.Reader.en_clock)

let info_json trace =
  let first_clock, last_clock = clock_span trace in
  let events = Trace.Reader.length trace in
  let bytes = Trace.Reader.byte_size trace in
  Json.Obj
    [
      ("schema", Json.Str "raceguard-trace-info/1");
      ("trace_schema", Json.Str (Trace.Reader.schema trace));
      ("version", Json.int (Trace.Reader.version trace));
      ("meta", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) (Trace.Reader.meta trace)));
      ("events", Json.int events);
      ("bytes", Json.int bytes);
      ( "bytes_per_event",
        Json.Num (if events = 0 then 0. else float_of_int bytes /. float_of_int events) );
      ("threads", Json.int (thread_count trace));
      ("clock_first", Json.int first_clock);
      ("clock_last", Json.int last_clock);
      ( "snapshots",
        Json.List
          (List.map
             (fun (s : Trace.Reader.snapshot_mark) ->
               Json.Obj
                 [
                   ("offset", Json.int s.sn_offset);
                   ("event_index", Json.int s.sn_index);
                   ("clock", Json.int s.sn_clock);
                 ])
             (Trace.Reader.snapshots trace)) );
      ( "kinds",
        Json.Obj (List.map (fun (name, n) -> (name, Json.int n)) (kind_histogram trace)) );
    ]

let pp_info ppf trace =
  let first_clock, last_clock = clock_span trace in
  Fmt.pf ppf "@[<v>schema:    %s (version %d)@," (Trace.Reader.schema trace)
    (Trace.Reader.version trace);
  List.iter (fun (k, v) -> Fmt.pf ppf "meta:      %s = %s@," k v) (Trace.Reader.meta trace);
  Fmt.pf ppf "events:    %d (%d bytes, %.2f bytes/event)@," (Trace.Reader.length trace)
    (Trace.Reader.byte_size trace)
    (if Trace.Reader.length trace = 0 then 0.
     else float_of_int (Trace.Reader.byte_size trace) /. float_of_int (Trace.Reader.length trace));
  Fmt.pf ppf "threads:   %d@,clock:     %d .. %d@,snapshots: %d@," (thread_count trace)
    first_clock last_clock
    (List.length (Trace.Reader.snapshots trace));
  List.iter (fun (name, n) -> Fmt.pf ppf "  %-16s %d@," name n) (kind_histogram trace);
  Fmt.pf ppf "@]"

(* --- diff ----------------------------------------------------------- *)

let entry_json (e : Trace.Reader.entry) =
  Json.Obj
    [
      ("index", Json.int e.en_index);
      ("offset", Json.int e.en_offset);
      ("clock", Json.int e.en_clock);
      ("thread", Json.Str e.en_thread);
      ("event", Json.Str (Fmt.str "%a" Vm.Event.pp e.en_event));
    ]

let diff_json a b =
  let base =
    [
      ("schema", Json.Str "raceguard-trace-diff/1");
      ("left_events", Json.int (Trace.Reader.length a));
      ("right_events", Json.int (Trace.Reader.length b));
    ]
  in
  match Trace.Diff.first_divergence a b with
  | None -> Json.Obj (base @ [ ("identical", Json.Bool true) ])
  | Some d ->
      Json.Obj
        (base
        @ [
            ("identical", Json.Bool false);
            ("divergence_index", Json.int d.Trace.Diff.d_index);
            ( "left",
              match d.Trace.Diff.d_left with Some e -> entry_json e | None -> Json.Null );
            ( "right",
              match d.Trace.Diff.d_right with Some e -> entry_json e | None -> Json.Null );
            ("context", Json.List (List.map entry_json d.Trace.Diff.d_context));
          ])

(* --- Chrome export from a saved trace ------------------------------- *)

(** Re-render a decoded trace as Chrome [trace_event] JSON through the
    existing {!Obs.Trace} exporter (no ring sampling: capacity covers
    every entry). *)
let chrome_json trace =
  let n = max 1 (Trace.Reader.length trace) in
  let ring = Obs.Trace.create ~capacity:n ~sample:1 () in
  Array.iter
    (fun (e : Trace.Reader.entry) ->
      Obs.Trace.emit ring ~ts:e.en_clock ~tid:(Vm.Event.tid e.en_event)
        ~name:(Vm.Event.kind_name e.en_event) ~cat:"vm"
        ~args:[ ("thread", Json.Str e.en_thread) ]
        ())
    (Trace.Reader.entries trace);
  Obs.Trace.to_json ring

(* --- time travel: warnings -> trace offsets ------------------------- *)

type moment = {
  mo_transition : Det.Report.transition;
  mo_entry : Trace.Reader.entry option;
      (** the trace entry the transition corresponds to ([None] if the
          history outlived the trace, e.g. a truncated recording) *)
  mo_slice : Trace.Reader.entry list;  (** schedule window around it *)
}

type travel = {
  tv_report : Det.Report.t;  (** provenance filled in *)
  tv_count : int;
  tv_moments : moment list;
}

type from_trace = {
  ft_meta : (string * string) list;
  ft_config : Det.Helgrind.config;
  ft_window : int;
  ft_travels : travel list;
}

(* first entry index with clock >= c (entries are clock-sorted) *)
let lower_bound entries c =
  let n = Array.length entries in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if entries.(mid).Trace.Reader.en_clock < c then lo := mid + 1 else hi := mid
  done;
  !lo

let locate entries ~addr (t : Det.Report.transition) =
  let n = Array.length entries in
  let matches (e : Trace.Reader.entry) =
    Vm.Event.tid e.en_event = t.Det.Report.t_tid
    &&
    match (e.en_event, t.Det.Report.t_access) with
    | Vm.Event.E_read { addr = a; _ }, "read" -> a = addr
    | Vm.Event.E_write { addr = a; _ }, "write" -> a = addr
    | Vm.Event.E_client { req = Vm.Eff.Destruct { addr = a; len }; _ }, "destruct" ->
        addr >= a && addr < a + len
    | _ -> false
  in
  let rec scan i =
    if i >= n || entries.(i).Trace.Reader.en_clock > t.Det.Report.t_clock then None
    else if matches entries.(i) then Some i
    else scan (i + 1)
  in
  scan (lower_bound entries t.Det.Report.t_clock)

let slice entries ~window i =
  let n = Array.length entries in
  let lo = max 0 (i - window) and hi = min (n - 1) (i + window) in
  Array.to_list (Array.sub entries lo (hi - lo + 1))

(** Replay a provenance-recording lock-set detector over the trace and
    resolve every warning's transition history to trace entries.  The
    analysis runs on the recorded stream only — time travel without
    re-executing the program. *)
let explain_from_trace ?(base = Det.Helgrind.hwlc_dr) ?(window = 4) trace =
  let config = { base with Det.Helgrind.provenance = true } in
  let h = Det.Helgrind.create config in
  Trace.Reader.replay trace [ Det.Helgrind.tool h ];
  let entries = Trace.Reader.entries trace in
  let travels =
    List.map
      (fun ((r : Det.Report.t), count) ->
        let moments =
          match r.Det.Report.provenance with
          | None -> []
          | Some p ->
              List.map
                (fun (t : Det.Report.transition) ->
                  match locate entries ~addr:r.Det.Report.addr t with
                  | Some i ->
                      {
                        mo_transition = t;
                        mo_entry = Some entries.(i);
                        mo_slice = slice entries ~window i;
                      }
                  | None -> { mo_transition = t; mo_entry = None; mo_slice = [] })
                p.Det.Report.p_history
        in
        { tv_report = r; tv_count = count; tv_moments = moments })
      (Det.Helgrind.locations h)
  in
  {
    ft_meta = Trace.Reader.meta trace;
    ft_config = config;
    ft_window = window;
    ft_travels = travels;
  }

let pp_moment ppf m =
  let t = m.mo_transition in
  Fmt.pf ppf "@[<v2>clk %d: thread %d %s, %s -> %s" t.Det.Report.t_clock t.Det.Report.t_tid
    t.Det.Report.t_access t.Det.Report.t_from t.Det.Report.t_to;
  (match m.mo_entry with
  | Some e ->
      Fmt.pf ppf "  (trace event #%d at byte offset %d)@," e.Trace.Reader.en_index
        e.Trace.Reader.en_offset;
      List.iter
        (fun (s : Trace.Reader.entry) ->
          Fmt.pf ppf "%s %a@,"
            (if s.Trace.Reader.en_index = e.Trace.Reader.en_index then ">" else " ")
            Trace.Diff.pp_entry s)
        m.mo_slice
  | None -> Fmt.pf ppf "  (not located in this trace)@,");
  Fmt.pf ppf "@]"

let pp_from_trace ppf ft =
  Fmt.pf ppf "Time travel: %d warning location(s) under %a (window %d)@\n"
    (List.length ft.ft_travels) Det.Helgrind.pp_config_name ft.ft_config ft.ft_window;
  List.iter (fun (k, v) -> Fmt.pf ppf "  trace meta: %s = %s@\n" k v) ft.ft_meta;
  List.iteri
    (fun i tv ->
      Fmt.pf ppf "@\n--- warning %d of %d (%d occurrence(s)) ---@\n" (i + 1)
        (List.length ft.ft_travels) tv.tv_count;
      Det.Report.pp ppf tv.tv_report;
      if tv.tv_moments = [] then Fmt.pf ppf "(no provenance history recorded)@\n"
      else
        List.iter (fun m -> Fmt.pf ppf "%a@\n" pp_moment m) tv.tv_moments)
    ft.ft_travels

let from_trace_json ft =
  Json.Obj
    [
      ("schema", Json.Str "raceguard-time-travel/1");
      ("meta", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) ft.ft_meta));
      ("config", Det.Helgrind.config_to_json ft.ft_config);
      ("window", Json.int ft.ft_window);
      ( "warnings",
        Json.List
          (List.map
             (fun tv ->
               Json.Obj
                 [
                   ("count", Json.int tv.tv_count);
                   ("report", Det.Report.to_json tv.tv_report);
                   ( "moments",
                     Json.List
                       (List.map
                          (fun m ->
                            Json.Obj
                              [
                                ("transition", Det.Report.transition_to_json m.mo_transition);
                                ( "entry",
                                  match m.mo_entry with
                                  | Some e -> entry_json e
                                  | None -> Json.Null );
                                ("slice", Json.List (List.map entry_json m.mo_slice));
                              ])
                          tv.tv_moments) );
                 ])
             ft.ft_travels) );
    ]
