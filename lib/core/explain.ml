(** Warning provenance: which config knob would suppress each warning.

    The paper's evaluation (Figures 5/6) classifies warnings {e in
    aggregate} by differencing whole configurations; this module does
    the same per warning.  The base configuration (with provenance
    recording on) and one variant per applicable knob — hwlc, dr,
    segments, hb — observe the {e same} VM event stream side by side
    (the runner already supports that), and a warning is "suppressed by
    knob K" iff its dedup signature is absent from the base+K variant's
    locations.  Because every variant sees the identical schedule, the
    attribution is exact, not statistical.

    The verdicts are written into each warning's
    [Report.provenance.p_suppressed_by] and rendered by {!pp} /
    {!to_json} — the [--explain] mode of the CLI. *)

module Det = Raceguard_detector
module Sip = Raceguard_sip
module Obs = Raceguard_obs
module Json = Obs.Json

type knob = {
  k_name : string;
  k_doc : string;
  k_applicable : Det.Helgrind.config -> bool;
      (** a knob already enabled in the base cannot be attributed *)
  k_apply : Det.Helgrind.config -> Det.Helgrind.config;
}

let knobs =
  [
    {
      k_name = "hwlc";
      k_doc = "corrected hardware bus-lock model (read-write bus lock)";
      k_applicable = (fun c -> c.Det.Helgrind.bus_model = Det.Helgrind.Locked_mutex);
      k_apply =
        (fun c -> { c with Det.Helgrind.bus_model = Det.Helgrind.Rw_lock; track_rwlocks = true });
    };
    {
      k_name = "dr";
      k_doc = "destructor annotations (VALGRIND_HG_DESTRUCT)";
      k_applicable = (fun c -> not c.Det.Helgrind.destructor_annotations);
      k_apply = (fun c -> { c with Det.Helgrind.destructor_annotations = true });
    };
    {
      k_name = "segments";
      k_doc = "thread-segment refinement (VisualThreads, Figure 2)";
      k_applicable = (fun c -> not c.Det.Helgrind.thread_segments);
      k_apply = (fun c -> { c with Det.Helgrind.thread_segments = true });
    };
    {
      k_name = "hb";
      k_doc = "happens-before annotations (the \xc2\xa75 extension)";
      k_applicable = (fun c -> not c.Det.Helgrind.hb_annotations);
      k_apply = (fun c -> { c with Det.Helgrind.hb_annotations = true });
    };
  ]

type explained = {
  e_report : Det.Report.t;  (** first occurrence; provenance filled in *)
  e_count : int;
  e_suppressed_by : string list;
}

type t = {
  x_test : string;
  x_base : Det.Helgrind.config;
  x_knobs : string list;  (** knobs that were attributable *)
  x_seed : int;
  x_warnings : explained list;
  x_result : Runner.result;
}

let test_case_of_string name =
  List.find_opt
    (fun (tc : Sip.Workload.test_case) -> String.lowercase_ascii tc.tc_name = String.lowercase_ascii name)
    Sip.Workload.all_test_cases

(** Run [tc] with the base configuration plus one variant per
    applicable knob, all on the same event stream, and attribute every
    base warning.  [base] defaults to the paper's Original
    configuration; provenance recording is forced on. *)
let run ?(runner = Runner.default) ?(base = Det.Helgrind.original) tc =
  let base = { base with Det.Helgrind.provenance = true } in
  let applicable = List.filter (fun k -> k.k_applicable base) knobs in
  let helgrind_configs =
    ("base", base) :: List.map (fun k -> (k.k_name, k.k_apply base)) applicable
  in
  let result = Runner.run_test_case { runner with helgrind_configs } tc in
  let variant_sigs =
    List.map
      (fun k ->
        (k.k_name, Classify.signature_set (Runner.locations_of result k.k_name)))
      applicable
  in
  let warnings =
    Runner.locations_of result "base"
    |> List.map (fun ((r : Det.Report.t), n) ->
           let sg = Det.Report.signature r in
           let suppressed =
             List.filter_map
               (fun (name, sigs) -> if Classify.Sig_set.mem sg sigs then None else Some name)
               variant_sigs
           in
           (match r.provenance with
           | Some p -> p.p_suppressed_by <- suppressed
           | None -> ());
           { e_report = r; e_count = n; e_suppressed_by = suppressed })
  in
  {
    x_test = tc.Sip.Workload.tc_name;
    x_base = base;
    x_knobs = List.map (fun k -> k.k_name) applicable;
    x_seed = runner.Runner.seed;
    x_warnings = warnings;
    x_result = result;
  }

(* --- rendering ----------------------------------------------------- *)

let pp ppf x =
  Fmt.pf ppf "Explaining %s under %a (seed %d)@\n" x.x_test Det.Helgrind.pp_config_name
    x.x_base x.x_seed;
  Fmt.pf ppf "Knobs tried: %s@\n" (String.concat ", " x.x_knobs);
  Fmt.pf ppf "%d distinct warning location(s)@\n" (List.length x.x_warnings);
  List.iteri
    (fun i e ->
      Fmt.pf ppf "@\n--- warning %d of %d (%d occurrence(s)) ---@\n" (i + 1)
        (List.length x.x_warnings) e.e_count;
      Det.Report.pp ppf e.e_report;
      (match e.e_report.Det.Report.provenance with
      | Some p -> Det.Report.pp_provenance ppf p
      | None -> ());
      if e.e_suppressed_by = [] then
        Fmt.pf ppf " No tried knob suppresses this warning (likely a real race or a pool FP)@\n")
    x.x_warnings

let to_json x =
  Json.Obj
    [
      ("schema", Json.Str "raceguard-explain/1");
      ("test", Json.Str x.x_test);
      ("seed", Json.int x.x_seed);
      ("base_config", Det.Helgrind.config_to_json x.x_base);
      ("knobs", Json.List (List.map (fun k -> Json.Str k) x.x_knobs));
      ( "warnings",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("count", Json.int e.e_count);
                   ("report", Det.Report.to_json e.e_report);
                   ("suppressed_by", Json.List (List.map (fun s -> Json.Str s) e.e_suppressed_by));
                 ])
             x.x_warnings) );
      ("metrics", Obs.Metrics.to_json x.x_result.Runner.metrics);
    ]
