(** Post-mortem (offline) analysis — §2.2 / §4.5.

    "Principally, on-the-fly checkers can work post mortem and hence
    reduce the performance impact due to the online calculations.  But
    they still need logging of the execution trace.  Hence, offline
    techniques suffer from their need for large amounts of data."

    A {!recorder} is the compact binary recorder of {!Raceguard_trace}:
    a VM tool that streams every event {e together with} the
    introspection data a detector would have queried live (call stack,
    heap block, clock) into a [raceguard-trace/1] byte stream —
    interned tables, varint encoding, CRC-guarded footer.  {!replay}
    then feeds any detector tool the decoded stream through the
    synthetic context of {!Raceguard_trace.Reader}.  The recorder's
    [footprint_words] makes the space cost measurable — the trade-off
    experiment of §4.5 — and is now the cost of the {e encoded} log,
    not of an in-memory object graph.

    The {!sink} registry is the one table of named detector
    configurations: the replay plane, the bench and the tests build
    named detectors through it (the runner, chaos and explain build
    Helgrind variants that are not registry entries themselves).
    {!replay_config} is the pure per-config cell the parallel fan-out
    in [lib/core] maps across domains. *)

module Vm = Raceguard_vm
module Json = Raceguard_obs.Json
module Trace = Raceguard_trace

(* --- recording ------------------------------------------------------ *)

type recorder = { writer : Trace.Writer.t }

let create_recorder ?snapshot_every ?meta () =
  { writer = Trace.Writer.create ?snapshot_every ?meta () }

let tool r = Trace.Writer.tool r.writer
let length r = Trace.Writer.event_count r.writer
let writer r = r.writer
let contents r = Trace.Writer.contents r.writer
let to_file r path = Trace.Writer.to_file r.writer path

(** Space cost of the encoded log, in words — the paper's "heavy memory
    usage" of offline analysis, made concrete (and, with the interned
    binary format, small). *)
let footprint_words r =
  (Trace.Writer.byte_size r.writer + (Sys.word_size / 8) - 1) / (Sys.word_size / 8)

let decode r =
  match Trace.Reader.of_string (contents r) with
  | Ok t -> t
  | Error (`Msg m) -> invalid_arg ("Offline.decode: " ^ m)

(** Feed the recorded trace through a tool, post mortem. *)
let replay r (tool : Vm.Tool.t) = Trace.Reader.replay (decode r) [ tool ]

(* --- the detector sink registry ------------------------------------- *)

(** One detector instance behind a uniform face: the replay plane can
    drive any of them and read back counts, dedup signatures and
    rendered occurrences without knowing which algorithm it is. *)
type sink = {
  sk_name : string;
  sk_config : Json.t;  (** full configuration, echoed into JSON outputs *)
  sk_tool : Vm.Tool.t;
  sk_occurrences : unit -> Report.t list;
  sk_locations : unit -> (Report.t * int) list;
}

let sink_of_helgrind name cfg =
  let h = Helgrind.create cfg in
  {
    sk_name = name;
    sk_config = Helgrind.config_to_json cfg;
    sk_tool = Helgrind.tool h;
    sk_occurrences = (fun () -> Helgrind.reports h);
    sk_locations = (fun () -> Helgrind.locations h);
  }

let other_config detector = Json.Obj [ ("detector", Json.Str detector) ]

(** The ten replayable configurations: the paper's Helgrind column
    (original → HWLC → HWLC+DR → HWLC+DR+HB), the pure-Eraser ablation
    and the surveyed baselines.  "djit" stays beside "fasttrack" (pinned
    byte-identical to it) as FastTrack's test oracle and for the
    [fneg] and [baselines] tables.  "hybrid" and "hybrid-epoch" name
    one detector; both names stay because the trace-replay benchmark
    and its pinned references address all ten. *)
let configs =
  [
    "helgrind-original";
    "helgrind-hwlc";
    "helgrind-hwlc+dr";
    "helgrind-hwlc+dr+hb";
    "eraser-pure";
    "djit";
    "fasttrack";
    "racetrack";
    "hybrid";
    "hybrid-epoch";
  ]

let sink = function
  | "helgrind-original" -> sink_of_helgrind "helgrind-original" Helgrind.original
  | "helgrind-hwlc" -> sink_of_helgrind "helgrind-hwlc" Helgrind.hwlc
  | "helgrind-hwlc+dr" -> sink_of_helgrind "helgrind-hwlc+dr" Helgrind.hwlc_dr
  | "helgrind-hwlc+dr+hb" -> sink_of_helgrind "helgrind-hwlc+dr+hb" Helgrind.hwlc_dr_hb
  | "eraser-pure" -> sink_of_helgrind "eraser-pure" Helgrind.pure_eraser
  | "djit" ->
      let d = Djit.create () in
      {
        sk_name = "djit";
        sk_config = other_config "djit";
        sk_tool = Djit.tool d;
        sk_occurrences = (fun () -> Djit.reports d);
        sk_locations = (fun () -> Djit.locations d);
      }
  | "fasttrack" ->
      let f = Fasttrack.create () in
      {
        sk_name = "fasttrack";
        sk_config = Fasttrack.config_to_json Fasttrack.default_config;
        sk_tool = Fasttrack.tool f;
        sk_occurrences = (fun () -> Fasttrack.reports f);
        sk_locations = (fun () -> Fasttrack.locations f);
      }
  | "racetrack" ->
      let r = Racetrack.create () in
      {
        sk_name = "racetrack";
        sk_config = other_config "racetrack";
        sk_tool = Racetrack.tool r;
        sk_occurrences = (fun () -> Racetrack.reports r);
        sk_locations = (fun () -> Racetrack.locations r);
      }
  | ("hybrid" | "hybrid-epoch") as name ->
      let h = Hybrid.create () in
      {
        sk_name = name;
        sk_config = other_config name;
        sk_tool = Hybrid.tool h;
        sk_occurrences = (fun () -> Hybrid.reports h);
        sk_locations = (fun () -> Hybrid.locations h);
      }
  | name -> invalid_arg ("Offline.sink: unknown config " ^ name)

let sinks ?(configs = configs) () = List.map sink configs

(* --- verdicts: what a detector concluded, digested ------------------ *)

let digest_strings lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(** MD5 over the sorted dedup signatures ({!Report.signature_string}) —
    the one signature digest: verdicts, chaos cells and the bench and
    test audits all use it. *)
let digest_signatures locations =
  digest_strings
    (List.sort String.compare (List.map (fun (r, _) -> Report.signature_string r) locations))

(** MD5 over every occurrence rendered with {!Report.to_string}, in
    chronological order: byte-level equality of the full report stream,
    not just of its dedup signatures. *)
let digest_reports occurrences = digest_strings (List.map Report.to_string occurrences)

type verdict = {
  v_config : string;
  v_events : int;  (** events fed to the detector *)
  v_occurrences : int;
  v_locations : int;  (** deduplicated — the Figure-6 metric *)
  v_sig_digest : string;
  v_report_digest : string;
}

let verdict_of_sink ~events s =
  (* each accessor rebuilds its list (a reversal, a map traversal and
     sort), so read each once *)
  let occurrences = s.sk_occurrences () and locations = s.sk_locations () in
  {
    v_config = s.sk_name;
    v_events = events;
    v_occurrences = List.length occurrences;
    v_locations = List.length locations;
    v_sig_digest = digest_signatures locations;
    v_report_digest = digest_reports occurrences;
  }

let verdict_to_json v =
  Json.Obj
    [
      ("config", Json.Str v.v_config);
      ("events", Json.int v.v_events);
      ("occurrences", Json.int v.v_occurrences);
      ("locations", Json.int v.v_locations);
      ("sig_digest", Json.Str v.v_sig_digest);
      ("report_digest", Json.Str v.v_report_digest);
    ]

let verdict_equal a b =
  a.v_config = b.v_config && a.v_events = b.v_events
  && a.v_occurrences = b.v_occurrences
  && a.v_locations = b.v_locations
  && a.v_sig_digest = b.v_sig_digest
  && a.v_report_digest = b.v_report_digest

(** Drive one named configuration over a decoded trace.  Pure in the
    sense the parallel runner needs: a fresh detector instance per
    call, no shared state — one cell of the replay fan-out. *)
let replay_config trace name =
  let s = sink name in
  Trace.Reader.replay trace [ s.sk_tool ];
  verdict_of_sink ~events:(Trace.Reader.length trace) s

(** Sequential replay of several configurations (the parallel version
    lives in [lib/core], on the domain pool). *)
let replay_all ?(configs = configs) trace = List.map (replay_config trace) configs
