(** Post-mortem (offline) analysis — §2.2 / §4.5.

    "Principally, on-the-fly checkers can work post mortem and hence
    reduce the performance impact due to the online calculations.  But
    they still need logging of the execution trace.  Hence, offline
    techniques suffer from their need for large amounts of data."

    A {!recorder} is the compact binary recorder of {!Raceguard_trace}:
    a VM tool that encodes every event as the VM emits it, {e together
    with} the introspection data a detector would have queried live
    (call stack, heap block, clock), into a [raceguard-trace/2] byte
    stream — interned tables, varint encoding, CRC-guarded footer.  {!replay}
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

let create_recorder ?meta () = { writer = Trace.Writer.create ?meta () }

let tool r = Trace.Writer.tool r.writer
let length r = Trace.Writer.event_count r.writer
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

(* --- the report digest ------------------------------------------------ *)

(* The runtime's MD5 (md5_stubs.c), fed incrementally: the code
   [Digest.string] runs, so streaming changes no digest. *)
external md5_context_size : unit -> int = "raceguard_md5_context_size" [@@noalloc]
external md5_init : bytes -> unit = "raceguard_md5_init" [@@noalloc]
external md5_update : bytes -> bytes -> int -> unit = "raceguard_md5_update" [@@noalloc]
external md5_final : bytes -> bytes -> unit = "raceguard_md5_final" [@@noalloc]

(* the most bytes hashed by one [md5_update] *)
let chunk = 65536

(* One render buffer and one scratch chunk per domain, shared by every
   digest on it: a digest hashes each occurrence as soon as it is
   rendered, so the buffer holds one occurrence, never the stream. *)
type render = { buf : Buffer.t; scratch : Bytes.t }

let render_key = Domain.DLS.new_key (fun () -> { buf = Buffer.create 1024; scratch = Bytes.create chunk })

module Report_digest = struct
  type t = { ctx : Bytes.t; mutable count : int; mutable attribution : int }

  let create () =
    let ctx = Bytes.create (md5_context_size ()) in
    md5_init ctx;
    { ctx; count = 0; attribution = 0 }

  (* The layout leaves out who reported and when, so those fields of
     each occurrence fold into a running 63-bit hash instead: no
     rendering, no MD5. *)
  let mix h x =
    let h = (h lxor x) * 0x100000001b3 in
    h lxor (h lsr 29)

  let attribute h (r : Report.t) = mix (mix (mix h r.tid) (Hashtbl.hash r.thread_name)) r.clock

  let add d r =
    let { buf; scratch } = Domain.DLS.get render_key in
    Buffer.clear buf;
    if d.count > 0 then Buffer.add_char buf '\n';
    Report.render buf r;
    let len = Buffer.length buf in
    let rec feed off =
      if off < len then begin
        let n = min chunk (len - off) in
        Buffer.blit buf off scratch 0 n;
        md5_update d.ctx scratch n;
        feed (off + n)
      end
    in
    feed 0;
    d.count <- d.count + 1;
    d.attribution <- attribute d.attribution r

  (* finalises a copy, so the digest can still be read and fed *)
  let to_hex d =
    let digest = Bytes.create 16 in
    md5_final (Bytes.copy d.ctx) digest;
    Digest.to_hex (Bytes.unsafe_to_string digest)

  let attribution d = d.attribution
end

(* --- the detector sink registry ------------------------------------- *)

(** One detector instance behind a uniform face: the replay plane can
    drive any of them and read back counts, dedup signatures and the
    report digest without knowing which algorithm it is. *)
type sink = {
  sk_name : string;
  sk_config : Json.t;  (** full configuration, echoed into JSON outputs *)
  sk_tool : Vm.Tool.t;
  sk_collector : Report.collector;
  sk_digest : Report_digest.t option;
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

let sink ?(digest = false) name =
  let sk_digest = if digest then Some (Report_digest.create ()) else None in
  let on_report = Option.map Report_digest.add sk_digest in
  let make sk_config sk_tool sk_collector = { sk_name = name; sk_config; sk_tool; sk_collector; sk_digest } in
  let helgrind cfg =
    let h = Helgrind.create ?on_report cfg in
    make (Helgrind.config_to_json cfg) (Helgrind.tool h) (Helgrind.collector h)
  in
  match name with
  | "helgrind-original" -> helgrind Helgrind.original
  | "helgrind-hwlc" -> helgrind Helgrind.hwlc
  | "helgrind-hwlc+dr" -> helgrind Helgrind.hwlc_dr
  | "helgrind-hwlc+dr+hb" -> helgrind Helgrind.hwlc_dr_hb
  | "eraser-pure" -> helgrind Helgrind.pure_eraser
  | "djit" ->
      let d = Djit.create ?on_report () in
      make (other_config "djit") (Djit.tool d) (Djit.collector d)
  | "fasttrack" ->
      let f = Fasttrack.create ?on_report () in
      make (other_config "fasttrack") (Fasttrack.tool f) (Fasttrack.collector f)
  | "racetrack" ->
      let r = Racetrack.create ?on_report () in
      make (other_config "racetrack") (Racetrack.tool r) (Racetrack.collector r)
  | "hybrid" | "hybrid-epoch" ->
      let h = Hybrid.create ?on_report () in
      make (other_config name) (Hybrid.tool h) (Hybrid.collector h)
  | _ -> invalid_arg ("Offline.sink: unknown config " ^ name)

(* --- verdicts: what a detector concluded, digested ------------------ *)

(** MD5 (hex) over the lines sorted and joined by newlines. *)
let digest_lines lines =
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort String.compare lines)))

(** MD5 over the sorted dedup signatures ({!Report.signature_string}) —
    the one signature digest: verdicts, chaos cells and the bench and
    test audits all use it. *)
let digest_signatures locations =
  digest_lines (List.map (fun (r, _) -> Report.signature_string r) locations)

type verdict = {
  v_config : string;
  v_events : int;  (** events fed to the detector *)
  v_occurrences : int;
  v_locations : int;  (** deduplicated — the Figure-6 metric *)
  v_sig_digest : string;
  v_report_digest : string;
  v_attribution : int;
}

let verdict_of_sink ~events s =
  match s.sk_digest with
  | None -> invalid_arg ("Offline.verdict_of_sink: " ^ s.sk_name ^ " was made without ~digest")
  | Some d ->
      let locations = Report.locations s.sk_collector in
      {
        v_config = s.sk_name;
        v_events = events;
        v_occurrences = Report.occurrence_count s.sk_collector;
        v_locations = List.length locations;
        v_sig_digest = digest_signatures locations;
        v_report_digest = Report_digest.to_hex d;
        v_attribution = Report_digest.attribution d;
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
      ("attribution", Json.Str (Printf.sprintf "%016x" v.v_attribution));
    ]

let verdict_equal a b =
  a.v_config = b.v_config && a.v_events = b.v_events
  && a.v_occurrences = b.v_occurrences
  && a.v_locations = b.v_locations
  && a.v_sig_digest = b.v_sig_digest
  && a.v_report_digest = b.v_report_digest
  && a.v_attribution = b.v_attribution

(** Drive one named configuration over a decoded trace.  Pure in the
    sense the parallel runner needs: a fresh detector instance per
    call, no shared state — one cell of the replay fan-out. *)
let replay_config trace name =
  let s = sink ~digest:true name in
  Trace.Reader.replay trace [ s.sk_tool ];
  verdict_of_sink ~events:(Trace.Reader.length trace) s
