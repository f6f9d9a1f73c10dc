(** Post-mortem (offline) analysis — the §2.2 / §4.5 trade-off.

    A {!recorder} encodes every event as the VM emits it, together with
    the introspection data a detector would query live (stacks, blocks,
    clock), into a compact [raceguard-trace/2] binary log
    ({!Raceguard_trace});
    {!replay} feeds any tool the decoded stream afterwards.  Replaying
    a detector over a recorded trace reproduces its online reports
    byte-for-byte (asserted in the test suite across every registry
    configuration); the log's measured {!footprint_words} is the "large
    amounts of data" cost the paper attributes to offline techniques —
    now the cost of the encoded bytes.

    The {!sink} registry is the one table of named detector
    configurations, a uniform face over all ten for the replay plane,
    the bench and the tests; a {!verdict} digests what one
    configuration concluded, comparably between live and replayed
    runs. *)

module Vm = Raceguard_vm
module Json = Raceguard_obs.Json
module Trace = Raceguard_trace

(** {1 Recording} *)

type recorder

val create_recorder : ?meta:(string * string) list -> unit -> recorder
(** [meta] lands in the trace header (seed, workload, …), making the
    recording self-describing. *)

val tool : recorder -> Vm.Tool.t
(** Attach to the VM to record the run. *)

val length : recorder -> int
(** Events recorded. *)

val footprint_words : recorder -> int
(** Space cost of the encoded log, in words. *)

val contents : recorder -> string
(** The sealed [raceguard-trace/2] bytes (CRC footer included). *)

val to_file : recorder -> string -> unit

val replay : recorder -> Vm.Tool.t -> unit
(** Feed the recorded trace through a tool, post mortem. *)

(** {1 The report digest} *)

(** MD5 over every occurrence rendered with {!Report.to_string}, in the
    order they are added and joined by ["\n"]: byte-level equality of
    the full report stream, not just of its dedup signatures.  Each
    occurrence is rendered into one buffer per domain and hashed at
    once, so the digest holds an MD5 context and a count, never the
    stream.  It equals [Digest.string (String.concat "\n" ...)] over
    the same occurrences. *)
module Report_digest : sig
  type t

  val create : unit -> t

  val add : t -> Report.t -> unit
  (** Hash one more occurrence; a detector's [?on_report]. *)

  val to_hex : t -> string
  (** The digest so far; [add] may go on after it. *)

  val attribution : t -> int
  (** A running 63-bit hash of the [tid], [thread_name] and [clock] of
      every occurrence so far, in order: what the rendered layout
      leaves out. *)
end

(** {1 The detector sink registry} *)

type sink = {
  sk_name : string;
  sk_config : Json.t;  (** full configuration, echoed into JSON outputs *)
  sk_tool : Vm.Tool.t;
  sk_collector : Report.collector;  (** counts and locations *)
  sk_digest : Report_digest.t option;  (** the report digest, if made with [~digest] *)
}

val configs : string list
(** The ten replayable configurations: ["helgrind-original"],
    ["helgrind-hwlc"], ["helgrind-hwlc+dr"], ["helgrind-hwlc+dr+hb"],
    ["eraser-pure"], ["djit"], ["fasttrack"], ["racetrack"],
    ["hybrid"], ["hybrid-epoch"].  ["djit"] is FastTrack's test oracle
    and feeds the [fneg] and [baselines] tables; ["hybrid"] and
    ["hybrid-epoch"] are one detector under two names, kept because
    the trace-replay benchmark replays all ten. *)

val sink : ?digest:bool -> string -> sink
(** A fresh detector instance for a registry name.  [digest] (default
    [false]) attaches a {!Report_digest} through the detector's
    [?on_report], which {!verdict_of_sink} needs; without it the sink
    renders nothing and keeps only its locations.
    @raise Invalid_argument on an unknown name. *)

(** {1 Verdicts} *)

type verdict = {
  v_config : string;
  v_events : int;  (** events fed to the detector *)
  v_occurrences : int;
  v_locations : int;  (** deduplicated — the Figure-6 metric *)
  v_sig_digest : string;  (** MD5 over the sorted dedup signatures *)
  v_report_digest : string;
      (** the {!Report_digest} of every occurrence, chronologically —
          byte-level equality of the report stream *)
  v_attribution : int;
      (** {!Report_digest.attribution}: who reported each occurrence
          and when (JSON ["attribution"], 16 hex digits) *)
}

val digest_lines : string list -> string
(** MD5 (hex) over the lines sorted and joined by newlines — the one
    order-free digest: report signatures, the chaos behaviour and matrix
    digests and the bench fix rows. *)

val digest_signatures : (Report.t * int) list -> string
(** MD5 over the sorted {!Report.signature_string}s of the locations —
    the signature digest of verdicts, chaos cells, bench rows and the
    test audits. *)

val verdict_of_sink : events:int -> sink -> verdict
(** The sink's counts, signature digest and report digest.
    @raise Invalid_argument on a sink made without [~digest]. *)

val verdict_to_json : verdict -> Json.t
val verdict_equal : verdict -> verdict -> bool
(** Every field equal, the attribution included. *)

val replay_config : Trace.Reader.t -> string -> verdict
(** Drive one named configuration over a decoded trace.  Fresh detector
    instance per call, no shared state — safe as a parallel cell. *)
