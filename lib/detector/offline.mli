(** Post-mortem (offline) analysis — the §2.2 / §4.5 trade-off.

    A {!recorder} encodes every event as the VM emits it, together with
    the introspection data a detector would query live (stacks, blocks,
    clock), into a compact [raceguard-trace/1] binary log
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

val create_recorder :
  ?snapshot_every:int -> ?meta:(string * string) list -> unit -> recorder
(** [meta] lands in the trace header (seed, workload, …), making the
    recording self-describing. *)

val tool : recorder -> Vm.Tool.t
(** Attach to the VM to record the run. *)

val length : recorder -> int
(** Events recorded. *)

val footprint_words : recorder -> int
(** Space cost of the encoded log, in words. *)

val writer : recorder -> Trace.Writer.t
val contents : recorder -> string
(** The sealed [raceguard-trace/1] bytes (CRC footer included). *)

val to_file : recorder -> string -> unit

val replay : recorder -> Vm.Tool.t -> unit
(** Feed the recorded trace through a tool, post mortem. *)

(** {1 The detector sink registry} *)

type sink = {
  sk_name : string;
  sk_config : Json.t;  (** full configuration, echoed into JSON outputs *)
  sk_tool : Vm.Tool.t;
  sk_occurrences : unit -> Report.t list;
  sk_locations : unit -> (Report.t * int) list;
}

val configs : string list
(** The ten replayable configurations: ["helgrind-original"],
    ["helgrind-hwlc"], ["helgrind-hwlc+dr"], ["helgrind-hwlc+dr+hb"],
    ["eraser-pure"], ["djit"], ["fasttrack"], ["racetrack"],
    ["hybrid"], ["hybrid-epoch"].  ["djit"] is FastTrack's test oracle
    and feeds the [fneg] and [baselines] tables; ["hybrid"] and
    ["hybrid-epoch"] are one detector under two names, kept because
    the trace-replay benchmark replays all ten. *)

val sink : string -> sink
(** A fresh detector instance for a registry name.
    @raise Invalid_argument on an unknown name. *)

val sinks : ?configs:string list -> unit -> sink list

(** {1 Verdicts} *)

type verdict = {
  v_config : string;
  v_events : int;  (** events fed to the detector *)
  v_occurrences : int;
  v_locations : int;  (** deduplicated — the Figure-6 metric *)
  v_sig_digest : string;  (** MD5 over the sorted dedup signatures *)
  v_report_digest : string;
      (** MD5 over every occurrence rendered with {!Report.to_string},
          chronologically — byte-level equality of the report stream *)
}

val digest_signatures : (Report.t * int) list -> string
(** MD5 over the sorted {!Report.signature_string}s of the locations —
    the signature digest of verdicts, chaos cells, bench rows and the
    test audits. *)

val digest_reports : Report.t list -> string
(** MD5 over the occurrences rendered with {!Report.to_string} and
    joined by ["\n"], computed in 64 KiB chunks of one reused buffer:
    equal to [Digest.string (String.concat "\n" ...)] without ever
    holding the stream. *)

val verdict_of_sink : events:int -> sink -> verdict
val verdict_to_json : verdict -> Json.t
val verdict_equal : verdict -> verdict -> bool

val replay_config : Trace.Reader.t -> string -> verdict
(** Drive one named configuration over a decoded trace.  Fresh detector
    instance per call, no shared state — safe as a parallel cell. *)
