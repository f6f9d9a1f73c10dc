(** Fixed-capacity ring-buffer event tracer with Chrome
    [trace_event]-JSON export (load the output in chrome://tracing or
    Perfetto).

    The VM offers its events through an ordinary tool
    ([Vm.Tool.tracer], category ["vm"]); Helgrind offers its decisions
    through [Helgrind.set_tracer].  Sampling is counter-based
    (1-in-[sample]) and therefore deterministic: two runs over the same
    event stream record the same subset.  Once full, the ring
    overwrites oldest-first, keeping the tail of the run. *)

type t

type record = {
  ts : int; (** VM logical clock, exported as microseconds *)
  tid : int;
  name : string;
  cat : string;
  args : (string * Json.t) list;
}

val create : ?capacity:int -> ?sample:int -> unit -> t
(** [capacity] defaults to 4096 records, [sample] to 1 (record
    everything offered).  Raises [Invalid_argument] on non-positive
    values. *)

val emit : t -> ts:int -> tid:int -> name:string -> cat:string -> ?args:(string * Json.t) list -> unit -> unit
(** Offer one event; it is recorded iff the offer counter hits the
    sampling stride. *)

val offered : t -> int
val recorded : t -> int
val dropped : t -> int
(** Records overwritten because the ring wrapped. *)

val records : t -> record list
(** Live records, oldest first. *)

val to_json : t -> Json.t
(** Chrome [trace_event] document: [{"traceEvents": [...], ...}] with
    generator/sampling metadata under ["otherData"]. *)

val to_string : t -> string
