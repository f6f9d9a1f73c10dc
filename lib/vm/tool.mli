(** The tool ("skin") interface: how detectors observe the VM, exactly
    like a Valgrind tool instruments the intermediate code. *)

module Loc = Raceguard_util.Loc

type ctx = {
  stack_of : int -> Loc.t list;
      (** current call stack of a thread, innermost frame first *)
  thread_name : int -> string;
  block_of : int -> Memory.block option;
      (** heap block containing an address, if any *)
  clock : unit -> int;  (** virtual clock *)
}
(** Synchronous read access to VM introspection data, valid during the
    [on_event] callback. *)

type t = { name : string; on_event : ctx -> Event.t -> unit }

val make : name:string -> on_event:(ctx -> Event.t -> unit) -> t

val of_fn : string -> (Event.t -> unit) -> t
(** A tool that ignores the context — handy in tests. *)

val tracer : Raceguard_obs.Trace.t -> t
(** Offer every event to a sampling ring tracer (Chrome trace_event
    export) as category ["vm"], stamped with the VM clock.  Attach it
    ahead of any tool that emits into the same ring (a detector's
    [set_tracer]), so an event's VM record precedes the records the
    other tools make of it. *)
