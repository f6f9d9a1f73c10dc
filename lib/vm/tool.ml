(** The tool ("skin") interface.

    A tool subscribes to the VM's event stream, exactly like a Valgrind
    tool instruments the intermediate code.  The [ctx] record gives
    tools synchronous read access to VM introspection data (call
    stacks, thread names, heap blocks) without exposing the engine. *)

module Loc = Raceguard_util.Loc

type ctx = {
  stack_of : int -> Loc.t list;
      (** current call stack of a thread, innermost frame first *)
  thread_name : int -> string;
  block_of : int -> Memory.block option;
      (** heap block containing an address, if any *)
  clock : unit -> int;  (** virtual clock *)
}

type t = { name : string; on_event : ctx -> Event.t -> unit }

let make ~name ~on_event = { name; on_event }

(** A tool that invokes a callback on every event; handy in tests. *)
let of_fn name f = { name; on_event = (fun _ctx e -> f e) }

(** Offer every event to a sampling ring tracer as category ["vm"],
    stamped with the VM clock. *)
let tracer tr =
  make ~name:"tracer" ~on_event:(fun ctx e ->
      Raceguard_obs.Trace.emit tr ~ts:(ctx.clock ()) ~tid:(Event.tid e) ~name:(Event.kind_name e)
        ~cat:"vm" ())
