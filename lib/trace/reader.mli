(** Decoder and replay driver for [raceguard-trace/2] traces.

    Decoding validates the whole container up front (magics, version
    byte, CRC-32 footer, the end record's event count) and rejects
    truncated or corrupt input with a descriptive error; a trace of
    another format version is refused as
    ["unsupported trace version N"].  {!replay} then drives any
    set of VM tools over the decoded stream through a synthesised
    {!Raceguard_vm.Tool.ctx} that answers introspection queries from
    the recorded per-event data — no VM, no re-execution. *)

module Vm = Raceguard_vm
module Loc = Raceguard_util.Loc

type entry = {
  en_index : int;  (** 0-based position in the event stream *)
  en_offset : int;  (** byte offset of the event record's tag *)
  en_event : Vm.Event.t;
  en_clock : int;
  en_stack : Loc.t list;  (** acting thread's call stack at the event *)
  en_thread : string;  (** acting thread's name *)
  en_block : Vm.Memory.block option;
      (** reads/writes: the heap block containing the address *)
}

type t

val of_string : string -> (t, [ `Msg of string ]) result
(** Never raises: malformed input of any kind is an [Error]. *)

val of_file : string -> (t, [ `Msg of string ]) result

val meta : t -> (string * string) list
val meta_find : t -> string -> string option
val entries : t -> entry array
val length : t -> int
val byte_size : t -> int

val replay : t -> Vm.Tool.t list -> unit
(** Feed every entry to each tool, in order.  The ctx seen by the tools
    answers [stack_of]/[thread_name]/[block_of]/[clock] from the
    recorded data, so a detector replayed here observes exactly what it
    would have observed live. *)
