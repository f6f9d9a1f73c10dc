(** Streaming encoder for [raceguard-trace/2] binary traces.

    Record mode: attach {!tool} to a VM run and every event is encoded
    as the VM emits it, into an in-memory stream, together with the
    introspection data a live detector would have queried (clock,
    acting thread's call stack and name, accessed heap block) — zero
    analysis at record time.  The interned string/location/stack/block
    tables keep the encoding compact.
    {!contents} seals the stream with an event-count end record and a
    CRC-32-guarded footer. *)

module Vm = Raceguard_vm
module Loc = Raceguard_util.Loc

val schema : string
(** ["raceguard-trace/2"]: the name of the format whose {!version} the
    header's version byte holds.  The header stores no schema string. *)

val magic_head : string
val magic_tail : string
val version : int

(** Record tags (decoder contract; events use [tag_event + kind_id]). *)

val tag_sdef : int
val tag_ldef : int
val tag_kdef : int
val tag_bdef : int
val tag_end : int
val tag_event : int

type t

val create : ?meta:(string * string) list -> unit -> t
(** [meta] is a list of free-form (key, value) pairs stored in the
    header — seed, workload, detector config, anything a replay needs
    to be self-describing. *)

val add_entry :
  t ->
  event:Vm.Event.t ->
  clock:int ->
  stack:Loc.t list ->
  thread_name:string ->
  block:Vm.Memory.block option ->
  unit
(** Encode one event with its tool-context data — the one encoder.
    [clock] must be monotonic.  [block] is only encoded for
    reads/writes, with its [freed] flag as it reads now.
    @raise Invalid_argument on a negative tid or a backwards clock. *)

val tool : t -> Vm.Tool.t
(** The recorder as a VM tool (named ["trace-recorder"]): {!add_entry}
    at every event, with the live ctx's answers. *)

val event_count : t -> int

val byte_size : t -> int
(** Bytes encoded so far: header and body, without the end record and
    footer that {!contents} adds. *)

val contents : t -> string
(** The complete trace: body + end record + CRC footer.
    Non-destructive — the writer remains usable afterwards. *)

val to_file : t -> string -> unit
