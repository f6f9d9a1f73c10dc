(** Race/deadlock reports and the de-duplicating collector.

    Valgrind de-duplicates errors by call-stack signature; the paper
    counts "reported possible data race {e locations}" (Figure 6), i.e.
    distinct signatures.  The collector keeps only the deduplicated
    location list; a consumer that needs every occurrence takes each
    one as it is added, through [on_report]. *)

module Loc = Raceguard_util.Loc

type kind =
  | Race_write  (** write with empty candidate lock-set *)
  | Race_read  (** read with empty candidate lock-set (Shared-Modified) *)
  | Lock_order  (** lock acquisition inverts an established order *)

val kind_to_string : kind -> string
(** The headline, e.g. ["Possible data race writing variable"]. *)

val pp_kind : Format.formatter -> kind -> unit

type block_info = {
  b_base : int;
  b_len : int;
  b_alloc_tid : int;
  b_alloc_stack : Loc.t list;
}

(** {1 Provenance}

    The explain-trace attached to a warning: the shadow-state
    transition history of the warned address (as recorded by the
    detector when its [provenance] config knob is on) plus, after an
    [Explain] pass, the config knobs that would suppress it. *)

type transition = {
  t_clock : int;
  t_tid : int;
  t_access : string;  (** "read" / "write" / "destruct" *)
  t_from : string;  (** rendered state before *)
  t_to : string;  (** rendered state after *)
  t_loc : Loc.t option;
}

type provenance = {
  p_history : transition list;  (** oldest first, bounded *)
  p_dropped : int;
  mutable p_suppressed_by : string list;  (** filled in by [Explain] *)
}

type t = {
  kind : kind;
  addr : int;
  tid : int;
  thread_name : string;
  stack : Loc.t list;  (** innermost frame first *)
  detail : string;  (** e.g. ["Previous state: shared RO, no locks"] *)
  block : block_info option;  (** the Figure-9 allocation footer *)
  clock : int;
  provenance : provenance option;
}

val of_access :
  Raceguard_vm.Tool.ctx ->
  kind:kind ->
  tid:int ->
  addr:int ->
  loc:Loc.t ->
  ?provenance:provenance ->
  string ->
  t
(** [of_access ctx ~kind ~tid ~addr ~loc detail] is the race report of
    an access by [tid] at [loc] to [addr], read from the VM during the
    event: the stack [loc :: ctx.stack_of tid], the thread's name, the
    heap block holding [addr] (the allocation footer), the virtual
    clock, and the given [detail] and [provenance]. *)

val unordered_detail : prev_tid:int -> prev_loc:Loc.t -> string
(** ["Conflicts with unordered access by thread %d at %a"]: the detail
    line of the happens-before detectors ({!Djit}, {!Fasttrack}), one
    renderer so that their reports stay byte-identical. *)

val signature_depth : int
(** Stack frames participating in the dedup signature (Valgrind uses
    the top 4). *)

type signature = kind * Loc.t list

val signature_of : kind -> Loc.t list -> signature
(** The kind and the top {!signature_depth} frames of a stack: the
    dedup equivalence, shared by the collector, the static/dynamic
    cross-check and the repair engine. *)

val signature : t -> signature
(** [signature_of r.kind r.stack]. *)

val compare_signature : signature -> signature -> int
(** Kind first, then the frames by {!Loc.compare}: the collector's
    order, and so the order of every signature set. *)

module Sig_set : Set.S with type elt = signature

val signature_string : t -> string
(** The dedup signature as one line: the headline, ["@"], then the
    signature frames as ["func (file:line)"] joined by [";"].  The
    signature digests hash these. *)

val render : ?eol:(Buffer.t -> unit) -> Buffer.t -> t -> unit
(** [render b r] writes the one report layout into [b], each line
    ended by a newline; with [eol], by a call of [eol b] instead.
    {!to_string} and {!pp} are this layout; the report digest renders
    every occurrence through it into one reused buffer.  Without [eol],
    the lines of a stack's tail and of a block's allocation stack come
    from a per-domain cache keyed on the list itself ([==]), so a list
    shared between occurrences is rendered once. *)

val to_string : t -> string
(** Valgrind-style rendering: headline, "at/by" stack, allocation
    footer, previous-state line, each ending in a newline.  Built in a
    [Buffer] without [Format].  Deliberately does {e not} render
    provenance — the byte-stability tests compare this output across
    fast-path modes, and provenance is an opt-in second section. *)

val pp : Format.formatter -> t -> unit
(** The lines of {!to_string}, each ended by [Format.pp_force_newline]. *)

val pp_provenance : Format.formatter -> provenance -> unit
(** The explain trace: one line per shadow-state transition, the elided
    count, and the suppressing knobs if an [Explain] pass filled them
    in. *)

val transition_to_json : transition -> Raceguard_obs.Json.t
val provenance_to_json : provenance -> Raceguard_obs.Json.t
val to_json : t -> Raceguard_obs.Json.t
(** Machine-readable form of the full report, provenance included. *)

(** {1 Collector} *)

type collector
(** The occurrence count, the suppressed count and a hashed index of
    the distinct locations (first occurrence and count).  It holds no
    other occurrence. *)

val collector :
  ?on_report:(t -> unit) -> ?suppressions:Suppression.t list -> unit -> collector
(** [on_report] sees every kept occurrence once, when it is added, in
    the order of {!add}; suppressed occurrences never reach it. *)

val add : collector -> t -> unit
(** Record an occurrence (dropped if a suppression matches). *)

val locations : collector -> (t * int) list
(** Distinct locations with occurrence counts, by the clock of their
    first occurrence, equal clocks in {!compare_signature} order. *)

val location_count : collector -> int
val occurrence_count : collector -> int
val suppressed_count : collector -> int
