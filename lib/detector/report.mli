(** Race/deadlock reports and the de-duplicating collector.

    Valgrind de-duplicates errors by call-stack signature; the paper
    counts "reported possible data race {e locations}" (Figure 6), i.e.
    distinct signatures.  The collector keeps both every occurrence and
    the deduplicated location list. *)

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

val render : Buffer.t -> eol:(Buffer.t -> unit) -> t -> unit
(** [render b ~eol r] writes the one report layout into [b], calling
    [eol b] at the end of every line.  {!to_string} and {!pp} are this
    layout; the report digest renders every occurrence through it into
    one reused buffer. *)

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

val collector : ?suppressions:Suppression.t list -> unit -> collector

val add : collector -> t -> unit
(** Record an occurrence (dropped if a suppression matches). *)

val occurrences : collector -> t list
val locations : collector -> (t * int) list
(** Distinct locations with occurrence counts, by first occurrence. *)

val location_count : collector -> int
val occurrence_count : collector -> int
val suppressed_count : collector -> int
