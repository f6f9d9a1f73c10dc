(** Predictive deadlock detection by lock-order analysis.

    Records the order in which threads nest lock acquisitions; an
    acquisition that closes a cycle in the order graph is reported as a
    potential deadlock, even on runs where the timing happened to be
    benign — the capability that makes the application's home-grown
    timeout detector (§3.3/§4.1) unnecessary. *)

type t

val create : ?suppressions:Suppression.t list -> unit -> t
val tool : t -> Raceguard_vm.Tool.t

val locations : t -> (Report.t * int) list
(** One report per unordered lock pair (deduplicated). *)

val location_count : t -> int
val collector : t -> Report.collector

(** Persistent acquisition-order graph for hypothetical-edge queries.
    The repair engine builds one per program variant from static lock
    nesting and compares [inversions] before/after a patch: a verified
    patch must not create an inversion pair absent from the original. *)
module Static_graph : sig
  type t

  val empty : t
  val add_edge : t -> before:int -> after:int -> t
  (** Record that some thread can acquire [after] while holding
      [before].  Self-edges are ignored. *)

  val of_edges : (int * int) list -> t
  val edges : t -> (int * int) list
  (** Sorted, deduplicated. *)

  val reachable : t -> from:int -> target:int -> bool

  val inversions : t -> (int * int) list
  (** Every unordered pair [(a, b)] ([a < b]) acquirable in both
      orders — each is a potential deadlock.  Sorted. *)

  val adds_inversion : t -> before:int -> after:int -> bool
  (** Would adding the edge create an inversion the graph does not
      already contain? *)
end
