(** Per-domain configuration data — home of two injected real bugs:
    B2 (the reload thread starts before the table is populated, §4.1.1)
    and B4 ([get_domain_data] returns the {e address} of the guarded
    map, Figure 7, so callers walk it unlocked while the reloader
    mutates it). *)

val config_object_class : Raceguard_cxxsim.Object_model.class_desc
val domain_data_class : Raceguard_cxxsim.Object_model.class_desc

type t

val create :
  alloc:Raceguard_cxxsim.Allocator.t ->
  init_racy:bool ->
  ?recover_alloc_failure:bool ->
  domains:string list ->
  unit ->
  t
(** With [init_racy] (the shipped code) the reload thread starts before
    the initial population — bug B2.  [recover_alloc_failure] makes the
    reload thread skip a generation on an injected allocation failure
    instead of dying (resilient builds). *)

val get_domain_data : t -> int
(** Figure 7: lock, read the internal map's address, unlock, return the
    address — protecting nothing. *)

val unsafe_lookup : t -> domain:string -> int option
(** What callers do with the escaped reference: unlocked map walk
    (bug B4); returns the domain's max-calls setting. *)

val safe_lookup : t -> domain:string -> int option
(** The correct API, for fixed builds. *)

val stop : t -> unit
val join : t -> unit
