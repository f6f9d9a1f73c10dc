(** Multicore cell pool: map over an array of independent
    deterministic cells across OCaml 5 domains that claim cell indices
    from one shared counter.

    Contract: [map_cells ~domains f cells] returns exactly
    [Array.map f cells] — same slots, same values — for any [domains].
    Cells must be independent (no shared mutable state outside the
    domain-local caches; each cell builds its own VM/tool instances)
    and are executed exactly once each.  If any cell raises, all cells
    still run, then the exception of the lowest-index failing cell is
    re-raised with its backtrace. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count () - 1], never below 1 — what
    [domains = 0] resolves to everywhere a [--domains] flag exists. *)

val resolve : int -> int
(** [resolve d] is [recommended ()] when [d <= 0], else [d]. *)

type stats = {
  st_domains : int;  (** workers that ran: the caller plus the spawned domains *)
  st_cells : int;
  st_steals : int;  (** always 0: no worker owns cells another could take *)
}

val map_cells : domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** The calling domain plus [min (resolve domains) n - 1] spawned
    domains run the [n] cells.  A spawn the runtime refuses (it caps
    the domains alive at once) ends spawning; the workers already
    started finish every cell.  At one domain nothing is spawned and
    the caller runs the cells in index order. *)

val map_cells_stats : domains:int -> ('a -> 'b) -> 'a array -> 'b array * stats
