(** Cross-check static lint findings against dynamic detector reports
    by (kind, top-4 stack) signature — the same signature the
    {!Raceguard_detector.Report} collector deduplicates by. *)

module Loc = Raceguard_util.Loc
module Report = Raceguard_detector.Report
module Static = Raceguard_minicc.Static_race

type verdict =
  | Confirmed  (** same signature found statically and dynamically *)
  | Static_only  (** unexecuted path, or a static over-approximation *)
  | Dynamic_only
      (** lockset-flagged sharing the static pass proves fork-join
          ordered, or code lost to static havoc *)

type entry = { e_verdict : verdict; e_kind : Report.kind; e_stack : Loc.t list }

type t = {
  entries : entry list;  (** confirmed, then static-only, then dynamic-only *)
  n_confirmed : int;
  n_static_only : int;
  n_dynamic_only : int;
}

val cross_check : static:Static.result -> dynamic:Report.t list -> t

val cross_check_seeds :
  ?domains:int -> static:Static.result -> run:(int -> Report.t list) -> int list -> t
(** [cross_check_seeds ~domains ~static ~run seeds] replays the
    program once per seed ([run seed] must return that schedule's
    dynamic reports, a pure function of the seed) — each replay a cell
    on the domain pool — and cross-checks against the union of
    the dynamic signatures.  Seeds are de-duplicated and sorted;
    verdicts are identical for any [domains] (1 = sequential,
    0 = auto). *)

val confirmed_sigs : t -> Report.signature list
(** Signatures of the [Confirmed] entries, the repair engine's
    work-list. *)

val verdict_to_string : verdict -> string
val pp : Format.formatter -> t -> unit
val to_json : t -> Raceguard_obs.Json.t
