(** Warning provenance: per-warning knob attribution (the [--explain]
    mode).

    Runs the paper's Original Helgrind configuration (provenance
    recording on) plus one variant per knob — hwlc / dr / hb — on the
    {e same} VM event stream, then marks each base warning with the
    knobs whose variant no longer reports its signature.  Exact, not
    statistical: every variant sees the identical schedule. *)

module Det = Raceguard_detector
module Sip = Raceguard_sip

type knob = { k_name : string; k_apply : Det.Helgrind.config -> Det.Helgrind.config }

val knobs : knob list
(** hwlc, dr, hb: each turns on one setting the Original base has
    off. *)

type explained = {
  e_report : Det.Report.t;
      (** first occurrence, with [provenance.p_suppressed_by] filled *)
  e_count : int;
  e_suppressed_by : string list;
}

type t = {
  x_test : string;
  x_base : Det.Helgrind.config;
  x_knobs : string list;  (** the knobs tried *)
  x_seed : int;
  x_warnings : explained list;
  x_result : Runner.result;
}

val test_case_of_string : string -> Sip.Workload.test_case option
(** Case-insensitive lookup among T1–T8. *)

val run : ?runner:Runner.config -> Sip.Workload.test_case -> t
(** Pass [runner] to control seed / policy / tracer. *)

val pp : Format.formatter -> t -> unit
(** Human rendering: each warning with its Valgrind-style report, its
    shadow-state history, and the suppressing knobs. *)

val to_json : t -> Raceguard_obs.Json.t
(** Machine-readable form ([raceguard-explain/1] schema): base config
    echo, per-warning report + provenance + suppressing knobs, and the
    run's metrics snapshot. *)
