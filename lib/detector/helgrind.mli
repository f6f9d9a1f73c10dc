(** The Helgrind-style lock-set race detector: the Eraser algorithm
    with the Figure-1 state machine, VisualThreads thread segments
    (Figure 2), and the paper's two improvements — the corrected
    hardware-bus-lock model (HWLC) and destructor annotations (DR) —
    plus the §5 happens-before-annotation extension.

    Attach via {!tool} to a {!Raceguard_vm.Engine} and read the
    reports afterwards.  Several instances with different
    configurations can watch the same run. *)

(** How the x86 [LOCK] prefix is modelled in lock-sets. *)
type bus_model =
  | Locked_mutex
      (** the original Helgrind behaviour: a virtual mutex held only
          around [LOCK]-prefixed instructions — plain reads of
          atomically-updated words empty the candidate set (the
          Figure 8 false positives).  POSIX rw-lock events are
          ignored, as in the original ("an extension for read-write
          locks ... is not implemented in Helgrind", §2.3.2). *)
  | Rw_lock
      (** the paper's correction: every read implicitly holds the bus
          lock in read mode, [LOCK]-prefixed writes hold it in write
          mode.  The read-write lock-sets this needs also track POSIX
          rw-locks. *)

type config = {
  bus_model : bus_model;
  destructor_annotations : bool;
      (** honour [VALGRIND_HG_DESTRUCT] client requests (the DR
          improvement): the announced range becomes exclusively owned
          by the deleting thread's segment *)
  thread_segments : bool;  (** the VisualThreads refinement (Figure 2) *)
  eraser_states : bool;
      (** the Figure-1 state machine; [false] runs the naive textbook
          Eraser (candidate set refined from the very first access) *)
  hb_annotations : bool;
      (** honour [ANNOTATE_HAPPENS_BEFORE]/[_AFTER] client requests —
          the §5 future-work extension for higher-level
          synchronisation *)
  fast_path : bool;
      (** short-circuit the Figure-1 step when the word's last-access
          stamp (thread, segment, interned lock-sets) shows the
          transition is a no-op that cannot warn; on by default and
          guaranteed not to alter reports *)
  provenance : bool;
      (** record each word's shadow-state transition history and attach
          it to warnings as {!Report.provenance}; recorded only on
          genuine state changes, so the history is byte-identical with
          [fast_path] on or off.  Off by default (costs memory and
          rendering on state changes). *)
}

val original : config
(** The unmodified Helgrind of the paper's first experiment column. *)

val hwlc : config
(** [original] + the corrected bus-lock model + rw-lock tracking. *)

val hwlc_dr : config
(** [hwlc] + destructor annotations: the paper's final configuration. *)

val hwlc_dr_hb : config
(** [hwlc_dr] + the §5 annotation extension. *)

val pure_eraser : config
(** Ablation: Eraser without the state machine. *)

val pp_config_name : Format.formatter -> config -> unit

val config_to_json : config -> Raceguard_obs.Json.t
(** Every knob of the configuration, for machine-readable outputs
    (bench row config echo, explain JSON). *)

(** {1 Running} *)

type t

val create : ?on_report:(Report.t -> unit) -> ?suppressions:Suppression.t list -> config -> t
(** [on_report] sees every kept warning occurrence as it is found
    ({!Report.collector}); the detector itself keeps only the
    locations. *)

val tool : t -> Raceguard_vm.Tool.t
(** The VM tool to attach with {!Raceguard_vm.Engine.add_tool}. *)

val on_event : t -> Raceguard_vm.Tool.ctx -> Raceguard_vm.Event.t -> unit
(** Feed one event directly — for composition ({!Hybrid}) and offline
    replay; {!tool} is this wrapped up. *)

val set_warning_filter : t -> (tid:int -> addr:int -> kind:Report.kind -> bool) -> unit
(** Install a gate consulted before each warning is recorded; used by
    {!Hybrid} to require happens-before concurrence. *)

val set_tracer : t -> Raceguard_obs.Trace.t -> unit
(** Offer detector decisions (state transitions, warnings, fast-path
    skips) to a sampling ring tracer; off unless installed. *)

val set_static_hints : t -> (string * int) list -> unit
(** Pre-mark allocation sites (by the (file, line) of their [E_alloc]
    loc) as statically proven thread-local — e.g. the [hint_locs] of
    the MiniC++ static analysis.  Words allocated there take the
    Exclusive fast path even across segment advances, so the hit rate
    rises; reports are unchanged provided the hints are truthful (a
    word only ever touched by one thread between allocations). *)

(** {1 Results} *)

val locations : t -> (Report.t * int) list
(** Distinct locations (deduplicated by call-stack signature — the
    Figure 6 metric) with occurrence counts. *)

val location_count : t -> int
val collector : t -> Report.collector
