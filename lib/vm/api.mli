(** Operations available {e inside} simulated threads — the "system
    call" surface of the VM.

    A simulated application is ordinary OCaml code calling these
    functions.  Each call applies its operation on the calling thread,
    emits its events to the attached tools and ends in a scheduling
    decision, so every call is a potential preemption point — the
    granularity at which the serialised execution can interleave
    threads, as under Valgrind.

    All functions taking [~loc] record the (pseudo) source position for
    race reports; use {!with_frame} to maintain the simulated call stack
    that reports print.  Outside {!Engine.run} they raise
    [Invalid_argument]. *)

module Loc = Raceguard_util.Loc

(** {1 Memory} *)

val read : loc:Loc.t -> int -> int
(** [read ~loc addr] loads the word at [addr]. *)

val write : loc:Loc.t -> int -> int -> unit
(** [write ~loc addr v] stores [v] at [addr]. *)

val atomic_rmw : loc:Loc.t -> int -> (int -> int) -> int
(** A [LOCK]-prefixed read-modify-write: indivisible (no scheduling
    point between the load and the store), flagged atomic in the event
    stream.  Returns the {e old} value. *)

val atomic_incr : loc:Loc.t -> int -> int
val atomic_decr : loc:Loc.t -> int -> int

val atomic_cas : loc:Loc.t -> int -> expected:int -> desired:int -> bool
(** Compare-and-swap; true iff the swap happened. *)

val alloc : loc:Loc.t -> int -> int
(** [alloc ~loc len] allocates [len] zeroed words; returns the base
    address.  Tools see an allocation event (shadow state resets). *)

val free : loc:Loc.t -> int -> unit
(** Release a block by base address.  Double frees fail the thread. *)

(** {1 Threads} *)

val spawn : loc:Loc.t -> name:string -> (unit -> unit) -> int
(** Start a thread; returns its tid.  The new thread is immediately
    runnable; whether it runs before the parent continues is the
    scheduler's choice. *)

val join : loc:Loc.t -> int -> unit
(** Block until the thread terminates.  Joining an already-finished
    thread returns immediately (and still emits the join event). *)

val self : unit -> int
val yield : unit -> unit

val sleep : int -> unit
(** Block for at least [n] virtual clock ticks. *)

val now : unit -> int
(** The virtual clock (one tick per VM operation). *)

val random_int : int -> int
(** Deterministic per-run randomness drawn from the VM seed. *)

(** {1 Synchronisation} *)

module Mutex : sig
  type t = int

  val create : loc:Loc.t -> string -> t
  val lock : loc:Loc.t -> t -> unit
  (** Non-recursive: relocking a held mutex fails the thread. *)

  val try_lock : loc:Loc.t -> t -> bool
  val unlock : loc:Loc.t -> t -> unit
  (** Unlocking a mutex the thread does not hold fails the thread. *)

  val with_lock : loc:Loc.t -> t -> (unit -> 'a) -> 'a
end

module Rwlock : sig
  type t = int

  val create : loc:Loc.t -> string -> t
  val rdlock : loc:Loc.t -> t -> unit
  val wrlock : loc:Loc.t -> t -> unit
  val unlock : loc:Loc.t -> t -> unit
  val with_rdlock : loc:Loc.t -> t -> (unit -> 'a) -> 'a
  val with_wrlock : loc:Loc.t -> t -> (unit -> 'a) -> 'a
end

module Cond : sig
  type t = int

  val create : loc:Loc.t -> string -> t

  val wait : loc:Loc.t -> t -> Mutex.t -> unit
  (** Atomically releases the mutex and blocks; on wake-up the mutex is
      reacquired before returning.  The caller must hold the mutex. *)

  val signal : loc:Loc.t -> t -> unit
  val broadcast : loc:Loc.t -> t -> unit
end

module Sem : sig
  type t = int

  val create : loc:Loc.t -> init:int -> string -> t
  val wait : loc:Loc.t -> t -> unit
  val post : loc:Loc.t -> t -> unit
end

(** {1 Client requests}

    User-space calls recognised by the VM and forwarded to tools; no
    effect on execution (Valgrind's [VALGRIND_*] macro mechanism). *)

val hg_destruct : addr:int -> len:int -> unit
(** [VALGRIND_HG_DESTRUCT] (Figure 4): the object at
    [addr..addr+len-1] is about to be destroyed by this thread. *)

val benign_race : addr:int -> len:int -> unit
(** Mark a range as intentionally racy. *)

val annotate_happens_before : tag:int -> unit
(** [ANNOTATE_HAPPENS_BEFORE]: order everything this thread did so far
    before any thread that subsequently observes [tag] with
    {!annotate_happens_after} — the §5 higher-level-synchronisation
    extension. *)

val annotate_happens_after : tag:int -> unit

(** {1 Call-stack maintenance} *)

val push_frame : Loc.t -> unit
val pop_frame : unit -> unit

val with_frame : Loc.t -> (unit -> 'a) -> 'a
(** Run the function with [loc] pushed on the simulated call stack
    (restored on exception). *)
