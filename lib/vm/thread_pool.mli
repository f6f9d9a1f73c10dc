(** A fixed-size worker pool fed by a {!Msg_queue} — the thread-pool
    concurrency pattern of §4.2.3 / Figure 11.

    Workers are created before any task data exists, so ownership of
    submitted tasks transfers through queue put/get — synchronisation
    the lock-set algorithm cannot see, unless the detector honours the
    queue's happens-before annotations. *)

type t

val create :
  name:string ->
  workers:int ->
  queue_capacity:int ->
  handler:(int -> unit) ->
  unit ->
  t
(** Start [workers] threads, each looping: pop a task address and run
    [handler] on it (on the worker's simulated stack). *)

val submit : t -> int -> unit
(** Submit a task address for processing.  The value [-1] is reserved
    as the shutdown sentinel. *)

val queue_length : t -> int
(** Current queue depth (takes the queue mutex) — the overload-shedding
    high-water probe. *)

val shutdown : t -> unit
(** Push one sentinel per worker and join them all; pending tasks are
    processed first (FIFO). *)
