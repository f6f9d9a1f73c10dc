(** Operations available {e inside} simulated threads.

    These are the "system calls" of the VM: a simulated application is
    ordinary OCaml code calling these functions.  Each is a plain call
    into {!Engine.Op} on the calling thread's fiber, and each ends in a
    scheduling decision, so every call is a potential preemption point —
    the granularity at which Valgrind's serialised execution can
    interleave threads.

    All functions taking [~loc] record the (pseudo) source position for
    race reports; use {!with_frame} to maintain the simulated call
    stack. *)

module Loc = Raceguard_util.Loc

(* read, write, atomic_rmw, alloc, free, spawn, join, self, yield,
   sleep, now, random_int, push_frame and pop_frame keep their names *)
include Engine.Op

(* --- memory ------------------------------------------------------- *)

let atomic_incr ~loc addr = atomic_rmw ~loc addr (fun v -> v + 1)
let atomic_decr ~loc addr = atomic_rmw ~loc addr (fun v -> v - 1)

let atomic_cas ~loc addr ~expected ~desired =
  let old = atomic_rmw ~loc addr (fun v -> if v = expected then desired else v) in
  old = expected

(* --- synchronisation ---------------------------------------------- *)

module Mutex = struct
  type t = int

  let create = mutex_create
  let lock = mutex_lock
  let try_lock = mutex_trylock
  let unlock = mutex_unlock

  let with_lock ~loc m f =
    lock ~loc m;
    Fun.protect ~finally:(fun () -> unlock ~loc m) f
end

module Rwlock = struct
  type t = int

  let create = rwlock_create
  let rdlock ~loc rw = rwlock_lock ~loc rw Read_mode
  let wrlock ~loc rw = rwlock_lock ~loc rw Write_mode
  let unlock = rwlock_unlock

  let with_rdlock ~loc rw f =
    rdlock ~loc rw;
    Fun.protect ~finally:(fun () -> unlock ~loc rw) f

  let with_wrlock ~loc rw f =
    wrlock ~loc rw;
    Fun.protect ~finally:(fun () -> unlock ~loc rw) f
end

module Cond = struct
  type t = int

  let create = cond_create
  let wait = cond_wait
  let signal ~loc cv = cond_signal ~loc ~broadcast:false cv
  let broadcast ~loc cv = cond_signal ~loc ~broadcast:true cv
end

module Sem = struct
  type t = int

  let create = sem_create
  let wait = sem_wait
  let post = sem_post
end

(* --- client requests (Valgrind user-space calls) ------------------ *)

(** Announce that the object at [addr..addr+len-1] is about to be
    destroyed — the [VALGRIND_HG_DESTRUCT] macro of Figure 4.  A no-op
    for the VM itself; only tools interpret it. *)
let hg_destruct ~addr ~len = client (Destruct { addr; len })

let benign_race ~addr ~len = client (Benign_race { addr; len })

(** [ANNOTATE_HAPPENS_BEFORE]/[_AFTER]: make a higher-level handoff
    (queue put/get, custom synchronisation) visible to detectors that
    honour these annotations — the paper's §5 future-work direction. *)
let annotate_happens_before ~tag = client (Happens_before { tag })

let annotate_happens_after ~tag = client (Happens_after { tag })

(* --- call stack maintenance --------------------------------------- *)

(** Run [f] with [loc] pushed on the simulated call stack. *)
let with_frame loc f =
  push_frame loc;
  Fun.protect ~finally:pop_frame f
