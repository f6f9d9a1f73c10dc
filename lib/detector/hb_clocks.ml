(** Shared happens-before clock maintenance.

    Both vector-clock-based detectors ({!Djit}, {!Racetrack}) need the
    same bookkeeping: a clock per thread, advanced and joined along
    create/join edges, lock release→acquire edges, and (configurably)
    condition-variable, semaphore and annotation edges.  This module
    owns that state; detectors keep only their shadow memory. *)

module Vm = Raceguard_vm
module Vc = Vector_clock
open Vm.Event

type config = { sync_on_cond : bool; sync_on_sem : bool; sync_on_annotations : bool }

let default_config = { sync_on_cond = true; sync_on_sem = true; sync_on_annotations = true }

type t = {
  config : config;
  mutable threads : Vc.t option array;
      (** dense by tid — [thread_vc] runs once per memory access in
          every vector-clock detector, so this lookup must be an array
          load, not a hash probe *)
  mutexes : (int, Vc.t) Hashtbl.t;
  rwlocks : (int, Vc.t) Hashtbl.t;
  conds : (int, Vc.t) Hashtbl.t;
  sems : (int, Vc.t) Hashtbl.t;
  annotations : (int, Vc.t) Hashtbl.t;
  exited : (int, Vc.t) Hashtbl.t;
}

let create ?(config = default_config) () =
  {
    config;
    threads = [||];
    mutexes = Hashtbl.create 64;
    rwlocks = Hashtbl.create 16;
    conds = Hashtbl.create 16;
    sems = Hashtbl.create 16;
    annotations = Hashtbl.create 64;
    exited = Hashtbl.create 64;
  }

let vc_of tbl id =
  match Hashtbl.find_opt tbl id with
  | Some vc -> vc
  | None ->
      let vc = Vc.create () in
      Hashtbl.replace tbl id vc;
      vc

let set_thread_vc t tid vc =
  if tid >= Array.length t.threads then
    t.threads <- Dense.grow t.threads tid ~floor:64 (fun () -> None);
  t.threads.(tid) <- Some vc

let thread_vc t tid =
  if tid < Array.length t.threads then
    match Array.unsafe_get t.threads tid with
    | Some vc -> vc
    | None ->
        let vc = Vc.create () in
        Vc.set vc tid 1;
        t.threads.(tid) <- Some vc;
        vc
  else begin
    let vc = Vc.create () in
    Vc.set vc tid 1;
    set_thread_vc t tid vc;
    vc
  end

(** The accessing thread's current clock entry for itself — the stamp
    to record on a shadow cell. *)
let clock_of t tid = Vc.get (thread_vc t tid) tid

(** Is an access stamped (tid, clk) ordered before thread [now]'s
    current state? *)
let ordered_before t ~tid ~clk ~now =
  Vc.ordered_before ~tid ~clk (thread_vc t now)

let release_edge t tid obj_vc =
  let me = thread_vc t tid in
  Vc.join obj_vc me;
  Vc.incr me tid

let acquire_edge t tid obj_vc = Vc.join (thread_vc t tid) obj_vc

(** Absorb one event's effect on the clocks.  Memory events are
    ignored — they are the detectors' business. *)
let on_event t (e : Vm.Event.t) =
  match e with
  | E_thread_start { tid; parent; _ } -> (
      match parent with
      | None -> ignore (thread_vc t tid)
      | Some p ->
          let pvc = thread_vc t p in
          let child = Vc.copy pvc in
          Vc.incr child tid;
          set_thread_vc t tid child;
          Vc.incr pvc p)
  | E_thread_exit { tid } -> Hashtbl.replace t.exited tid (Vc.copy (thread_vc t tid))
  | E_join { joiner; joined; _ } ->
      let last =
        match Hashtbl.find_opt t.exited joined with
        | Some vc -> vc
        | None -> thread_vc t joined
      in
      Vc.join (thread_vc t joiner) last
  | E_acquire { tid; lock; _ } -> (
      match lock with
      | Mutex m -> acquire_edge t tid (vc_of t.mutexes m)
      | Rwlock rw -> acquire_edge t tid (vc_of t.rwlocks rw)
      | Cond _ | Sem _ -> ())
  | E_release { tid; lock; _ } -> (
      match lock with
      | Mutex m -> release_edge t tid (vc_of t.mutexes m)
      | Rwlock rw -> release_edge t tid (vc_of t.rwlocks rw)
      | Cond _ | Sem _ -> ())
  | E_cond_signal { tid; cv; _ } ->
      if t.config.sync_on_cond then release_edge t tid (vc_of t.conds cv)
  | E_cond_wait_post { tid; cv; _ } ->
      if t.config.sync_on_cond then acquire_edge t tid (vc_of t.conds cv)
  | E_sem_post { tid; sem; _ } ->
      if t.config.sync_on_sem then release_edge t tid (vc_of t.sems sem)
  | E_sem_wait_post { tid; sem; _ } ->
      if t.config.sync_on_sem then acquire_edge t tid (vc_of t.sems sem)
  | E_client { tid; req; _ } -> (
      match req with
      | Vm.Eff.Happens_before { tag } ->
          if t.config.sync_on_annotations then release_edge t tid (vc_of t.annotations tag)
      | Vm.Eff.Happens_after { tag } ->
          if t.config.sync_on_annotations then acquire_edge t tid (vc_of t.annotations tag)
      | Vm.Eff.Destruct _ | Vm.Eff.Benign_race _ -> ())
  | E_spawn _ | E_cond_wait_pre _ | E_read _ | E_write _ | E_alloc _ | E_free _
  | E_sync_create _ ->
      ()
