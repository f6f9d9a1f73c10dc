(** Per-thread held-lock bookkeeping shared by the lock-set detectors
    ({!Helgrind}, {!Racetrack}).

    The uid lists (unsorted, may hold duplicates for re-entrant
    rw-lock read acquisition) are the source of truth.  The four
    {e interned} lock-sets an access can need — held-any / held-write,
    each with and without the virtual bus lock — are bundled into a
    {!ctx} record, and ctx transitions are memoised process-globally
    keyed by (ctx, uid, mode): after warm-up an acquire is one hash
    probe, and a LIFO release (the overwhelmingly common discipline)
    restores the pre-acquire snapshot without touching any table. *)

type ctx = {
  c_id : int;
  any_set : Lockset.t;
  any_bus : Lockset.t;  (** [any_set] + the virtual bus lock *)
  write_set : Lockset.t;
  write_bus : Lockset.t;
}

module Int_list = Raceguard_util.Int_list
module Metrics = Raceguard_obs.Metrics

let m_ctx_count = Metrics.gauge "detector.held_locks.ctx_count"
let m_transition_hits = Metrics.counter "detector.held_locks.transition_memo_hits"
let m_transition_misses = Metrics.counter "detector.held_locks.transition_memo_misses"
let m_nonlifo_releases = Metrics.counter "detector.held_locks.nonlifo_releases"

(* The whole memo store — including the root ctx, whose bus set is an
   interned lockset — is domain-local (Domain.DLS).  The multicore pool
   runs independent cells on several domains; lockset interning is
   domain-local, so a ctx built on one domain must never be extended on
   another (its set ids would collide with the other domain's memo
   keys), and a shared Hashtbl would be a crash hazard anyway.  Each
   detector instance lives and dies on one domain, so every ctx it ever
   sees comes from its own domain's store. *)
type store = { mutable ctx_count : int; s_root : ctx; transitions : (int, ctx) Hashtbl.t }
(** [transitions]: (c_id, uid, mode) -> successor ctx.  uids share the
    24-bit guard of lockset ids; ctx ids stay far below 2^30. *)

let store_key : store Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let bus = Lockset.of_list [ Lock_id.bus ] in
      {
        ctx_count = 1;
        s_root =
          {
            c_id = 0;
            any_set = Lockset.empty;
            any_bus = bus;
            write_set = Lockset.empty;
            write_bus = bus;
          };
        transitions = Hashtbl.create 256;
      })

let store () = Domain.DLS.get store_key
let root () = (store ()).s_root

let fresh_ctx st ~any_set ~any_bus ~write_set ~write_bus =
  let c = { c_id = st.ctx_count; any_set; any_bus; write_set; write_bus } in
  st.ctx_count <- st.ctx_count + 1;
  Metrics.set m_ctx_count st.ctx_count;
  c

let transition c uid (mode : Raceguard_vm.Eff.mode) =
  let st = store () in
  let mode_bit = match mode with Raceguard_vm.Eff.Write_mode -> 1 | Read_mode -> 0 in
  let key = (c.c_id lsl 26) lor (uid lsl 1) lor mode_bit in
  match Hashtbl.find st.transitions key with
  | c' ->
      Metrics.incr m_transition_hits;
      c'
  | exception Not_found ->
      Metrics.incr m_transition_misses;
      let c' =
        match mode with
        | Raceguard_vm.Eff.Write_mode ->
            fresh_ctx st
              ~any_set:(Lockset.add uid c.any_set)
              ~any_bus:(Lockset.add uid c.any_bus)
              ~write_set:(Lockset.add uid c.write_set)
              ~write_bus:(Lockset.add uid c.write_bus)
        | Raceguard_vm.Eff.Read_mode ->
            fresh_ctx st
              ~any_set:(Lockset.add uid c.any_set)
              ~any_bus:(Lockset.add uid c.any_bus)
              ~write_set:c.write_set ~write_bus:c.write_bus
      in
      Hashtbl.add st.transitions key c';
      c'

type snap = { s_uid : int; s_held_any : int list; s_held_write : int list; s_ctx : ctx }
(** the full state before one acquire; a LIFO release restores it *)

type t = {
  mutable held_any : int list;  (** uids held in any mode *)
  mutable held_write : int list;  (** uids held in write mode *)
  mutable ctx : ctx;
  mutable snaps : snap list;
      (** snapshots of unreleased acquires, newest first — valid as
          long as releases arrive in LIFO order; cleared on the first
          out-of-order release *)
}

let create () = { held_any = []; held_write = []; ctx = root (); snaps = [] }

let acquire t uid (mode : Raceguard_vm.Eff.mode) =
  t.snaps <-
    { s_uid = uid; s_held_any = t.held_any; s_held_write = t.held_write; s_ctx = t.ctx }
    :: t.snaps;
  t.held_any <- uid :: t.held_any;
  (match mode with
  | Raceguard_vm.Eff.Write_mode -> t.held_write <- uid :: t.held_write
  | Raceguard_vm.Eff.Read_mode -> ());
  t.ctx <- transition t.ctx uid mode

(* cold path: rebuild a ctx from the uid lists after a non-LIFO
   release; the sets are interned so equal rebuilds stay cheap to
   compare, and transitions from the fresh ctx re-memoise *)
let recompute held_any held_write =
  let any_set = Lockset.of_list held_any in
  let write_set = Lockset.of_list held_write in
  fresh_ctx (store ()) ~any_set
    ~any_bus:(Lockset.add Lock_id.bus any_set)
    ~write_set
    ~write_bus:(Lockset.add Lock_id.bus write_set)

let release t uid =
  match t.snaps with
  | s :: rest when s.s_uid = uid ->
      (* LIFO release: restore the pre-acquire state wholesale *)
      t.held_any <- s.s_held_any;
      t.held_write <- s.s_held_write;
      t.ctx <- s.s_ctx;
      t.snaps <- rest
  | _ ->
      Metrics.incr m_nonlifo_releases;
      t.snaps <- [];
      t.held_any <- Int_list.remove_one uid t.held_any;
      t.held_write <- Int_list.remove_one uid t.held_write;
      t.ctx <- recompute t.held_any t.held_write

(** The effective (any, write) lock-sets of one access under the
    paper's HWLC model: every read implicitly holds the bus lock in
    read mode, so the any-set always contains it; only [atomic]
    accesses hold it in write mode. *)
let effective t ~atomic =
  let c = t.ctx in
  (c.any_bus, if atomic then c.write_bus else c.write_set)
