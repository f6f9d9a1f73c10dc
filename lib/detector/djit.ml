(** DJIT-style happens-before race detector (Itzkovitz et al., §2.2).

    Pure vector-clock detection: an access races iff it is concurrent
    (unordered by the happens-before relation induced by thread
    create/join and synchronisation operations) with a previous
    conflicting access to the same location.

    Per the paper's discussion:
    - DJIT reports only {e apparent} races on the observed execution —
      a subset of what the lock-set approach flags — so it misses races
      that a different schedule would expose (its false negatives are
      the lock-set's strength);
    - "it detects only the first apparent data race" per location:
      [first_only] reproduces this (default true). *)

module Loc = Raceguard_util.Loc
module Vm = Raceguard_vm
module Vc = Vector_clock
open Vm.Event

type last_access = { a_tid : int; a_clk : int; a_loc : Loc.t }

type cell = {
  mutable last_write : last_access option;
  mutable reads : last_access list;  (** one per tid since last write *)
  mutable dead : bool;  (** stop checking after first report *)
}

type t = {
  first_only : bool;
  clocks : Hb_clocks.t;  (** shared happens-before machinery *)
  mutable shadow : cell array;
      (** dense, indexed by word address — the VM allocator hands out
          dense word indices, so a direct-mapped array (as in
          {!Helgrind}) beats hashing on every access {e and} makes
          allocation-range re-initialisation a plain sweep *)
  collector : Report.collector;
}

let create ?(first_only = true) ?on_report ?suppressions () =
  {
    first_only;
    clocks = Hb_clocks.create ();
    shadow = [||];
    collector = Report.collector ?on_report ?suppressions ();
  }

let locations t = Report.locations t.collector
let location_count t = Report.location_count t.collector
let collector t = t.collector

let thread_vc t tid = Hb_clocks.thread_vc t.clocks tid

let fresh_cell () = { last_write = None; reads = []; dead = false }

let cell t addr =
  if addr >= Array.length t.shadow then
    t.shadow <- Dense.grow t.shadow addr ~floor:4096 fresh_cell;
  Array.unsafe_get t.shadow addr

let reset_cell c =
  c.last_write <- None;
  c.reads <- [];
  c.dead <- false

let report t ctx ~kind ~tid ~addr ~loc ~(prev : last_access) =
  Report.add t.collector
    (Report.of_access ctx ~kind ~tid ~addr ~loc
       (Report.unordered_detail ~prev_tid:prev.a_tid ~prev_loc:prev.a_loc))

let check_read t ctx ~tid ~addr ~loc =
  let c = cell t addr in
  if not c.dead then begin
    let me = thread_vc t tid in
    (match c.last_write with
    | Some w when w.a_tid <> tid && not (Vc.ordered_before ~tid:w.a_tid ~clk:w.a_clk me) ->
        report t ctx ~kind:Report.Race_read ~tid ~addr ~loc ~prev:w;
        if t.first_only then c.dead <- true
    | _ -> ());
    if not c.dead then
      c.reads <-
        { a_tid = tid; a_clk = Vc.get me tid; a_loc = loc }
        :: List.filter (fun r -> r.a_tid <> tid) c.reads
  end

let check_write t ctx ~tid ~addr ~loc =
  let c = cell t addr in
  if not c.dead then begin
    let me = thread_vc t tid in
    let conflicts =
      (match c.last_write with Some w when w.a_tid <> tid -> [ w ] | _ -> [])
      @ List.filter (fun r -> r.a_tid <> tid) c.reads
    in
    (match
       List.find_opt (fun a -> not (Vc.ordered_before ~tid:a.a_tid ~clk:a.a_clk me)) conflicts
     with
    | Some prev ->
        report t ctx ~kind:Report.Race_write ~tid ~addr ~loc ~prev;
        if t.first_only then c.dead <- true
    | None -> ());
    if not c.dead then begin
      c.last_write <- Some { a_tid = tid; a_clk = Vc.get me tid; a_loc = loc };
      c.reads <- []
    end
  end

let on_event t (ctx : Vm.Tool.ctx) (e : Vm.Event.t) =
  Hb_clocks.on_event t.clocks e;
  match e with
  | E_read { tid; addr; loc; _ } -> check_read t ctx ~tid ~addr ~loc
  | E_write { tid; addr; loc; _ } -> check_write t ctx ~tid ~addr ~loc
  | E_alloc { addr; len; _ } -> Dense.iter_range t.shadow ~addr ~len reset_cell
  | E_thread_start _ | E_thread_exit _ | E_join _ | E_spawn _ | E_free _ | E_sync_create _
  | E_acquire _ | E_release _ | E_cond_signal _ | E_cond_wait_pre _ | E_cond_wait_post _
  | E_sem_post _ | E_sem_wait_post _ | E_client _ ->
      ()

let tool t = Vm.Tool.make ~name:"djit" ~on_event:(on_event t)
