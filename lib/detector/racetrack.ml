(** RaceTrack-style adaptive detection — the paper's citation [16]
    (Yu, Rodeheffer & Chen, "RaceTrack: efficient detection of data
    race conditions via adaptive tracking", SOSP 2005).

    Per memory location the detector keeps a {e threadset}: the set of
    (thread, clock) stamps of accesses not yet ordered-before the
    current access by the happens-before relation.  On each access the
    set is pruned with vector clocks; while it holds at most one thread
    the location is effectively exclusive and the candidate lock-set
    stays at ⊤, so initialisation, read-sharing {e and ownership
    transfer through any synchronisation} (including the queue handoffs
    of §4.2.3) are accepted without annotations.  Only while the
    threadset is genuinely concurrent does lock-set refinement and
    checking run.

    The trade-off mirrors the paper's §2.2 discussion: RaceTrack
    removes the lock-set algorithm's residual false positives at the
    price of the happens-before family's schedule dependence. *)

module Vm = Raceguard_vm
open Vm.Event

type cell = {
  mutable lockset : Lockset.t;
  mutable threadset : (int * int) list;  (** (tid, clock) stamps *)
}

type t = {
  clocks : Hb_clocks.t;
  mutable shadow : cell array;  (** indexed by word address *)
  mutable locks : Held_locks.t array;  (** indexed by tid *)
  lock_names : (int, string) Hashtbl.t;
  collector : Report.collector;
  mutable benign : (int * int) list;
}

let create ?on_report () =
  {
    clocks = Hb_clocks.create ();
    shadow = [||];
    locks = [||];
    lock_names = Hashtbl.create 64;
    collector = Report.collector ?on_report ();
    benign = [];
  }

let locations t = Report.locations t.collector
let location_count t = Report.location_count t.collector
let collector t = t.collector

let thread_locks t tid =
  if tid >= Array.length t.locks then
    t.locks <- Dense.grow t.locks tid ~floor:16 Held_locks.create;
  Array.unsafe_get t.locks tid

let fresh_cell () = { lockset = Lockset.top; threadset = [] }

let cell t addr =
  if addr >= Array.length t.shadow then
    t.shadow <- Dense.grow t.shadow addr ~floor:4096 fresh_cell;
  Array.unsafe_get t.shadow addr

let reset_cell c =
  c.lockset <- Lockset.top;
  c.threadset <- []

let is_benign t addr = List.exists (fun (b, l) -> addr >= b && addr < b + l) t.benign

let name_of t uid =
  match Hashtbl.find_opt t.lock_names uid with
  | Some n -> Printf.sprintf "%S" n
  | None -> Printf.sprintf "lock#%d" uid

let report t ctx ~kind ~tid ~addr ~loc (c : cell) =
  Report.add t.collector
    (Report.of_access ctx ~kind ~tid ~addr ~loc
       (Fmt.str "Threadset of %d concurrent thread(s); candidate set %a"
          (List.length c.threadset)
          (Lockset.pp ~name_of:(name_of t))
          c.lockset))

type access = Read | Write

let check_access t ctx ~access ~tid ~addr ~atomic ~loc =
  let c = cell t addr in
  match c.threadset with
  | [ (u, k) ] when u = tid && k = Hb_clocks.clock_of t.clocks tid ->
      (* steady-state exclusive: prune + restamp is the identity, and
         the previous access already reset the lock-set to ⊤ *)
      ()
  | _ ->
  (* prune stamps that happen-before this access *)
  c.threadset <-
    List.filter
      (fun (u, clk) -> not (Hb_clocks.ordered_before t.clocks ~tid:u ~clk ~now:tid))
      c.threadset;
  c.threadset <-
    (tid, Hb_clocks.clock_of t.clocks tid) :: List.remove_assoc tid c.threadset;
  if List.length c.threadset <= 1 then
    (* effectively exclusive again: adaptive reset *)
    c.lockset <- Lockset.top
  else begin
    let any_set, write_set = Held_locks.effective (thread_locks t tid) ~atomic in
    let ls =
      match access with
      | Read -> Lockset.inter c.lockset any_set
      | Write -> Lockset.inter c.lockset write_set
    in
    c.lockset <- ls;
    if Lockset.is_empty ls && not (is_benign t addr) then
      match access with
      | Write -> report t ctx ~kind:Report.Race_write ~tid ~addr ~loc c
      | Read -> report t ctx ~kind:Report.Race_read ~tid ~addr ~loc c
  end

let acquire t tid uid mode = Held_locks.acquire (thread_locks t tid) uid mode
let release t tid uid = Held_locks.release (thread_locks t tid) uid

let on_event t (ctx : Vm.Tool.ctx) (e : Vm.Event.t) =
  (* clocks first: an acquire's edge must be visible to the accesses
     that follow it, and the access pruning below reads them *)
  Hb_clocks.on_event t.clocks e;
  match e with
  | E_read { tid; addr; atomic; loc; _ } -> check_access t ctx ~access:Read ~tid ~addr ~atomic ~loc
  | E_write { tid; addr; atomic; loc; _ } ->
      check_access t ctx ~access:Write ~tid ~addr ~atomic ~loc
  | E_alloc { addr; len; _ } -> Dense.iter_range t.shadow ~addr ~len reset_cell
  | E_sync_create { sync; name; _ } -> (
      match Lock_id.of_sync_ref sync with
      | Some uid -> Hashtbl.replace t.lock_names uid name
      | None -> ())
  | E_acquire { tid; lock; mode; _ } -> (
      match lock with
      | Mutex m -> acquire t tid (Lock_id.of_mutex m) Vm.Eff.Write_mode
      | Rwlock rw -> acquire t tid (Lock_id.of_rwlock rw) mode
      | Cond _ | Sem _ -> ())
  | E_release { tid; lock; _ } -> (
      match lock with
      | Mutex m -> release t tid (Lock_id.of_mutex m)
      | Rwlock rw -> release t tid (Lock_id.of_rwlock rw)
      | Cond _ | Sem _ -> ())
  | E_client { req = Vm.Eff.Benign_race { addr; len }; _ } ->
      t.benign <- (addr, len) :: t.benign
  | E_thread_start _ | E_thread_exit _ | E_spawn _ | E_join _ | E_free _ | E_cond_signal _
  | E_cond_wait_pre _ | E_cond_wait_post _ | E_sem_post _ | E_sem_wait_post _ | E_client _ ->
      ()

let tool t = Vm.Tool.make ~name:"racetrack" ~on_event:(on_event t)
