(** Lock-order analysis: predictive deadlock detection.

    Helgrind "also does dead-lock detection" (§3.3), making the
    application's home-grown timeout-based detector (which itself
    contained one of the data races found, §4.1) unnecessary.  The
    classical technique: record the order in which each thread nests
    lock acquisitions; if thread A ever takes L1 then L2 while thread B
    takes L2 then L1, the program can deadlock even if this run did
    not.  We build the acquisition-order graph and report every edge
    that closes a cycle. *)

module Loc = Raceguard_util.Loc
module Int_list = Raceguard_util.Int_list
module Vm = Raceguard_vm
open Vm.Event

type edge_info = { e_tid : int; e_stack : Loc.t list; e_clock : int }

type t = {
  held : (int, int list) Hashtbl.t;  (** tid -> uids held, innermost first *)
  edges : (int * int, edge_info) Hashtbl.t;  (** (before, after) *)
  succs : (int, int list ref) Hashtbl.t;
  lock_names : (int, string) Hashtbl.t;
  collector : Report.collector;
  mutable reported_pairs : (int * int) list;
}

let create ?(suppressions = []) () =
  {
    held = Hashtbl.create 64;
    edges = Hashtbl.create 256;
    succs = Hashtbl.create 64;
    lock_names = Hashtbl.create 64;
    collector = Report.collector ~suppressions ();
    reported_pairs = [];
  }

let reports t = Report.occurrences t.collector
let locations t = Report.locations t.collector
let location_count t = Report.location_count t.collector
let collector t = t.collector

let name_of t uid =
  match Hashtbl.find_opt t.lock_names uid with
  | Some n -> Printf.sprintf "%S" n
  | None -> Printf.sprintf "lock#%d" uid

let succs t uid =
  match Hashtbl.find_opt t.succs uid with
  | Some l -> !l
  | None -> []

let add_succ t a b =
  match Hashtbl.find_opt t.succs a with
  | Some l -> if not (List.mem b !l) then l := b :: !l
  | None -> Hashtbl.replace t.succs a (ref [ b ])

(* is [target] reachable from [from] in the order graph? *)
let reachable t ~from ~target =
  let visited = Hashtbl.create 16 in
  let rec go uid =
    uid = target
    || (not (Hashtbl.mem visited uid))
       && begin
            Hashtbl.replace visited uid ();
            List.exists go (succs t uid)
          end
  in
  go from

let report_cycle t (ctx : Vm.Tool.ctx) ~tid ~held_uid ~new_uid ~loc =
  let pair = (min held_uid new_uid, max held_uid new_uid) in
  if not (List.mem pair t.reported_pairs) then begin
    t.reported_pairs <- pair :: t.reported_pairs;
    let other =
      match Hashtbl.find_opt t.edges (new_uid, held_uid) with
      | Some e -> Fmt.str "; opposite order taken by thread %d" e.e_tid
      | None -> ""
    in
    Report.add t.collector
      {
        Report.kind = Report.Lock_order;
        addr = new_uid;
        tid;
        thread_name = ctx.thread_name tid;
        stack = loc :: ctx.stack_of tid;
        detail =
          Fmt.str "acquiring %s while holding %s inverts an established order%s"
            (name_of t new_uid) (name_of t held_uid) other;
        block = None;
        clock = ctx.clock ();
        provenance = None;
      }
  end

let on_acquire t ctx ~tid ~uid ~loc =
  let held = match Hashtbl.find_opt t.held tid with Some h -> h | None -> [] in
  List.iter
    (fun h ->
      if h <> uid then begin
        (* adding edge h -> uid; a path uid -> h means a cycle *)
        if reachable t ~from:uid ~target:h then report_cycle t ctx ~tid ~held_uid:h ~new_uid:uid ~loc;
        if not (Hashtbl.mem t.edges (h, uid)) then begin
          Hashtbl.replace t.edges (h, uid) { e_tid = tid; e_stack = ctx.stack_of tid; e_clock = ctx.clock () };
          add_succ t h uid
        end
      end)
    held;
  Hashtbl.replace t.held tid (uid :: held)

let on_release t ~tid ~uid =
  match Hashtbl.find_opt t.held tid with
  | None -> ()
  | Some held -> Hashtbl.replace t.held tid (Int_list.remove_one uid held)

let on_event t (ctx : Vm.Tool.ctx) (e : Vm.Event.t) =
  match e with
  | E_sync_create { sync; name; _ } -> (
      match Lock_id.of_sync_ref sync with
      | Some uid -> Hashtbl.replace t.lock_names uid name
      | None -> ())
  | E_acquire { tid; lock; loc; _ } -> (
      match Lock_id.of_sync_ref lock with
      | Some uid -> on_acquire t ctx ~tid ~uid ~loc
      | None -> ())
  | E_release { tid; lock; _ } -> (
      match Lock_id.of_sync_ref lock with
      | Some uid -> on_release t ~tid ~uid
      | None -> ())
  | E_thread_start _ | E_thread_exit _ | E_spawn _ | E_join _ | E_read _ | E_write _
  | E_alloc _ | E_free _ | E_cond_signal _ | E_cond_wait_pre _ | E_cond_wait_post _
  | E_sem_post _ | E_sem_wait_post _ | E_client _ ->
      ()

let tool t = Vm.Tool.make ~name:"lock-order" ~on_event:(on_event t)

(* ------------------------------------------------------------------ *)
(* Pure acquisition-order graphs over hypothetical edges               *)
(* ------------------------------------------------------------------ *)

(** A persistent acquisition-order graph for what-if queries: the
    repair engine builds one from the static nesting structure of a
    program (original and patched) and asks whether a candidate patch
    introduces an inversion that was not already possible. *)
module Static_graph = struct
  module IMap = Map.Make (Int)
  module ISet = Set.Make (Int)

  type nonrec t = { g_succs : ISet.t IMap.t }

  let empty = { g_succs = IMap.empty }

  let succs g a =
    match IMap.find_opt a g.g_succs with Some s -> s | None -> ISet.empty

  let add_edge g ~before ~after =
    if before = after then g
    else { g_succs = IMap.update before
             (fun o -> Some (ISet.add after (Option.value ~default:ISet.empty o)))
             g.g_succs }

  let of_edges edges =
    List.fold_left (fun g (a, b) -> add_edge g ~before:a ~after:b) empty edges

  let edges g =
    IMap.fold (fun a s acc -> ISet.fold (fun b acc -> (a, b) :: acc) s acc) g.g_succs []
    |> List.sort compare

  let reachable g ~from ~target =
    let visited = Hashtbl.create 16 in
    let rec go uid =
      uid = target
      || (not (Hashtbl.mem visited uid))
         && begin
              Hashtbl.replace visited uid ();
              ISet.exists go (succs g uid)
            end
    in
    go from

  let nodes g =
    IMap.fold (fun a s acc -> ISet.add a (ISet.union s acc)) g.g_succs ISet.empty

  (* every unordered pair {a, b} with both a->b and b->a paths — the
     pair need not be directly adjacent (a cycle inverts all its
     member pairs) *)
  let inversions g =
    let ns = ISet.elements (nodes g) in
    let pairs = ref [] in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if a < b && reachable g ~from:a ~target:b && reachable g ~from:b ~target:a
            then pairs := (a, b) :: !pairs)
          ns)
      ns;
    List.sort compare !pairs

  let adds_inversion g ~before ~after =
    before <> after
    && reachable g ~from:after ~target:before
    && not (reachable g ~from:before ~target:after)
end
