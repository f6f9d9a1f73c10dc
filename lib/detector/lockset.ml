(** Lock-sets: the candidate sets C(v) of the Eraser algorithm,
    hash-consed à la Eraser's original lockset-index design.

    Every distinct set is interned exactly once into a global table and
    represented by a small integer id, so
    - equality is physical ([==], one comparison),
    - the per-word shadow state stores one immutable pointer,
    - intersections are memoised in a pair-of-ids-keyed cache: the hot
      path of the detector (steady-state [inter] of the same two sets
      on every access) is a single hash probe instead of an array merge
      plus allocation.

    [Top] is the initial "set of all locks" — intersecting anything
    with it yields the other operand, so we never need to materialise
    the universe. *)

module Iss = Raceguard_util.Int_sorted_set
module Metrics = Raceguard_obs.Metrics

(* The single stats path: these instruments live in the process-global
   registry; [stats ()] reads the same handles, so E9, the bench and
   the runner all see one source of truth. *)
let m_interned = Metrics.gauge "detector.lockset.interned"
let m_inter_memo_entries = Metrics.gauge "detector.lockset.inter_memo_entries"
let m_memo_hits = Metrics.counter "detector.lockset.inter_memo_hits"
let m_memo_misses = Metrics.counter "detector.lockset.inter_memo_misses"

type repr = Top | Set of Iss.t
type t = { id : int; repr : repr }

(* ------------------------------------------------------------------ *)
(* The intern table                                                    *)
(* ------------------------------------------------------------------ *)

module Key = struct
  type t = Iss.t

  let equal = Iss.equal
  let hash (s : t) = Hashtbl.hash (s : Iss.t :> int array)
end

module Intern = Hashtbl.Make (Key)

let top = { id = 0; repr = Top }
let empty = { id = 1; repr = Set Iss.empty }

(* the memo key packs both ids into one immediate int (no tuple
   allocation on the hot path); [intern] guards the 24-bit id space *)
module Memo = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (k : int) = Hashtbl.hash k
end)

(* ids are domain-global: lock uids restart per VM instance, so the
   universe of distinct sets stays small even across many runs.  The
   whole intern/memo store is domain-local (Domain.DLS): the multicore
   pool runs independent cells on several domains, and sharing one
   Hashtbl across them would be both a crash hazard and an id-space
   collision (memo keys embed ids).  Physical equality of sets holds
   within a domain — exactly the scope of any one cell's detectors. *)
type store = {
  mutable next_id : int;
  table : t Intern.t;
  inter_memo : t Memo.t;
  add_memo : t Memo.t;
  remove_memo : t Memo.t;
}

let store_key : store Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        next_id = 2;
        table = Intern.create 256;
        inter_memo = Memo.create 1024;
        add_memo = Memo.create 256;
        remove_memo = Memo.create 256;
      })

let store () = Domain.DLS.get store_key

let intern_in st (s : Iss.t) =
  if Iss.is_empty s then empty
  else
    match Intern.find_opt st.table s with
    | Some t -> t
    | None ->
        if st.next_id >= 0xFFFFFF then failwith "Lockset: intern id space exhausted";
        let t = { id = st.next_id; repr = Set s } in
        st.next_id <- st.next_id + 1;
        Intern.add st.table s t;
        Metrics.set m_interned (st.next_id - 2);
        t

let intern s = intern_in (store ()) s

let of_list l = intern (Iss.of_list l)

(* --- memoised intersection ---------------------------------------- *)

let inter a b =
  if a == b then a
  else
    match (a.repr, b.repr) with
    | Top, _ -> b
    | _, Top -> a
    | Set sa, Set sb -> (
        let st = store () in
        let key =
          if a.id <= b.id then (a.id lsl 24) lor b.id else (b.id lsl 24) lor a.id
        in
        (* Hashtbl.find over find_opt: no [Some] allocation on the hit
           path, and hits dominate after warm-up *)
        match Memo.find st.inter_memo key with
        | r ->
            Metrics.incr m_memo_hits;
            r
        | exception Not_found ->
            Metrics.incr m_memo_misses;
            let r = intern_in st (Iss.inter sa sb) in
            Memo.add st.inter_memo key r;
            Metrics.set m_inter_memo_entries (Memo.length st.inter_memo);
            r)

let union a b =
  match (a.repr, b.repr) with
  | Top, _ | _, Top -> top
  | Set sa, Set sb -> intern (Iss.union sa sb)

(* add/remove run on every acquire/release — in lock-heavy workloads
   that is a third of all events — so they are memoised too, keyed by
   (element, set id).  Lock uids share the 24-bit guard of set ids. *)

let add x t =
  match t.repr with
  | Top -> top
  | Set s -> (
      let st = store () in
      let key = (x lsl 24) lor t.id in
      match Memo.find st.add_memo key with
      | r -> r
      | exception Not_found ->
          let r = intern_in st (Iss.add x s) in
          Memo.add st.add_memo key r;
          r)

let remove x t =
  match t.repr with
  | Top -> top
  | Set s -> (
      let st = store () in
      let key = (x lsl 24) lor t.id in
      match Memo.find st.remove_memo key with
      | r -> r
      | exception Not_found ->
          let r = intern_in st (Iss.remove x s) in
          Memo.add st.remove_memo key r;
          r)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let id t = t.id
let is_empty t = t == empty
let equal (a : t) b = a == b
let mem x t = match t.repr with Top -> true | Set s -> Iss.mem x s
let cardinal t = match t.repr with Top -> max_int | Set s -> Iss.cardinal s
let to_list t = match t.repr with Top -> None | Set s -> Some (Iss.to_list s)

let pp ~name_of ppf t =
  match t.repr with
  | Top -> Fmt.string ppf "<all locks>"
  | Set s ->
      if Iss.is_empty s then Fmt.string ppf "no locks"
      else
        Fmt.pf ppf "{%a}"
          Fmt.(list ~sep:(any ", ") (fun ppf uid -> Lock_id.pp ~name_of ppf uid))
          (Iss.to_list s)
