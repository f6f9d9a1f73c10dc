(** Thread segments and their happens-before graph (Figure 2).

    A thread's execution is cut into {e segments} at thread-create and
    thread-join operations.  Memory that is only ever touched by
    segments that are totally ordered in the segment graph is still
    exclusively owned even if the touching threads differ — the
    VisualThreads refinement that suppresses the producer/worker false
    positives of the thread-per-request pattern (Figure 10).

    Segment ids increase monotonically and a segment's parents are
    always older, so reachability queries can prune by id.  Queries are
    memoised: the graph is append-only and existing edges never
    change. *)

module Growvec = Raceguard_util.Growvec

type seg = int

type t = {
  parents : seg list Growvec.t;
  mutable current : int array;  (** tid -> active segment, [-1] = unseen *)
  last_of_thread : (int, seg) Hashtbl.t;  (** tid -> final segment at exit *)
  memo : (int, bool) Hashtbl.t;  (** (a * n + b) -> reachability *)
  tags : (int, seg) Hashtbl.t;  (** HAPPENS_BEFORE tag -> sender segment *)
}

let create () =
  {
    parents = Growvec.create ~dummy:[];
    current = Array.make 16 (-1);
    last_of_thread = Hashtbl.create 64;
    memo = Hashtbl.create 4096;
    tags = Hashtbl.create 64;
  }

let new_seg t parents = Growvec.push t.parents parents

let set_current t tid s =
  if tid >= Array.length t.current then
    t.current <- Dense.grow t.current tid ~floor:0 (fun () -> -1);
  t.current.(tid) <- s

(* the hottest query of the detector: one bounds check and a load *)
let seg_of t tid =
  if tid < Array.length t.current && Array.unsafe_get t.current tid >= 0 then
    Array.unsafe_get t.current tid
  else begin
    (* a thread we never saw start (e.g. tool attached mid-run) *)
    let s = new_seg t [] in
    set_current t tid s;
    s
  end

let on_thread_start t ~tid ~parent =
  match parent with
  | None -> ignore (seg_of t tid)
  | Some p ->
      (* split the parent's segment: parent continues in a fresh
         segment, the child starts in another; both descend from the
         parent's segment before the create. *)
      let ps = seg_of t p in
      let parent_cont = new_seg t [ ps ] in
      let child_start = new_seg t [ ps ] in
      set_current t p parent_cont;
      set_current t tid child_start

let on_thread_exit t ~tid = Hashtbl.replace t.last_of_thread tid (seg_of t tid)

(** HAPPENS_BEFORE annotation (§5 extension): remember the announcing
    thread's segment under [tag] and move the thread into a fresh
    segment — like the sender half of a create edge. *)
let on_happens_before t ~tid ~tag =
  let s = seg_of t tid in
  Hashtbl.replace t.tags tag s;
  set_current t tid (new_seg t [ s ])

(** HAPPENS_AFTER: the observing thread's next segment descends from
    both its own past and the announced segment — like a join edge. *)
let on_happens_after t ~tid ~tag =
  match Hashtbl.find_opt t.tags tag with
  | None -> ()  (* no matching BEFORE observed: no edge *)
  | Some sender ->
      set_current t tid (new_seg t [ seg_of t tid; sender ])

let on_join t ~joiner ~joined =
  let last =
    match Hashtbl.find_opt t.last_of_thread joined with
    | Some s -> s
    | None -> seg_of t joined
  in
  let j = new_seg t [ seg_of t joiner; last ] in
  set_current t joiner j

(** [happens_before t a b]: is segment [a] an ancestor of (or equal to)
    segment [b] in the segment graph? *)
let happens_before t a b =
  if a = b then true
  else if a > b then false
  else
    let key = (a * 1_000_003) + b in
    match Hashtbl.find_opt t.memo key with
    | Some r -> r
    | None ->
        let rec search = function
          | [] -> false
          | s :: rest ->
              if s = a then true
              else if s < a then search rest
              else search (List.rev_append (Growvec.get t.parents s) rest)
        in
        let r = search (Growvec.get t.parents b) in
        Hashtbl.replace t.memo key r;
        r

let count t = Growvec.length t.parents
