(** Call graph for MiniC++ programs.

    Nodes are free functions, methods and destructors; edges are the
    syntactic call/spawn/delete relations, with virtual dispatch
    resolved conservatively (an edge to {e every} class defining the
    called method) and [delete] edged to every destructor (the static
    analogue of the vptr-driven destructor chain).  Roots are [main]
    and every [Spawn] target, which is exactly the set of places a
    thread can start executing.

    The graph feeds {!Static_race}: recursion detection bounds the
    interprocedural walk, and the "may alter locks" summary tells the
    walk how to havoc a call it refuses to inline — a function that
    (transitively) uses the {e unbalanced} lock builtins
    ([mutex_lock]/[mutex_unlock]/[rdlock]/[wrlock]/[rw_unlock]) can
    change the caller's held-lock set across the call, while one that
    only uses scoped [lock (m) { ... }] blocks cannot. *)

open Ast

type node = Ast.node = Func of string | Method of string * string | Dtor of string

let compare_node a b = compare a b

module Node_set = Set.Make (struct
  type t = node

  let compare = compare_node
end)

module Node_map = Map.Make (struct
  type t = node

  let compare = compare_node
end)

type t = {
  nodes : node list;  (** declaration order *)
  edges : Node_set.t Node_map.t;
  roots : node list;  (** [main] first, then spawn targets in source order *)
  unbalanced_locks : Node_set.t;  (** nodes using unbalanced lock builtins directly *)
}

(* the lock builtins whose effect outlives the statement *)
let unbalanced_lock_builtins =
  [ "mutex_lock"; "mutex_unlock"; "rdlock"; "wrlock"; "rw_unlock" ]

let build (p : program) =
  let bodies = bodies p in
  let dtors = List.filter_map (fun c -> Option.map (fun _ -> Dtor c.cls_name) c.cls_dtor) (classes p) in
  let edges = ref Node_map.empty in
  let unbalanced = ref Node_set.empty in
  let spawn_targets = ref [] in
  let add_edge src dst =
    edges :=
      Node_map.update src
        (function None -> Some (Node_set.singleton dst) | Some s -> Some (Node_set.add dst s))
        !edges
  in
  (* post-order, so a spawn target is recorded after its arguments' *)
  let expr src (e : expr) =
    match e.e with
    | Call (name, _) ->
        if List.mem name unbalanced_lock_builtins then unbalanced := Node_set.add src !unbalanced;
        if find_function p name <> None then add_edge src (Func name)
    | Method_call (_, m, _) ->
        List.iter (fun (c, _) -> add_edge src (Method (c.cls_name, m))) (definitions_of p m)
    | Spawn (f, _) when find_function p f <> None ->
        add_edge src (Func f);
        if not (List.mem (Func f) !spawn_targets) then spawn_targets := Func f :: !spawn_targets
    | _ -> ()
  in
  let stmt src (s : stmt) =
    List.iter (iter_expr (expr src)) (own_exprs s);
    match s.s with Delete _ -> List.iter (add_edge src) dtors | _ -> ()
  in
  List.iter (fun (n, _, body) -> List.iter (iter_stmt (stmt n)) body) bodies;
  let roots =
    (if find_function p "main" <> None then [ Func "main" ] else []) @ List.rev !spawn_targets
  in
  { nodes = List.map (fun (n, _, _) -> n) bodies; edges = !edges; roots; unbalanced_locks = !unbalanced }

let nodes t = t.nodes
let roots t = t.roots

let callees t n =
  match Node_map.find_opt n t.edges with None -> [] | Some s -> Node_set.elements s

let n_edges t = Node_map.fold (fun _ s acc -> acc + Node_set.cardinal s) t.edges 0

(* forward reachability from a seed set *)
let closure t seeds =
  let rec go seen = function
    | [] -> seen
    | n :: rest ->
        if Node_set.mem n seen then go seen rest
        else go (Node_set.add n seen) (callees t n @ rest)
  in
  go Node_set.empty seeds

let reachable t = Node_set.elements (closure t t.roots)

let unreachable_functions t =
  let reach = closure t t.roots in
  List.filter_map
    (function
      | Func f when not (Node_set.mem (Func f) reach) -> Some f
      | _ -> None)
    t.nodes

(** [n] participates in a call cycle (including self-recursion). *)
let may_recurse t n =
  let rec go seen = function
    | [] -> false
    | x :: rest ->
        if compare_node x n = 0 then true
        else if Node_set.mem x seen then go seen rest
        else go (Node_set.add x seen) (callees t x @ rest)
  in
  go Node_set.empty (callees t n)

(** [n] or a transitive callee uses an unbalanced lock builtin, i.e. a
    call to [n] can change the caller's held-lock set. *)
let may_alter_locks t n =
  let reach = closure t [ n ] in
  not (Node_set.is_empty (Node_set.inter reach t.unbalanced_locks))

let pp ppf t =
  List.iter
    (fun n ->
      match callees t n with
      | [] -> ()
      | cs -> Fmt.pf ppf "%s -> %s@\n" (node_name n) (String.concat ", " (List.map node_name cs)))
    t.nodes
