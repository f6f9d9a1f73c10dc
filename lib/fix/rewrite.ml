(** Pure AST surgery for the repair engine.

    Every transformation preserves the source positions of untouched
    nodes, so a patched program re-analysed statically or executed
    dynamically yields stacks and signatures directly comparable with
    the original's — the property the four verification stages rest
    on.  New nodes (guard expressions, threaded arguments, guard-init
    statements) borrow the position of the construct they are attached
    to. *)

module Token = Raceguard_minicc.Token
open Raceguard_minicc.Ast

type pos = Token.pos

let pos_eq (a : pos) (b : pos) =
  a.Token.file = b.Token.file && a.Token.line = b.Token.line && a.Token.col = b.Token.col

(* ------------------------------------------------------------------ *)
(* Bodies, addressed the way access stacks attribute functions         *)
(* ------------------------------------------------------------------ *)

(** Rewrite the body of one named node ([f], [C::m] or [C::~C], see
    {!Raceguard_minicc.Ast.node_name}); returns [None] when no body by
    that name exists. *)
let map_body (p : program) ~node (f : stmt list -> stmt list) : program option =
  if List.exists (fun (n, _, _) -> node_name n = node) (bodies p) then
    Some (map_bodies (fun n body -> if node_name n = node then f body else body) p)
  else None

(* ------------------------------------------------------------------ *)
(* Position containment                                                *)
(* ------------------------------------------------------------------ *)

let expr_mentions target e =
  let found = ref false in
  iter_expr (fun e -> if pos_eq e.epos target then found := true) e;
  !found

(** Does the statement's own code (not a nested statement) evaluate the
    target position?  [Assign] to a field also owns the field span. *)
let own_hit target s =
  (match s.s with Assign (Lfield (_, _, p), _) -> pos_eq p target | _ -> false)
  || List.exists (expr_mentions target) (own_exprs s)

let stmt_mentions target s =
  let hit = ref false in
  iter_stmt (fun s -> if own_hit target s then hit := true) s;
  !hit

(* ------------------------------------------------------------------ *)
(* Lock-scope wrapping                                                 *)
(* ------------------------------------------------------------------ *)

(** Wrap the minimal enclosing statement of every target position in
    [lock (guard) { ... }].  A statement covering several targets is
    wrapped once; control statements whose condition is untouched
    recurse into their branches instead of widening the critical
    section.  [guard_for] builds the guard expression for a leaf
    statement (it sees the target positions that statement covers);
    returning [None] aborts the rewrite. *)
let wrap_in_body ~guard_for ~targets body : (stmt list * int, string) result =
  let err = ref None in
  let wrapped = ref 0 in
  let rec go_stmts stmts = List.map go stmts
  and go s =
    let covered = List.filter (fun t -> stmt_mentions t s) targets in
    if covered = [] then s
    else
      let own = List.exists (fun t -> own_hit t s) covered in
      match s.s with
      | If (c, a, b) when not own -> { s with s = If (c, go_stmts a, go_stmts b) }
      | While (c, b) when not own -> { s with s = While (c, go_stmts b) }
      | Lock (m, b) when not own -> { s with s = Lock (m, go_stmts b) }
      | Block b -> { s with s = Block (go_stmts b) }
      | _ -> (
          match guard_for s covered with
          | Some g ->
              incr wrapped;
              { s with s = Lock (g, [ s ]) }
          | None ->
              err := Some "cannot build a guard expression for a statement";
              s)
  in
  let body = go_stmts body in
  match !err with Some m -> Error m | None -> Ok (body, !wrapped)

(* ------------------------------------------------------------------ *)
(* Lock threading: extra parameters and call-site arguments            *)
(* ------------------------------------------------------------------ *)

let add_param (p : program) ~fn ~param : program =
  let decls =
    List.map
      (function
        | Dfn f when f.fn_name = fn -> Dfn { f with fn_params = f.fn_params @ [ param ] }
        | d -> d)
      p.decls
  in
  { p with decls }

(** Append an argument to every call and spawn of [callee], program
    wide.  [arg_for] names the expression to pass from the enclosing
    node ([None] aborts: that call site has no lock in scope). *)
let add_args (p : program) ~callee ~(arg_for : string -> pos -> expr option) :
    (program, string) result =
  let err = ref None in
  let rewrite node e =
    match e.e with
    | Call (n, args) when n = callee -> (
        match arg_for node e.epos with
        | Some a -> { e with e = Call (n, args @ [ a ]) }
        | None ->
            if !err = None then
              err := Some (Fmt.str "call of %s in %s has no guard lock in scope" callee node);
            e)
    | Spawn (n, args) when n = callee -> (
        match arg_for node e.epos with
        | Some a -> { e with e = Spawn (n, args @ [ a ]) }
        | None ->
            if !err = None then
              err := Some (Fmt.str "spawn of %s in %s has no guard lock in scope" callee node);
            e)
    | _ -> e
  in
  let p = map_bodies (fun node -> List.map (map_stmt (map_expr (rewrite (node_name node))) Fun.id)) p in
  match !err with Some m -> Error m | None -> Ok p

(* ------------------------------------------------------------------ *)
(* Fresh guard members                                                 *)
(* ------------------------------------------------------------------ *)

let add_class_field (p : program) ~cls ~field : program =
  let decls =
    List.map
      (function
        | Dclass c when c.cls_name = cls && not (List.mem field c.cls_fields) ->
            Dclass { c with cls_fields = c.cls_fields @ [ field ] }
        | d -> d)
      p.decls
  in
  { p with decls }

(** A guard expression must re-evaluate without side effects. *)
let rec is_pure_path e =
  match e.e with
  | Var _ | This -> true
  | Field (o, _) -> is_pure_path o
  | _ -> false

(** The base object expression of the access to [field] at [pos] inside
    one statement ([a.f] read or [a.f = ...] write). *)
let find_field_base ~field ~pos s : expr option =
  let found = ref None in
  (match s.s with
  | Assign (Lfield (o, f, p), _) when f = field && pos_eq p pos -> found := Some o
  | _ -> ());
  if !found = None then
    iter_stmt_exprs
      (fun e ->
        match e.e with
        | Field (o, f) when f = field && pos_eq e.epos pos && !found = None ->
            found := Some o
        | _ -> ())
      s;
  !found

(** Insert [<lv>.<field> = mutex(<name>);] after every statement that
    binds a fresh [new cls] to a nameable lvalue, skipping statements
    already followed by that exact initialisation (idempotent under
    combined patch application).  Fails when some [new cls] occurs in a
    position whose result cannot be named. *)
let insert_guard_inits (p : program) ~cls ~field ~name : (program * int, string) result =
  let err = ref None in
  let inserts = ref 0 in
  let bindable s =
    match s.s with
    | Var_decl (x, { e = New c; _ }) | Assign (Lvar x, { e = New c; _ }) when c = cls ->
        Some { e = Var x; epos = s.spos }
    | Assign (Lfield (o, f, fp), { e = New c; _ }) when c = cls ->
        if is_pure_path o then Some { e = Field (o, f); epos = fp }
        else None
    | _ -> None
  in
  let init_stmt base (pos : pos) =
    {
      s =
        Assign
          ( Lfield (base, field, pos),
            { e = Call ("mutex", [ { e = Str name; epos = pos } ]); epos = pos } );
      spos = pos;
    }
  in
  let is_init base s =
    match s.s with
    | Assign (Lfield (b, f, _), { e = Call ("mutex", [ { e = Str n; _ } ]); _ }) ->
        f = field && n = name && b.e = base.e
    | _ -> false
  in
  (* a [new cls] in this statement's own code anywhere except as the
     whole right-hand side of a bindable statement loses the object
     before we can name it (nested statements are visited on their
     own) *)
  let unnameable_new s =
    let is_new e = match e.e with New c -> c = cls | _ -> false in
    let bad = ref false in
    let ck e = iter_expr (fun e -> if is_new e then bad := true) e in
    (match s.s with
    | (Var_decl (_, rhs) | Assign (Lvar _, rhs)) when is_new rhs -> ()
    | Assign (Lfield (o, _, _), rhs) when is_new rhs -> ck o
    | _ -> List.iter ck (own_exprs s));
    !bad
  in
  let rec go_stmts stmts =
    match stmts with
    | [] -> []
    | s :: rest -> (
        let s = go s in
        match bindable s with
        | Some base ->
            let rest' =
              match rest with
              | n :: _ when is_init base n -> go_stmts rest
              | _ ->
                  incr inserts;
                  init_stmt base s.spos :: go_stmts rest
            in
            s :: rest'
        | None ->
            if unnameable_new s && !err = None then
              err :=
                Some
                  (Fmt.str "a 'new %s' result cannot be named for guard initialisation" cls);
            s :: go_stmts rest)
  and go s =
    match s.s with
    | If (c, a, b) -> { s with s = If (c, go_stmts a, go_stmts b) }
    | While (c, b) -> { s with s = While (c, go_stmts b) }
    | Lock (m, b) -> { s with s = Lock (m, go_stmts b) }
    | Block b -> { s with s = Block (go_stmts b) }
    | _ -> s
  in
  let p = map_bodies (fun _ -> go_stmts) p in
  match !err with Some m -> Error m | None -> Ok (p, !inserts)

(* ------------------------------------------------------------------ *)
(* Static lock-nesting edges                                           *)
(* ------------------------------------------------------------------ *)

module SMap = Map.Make (String)

(** The static acquisition-nesting relation: [(h, k)] when some thread
    can acquire lock [k] while holding [h].  Locks are keyed by their
    creation name string when literal (every lock in the example corpus
    and every guard the engine introduces), by creation position
    otherwise; member guards are keyed per field.  Bounded
    interprocedural walk mirroring [Static_race]'s inlining, scoped
    [lock] blocks plus the unbalanced lock builtins.  Feeds
    {!Raceguard_detector.Lock_order.Static_graph} for the
    no-new-inversion stage of patch verification. *)
let lock_nest_edges (p : program) : (string * string) list =
  let edges = ref [] in
  let add held k = List.iter (fun h -> if h <> k then edges := (h, k) :: !edges) held in
  let max_depth = 8 in
  let pending : (string * string option list) list ref = ref [] in
  let seen_roots = Hashtbl.create 8 in
  let key_of_rhs e =
    match e.e with
    | Call (("mutex" | "rwlock"), [ { e = Str n; _ } ]) -> Some n
    | Call (("mutex" | "rwlock"), _) ->
        Some (Fmt.str "%s:%d:%d" e.epos.Token.file e.epos.Token.line e.epos.Token.col)
    | _ -> None
  in
  let key_of bnd e =
    match e.e with
    | Var x -> SMap.find_opt x bnd
    | Field (_, f) -> Some ("." ^ f)
    | Call (("mutex" | "rwlock"), _) -> key_of_rhs e
    | _ -> None
  in
  let remove_first k held =
    let rec go = function
      | [] -> []
      | x :: rest -> if x = k then rest else x :: go rest
    in
    go held
  in
  let rec walk_stmts depth calls acc stmts = List.fold_left (walk_stmt depth calls) acc stmts
  and walk_stmt depth calls (bnd, held) s =
    match s.s with
    | Var_decl (x, e) | Assign (Lvar x, e) ->
        let _, held = walk_expr depth calls (bnd, held) e in
        let bnd =
          match key_of_rhs e with Some k -> SMap.add x k bnd | None -> SMap.remove x bnd
        in
        (bnd, held)
    | Assign (Lfield (o, _, _), e) ->
        let _, held = walk_expr depth calls (bnd, held) o in
        let _, held = walk_expr depth calls (bnd, held) e in
        (bnd, held)
    | Expr e | Return (Some e) | Delete e ->
        let _, held = walk_expr depth calls (bnd, held) e in
        (bnd, held)
    | Return None -> (bnd, held)
    | If (c, a, b) ->
        let _, held = walk_expr depth calls (bnd, held) c in
        let _ = walk_stmts depth calls (bnd, held) a in
        let _ = walk_stmts depth calls (bnd, held) b in
        (bnd, held)
    | While (c, b) ->
        let _, held = walk_expr depth calls (bnd, held) c in
        let _ = walk_stmts depth calls (bnd, held) b in
        (bnd, held)
    | Lock (m, body) -> (
        let _, held = walk_expr depth calls (bnd, held) m in
        match key_of bnd m with
        | Some k ->
            add held k;
            let _ = walk_stmts depth calls (bnd, k :: held) body in
            (bnd, held)
        | None ->
            let _ = walk_stmts depth calls (bnd, held) body in
            (bnd, held))
    | Block b -> walk_stmts depth calls (bnd, held) b
  and walk_expr depth calls (bnd, held) e =
    let fold_args held args =
      List.fold_left (fun h a -> snd (walk_expr depth calls (bnd, h) a)) held args
    in
    match e.e with
    | Int _ | Str _ | Null | Var _ | This | New _ -> (bnd, held)
    | Field (o, _) | Unop (_, o) | Deletor o -> walk_expr depth calls (bnd, held) o
    | Binop (_, a, b) ->
        let _, held = walk_expr depth calls (bnd, held) a in
        walk_expr depth calls (bnd, held) b
    | Call (("mutex_lock" | "wrlock" | "rdlock"), [ arg ]) -> (
        let _, held = walk_expr depth calls (bnd, held) arg in
        match key_of bnd arg with
        | Some k ->
            add held k;
            (bnd, k :: held)
        | None -> (bnd, held))
    | Call (("mutex_unlock" | "rw_unlock"), [ arg ]) -> (
        let _, held = walk_expr depth calls (bnd, held) arg in
        match key_of bnd arg with
        | Some k -> (bnd, remove_first k held)
        | None -> (bnd, held))
    | Call (name, args) -> (
        let held = fold_args held args in
        match find_function p name with
        | Some f when depth < max_depth && not (List.mem name calls) ->
            let cbnd = callee_bindings bnd f.fn_params args in
            let _ = walk_stmts (depth + 1) (name :: calls) (cbnd, held) f.fn_body in
            (bnd, held)
        | _ -> (bnd, held))
    | Spawn (name, args) ->
        let held = fold_args held args in
        pending := (name, List.map (key_of bnd) args) :: !pending;
        (bnd, held)
    | Method_call (o, m, args) ->
        let _, held = walk_expr depth calls (bnd, held) o in
        let held = fold_args held args in
        List.iter
          (fun (c, f) ->
            let name = method_frame c.cls_name m in
            if depth < max_depth && not (List.mem name calls) then
              let cbnd = callee_bindings bnd f.fn_params args in
              ignore (walk_stmts (depth + 1) (name :: calls) (cbnd, held) f.fn_body))
          (definitions_of p m);
        (bnd, held)
  and callee_bindings bnd params args =
    let keys = List.map (key_of bnd) args in
    if List.length params <> List.length keys then SMap.empty
    else
      List.fold_left2
        (fun m p k -> match k with Some k -> SMap.add p k m | None -> m)
        SMap.empty params keys
  in
  let walk_root fname arg_keys =
    let root_key = fname ^ "|" ^ String.concat "," (List.map (Option.value ~default:"?") arg_keys) in
    if not (Hashtbl.mem seen_roots root_key) then begin
      Hashtbl.replace seen_roots root_key ();
      match find_function p fname with
      | None -> ()
      | Some f ->
          let bnd =
            if List.length f.fn_params <> List.length arg_keys then SMap.empty
            else
              List.fold_left2
                (fun m prm k -> match k with Some k -> SMap.add prm k m | None -> m)
                SMap.empty f.fn_params arg_keys
          in
          let _ = walk_stmts 0 [ fname ] (bnd, []) f.fn_body in
          ()
    end
  in
  walk_root "main" [];
  let rec drain () =
    match !pending with
    | [] -> ()
    | (fname, keys) :: rest ->
        pending := rest;
        walk_root fname keys;
        drain ()
  in
  drain ();
  List.sort_uniq compare !edges
