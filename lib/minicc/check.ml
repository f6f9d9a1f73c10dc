(** Semantic checks for MiniC++ programs.

    Performed after parsing and before annotation/interpretation:
    - class hierarchy is acyclic and parents exist;
    - no duplicate class/function/field names;
    - variables are defined before use; [this] only inside methods;
    - called functions exist (or are builtins) and arities match;
    - spawned functions exist and arities match;
    - field names exist in {e some} class (MiniC++ objects are
      dynamically classed, so field access is checked precisely at
      runtime; statically we catch misspellings that match no class).

    {!check_all} accumulates {e every} violation with its position (the
    lint-friendly entry point); {!check} raises on the first one, in
    the same walk order, for the build pipeline. *)

open Ast

exception Error of string * Token.pos

let builtins =
  (* name, arity *)
  [
    ("mutex", 1);
    ("mutex_lock", 1);
    ("mutex_unlock", 1);
    ("rwlock", 1);
    ("rdlock", 1);
    ("wrlock", 1);
    ("rw_unlock", 1);
    ("cond", 1);
    ("cond_wait", 2);
    ("cond_signal", 1);
    ("cond_broadcast", 1);
    ("sem", 2);
    ("sem_wait", 1);
    ("sem_post", 1);
    ("benign_race", 2);
    ("hb_before", 1);
    ("hb_after", 1);
    ("join", 1);
    ("yield", 0);
    ("sleep", 1);
    ("now", 0);
    ("self", 0);
    ("print", 1);
    ("print_str", 1);
    ("alloc", 1);
    ("free", 1);
    ("load", 1);
    ("store", 2);
    ("atomic_inc", 1);
    ("atomic_dec", 1);
    ("hg_destruct", 2);
    (deletor_frame, 1);
    ("random", 1);
  ]

(** Walk the whole program and collect every semantic violation, in
    source-walk order (the head is what {!check} raises). *)
let check_all (p : program) : (string * Token.pos) list =
  let diags = ref [] in
  let err pos fmt = Fmt.kstr (fun m -> diags := (m, pos) :: !diags) fmt in
  let classes = classes p and functions = functions p in
  (* duplicate / existence checks *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun c ->
      if Hashtbl.mem seen c.cls_name then err c.cls_pos "duplicate class %s" c.cls_name;
      Hashtbl.replace seen c.cls_name ())
    classes;
  let fseen = Hashtbl.create 16 in
  List.iter
    (fun f ->
      if Hashtbl.mem fseen f.fn_name then err f.fn_pos "duplicate function %s" f.fn_name;
      if List.mem_assoc f.fn_name builtins then
        err f.fn_pos "function %s shadows a builtin" f.fn_name;
      Hashtbl.replace fseen f.fn_name ())
    functions;
  (* hierarchy: a cycle or a missing parent is reported where the chain
     stops, once per class below it *)
  List.iter
    (fun c ->
      let top = List.hd (chain p c) in
      match top.cls_parent with
      | None -> ()
      | Some pn when find_class p pn = None -> err top.cls_pos "unknown parent class %s" pn
      | Some pn -> err top.cls_pos "inheritance cycle through %s" pn)
    classes;
  (* field duplication along the chain *)
  List.iter
    (fun c ->
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun f ->
          if Hashtbl.mem tbl f then err c.cls_pos "field %s duplicated in hierarchy of %s" f c.cls_name;
          Hashtbl.replace tbl f ())
        (List.concat_map (fun c -> c.cls_fields) (chain p c)))
    classes;
  let all_fields =
    List.concat_map (fun c -> c.cls_fields) classes |> List.sort_uniq compare
  in
  let fn_arity name =
    match List.assoc_opt name builtins with
    | Some a -> Some a
    | None -> (
        match find_function p name with
        | Some f -> Some (List.length f.fn_params)
        | None -> None)
  in
  (* scope-checked expression/statement walk *)
  let rec expr env ~in_method (e : expr) =
    match e.e with
    | Int _ | Str _ | Null -> ()
    | Var name -> if not (List.mem name env) then err e.epos "undefined variable %s" name
    | This -> if not in_method then err e.epos "'this' outside of a method"
    | Field (obj, f) ->
        expr env ~in_method obj;
        if not (List.mem f all_fields) then err e.epos "field %s matches no class" f
    | Binop (_, a, b) ->
        expr env ~in_method a;
        expr env ~in_method b
    | Unop (_, a) -> expr env ~in_method a
    | Call (name, args) -> (
        List.iter (expr env ~in_method) args;
        match fn_arity name with
        | None -> err e.epos "unknown function %s" name
        | Some a ->
            if a <> List.length args then
              err e.epos "%s expects %d argument(s), got %d" name a (List.length args))
    | Method_call (obj, m, args) ->
        expr env ~in_method obj;
        List.iter (expr env ~in_method) args;
        if definitions_of p m = [] then err e.epos "no class defines method %s" m
    | New cls -> if find_class p cls = None then err e.epos "unknown class %s" cls
    | Spawn (fn, args) -> (
        List.iter (expr env ~in_method) args;
        match find_function p fn with
        | None -> err e.epos "spawn of unknown function %s" fn
        | Some f ->
            if List.length f.fn_params <> List.length args then
              err e.epos "spawn %s expects %d argument(s), got %d" fn
                (List.length f.fn_params) (List.length args))
    | Deletor inner -> expr env ~in_method inner
  and stmts env ~in_method = function
    | [] -> ()
    | s :: rest -> (
        match s.s with
        | Var_decl (name, init) ->
            expr env ~in_method init;
            stmts (name :: env) ~in_method rest
        | Assign (Lvar name, rhs) ->
            if not (List.mem name env) then err s.spos "assignment to undefined variable %s" name;
            expr env ~in_method rhs;
            stmts env ~in_method rest
        | Assign (Lfield (obj, f, fp), rhs) ->
            expr env ~in_method obj;
            if not (List.mem f all_fields) then err fp "field %s matches no class" f;
            expr env ~in_method rhs;
            stmts env ~in_method rest
        | Expr e ->
            expr env ~in_method e;
            stmts env ~in_method rest
        | If (cond, a, b) ->
            expr env ~in_method cond;
            stmts env ~in_method a;
            stmts env ~in_method b;
            stmts env ~in_method rest
        | While (cond, body) ->
            expr env ~in_method cond;
            stmts env ~in_method body;
            stmts env ~in_method rest
        | Return None -> stmts env ~in_method rest
        | Return (Some e) ->
            expr env ~in_method e;
            stmts env ~in_method rest
        | Delete e ->
            expr env ~in_method e;
            stmts env ~in_method rest
        | Lock (m, body) ->
            expr env ~in_method m;
            stmts env ~in_method body;
            stmts env ~in_method rest
        | Block body ->
            stmts env ~in_method body;
            stmts env ~in_method rest)
  in
  (* every free function, then each class's methods and destructor *)
  let fns, members = List.partition (function Func _, _, _ -> true | _ -> false) (bodies p) in
  List.iter
    (fun (n, params, body) -> stmts params ~in_method:(match n with Func _ -> false | _ -> true) body)
    (fns @ members);
  (match find_function p "main" with
  | None ->
      err { Token.file = p.source_file; line = 1; col = 1 } "program has no main function"
  | Some f -> if f.fn_params <> [] then err f.fn_pos "main must take no parameters");
  List.rev !diags

let check (p : program) =
  match check_all p with [] -> () | (msg, pos) :: _ -> raise (Error (msg, pos))
