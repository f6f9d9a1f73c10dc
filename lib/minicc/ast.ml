(** Abstract syntax for MiniC++.

    Every node that can touch memory carries the source position it
    came from, so the interpreter can attribute VM accesses to real
    lines and the race reports read like Valgrind output over the
    MiniC++ source. *)

type pos = Token.pos

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Neq | Lt | Le | Gt | Ge
  | And | Or

type unop = Not | Neg

type expr = { e : expr_desc; epos : pos }

and expr_desc =
  | Int of int
  | Str of string  (** string literal: used for names passed to builtins *)
  | Null
  | Var of string
  | This
  | Field of expr * string  (** [e.f] — a VM memory access *)
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Call of string * expr list  (** free function or builtin *)
  | Method_call of expr * string * expr list  (** virtual dispatch via vptr *)
  | New of string  (** [new C()] *)
  | Spawn of string * expr list  (** [spawn f(args)] — returns a tid *)
  | Deletor of expr
      (** the [ca_deletor_single] wrapper inserted by the annotation
          pass (Figure 4): evaluates to its argument after announcing
          the destruction to the race detector.  The parser reads a
          one-argument [ca_deletor_single(e)] call as this node. *)

type stmt = { s : stmt_desc; spos : pos }

and stmt_desc =
  | Var_decl of string * expr
  | Assign of lvalue * expr
  | Expr of expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Return of expr option
  | Delete of expr
  | Lock of expr * stmt list  (** [lock (m) { ... }]: scoped mutex *)
  | Block of stmt list

and lvalue =
  | Lvar of string
  | Lfield of expr * string * pos

type fn_decl = {
  fn_name : string;
  fn_params : string list;
  fn_body : stmt list;
  fn_pos : pos;
}

type class_decl = {
  cls_name : string;
  cls_parent : string option;
  cls_fields : string list;
  cls_methods : fn_decl list;
  cls_dtor : stmt list option;  (** body of [fn ~C() { ... }] *)
  cls_pos : pos;
}

type decl = Dclass of class_decl | Dfn of fn_decl

type program = { decls : decl list; source_file : string }

let classes p = List.filter_map (function Dclass c -> Some c | Dfn _ -> None) p.decls
let functions p = List.filter_map (function Dfn f -> Some f | Dclass _ -> None) p.decls

let find_class p name = List.find_opt (fun c -> c.cls_name = name) (classes p)
let find_function p name = List.find_opt (fun f -> f.fn_name = name) (functions p)

(* ------------------------------------------------------------------ *)
(* The program model every pass shares: class chains, dispatch, frame  *)
(* names, bodies and walks.  Static findings meet dynamic ones only    *)
(* through frame names, so they are defined here once.                 *)
(* ------------------------------------------------------------------ *)

(** The class chain of [c], root first.  It stops at a missing parent
    and at a class already on the chain, so it is safe before
    {!Check} has rejected cycles. *)
let chain p c =
  let rec go seen c =
    match c.cls_parent with
    | Some pn when not (List.mem pn seen) -> (
        match find_class p pn with Some parent -> go (pn :: seen) parent @ [ c ] | None -> [ c ])
    | _ -> [ c ]
  in
  go [ c.cls_name ] c

(** Virtual dispatch: the definition of [m] nearest [c] on its chain. *)
let dispatch p c m =
  List.find_map
    (fun cls -> List.find_opt (fun f -> f.fn_name = m) cls.cls_methods)
    (List.rev (chain p c))

(** Every class that defines [m] itself, with that definition, in
    declaration order: the conservative targets of [o.m(...)]. *)
let definitions_of p m =
  List.filter_map
    (fun c -> Option.map (fun f -> (c, f)) (List.find_opt (fun f -> f.fn_name = m) c.cls_methods))
    (classes p)

(** A code body: a free function, a method (class, method) or a
    destructor (class). *)
type node = Func of string | Method of string * string | Dtor of string

(** Frame names, as the interpreter attributes VM accesses: [f], [C::m],
    the constructor level [C::C] and the destructor level [C::~C]. *)
let method_frame c m = c ^ "::" ^ m

let ctor_frame c = method_frame c c
let dtor_frame c = c ^ "::~" ^ c
let node_name = function Func f -> f | Method (c, m) -> method_frame c m | Dtor c -> dtor_frame c

(** The frame helper the annotation pass wraps every deleted pointer in. *)
let deletor_frame = "ca_deletor_single"

(** The location of [pos] inside frame [func]. *)
let loc_of ~func (pos : pos) = Raceguard_util.Loc.v pos.file func pos.line

(** Every body with its node and parameters, in declaration order (a
    class's methods, then its destructor). *)
let bodies p =
  List.concat_map
    (function
      | Dfn f -> [ (Func f.fn_name, f.fn_params, f.fn_body) ]
      | Dclass c ->
          List.map (fun m -> (Method (c.cls_name, m.fn_name), m.fn_params, m.fn_body)) c.cls_methods
          @ Option.fold ~none:[] ~some:(fun b -> [ (Dtor c.cls_name, [], b) ]) c.cls_dtor)
    p.decls

(** Rewrite every body in place with [f node body], in declaration order. *)
let map_bodies f p =
  let map_fn node d = { d with fn_body = f node d.fn_body } in
  let decl = function
    | Dfn d -> Dfn (map_fn (Func d.fn_name) d)
    | Dclass c ->
        let cls_methods = List.map (fun m -> map_fn (Method (c.cls_name, m.fn_name)) m) c.cls_methods in
        Dclass { c with cls_methods; cls_dtor = Option.map (f (Dtor c.cls_name)) c.cls_dtor }
  in
  { p with decls = List.map decl p.decls }

(** The direct sub-expressions of [e], left to right. *)
let sub_exprs e =
  match e.e with
  | Int _ | Str _ | Null | Var _ | This | New _ -> []
  | Field (a, _) | Unop (_, a) | Deletor a -> [ a ]
  | Binop (_, a, b) -> [ a; b ]
  | Call (_, args) | Spawn (_, args) -> args
  | Method_call (o, _, args) -> o :: args

(** Post-order: [f] sees each node after its sub-expressions, so a
    spawn is seen after its arguments, in evaluation order. *)
let rec iter_expr f e =
  List.iter (iter_expr f) (sub_exprs e);
  f e

(** Bottom-up map: [f] sees each node after its children were rewritten. *)
let rec map_expr f e =
  let m = map_expr f in
  let d =
    match e.e with
    | (Int _ | Str _ | Null | Var _ | This | New _) as d -> d
    | Field (o, n) -> Field (m o, n)
    | Binop (op, a, b) -> Binop (op, m a, m b)
    | Unop (op, a) -> Unop (op, m a)
    | Call (n, args) -> Call (n, List.map m args)
    | Spawn (n, args) -> Spawn (n, List.map m args)
    | Method_call (o, n, args) -> Method_call (m o, n, List.map m args)
    | Deletor a -> Deletor (m a)
  in
  f { e with e = d }

(** The expressions [s] evaluates itself, not those of nested
    statements, in evaluation order. *)
let own_exprs s =
  match s.s with
  | Var_decl (_, e) | Assign (Lvar _, e) | Expr e | Return (Some e) | Delete e -> [ e ]
  | Assign (Lfield (o, _, _), e) -> [ o; e ]
  | If (c, _, _) | While (c, _) | Lock (c, _) -> [ c ]
  | Return None | Block _ -> []

(** The statements nested in [s], in source order. *)
let sub_stmts s =
  match s.s with
  | If (_, a, b) -> a @ b
  | While (_, b) | Lock (_, b) | Block b -> b
  | Var_decl _ | Assign _ | Expr _ | Return _ | Delete _ -> []

(** Pre-order: [f] sees [s], then its nested statements. *)
let rec iter_stmt f s =
  f s;
  List.iter (iter_stmt f) (sub_stmts s)

(** Every expression node of [s] and its nested statements: statements
    in pre-order, each one's expressions in post-order. *)
let iter_stmt_exprs f = iter_stmt (fun s -> List.iter (iter_expr f) (own_exprs s))

(** Bottom-up statement map: [fe] rewrites each expression a statement
    evaluates itself (pass [map_expr g] to reach every node), then [fs]
    sees the statement after its nested statement lists were rewritten. *)
let rec map_stmt fe fs s =
  let ms = List.map (map_stmt fe fs) in
  let d =
    match s.s with
    | Var_decl (n, e) -> Var_decl (n, fe e)
    | Assign (Lvar n, e) -> Assign (Lvar n, fe e)
    | Assign (Lfield (o, f, p), e) -> Assign (Lfield (fe o, f, p), fe e)
    | Expr e -> Expr (fe e)
    | If (c, a, b) -> If (fe c, ms a, ms b)
    | While (c, b) -> While (fe c, ms b)
    | Return e -> Return (Option.map fe e)
    | Delete e -> Delete (fe e)
    | Lock (m, b) -> Lock (fe m, ms b)
    | Block b -> Block (ms b)
  in
  fs { s with s = d }
