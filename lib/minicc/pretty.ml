(** Pretty-printer for MiniC++.

    Used to inspect the annotated source exactly as Figure 4 of the
    paper shows the instrumented C++: the annotation pass runs on the
    AST and the pretty-printer renders what "the compiler" would see.
    [print (parse src)] followed by re-parsing is the identity on the
    AST (a property test in the suite). *)

open Ast

let binop_str = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Eq -> "==" | Neq -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | And -> "&&" | Or -> "||"

let prec_of = function
  | Or -> 2 | And -> 3
  | Eq | Neq -> 4
  | Lt | Le | Gt | Ge -> 5
  | Add | Sub -> 6
  | Mul | Div | Mod -> 7

let rec expr ?(prec = 0) buf (e : expr) =
  match e.e with
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Str s -> Buffer.add_string buf (Printf.sprintf "%S" s)
  | Null -> Buffer.add_string buf "null"
  | Var v -> Buffer.add_string buf v
  | This -> Buffer.add_string buf "this"
  | Field (o, f) ->
      expr ~prec:10 buf o;
      Buffer.add_char buf '.';
      Buffer.add_string buf f
  | Binop (op, a, b) ->
      let p = prec_of op in
      if p < prec then Buffer.add_char buf '(';
      expr ~prec:p buf a;
      Buffer.add_string buf (" " ^ binop_str op ^ " ");
      expr ~prec:(p + 1) buf b;
      if p < prec then Buffer.add_char buf ')'
  | Unop (Not, a) ->
      Buffer.add_char buf '!';
      expr ~prec:9 buf a
  | Unop (Neg, a) ->
      Buffer.add_char buf '-';
      expr ~prec:9 buf a
  | Call (name, args) -> call buf name args
  | Method_call (o, m, args) ->
      expr ~prec:10 buf o;
      Buffer.add_char buf '.';
      call buf m args
  | New c -> Buffer.add_string buf ("new " ^ c ^ "()")
  | Spawn (f, args) ->
      Buffer.add_string buf "spawn ";
      call buf f args
  | Deletor inner -> call buf deletor_frame [ inner ]

and call buf name args =
  Buffer.add_string buf name;
  Buffer.add_char buf '(';
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_string buf ", ";
      expr buf a)
    args;
  Buffer.add_char buf ')'

let rec stmt buf ~indent (s : stmt) =
  let pad = String.make indent ' ' in
  let line fmt = Fmt.kstr (fun str -> Buffer.add_string buf (pad ^ str ^ "\n")) fmt in
  let block b = List.iter (stmt buf ~indent:(indent + 2)) b in
  match s.s with
  | Var_decl (n, e) ->
      let b = Buffer.create 32 in
      expr b e;
      line "var %s = %s;" n (Buffer.contents b)
  | Assign (Lvar n, e) ->
      let b = Buffer.create 32 in
      expr b e;
      line "%s = %s;" n (Buffer.contents b)
  | Assign (Lfield (o, f, _), e) ->
      let bo = Buffer.create 32 and be = Buffer.create 32 in
      expr ~prec:10 bo o;
      expr be e;
      line "%s.%s = %s;" (Buffer.contents bo) f (Buffer.contents be)
  | Expr e ->
      let b = Buffer.create 32 in
      expr b e;
      line "%s;" (Buffer.contents b)
  | If (c, a, []) ->
      let b = Buffer.create 32 in
      expr b c;
      line "if (%s) {" (Buffer.contents b);
      block a;
      line "}"
  | If (c, a, e) ->
      let b = Buffer.create 32 in
      expr b c;
      line "if (%s) {" (Buffer.contents b);
      block a;
      line "} else {";
      block e;
      line "}"
  | While (c, body) ->
      let b = Buffer.create 32 in
      expr b c;
      line "while (%s) {" (Buffer.contents b);
      block body;
      line "}"
  | Return None -> line "return;"
  | Return (Some e) ->
      let b = Buffer.create 32 in
      expr b e;
      line "return %s;" (Buffer.contents b)
  | Delete e ->
      let b = Buffer.create 32 in
      expr b e;
      line "delete %s;" (Buffer.contents b)
  | Lock (m, body) ->
      let b = Buffer.create 32 in
      expr b m;
      line "lock (%s) {" (Buffer.contents b);
      block body;
      line "}"
  | Block body ->
      line "{";
      block body;
      line "}"

let fn buf ~indent f =
  let pad = String.make indent ' ' in
  Buffer.add_string buf
    (Printf.sprintf "%sfn %s(%s) {\n" pad f.fn_name (String.concat ", " f.fn_params));
  List.iter (stmt buf ~indent:(indent + 2)) f.fn_body;
  Buffer.add_string buf (pad ^ "}\n")

let class_decl buf c =
  Buffer.add_string buf
    (Printf.sprintf "class %s%s {\n" c.cls_name
       (match c.cls_parent with Some p -> " : " ^ p | None -> ""));
  List.iter (fun f -> Buffer.add_string buf (Printf.sprintf "  var %s;\n" f)) c.cls_fields;
  (match c.cls_dtor with
  | None -> ()
  | Some body ->
      Buffer.add_string buf (Printf.sprintf "  fn ~%s() {\n" c.cls_name);
      List.iter (stmt buf ~indent:4) body;
      Buffer.add_string buf "  }\n");
  List.iter (fn buf ~indent:2) c.cls_methods;
  Buffer.add_string buf "}\n"

(** Render a whole program.  [header_comment] is prepended (the build
    wrapper adds the "#include <valgrind/helgrind.h>" banner for
    annotated output, mirroring Figure 4). *)
let program ?(header_comment = "") (p : program) =
  let buf = Buffer.create 1024 in
  if header_comment <> "" then Buffer.add_string buf (header_comment ^ "\n");
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf '\n';
      match d with Dclass c -> class_decl buf c | Dfn f -> fn buf ~indent:0 f)
    p.decls;
  Buffer.contents buf
