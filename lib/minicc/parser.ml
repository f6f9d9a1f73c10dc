(** Recursive-descent parser for MiniC++ (precedence climbing for
    expressions).  The real pipeline used ELSA/Elkhound because full
    ISO C++ needs a GLR parser; MiniC++ is deliberately LL so a
    hand-written parser is honest. *)

open Ast

exception Error of string * Token.pos

type t = { mutable toks : Token.t list; mutable depth : int }

let peek p = match p.toks with [] -> assert false | tok :: _ -> tok
let kind p = (peek p).Token.kind
let pos p = (peek p).Token.pos

let advance p = match p.toks with [] -> () | _ :: rest -> p.toks <- rest

let expect p k =
  let tok = peek p in
  if tok.Token.kind = k then advance p
  else
    raise
      (Error
         ( Printf.sprintf "expected %s, found %s" (Token.describe k)
             (Token.describe tok.Token.kind),
           tok.Token.pos ))

(* The parser, and every pass over the tree after it, recurses once per
   level of the tree.  Parentheses, argument lists, unary operators,
   binary operators, field and method selections, blocks and [else if]
   links each count one level of one shared depth, and past [max_depth]
   the parse fails with [Error] instead of overflowing the stack.  A
   chain such as [a + b + c] counts one level per operator: it parses
   in a loop, but its tree is as deep as it is long. *)
let max_depth = 256

let enter p =
  if p.depth >= max_depth then
    raise (Error (Printf.sprintf "nesting deeper than %d" max_depth, pos p));
  p.depth <- p.depth + 1

let leave p = p.depth <- p.depth - 1

let expect_ident p =
  match kind p with
  | Token.IDENT s ->
      advance p;
      s
  | k -> raise (Error ("expected identifier, found " ^ Token.describe k, pos p))

(* --- expressions ---------------------------------------------------- *)

let binop_of_kind = function
  | Token.PLUS -> Some (Add, 6)
  | Token.MINUS -> Some (Sub, 6)
  | Token.STAR -> Some (Mul, 7)
  | Token.SLASH -> Some (Div, 7)
  | Token.PERCENT -> Some (Mod, 7)
  | Token.EQ -> Some (Eq, 4)
  | Token.NEQ -> Some (Neq, 4)
  | Token.LT -> Some (Lt, 5)
  | Token.LE -> Some (Le, 5)
  | Token.GT -> Some (Gt, 5)
  | Token.GE -> Some (Ge, 5)
  | Token.ANDAND -> Some (And, 3)
  | Token.OROR -> Some (Or, 2)
  | _ -> None

let rec parse_expr p = parse_binary p 0

(* [levels]: the operators consumed so far, each a level of the
   left-deep tree being built *)
and parse_binary p min_prec =
  let lhs = parse_unary p in
  let rec loop lhs levels =
    match binop_of_kind (kind p) with
    | Some (op, prec) when prec >= min_prec ->
        let opos = pos p in
        advance p;
        enter p;
        let rhs = parse_binary p (prec + 1) in
        loop { e = Binop (op, lhs, rhs); epos = opos } (levels + 1)
    | _ ->
        p.depth <- p.depth - levels;
        lhs
  in
  loop lhs 0

and parse_unary p =
  match kind p with
  | (Token.BANG | Token.MINUS) as k ->
      let upos = pos p in
      advance p;
      enter p;
      let e = parse_unary p in
      leave p;
      { e = Unop ((if k = Token.BANG then Not else Neg), e); epos = upos }
  | _ -> parse_postfix p

and parse_postfix p =
  let prim = parse_primary p in
  let rec loop e levels =
    match kind p with
    | Token.DOT -> (
        advance p;
        enter p;
        let fpos = pos p in
        let name = expect_ident p in
        match kind p with
        | Token.LPAREN ->
            let args = parse_args p in
            loop { e = Method_call (e, name, args); epos = fpos } (levels + 1)
        | _ -> loop { e = Field (e, name); epos = fpos } (levels + 1))
    | _ ->
        p.depth <- p.depth - levels;
        e
  in
  loop prim 0

and parse_args p =
  expect p Token.LPAREN;
  enter p;
  let rec go acc =
    match kind p with
    | Token.RPAREN ->
        advance p;
        leave p;
        List.rev acc
    | _ -> (
        let e = parse_expr p in
        match kind p with
        | Token.COMMA ->
            advance p;
            go (e :: acc)
        | Token.RPAREN ->
            advance p;
            leave p;
            List.rev (e :: acc)
        | k -> raise (Error ("expected ',' or ')', found " ^ Token.describe k, pos p)))
  in
  go []

and parse_primary p =
  let tpos = pos p in
  match kind p with
  | Token.INT n ->
      advance p;
      { e = Int n; epos = tpos }
  | Token.STRING s ->
      advance p;
      { e = Str s; epos = tpos }
  | Token.KW_null ->
      advance p;
      { e = Null; epos = tpos }
  | Token.KW_this ->
      advance p;
      { e = This; epos = tpos }
  | Token.KW_new ->
      advance p;
      let cls = expect_ident p in
      expect p Token.LPAREN;
      expect p Token.RPAREN;
      { e = New cls; epos = tpos }
  | Token.KW_spawn ->
      advance p;
      let fn = expect_ident p in
      let args = parse_args p in
      { e = Spawn (fn, args); epos = tpos }
  | Token.IDENT name -> (
      advance p;
      match kind p with
      | Token.LPAREN -> (
          (* the deletor is a builtin of the language, so annotated
             source parses back to the tree it was printed from *)
          match parse_args p with
          | [ x ] when name = deletor_frame -> { e = Deletor x; epos = tpos }
          | args -> { e = Call (name, args); epos = tpos })
      | _ -> { e = Var name; epos = tpos })
  | Token.LPAREN ->
      advance p;
      enter p;
      let e = parse_expr p in
      leave p;
      expect p Token.RPAREN;
      e
  | k -> raise (Error ("expected expression, found " ^ Token.describe k, tpos))

(* --- statements ----------------------------------------------------- *)

let rec parse_stmt p =
  let spos = pos p in
  match kind p with
  | Token.KW_var ->
      advance p;
      let name = expect_ident p in
      expect p Token.ASSIGN;
      let init = parse_expr p in
      expect p Token.SEMI;
      { s = Var_decl (name, init); spos }
  | Token.KW_if ->
      advance p;
      expect p Token.LPAREN;
      let cond = parse_expr p in
      expect p Token.RPAREN;
      let then_ = parse_block p in
      let else_ =
        if kind p = Token.KW_else then begin
          advance p;
          if kind p = Token.KW_if then begin
            enter p;
            let s = parse_stmt p in
            leave p;
            [ s ]
          end
          else parse_block p
        end
        else []
      in
      { s = If (cond, then_, else_); spos }
  | Token.KW_while ->
      advance p;
      expect p Token.LPAREN;
      let cond = parse_expr p in
      expect p Token.RPAREN;
      let body = parse_block p in
      { s = While (cond, body); spos }
  | Token.KW_return ->
      advance p;
      if kind p = Token.SEMI then begin
        advance p;
        { s = Return None; spos }
      end
      else begin
        let e = parse_expr p in
        expect p Token.SEMI;
        { s = Return (Some e); spos }
      end
  | Token.KW_delete ->
      advance p;
      let e = parse_expr p in
      expect p Token.SEMI;
      { s = Delete e; spos }
  | Token.KW_lock ->
      advance p;
      expect p Token.LPAREN;
      let m = parse_expr p in
      expect p Token.RPAREN;
      let body = parse_block p in
      { s = Lock (m, body); spos }
  | Token.LBRACE -> { s = Block (parse_block p); spos }
  | _ -> (
      (* assignment or expression statement: parse an expression, then
         look for '=' *)
      let e = parse_expr p in
      match kind p with
      | Token.ASSIGN -> (
          advance p;
          let rhs = parse_expr p in
          expect p Token.SEMI;
          match e.e with
          | Var name -> { s = Assign (Lvar name, rhs); spos }
          | Field (obj, f) -> { s = Assign (Lfield (obj, f, e.epos), rhs); spos }
          | _ -> raise (Error ("invalid assignment target", e.epos)))
      | _ ->
          expect p Token.SEMI;
          { s = Expr e; spos })

and parse_block p =
  expect p Token.LBRACE;
  enter p;
  let rec go acc =
    match kind p with
    | Token.RBRACE ->
        advance p;
        leave p;
        List.rev acc
    | Token.EOF -> raise (Error ("unexpected end of input in block", pos p))
    | _ -> go (parse_stmt p :: acc)
  in
  go []

(* --- declarations --------------------------------------------------- *)

let parse_fn p =
  let fn_pos = pos p in
  expect p Token.KW_fn;
  let fn_name = expect_ident p in
  expect p Token.LPAREN;
  let rec params acc =
    match kind p with
    | Token.RPAREN ->
        advance p;
        List.rev acc
    | _ -> (
        let name = expect_ident p in
        match kind p with
        | Token.COMMA ->
            advance p;
            params (name :: acc)
        | Token.RPAREN ->
            advance p;
            List.rev (name :: acc)
        | k -> raise (Error ("expected ',' or ')', found " ^ Token.describe k, pos p)))
  in
  let fn_params = params [] in
  let fn_body = parse_block p in
  { fn_name; fn_params; fn_body; fn_pos }

let parse_class p =
  let cls_pos = pos p in
  expect p Token.KW_class;
  let cls_name = expect_ident p in
  let cls_parent =
    if kind p = Token.COLON then begin
      advance p;
      Some (expect_ident p)
    end
    else None
  in
  expect p Token.LBRACE;
  let fields = ref [] and methods = ref [] and dtor = ref None in
  let rec go () =
    match kind p with
    | Token.RBRACE -> advance p
    | Token.KW_var ->
        advance p;
        let name = expect_ident p in
        expect p Token.SEMI;
        fields := name :: !fields;
        go ()
    | Token.KW_fn -> (
        (* method or destructor *)
        let fpos = pos p in
        advance p;
        match kind p with
        | Token.TILDE ->
            advance p;
            let dname = expect_ident p in
            if dname <> cls_name then
              raise (Error ("destructor name must match class name", fpos));
            expect p Token.LPAREN;
            expect p Token.RPAREN;
            let body = parse_block p in
            if !dtor <> None then raise (Error ("duplicate destructor", fpos));
            dtor := Some body;
            go ()
        | _ ->
            let name = expect_ident p in
            expect p Token.LPAREN;
            let rec params acc =
              match kind p with
              | Token.RPAREN ->
                  advance p;
                  List.rev acc
              | _ -> (
                  let pn = expect_ident p in
                  match kind p with
                  | Token.COMMA ->
                      advance p;
                      params (pn :: acc)
                  | Token.RPAREN ->
                      advance p;
                      List.rev (pn :: acc)
                  | k -> raise (Error ("expected ',' or ')', found " ^ Token.describe k, pos p)))
            in
            let fn_params = params [] in
            let fn_body = parse_block p in
            methods := { fn_name = name; fn_params; fn_body; fn_pos = fpos } :: !methods;
            go ())
    | k -> raise (Error ("expected field, method or '}', found " ^ Token.describe k, pos p))
  in
  go ();
  {
    cls_name;
    cls_parent;
    cls_fields = List.rev !fields;
    cls_methods = List.rev !methods;
    cls_dtor = !dtor;
    cls_pos;
  }

let parse_program ~file toks =
  let p = { toks; depth = 0 } in
  let rec go acc =
    match kind p with
    | Token.EOF -> List.rev acc
    | Token.KW_class -> go (Dclass (parse_class p) :: acc)
    | Token.KW_fn -> go (Dfn (parse_fn p) :: acc)
    | k -> raise (Error ("expected declaration, found " ^ Token.describe k, pos p))
  in
  { decls = go []; source_file = file }

(** Front-end convenience: lex + parse. *)
let parse_string ~file src = parse_program ~file (Lexer.tokens ~file src)
