(* Generative testing of the MiniC++ pipeline: random well-formed
   programs are pretty-printed, re-parsed, checked, annotated and
   executed.  Properties:

   - pretty/reparse is the identity (modulo printing);
   - the checker accepts every generated program;
   - the interpreter runs them without runtime errors, deadlocks or
     VM misuse;
   - the annotation pass never changes program output;
   - execution is deterministic per seed;
   - the front end fails closed: example programs with 1-3 bytes
     edited parse and check, or raise the lexer's or parser's [Error]. *)

module M = Raceguard_minicc
module Vm = Raceguard_vm
module Engine = Vm.Engine
open M.Ast

let pos = { M.Token.file = "gen.mcc"; line = 1; col = 1 }
let e d = { e = d; epos = pos }
let s d = { s = d; spos = pos }

(* --- AST generators --------------------------------------------------- *)

open QCheck2.Gen

(* integer expressions over the variables in scope (no division: the
   generator guarantees crash-freedom) *)
let rec gen_expr ~vars n =
  if n <= 0 then gen_atom ~vars
  else
    oneof
      [
        gen_atom ~vars;
        (let* op = oneofl [ Add; Sub; Mul; Eq; Neq; Lt; Le; Gt; Ge; And; Or ] in
         let* a = gen_expr ~vars (n / 2) in
         let* b = gen_expr ~vars (n / 2) in
         return (e (Binop (op, a, b))));
        (let* a = gen_expr ~vars (n - 1) in
         return (e (Unop (Not, a))));
        (let* a = gen_expr ~vars (n - 1) in
         return (e (Unop (Neg, a))));
      ]

and gen_atom ~vars =
  if vars = [] then map (fun n -> e (Int n)) (int_range (-20) 20)
  else
    oneof
      [
        map (fun n -> e (Int n)) (int_range (-20) 20);
        map (fun v -> e (Var v)) (oneofl vars);
      ]

(* statements writing only to [vars]; bounded loops by construction *)
let gen_stmts ~vars =
  let* items =
    list_size (int_bound 6)
      (oneof
         [
           (let* v = oneofl vars in
            let* ex = gen_expr ~vars 3 in
            return (`Assign (v, ex)));
           (let* ex = gen_expr ~vars 2 in
            return (`Print ex));
           (let* c = gen_expr ~vars 2 in
            let* v = oneofl vars in
            let* a = gen_expr ~vars 2 in
            return (`If (c, v, a)));
           (let* v = oneofl vars in
            let* iters = int_range 1 4 in
            return (`Loop (v, iters)));
         ])
  in
  return
    (List.concat_map
       (function
         | `Assign (v, ex) -> [ s (Assign (Lvar v, ex)) ]
         | `Print ex -> [ s (Expr (e (Call ("print", [ ex ])))) ]
         | `If (c, v, a) -> [ s (If (c, [ s (Assign (Lvar v, a)) ], [])) ]
         | `Loop (v, iters) ->
             (* var __i = 0; while (__i < iters) { v = v + __i; __i = __i + 1; } *)
             let i = "__i_" ^ v in
             [
               s (Var_decl (i, e (Int 0)));
               s
                 (While
                    ( e (Binop (Lt, e (Var i), e (Int iters))),
                      [
                        s (Assign (Lvar v, e (Binop (Add, e (Var v), e (Var i)))));
                        s (Assign (Lvar i, e (Binop (Add, e (Var i), e (Int 1)))));
                      ] ));
             ])
       items)

let gen_function ~name =
  let params = [ "p"; "q" ] in
  let* decls = list_size (int_bound 2) (int_range 0 9) in
  let vars = params @ List.mapi (fun i _ -> Printf.sprintf "v%d" i) decls in
  let decl_stmts =
    List.mapi (fun i init -> s (Var_decl (Printf.sprintf "v%d" i, e (Int init)))) decls
  in
  let* body = gen_stmts ~vars in
  let* ret = gen_expr ~vars 2 in
  return
    {
      fn_name = name;
      fn_params = params;
      fn_body = decl_stmts @ body @ [ s (Return (Some ret)) ];
      fn_pos = pos;
    }

let gen_program =
  let* n_fns = int_range 1 3 in
  let* fns =
    flatten_l (List.init n_fns (fun i -> gen_function ~name:(Printf.sprintf "f%d" i)))
  in
  (* main: declare locals, call the functions, spawn/join one worker *)
  let* main_body = gen_stmts ~vars:[ "a"; "b" ] in
  let calls =
    List.map
      (fun f ->
        s
          (Expr
             (e (Call ("print", [ e (Call (f.fn_name, [ e (Var "a"); e (Int 3) ])) ])))) )
      fns
  in
  let spawn_join =
    [
      s (Var_decl ("t", e (Spawn ((List.hd fns).fn_name, [ e (Int 1); e (Int 2) ]))));
      s (Expr (e (Call ("join", [ e (Var "t") ]))));
    ]
  in
  let main =
    {
      fn_name = "main";
      fn_params = [];
      fn_body =
        [ s (Var_decl ("a", e (Int 5))); s (Var_decl ("b", e (Int 7))) ]
        @ main_body @ calls @ spawn_join
        @ [ s (Return (Some (e (Int 0)))) ];
      fn_pos = pos;
    }
  in
  return { decls = List.map (fun f -> Dfn f) fns @ [ Dfn main ]; source_file = "gen.mcc" }

(* a richer generator exercising the object-oriented surface: classes
   with fields, methods and destructors, allocation, field assignment,
   method calls, scoped lock statements and delete *)
let gen_class_program =
  let* n_fields = int_range 1 3 in
  let fields = List.init n_fields (Printf.sprintf "f%d") in
  let* inits = flatten_l (List.map (fun _ -> int_range 0 9) fields) in
  let* bump = int_range 1 5 in
  let* with_dtor = bool in
  let* with_lock = bool in
  let* extra = gen_stmts ~vars:[ "a" ] in
  let fld o f = e (Field (o, f)) in
  let f0 = List.hd fields in
  let meth =
    {
      fn_name = "bump";
      fn_params = [ "n" ];
      fn_body =
        [
          s
            (Assign
               ( Lfield (e This, f0, pos),
                 e (Binop (Add, fld (e This) f0, e (Var "n"))) ));
          s (Return (Some (fld (e This) f0)));
        ];
      fn_pos = pos;
    }
  in
  let cls =
    {
      cls_name = "C";
      cls_parent = None;
      cls_fields = fields;
      cls_methods = [ meth ];
      cls_dtor =
        (if with_dtor then Some [ s (Assign (Lfield (e This, f0, pos), e (Int 0))) ]
         else None);
      cls_pos = pos;
    }
  in
  let o = e (Var "o") in
  let main_body =
    [ s (Var_decl ("a", e (Int 4))); s (Var_decl ("m", e (Call ("mutex", [ e (Str "g") ])))) ]
    @ [ s (Var_decl ("o", e (New "C"))) ]
    @ List.map2 (fun f v -> s (Assign (Lfield (o, f, pos), e (Int v)))) fields inits
    @ (if with_lock then
         [ s (Lock (e (Var "m"), [ s (Assign (Lfield (o, f0, pos), fld o f0)) ])) ]
       else [])
    @ extra
    @ [
        s (Expr (e (Call ("print", [ e (Method_call (o, "bump", [ e (Int bump) ])) ]))));
        s (Delete o);
        s (Return (Some (e (Int 0))));
      ]
  in
  let main = { fn_name = "main"; fn_params = []; fn_body = main_body; fn_pos = pos } in
  return { decls = [ Dclass cls; Dfn main ]; source_file = "gen.mcc" }

(* --- AST normalisation (round-trip modulo printing) --------------------- *)

(* Two programs are the same modulo printing when they are equal after
   zeroing every source position and folding the one encoding the
   printer legitimately conflates: [Unop (Neg, Int n)] prints as the
   literal [-n].  [Deletor x] prints as [ca_deletor_single(x)], which
   parses back to [Deletor x]. *)
let zero_pos = { M.Token.file = ""; line = 0; col = 0 }

let rec norm_expr e0 =
  let d =
    match e0.e with
    | Int n -> Int n
    | Str s -> Str s
    | Null -> Null
    | Var v -> Var v
    | This -> This
    | Field (o, f) -> Field (norm_expr o, f)
    | Binop (op, a, b) -> Binop (op, norm_expr a, norm_expr b)
    | Unop (Neg, a) -> (
        match norm_expr a with
        | { e = Int n; _ } -> Int (-n)
        | a' -> Unop (Neg, a'))
    | Unop (op, a) -> Unop (op, norm_expr a)
    | Call (f, args) -> Call (f, List.map norm_expr args)
    | Method_call (o, m, args) -> Method_call (norm_expr o, m, List.map norm_expr args)
    | New c -> New c
    | Spawn (f, args) -> Spawn (f, List.map norm_expr args)
    | Deletor x -> Deletor (norm_expr x)
  in
  { e = d; epos = zero_pos }

let norm_lvalue = function
  | Lvar v -> Lvar v
  | Lfield (o, f, _) -> Lfield (norm_expr o, f, zero_pos)

let rec norm_stmt s0 =
  let d =
    match s0.s with
    | Var_decl (v, e) -> Var_decl (v, norm_expr e)
    | Assign (lv, e) -> Assign (norm_lvalue lv, norm_expr e)
    | Expr e -> Expr (norm_expr e)
    | If (c, a, b) -> If (norm_expr c, List.map norm_stmt a, List.map norm_stmt b)
    | While (c, b) -> While (norm_expr c, List.map norm_stmt b)
    | Return e -> Return (Option.map norm_expr e)
    | Delete e -> Delete (norm_expr e)
    | Lock (m, b) -> Lock (norm_expr m, List.map norm_stmt b)
    | Block b -> Block (List.map norm_stmt b)
  in
  { s = d; spos = zero_pos }

let norm_fn f =
  { f with fn_body = List.map norm_stmt f.fn_body; fn_pos = zero_pos }

let norm_decl = function
  | Dfn f -> Dfn (norm_fn f)
  | Dclass c ->
      Dclass
        {
          c with
          cls_methods = List.map norm_fn c.cls_methods;
          cls_dtor = Option.map (List.map norm_stmt) c.cls_dtor;
          cls_pos = zero_pos;
        }

let norm p = { decls = List.map norm_decl p.decls; source_file = "" }

let ast_roundtrips p =
  let reparsed = M.Parser.parse_string ~file:"gen.mcc" (M.Pretty.program p) in
  norm reparsed = norm p

(* --- properties -------------------------------------------------------- *)

let execute ?(seed = 1) program =
  let interp = M.Interp.create program in
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  let outcome = Engine.run vm (fun () -> M.Interp.run_main interp) in
  (outcome, M.Interp.output interp)

let qc_roundtrip =
  QCheck2.Test.make ~name:"generated programs: pretty/reparse identity" ~count:150 gen_program
    (fun p ->
      let printed = M.Pretty.program p in
      let reparsed = M.Parser.parse_string ~file:"gen.mcc" printed in
      M.Pretty.program reparsed = printed)

let qc_ast_roundtrip =
  QCheck2.Test.make ~name:"generated programs: parse o pretty = id on the AST" ~count:150
    gen_program ast_roundtrips

let qc_ast_roundtrip_classes =
  QCheck2.Test.make
    ~name:"generated class programs: parse o pretty = id on the AST" ~count:150
    gen_class_program ast_roundtrips

let qc_class_checker_accepts =
  QCheck2.Test.make ~name:"generated class programs: checker accepts" ~count:100
    gen_class_program (fun p -> M.Check.check_all p = [])

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_examples_ast_roundtrip () =
  Array.iter
    (fun file ->
      let path = "../examples/programs/" ^ file in
      let p =
        M.Preprocess.parse (M.Preprocess.with_builtins ()) ~file:path (read_file path)
      in
      Alcotest.(check bool) (file ^ " round-trips") true (ast_roundtrips p);
      (* the annotated variant exercises the Deletor printing *)
      let annotated, _ = M.Annotate.annotate p in
      Alcotest.(check bool) (file ^ " annotated round-trips") true (ast_roundtrips annotated))
    (Sys.readdir "../examples/programs")

(* --- the front end fails closed ---------------------------------------- *)

let example_sources =
  lazy
    (Sys.readdir "../examples/programs" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mcc")
    |> List.sort compare
    |> List.map (fun f -> read_file ("../examples/programs/" ^ f)))

(* an example program with 1-3 bytes replaced, inserted or deleted, or
   cut short *)
let gen_mutated_example =
  let* () = return () in
  let* src = oneofl (Lazy.force example_sources) in
  let* edits = int_range 1 3 in
  let rec go s k =
    if k = 0 || s = "" then return s
    else
      let* i = int_bound (String.length s - 1) in
      let* ch = oneof [ char; oneofl [ '('; ')'; '{'; '}'; ';'; '"'; '/'; '*'; '.'; '-'; '!'; '~' ] ] in
      let* s =
        oneofl
          [
            String.mapi (fun j c -> if j = i then ch else c) s;
            String.sub s 0 i ^ String.make 1 ch ^ String.sub s i (String.length s - i);
            String.sub s 0 i ^ String.sub s (i + 1) (String.length s - i - 1);
            String.sub s 0 i;
          ]
      in
      go s (k - 1)
  in
  go src edits

let qc_front_end_fails_closed =
  QCheck2.Test.make ~name:"mutated examples: parse and check raise only their errors" ~count:2000
    ~print:String.escaped gen_mutated_example (fun src ->
      match M.Parser.parse_string ~file:"mutated.mcc" src with
      | p ->
          ignore (M.Check.check_all p);
          true
      | exception (M.Parser.Error _ | M.Lexer.Error _) -> true)

let qc_checker_accepts =
  QCheck2.Test.make ~name:"generated programs: checker accepts" ~count:150 gen_program
    (fun p ->
      match M.Check.check p with () -> true | exception M.Check.Error _ -> false)

let qc_runs_clean =
  QCheck2.Test.make ~name:"generated programs: run without errors" ~count:100 gen_program
    (fun p ->
      let outcome, _ = execute p in
      outcome.failures = [] && outcome.deadlock = None)

let qc_annotation_preserves_output =
  QCheck2.Test.make ~name:"generated programs: annotation preserves output" ~count:100
    gen_program (fun p ->
      let annotated, _ = M.Annotate.annotate p in
      let _, out1 = execute p in
      let _, out2 = execute annotated in
      out1 = out2)

let qc_deterministic =
  QCheck2.Test.make ~name:"generated programs: deterministic per seed" ~count:60 gen_program
    (fun p ->
      let _, a = execute ~seed:9 p in
      let _, b = execute ~seed:9 p in
      a = b)

let suite =
  ( "minicc-gen",
    [
      QCheck_alcotest.to_alcotest qc_roundtrip;
      QCheck_alcotest.to_alcotest qc_ast_roundtrip;
      QCheck_alcotest.to_alcotest qc_ast_roundtrip_classes;
      QCheck_alcotest.to_alcotest qc_class_checker_accepts;
      Alcotest.test_case "example programs: parse o pretty = id on the AST" `Quick
        test_examples_ast_roundtrip;
      QCheck_alcotest.to_alcotest qc_front_end_fails_closed;
      QCheck_alcotest.to_alcotest qc_checker_accepts;
      QCheck_alcotest.to_alcotest qc_runs_clean;
      QCheck_alcotest.to_alcotest qc_annotation_preserves_output;
      QCheck_alcotest.to_alcotest qc_deterministic;
    ] )
