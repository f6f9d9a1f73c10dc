(* Tests for the MiniC++ pipeline: lexer, parser, preprocessor, checks,
   annotation pass, pretty-printer roundtrip, and the interpreter. *)

module M = Raceguard_minicc
module Vm = Raceguard_vm
module Engine = Vm.Engine
module Det = Raceguard_detector

(* run a program source, return (interp output, thread failures) *)
let exec ?(seed = 1) ?(annotate = true) src =
  let interp, _pretty, _n = M.Interp.compile ~annotate ~file:"t.mcc" src in
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  let outcome = Engine.run vm (fun () -> M.Interp.run_main interp) in
  (M.Interp.output interp, outcome.failures)

let exec_ok ?seed ?annotate src =
  let out, failures = exec ?seed ?annotate src in
  (match failures with
  | [] -> ()
  | (_, name, e) :: _ -> Alcotest.failf "thread %s raised %s" name (Printexc.to_string e));
  out

(* --- lexer -------------------------------------------------------------- *)

let test_lexer_tokens () =
  let toks = M.Lexer.tokens ~file:"x" "fn f() { return 1 + 2; } // comment" in
  let kinds = List.map (fun t -> t.M.Token.kind) toks in
  Alcotest.(check int) "token count" 12 (List.length kinds);
  Alcotest.(check bool) "starts with fn" true (List.hd kinds = M.Token.KW_fn)

let test_lexer_positions () =
  let toks = M.Lexer.tokens ~file:"x" "fn\n  f" in
  match toks with
  | [ fn_tok; f_tok; _eof ] ->
      Alcotest.(check int) "fn line" 1 fn_tok.M.Token.pos.line;
      Alcotest.(check int) "f line" 2 f_tok.M.Token.pos.line;
      Alcotest.(check int) "f col" 3 f_tok.M.Token.pos.col
  | _ -> Alcotest.fail "unexpected token count"

let test_lexer_string_escapes () =
  let toks = M.Lexer.tokens ~file:"x" {|fn f() { print_str("a\nb\"c"); }|} in
  let strings =
    List.filter_map (fun t -> match t.M.Token.kind with M.Token.STRING s -> Some s | _ -> None) toks
  in
  Alcotest.(check (list string)) "escapes decoded" [ "a\nb\"c" ] strings

let test_lexer_comments_and_errors () =
  let toks = M.Lexer.tokens ~file:"x" "/* multi \n line */ 42" in
  Alcotest.(check int) "comment skipped" 2 (List.length toks);
  Alcotest.(check bool) "bad char rejected" true
    (match M.Lexer.tokens ~file:"x" "fn f() { @ }" with
    | exception M.Lexer.Error _ -> true
    | _ -> false);
  Alcotest.(check bool) "unterminated string rejected" true
    (match M.Lexer.tokens ~file:"x" "\"oops" with
    | exception M.Lexer.Error _ -> true
    | _ -> false)

(* --- parser ------------------------------------------------------------- *)

let parse src = M.Parser.parse_string ~file:"t.mcc" src

let test_parser_precedence () =
  let p = parse "fn main() { var x = 1 + 2 * 3 == 7 && 1 < 2; return x; }" in
  (* pretty-print normalises; reparse must agree *)
  let printed = M.Pretty.program p in
  let p2 = parse printed in
  Alcotest.(check string) "stable under pretty/reparse" printed (M.Pretty.program p2)

let test_parser_errors () =
  let rejects src =
    match parse src with exception M.Parser.Error _ -> true | _ -> false
  in
  Alcotest.(check bool) "missing semicolon" true (rejects "fn main() { return 1 }");
  Alcotest.(check bool) "bad assignment target" true (rejects "fn main() { 1 = 2; }");
  Alcotest.(check bool) "unclosed block" true (rejects "fn main() { ");
  Alcotest.(check bool) "dtor name mismatch" true
    (rejects "class A { fn ~B() { } } fn main() { return 0; }")

let test_parser_class () =
  let p =
    parse
      "class A { var x; fn ~A() { this.x = 0; } fn get() { return this.x; } }\n\
       class B : A { var y; }\n\
       fn main() { return 0; }"
  in
  match M.Ast.classes p with
  | [ a; b ] ->
      Alcotest.(check string) "name" "A" a.M.Ast.cls_name;
      Alcotest.(check (list string)) "fields" [ "x" ] a.M.Ast.cls_fields;
      Alcotest.(check bool) "dtor present" true (a.M.Ast.cls_dtor <> None);
      Alcotest.(check int) "methods" 1 (List.length a.M.Ast.cls_methods);
      Alcotest.(check (option string)) "parent" (Some "A") b.M.Ast.cls_parent
  | l -> Alcotest.failf "expected 2 classes, got %d" (List.length l)

(* pretty-print/reparse roundtrip over a corpus of programs *)
let corpus =
  [
    "fn main() { return 0; }";
    "fn main() { var x = -5; if (x < 0) { x = 0 - x; } return x; }";
    "fn main() { var i = 0; while (i < 10) { i = i + 1; } return i; }";
    "fn f(a, b) { return a % b; } fn main() { return f(17, 5); }";
    "class P { var v; } fn main() { var p = new P(); p.v = 3; var r = p.v; delete p; return r; }";
    "fn w(x) { return x; } fn main() { var t = spawn w(1); join(t); return 0; }";
    "fn main() { var m = mutex(\"m\"); lock (m) { yield(); } return 0; }";
    "fn main() { if (1) { return 1; } else { if (0) { return 2; } } return 3; }";
    "fn main() { var x = 1 && 0 || !0; var y = (1 + 2) * (3 - 4); return x + y; }";
  ]

let test_roundtrip_corpus () =
  List.iter
    (fun src ->
      let p = parse src in
      let printed = M.Pretty.program p in
      let p2 = parse printed in
      Alcotest.(check string)
        ("roundtrip: " ^ src)
        printed (M.Pretty.program p2))
    corpus

(* --- preprocessor --------------------------------------------------------- *)

let test_preprocess_include () =
  let pp = M.Preprocess.create () in
  M.Preprocess.register pp ~name:"lib.h" ~source:"fn helper() { return 7; }";
  let ast = M.Preprocess.parse pp ~file:"t.mcc" "#include \"lib.h\"\nfn main() { return helper(); }" in
  Alcotest.(check int) "two functions after splice" 2 (List.length (M.Ast.functions ast))

let test_preprocess_missing_header () =
  let pp = M.Preprocess.create () in
  Alcotest.(check bool) "missing header rejected" true
    (match M.Preprocess.parse pp ~file:"t" "#include \"nope.h\"\nfn main() { return 0; }" with
    | exception M.Preprocess.Error _ -> true
    | _ -> false)

let test_preprocess_include_once () =
  let pp = M.Preprocess.create () in
  M.Preprocess.register pp ~name:"a.h" ~source:"#include \"b.h\"\nfn fa() { return 1; }";
  M.Preprocess.register pp ~name:"b.h" ~source:"#include \"a.h\"\nfn fb() { return 2; }";
  let ast =
    M.Preprocess.parse pp ~file:"t"
      "#include \"a.h\"\n#include \"b.h\"\nfn main() { return fa() + fb(); }"
  in
  Alcotest.(check int) "cyclic includes resolved once" 3 (List.length (M.Ast.functions ast))

(* --- semantic checks -------------------------------------------------------- *)

let check_rejects src =
  let ast = parse src in
  match M.Check.check ast with exception M.Check.Error _ -> true | _ -> false

let test_checker () =
  Alcotest.(check bool) "undefined variable" true
    (check_rejects "fn main() { return nope; }");
  Alcotest.(check bool) "unknown function" true
    (check_rejects "fn main() { return nope(); }");
  Alcotest.(check bool) "arity mismatch" true
    (check_rejects "fn f(a) { return a; } fn main() { return f(1, 2); }");
  Alcotest.(check bool) "duplicate class" true
    (check_rejects "class A { } class A { } fn main() { return 0; }");
  Alcotest.(check bool) "unknown parent" true
    (check_rejects "class A : Z { } fn main() { return 0; }");
  Alcotest.(check bool) "this outside method" true
    (check_rejects "fn main() { return this.x; }");
  Alcotest.(check bool) "missing main" true (check_rejects "fn helper() { return 0; }");
  Alcotest.(check bool) "spawn arity" true
    (check_rejects "fn w(a) { return a; } fn main() { var t = spawn w(); join(t); return 0; }");
  Alcotest.(check bool) "duplicate field in hierarchy" true
    (check_rejects "class A { var x; } class B : A { var x; } fn main() { return 0; }");
  Alcotest.(check bool) "builtin shadowing" true
    (check_rejects "fn print(x) { return x; } fn main() { return 0; }")

(* --- annotation pass ---------------------------------------------------------- *)

let test_annotate_counts_and_idempotent () =
  let src =
    "class A { var x; }\n\
     fn main() { var p = new A(); var q = new A(); delete p; delete q; return 0; }"
  in
  let ast = parse src in
  let ast1, n1 = M.Annotate.annotate ast in
  Alcotest.(check int) "two deletes annotated" 2 n1;
  Alcotest.(check int) "no raw deletes remain" 0 (M.Annotate.unannotated_deletes ast1);
  let _, n2 = M.Annotate.annotate ast1 in
  Alcotest.(check int) "idempotent" 0 n2;
  Alcotest.(check int) "raw source has raw deletes" 2 (M.Annotate.unannotated_deletes ast)

let test_annotate_pretty_shows_figure4 () =
  let ast = parse "class A { var x; } fn g(p) { delete p; return 0; } fn main() { var p = new A(); g(p); return 0; }" in
  let ast', _ = M.Annotate.annotate ast in
  let printed = M.Pretty.program ast' in
  Alcotest.(check bool) "deletor wrapper visible" true
    (let needle = "delete ca_deletor_single(p);" in
     let rec contains i =
       i + String.length needle <= String.length printed
       && (String.sub printed i (String.length needle) = needle || contains (i + 1))
     in
     contains 0)

(* Annotated source fed back in: the printed deletor call parses to the
   node the annotator made, so a second annotation changes nothing,
   [check] counts no raw delete, and the build issues the same VM
   operations as the first (no second HG_DESTRUCT). *)
let test_annotate_round_trip_examples () =
  let dir = "../examples/programs/" in
  let header = "// instrumented build\n#include \"valgrind/helgrind.h\"" in
  let ops ~file src =
    let interp, _, _ = M.Interp.compile ~annotate:true ~file src in
    let vm = Engine.create ~config:{ Engine.default_config with seed = 1 } () in
    (Engine.run vm (fun () -> M.Interp.run_main interp)).stats.ops_executed
  in
  Sys.readdir dir |> Array.to_list |> List.filter (fun f -> Filename.check_suffix f ".mcc")
  |> List.sort compare
  |> List.iter (fun name ->
         let file = dir ^ name in
         let src = In_channel.with_open_bin file In_channel.input_all in
         let parse src = M.Preprocess.parse (M.Preprocess.with_builtins ()) ~file src in
         let once = M.Pretty.program ~header_comment:header (fst (M.Annotate.annotate (parse src))) in
         let reparsed = parse once in
         Alcotest.(check int) (name ^ ": no raw delete") 0 (M.Annotate.unannotated_deletes reparsed);
         let twice, n = M.Annotate.annotate reparsed in
         Alcotest.(check int) (name ^ ": nothing to annotate") 0 n;
         Alcotest.(check string) (name ^ ": same source") once
           (M.Pretty.program ~header_comment:header twice);
         Alcotest.(check int) (name ^ ": same VM operations") (ops ~file src) (ops ~file once))

(* --- interpreter --------------------------------------------------------------- *)

let test_interp_arithmetic () =
  let out =
    exec_ok
      "fn main() { print(2 + 3 * 4); print(10 / 3); print(10 % 3); print(0 - 4); \
       print(1 < 2); print(2 <= 1); print(5 == 5); print(5 != 5); return 0; }"
  in
  Alcotest.(check (list string)) "arithmetic" [ "14"; "3"; "1"; "-4"; "1"; "0"; "1"; "0" ] out

let test_interp_short_circuit () =
  (* the right operand of && must not run when the left is false *)
  let out =
    exec_ok
      "fn boom() { print(999); return 1; }\n\
       fn main() { var x = 0 && boom(); var y = 1 || boom(); print(x); print(y); return 0; }"
  in
  Alcotest.(check (list string)) "short circuit" [ "0"; "1" ] out

let test_interp_control_flow () =
  let out =
    exec_ok
      "fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }\n\
       fn main() { print(fib(12)); var i = 0; var s = 0; while (i < 5) { s = s + i; i = i + 1; } print(s); return 0; }"
  in
  Alcotest.(check (list string)) "fib + loop" [ "144"; "10" ] out

let test_interp_objects_and_dispatch () =
  let out =
    exec_ok
      "class Animal { var legs; fn noise() { return 1; } fn describe() { return this.noise() * 100 + this.legs; } }\n\
       class Dog : Animal { fn noise() { return 2; } }\n\
       fn main() {\n\
         var a = new Animal(); a.legs = 2;\n\
         var d = new Dog(); d.legs = 4;\n\
         print(a.describe()); print(d.describe());\n\
         delete a; delete d; return 0;\n\
       }"
  in
  Alcotest.(check (list string)) "virtual dispatch" [ "102"; "204" ] out

let test_interp_threads () =
  let out =
    exec_ok ~seed:5
      "fn worker(cell, m, n) {\n\
         var i = 0;\n\
         while (i < n) { lock (m) { store(cell, load(cell) + 1); } i = i + 1; }\n\
         return 0;\n\
       }\n\
       fn main() {\n\
         var cell = alloc(1); var m = mutex(\"m\");\n\
         var t1 = spawn worker(cell, m, 10);\n\
         var t2 = spawn worker(cell, m, 10);\n\
         join(t1); join(t2);\n\
         print(load(cell)); free(cell); return 0;\n\
       }"
  in
  Alcotest.(check (list string)) "threads with mutex" [ "20" ] out

let test_interp_rwlock_and_sem () =
  let out =
    exec_ok ~seed:7
      "fn reader(rw, cell, results) {\n\
         rdlock(rw); var v = load(cell); rw_unlock(rw);\n\
         sem_post(results);\n\
         return v;\n\
       }\n\
       fn main() {\n\
         var rw = rwlock(\"rw\"); var cell = alloc(1);\n\
         var results = sem(\"results\", 0);\n\
         wrlock(rw); store(cell, 5); rw_unlock(rw);\n\
         var t1 = spawn reader(rw, cell, results);\n\
         var t2 = spawn reader(rw, cell, results);\n\
         sem_wait(results); sem_wait(results);\n\
         join(t1); join(t2);\n\
         wrlock(rw); print(load(cell)); rw_unlock(rw);\n\
         free(cell); return 0;\n\
       }"
  in
  Alcotest.(check (list string)) "rwlock/sem program" [ "5" ] out

let test_interp_cond_handshake () =
  let out =
    exec_ok ~seed:9
      "fn waiter(m, cv, flag, cell) {\n\
         mutex_lock(m);\n\
         while (load(flag) == 0) { cond_wait(cv, m); }\n\
         print(load(cell));\n\
         mutex_unlock(m);\n\
         return 0;\n\
       }\n\
       fn main() {\n\
         var m = mutex(\"m\"); var cv = cond(\"cv\");\n\
         var flag = alloc(1); var cell = alloc(1);\n\
         var t = spawn waiter(m, cv, flag, cell);\n\
         sleep(5);\n\
         mutex_lock(m); store(cell, 77); store(flag, 1); cond_signal(cv); mutex_unlock(m);\n\
         join(t); return 0;\n\
       }"
  in
  Alcotest.(check (list string)) "condvar handshake" [ "77" ] out

let test_interp_runtime_errors () =
  let fails src =
    let _, failures = exec src in
    failures <> []
  in
  Alcotest.(check bool) "null deref" true
    (fails "class A { var x; } fn main() { var p = null; return p.x; }");
  Alcotest.(check bool) "division by zero" true (fails "fn main() { return 1 / 0; }");
  Alcotest.(check bool) "bad vptr after free" true
    (fails
       "class A { var x; } fn main() { var p = new A(); delete p; delete p; return 0; }")

let test_interp_dtor_order () =
  let out =
    exec_ok
      "class A { var x; fn ~A() { print(1); } }\n\
       class B : A { var y; fn ~B() { print(2); } }\n\
       fn main() { var p = new B(); delete p; return 0; }"
  in
  Alcotest.(check (list string)) "derived dtor first" [ "2"; "1" ] out

let test_annotation_preserves_semantics () =
  let src =
    "class A { var x; fn ~A() { print(7); } }\n\
     fn main() { var p = new A(); p.x = 3; print(p.x); delete p; return 0; }"
  in
  Alcotest.(check (list string)) "same output with and without annotation"
    (exec_ok ~annotate:false src) (exec_ok ~annotate:true src)

(* end-to-end: the annotated build removes destructor FPs, keeps races *)
let racy_src =
  "class Shared { var count; }\n\
   fn worker(p) { p.count = p.count + 1; return 0; }\n\
   fn main() {\n\
     var p = new Shared(); p.count = 0;\n\
     var t1 = spawn worker(p); var t2 = spawn worker(p);\n\
     join(t1); join(t2);\n\
     delete p; return 0;\n\
   }"

let locations ~annotate src =
  let interp, _, _ = M.Interp.compile ~annotate ~file:"t.mcc" src in
  let h = Det.Helgrind.create Det.Helgrind.hwlc_dr in
  let vm = Engine.create ~config:{ Engine.default_config with seed = 2 } () in
  Engine.add_tool vm (Det.Helgrind.tool h);
  let outcome = Engine.run vm (fun () -> M.Interp.run_main interp) in
  assert (outcome.failures = []);
  Det.Helgrind.locations h

let test_interp_benign_race_builtin () =
  let src =
    "fn worker(cell) { store(cell, 2); return 0; }\n\
     fn main() {\n\
       var cell = alloc(1);\n\
       benign_race(cell, 1);\n\
       store(cell, 1);\n\
       var t = spawn worker(cell);\n\
       store(cell, 3);\n\
       join(t); free(cell); return 0;\n\
     }"
  in
  Alcotest.(check int) "benign_race silences the cell" 0
    (List.length (locations ~annotate:true src))

let test_detector_still_sees_real_race () =
  let locs = locations ~annotate:true racy_src in
  Alcotest.(check bool) "real race reported in annotated build" true
    (List.exists
       (fun ((r : Det.Report.t), _) ->
         List.exists (fun l -> Raceguard_util.Loc.func l = "worker") r.stack)
       locs)

let test_annotation_removes_only_dtor_reports () =
  let without = locations ~annotate:false racy_src in
  let with_ = locations ~annotate:true racy_src in
  let dtor_reports locs =
    List.length
      (List.filter
         (fun ((r : Det.Report.t), _) ->
           List.exists
             (fun l ->
               let f = Raceguard_util.Loc.func l in
               String.length f > 2 && String.contains f '~')
             r.stack)
         locs)
  in
  Alcotest.(check bool) "uninstrumented has dtor reports" true (dtor_reports without > 0);
  Alcotest.(check int) "instrumented has none" 0 (dtor_reports with_);
  Alcotest.(check bool) "fewer locations overall" true (List.length with_ < List.length without)

let suite =
  ( "minicc",
    [
      Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
      Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
      Alcotest.test_case "lexer string escapes" `Quick test_lexer_string_escapes;
      Alcotest.test_case "lexer comments/errors" `Quick test_lexer_comments_and_errors;
      Alcotest.test_case "parser precedence" `Quick test_parser_precedence;
      Alcotest.test_case "parser errors" `Quick test_parser_errors;
      Alcotest.test_case "parser classes" `Quick test_parser_class;
      Alcotest.test_case "pretty/reparse corpus" `Quick test_roundtrip_corpus;
      Alcotest.test_case "preprocess include" `Quick test_preprocess_include;
      Alcotest.test_case "preprocess missing header" `Quick test_preprocess_missing_header;
      Alcotest.test_case "preprocess include-once" `Quick test_preprocess_include_once;
      Alcotest.test_case "semantic checks" `Quick test_checker;
      Alcotest.test_case "annotate: count/idempotent" `Quick test_annotate_counts_and_idempotent;
      Alcotest.test_case "annotate: figure 4 output" `Quick test_annotate_pretty_shows_figure4;
      Alcotest.test_case "annotate: output round-trips" `Quick test_annotate_round_trip_examples;
      Alcotest.test_case "interp arithmetic" `Quick test_interp_arithmetic;
      Alcotest.test_case "interp short circuit" `Quick test_interp_short_circuit;
      Alcotest.test_case "interp control flow" `Quick test_interp_control_flow;
      Alcotest.test_case "interp virtual dispatch" `Quick test_interp_objects_and_dispatch;
      Alcotest.test_case "interp threads" `Quick test_interp_threads;
      Alcotest.test_case "interp rwlock+sem" `Quick test_interp_rwlock_and_sem;
      Alcotest.test_case "interp condvar" `Quick test_interp_cond_handshake;
      Alcotest.test_case "interp benign_race" `Quick test_interp_benign_race_builtin;
      Alcotest.test_case "interp runtime errors" `Quick test_interp_runtime_errors;
      Alcotest.test_case "interp dtor order" `Quick test_interp_dtor_order;
      Alcotest.test_case "annotation preserves semantics" `Quick test_annotation_preserves_semantics;
      Alcotest.test_case "detector sees real race" `Quick test_detector_still_sees_real_race;
      Alcotest.test_case "annotation removes dtor reports" `Quick test_annotation_removes_only_dtor_reports;
    ] )
