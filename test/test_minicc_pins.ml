(* MD5 pins of what the MiniC++ tools produce.  Every pass that names
   frames, resolves methods or walks the tree (Interp, Static_race,
   Callgraph, Annotate, Check and the repair engine) feeds one of these
   bytes, so a change to the shared program model in [Ast] that moves
   any of them fails here:

   - per example program: the lint JSON, the annotated source, the call
     graph, the static/dynamic cross-check at seeds 1-3 and the digest
     of every HWLC+DR report at seed 1;
   - the repair engine's JSON and emitted source on the two programs it
     repairs;
   - the lint JSON of a nested spawn, which fixes the order in which
     thread roots are numbered;
   - the order of [Check.check_all]'s diagnostics: every free function,
     then each class. *)

module M = Raceguard_minicc
module R = Raceguard
module Det = Raceguard_detector
module Engine = Raceguard_vm.Engine
module Json = Raceguard_obs.Json
module Fix = Raceguard_fix

let md5 s = Digest.to_hex (Digest.string s)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let path name = "../examples/programs/" ^ name ^ ".mcc"
let parse ~file src = M.Preprocess.parse (M.Preprocess.with_builtins ()) ~file src

(* every HWLC+DR report of one seeded run of the annotated build *)
let run_reports ~seed name =
  let interp, _, _ = M.Interp.compile ~annotate:true ~file:(path name) (read_file (path name)) in
  let reports = ref [] in
  let h = Det.Helgrind.create ~on_report:(fun r -> reports := r :: !reports) Det.Helgrind.hwlc_dr in
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  Engine.add_tool vm (Det.Helgrind.tool h);
  ignore (Engine.run vm (fun () -> M.Interp.run_main interp));
  List.rev !reports

let example_outputs name =
  let ast = parse ~file:(path name) (read_file (path name)) in
  let static = M.Static_race.analyse ast in
  let cross =
    R.Static_dyn.cross_check_seeds ~static ~run:(fun seed -> run_reports ~seed name) [ 1; 2; 3 ]
  in
  let digest = Det.Offline.Report_digest.create () in
  List.iter (Det.Offline.Report_digest.add digest) (run_reports ~seed:1 name);
  [
    ("lint", md5 (Json.to_string (M.Static_race.to_json ~file:(path name) static)));
    ("annotated", md5 (M.Pretty.program (fst (M.Annotate.annotate ast))));
    ("callgraph", md5 (Fmt.str "%a" M.Callgraph.pp (M.Callgraph.build ast)));
    ("cross-check", md5 (Json.to_string (R.Static_dyn.to_json cross)));
    ("hwlc+dr seed 1", Det.Offline.Report_digest.to_hex digest);
  ]

let example_pins =
  [
    ( "bounded_buffer",
      [ ("lint", "a4099d11bffe0a50336b3de9115aa363"); ("annotated", "c7c4fd12384b90084a7f11f0653d10b8");
        ("callgraph", "5a8ac33b6bb72c8e725d12544909402f"); ("cross-check", "78db862af1c4b6e1de1c2a6d21a9d054");
        ("hwlc+dr seed 1", "38008c89edc74f64d7aace3e7eb67715") ] );
    ( "dining",
      [ ("lint", "07951dacd6886abb92618ae84c69e9cc"); ("annotated", "6c5a90175a86a736cd211b900a0ac710");
        ("callgraph", "4737ead6e0935ea94de4fbf63e00bf75"); ("cross-check", "7df9838d4859c01dd2e377a19618a3a7");
        ("hwlc+dr seed 1", "d41d8cd98f00b204e9800998ecf8427e") ] );
    ( "figure4",
      [ ("lint", "ba7be1a95ae6c7872c64bf463bbfe141"); ("annotated", "2616700be7a6620ebcb658fb3cf6b07f");
        ("callgraph", "7a2525d9b6788eb68a1e1b81b1912728"); ("cross-check", "7df9838d4859c01dd2e377a19618a3a7");
        ("hwlc+dr seed 1", "d41d8cd98f00b204e9800998ecf8427e") ] );
    ( "guarded_counter",
      [ ("lint", "e77085b90c5440540d62b16ab21fef50"); ("annotated", "078aea343d3dac781bdbf97a9c9dd73a");
        ("callgraph", "49b97e19127bb470ebc4db09f1ad5ba9"); ("cross-check", "7df9838d4859c01dd2e377a19618a3a7");
        ("hwlc+dr seed 1", "d41d8cd98f00b204e9800998ecf8427e") ] );
    ( "handoff",
      [ ("lint", "8bfde4ea0a6a3842cbd4b7a31f3a67ae"); ("annotated", "3b879053e673bb9be744645444bc3bf3");
        ("callgraph", "49b97e19127bb470ebc4db09f1ad5ba9"); ("cross-check", "7df9838d4859c01dd2e377a19618a3a7");
        ("hwlc+dr seed 1", "d41d8cd98f00b204e9800998ecf8427e") ] );
    ( "leaky_escape",
      [ ("lint", "36ce1c778bac57f728d27c1045e50863"); ("annotated", "6aa3b2ca86774cfffc03c352ebe1cf73");
        ("callgraph", "ca36623e18faac7758970a57ced22ffb"); ("cross-check", "aa2532299047cfb6b8fdf3d9e691df0f");
        ("hwlc+dr seed 1", "04bb2aded2d0120af678dad429cf5a47") ] );
    ( "racy_counter",
      [ ("lint", "f4782e9fa9defff2827f7e2fc059e09a"); ("annotated", "5211d7ac9af58d734a0308f4206b124c");
        ("callgraph", "5763738f842a48541433bdbfd4466efc"); ("cross-check", "8bfc39252bcc78a78a2e1f176b8d216f");
        ("hwlc+dr seed 1", "1afc42a82203da1d0e1551c21f25df79") ] );
    ( "refcount",
      [ ("lint", "a5d87c713233f55f605d1fac7b7c836f"); ("annotated", "5132a5f9d18e651ce10b5e4b3ba97549");
        ("callgraph", "ee1022c018bf941e8fc7f7fbd33055f5"); ("cross-check", "e805dda1caa4b1aae06ad2add58e22ff");
        ("hwlc+dr seed 1", "3bf8fc277991a6e041f800ad50a0e402") ] );
  ]

let check_pins what pins actual =
  List.iter2
    (fun (k, want) (k', got) ->
      Alcotest.(check string) "pin order" k k';
      Alcotest.(check string) (what ^ " " ^ k) want got)
    pins actual

let test_example (name, pins) () = check_pins name pins (example_outputs name)

(* --- the repair engine ---------------------------------------------------- *)

let fix_outputs name =
  match Fix.Engine.run ~file:(path name) ~src:(read_file (path name)) () with
  | Error e -> Alcotest.failf "fix engine failed on %s: %s" name e
  | Ok t ->
      [
        ("fix json", md5 (Json.to_string (Fix.Engine.to_json t)));
        ("fixed source", md5 (Option.value ~default:"" t.Fix.Engine.t_combined_source));
      ]

let fix_pins =
  [
    ( "racy_counter",
      [ ("fix json", "8c8a9c5c76df00923ed5e29d72df3a33"); ("fixed source", "dcaca465d560f6ca81bdf3a214e38799") ] );
    ( "leaky_escape",
      [ ("fix json", "0b03846fa39069381b8e82d3fb35ef0d"); ("fixed source", "add6cdd5eb4eeb69d6392385a6ee73fd") ] );
  ]
let test_fix (name, pins) () = check_pins name pins (fix_outputs name)

(* --- root order ----------------------------------------------------------- *)

(* g's thread is spawned while f's arguments are evaluated, so it is
   created, and numbered, before f's *)
let nested_spawn_src =
  {|class Box {
  var v;
}

fn g(b) {
  b.v = 1;
  return 0;
}

fn f(b, t) {
  b.v = 2;
  join(t);
  return 0;
}

fn main() {
  var b = new Box();
  var t = spawn f(b, spawn g(b));
  b.v = 3;
  join(t);
  return 0;
}
|}

let nested_spawn_pin = "3aa8738bef8e7e7dc4ef5d362250e7c7"

let test_nested_spawn () =
  let ast = parse ~file:"nested.mcc" nested_spawn_src in
  Alcotest.(check (list string)) "well-formed" [] (List.map fst (M.Check.check_all ast));
  Alcotest.(check (list string)) "call graph roots" [ "main"; "g"; "f" ]
    (List.map M.Ast.node_name (M.Callgraph.roots (M.Callgraph.build ast)));
  Alcotest.(check string) "lint JSON" nested_spawn_pin
    (md5 (Json.to_string (M.Static_race.to_json ~file:"nested.mcc" (M.Static_race.analyse ast))))

(* --- diagnostic order ----------------------------------------------------- *)

let test_check_order () =
  let src =
    "class C {\n  var v;\n  fn m() { return missing_in_method; }\n}\n\
     fn helper() { return missing_in_function; }\n\
     fn main() { return 0; }\n"
  in
  let diags = M.Check.check_all (parse ~file:"order.mcc" src) in
  Alcotest.(check (list string)) "free functions first, then classes"
    [ "5: undefined variable missing_in_function"; "3: undefined variable missing_in_method" ]
    (List.map (fun (msg, (pos : M.Token.pos)) -> Fmt.str "%d: %s" pos.line msg) diags)

let suite =
  ( "minicc-pins",
    List.map
      (fun (name, pins) -> Alcotest.test_case (name ^ " outputs pinned") `Quick (test_example (name, pins)))
      example_pins
    @ List.map
        (fun (name, pins) -> Alcotest.test_case (name ^ " repair pinned") `Quick (test_fix (name, pins)))
        fix_pins
    @ [
        Alcotest.test_case "nested spawn numbers roots pinned" `Quick test_nested_spawn;
        Alcotest.test_case "check_all order: functions, then classes" `Quick test_check_order;
      ] )
