(* Tests for the systematic schedule explorer (Scripted policy + DFS
   over scheduling decisions). *)

module Vm = Raceguard_vm
module Engine = Vm.Engine
module Api = Vm.Api
module Det = Raceguard_detector
module Loc = Raceguard_util.Loc

let loc = Loc.v "x.c" "main" 1

let instantiate scenario ~policy =
  let vm = Engine.create ~config:{ Engine.default_config with policy } () in
  let h = Det.Helgrind.create Det.Helgrind.hwlc_dr in
  Engine.add_tool vm (Det.Helgrind.tool h);
  let execute () =
    let outcome = Engine.run vm scenario in
    assert (outcome.failures = []);
    vm
  in
  let check _ = if Det.Helgrind.location_count h > 0 then Some () else None in
  (execute, check)

let test_scripted_policy_replays () =
  (* the same script yields the same trace; flipping the first decision
     changes it *)
  let trace script =
    let events = ref [] in
    let vm =
      Engine.create
        ~config:{ Engine.default_config with policy = Engine.Scripted script }
        ()
    in
    Engine.add_tool vm (Vm.Tool.of_fn "rec" (fun e -> events := Fmt.str "%a" Vm.Event.pp e :: !events));
    let _ =
      Engine.run vm (fun () ->
          let a = Api.alloc ~loc 1 in
          let w name v () = Api.write ~loc:(Loc.v "x.c" name 2) a v in
          let t1 = Api.spawn ~loc ~name:"a" (w "wa" 1) in
          let t2 = Api.spawn ~loc ~name:"b" (w "wb" 2) in
          Api.join ~loc t1;
          Api.join ~loc t2)
    in
    List.rev !events
  in
  Alcotest.(check (list string)) "same script, same trace" (trace [| 1; 0 |]) (trace [| 1; 0 |]);
  Alcotest.(check bool) "different script, different trace" true
    (trace [| 0 |] <> trace [| 1; 1 |])

let test_explore_finds_fneg_witness () =
  let result =
    Vm.Explore.search ~max_depth:24 ~max_runs:500
      (instantiate Raceguard.Scenarios.false_negative_schedule)
  in
  Alcotest.(check bool) "witness found" true (result.found <> None);
  Alcotest.(check bool) "few runs needed" true (result.runs <= 50);
  match result.witness_script with
  | None -> Alcotest.fail "no witness script"
  | Some script ->
      (* the script must reproduce the detection deterministically *)
      let execute, check =
        instantiate Raceguard.Scenarios.false_negative_schedule
          ~policy:(Engine.Scripted script)
      in
      let vm = execute () in
      ignore vm;
      Alcotest.(check bool) "witness script reproduces" true (check vm <> None)

(* The search itself, pinned: how many runs it takes to reach the
   witness and every decision log it read on the way.  A drift in the
   scripted pick order shows here even when a witness is still found. *)
let test_explore_witness_search_pinned () =
  let logs = Buffer.create 1024 in
  let instantiate' ~policy =
    let execute, check = instantiate Raceguard.Scenarios.false_negative_schedule ~policy in
    let check vm =
      List.iter (fun (c, n) -> Buffer.add_string logs (Printf.sprintf "%d/%d " c n)) (Engine.decision_log vm);
      Buffer.add_char logs '\n';
      check vm
    in
    (execute, check)
  in
  let result = Vm.Explore.search ~max_depth:24 ~max_runs:500 instantiate' in
  Alcotest.(check int) "runs to the witness" 5 result.runs;
  Alcotest.(check string) "MD5 of the decision logs" "92c2c4c03d6a0ec9ba145d5ae2bb456d"
    (Digest.to_hex (Digest.string (Buffer.contents logs)))

let test_explore_exhausts_clean_program () =
  let clean () =
    let v = Api.alloc ~loc 1 in
    let m = Api.Mutex.create ~loc "m" in
    let w () = Api.Mutex.with_lock ~loc m (fun () -> Api.write ~loc v 1) in
    let t1 = Api.spawn ~loc ~name:"a" w in
    let t2 = Api.spawn ~loc ~name:"b" w in
    Api.join ~loc t1;
    Api.join ~loc t2
  in
  let result = Vm.Explore.search ~max_depth:4 ~max_runs:500 (instantiate clean) in
  Alcotest.(check bool) "no witness" true (result.found = None);
  Alcotest.(check bool) "tree exhausted" true result.exhausted;
  Alcotest.(check bool) "more than one schedule tried" true (result.runs > 1)

let test_explore_respects_run_cap () =
  let result =
    Vm.Explore.search ~max_depth:24 ~max_runs:7
      (instantiate Raceguard.Scenarios.handoff_per_request)
  in
  Alcotest.(check bool) "run cap respected" true (result.runs <= 7);
  Alcotest.(check bool) "handoff has no witness" true (result.found = None)

let suite =
  ( "explore",
    [
      Alcotest.test_case "scripted replay" `Quick test_scripted_policy_replays;
      Alcotest.test_case "finds the §4.3 witness" `Quick test_explore_finds_fneg_witness;
      Alcotest.test_case "§4.3 witness search pinned" `Quick test_explore_witness_search_pinned;
      Alcotest.test_case "exhausts clean trees" `Quick test_explore_exhausts_clean_program;
      Alcotest.test_case "run cap" `Quick test_explore_respects_run_cap;
    ] )
