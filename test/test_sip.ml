(* Tests for the SIP substrate: message wire format, transport,
   registrar/dialog logic, the proxy's functional behaviour under every
   test case, and the injected-bug toggles. *)

module Vm = Raceguard_vm
module Engine = Vm.Engine
module Api = Vm.Api
module Sip = Raceguard_sip
module Det = Raceguard_detector
module Loc = Raceguard_util.Loc

let loc = Loc.v "test_sip.ml" "test" 1

let run ?(seed = 3) f =
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  let result = ref None in
  let outcome = Engine.run vm (fun () -> result := Some (f ())) in
  (match outcome.failures with
  | [] -> ()
  | (_, name, e) :: _ -> Alcotest.failf "thread %s raised %s" name (Printexc.to_string e));
  (match outcome.deadlock with
  | None -> ()
  | Some d -> Alcotest.failf "unexpected deadlock: %s" (Fmt.str "%a" Engine.pp_deadlock d));
  Option.get !result

(* --- wire format ---------------------------------------------------- *)

let sample_request =
  {
    Sip.Sip_msg.w_meth = Sip.Sip_msg.INVITE;
    w_uri = "sip:bob@example.com";
    w_from = "sip:alice@example.com";
    w_to = "sip:bob@example.com";
    w_call_id = "call-1";
    w_cseq = 7;
    w_contact = "sip:alice@10.0.0.5:5060";
    w_expires = 3600;
    w_auth = 0;
  }

let test_wire_roundtrip () =
  let wire = Sip.Sip_msg.request_to_wire sample_request in
  let parsed =
    run (fun () ->
        let buf = Api.alloc ~loc (String.length wire) in
        String.iteri (fun i c -> Api.write ~loc (buf + i) (Char.code c)) wire;
        Sip.Sip_msg.parse_request buf (String.length wire))
  in
  Alcotest.(check bool) "roundtrip" true (parsed = sample_request)

let test_wire_parse_errors () =
  let parse_fails wire =
    run (fun () ->
        let buf = Api.alloc ~loc (max 1 (String.length wire)) in
        String.iteri (fun i c -> Api.write ~loc (buf + i) (Char.code c)) wire;
        match Sip.Sip_msg.parse_request buf (String.length wire) with
        | exception Sip.Sip_msg.Parse_error _ -> true
        | _ -> false)
  in
  Alcotest.(check bool) "garbage" true (parse_fails "GET / HTTP/1.1\r\n\r\n");
  Alcotest.(check bool) "unknown method" true (parse_fails "PUBLISH sip:x SIP/2.0\r\nFrom: a\r\nTo: b\r\nCall-ID: c\r\nCSeq: 1 PUBLISH\r\n\r\n");
  Alcotest.(check bool) "missing header" true
    (parse_fails "INVITE sip:x SIP/2.0\r\nFrom: a\r\nTo: b\r\n\r\n");
  Alcotest.(check bool) "bad cseq" true
    (parse_fails "INVITE sip:x SIP/2.0\r\nFrom: a\r\nTo: b\r\nCall-ID: c\r\nCSeq: x INVITE\r\n\r\n")

let test_wire_status () =
  Alcotest.(check (option int)) "status" (Some 404)
    (Sip.Sip_msg.wire_status "SIP/2.0 404 Not Found\r\n\r\n");
  Alcotest.(check (option int)) "not a response" None (Sip.Sip_msg.wire_status "INVITE x SIP/2.0");
  Alcotest.(check (option string)) "header extract" (Some "abc")
    (Sip.Sip_msg.wire_header "SIP/2.0 200 OK\r\nCall-ID: abc\r\n\r\n" "Call-ID")

(* --- transport -------------------------------------------------------- *)

let test_transport_delivery () =
  let got =
    run (fun () ->
        let t = Sip.Transport.create () in
        let server = Sip.Transport.endpoint t "server" in
        let d1 = Sip.Transport.send t ~src:"client" ~dst:"server" "hello" in
        let d2 = Sip.Transport.send t ~src:"client" ~dst:"nowhere" "dropped" in
        let src, buf, len = Sip.Transport.recv t server in
        let payload = Sip.Transport.read_buffer buf len in
        Api.free ~loc buf;
        (src, payload, d1 = Sip.Transport.Delivered, d2 = Sip.Transport.Dropped_unroutable))
  in
  let src, payload, delivered, unroutable = got in
  Alcotest.(check (pair string string)) "delivered with source" ("client", "hello") (src, payload);
  Alcotest.(check bool) "routable send reports delivery" true delivered;
  Alcotest.(check bool) "unroutable send reports the drop" true unroutable

(* --- registrar --------------------------------------------------------- *)

let test_registrar_lifecycle () =
  let r =
    run (fun () ->
        let alloc = Raceguard_cxxsim.Allocator.create Raceguard_cxxsim.Allocator.Direct in
        let stats = Sip.Stats.create () in
        let reg = Sip.Registrar.create ~alloc ~stats () in
        let o1 =
          Sip.Registrar.register reg ~aor:"alice@x" ~contact:"sip:a@1" ~cseq:1 ~expires:60
        in
        let o2 =
          Sip.Registrar.register reg ~aor:"alice@x" ~contact:"sip:a@2" ~cseq:2 ~expires:60
        in
        let found = Sip.Registrar.lookup reg ~aor:"alice@x" in
        let contact =
          match found with
          | Some c ->
              let s = Raceguard_cxxsim.Refstring.to_string c in
              Raceguard_cxxsim.Refstring.release c;
              s
          | None -> "<none>"
        in
        let missing = Sip.Registrar.lookup reg ~aor:"bob@x" in
        let removed = Sip.Registrar.unregister reg ~aor:"alice@x" in
        let removed_again = Sip.Registrar.unregister reg ~aor:"alice@x" in
        (o1, o2, contact, missing = None, removed, removed_again, Sip.Registrar.size reg))
  in
  let o1, o2, contact, missing, removed, removed_again, size = r in
  Alcotest.(check bool) "first is new" true (o1 = `Registered);
  Alcotest.(check bool) "second is refresh" true (o2 = `Refreshed);
  Alcotest.(check string) "refresh wins" "sip:a@2" contact;
  Alcotest.(check bool) "missing user" true missing;
  Alcotest.(check bool) "unregister" true removed;
  Alcotest.(check bool) "second unregister is a no-op" false removed_again;
  Alcotest.(check int) "empty at the end" 0 size

let test_registrar_expiry () =
  let expired, after =
    run (fun () ->
        let alloc = Raceguard_cxxsim.Allocator.create Raceguard_cxxsim.Allocator.Direct in
        let stats = Sip.Stats.create () in
        let reg = Sip.Registrar.create ~alloc ~stats () in
        ignore (Sip.Registrar.register reg ~aor:"a@x" ~contact:"c" ~cseq:1 ~expires:0);
        (* expires:0 means unregister in SIP, but register() treats the
           caller-provided ttl; use a tiny ttl then advance the clock *)
        ignore (Sip.Registrar.register reg ~aor:"b@x" ~contact:"c" ~cseq:1 ~expires:1);
        Api.sleep 500;
        let n = Sip.Registrar.expire_stale reg in
        (n, Sip.Registrar.lookup reg ~aor:"b@x"))
  in
  Alcotest.(check bool) "stale bindings expired" true (expired >= 1);
  Alcotest.(check bool) "expired binding gone" true (after = None)

(* --- dialogs ------------------------------------------------------------ *)

let test_dialog_lifecycle () =
  let r =
    run (fun () ->
        let alloc = Raceguard_cxxsim.Allocator.create Raceguard_cxxsim.Allocator.Direct in
        let stats = Sip.Stats.create () in
        let d = Sip.Dialogs.create ~alloc ~stats in
        let started = Sip.Dialogs.start_call d ~caller:"a" ~callee:"b" ~call_id:"c1" ~cseq:1 in
        let dup = Sip.Dialogs.start_call d ~caller:"a" ~callee:"b" ~call_id:"c1" ~cseq:2 in
        let confirmed = Sip.Dialogs.confirm d ~call_id:"c1" in
        let active = Sip.Dialogs.active_count d in
        let ended = Sip.Dialogs.end_call d ~call_id:"c1" in
        let ended_again = Sip.Dialogs.end_call d ~call_id:"c1" in
        let stray = Sip.Dialogs.confirm d ~call_id:"zzz" in
        (started, dup, confirmed, active, ended, ended_again, stray))
  in
  let started, dup, confirmed, active, ended, ended_again, stray = r in
  Alcotest.(check bool) "call started" true started;
  Alcotest.(check bool) "duplicate rejected" false dup;
  Alcotest.(check bool) "ack confirmed" true confirmed;
  Alcotest.(check int) "one active" 1 active;
  Alcotest.(check bool) "bye ends" true ended;
  Alcotest.(check bool) "double bye rejected" false ended_again;
  Alcotest.(check bool) "stray ack rejected" false stray

(* --- full proxy functional behaviour -------------------------------------- *)

let run_tc ?(server_config = Sip.Proxy.default_config) ?(seed = 3) tc =
  run ~seed (fun () ->
      let transport = Sip.Transport.create () in
      Sip.Workload.run_test_case ~transport ~server_config tc ())

let test_all_cases_functionally_clean () =
  List.iter
    (fun tc ->
      let r = run_tc tc in
      Alcotest.(check (list string))
        (tc.Sip.Workload.tc_name ^ " oracle clean")
        [] r.Sip.Workload.r_failures;
      Alcotest.(check bool)
        (tc.Sip.Workload.tc_name ^ " handled requests")
        true
        (r.r_requests_handled > 0 && r.r_responses > 0))
    Sip.Workload.all_test_cases

let test_pool_mode_functionally_clean () =
  let r =
    run_tc ~server_config:{ Sip.Proxy.default_config with pattern = Sip.Proxy.Pool 3 }
      Sip.Workload.t2
  in
  Alcotest.(check (list string)) "pool-mode oracle clean" [] r.r_failures

let test_seed_variation_stays_clean () =
  List.iter
    (fun seed ->
      let r = run_tc ~seed Sip.Workload.t4 in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d clean" seed)
        [] r.r_failures)
    [ 1; 2; 11; 23 ]

(* --- bug toggles ------------------------------------------------------------ *)

let locations_with server_config tc ~seed =
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  let h = Det.Helgrind.create Det.Helgrind.hwlc_dr in
  Engine.add_tool vm (Det.Helgrind.tool h);
  let transport = Sip.Transport.create () in
  let outcome =
    Engine.run vm (fun () ->
        ignore (Sip.Workload.run_test_case ~transport ~server_config tc ()))
  in
  assert (outcome.failures = []);
  Det.Helgrind.locations h

let has_bug bug locs =
  List.exists (fun ((r : Det.Report.t), _) -> List.mem bug (Sip.Bugs.identify r.stack)) locs

let test_bug_toggles () =
  let base = { Sip.Proxy.default_config with enable_watchdog = true } in
  let locs = locations_with base Sip.Workload.t4 ~seed:7 in
  Alcotest.(check bool) "B1 found when watchdog on" true (has_bug Sip.Bugs.B1_watchdog locs);
  Alcotest.(check bool) "B4 found" true (has_bug Sip.Bugs.B4_returned_reference locs);
  Alcotest.(check bool) "B5 found" true (has_bug Sip.Bugs.B5_static_buffer locs);
  Alcotest.(check bool) "B6 found" true (has_bug Sip.Bugs.B6_racy_counters locs);
  (* toggled off: the corresponding reports disappear *)
  let no_watchdog = locations_with { base with enable_watchdog = false } Sip.Workload.t4 ~seed:7 in
  Alcotest.(check bool) "B1 gone when watchdog off" false
    (has_bug Sip.Bugs.B1_watchdog no_watchdog);
  let fixed_ref = locations_with { base with use_leaked_ref = false } Sip.Workload.t4 ~seed:7 in
  Alcotest.(check bool) "B4 gone when callers use the safe API" false
    (has_bug Sip.Bugs.B4_returned_reference fixed_ref)

let test_shutdown_bug_toggle () =
  let base = Sip.Proxy.default_config in
  let racy = locations_with base Sip.Workload.t3 ~seed:7 in
  let fixed = locations_with { base with shutdown_racy = false } Sip.Workload.t3 ~seed:7 in
  Alcotest.(check bool) "B3 present with racy shutdown" true
    (has_bug Sip.Bugs.B3_shutdown_order racy);
  Alcotest.(check bool) "B3 absent with ordered shutdown" false
    (has_bug Sip.Bugs.B3_shutdown_order fixed)

let test_auth_challenge_flow () =
  let auth_case =
    {
      Sip.Workload.tc_name = "AUTH";
      tc_description = "digest challenge flow";
      tc_drivers =
        [
          ( "uac1",
            fun d ->
              Sip.Workload.do_register_auth d ~user:"alice" ~domain:"example.com" ~cseq:1;
              Sip.Workload.do_register_auth d ~user:"bob" ~domain:"example.com" ~cseq:2 );
          ( "uac2",
            fun d ->
              (* unauthenticated REGISTER must keep being challenged *)
              Sip.Workload.send d
                (Sip.Workload.request ~meth:Sip.Sip_msg.REGISTER ~uri:"sip:example.com"
                   ~from:"sip:eve@example.com" ~to_:"sip:eve@example.com" ~call_id:"eve-1"
                   ~cseq:1 ~contact:"sip:eve@6.6.6.6" ());
              let resp = Sip.Workload.recv_response d in
              if Sip.Sip_msg.wire_status resp <> Some 401 then
                Alcotest.failf "expected 401 for unauthenticated register, got %s" resp );
        ];
    }
  in
  let r =
    run_tc ~server_config:{ Sip.Proxy.default_config with require_auth = true } auth_case
  in
  Alcotest.(check (list string)) "auth flow oracle clean" [] r.r_failures

let test_auth_wrong_response_rejected () =
  let ok =
    run (fun () ->
        let alloc = Raceguard_cxxsim.Allocator.create Raceguard_cxxsim.Allocator.Direct in
        let a = Sip.Auth.create ~alloc in
        let nonce = Sip.Auth.challenge a ~user:"u@x" in
        let wrong = Sip.Auth.verify a ~user:"u@x" ~response:(Sip.Auth.response_for ~nonce + 1) in
        (* the nonce is consumed even by a failed attempt: single use *)
        let nonce2 = Sip.Auth.challenge a ~user:"u@x" in
        let right = Sip.Auth.verify a ~user:"u@x" ~response:(Sip.Auth.response_for ~nonce:nonce2) in
        let replay = Sip.Auth.verify a ~user:"u@x" ~response:(Sip.Auth.response_for ~nonce:nonce2) in
        let unknown = Sip.Auth.verify a ~user:"nobody@x" ~response:1 in
        ((not wrong) && right && (not replay)) && not unknown)
  in
  Alcotest.(check bool) "digest verification semantics" true ok

let test_history_and_routing_exercised () =
  (* white-box: the report population must include history-eviction
     destructor sites (without DR) and routing must answer lookups *)
  let base = Sip.Proxy.default_config in
  let vm = Engine.create ~config:{ Engine.default_config with seed = 7 } () in
  let hwlc = Det.Helgrind.create Det.Helgrind.hwlc in
  Engine.add_tool vm (Det.Helgrind.tool hwlc);
  let transport = Sip.Transport.create () in
  let _ =
    Engine.run vm (fun () ->
        ignore (Sip.Workload.run_test_case ~transport ~server_config:base Sip.Workload.t1 ()))
  in
  let locs = Det.Helgrind.locations hwlc in
  Alcotest.(check bool) "history eviction sites reported under HWLC (no DR)" true
    (List.exists
       (fun ((r : Det.Report.t), _) ->
         List.exists (fun l -> Loc.file l = "history.cpp") r.stack)
       locs)

let suite =
  ( "sip",
    [
      Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
      Alcotest.test_case "wire parse errors" `Quick test_wire_parse_errors;
      Alcotest.test_case "wire status/header" `Quick test_wire_status;
      Alcotest.test_case "transport delivery" `Quick test_transport_delivery;
      Alcotest.test_case "registrar lifecycle" `Quick test_registrar_lifecycle;
      Alcotest.test_case "registrar expiry" `Quick test_registrar_expiry;
      Alcotest.test_case "dialog lifecycle" `Quick test_dialog_lifecycle;
      Alcotest.test_case "all 8 cases functionally clean" `Slow test_all_cases_functionally_clean;
      Alcotest.test_case "pool mode clean" `Quick test_pool_mode_functionally_clean;
      Alcotest.test_case "seed variation clean" `Slow test_seed_variation_stays_clean;
      Alcotest.test_case "bug toggles" `Slow test_bug_toggles;
      Alcotest.test_case "shutdown bug toggle" `Quick test_shutdown_bug_toggle;
      Alcotest.test_case "auth challenge flow" `Quick test_auth_challenge_flow;
      Alcotest.test_case "auth verification" `Quick test_auth_wrong_response_rejected;
      Alcotest.test_case "history/routing exercised" `Quick test_history_and_routing_exercised;
    ] )
