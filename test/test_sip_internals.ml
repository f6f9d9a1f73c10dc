(* Unit tests for the SIP server's internal components: statistics,
   time formatting, logger, watchdog, routing, request history. *)

module Vm = Raceguard_vm
module Engine = Vm.Engine
module Api = Vm.Api
module Sip = Raceguard_sip
module Det = Raceguard_detector
module Loc = Raceguard_util.Loc

let loc = Loc.v "t.ml" "t" 1

let run ?(seed = 3) f =
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  let result = ref None in
  let outcome = Engine.run vm (fun () -> result := Some (f ())) in
  (match outcome.failures with
  | [] -> ()
  | (_, name, e) :: _ -> Alcotest.failf "thread %s raised %s" name (Printexc.to_string e));
  Option.get !result

(* --- stats ----------------------------------------------------------- *)

let test_stats_counters () =
  let total, active =
    run (fun () ->
        let s = Sip.Stats.create () in
        Sip.Stats.incr_total_requests s;
        Sip.Stats.incr_total_requests s;
        Sip.Stats.incr_active_calls s;
        Sip.Stats.incr_active_calls s;
        Sip.Stats.decr_active_calls s;
        ( Sip.Stats.get s Sip.Stats.total_requests ~loc,
          Sip.Stats.get s Sip.Stats.active_calls ~loc ))
  in
  Alcotest.(check int) "racy counter counts (single thread)" 2 total;
  Alcotest.(check int) "locked counter balances" 1 active

let test_stats_method_counters_bounds () =
  (* out-of-range method codes must be ignored, not crash *)
  let () =
    run (fun () ->
        let s = Sip.Stats.create () in
        Sip.Stats.incr_method s ~meth_code:0;
        Sip.Stats.incr_method s ~meth_code:7;
        Sip.Stats.incr_method s ~meth_code:3)
  in
  ()

(* --- timeutil ---------------------------------------------------------- *)

let test_timeutil_formats () =
  let s1, s2 =
    run (fun () ->
        let t = Sip.Timeutil.create () in
        let a = Sip.Timeutil.ctime t in
        let s1 = Sip.Timeutil.read_formatted t a in
        Api.sleep 50;
        let b = Sip.Timeutil.ctime t in
        let s2 = Sip.Timeutil.read_formatted t b in
        (s1, s2))
  in
  Alcotest.(check int) "fixed width" 8 (String.length s1);
  Alcotest.(check bool) "time advances" true (s1 <> s2)

(* --- logger ------------------------------------------------------------ *)

let test_logger_lines () =
  let lines =
    run (fun () ->
        let stats = Sip.Stats.create () in
        let time = Sip.Timeutil.create () in
        let logger = Sip.Logger.create ~stats ~time in
        Sip.Logger.start logger;
        Sip.Logger.log logger ~loc ~level:1 "first";
        Sip.Logger.log logger ~loc ~level:2 "second";
        Api.sleep 50;
        Sip.Logger.stop logger;
        Sip.Logger.join logger;
        Sip.Logger.lines logger)
  in
  Alcotest.(check int) "two lines" 2 (List.length lines);
  Alcotest.(check bool) "order preserved" true
    (match lines with
    | [ a; b ] ->
        String.length a > 0
        && String.length b > 0
        && String.sub a (String.length a - 5) 5 = "first"
        && String.sub b (String.length b - 6) 6 = "second"
    | _ -> false)

(* --- watchdog ----------------------------------------------------------- *)

let test_watchdog_alarm () =
  let alarms =
    run (fun () ->
        let w = Sip.Watchdog.create ~timeout:10 in
        Sip.Watchdog.start w;
        (* simulate a worker stuck waiting for a long time *)
        let stuck =
          Api.spawn ~loc ~name:"stuck" (fun () ->
              Sip.Watchdog.before_lock w;
              Api.sleep 100;
              Sip.Watchdog.after_lock w)
        in
        Api.sleep 120;
        Sip.Watchdog.stop w;
        Sip.Watchdog.join w;
        Api.join ~loc stuck;
        Sip.Watchdog.alarms w)
  in
  Alcotest.(check bool) "stuck thread flagged" true (List.length alarms > 0)

(* --- routing -------------------------------------------------------------- *)

let test_routing_lookup_and_refresh () =
  let hit, miss, refreshes =
    run (fun () ->
        let r = Sip.Routing.create ~domains:[ "a.com"; "b.net" ] in
        let hit = Sip.Routing.next_hop r ~domain:"a.com" in
        let miss = Sip.Routing.next_hop r ~domain:"zzz.org" in
        Sip.Routing.refresh r;
        Sip.Routing.refresh r;
        (hit, miss, Sip.Routing.refreshes r))
  in
  (match hit with
  | Some (hop, cost, gw) ->
      Alcotest.(check bool) "hop id assigned" true (hop >= 100);
      Alcotest.(check bool) "cost positive" true (cost > 0);
      Alcotest.(check string) "gateway banner" "gw1.core.example.net" gw
  | None -> Alcotest.fail "known domain not routed");
  Alcotest.(check bool) "unknown domain unrouted" true (miss = None);
  Alcotest.(check int) "refreshes counted" 2 refreshes

(* --- history ---------------------------------------------------------------- *)

let test_history_eviction () =
  (* count Digest deletions through the event stream *)
  let frees = ref 0 in
  let vm = Engine.create ~config:{ Engine.default_config with seed = 3 } () in
  Engine.add_tool vm
    (Vm.Tool.of_fn "frees" (fun e ->
         match e with Vm.Event.E_client { req = Vm.Eff.Destruct _; _ } -> incr frees | _ -> ()));
  let outcome =
    Engine.run vm (fun () ->
        let h = Sip.History.create ~capacity:3 in
        for i = 1 to 8 do
          Sip.History.record h ~src_id:i ~meth:1 ~uri:(Printf.sprintf "sip:u%d@x" i) ~outcome:200
        done;
        Sip.History.clear h)
  in
  assert (outcome.failures = []);
  (* 8 inserts into a 3-slot ring: 5 evictions + 3 cleared at the end *)
  Alcotest.(check int) "every digest destroyed exactly once" 8 !frees

(* --- message objects ---------------------------------------------------------- *)

let test_request_object_roundtrip () =
  let cseq, meth, expires =
    run (fun () ->
        let w =
          {
            Sip.Sip_msg.w_meth = Sip.Sip_msg.REGISTER;
            w_uri = "sip:example.com";
            w_from = "sip:a@example.com";
            w_to = "sip:a@example.com";
            w_call_id = "c1";
            w_cseq = 9;
            w_contact = "sip:a@1.2.3.4";
            w_expires = 600;
            w_auth = 0;
          }
        in
        let obj = Sip.Sip_msg.build_request_object ~loc w in
        let cls = Sip.Sip_msg.sip_request in
        let module O = Raceguard_cxxsim.Object_model in
        let r = (O.get ~loc cls obj "cseq", O.get ~loc cls obj "method", O.get ~loc cls obj "expires") in
        O.delete_ ~loc ~annotate:true cls obj;
        r)
  in
  Alcotest.(check int) "cseq" 9 cseq;
  Alcotest.(check int) "method code" (Sip.Sip_msg.meth_code Sip.Sip_msg.REGISTER) meth;
  Alcotest.(check int) "expires" 600 expires

let test_response_serialization () =
  let wire =
    run (fun () ->
        let w =
          {
            Sip.Sip_msg.w_meth = Sip.Sip_msg.INVITE;
            w_uri = "sip:b@x.com";
            w_from = "sip:a@x.com";
            w_to = "sip:b@x.com";
            w_call_id = "call-7";
            w_cseq = 3;
            w_contact = "";
            w_expires = -1;
            w_auth = 0;
          }
        in
        let req = Sip.Sip_msg.build_request_object ~loc w in
        let reason = Raceguard_cxxsim.Refstring.create ~loc "Ringing" in
        let resp = Sip.Sip_msg.build_response_object ~loc ~status:180 ~reason_rs:reason req in
        let wire = Sip.Sip_msg.serialize_response ~loc resp in
        let module O = Raceguard_cxxsim.Object_model in
        O.delete_ ~loc ~annotate:true Sip.Sip_msg.sip_response resp;
        O.delete_ ~loc ~annotate:true Sip.Sip_msg.sip_request req;
        Raceguard_cxxsim.Refstring.release reason;
        wire)
  in
  Alcotest.(check (option int)) "status on the wire" (Some 180) (Sip.Sip_msg.wire_status wire);
  Alcotest.(check (option string)) "call id propagated" (Some "call-7")
    (Sip.Sip_msg.wire_header wire "Call-ID")

let test_domain_helpers () =
  Alcotest.(check string) "domain of sip uri" "example.com"
    (Sip.Proxy.extract_domain "sip:alice@example.com");
  Alcotest.(check string) "user of sip uri" "alice" (Sip.Proxy.extract_user "sip:alice@example.com");
  Alcotest.(check string) "domain of bare uri" "example.com"
    (Sip.Proxy.extract_domain "sip:example.com");
  Alcotest.(check string) "user without scheme" "bob" (Sip.Proxy.extract_user "bob@x")

(* --- domain data (B2/B4 machinery) ------------------------------------------- *)

let test_domain_data_lookups () =
  let unsafe, safe, missing =
    run (fun () ->
        let alloc = Raceguard_cxxsim.Allocator.create Raceguard_cxxsim.Allocator.Direct in
        let dd =
          Sip.Domain_data.create ~alloc ~init_racy:false ~domains:[ "x.com"; "y.org" ] ()
        in
        let unsafe = Sip.Domain_data.unsafe_lookup dd ~domain:"x.com" in
        let safe = Sip.Domain_data.safe_lookup dd ~domain:"y.org" in
        let missing = Sip.Domain_data.safe_lookup dd ~domain:"nope" in
        Sip.Domain_data.stop dd;
        Sip.Domain_data.join dd;
        (unsafe, safe, missing))
  in
  Alcotest.(check bool) "unsafe finds known domain" true (unsafe <> None);
  Alcotest.(check bool) "safe finds known domain" true (safe <> None);
  Alcotest.(check bool) "unknown domain absent" true (missing = None)

let suite =
  ( "sip-internals",
    [
      Alcotest.test_case "stats counters" `Quick test_stats_counters;
      Alcotest.test_case "stats method bounds" `Quick test_stats_method_counters_bounds;
      Alcotest.test_case "timeutil" `Quick test_timeutil_formats;
      Alcotest.test_case "logger lines" `Quick test_logger_lines;
      Alcotest.test_case "watchdog alarm" `Quick test_watchdog_alarm;
      Alcotest.test_case "routing" `Quick test_routing_lookup_and_refresh;
      Alcotest.test_case "history eviction" `Quick test_history_eviction;
      Alcotest.test_case "request object" `Quick test_request_object_roundtrip;
      Alcotest.test_case "response serialization" `Quick test_response_serialization;
      Alcotest.test_case "uri helpers" `Quick test_domain_helpers;
      Alcotest.test_case "domain data lookups" `Quick test_domain_data_lookups;
    ] )
