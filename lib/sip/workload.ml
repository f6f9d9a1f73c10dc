(** The SIPp stand-in: scripted UAC drivers and the eight test cases.

    "The basic request patterns are delivered to the application by an
    automated test suite.  The main utility of this test suite is SIPp,
    a tool for SIP load testing." (§3.3)

    Each driver runs as a VM thread with its own transport endpoint: it
    sends scripted requests, waits for the responses, and records an
    oracle verdict (host-side) so the functional behaviour of the
    server is checked on every detector run.  Test cases T1–T8 mix the
    scenarios differently, which is why their warning-location counts
    differ (Figure 6). *)

module Loc = Raceguard_util.Loc
module Api = Raceguard_vm.Api

let lc func line = Loc.v "sipp_driver.cpp" func line

type driver = {
  d_name : string;
  transport : Transport.t;
  endpoint : Transport.endpoint;
  mutable failures : string list;  (** oracle violations (host side) *)
  mutable responses : int;
  mutable chaos_regs : (string * bool) list;
      (** chaos mode: (aor, should-be-bound) in chronological order,
          appended on each acknowledged REGISTER/unREGISTER *)
  mutable shed_seen : int;  (** chaos mode: 503s received and retried *)
  mutable unanswered : int;
      (** chaos mode: transactions abandoned after every retry timed out *)
}

let make_driver ~transport name =
  {
    d_name = name;
    transport;
    endpoint = Transport.endpoint transport name;
    failures = [];
    responses = 0;
    chaos_regs = [];
    shed_seen = 0;
    unanswered = 0;
  }

let send d wire = ignore (Transport.send d.transport ~src:d.d_name ~dst:"server" wire)

(** Wait for one response and check its status code. *)
let expect d status =
  let _src, buf, len = Transport.recv d.transport d.endpoint in
  let wire = Transport.read_buffer buf len in
  Api.free ~loc:(lc "expect" 36) buf;
  d.responses <- d.responses + 1;
  let ok =
    match Sip_msg.wire_status wire with
    | Some s -> s = status
    | None -> false
  in
  if not ok then
    d.failures <-
      Printf.sprintf "%s: expected %d, got %s" d.d_name status
        (String.concat " | " (String.split_on_char '\r' (String.concat "" (String.split_on_char '\n' wire))))
      :: d.failures

(** Wait for one response and return its wire text (for flows that need
    header contents, e.g. the digest challenge). *)
let recv_response d =
  let _src, buf, len = Transport.recv d.transport d.endpoint in
  let wire = Transport.read_buffer buf len in
  Api.free ~loc:(lc "recv_response" 50) buf;
  d.responses <- d.responses + 1;
  wire

let request ~meth ~uri ~from ~to_ ~call_id ~cseq ?(contact = "") ?(expires = -1) ?(auth = 0) () =
  Sip_msg.request_to_wire
    { w_meth = meth; w_uri = uri; w_from = from; w_to = to_; w_call_id = call_id; w_cseq = cseq;
      w_contact = contact; w_expires = expires; w_auth = auth }

(* --- scenario building blocks ------------------------------------- *)

let aor user domain = Printf.sprintf "sip:%s@%s" user domain

let do_register d ~user ~domain ~cseq ?(expires = 3600) () =
  let a = aor user domain in
  send d
    (request ~meth:Sip_msg.REGISTER ~uri:("sip:" ^ domain) ~from:a ~to_:a
       ~call_id:(Printf.sprintf "reg-%s-%d" user cseq) ~cseq
       ~contact:(Printf.sprintf "sip:%s@10.0.0.%d:5060" user (1 + (cseq mod 250)))
       ~expires ());
  expect d 200

let do_unregister d ~user ~domain ~cseq =
  ignore (do_register d ~user ~domain ~cseq ~expires:0 ())

(** Registration against a server with [require_auth]: expect the 401
    challenge, compute the digest from the nonce, retry. *)
let do_register_auth d ~user ~domain ~cseq =
  let a = aor user domain in
  let contact = Printf.sprintf "sip:%s@10.0.1.%d:5060" user (1 + (cseq mod 250)) in
  let reg ?auth () =
    request ~meth:Sip_msg.REGISTER ~uri:("sip:" ^ domain) ~from:a ~to_:a
      ~call_id:(Printf.sprintf "rega-%s-%d" user cseq) ~cseq ~contact ?auth ()
  in
  send d (reg ());
  let challenge = recv_response d in
  match Sip_msg.wire_status challenge with
  | Some 401 -> (
      match Sip_msg.wire_header challenge "WWW-Authenticate" with
      | Some h -> (
          match String.index_opt h '=' with
          | Some i -> (
              match int_of_string_opt (String.trim (String.sub h (i + 1) (String.length h - i - 1))) with
              | Some nonce ->
                  send d (reg ~auth:(Auth.response_for ~nonce) ());
                  expect d 200
              | None -> d.failures <- (d.d_name ^ ": unparsable nonce") :: d.failures)
          | None -> d.failures <- (d.d_name ^ ": malformed challenge") :: d.failures)
      | None -> d.failures <- (d.d_name ^ ": 401 without WWW-Authenticate") :: d.failures)
  | s ->
      d.failures <-
        Printf.sprintf "%s: expected 401 challenge, got %s" d.d_name
          (match s with Some s -> string_of_int s | None -> "garbage")
        :: d.failures

let do_options d ~domain ~cseq =
  send d
    (request ~meth:Sip_msg.OPTIONS ~uri:("sip:" ^ domain) ~from:(aor "ping" domain)
       ~to_:(aor "server" domain) ~call_id:(Printf.sprintf "opt-%s-%d" d.d_name cseq) ~cseq ());
  expect d 200

(** One complete call: INVITE (180 + 200), ACK, pause, BYE (200). *)
let do_call d ~caller ~callee ~domain ~call_id ~cseq ?(talk = 10) () =
  let from = aor caller domain and to_ = aor callee domain in
  let uri = to_ in
  send d (request ~meth:Sip_msg.INVITE ~uri ~from ~to_ ~call_id ~cseq ());
  expect d 180;
  expect d 200;
  send d (request ~meth:Sip_msg.ACK ~uri ~from ~to_ ~call_id ~cseq ());
  Api.sleep talk;
  send d (request ~meth:Sip_msg.BYE ~uri ~from ~to_ ~call_id ~cseq:(cseq + 1) ());
  expect d 200

(** INVITE to an unregistered callee: 404 expected. *)
let do_failed_call d ~caller ~callee ~domain ~call_id ~cseq =
  let from = aor caller domain and to_ = aor callee domain in
  send d (request ~meth:Sip_msg.INVITE ~uri:to_ ~from ~to_ ~call_id ~cseq ());
  expect d 404

(** INVITE then CANCEL then BYE (teardown of a cancelled call). *)
let do_cancelled_call d ~caller ~callee ~domain ~call_id ~cseq =
  let from = aor caller domain and to_ = aor callee domain in
  let uri = to_ in
  send d (request ~meth:Sip_msg.INVITE ~uri ~from ~to_ ~call_id ~cseq ());
  expect d 180;
  expect d 200;
  send d (request ~meth:Sip_msg.CANCEL ~uri ~from ~to_ ~call_id ~cseq ());
  expect d 200;
  send d (request ~meth:Sip_msg.BYE ~uri ~from ~to_ ~call_id ~cseq:(cseq + 1) ());
  expect d 200

let do_malformed d ~cseq =
  send d (Printf.sprintf "GARBAGE nonsense/%d\r\n\r\n" cseq);
  expect d 400

(* ------------------------------------------------------------------ *)
(* The eight test cases                                                 *)
(* ------------------------------------------------------------------ *)

type test_case = {
  tc_name : string;
  tc_description : string;
  tc_drivers : (string * (driver -> unit)) list;
}

(** T1: registration burst — twenty users register, a few OPTIONS pings
    in parallel. *)
let t1 =
  {
    tc_name = "T1";
    tc_description = "REGISTER burst (20 users) + OPTIONS pings";
    tc_drivers =
      [
        ( "uac1",
          fun d ->
            for i = 0 to 9 do
              ignore (do_register d ~user:(Printf.sprintf "alice%d" i) ~domain:"example.com" ~cseq:(i + 1) ())
            done;
            (* refresh half of them: each refresh deletes the previous binding *)
            for i = 0 to 4 do
              ignore (do_register d ~user:(Printf.sprintf "alice%d" i) ~domain:"example.com" ~cseq:(20 + i) ())
            done );
        ( "uac2",
          fun d ->
            for i = 0 to 9 do
              ignore (do_register d ~user:(Printf.sprintf "bob%d" i) ~domain:"voip.example.net" ~cseq:(i + 1) ())
            done;
            for i = 0 to 4 do
              ignore (do_register d ~user:(Printf.sprintf "bob%d" i) ~domain:"voip.example.net" ~cseq:(20 + i) ())
            done );
        ( "uac3",
          fun d ->
            for i = 0 to 4 do
              do_options d ~domain:"example.com" ~cseq:(i + 1)
            done );
      ];
  }

(** T2: basic calls — register two parties, then ten sequential
    INVITE/ACK/BYE cycles. *)
let t2 =
  {
    tc_name = "T2";
    tc_description = "basic INVITE/ACK/BYE calls";
    tc_drivers =
      [
        ( "uac1",
          fun d ->
            ignore (do_register d ~user:"alice" ~domain:"example.com" ~cseq:1 ());
            ignore (do_register d ~user:"bob" ~domain:"example.com" ~cseq:2 ());
            for i = 0 to 9 do
              do_call d ~caller:"alice" ~callee:"bob" ~domain:"example.com"
                ~call_id:(Printf.sprintf "call-t2-%d" i) ~cseq:(10 + (2 * i)) ()
            done );
      ];
  }

(** T3: OPTIONS keep-alives only — the lightest case. *)
let t3 =
  {
    tc_name = "T3";
    tc_description = "OPTIONS keep-alives only";
    tc_drivers =
      [
        ( "uac1",
          fun d ->
            for i = 0 to 7 do
              do_options d ~domain:"example.com" ~cseq:(i + 1)
            done );
        ( "uac2",
          fun d ->
            for i = 0 to 6 do
              do_options d ~domain:"pbx.local" ~cseq:(i + 1)
            done );
      ];
  }

(** T4: mixed registrations and calls from three agents. *)
let t4 =
  {
    tc_name = "T4";
    tc_description = "mixed REGISTER + calls, three agents";
    tc_drivers =
      [
        ( "uac1",
          fun d ->
            for i = 0 to 5 do
              ignore (do_register d ~user:(Printf.sprintf "user%d" i) ~domain:"example.com" ~cseq:(i + 1) ())
            done );
        ( "uac2",
          fun d ->
            ignore (do_register d ~user:"carol" ~domain:"example.com" ~cseq:1 ());
            for i = 0 to 5 do
              do_call d ~caller:"dave" ~callee:"carol" ~domain:"example.com"
                ~call_id:(Printf.sprintf "call-t4a-%d" i) ~cseq:(10 + (2 * i)) ~talk:6 ()
            done );
        ( "uac3",
          fun d ->
            ignore (do_register d ~user:"erin" ~domain:"voip.example.net" ~cseq:1 ());
            for i = 0 to 4 do
              do_call d ~caller:"frank" ~callee:"erin" ~domain:"voip.example.net"
                ~call_id:(Printf.sprintf "call-t4b-%d" i) ~cseq:(30 + (2 * i)) ~talk:4 ()
            done );
      ];
  }

(** T5: the heaviest case — concurrent calls with re-registrations and
    pings from four agents. *)
let t5 =
  {
    tc_name = "T5";
    tc_description = "concurrent calls + re-registrations, four agents";
    tc_drivers =
      [
        ( "uac1",
          fun d ->
            ignore (do_register d ~user:"alice" ~domain:"example.com" ~cseq:1 ());
            for i = 0 to 6 do
              do_call d ~caller:"x" ~callee:"alice" ~domain:"example.com"
                ~call_id:(Printf.sprintf "t5a-%d" i) ~cseq:(10 + (2 * i)) ~talk:8 ()
            done );
        ( "uac2",
          fun d ->
            ignore (do_register d ~user:"bob" ~domain:"example.com" ~cseq:1 ());
            for i = 0 to 6 do
              do_call d ~caller:"y" ~callee:"bob" ~domain:"example.com"
                ~call_id:(Printf.sprintf "t5b-%d" i) ~cseq:(50 + (2 * i)) ~talk:8 ()
            done );
        ( "uac3",
          fun d ->
            (* keep refreshing the same users: refresh = delete old binding *)
            for i = 0 to 9 do
              ignore (do_register d ~user:"alice" ~domain:"example.com" ~cseq:(100 + i) ());
              Api.sleep 5
            done );
        ( "uac4",
          fun d ->
            for i = 0 to 6 do
              do_options d ~domain:"example.com" ~cseq:(i + 1);
              Api.sleep 4
            done );
      ];
  }

(** T6: registrar churn — register/refresh/unregister cycles. *)
let t6 =
  {
    tc_name = "T6";
    tc_description = "registrar churn (register/refresh/unregister)";
    tc_drivers =
      [
        ( "uac1",
          fun d ->
            for i = 0 to 7 do
              let user = Printf.sprintf "churn%d" (i mod 4) in
              ignore (do_register d ~user ~domain:"example.com" ~cseq:(10 * (i + 1)) ());
              ignore (do_register d ~user ~domain:"example.com" ~cseq:((10 * (i + 1)) + 1) ());
              do_unregister d ~user ~domain:"example.com" ~cseq:((10 * (i + 1)) + 2)
            done );
        ( "uac2",
          fun d ->
            for i = 0 to 7 do
              let user = Printf.sprintf "churn%d" (4 + (i mod 4)) in
              ignore (do_register d ~user ~domain:"pbx.local" ~cseq:(10 * (i + 1)) ());
              do_unregister d ~user ~domain:"pbx.local" ~cseq:((10 * (i + 1)) + 1)
            done );
        ( "uac3",
          fun d ->
            ignore (do_register d ~user:"stable" ~domain:"example.com" ~cseq:1 ());
            for i = 0 to 4 do
              do_call d ~caller:"z" ~callee:"stable" ~domain:"example.com"
                ~call_id:(Printf.sprintf "t6-%d" i) ~cseq:(200 + (2 * i)) ~talk:5 ()
            done );
      ];
  }

(** T7: error flows — malformed datagrams, calls to unknown users,
    BYEs for unknown dialogs. *)
let t7 =
  {
    tc_name = "T7";
    tc_description = "error flows: malformed, 404s, stray BYEs";
    tc_drivers =
      [
        ( "uac1",
          fun d ->
            for i = 0 to 4 do
              do_malformed d ~cseq:i
            done;
            for i = 0 to 4 do
              do_failed_call d ~caller:"ghost" ~callee:(Printf.sprintf "nobody%d" i)
                ~domain:"example.com" ~call_id:(Printf.sprintf "t7-%d" i) ~cseq:(10 + i)
            done );
        ( "uac2",
          fun d ->
            (* BYE for calls that never existed: 481 *)
            for i = 0 to 4 do
              send d
                (request ~meth:Sip_msg.BYE ~uri:(aor "x" "example.com")
                   ~from:(aor "y" "example.com") ~to_:(aor "x" "example.com")
                   ~call_id:(Printf.sprintf "stray-%d" i) ~cseq:(i + 1) ());
              expect d 481
            done;
            ignore (do_register d ~user:"late" ~domain:"example.com" ~cseq:99 ()) );
      ];
  }

(** T8: CANCEL flows. *)
let t8 =
  {
    tc_name = "T8";
    tc_description = "INVITE/CANCEL teardown flows";
    tc_drivers =
      [
        ( "uac1",
          fun d ->
            ignore (do_register d ~user:"victim" ~domain:"example.com" ~cseq:1 ());
            for i = 0 to 5 do
              do_cancelled_call d ~caller:"w" ~callee:"victim" ~domain:"example.com"
                ~call_id:(Printf.sprintf "t8-%d" i) ~cseq:(10 + (2 * i))
            done );
        ( "uac2",
          fun d ->
            for i = 0 to 3 do
              do_options d ~domain:"example.com" ~cseq:(i + 1)
            done );
      ];
  }

let all_test_cases = [ t1; t2; t3; t4; t5; t6; t7; t8 ]

(* ------------------------------------------------------------------ *)
(* Running a test case against a server                                *)
(* ------------------------------------------------------------------ *)

type run_result = {
  r_failures : string list;  (** oracle violations across all drivers *)
  r_responses : int;
}

(** The lifecycle both test-case runners share: start the server, run
    every driver of [tc] in its own thread, join them, stop and shut
    down the server.  The spawn, the driver's frame and the join sit at
    lines [line], [line + 1] and [line + 6] of [frame] — locations every
    driver-side report stack carries. *)
let run_drivers ~frame ~line ~transport server_config tc =
  let server = Proxy.start ~transport server_config in
  let drivers =
    List.map
      (fun (name, script) ->
        let d = make_driver ~transport name in
        let tid =
          Api.spawn ~loc:(lc frame line) ~name (fun () ->
              Api.with_frame (lc name (line + 1)) (fun () -> script d))
        in
        (d, tid))
      tc.tc_drivers
  in
  List.iter (fun (_, tid) -> Api.join ~loc:(lc frame (line + 6)) tid) drivers;
  Proxy.post_stop server;
  Proxy.shutdown server;
  (server, List.map fst drivers)

let result_of drivers =
  {
    r_failures = List.concat_map (fun d -> List.rev d.failures) drivers;
    r_responses = List.fold_left (fun acc d -> acc + d.responses) 0 drivers;
  }

(** Body to execute as the VM main thread: {!run_drivers} under the
    ["main"] frame.  Returns the oracle result. *)
let run_test_case ~transport ~(server_config : Proxy.config) tc () =
  let _, drivers = run_drivers ~frame:"main" ~line:300 ~transport server_config tc in
  result_of drivers

(* ------------------------------------------------------------------ *)
(* Chaos workload: fault-tolerant UAC drivers                          *)
(* ------------------------------------------------------------------ *)

(** Under injected datagram faults a blocking [expect] would wedge on
    the first dropped response, so the chaos drivers speak a small
    RFC 3261 UAC core instead: every request is retransmitted with
    bounded backoff until a {e matching} final response (Call-ID +
    CSeq) arrives; 503s are honoured and retried; duplicate and stale
    responses are discarded.  Whether the {e server} is resilient is an
    independent toggle — that asymmetry is exactly what the chaos
    oracles measure. *)

type chaos_opts = {
  co_max_attempts : int;  (** per transaction, before declaring it unanswered *)
  co_attempt_timeout : int;  (** base wait (ticks) before retransmitting *)
}

let default_chaos_opts = { co_max_attempts = 8; co_attempt_timeout = 90 }

(** Does [wire] carry a final/provisional status for transaction
    (call_id, cseq)?  [None] = not ours (stale, duplicate, garbage). *)
let resp_matches ~call_id ~cseq wire =
  match Sip_msg.wire_status wire with
  | None -> None
  | Some s ->
      let cid_ok =
        match Sip_msg.wire_header wire "Call-ID" with Some c -> c = call_id | None -> false
      in
      let cseq_ok =
        match Sip_msg.wire_header wire "CSeq" with
        | Some v -> (
            match String.split_on_char ' ' (String.trim v) with
            | tok :: _ -> ( match int_of_string_opt tok with Some n -> n = cseq | None -> false)
            | [] -> false)
        | None -> false
      in
      if cid_ok && cseq_ok then Some s else None

(** Drive one transaction to a final response: send, wait with a
    deadline, retransmit on timeout with capped backoff, retry on 503.
    Returns the final status, or [None] after [co_max_attempts]. *)
let chaos_transact opts d ~wire ~call_id ~cseq =
  let bo = Backoff.default in
  let jitter_seed = 1 lxor Registrar.hash_string call_id in
  let saw_shed = ref false in
  let rec attempt n =
    if n >= opts.co_max_attempts then begin
      (* a transaction whose attempts all ended in 503 was deliberately
         shed, not lost — only silence counts as unanswered *)
      if not !saw_shed then d.unanswered <- d.unanswered + 1;
      None
    end
    else begin
      send d wire;
      let deadline =
        Api.now () + opts.co_attempt_timeout + Backoff.delay bo ~seed:jitter_seed ~attempt:n
      in
      let rec wait () =
        match Transport.recv_deadline d.transport d.endpoint ~deadline with
        | None -> attempt (n + 1) (* timed out: retransmit *)
        | Some (_src, buf, len) ->
            let rwire = Transport.read_buffer buf len in
            Api.free ~loc:(lc "chaos_transact" 470) buf;
            d.responses <- d.responses + 1;
            (match resp_matches ~call_id ~cseq rwire with
            | Some 503 ->
                (* deliberate shedding: back off and try again *)
                saw_shed := true;
                d.shed_seen <- d.shed_seen + 1;
                Api.sleep (20 + (10 * n));
                attempt (n + 1)
            | Some s when s >= 200 -> Some s
            | Some _ (* provisional *) | None (* not ours *) -> wait ())
      in
      wait ()
    end
  in
  attempt 0

let chaos_wrong d ~what ~call_id status =
  d.failures <-
    Printf.sprintf "%s: %s %s got unexpected final %d" d.d_name what call_id status
    :: d.failures

(** Register (or with [expires = 0] unregister) until acknowledged;
    records the acknowledged binding expectation for the post-run
    oracle.  Returns whether the 200 arrived. *)
let chaos_register opts d ~user ~domain ~cseq ?(expires = 100_000) () =
  let a = aor user domain in
  let call_id = Printf.sprintf "creg-%s-%d" user cseq in
  let wire =
    request ~meth:Sip_msg.REGISTER ~uri:("sip:" ^ domain) ~from:a ~to_:a ~call_id ~cseq
      ~contact:(Printf.sprintf "sip:%s@10.0.2.%d:5060" user (1 + (cseq mod 250)))
      ~expires ()
  in
  match chaos_transact opts d ~wire ~call_id ~cseq with
  | Some 200 ->
      (* the registrar keys bindings as user@domain, without the scheme *)
      d.chaos_regs <- (user ^ "@" ^ domain, expires > 0) :: d.chaos_regs;
      true
  | Some s ->
      chaos_wrong d ~what:"REGISTER" ~call_id s;
      false
  | None -> false

let chaos_unregister opts d ~user ~domain ~cseq =
  ignore (chaos_register opts d ~user ~domain ~cseq ~expires:0 ())

let chaos_options opts d ~domain ~cseq =
  let call_id = Printf.sprintf "copt-%s-%d" d.d_name cseq in
  let wire =
    request ~meth:Sip_msg.OPTIONS ~uri:("sip:" ^ domain) ~from:(aor "ping" domain)
      ~to_:(aor "server" domain) ~call_id ~cseq ()
  in
  match chaos_transact opts d ~wire ~call_id ~cseq with
  | Some 200 | None -> ()
  | Some s -> chaos_wrong d ~what:"OPTIONS" ~call_id s

(** One complete call under faults: INVITE until final, ACK, talk,
    BYE until final.  [accept_404] makes a 404 final acceptable — for
    scripts calling a callee whose registration another agent owns (the
    caller cannot know whether that REGISTER was shed). *)
let chaos_call opts d ~caller ~callee ~domain ~call_id ~cseq ?(talk = 6) ?(accept_404 = false)
    () =
  let from = aor caller domain and to_ = aor callee domain in
  let uri = to_ in
  let invite = request ~meth:Sip_msg.INVITE ~uri ~from ~to_ ~call_id ~cseq () in
  match chaos_transact opts d ~wire:invite ~call_id ~cseq with
  | Some 404 when accept_404 -> ()
  | Some 200 -> (
      send d (request ~meth:Sip_msg.ACK ~uri ~from ~to_ ~call_id ~cseq ());
      Api.sleep talk;
      let bye = request ~meth:Sip_msg.BYE ~uri ~from ~to_ ~call_id ~cseq:(cseq + 1) () in
      match chaos_transact opts d ~wire:bye ~call_id ~cseq:(cseq + 1) with
      (* 481 is acceptable: it can only reach us when another copy of
         this same BYE already tore the dialog down (its 200 was lost
         or overtaken), and RFC 3261 §15.1.2 has the UAC treat it as
         terminated either way *)
      | Some 200 | Some 481 | None -> ()
      | Some s -> chaos_wrong d ~what:"BYE" ~call_id s)
  | Some s -> chaos_wrong d ~what:"INVITE" ~call_id s
  | None -> ()

(** INVITE to an unregistered callee: 404 is the correct final. *)
let chaos_failed_call opts d ~caller ~callee ~domain ~call_id ~cseq =
  let from = aor caller domain and to_ = aor callee domain in
  let wire = request ~meth:Sip_msg.INVITE ~uri:to_ ~from ~to_ ~call_id ~cseq () in
  match chaos_transact opts d ~wire ~call_id ~cseq with
  | Some 404 | None -> ()
  | Some s -> chaos_wrong d ~what:"INVITE(404)" ~call_id s

(** INVITE, CANCEL (same CSeq, distinct transaction), BYE. *)
let chaos_cancelled_call opts d ~caller ~callee ~domain ~call_id ~cseq =
  let from = aor caller domain and to_ = aor callee domain in
  let uri = to_ in
  let invite = request ~meth:Sip_msg.INVITE ~uri ~from ~to_ ~call_id ~cseq () in
  match chaos_transact opts d ~wire:invite ~call_id ~cseq with
  | Some 200 -> (
      let cancel = request ~meth:Sip_msg.CANCEL ~uri ~from ~to_ ~call_id ~cseq () in
      (match chaos_transact opts d ~wire:cancel ~call_id ~cseq with
      | Some 200 | Some 481 | None -> ()
      | Some s -> chaos_wrong d ~what:"CANCEL" ~call_id s);
      let bye = request ~meth:Sip_msg.BYE ~uri ~from ~to_ ~call_id ~cseq:(cseq + 1) () in
      match chaos_transact opts d ~wire:bye ~call_id ~cseq:(cseq + 1) with
      | Some 200 | Some 481 | None -> ()
      | Some s -> chaos_wrong d ~what:"BYE" ~call_id s)
  | Some s -> chaos_wrong d ~what:"INVITE" ~call_id s
  | None -> ()

(** Garbage datagram: the server answers 400 without echoing Call-ID,
    so accept any 400 (or give up quietly — the 400 itself may be
    dropped by a fault). *)
let chaos_malformed opts d ~cseq =
  let rec attempt n =
    if n < opts.co_max_attempts then begin
      send d (Printf.sprintf "GARBAGE nonsense/%d\r\n\r\n" cseq);
      let deadline = Api.now () + opts.co_attempt_timeout in
      let rec wait () =
        match Transport.recv_deadline d.transport d.endpoint ~deadline with
        | None -> attempt (n + 1)
        | Some (_src, buf, len) ->
            let rwire = Transport.read_buffer buf len in
            Api.free ~loc:(lc "chaos_malformed" 530) buf;
            d.responses <- d.responses + 1;
            if Sip_msg.wire_status rwire = Some 400 then () else wait ()
      in
      wait ()
    end
  in
  attempt 0

(* --- the chaos matrix test cases (T1–T8 shapes, hardened drivers) --- *)

let chaos_test_cases opts =
  let reg = chaos_register opts
  and unreg = chaos_unregister opts
  and opt = chaos_options opts
  and call = chaos_call opts
  and failed = chaos_failed_call opts
  and cancelled = chaos_cancelled_call opts
  and malformed = chaos_malformed opts in
  [
    {
      tc_name = "T1";
      tc_description = "chaos: REGISTER burst + OPTIONS pings";
      tc_drivers =
        [
          ( "cuac1",
            fun d ->
              for i = 0 to 3 do
                ignore (reg d ~user:(Printf.sprintf "calice%d" i) ~domain:"example.com" ~cseq:(i + 1) ())
              done;
              ignore (reg d ~user:"calice0" ~domain:"example.com" ~cseq:20 ()) );
          ( "cuac2",
            fun d ->
              for i = 0 to 3 do
                ignore (reg d ~user:(Printf.sprintf "cbob%d" i) ~domain:"voip.example.net" ~cseq:(i + 1) ())
              done );
          ("cuac3", fun d -> for i = 0 to 2 do opt d ~domain:"example.com" ~cseq:(i + 1) done);
        ];
    };
    {
      tc_name = "T2";
      tc_description = "chaos: basic INVITE/ACK/BYE calls";
      tc_drivers =
        [
          ( "cuac1",
            fun d ->
              ignore (reg d ~user:"cal" ~domain:"example.com" ~cseq:1 ());
              if reg d ~user:"cbo" ~domain:"example.com" ~cseq:2 () then
                for i = 0 to 2 do
                  call d ~caller:"cal" ~callee:"cbo" ~domain:"example.com"
                    ~call_id:(Printf.sprintf "ccall-t2-%d" i) ~cseq:(10 + (2 * i)) ()
                done );
        ];
    };
    {
      tc_name = "T3";
      tc_description = "chaos: OPTIONS keep-alives only";
      tc_drivers =
        [
          ("cuac1", fun d -> for i = 0 to 3 do opt d ~domain:"example.com" ~cseq:(i + 1) done);
          ("cuac2", fun d -> for i = 0 to 2 do opt d ~domain:"pbx.local" ~cseq:(i + 1) done);
        ];
    };
    {
      tc_name = "T4";
      tc_description = "chaos: mixed REGISTER + calls, three agents";
      tc_drivers =
        [
          ( "cuac1",
            fun d ->
              for i = 0 to 2 do
                ignore (reg d ~user:(Printf.sprintf "cuser%d" i) ~domain:"example.com" ~cseq:(i + 1) ())
              done );
          ( "cuac2",
            fun d ->
              if reg d ~user:"ccarol" ~domain:"example.com" ~cseq:1 () then
                for i = 0 to 1 do
                  call d ~caller:"cdave" ~callee:"ccarol" ~domain:"example.com"
                    ~call_id:(Printf.sprintf "ccall-t4a-%d" i) ~cseq:(10 + (2 * i)) ~talk:4 ()
                done );
          ( "cuac3",
            fun d ->
              if reg d ~user:"cerin" ~domain:"voip.example.net" ~cseq:1 () then
                for i = 0 to 1 do
                  call d ~caller:"cfrank" ~callee:"cerin" ~domain:"voip.example.net"
                    ~call_id:(Printf.sprintf "ccall-t4b-%d" i) ~cseq:(30 + (2 * i)) ~talk:3 ()
                done );
        ];
    };
    {
      tc_name = "T5";
      tc_description = "chaos: concurrent calls + re-registrations";
      tc_drivers =
        [
          ( "cuac1",
            fun d ->
              if reg d ~user:"cvic1" ~domain:"example.com" ~cseq:1 () then
                for i = 0 to 2 do
                  call d ~caller:"cx" ~callee:"cvic1" ~domain:"example.com"
                    ~call_id:(Printf.sprintf "ct5a-%d" i) ~cseq:(10 + (2 * i)) ~talk:5 ()
                done );
          ( "cuac2",
            fun d ->
              if reg d ~user:"cvic2" ~domain:"example.com" ~cseq:1 () then
                for i = 0 to 2 do
                  call d ~caller:"cy" ~callee:"cvic2" ~domain:"example.com"
                    ~call_id:(Printf.sprintf "ct5b-%d" i) ~cseq:(50 + (2 * i)) ~talk:5 ()
                done );
          ( "cuac3",
            fun d ->
              for i = 0 to 3 do
                ignore (reg d ~user:"cvic1" ~domain:"example.com" ~cseq:(100 + i) ());
                Api.sleep 5
              done );
          ( "cuac4",
            fun d ->
              for i = 0 to 2 do
                opt d ~domain:"example.com" ~cseq:(i + 1);
                Api.sleep 4
              done );
        ];
    };
    {
      tc_name = "T6";
      tc_description = "chaos: registrar churn";
      tc_drivers =
        [
          ( "cuac1",
            fun d ->
              for i = 0 to 2 do
                let user = Printf.sprintf "cchurn%d" (i mod 2) in
                ignore (reg d ~user ~domain:"example.com" ~cseq:(10 * (i + 1)) ());
                unreg d ~user ~domain:"example.com" ~cseq:((10 * (i + 1)) + 1)
              done );
          ( "cuac2",
            fun d ->
              if reg d ~user:"cstable" ~domain:"example.com" ~cseq:1 () then
                for i = 0 to 1 do
                  call d ~caller:"cz" ~callee:"cstable" ~domain:"example.com"
                    ~call_id:(Printf.sprintf "ct6-%d" i) ~cseq:(200 + (2 * i)) ~talk:4 ()
                done );
        ];
    };
    {
      tc_name = "T7";
      tc_description = "chaos: error flows (malformed, 404s)";
      tc_drivers =
        [
          ( "cuac1",
            fun d ->
              for i = 0 to 1 do
                malformed d ~cseq:i
              done;
              for i = 0 to 1 do
                failed d ~caller:"cghost" ~callee:(Printf.sprintf "cnobody%d" i)
                  ~domain:"example.com" ~call_id:(Printf.sprintf "ct7-%d" i) ~cseq:(10 + i)
              done );
          ( "cuac2",
            fun d -> ignore (reg d ~user:"clate" ~domain:"example.com" ~cseq:99 ()) );
        ];
    };
    {
      tc_name = "T8";
      tc_description = "chaos: INVITE/CANCEL teardown flows";
      tc_drivers =
        [
          ( "cuac1",
            fun d ->
              if reg d ~user:"cvictim" ~domain:"example.com" ~cseq:1 () then
                for i = 0 to 1 do
                  cancelled d ~caller:"cw" ~callee:"cvictim" ~domain:"example.com"
                    ~call_id:(Printf.sprintf "ct8-%d" i) ~cseq:(10 + (2 * i))
                done );
          ("cuac2", fun d -> for i = 0 to 1 do opt d ~domain:"example.com" ~cseq:(i + 1) done);
        ];
    };
  ]

type chaos_run_result = {
  cr_base : run_result;
  cr_acked_regs : (string * bool) list;
      (** chronological (aor, should-be-bound) across all drivers *)
  cr_shed_seen : int;  (** 503s received by drivers *)
  cr_unanswered : int;  (** transactions with no final after all retries *)
  cr_bound : string list;  (** server-side bound AORs after shutdown *)
  cr_shard_audit : string list;
      (** {!Registrar.audit} violations after shutdown (empty when the
          registrar kept its invariants — always, when unsharded) *)
  cr_shard_count : int;  (** final shard count (1 when unsharded) *)
}

(** Chaos variant of {!run_test_case}: same lifecycle, hardened drivers,
    richer post-run evidence for the invariant oracles. *)
let run_chaos_test_case ~transport ~(server_config : Proxy.config) tc () =
  let server, drivers = run_drivers ~frame:"chaos_main" ~line:700 ~transport server_config tc in
  {
    cr_base = result_of drivers;
    cr_acked_regs = List.concat_map (fun d -> List.rev d.chaos_regs) drivers;
    cr_shed_seen = List.fold_left (fun acc d -> acc + d.shed_seen) 0 drivers;
    cr_unanswered = List.fold_left (fun acc d -> acc + d.unanswered) 0 drivers;
    cr_bound = Proxy.bound_aors server;
    cr_shard_audit = Proxy.registrar_audit server;
    cr_shard_count = Proxy.registrar_shard_count server;
  }

(* ------------------------------------------------------------------ *)
(* The scenario DSL (raceguard-scenario/1)                             *)
(* ------------------------------------------------------------------ *)

(** Data-driven call-flow scenarios: T9+ workloads are JSON documents
    compiled onto the hardened chaos drivers, so new storm shapes are
    data, not code.  Steps run sequentially per agent; every agent is
    one driver thread.  String fields substitute [%i] (innermost
    repeat index) and [%a] (agent name); CSeq numbers are assigned
    automatically per agent from disjoint ranges. *)
module Scenario = struct
  type step =
    | Register of { user : string; domain : string; expires : int }
    | Unregister of { user : string; domain : string }
    | Options of { domain : string }
    | Call of { caller : string; callee : string; domain : string; talk : int }
    | Sleep of int
    | Repeat of { count : int; body : step list }

  type agent = { ag_name : string; ag_steps : step list }

  type shard_spec = { sp_initial : int; sp_grow_at : int; sp_max_shards : int }

  type t = {
    sc_name : string;
    sc_description : string;
    sc_sharding : shard_spec option;
        (** when set, the scenario runs against a sharded registrar
            ([Resilient] with the chaos resilience toggle on,
            [Legacy_striped] with it off) *)
    sc_agents : agent list;
  }

  let schema = "raceguard-scenario/1"

  let sharding ~resilient t =
    match t.sc_sharding with
    | None -> Registrar.Unsharded
    | Some sp ->
        Registrar.Sharded
          {
            flavor = (if resilient then Registrar.Resilient else Registrar.Legacy_striped);
            initial = sp.sp_initial;
            grow_at = sp.sp_grow_at;
            max_shards = sp.sp_max_shards;
          }

  (* [%i] -> repeat index, [%a] -> agent name (host-side, cheap) *)
  let subst ~agent ~index s =
    if not (String.contains s '%') then s
    else
      let buf = Buffer.create (String.length s + 8) in
      let n = String.length s in
      let rec go i =
        if i < n then
          if s.[i] = '%' && i + 1 < n then (
            (match s.[i + 1] with
            | 'i' -> Buffer.add_string buf (string_of_int index)
            | 'a' -> Buffer.add_string buf agent
            | c ->
                Buffer.add_char buf '%';
                Buffer.add_char buf c);
            go (i + 2))
          else (
            Buffer.add_char buf s.[i];
            go (i + 1))
      in
      go 0;
      Buffer.contents buf

  let compile_agent opts sc ~agent_index ag d =
    let cseq = ref (1000 * (agent_index + 1)) in
    let next () =
      incr cseq;
      !cseq
    in
    (* registrations this agent attempted / saw acknowledged, keyed by
       AOR — the T2/T4 idiom generalised: a call to a callee whose
       registration this agent owns is skipped when that registration
       was shed away; a call to anyone else tolerates a 404 final *)
    let attempted = Hashtbl.create 8 and confirmed = Hashtbl.create 8 in
    let rec exec ~index step =
      let sub s = subst ~agent:ag.ag_name ~index s in
      match step with
      | Register { user; domain; expires } ->
          let user = sub user in
          let a = user ^ "@" ^ domain in
          Hashtbl.replace attempted a ();
          if chaos_register opts d ~user ~domain ~cseq:(next ()) ~expires () then
            Hashtbl.replace confirmed a ()
      | Unregister { user; domain } ->
          let user = sub user in
          Hashtbl.remove confirmed (user ^ "@" ^ domain);
          chaos_unregister opts d ~user ~domain ~cseq:(next ())
      | Options { domain } -> chaos_options opts d ~domain ~cseq:(next ())
      | Call { caller; callee; domain; talk } ->
          let callee = sub callee in
          let c = next () in
          ignore (next ());
          (* the BYE consumes c+1 *)
          let a = callee ^ "@" ^ domain in
          let own = Hashtbl.mem attempted a in
          if own && not (Hashtbl.mem confirmed a) then ()
            (* this agent's own registration of the callee was shed:
               skipping mirrors T2's [if reg ... then call ...] *)
          else
            chaos_call opts d ~caller:(sub caller) ~callee ~domain
              ~call_id:(Printf.sprintf "sc-%s-%s-%d" sc.sc_name ag.ag_name c)
              ~cseq:c ~talk ~accept_404:(not own) ()
      | Sleep ticks -> Api.sleep ticks
      | Repeat { count; body } ->
          for i = 0 to count - 1 do
            List.iter (exec ~index:i) body
          done
    in
    List.iter (exec ~index:0) ag.ag_steps

  let to_test_case opts sc =
    {
      tc_name = sc.sc_name;
      tc_description = sc.sc_description;
      tc_drivers =
        List.mapi
          (fun i ag -> (ag.ag_name, compile_agent opts sc ~agent_index:i ag))
          sc.sc_agents;
    }

  (* --- JSON ------------------------------------------------------- *)

  module Json = Raceguard_obs.Json

  let rec step_to_json = function
    | Register { user; domain; expires } ->
        Json.Obj
          [
            ("op", Json.Str "register");
            ("user", Json.Str user);
            ("domain", Json.Str domain);
            ("expires", Json.int expires);
          ]
    | Unregister { user; domain } ->
        Json.Obj
          [ ("op", Json.Str "unregister"); ("user", Json.Str user); ("domain", Json.Str domain) ]
    | Options { domain } -> Json.Obj [ ("op", Json.Str "options"); ("domain", Json.Str domain) ]
    | Call { caller; callee; domain; talk } ->
        Json.Obj
          [
            ("op", Json.Str "call");
            ("caller", Json.Str caller);
            ("callee", Json.Str callee);
            ("domain", Json.Str domain);
            ("talk", Json.int talk);
          ]
    | Sleep ticks -> Json.Obj [ ("op", Json.Str "sleep"); ("ticks", Json.int ticks) ]
    | Repeat { count; body } ->
        Json.Obj
          [
            ("op", Json.Str "repeat");
            ("count", Json.int count);
            ("steps", Json.List (List.map step_to_json body));
          ]

  let to_json sc =
    Json.Obj
      [
        ("schema", Json.Str schema);
        ("name", Json.Str sc.sc_name);
        ("description", Json.Str sc.sc_description);
        ( "sharding",
          match sc.sc_sharding with
          | None -> Json.Null
          | Some sp ->
              Json.Obj
                [
                  ("initial", Json.int sp.sp_initial);
                  ("grow_at", Json.int sp.sp_grow_at);
                  ("max_shards", Json.int sp.sp_max_shards);
                ] );
        ( "agents",
          Json.List
            (List.map
               (fun ag ->
                 Json.Obj
                   [
                     ("name", Json.Str ag.ag_name);
                     ("steps", Json.List (List.map step_to_json ag.ag_steps));
                   ])
               sc.sc_agents) );
      ]

  let ( let* ) = Result.bind

  let str_field name j =
    match Json.member name j with
    | Some (Json.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "missing string field %S" name)

  (* Every integer field has a range, and a number outside it, or not
     integral, is refused with the field and the value: nothing read
     from disk reaches a sleep, a loop or the registrar's [Array.init]
     unchecked. *)
  let max_ticks = 1_000_000
  let max_repeat = 1_000
  let max_shard_count = 256
  let max_agent_steps = 100_000

  let int_field ?default ~lo ~hi name j =
    match (Json.member name j, default) with
    | Some (Json.Num f), _ ->
        if Float.is_integer f && f >= float_of_int lo && f <= float_of_int hi then Ok (int_of_float f)
        else Error (Printf.sprintf "field %S: %g is not an integer in %d..%d" name f lo hi)
    | (None | Some Json.Null), Some d -> Ok d
    | _ -> Error (Printf.sprintf "missing int field %S" name)

  let ticks_field ?default name j = int_field ?default ~lo:0 ~hi:max_ticks name j

  (* the steps an agent runs: repeat counts multiplied through the
     nesting, saturated just above the bound so that nothing overflows *)
  let rec expanded steps =
    List.fold_left (fun acc step -> min (max_agent_steps + 1) (acc + step_weight step)) 0 steps

  and step_weight = function
    | Repeat { count; body } ->
        let b = expanded body in
        if b > 0 && count > max_agent_steps / b then max_agent_steps + 1 else count * b
    | Register _ | Unregister _ | Options _ | Call _ | Sleep _ -> 1

  let rec step_of_json j =
    let* op = str_field "op" j in
    match op with
    | "register" ->
        let* user = str_field "user" j in
        let* domain = str_field "domain" j in
        let* expires = ticks_field ~default:100_000 "expires" j in
        Ok (Register { user; domain; expires })
    | "unregister" ->
        let* user = str_field "user" j in
        let* domain = str_field "domain" j in
        Ok (Unregister { user; domain })
    | "options" ->
        let* domain = str_field "domain" j in
        Ok (Options { domain })
    | "call" ->
        let* caller = str_field "caller" j in
        let* callee = str_field "callee" j in
        let* domain = str_field "domain" j in
        let* talk = ticks_field ~default:6 "talk" j in
        Ok (Call { caller; callee; domain; talk })
    | "sleep" ->
        let* ticks = ticks_field "ticks" j in
        Ok (Sleep ticks)
    | "repeat" ->
        let* count = int_field ~lo:0 ~hi:max_repeat "count" j in
        let* body = steps_of_json j in
        Ok (Repeat { count; body })
    | op -> Error (Printf.sprintf "unknown op %S" op)

  and steps_of_json j =
    match Json.member "steps" j with
    | Some (Json.List l) ->
        List.fold_left
          (fun acc s ->
            let* acc = acc in
            let* s = step_of_json s in
            Ok (s :: acc))
          (Ok []) l
        |> Result.map List.rev
    | _ -> Error "missing \"steps\" list"

  let of_json j =
    let* s = str_field "schema" j in
    if s <> schema then Error (Printf.sprintf "unsupported schema %S (want %S)" s schema)
    else
      let* name = str_field "name" j in
      let* description = str_field "description" j in
      let* sharding =
        match Json.member "sharding" j with
        | None | Some Json.Null -> Ok None
        | Some sp ->
            let* initial = int_field ~lo:1 ~hi:max_shard_count "initial" sp in
            let* grow_at = int_field ~default:0 ~lo:0 ~hi:max_ticks "grow_at" sp in
            let* max_shards = int_field ~default:initial ~lo:initial ~hi:max_shard_count "max_shards" sp in
            Ok (Some { sp_initial = initial; sp_grow_at = grow_at; sp_max_shards = max_shards })
      in
      let* agents =
        match Json.member "agents" j with
        | Some (Json.List l) ->
            List.fold_left
              (fun acc a ->
                let* acc = acc in
                let* name = str_field "name" a in
                let* steps = steps_of_json a in
                let n = expanded steps in
                if n > max_agent_steps then
                  Error (Printf.sprintf "agent %S: more than %d steps when its repeats are expanded" name max_agent_steps)
                else Ok ({ ag_name = name; ag_steps = steps } :: acc))
              (Ok []) l
            |> Result.map List.rev
        | _ -> Error "missing \"agents\" list"
      in
      if agents = [] then Error "scenario has no agents"
      else Ok { sc_name = name; sc_description = description; sc_sharding = sharding; sc_agents = agents }

  let of_string s =
    match Json.parse s with Error e -> Error ("parse error: " ^ e) | Ok j -> of_json j
end
