(* Tests for the fault-injection plane and the resilience layer:
   backoff schedule properties (qcheck), the retransmission timer's
   cancel/fire race, injector determinism, and the chaos matrix
   determinism pin (same seed+plan => byte-identical digests, with and
   without the detector fast path). *)

module Vm = Raceguard_vm
module Engine = Vm.Engine
module Api = Vm.Api
module Sip = Raceguard_sip
module Faults = Raceguard_faults
module Backoff = Sip.Backoff
module Loc = Raceguard_util.Loc

let loc = Loc.v "t.ml" "t" 1

(* --- backoff schedule (qcheck) -------------------------------------- *)

let gen_params =
  QCheck2.Gen.(
    let* base = 1 -- 100 in
    let* factor_den = 1 -- 4 in
    let* factor_num = factor_den + 1 -- (factor_den * 3) in
    let* cap = base -- 2000 in
    let* jitter_pct = 0 -- 100 in
    return { Backoff.base; factor_num; factor_den; cap; jitter_pct })

let gen_case =
  QCheck2.Gen.(
    let* p = gen_params in
    let* seed = 0 -- 100_000 in
    let* attempts = 1 -- 12 in
    return (p, seed, attempts))

let print_case (p, seed, attempts) =
  Printf.sprintf "base=%d num=%d den=%d cap=%d jitter=%d seed=%d attempts=%d" p.Backoff.base
    p.Backoff.factor_num p.Backoff.factor_den p.Backoff.cap p.Backoff.jitter_pct seed attempts

let qc_backoff_monotone_capped =
  QCheck2.Test.make ~name:"backoff schedule is monotone, positive, capped" ~count:500
    ~print:print_case gen_case (fun (p, seed, attempts) ->
      let s = Backoff.schedule p ~seed ~attempts in
      let ceiling = Backoff.max_delay p in
      List.length s = attempts
      && List.for_all (fun d -> d >= 1 && d <= ceiling) s
      && fst
           (List.fold_left (fun (mono, prev) d -> (mono && d >= prev, d)) (true, 0) s))

let qc_backoff_deterministic =
  QCheck2.Test.make ~name:"backoff schedule is deterministic per (params, seed)" ~count:300
    ~print:print_case gen_case (fun (p, seed, attempts) ->
      Backoff.schedule p ~seed ~attempts = Backoff.schedule p ~seed ~attempts
      && List.init attempts (fun k -> Backoff.delay p ~seed ~attempt:k)
         = Backoff.schedule p ~seed ~attempts)

(* --- injector ------------------------------------------------------- *)

let qc_corrupt_wire_pure =
  QCheck2.Test.make ~name:"corrupt_wire is deterministic and length-preserving" ~count:300
    QCheck2.Gen.(pair (1 -- 10_000) (string_size (1 -- 200)))
    (fun (key, wire) ->
      let a = Faults.Injector.corrupt_wire ~key wire in
      let b = Faults.Injector.corrupt_wire ~key wire in
      a = b && String.length a = String.length wire)

let test_injector_off_is_noop () =
  let inj = Faults.Injector.create ~seed:1 ~plan:Faults.Plan.none in
  Alcotest.(check bool) "off" true (Faults.Injector.is_off inj);
  for _ = 1 to 100 do
    (match Faults.Injector.datagram inj with
    | Faults.Injector.Deliver -> ()
    | _ -> Alcotest.fail "fault fired under the empty plan");
    Alcotest.(check bool) "no alloc failure" false (Faults.Injector.alloc_fails inj);
    Alcotest.(check int) "no spawn delay" 0 (Faults.Injector.spawn_delay inj);
    Alcotest.(check int) "no lock delay" 0 (Faults.Injector.lock_delay inj)
  done;
  Alcotest.(check int) "nothing counted" 0
    (Faults.Injector.total (Faults.Injector.counts inj))

let test_injector_deterministic_stream () =
  let drain seed =
    let plan = Option.get (Faults.Plan.lookup "mayhem") in
    let inj = Faults.Injector.create ~seed ~plan in
    let log = Buffer.create 256 in
    for _ = 1 to 200 do
      (match Faults.Injector.datagram inj with
      | Faults.Injector.Deliver -> Buffer.add_char log '.'
      | Faults.Injector.Drop -> Buffer.add_char log 'x'
      | Faults.Injector.Duplicate -> Buffer.add_char log '2'
      | Faults.Injector.Delay_by n -> Buffer.add_string log (Printf.sprintf "d%d" n)
      | Faults.Injector.Corrupt_with k -> Buffer.add_string log (Printf.sprintf "c%d" k));
      Buffer.add_string log (Printf.sprintf "a%b" (Faults.Injector.alloc_fails inj))
    done;
    Buffer.contents log
  in
  Alcotest.(check string) "same seed, same decisions" (drain 42) (drain 42);
  Alcotest.(check bool) "different seed, different decisions" true (drain 42 <> drain 43)

(* --- timer wheel: cancellation racing the resend -------------------- *)

(* Schedule a retransmission, then cancel it from another thread while
   the timer thread may be firing it.  Whatever the interleaving: the
   run ends cleanly, the attempt budget is respected, and the resend
   count the wheel reports equals the number of callback invocations. *)
let timer_cancel_race seed =
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  let resends = ref 0 in
  let result = ref None in
  let outcome =
    Engine.run vm (fun () ->
        let alloc = Raceguard_cxxsim.Allocator.create Raceguard_cxxsim.Allocator.Direct in
        let wheel =
          Sip.Timer_wheel.create ~alloc
            ~resend:(fun ~txn_key:_ ~attempt:_ ->
              incr resends;
              true)
            ~housekeeping:(fun () -> ())
            ()
        in
        Sip.Timer_wheel.start wheel;
        Sip.Timer_wheel.schedule_retransmit wheel ~txn_key:42 ~delay:5;
        let canceller =
          Api.spawn ~loc ~name:"canceller" (fun () ->
              Api.sleep (1 + (seed mod 13));
              ignore (Sip.Timer_wheel.cancel wheel ~txn_key:42))
        in
        Api.join ~loc canceller;
        Api.sleep 30;
        Sip.Timer_wheel.stop wheel;
        Sip.Timer_wheel.join wheel;
        result := Some (Sip.Timer_wheel.resent wheel, Sip.Timer_wheel.cancelled wheel))
  in
  (match outcome.Engine.failures with
  | [] -> ()
  | (_, name, e) :: _ -> Alcotest.failf "thread %s raised %s" name (Printexc.to_string e));
  Alcotest.(check bool) "no deadlock" true (outcome.Engine.deadlock = None);
  let resent, cancelled = Option.get !result in
  Alcotest.(check int) "resend callback count matches the wheel's" !resends resent;
  Alcotest.(check bool) "attempt budget respected" true
    (resent <= Sip.Timer_wheel.max_attempts);
  Alcotest.(check bool) "cancel accounted" true (cancelled >= 0);
  (resent, cancelled)

let test_timer_cancel_race () =
  (* different seeds explore different interleavings of cancel vs fire *)
  let outcomes = List.map timer_cancel_race [ 1; 2; 3; 5; 8; 13; 21; 34 ] in
  List.iter2
    (fun seed (a, b) ->
      let a', b' = timer_cancel_race seed in
      Alcotest.(check (pair int int))
        (Printf.sprintf "seed %d reproducible" seed)
        (a, b) (a', b'))
    [ 1; 2; 3; 5; 8; 13; 21; 34 ] outcomes

(* --- chaos determinism pin ------------------------------------------ *)

let tiny_config ~fast_path =
  {
    Raceguard.Chaos.quick with
    plans = List.filter_map Faults.Plan.lookup [ "drop" ];
    tests =
      List.filter
        (fun (tc : Sip.Workload.test_case) -> tc.tc_name = "T2")
        (Sip.Workload.chaos_test_cases Sip.Workload.default_chaos_opts);
    (* scenario cells have their own pins in test_shards.ml *)
    shard_plans = [];
    scenario_tests = [];
    fast_path;
  }

let test_chaos_deterministic () =
  let module Json = Raceguard_obs.Json in
  let config = tiny_config ~fast_path:true in
  let r1 = Raceguard.Chaos.run config in
  let r2 = Raceguard.Chaos.run config in
  Alcotest.(check string) "byte-identical JSON reports"
    (Json.to_string (Raceguard.Chaos.to_json ~config r1))
    (Json.to_string (Raceguard.Chaos.to_json ~config r2));
  Alcotest.(check string) "matrix digest stable" (Raceguard.Chaos.matrix_digest r1)
    (Raceguard.Chaos.matrix_digest r2)

let test_chaos_fast_path_invariant () =
  (* the detector fast path must not change reports, oracle outputs or
     digests — only the fast_path flag itself differs *)
  let r_fast = Raceguard.Chaos.run (tiny_config ~fast_path:true) in
  let r_slow = Raceguard.Chaos.run (tiny_config ~fast_path:false) in
  Alcotest.(check string) "matrix digest invariant under fast_path"
    (Raceguard.Chaos.matrix_digest r_fast)
    (Raceguard.Chaos.matrix_digest r_slow);
  List.iter2
    (fun (a : Raceguard.Chaos.cell) (b : Raceguard.Chaos.cell) ->
      Alcotest.(check string) "signature digest" a.cl_sig_digest b.cl_sig_digest;
      Alcotest.(check string) "behaviour digest" a.cl_behavior_digest b.cl_behavior_digest;
      Alcotest.(check (list string)) "violations" a.cl_violations b.cl_violations)
    r_fast.rp_cells r_slow.rp_cells

(* The committed quick-grid pin that CI's par-smoke job checks at 4
   domains, checked here sequentially: every cell's coordinates and
   digests, in grid order, and the matrix digest. *)
let test_chaos_committed_pin () =
  let module Json = Raceguard_obs.Json in
  let pin =
    match
      Json.parse (In_channel.with_open_bin "../ci/chaos_quick_digests.json" In_channel.input_all)
    with
    | Ok j -> j
    | Error e -> Alcotest.fail ("ci/chaos_quick_digests.json: " ^ e)
  in
  let field key j = Option.get (Json.member key j) in
  let str key j = Option.get (Json.to_string_opt (field key j)) in
  let seed = int_of_float (Option.get (Json.to_float_opt (field "seed" pin))) in
  let r = Raceguard.Chaos.run { Raceguard.Chaos.quick with seed; domains = 1 } in
  let cell plan test resilient sig_ behavior =
    Printf.sprintf "%s/%s/%b sig %s behaviour %s" plan test resilient sig_ behavior
  in
  Alcotest.(check (list string)) "cells at one domain = the committed pin"
    (List.map
       (fun c ->
         cell (str "plan" c) (str "test" c) (field "resilient" c = Json.Bool true)
           (str "sig_digest" c) (str "behavior_digest" c))
       (Option.get (Json.to_list_opt (field "cells" pin))))
    (List.map
       (fun (c : Raceguard.Chaos.cell) ->
         cell c.cl_plan c.cl_test c.cl_resilient c.cl_sig_digest c.cl_behavior_digest)
       r.rp_cells);
  Alcotest.(check string) "matrix digest" (str "matrix_digest" pin)
    (Raceguard.Chaos.matrix_digest r)

(* --- listener overload shedding --------------------------------------- *)

(* One driver sends [n] OPTIONS back to back to a one-worker pool
   server, then reads [n] replies.  A resilient worker answers every
   request dequeued past the deadline with a cheap 503, so the queue
   climbs slowly: 20 OPTIONS never reach the high-water mark at seeds
   1–30.  At seed 1, 120 OPTIONS make the listener shed 6 of them. *)
let options_burst ~resilient =
  let n = 120 in
  let result, replies =
    Raceguard.Runner.run_main
      { Raceguard.Runner.default with seed = 1; helgrind_configs = [] }
      (fun () ->
        let transport = Sip.Transport.create () in
        let server =
          Sip.Proxy.start ~transport
            { Sip.Proxy.default_config with pattern = Sip.Proxy.Pool 1; resilient }
        in
        let d = Sip.Workload.make_driver ~transport "uac" in
        for cseq = 1 to n do
          Sip.Workload.send d
            (Sip.Workload.request ~meth:Sip.Sip_msg.OPTIONS ~uri:"sip:example.com"
               ~from:"sip:uac@example.com" ~to_:"sip:example.com"
               ~call_id:(Printf.sprintf "burst-%d" cseq) ~cseq ())
        done;
        let replies = List.init n (fun _ -> Sip.Workload.recv_response d) in
        Sip.Proxy.post_stop server;
        Sip.Proxy.shutdown server;
        replies)
  in
  Alcotest.(check string) "run stops cleanly" "clean"
    (Engine.stop_name (Engine.stop_of result.outcome));
  let replies = Option.get replies in
  (* one final response per request: n replies carrying n distinct CSeqs *)
  let cseq w =
    match Sip.Sip_msg.wire_header w "CSeq" with
    | Some v -> int_of_string (List.hd (String.split_on_char ' ' (String.trim v)))
    | None -> Alcotest.failf "reply without CSeq: %s" w
  in
  Alcotest.(check (list int)) "one reply per request" (List.init n succ)
    (List.sort compare (List.map cseq replies));
  let delta name =
    Option.value ~default:0 (Raceguard_obs.Metrics.find_counter result.metrics name)
  in
  (replies, delta "sip.resilience.shed", delta "sip.resilience.deadline_dropped")

let test_listener_sheds () =
  let is_503 w = Sip.Sip_msg.wire_status w = Some 503 in
  let replies, shed, deadline = options_burst ~resilient:true in
  let unavailable = List.filter is_503 replies in
  Alcotest.(check (list (option string))) "every 503 carries Retry-After: 60"
    (List.map (fun _ -> Some "60") unavailable)
    (List.map (fun w -> Sip.Sip_msg.wire_header w "Retry-After") unavailable);
  (* the listener's 503 echoes Call-ID and CSeq only; a deadline 503
     also echoes From and To *)
  let from_listener =
    List.length (List.filter (fun w -> Sip.Sip_msg.wire_header w "From" = None) unavailable)
  in
  Alcotest.(check int) "listener 503s at seed 1" 6 from_listener;
  Alcotest.(check int) "shed delta = listener 503s" from_listener shed;
  Alcotest.(check int) "deadline delta = the other 503s"
    (List.length unavailable - from_listener)
    deadline;
  let replies, shed, _ = options_burst ~resilient:false in
  Alcotest.(check int) "legacy server: no 503" 0 (List.length (List.filter is_503 replies));
  Alcotest.(check int) "legacy server: no shed" 0 shed

(* --- chaos asymmetry ------------------------------------------------ *)

let test_chaos_oom_asymmetry () =
  (* allocation-failure plan on T2: the resilient server degrades to
     503s and stays clean; the legacy server's workers die *)
  let config =
    {
      (tiny_config ~fast_path:true) with
      Raceguard.Chaos.plans = List.filter_map Faults.Plan.lookup [ "oom" ];
    }
  in
  let plan = List.hd config.Raceguard.Chaos.plans in
  let tc = List.hd config.Raceguard.Chaos.tests in
  let on = Raceguard.Chaos.run_cell config ~plan ~resilient:true tc in
  let off = Raceguard.Chaos.run_cell config ~plan ~resilient:false tc in
  Alcotest.(check (list string)) "resilient cell violation-free" [] on.cl_violations;
  Alcotest.(check bool) "faults actually injected" true
    (Faults.Injector.total on.cl_injected > 0);
  Alcotest.(check bool) "legacy cell demonstrably violates" true (off.cl_violations <> [])

(* --- why each cell's run stopped -------------------------------------- *)

let test_chaos_stops () =
  (* the full grid at seed 7: the three oom baseline cells whose pool
     workers die hang with the logger, reloader and timer wheel still
     cycling, and stop as a hang long before the 4M-op budget; no cell
     reaches the budget, and every resilient cell finishes cleanly *)
  let r = Raceguard.Chaos.run Raceguard.Chaos.default in
  List.iter
    (fun (c : Raceguard.Chaos.cell) ->
      let key = Printf.sprintf "%s/%s/%s" c.cl_plan c.cl_test (if c.cl_resilient then "res" else "base") in
      let stop = Engine.stop_name c.cl_stop in
      if c.cl_plan = "oom" && (not c.cl_resilient) && List.mem c.cl_test [ "T4"; "T5"; "T6" ] then begin
        Alcotest.(check string) (key ^ " stop") "hang" stop;
        if c.cl_ops >= 50_000 then Alcotest.failf "%s: hang found only after %d ops" key c.cl_ops
      end
      else if c.cl_resilient then Alcotest.(check string) (key ^ " stop") "clean" stop
      else if stop = "op-budget" then Alcotest.failf "%s ran out of op budget" key)
    r.rp_cells

let suite =
  ( "faults",
    [
      QCheck_alcotest.to_alcotest qc_backoff_monotone_capped;
      QCheck_alcotest.to_alcotest qc_backoff_deterministic;
      QCheck_alcotest.to_alcotest qc_corrupt_wire_pure;
      Alcotest.test_case "injector: empty plan is a no-op" `Quick test_injector_off_is_noop;
      Alcotest.test_case "injector: decision stream deterministic per seed" `Quick
        test_injector_deterministic_stream;
      Alcotest.test_case "timer wheel: cancel racing resend" `Quick test_timer_cancel_race;
      Alcotest.test_case "chaos: byte-identical reports per (seed, plan)" `Quick
        test_chaos_deterministic;
      Alcotest.test_case "chaos: digests invariant under detector fast path" `Quick
        test_chaos_fast_path_invariant;
      Alcotest.test_case "chaos: quick grid = the committed pin" `Quick test_chaos_committed_pin;
      Alcotest.test_case "resilience: the listener sheds past the high-water mark" `Quick
        test_listener_sheds;
      Alcotest.test_case "chaos: oom asymmetry (resilient clean, legacy breaks)" `Quick
        test_chaos_oom_asymmetry;
      Alcotest.test_case "chaos: oom cells stop as hangs, none at the budget" `Quick test_chaos_stops;
    ] )
