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
          Sip.Timer_wheel.create ~alloc ~annotate:false
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
      Alcotest.test_case "chaos: oom asymmetry (resilient clean, legacy breaks)" `Quick
        test_chaos_oom_asymmetry;
      Alcotest.test_case "chaos: oom cells stop as hangs, none at the budget" `Quick test_chaos_stops;
    ] )
