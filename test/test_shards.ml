(* Tests for the sharded registrar and the storm-scenario plane:
   hash-collision regression (the legacy blindness and the interned
   fix), qcheck properties of the shard router and online rebalance,
   timer-wheel expiry under injected delay faults, the scenario DSL
   round-trip and its fail-closed reading of mutated documents, and the
   T9/T10 chaos-cell pins (asymmetry, domain and
   fast-path invariance). *)

module Vm = Raceguard_vm
module Engine = Vm.Engine
module Api = Vm.Api
module Sip = Raceguard_sip
module Faults = Raceguard_faults
module Registrar = Sip.Registrar
module Scenario = Sip.Workload.Scenario
module Loc = Raceguard_util.Loc

let loc = Loc.v "test_shards.ml" "test" 1

let run ?(seed = 3) ?faults f =
  let vm = Engine.create ~config:{ Engine.default_config with seed; faults } () in
  let result = ref None in
  let outcome = Engine.run vm (fun () -> result := Some (f ())) in
  (match outcome.failures with
  | [] -> ()
  | (_, name, e) :: _ -> Alcotest.failf "thread %s raised %s" name (Printexc.to_string e));
  (match outcome.deadlock with
  | None -> ()
  | Some d -> Alcotest.failf "unexpected deadlock: %s" (Fmt.str "%a" Engine.pp_deadlock d));
  Option.get !result

let make_registrar ?(sharding = Registrar.Unsharded) () =
  let alloc = Raceguard_cxxsim.Allocator.create Raceguard_cxxsim.Allocator.Direct in
  let stats = Sip.Stats.create () in
  Registrar.create ~sharding ~alloc ~stats ()

let reg r ~aor ~contact =
  ignore (Registrar.register r ~aor ~contact ~cseq:1 ~expires:600)

let lookup_str r ~aor =
  match Registrar.lookup r ~aor with
  | None -> None
  | Some c ->
      let s = Raceguard_cxxsim.Refstring.to_string c in
      Raceguard_cxxsim.Refstring.release c;
      Some s

(* --- the collision pair --------------------------------------------- *)

let test_collision_pair_collides () =
  let u1, u2 = Registrar.collision_pair () in
  Alcotest.(check bool) "distinct users" true (u1 <> u2);
  Alcotest.(check int) "AORs collide under hash_string"
    (Registrar.hash_string (u1 ^ "@example.com"))
    (Registrar.hash_string (u2 ^ "@example.com"))

(* The historical bug: the single-mutex registrar keyed its container
   by hash alone, so the second user of a colliding pair silently
   clobbered the first.  The collision-safe interning must keep both. *)
let test_collision_unsharded_safe () =
  let u1, u2 = Registrar.collision_pair () in
  let a1 = u1 ^ "@example.com" and a2 = u2 ^ "@example.com" in
  let c1, c2, size, audit, bound =
    run (fun () ->
        let r = make_registrar () in
        reg r ~aor:a1 ~contact:"sip:first";
        reg r ~aor:a2 ~contact:"sip:second";
        (lookup_str r ~aor:a1, lookup_str r ~aor:a2, Registrar.size r, Registrar.audit r,
         Registrar.bound_aors r))
  in
  Alcotest.(check (option string)) "first binding intact" (Some "sip:first") c1;
  Alcotest.(check (option string)) "second binding intact" (Some "sip:second") c2;
  Alcotest.(check int) "both bindings held" 2 size;
  Alcotest.(check (list string)) "audit clean" [] audit;
  Alcotest.(check (list string)) "both AORs bound" (List.sort compare [ a1; a2 ]) bound

let test_collision_resilient_sharded () =
  let u1, u2 = Registrar.collision_pair () in
  let a1 = u1 ^ "@example.com" and a2 = u2 ^ "@example.com" in
  let c1, c2, audit =
    run (fun () ->
        let r =
          make_registrar
            ~sharding:
              (Registrar.Sharded
                 { flavor = Registrar.Resilient; initial = 2; grow_at = 0; max_shards = 8 })
            ()
        in
        reg r ~aor:a1 ~contact:"sip:first";
        reg r ~aor:a2 ~contact:"sip:second";
        ignore (Registrar.rebalance r);
        (lookup_str r ~aor:a1, lookup_str r ~aor:a2, Registrar.audit r))
  in
  Alcotest.(check (option string)) "first survives" (Some "sip:first") c1;
  Alcotest.(check (option string)) "second survives" (Some "sip:second") c2;
  Alcotest.(check (list string)) "audit clean" [] audit

let test_collision_legacy_blind () =
  let u1, u2 = Registrar.collision_pair () in
  let a1 = u1 ^ "@example.com" and a2 = u2 ^ "@example.com" in
  let size, audit, bound =
    run (fun () ->
        let r =
          make_registrar
            ~sharding:
              (Registrar.Sharded
                 { flavor = Registrar.Legacy_striped; initial = 2; grow_at = 0; max_shards = 8 })
            ()
        in
        reg r ~aor:a1 ~contact:"sip:first";
        reg r ~aor:a2 ~contact:"sip:second";
        (Registrar.size r, Registrar.audit r, Registrar.bound_aors r))
  in
  Alcotest.(check int) "second clobbered the first" 1 size;
  Alcotest.(check bool) "audit flags the lost binding" true
    (List.mem ("lost:" ^ a1) audit);
  Alcotest.(check bool) "first AOR no longer bound" false (List.mem a1 bound)

(* --- qcheck: router and rebalance ----------------------------------- *)

let gen_users =
  QCheck2.Gen.(
    let user =
      let* n = 3 -- 8 in
      string_size (return n) ~gen:(char_range 'a' 'z')
    in
    let* n = 1 -- 12 in
    let* us = list_size (return n) user in
    (* distinct users; a few runs also carry the colliding pair *)
    let* with_collision = bool in
    let us = List.sort_uniq compare us in
    let us =
      if with_collision then
        let u1, u2 = Registrar.collision_pair () in
        u1 :: u2 :: us
      else us
    in
    let* seed = 1 -- 1000 in
    return (us, seed))

let print_users (us, seed) = Printf.sprintf "seed=%d users=%s" seed (String.concat "," us)

(* Same AOR ⇒ same shard at a fixed shard count, and every route is in
   range; after a rebalance the routes are consistent with the doubled
   count. *)
let qc_router_stable =
  QCheck2.Test.make ~name:"router: stable per AOR, in range, rebalance-consistent" ~count:25
    ~print:print_users gen_users (fun (users, seed) ->
      run ~seed (fun () ->
          let r =
            make_registrar
              ~sharding:
                (Registrar.Sharded
                   { flavor = Registrar.Resilient; initial = 2; grow_at = 0; max_shards = 16 })
              ()
          in
          List.iter (fun u -> reg r ~aor:(u ^ "@x") ~contact:("sip:" ^ u)) users;
          let routes_ok count =
            List.for_all
              (fun u ->
                let s = Registrar.route r ~aor:(u ^ "@x") in
                s = Registrar.route r ~aor:(u ^ "@x") && s >= 0 && s < count)
              users
          in
          let before = routes_ok (Registrar.shard_count r) in
          let grew = Registrar.rebalance r in
          before && grew && Registrar.shard_count r = 4 && routes_ok 4))

(* After any number of doublings, shard-union ≡ the unsharded model:
   the audit is clean, the bound set is exactly the registered set, and
   every migrated binding keeps its contact (field preservation). *)
let qc_rebalance_union =
  QCheck2.Test.make ~name:"rebalance: shard-union = model, bindings preserved" ~count:25
    ~print:print_users gen_users (fun (users, seed) ->
      run ~seed (fun () ->
          let r =
            make_registrar
              ~sharding:
                (Registrar.Sharded
                   { flavor = Registrar.Resilient; initial = 2; grow_at = 0; max_shards = 16 })
              ()
          in
          let aors = List.map (fun u -> (u ^ "@x", "sip:" ^ u)) users in
          List.iter (fun (a, c) -> reg r ~aor:a ~contact:c) aors;
          ignore (Registrar.rebalance r);
          ignore (Registrar.rebalance r);
          Registrar.audit r = []
          && Registrar.bound_aors r = List.sort compare (List.map fst aors)
          && Registrar.size r = List.length aors
          && List.for_all (fun (a, c) -> lookup_str r ~aor:a = Some c) aors))

(* --- timer wheel under injected delay faults ------------------------ *)

(* The timer_cancel_race shape, under a lock/datagram-delay fault plan:
   whatever the injected delays do to the interleaving, the firing
   sequence is a pure function of the seed. *)
let shard_plan name = Option.get (Faults.Plan.lookup name)

let timer_under_delay seed =
  let inj = Faults.Injector.create ~seed ~plan:(shard_plan "shard-quake") in
  run ~seed ~faults:inj (fun () ->
      let fired = ref [] in
      let alloc = Raceguard_cxxsim.Allocator.create Raceguard_cxxsim.Allocator.Direct in
      let wheel =
        Sip.Timer_wheel.create ~alloc
          ~resend:(fun ~txn_key ~attempt:_ ->
            fired := txn_key :: !fired;
            false)
          ~housekeeping:(fun () -> ())
          ()
      in
      Sip.Timer_wheel.start wheel;
      Sip.Timer_wheel.schedule_retransmit wheel ~txn_key:1 ~delay:5;
      Sip.Timer_wheel.schedule_retransmit wheel ~txn_key:2 ~delay:9;
      Sip.Timer_wheel.schedule_retransmit wheel ~txn_key:3 ~delay:13;
      let canceller =
        Api.spawn ~loc ~name:"canceller" (fun () ->
            Api.sleep (1 + (seed mod 7));
            ignore (Sip.Timer_wheel.cancel wheel ~txn_key:2))
      in
      Api.join ~loc canceller;
      Api.sleep 60;
      Sip.Timer_wheel.stop wheel;
      Sip.Timer_wheel.join wheel;
      (List.rev !fired, Sip.Timer_wheel.fired wheel, Sip.Timer_wheel.cancelled wheel))

let test_timer_delay_deterministic () =
  List.iter
    (fun seed ->
      let a = timer_under_delay seed and b = timer_under_delay seed in
      let fired, wheel_fired, _ = a in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: expiry sequence reproducible" seed)
        true (a = b);
      Alcotest.(check int) "callback count matches the wheel's" (List.length fired) wheel_fired)
    [ 1; 2; 5; 11; 23 ]

(* A cancelled refresh timer must never fire into a shard its binding
   has since migrated out of: cancel, then rebalance — the binding
   keeps its pre-migration contact and the audit stays clean. *)
let cancelled_timer_never_fires seed =
  let inj = Faults.Injector.create ~seed ~plan:(shard_plan "shard-delay") in
  run ~seed ~faults:inj (fun () ->
      let alloc = Raceguard_cxxsim.Allocator.create Raceguard_cxxsim.Allocator.Direct in
      let stats = Sip.Stats.create () in
      let r =
        Registrar.create
          ~sharding:
            (Registrar.Sharded
               { flavor = Registrar.Resilient; initial = 2; grow_at = 0; max_shards = 8 })
          ~alloc ~stats ()
      in
      reg r ~aor:"vic@x" ~contact:"sip:original";
      let wheel =
        Sip.Timer_wheel.create ~alloc
          ~resend:(fun ~txn_key:_ ~attempt:_ ->
            (* the stale refresh the cancel must suppress *)
            ignore
              (Registrar.register r ~aor:"vic@x" ~contact:"sip:stale" ~cseq:9 ~expires:600);
            false)
          ~housekeeping:(fun () -> ())
          ()
      in
      Sip.Timer_wheel.start wheel;
      Sip.Timer_wheel.schedule_retransmit wheel ~txn_key:7 ~delay:25;
      let cancelled = Sip.Timer_wheel.cancel wheel ~txn_key:7 >= 1 in
      ignore (Registrar.rebalance r);
      Api.sleep 80;
      Sip.Timer_wheel.stop wheel;
      Sip.Timer_wheel.join wheel;
      (cancelled, lookup_str r ~aor:"vic@x", Registrar.audit r))

let test_cancelled_timer_migrated_shard () =
  List.iter
    (fun seed ->
      let cancelled, contact, audit = cancelled_timer_never_fires seed in
      Alcotest.(check bool) "cancel landed before the deadline" true cancelled;
      Alcotest.(check (option string))
        (Printf.sprintf "seed %d: migrated binding untouched by the cancelled timer" seed)
        (Some "sip:original") contact;
      Alcotest.(check (list string)) "audit clean after migration" [] audit)
    [ 2; 7; 19 ]

(* --- scenario DSL round-trip (qcheck) ------------------------------- *)

let gen_step =
  QCheck2.Gen.(
    let name = string_size (2 -- 6) ~gen:(char_range 'a' 'z') in
    let leaf =
      oneof
        [
          (let* user = name in
           let* expires = 1 -- 100_000 in
           return (Scenario.Register { user; domain = "example.com"; expires }));
          (let* user = name in
           return (Scenario.Unregister { user; domain = "example.com" }));
          return (Scenario.Options { domain = "example.com" });
          (let* caller = name in
           let* callee = name in
           let* talk = 1 -- 20 in
           return (Scenario.Call { caller; callee; domain = "example.com"; talk }));
          (let* t = 1 -- 50 in
           return (Scenario.Sleep t));
        ]
    in
    let* count = 1 -- 4 in
    let* body = list_size (1 -- 3) leaf in
    oneof [ leaf; return (Scenario.Repeat { count; body }) ])

let gen_scenario =
  QCheck2.Gen.(
    let name = string_size (2 -- 6) ~gen:(char_range 'a' 'z') in
    let* sc_name = name in
    let* agents = list_size (1 -- 3) (pair name (list_size (1 -- 4) gen_step)) in
    let* sharded = bool in
    let* initial = 1 -- 4 in
    let* grow_at = 0 -- 5 in
    return
      {
        Scenario.sc_name;
        sc_description = "generated";
        sc_sharding =
          (if sharded then
             Some { Scenario.sp_initial = initial; sp_grow_at = grow_at; sp_max_shards = 16 }
           else None);
        sc_agents =
          List.map (fun (n, steps) -> { Scenario.ag_name = n; ag_steps = steps }) agents;
      })

let qc_scenario_roundtrip =
  QCheck2.Test.make ~name:"scenario DSL: to_json |> of_json is the identity" ~count:200
    gen_scenario (fun sc ->
      match Scenario.of_string (Raceguard_obs.Json.to_string (Scenario.to_json sc)) with
      | Ok sc' -> sc' = sc
      | Error _ -> false)

let test_shipped_scenarios_roundtrip () =
  List.iter
    (fun sc ->
      match Scenario.of_string (Raceguard_obs.Json.to_string ~indent:2 (Scenario.to_json sc)) with
      | Ok sc' ->
          Alcotest.(check bool) (sc.Scenario.sc_name ^ " round-trips") true (sc' = sc)
      | Error e -> Alcotest.failf "%s: %s" sc.Scenario.sc_name e)
    Raceguard.Scenarios.sip_scenarios

(* A scenario document is read from disk, so any bytes must give [Ok] or
   [Error], never an exception: 1–3 byte edits (replace, insert, delete,
   truncate) of the exported T9/T10 documents, biased towards JSON
   punctuation. *)
let exported_documents =
  lazy
    (List.map
       (fun sc -> Raceguard_obs.Json.to_string ~indent:2 (Scenario.to_json sc))
       Raceguard.Scenarios.sip_scenarios)

let gen_mutated_document =
  QCheck2.Gen.(
    let* doc = oneofl (Lazy.force exported_documents) in
    let* edits = 1 -- 3 in
    let rec go s k =
      if k = 0 || s = "" then return s
      else
        let* i = int_bound (String.length s - 1) in
        let* ch =
          oneof [ char; oneofl [ '"'; ':'; ','; '{'; '}'; '['; ']'; '-'; '.'; 'e'; '0'; '\\' ] ]
        in
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
    go doc edits)

let qc_scenario_fails_closed =
  QCheck2.Test.make ~name:"scenario DSL: mutated T9/T10 documents give Ok or Error" ~count:1000
    ~print:String.escaped gen_mutated_document (fun doc ->
      match Scenario.of_string doc with Ok _ | Error _ -> true)

(* Numbers read from disk fail closed: each must be integral and in its
   field's range, and an agent's repeats may not multiply past the step
   bound.  Each refused document is pinned beside an accepted neighbour,
   so the check cannot pass by refusing everything. *)
let scenario_document ?(sharding = "null") steps =
  Printf.sprintf
    {|{"schema": "raceguard-scenario/1", "name": "X", "description": "d", "sharding": %s,
       "agents": [{"name": "a", "steps": [%s]}]}|}
    sharding steps

let test_scenario_numbers_fail_closed () =
  let options = {|{"op": "options", "domain": "example.com"}|} in
  let repeat count body = Printf.sprintf {|{"op": "repeat", "count": %s, "steps": [%s]}|} count body in
  let sleep ticks = Printf.sprintf {|{"op": "sleep", "ticks": %s}|} ticks in
  let sharding initial = Printf.sprintf {|{"initial": %s, "grow_at": 4, "max_shards": 8}|} initial in
  let accepted what doc =
    match Scenario.of_string doc with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s refused: %s" what e
  in
  let refused what ~names doc =
    match Scenario.of_string doc with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error e ->
        let mentions sub =
          let n = String.length sub in
          let rec at i = i + n <= String.length e && (String.sub e i n = sub || at (i + 1)) in
          at 0
        in
        List.iter
          (fun sub -> if not (mentions sub) then Alcotest.failf "%s: %S does not name %s" what e sub)
          names
  in
  accepted "count 1000" (scenario_document (repeat "1000" options));
  refused "count 1e18" ~names:[ {|"count"|}; "1e+18" ] (scenario_document (repeat "1e18" options));
  refused "count -3" ~names:[ {|"count"|}; "-3" ] (scenario_document (repeat "-3" options));
  accepted "ticks 2" (scenario_document (sleep "2"));
  refused "ticks 2.7" ~names:[ {|"ticks"|}; "2.7" ] (scenario_document (sleep "2.7"));
  accepted "100,000 steps" (scenario_document (repeat "100" (repeat "1000" options)));
  refused "a nested-repeat bomb" ~names:[ {|agent "a"|} ]
    (scenario_document (repeat "1000" (repeat "1000" (repeat "1000" options))));
  accepted "initial 2" (scenario_document ~sharding:(sharding "2") options);
  refused "initial 1e9" ~names:[ {|"initial"|}; "1e+09" ] (scenario_document ~sharding:(sharding "1e9") options);
  refused "initial 0" ~names:[ {|"initial"|} ] (scenario_document ~sharding:(sharding "0") options);
  refused "max_shards below initial" ~names:[ {|"max_shards"|} ]
    (scenario_document ~sharding:{|{"initial": 4, "max_shards": 2}|} options)

(* --- T9/T10 chaos cells --------------------------------------------- *)

let scenario_config ?(fast_path = true) ?(domains = 1) () =
  {
    Raceguard.Chaos.default with
    plans = [];
    tests = [];
    shard_plans = List.filter_map Faults.Plan.lookup [ "shard-storm" ];
    fast_path;
    domains;
  }

let test_scenario_chaos_asymmetry () =
  let r = Raceguard.Chaos.run (scenario_config ()) in
  Alcotest.(check int) "four cells" 4 (List.length r.rp_cells);
  List.iter
    (fun (c : Raceguard.Chaos.cell) ->
      Alcotest.(check bool) (c.cl_test ^ " marked sharded") true c.cl_sharded;
      if c.cl_resilient then begin
        Alcotest.(check (list string)) (c.cl_test ^ " resilient clean") [] c.cl_violations;
        Alcotest.(check (list string)) (c.cl_test ^ " audit clean") [] c.cl_shard_audit;
        Alcotest.(check bool) (c.cl_test ^ " actually resized under load") true
          (c.cl_resizes >= 1 && c.cl_migrations >= 1)
      end
      else begin
        Alcotest.(check bool) (c.cl_test ^ " legacy violates") true (c.cl_violations <> []);
        let u1, _ = Registrar.collision_pair () in
        Alcotest.(check bool) (c.cl_test ^ " collision loss flagged") true
          (List.mem ("lost:" ^ u1 ^ "@example.com") c.cl_shard_audit)
      end)
    r.rp_cells

let test_scenario_chaos_domain_invariance () =
  let r1 = Raceguard.Chaos.run (scenario_config ~domains:1 ()) in
  let r2 = Raceguard.Chaos.run (scenario_config ~domains:2 ()) in
  Alcotest.(check string) "matrix digest invariant under domains"
    (Raceguard.Chaos.matrix_digest r1)
    (Raceguard.Chaos.matrix_digest r2);
  List.iter2
    (fun (a : Raceguard.Chaos.cell) (b : Raceguard.Chaos.cell) ->
      Alcotest.(check string) "sig digest" a.cl_sig_digest b.cl_sig_digest;
      Alcotest.(check string) "behaviour digest" a.cl_behavior_digest b.cl_behavior_digest)
    r1.rp_cells r2.rp_cells

let test_scenario_chaos_fast_path_invariance () =
  let r_fast = Raceguard.Chaos.run (scenario_config ~fast_path:true ()) in
  let r_slow = Raceguard.Chaos.run (scenario_config ~fast_path:false ()) in
  Alcotest.(check string) "matrix digest invariant under fast path"
    (Raceguard.Chaos.matrix_digest r_fast)
    (Raceguard.Chaos.matrix_digest r_slow)

let suite =
  ( "shards",
    [
      Alcotest.test_case "collision pair actually collides" `Quick test_collision_pair_collides;
      Alcotest.test_case "collision: interned registrar keeps both bindings" `Quick
        test_collision_unsharded_safe;
      Alcotest.test_case "collision: resilient shards keep both across rebalance" `Quick
        test_collision_resilient_sharded;
      Alcotest.test_case "collision: legacy-striped silently loses one" `Quick
        test_collision_legacy_blind;
      QCheck_alcotest.to_alcotest qc_router_stable;
      QCheck_alcotest.to_alcotest qc_rebalance_union;
      Alcotest.test_case "timer wheel: expiry deterministic under delay faults" `Quick
        test_timer_delay_deterministic;
      Alcotest.test_case "timer wheel: cancelled timer never fires into migrated shard" `Quick
        test_cancelled_timer_migrated_shard;
      QCheck_alcotest.to_alcotest qc_scenario_roundtrip;
      Alcotest.test_case "shipped scenarios round-trip through JSON" `Quick
        test_shipped_scenarios_roundtrip;
      QCheck_alcotest.to_alcotest qc_scenario_fails_closed;
      Alcotest.test_case "scenario DSL: numbers out of range are refused" `Quick
        test_scenario_numbers_fail_closed;
      Alcotest.test_case "chaos T9/T10: resilient clean, legacy violates" `Slow
        test_scenario_chaos_asymmetry;
      Alcotest.test_case "chaos T9/T10: digests invariant under domains" `Slow
        test_scenario_chaos_domain_invariance;
      Alcotest.test_case "chaos T9/T10: digests invariant under fast path" `Slow
        test_scenario_chaos_fast_path_invariance;
    ] )
