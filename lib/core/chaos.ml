(** The chaos matrix: fault plans × test cases × resilience on/off.

    Each cell is one full deterministic VM run: a fresh {!Faults.Injector}
    (derived from the matrix seed and the plan) is wired into the
    transport, the allocator and the engine; the chaos drivers
    ({!Raceguard_sip.Workload.chaos_test_cases}) run their scripts with
    UAC-side retransmission; afterwards the post-run invariant oracles
    judge the cell:

    - {b registrations}: every REGISTER the server acknowledged with a
      200 is still bound at shutdown (and every acknowledged
      unREGISTER stays unbound) — checked strictly unless the plan can
      make whole requests vanish ({!Faults.Plan.has_drops});
    - {b answered}: every driver transaction reached a correct final
      response or was deliberately shed with 503;
    - {b shutdown}: the run ended cleanly — no deadlock, no dead
      threads, listener and services joined.

    The acceptance shape of the whole matrix: with resilience ON no
    cell violates any oracle; with resilience OFF at least one cell
    does (that asymmetry is what the resilience layer buys).  Each
    cell also carries the MD5 digest of its detector-report signatures
    and of its behavioural evidence, so (seed, plan) ⇒ byte-identical
    digests is pinned by test and CI.

    A cell's counts (faults injected, sheds, cache hits, resends, shard
    resizes and migrations) come from one place: its run's delta of the
    metrics registry ([Runner.result.metrics]), taken on the cell's own
    domain.  Neither the injector nor the server keeps a count of its
    own. *)

module Vm = Raceguard_vm
module Det = Raceguard_detector
module Sip = Raceguard_sip
module Obs = Raceguard_obs
module Faults = Raceguard_faults
module Json = Obs.Json

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  seed : int;
  plans : Faults.Plan.t list;
  tests : Sip.Workload.test_case list;
  shard_plans : Faults.Plan.t list;
      (** shard-targeted plans — crossed with [scenario_tests] only,
          never with [tests], so the T1–T8 grid is untouched *)
  scenario_tests : Sip.Workload.test_case list;
      (** compiled [raceguard-scenario/1] storm scenarios (T9/T10);
          their cells run against a sharded registrar ([Resilient] when
          the cell is resilient, [Legacy_striped] otherwise) and are
          additionally judged by the {b shards} invariant oracle *)
  fast_path : bool;  (** detector fast path — must not change any digest *)
  max_ops : int;
  domains : int;
      (** worker domains for the cell grid; 1 = sequential, 0 = pick
          from [Domain.recommended_domain_count] — must not change any
          digest either (pinned by test and the CI par-smoke step) *)
  record_dir : string option;
      (** when set, every cell also records a [raceguard-trace/2]
          binary trace into [<dir>/<plan>-<test>-<res|base>.rgt]; the
          recorder is a pure observer, so digests are unchanged *)
}

let chaos_opts = Sip.Workload.default_chaos_opts

(** Storm-scenario drivers get a longer retry budget: under the
    shard plans the pooled server is deliberately slowed, and a driver
    that gives up while the server is merely saturated (not broken)
    would turn honest backpressure into a spurious "unanswered"
    violation. *)
let scenario_chaos_opts = { Sip.Workload.co_max_attempts = 14; co_attempt_timeout = 150 }

let scenario_tests_of scenarios =
  List.map (Sip.Workload.Scenario.to_test_case scenario_chaos_opts) scenarios

let default =
  {
    seed = 7;
    plans = Faults.Plan.shipped;
    tests = Sip.Workload.chaos_test_cases chaos_opts;
    shard_plans = Faults.Plan.shard_shipped;
    scenario_tests = scenario_tests_of Scenarios.sip_scenarios;
    fast_path = true;
    max_ops = 4_000_000;
    domains = 1;
    record_dir = None;
  }

(** The CI smoke subset: three representative plans (datagram loss,
    duplication, allocation failure) on two request mixes, plus the
    storm-duplication shard plan on both scenarios. *)
let quick =
  {
    default with
    plans =
      List.filter_map Faults.Plan.lookup [ "drop"; "dup"; "oom" ];
    tests =
      List.filter
        (fun (tc : Sip.Workload.test_case) -> tc.tc_name = "T2" || tc.tc_name = "T6")
        (Sip.Workload.chaos_test_cases chaos_opts);
    shard_plans = List.filter_map Faults.Plan.lookup [ "shard-storm" ];
  }

(** Plans that stress scheduling/allocation run against the thread-pool
    server (a queue for overload shedding to watch); pure datagram
    plans keep the thread-per-request shape.  The storm scenario T9
    always runs pooled (shedding is part of its script); the rebalance
    scenario T10 always runs thread-per-request (maximum registrar
    concurrency during migration). *)
let pattern_for (plan : Faults.Plan.t) (tc : Sip.Workload.test_case) =
  match tc.tc_name with
  | "T9" -> Sip.Proxy.Pool 2
  | "T10" -> Sip.Proxy.Per_request
  | _ -> (
      match plan.p_name with
      | "oom" | "slow-threads" | "mayhem" -> Sip.Proxy.Pool 2
      | _ -> Sip.Proxy.Per_request)

(* ------------------------------------------------------------------ *)
(* One cell                                                            *)
(* ------------------------------------------------------------------ *)

type oracle = { o_name : string; o_ok : bool; o_detail : string }

type cell = {
  cl_plan : string;
  cl_test : string;
  cl_resilient : bool;
  cl_oracles : oracle list;
  cl_violations : string list;  (** failed oracles, rendered *)
  cl_locations : int;  (** deduplicated detector locations *)
  cl_sig_digest : string;  (** MD5 over the sorted report signatures *)
  cl_behavior_digest : string;  (** MD5 over the behavioural evidence *)
  cl_unanswered : int;
  cl_wrong_finals : int;
  cl_shed_seen : int;
  cl_sheds : int;
  cl_cache_hits : int;
  cl_retransmits : int;
  cl_injected : (string * int) list;
      (** (report key, count) per fault kind, in [injected_kinds] order *)
  cl_thread_failures : int;
  cl_stop : Vm.Engine.stop;  (** why the cell's run stopped *)
  cl_ops : int;  (** VM operations the run executed *)
  cl_sharded : bool;  (** scenario cell against a sharded registrar *)
  cl_shard_count : int;  (** final shard count (1 when unsharded) *)
  cl_resizes : int;
  cl_migrations : int;
  cl_shard_audit : string list;  (** {!Sip.Registrar.audit} violations *)
}

(** The fault kinds as the report names them, each with the registry
    counter that counts it, in report order. *)
let injected_kinds =
  [
    ("dropped", "faults.injected.datagram_drop");
    ("duplicated", "faults.injected.datagram_duplicate");
    ("delayed", "faults.injected.datagram_delay");
    ("corrupted", "faults.injected.datagram_corrupt");
    ("alloc_failures", "faults.injected.alloc_failure");
    ("spawn_delays", "faults.injected.spawn_delay");
    ("lock_delays", "faults.injected.lock_delay");
  ]

let injected_total injected = List.fold_left (fun acc (_, n) -> acc + n) 0 injected

(** Final binding expectation per AOR: the last acknowledged
    REGISTER/unREGISTER wins. *)
let final_expectations acked =
  List.fold_left
    (fun acc (aor, bound) -> (aor, bound) :: List.remove_assoc aor acc)
    [] acked
  |> List.sort compare

let run_oracles ~(plan : Faults.Plan.t) ~sharded ~(cr : Sip.Workload.chaos_run_result)
    ~(outcome : Vm.Engine.outcome) ~sheds ~resizes ~migrations =
  let expectations = final_expectations cr.cr_acked_regs in
  let lost =
    List.filter_map
      (fun (aor, bound) ->
        let is_bound = List.mem aor cr.cr_bound in
        if bound && not is_bound then Some (aor ^ " lost")
        else if (not bound) && is_bound then Some (aor ^ " ghost-bound")
        else None)
      expectations
  in
  let o_reg =
    if Faults.Plan.has_drops plan && lost <> [] then
      (* request-vanishing faults relax the strict form; report but pass *)
      { o_name = "registrations"; o_ok = true;
        o_detail = "relaxed (drop-class plan): " ^ String.concat ", " lost }
    else
      { o_name = "registrations";
        o_ok = lost = [];
        o_detail = (if lost = [] then "all acknowledged bindings consistent"
                    else String.concat ", " lost) }
  in
  let wrong = List.length cr.cr_base.r_failures in
  let o_answered =
    let sample =
      match cr.cr_base.r_failures with
      | [] -> ""
      | fs ->
          " ["
          ^ String.concat "; " (List.filteri (fun i _ -> i < 3) fs)
          ^ (if wrong > 3 then "; ..." else "")
          ^ "]"
    in
    { o_name = "answered";
      o_ok = cr.cr_unanswered = 0 && wrong = 0;
      o_detail =
        Printf.sprintf "%d unanswered, %d wrong finals, %d shed%s" cr.cr_unanswered wrong
          (sheds + cr.cr_shed_seen) sample }
  in
  let dead = outcome.Vm.Engine.deadlock <> None in
  let crashed = List.length outcome.Vm.Engine.failures in
  let o_shutdown =
    { o_name = "clean-shutdown";
      o_ok = (not dead) && crashed = 0;
      o_detail =
        (if dead then "deadlock / ops budget exhausted"
         else if crashed > 0 then
           Printf.sprintf "%d dead threads (%s)" crashed
             (String.concat ", "
                (List.map (fun (_, name, _) -> name) outcome.Vm.Engine.failures))
         else "clean") }
  in
  let base = [ o_reg; o_answered; o_shutdown ] in
  if not sharded then base
  else
    (* scenario cells only: the sharded-registrar invariant audit
       (lost / ghost / dup / stale-contact / misplaced bindings and
       cross-shard lock-order inversions, from the host-side mirrors) *)
    base
    @ [
        { o_name = "shards";
          o_ok = cr.cr_shard_audit = [];
          o_detail =
            (if cr.cr_shard_audit = [] then
               Printf.sprintf "clean: %d shard(s), %d resize(s), %d migration(s)"
                 cr.cr_shard_count resizes migrations
             else String.concat ", " cr.cr_shard_audit) };
      ]

let run_cell config ~(plan : Faults.Plan.t) ~resilient (tc : Sip.Workload.test_case) =
  (* Mix the cell coordinates into the injector seed: cells of the same
     plan must not share one roll stream, or an unlucky prefix starves
     every cell of a category at once.  Still a pure function of
     (config.seed, plan, test, resilient) — the determinism contract. *)
  let cell_seed =
    config.seed
    lxor (Faults.Injector.hash_name tc.tc_name * 31)
    lxor if resilient then 0x5EED else 0
  in
  let inj = Faults.Injector.create ~seed:cell_seed ~plan in
  let transport = Sip.Transport.create ~faults:inj () in
  let sharding =
    (* scenario cells (T9/T10) run against the sharded registrar:
       Resilient with the resilience toggle on, Legacy_striped off *)
    match Scenarios.sip_lookup tc.tc_name with
    | Some sc -> Sip.Workload.Scenario.sharding ~resilient sc
    | None -> Sip.Registrar.Unsharded
  in
  let sharded = sharding <> Sip.Registrar.Unsharded in
  let server =
    {
      Sip.Proxy.default_config with
      pattern = pattern_for plan tc;
      resilient;
      registrar_sharding = sharding;
    }
  in
  let recorder =
    match config.record_dir with
    | None -> None
    | Some _ ->
        Some
          (Det.Offline.create_recorder
             ~meta:
               [
                 ("workload", tc.tc_name);
                 ("plan", plan.p_name);
                 ("resilient", string_of_bool resilient);
                 ("seed", string_of_int config.seed);
                 ("generator", "raceguard-chaos");
               ]
             ())
  in
  let runner =
    {
      Runner.default with
      seed = config.seed;
      helgrind_configs =
        [ ("HWLC+DR", { Det.Helgrind.hwlc_dr with fast_path = config.fast_path }) ];
      max_ops = config.max_ops;
      faults = Some inj;
      tools = Option.to_list (Option.map Det.Offline.tool recorder);
    }
  in
  let result, value =
    Runner.run_main runner (Sip.Workload.run_chaos_test_case ~transport ~server_config:server tc)
  in
  let cr =
    match value with
    | Some cr -> cr
    | None ->
        (* the main thread itself died (legacy server under OOM faults):
           synthesise empty evidence; the shutdown oracle flags the cell,
           and its counts still come from the run's metric delta *)
        {
          Sip.Workload.cr_base = { r_failures = [ "main thread did not complete" ]; r_responses = 0 };
          cr_acked_regs = [];
          cr_shed_seen = 0;
          cr_unanswered = 0;
          cr_bound = [];
          cr_shard_audit = [];
          cr_shard_count = 1;
        }
  in
  (match (config.record_dir, recorder) with
  | Some dir, Some r ->
      let file =
        Printf.sprintf "%s-%s-%s.rgt" plan.p_name
          (String.lowercase_ascii tc.tc_name)
          (if resilient then "res" else "base")
      in
      Det.Offline.to_file r (Filename.concat dir file)
  | _ -> ());
  (* every instrument is registered at module initialisation, so each
     name is in the delta; an unknown one is a typo, not a zero *)
  let count name =
    match Obs.Metrics.find_counter result.Runner.metrics name with
    | Some n -> n
    | None -> invalid_arg ("Chaos.run_cell: no counter " ^ name)
  in
  let sheds = count "sip.resilience.shed" + count "sip.resilience.deadline_dropped" in
  let cache_hits = count "sip.resilience.retransmit_absorbed" in
  let retransmits = count "sip.resilience.timer_resend" in
  let resizes = count "sip.registrar.shard.resizes" in
  let migrations = count "sip.registrar.shard.migrations" in
  let injected = List.map (fun (key, metric) -> (key, count metric)) injected_kinds in
  let oracles =
    run_oracles ~plan ~sharded ~cr ~outcome:result.Runner.outcome ~sheds ~resizes ~migrations
  in
  let violations =
    List.filter_map (fun o -> if o.o_ok then None else Some (o.o_name ^ ": " ^ o.o_detail)) oracles
  in
  let locations = Runner.locations_of result "HWLC+DR" in
  let behavior =
    [
      "bound=" ^ String.concat "," cr.cr_bound;
      "acked=" ^ String.concat ","
        (List.map (fun (a, b) -> Printf.sprintf "%s:%b" a b) (final_expectations cr.cr_acked_regs));
      Printf.sprintf "unanswered=%d" cr.cr_unanswered;
      Printf.sprintf "wrong=%d" (List.length cr.cr_base.r_failures);
      Printf.sprintf "responses=%d" cr.cr_base.r_responses;
      Printf.sprintf "sheds=%d/%d" sheds cr.cr_shed_seen;
      Printf.sprintf "cache_hits=%d" cache_hits;
      Printf.sprintf "retransmits=%d" retransmits;
      Printf.sprintf "injected=%d" (injected_total injected);
    ]
    @ (if not sharded then []
       else
         (* scenario cells only, so T1–T8 behaviour digests are
            untouched by the sharding feature *)
         [
           Printf.sprintf "shards=%d" cr.cr_shard_count;
           Printf.sprintf "resizes=%d" resizes;
           Printf.sprintf "migrations=%d" migrations;
           "audit=" ^ String.concat "," cr.cr_shard_audit;
         ])
    @ [
        "oracles=" ^ String.concat ";"
          (List.map (fun o -> Printf.sprintf "%s:%b" o.o_name o.o_ok) oracles);
      ]
  in
  {
    cl_plan = plan.p_name;
    cl_test = tc.tc_name;
    cl_resilient = resilient;
    cl_oracles = oracles;
    cl_violations = violations;
    cl_locations = List.length locations;
    cl_sig_digest = Det.Offline.digest_signatures locations;
    cl_behavior_digest = Det.Offline.digest_lines behavior;
    cl_unanswered = cr.cr_unanswered;
    cl_wrong_finals = List.length cr.cr_base.r_failures;
    cl_shed_seen = cr.cr_shed_seen;
    cl_sheds = sheds;
    cl_cache_hits = cache_hits;
    cl_retransmits = retransmits;
    cl_injected = injected;
    cl_thread_failures = List.length result.Runner.outcome.Vm.Engine.failures;
    cl_stop = Vm.Engine.stop_of result.Runner.outcome;
    cl_ops = result.Runner.outcome.Vm.Engine.stats.ops_executed;
    cl_sharded = sharded;
    cl_shard_count = cr.cr_shard_count;
    cl_resizes = resizes;
    cl_migrations = migrations;
    cl_shard_audit = cr.cr_shard_audit;
  }

(* ------------------------------------------------------------------ *)
(* The matrix                                                          *)
(* ------------------------------------------------------------------ *)

type report = {
  rp_seed : int;
  rp_fast_path : bool;
  rp_domains : int;  (** worker domains requested, after {!Raceguard_par.Par.resolve} *)
  rp_cells : cell list;
  rp_resilient_violations : int;  (** cells with resilience ON that violate *)
  rp_baseline_violations : int;  (** cells with resilience OFF that violate *)
}

(** The cell grid, in the order the sequential runner executes it:
    plans outermost, then tests, resilient before baseline — the T1–T8
    grid first, then the shard-plan × scenario grid. *)
let grid config =
  let cross plans tests =
    List.concat_map
      (fun plan ->
        List.concat_map
          (fun (tc : Sip.Workload.test_case) ->
            List.map (fun resilient -> (plan, tc, resilient)) [ true; false ])
          tests)
      plans
  in
  cross config.plans config.tests @ cross config.shard_plans config.scenario_tests
  |> Array.of_list

let run config =
  let domains = Raceguard_par.Par.resolve config.domains in
  let cells =
    Raceguard_par.Par.map_cells ~domains
      (fun (plan, tc, resilient) -> run_cell config ~plan ~resilient tc)
      (grid config)
    |> Array.to_list
  in
  let count p = List.length (List.filter p cells) in
  {
    rp_seed = config.seed;
    rp_fast_path = config.fast_path;
    rp_domains = domains;
    rp_cells = cells;
    rp_resilient_violations = count (fun c -> c.cl_resilient && c.cl_violations <> []);
    rp_baseline_violations = count (fun c -> (not c.cl_resilient) && c.cl_violations <> []);
  }

let passed r = r.rp_resilient_violations = 0 && r.rp_baseline_violations > 0

(** One digest covering the whole matrix (violations + per-cell
    digests): the value the determinism pin compares across runs and
    fast-path modes. *)
let matrix_digest r =
  Det.Offline.digest_lines
    (List.map
       (fun c ->
         Printf.sprintf "%s|%s|%b|%s|%s|%s" c.cl_plan c.cl_test c.cl_resilient c.cl_sig_digest
           c.cl_behavior_digest
           (String.concat ";" c.cl_violations))
       r.rp_cells)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let cell_to_json c =
  Json.Obj
    ([
      ("plan", Json.Str c.cl_plan);
      ("test", Json.Str c.cl_test);
      ("resilient", Json.Bool c.cl_resilient);
      ("locations", Json.int c.cl_locations);
      ("sig_digest", Json.Str c.cl_sig_digest);
      ("behavior_digest", Json.Str c.cl_behavior_digest);
      ( "oracles",
        Json.List
          (List.map
             (fun o ->
               Json.Obj
                 [
                   ("name", Json.Str o.o_name);
                   ("ok", Json.Bool o.o_ok);
                   ("detail", Json.Str o.o_detail);
                 ])
             c.cl_oracles) );
      ("violations", Json.List (List.map (fun v -> Json.Str v) c.cl_violations));
      ("unanswered", Json.int c.cl_unanswered);
      ("wrong_finals", Json.int c.cl_wrong_finals);
      ("shed_server", Json.int c.cl_sheds);
      ("shed_seen", Json.int c.cl_shed_seen);
      ("cache_hits", Json.int c.cl_cache_hits);
      ("retransmits", Json.int c.cl_retransmits);
      ("injected", Json.Obj (List.map (fun (key, n) -> (key, Json.int n)) c.cl_injected));
      ("thread_failures", Json.int c.cl_thread_failures);
      ("deadlocked", Json.Bool (c.cl_stop <> Vm.Engine.Clean));
      ("stop", Json.Str (Vm.Engine.stop_name c.cl_stop));
      ("ops", Json.int c.cl_ops);
    ]
    @
    if not c.cl_sharded then []
    else
      [
        ("shard_count", Json.int c.cl_shard_count);
        ("resizes", Json.int c.cl_resizes);
        ("migrations", Json.int c.cl_migrations);
        ("shard_audit", Json.List (List.map (fun v -> Json.Str v) c.cl_shard_audit));
      ])

let to_json ~config r =
  Json.Obj
    [
      ("schema", Json.Str "raceguard-chaos/1");
      ("seed", Json.int r.rp_seed);
      ("fast_path", Json.Bool r.rp_fast_path);
      ("domains", Json.int r.rp_domains);
      ("plans", Json.List (List.map Faults.Plan.to_json (config.plans @ config.shard_plans)));
      ("cells", Json.List (List.map cell_to_json r.rp_cells));
      ( "summary",
        Json.Obj
          [
            ("cells", Json.int (List.length r.rp_cells));
            ("resilient_violations", Json.int r.rp_resilient_violations);
            ("baseline_violations", Json.int r.rp_baseline_violations);
            ("matrix_digest", Json.Str (matrix_digest r));
            ("passed", Json.Bool (passed r));
          ] );
    ]

let pp ppf r =
  let open Format in
  fprintf ppf "chaos matrix: seed %d, %d cells (fast_path %b, %d domain(s))@," r.rp_seed
    (List.length r.rp_cells) r.rp_fast_path r.rp_domains;
  fprintf ppf "%-12s %-4s %-4s %5s %5s %5s %5s %6s  %s@," "plan" "test" "res" "locs" "unans"
    "wrong" "shed" "inject" "verdict";
  List.iter
    (fun c ->
      fprintf ppf "%-12s %-4s %-4s %5d %5d %5d %5d %6d  %s@," c.cl_plan c.cl_test
        (if c.cl_resilient then "on" else "off")
        c.cl_locations c.cl_unanswered c.cl_wrong_finals (c.cl_sheds + c.cl_shed_seen)
        (injected_total c.cl_injected)
        (if c.cl_violations = [] then "ok" else String.concat "; " c.cl_violations))
    r.rp_cells;
  fprintf ppf "violations: %d resilient, %d baseline — %s@," r.rp_resilient_violations
    r.rp_baseline_violations
    (if passed r then
       "PASS (resilient cells clean, baseline demonstrably breaks)"
     else "FAIL");
  fprintf ppf "matrix digest: %s" (matrix_digest r)
