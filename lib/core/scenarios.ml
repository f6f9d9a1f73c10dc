(** Small self-contained VM programs used by experiments and tests:
    the paper's Figure 8 string test, the §4.3 false-negative schedule,
    the Figure 10/11 handoff patterns, and a classic lock-order
    inversion. *)

module Loc = Raceguard_util.Loc
module Api = Raceguard_vm.Api
module Refstring = Raceguard_cxxsim.Refstring

(** Figure 8: stringtest.cpp.  A [std::string] is created by the main
    thread, copied by a worker and (later) by main again.  The copies
    bump the shared reference counter with bus-locked increments while
    the [_M_is_shared] checks read it plainly — the exact access mix
    the original bus-lock model misinterprets. *)
let stringtest () =
  let lc line = Loc.v "stringtest.cpp" "main" line in
  let text = Refstring.create ~loc:(lc 16) "contents" in
  let worker () =
    Api.with_frame (Loc.v "stringtest.cpp" "workerThread" 8) @@ fun () ->
    (* std::string text = dereference-and-copy of the argument *)
    let local = Refstring.copy text in
    Api.sleep 2;
    Refstring.release local
  in
  let tid = Api.spawn ~loc:(lc 19) ~name:"workerThread" worker in
  Api.sleep 10;
  (* std::string text_copy = text;   <- reported conflict (line 22) *)
  let text_copy = Refstring.copy text in
  Api.join ~loc:(lc 25) tid;
  Refstring.release text_copy;
  Refstring.release text

(** §4.3: the delayed lock-set initialisation false negative.  One
    thread writes a shared word with no lock; another writes it while
    {e coincidentally} holding a lock.  Whether the lock-set algorithm
    reports the race depends on which access the schedule orders first
    — "this is not guaranteed to happen in the development
    environment". *)
let false_negative_schedule () =
  let lc f line = Loc.v "fneg.cpp" f line in
  let v = Api.alloc ~loc:(lc "main" 3) 1 in
  let m = Api.Mutex.create ~loc:(lc "main" 4) "coincidental" in
  let unlocked_writer () =
    Api.with_frame (lc "unlocked_writer" 7) @@ fun () ->
    Api.write ~loc:(lc "unlocked_writer" 8) v 1
  in
  let locked_writer () =
    Api.with_frame (lc "locked_writer" 11) @@ fun () ->
    Api.Mutex.with_lock ~loc:(lc "locked_writer" 12) m (fun () ->
        Api.write ~loc:(lc "locked_writer" 13) v 2)
  in
  let t1 = Api.spawn ~loc:(lc "main" 16) ~name:"unlocked" unlocked_writer in
  let t2 = Api.spawn ~loc:(lc "main" 17) ~name:"locked" locked_writer in
  Api.join ~loc:(lc "main" 18) t1;
  Api.join ~loc:(lc "main" 19) t2

(** Figure 10: thread-per-request handoff.  The producer initialises a
    buffer, {e then} spawns the worker; the worker processes and the
    producer reuses the memory only after joining.  With thread
    segments the whole exchange stays EXCLUSIVE — zero reports. *)
let handoff_per_request () =
  let lc f line = Loc.v "handoff.cpp" f line in
  let data = Api.alloc ~loc:(lc "main" 3) 8 in
  for i = 0 to 7 do
    Api.write ~loc:(lc "main" 5) (data + i) (i * i)
  done;
  let worker () =
    Api.with_frame (lc "worker" 8) @@ fun () ->
    let sum = ref 0 in
    for i = 0 to 7 do
      sum := !sum + Api.read ~loc:(lc "worker" 11) (data + i)
    done;
    Api.write ~loc:(lc "worker" 13) data !sum
  in
  let tid = Api.spawn ~loc:(lc "main" 15) ~name:"worker" worker in
  Api.join ~loc:(lc "main" 16) tid;
  (* safe: the join ordered the worker's writes before this *)
  Api.write ~loc:(lc "main" 18) data 0;
  Api.free ~loc:(lc "main" 19) data

(** Figure 11: the same exchange through a message queue and a
    pre-started worker (a one-thread pool).  The put/get ordering is
    real but invisible to the lock-set algorithm — false positives. *)
let handoff_pool () =
  let lc f line = Loc.v "handoff_pool.cpp" f line in
  let queue = Raceguard_vm.Msg_queue.create ~name:"pool.q" ~capacity:4 () in
  let done_sem = Api.Sem.create ~loc:(lc "main" 4) ~init:0 "done" in
  let worker () =
    Api.with_frame (lc "worker" 6) @@ fun () ->
    let data = Raceguard_vm.Msg_queue.get queue in
    let sum = ref 0 in
    for i = 0 to 7 do
      sum := !sum + Api.read ~loc:(lc "worker" 10) (data + i)
    done;
    (* "process data": writes to producer-initialised memory *)
    Api.write ~loc:(lc "worker" 13) data !sum;
    (* instrumented build: the post/wait handback is annotated too *)
    Api.annotate_happens_before ~tag:data;
    Api.Sem.post ~loc:(lc "worker" 14) done_sem
  in
  (* the worker exists before the data does *)
  let tid = Api.spawn ~loc:(lc "main" 17) ~name:"pool-worker" worker in
  let data = Api.alloc ~loc:(lc "main" 18) 8 in
  for i = 0 to 7 do
    Api.write ~loc:(lc "main" 20) (data + i) (i * i)
  done;
  Raceguard_vm.Msg_queue.put queue data;
  Api.Sem.wait ~loc:(lc "main" 23) done_sem;
  Api.annotate_happens_after ~tag:data;
  Api.write ~loc:(lc "main" 24) data 0;
  Api.free ~loc:(lc "main" 25) data;
  Api.join ~loc:(lc "main" 26) tid

(** Synthetic high-contention microbenchmark: 4 workers hammer 8
    shared words, each word consistently guarded by one of 2 striped
    mutexes, plus a bus-locked reference counter per iteration.
    Disciplined, so every detector stays silent — the shadow state sits
    in its steady state (Shared-Modified with a stable candidate set)
    and the run is one long detector hot path. *)
let high_contention ?(iters = 300) () =
  let threads = 4 and words = 8 and locks = 2 in
  let lc f line = Loc.v "contention.cpp" f line in
  let base = Api.alloc ~loc:(lc "main" 3) words in
  let refc = Api.alloc ~loc:(lc "main" 4) 1 in
  let stripes =
    Array.init locks (fun i -> Api.Mutex.create ~loc:(lc "main" 5) (Printf.sprintf "stripe%d" i))
  in
  for i = 0 to words - 1 do
    Api.write ~loc:(lc "main" 7) (base + i) 0
  done;
  Api.write ~loc:(lc "main" 8) refc 1;
  let worker k () =
    Api.with_frame (lc "hammer" 11) @@ fun () ->
    for i = 0 to iters - 1 do
      let w = (k + i) mod words in
      Api.Mutex.with_lock ~loc:(lc "hammer" 14) stripes.(w mod locks) (fun () ->
          let v = Api.read ~loc:(lc "hammer" 15) (base + w) in
          Api.write ~loc:(lc "hammer" 16) (base + w) (v + 1));
      ignore (Api.atomic_incr ~loc:(lc "hammer" 17) refc);
      ignore (Api.atomic_decr ~loc:(lc "hammer" 18) refc)
    done
  in
  let tids =
    List.init threads (fun k ->
        Api.spawn ~loc:(lc "main" 21) ~name:(Printf.sprintf "hammer%d" k) (worker k))
  in
  List.iter (Api.join ~loc:(lc "main" 22)) tids

(** Read-mostly steady state: initialise 16 words once, then 4 readers
    sweep them without locks — the Shared-RO fast path's best case (and
    the pattern behind the paper's read-shared tables). *)
let read_shared ?(iters = 500) () =
  let threads = 4 and words = 16 in
  let lc f line = Loc.v "readshared.cpp" f line in
  let base = Api.alloc ~loc:(lc "main" 3) words in
  for i = 0 to words - 1 do
    Api.write ~loc:(lc "main" 5) (base + i) (i * 3)
  done;
  let reader k () =
    Api.with_frame (lc "reader" 8) @@ fun () ->
    let acc = ref 0 in
    for i = 0 to iters - 1 do
      acc := !acc + Api.read ~loc:(lc "reader" 11) (base + ((k + i) mod words))
    done;
    ignore !acc
  in
  let tids =
    List.init threads (fun k ->
        Api.spawn ~loc:(lc "main" 14) ~name:(Printf.sprintf "reader%d" k) (reader k))
  in
  List.iter (Api.join ~loc:(lc "main" 15)) tids

(** Read-shared churn: fork-join rounds of concurrent readers followed
    by single-threaded sweeps by main.  Each round promotes every word
    into the read-shared representation (genuinely concurrent readers);
    the post-join sweeps are ordered after all of them, so an adaptive
    epoch detector can demote the words back to a single read epoch
    before the next round re-promotes them.  Race-free — the
    promote/demote cycle is exercised end to end with every detector
    silent. *)
let read_shared_churn ?(threads = 4) ?(rounds = 6) ?(iters = 120) ?(words = 16) () =
  let lc f line = Loc.v "readchurn.cpp" f line in
  let base = Api.alloc ~loc:(lc "main" 3) words in
  for i = 0 to words - 1 do
    Api.write ~loc:(lc "main" 5) (base + i) i
  done;
  for round = 1 to rounds do
    let reader k () =
      Api.with_frame (lc "reader" 8) @@ fun () ->
      let acc = ref 0 in
      for i = 0 to iters - 1 do
        acc := !acc + Api.read ~loc:(lc "reader" 11) (base + ((k + i) mod words))
      done;
      ignore !acc
    in
    let tids =
      List.init threads (fun k ->
          Api.spawn ~loc:(lc "main" 14)
            ~name:(Printf.sprintf "churn%d.%d" round k)
            (reader k))
    in
    List.iter (Api.join ~loc:(lc "main" 15)) tids;
    (* the demotion window: main is ordered after every reader, and the
       repeated sweeps keep each word hot enough for a periodic
       dominance check to land while the window is open — 16 passes
       make the window wider than the default check cadence relative to
       the per-round access count, so demotion is guaranteed, not
       schedule-lucky *)
    for _pass = 1 to 16 do
      for i = 0 to words - 1 do
        ignore (Api.read ~loc:(lc "main" 18) (base + i))
      done
    done
  done

(** Lock-order inversion that does not necessarily deadlock at runtime
    (the predictive detector must still flag it), plus a knob to force
    the actual deadlock. *)
let lock_order_inversion ~force_deadlock () =
  let lc f line = Loc.v "transfer.cpp" f line in
  let accounts = Api.Mutex.create ~loc:(lc "main" 3) "accounts"
  and audit = Api.Mutex.create ~loc:(lc "main" 4) "audit" in
  let transfer () =
    Api.with_frame (lc "transfer" 6) @@ fun () ->
    Api.Mutex.lock ~loc:(lc "transfer" 7) accounts;
    if force_deadlock then Api.sleep 5 else Api.yield ();
    Api.Mutex.lock ~loc:(lc "transfer" 9) audit;
    Api.Mutex.unlock ~loc:(lc "transfer" 10) audit;
    Api.Mutex.unlock ~loc:(lc "transfer" 11) accounts
  in
  let reconcile () =
    Api.with_frame (lc "reconcile" 14) @@ fun () ->
    Api.Mutex.lock ~loc:(lc "reconcile" 15) audit;
    if force_deadlock then Api.sleep 5 else Api.yield ();
    Api.Mutex.lock ~loc:(lc "reconcile" 17) accounts;
    Api.Mutex.unlock ~loc:(lc "reconcile" 18) accounts;
    Api.Mutex.unlock ~loc:(lc "reconcile" 19) audit
  in
  let t1 = Api.spawn ~loc:(lc "main" 21) ~name:"transfer" transfer in
  if not force_deadlock then Api.join ~loc:(lc "main" 22) t1;
  let t2 = Api.spawn ~loc:(lc "main" 23) ~name:"reconcile" reconcile in
  if force_deadlock then Api.join ~loc:(lc "main" 24) t1;
  Api.join ~loc:(lc "main" 25) t2

(* ------------------------------------------------------------------ *)
(* Shipped SIP storm scenarios (raceguard-scenario/1)                  *)
(* ------------------------------------------------------------------ *)

module Scenario = Raceguard_sip.Workload.Scenario

(** T9: registration storm against the sharded registrar — five agents
    hammer REGISTER fast enough that the pool server sheds (503 +
    Retry-After, honoured by the drivers' backoff), the load factor
    crosses [grow_at] mid-storm, and the collision AOR pair lands in
    one bucket.  Resilient flavor: every invariant oracle stays clean.
    Legacy-striped flavor: collision blindness loses a binding and the
    storm drives the injected shard races. *)
let t9_storm =
  let open Scenario in
  {
    sc_name = "T9";
    sc_description = "registration storm with shedding/backoff (sharded registrar)";
    sc_sharding = Some { sp_initial = 2; sp_grow_at = 4; sp_max_shards = 8 };
    sc_agents =
      [
        {
          ag_name = "storm1";
          ag_steps =
            [ Repeat { count = 4; body = [ Register { user = "s1u%i"; domain = "example.com"; expires = 100_000 } ] } ];
        };
        {
          ag_name = "storm2";
          ag_steps =
            [ Repeat { count = 4; body = [ Register { user = "s2u%i"; domain = "example.com"; expires = 100_000 } ] } ];
        };
        {
          ag_name = "storm3";
          ag_steps =
            [
              Repeat
                { count = 3; body = [ Register { user = "s3u%i"; domain = "voip.example.net"; expires = 100_000 } ] };
              Options { domain = "example.com" };
            ];
        };
        {
          ag_name = "coll";
          ag_steps =
            [
              (* the hash-colliding pair: a legacy-striped registrar
                 silently drops the first binding *)
              Register { user = "cxryap02u"; domain = "example.com"; expires = 100_000 };
              Register { user = "cx96ar2op"; domain = "example.com"; expires = 100_000 };
              Options { domain = "example.com" };
            ];
        };
        {
          ag_name = "ping";
          ag_steps = [ Repeat { count = 3; body = [ Options { domain = "example.com" }; Sleep 3 ] } ];
        };
      ];
  }

(** T10: rebalance under load — fillers push the table across the
    growth threshold (two online doublings) while a refresher keeps
    rewriting one binding (the resize-racing-refresh window), calls
    exercise lookups mid-migration, and churn + the collision pair ride
    along.  The resilient two-lock transfer keeps the audit clean; the
    legacy flavor's unlocked transfer, stale router and collision
    blindness all surface. *)
let t10_rebalance =
  let open Scenario in
  {
    sc_name = "T10";
    sc_description = "online shard rebalance under live traffic (sharded registrar)";
    sc_sharding = Some { sp_initial = 2; sp_grow_at = 3; sp_max_shards = 8 };
    sc_agents =
      [
        {
          ag_name = "filler1";
          ag_steps =
            [ Repeat { count = 4; body = [ Register { user = "rb%i_a"; domain = "example.com"; expires = 100_000 } ] } ];
        };
        {
          ag_name = "filler2";
          ag_steps =
            [ Repeat { count = 4; body = [ Register { user = "rb%i_b"; domain = "example.com"; expires = 100_000 } ] } ];
        };
        {
          ag_name = "refresher";
          ag_steps =
            [
              Repeat
                {
                  count = 5;
                  body =
                    [ Register { user = "rbvic"; domain = "example.com"; expires = 100_000 }; Sleep 2 ];
                };
            ];
        };
        {
          ag_name = "caller";
          ag_steps =
            [
              Register { user = "rbcallee"; domain = "example.com"; expires = 100_000 };
              (* calls target the refresher's binding: cross-agent, so
                 the driver tolerates a 404 when that REGISTER was shed
                 — the lookups still cross the migration window *)
              Repeat
                {
                  count = 3;
                  body =
                    [ Call { caller = "rbx"; callee = "rbvic"; domain = "example.com"; talk = 3 } ];
                };
            ];
        };
        {
          ag_name = "churn";
          ag_steps =
            [
              Register { user = "rbtmp"; domain = "example.com"; expires = 100_000 };
              Unregister { user = "rbtmp"; domain = "example.com" };
              Register { user = "cxryap02u"; domain = "example.com"; expires = 100_000 };
              Register { user = "cx96ar2op"; domain = "example.com"; expires = 100_000 };
            ];
        };
      ];
  }

let sip_scenarios = [ t9_storm; t10_rebalance ]

let sip_lookup name =
  List.find_opt (fun (sc : Scenario.t) -> sc.Scenario.sc_name = name) sip_scenarios
