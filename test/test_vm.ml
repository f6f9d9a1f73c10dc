(* Tests for the virtual machine: scheduling, synchronisation objects,
   memory, events, determinism, deadlock detection. *)

module Vm = Raceguard_vm
module Engine = Vm.Engine
module Api = Vm.Api
module Event = Vm.Event
module Loc = Raceguard_util.Loc

let loc = Loc.v "test_vm.ml" "test" 1

let run ?(seed = 1) ?(policy = Engine.Random_seeded) ?tool f =
  let vm = Engine.create ~config:{ Engine.default_config with seed; policy } () in
  (match tool with Some t -> Engine.add_tool vm t | None -> ());
  let result = ref None in
  let outcome = Engine.run vm (fun () -> result := Some (f ())) in
  (outcome, !result)

let check_clean (outcome : Engine.outcome) =
  Alcotest.(check bool) "no deadlock" true (outcome.deadlock = None);
  Alcotest.(check string) "stopped clean" "clean" (Engine.stop_name (Engine.stop_of outcome));
  (match outcome.failures with
  | [] -> ()
  | (_, name, e) :: _ ->
      Alcotest.failf "thread %s raised %s" name (Printexc.to_string e));
  ()

(* --- basic execution ------------------------------------------------ *)

let test_mutex_counter () =
  let outcome, result =
    run (fun () ->
        let c = Api.alloc ~loc 1 in
        let m = Api.Mutex.create ~loc "m" in
        let worker () =
          for _ = 1 to 25 do
            Api.Mutex.with_lock ~loc m (fun () ->
                Api.write ~loc c (Api.read ~loc c + 1))
          done
        in
        let ts = List.init 4 (fun i -> Api.spawn ~loc ~name:(Printf.sprintf "w%d" i) worker) in
        List.iter (Api.join ~loc) ts;
        Api.read ~loc c)
  in
  check_clean outcome;
  Alcotest.(check (option int)) "no lost updates under the mutex" (Some 100) result

let test_racy_counter_loses_updates () =
  (* sanity of the simulation itself: an unlocked RMW under the
     random scheduler actually loses updates for some seed *)
  let lost_somewhere =
    List.exists
      (fun seed ->
        let _, result =
          run ~seed (fun () ->
              let c = Api.alloc ~loc 1 in
              let worker () =
                for _ = 1 to 20 do
                  let v = Api.read ~loc c in
                  Api.write ~loc c (v + 1)
                done
              in
              let t1 = Api.spawn ~loc ~name:"a" worker in
              let t2 = Api.spawn ~loc ~name:"b" worker in
              Api.join ~loc t1;
              Api.join ~loc t2;
              Api.read ~loc c)
        in
        result <> Some 40)
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "some schedule loses an update" true lost_somewhere

let test_deterministic_same_seed () =
  let trace seed =
    let events = ref [] in
    let tool = Vm.Tool.of_fn "rec" (fun e -> events := Fmt.str "%a" Event.pp e :: !events) in
    let outcome, _ =
      run ~seed ~tool (fun () ->
          let c = Api.alloc ~loc 1 in
          let worker () = Api.write ~loc c (Api.read ~loc c + 1) in
          let t1 = Api.spawn ~loc ~name:"a" worker in
          let t2 = Api.spawn ~loc ~name:"b" worker in
          Api.join ~loc t1;
          Api.join ~loc t2)
    in
    check_clean outcome;
    List.rev !events
  in
  Alcotest.(check (list string)) "same seed, same trace" (trace 9) (trace 9);
  Alcotest.(check bool) "different seeds usually differ" true (trace 1 <> trace 3 || trace 2 <> trace 5)

let test_join_after_exit () =
  let outcome, result =
    run (fun () ->
        let t = Api.spawn ~loc ~name:"quick" (fun () -> ()) in
        (* let it finish first *)
        Api.sleep 10;
        Api.join ~loc t;
        42)
  in
  check_clean outcome;
  Alcotest.(check (option int)) "join of finished thread" (Some 42) result

let test_trylock () =
  let outcome, result =
    run (fun () ->
        let m = Api.Mutex.create ~loc "m" in
        let first = Api.Mutex.try_lock ~loc m in
        let second = Api.Mutex.try_lock ~loc m in
        Api.Mutex.unlock ~loc m;
        let third = Api.Mutex.try_lock ~loc m in
        Api.Mutex.unlock ~loc m;
        (first, second, third))
  in
  check_clean outcome;
  Alcotest.(check (option (triple bool bool bool)))
    "trylock semantics" (Some (true, false, true)) result

let test_mutex_misuse () =
  let outcome, _ =
    run (fun () ->
        let m = Api.Mutex.create ~loc "m" in
        Api.Mutex.unlock ~loc m)
  in
  Alcotest.(check bool) "unlock of unheld mutex fails the thread" true
    (List.exists (fun (_, _, e) -> match e with Engine.Misuse _ -> true | _ -> false)
       outcome.failures)

let test_double_free () =
  let outcome, _ =
    run (fun () ->
        let a = Api.alloc ~loc 4 in
        Api.free ~loc a;
        Api.free ~loc a)
  in
  Alcotest.(check bool) "double free raises" true (outcome.failures <> [])

(* --- rwlock --------------------------------------------------------- *)

let test_rwlock_readers_concurrent () =
  (* two readers can hold the lock at the same time: both acquire
     before either releases, observed through the event stream *)
  let acquired = ref 0 and max_concurrent = ref 0 in
  let tool =
    Vm.Tool.of_fn "rw" (fun e ->
        match e with
        | Event.E_acquire { lock = Event.Rwlock _; _ } ->
            incr acquired;
            if !acquired > !max_concurrent then max_concurrent := !acquired
        | Event.E_release { lock = Event.Rwlock _; _ } -> decr acquired
        | _ -> ())
  in
  let outcome, _ =
    run ~seed:3 ~tool (fun () ->
        let rw = Api.Rwlock.create ~loc "rw" in
        let gate = Api.Sem.create ~loc ~init:0 "gate" in
        let reader () =
          Api.Rwlock.rdlock ~loc rw;
          Api.Sem.post ~loc gate;
          Api.sleep 20;
          Api.Rwlock.unlock ~loc rw
        in
        let t1 = Api.spawn ~loc ~name:"r1" reader in
        let t2 = Api.spawn ~loc ~name:"r2" reader in
        Api.Sem.wait ~loc gate;
        Api.Sem.wait ~loc gate;
        Api.join ~loc t1;
        Api.join ~loc t2)
  in
  check_clean outcome;
  Alcotest.(check int) "two concurrent readers" 2 !max_concurrent

let test_rwlock_writer_exclusive () =
  (* a writer never overlaps a reader: track with a shadow flag *)
  let outcome, result =
    run ~seed:11 (fun () ->
        let rw = Api.Rwlock.create ~loc "rw" in
        let data = Api.alloc ~loc 1 in
        let violations = ref 0 in
        let writer () =
          for _ = 1 to 5 do
            Api.Rwlock.with_wrlock ~loc rw (fun () ->
                Api.write ~loc data 1;
                Api.yield ();
                Api.write ~loc data 0)
          done
        in
        let reader () =
          for _ = 1 to 10 do
            Api.Rwlock.with_rdlock ~loc rw (fun () ->
                if Api.read ~loc data <> 0 then incr violations)
          done
        in
        let w = Api.spawn ~loc ~name:"w" writer in
        let r1 = Api.spawn ~loc ~name:"r1" reader in
        let r2 = Api.spawn ~loc ~name:"r2" reader in
        Api.join ~loc w;
        Api.join ~loc r1;
        Api.join ~loc r2;
        !violations)
  in
  check_clean outcome;
  Alcotest.(check (option int)) "writer exclusion holds" (Some 0) result

(* --- condvars and semaphores ---------------------------------------- *)

let test_condvar_producer_consumer () =
  let outcome, result =
    run ~seed:17 (fun () ->
        let m = Api.Mutex.create ~loc "m" in
        let cv = Api.Cond.create ~loc "cv" in
        let slot = Api.alloc ~loc 1 in
        let sum = ref 0 in
        let consumer () =
          for _ = 1 to 10 do
            Api.Mutex.lock ~loc m;
            while Api.read ~loc slot = 0 do
              Api.Cond.wait ~loc cv m
            done;
            sum := !sum + Api.read ~loc slot;
            Api.write ~loc slot 0;
            Api.Cond.signal ~loc cv;
            Api.Mutex.unlock ~loc m
          done
        in
        let producer () =
          for i = 1 to 10 do
            Api.Mutex.lock ~loc m;
            while Api.read ~loc slot <> 0 do
              Api.Cond.wait ~loc cv m
            done;
            Api.write ~loc slot i;
            Api.Cond.signal ~loc cv;
            Api.Mutex.unlock ~loc m
          done
        in
        let c = Api.spawn ~loc ~name:"consumer" consumer in
        let p = Api.spawn ~loc ~name:"producer" producer in
        Api.join ~loc c;
        Api.join ~loc p;
        !sum)
  in
  check_clean outcome;
  Alcotest.(check (option int)) "all items consumed" (Some 55) result

let test_cond_broadcast () =
  let outcome, result =
    run ~seed:23 (fun () ->
        let m = Api.Mutex.create ~loc "m" in
        let cv = Api.Cond.create ~loc "cv" in
        let go = Api.alloc ~loc 1 in
        let woke = ref 0 in
        let waiter () =
          Api.Mutex.lock ~loc m;
          while Api.read ~loc go = 0 do
            Api.Cond.wait ~loc cv m
          done;
          incr woke;
          Api.Mutex.unlock ~loc m
        in
        let ts = List.init 5 (fun i -> Api.spawn ~loc ~name:(Printf.sprintf "w%d" i) waiter) in
        Api.sleep 30;
        Api.Mutex.lock ~loc m;
        Api.write ~loc go 1;
        Api.Cond.broadcast ~loc cv;
        Api.Mutex.unlock ~loc m;
        List.iter (Api.join ~loc) ts;
        !woke)
  in
  check_clean outcome;
  Alcotest.(check (option int)) "broadcast wakes everyone" (Some 5) result

let test_semaphore () =
  let outcome, result =
    run (fun () ->
        let s = Api.Sem.create ~loc ~init:2 "s" in
        let inside = Api.alloc ~loc 1 in
        let peak = ref 0 in
        let worker () =
          Api.Sem.wait ~loc s;
          let n = Api.read ~loc inside + 1 in
          Api.write ~loc inside n;
          if n > !peak then peak := n;
          Api.sleep 5;
          Api.write ~loc inside (Api.read ~loc inside - 1);
          Api.Sem.post ~loc s
        in
        let ts = List.init 6 (fun i -> Api.spawn ~loc ~name:(Printf.sprintf "w%d" i) worker) in
        List.iter (Api.join ~loc) ts;
        !peak)
  in
  check_clean outcome;
  (match result with
  | Some peak -> Alcotest.(check bool) "at most 2 inside" true (peak <= 2 && peak >= 1)
  | None -> Alcotest.fail "no result")

(* --- msg queue and thread pool --------------------------------------- *)

let test_msg_queue_fifo () =
  let outcome, result =
    run (fun () ->
        let q = Vm.Msg_queue.create ~name:"q" ~capacity:3 () in
        let received = ref [] in
        let consumer () =
          for _ = 1 to 10 do
            received := Vm.Msg_queue.get q :: !received
          done
        in
        let c = Api.spawn ~loc ~name:"c" consumer in
        for i = 1 to 10 do
          Vm.Msg_queue.put q (i * 11)
        done;
        Api.join ~loc c;
        List.rev !received)
  in
  check_clean outcome;
  Alcotest.(check (option (list int)))
    "FIFO order, bounded queue" (Some (List.init 10 (fun i -> (i + 1) * 11))) result

let test_thread_pool_processes_all () =
  let outcome, result =
    run ~seed:29 (fun () ->
        let processed = ref [] in
        let pool =
          Vm.Thread_pool.create ~name:"pool" ~workers:3 ~queue_capacity:4
            ~handler:(fun task -> processed := task :: !processed)
            ()
        in
        for i = 1 to 20 do
          Vm.Thread_pool.submit pool i
        done;
        Vm.Thread_pool.shutdown pool;
        List.sort compare !processed)
  in
  check_clean outcome;
  Alcotest.(check (option (list int)))
    "every task processed exactly once" (Some (List.init 20 (fun i -> i + 1))) result

(* --- deadlock detection ---------------------------------------------- *)

let test_deadlock_detected () =
  let outcome, _ =
    run ~policy:Engine.Round_robin (fun () ->
        let a = Api.Mutex.create ~loc "A" and b = Api.Mutex.create ~loc "B" in
        let t1 =
          Api.spawn ~loc ~name:"t1" (fun () ->
              Api.Mutex.lock ~loc a;
              Api.yield ();
              Api.Mutex.lock ~loc b;
              Api.Mutex.unlock ~loc b;
              Api.Mutex.unlock ~loc a)
        in
        let t2 =
          Api.spawn ~loc ~name:"t2" (fun () ->
              Api.Mutex.lock ~loc b;
              Api.yield ();
              Api.Mutex.lock ~loc a;
              Api.Mutex.unlock ~loc a;
              Api.Mutex.unlock ~loc b)
        in
        Api.join ~loc t1;
        Api.join ~loc t2)
  in
  match outcome.deadlock with
  | Some d -> Alcotest.(check int) "two threads in the cycle" 2 (List.length d.dl_cycle)
  | None -> Alcotest.fail "deadlock not detected"

let test_lost_signal_hang () =
  let outcome, _ =
    run (fun () ->
        let m = Api.Mutex.create ~loc "m" in
        let cv = Api.Cond.create ~loc "cv" in
        Api.Mutex.lock ~loc m;
        Api.Cond.wait ~loc cv m
        (* nobody will ever signal *))
  in
  Alcotest.(check string) "nothing could run" "deadlock" (Engine.stop_name (Engine.stop_of outcome));
  match outcome.deadlock with
  | Some d ->
      Alcotest.(check bool) "reported as hang, not cycle" true
        (d.dl_cycle = [] && d.dl_stuck <> [])
  | None -> Alcotest.fail "hang not detected"

let check_mentions what needle (entry : string) =
  if not (Test_fix.contains ~needle entry) then Alcotest.failf "%s: %S does not mention %S" what entry needle

let test_orphaned_wait_hangs () =
  (* the oom chaos cells in miniature: both pool workers die on their
     first task, the submitter then blocks in [submit] on the full
     queue, main joins the submitter, and two daemons keep polling a
     stop flag that only main would set *)
  let max_ops = Engine.default_config.max_ops in
  let outcome, _ =
    run ~seed:5 (fun () ->
        let stop = Api.alloc ~loc 1 in
        let daemon period () =
          while Api.read ~loc stop = 0 do
            Api.sleep period
          done
        in
        let d3 = Api.spawn ~loc ~name:"poll3" (daemon 3) in
        let d25 = Api.spawn ~loc ~name:"poll25" (daemon 25) in
        let pool =
          Vm.Thread_pool.create ~name:"pool" ~workers:2 ~queue_capacity:2
            ~handler:(fun _ -> failwith "task failed")
            ()
        in
        let submitter =
          Api.spawn ~loc ~name:"submitter" (fun () ->
              for i = 1 to 10 do
                Vm.Thread_pool.submit pool i
              done)
        in
        Api.join ~loc submitter;
        Api.write ~loc stop 1;
        Api.join ~loc d3;
        Api.join ~loc d25)
  in
  Alcotest.(check string) "stopped as a hang" "hang" (Engine.stop_name (Engine.stop_of outcome));
  if outcome.stats.ops_executed >= max_ops / 100 then
    Alcotest.failf "%d ops: not below 1%% of the %d budget" outcome.stats.ops_executed max_ops;
  Alcotest.(check int) "both workers died" 2 (List.length outcome.failures);
  match outcome.deadlock with
  | None -> Alcotest.fail "no hang report"
  | Some d ->
      (* main 0, daemons 1-2, workers 3-4 (done, so not listed), submitter 5 *)
      Alcotest.(check (list int)) "every live thread listed" [ 0; 1; 2; 5 ] (List.map fst d.dl_stuck);
      let entry tid = List.assoc tid d.dl_stuck in
      check_mentions "daemon" "(poll3)" (entry 1);
      check_mentions "daemon" "(poll25)" (entry 2);
      check_mentions "main" "termination of thread 5" (entry 0);
      check_mentions "main" "orphaned" (entry 0);
      check_mentions "submitter" "pool.queue.nonfull" (entry 5);
      check_mentions "submitter" "signalled only by finished threads 3, 4" (entry 5)

let test_late_first_signal_is_not_a_hang () =
  (* a sleeper signals a condition variable nobody signalled before, and
     only after 20 sleep cycles.  An object no other thread ever woke
     never orphans its waiter, so the run completes however late the
     first signal comes *)
  let cycles = 20 in
  let outcome, result =
    run (fun () ->
        let m = Api.Mutex.create ~loc "m" in
        let cv = Api.Cond.create ~loc "cv" in
        let flag = Api.alloc ~loc 1 in
        let late =
          Api.spawn ~loc ~name:"late" (fun () ->
              for _ = 1 to cycles do
                Api.sleep 5
              done;
              Api.Mutex.lock ~loc m;
              Api.write ~loc flag 1;
              Api.Cond.signal ~loc cv;
              Api.Mutex.unlock ~loc m)
        in
        Api.Mutex.lock ~loc m;
        while Api.read ~loc flag = 0 do
          Api.Cond.wait ~loc cv m
        done;
        Api.Mutex.unlock ~loc m;
        Api.join ~loc late;
        cycles)
  in
  check_clean outcome;
  Alcotest.(check (option int)) "main completed" (Some cycles) result

let test_late_first_post_is_not_a_hang () =
  (* the semaphore form: main waits for a worker that posts once, after
     twelve sleeps *)
  let outcome, result =
    run (fun () ->
        let s = Api.Sem.create ~loc ~init:0 "done" in
        let worker =
          Api.spawn ~loc ~name:"worker" (fun () ->
              for _ = 1 to 12 do
                Api.sleep 1
              done;
              Api.Sem.post ~loc s)
        in
        Api.Sem.wait ~loc s;
        Api.join ~loc worker;
        true)
  in
  check_clean outcome;
  Alcotest.(check (option bool)) "main completed" (Some true) result

let test_first_signal_at_next_wake_is_not_a_hang () =
  (* main's second wait is orphaned: the only thread that ever signalled
     the condition variable has finished.  A sleeper signals it for the
     first time when it next wakes, and that wake-up comes due while a
     busy daemon runs 50 operations between its sleeps, so the check
     that wakes the sleeper already sees the clock past its wake time.
     The check must let the sleeper run before it decides *)
  let outcome, result =
    run (fun () ->
        let m = Api.Mutex.create ~loc "m" in
        let cv = Api.Cond.create ~loc "cv" in
        let stage = Api.alloc ~loc 1 in
        let stop = Api.alloc ~loc 1 in
        let advance () =
          Api.Mutex.lock ~loc m;
          Api.write ~loc stage (Api.read ~loc stage + 1);
          Api.Cond.signal ~loc cv;
          Api.Mutex.unlock ~loc m
        in
        let first = Api.spawn ~loc ~name:"first" advance in
        let busy =
          Api.spawn ~loc ~name:"busy" (fun () ->
              while Api.read ~loc stop = 0 do
                for _ = 1 to 50 do
                  Api.yield ()
                done;
                Api.sleep 1
              done)
        in
        let late =
          Api.spawn ~loc ~name:"late" (fun () ->
              Api.sleep 200;
              advance ())
        in
        Api.Mutex.lock ~loc m;
        while Api.read ~loc stage < 2 do
          Api.Cond.wait ~loc cv m
        done;
        Api.Mutex.unlock ~loc m;
        Api.write ~loc stop 1;
        List.iter (Api.join ~loc) [ first; busy; late ];
        true)
  in
  check_clean outcome;
  Alcotest.(check (option bool)) "main completed" (Some true) result

let test_chain_progress_restarts_the_check () =
  (* main joins a waiter that waits on two condition variables in turn,
     each signalled before only by a finished thread, while a daemon
     polls a stop flag every 3 ticks.  A sleeper signals the first when
     it next wakes and the second one 50-tick sleep later.  The waiter's
     wake-up in between must restart the check: without that, its
     second wait counts as orphaned since before the sleeper's first
     wake-up, and the run stops before the second signal *)
  let outcome, result =
    run (fun () ->
        let m = Api.Mutex.create ~loc "m" in
        let c1 = Api.Cond.create ~loc "c1" in
        let c2 = Api.Cond.create ~loc "c2" in
        let f1 = Api.alloc ~loc 1 in
        let f2 = Api.alloc ~loc 1 in
        let stop = Api.alloc ~loc 1 in
        Api.join ~loc (Api.spawn ~loc ~name:"a" (fun () -> Api.Cond.signal ~loc c1));
        Api.join ~loc (Api.spawn ~loc ~name:"b" (fun () -> Api.Cond.signal ~loc c2));
        let poller =
          Api.spawn ~loc ~name:"poller" (fun () ->
              while Api.read ~loc stop = 0 do
                Api.sleep 3
              done)
        in
        let await c f =
          while Api.read ~loc f = 0 do
            Api.Cond.wait ~loc c m
          done
        in
        let waiter =
          Api.spawn ~loc ~name:"waiter" (fun () ->
              Api.Mutex.lock ~loc m;
              await c1 f1;
              await c2 f2;
              Api.Mutex.unlock ~loc m)
        in
        let set c f =
          Api.Mutex.lock ~loc m;
          Api.write ~loc f 1;
          Api.Cond.signal ~loc c;
          Api.Mutex.unlock ~loc m
        in
        let late =
          Api.spawn ~loc ~name:"late" (fun () ->
              Api.sleep 50;
              set c1 f1;
              Api.sleep 50;
              set c2 f2)
        in
        Api.join ~loc waiter;
        Api.write ~loc stop 1;
        List.iter (Api.join ~loc) [ poller; late ];
        true)
  in
  check_clean outcome;
  Alcotest.(check (option bool)) "main completed" (Some true) result

(* --- clock / sleep / atomic ------------------------------------------ *)

let test_sleep_advances_clock () =
  let outcome, result =
    run (fun () ->
        let t0 = Api.now () in
        Api.sleep 100;
        Api.now () - t0)
  in
  check_clean outcome;
  match result with
  | Some d -> Alcotest.(check bool) "clock advanced by at least the sleep" true (d >= 100)
  | None -> Alcotest.fail "no result"

let test_atomic_rmw_indivisible () =
  (* atomic increments never lose updates, unlike the racy test above *)
  let outcome, result =
    run ~seed:31 (fun () ->
        let c = Api.alloc ~loc 1 in
        let worker () =
          for _ = 1 to 50 do
            ignore (Api.atomic_incr ~loc c)
          done
        in
        let ts = List.init 4 (fun i -> Api.spawn ~loc ~name:(Printf.sprintf "w%d" i) worker) in
        List.iter (Api.join ~loc) ts;
        Api.read ~loc c)
  in
  check_clean outcome;
  Alcotest.(check (option int)) "atomics never lose updates" (Some 200) result

let test_atomic_cas () =
  let outcome, result =
    run (fun () ->
        let a = Api.alloc ~loc 1 in
        Api.write ~loc a 5;
        let ok = Api.atomic_cas ~loc a ~expected:5 ~desired:9 in
        let not_ok = Api.atomic_cas ~loc a ~expected:5 ~desired:1 in
        (ok, not_ok, Api.read ~loc a))
  in
  check_clean outcome;
  Alcotest.(check (option (triple bool bool int))) "cas" (Some (true, false, 9)) result

let test_op_budget () =
  let vm =
    Engine.create ~config:{ Engine.default_config with max_ops = 1000 } ()
  in
  let outcome =
    Engine.run vm (fun () ->
        let spinner =
          Api.spawn ~loc ~name:"spinner" (fun () ->
              while true do
                Api.yield ()
              done)
        in
        Api.join ~loc spinner)
  in
  Alcotest.(check string) "livelock cut off by op budget" "op-budget" (Engine.stop_name (Engine.stop_of outcome));
  match outcome.deadlock with
  | None -> Alcotest.fail "no budget report"
  | Some d ->
      (* main spent 2 of the 1001 ops (spawn, join); the spinner the rest *)
      Alcotest.(check (list (pair int string)))
        "every live thread named with its state and op count"
        [ (0, "(main) waits for termination of thread 1 (2 ops)"); (1, "(spinner) is running (999 ops)") ]
        d.dl_stuck

(* The budget stops the run from outside the thread: a spinner that
   catches every exception around its reads and writes cannot swallow
   the stop. *)
let test_op_budget_outside_thread () =
  let vm = Engine.create ~config:{ Engine.default_config with max_ops = 1000 } () in
  let caught = ref 0 in
  let outcome =
    Engine.run vm (fun () ->
        let a = Api.alloc ~loc 1 in
        let spinner =
          Api.spawn ~loc ~name:"spinner" (fun () ->
              while true do
                try Api.write ~loc a (Api.read ~loc a + 1) with _ -> incr caught
              done)
        in
        Api.join ~loc spinner)
  in
  Alcotest.(check string) "stops as op-budget" "op-budget" (Engine.stop_name (Engine.stop_of outcome));
  Alcotest.(check int) "the spinner caught nothing" 0 !caught;
  match outcome.deadlock with
  | None -> Alcotest.fail "no budget report"
  | Some d ->
      (* main spent 3 of the 1001 ops (alloc, spawn, join); the spinner the rest *)
      Alcotest.(check (list (pair int string)))
        "every live thread named with its state and op count"
        [ (0, "(main) waits for termination of thread 1 (3 ops)"); (1, "(spinner) is running (998 ops)") ]
        d.dl_stuck

(* An exception a tool raises stops the whole run: [Engine.run] raises
   it, and the thread whose operation emitted the event never sees it. *)
let test_tool_exception_stops_run () =
  let reads = ref 0 and caught = ref 0 in
  let vm = Engine.create () in
  Engine.add_tool vm
    (Vm.Tool.of_fn "fails"
       (function
         | Event.E_read _ ->
             incr reads;
             if !reads = 50 then failwith "tool failed"
         | _ -> ()));
  let body a () =
    for _ = 1 to 100 do
      try ignore (Api.read ~loc a) with _ -> incr caught
    done
  in
  (match
     Engine.run vm (fun () ->
         let a = Api.alloc ~loc 1 in
         let reader = Api.spawn ~loc ~name:"reader" (body a) in
         body a ();
         Api.join ~loc reader)
   with
  | _ -> Alcotest.fail "the run returned"
  | exception Failure msg -> Alcotest.(check string) "Engine.run raises the tool's exception" "tool failed" msg);
  Alcotest.(check int) "stopped at the 50th read" 50 !reads;
  Alcotest.(check int) "no thread handler saw it" 0 !caught;
  let outcome, result = run (fun () -> Api.read ~loc (Api.alloc ~loc 1)) in
  check_clean outcome;
  Alcotest.(check (option int)) "the next run on this domain is unaffected" (Some 0) result

(* API misuse is the calling thread's error: it is raised there, and a
   thread that catches it keeps running. *)
let test_misuse_raised_in_thread () =
  let outcome, result =
    run (fun () ->
        let a = Api.alloc ~loc 2 in
        let caught = ref [] in
        let worker () =
          (try ignore (Api.read ~loc (a + 1_000_000)) with Invalid_argument _ -> caught := "read" :: !caught);
          Api.free ~loc a;
          (try Api.free ~loc a with Invalid_argument _ -> caught := "free" :: !caught);
          let b = Api.alloc ~loc 1 in
          Api.write ~loc b 7;
          caught := string_of_int (Api.read ~loc b) :: !caught
        in
        Api.join ~loc (Api.spawn ~loc ~name:"worker" worker);
        List.rev !caught)
  in
  check_clean outcome;
  Alcotest.(check (option (list string))) "both misuses caught, then the thread ran on"
    (Some [ "read"; "free"; "7" ]) result

let test_frames_stack () =
  let stacks = ref [] in
  let tool =
    Vm.Tool.of_fn "frames" (fun _ -> ())
  in
  ignore tool;
  let tool2 =
    Vm.Tool.make ~name:"frames" ~on_event:(fun ctx e ->
        match e with
        | Event.E_write { tid; _ } -> stacks := ctx.stack_of tid :: !stacks
        | _ -> ())
  in
  let outcome, _ =
    run ~tool:tool2 (fun () ->
        let a = Api.alloc ~loc 1 in
        Api.with_frame (Loc.v "f.c" "outer" 1) (fun () ->
            Api.with_frame (Loc.v "f.c" "inner" 2) (fun () -> Api.write ~loc a 1)))
  in
  check_clean outcome;
  match !stacks with
  | [ stack ] ->
      Alcotest.(check (list string)) "frames innermost first"
        [ "inner (f.c:2)"; "outer (f.c:1)"; "main (<vm>:0)" ]
        (List.map Loc.to_string stack)
  | l -> Alcotest.failf "expected exactly one write, saw %d" (List.length l)

let test_memory_reuse_lifo () =
  let addrs = ref (0, 0) in
  let outcome, _ =
    run (fun () ->
        let a = Api.alloc ~loc 4 in
        Api.free ~loc a;
        let b = Api.alloc ~loc 4 in
        addrs := (a, b))
  in
  check_clean outcome;
  let a, b = !addrs in
  Alcotest.(check int) "same-size block recycled" a b

let test_queue_blocks_when_full () =
  (* capacity-1 queue: the producer must block on the second put until
     the consumer drains one element *)
  let outcome, result =
    run ~seed:13 (fun () ->
        let q = Vm.Msg_queue.create ~name:"q1" ~capacity:1 () in
        let order = ref [] in
        let producer () =
          Vm.Msg_queue.put q 1;
          order := "put1" :: !order;
          Vm.Msg_queue.put q 2;
          order := "put2" :: !order
        in
        let t = Api.spawn ~loc ~name:"producer" producer in
        Api.sleep 30;
        order := "get-start" :: !order;
        let a = Vm.Msg_queue.get q in
        let b = Vm.Msg_queue.get q in
        Api.join ~loc t;
        (List.rev !order, a, b))
  in
  check_clean outcome;
  match result with
  | Some (order, a, b) ->
      Alcotest.(check (pair int int)) "values in order" (1, 2) (a, b);
      (* put2 cannot complete before the main thread starts draining *)
      let idx x = ref (List.mapi (fun i s -> (s, i)) order) |> fun l -> List.assoc x !l in
      Alcotest.(check bool) "put2 blocked until a get ran" true (idx "put2" > idx "get-start")
  | None -> Alcotest.fail "no result"

let test_signal_with_no_waiter_is_lost () =
  (* POSIX semantics: a signal with no waiter does nothing; the waiter
     must therefore check its predicate (here: it does, and the flag
     write comes after, so the program still terminates thanks to the
     while loop re-check under the lock) *)
  let outcome, _ =
    run (fun () ->
        let m = Api.Mutex.create ~loc "m" in
        let cv = Api.Cond.create ~loc "cv" in
        let flag = Api.alloc ~loc 1 in
        (* signal before anyone waits: lost *)
        Api.Cond.signal ~loc cv;
        let t =
          Api.spawn ~loc ~name:"setter" (fun () ->
              Api.sleep 5;
              Api.Mutex.lock ~loc m;
              Api.write ~loc flag 1;
              Api.Cond.signal ~loc cv;
              Api.Mutex.unlock ~loc m)
        in
        Api.Mutex.lock ~loc m;
        while Api.read ~loc flag = 0 do
          Api.Cond.wait ~loc cv m
        done;
        Api.Mutex.unlock ~loc m;
        Api.join ~loc t)
  in
  check_clean outcome

let test_spawn_many_threads () =
  let outcome, result =
    run (fun () ->
        let counter = Api.alloc ~loc 1 in
        let ts =
          List.init 40 (fun i ->
              Api.spawn ~loc ~name:(Printf.sprintf "t%d" i) (fun () ->
                  ignore (Api.atomic_incr ~loc counter)))
        in
        List.iter (Api.join ~loc) ts;
        Api.read ~loc counter)
  in
  check_clean outcome;
  Alcotest.(check (option int)) "40 threads all ran" (Some 40) result;
  Alcotest.(check int) "thread count" 41 outcome.stats.threads_created

let test_rwlock_writer_waits_for_readers () =
  (* a writer arriving while readers hold the lock must wait until the
     last reader releases; readers arriving behind a queued writer do
     not starve it forever (FIFO queue) *)
  let outcome, result =
    run ~seed:19 (fun () ->
        let rw = Api.Rwlock.create ~loc "rw" in
        let log = ref [] in
        let reader name hold () =
          Api.Rwlock.rdlock ~loc rw;
          log := (name ^ ":in") :: !log;
          Api.sleep hold;
          log := (name ^ ":out") :: !log;
          Api.Rwlock.unlock ~loc rw
        in
        let writer () =
          Api.Rwlock.wrlock ~loc rw;
          log := "w:in" :: !log;
          Api.Rwlock.unlock ~loc rw
        in
        let r1 = Api.spawn ~loc ~name:"r1" (reader "r1" 30) in
        Api.sleep 5;
        let w = Api.spawn ~loc ~name:"w" writer in
        Api.join ~loc r1;
        Api.join ~loc w;
        List.rev !log)
  in
  check_clean outcome;
  match result with
  | Some log ->
      let idx x =
        let rec go i = function
          | [] -> -1
          | y :: rest -> if y = x then i else go (i + 1) rest
        in
        go 0 log
      in
      Alcotest.(check bool) "writer entered after the reader left" true
        (idx "w:in" > idx "r1:out")
  | None -> Alcotest.fail "no result"

let test_rwlock_unlock_releases_one_hold () =
  (* a thread holding the read lock twice still holds it after one
     unlock: a writer must wait for the second *)
  let outcome, result =
    run ~policy:Engine.Round_robin (fun () ->
        let rw = Api.Rwlock.create ~loc "rw" in
        let log = ref [] in
        Api.Rwlock.rdlock ~loc rw;
        Api.Rwlock.rdlock ~loc rw;
        Api.Rwlock.unlock ~loc rw;
        let w =
          Api.spawn ~loc ~name:"w" (fun () ->
              Api.Rwlock.wrlock ~loc rw;
              log := "w:in" :: !log;
              Api.Rwlock.unlock ~loc rw)
        in
        Api.yield ();
        log := "main:unlock" :: !log;
        Api.Rwlock.unlock ~loc rw;
        Api.join ~loc w;
        List.rev !log)
  in
  check_clean outcome;
  Alcotest.(check (option (list string)))
    "writer enters after the last read hold is released" (Some [ "main:unlock"; "w:in" ]) result

let test_rwlock_deadlock_names_double_reader () =
  (* a writer queued behind a thread holding two read holds waits for
     that thread; if it joins the writer, that is a cycle, not a hang *)
  let outcome, _ =
    run ~policy:Engine.Round_robin (fun () ->
        let rw = Api.Rwlock.create ~loc "rw" in
        Api.Rwlock.rdlock ~loc rw;
        Api.Rwlock.rdlock ~loc rw;
        let w =
          Api.spawn ~loc ~name:"w" (fun () ->
              Api.Rwlock.wrlock ~loc rw;
              Api.Rwlock.unlock ~loc rw)
        in
        Api.join ~loc w)
  in
  match outcome.deadlock with
  | Some d ->
      Alcotest.(check (list int)) "reader and writer in the cycle" [ 0; 1 ]
        (List.sort compare (List.map fst d.dl_cycle));
      Alcotest.(check int) "nobody merely stuck" 0 (List.length d.dl_stuck)
  | None -> Alcotest.fail "deadlock not detected"

let test_block_metadata () =
  let info = ref None in
  let tool =
    Vm.Tool.make ~name:"blocks" ~on_event:(fun ctx e ->
        match e with
        | Event.E_write { addr; _ } when !info = None -> info := ctx.block_of addr
        | _ -> ())
  in
  let outcome, _ =
    run ~tool (fun () ->
        Api.with_frame (Loc.v "b.c" "allocator_caller" 3) (fun () ->
            let a = Api.alloc ~loc:(Loc.v "b.c" "allocate" 4) 6 in
            Api.write ~loc a 1))
  in
  check_clean outcome;
  match !info with
  | Some (b : Vm.Memory.block) ->
      Alcotest.(check int) "block length" 6 b.len;
      Alcotest.(check int) "allocating thread" 0 b.alloc_tid;
      Alcotest.(check bool) "allocation stack captured" true
        (List.exists (fun l -> Loc.func l = "allocator_caller") b.alloc_stack)
  | None -> Alcotest.fail "no block info observed"

(* [block_of] answers every traced read and write, so it must allocate
   nothing, whether the address is live, freed or never allocated *)
let test_block_of_allocates_nothing () =
  let m = Vm.Memory.create () in
  let live = Vm.Memory.alloc m ~tid:0 ~loc ~stack:[] ~len:4 in
  let freed = Vm.Memory.alloc m ~tid:0 ~loc ~stack:[] ~len:2 in
  ignore (Vm.Memory.free m ~addr:freed);
  let unallocated = freed + 100 in
  let found a = Option.map (fun (b : Vm.Memory.block) -> (b.base, b.freed)) (Vm.Memory.block_of m a) in
  Alcotest.(check (option (pair int bool))) "live" (Some (live, false)) (found (live + 1));
  Alcotest.(check (option (pair int bool))) "freed" (Some (freed, true)) (found freed);
  Alcotest.(check (option (pair int bool))) "unallocated" None (found unallocated);
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Vm.Memory.block_of m (live + 1)));
    ignore (Sys.opaque_identity (Vm.Memory.block_of m freed));
    ignore (Sys.opaque_identity (Vm.Memory.block_of m unallocated))
  done;
  Alcotest.(check (float 0.)) "minor words" 0. (Gc.minor_words () -. before)

let test_memory_stats () =
  let outcome, result =
    run (fun () ->
        let a = Api.alloc ~loc 10 in
        let _b = Api.alloc ~loc 5 in
        Api.free ~loc a;
        ())
  in
  ignore result;
  check_clean outcome;
  Alcotest.(check int) "allocs counted" 2 outcome.stats.memory_allocs;
  Alcotest.(check int) "live words" 5 outcome.stats.memory_live_words

let suite =
  ( "vm",
    [
      Alcotest.test_case "mutex counter" `Quick test_mutex_counter;
      Alcotest.test_case "racy counter loses updates" `Quick test_racy_counter_loses_updates;
      Alcotest.test_case "deterministic per seed" `Quick test_deterministic_same_seed;
      Alcotest.test_case "join after exit" `Quick test_join_after_exit;
      Alcotest.test_case "trylock" `Quick test_trylock;
      Alcotest.test_case "mutex misuse" `Quick test_mutex_misuse;
      Alcotest.test_case "double free" `Quick test_double_free;
      Alcotest.test_case "rwlock readers concurrent" `Quick test_rwlock_readers_concurrent;
      Alcotest.test_case "rwlock writer exclusive" `Quick test_rwlock_writer_exclusive;
      Alcotest.test_case "condvar producer/consumer" `Quick test_condvar_producer_consumer;
      Alcotest.test_case "cond broadcast" `Quick test_cond_broadcast;
      Alcotest.test_case "semaphore bound" `Quick test_semaphore;
      Alcotest.test_case "msg queue FIFO" `Quick test_msg_queue_fifo;
      Alcotest.test_case "thread pool completes" `Quick test_thread_pool_processes_all;
      Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
      Alcotest.test_case "lost signal hang" `Quick test_lost_signal_hang;
      Alcotest.test_case "orphaned wait stops as a hang" `Quick test_orphaned_wait_hangs;
      Alcotest.test_case "late first signal is not a hang" `Quick test_late_first_signal_is_not_a_hang;
      Alcotest.test_case "late first post is not a hang" `Quick test_late_first_post_is_not_a_hang;
      Alcotest.test_case "first signal at next wake is not a hang" `Quick
        test_first_signal_at_next_wake_is_not_a_hang;
      Alcotest.test_case "chain progress restarts the check" `Quick test_chain_progress_restarts_the_check;
      Alcotest.test_case "sleep advances clock" `Quick test_sleep_advances_clock;
      Alcotest.test_case "atomic rmw indivisible" `Quick test_atomic_rmw_indivisible;
      Alcotest.test_case "atomic cas" `Quick test_atomic_cas;
      Alcotest.test_case "op budget stops livelock" `Quick test_op_budget;
      Alcotest.test_case "op budget stops a thread that catches everything" `Quick
        test_op_budget_outside_thread;
      Alcotest.test_case "a tool's exception stops the run" `Quick test_tool_exception_stops_run;
      Alcotest.test_case "misuse is raised in the calling thread" `Quick test_misuse_raised_in_thread;
      Alcotest.test_case "memory LIFO reuse" `Quick test_memory_reuse_lifo;
      Alcotest.test_case "queue blocks when full" `Quick test_queue_blocks_when_full;
      Alcotest.test_case "lost signal semantics" `Quick test_signal_with_no_waiter_is_lost;
      Alcotest.test_case "many threads" `Quick test_spawn_many_threads;
      Alcotest.test_case "rwlock writer waits" `Quick test_rwlock_writer_waits_for_readers;
      Alcotest.test_case "rwlock unlock releases one read hold" `Quick
        test_rwlock_unlock_releases_one_hold;
      Alcotest.test_case "rwlock deadlock names a double reader" `Quick
        test_rwlock_deadlock_names_double_reader;
      Alcotest.test_case "block metadata" `Quick test_block_metadata;
      Alcotest.test_case "call stacks" `Quick test_frames_stack;
      Alcotest.test_case "memory stats" `Quick test_memory_stats;
      Alcotest.test_case "block_of allocates nothing" `Quick test_block_of_allocates_nothing;
    ] )
