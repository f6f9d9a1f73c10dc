(* The scheduler's tail-call invariant.  test/dune runs this program
   under OCAMLRUNPARAM=l=8192, a 64 KiB limit on every OCaml stack
   (a 100k-deep non-tail recursion overflows it).  Every VM operation's
   handler resumes the next thread with a tail call, so the carrier
   stack stays flat; if any resume path stopped being one (a [schedule]
   wrapped in a [try], a [continue] whose result is used), the stack
   would grow by a frame per operation and overflow long before the
   million operations below complete.

   The workload covers every way control comes back to the scheduler:
   mutex handoffs under contention, cond wait/signal, sleeps, spawn and
   join (fresh threads start from inside a handler), a [Misuse] that the
   thread catches (the handler's [discontinue]), and thread exit, both
   normal ([retc]) and by an uncaught [Misuse] ([exnc]).  Start and exit
   run once per thread, so 8,000 threads take each exit path: enough for
   one leaked frame per thread to overflow as well.

   A second run hangs: main joins a thread waiting on a condition
   variable whose only signaller has finished, while three daemons poll
   a stop flag with sleeps of 3, 4 and 1,000,000 ticks.  The short
   sleepers empty the ready queue every few operations, so for over
   400,000 operations the scheduler runs its hang check and then either
   wakes a due sleeper or jumps the clock, until the slow sleeper has
   woken and the stop raises out of a handler.  Those paths must stay
   flat too: a non-tail [schedule] on either branch overflows here. *)

module Vm = Raceguard_vm
module Engine = Vm.Engine
module Api = Vm.Api
module Loc = Raceguard_util.Loc

let loc = Loc.v "stack_flat.ml" "worker" 1
let rounds = 2000
let items = 25
let min_ops = 1_000_000
let failing_per_round = 4

let misuses = ref 0

let round () =
  let m = Api.Mutex.create ~loc "m" in
  let cv = Api.Cond.create ~loc "cv" in
  let pending = Api.alloc ~loc 1 in
  let producer () =
    for i = 1 to items do
      Api.Mutex.lock ~loc m;
      Api.write ~loc pending (Api.read ~loc pending + 1);
      Api.Cond.signal ~loc cv;
      Api.Mutex.unlock ~loc m;
      if i mod 8 = 0 then Api.sleep 3
    done
  in
  let consumer () =
    for _ = 1 to items do
      Api.Mutex.lock ~loc m;
      while Api.read ~loc pending = 0 do
        Api.Cond.wait ~loc cv m
      done;
      Api.write ~loc pending (Api.read ~loc pending - 1);
      Api.Mutex.unlock ~loc m;
      try Api.Mutex.unlock ~loc m with Engine.Misuse _ -> incr misuses
    done
  in
  let spawn name body = Api.spawn ~loc ~name body in
  let failing () = Api.Mutex.unlock ~loc m in
  let ts =
    [ spawn "p1" producer; spawn "c1" consumer; spawn "p2" producer; spawn "c2" consumer ]
    @ List.init failing_per_round (fun _ -> spawn "f" failing)
  in
  List.iter (Api.join ~loc) ts;
  Api.free ~loc pending

let min_hung_ops = 400_000

let hung () =
  let m = Api.Mutex.create ~loc "hm" in
  let cv = Api.Cond.create ~loc "hcv" in
  let stop = Api.alloc ~loc 1 in
  let daemon period () =
    while Api.read ~loc stop = 0 do
      Api.sleep period
    done
  in
  let ds = List.map (fun period -> Api.spawn ~loc ~name:"daemon" (daemon period)) [ 3; 4; 1_000_000 ] in
  Api.join ~loc (Api.spawn ~loc ~name:"signaller" (fun () -> Api.Cond.signal ~loc cv));
  let waiter =
    Api.spawn ~loc ~name:"waiter" (fun () ->
        Api.Mutex.lock ~loc m;
        Api.Cond.wait ~loc cv m)
  in
  Api.join ~loc waiter;
  Api.write ~loc stop 1;
  List.iter (Api.join ~loc) ds

let () =
  let vm = Engine.create ~config:{ Engine.default_config with seed = 11 } () in
  let events = ref 0 in
  Engine.add_tool vm (Vm.Tool.of_fn "count" (fun _ -> incr events));
  let o = Engine.run vm (fun () -> for _ = 1 to rounds do round () done) in
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("stack_flat: " ^ s); exit 1) fmt in
  (match o.deadlock with Some d -> fail "%s" (Fmt.str "%a" Engine.pp_deadlock d) | None -> ());
  List.iter
    (fun (tid, name, e) ->
      match e with
      | Engine.Misuse _ when name = "f" -> ()
      | e -> fail "thread %d (%s) raised %s" tid name (Printexc.to_string e))
    o.failures;
  let failed = List.length o.failures in
  if failed <> rounds * failing_per_round then fail "%d failed threads, want %d" failed (rounds * failing_per_round);
  if o.stats.ops_executed < min_ops then fail "only %d ops, want >= %d" o.stats.ops_executed min_ops;
  if !misuses <> rounds * 2 * items then fail "%d caught misuses, want %d" !misuses (rounds * 2 * items);
  if !events = 0 then fail "no events dispatched";
  let o = Engine.run (Engine.create ~config:{ Engine.default_config with seed = 11 } ()) hung in
  if Engine.stop_of o <> Engine.Hang then fail "hung run stopped as %s" (Engine.stop_name (Engine.stop_of o));
  if o.stats.ops_executed < min_hung_ops then
    fail "hung run: only %d ops, want >= %d" o.stats.ops_executed min_hung_ops
