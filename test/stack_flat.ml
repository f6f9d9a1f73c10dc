(* The scheduler's tail-call invariant.  test/dune runs this program
   under OCAMLRUNPARAM=l=8192, a 64 KiB limit on every OCaml stack: the
   carrier's and each VM thread's fiber (a 100k-deep non-tail recursion
   overflows it).  A VM operation runs on the calling thread's fiber,
   and control comes back by one of these paths:

   - direct return: the operation's scheduling decision picks the
     calling thread again, and the call returns without suspending;
   - switch: the decision picks another thread; the thread performs
     [Suspend], and its handler resumes the pick;
   - blocking suspension: a contended mutex, a cond wait, a join or a
     sleep suspends the thread, and its handler calls [schedule];
   - [retc]/[exnc]: the thread finishes, normally or by an uncaught
     [Misuse], and its handler calls [schedule];
   - the budget and abort exits: the op budget runs out, or a tool
     raises, and the thread's [Abort] handler raises out of the run (as
     [schedule] raises the hang stop).

   Every handler resumes with a tail call, so the carrier stack stays
   flat; if any resume path stopped being one (a [schedule] wrapped in a
   [try], a [continue] whose result is used), the stack would grow by a
   frame per operation and overflow long before the million operations
   below complete.

   The workload takes every path: mutex handoffs under contention, cond
   wait/signal, sleeps, spawn and join (fresh threads start from inside
   a handler), a [Misuse] that the thread catches (raised in the thread
   itself), and thread exit, both normal and by an uncaught [Misuse].
   Start and exit run once per thread, so 8,000 threads take each exit
   path: enough for one leaked frame per thread to overflow as well.
   One round runs again with HWLC+DR attached and must warn of the
   producers' unlocked writes: tools run on each thread's fiber, so a
   detector's frames, its warnings' included, must fit in 64 KiB too.
   Two more runs of the rounds stop 300,000 operations in, at the op
   budget and at a tool's exception.

   Another run hangs: main joins a thread waiting on a condition
   variable whose only signaller has finished, while three daemons poll
   a stop flag with sleeps of 3, 4 and 1,000,000 ticks.  The short
   sleepers empty the ready queue every few operations, so for over
   400,000 operations the scheduler runs its hang check and then either
   wakes a due sleeper or jumps the clock, until the slow sleeper has
   woken and the stop raises out of a handler.  Those paths must stay
   flat too: a non-tail [schedule] on either branch overflows here.

   Last, the two parsers that recurse once per nesting level must fail
   closed on this stack.  The deepest JSON document accepted (512
   nested arrays) parses, and 200,000 unclosed brackets are an [Error],
   not a [Stack_overflow].  A MiniC++ program nested exactly
   [Parser.max_depth] levels deep parses and passes [Check.check_all]
   (nested calls are the costliest level), while one level more and
   200,000 parentheses are a [Parser.Error].  Each kind of level is
   pinned: calls, parentheses, blocks, and the flat chains whose trees
   are as deep as they are long (binary operators, field selections,
   unary operators, else-if links). *)

module Vm = Raceguard_vm
module Engine = Vm.Engine
module Api = Vm.Api
module Loc = Raceguard_util.Loc
module Helgrind = Raceguard_detector.Helgrind

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
  let last = Api.alloc ~loc 1 in
  let producer () =
    for i = 1 to items do
      Api.Mutex.lock ~loc m;
      Api.write ~loc pending (Api.read ~loc pending + 1);
      Api.Cond.signal ~loc cv;
      Api.Mutex.unlock ~loc m;
      (* both producers, no lock: the race a detector reports *)
      Api.write ~loc last i;
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
  Api.free ~loc pending;
  Api.free ~loc last

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
  let detector = Helgrind.create Helgrind.hwlc_dr in
  let vm = Engine.create ~config:{ Engine.default_config with seed = 11 } () in
  Engine.add_tool vm (Helgrind.tool detector);
  let o = Engine.run vm round in
  if Engine.stop_of o <> Engine.Clean then fail "detector round stopped as %s" (Engine.stop_name (Engine.stop_of o));
  if Helgrind.location_count detector = 0 then fail "HWLC+DR warned of no race in a round";
  let rounds () = for _ = 1 to rounds do round () done in
  let stop_at = 300_000 in
  let o = Engine.run (Engine.create ~config:{ Engine.default_config with seed = 11; max_ops = stop_at } ()) rounds in
  if Engine.stop_of o <> Engine.Op_budget then fail "budget run stopped as %s" (Engine.stop_name (Engine.stop_of o));
  let vm = Engine.create ~config:{ Engine.default_config with seed = 11 } () in
  let seen = ref 0 in
  Engine.add_tool vm (Vm.Tool.of_fn "abort" (fun _ -> incr seen; if !seen = stop_at then raise Exit));
  (match Engine.run vm rounds with
  | _ -> fail "a tool's exception did not stop the run"
  | exception Exit -> ());
  let o = Engine.run (Engine.create ~config:{ Engine.default_config with seed = 11 } ()) hung in
  if Engine.stop_of o <> Engine.Hang then fail "hung run stopped as %s" (Engine.stop_name (Engine.stop_of o));
  if o.stats.ops_executed < min_hung_ops then
    fail "hung run: only %d ops, want >= %d" o.stats.ops_executed min_hung_ops;
  let module Json = Raceguard_obs.Json in
  if Result.is_error (Json.parse (String.make 512 '[' ^ String.make 512 ']')) then
    fail "512 nested arrays did not parse";
  (match Json.parse (String.make 200_000 '[') with
  | Error _ -> ()
  | Ok _ -> fail "200,000 unclosed brackets parsed"
  | exception e -> fail "200,000 unclosed brackets raised %s" (Printexc.to_string e));
  let module P = Raceguard_minicc.Parser in
  let rep n s = String.concat "" (List.init n (fun _ -> s)) in
  (* [levels] deep: main's body block, then [levels - 1] nested levels *)
  let programs levels =
    let n = levels - 1 in
    [
      ("calls", "fn f(x) { return x; } fn main() { return " ^ rep n "f(" ^ "1" ^ rep n ")" ^ "; }");
      ("parentheses", "fn main() { return " ^ rep n "(" ^ "1" ^ rep n ")" ^ "; }");
      ("blocks", "fn main() { " ^ rep n "{ " ^ rep n "} " ^ "}");
      ("binary chain", "fn main() { return 1" ^ rep n " + 1" ^ "; }");
      ("field chain", "class N { var next; } fn main() { var p = new N(); return p" ^ rep n ".next" ^ "; }");
      ("unary minuses", "fn main() { return " ^ rep n "- " ^ "1; }");
      (* [n] ifs: [n - 1] else-if links, then the last if's block *)
      ("else-if chain", "fn main() { if (1) { }" ^ rep (n - 1) " else if (1) { }" ^ " }");
    ]
  in
  List.iter
    (fun (shape, src) ->
      match Raceguard_minicc.Check.check_all (P.parse_string ~file:"deep.mcc" src) with
      | [] -> ()
      | (m, _) :: _ -> fail "%s %d deep: %s" shape P.max_depth m
      | exception e -> fail "%s %d deep raised %s" shape P.max_depth (Printexc.to_string e))
    (programs P.max_depth);
  List.iter
    (fun (shape, src) ->
      match P.parse_string ~file:"deep.mcc" src with
      | exception P.Error _ -> ()
      | exception e -> fail "%s raised %s" shape (Printexc.to_string e)
      | _ -> fail "%s parsed" shape)
    (("200,000 parentheses", "fn main() { return " ^ String.make 200_000 '(' ^ "1; }")
    :: List.map (fun (shape, src) -> (Printf.sprintf "%s %d deep" shape (P.max_depth + 1), src)) (programs (P.max_depth + 1)))
