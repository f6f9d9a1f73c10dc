(* Tests for the happens-before machinery: thread segments (Figure 2),
   vector clocks, the DJIT baseline, the lock-order analysis and
   offline (post-mortem) replay. *)

module Vm = Raceguard_vm
module Engine = Vm.Engine
module Api = Vm.Api
module Det = Raceguard_detector
module Segments = Det.Segments
module Vc = Det.Vector_clock
module Loc = Raceguard_util.Loc

let loc = Loc.v "hb.c" "main" 1

(* --- segments (E4) ---------------------------------------------------- *)

let test_segments_create_edge () =
  let s = Segments.create () in
  Segments.on_thread_start s ~tid:0 ~parent:None;
  let main_before = Segments.seg_of s 0 in
  Segments.on_thread_start s ~tid:1 ~parent:(Some 0);
  let main_after = Segments.seg_of s 0 in
  let child = Segments.seg_of s 1 in
  Alcotest.(check bool) "parent seg before create HB child" true
    (Segments.happens_before s main_before child);
  Alcotest.(check bool) "parent seg before create HB parent after" true
    (Segments.happens_before s main_before main_after);
  Alcotest.(check bool) "child does not HB parent continuation" false
    (Segments.happens_before s child main_after);
  Alcotest.(check bool) "parent continuation does not HB child" false
    (Segments.happens_before s main_after child)

let test_segments_join_edge () =
  let s = Segments.create () in
  Segments.on_thread_start s ~tid:0 ~parent:None;
  Segments.on_thread_start s ~tid:1 ~parent:(Some 0);
  let child_seg = Segments.seg_of s 1 in
  Segments.on_thread_exit s ~tid:1;
  Segments.on_join s ~joiner:0 ~joined:1;
  let after_join = Segments.seg_of s 0 in
  Alcotest.(check bool) "joined thread HB joiner's continuation" true
    (Segments.happens_before s child_seg after_join)

let test_segments_siblings_unordered () =
  let s = Segments.create () in
  Segments.on_thread_start s ~tid:0 ~parent:None;
  Segments.on_thread_start s ~tid:1 ~parent:(Some 0);
  Segments.on_thread_start s ~tid:2 ~parent:(Some 0);
  let a = Segments.seg_of s 1 and b = Segments.seg_of s 2 in
  Alcotest.(check bool) "sibling a !HB b" false (Segments.happens_before s a b);
  Alcotest.(check bool) "sibling b !HB a" false (Segments.happens_before s b a)

let test_segments_reflexive_and_chain () =
  let s = Segments.create () in
  Segments.on_thread_start s ~tid:0 ~parent:None;
  let g0 = Segments.seg_of s 0 in
  Alcotest.(check bool) "reflexive" true (Segments.happens_before s g0 g0);
  (* chain of creates: grandparent HB grandchild *)
  Segments.on_thread_start s ~tid:1 ~parent:(Some 0);
  Segments.on_thread_start s ~tid:2 ~parent:(Some 1);
  let grandchild = Segments.seg_of s 2 in
  Alcotest.(check bool) "transitive through two creates" true
    (Segments.happens_before s g0 grandchild)

(* property: happens_before agrees with naive reachability over random
   create/join histories, and is a partial order *)
let qc_segments_model =
  let gen =
    (* a random history: each step either creates a thread from a live
       one or joins a finished one into a live one *)
    QCheck2.Gen.(list_size (int_bound 20) (pair (int_bound 5) (int_bound 5)))
  in
  QCheck2.Test.make ~name:"segments: HB = reachability, and is a partial order" ~count:200 gen
    (fun steps ->
      let s = Segments.create () in
      Segments.on_thread_start s ~tid:0 ~parent:None;
      let next_tid = ref 1 in
      let live = ref [ 0 ] in
      (* mirror: adjacency for naive reachability *)
      let edges = Hashtbl.create 64 in
      let add_edge a b = Hashtbl.add edges b a in
      let record_segments f =
        (* capture current segments of all live threads before and
           after, adding the program-order edges our implementation
           creates implicitly through parent lists *)
        f ()
      in
      List.iter
        (fun (op, pick) ->
          let tids = !live in
          let victim = List.nth tids (pick mod List.length tids) in
          if op mod 2 = 0 && List.length tids < 6 then begin
            let child = !next_tid in
            incr next_tid;
            let before = Segments.seg_of s victim in
            record_segments (fun () ->
                Segments.on_thread_start s ~tid:child ~parent:(Some victim));
            let after = Segments.seg_of s victim in
            let cseg = Segments.seg_of s child in
            add_edge before after;
            add_edge before cseg;
            live := child :: !live
          end
          else if List.length tids > 1 && victim <> 0 then begin
            (* join victim into thread 0 *)
            let vseg = Segments.seg_of s victim in
            let joiner_before = Segments.seg_of s 0 in
            Segments.on_thread_exit s ~tid:victim;
            Segments.on_join s ~joiner:0 ~joined:victim;
            let joiner_after = Segments.seg_of s 0 in
            add_edge vseg joiner_after;
            add_edge joiner_before joiner_after;
            live := List.filter (fun t -> t <> victim) !live
          end)
        steps;
      let n = Segments.count s in
      let naive_reaches a b =
        (* BFS backwards over the mirror edges *)
        let seen = Hashtbl.create 16 in
        let rec go frontier =
          match frontier with
          | [] -> false
          | x :: rest ->
              if x = a then true
              else if Hashtbl.mem seen x then go rest
              else begin
                Hashtbl.replace seen x ();
                go (Hashtbl.find_all edges x @ rest)
              end
        in
        go [ b ]
      in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          let hb = Segments.happens_before s a b in
          if hb <> (a = b || naive_reaches a b) then ok := false;
          (* antisymmetry *)
          if a <> b && hb && Segments.happens_before s b a then ok := false
        done
      done;
      !ok)

(* --- vector clocks ----------------------------------------------------- *)

let test_vc_basics () =
  let a = Vc.create () in
  Vc.incr a 3;
  Vc.incr a 3;
  Vc.incr a 0;
  Alcotest.(check int) "get" 2 (Vc.get a 3);
  Alcotest.(check int) "get missing" 0 (Vc.get a 7);
  let b = Vc.copy a in
  Vc.incr b 7;
  Alcotest.(check bool) "a <= b" true (Vc.leq a b);
  Alcotest.(check bool) "not b <= a" false (Vc.leq b a);
  Vc.join a b;
  Alcotest.(check bool) "after join b <= a" true (Vc.leq b a)

let qc_vc_join_is_lub =
  let gen = QCheck2.Gen.(list_size (int_bound 8) (int_bound 5)) in
  QCheck2.Test.make ~name:"vector clock join is a least upper bound" ~count:200
    QCheck2.Gen.(pair gen gen)
    (fun (la, lb) ->
      let mk l =
        let v = Vc.create () in
        List.iteri (fun i x -> Vc.set v i x) l;
        v
      in
      let a = mk la and b = mk lb in
      let j = Vc.copy a in
      Vc.join j b;
      Vc.leq a j && Vc.leq b j
      &&
      (* least: any upper bound dominates the join *)
      let ub = Vc.copy a in
      Vc.join ub b;
      Vc.incr ub 0;
      Vc.leq j ub)

(* --- DJIT --------------------------------------------------------------- *)

let run_djit ?(seed = 1) ?first_only f =
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  let d = Det.Djit.create ?first_only () in
  Engine.add_tool vm (Det.Djit.tool d);
  let outcome = Engine.run vm f in
  assert (outcome.failures = []);
  d

let wloc = Loc.v "hb.c" "worker" 2

let unordered_writes () =
  let a = Api.alloc ~loc 1 in
  let w () = Api.write ~loc:wloc a 1 in
  let t1 = Api.spawn ~loc ~name:"a" w in
  let t2 = Api.spawn ~loc ~name:"b" w in
  Api.join ~loc t1;
  Api.join ~loc t2

let test_djit_detects_unordered () =
  let d = run_djit unordered_writes in
  Alcotest.(check bool) "unordered writes reported" true (Det.Djit.location_count d > 0)

let test_djit_mutex_orders () =
  let d =
    run_djit (fun () ->
        let a = Api.alloc ~loc 1 in
        let m = Api.Mutex.create ~loc "m" in
        let w () =
          Api.Mutex.with_lock ~loc:wloc m (fun () ->
              Api.write ~loc:wloc a (Api.read ~loc:wloc a + 1))
        in
        let t1 = Api.spawn ~loc ~name:"a" w in
        let t2 = Api.spawn ~loc ~name:"b" w in
        Api.join ~loc t1;
        Api.join ~loc t2)
  in
  Alcotest.(check int) "mutex-ordered accesses silent" 0 (Det.Djit.location_count d)

let test_djit_join_orders () =
  let d =
    run_djit (fun () ->
        let a = Api.alloc ~loc 1 in
        let t = Api.spawn ~loc ~name:"w" (fun () -> Api.write ~loc:wloc a 1) in
        Api.join ~loc t;
        Api.write ~loc a 2)
  in
  Alcotest.(check int) "join-ordered accesses silent" 0 (Det.Djit.location_count d)

let test_djit_semaphore_orders () =
  let d =
    run_djit (fun () ->
        let a = Api.alloc ~loc 1 in
        let s = Api.Sem.create ~loc ~init:0 "s" in
        let t =
          Api.spawn ~loc ~name:"producer" (fun () ->
              Api.write ~loc:wloc a 1;
              Api.Sem.post ~loc:wloc s)
        in
        Api.Sem.wait ~loc s;
        Api.write ~loc a 2;
        Api.join ~loc t)
  in
  Alcotest.(check int) "semaphore edge orders the accesses" 0 (Det.Djit.location_count d)

let test_djit_first_only () =
  let with_first_only flag =
    let d =
      run_djit ~first_only:flag (fun () ->
          let a = Api.alloc ~loc 1 in
          let w l () =
            Api.write ~loc:l a 1;
            Api.yield ();
            Api.write ~loc:l a 2
          in
          let t1 = Api.spawn ~loc ~name:"a" (w (Loc.v "hb.c" "wa" 3)) in
          let t2 = Api.spawn ~loc ~name:"b" (w (Loc.v "hb.c" "wb" 4)) in
          Api.join ~loc t1;
          Api.join ~loc t2)
    in
    Det.Report.occurrence_count (Det.Djit.collector d)
  in
  Alcotest.(check int) "first_only: one report per location" 1 (with_first_only true);
  Alcotest.(check bool) "without first_only: several" true (with_first_only false >= 1)

(* --- lock order ---------------------------------------------------------- *)

let run_lock_order ?(seed = 1) f =
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  let l = Det.Lock_order.create () in
  Engine.add_tool vm (Det.Lock_order.tool l);
  let outcome = Engine.run vm f in
  (outcome, l)

let test_lock_order_inversion_flagged () =
  let _, l = run_lock_order (Raceguard.Scenarios.lock_order_inversion ~force_deadlock:false) in
  Alcotest.(check int) "one inversion pair" 1 (Det.Lock_order.location_count l)

let test_lock_order_consistent_silent () =
  let _, l =
    run_lock_order (fun () ->
        let a = Api.Mutex.create ~loc "A" and b = Api.Mutex.create ~loc "B" in
        let f () =
          Api.Mutex.lock ~loc a;
          Api.Mutex.lock ~loc b;
          Api.Mutex.unlock ~loc b;
          Api.Mutex.unlock ~loc a
        in
        let t1 = Api.spawn ~loc ~name:"t1" f in
        let t2 = Api.spawn ~loc ~name:"t2" f in
        Api.join ~loc t1;
        Api.join ~loc t2)
  in
  Alcotest.(check int) "consistent order silent" 0 (Det.Lock_order.location_count l)

let test_lock_order_three_cycle () =
  let _, l =
    run_lock_order (fun () ->
        let a = Api.Mutex.create ~loc "A"
        and b = Api.Mutex.create ~loc "B"
        and c = Api.Mutex.create ~loc "C" in
        let pairwise x y () =
          Api.Mutex.lock ~loc x;
          Api.Mutex.lock ~loc y;
          Api.Mutex.unlock ~loc y;
          Api.Mutex.unlock ~loc x
        in
        (* A<B, B<C established sequentially, then C<A closes a 3-cycle *)
        pairwise a b ();
        pairwise b c ();
        pairwise c a ())
  in
  Alcotest.(check bool) "3-cycle flagged" true (Det.Lock_order.location_count l > 0)

(* --- hybrid (lock-set gated by happens-before) ------------------------------ *)

let run_hybrid ?(seed = 1) f =
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  let h = Det.Hybrid.create () in
  Engine.add_tool vm (Det.Hybrid.tool h);
  let outcome = Engine.run vm f in
  assert (outcome.failures = []);
  h

let test_hybrid_reports_real_race () =
  let h = run_hybrid unordered_writes in
  Alcotest.(check bool) "concurrent unlocked writes reported" true
    (Det.Hybrid.location_count h > 0)

let test_hybrid_suppresses_ordered_violation () =
  (* a locking-discipline violation whose accesses are ordered by a
     semaphore: plain Helgrind reports it, the hybrid does not *)
  let program () =
    let a = Api.alloc ~loc 1 in
    let s = Api.Sem.create ~loc ~init:0 "s" in
    let m = Api.Mutex.create ~loc "m" in
    let t =
      Api.spawn ~loc ~name:"first" (fun () ->
          (* writes under the lock *)
          Api.Mutex.with_lock ~loc:wloc m (fun () -> Api.write ~loc:wloc a 1);
          Api.Sem.post ~loc:wloc s)
    in
    Api.Sem.wait ~loc s;
    (* writes without the lock — discipline violation, but strictly
       after the other thread's write *)
    Api.write ~loc a 2;
    Api.join ~loc t
  in
  let plain =
    let vm = Engine.create ~config:Engine.default_config () in
    let h = Det.Helgrind.create Det.Helgrind.hwlc_dr in
    Engine.add_tool vm (Det.Helgrind.tool h);
    let _ = Engine.run vm program in
    Det.Helgrind.location_count h
  in
  let hybrid = Det.Hybrid.location_count (run_hybrid program) in
  Alcotest.(check bool) "lock-set alone reports the violation" true (plain > 0);
  Alcotest.(check int) "hybrid suppresses the ordered violation" 0 hybrid

let test_hybrid_never_exceeds_lockset () =
  List.iter
    (fun seed ->
      let vm = Engine.create ~config:{ Engine.default_config with seed } () in
      let plain = Det.Helgrind.create Det.Helgrind.hwlc_dr in
      let hybrid = Det.Hybrid.create () in
      Engine.add_tool vm (Det.Helgrind.tool plain);
      Engine.add_tool vm (Det.Hybrid.tool hybrid);
      let transport = Raceguard_sip.Transport.create () in
      let _ =
        Engine.run vm (fun () ->
            ignore
              (Raceguard_sip.Workload.run_test_case ~transport
                 ~server_config:Raceguard.Runner.default.server Raceguard_sip.Workload.t3 ()))
      in
      Alcotest.(check bool)
        (Printf.sprintf "hybrid <= lockset (seed %d)" seed)
        true
        (Det.Hybrid.location_count hybrid <= Det.Helgrind.location_count plain))
    [ 1; 4 ]

(* --- RaceTrack-style adaptive detector ([16]) ------------------------------- *)

let run_racetrack ?(seed = 1) f =
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  let r = Det.Racetrack.create () in
  Engine.add_tool vm (Det.Racetrack.tool r);
  let outcome = Engine.run vm f in
  assert (outcome.failures = []);
  r

let test_racetrack_reports_real_race () =
  Alcotest.(check bool) "unordered unlocked writes reported" true
    (Det.Racetrack.location_count (run_racetrack unordered_writes) > 0)

let test_racetrack_accepts_discipline () =
  let program () =
    let a = Api.alloc ~loc 1 in
    let m = Api.Mutex.create ~loc "m" in
    let w () =
      for _ = 1 to 5 do
        Api.Mutex.with_lock ~loc:wloc m (fun () -> Api.write ~loc:wloc a (Api.read ~loc:wloc a + 1))
      done
    in
    let t1 = Api.spawn ~loc ~name:"a" w in
    let t2 = Api.spawn ~loc ~name:"b" w in
    Api.join ~loc t1;
    Api.join ~loc t2
  in
  Alcotest.(check int) "disciplined locking accepted" 0
    (Det.Racetrack.location_count (run_racetrack program))

let test_racetrack_adaptive_reprivatisation () =
  (* handoff through a semaphore: the threadset prunes back to the new
     owner, so its unlocked writes are accepted — where the plain
     lock-set algorithm (without annotations) reports them *)
  let program () =
    let a = Api.alloc ~loc 1 in
    let s = Api.Sem.create ~loc ~init:0 "s" in
    let t =
      Api.spawn ~loc ~name:"producer" (fun () ->
          Api.write ~loc:wloc a 1;
          Api.Sem.post ~loc:wloc s)
    in
    Api.Sem.wait ~loc s;
    Api.write ~loc a 2;
    Api.write ~loc a 3;
    Api.join ~loc t
  in
  Alcotest.(check int) "sem handoff re-privatised" 0
    (Det.Racetrack.location_count (run_racetrack program));
  (* the queue handoff of Figure 11 is likewise accepted without
     needing the HB annotations *)
  Alcotest.(check int) "queue handoff accepted adaptively" 0
    (Det.Racetrack.location_count (run_racetrack Raceguard.Scenarios.handoff_pool))

let test_racetrack_refcount_bus_model () =
  let refcount () =
    let a = Api.alloc ~loc 1 in
    Api.write ~loc a 1;
    let user () =
      ignore (Api.read ~loc:wloc a);
      ignore (Api.atomic_incr ~loc:wloc a);
      ignore (Api.atomic_decr ~loc:wloc a)
    in
    let t1 = Api.spawn ~loc ~name:"a" user in
    let t2 = Api.spawn ~loc ~name:"b" user in
    Api.join ~loc t1;
    Api.join ~loc t2
  in
  Alcotest.(check int) "refcount accepted under rw-lock bus model" 0
    (Det.Racetrack.location_count (run_racetrack refcount))

(* --- §5 extension: HAPPENS_BEFORE/AFTER annotations ------------------------ *)

let test_segments_annotation_edge () =
  let s = Segments.create () in
  Segments.on_thread_start s ~tid:0 ~parent:None;
  Segments.on_thread_start s ~tid:1 ~parent:(Some 0);
  (* make them genuinely concurrent first *)
  let sender_before = Segments.seg_of s 0 in
  Segments.on_happens_before s ~tid:0 ~tag:42;
  let sender_after = Segments.seg_of s 0 in
  let recv_before = Segments.seg_of s 1 in
  Segments.on_happens_after s ~tid:1 ~tag:42;
  let recv_after = Segments.seg_of s 1 in
  Alcotest.(check bool) "sender's past HB receiver's future" true
    (Segments.happens_before s sender_before recv_after);
  Alcotest.(check bool) "sender's future not ordered" false
    (Segments.happens_before s sender_after recv_after);
  Alcotest.(check bool) "receiver's past preserved" true
    (Segments.happens_before s recv_before recv_after);
  (* an AFTER with no matching BEFORE creates no edge *)
  Segments.on_happens_after s ~tid:1 ~tag:99;
  Alcotest.(check bool) "unmatched tag is ignored" false
    (Segments.happens_before s sender_after (Segments.seg_of s 1))

let count_helgrind ?(seed = 1) config f =
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  let h = Det.Helgrind.create config in
  Engine.add_tool vm (Det.Helgrind.tool h);
  let outcome = Engine.run vm f in
  assert (outcome.failures = []);
  Det.Helgrind.location_count h

let test_queue_annotations_remove_pool_fps () =
  Alcotest.(check bool) "pool handoff reported without HB support" true
    (count_helgrind Det.Helgrind.hwlc_dr Raceguard.Scenarios.handoff_pool > 0);
  Alcotest.(check int) "pool handoff silent with HB support" 0
    (count_helgrind Det.Helgrind.hwlc_dr_hb Raceguard.Scenarios.handoff_pool)

let test_hb_does_not_mask_real_races () =
  (* an annotated handoff of object X must not silence a race on an
     unrelated object Y *)
  let program () =
    let loc = Loc.v "hbx.c" "main" 1 in
    let wloc = Loc.v "hbx.c" "worker" 2 in
    let q = Vm.Msg_queue.create ~name:"q" ~capacity:2 () in
    let x = Api.alloc ~loc 1 in
    let y = Api.alloc ~loc 1 in
    Api.write ~loc y 1;
    let worker () =
      let x' = Vm.Msg_queue.get q in
      Api.write ~loc:wloc x' 1;
      (* racy: y was never handed over *)
      Api.write ~loc:wloc y 2
    in
    let t = Api.spawn ~loc ~name:"w" worker in
    Api.write ~loc x 5;
    Vm.Msg_queue.put q x;
    (* concurrent unlocked write to y in main *)
    Api.write ~loc y 3;
    Api.yield ();
    Api.write ~loc y 4;
    Api.join ~loc t
  in
  let detected =
    List.exists
      (fun seed -> count_helgrind ~seed Det.Helgrind.hwlc_dr_hb program > 0)
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "unrelated race still reported" true detected

let test_djit_honours_annotations () =
  let program ~annotated () =
    let loc = Loc.v "hbd.c" "main" 1 in
    let a = Api.alloc ~loc 1 in
    let t =
      Api.spawn ~loc ~name:"w" (fun () ->
          Api.write ~loc:(Loc.v "hbd.c" "w" 2) a 1;
          if annotated then Api.annotate_happens_before ~tag:a)
    in
    Api.sleep 20;
    if annotated then Api.annotate_happens_after ~tag:a;
    Api.write ~loc a 2;
    Api.join ~loc t
  in
  Alcotest.(check int) "annotations order the accesses" 0
    (Det.Djit.location_count (run_djit ~seed:2 (program ~annotated:true)));
  Alcotest.(check bool) "without them the same accesses are reported" true
    (Det.Djit.location_count (run_djit ~seed:2 (program ~annotated:false)) > 0)

(* --- offline replay -------------------------------------------------------- *)

let test_offline_replay_equals_online () =
  let program () =
    let transport = Raceguard_sip.Transport.create () in
    ignore
      (Raceguard_sip.Workload.run_test_case ~transport
         ~server_config:Raceguard.Runner.default.server Raceguard_sip.Workload.t3 ())
  in
  (* online *)
  let vm1 = Engine.create ~config:{ Engine.default_config with seed = 4 } () in
  let online = Det.Helgrind.create Det.Helgrind.hwlc_dr in
  Engine.add_tool vm1 (Det.Helgrind.tool online);
  let _ = Engine.run vm1 program in
  (* offline: record the same seed's trace, replay post mortem *)
  let vm2 = Engine.create ~config:{ Engine.default_config with seed = 4 } () in
  let recorder = Det.Offline.create_recorder () in
  Engine.add_tool vm2 (Det.Offline.tool recorder);
  let _ = Engine.run vm2 program in
  let offline = Det.Helgrind.create Det.Helgrind.hwlc_dr in
  Det.Offline.replay recorder (Det.Helgrind.tool offline);
  Alcotest.(check int) "offline replay reproduces the online locations"
    (Det.Helgrind.location_count online)
    (Det.Helgrind.location_count offline);
  Alcotest.(check bool) "trace is non-trivial" true (Det.Offline.length recorder > 1000);
  Alcotest.(check bool) "log footprint measured" true (Det.Offline.footprint_words recorder > 0)

let suite =
  ( "happens-before",
    [
      Alcotest.test_case "segments: create edge" `Quick test_segments_create_edge;
      Alcotest.test_case "segments: join edge" `Quick test_segments_join_edge;
      Alcotest.test_case "segments: siblings unordered" `Quick test_segments_siblings_unordered;
      Alcotest.test_case "segments: reflexive + chain" `Quick test_segments_reflexive_and_chain;
      QCheck_alcotest.to_alcotest qc_segments_model;
      Alcotest.test_case "vector clock basics" `Quick test_vc_basics;
      QCheck_alcotest.to_alcotest qc_vc_join_is_lub;
      Alcotest.test_case "djit: unordered reported" `Quick test_djit_detects_unordered;
      Alcotest.test_case "djit: mutex orders" `Quick test_djit_mutex_orders;
      Alcotest.test_case "djit: join orders" `Quick test_djit_join_orders;
      Alcotest.test_case "djit: semaphore orders" `Quick test_djit_semaphore_orders;
      Alcotest.test_case "djit: first-only" `Quick test_djit_first_only;
      Alcotest.test_case "lock order: inversion" `Quick test_lock_order_inversion_flagged;
      Alcotest.test_case "lock order: consistent" `Quick test_lock_order_consistent_silent;
      Alcotest.test_case "lock order: 3-cycle" `Quick test_lock_order_three_cycle;
      Alcotest.test_case "hybrid: real race reported" `Quick test_hybrid_reports_real_race;
      Alcotest.test_case "hybrid: ordered violation suppressed" `Quick
        test_hybrid_suppresses_ordered_violation;
      Alcotest.test_case "hybrid: never exceeds lockset" `Quick test_hybrid_never_exceeds_lockset;
      Alcotest.test_case "racetrack: real race reported" `Quick test_racetrack_reports_real_race;
      Alcotest.test_case "racetrack: discipline accepted" `Quick test_racetrack_accepts_discipline;
      Alcotest.test_case "racetrack: adaptive re-privatisation" `Quick
        test_racetrack_adaptive_reprivatisation;
      Alcotest.test_case "racetrack: bus models" `Quick test_racetrack_refcount_bus_model;
      Alcotest.test_case "annotations: segment edges" `Quick test_segments_annotation_edge;
      Alcotest.test_case "annotations: pool FPs removed" `Quick test_queue_annotations_remove_pool_fps;
      Alcotest.test_case "annotations: no masking" `Quick test_hb_does_not_mask_real_races;
      Alcotest.test_case "annotations: djit edges" `Quick test_djit_honours_annotations;
      Alcotest.test_case "offline replay = online" `Quick test_offline_replay_equals_online;
    ] )
