(* Tests pinning the hot-path optimisations:

   - properties: the interned {!Lockset} operations agree with the
     naive sorted-set reference implementation, and interning gives
     physical equality for equal sets;
   - fidelity: the per-word shadow fast path produces byte-identical
     reports to the full Figure-1 state machine, on the example
     MiniC++ programs and on every SIP test case. *)

module Vm = Raceguard_vm
module Engine = Vm.Engine
module M = Raceguard_minicc
module Sip = Raceguard_sip
module R = Raceguard
module Det = Raceguard_detector
module Ls = Det.Lockset
module Iss = Raceguard_util.Int_sorted_set

(* --- lockset vs naive reference ---------------------------------------- *)

(* lock uids in real runs are small ints; keep the generated universe
   small so intersections are non-trivially non-empty *)
let gen_elts = QCheck2.Gen.(list_size (int_bound 8) (int_bound 20))

let naive l = Iss.of_list l

let listed ls =
  match Ls.to_list ls with
  | Some l -> l
  | None -> Alcotest.fail "finite lockset rendered as top"

let qc_inter_agrees_with_naive =
  QCheck2.Test.make ~name:"interned inter agrees with naive sets" ~count:300
    QCheck2.Gen.(pair gen_elts gen_elts)
    (fun (l1, l2) ->
      let a = Ls.of_list l1 and b = Ls.of_list l2 in
      listed (Ls.inter a b) = Iss.to_list (Iss.inter (naive l1) (naive l2)))

let qc_union_agrees_with_naive =
  QCheck2.Test.make ~name:"interned union agrees with naive sets" ~count:300
    QCheck2.Gen.(pair gen_elts gen_elts)
    (fun (l1, l2) ->
      let a = Ls.of_list l1 and b = Ls.of_list l2 in
      listed (Ls.union a b) = Iss.to_list (Iss.union (naive l1) (naive l2)))

let qc_add_remove_agree_with_naive =
  QCheck2.Test.make ~name:"interned add/remove agree with naive sets" ~count:300
    QCheck2.Gen.(pair gen_elts (int_bound 20))
    (fun (l, x) ->
      let a = Ls.of_list l in
      listed (Ls.add x a) = Iss.to_list (Iss.add x (naive l))
      && listed (Ls.remove x a) = Iss.to_list (Iss.remove x (naive l))
      && Ls.mem x a = Iss.mem x (naive l)
      && Ls.cardinal a = Iss.cardinal (naive l))

let qc_interning_gives_physical_equality =
  QCheck2.Test.make ~name:"equal sets intern to the same value" ~count:300 gen_elts
    (fun l ->
      (* order- and duplicate-insensitive, and memoised ops return the
         physically identical interned value every time *)
      Ls.of_list l == Ls.of_list (List.rev l @ l)
      && Ls.inter (Ls.of_list l) Ls.top == Ls.of_list l
      &&
      let a = Ls.of_list l and b = Ls.of_list (List.rev l) in
      Ls.inter a b == Ls.inter a b && Ls.equal a b)

(* --- fast-path fidelity on the example programs ------------------------- *)

let slow_hwlc_dr = { Det.Helgrind.hwlc_dr with fast_path = false }

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* run [file] under [cfg]; return every report occurrence rendered in
   full plus the fast-path hit counter *)
(* one Helgrind run's count of a [detector.helgrind.*] metric: its delta
   over the run, which is this detector's alone (metrics are
   domain-local and the run attaches one detector) *)
let helgrind_count ~before name =
  let delta = Raceguard_obs.Metrics.(diff ~before (snapshot ())) in
  Option.value ~default:0 (Raceguard_obs.Metrics.find_counter delta ("detector.helgrind." ^ name))

let run_mcc ~seed cfg file =
  let interp, _pretty, _n = M.Interp.compile ~annotate:true ~file (read_file file) in
  let reports = ref [] in
  let h = Det.Helgrind.create ~on_report:(fun r -> reports := r :: !reports) cfg in
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  Engine.add_tool vm (Det.Helgrind.tool h);
  let before = Raceguard_obs.Metrics.snapshot () in
  let outcome = Engine.run vm (fun () -> M.Interp.run_main interp) in
  (match outcome.failures with
  | [] -> ()
  | (_, name, e) :: _ -> Alcotest.failf "thread %s raised %s" name (Printexc.to_string e));
  (List.rev_map (Fmt.str "%a" Det.Report.pp) !reports, helgrind_count ~before "fast_path_hits")

let test_mcc_fast_path_identical file () =
  let path = "../examples/programs/" ^ file in
  List.iter
    (fun seed ->
      let fast, hits = run_mcc ~seed Det.Helgrind.hwlc_dr path in
      let slow, slow_hits = run_mcc ~seed slow_hwlc_dr path in
      Alcotest.(check (list string))
        (Printf.sprintf "%s seed %d: byte-identical reports" file seed)
        slow fast;
      Alcotest.(check int) "fast path disabled counts nothing" 0 slow_hits;
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %d: fast path engaged" file seed)
        true (hits > 0))
    [ 1; 7; 11 ]

(* --- fast-path fidelity on the SIP test cases --------------------------- *)

let run_sip ~seed cfg tc =
  let reports = ref [] in
  let h = Det.Helgrind.create ~on_report:(fun r -> reports := r :: !reports) cfg in
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  Engine.add_tool vm (Det.Helgrind.tool h);
  let transport = Sip.Transport.create () in
  let outcome =
    Engine.run vm (fun () ->
        ignore
          (Sip.Workload.run_test_case ~transport ~server_config:R.Runner.default.server tc ()))
  in
  (match outcome.failures with
  | [] -> ()
  | (_, name, e) :: _ -> Alcotest.failf "thread %s raised %s" name (Printexc.to_string e));
  List.rev_map (Fmt.str "%a" Det.Report.pp) !reports

let test_sip_fast_path_identical () =
  List.iter
    (fun tc ->
      let fast = run_sip ~seed:7 Det.Helgrind.hwlc_dr tc in
      let slow = run_sip ~seed:7 slow_hwlc_dr tc in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: byte-identical reports" tc.Sip.Workload.tc_name)
        slow fast)
    Sip.Workload.all_test_cases

(* the other stateful configurations take different Figure-1 paths;
   make sure the short-circuit is faithful for them too *)
let test_sip_fast_path_other_configs () =
  List.iter
    (fun cfg ->
      let slow_cfg = { cfg with Det.Helgrind.fast_path = false } in
      List.iter
        (fun tc ->
          let fast = run_sip ~seed:3 cfg tc in
          let slow = run_sip ~seed:3 slow_cfg tc in
          Alcotest.(check (list string))
            (Fmt.str "%a/%s: byte-identical reports" Det.Helgrind.pp_config_name cfg
               tc.Sip.Workload.tc_name)
            slow fast)
        [ Sip.Workload.t1; Sip.Workload.t4; Sip.Workload.t7 ])
    [ Det.Helgrind.original; Det.Helgrind.hwlc; Det.Helgrind.pure_eraser ]

let suite =
  ( "fastpath",
    [
      QCheck_alcotest.to_alcotest qc_inter_agrees_with_naive;
      QCheck_alcotest.to_alcotest qc_union_agrees_with_naive;
      QCheck_alcotest.to_alcotest qc_add_remove_agree_with_naive;
      QCheck_alcotest.to_alcotest qc_interning_gives_physical_equality;
      Alcotest.test_case "racy_counter.mcc reports identical" `Quick
        (test_mcc_fast_path_identical "racy_counter.mcc");
      Alcotest.test_case "refcount.mcc reports identical" `Quick
        (test_mcc_fast_path_identical "refcount.mcc");
      Alcotest.test_case "SIP T1-T8 reports identical" `Quick test_sip_fast_path_identical;
      Alcotest.test_case "other configs identical on T1/T4/T7" `Quick
        test_sip_fast_path_other_configs;
    ] )
