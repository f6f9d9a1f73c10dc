(* Tests pinning the static lockset & thread-escape analysis and its
   feedback paths into the dynamic detector:

   - properties over generated programs: the analysis terminates, is
     deterministic, and stays silent on programs with no shared state;
   - the lint flags racy_counter's race and stays silent on
     guarded_counter;
   - generated suppressions round-trip through the suppression-file
     parser and match the dynamic reports they came from;
   - [set_static_hints] leaves reports byte-identical on every example
     program while never lowering the fast-path hit rate — and raises
     it strictly on a hint-heavy workload;
   - the static/dynamic cross-check confirms racy_counter end to end;
   - [Check.check_all] accumulates every semantic violation. *)

module Vm = Raceguard_vm
module Engine = Vm.Engine
module M = Raceguard_minicc
module R = Raceguard
module Det = Raceguard_detector
module S = M.Static_race

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse_file file =
  let path = "../examples/programs/" ^ file in
  M.Preprocess.parse (M.Preprocess.with_builtins ()) ~file:path (read_file path)

let analyse_file file = S.analyse (parse_file file)

(* --- properties on generated programs ----------------------------------- *)

let qc_analyse_terminates_deterministic =
  QCheck2.Test.make ~name:"static analysis terminates and is deterministic" ~count:100
    Test_minicc_gen.gen_program (fun p ->
      let a = Fmt.str "%a" S.pp_result (S.analyse p) in
      let b = Fmt.str "%a" S.pp_result (S.analyse p) in
      a = b)

let qc_analyse_silent_without_sharing =
  (* generated programs touch only locals and parameters: no object or
     raw word ever escapes, so the lint must stay silent *)
  QCheck2.Test.make ~name:"static analysis silent on share-free programs" ~count:100
    Test_minicc_gen.gen_program (fun p ->
      let r = S.analyse p in
      r.S.warnings = [] && r.S.escaping_allocs = [])

(* --- the two example programs ------------------------------------------- *)

let test_racy_counter_flagged () =
  let r = analyse_file "racy_counter.mcc" in
  Alcotest.(check bool) "has warnings" true (r.S.warnings <> []);
  let in_fn fn (w : S.warning) =
    match w.S.w_stack with l :: _ -> l.Raceguard_util.Loc.func = fn | [] -> false
  in
  Alcotest.(check bool) "flags the unlocked bad_worker write" true
    (List.exists
       (fun w -> w.S.w_kind = Det.Report.Race_write && in_fn "bad_worker" w)
       r.S.warnings);
  Alcotest.(check bool) "every warning names field 'value'" true
    (List.for_all (fun w -> w.S.w_field = "value") r.S.warnings)

let test_guarded_counter_silent () =
  let r = analyse_file "guarded_counter.mcc" in
  Alcotest.(check int) "zero warnings" 0 (List.length r.S.warnings);
  Alcotest.(check bool) "generates suppressions for the guarded accesses" true
    (r.S.suppressions <> []);
  Alcotest.(check bool) "the counter escapes" true (r.S.escaping_allocs <> [])

let test_leaky_escape_flagged () =
  let r = analyse_file "leaky_escape.mcc" in
  Alcotest.(check bool) "write-after-publication flagged in main" true
    (List.exists
       (fun (w : S.warning) ->
         w.S.w_kind = Det.Report.Race_write
         && match w.S.w_stack with l :: _ -> l.Raceguard_util.Loc.func = "main" | [] -> false)
       r.S.warnings);
  Alcotest.(check int) "the scratch buffer is a locality hint" 1
    (List.length r.S.hint_locs)

(* --- suppression round-trip --------------------------------------------- *)

let test_suppressions_roundtrip () =
  let r = analyse_file "guarded_counter.mcc" in
  let rendered = List.map Det.Suppression.to_string r.S.suppressions in
  let reparsed = Det.Suppression.parse_string (String.concat "" rendered) in
  Alcotest.(check int) "same number of suppressions" (List.length r.S.suppressions)
    (List.length reparsed);
  Alcotest.(check (list string))
    "render -> parse -> render is the identity" rendered
    (List.map Det.Suppression.to_string reparsed)

(* --- static hints: fidelity + hit rate ----------------------------------- *)

(* one Helgrind run's count of a [detector.helgrind.*] metric: its delta
   over the run, which is this detector's alone (metrics are
   domain-local and the run attaches one detector) *)
let helgrind_count ~before name =
  let delta = Raceguard_obs.Metrics.(diff ~before (snapshot ())) in
  Option.value ~default:0 (Raceguard_obs.Metrics.find_counter delta ("detector.helgrind." ^ name))

let run_mcc ?(hints = []) ~seed file =
  let path = "../examples/programs/" ^ file in
  let interp, _pretty, _n = M.Interp.compile ~annotate:true ~file:path (read_file path) in
  let reports = ref [] in
  let h = Det.Helgrind.create ~on_report:(fun r -> reports := r :: !reports) Det.Helgrind.hwlc_dr in
  if hints <> [] then Det.Helgrind.set_static_hints h hints;
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  Engine.add_tool vm (Det.Helgrind.tool h);
  let before = Raceguard_obs.Metrics.snapshot () in
  let outcome = Engine.run vm (fun () -> M.Interp.run_main interp) in
  (match outcome.failures with
  | [] -> ()
  | (_, name, e) :: _ -> Alcotest.failf "thread %s raised %s" name (Printexc.to_string e));
  (List.rev_map (Fmt.str "%a" Det.Report.pp) !reports, helgrind_count ~before "fast_path_hits")

let all_examples () =
  Sys.readdir "../examples/programs" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mcc")
  |> List.sort compare

let test_hints_reports_identical () =
  List.iter
    (fun file ->
      let hints = (analyse_file file).S.hint_locs in
      List.iter
        (fun seed ->
          let plain, plain_hits = run_mcc ~seed file in
          let hinted, hinted_hits = run_mcc ~hints ~seed file in
          Alcotest.(check (list string))
            (Printf.sprintf "%s seed %d: byte-identical reports under hints" file seed)
            plain hinted;
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: hit rate never drops" file seed)
            true
            (hinted_hits >= plain_hits))
        [ 1; 7 ])
    (all_examples ())

let hinty_source =
  (* main re-touches a private buffer between spawn/join segment
     advances: without hints the first access per word per pass misses
     the Exclusive fast path on the stale segment stamp *)
  {|
fn worker(k) {
  var i = 0;
  while (i < 10) { i = i + k; }
  return i;
}

fn main() {
  var buf = alloc(16);
  var pass = 0;
  while (pass < 4) {
    var i = 0;
    while (i < 16) {
      store(buf + i, load(buf + i) + pass);
      i = i + 1;
    }
    var t = spawn worker(1);
    join(t);
    pass = pass + 1;
  }
  free(buf);
  return 0;
}
|}

let test_hints_raise_hit_rate () =
  let ast =
    M.Preprocess.parse (M.Preprocess.with_builtins ()) ~file:"hinty.mcc" hinty_source
  in
  let r = S.analyse ast in
  Alcotest.(check int) "one hint site" 1 (List.length r.S.hint_locs);
  let run hints =
    let interp, _, _ = M.Interp.compile ~annotate:true ~file:"hinty.mcc" hinty_source in
    let reports = ref [] in
    let h = Det.Helgrind.create ~on_report:(fun r -> reports := r :: !reports) Det.Helgrind.hwlc_dr in
    if hints <> [] then Det.Helgrind.set_static_hints h hints;
    let vm = Engine.create ~config:{ Engine.default_config with seed = 3 } () in
    Engine.add_tool vm (Det.Helgrind.tool h);
    let before = Raceguard_obs.Metrics.snapshot () in
    ignore (Engine.run vm (fun () -> M.Interp.run_main interp));
    ( List.rev_map (Fmt.str "%a" Det.Report.pp) !reports,
      helgrind_count ~before "fast_path_hits",
      helgrind_count ~before "accesses_checked" )
  in
  let plain_reports, plain_hits, plain_checked = run [] in
  let hinted_reports, hinted_hits, hinted_checked = run r.S.hint_locs in
  Alcotest.(check (list string)) "reports identical" plain_reports hinted_reports;
  Alcotest.(check int) "same accesses checked" plain_checked hinted_checked;
  Alcotest.(check bool)
    (Printf.sprintf "hit rate strictly rises (%d -> %d of %d)" plain_hits hinted_hits
       plain_checked)
    true (hinted_hits > plain_hits)

(* --- static/dynamic cross-check ------------------------------------------ *)

let test_cross_check_racy_counter () =
  let static = analyse_file "racy_counter.mcc" in
  let path = "../examples/programs/racy_counter.mcc" in
  let interp, _, _ = M.Interp.compile ~annotate:true ~file:path (read_file path) in
  let reports = ref [] in
  let h = Det.Helgrind.create ~on_report:(fun r -> reports := r :: !reports) Det.Helgrind.hwlc_dr in
  let vm = Engine.create ~config:{ Engine.default_config with seed = 1 } () in
  Engine.add_tool vm (Det.Helgrind.tool h);
  ignore (Engine.run vm (fun () -> M.Interp.run_main interp));
  let cc = R.Static_dyn.cross_check ~static ~dynamic:(List.rev !reports) in
  Alcotest.(check bool) "some findings confirmed" true (cc.R.Static_dyn.n_confirmed > 0);
  Alcotest.(check int) "every static finding is dynamically witnessed" 0
    cc.R.Static_dyn.n_static_only

(* --- Check.check_all accumulation ----------------------------------------- *)

let test_check_all_accumulates () =
  let src =
    "fn f(a) { return b + c; }\nfn main() { f(1); undefined_fn(2); return 0; }\n"
  in
  let ast =
    M.Preprocess.parse (M.Preprocess.with_builtins ()) ~file:"bad.mcc" src
  in
  let diags = M.Check.check_all ast in
  Alcotest.(check int) "all three violations reported" 3 (List.length diags);
  (match M.Check.check ast with
  | () -> Alcotest.fail "check accepted an invalid program"
  | exception M.Check.Error (msg, _) ->
      Alcotest.(check string) "check raises the first diagnostic" (fst (List.hd diags)) msg);
  let ok = M.Preprocess.parse (M.Preprocess.with_builtins ()) ~file:"ok.mcc"
      "fn main() { return 0; }\n"
  in
  Alcotest.(check int) "well-formed program has no diagnostics" 0
    (List.length (M.Check.check_all ok))

let suite =
  ( "static",
    [
      QCheck_alcotest.to_alcotest qc_analyse_terminates_deterministic;
      QCheck_alcotest.to_alcotest qc_analyse_silent_without_sharing;
      Alcotest.test_case "racy_counter: race flagged statically" `Quick
        test_racy_counter_flagged;
      Alcotest.test_case "guarded_counter: statically silent" `Quick
        test_guarded_counter_silent;
      Alcotest.test_case "leaky_escape: escape-after-publication flagged" `Quick
        test_leaky_escape_flagged;
      Alcotest.test_case "generated suppressions round-trip" `Quick
        test_suppressions_roundtrip;
      Alcotest.test_case "static hints: reports identical on all examples" `Quick
        test_hints_reports_identical;
      Alcotest.test_case "static hints: hit rate strictly rises" `Quick
        test_hints_raise_hit_rate;
      Alcotest.test_case "cross-check confirms racy_counter" `Quick
        test_cross_check_racy_counter;
      Alcotest.test_case "check_all accumulates every violation" `Quick
        test_check_all_accumulates;
    ] )
