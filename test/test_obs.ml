(* Tests for the observability layer:

   - properties: counter/gauge merge is associative and commutative
     with [empty] as identity, snapshotting one registry that saw all
     observations equals merging per-registry snapshots, and the two
     kinds keep their merge and diff rules in their shared slot table;
   - the ring tracer's JSON export round-trips through our own parser,
     with sampling and overwrite accounting intact;
   - warning provenance is byte-identical with the shadow fast path on
     or off (the histories only record genuine state changes). *)

module Obs = Raceguard_obs
module Json = Obs.Json
module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Vm = Raceguard_vm
module Engine = Vm.Engine
module Sip = Raceguard_sip
module R = Raceguard
module Det = Raceguard_detector

(* --- metrics merge properties ------------------------------------------ *)

(* one registry per sample list: a counter that adds the observations
   and a gauge that keeps their high-water mark, so a combined run's
   level is the max that merge takes *)
let snapshot_of xs =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "test.count" in
  let g = Metrics.gauge ~registry:r "test.peak" in
  List.iter
    (fun x ->
      Metrics.add c x;
      Metrics.set g (max x (Metrics.gauge_value g)))
    xs;
  Metrics.snapshot ~registry:r ()

let gen_obs = QCheck2.Gen.(list_size (int_bound 40) (int_bound 100_000))

let qc_merge_assoc =
  QCheck2.Test.make ~name:"snapshot merge is associative" ~count:200
    QCheck2.Gen.(triple gen_obs gen_obs gen_obs)
    (fun (a, b, c) ->
      let sa = snapshot_of a and sb = snapshot_of b and sc = snapshot_of c in
      Metrics.merge sa (Metrics.merge sb sc) = Metrics.merge (Metrics.merge sa sb) sc)

let qc_merge_comm =
  QCheck2.Test.make ~name:"snapshot merge is commutative" ~count:200
    QCheck2.Gen.(pair gen_obs gen_obs)
    (fun (a, b) ->
      let sa = snapshot_of a and sb = snapshot_of b in
      Metrics.merge sa sb = Metrics.merge sb sa)

let qc_merge_identity =
  QCheck2.Test.make ~name:"empty is the merge identity" ~count:200 gen_obs (fun a ->
      let sa = snapshot_of a in
      Metrics.merge Metrics.empty sa = sa && Metrics.merge sa Metrics.empty = sa)

let qc_snapshot_after_merge =
  QCheck2.Test.make ~name:"snapshot of combined run = merged snapshots" ~count:200
    QCheck2.Gen.(pair gen_obs gen_obs)
    (fun (a, b) ->
      snapshot_of (a @ b) = Metrics.merge (snapshot_of a) (snapshot_of b))

let qc_diff_recovers =
  QCheck2.Test.make ~name:"diff after merge recovers the increment" ~count:200
    QCheck2.Gen.(pair gen_obs gen_obs)
    (fun (a, b) ->
      (* (a merged b) diffed against a: b's counters, the merged level *)
      let sa = snapshot_of a and sb = snapshot_of b in
      let after = Metrics.merge sa sb in
      Metrics.diff ~before:sa after = { sb with s_gauges = after.s_gauges })

(* Counters and gauges registered alternately, so the kinds interleave
   in the slot table; each op bumps a counter or sets a gauge.  The
   second component is false if a counter bump moved a gauge. *)
let slots_after ops =
  let r = Metrics.create () in
  let c0 = Metrics.counter ~registry:r "t.c0" in
  let g0 = Metrics.gauge ~registry:r "t.g0" in
  let c1 = Metrics.counter ~registry:r "t.c1" in
  let g1 = Metrics.gauge ~registry:r "t.g1" in
  let levels () = (Metrics.gauge_value g0, Metrics.gauge_value g1) in
  let still = ref true in
  List.iter
    (fun (is_set, first, v) ->
      if is_set then Metrics.set (if first then g0 else g1) v
      else begin
        let before = levels () in
        Metrics.add (if first then c0 else c1) v;
        if levels () <> before then still := false
      end)
    ops;
  (Metrics.snapshot ~registry:r (), !still)

let gen_ops = QCheck2.Gen.(list_size (int_bound 40) (triple bool bool (int_bound 100_000)))

let qc_gauge_rules =
  QCheck2.Test.make ~name:"gauges: merge keeps the max, diff the after level" ~count:200
    QCheck2.Gen.(pair gen_ops gen_ops)
    (fun (a, b) ->
      let sa, still_a = slots_after a in
      let sb, still_b = slots_after b in
      let level s name = Option.get (Metrics.find_gauge s name) in
      still_a && still_b
      && List.for_all
           (fun name ->
             Metrics.find_gauge (Metrics.merge sa sb) name
             = Some (max (level sa name) (level sb name))
             && Metrics.find_gauge (Metrics.diff ~before:sa sb) name = Some (level sb name))
           [ "t.g0"; "t.g1" ])

let test_duplicate_name () =
  let r = Metrics.create () in
  ignore (Metrics.counter ~registry:r "dup.c");
  ignore (Metrics.gauge ~registry:r "dup.g");
  let dup name = Invalid_argument (Printf.sprintf "Obs.Metrics: duplicate instrument %S" name) in
  Alcotest.check_raises "counter, then counter" (dup "dup.c") (fun () ->
      ignore (Metrics.counter ~registry:r "dup.c"));
  Alcotest.check_raises "gauge, then gauge" (dup "dup.g") (fun () ->
      ignore (Metrics.gauge ~registry:r "dup.g"));
  Alcotest.check_raises "counter, then gauge" (dup "dup.c") (fun () ->
      ignore (Metrics.gauge ~registry:r "dup.c"));
  Alcotest.check_raises "gauge, then counter" (dup "dup.g") (fun () ->
      ignore (Metrics.counter ~registry:r "dup.g"));
  ignore (Metrics.counter ~registry:(Metrics.create ()) "dup.c")

(* --- trace export round-trip ------------------------------------------- *)

let get_exn = function Ok v -> v | Error e -> Alcotest.failf "JSON parse error: %s" e

let member_exn name j =
  match Json.member name j with Some v -> v | None -> Alcotest.failf "missing %S" name

let test_trace_roundtrip () =
  let t = Trace.create ~capacity:8 () in
  for i = 1 to 5 do
    Trace.emit t ~ts:(i * 10) ~tid:i ~name:(Printf.sprintf "ev%d" i) ~cat:"vm"
      ~args:[ ("i", Json.int i); ("label", Json.Str "x\"y") ]
      ()
  done;
  let j = get_exn (Json.parse (Trace.to_string t)) in
  let events = Option.get (Json.to_list_opt (member_exn "traceEvents" j)) in
  Alcotest.(check int) "all five events exported" 5 (List.length events);
  List.iteri
    (fun i e ->
      Alcotest.(check (option string))
        "name survives" (Some (Printf.sprintf "ev%d" (i + 1)))
        (Json.to_string_opt (member_exn "name" e));
      Alcotest.(check (option (float 0.)))
        "ts survives"
        (Some (float_of_int ((i + 1) * 10)))
        (Json.to_float_opt (member_exn "ts" e));
      let args = member_exn "args" e in
      Alcotest.(check (option string))
        "escaped arg string survives" (Some "x\"y")
        (Json.to_string_opt (member_exn "label" args)))
    events;
  let other = member_exn "otherData" j in
  Alcotest.(check (option (float 0.)))
    "offered recorded in metadata" (Some 5.)
    (Json.to_float_opt (member_exn "offered" other))

let test_trace_ring_overwrites_oldest () =
  let t = Trace.create ~capacity:8 () in
  for i = 1 to 20 do
    Trace.emit t ~ts:i ~tid:0 ~name:"e" ~cat:"vm" ()
  done;
  Alcotest.(check int) "offered" 20 (Trace.offered t);
  Alcotest.(check int) "recorded counts every write" 20 (Trace.recorded t);
  Alcotest.(check int) "dropped counts the overwritten" 12 (Trace.dropped t);
  Alcotest.(check int) "live records cap at capacity" 8 (List.length (Trace.records t));
  Alcotest.(check (list int))
    "keeps the tail, oldest first"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ]
    (List.map (fun (r : Trace.record) -> r.ts) (Trace.records t))

let test_trace_wrap_monotonic_export () =
  (* merged event sources can offer out-of-order timestamps; after the
     ring wraps, the Chrome export must still come out in monotonic ts
     order (trace viewers silently drop unsorted events) *)
  let t = Trace.create ~capacity:4 () in
  List.iter (fun ts -> Trace.emit t ~ts ~tid:0 ~name:"e" ~cat:"vm" ()) [ 5; 1; 9; 3; 7; 2 ];
  (* ring keeps the last four offers: 9, 3, 7, 2 *)
  let ts_of rs = List.map (fun (r : Trace.record) -> r.ts) rs in
  Alcotest.(check (list int)) "records sorted by ts after wrap" [ 2; 3; 7; 9 ]
    (ts_of (Trace.records t));
  let j = get_exn (Json.parse (Trace.to_string t)) in
  let events = Option.get (Json.to_list_opt (member_exn "traceEvents" j)) in
  let exported =
    List.map (fun e -> Option.get (Json.to_float_opt (member_exn "ts" e))) events
  in
  Alcotest.(check (list (float 0.))) "export is monotonic" [ 2.; 3.; 7.; 9. ] exported

let test_trace_sampling_deterministic () =
  let one () =
    let t = Trace.create ~capacity:64 ~sample:3 () in
    for i = 1 to 10 do
      Trace.emit t ~ts:i ~tid:0 ~name:"e" ~cat:"vm" ()
    done;
    List.map (fun (r : Trace.record) -> r.ts) (Trace.records t)
  in
  let a = one () and b = one () in
  Alcotest.(check (list int)) "same subset both runs" a b;
  Alcotest.(check int) "1-in-3 of ten offers" 4 (List.length a)

let test_metrics_json_parses () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "c.one" in
  let g = Metrics.gauge ~registry:r "g.one" in
  Metrics.add c 41;
  Metrics.incr c;
  Metrics.set g 17;
  let j = get_exn (Json.parse (Json.to_string ~indent:2 (Metrics.to_json (Metrics.snapshot ~registry:r ())))) in
  Alcotest.(check (list string))
    "exactly counters and gauges" [ "counters"; "gauges" ]
    (match j with Json.Obj members -> List.map fst members | _ -> []);
  let counters = member_exn "counters" j in
  Alcotest.(check (option (float 0.)))
    "counter value" (Some 42.)
    (Json.to_float_opt (member_exn "c.one" counters));
  Alcotest.(check (option (float 0.)))
    "gauge value" (Some 17.)
    (Json.to_float_opt (member_exn "g.one" (member_exn "gauges" j)))

let test_json_non_finite () =
  let v = Json.List [ Json.Num nan; Json.Num infinity; Json.Num neg_infinity; Json.Num 1.5 ] in
  Alcotest.(check string)
    "non-finite numbers print as null" "[null,null,null,1.5]" (Json.to_string v);
  Alcotest.(check bool)
    "and parse back" true
    (Json.parse (Json.to_string v) = Ok (Json.List [ Json.Null; Json.Null; Json.Null; Json.Num 1.5 ]))

(* --- the parser fails closed -------------------------------------------- *)

(* Documents the project writes: a scenario step tree (the deepest,
   7 levels), metrics, and escapes of every kind. *)
let project_documents =
  [
    Json.to_string ~indent:2 (R.Scenarios.Scenario.to_json R.Scenarios.t10_rebalance);
    Json.to_string (R.Scenarios.Scenario.to_json R.Scenarios.t9_storm);
    Json.to_string (Metrics.to_json (snapshot_of [ 1; 50; 100_000 ]));
    Json.to_string
      (Json.Obj
         [ ("s", Json.Str "tab\t quote\" nul\000 \xc3\xa9"); ("n", Json.List [ Json.Num (-1.5e-3); Json.Null ]) ]);
  ]

(* a document with 1-3 bytes replaced, inserted or deleted, or cut short *)
let gen_mutated =
  QCheck2.Gen.(
    let* doc = oneofl project_documents in
    let* edits = int_range 1 3 in
    let rec go s k =
      if k = 0 || s = "" then return s
      else
        let* i = int_bound (String.length s - 1) in
        let* ch = oneof [ char; oneofl [ '['; '{'; '"'; '\\'; 'u'; '_'; ','; ':'; '0' ] ] in
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

let qc_parse_fails_closed =
  QCheck2.Test.make ~name:"parse gives Ok or Error on any bytes" ~count:1000 ~print:String.escaped
    QCheck2.Gen.(oneof [ string_size (int_bound 64); gen_mutated ])
    (fun s -> match Json.parse s with Ok _ | Error _ -> true)

let test_json_depth () =
  let nested n = String.make n '[' ^ String.make n ']' in
  Alcotest.(check bool) "512 nested arrays parse" true (Result.is_ok (Json.parse (nested 512)));
  let is_depth_error = function
    | Error e -> String.starts_with ~prefix:"nesting deeper than 512" e
    | Ok _ -> false
  in
  Alcotest.(check bool) "513 are an Error" true (is_depth_error (Json.parse (nested 513)));
  Alcotest.(check bool) "so are 200,000 unclosed ones" true
    (is_depth_error (Json.parse (String.make 200_000 '[')));
  Alcotest.(check bool) "and objects count too" true
    (is_depth_error (Json.parse (String.concat "" (List.init 600 (fun _ -> "{\"k\":")))))

let test_json_unicode_escape () =
  Alcotest.(check bool) "\\u00e9 decodes to UTF-8" true (Json.parse {|"\u00e9\u0041"|} = Ok (Json.Str "\xc3\xa9A"));
  List.iter
    (fun doc -> Alcotest.(check bool) (doc ^ " is an Error") true (Result.is_error (Json.parse doc)))
    [ {|"\u1___"|}; {|"\u_123"|}; {|"\u+123"|}; {|"\u 123"|}; {|"\u12"|}; {|"\u12g4"|} ]

(* RFC 8259 §6: the number grammar, not whatever [float_of_string] takes *)
let test_json_number_grammar () =
  List.iter
    (fun doc -> Alcotest.(check bool) (doc ^ " is an Error") true (Result.is_error (Json.parse doc)))
    [ "+1"; ".5"; "1."; "01"; "-"; "1e"; "1e+"; "--1" ];
  List.iter
    (fun (doc, x) ->
      match Json.parse doc with
      | Ok (Json.Num y) -> Alcotest.(check (float 0.)) doc x y
      | _ -> Alcotest.failf "%s does not parse as a number" doc)
    [ ("0", 0.); ("-0", -0.); ("10", 10.); ("1.5", 1.5); ("-12.5E+2", -1250.); ("1e-3", 1e-3) ]

(* RFC 8259 §7: a surrogate pair is one character; a lone surrogate is none *)
let test_json_surrogates () =
  List.iter
    (fun doc -> Alcotest.(check bool) (doc ^ " is an Error") true (Result.is_error (Json.parse doc)))
    [ {|"\ud800"|}; {|"\udc00"|}; {|"\ud800A"|}; {|"\ud800\u0041"|} ];
  Alcotest.(check bool) "a pair decodes to one 4-byte UTF-8 sequence" true
    (Json.parse {|"\ud83d\ude00"|} = Ok (Json.Str "\xf0\x9f\x98\x80"))

(* --- provenance byte-stability across the fast path --------------------- *)

let provenance_cfg base = { base with Det.Helgrind.provenance = true }

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
  List.map
    (fun (r : Det.Report.t) ->
      match r.provenance with
      | None -> Alcotest.fail "provenance missing with config.provenance = true"
      | Some p -> Fmt.str "%a@\n%a" Det.Report.pp r Det.Report.pp_provenance p)
    (List.rev !reports)

let test_provenance_fast_path_stable () =
  List.iter
    (fun cfg ->
      let fast = provenance_cfg cfg in
      let slow = { fast with Det.Helgrind.fast_path = false } in
      List.iter
        (fun tc ->
          let f = run_sip ~seed:7 fast tc in
          let s = run_sip ~seed:7 slow tc in
          Alcotest.(check (list string))
            (Fmt.str "%a/%s: byte-identical provenance" Det.Helgrind.pp_config_name cfg
               tc.Sip.Workload.tc_name)
            s f)
        Sip.Workload.all_test_cases)
    [ Det.Helgrind.hwlc_dr; Det.Helgrind.original ]

let test_provenance_in_explain_json () =
  let x = R.Explain.run (Option.get (R.Explain.test_case_of_string "T4")) in
  let j = get_exn (Json.parse (Json.to_string (R.Explain.to_json x))) in
  let warnings = Option.get (Json.to_list_opt (member_exn "warnings" j)) in
  Alcotest.(check bool) "warnings present" true (warnings <> []);
  List.iter
    (fun w ->
      let report = member_exn "report" w in
      ignore (member_exn "provenance" report))
    warnings;
  let suppressed =
    List.concat_map
      (fun w ->
        List.filter_map Json.to_string_opt
          (Option.get (Json.to_list_opt (member_exn "suppressed_by" w))))
      warnings
  in
  Alcotest.(check bool) "some warning names a suppressing knob" true (suppressed <> [])

let suite =
  ( "obs",
    [
      QCheck_alcotest.to_alcotest qc_merge_assoc;
      QCheck_alcotest.to_alcotest qc_merge_comm;
      QCheck_alcotest.to_alcotest qc_merge_identity;
      QCheck_alcotest.to_alcotest qc_snapshot_after_merge;
      QCheck_alcotest.to_alcotest qc_diff_recovers;
      Alcotest.test_case "trace JSON round-trips" `Quick test_trace_roundtrip;
      Alcotest.test_case "ring overwrites oldest-first" `Quick test_trace_ring_overwrites_oldest;
      Alcotest.test_case "wrapped ring exports monotonic ts" `Quick
        test_trace_wrap_monotonic_export;
      Alcotest.test_case "sampling is deterministic" `Quick test_trace_sampling_deterministic;
      Alcotest.test_case "metrics JSON parses back" `Quick test_metrics_json_parses;
      Alcotest.test_case "non-finite numbers round-trip as null" `Quick test_json_non_finite;
      QCheck_alcotest.to_alcotest qc_parse_fails_closed;
      Alcotest.test_case "nesting depth capped" `Quick test_json_depth;
      Alcotest.test_case "unicode escapes take exactly four hex digits" `Quick test_json_unicode_escape;
      Alcotest.test_case "numbers follow the RFC 8259 grammar" `Quick test_json_number_grammar;
      Alcotest.test_case "surrogate escapes pair or fail" `Quick test_json_surrogates;
      Alcotest.test_case "provenance stable across fast path" `Slow
        test_provenance_fast_path_stable;
      Alcotest.test_case "explain JSON carries provenance + knobs" `Slow
        test_provenance_in_explain_json;
      (* later cases go last: Alcotest addresses a case by its index
         ([test obs 14]), so an insertion renumbers every case after it *)
      QCheck_alcotest.to_alcotest qc_gauge_rules;
      Alcotest.test_case "a name registers once, whatever the kind" `Quick test_duplicate_name;
    ] )
