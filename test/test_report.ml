(* The report renderer and the digests built on it: the Buffer
   renderer against the Format layout it replaced, the streamed report
   digest against the MD5 of the concatenated stream, also over stacks
   shared, copied and colliding in the renderer's segment cache, the
   attribution hash that verdicts compare, the collector's location
   index against the signature map it replaced, pinned verdict digests,
   and the Helgrind detail memo's invalidation. *)

module Det = Raceguard_detector
module Loc = Raceguard_util.Loc
module Vm = Raceguard_vm
module Sip = Raceguard_sip
module R = Raceguard
open Vm.Event

(* --- the Format layout, kept as the oracle -------------------------- *)

let ref_pp_kind ppf = function
  | Det.Report.Race_write -> Fmt.string ppf "Possible data race writing variable"
  | Race_read -> Fmt.string ppf "Possible data race reading variable"
  | Lock_order -> Fmt.string ppf "Lock order violation (potential deadlock)"

let rec take n = function [] -> [] | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest

let ref_pp_stack ppf stack =
  List.iteri
    (fun i loc -> Fmt.pf ppf "   %s %a@\n" (if i = 0 then "at" else "by") Loc.pp loc)
    stack

let ref_pp ppf (r : Det.Report.t) =
  Fmt.pf ppf "%a at %#x@\n" ref_pp_kind r.kind r.addr;
  ref_pp_stack ppf r.stack;
  (match r.block with
  | Some b ->
      Fmt.pf ppf " Address %#x is %d words inside a block of size %d alloc'd by thread %d@\n"
        r.addr (r.addr - b.b_base) b.b_len b.b_alloc_tid;
      ref_pp_stack ppf (take Det.Report.signature_depth b.b_alloc_stack)
  | None -> ());
  if r.detail <> "" then Fmt.pf ppf " %s@\n" r.detail

let ref_signature r =
  let kind, frames = Det.Report.signature r in
  Fmt.str "%a@%s" ref_pp_kind kind
    (String.concat ";" (List.map (fun l -> Fmt.str "%a" Loc.pp l) frames))

(* --- generated reports ---------------------------------------------- *)

(* names with the characters a format string would treat specially *)
let gen_text =
  QCheck2.Gen.(
    string_size
      ~gen:(oneofl [ 'a'; 'Z'; '0'; '_'; '.'; '/'; '@'; '%'; ' '; ':'; ';'; '('; ')'; '\n' ])
      (int_bound 10))

let gen_int = QCheck2.Gen.(oneof [ return 0; small_nat; nat; int ])

let gen_stack =
  (* up to twice [signature_depth], so alloc stacks get cut *)
  QCheck2.Gen.(
    list_size
      (int_bound (2 * Det.Report.signature_depth))
      (map3 (fun file func line -> Loc.v file func line) gen_text gen_text gen_int))

let gen_report =
  QCheck2.Gen.(
    let* kind = oneofl [ Det.Report.Race_write; Race_read; Lock_order ] in
    let* addr = gen_int in
    let* stack = gen_stack in
    let* detail = oneof [ return ""; gen_text ] in
    let* block =
      opt
        (let* b_base = gen_int in
         let* b_len = gen_int in
         let* b_alloc_tid = small_nat in
         let* b_alloc_stack = gen_stack in
         return { Det.Report.b_base; b_len; b_alloc_tid; b_alloc_stack })
    in
    return
      {
        Det.Report.kind;
        addr;
        tid = 1;
        thread_name = "t";
        stack;
        detail;
        block;
        clock = 0;
        provenance = None;
      })

let print r = String.escaped (Fmt.str "%a" ref_pp r)

let qc_to_string =
  QCheck2.Test.make ~name:"to_string is the Format layout" ~count:500 ~print gen_report
    (fun r -> Det.Report.to_string r = Fmt.str "%a" ref_pp r)

let qc_pp =
  QCheck2.Test.make ~name:"pp is the Format layout, also inside a box" ~count:300 ~print
    gen_report (fun r ->
      Fmt.str "%a" Det.Report.pp r = Fmt.str "%a" ref_pp r
      && Fmt.str "@[<v 3>head@,%a@]" Det.Report.pp r = Fmt.str "@[<v 3>head@,%a@]" ref_pp r)

let qc_signature =
  QCheck2.Test.make ~name:"signature_string is the Format signature" ~count:500 ~print
    gen_report (fun r -> Det.Report.signature_string r = ref_signature r)

(* --- the streamed report digest -------------------------------------- *)

(* The report digest of [rs], added in order *)
let stream_digest rs =
  let d = Det.Offline.Report_digest.create () in
  List.iter (Det.Offline.Report_digest.add d) rs;
  Det.Offline.Report_digest.to_hex d

(* What the report digest hashes, built the direct way *)
let concat_digest rs =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map Det.Report.to_string rs)))

let rendered_length rs =
  List.fold_left (fun acc r -> acc + String.length (Det.Report.to_string r) + 1) (-1) rs

(* the digest hashes at most this many bytes per update *)
let chunk = 65536

let qc_stream =
  QCheck2.Test.make ~name:"streamed digest = MD5 of the concatenated stream" ~count:20
    ~print:(fun rs ->
      Fmt.str "%d reports, %d bytes rendered" (List.length rs) (rendered_length rs))
    QCheck2.Gen.(list_size (int_range 800 1600) gen_report)
    (fun rs ->
      (* every case longer than three chunks *)
      rendered_length rs > 3 * chunk && stream_digest rs = concat_digest rs)

let report ?(stack = [ Loc.v "a.cc" "f" 1 ]) () =
  {
    Det.Report.kind = Race_write;
    addr = 0x1234;
    tid = 1;
    thread_name = "t";
    stack;
    detail = "Previous state: shared RO, no locks";
    block = Some { b_base = 0x1200; b_len = 64; b_alloc_tid = 0; b_alloc_stack = stack };
    clock = 0;
    provenance = None;
  }

let test_stream_fixed () =
  let check name rs = Alcotest.(check string) name (concat_digest rs) (stream_digest rs) in
  Alcotest.(check string) "no occurrences: MD5 of the empty string"
    "d41d8cd98f00b204e9800998ecf8427e" (stream_digest []);
  check "one report" [ report () ];
  check "two reports" [ report (); report () ];
  let deep = report ~stack:(List.init 3000 (fun i -> Loc.v "deep/stack.cc" "Frame::f" i)) () in
  Alcotest.(check bool) "the stack alone renders past a chunk" true
    (String.length (Det.Report.to_string { deep with block = None; detail = "" }) > chunk);
  check "one report longer than a chunk" [ deep ];
  check "around one longer than a chunk" [ report (); deep; report () ]

(* The digest holds one occurrence, never the stream: 16 MiB of
   rendered occurrences must not reach the major heap. *)
let test_stream_bounded () =
  let r = report ~stack:(List.init 12 (fun i -> Loc.v "server/registrar.cc" "Registrar::bind" i)) () in
  let n = (16 * 1024 * 1024 / String.length (Det.Report.to_string r)) + 1 in
  let rs = List.init n (fun _ -> r) in
  Alcotest.(check bool) "at least 16 MiB rendered" true (rendered_length rs >= 16 * 1024 * 1024);
  Gc.minor ();
  let _, _, major_before = Gc.counters () in
  let digest = stream_digest rs in
  let _, _, major_after = Gc.counters () in
  let bytes = (major_after -. major_before) *. float_of_int (Sys.word_size / 8) in
  if bytes >= 1024. *. 1024. then Alcotest.failf "digest added %.0f bytes to the major heap" bytes;
  Alcotest.(check string) "same digest" (concat_digest rs) digest

(* --- the segment cache ------------------------------------------------- *)

(* Frames on two lines, each line under four texts of equal lengths, so
   stacks of the same lines but other files or functions share a cache
   slot and collide on it. *)
let line_frames =
  Array.init 8 (fun i ->
      Loc.v (if i land 1 = 0 then "a.cc" else "b.cc") (if i land 2 = 0 then "f" else "g") (1 + (i lsr 2)))

(* a fresh copy: equal to [stack], sharing none of it *)
let copy stack = List.map (fun (l : Loc.t) -> Loc.v (l.file ^ "") (l.func ^ "") l.line) stack

(* Occurrences whose stack tails and allocation stacks come from a small
   pool of lists: the same list ([==]), an equal copy, or another list
   in the pool, which often has the same first frame or the same lines.
   Pool lists run empty to twice [signature_depth], and a list can be a
   tail in one occurrence and an allocation stack in another. *)
let gen_shared_occurrences =
  QCheck2.Gen.(
    let frame = map (Array.get line_frames) (int_bound 7) in
    let* pool = map Array.of_list (list_size (1 -- 6) (list_size (int_bound (2 * Det.Report.signature_depth)) frame)) in
    let pick = let* i = int_bound (Array.length pool - 1) in oneof [ return pool.(i); return (copy pool.(i)) ] in
    list_size (0 -- 120)
      (let* kind = oneofl [ Det.Report.Race_write; Race_read; Lock_order ] in
       let* addr = small_nat in
       let* stack = oneof [ return []; map2 (fun loc tail -> loc :: tail) frame pick ] in
       let* detail = oneofl [ ""; "Previous state: shared RO, no locks" ] in
       let* block =
         opt
           (let* b_alloc_stack = pick in
            return { Det.Report.b_base = 0; b_len = 8; b_alloc_tid = 0; b_alloc_stack })
       in
       return { Det.Report.kind; addr; tid = 1; thread_name = "t"; stack; detail; block; clock = 0; provenance = None }))

let qc_segment_cache =
  QCheck2.Test.make ~name:"digest with shared, copied and colliding stacks = MD5 of the stream" ~count:300
    ~print:(fun rs -> String.concat "\n" (List.map print rs))
    gen_shared_occurrences (fun rs ->
      (* the Format oracle renders without the cache *)
      let oracle = Digest.to_hex (Digest.string (String.concat "\n" (List.map (Fmt.str "%a" ref_pp) rs))) in
      stream_digest rs = oracle && concat_digest rs = oracle)

(* --- who reported and when ------------------------------------------------ *)

(* The layout leaves out tid, thread name and clock; the attribution
   hash carries them, so a verdict tells the occurrences apart where the
   report digest cannot. *)
let test_attribution () =
  let rs = List.init 5 (fun i -> { (report ()) with tid = i; thread_name = "w" ^ string_of_int i; clock = 10 * i }) in
  let verdict rs =
    let d = Det.Offline.Report_digest.create () in
    List.iter (Det.Offline.Report_digest.add d) rs;
    {
      Det.Offline.v_config = "eraser-pure";
      v_events = 50;
      v_occurrences = List.length rs;
      v_locations = 1;
      v_sig_digest = "-";
      v_report_digest = Det.Offline.Report_digest.to_hex d;
      v_attribution = Det.Offline.Report_digest.attribution d;
    }
  in
  let base = verdict rs in
  Alcotest.(check bool) "a verdict equals itself" true (Det.Offline.verdict_equal base (verdict rs));
  let differs what rs' =
    let v = verdict rs' in
    Alcotest.(check string) (what ^ ": same report digest") base.v_report_digest v.v_report_digest;
    Alcotest.(check bool) (what ^ ": verdicts differ") false (Det.Offline.verdict_equal base v)
  in
  let edit what f = differs what (List.mapi (fun i r -> if i = 2 then f r else r) rs) in
  edit "another tid" (fun r -> { r with tid = 9 });
  edit "another thread name" (fun r -> { r with thread_name = "other" });
  edit "another clock" (fun r -> { r with clock = r.clock + 1 });
  differs "two occurrences swapped" (match rs with a :: b :: rest -> b :: a :: rest | _ -> rs)

(* --- the collector's location index ----------------------------------- *)

(* The collector before the hashed index, kept as the oracle: a map
   from signature to (first occurrence, count), its bindings stably
   sorted by the first occurrence's clock. *)
module Sig_map = Map.Make (struct
  type t = Det.Report.signature

  let compare = Det.Report.compare_signature
end)

let model_locations rs =
  List.fold_left
    (fun m r ->
      Sig_map.update (Det.Report.signature r)
        (function None -> Some (r, 1) | Some (first, n) -> Some (first, n + 1))
        m)
    Sig_map.empty rs
  |> Sig_map.bindings |> List.map snd
  |> List.stable_sort (fun ((a : Det.Report.t), _) (b, _) -> compare a.clock b.clock)

(* Frames from small pools, built afresh each time so that equal frames
   are rarely the same block.  Two files share every line number, so
   hashes collide; frame 4 (the last of the signature) takes one of two
   values, so stacks that differ only there are two locations; frames
   below it never matter. *)
let gen_frame i =
  QCheck2.Gen.(
    if i < Det.Report.signature_depth - 1 then
      map2 (fun file line -> Loc.v file "f" line) (oneofl [ "a.cc"; "b.cc" ]) (int_range 1 2)
    else if i = Det.Report.signature_depth - 1 then map (fun func -> Loc.v "a.cc" func 4) (oneofl [ "g"; "h" ])
    else map (fun line -> Loc.v "deep.cc" "below" line) nat)

let gen_adds =
  QCheck2.Gen.(
    let* n = int_bound 80 in
    let* adds =
      list_repeat n
        (let* kind = oneofl [ Det.Report.Race_write; Race_read; Lock_order ] in
         let* depth = int_bound (Det.Report.signature_depth + 2) in
         let* stack = flatten_l (List.init depth gen_frame) in
         let* clock = int_bound 6 in
         return (kind, stack, clock))
    in
    return
      (List.mapi
         (fun addr (kind, stack, clock) -> { (report ~stack ()) with kind; addr; clock; block = None })
         adds))

let collect rs =
  let c = Det.Report.collector () in
  List.iter (Det.Report.add c) rs;
  c

let same_locations a b = List.equal (fun (r, n) (r', n') -> r == r' && n = n') a b

let qc_locations_model =
  QCheck2.Test.make ~name:"locations: the signature map, stably sorted by clock" ~count:500
    ~print:(fun rs -> Fmt.str "%a" Fmt.(list ~sep:cut string) (List.map Det.Report.signature_string rs))
    gen_adds (fun rs ->
      let c = collect rs and model = model_locations rs in
      same_locations (Det.Report.locations c) model
      && Det.Report.location_count c = List.length model
      && Det.Report.occurrence_count c = List.length rs)

let test_locations_fixed () =
  let stack4 func below = [ Loc.v "a.cc" "f" 1; Loc.v "a.cc" "f" 2; Loc.v "b.cc" "f" 1; Loc.v "a.cc" func 4 ] @ below in
  let at ?(kind = Det.Report.Race_write) ~clock stack = { (report ~stack ()) with kind; clock; addr = clock } in
  let count rs = Det.Report.location_count (collect rs) in
  Alcotest.(check int) "frame 4 differs: two locations" 2
    (count [ at ~clock:0 (stack4 "g" []); at ~clock:1 (stack4 "h" []) ]);
  Alcotest.(check int) "frame 5 differs: one location" 1
    (count [ at ~clock:0 (stack4 "g" [ Loc.v "x.cc" "y" 5 ]); at ~clock:1 (stack4 "g" [ Loc.v "z.cc" "y" 9 ]) ]);
  Alcotest.(check int) "kind differs: two locations" 2
    (count [ at ~clock:0 (stack4 "g" []); at ~kind:Race_read ~clock:1 (stack4 "g" []) ]);
  Alcotest.(check int) "a prefix is another location" 2
    (count [ at ~clock:0 (stack4 "g" []); at ~clock:1 (List.tl (stack4 "g" [])) ]);
  (* by first clock, equal clocks in signature order whatever the
     order of adds; a later add with an earlier clock moves nothing *)
  let tie =
    [
      at ~clock:3 (stack4 "h" []);
      at ~clock:3 (stack4 "g" []);
      at ~clock:1 (stack4 "g" [ Loc.unknown ]);
      at ~kind:Race_read ~clock:2 (stack4 "g" []);
    ]
  in
  Alcotest.(check (list (triple int string int)))
    "first clock, then signature"
    [ (2, "g", 1); (3, "g", 2); (3, "h", 1) ]
    (List.map
       (fun ((r : Det.Report.t), n) -> (r.clock, (List.nth r.stack 3).Loc.func, n))
       (Det.Report.locations (collect tie)));
  Alcotest.(check bool) "as the model orders them" true
    (same_locations (Det.Report.locations (collect tie)) (model_locations tie))

(* 100,000 occurrences of one location, each built afresh: the collector
   keeps the first and a count, so the live heap barely grows *)
let test_collector_holds_no_occurrences () =
  let c = Det.Report.collector () in
  let n = 100_000 in
  let fresh i =
    {
      (report ~stack:[ Loc.v "a.cc" "f" 1; Loc.v "a.cc" "main" 2 ] ()) with
      addr = i;
      clock = i;
      detail = string_of_int i;
    }
  in
  Gc.full_major ();
  let before = (Gc.stat ()).live_words in
  for i = 1 to n do
    Det.Report.add c (fresh i)
  done;
  Gc.full_major ();
  let grown = ((Gc.stat ()).live_words - before) * (Sys.word_size / 8) in
  Alcotest.(check int) "every occurrence counted" n (Det.Report.occurrence_count c);
  Alcotest.(check int) "one location" 1 (Det.Report.location_count c);
  if grown >= 1024 * 1024 then Alcotest.failf "the live heap grew by %d bytes" grown

let test_verdict_needs_digest () =
  Alcotest.(check string) "a digest sink with no occurrences: MD5 of the empty string"
    "d41d8cd98f00b204e9800998ecf8427e"
    (Det.Offline.verdict_of_sink ~events:0 (Det.Offline.sink ~digest:true "eraser-pure")).v_report_digest;
  match Det.Offline.verdict_of_sink ~events:0 (Det.Offline.sink "eraser-pure") with
  | _ -> Alcotest.fail "a verdict of a sink made without ~digest"
  | exception Invalid_argument _ -> ()

(* --- pinned verdict digests ----------------------------------------- *)

(* Live verdicts at seed 7: (test, config, sig_digest, report_digest).
   Live and replayed verdicts share one digest function, so their
   agreement cannot catch a renderer that drifts; these literals can. *)
let seed7_pins =
  [
    ("T2", "helgrind-original", "27f0ebe02e323f9900e41cdc8da80757", "193bb68f189ed122342a9225e1c988fe");
    ("T2", "helgrind-hwlc", "3cb9181b40d21e20d39d3fd04ccd76b1", "a61c97f6d2b61f65eb553fe751f9e928");
    ("T2", "helgrind-hwlc+dr", "b8f03255198c2704fc96b9f117ac4627", "120ad731887c49faf2ab29741c96e020");
    ("T2", "helgrind-hwlc+dr+hb", "991454cea4dd6a488205347f60b3ce3a", "bcede5cb78c6b371c1a95177f8e7f4b1");
    ("T2", "eraser-pure", "a3268100b4d9d63d7e6a3f08bd584e95", "8b942027c80e620810af59b02722d99d");
    ("T2", "djit", "50f32d7fb55d8f49b4e6f3c0f44ed40c", "99658d385e826cd34a732b7f17f13789");
    ("T2", "fasttrack", "50f32d7fb55d8f49b4e6f3c0f44ed40c", "99658d385e826cd34a732b7f17f13789");
    ("T2", "racetrack", "c62dd832c01c741ed9f45673f91e66f3", "deb67308754577cd27deae28e6fc4f93");
    ("T2", "hybrid", "b19633fa239b988401fe73f5b1e382b0", "4cd18234bc50e784b8a3963e1a5e8b94");
    ("T2", "hybrid-epoch", "b19633fa239b988401fe73f5b1e382b0", "4cd18234bc50e784b8a3963e1a5e8b94");
    ("T3", "helgrind-original", "5e92a04ed3e5b210cd8a461f37469922", "6c20b2a1f7f3a54275a1a6081b165832");
    ("T3", "helgrind-hwlc", "5073a2559800d941bfbc1eab25381141", "941c29f736c2c72a41c9e93fdf595d55");
    ("T3", "helgrind-hwlc+dr", "2ec7de8c2be0eb024ccfd963733ee16b", "80c716869ea035545c32120f3f51b1c6");
    ("T3", "helgrind-hwlc+dr+hb", "dad56c06599268866e94e8abd6a29cea", "032d3b8fc6130520eb1b2b8b5fbcf1ef");
    ("T3", "eraser-pure", "c17244058dd03f3d415fdc1613e0f041", "2dd93c9a8724ada734337767352f6af4");
    ("T3", "djit", "d3970daafa2483bc223b6f3697de2202", "aaea108946133cf82a0dcada35206579");
    ("T3", "fasttrack", "d3970daafa2483bc223b6f3697de2202", "aaea108946133cf82a0dcada35206579");
    ("T3", "racetrack", "53b1ec3ce15200d1ab0352157461847d", "d8e253714aeb9fb7270b4dcaeaf95118");
    ("T3", "hybrid", "72ea8642fb0e206ca180100b8bdacb9c", "aeed4e36cb31c15e47beaea305c4ca89");
    ("T3", "hybrid-epoch", "72ea8642fb0e206ca180100b8bdacb9c", "aeed4e36cb31c15e47beaea305c4ca89");
    ("T7", "helgrind-original", "aa7bcfd178b621e32c021859753c7621", "d4960ba9b30df969a1e2f884f9ac5c94");
    ("T7", "helgrind-hwlc", "5cf5be9dc8b1fe85d1ea93779a3a4883", "c449805cc6861b143fc9b14cd7df1174");
    ("T7", "helgrind-hwlc+dr", "05949c27b9d10c0ec491a486f9a82280", "98000bdefb39c3d1887fd5a4afc0b31d");
    ("T7", "helgrind-hwlc+dr+hb", "770aed4c2b24719095e83a17e96aaeb6", "4810c84f49e461201bdeff4891272f97");
    ("T7", "eraser-pure", "228cf3a2754a5f73c4e68e9f12201e45", "47de8fae885901ef44fed5c6f88babf7");
    ("T7", "djit", "9740effc052ce97123bfbfb7cb4a4e3f", "faf6f9db851e8477ed4b0fb533cc5f16");
    ("T7", "fasttrack", "9740effc052ce97123bfbfb7cb4a4e3f", "faf6f9db851e8477ed4b0fb533cc5f16");
    ("T7", "racetrack", "26de3b59a80cea6ee18e8ba3a4a9ac2f", "0f82ba5a4ce68f03bbaabf02f686cebc");
    ("T7", "hybrid", "86c09ff916824494cc45b49035fe544f", "630db80236dab562b54fb374f2af0dbf");
    ("T7", "hybrid-epoch", "86c09ff916824494cc45b49035fe544f", "630db80236dab562b54fb374f2af0dbf");
    ("T8", "helgrind-original", "165b12b7d052c45680ee5220cb9feff6", "7b9ec3078e01a93d155e3185900a4288");
    ("T8", "helgrind-hwlc", "de63e2b681d32a6f9d4ed2f4d15c2154", "2842d83ee18f5a41c7ae25e6d2a8467f");
    ("T8", "helgrind-hwlc+dr", "890524301af44baa914c007a4e7be2ed", "a44466c3bd3819ad4eff1686c7ffd440");
    ("T8", "helgrind-hwlc+dr+hb", "a16935c0850506df3280c0abe2ea7fb2", "21dfb493a57386fe0f8a8266a61d1ca0");
    ("T8", "eraser-pure", "e584f241e696801078ad2032d58d8944", "02fc49dddc48bdf454464574c5e4657f");
    ("T8", "djit", "9e5cb9ea65751dc81090c0218d720ecc", "7e7b2b52156e5599754f70118bb419eb");
    ("T8", "fasttrack", "9e5cb9ea65751dc81090c0218d720ecc", "7e7b2b52156e5599754f70118bb419eb");
    ("T8", "racetrack", "b005acf52d772a0f50a3695c527c6eb8", "701117859239f5df207390538e336aa7");
    ("T8", "hybrid", "b4a2dcc4c7f125c6f40eb7c93f082acb", "b3f48b952eea606205006ff32e17dd24");
    ("T8", "hybrid-epoch", "b4a2dcc4c7f125c6f40eb7c93f082acb", "b3f48b952eea606205006ff32e17dd24");
  ]

let test_seed7_digests () =
  let tests = List.sort_uniq compare (List.map (fun (t, _, _, _) -> t) seed7_pins) in
  let live =
    List.concat_map
      (fun name ->
        let tc =
          List.find
            (fun (tc : Sip.Workload.test_case) -> tc.tc_name = name)
            Sip.Workload.all_test_cases
        in
        List.map
          (fun (v : Det.Offline.verdict) -> ((name, v.v_config), v))
          (R.Trace_ops.record_test ~seed:7 ~live:Det.Offline.configs tc).rec_live)
      tests
  in
  Alcotest.(check int) "every live verdict is pinned" (List.length seed7_pins) (List.length live);
  List.iter
    (fun (t, cfg, sig_digest, report_digest) ->
      let v = List.assoc (t, cfg) live in
      Alcotest.(check string) (t ^ "/" ^ cfg ^ " sig_digest") sig_digest v.v_sig_digest;
      Alcotest.(check string) (t ^ "/" ^ cfg ^ " report_digest") report_digest v.v_report_digest)
    seed7_pins

(* --- the Helgrind detail memo ---------------------------------------- *)

let loc = Loc.v "memo.c" "f" 1
let m = Mutex 5 (* lock uid 11, rendered lock#11 until named *)

let ctx =
  {
    Vm.Tool.stack_of = (fun _ -> []);
    thread_name = string_of_int;
    block_of = (fun _ -> None);
    clock = (fun () -> 0);
  }

(* both threads write [addr] under [m], then thread 2 writes it bare:
   one warning whose previous state is "shared modified, {m}" *)
let race addr =
  let locked tid =
    [
      E_acquire { tid; lock = m; mode = Vm.Eff.Write_mode; loc };
      E_write { tid; addr; value = 0; atomic = false; loc };
      E_release { tid; lock = m; loc };
    ]
  in
  locked 1 @ locked 2 @ [ E_write { tid = 2; addr; value = 0; atomic = false; loc } ]

let test_memo_follows_lock_names config () =
  let details = ref [] in
  let h = Det.Helgrind.create ~on_report:(fun r -> details := r.detail :: !details) config in
  let tool = Det.Helgrind.tool h in
  List.iter (tool.on_event ctx)
    ([
       E_thread_start { tid = 0; name = "main"; parent = None };
       E_thread_start { tid = 1; name = "a"; parent = Some 0 };
       E_thread_start { tid = 2; name = "b"; parent = Some 0 };
     ]
    @ race 100
    @ [ E_sync_create { tid = 0; sync = m; name = "reg_lock"; loc } ]
    @ race 101);
  Alcotest.(check (list string))
    "the warning after the rename shows the new name"
    [ "Previous state: shared modified, {lock#11}";
      "Previous state: shared modified, {\"reg_lock\"}" ]
    (List.rev !details)

let suite =
  ( "report",
    [
      QCheck_alcotest.to_alcotest qc_to_string;
      QCheck_alcotest.to_alcotest qc_pp;
      QCheck_alcotest.to_alcotest qc_signature;
      QCheck_alcotest.to_alcotest qc_stream;
      Alcotest.test_case "streamed digest: fixed cases" `Quick test_stream_fixed;
      Alcotest.test_case "streamed digest holds no stream" `Quick test_stream_bounded;
      QCheck_alcotest.to_alcotest qc_segment_cache;
      Alcotest.test_case "verdicts compare who reported and when" `Quick test_attribution;
      QCheck_alcotest.to_alcotest qc_locations_model;
      Alcotest.test_case "locations: frames, kinds and clock ties" `Quick test_locations_fixed;
      Alcotest.test_case "collector holds no occurrences" `Quick test_collector_holds_no_occurrences;
      Alcotest.test_case "verdict needs a digest sink" `Quick test_verdict_needs_digest;
      Alcotest.test_case "seed-7 verdict digests pinned" `Quick test_seed7_digests;
      Alcotest.test_case "detail memo follows lock names (original)" `Quick
        (test_memo_follows_lock_names Det.Helgrind.original);
      Alcotest.test_case "detail memo follows lock names (hwlc+dr)" `Quick
        (test_memo_follows_lock_names Det.Helgrind.hwlc_dr);
      Alcotest.test_case "detail memo follows lock names (pure eraser)" `Quick
        (test_memo_follows_lock_names Det.Helgrind.pure_eraser);
    ] )
