(* Tests for the binary trace plane ([lib/trace/] + the offline replay
   driver):

   - codec properties: varint/zigzag/string round-trips, incremental
     CRC-32 equals whole-buffer CRC-32, the sliced CRC-32 kernel equals
     the byte-at-a-time loop;
   - qcheck container round-trip: decode (encode entries) = entries for
     random event streams, including interning-table reuse and
     locations that collide on [Loc.hash]; every entry's byte offset
     indexes its own event tag;
   - corruption rejection: truncation anywhere, a flipped body byte
     (CRC), bad magics and a flipped version byte are all decode
     errors, and so are varints above max_int; a re-sealed container
     of format version 1 is refused by its version byte, while an empty
     hand-sealed version-2 container decodes; a mutated body re-sealed
     with a valid CRC decodes to Ok or Error, never an exception;
   - recording determinism: the same (workload, seed) produces
     byte-identical trace files;
   - the replay fidelity pin: for every SIP test case x seeds 7/42, all
     eight registry detector configurations replayed from the trace (at
     1 and 4 domains) produce verdicts byte-identical to the detectors
     that watched the run live;
   - a replayed tool sees the heap-block answers a live one saw,
     across free and reuse;
   - trace diffing: identical traces have no divergence; a mutated
     stream is pinpointed at the exact first divergent event;
   - recorder throughput metrics ride the Obs.Metrics registry;
   - the views of a recorded file: time travel locates every moment of
     every warning at the entry of its transition, with the warnings a
     live run found, and the Chrome export holds one event per entry
     at the entry's clock. *)

module Trace = Raceguard_trace
module Codec = Trace.Codec
module Writer = Trace.Writer
module Reader = Trace.Reader
module Vm = Raceguard_vm
module Event = Vm.Event
module Eff = Vm.Eff
module Loc = Raceguard_util.Loc
module Det = Raceguard_detector
module Sip = Raceguard_sip
module Obs = Raceguard_obs
module R = Raceguard
module Gen = QCheck2.Gen

(* --- codec properties --------------------------------------------------- *)

let qc_varint_roundtrip =
  QCheck2.Test.make ~name:"varint round-trips" ~count:500
    Gen.(oneof [ int_bound 200; int_bound max_int ])
    (fun n ->
      let b = Buffer.create 10 in
      Codec.write_varint b n;
      let c = Codec.cursor (Buffer.contents b) in
      Codec.read_varint c = n && Codec.at_end c)

let qc_zigzag_roundtrip =
  (* zigzag doubles the magnitude, so the representable range is
     [-max_int/2, max_int/2] — plenty for the client-request tags it
     encodes *)
  QCheck2.Test.make ~name:"zigzag round-trips (negatives too)" ~count:500
    Gen.(map (fun (s, n) -> if s then -n else n) (pair bool (int_bound (max_int / 2))))
    (fun n ->
      let b = Buffer.create 10 in
      Codec.write_zigzag b n;
      let c = Codec.cursor (Buffer.contents b) in
      Codec.read_zigzag c = n && Codec.at_end c)

let qc_string_roundtrip =
  QCheck2.Test.make ~name:"length-prefixed strings round-trip" ~count:200
    Gen.(string_size (int_bound 64))
    (fun s ->
      let b = Buffer.create 16 in
      Codec.write_string b s;
      let c = Codec.cursor (Buffer.contents b) in
      Codec.read_string c = s && Codec.at_end c)

(* byte at a time, the textbook loop: the oracle of the sliced kernel *)
let ref_crc32 ?(crc = 0) s pos len =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

(* offsets and lengths 0-15 reach every alignment of the eight-byte
   step and every length of the byte-wise tail; longer strings run the
   step several times *)
let qc_crc_kernel =
  QCheck2.Test.make ~name:"CRC-32 kernel = byte-at-a-time CRC-32" ~count:1000
    ~print:(fun (s, pos, len, crc) -> Printf.sprintf "%S pos %d len %d crc %x" s pos len crc)
    Gen.(
      let* s = string_size (0 -- 64) in
      let n = String.length s in
      let* pos = int_bound (min 15 n) in
      let* len = oneof [ int_bound (min 15 (n - pos)); return (n - pos) ] in
      let* crc = oneof [ return 0; int_bound 0xFFFFFFFF ] in
      return (s, pos, len, crc))
    (fun (s, pos, len, crc) -> Codec.crc32 ~crc s pos len = ref_crc32 ~crc s pos len)

let test_crc_check_value () =
  Alcotest.(check int) "CRC-32 of \"123456789\"" 0xCBF43926 (Codec.crc32 "123456789" 0 9)

let qc_crc_incremental =
  QCheck2.Test.make ~name:"incremental CRC-32 = whole-buffer CRC-32" ~count:200
    Gen.(pair (string_size (int_bound 128)) (string_size (int_bound 128)))
    (fun (a, b) ->
      let whole = a ^ b in
      let one = Codec.crc32 whole 0 (String.length whole) in
      let two =
        Codec.crc32 ~crc:(Codec.crc32 a 0 (String.length a)) b 0 (String.length b)
      in
      one = two)

(* --- random entry streams ----------------------------------------------- *)

(* The last three collide on [Loc.hash] with the first two (same line,
   same lengths, other text), so the intern tables must tell them apart
   by [Loc.equal]. *)
let locs =
  [|
    Loc.v "a.cpp" "f" 1;
    Loc.v "a.cpp" "g" 2;
    Loc.v "b.cpp" "h" 3;
    Loc.v "c.cpp" "i" 44;
    Loc.unknown;
    Loc.v "b.cpp" "g" 1;
    Loc.v "a.cpp" "h" 1;
    Loc.v "x.cpp" "g" 2;
  |]

let names = [| "main"; "worker"; "logger"; "reaper" |]
let gen_loc = Gen.(map (fun i -> locs.(i)) (int_bound (Array.length locs - 1)))
let gen_name = Gen.(map (fun i -> names.(i)) (int_bound (Array.length names - 1)))
let gen_stack = Gen.(list_size (int_bound 4) gen_loc)

let gen_sync =
  Gen.(
    map2
      (fun k i ->
        match k with
        | 0 -> Event.Mutex i
        | 1 -> Event.Rwlock i
        | 2 -> Event.Cond i
        | _ -> Event.Sem i)
      (int_bound 3) (int_bound 5))

let gen_block tid =
  Gen.(
    let* base = int_bound 1000 in
    let* len = int_bound 16 in
    let* alloc_loc = gen_loc in
    let* alloc_stack = gen_stack in
    let* freed = bool in
    return { Vm.Memory.base; len = len + 1; alloc_tid = tid; alloc_loc; alloc_stack; freed })

(* one random event plus the block a read/write would resolve to; the
   writer only encodes blocks for reads/writes, so other kinds carry
   [None] to keep the round-trip an equality *)
let gen_entry =
  let open Gen in
  let* tid = int_bound 5 in
  let* loc = gen_loc in
  let* kind = int_bound 16 in
  let* value = int_bound 10_000 in
  let* addr = int_bound 2000 in
  let* atomic = bool in
  let no_block ev = return (ev, None) in
  match kind with
  | 0 ->
      let* name = gen_name in
      let* parent = oneof [ return None; map Option.some (int_bound 3) ] in
      no_block (Event.E_thread_start { tid; name; parent })
  | 1 -> no_block (Event.E_thread_exit { tid })
  | 2 -> no_block (Event.E_spawn { parent = tid; child = tid + 1; loc })
  | 3 -> no_block (Event.E_join { joiner = tid; joined = tid + 1; loc })
  | 4 ->
      let* block = oneof [ return None; map Option.some (gen_block tid) ] in
      return (Event.E_read { tid; addr; value; atomic; loc }, block)
  | 5 ->
      let* block = oneof [ return None; map Option.some (gen_block tid) ] in
      return (Event.E_write { tid; addr; value; atomic; loc }, block)
  | 6 -> no_block (Event.E_alloc { tid; addr; len = (value mod 64) + 1; loc })
  | 7 -> no_block (Event.E_free { tid; addr; len = (value mod 64) + 1; loc })
  | 8 ->
      let* sync = gen_sync in
      let* name = gen_name in
      no_block (Event.E_sync_create { tid; sync; name; loc })
  | 9 ->
      let* lock = gen_sync in
      let* w = bool in
      no_block
        (Event.E_acquire
           { tid; lock; mode = (if w then Eff.Write_mode else Eff.Read_mode); loc })
  | 10 ->
      let* lock = gen_sync in
      no_block (Event.E_release { tid; lock; loc })
  | 11 -> no_block (Event.E_cond_signal { tid; cv = addr mod 6; broadcast = atomic; loc })
  | 12 -> no_block (Event.E_cond_wait_pre { tid; cv = addr mod 6; m = value mod 6; loc })
  | 13 -> no_block (Event.E_cond_wait_post { tid; cv = addr mod 6; m = value mod 6; loc })
  | 14 -> no_block (Event.E_sem_post { tid; sem = addr mod 6; loc })
  | 15 -> no_block (Event.E_sem_wait_post { tid; sem = addr mod 6; loc })
  | _ ->
      let* req =
        oneof
          [
            return (Eff.Destruct { addr; len = (value mod 8) + 1 });
            return (Eff.Benign_race { addr; len = (value mod 8) + 1 });
            return (Eff.Happens_before { tag = value });
            return (Eff.Happens_after { tag = value });
          ]
      in
      no_block (Event.E_client { tid; req; loc })

(* a stream: events with strictly monotonic clocks and per-entry
   stack/thread-name context *)
let gen_stream =
  let open Gen in
  let* raw = list_size (int_bound 60) (triple gen_entry gen_stack gen_name) in
  let clock = ref 0 in
  return
    (List.map
       (fun ((ev, block), stack, name) ->
         incr clock;
         (ev, !clock, stack, name, block))
       raw)

let encode ?meta stream =
  let w = Writer.create ?meta () in
  List.iter
    (fun (event, clock, stack, thread_name, block) ->
      Writer.add_entry w ~event ~clock ~stack ~thread_name ~block)
    stream;
  Writer.contents w

let decode_exn s =
  match Reader.of_string s with
  | Ok t -> t
  | Error (`Msg m) -> Alcotest.failf "decode failed: %s" m

let entry_matches (e : Reader.entry) (event, clock, stack, thread_name, block) =
  e.Reader.en_event = event && e.en_clock = clock && e.en_stack = stack
  && e.en_thread = thread_name
  && e.en_block = block

(* time travel prints [en_offset] as the event's byte offset *)
let offset_at_tag bytes (e : Reader.entry) =
  bytes.[e.en_offset] = Char.chr (Writer.tag_event + Event.kind_id e.en_event)

let qc_container_roundtrip =
  QCheck2.Test.make ~name:"decode (encode stream) = stream" ~count:120 gen_stream
    (fun stream ->
      let bytes = encode ~meta:[ ("k", "v"); ("seed", "9") ] stream in
      let t = decode_exn bytes in
      Reader.length t = List.length stream
      && Reader.meta_find t "k" = Some "v"
      && List.for_all2 entry_matches (Array.to_list (Reader.entries t)) stream
      && Array.for_all (offset_at_tag bytes) (Reader.entries t))

(* Colliding locations, in stacks and blocks too, intern to distinct
   ids: each decodes back to itself, and the trace defines each once. *)
let test_hash_collisions_interned () =
  let collide a b =
    Alcotest.(check bool)
      (Fmt.str "%a and %a collide" Loc.pp a Loc.pp b)
      true
      (Loc.hash a = Loc.hash b && not (Loc.equal a b))
  in
  collide locs.(0) locs.(5);
  collide locs.(0) locs.(6);
  collide locs.(1) locs.(7);
  let block alloc_loc alloc_stack =
    Some { Vm.Memory.base = 8; len = 4; alloc_tid = 0; alloc_loc; alloc_stack; freed = false }
  in
  let stream =
    List.mapi
      (fun i (loc, stack, blk) ->
        (Event.E_read { tid = 0; addr = 9; value = i; atomic = false; loc }, i + 1, stack, "main", blk))
      [
        (locs.(0), [ locs.(0); locs.(1) ], block locs.(0) [ locs.(1) ]);
        (locs.(5), [ locs.(5); locs.(7) ], block locs.(5) [ locs.(7) ]);
        (locs.(6), [ locs.(6); locs.(1) ], block locs.(6) [ locs.(1) ]);
        (Loc.v "a.cpp" "f" 1, [ locs.(0); locs.(1) ], block locs.(0) [ locs.(1) ]);
      ]
  in
  let bytes = encode stream in
  let t = decode_exn bytes in
  Alcotest.(check bool) "every entry decodes to itself" true
    (List.for_all2 entry_matches (Array.to_list (Reader.entries t)) stream);
  let stacks = List.sort_uniq compare (List.map (fun (e : Reader.entry) -> e.en_stack) (Array.to_list (Reader.entries t))) in
  Alcotest.(check int) "three distinct stacks" 3 (List.length stacks);
  Alcotest.(check bool) "the repeat shares the first entry's stack" true
    ((Reader.entries t).(0).en_stack == (Reader.entries t).(3).en_stack)

let qc_truncation_rejected =
  QCheck2.Test.make ~name:"every truncation is rejected" ~count:40 gen_stream
    (fun stream ->
      let bytes = encode stream in
      let n = String.length bytes in
      (* every prefix strictly shorter than the container fails *)
      List.for_all
        (fun k ->
          match Reader.of_string (String.sub bytes 0 k) with
          | Error _ -> true
          | Ok _ -> false)
        [ 0; 1; 3; n / 4; n / 2; n - 9; n - 5; n - 1 ])

let test_corruption_rejected () =
  let stream =
    [
      (Event.E_thread_start { tid = 0; name = "main"; parent = None }, 1, [], "main", None);
      ( Event.E_write { tid = 0; addr = 4; value = 7; atomic = false; loc = locs.(0) },
        2,
        [ locs.(0) ],
        "main",
        None );
      (Event.E_thread_exit { tid = 0 }, 3, [], "main", None);
    ]
  in
  let bytes = encode stream in
  let expect_error what s =
    match Reader.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s was accepted" what
  in
  (* flip one byte in the middle of the body: CRC must catch it *)
  let flipped = Bytes.of_string bytes in
  let mid = String.length bytes / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x5A));
  expect_error "flipped body byte" (Bytes.to_string flipped);
  (* bad magics *)
  expect_error "bad head magic" ("XXXX" ^ String.sub bytes 4 (String.length bytes - 4));
  expect_error "bad tail magic" (String.sub bytes 0 (String.length bytes - 4) ^ "XXXX");
  (* wrong version byte (also breaks the CRC, but the message path must
     not crash) *)
  let vbad = Bytes.of_string bytes in
  Bytes.set vbad 4 '\xee';
  expect_error "wrong version" (Bytes.to_string vbad);
  expect_error "empty input" ""

let test_monotonic_clock_enforced () =
  let w = Writer.create () in
  Writer.add_entry w
    ~event:(Event.E_thread_start { tid = 0; name = "main"; parent = None })
    ~clock:5 ~stack:[] ~thread_name:"main" ~block:None;
  Alcotest.check_raises "backwards clock rejected"
    (Invalid_argument "Writer.add_entry: clock went backwards") (fun () ->
      Writer.add_entry w ~event:(Event.E_thread_exit { tid = 0 }) ~clock:4 ~stack:[]
        ~thread_name:"main" ~block:None)

(* --- out-of-range varints ------------------------------------------------ *)

(* [body] (header through end record) sealed with a valid CRC and the
   tail magic, so hand-built bytes reach the parser *)
let seal body =
  let foot = Buffer.create 8 in
  Buffer.add_int32_le foot (Int32.of_int (Codec.crc32 body 0 (String.length body)));
  Buffer.add_string foot Writer.magic_tail;
  body ^ Buffer.contents foot

let header ~meta_count =
  let b = Buffer.create 32 in
  Buffer.add_string b Writer.magic_head;
  Buffer.add_char b (Char.chr Writer.version);
  Buffer.add_string b meta_count;
  Buffer.contents b

let tag t = String.make 1 (Char.chr t)
let end_record = tag Writer.tag_end ^ "\000"

(* nine varint bytes whose last sets the sign bit: read without a range
   check, this is -1 *)
let wrapping_varint = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f"

let test_out_of_range_varint_rejected () =
  let b = Buffer.create 9 in
  Codec.write_varint b max_int;
  let max_bytes = Buffer.contents b in
  Alcotest.(check int) "max_int takes nine bytes" 9 (String.length max_bytes);
  Alcotest.(check char) "the last is 0x3f" '\x3f' max_bytes.[8];
  Alcotest.(check int) "max_int round-trips" max_int (Codec.read_varint (Codec.cursor max_bytes));
  Alcotest.check_raises "a larger last byte overflows" Codec.Overflow (fun () ->
      ignore (Codec.read_varint (Codec.cursor wrapping_varint)));
  let expect_error what s =
    match Reader.of_string s with
    | Error (`Msg m) -> Alcotest.(check string) what "varint out of range (above max_int)" m
    | Ok _ -> Alcotest.failf "%s was accepted" what
  in
  expect_error "negative meta count" (seal (header ~meta_count:wrapping_varint ^ end_record));
  expect_error "negative stack length"
    (seal (header ~meta_count:"\000" ^ tag Writer.tag_kdef ^ wrapping_varint ^ end_record))

(* 1-3 mutations of the bytes between the head magic and the footer,
   then re-sealed: whatever the parser meets, it answers Ok or Error.
   Some mutations splice in a nine-byte varint above max_int, half of
   those right after a byte equal to the stack-definition tag, where a
   stack length is likely to be read. *)
let qc_mutated_body_never_raises =
  let gen_mutation =
    Gen.(
      triple nat bool
        (oneof
           [
             map (fun c -> `Set (Char.chr c)) (int_bound 255);
             map
               (fun c -> `Splice (String.sub wrapping_varint 0 8 ^ String.make 1 (Char.chr c)))
               (int_range 0x40 0xff);
           ]))
  in
  let mutate body (at, after_kdef, m) =
    let n = String.length body - 4 in
    let anywhere = 4 + (at mod n) in
    match m with
    | `Set c -> String.mapi (fun i x -> if i = anywhere then c else x) body
    | `Splice v ->
        let at =
          match
            List.filter (fun i -> body.[i - 1] = Char.chr Writer.tag_kdef) (List.init n (( + ) 5))
          with
          | _ :: _ as after when after_kdef -> List.nth after (at mod List.length after)
          | _ -> anywhere
        in
        String.sub body 0 at ^ v ^ String.sub body at (String.length body - at)
  in
  QCheck2.Test.make ~name:"a re-sealed mutated body decodes to Ok or Error" ~count:200
    Gen.(pair gen_stream (list_size (int_range 1 3) gen_mutation))
    (fun (stream, mutations) ->
      let bytes = encode stream in
      let body = List.fold_left mutate (String.sub bytes 0 (String.length bytes - 8)) mutations in
      match Reader.of_string (seal body) with Ok _ | Error _ -> true)

(* --- recording determinism and replay fidelity --------------------------- *)

let t4 = Option.get (R.Trace_ops.test_case_of_string "T4")

let test_recording_deterministic () =
  let a = Det.Offline.contents (R.Trace_ops.record_test ~seed:7 t4).rec_recorder in
  let b = Det.Offline.contents (R.Trace_ops.record_test ~seed:7 t4).rec_recorder in
  Alcotest.(check bool) "same (workload, seed) => byte-identical trace" true (a = b);
  let c = Det.Offline.contents (R.Trace_ops.record_test ~seed:42 t4).rec_recorder in
  Alcotest.(check bool) "different seed => different trace" true (a <> c)

(* The recorded bytes of every SIP test case at seed 7, pinned across
   versions.  They carry every scheduling decision, clock, stack and
   block, so any change to the VM's schedule or event stream shows here
   even where the detectors' verdicts would not.  The C++ object model
   numbers vtables per run, so the bytes do not depend on what ran
   before (see the order test below). *)
let recorded_pins =
  [
    ("T1", "65d20046bbbc0a4108c23408d108a108", 757522);
    ("T2", "b279abaca405a697c992e44dce3b8fc9", 559645);
    ("T3", "7de4bdbd12a9bca4702f2a3a7b041725", 258096);
    ("T4", "10fb25e5c93a6359858e96c5a272fab8", 782903);
    ("T5", "e1ea43219b4e789ef3784f957442d244", 1075841);
    ("T6", "975e483825bc2e81d13273bada5c151e", 1093943);
    ("T7", "463b58c83f568061e0c5944a21aed85c", 209687);
    ("T8", "e08d1c6a402721feb6382768748657a8", 413454);
  ]

let record_seed7 (tc : Sip.Workload.test_case) =
  (tc.tc_name, Det.Offline.contents (R.Trace_ops.record_test ~seed:7 tc).rec_recorder)

let test_recording_pinned () =
  let recorded = List.map record_seed7 Sip.Workload.all_test_cases in
  Alcotest.(check (list string)) "a pin per test case, in order"
    (List.map (fun (name, _, _) -> name) recorded_pins)
    (List.map fst recorded);
  List.iter2
    (fun (name, md5, len) (_, bytes) ->
      Alcotest.(check int) (name ^ " trace length") len (String.length bytes);
      Alcotest.(check string) (name ^ " trace MD5") md5 (Digest.to_hex (Digest.string bytes)))
    recorded_pins recorded

(* The schedule itself at seed 7: each case's operations and scheduling
   decisions ([vm.scheduler_switches] counts every pick, whether or not
   it switched threads), with the recording's MD5 from the table above.
   A drift in the pick order or the rng draws shows here first. *)
let schedule_pins =
  [
    ("T1", 61510, 61553);
    ("T2", 46388, 46426);
    ("T3", 21420, 21442);
    ("T4", 63116, 63165);
    ("T5", 87407, 87477);
    ("T6", 90278, 90342);
    ("T7", 17319, 17342);
    ("T8", 33923, 33953);
  ]

let test_schedule_pinned () =
  List.iter2
    (fun (name, ops, picks) (tc : Sip.Workload.test_case) ->
      let before = Obs.Metrics.snapshot () in
      let _, bytes = record_seed7 tc in
      let delta = Obs.Metrics.diff ~before (Obs.Metrics.snapshot ()) in
      let count c = Option.value ~default:(-1) (Obs.Metrics.find_counter delta c) in
      let _, md5, _ = List.find (fun (n, _, _) -> n = name) recorded_pins in
      Alcotest.(check string) "cases in order" name tc.tc_name;
      Alcotest.(check int) (name ^ " ops_executed") ops (count "vm.ops_executed");
      Alcotest.(check int) (name ^ " scheduling decisions") picks (count "vm.scheduler_switches");
      Alcotest.(check string) (name ^ " recording MD5") md5 (Digest.to_hex (Digest.string bytes)))
    schedule_pins Sip.Workload.all_test_cases

(* Each case recorded alone, on a fresh domain and in reverse order,
   gives the bytes it gives after the cases before it: nothing a run
   writes into VM memory depends on earlier runs. *)
let test_recording_order_free () =
  let in_order = List.map record_seed7 Sip.Workload.all_test_cases in
  List.iter
    (fun tc ->
      let name, alone = Domain.join (Domain.spawn (fun () -> record_seed7 tc)) in
      Alcotest.(check bool) (name ^ " alone = in order") true (alone = List.assoc name in_order))
    (List.rev Sip.Workload.all_test_cases)

let test_trace_self_describing () =
  let r = R.Trace_ops.record_test ~seed:7 t4 in
  let t = decode_exn (Det.Offline.contents r.rec_recorder) in
  Alcotest.(check (option string)) "workload in meta" (Some "T4") (Reader.meta_find t "workload");
  Alcotest.(check (option string)) "seed in meta" (Some "7") (Reader.meta_find t "seed")

let test_replay_matches_live () =
  List.iter
    (fun (tc : Sip.Workload.test_case) ->
      List.iter
        (fun seed ->
          let r = R.Trace_ops.record_test ~seed ~live:Det.Offline.configs tc in
          let trace = decode_exn (Det.Offline.contents r.rec_recorder) in
          List.iter
            (fun domains ->
              let replayed = R.Trace_ops.replay_parallel ~domains trace in
              List.iter
                (fun (name, status) ->
                  Alcotest.(check bool)
                    (Fmt.str "%s seed %d domains %d: %s replay byte-identical to live"
                       tc.tc_name seed domains name)
                    true (status = `Match))
                (R.Trace_ops.compare_verdicts ~live:r.rec_live replayed))
            [ 1; 4 ])
        [ 7; 42 ])
    Sip.Workload.all_test_cases

(* What a tool sees of [ctx.block_of] at every read and write, one line
   per access: address, then base+len, allocating thread, freed flag. *)
let block_log () =
  let log = ref [] in
  let tool =
    Vm.Tool.make ~name:"block-log" ~on_event:(fun ctx e ->
        match e with
        | Event.E_read { addr; _ } | Event.E_write { addr; _ } ->
            let answer =
              match ctx.block_of addr with
              | None -> "none"
              | Some (b : Vm.Memory.block) ->
                  Printf.sprintf "%d+%d t%d freed=%b" b.base b.len b.alloc_tid b.freed
            in
            log := Printf.sprintf "%d: %s" addr answer :: !log
        | _ -> ())
  in
  (tool, fun () -> List.rev !log)

(* The recorder writes each access's block as the live VM answers it,
   freed flag included; a replayed tool must get the same answers when
   a block is freed, read after the free, reused at the same base, and
   freed again by another thread. *)
let test_replay_block_answers () =
  let loc = Loc.v "blocks.c" "main" 1 in
  let recorder = Det.Offline.create_recorder () in
  let live, live_log = block_log () in
  let vm = Vm.Engine.create () in
  Vm.Engine.add_tool vm (Det.Offline.tool recorder);
  Vm.Engine.add_tool vm live;
  let bases = ref [] in
  let outcome =
    Vm.Engine.run vm (fun () ->
        let a = Vm.Api.alloc ~loc 4 in
        Vm.Api.write ~loc (a + 1) 7;
        Vm.Api.free ~loc a;
        ignore (Vm.Api.read ~loc (a + 1));
        let b = Vm.Api.alloc ~loc 4 in
        Vm.Api.write ~loc (b + 2) 9;
        Vm.Api.join ~loc (Vm.Api.spawn ~loc ~name:"freer" (fun () -> Vm.Api.free ~loc b));
        ignore (Vm.Api.read ~loc (b + 2));
        bases := [ a; b ])
  in
  Alcotest.(check string) "stopped clean" "clean" Vm.Engine.(stop_name (stop_of outcome));
  (match !bases with
  | [ a; b ] -> Alcotest.(check int) "the second block reuses the first's base" a b
  | _ -> Alcotest.fail "program did not finish");
  Alcotest.(check (list bool)) "live answers: live, freed, reused, freed" [ false; true; false; true ]
    (List.map (fun l -> String.ends_with ~suffix:"freed=true" l) (live_log ()));
  let replayed, replayed_log = block_log () in
  Reader.replay (decode_exn (Det.Offline.contents recorder)) [ replayed ];
  Alcotest.(check (list string)) "replayed block answers = live" (live_log ()) (replayed_log ())

(* --- diffing ------------------------------------------------------------- *)

let fixed_stream n =
  List.init n (fun i ->
      ( Event.E_write
          { tid = i mod 3; addr = 16 + i; value = i; atomic = false; loc = locs.(i mod 4) },
        i + 1,
        [ locs.(i mod 4) ],
        names.(i mod 3),
        None ))

let test_diff_identical () =
  let bytes = encode (fixed_stream 32) in
  let t = decode_exn bytes in
  Alcotest.(check bool) "no divergence against itself" true
    (Trace.Diff.first_divergence t t = None)

let test_diff_pinpoints_first_divergence () =
  let stream = fixed_stream 32 in
  let mutated =
    List.mapi
      (fun i ((_ev, clk, stack, name, block) as e) ->
        if i = 17 then
          (Event.E_read { tid = 9; addr = 999; value = 0; atomic = true; loc = locs.(1) },
           clk, stack, name, block)
        else e)
      stream
  in
  let a = encode stream and b = encode mutated in
  match Trace.Diff.first_divergence ~window:5 (decode_exn a) (decode_exn b) with
  | None -> Alcotest.fail "divergence not detected"
  | Some d ->
      Alcotest.(check int) "first divergent event index" 17 d.Trace.Diff.d_index;
      Alcotest.(check int) "context window" 5 (List.length d.d_context);
      (match (d.d_left, d.d_right) with
      | Some l, Some r ->
          Alcotest.(check bool) "sides differ" true (l.Reader.en_event <> r.Reader.en_event)
      | _ -> Alcotest.fail "both sides should be present")

let test_diff_prefix_shorter () =
  let stream = fixed_stream 20 in
  let a = encode stream in
  let b = encode (fixed_stream 12) in
  match Trace.Diff.first_divergence (decode_exn a) (decode_exn b) with
  | None -> Alcotest.fail "length divergence not detected"
  | Some d ->
      Alcotest.(check int) "diverges where the prefix ends" 12 d.Trace.Diff.d_index;
      Alcotest.(check bool) "right side exhausted" true (d.d_right = None)

(* --- recorder metrics ----------------------------------------------------- *)

let test_recorder_metrics () =
  let before = Obs.Metrics.snapshot () in
  let stream = fixed_stream 10 in
  let bytes = encode stream in
  let after = Obs.Metrics.snapshot () in
  let d = Obs.Metrics.diff ~before after in
  let j = Obs.Metrics.to_json d in
  let counters = Option.get (Obs.Json.member "counters" j) in
  let counter name =
    match Obs.Json.member name counters with
    | Some v -> Option.get (Obs.Json.to_float_opt v)
    | None -> Alcotest.failf "counter %s not published" name
  in
  Alcotest.(check (float 0.)) "trace.record.events counts entries" 10.
    (counter "trace.record.events");
  Alcotest.(check bool) "trace.record.bytes within container size" true
    (counter "trace.record.bytes" > 0.
    && counter "trace.record.bytes" <= float_of_int (String.length bytes))

(* --- the version byte ------------------------------------------------------ *)

(* The CRC covers the version byte, so a flipped byte fails the CRC
   first; re-sealed, a version-1 container reaches the version check.
   The empty container is the control: the helpers the varint cases
   are built on make a trace the reader accepts. *)
let test_version_checked () =
  (match Reader.of_string (seal (header ~meta_count:"\000" ^ end_record)) with
  | Ok t ->
      Alcotest.(check int) "no events" 0 (Reader.length t);
      Alcotest.(check (list (pair string string))) "no meta" [] (Reader.meta t)
  | Error (`Msg m) -> Alcotest.failf "empty container refused: %s" m);
  let bytes = encode ~meta:[ ("seed", "7") ] (fixed_stream 8) in
  let v1 = Bytes.of_string (String.sub bytes 0 (String.length bytes - 8)) in
  Bytes.set v1 4 '\001';
  match Reader.of_string (seal (Bytes.to_string v1)) with
  | Error (`Msg m) -> Alcotest.(check string) "refused by version" "unsupported trace version 1" m
  | Ok _ -> Alcotest.fail "a version-1 container was accepted"

(* --- views of a recording ------------------------------------------------- *)

let t4_seed7 = lazy (R.Trace_ops.record_test ~seed:7 ~live:[ "helgrind-hwlc+dr" ] t4)
let t4_bytes () = Det.Offline.contents (Lazy.force t4_seed7).rec_recorder

let test_offsets_index_tags () =
  let bytes = t4_bytes () in
  let entries = Reader.entries (decode_exn bytes) in
  Alcotest.(check bool) "T4 recorded" true (Array.length entries > 0);
  Alcotest.(check bool) "every offset indexes its event's tag" true
    (Array.for_all (offset_at_tag bytes) entries)

(* [explain --from-trace]: HWLC+DR replayed with provenance finds the
   warnings the live detector found, and each transition of each
   history is located at an entry of its clock and thread. *)
let test_explain_from_trace () =
  let ft = R.Trace_ops.explain_from_trace (decode_exn (t4_bytes ())) in
  let live = List.hd (Lazy.force t4_seed7).rec_live in
  Alcotest.(check string) "warnings = live HWLC+DR" live.v_sig_digest
    (Det.Offline.digest_signatures
       (List.map (fun (tv : R.Trace_ops.travel) -> (tv.tv_report, tv.tv_count)) ft.ft_travels));
  let moments = List.concat_map (fun (tv : R.Trace_ops.travel) -> tv.tv_moments) ft.ft_travels in
  Alcotest.(check (pair int int)) "warnings and moments" (29, 93)
    (List.length ft.ft_travels, List.length moments);
  List.iter
    (fun (m : R.Trace_ops.moment) ->
      let t = m.mo_transition in
      match m.mo_entry with
      | Some e ->
          Alcotest.(check (pair int int)) "located at the transition's clock and thread"
            (t.t_clock, t.t_tid)
            (e.en_clock, Event.tid e.en_event)
      | None -> Alcotest.failf "moment at clock %d not located" t.t_clock)
    moments

(* [trace replay --chrome]: one instant event per entry, in order, at
   the entry's clock, and the document parses *)
let test_chrome_export () =
  let trace = decode_exn (t4_bytes ()) in
  let doc = Obs.Json.to_string ~indent:1 (R.Trace_ops.chrome_json trace) in
  let events =
    match Obs.Json.parse doc with
    | Ok j -> Option.get (Option.bind (Obs.Json.member "traceEvents" j) Obs.Json.to_list_opt)
    | Error e -> Alcotest.failf "chrome JSON does not parse: %s" e
  in
  Alcotest.(check int) "one event per entry" (Reader.length trace) (List.length events);
  let field name ev =
    int_of_float (Option.get (Option.bind (Obs.Json.member name ev) Obs.Json.to_float_opt))
  in
  Alcotest.(check bool) "each ts and tid is its entry's" true
    (List.for_all2
       (fun ev (e : Reader.entry) ->
         field "ts" ev = e.en_clock && field "tid" ev = Event.tid e.en_event)
       events
       (Array.to_list (Reader.entries trace)))

let suite =
  ( "trace",
    [
      QCheck_alcotest.to_alcotest qc_varint_roundtrip;
      QCheck_alcotest.to_alcotest qc_zigzag_roundtrip;
      QCheck_alcotest.to_alcotest qc_string_roundtrip;
      QCheck_alcotest.to_alcotest qc_crc_incremental;
      QCheck_alcotest.to_alcotest qc_crc_kernel;
      Alcotest.test_case "CRC-32 check value" `Quick test_crc_check_value;
      QCheck_alcotest.to_alcotest qc_container_roundtrip;
      Alcotest.test_case "Loc.hash collisions intern to distinct ids" `Quick test_hash_collisions_interned;
      QCheck_alcotest.to_alcotest qc_truncation_rejected;
      Alcotest.test_case "corrupt containers rejected" `Quick test_corruption_rejected;
      Alcotest.test_case "varints above max_int rejected" `Quick test_out_of_range_varint_rejected;
      QCheck_alcotest.to_alcotest qc_mutated_body_never_raises;
      Alcotest.test_case "monotonic clock enforced" `Quick test_monotonic_clock_enforced;
      Alcotest.test_case "recording is deterministic" `Slow test_recording_deterministic;
      Alcotest.test_case "recorded bytes pinned (T1-T8, seed 7)" `Slow test_recording_pinned;
      Alcotest.test_case "schedule pinned: ops and picks (T1-T8, seed 7)" `Slow test_schedule_pinned;
      Alcotest.test_case "recorded bytes independent of run order" `Slow test_recording_order_free;
      Alcotest.test_case "trace is self-describing" `Slow test_trace_self_describing;
      Alcotest.test_case "replay byte-identical to live (T1-T8 x 10 configs x 2 seeds)" `Slow
        test_replay_matches_live;
      Alcotest.test_case "replayed block answers = live across free and reuse" `Quick
        test_replay_block_answers;
      Alcotest.test_case "diff: identical traces" `Quick test_diff_identical;
      Alcotest.test_case "diff pinpoints first divergent event" `Quick
        test_diff_pinpoints_first_divergence;
      Alcotest.test_case "diff: one trace a prefix of the other" `Quick test_diff_prefix_shorter;
      Alcotest.test_case "recorder metrics published" `Quick test_recorder_metrics;
      Alcotest.test_case "version byte checked: v1 refused, empty v2 decodes" `Quick
        test_version_checked;
      Alcotest.test_case "entry offsets index their event tags (T4, seed 7)" `Slow
        test_offsets_index_tags;
      Alcotest.test_case "time travel: live warnings, every moment located (T4)" `Slow
        test_explain_from_trace;
      Alcotest.test_case "chrome export: an event per entry at its clock (T4)" `Slow
        test_chrome_export;
    ] )
