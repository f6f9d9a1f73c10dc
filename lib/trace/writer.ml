(** Streaming encoder for the [raceguard-trace/2] compact binary trace.

    Layout (all multi-byte integers are LEB128 varints unless noted):

    {v
    "RGTR"  version=2  meta-count (key value)*             header
    ( Sdef | Ldef | Kdef | Bdef | Event )*                 body
    0x7F  event-count                                      end record
    crc32 (u32 LE, over everything before it)  "RGTE"      footer
    v}

    Strings, source locations, call stacks and heap blocks are interned:
    a definition record is written once, on first use, and every later
    reference is a small integer id — the tables that make the format
    compact.  Each event record carries the introspection data a
    detector tool would query live (clock, the acting thread's call
    stack and name, the accessed heap block), so replay needs no VM.
    {!tool} encodes each event as the VM emits it, with what the live
    {!Vm.Tool.ctx} answers at that event; {!add_entry} is the one
    encoder, for the tool and for callers that build entries
    themselves.

    Recorder throughput stats ([trace.record.events], [.bytes]) are
    published through the {!Raceguard_obs.Metrics} registry when the
    stream is sealed, so they ride the existing snapshot/merge/JSON
    path. *)

module Vm = Raceguard_vm
module Loc = Raceguard_util.Loc
module Metrics = Raceguard_obs.Metrics

let schema = "raceguard-trace/2"
let magic_head = "RGTR"
let magic_tail = "RGTE"
let version = 2

(* record tags (events live at 0x20 + Event.kind_id) *)
let tag_sdef = 0x01
let tag_ldef = 0x02
let tag_kdef = 0x03
let tag_bdef = 0x04
let tag_end = 0x7F
let tag_event = 0x20

let m_events = Metrics.counter "trace.record.events"
let m_bytes = Metrics.counter "trace.record.bytes"

(* The intern tables hash no string on a lookup: a location hashes its
   line and string lengths ({!Loc.hash}), a stack the hashes of its
   frames, a block its integer fields.  Keys are equal exactly when they
   are structurally equal, so an id, and with it every byte, depends
   only on the order of first use. *)
module Loc_tbl = Hashtbl.Make (Loc)

(* two stacks are one when their frames are equal locations, which is
   when their lists of location ids would be equal *)
module Stack_tbl = Hashtbl.Make (struct
  type t = Loc.t list

  let rec equal a b =
    a == b
    || match (a, b) with l1 :: r1, l2 :: r2 -> Loc.equal l1 l2 && equal r1 r2 | _ -> false

  let hash s =
    let rec go h = function [] -> h | l :: rest -> go ((h * 65599) + Loc.hash l) rest in
    go 0 s land max_int
end)

(* A block as interned: its fields, the ids of its allocation site and
   stack, and [freed] as read at the event.  Lookups fill the writer's
   one probe record; a miss stores a copy, and stored keys never
   change. *)
type block_key = {
  mutable k_base : int;
  mutable k_len : int;
  mutable k_tid : int;
  mutable k_lid : int;
  mutable k_sid : int;
  mutable k_freed : bool;
}

module Block_tbl = Hashtbl.Make (struct
  type t = block_key

  let equal a b =
    a.k_base = b.k_base && a.k_len = b.k_len && a.k_tid = b.k_tid && a.k_lid = b.k_lid
    && a.k_sid = b.k_sid && a.k_freed = b.k_freed

  let hash k =
    let h = (((((k.k_base * 65599) + k.k_len) * 65599) + k.k_lid) * 65599) + k.k_sid in
    let h = (h * 4) + (k.k_tid * 2) + Bool.to_int k.k_freed in
    (h lxor (h lsr 17)) land max_int
end)

type t = {
  buf : Buffer.t;
  strings : (string, int) Hashtbl.t;
  locs : int Loc_tbl.t;
  stacks : int Stack_tbl.t;
  blocks : int Block_tbl.t;
  probe : block_key;
  mutable n_strings : int;
  mutable n_locs : int;
  mutable n_stacks : int;
  mutable n_blocks : int;
  mutable events : int;
  mutable last_clock : int;
  (* Physical-equality memos over the intern tables.  The VM hands
     tools the SAME cons cells / records between events — a thread's
     [frames] list only changes on call/return, its name never, a heap
     block record only on free — so a [==] probe replaces the table
     lookup that would otherwise run on every event.  Each memo is a
     key and an id in plain fields (per-thread ones in two arrays
     indexed by tid); an id of -1 marks an empty memo.  Soundness: all
     memoized values are immutable except a block's [freed] field,
     which the block memo re-checks on every hit. *)
  mutable stack_keys : Loc.t list array;
  mutable stack_ids : int array;
  mutable name_keys : string array;
  mutable name_ids : int array;
  mutable loc_key : Loc.t;
  mutable loc_memo : int;
  mutable block_key : Vm.Memory.block;
  mutable block_freed : bool;
  mutable block_memo : int;
  (* metrics are batched: per-event [Metrics] traffic (two domain-local
     lookups per event) is visible against a ~12-byte encode, so the
     counters advance only in [contents] *)
  mutable flushed_events : int;
  mutable flushed_bytes : int;
}

let no_block =
  { Vm.Memory.base = 0; len = 0; alloc_tid = 0; alloc_loc = Loc.unknown; alloc_stack = []; freed = false }

let create ?(meta = []) () =
  let buf = Buffer.create (64 * 1024) in
  Buffer.add_string buf magic_head;
  Buffer.add_char buf (Char.chr version);
  Codec.write_varint buf (List.length meta);
  List.iter
    (fun (k, v) ->
      Codec.write_string buf k;
      Codec.write_string buf v)
    meta;
  {
    buf;
    strings = Hashtbl.create 64;
    locs = Loc_tbl.create 256;
    stacks = Stack_tbl.create 256;
    blocks = Block_tbl.create 64;
    probe = { k_base = 0; k_len = 0; k_tid = 0; k_lid = 0; k_sid = 0; k_freed = false };
    n_strings = 0;
    n_locs = 0;
    n_stacks = 0;
    n_blocks = 0;
    events = 0;
    last_clock = 0;
    stack_keys = Array.make 16 [];
    stack_ids = Array.make 16 (-1);
    name_keys = Array.make 16 "";
    name_ids = Array.make 16 (-1);
    loc_key = Loc.unknown;
    loc_memo = -1;
    block_key = no_block;
    block_freed = false;
    block_memo = -1;
    flushed_events = 0;
    flushed_bytes = 0;
  }

(* [a] grown to hold index [tid], new slots [fill] *)
let grown a tid fill =
  let n = ref (Array.length a) in
  while tid >= !n do
    n := !n * 2
  done;
  let a' = Array.make !n fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* --- interning: write the def record on first use ------------------- *)

let string_id t s =
  match Hashtbl.find t.strings s with
  | id -> id
  | exception Not_found ->
      let id = t.n_strings in
      t.n_strings <- id + 1;
      Hashtbl.add t.strings s id;
      Buffer.add_char t.buf (Char.chr tag_sdef);
      Codec.write_string t.buf s;
      id

let loc_id_slow t (loc : Loc.t) =
  match Loc_tbl.find t.locs loc with
  | id -> id
  | exception Not_found ->
      let file = string_id t (Loc.file loc) in
      let func = string_id t (Loc.func loc) in
      let id = t.n_locs in
      t.n_locs <- id + 1;
      Loc_tbl.add t.locs loc id;
      Buffer.add_char t.buf (Char.chr tag_ldef);
      Codec.write_varint t.buf file;
      Codec.write_varint t.buf func;
      Codec.write_varint t.buf (Loc.line loc);
      id

let loc_id t (loc : Loc.t) =
  if t.loc_memo >= 0 && t.loc_key == loc then t.loc_memo
  else begin
    let id = loc_id_slow t loc in
    t.loc_key <- loc;
    t.loc_memo <- id;
    id
  end

let rec intern_frames t = function
  | [] -> ()
  | l :: rest ->
      ignore (loc_id t l);
      intern_frames t rest

let rec write_frames t = function
  | [] -> ()
  | l :: rest ->
      Codec.write_varint t.buf (loc_id t l);
      write_frames t rest

(* a new stack interns its frames first, in order, so their defs
   precede the stack's *)
let stack_id_slow t (stack : Loc.t list) =
  match Stack_tbl.find t.stacks stack with
  | id -> id
  | exception Not_found ->
      intern_frames t stack;
      let id = t.n_stacks in
      t.n_stacks <- id + 1;
      Stack_tbl.add t.stacks stack id;
      Buffer.add_char t.buf (Char.chr tag_kdef);
      Codec.write_varint t.buf (List.length stack);
      write_frames t stack;
      id

(* a thread's frames only change on call/return, so consecutive events
   of one thread nearly always hit the [==] probe *)
let stack_id t ~tid (stack : Loc.t list) =
  if tid >= Array.length t.stack_ids then begin
    t.stack_keys <- grown t.stack_keys tid [];
    t.stack_ids <- grown t.stack_ids tid (-1)
  end;
  let id = Array.unsafe_get t.stack_ids tid in
  if id >= 0 && Array.unsafe_get t.stack_keys tid == stack then id
  else begin
    let id = stack_id_slow t stack in
    Array.unsafe_set t.stack_keys tid stack;
    Array.unsafe_set t.stack_ids tid id;
    id
  end

let name_id t ~tid (name : string) =
  if tid >= Array.length t.name_ids then begin
    t.name_keys <- grown t.name_keys tid "";
    t.name_ids <- grown t.name_ids tid (-1)
  end;
  let id = Array.unsafe_get t.name_ids tid in
  if id >= 0 && Array.unsafe_get t.name_keys tid == name then id
  else begin
    let id = string_id t name in
    Array.unsafe_set t.name_keys tid name;
    Array.unsafe_set t.name_ids tid id;
    id
  end

let block_id_slow t (b : Vm.Memory.block) ~freed =
  let lid = loc_id t b.alloc_loc in
  let sid = stack_id_slow t b.alloc_stack in
  let k = t.probe in
  k.k_base <- b.base;
  k.k_len <- b.len;
  k.k_tid <- b.alloc_tid;
  k.k_lid <- lid;
  k.k_sid <- sid;
  k.k_freed <- freed;
  match Block_tbl.find t.blocks k with
  | id -> id
  | exception Not_found ->
      let id = t.n_blocks in
      t.n_blocks <- id + 1;
      Block_tbl.add t.blocks { k with k_base = b.base } id;
      Buffer.add_char t.buf (Char.chr tag_bdef);
      Codec.write_varint t.buf b.base;
      Codec.write_varint t.buf b.len;
      Codec.write_varint t.buf b.alloc_tid;
      Codec.write_varint t.buf lid;
      Codec.write_varint t.buf sid;
      Codec.write_bool t.buf freed;
      id

(* [freed] is read at the event and keys both the table and the memo:
   freeing mutates the block record in place, so one record interns
   once live and once freed (distinct def records) *)
let block_id t (b : Vm.Memory.block) =
  let freed = b.freed in
  if t.block_memo >= 0 && t.block_key == b && t.block_freed = freed then t.block_memo
  else begin
    let id = block_id_slow t b ~freed in
    t.block_key <- b;
    t.block_freed <- freed;
    t.block_memo <- id;
    id
  end

(* --- event payloads ------------------------------------------------- *)

let write_sync buf (s : Vm.Event.sync_ref) =
  Codec.write_varint buf
    (match s with
    | Vm.Event.Mutex i -> i lsl 2
    | Vm.Event.Rwlock i -> (i lsl 2) lor 1
    | Vm.Event.Cond i -> (i lsl 2) lor 2
    | Vm.Event.Sem i -> (i lsl 2) lor 3)

(* [name] and [loc] are the ids of the event's name string and source
   location, interned before the tag (-1 where the event has none) *)
let write_payload buf (ev : Vm.Event.t) ~name ~loc =
  let v = Codec.write_varint in
  match ev with
  | E_thread_start { tid; parent; _ } ->
      v buf tid;
      v buf name;
      v buf (match parent with None -> 0 | Some p -> p + 1)
  | E_thread_exit { tid } -> v buf tid
  | E_spawn { parent; child; _ } ->
      v buf parent;
      v buf child;
      v buf loc
  | E_join { joiner; joined; _ } ->
      v buf joiner;
      v buf joined;
      v buf loc
  | E_read { tid; addr; value; atomic; _ } | E_write { tid; addr; value; atomic; _ } ->
      v buf tid;
      v buf addr;
      Codec.write_zigzag buf value;
      Codec.write_bool buf atomic;
      v buf loc
  | E_alloc { tid; addr; len; _ } | E_free { tid; addr; len; _ } ->
      v buf tid;
      v buf addr;
      v buf len;
      v buf loc
  | E_sync_create { tid; sync; _ } ->
      v buf tid;
      write_sync buf sync;
      v buf name;
      v buf loc
  | E_acquire { tid; lock; mode; _ } ->
      v buf tid;
      write_sync buf lock;
      Codec.write_bool buf (mode = Vm.Eff.Write_mode);
      v buf loc
  | E_release { tid; lock; _ } ->
      v buf tid;
      write_sync buf lock;
      v buf loc
  | E_cond_signal { tid; cv; broadcast; _ } ->
      v buf tid;
      v buf cv;
      Codec.write_bool buf broadcast;
      v buf loc
  | E_cond_wait_pre { tid; cv; m; _ } | E_cond_wait_post { tid; cv; m; _ } ->
      v buf tid;
      v buf cv;
      v buf m;
      v buf loc
  | E_sem_post { tid; sem; _ } | E_sem_wait_post { tid; sem; _ } ->
      v buf tid;
      v buf sem;
      v buf loc
  | E_client { tid; req; _ } ->
      v buf tid;
      (match req with
      | Vm.Eff.Destruct { addr; len } ->
          Buffer.add_char buf '\000';
          v buf addr;
          v buf len
      | Vm.Eff.Benign_race { addr; len } ->
          Buffer.add_char buf '\001';
          v buf addr;
          v buf len
      | Vm.Eff.Happens_before { tag } ->
          Buffer.add_char buf '\002';
          Codec.write_zigzag buf tag
      | Vm.Eff.Happens_after { tag } ->
          Buffer.add_char buf '\003';
          Codec.write_zigzag buf tag);
      v buf loc

(* Definition records must never appear inside an event record, so
   everything a payload will reference is interned (and its defs
   emitted) before the event tag is written, names first, then the
   location. *)
let name_of_event t (ev : Vm.Event.t) =
  match ev with E_thread_start { name; _ } | E_sync_create { name; _ } -> string_id t name | _ -> -1

let loc_of_event t (ev : Vm.Event.t) =
  match ev with
  | E_thread_start _ | E_thread_exit _ -> -1
  | E_spawn { loc; _ }
  | E_join { loc; _ }
  | E_read { loc; _ }
  | E_write { loc; _ }
  | E_alloc { loc; _ }
  | E_free { loc; _ }
  | E_sync_create { loc; _ }
  | E_acquire { loc; _ }
  | E_release { loc; _ }
  | E_cond_signal { loc; _ }
  | E_cond_wait_pre { loc; _ }
  | E_cond_wait_post { loc; _ }
  | E_sem_post { loc; _ }
  | E_sem_wait_post { loc; _ }
  | E_client { loc; _ } ->
      loc_id t loc

(** Record one event together with the introspection data a live
    detector would query: the acting thread's call stack and name, the
    accessed heap block (reads/writes), and the clock. *)
let add_entry t ~event ~clock ~stack ~thread_name ~block =
  let tid = Vm.Event.tid event in
  if tid < 0 then invalid_arg "Writer.add_entry: negative tid";
  let name = name_of_event t event in
  let loc = loc_of_event t event in
  let sid = stack_id t ~tid stack in
  let nid = name_id t ~tid thread_name in
  let bid = match block with None -> 0 | Some b -> block_id t b + 1 in
  Buffer.add_char t.buf (Char.chr (tag_event + Vm.Event.kind_id event));
  write_payload t.buf event ~name ~loc;
  if clock < t.last_clock then invalid_arg "Writer.add_entry: clock went backwards";
  Codec.write_varint t.buf (clock - t.last_clock);
  t.last_clock <- clock;
  Codec.write_varint t.buf sid;
  Codec.write_varint t.buf nid;
  (match event with
  | E_read _ | E_write _ -> Codec.write_varint t.buf bid
  | _ -> ());
  t.events <- t.events + 1

(* The tool's callback: encode the event now, with what the live ctx
   answers at it.  Nothing outlives the callback, so the event and the
   values the ctx built for it die in the minor heap; a recorder that
   kept events until the run ended would promote every one. *)
let add_event t (ctx : Vm.Tool.ctx) event =
  let tid = Vm.Event.tid event in
  let block =
    match event with
    | E_read { addr; _ } | E_write { addr; _ } -> ctx.block_of addr
    | _ -> None
  in
  add_entry t ~event ~clock:(ctx.clock ()) ~stack:(ctx.stack_of tid)
    ~thread_name:(ctx.thread_name tid) ~block

let tool t = Vm.Tool.make ~name:"trace-recorder" ~on_event:(add_event t)

let event_count t = t.events
let byte_size t = Buffer.length t.buf

(** Body + end record + CRC-guarded footer.  Non-destructive: the
    writer stays usable, so in-memory record/replay can seal the
    stream at any point. *)
let contents t =
  let head = Buffer.length t.buf in
  Metrics.add m_events (t.events - t.flushed_events);
  Metrics.add m_bytes (head - t.flushed_bytes);
  t.flushed_events <- t.events;
  t.flushed_bytes <- head;
  let tail = Buffer.create 16 in
  Buffer.add_char tail (Char.chr tag_end);
  Codec.write_varint tail t.events;
  (* the body is copied once, into the sealed result *)
  let body = head + Buffer.length tail in
  let out = Bytes.create (body + 8) in
  Buffer.blit t.buf 0 out 0 head;
  Buffer.blit tail 0 out head (Buffer.length tail);
  Bytes.set_int32_le out body (Int32.of_int (Codec.crc32_bytes out 0 body));
  Bytes.blit_string magic_tail 0 out (body + 4) 4;
  Bytes.unsafe_to_string out

let to_file t path =
  let oc = open_out_bin path in
  output_string oc (contents t);
  close_out oc
