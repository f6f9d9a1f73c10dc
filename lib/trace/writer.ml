(** Streaming encoder for the [raceguard-trace/1] compact binary trace.

    Layout (all multi-byte integers are LEB128 varints unless noted):

    {v
    "RGTR"  version=1  schema  meta-count (key value)*     header
    ( Sdef | Ldef | Kdef | Bdef | Snap | Event )*          body
    0x7F  event-count  snapshot-count                      end record
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

    Snapshot markers are written every [snapshot_every] events with the
    event index, clock and table sizes — the seek points the time-travel
    and info views use.

    Recorder throughput stats ([trace.record.events], [.bytes],
    [.snapshots], [.events_per_kb]) are published through the
    {!Raceguard_obs.Metrics} registry, so they ride the existing
    snapshot/merge/JSON path. *)

module Vm = Raceguard_vm
module Loc = Raceguard_util.Loc
module Metrics = Raceguard_obs.Metrics

let schema = "raceguard-trace/1"
let magic_head = "RGTR"
let magic_tail = "RGTE"
let version = 1

(* record tags (events live at 0x20 + Event.kind_id) *)
let tag_sdef = 0x01
let tag_ldef = 0x02
let tag_kdef = 0x03
let tag_bdef = 0x04
let tag_snap = 0x05
let tag_end = 0x7F
let tag_event = 0x20

let m_events = Metrics.counter "trace.record.events"
let m_bytes = Metrics.counter "trace.record.bytes"
let m_snapshots = Metrics.counter "trace.record.snapshots"
let g_events_per_kb = Metrics.gauge "trace.record.events_per_kb"

type t = {
  buf : Buffer.t;
  strings : (string, int) Hashtbl.t;
  locs : (Loc.t, int) Hashtbl.t;
  stacks : (int list, int) Hashtbl.t;
  blocks : (int * int * int * int * int * bool, int) Hashtbl.t;
  snapshot_every : int;
  mutable n_strings : int;
  mutable n_locs : int;
  mutable n_stacks : int;
  mutable n_blocks : int;
  mutable events : int;
  mutable snapshots : int;
  mutable last_clock : int;
  (* Physical-equality memos over the structural intern tables.  The VM
     hands tools the SAME cons cells / records between events — a
     thread's [frames] list only changes on call/return, its name never,
     a heap block record only on free — so a [==] probe replaces the
     structural hash (string hashing per loc, list allocation per stack)
     that would otherwise run on every event and dominate record cost.
     Soundness: all memoized values are immutable except a block's
     [freed] field, which the block memo re-checks on every hit. *)
  mutable stack_memo : (Loc.t list * int) option array;  (** indexed by tid *)
  mutable name_memo : (string * int) option array;  (** indexed by tid *)
  mutable loc_memo : (Loc.t * int) option;
  mutable block_memo : (Vm.Memory.block * bool * int) option;
  (* metrics are batched: per-event [Metrics] traffic (two domain-local
     lookups per event) is visible against a ~12-byte encode, so the
     counters advance only at snapshot markers and in [contents] *)
  mutable flushed_events : int;
  mutable flushed_bytes : int;
}

let default_snapshot_every = 4096

let create ?(snapshot_every = default_snapshot_every) ?(meta = []) () =
  if snapshot_every <= 0 then invalid_arg "Writer.create: snapshot_every must be positive";
  let buf = Buffer.create (64 * 1024) in
  Buffer.add_string buf magic_head;
  Buffer.add_char buf (Char.chr version);
  Codec.write_string buf schema;
  Codec.write_varint buf (List.length meta);
  List.iter
    (fun (k, v) ->
      Codec.write_string buf k;
      Codec.write_string buf v)
    meta;
  {
    buf;
    strings = Hashtbl.create 64;
    locs = Hashtbl.create 256;
    stacks = Hashtbl.create 256;
    blocks = Hashtbl.create 64;
    snapshot_every;
    n_strings = 0;
    n_locs = 0;
    n_stacks = 0;
    n_blocks = 0;
    events = 0;
    snapshots = 0;
    last_clock = 0;
    stack_memo = Array.make 16 None;
    name_memo = Array.make 16 None;
    loc_memo = None;
    block_memo = None;
    flushed_events = 0;
    flushed_bytes = 0;
  }

let grown a tid =
  let n = ref (Array.length a) in
  while tid >= !n do
    n := !n * 2
  done;
  let a' = Array.make !n None in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* --- interning: write the def record on first use ------------------- *)

let string_id t s =
  match Hashtbl.find_opt t.strings s with
  | Some id -> id
  | None ->
      let id = t.n_strings in
      t.n_strings <- id + 1;
      Hashtbl.add t.strings s id;
      Buffer.add_char t.buf (Char.chr tag_sdef);
      Codec.write_string t.buf s;
      id

let loc_id_slow t (loc : Loc.t) =
  match Hashtbl.find_opt t.locs loc with
  | Some id -> id
  | None ->
      let file = string_id t (Loc.file loc) in
      let func = string_id t (Loc.func loc) in
      let id = t.n_locs in
      t.n_locs <- id + 1;
      Hashtbl.add t.locs loc id;
      Buffer.add_char t.buf (Char.chr tag_ldef);
      Codec.write_varint t.buf file;
      Codec.write_varint t.buf func;
      Codec.write_varint t.buf (Loc.line loc);
      id

let loc_id t (loc : Loc.t) =
  match t.loc_memo with
  | Some (l, id) when l == loc -> id
  | _ ->
      let id = loc_id_slow t loc in
      t.loc_memo <- Some (loc, id);
      id

let stack_id_slow t (stack : Loc.t list) =
  let ids = List.map (loc_id t) stack in
  match Hashtbl.find_opt t.stacks ids with
  | Some id -> id
  | None ->
      let id = t.n_stacks in
      t.n_stacks <- id + 1;
      Hashtbl.add t.stacks ids id;
      Buffer.add_char t.buf (Char.chr tag_kdef);
      Codec.write_varint t.buf (List.length ids);
      List.iter (Codec.write_varint t.buf) ids;
      id

(* a thread's frames only change on call/return, so consecutive events
   of one thread nearly always hit the [==] probe *)
let stack_id t ~tid (stack : Loc.t list) =
  if tid >= Array.length t.stack_memo then t.stack_memo <- grown t.stack_memo tid;
  match Array.unsafe_get t.stack_memo tid with
  | Some (s, id) when s == stack -> id
  | _ ->
      let id = stack_id_slow t stack in
      Array.unsafe_set t.stack_memo tid (Some (stack, id));
      id

let name_id t ~tid (name : string) =
  if tid >= Array.length t.name_memo then t.name_memo <- grown t.name_memo tid;
  match Array.unsafe_get t.name_memo tid with
  | Some (n, id) when n == name -> id
  | _ ->
      let id = string_id t name in
      Array.unsafe_set t.name_memo tid (Some (name, id));
      id

let block_id_slow t (b : Vm.Memory.block) ~freed =
  let lid = loc_id t b.alloc_loc in
  let sid = stack_id_slow t b.alloc_stack in
  let key = (b.base, b.len, b.alloc_tid, lid, sid, freed) in
  match Hashtbl.find_opt t.blocks key with
  | Some id -> id
  | None ->
      let id = t.n_blocks in
      t.n_blocks <- id + 1;
      Hashtbl.add t.blocks key id;
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
  match t.block_memo with
  | Some (b', freed', id) when b' == b && freed' = freed -> id
  | _ ->
      let id = block_id_slow t b ~freed in
      t.block_memo <- Some (b, freed, id);
      id

(* --- event payloads ------------------------------------------------- *)

let write_sync buf (s : Vm.Event.sync_ref) =
  let kind, id =
    match s with
    | Vm.Event.Mutex i -> (0, i)
    | Vm.Event.Rwlock i -> (1, i)
    | Vm.Event.Cond i -> (2, i)
    | Vm.Event.Sem i -> (3, i)
  in
  Codec.write_varint buf ((id lsl 2) lor kind)

let write_payload t (ev : Vm.Event.t) =
  let buf = t.buf in
  let v = Codec.write_varint buf in
  let z = Codec.write_zigzag buf in
  let b = Codec.write_bool buf in
  let l loc = v (loc_id t loc) in
  match ev with
  | E_thread_start { tid; name; parent } ->
      v tid;
      v (string_id t name);
      v (match parent with None -> 0 | Some p -> p + 1)
  | E_thread_exit { tid } -> v tid
  | E_spawn { parent; child; loc } ->
      v parent;
      v child;
      l loc
  | E_join { joiner; joined; loc } ->
      v joiner;
      v joined;
      l loc
  | E_read { tid; addr; value; atomic; loc } | E_write { tid; addr; value; atomic; loc } ->
      v tid;
      v addr;
      z value;
      b atomic;
      l loc
  | E_alloc { tid; addr; len; loc } | E_free { tid; addr; len; loc } ->
      v tid;
      v addr;
      v len;
      l loc
  | E_sync_create { tid; sync; name; loc } ->
      v tid;
      write_sync buf sync;
      v (string_id t name);
      l loc
  | E_acquire { tid; lock; mode; loc } ->
      v tid;
      write_sync buf lock;
      b (mode = Vm.Eff.Write_mode);
      l loc
  | E_release { tid; lock; loc } ->
      v tid;
      write_sync buf lock;
      l loc
  | E_cond_signal { tid; cv; broadcast; loc } ->
      v tid;
      v cv;
      b broadcast;
      l loc
  | E_cond_wait_pre { tid; cv; m; loc } | E_cond_wait_post { tid; cv; m; loc } ->
      v tid;
      v cv;
      v m;
      l loc
  | E_sem_post { tid; sem; loc } | E_sem_wait_post { tid; sem; loc } ->
      v tid;
      v sem;
      l loc
  | E_client { tid; req; loc } ->
      v tid;
      (match req with
      | Vm.Eff.Destruct { addr; len } ->
          Buffer.add_char buf '\000';
          v addr;
          v len
      | Vm.Eff.Benign_race { addr; len } ->
          Buffer.add_char buf '\001';
          v addr;
          v len
      | Vm.Eff.Happens_before { tag } ->
          Buffer.add_char buf '\002';
          z tag
      | Vm.Eff.Happens_after { tag } ->
          Buffer.add_char buf '\003';
          z tag);
      l loc

(* Definition records must never appear inside an event record, so
   everything a payload will reference is interned (and its defs
   emitted) before the event tag is written; [write_payload] then only
   sees table hits. *)
let pre_intern t (ev : Vm.Event.t) =
  (match ev with
  | E_thread_start { name; _ } | E_sync_create { name; _ } -> ignore (string_id t name)
  | _ -> ());
  match ev with
  | E_thread_start _ | E_thread_exit _ -> ()
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
      ignore (loc_id t loc)

let flush_metrics t =
  let bytes = Buffer.length t.buf in
  Metrics.add m_events (t.events - t.flushed_events);
  Metrics.add m_bytes (bytes - t.flushed_bytes);
  Metrics.set g_events_per_kb (t.events * 1024 / max 1 bytes);
  t.flushed_events <- t.events;
  t.flushed_bytes <- bytes

let maybe_snapshot t =
  if t.events > 0 && t.events mod t.snapshot_every = 0 then begin
    Buffer.add_char t.buf (Char.chr tag_snap);
    Codec.write_varint t.buf t.events;
    Codec.write_varint t.buf t.last_clock;
    Codec.write_varint t.buf t.n_strings;
    Codec.write_varint t.buf t.n_locs;
    Codec.write_varint t.buf t.n_stacks;
    Codec.write_varint t.buf t.n_blocks;
    t.snapshots <- t.snapshots + 1;
    Metrics.incr m_snapshots;
    flush_metrics t
  end

(** Record one event together with the introspection data a live
    detector would query: the acting thread's call stack and name, the
    accessed heap block (reads/writes), and the clock. *)
let add_entry t ~event ~clock ~stack ~thread_name ~block =
  maybe_snapshot t;
  let tid = Vm.Event.tid event in
  if tid < 0 then invalid_arg "Writer.add_entry: negative tid";
  pre_intern t event;
  let sid = stack_id t ~tid stack in
  let nid = name_id t ~tid thread_name in
  let bid = match block with None -> 0 | Some b -> block_id t b + 1 in
  Buffer.add_char t.buf (Char.chr (tag_event + Vm.Event.kind_id event));
  write_payload t event;
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
let snapshot_count t = t.snapshots
let byte_size t = Buffer.length t.buf

(** Body + end record + CRC-guarded footer.  Non-destructive: the
    writer stays usable, so in-memory record/replay can snapshot the
    stream at any point. *)
let contents t =
  flush_metrics t;
  let tail = Buffer.create 32 in
  Buffer.add_char tail (Char.chr tag_end);
  Codec.write_varint tail t.events;
  Codec.write_varint tail t.snapshots;
  let body = Buffer.contents t.buf ^ Buffer.contents tail in
  let crc = Codec.crc32 body 0 (String.length body) in
  let foot = Buffer.create 8 in
  Codec.write_u32 foot crc;
  Buffer.add_string foot magic_tail;
  body ^ Buffer.contents foot

let to_file t path =
  let oc = open_out_bin path in
  output_string oc (contents t);
  close_out oc
