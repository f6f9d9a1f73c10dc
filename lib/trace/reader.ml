(** Decoder and replay driver for [raceguard-trace/2] traces.

    [of_string]/[of_file] validate the whole container up front — head
    and tail magics, the version byte, the CRC-32 footer, and the event
    count in the end record — before a single entry is returned, so a
    truncated or bit-flipped trace is rejected with a message instead
    of yielding a silently shorter replay.

    [replay] feeds the decoded entries to any set of VM tools through a
    synthesised {!Raceguard_vm.Tool.ctx} whose queries answer from the
    recorded per-event data: a detector run this way sees byte-for-byte
    what it would have seen live. *)

module Vm = Raceguard_vm
module Loc = Raceguard_util.Loc
module Metrics = Raceguard_obs.Metrics

let m_replay_events = Metrics.counter "trace.replay.events"
let m_replay_traces = Metrics.counter "trace.replay.traces"

type entry = {
  en_index : int;  (** 0-based position in the event stream *)
  en_offset : int;  (** byte offset of the event record's tag *)
  en_event : Vm.Event.t;
  en_clock : int;
  en_stack : Loc.t list;  (** acting thread's call stack at the event *)
  en_thread : string;  (** acting thread's name *)
  en_block : Vm.Memory.block option;  (** reads/writes: block containing the address *)
}

type t = { meta : (string * string) list; entries : entry array; byte_size : int }

let meta t = t.meta
let entries t = t.entries
let length t = Array.length t.entries
let byte_size t = t.byte_size
let meta_find t key = List.assoc_opt key t.meta

exception Parse of string

let fail fmt = Fmt.kstr (fun m -> raise (Parse m)) fmt

(* growable append-only table: interned definitions, decoded entries *)
module Tbl = struct
  type 'a t = { what : string; dummy : 'a; mutable a : 'a array; mutable n : int }

  let create what dummy = { what; dummy; a = Array.make 16 dummy; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) t.dummy in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    Array.unsafe_set t.a t.n x;
    t.n <- t.n + 1

  let get t i = if i < 0 || i >= t.n then fail "dangling %s id %d" t.what i else Array.unsafe_get t.a i
  let length t = t.n
  let to_array t = Array.sub t.a 0 t.n
end

let read_sync c =
  let n = Codec.read_varint c in
  let id = n lsr 2 in
  match n land 3 with
  | 0 -> Vm.Event.Mutex id
  | 1 -> Vm.Event.Rwlock id
  | 2 -> Vm.Event.Cond id
  | _ -> Vm.Event.Sem id

type decoder = {
  c : Codec.cursor;
  strings : string Tbl.t;
  locs : Loc.t Tbl.t;
  stacks : Loc.t list Tbl.t;
  blocks : Vm.Memory.block option Tbl.t;
      (** each [Some b] built once, at its definition, and shared by
          every entry that names the block *)
}

(* Payload fields, read by direct calls: a decoded event allocates only
   itself. *)
let num d = Codec.read_varint d.c
let loc d = Tbl.get d.locs (Codec.read_varint d.c)
let str d = Tbl.get d.strings (Codec.read_varint d.c)

let read_payload d kind : Vm.Event.t =
  let c = d.c in
  match kind with
  | 0 ->
      let tid = num d in
      let name = str d in
      let parent = match num d with 0 -> None | p -> Some (p - 1) in
      Vm.Event.E_thread_start { tid; name; parent }
  | 1 -> E_thread_exit { tid = num d }
  | 2 ->
      let parent = num d in
      let child = num d in
      E_spawn { parent; child; loc = loc d }
  | 3 ->
      let joiner = num d in
      let joined = num d in
      E_join { joiner; joined; loc = loc d }
  | 4 | 5 ->
      let tid = num d in
      let addr = num d in
      let value = Codec.read_zigzag c in
      let atomic = Codec.read_bool c in
      let loc = loc d in
      if kind = 4 then E_read { tid; addr; value; atomic; loc }
      else E_write { tid; addr; value; atomic; loc }
  | 6 | 7 ->
      let tid = num d in
      let addr = num d in
      let len = num d in
      let loc = loc d in
      if kind = 6 then E_alloc { tid; addr; len; loc } else E_free { tid; addr; len; loc }
  | 8 ->
      let tid = num d in
      let sync = read_sync c in
      let name = str d in
      E_sync_create { tid; sync; name; loc = loc d }
  | 9 ->
      let tid = num d in
      let lock = read_sync c in
      let mode = if Codec.read_bool c then Vm.Eff.Write_mode else Vm.Eff.Read_mode in
      E_acquire { tid; lock; mode; loc = loc d }
  | 10 ->
      let tid = num d in
      let lock = read_sync c in
      E_release { tid; lock; loc = loc d }
  | 11 ->
      let tid = num d in
      let cv = num d in
      let broadcast = Codec.read_bool c in
      E_cond_signal { tid; cv; broadcast; loc = loc d }
  | 12 | 13 ->
      let tid = num d in
      let cv = num d in
      let m = num d in
      let loc = loc d in
      if kind = 12 then E_cond_wait_pre { tid; cv; m; loc }
      else E_cond_wait_post { tid; cv; m; loc }
  | 14 | 15 ->
      let tid = num d in
      let sem = num d in
      let loc = loc d in
      if kind = 14 then E_sem_post { tid; sem; loc } else E_sem_wait_post { tid; sem; loc }
  | 16 ->
      let tid = num d in
      let req =
        match Codec.read_byte c with
        | 0 ->
            let addr = num d in
            let len = num d in
            Vm.Eff.Destruct { addr; len }
        | 1 ->
            let addr = num d in
            let len = num d in
            Vm.Eff.Benign_race { addr; len }
        | 2 -> Vm.Eff.Happens_before { tag = Codec.read_zigzag c }
        | 3 -> Vm.Eff.Happens_after { tag = Codec.read_zigzag c }
        | n -> fail "unknown client-request subtag %d" n
      in
      E_client { tid; req; loc = loc d }
  | _ -> fail "unknown event kind %d" kind

(* The answers of an empty context: the replay driver's entry before
   the first event and after the last, and the decoder's array filler. *)
let no_entry =
  {
    en_index = -1;
    en_offset = -1;
    en_event = Vm.Event.E_thread_exit { tid = -1 };
    en_clock = 0;
    en_stack = [];
    en_thread = "?";
    en_block = None;
  }

let decode data =
  let len = String.length data in
  let min_len = String.length Writer.magic_head + 1 + 8 in
  if len < min_len then fail "trace too short (%d bytes)" len;
  if String.sub data 0 4 <> Writer.magic_head then fail "bad magic (not a raceguard trace)";
  let tail = String.sub data (len - 4) 4 in
  if tail <> Writer.magic_tail then fail "bad trailing magic (truncated trace?)";
  let stored_crc = Codec.read_u32_at data (len - 8) in
  let computed_crc = Codec.crc32 data 0 (len - 8) in
  if stored_crc <> computed_crc then
    fail "CRC mismatch (stored %08x, computed %08x): corrupt trace" stored_crc computed_crc;
  let c = Codec.cursor ~pos:4 ~limit:(len - 8) data in
  let version = Codec.read_byte c in
  if version <> Writer.version then fail "unsupported trace version %d" version;
  let n_meta = Codec.read_varint c in
  let meta =
    List.init n_meta (fun _ ->
        let k = Codec.read_string c in
        let v = Codec.read_string c in
        (k, v))
  in
  let d =
    {
      c;
      strings = Tbl.create "string" "";
      locs = Tbl.create "loc" Loc.unknown;
      stacks = Tbl.create "stack" [];
      blocks = Tbl.create "block" None;
    }
  in
  let entries = Tbl.create "entry" no_entry in
  let last_clock = ref 0 in
  let finished = ref false in
  while not !finished do
    if Codec.at_end c then fail "missing end record";
    let offset = c.Codec.pos in
    let tag = Codec.read_byte c in
    if tag >= Writer.tag_event && tag < Writer.tag_event + Vm.Event.kind_count then begin
      let en_event = read_payload d (tag - Writer.tag_event) in
      let en_clock = !last_clock + Codec.read_varint c in
      last_clock := en_clock;
      let en_stack = Tbl.get d.stacks (Codec.read_varint c) in
      let en_thread = Tbl.get d.strings (Codec.read_varint c) in
      let en_block =
        match en_event with
        | E_read _ | E_write _ -> (
            match Codec.read_varint c with 0 -> None | b -> Tbl.get d.blocks (b - 1))
        | _ -> None
      in
      Tbl.add entries
        { en_index = Tbl.length entries; en_offset = offset; en_event; en_clock; en_stack;
          en_thread; en_block }
    end
    else if tag = Writer.tag_sdef then Tbl.add d.strings (Codec.read_string c)
    else if tag = Writer.tag_ldef then begin
      let file = Tbl.get d.strings (Codec.read_varint c) in
      let func = Tbl.get d.strings (Codec.read_varint c) in
      let line = Codec.read_varint c in
      Tbl.add d.locs (Loc.v file func line)
    end
    else if tag = Writer.tag_kdef then begin
      let n = Codec.read_varint c in
      let frames = List.init n (fun _ -> Tbl.get d.locs (Codec.read_varint c)) in
      Tbl.add d.stacks frames
    end
    else if tag = Writer.tag_bdef then begin
      let base = Codec.read_varint c in
      let blen = Codec.read_varint c in
      let alloc_tid = Codec.read_varint c in
      let alloc_loc = Tbl.get d.locs (Codec.read_varint c) in
      let alloc_stack = Tbl.get d.stacks (Codec.read_varint c) in
      let freed = Codec.read_bool c in
      Tbl.add d.blocks (Some { Vm.Memory.base; len = blen; alloc_tid; alloc_loc; alloc_stack; freed })
    end
    else if tag = Writer.tag_end then begin
      let claimed_events = Codec.read_varint c in
      if claimed_events <> Tbl.length entries then
        fail "end record claims %d events, decoded %d" claimed_events (Tbl.length entries);
      if not (Codec.at_end c) then fail "%d trailing bytes after end record" (Codec.remaining c);
      finished := true
    end
    else fail "unknown record tag 0x%02x at offset %d" tag offset
  done;
  { meta; entries = Tbl.to_array entries; byte_size = len }

let of_string data =
  match decode data with
  | t -> Ok t
  | exception Parse m -> Error (`Msg m)
  | exception Codec.Truncated -> Error (`Msg "truncated trace")
  | exception Codec.Overflow -> Error (`Msg "varint out of range (above max_int)")

let of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | data -> of_string data
  | exception Sys_error m -> Error (`Msg m)

(* --- replay --------------------------------------------------------- *)

let rec feed ctx ev = function
  | [] -> ()
  | (tool : Vm.Tool.t) :: rest ->
      tool.on_event ctx ev;
      feed ctx ev rest

(** Drive [tools] over the trace.  The synthesised ctx answers from the
    current entry's recorded data: [stack_of]/[thread_name] for the
    acting thread (thread names of other, previously started threads
    come from their [E_thread_start] events), [block_of] for the
    recorded access address.  Detectors in this repo query nothing
    else, which is what makes replayed reports byte-identical.  Outside
    the loop the current entry is [no_entry], whose tid no thread has,
    so the ctx answers as for no event. *)
let replay t (tools : Vm.Tool.t list) =
  Metrics.incr m_replay_traces;
  let names : (int, string) Hashtbl.t = Hashtbl.create 16 in
  let current = ref no_entry in
  let ctx : Vm.Tool.ctx =
    {
      stack_of =
        (fun tid ->
          let e = !current in
          if Vm.Event.tid e.en_event = tid then e.en_stack else []);
      thread_name =
        (fun tid ->
          let e = !current in
          if Vm.Event.tid e.en_event = tid then e.en_thread
          else match Hashtbl.find_opt names tid with Some n -> n | None -> "?");
      block_of =
        (fun addr ->
          match (!current).en_block with
          | Some b as block when addr >= b.base && addr < b.base + b.len -> block
          | _ -> None);
      clock = (fun () -> (!current).en_clock);
    }
  in
  let entries = t.entries in
  for i = 0 to Array.length entries - 1 do
    let e = Array.unsafe_get entries i in
    (match e.en_event with
    | Vm.Event.E_thread_start { tid; name; _ } -> Hashtbl.replace names tid name
    | _ -> ());
    current := e;
    feed ctx e.en_event tools
  done;
  current := no_entry;
  Metrics.add m_replay_events (Array.length entries)
