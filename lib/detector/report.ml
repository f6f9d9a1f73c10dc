(** Race/deadlock reports and the de-duplicating collector.

    Valgrind de-duplicates errors by their call-stack signature; the
    paper counts "reported possible data race {e locations}" (Figure 6),
    i.e. distinct signatures, not individual dynamic occurrences.  The
    collector keeps only the deduplicated locations (first occurrence
    and count) and hands each occurrence, as it is added, to an
    optional [on_report] hook. *)

module Loc = Raceguard_util.Loc

type kind =
  | Race_write  (** write with empty candidate lock-set *)
  | Race_read  (** read with empty candidate lock-set in Shared-Modified *)
  | Lock_order  (** lock acquisition order inverts an earlier order *)

let kind_to_string = function
  | Race_write -> "Possible data race writing variable"
  | Race_read -> "Possible data race reading variable"
  | Lock_order -> "Lock order violation (potential deadlock)"

let pp_kind ppf k = Format.pp_print_string ppf (kind_to_string k)

type block_info = {
  b_base : int;
  b_len : int;
  b_alloc_tid : int;
  b_alloc_stack : Loc.t list;
}

(* --- provenance ---------------------------------------------------- *)

(** One shadow-state transition of the warned address.  The state and
    lock-set renderings are produced by the detector at transition time
    (it owns the lock-name table), which also makes byte-stability
    across the fast path trivial to check: the strings either match or
    they don't. *)
type transition = {
  t_clock : int;
  t_tid : int;
  t_access : string;  (** "read" / "write" / "destruct" *)
  t_from : string;  (** rendered state before, e.g. "shared RO, {\"m\"}" *)
  t_to : string;  (** rendered state after *)
  t_loc : Loc.t option;
}

type provenance = {
  p_history : transition list;
      (** shadow-state evolution of the warned address since its last
          allocation, oldest first, truncated to the first
          [max_history] genuine transitions *)
  p_dropped : int;  (** transitions beyond the truncation bound *)
  mutable p_suppressed_by : string list;
      (** config knobs (e.g. "hwlc", "dr") whose enabling removes this
          warning's signature; filled in by [Explain], empty until
          then *)
}

type t = {
  kind : kind;
  addr : int;
  tid : int;
  thread_name : string;
  stack : Loc.t list;  (** innermost frame first *)
  detail : string;  (** e.g. "Previous state: shared RO, no locks" *)
  block : block_info option;
  clock : int;
  provenance : provenance option;
}

(* --- construction --------------------------------------------------- *)

(** The report of an access by [tid] at [loc] to [addr], as the VM sees
    it at the moment of the warning. *)
let of_access (ctx : Raceguard_vm.Tool.ctx) ~kind ~tid ~addr ~loc ?provenance detail =
  let block =
    match ctx.block_of addr with
    | Some (b : Raceguard_vm.Memory.block) ->
        Some
          {
            b_base = b.base;
            b_len = b.len;
            b_alloc_tid = b.alloc_tid;
            b_alloc_stack = b.alloc_stack;
          }
    | None -> None
  in
  {
    kind;
    addr;
    tid;
    thread_name = ctx.thread_name tid;
    stack = loc :: ctx.stack_of tid;
    detail;
    block;
    clock = ctx.clock ();
    provenance;
  }

let unordered_detail ~prev_tid ~prev_loc =
  Fmt.str "Conflicts with unordered access by thread %d at %a" prev_tid Loc.pp prev_loc

(* --- signatures ---------------------------------------------------- *)

(** Number of stack frames participating in the dedup signature
    (Valgrind's default is the top 4). *)
let signature_depth = 4

let rec take n = function [] -> [] | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest

type signature = kind * Loc.t list

let signature_of kind stack : signature = (kind, take signature_depth stack)
let signature r = signature_of r.kind r.stack

let compare_signature (k1, s1) (k2, s2) =
  let c = compare k1 k2 in
  if c <> 0 then c else List.compare Loc.compare s1 s2

module Sig_set = Set.Make (struct
  type t = signature

  let compare = compare_signature
end)

(* --- rendering ----------------------------------------------------- *)

(* The one report layout.  Digests render every occurrence, and
   rendering one can cost more than detecting it, so the layout is
   written straight into a [Buffer]: no [Format], and integers digit by
   digit rather than through [Printf].  Lines end in a newline, or, for
   {!pp}, in a call of [eol], which hands the finished line to a
   formatter. *)

(* the digit loops are top-level, so that writing a number allocates
   no closure *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n = if n < 0 then Buffer.add_string b (string_of_int n) else add_digits b n

let rec add_hex_digits b n =
  if n <> 0 then begin
    add_hex_digits b (n lsr 4);
    Buffer.add_char b (String.unsafe_get "0123456789abcdef" (n land 15))
  end

(* Printf's [%#x]: "0x" and lower-case digits, but a bare "0" for 0;
   [lsr] reads a negative value as unsigned, as [%x] does *)
let add_hex b n =
  if n = 0 then Buffer.add_char b '0'
  else begin
    Buffer.add_string b "0x";
    add_hex_digits b n
  end

(* one frame, as [Loc.pp] prints it: "func (file:line)" *)
let add_frame b (l : Loc.t) =
  Buffer.add_string b l.func;
  Buffer.add_string b " (";
  Buffer.add_string b l.file;
  Buffer.add_char b ':';
  add_int b l.line;
  Buffer.add_char b ')'

let end_line b = function None -> Buffer.add_char b '\n' | Some eol -> eol b

(* the lines of frames [i .. depth-1] of a stack whose frame [i] is the
   head of [stack]: "   at " before frame 0, "   by " before the rest *)
let rec add_stack b eol i ~depth = function
  | loc :: rest when i < depth ->
      Buffer.add_string b (if i = 0 then "   at " else "   by ");
      add_frame b loc;
      end_line b eol;
      add_stack b eol (i + 1) ~depth rest
  | _ -> ()

(* The segment cache.  A report's stack is [loc :: ctx.stack_of tid],
   and that tail, like the block's allocation stack, is a list the VM
   or a decoded trace shares between events: of eraser-pure's 110,434
   occurrences in a seed-7 trace-replay round, 75,986 have the tail of
   the occurrence before them.  So the lines of a tail and of an
   allocation stack are rendered once and kept, keyed on the list
   itself, in a direct-mapped table per domain.  A hit is exact: lists
   and locations are immutable and the table holds its keys alive, so
   a key [==] the stack renders the same bytes.  The slot is a hash of
   the first frames' lines, so stacks that differ only in text share a
   slot and evict each other, never answer for each other.  The cache
   holds newline-ended lines, so only renders without [eol] use it. *)
let segment_slots = 64

type segment_table = { keys : Loc.t list array; lines : string array }
type segments = { tails : segment_table; allocs : segment_table; scratch : Buffer.t }

(* every slot starts as the empty stack, whose lines are "" *)
let segments_key =
  Domain.DLS.new_key (fun () ->
      let table () = { keys = Array.make segment_slots []; lines = Array.make segment_slots "" } in
      { tails = table (); allocs = table (); scratch = Buffer.create 256 })

let rec slot_hash h i = function
  | (l : Loc.t) :: rest when i < signature_depth -> slot_hash ((h * 65599) + l.line) (i + 1) rest
  | _ -> h

(* [add_stack], through the cache of [tail]s or of allocation stacks
   when lines end in a newline; each table serves one call in [render],
   so its entries share one [i] and [depth] *)
let add_lines b eol ~tail i ~depth stack =
  match eol with
  | Some _ -> add_stack b eol i ~depth stack
  | None ->
      let seg = Domain.DLS.get segments_key in
      let t = if tail then seg.tails else seg.allocs in
      let h = slot_hash 0 0 stack in
      let slot = (h lxor (h lsr 16)) land (segment_slots - 1) in
      if Array.unsafe_get t.keys slot == stack then Buffer.add_string b (Array.unsafe_get t.lines slot)
      else begin
        let s = seg.scratch in
        Buffer.clear s;
        add_stack s None i ~depth stack;
        let text = Buffer.contents s in
        Array.unsafe_set t.keys slot stack;
        Array.unsafe_set t.lines slot text;
        Buffer.add_string b text
      end

let render ?eol b r =
  Buffer.add_string b (kind_to_string r.kind);
  Buffer.add_string b " at ";
  add_hex b r.addr;
  end_line b eol;
  (match r.stack with
  | [] -> ()
  | loc :: tail ->
      Buffer.add_string b "   at ";
      add_frame b loc;
      end_line b eol;
      add_lines b eol ~tail:true 1 ~depth:max_int tail);
  (match r.block with
  | Some bl ->
      Buffer.add_string b " Address ";
      add_hex b r.addr;
      Buffer.add_string b " is ";
      add_int b (r.addr - bl.b_base);
      Buffer.add_string b " words inside a block of size ";
      add_int b bl.b_len;
      Buffer.add_string b " alloc'd by thread ";
      add_int b bl.b_alloc_tid;
      end_line b eol;
      add_lines b eol ~tail:false 0 ~depth:signature_depth bl.b_alloc_stack
  | None -> ());
  if r.detail <> "" then begin
    Buffer.add_char b ' ';
    Buffer.add_string b r.detail;
    end_line b eol
  end

let to_string r =
  let b = Buffer.create 512 in
  render b r;
  Buffer.contents b

let pp ppf r =
  render (Buffer.create 128) r
    ~eol:(fun b ->
      Format.pp_print_string ppf (Buffer.contents b);
      Format.pp_force_newline ppf ();
      Buffer.clear b)

let signature_string r =
  let b = Buffer.create 160 in
  Buffer.add_string b (kind_to_string r.kind);
  Buffer.add_char b '@';
  let rec go i = function
    | loc :: rest when i < signature_depth ->
        if i > 0 then Buffer.add_char b ';';
        add_frame b loc;
        go (i + 1) rest
    | _ -> ()
  in
  go 0 r.stack;
  Buffer.contents b

(* Provenance rendering is kept out of [pp] on purpose: [pp] output is
   compared byte-for-byte by the fast-path fidelity tests and by users
   diffing runs, so the explain trace is an opt-in second section. *)
let pp_provenance ppf (p : provenance) =
  Fmt.pf ppf " Shadow-state history of the warned address:@\n";
  List.iter
    (fun tr ->
      Fmt.pf ppf "   clock %-6d thread %-3d %-8s %s -> %s%a@\n" tr.t_clock tr.t_tid tr.t_access
        tr.t_from tr.t_to
        (fun ppf -> function None -> () | Some l -> Fmt.pf ppf "  (%a)" Loc.pp l)
        tr.t_loc)
    p.p_history;
  if p.p_dropped > 0 then Fmt.pf ppf "   ... %d further transitions elided@\n" p.p_dropped;
  match p.p_suppressed_by with
  | [] -> ()
  | ks -> Fmt.pf ppf " Suppressed by enabling: %s@\n" (String.concat ", " ks)

module Json = Raceguard_obs.Json

let loc_to_json (l : Loc.t) = Json.Str (Fmt.str "%a" Loc.pp l)

let transition_to_json tr =
  Json.Obj
    ([
       ("clock", Json.int tr.t_clock);
       ("tid", Json.int tr.t_tid);
       ("access", Json.Str tr.t_access);
       ("from", Json.Str tr.t_from);
       ("to", Json.Str tr.t_to);
     ]
    @ match tr.t_loc with None -> [] | Some l -> [ ("loc", loc_to_json l) ])

let provenance_to_json p =
  Json.Obj
    [
      ("history", Json.List (List.map transition_to_json p.p_history));
      ("dropped", Json.int p.p_dropped);
      ("suppressed_by", Json.List (List.map (fun k -> Json.Str k) p.p_suppressed_by));
    ]

let to_json r =
  Json.Obj
    ([
       ("kind", Json.Str (kind_to_string r.kind));
       ("addr", Json.int r.addr);
       ("tid", Json.int r.tid);
       ("thread", Json.Str r.thread_name);
       ("clock", Json.int r.clock);
       ("stack", Json.List (List.map loc_to_json r.stack));
       ("detail", Json.Str r.detail);
     ]
    @ (match r.block with
      | None -> []
      | Some b ->
          [
            ( "block",
              Json.Obj
                [
                  ("base", Json.int b.b_base);
                  ("len", Json.int b.b_len);
                  ("alloc_tid", Json.int b.b_alloc_tid);
                ] );
          ])
    @
    match r.provenance with
    | None -> []
    | Some p -> [ ("provenance", provenance_to_json p) ])

(* --- collector ------------------------------------------------------ *)

let kind_index = function Race_write -> 0 | Race_read -> 1 | Lock_order -> 2

(* The location index, keyed on the occurrence itself: two occurrences
   are one location when their signatures are equal, decided without
   building either signature.  The hash mixes the kind with the line
   numbers of the signature frames, so no string is hashed per
   warning; equal signatures have equal lines, and the rare line
   collisions are settled by [equal]. *)
module Index = Hashtbl.Make (struct
  type nonrec t = t

  let equal a b =
    let rec frames i s1 s2 =
      i = signature_depth
      ||
      match (s1, s2) with
      | [], [] -> true
      | l1 :: r1, l2 :: r2 -> Loc.equal l1 l2 && frames (i + 1) r1 r2
      | _ -> false
    in
    a.kind == b.kind && frames 0 a.stack b.stack

  let hash r =
    let rec go h i = function
      | (l : Loc.t) :: rest when i < signature_depth -> go ((h * 65599) + l.line) (i + 1) rest
      | _ -> h
    in
    let h = go (kind_index r.kind) 0 r.stack in
    (h lxor (h lsr 17)) land max_int
end)

type location = { first : t; mutable n : int }

type collector = {
  index : location Index.t;
  mutable count : int;
  mutable suppressed : int;
  suppressions : Suppression.t list;
  on_report : t -> unit;
}

let collector ?(on_report = ignore) ?(suppressions = []) () =
  { index = Index.create 16; count = 0; suppressed = 0; suppressions; on_report }

let is_suppressed c r =
  match c.suppressions with
  | [] -> false
  | ss -> List.exists (fun s -> Suppression.matches s ~kind:(kind_to_string r.kind) ~stack:r.stack) ss

let add c r =
  if is_suppressed c r then c.suppressed <- c.suppressed + 1
  else begin
    c.count <- c.count + 1;
    (match Index.find c.index r with
    | l -> l.n <- l.n + 1
    | exception Not_found -> Index.add c.index r { first = r; n = 1 });
    c.on_report r
  end

(* by first occurrence; equal clocks fall back to the signature order *)
let by_clock (a, _) (b, _) =
  let c = Int.compare a.clock b.clock in
  if c <> 0 then c else compare_signature (signature a) (signature b)

(** Distinct reported locations (the Figure 6 metric), with occurrence
    counts, ordered by first occurrence. *)
let locations c =
  Index.fold (fun _ l acc -> (l.first, l.n) :: acc) c.index [] |> List.sort by_clock

let location_count c = Index.length c.index
let occurrence_count c = c.count
let suppressed_count c = c.suppressed
