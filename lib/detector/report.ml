(** Race/deadlock reports and the de-duplicating collector.

    Valgrind de-duplicates errors by their call-stack signature; the
    paper counts "reported possible data race {e locations}" (Figure 6),
    i.e. distinct signatures, not individual dynamic occurrences.  The
    collector keeps both: every occurrence, and the deduplicated
    location list with occurrence counts. *)

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
   digit rather than through [Printf].  [eol] ends each line:
   {!to_string} and the streamed report digest append a newline, {!pp}
   hands the finished line to a formatter. *)

let add_int b n =
  if n < 0 then Buffer.add_string b (string_of_int n)
  else
    let rec go n =
      if n >= 10 then go (n / 10);
      Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
    in
    go n

(* Printf's [%#x]: "0x" and lower-case digits, but a bare "0" for 0;
   [lsr] reads a negative value as unsigned, as [%x] does *)
let add_hex b n =
  if n = 0 then Buffer.add_char b '0'
  else begin
    Buffer.add_string b "0x";
    let rec go n =
      if n <> 0 then begin
        go (n lsr 4);
        Buffer.add_char b "0123456789abcdef".[n land 15]
      end
    in
    go n
  end

(* one frame, as [Loc.pp] prints it: "func (file:line)" *)
let add_frame b (l : Loc.t) =
  Buffer.add_string b l.func;
  Buffer.add_string b " (";
  Buffer.add_string b l.file;
  Buffer.add_char b ':';
  add_int b l.line;
  Buffer.add_char b ')'

let add_stack b ~eol ?(depth = max_int) stack =
  let rec go i = function
    | loc :: rest when i < depth ->
        Buffer.add_string b (if i = 0 then "   at " else "   by ");
        add_frame b loc;
        eol b;
        go (i + 1) rest
    | _ -> ()
  in
  go 0 stack

let render b ~eol r =
  Buffer.add_string b (kind_to_string r.kind);
  Buffer.add_string b " at ";
  add_hex b r.addr;
  eol b;
  add_stack b ~eol r.stack;
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
      eol b;
      add_stack b ~eol ~depth:signature_depth bl.b_alloc_stack
  | None -> ());
  if r.detail <> "" then begin
    Buffer.add_char b ' ';
    Buffer.add_string b r.detail;
    eol b
  end

let to_string r =
  let b = Buffer.create 512 in
  render b ~eol:(fun b -> Buffer.add_char b '\n') r;
  Buffer.contents b

let pp ppf r =
  render (Buffer.create 128) r ~eol:(fun b ->
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

module Sig_map = Map.Make (struct
  type t = signature

  let compare = compare_signature
end)

type collector = {
  mutable all : t list;  (** reverse chronological *)
  mutable by_sig : (t * int) Sig_map.t;  (** first occurrence, count *)
  mutable suppressed : int;
  mutable suppressions : Suppression.t list;
}

let collector ?(suppressions = []) () =
  { all = []; by_sig = Sig_map.empty; suppressed = 0; suppressions }

let add c r =
  if List.exists (fun s -> Suppression.matches s ~kind:(kind_to_string r.kind) ~stack:r.stack) c.suppressions
  then c.suppressed <- c.suppressed + 1
  else begin
    c.all <- r :: c.all;
    let s = signature r in
    c.by_sig <-
      Sig_map.update s
        (function None -> Some (r, 1) | Some (first, n) -> Some (first, n + 1))
        c.by_sig
  end

(** All occurrences, in chronological order. *)
let occurrences c = List.rev c.all

(** Distinct reported locations (the Figure 6 metric), with occurrence
    counts, ordered by first occurrence. *)
let locations c =
  Sig_map.bindings c.by_sig
  |> List.map (fun (_, (r, n)) -> (r, n))
  |> List.sort (fun (a, _) (b, _) -> compare a.clock b.clock)

let location_count c = Sig_map.cardinal c.by_sig
let occurrence_count c = List.length c.all
let suppressed_count c = c.suppressed
